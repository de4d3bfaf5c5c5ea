"""Acceptance suite: one test per release criterion.

Each test prints a single pass/fail line; run with `pytest -s` to see them
even when everything passes. The heavier fixtures (adjusted score arrays
and threshold sweeps) are cached per session.
"""

import math
import random
from math import comb

import numpy as np
import pytest

from softdedupe import pipeline
from softdedupe.clustering import (
    ClusterSet,
    auto_threshold,
    group,
    nontrivial_interval,
    refine_all,
    threshold,
)
from softdedupe.corpus import DataSet, TokenizerConfig, build_lexicon, tokenize_field
from softdedupe.evaluation import _contingency, evaluate
from softdedupe.similarity import (
    SimilarityParams,
    build_jw_matrix,
    build_tfidf,
    jaro,
    jaro_winkler,
    soft_tfidf_field,
    tfidf_field,
)
from softdedupe.sparsity import presence_mask

from conftest import imputed_fields, raw_composite
from oracles import components, from_groups

WORD = TokenizerConfig(mode="word")


def check(criterion, ok, detail=""):
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


_SWEEPS = {}


def max_f1(scores, name, mode, method):
    """Best pairwise F1 over a threshold sweep, cached per configuration."""
    key = (name, mode, method)
    if key not in _SWEEPS:
        rows = pipeline.sweep_thresholds(
            scores.get(name, mode=mode, method=method), scores.truth(name),
            grid_size=60,
        )
        _SWEEPS[key] = rows
    scores = [r.f1 for _, _, r in _SWEEPS[key] if r.f1 is not None]
    return max(scores)


def test_criterion_01_string_similarity_reference_values():
    j = jaro("NIGHTOWL", "NITHOWLG")
    jw = jaro_winkler("NIGHTOWL", "NITHOWLG")
    ok = abs(j - 0.869) <= 5e-4 and abs(jw - 0.895) <= 5e-4
    check("C1 string similarity reference pair", ok, f"jaro={j:.6f} jw={jw:.6f}")


def test_criterion_02_exact_match_on_single_shared_field():
    records = (
        ("Joe Bruin", "male", ""),
        ("Joe Bruin", "", "Westwood"),
        ("Joe Zzzz", "male", "Venice"),
        ("Joe Qqqq", "female", "Westwood"),
    )
    data = DataSet(records=records, schema=("name", "gender", "city"))
    raw = raw_composite(data, WORD, SimilarityParams())[0, 1]
    adj = pipeline.build_similarity(data, WORD, SimilarityParams())[0, 1]
    ok = raw == 1.0 and adj == 1.0
    check("C2 exact pair scores exactly 1.0", ok, f"raw={raw!r} adjusted={adj!r}")


def test_criterion_03_matrix_form_matches_direct_summation():
    thetas = [0.0, 0.5, 0.9]
    worst = 0.0
    worst_exact = 0.0
    for trial in range(100):
        rng = random.Random(1000 + trial)
        vocab = [
            "".join(rng.choice("abcdefgh") for _ in range(rng.randint(3, 7)))
            for _ in range(rng.randint(5, 40))
        ]
        n = rng.randint(2, 50)
        column = [
            " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 4)))
            if (i == 0 or rng.random() > 0.15)
            else ""
            for i in range(n)
        ]
        theta = thetas[trial % 3]
        data = DataSet(records=tuple((e,) for e in column), schema=("f",))
        tokens = tokenize_field(data, 0, WORD)
        lexicon = build_lexicon(tokens)
        tfidf = build_tfidf(tokens, lexicon)
        params = SimilarityParams(theta=theta)
        got = soft_tfidf_field(tfidf, build_jw_matrix(lexicon, params)).toarray()
        t_dense = tfidf.toarray()
        m = len(lexicon)
        m_dense = np.zeros((m, m))
        for p in range(m):
            m_dense[p, p] = 1.0
            for q in range(p + 1, m):
                v = jaro_winkler(lexicon[p], lexicon[q])
                if v >= theta:
                    m_dense[p, q] = m_dense[q, p] = v
        expected = t_dense @ m_dense @ t_dense.T
        np.fill_diagonal(expected, 1.0)
        worst = max(worst, float(np.abs(got - expected).max()))
        # with an identity feature-match matrix the soft form must reduce
        # to the exact TF-IDF variant
        exact = tfidf_field(tfidf).toarray()
        kron = t_dense @ np.eye(m) @ t_dense.T
        np.fill_diagonal(kron, 1.0)
        worst_exact = max(worst_exact, float(np.abs(exact - kron).max()))
    ok = worst < 1e-10 and worst_exact < 1e-10
    check(
        "C3 sparse matrix form vs direct summation (100 corpora)",
        ok,
        f"max dev soft={worst:.2e} exact={worst_exact:.2e}",
    )


def test_criterion_04_benchmark_shapes(restaurants, citations):
    (rst, rst_truth), (cora, cora_truth) = restaurants, citations
    r_ratio = rst_truth.c / rst.n
    c_ratio = cora_truth.c / cora.n
    ok = (
        rst.n == 864
        and rst_truth.c == 752
        and abs(r_ratio - 0.870) <= 1e-3
        and cora.n == 1295
        and cora_truth.c == 122
        and abs(c_ratio - 0.094) <= 1e-3
    )
    check(
        "C4 benchmark record/entity counts",
        ok,
        f"rst {rst.n}/{rst_truth.c} ratio={r_ratio:.4f}, "
        f"cora {cora.n}/{cora_truth.c} ratio={c_ratio:.4f}",
    )


def test_criterion_05_word_features_beat_ngrams(scores):
    results = {}
    ok = True
    for method in ("soft_tfidf", "tfidf"):
        word = max_f1(scores, "restaurants", "word", method)
        ngram = max_f1(scores, "restaurants", "ngram", method)
        results[method] = (word, ngram)
        ok = ok and word > ngram
    detail = ", ".join(
        f"{m}: word={w:.3f} ngram={g:.3f}" for m, (w, g) in results.items()
    )
    check("C5 word features beat 3-grams on restaurants", ok, detail)


def test_criterion_06_sparsity_degrades_quality(scores):
    full = max_f1(scores, "restaurants", "word", "soft_tfidf")
    degraded = max_f1(scores, "restaurants30", "word", "soft_tfidf")
    check(
        "C6 30% blanking lowers best F1",
        degraded < full,
        f"full={full:.3f} degraded={degraded:.3f}",
    )


def test_criterion_07_soft_scores_dominate_exact(scores):
    worst = math.inf
    for name in ("restaurants", "citations"):
        data, _ = scores.datasets[name]
        soft = raw_composite(data, WORD, SimilarityParams(method="soft_tfidf"))
        exact = raw_composite(data, WORD, SimilarityParams(method="tfidf"))
        worst = min(worst, float((soft - exact).min()))
    check(
        "C7 soft TF-IDF >= exact TF-IDF pointwise",
        worst > -1e-12,
        f"min difference={worst:.2e}",
    )


def test_criterion_08_automatic_threshold_quality(scores):
    sim = scores.get("restaurants")
    tau = auto_threshold(sim)
    lo, hi = nontrivial_interval(sim)
    graph = threshold(sim, tau)
    clusters = group(graph)
    report = evaluate(clusters, scores.truth("restaurants"), tau=tau)
    ok = (
        clusters == components(graph)
        and lo < tau < hi
        and report.harmonic_mean > 0.5
        and report.rel_cluster_error < 0.5
    )
    check(
        "C8 automatic threshold lands well",
        ok,
        f"tau={tau:.3f} in ({lo:.3f}, {hi:.3f}), "
        f"hm={report.harmonic_mean:.3f} rel_err={report.rel_cluster_error:.3f}",
    )


def test_criterion_09_metric_identities():
    truth = from_groups([[0, 1, 2], [3, 4], [5], [6, 7]])
    r = evaluate(truth, truth)
    vals = [
        r.purity, r.inverse_purity, r.harmonic_mean, r.precision, r.recall,
        r.f1, r.rel_z_rand, r.nmi,
    ]
    identity_ok = all(abs(v - 1.0) <= 1e-9 for v in vals) and (
        r.rel_cluster_error == 0.0
    )
    singles = from_groups([[i] for i in range(8)])
    s = evaluate(singles, truth)
    singleton_ok = s.purity == 1.0 and s.precision is None and s.f1 is None
    check(
        "C9 metric identities and undefined markers",
        identity_ok and singleton_ok,
        f"identity ok={identity_ok}, singleton ok={singleton_ok}",
    )


def test_criterion_10_pair_model_moments_match_monte_carlo():
    n_samples = 100_000
    failures = []
    rng = np.random.default_rng(2024)
    instances = 0
    seed = 0
    while instances < 20:
        seed += 1
        r = random.Random(seed)
        n = r.randint(4, 12)
        labels_c = [r.randint(0, 3) for _ in range(n)]
        labels_g = [r.randint(0, 3) for _ in range(n)]
        c = ClusterSet(labels_c)
        g = ClusterSet(labels_g)
        t = comb(n, 2)
        n_c = sum(comb(len(x), 2) for x in c.clusters)
        n_g = sum(comb(len(x), 2) for x in g.clusters)
        if t < 2 or n_c == 0 or n_g == 0:
            continue
        instances += 1
        # stated null model: the n_c co-clustered pairs occupy a uniformly
        # random subset of the t possible pairs
        mu = n_c * n_g / t
        var = n_g * (n_c / t) * (1 - n_c / t) * (t - n_g) / (t - 1)
        base = np.zeros((n_samples, t), dtype=bool)
        base[:, :n_c] = True
        samples = rng.permuted(base, axis=1)[:, :n_g].sum(axis=1)
        mc_mean = samples.mean()
        mc_var = samples.var(ddof=1)
        se_mean = samples.std(ddof=1) / math.sqrt(n_samples)
        m4 = ((samples - mc_mean) ** 4).mean()
        se_var = math.sqrt(max(m4 - mc_var**2, 0.0) / n_samples)
        if abs(mc_mean - mu) > 3 * se_mean + 1e-9:
            failures.append(f"seed {seed}: mean {mc_mean:.4f} vs {mu:.4f}")
        if abs(mc_var - var) > 3 * se_var + 1e-9:
            failures.append(f"seed {seed}: var {mc_var:.4f} vs {var:.4f}")
        # the reported score must standardize w with exactly these moments
        w = sum(comb(cnt, 2) for cnt in _contingency(c, g)[2].tolist())
        z = evaluate(c, g).z_rand
        if abs(z - (w - mu) / math.sqrt(var)) > 1e-9:
            failures.append(f"seed {seed}: z mismatch")
    check(
        "C10 pair-count moments vs Monte Carlo (20 instances)",
        not failures,
        "; ".join(failures) if failures else "all within 3 SE",
    )


def test_criterion_11_clustering_structure_fuzz():
    rng = np.random.default_rng(7)
    bad = []
    for trial in range(1000):
        n = int(rng.integers(2, 41))
        arr = rng.random((n, n))
        sim = (arr + arr.T) / 2
        np.fill_diagonal(sim, np.nan)
        lo, hi = nontrivial_interval(sim)
        if not lo < hi:
            continue
        taus = np.sort(lo + (hi - lo) * rng.random(3))
        counts = []
        for tau in taus:
            if not lo < tau <= hi:
                continue
            graph = threshold(sim, float(tau))
            clusters = group(graph)
            members = sorted(i for cl in clusters.clusters for i in cl)
            if members != list(range(n)):
                bad.append(f"trial {trial}: not a partition")
                break
            if clusters != components(graph):
                bad.append(f"trial {trial}: not the connected components")
                break
            refined = refine_all(clusters, graph)
            if refined.c < clusters.c:
                bad.append(f"trial {trial}: refinement merged clusters")
                break
            if sorted(i for cl in refined.clusters for i in cl) != list(range(n)):
                bad.append(f"trial {trial}: refined set not a partition")
                break
            counts.append(clusters.c)
        if counts != sorted(counts):
            bad.append(f"trial {trial}: cluster count not monotone in tau")
    check(
        "C11 threshold clustering invariants (1000 matrices)",
        not bad,
        bad[0] if bad else "all invariants held",
    )


def test_criterion_12_sparsity_modes_run_end_to_end(scores):
    results = []
    ok = True
    for name in ("citations", "restaurants30"):
        for sparsity in ("adjust", "impute"):
            sim = scores.get(name, sparsity=sparsity)
            clusters, tau = pipeline.cluster_records(sim)
            results.append(f"{name}/{sparsity}: c={clusters.c} tau={tau:.3f}")
            ok = ok and clusters.n == len(sim)
            if sparsity == "impute":
                # the cache imputes with seed 1
                filled = imputed_fields(scores.datasets[name][0], WORD, seed=1)
                if not (presence_mask(filled).mask == 1).all():
                    ok = False
                    results.append(f"{name}: imputed mask has holes")
    check("C12 both sparsity modes complete", ok, "; ".join(results))
