"""Tests of the benchmark's reference computations, pinned to worked values."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

import reference
import run
import traced


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return str(path)


@pytest.fixture
def tiny(tmp_path):
    """Three records; record 2 has no city."""
    path = write_csv(tmp_path / "tiny.csv", ["entity_id", "name", "city"], [
        ["e1", "martha", "la"],
        ["e1", "marhta", "la"],
        ["e2", "joe", ""],
    ])
    return reference.Reference(path, "word")


def test_jaro_and_jaro_winkler_worked_values():
    assert reference.jaro("NIGHTOWL", "NITHOWLG") == pytest.approx(0.869, abs=5e-4)
    assert reference.jaro_winkler("NIGHTOWL", "NITHOWLG") == pytest.approx(
        0.895, abs=5e-4)
    assert reference.jaro_winkler("MARTHA", "MARHTA") == pytest.approx(
        0.961, abs=5e-4)
    assert reference.jaro_winkler("abc", "abc") == 1.0
    assert reference.jaro("abc", "") == 0.0


def test_soft_and_plain_scores_of_chosen_pairs(tiny):
    jw = reference.jaro_winkler("martha", "marhta")
    soft = tiny.soft_scores([0, 1, 2])
    plain = tiny.plain_rows(np.arange(3))
    # names differ, cities agree; two shared fields
    assert plain[0, 1] == pytest.approx(0.5)
    assert soft[0, 1] == pytest.approx((jw + 1.0) / 2)
    # record 2 shares only the name field, and no feature
    assert soft[0, 2] == plain[0, 2] == 0.0
    assert np.diag(soft).tolist() == [1.0, 1.0, 1.0]
    assert tiny.missing_entries == 1
    assert tiny.entities == 2


def test_auto_threshold_and_its_fallback(tiny):
    # H = (0.5, 0.5, 0): mu + sigma = 0.622 reaches max(H), so mu is used
    assert tiny.plain_auto_tau() == pytest.approx(1 / 3)
    h = np.array([0.2, 0.4, 0.9, 0.5])
    assert reference.threshold_from_h(h) == pytest.approx(0.5 + np.sqrt(0.26 / 3))


def test_ngram_tokens_drop_blank_grams_and_stop_words():
    assert reference.tokenize("Ab Cd", "ngram") == ["ab ", "b c", " cd"]
    assert reference.tokenize("the cat AND dog", "word") == ["cat", "dog"]
    assert reference.tokenize("ab", "ngram") == ["ab"]


def test_component_counts_match_direct_thresholding(tmp_path):
    words = ["alpha", "beta", "gamma", "delta", "alpha beta", "beta gamma",
             "gamma delta", "alpha", "delta alpha", "beta"]
    path = write_csv(tmp_path / "w.csv", ["entity_id", "a", "b"],
                     [[str(i), w, words[(i * 3) % len(words)]]
                      for i, w in enumerate(words)])
    ref = reference.Reference(path, "word")
    scores = ref.plain_rows(np.arange(ref.n))
    np.fill_diagonal(scores, 0.0)
    taus = sorted({round(float(s), 6) for s in scores.ravel() if s > 0})
    direct = [reference.components(scores >= t).max() + 1 for t in taus]
    assert ref.plain_component_counts(taus) == direct
    labels = ref.plain_components(taus[len(taus) // 2])
    assert labels.max() + 1 == direct[len(taus) // 2]


def test_soft_never_below_plain(tmp_path):
    path = write_csv(tmp_path / "s.csv", ["entity_id", "a"], [
        ["1", "jonathan smith"], ["2", "jonathon smyth"], ["3", "john smith"],
        ["4", "jon smith jr"], ["5", "mary jones"],
    ])
    ref = reference.Reference(path, "word")
    records = list(range(ref.n))
    assert (ref.soft_scores(records) >= ref.plain_rows(np.arange(ref.n)) - 1e-12).all()


def test_metrics_on_hand_counted_partitions():
    got = reference.metrics(list("aaabbc"), list("xxyyyz"), tau=0.5)
    # contingency: (a,x)=2 (a,y)=1 (b,y)=2 (c,z)=1
    assert got["purity"] == pytest.approx(5 / 6)
    assert got["inverse_purity"] == pytest.approx(5 / 6)
    assert got["harmonic_mean"] == pytest.approx(5 / 6)
    # co-clustered pairs: 4 found, 4 true, 2 shared
    assert got["precision"] == got["recall"] == got["f1"] == pytest.approx(0.5)
    assert (got["n"], got["c"], got["c_true"], got["tau"]) == (6, 3, 3, 0.5)
    assert got["rel_cluster_error"] == 0.0

    same = reference.metrics(list("aabc"), list("xxyz"), tau=None)
    assert same["nmi"] == pytest.approx(1.0)
    assert same["rel_z_rand"] == pytest.approx(1.0)
    independent = reference.metrics(list("aabb"), list("xyxy"), tau=None)
    assert independent["nmi"] == pytest.approx(0.0, abs=1e-12)
    assert independent["precision"] == 0.0
    singles = reference.metrics(list("abc"), list("xyz"), tau=None)
    assert singles["precision"] is None and singles["f1"] is None
    assert singles["z_rand"] is None
    one = reference.metrics(list("aaa"), list("xyz"), tau=None)
    assert one["nmi"] == 0.0 and one["recall"] is None


def graph(p, edges):
    adjacency = np.eye(p, dtype=bool)
    for i, j in edges:
        adjacency[i, j] = adjacency[j, i] = True
    return adjacency


def test_refinement_rule_on_one_cluster():
    # a path: removing an end leaves one piece of strength 1, so the end is
    # removed and joined back; the cluster is a fixed point
    assert reference.refine_once(graph(3, [(0, 1), (1, 2)])) == [[0, 1, 2]]
    # two triangles sharing record 2: removing it leaves two full pieces;
    # both unions are full, so it joins the first
    bowtie = graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    assert reference.refine_once(bowtie) == [[0, 1, 2], [3, 4]]
    # a cycle stays connected whichever record is removed
    assert reference.refine_once(graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])) == [
        [0, 1, 2, 3]]
    assert reference.refine_once(graph(2, [])) == [[0, 1]]


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        traced.layer_metric_units())
