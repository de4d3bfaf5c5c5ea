import math
import random
import sys
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from softdedupe import pipeline, similarity
from softdedupe.corpus import (
    DataSet,
    TokenizerConfig,
    build_lexicon,
    tokenize,
    tokenize_field,
)
from softdedupe.similarity import (
    METHOD_SOFT_TFIDF,
    METHOD_TFIDF,
    SPARSE_FLOOR,
    FieldScores,
    SimilarityParams,
    build_jw_matrix,
    build_tfidf,
    composite,
    jaro,
    jaro_winkler,
    soft_tfidf_field,
    tfidf_field,
)

WORD = TokenizerConfig(mode="word")
short_text = st.text(alphabet="abcdef", max_size=10)
# long runs of few characters, so that a character has several unused
# matches in its window
repeated_text = st.lists(st.sampled_from(["a", "b", "é"]), max_size=40).map("".join)


def field_pipeline(column, theta=0.90):
    """lexicon, TF-IDF matrix and JW matrix for one raw column."""
    ds = DataSet(records=tuple((e,) for e in column), schema=("f",))
    tokens = tokenize_field(ds, 0, WORD)
    lex = build_lexicon(tokens)
    tfidf = build_tfidf(tokens, lex)
    jw = build_jw_matrix(lex, SimilarityParams(theta=theta))
    return lex, tfidf, jw


class TestJaro:
    def test_worked_example(self):
        assert jaro("NIGHTOWL", "NITHOWLG") == pytest.approx(0.869, abs=5e-4)

    def test_identical(self):
        assert jaro("abc", "abc") == 1.0

    def test_disjoint(self):
        assert jaro("abc", "xyz") == 0.0

    def test_empty(self):
        assert jaro("", "abc") == 0.0
        assert jaro("", "") == 0.0

    @given(short_text, short_text)
    def test_symmetric_and_bounded(self, s1, s2):
        v = jaro(s1, s2)
        assert jaro(s2, s1) == pytest.approx(v)
        assert 0.0 <= v <= 1.0

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(short_text, repeated_text, st.text(max_size=30)),
           st.one_of(short_text, repeated_text, st.text(max_size=30)))
    @example("", "")
    @example("aabbaabb", "babababa")
    @example("crème brûlée", "creme brulee")
    @example("日本語", "日本")
    @example("a" * 70, "a" * 65 + "b")
    def test_matches_naive_loop(self, s1, s2):
        # both argument orders, bit for bit; the strategies give empty
        # strings, runs of one character and non-ASCII text
        assert jaro(s1, s2) == oracles.naive_jaro(s1, s2)
        assert jaro(s2, s1) == oracles.naive_jaro(s2, s1)


class TestJaroWinkler:
    def test_worked_example(self):
        assert jaro_winkler("NIGHTOWL", "NITHOWLG") == pytest.approx(0.895, abs=5e-4)

    def test_identical(self):
        assert jaro_winkler("abcdefgh", "abcdefgh") == 1.0

    def test_prefix_cap_at_four(self):
        # J by hand: M=5 matched prefix chars, no transpositions
        j = (5 / 8 + 5 / 8 + 1.0) / 3
        expected = j + 0.1 * 4 * (1 - j)
        assert jaro_winkler("abcdeXYZ", "abcdePQR") == pytest.approx(expected)

    @given(short_text, short_text)
    def test_dominates_jaro(self, s1, s2):
        assert jaro_winkler(s1, s2) >= jaro(s1, s2) - 1e-15
        assert jaro_winkler(s1, s2) <= 1.0 + 1e-15

    @given(st.text(alphabet="abcdef", min_size=1, max_size=10))
    def test_self_similarity(self, s):
        assert jaro_winkler(s, s) == 1.0


PHONE_DIGITS = st.sampled_from(["0123456789", "12", "345"])


@st.composite
def jw_cases(draw):
    """A lexicon of distinct features and JW parameters for the prefilter.

    Lexicons mix lengths, share one length, share a stem longer than the
    longest prefix scored, are phone numbers (equal-length digits and
    dashes), or run to either side of the 64 characters a bit vector holds;
    alphabets run from two letters, so characters repeat, to non-ASCII
    ones. prefix_factor * max_prefix reaches 1. theta is a fixed level or a
    JW value the lexicon attains.
    """
    alphabet = draw(st.sampled_from(["ab", "abc", "abcdefghij", "aé-ß中😀"]))
    shape = draw(st.sampled_from(["mixed", "equal", "stem", "phone", "long"]))
    size = 20
    if shape == "mixed":
        words = st.text(alphabet, min_size=1, max_size=10)
    elif shape == "equal":
        length = draw(st.integers(1, 8))
        words = st.text(alphabet, min_size=length, max_size=length)
    elif shape == "stem":
        stem = draw(st.text(alphabet, min_size=5, max_size=6))
        words = st.text(alphabet, max_size=4).map(lambda tail: stem + tail)
    elif shape == "phone":
        words = st.text(draw(PHONE_DIGITS), min_size=10, max_size=10).map(
            lambda d: f"{d[:3]}-{d[3:6]}-{d[6:]}")
    else:
        words = st.text(alphabet, min_size=56, max_size=72)
        size = 8  # the naive loop scores each pair in O(length^2)
    feats = tuple(draw(st.lists(words, min_size=1, max_size=size, unique=True)))
    prefix_factor, max_prefix = draw(st.sampled_from([
        (p, cap) for p in (0.0, 0.1, 0.25) for cap in (0, 1, 4)
    ] + [(0.5, 2), (1.0, 1)]))
    attained = sorted(
        {jaro_winkler(a, b, prefix_factor, max_prefix) for a in feats for b in feats}
        - {1.0}
    )
    theta = draw(st.sampled_from([0.0, 0.5, 0.9, *attained]))
    return feats, SimilarityParams(
        prefix_factor=prefix_factor, max_prefix=max_prefix, theta=theta
    )


def naive_jw(feats, params):
    """The thresholded JW matrix by the double loop over every pair."""
    m = len(feats)
    want = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            v = 1.0 if i == j else jaro_winkler(
                feats[i], feats[j], params.prefix_factor, params.max_prefix
            )
            if v >= params.theta:
                want[i, j] = v
    return want


class TestJaroWinklerMatrix:
    def test_single_feature(self):
        jw = build_jw_matrix(("abc",), SimilarityParams())
        assert jw.rows.toarray().tolist() == [[1.0]]

    def test_dissimilar_pair_gives_diagonal_only(self):
        jw = build_jw_matrix(("abc", "xyz"), SimilarityParams(theta=0.9))
        assert np.array_equal(jw.rows.toarray(), np.eye(2))

    @pytest.mark.parametrize("theta", [0.0, 0.5, 0.9])
    def test_matches_naive_double_loop(self, theta):
        rng = random.Random(17)
        feats = sorted(
            {"".join(rng.choice("abcdef") for _ in range(8)) for _ in range(100)}
        )
        params = SimilarityParams(theta=theta)
        got = build_jw_matrix(tuple(feats), params).rows.toarray()
        m = len(feats)
        want = np.zeros((m, m))
        for i in range(m):
            for j in range(m):
                v = 1.0 if i == j else jaro_winkler(feats[i], feats[j])
                if v >= theta:
                    want[i, j] = v
        assert np.allclose(got, want, atol=0)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_prefilter_matches_naive_double_loop(self, data):
        feats, params = data.draw(jw_cases())
        want = naive_jw(feats, params)
        # a block of r rows holds at most r * m shared counts: from one row
        # to all
        m = len(feats)
        rows = data.draw(st.integers(1, m), label="rows_per_block")
        with mock.patch.object(similarity, "BLOCK_ENTRIES", rows * m):
            got = build_jw_matrix(feats, params).rows.toarray()
        assert np.array_equal(got, want)

    @settings(max_examples=200, deadline=None)
    @given(jw_cases())
    def test_scored_pairs_lie_between_naive_and_count_bound(self, case):
        # jaro_winkler scores every pair the naive loop keeps, once, and no
        # pair the count bound alone would have dropped
        feats, params = case
        index = {f: k for k, f in enumerate(feats)}
        with mock.patch.object(similarity, "jaro_winkler",
                               wraps=jaro_winkler) as scorer:
            build_jw_matrix(feats, params)
        scored = [(index[c.args[0]], index[c.args[1]])
                  for c in scorer.call_args_list]
        assert len(set(scored)) == len(scored)
        assert all(i < j for i, j in scored)
        assert set(scored) <= oracles.count_bound_candidates(feats, params)
        want = naive_jw(feats, params)
        kept = {(i, j) for i, j in zip(*np.nonzero(want)) if i < j}
        assert kept <= set(scored)

    def test_transposition_bound_peaks_at_lcs_matches(self):
        # two shared characters but an LCS of one: one match without a
        # transposition gives J = 0.412, above the bound at two matches
        # (0.407), so the bound must also try min(LCS, M) matches
        feats = ("ddcdcaga", "gjfffcffi")
        v = jaro_winkler(*feats)
        assert v == pytest.approx(0.412, abs=5e-4)
        got = build_jw_matrix(feats, SimilarityParams(theta=v)).rows.toarray()
        assert got[0, 1] == got[1, 0] == v

    @pytest.mark.parametrize("shape", ["prefix", "phone"])
    def test_prefix_weight_at_accepted_edge(self, shape):
        # SimilarityParams accepts prefix_factor * max_prefix up to
        # 1 + 1e-12; there JW falls with J, by at most 1e-12, which the
        # bounds' slack of 1e-9 absorbs
        p = 0.25 + 2.5e-13
        assert 1.0 < p * 4 <= 1.0 + 1e-12
        rng = random.Random(23)
        if shape == "prefix":
            feats = {"abca" + "".join(rng.choice("abc") for _ in range(rng.randint(0, 6)))
                     for _ in range(30)}
            feats |= {"".join(rng.choice("abc") for _ in range(rng.randint(3, 9)))
                      for _ in range(30)}
        else:
            feats = {"".join(rng.choice("0123") for _ in range(10)) for _ in range(40)}
            feats = {f"{d[:3]}-{d[3:6]}-{d[6:]}" for d in feats}
        feats = tuple(sorted(feats))
        attained = sorted({jaro_winkler(a, b, p, 4) for a in feats for b in feats})
        for theta in [0.0, 0.5, 0.9, *attained[::7]]:
            if theta >= 1.0:
                continue
            params = SimilarityParams(prefix_factor=p, max_prefix=4, theta=theta)
            got = build_jw_matrix(feats, params).rows.toarray()
            assert np.array_equal(got, naive_jw(feats, params)), theta

    def test_symmetric_with_unit_diagonal(self):
        feats = ("bruin", "bruins", "joan", "joe", "lurin")
        mat = build_jw_matrix(feats, SimilarityParams(theta=0.5)).rows.toarray()
        assert np.array_equal(mat, mat.T)
        assert np.array_equal(np.diag(mat), np.ones(5))
        assert ((mat == 0) | (mat >= 0.5)).all()


class TestTfIdf:
    def test_hand_computed_example(self):
        _, tfidf, _ = field_pipeline(["a b", "a"])
        # idf(a)=ln(2/2)=0, idf(b)=ln 2; row 0 normalizes to [0, 1], row 1 is zero
        assert np.allclose(tfidf.toarray(), [[0.0, 1.0], [0.0, 0.0]])

    def test_ubiquitous_feature_zeroes_out(self):
        _, tfidf, _ = field_pipeline(["x", "x", "x"])
        assert tfidf.data.size == 0

    def test_single_record_degenerate(self):
        _, tfidf, _ = field_pipeline(["x"])
        assert tfidf.data.size == 0

    def test_nonzero_rows_l1_normalized(self):
        _, tfidf, _ = field_pipeline(
            ["alpha beta", "beta gamma gamma", "delta", "alpha delta omega"]
        )
        dense = tfidf.toarray()
        assert (dense >= 0).all()
        sums = dense.sum(axis=1)
        for s in sums:
            assert s == pytest.approx(1.0, abs=1e-12) or s == 0.0


# words with repeats, case variants and stop words, and blank entries
tfidf_columns = st.lists(
    st.lists(st.sampled_from(["ab", "Ab", "ba", "abc", "b", "the", "THE", "and",
                              "na", "ab-c"]), max_size=6)
    .flatmap(lambda words: st.sampled_from([" ", "  "]).map(
        lambda sep: sep.join(words))),
    min_size=1, max_size=10,
)


class TestTfIdfOracle:
    """build_tfidf against the two-pass, dict-count TF-IDF it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(tfidf_columns, st.sampled_from(["word", "ngram"]), st.booleans())
    def test_matches_two_pass_bit_for_bit(self, column, mode, case_fold):
        config = TokenizerConfig(mode=mode, case_fold=case_fold)
        features, want = oracles.two_pass_tfidf(column, config)
        tokens = [tokenize(entry, config) for entry in column]
        assert build_lexicon(tokens) == features
        got = build_tfidf(tokens, features)
        assert got.shape == want.shape
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def soft_tfidf_oracle(tfidf_dense, feats, theta):
    """Direct four-index summation over feature pairs with JW >= theta."""
    n, m = tfidf_dense.shape
    jw = np.zeros((m, m))
    for p in range(m):
        for q in range(m):
            v = 1.0 if p == q else jaro_winkler(feats[p], feats[q])
            jw[p, q] = v if v >= theta else 0.0
    out = np.eye(n)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            out[i, j] = sum(
                tfidf_dense[i, p] * tfidf_dense[j, q] * jw[p, q]
                for p in np.flatnonzero(tfidf_dense[i])
                for q in np.flatnonzero(tfidf_dense[j])
            )
    return out


class TestFieldSimilarity:
    def test_exact_match_scores_one(self):
        _, tfidf, jw = field_pipeline(["bruin x", "bruin y", "zzz"])
        sim = soft_tfidf_field(tfidf, jw).toarray()
        # 'x' and 'y' are ubiquitous-free single chars; bruin carries weight
        assert sim[0, 1] == pytest.approx(sim[1, 0])
        assert 0 <= sim[0, 1] <= 1

    def test_missing_entry_scores_zero_everywhere(self):
        _, tfidf, jw = field_pipeline(["alpha", "beta", "the"])
        sim = soft_tfidf_field(tfidf, jw).toarray()
        assert sim[2, 0] == 0 and sim[2, 1] == 0 and sim[2, 2] == 1.0

    def test_triple_product_matches_direct_summation(self):
        rng = random.Random(5)
        words = ["".join(rng.choice("abcd") for _ in range(5)) for _ in range(30)]
        column = [
            " ".join(rng.choice(words) for _ in range(rng.randint(1, 3)))
            for _ in range(20)
        ]
        lex, tfidf, jw = field_pipeline(column, theta=0.5)
        got = soft_tfidf_field(tfidf, jw).toarray()
        want = soft_tfidf_oracle(tfidf.toarray(), lex, 0.5)
        assert np.abs(got - want).max() < 1e-10

    def test_tfidf_variant_examples(self):
        _, tfidf, _ = field_pipeline(["a b", "a"])
        sim = tfidf_field(tfidf).toarray()
        assert sim[0, 1] == 0.0  # rows [0,1] and [0,0]
        _, tfidf2, _ = field_pipeline(["alpha", "beta"])
        sim2 = tfidf_field(tfidf2).toarray()
        assert sim2[0, 1] == 0.0  # disjoint features
        _, tfidf3, _ = field_pipeline(["bruin", "bruin", "zzz"])
        sim3 = tfidf_field(tfidf3).toarray()
        assert sim3[0, 1] == pytest.approx(1.0)  # identical single feature

    def test_soft_dominates_exact_variant(self):
        rng = random.Random(9)
        words = ["".join(rng.choice("abc") for _ in range(4)) for _ in range(12)]
        column = [
            " ".join(rng.choice(words) for _ in range(rng.randint(1, 3)))
            for _ in range(15)
        ]
        _, tfidf, jw = field_pipeline(column, theta=0.5)
        soft = soft_tfidf_field(tfidf, jw).toarray()
        exact = tfidf_field(tfidf).toarray()
        assert (soft - exact).min() > -1e-12

    def test_offdiagonal_range(self):
        _, tfidf, jw = field_pipeline(["aaa bbb", "aaa", "bbb ccc", "ddd"])
        sim = soft_tfidf_field(tfidf, jw).toarray()
        off = sim[~np.eye(4, dtype=bool)]
        assert (off >= 0).all() and (off <= 1 + 1e-12).all()


class TestComposite:
    def test_unit_weights_maximum(self):
        _, tfidf, jw = field_pipeline(["bruin", "bruin", "zzz"])
        fs = soft_tfidf_field(tfidf, jw)
        st_mat = composite([fs, fs, fs])
        assert st_mat.scores[0, 1] == pytest.approx(3.0)

    def test_weighted_sum(self):
        _, tfidf, jw = field_pipeline(["bruin", "bruin", "zzz"])
        one = soft_tfidf_field(tfidf, jw)
        _, t2, j2 = field_pipeline(["aa bb", "aa cc", "dd"], theta=0.99)
        quarter_ish = soft_tfidf_field(t2, j2)
        pair = quarter_ish.toarray()[0, 1]
        st_mat = composite([one, one, quarter_ish], weights=[0.5, 0.5, 2.0])
        assert st_mat.scores[0, 1] == pytest.approx(1.0 + 2.0 * pair)

    def test_length_mismatch(self):
        _, tfidf, jw = field_pipeline(["bruin", "bruin", "zzz"])
        fs = soft_tfidf_field(tfidf, jw)
        with pytest.raises(ValueError):
            composite([fs, fs], weights=[1.0])

    def test_record_count_mismatch(self):
        _, t1, j1 = field_pipeline(["a b", "c d"])
        _, t2, j2 = field_pipeline(["a b", "c d", "e f"])
        with pytest.raises(ValueError):
            composite([soft_tfidf_field(t1, j1), soft_tfidf_field(t2, j2)])

    def test_grouped_field_holds_no_column_copy(self):
        # a grouped field expands from its u x u scores one block at a time:
        # no u x n array (3.2 MB here) is built beside the n x n composite
        u, n = 400, 1_000
        rng = np.random.default_rng(0)
        half = rng.random((u, u))
        scores = FieldScores(half + half.T, rng.integers(0, u, n))
        tracemalloc.start()
        try:
            composite([scores])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the composite, the block being added, the next one and the rows of
        # distinct that it is gathered from
        rows = similarity.BLOCK_ENTRIES // n
        assert peak < (n * n + 2 * rows * n + rows * u) * 8 + 65_536


class TestSimilarityParams:
    def test_prefix_bound(self):
        with pytest.raises(ValueError):
            SimilarityParams(prefix_factor=0.3, max_prefix=4)

    @pytest.mark.parametrize("kwargs", [
        {"prefix_factor": -0.2, "theta": 0.9},
        {"prefix_factor": math.nan},
        {"max_prefix": -1},
    ], ids=["negative_factor", "nan_factor", "negative_prefix"])
    def test_prefix_parameters_non_negative(self, kwargs):
        # build_jw_matrix's bound assumes 0 <= factor * prefix <= 1, and a
        # negative max_prefix would score s[:-1] as the prefix
        with pytest.raises(ValueError, match="must be >= 0"):
            SimilarityParams(**kwargs)

    @pytest.mark.parametrize("max_prefix", [0, 4])
    def test_prefix_factor_finite(self, max_prefix):
        # inf * 0 is NaN, which the bound on the product lets through
        with pytest.raises(ValueError, match="prefix_factor must be finite"):
            SimilarityParams(prefix_factor=math.inf, max_prefix=max_prefix)

    def test_theta_range(self):
        with pytest.raises(ValueError):
            SimilarityParams(theta=1.0)
        with pytest.raises(ValueError):
            SimilarityParams(theta=-0.1)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_weights_finite_and_positive(self, bad):
        with pytest.raises(ValueError, match="finite and positive"):
            SimilarityParams(weights=(1.0, bad))

    def test_weights_must_have_finite_sum(self):
        # each field scores at most 1 per pair, so the composite is at most
        # the weights' left-to-right sum; one that overflows is rejected
        with pytest.raises(ValueError, match="finite sum"):
            SimilarityParams(weights=(1e308, 1e308, 1e308))
        with pytest.raises(ValueError, match="finite sum"):
            SimilarityParams(weights=(1.0, 1.7e308, 1.7e308))
        assert SimilarityParams(weights=(1.0, 1e308)).weights == (1.0, 1e308)

    def test_weights_giving_subnormal_scores_rejected(self):
        with pytest.raises(ValueError, match="no score is subnormal"):
            SimilarityParams(weights=(5e-324,) * 3)
        with pytest.raises(ValueError, match="no score is subnormal"):
            SimilarityParams(weights=(1.0, 1e-300))
        tiny = 2.0**-600
        assert SimilarityParams(weights=(tiny,) * 3).weights == (tiny,) * 3

    def test_smallest_weights_give_normal_scores(self, citations):
        # weights just above the bound: every nonzero field score is at least
        # SPARSE_FLOOR and adjust divides by at most 3, so no score is subnormal
        data, _ = citations
        data = DataSet(records=data.records[:60], schema=data.schema)
        w = 2 * sys.float_info.min * data.a / SPARSE_FLOOR
        sim = pipeline.build_similarity(data, WORD, SimilarityParams(weights=(w,) * 3))
        nonzero = sim[np.isfinite(sim) & (sim != 0)]
        assert nonzero.size and nonzero.min() >= sys.float_info.min


@st.composite
def oracle_cases(draw):
    """A data set of 1-3 fields, a tokenizer and similarity parameters.

    Entries draw up to six words, repeats allowed, from a vocabulary of
    3-12 short words over a few letters, so records share several features
    and the JW rows of similar words overlap. Any entry of a record after
    the first may be empty, so records miss fields or are empty; the first
    record fills every field so that each field has a feature. An entry
    after the first may instead copy an earlier record's entry, with the
    same words or with the words reordered, so fields often hold records
    with the same TF-IDF row.
    """
    vocab = draw(st.lists(st.text("abcd", min_size=2, max_size=6),
                          min_size=3, max_size=12, unique=True))
    a = draw(st.integers(1, 3))
    n = draw(st.integers(2, 12))
    words = []
    for i in range(n):
        record = []
        for k in range(a):
            how = "new" if i == 0 else draw(
                st.sampled_from(["new", "copy", "reorder"]))
            if how == "new":
                record.append(draw(st.lists(st.sampled_from(vocab),
                                            min_size=1 if i == 0 else 0,
                                            max_size=6)))
                continue
            copied = words[draw(st.integers(0, i - 1))][k]
            if how == "reorder":
                copied = draw(st.permutations(copied))
            record.append(list(copied))
        words.append(record)
    records = tuple(tuple(" ".join(entry) for entry in record)
                    for record in words)
    data = DataSet(records=records, schema=tuple(f"f{k}" for k in range(a)))
    tok_config = TokenizerConfig(mode=draw(st.sampled_from(["word", "ngram"])))
    weights = draw(st.none() | st.lists(
        st.sampled_from([0.3, 0.5, 1.0, 1.7, 2.0]), min_size=a, max_size=a
    ).map(tuple))
    theta = draw(st.sampled_from([0.0, 0.5, 0.8, 0.9]))
    return data, tok_config, SimilarityParams(theta=theta, weights=weights)


# "common" is in every record, so its idf is 0 and it leaves no trace in
# the TF-IDF rows: records 0 and 2 of field "a" have the same row through it
# alone; records 0 and 1 through word order. Field "b" has no two equal rows.
IDF_ZERO_CASE = DataSet(
    records=tuple(zip(
        ["aa common", "common aa", "aa common common", "bb common",
         "common bb cc", "cc common bb", "common", "aa common"],
        ["common p1", "p2 common", "p3 common", "common p4",
         "p5 common", "common p6", "p7 common", "common p8"],
    )),
    schema=("a", "b"),
)
# every record has a row of its own in each field, and the rows' order by
# size differs from the records' order
ALL_DISTINCT_CASE = DataSet(
    records=tuple(zip(
        ["dd ee ff", "dd", "ee ff", "ff", "ee dd"],
        ["qq rr", "rr", "qq", "ss qq rr", "ss"],
    )),
    schema=("a", "b"),
)
BLOCK_SIZES = [1, 2, 7, 64, 1 << 16]


def csr_bytes(mat):
    return mat.toarray().tobytes()


def assert_matches_scipy(case, block_entries):
    """Every field, both composites and build_similarity of the case have
    the bits of scipy's products, with blocks of block_entries."""
    data, tok_config, params = case
    soft, plain, soft_ref, plain_ref = [], [], [], []
    with mock.patch.object(similarity, "BLOCK_ENTRIES", block_entries):
        for k in range(data.a):
            tokens = tokenize_field(data, k, tok_config)
            lexicon = build_lexicon(tokens)
            tfidf = build_tfidf(tokens, lexicon)
            ref = oracles.tfidf_csr(oracles.dict_counts(tokens, lexicon),
                                    len(lexicon))
            assert tfidf.toarray().tobytes() == csr_bytes(ref)
            jw = build_jw_matrix(lexicon, params)
            soft.append(soft_tfidf_field(tfidf, jw))
            soft_ref.append(oracles.field_csr(ref, jw.matrix))
            assert soft[-1].toarray().tobytes() == csr_bytes(soft_ref[-1])
            plain.append(tfidf_field(tfidf))
            plain_ref.append(oracles.field_csr(ref))
            assert plain[-1].toarray().tobytes() == csr_bytes(plain_ref[-1])
        for got, want in ((soft, soft_ref), (plain, plain_ref)):
            total = composite(iter(got), params.weights).scores
            assert total.tobytes() == csr_bytes(
                oracles.composite_csr(want, params.weights))
        for method in (METHOD_SOFT_TFIDF, METHOD_TFIDF):
            p = replace(params, method=method)
            got = pipeline.build_similarity(data, tok_config, p)
            want = oracles.adjusted_similarity(data, tok_config, p)
            assert got.tobytes() == want.tobytes()


def field_scores(data, tok_config, params):
    """Each field's TF-IDF matrix with its soft and its plain FieldScores."""
    for k in range(data.a):
        tokens = tokenize_field(data, k, tok_config)
        lexicon = build_lexicon(tokens)
        tfidf = build_tfidf(tokens, lexicon)
        jw = build_jw_matrix(lexicon, params)
        yield tfidf, soft_tfidf_field(tfidf, jw), tfidf_field(tfidf)


class TestFieldScores:
    """The products score each distinct TF-IDF row once."""

    @staticmethod
    def check_grouping(tfidf, scores):
        # records share an entry exactly when their rows are bit-identical
        _, inverse = np.unique(tfidf.toarray().view(np.int64), axis=0,
                               return_inverse=True)
        inverse = inverse.reshape(-1)
        u = int(inverse.max()) + 1
        assert scores.distinct.shape == (u, u)
        assert np.array_equal(scores.entry[:, None] == scores.entry,
                              inverse[:, None] == inverse)

    @settings(max_examples=100, deadline=None)
    @given(oracle_cases())
    def test_groups_bit_identical_rows(self, case):
        for tfidf, soft, plain in field_scores(*case):
            self.check_grouping(tfidf, soft)
            self.check_grouping(tfidf, plain)

    def test_rows_equal_through_idf_zero_word(self):
        (tfidf_a, soft_a, plain_a), (_, soft_b, plain_b) = field_scores(
            IDF_ZERO_CASE, WORD, SimilarityParams())
        # rows {aa}, {bb}, {bb, cc} and the empty row of "common"
        assert len(soft_a.distinct) == len(plain_a.distinct) == 4
        assert soft_a.entry[0] == soft_a.entry[1] == soft_a.entry[2]
        assert plain_a.entry[4] == plain_a.entry[5] != plain_a.entry[3]
        self.check_grouping(tfidf_a, soft_a)
        # every record has a row of its own in field b
        for scores in (soft_b, plain_b):
            assert sorted(scores.entry) == list(range(8))

    def test_every_row_distinct(self):
        # rows sort by their size first, so entry is not the record order
        for tfidf, soft, plain in field_scores(ALL_DISTINCT_CASE, WORD,
                                               SimilarityParams()):
            for scores in (soft, plain):
                self.check_grouping(tfidf, scores)
                assert sorted(scores.entry) == list(range(5))
                assert not np.array_equal(scores.entry, np.arange(5))

    def test_same_row_pairs_score_the_distinct_diagonal(self):
        _, soft, plain = next(field_scores(IDF_ZERO_CASE, WORD,
                                           SimilarityParams()))
        for scores in (soft, plain):
            full = scores.toarray()
            assert np.array_equal(np.diag(full), np.ones(8))
            own = scores.entry[0]
            assert full[0, 2] == full[1, 7] == scores.distinct[own, own]
            # a single-feature row has unit weight
            assert scores.distinct[own, own] == 1.0
            empty = scores.entry[6]
            assert scores.distinct[empty, empty] == 0.0


class TestScipyOracle:
    """The numpy field products give the bits of scipy's CSR products."""

    @settings(max_examples=150, deadline=None)
    @given(oracle_cases(), st.sampled_from(BLOCK_SIZES))
    def test_matches_scipy_bit_for_bit(self, case, block_entries):
        assert_matches_scipy(case, block_entries)

    @pytest.mark.parametrize("block_entries", BLOCK_SIZES)
    @pytest.mark.parametrize("mode", ["word", "ngram"])
    def test_idf_zero_case_matches_scipy(self, mode, block_entries):
        for theta in (0.0, 0.9):
            case = (IDF_ZERO_CASE, TokenizerConfig(mode=mode),
                    SimilarityParams(theta=theta, weights=(1.7, 0.5)))
            assert_matches_scipy(case, block_entries)

    @pytest.mark.parametrize("block_entries", BLOCK_SIZES)
    def test_all_distinct_case_matches_scipy(self, block_entries):
        for theta in (0.0, 0.9):
            case = (ALL_DISTINCT_CASE, WORD,
                    SimilarityParams(theta=theta, weights=(0.5, 1.7)))
            assert_matches_scipy(case, block_entries)

    def test_sum_order_changes_bits(self):
        # Here adding each soft score's terms in ascending feature order
        # gives other bits than scipy's order, the reverse of first touch,
        # so a product that sums in the wrong order fails this test.
        column = ["bac babc babc bbbb", "bbb babc cbb cbb", "cbb bbbb"]
        data = DataSet(records=tuple((e,) for e in column), schema=("f",))
        tokens = tokenize_field(data, 0, WORD)
        lex = build_lexicon(tokens)
        jw = build_jw_matrix(lex, SimilarityParams(theta=0.5))
        ref = oracles.tfidf_csr(oracles.dict_counts(tokens, lex), len(lex))
        want = csr_bytes(oracles.field_csr(ref, jw.matrix))
        ascending = ref @ jw.matrix
        ascending.sort_indices()
        assert csr_bytes(oracles.finish_field_matrix(ascending @ ref.T)) != want
        tfidf = build_tfidf(tokens, lex)
        assert soft_tfidf_field(tfidf, jw).toarray().tobytes() == want
