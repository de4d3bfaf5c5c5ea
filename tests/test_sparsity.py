import math
import random
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from softdedupe import pipeline, similarity
from softdedupe.corpus import DataSet, TokenizerConfig, tokenize_field
from softdedupe.similarity import CompositeSimilarity, SimilarityParams
from softdedupe.sparsity import adjust, impute_tokens, presence_mask

from conftest import imputed_fields, presence, raw_composite
from oracles import two_pass_impute_mode

WORD = TokenizerConfig(mode="word")


def mask_from_bits(bits):
    """bits[k][i] = 1 when record i has field k present: a one-token list,
    else an empty one."""
    return presence_mask([[["x"] if b else [] for b in col] for col in bits])


def shared_counts(pm):
    """Each pair's shared-field count, B B^T, as one n x n array."""
    return pm.mask @ pm.mask.T


class TestPresenceMask:
    def test_mask_layout(self):
        pm = mask_from_bits([[1, 0, 1], [1, 1, 0]])
        assert pm.mask.shape == (3, 2)
        assert pm.mask.tolist() == [[1, 1], [0, 1], [1, 0]]

    def test_shared_counts_are_pairwise_overlaps(self):
        bits = [[1, 0, 1], [1, 1, 0], [1, 1, 1]]
        counts = shared_counts(mask_from_bits(bits))
        want = [[sum(col[i] and col[j] for col in bits) for j in range(3)]
                for i in range(3)]
        assert counts.tolist() == want
        assert counts[0, 1] == 2  # fields 1 and 2
        assert counts[1, 2] == 1  # field 2 only

    def test_mismatched_columns(self):
        with pytest.raises(ValueError):
            presence_mask([[["x"]], [["x"], ["y"]]])


@st.composite
def raw_and_bits(draw):
    """A small raw composite (dense rows) and presence bits[k][i], with
    unstored zero scores and, often, records that share no field."""
    n = draw(st.integers(1, 8))
    a = draw(st.integers(1, 4))
    score = st.one_of(st.just(0.0), st.floats(0.0, float(a)))
    rows = [draw(st.lists(score, min_size=n, max_size=n)) for _ in range(n)]
    bits = [draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)) for _ in range(a)]
    return rows, bits


def naive_adjust(rows, bits):
    """Each pair's score over its shared-field count, one pair at a time."""
    n = len(rows)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            shared = sum(col[i] and col[j] for col in bits)
            if i == j:
                out[i, j] = math.nan
            elif shared:
                out[i, j] = rows[i][j] / shared
    return out


class TestAdjust:
    def small_sim(self, dense):
        return CompositeSimilarity(scores=np.array(dense, dtype=float))

    def test_divides_by_shared_count(self):
        raw = self.small_sim([[1.0, 1.6, 0.0], [1.6, 1.0, 0.5], [0.0, 0.5, 1.0]])
        pm = mask_from_bits([[1, 1, 0], [1, 1, 1]])
        adj = adjust(raw, pm)
        assert adj[0, 1] == pytest.approx(1.6 / 2)
        assert adj[1, 2] == pytest.approx(0.5 / 1)
        assert np.isnan(np.diag(adj)).all()

    def test_zero_shared_pair_stays_zero(self):
        raw = self.small_sim([[1.0, 0.0], [0.0, 1.0]])
        pm = mask_from_bits([[1, 0], [0, 1]])
        assert shared_counts(pm)[0, 1] == 0
        adj = adjust(raw, pm)
        assert adj[0, 1] == 0.0

    def test_double_adjust_is_error(self):
        raw = self.small_sim([[1.0, 0.4], [0.4, 1.0]])
        pm = mask_from_bits([[1, 1]])
        once = adjust(raw, pm)
        with pytest.raises(ValueError, match="already adjusted"):
            adjust(once, pm)
        # adjust divides raw's array in place, so raw is adjusted too
        with pytest.raises(ValueError, match="already adjusted"):
            adjust(raw, pm)

    @settings(max_examples=300, deadline=None)
    @given(raw_and_bits(), st.integers(1, 64))
    # records 1 and 2 share no field yet have a raw score; blocks of one
    # row, then all rows
    @example(([[1.0, 0.5, 0.0], [0.5, 1.0, 0.3], [0.0, 0.3, 1.0]],
              [[1, 1, 0], [1, 0, 1]]), 1)
    @example(([[1.0, 0.5, 0.0], [0.5, 1.0, 0.3], [0.0, 0.3, 1.0]],
              [[1, 1, 0], [1, 0, 1]]), 64)
    def test_matches_naive_per_pair_loop(self, case, block_entries):
        # adjust counts shared fields a block of rows at a time: with at most
        # 8 records, blocks range from one row to all rows
        rows, bits = case
        raw = self.small_sim(rows)
        with mock.patch.object(similarity, "BLOCK_ENTRIES", block_entries):
            adj = adjust(raw, mask_from_bits(bits))
        assert adj.dtype == np.float64
        assert np.array_equal(adj, naive_adjust(rows, bits), equal_nan=True)

    def test_size_mismatch(self):
        raw = self.small_sim([[1.0, 0.4], [0.4, 1.0]])
        with pytest.raises(ValueError):
            adjust(raw, mask_from_bits([[1, 1, 1]]))

    def test_adjusted_scores_bounded_by_one(self):
        rng = random.Random(3)
        words = ["".join(rng.choice("abcd") for _ in range(5)) for _ in range(20)]
        records = tuple(
            tuple(
                "" if rng.random() < 0.2 else " ".join(
                    rng.choice(words) for _ in range(rng.randint(1, 3))
                )
                for _ in range(3)
            )
            for _ in range(25)
        )
        data = DataSet(records=records, schema=("f0", "f1", "f2"))
        params = SimilarityParams(theta=0.5)
        # each shared field contributes at most 1, so ST <= shared counts
        raw = raw_composite(data, WORD, params)
        off = ~np.eye(data.n, dtype=bool)
        assert (raw[off] <= shared_counts(presence(data, WORD))[off] + 1e-9).all()
        adj = pipeline.build_similarity(data, WORD, params, sparsity_mode="adjust")
        assert (adj[off] <= 1.0 + 1e-9).all() and (adj[off] >= 0).all()


class TestExactMatchPair:
    """Two records identical on their one shared field must score exactly 1."""

    def dataset(self):
        records = (
            ("Joe Bruin", "male", ""),
            ("Joe Bruin", "", "Westwood"),
            ("Joe Zzzz", "male", "Venice"),
            ("Joe Qqqq", "female", "Westwood"),
        )
        return DataSet(records=records, schema=("name", "gender", "city"))

    def test_raw_score_is_exactly_one(self):
        raw = raw_composite(self.dataset(), WORD, SimilarityParams())
        # "joe" occurs in every name so its IDF is 0; "bruin" alone carries
        # the whole normalized weight, making the name similarity exactly 1
        assert raw[0, 1] == 1.0

    def test_shared_field_count_is_one(self):
        assert shared_counts(presence(self.dataset(), WORD))[0, 1] == 1

    def test_adjusted_score_is_exactly_one(self):
        sim = pipeline.build_similarity(self.dataset(), WORD, SimilarityParams())
        assert sim[0, 1] == 1.0


class TestImputeMode:
    """Mode imputation on a field's token lists (sparsity.impute_tokens)."""

    def test_fills_with_most_frequent_entry(self):
        data = DataSet(
            records=(("x", "red"), ("y", "red"), ("z", "blue"), ("w", "")),
            schema=("k", "color"),
        )
        out = imputed_fields(data, WORD, seed=0)
        assert out[1][3] == ["red"]
        assert out[0] == tokenize_field(data, 0, WORD)

    def test_identity_when_nothing_missing(self):
        data = DataSet(records=(("a", "b"), ("c", "d")), schema=("x", "y"))
        rng = random.Random(0)
        for k in range(data.a):
            tokens = tokenize_field(data, k, WORD)
            assert impute_tokens(data.column(k), tokens, rng) is tokens
        assert rng.getstate() == random.Random(0).getstate()  # no draw

    def test_stop_word_entries_count_as_missing(self):
        data = DataSet(records=(("red",), ("red",), ("the",)), schema=("c",))
        out = imputed_fields(data, WORD, seed=0)
        assert out[0][2] == ["red"]

    def test_tie_break_is_seed_deterministic(self):
        data = DataSet(
            records=(("red",), ("blue",), ("",), ("",)), schema=("c",)
        )
        fills = {tuple(imputed_fields(data, WORD, seed=s)[0][2]) for s in range(20)}
        assert fills <= {("red",), ("blue",)}
        assert len(fills) == 2  # both outcomes reachable across seeds
        for s in (0, 7):
            a = imputed_fields(data, WORD, seed=s)
            assert a == imputed_fields(data, WORD, seed=s)
            assert a[0][2] == a[0][3]  # one draw reused per field

    def test_mode_compared_case_folded(self):
        data = DataSet(
            records=(("Red",), ("red",), ("blue",), ("",)), schema=("c",)
        )
        # without case folding the two forms tokenize apart, so the fill
        # shows which form's tokens are used
        out = imputed_fields(data, TokenizerConfig(case_fold=False), seed=0)
        assert out[0][3] == ["Red"]  # first-seen raw form of the mode

    def test_all_missing_field_is_error(self):
        with pytest.raises(ValueError, match="no non-missing entries"):
            impute_tokens(["", "the"], [[], []], random.Random(0))
        data = DataSet(records=(("a", ""), ("b", "")), schema=("x", "y"))
        with pytest.raises(ValueError, match="field 1"):
            pipeline.build_similarity(data, WORD, SimilarityParams(), "impute", seed=0)

    def test_imputed_dataset_has_no_missing_entries(self, scores):
        data, _ = scores.datasets["restaurants30"]
        out = imputed_fields(data, WORD, seed=1)
        assert (presence_mask(out).mask == 1).all()


# entries equal when case-folded but apart in their tokens when case_fold
# is off, and missing ones: empty or stop words only
IMPUTE_ENTRIES = ["", "the", "The", "a", "A", "b", "a b", "A B", "ß", "SS", "ss"]


@st.composite
def imputable(draw):
    """A small data set of IMPUTE_ENTRIES, often with ties for a field's
    mode, and a tokenizer config."""
    n = draw(st.integers(2, 8))
    a = draw(st.integers(1, 3))
    entry = st.sampled_from(IMPUTE_ENTRIES)
    records = draw(st.lists(st.tuples(*[entry] * a), min_size=n, max_size=n))
    config = TokenizerConfig(mode=draw(st.sampled_from(["word", "ngram"])),
                             case_fold=draw(st.booleans()))
    return DataSet(records=tuple(records), schema=tuple(f"f{k}" for k in range(a))), config


class TestImputeOracle:
    @settings(max_examples=150, deadline=None)
    @given(imputable(), st.integers(0, 5))
    def test_matches_two_pass_imputation(self, data_and_config, seed):
        # the token lists filled from one pass and the impute build both
        # match imputing the data set and tokenizing it again
        data, config = data_and_config
        params = SimilarityParams()
        try:
            want = two_pass_impute_mode(data, config, seed)
        except ValueError as exc:
            field = re.match(r"field \d+ ", str(exc)).group()
            with pytest.raises(ValueError, match=field):
                pipeline.build_similarity(data, config, params, "impute", seed=seed)
            return
        filled = imputed_fields(data, config, seed)
        assert filled == [tokenize_field(want, k, config) for k in range(data.a)]
        got = pipeline.build_similarity(data, config, params, "impute", seed=seed)
        assert got.tobytes() == pipeline.build_similarity(want, config, params).tobytes()
