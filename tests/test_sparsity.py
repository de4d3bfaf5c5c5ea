import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softdedupe import pipeline
from softdedupe.corpus import DataSet, TokenizerConfig, tokenize, tokenize_field
from softdedupe.similarity import CompositeSimilarity, SimilarityParams
from softdedupe.sparsity import adjust, impute_mode, impute_tokens, presence_mask

from conftest import presence, raw_composite
from oracles import two_pass_impute_mode

WORD = TokenizerConfig(mode="word")


def mask_from_bits(bits):
    """bits[k][i] = 1 when record i has field k present: a one-token list,
    else an empty one."""
    return presence_mask([[["x"] if b else [] for b in col] for col in bits])


class TestPresenceMask:
    def test_mask_layout(self):
        pm = mask_from_bits([[1, 0, 1], [1, 1, 0]])
        assert pm.mask.shape == (3, 2)
        assert pm.mask.tolist() == [[1, 1], [0, 1], [1, 0]]

    def test_shared_counts_are_pairwise_overlaps(self):
        pm = mask_from_bits([[1, 0, 1], [1, 1, 0], [1, 1, 1]])
        want = pm.mask @ pm.mask.T
        assert np.array_equal(pm.shared_counts, want)
        assert pm.shared_counts[0, 1] == 2  # fields 1 and 2
        assert pm.shared_counts[1, 2] == 1  # field 2 only

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
        assert pm.shared_counts[0, 1] == 0
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
    @given(raw_and_bits())
    def test_matches_naive_per_pair_loop(self, case):
        rows, bits = case
        raw = self.small_sim(rows)
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
        assert (raw[off] <= presence(data, WORD).shared_counts[off] + 1e-9).all()
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
        assert presence(self.dataset(), WORD).shared_counts[0, 1] == 1

    def test_adjusted_score_is_exactly_one(self):
        sim = pipeline.build_similarity(self.dataset(), WORD, SimilarityParams())
        assert sim[0, 1] == 1.0


class TestImputeMode:
    def test_fills_with_most_frequent_entry(self):
        data = DataSet(
            records=(("x", "red"), ("y", "red"), ("z", "blue"), ("w", "")),
            schema=("k", "color"),
        )
        out = impute_mode(data, WORD, seed=0)
        assert out.records[3] == ("w", "red")

    def test_identity_when_nothing_missing(self):
        data = DataSet(records=(("a", "b"), ("c", "d")), schema=("x", "y"))
        assert impute_mode(data, WORD, seed=0).records == data.records

    def test_stop_word_entries_count_as_missing(self):
        data = DataSet(records=(("red",), ("red",), ("the",)), schema=("c",))
        out = impute_mode(data, WORD, seed=0)
        assert out.records[2] == ("red",)

    def test_tie_break_is_seed_deterministic(self):
        data = DataSet(
            records=(("red",), ("blue",), ("",), ("",)), schema=("c",)
        )
        fills = {impute_mode(data, WORD, seed=s).records[2][0] for s in range(20)}
        assert fills <= {"red", "blue"}
        assert len(fills) == 2  # both outcomes reachable across seeds
        for s in (0, 7):
            a = impute_mode(data, WORD, seed=s)
            assert a.records == impute_mode(data, WORD, seed=s).records
            assert a.records[2] == a.records[3]  # one draw reused per field

    def test_mode_compared_case_folded(self):
        data = DataSet(
            records=(("Red",), ("red",), ("blue",), ("",)), schema=("c",)
        )
        out = impute_mode(data, WORD, seed=0)
        assert out.records[3] == ("Red",)  # first-seen raw form of the mode

    def test_all_missing_field_is_error(self):
        data = DataSet(records=(("a", ""), ("b", "")), schema=("x", "y"))
        with pytest.raises(ValueError, match="field 1"):
            impute_mode(data, WORD, seed=0)

    def test_imputed_dataset_has_no_missing_entries(self, scores):
        data, _ = scores.datasets["restaurants30"]
        out = impute_mode(data, WORD, seed=1)
        for k in range(out.a):
            assert all(tokenize(e, WORD) for e in out.column(k))


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
        # impute_mode's data set, the token lists filled from one pass and
        # the impute build all match imputing the data set and tokenizing
        # it again
        data, config = data_and_config
        try:
            want = two_pass_impute_mode(data, config, seed)
        except ValueError:
            with pytest.raises(ValueError, match="no non-missing entries"):
                impute_mode(data, config, seed)
            return
        assert impute_mode(data, config, seed) == want
        rng = random.Random(seed)
        for k in range(data.a):
            filled = impute_tokens(data.column(k), tokenize_field(data, k, config), rng)
            assert filled == tokenize_field(want, k, config)
        params = SimilarityParams()
        got = pipeline.build_similarity(data, config, params, "impute", seed=seed)
        assert got.tobytes() == pipeline.build_similarity(want, config, params).tobytes()
