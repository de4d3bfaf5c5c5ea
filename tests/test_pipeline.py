import numpy as np
import pytest

from softdedupe import clustering, pipeline
from softdedupe.corpus import DataSet, TokenizerConfig
from softdedupe.similarity import SimilarityParams

WORD = TokenizerConfig(mode="word")


def small_dataset():
    records = (
        ("Joe Bruin", "Westwood"),
        ("Joe Bruin", "Westwood"),
        ("Joan Lurin", "Venice"),
        ("Mary Smith", "Hollywood"),
        ("Mary Smyth", "Hollywood"),
        ("Alex Stone", ""),
    )
    return DataSet(records=records, schema=("name", "city"))


class TestBuildSimilarity:
    def test_bundle_shapes(self):
        data = small_dataset()
        bundle = pipeline.build_similarity(data, WORD, SimilarityParams())
        assert len(bundle.field_sims) == data.a
        assert bundle.raw.max_score == float(data.a)
        assert bundle.adjusted.shape == (data.n, data.n)
        assert bundle.mask.mask.shape == (data.n, data.a)

    def test_unknown_sparsity_mode(self):
        with pytest.raises(ValueError, match="sparsity mode"):
            pipeline.build_similarity(
                small_dataset(), WORD, SimilarityParams(), sparsity_mode="drop"
            )

    def test_impute_mode_fills_every_entry(self):
        bundle = pipeline.build_similarity(
            small_dataset(), WORD, SimilarityParams(), sparsity_mode="impute", seed=3
        )
        assert (bundle.mask.mask == 1).all()

    def test_duplicates_score_higher_than_strangers(self):
        bundle = pipeline.build_similarity(small_dataset(), WORD, SimilarityParams())
        adj = bundle.adjusted
        assert adj[0, 1] > adj[0, 2]
        assert adj[3, 4] > adj[3, 5]


class TestClusterRecords:
    def test_auto_threshold_is_default(self):
        bundle = pipeline.build_similarity(small_dataset(), WORD, SimilarityParams())
        _, tau = pipeline.cluster_records(bundle.adjusted)
        assert tau == clustering.auto_threshold(bundle.adjusted)

    def test_explicit_threshold_respected(self):
        bundle = pipeline.build_similarity(small_dataset(), WORD, SimilarityParams())
        clusters, tau = pipeline.cluster_records(bundle.adjusted, tau=0.7)
        assert tau == 0.7
        assert (0, 1) in clusters.clusters  # the exact duplicates survive

    def test_refined_count_never_smaller(self):
        bundle = pipeline.build_similarity(small_dataset(), WORD, SimilarityParams())
        plain, tau = pipeline.cluster_records(bundle.adjusted)
        refined, _ = pipeline.cluster_records(bundle.adjusted, tau, refine=True)
        assert refined.c >= plain.c


class TestSweepThresholds:
    def setup_method(self):
        data = small_dataset()
        self.bundle = pipeline.build_similarity(data, WORD, SimilarityParams())
        self.truth = clustering.ClusterSet.from_groups(
            [[0, 1], [2], [3, 4], [5]]
        )

    def test_rows_sorted_with_auto_marked(self):
        rows = pipeline.sweep_thresholds(
            self.bundle.adjusted, self.truth, grid_size=10
        )
        taus = [tau for tau, _, _ in rows]
        assert taus == sorted(taus)
        assert sum(1 for _, is_auto, _ in rows if is_auto) == 1
        auto_tau = next(tau for tau, is_auto, _ in rows if is_auto)
        assert auto_tau == clustering.auto_threshold(self.bundle.adjusted)

    def test_explicit_taus(self):
        rows = pipeline.sweep_thresholds(
            self.bundle.adjusted, self.truth, taus=[0.3, 0.5, 0.7]
        )
        assert len(rows) == 4  # three requested plus the auto threshold
        for tau, _, report in rows:
            assert report.tau == tau and report.n == 6

    def test_empty_range_is_error(self):
        with pytest.raises(ValueError, match="empty threshold"):
            pipeline.sweep_thresholds(self.bundle.adjusted, self.truth, taus=[])


class TestDegrade:
    def test_blank_count_is_exact(self, restaurants):
        data, _ = restaurants
        out = pipeline.degrade(data, ["phone"], 0.25, seed=5)
        k = data.field_index("phone")
        blanks = sum(1 for e in out.column(k) if e == "") - sum(
            1 for e in data.column(k) if e == ""
        )
        assert blanks == round(0.25 * data.n)

    def test_untouched_fields_bit_identical(self, restaurants):
        data, _ = restaurants
        out = pipeline.degrade(data, ["city", "phone"], 0.30, seed=5)
        for name in ("name", "address", "cuisine"):
            k = data.field_index(name)
            assert out.column(k) == data.column(k)

    def test_deterministic(self, restaurants):
        data, _ = restaurants
        a = pipeline.degrade(data, ["city"], 0.30, seed=9)
        b = pipeline.degrade(data, ["city"], 0.30, seed=9)
        assert a.records == b.records

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            pipeline.degrade(small_dataset(), ["city"], 0.0, seed=1)
        with pytest.raises(ValueError):
            pipeline.degrade(small_dataset(), ["city"], 1.0, seed=1)

    def test_some_field_must_survive(self):
        with pytest.raises(ValueError, match="intact"):
            pipeline.degrade(small_dataset(), ["name", "city"], 0.5, seed=1)
