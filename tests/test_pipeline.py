import itertools
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softdedupe import clustering, corpus, evaluation, pipeline, similarity, sparsity
from softdedupe.corpus import DataSet, TokenizerConfig
from softdedupe.similarity import SimilarityParams

from conftest import imputed_fields
from oracles import batched_refine_all, components, two_pass_impute_mode

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
    def test_returns_score_array(self):
        data = small_dataset()
        sim = pipeline.build_similarity(data, WORD, SimilarityParams())
        assert sim.shape == (data.n, data.n) and sim.dtype == np.float64
        assert np.isnan(np.diag(sim)).all()

    @pytest.mark.parametrize("method", ["soft_tfidf", "tfidf"])
    def test_field_matrices_freed_before_adjust(self, method):
        # only the composite and the mask may be alive while adjust
        # allocates the dense n x n array
        made = []

        def keep_ref(fn):
            def wrapper(*args):
                out = fn(*args)
                made.append(weakref.ref(out))
                return out
            return wrapper

        real_adjust = sparsity.adjust

        def checked_adjust(raw, mask):
            assert len(made) >= 2 * small_dataset().a
            assert [ref for ref in made if ref() is not None] == []
            return real_adjust(raw, mask)

        with mock.patch.multiple(
            similarity,
            build_tfidf=keep_ref(similarity.build_tfidf),
            build_jw_matrix=keep_ref(similarity.build_jw_matrix),
            soft_tfidf_field=keep_ref(similarity.soft_tfidf_field),
            tfidf_field=keep_ref(similarity.tfidf_field),
        ), mock.patch.object(sparsity, "adjust", checked_adjust):
            pipeline.build_similarity(
                small_dataset(), WORD, SimilarityParams(method=method)
            )

    @pytest.mark.parametrize("sparsity_mode, passes", [("adjust", 1), ("impute", 1)])
    @pytest.mark.parametrize("method", ["soft_tfidf", "tfidf"])
    def test_tokenizes_each_entry_once_per_pass(self, sparsity_mode, passes, method):
        # one pass builds every field's lexicon, TF-IDF matrix and mask;
        # imputation fills the missing entries' token lists from that pass
        data = small_dataset()
        calls = []
        tokenize = corpus.tokenize

        def counted(entry, config):
            calls.append(entry)
            return tokenize(entry, config)

        with mock.patch.object(corpus, "tokenize", counted):
            pipeline.build_similarity(data, WORD, SimilarityParams(method=method),
                                      sparsity_mode=sparsity_mode, seed=1)
        assert len(calls) == passes * data.n * data.a

    def test_unknown_sparsity_mode(self):
        with pytest.raises(ValueError, match="sparsity mode"):
            pipeline.build_similarity(
                small_dataset(), WORD, SimilarityParams(), sparsity_mode="drop"
            )

    def test_impute_mode_fills_every_entry(self):
        data = small_dataset()
        filled = imputed_fields(data, WORD, seed=3)
        assert (sparsity.presence_mask(filled).mask == 1).all()
        sim = pipeline.build_similarity(
            data, WORD, SimilarityParams(), sparsity_mode="impute", seed=3
        )
        imputed = two_pass_impute_mode(data, WORD, seed=3)
        want = pipeline.build_similarity(imputed, WORD, SimilarityParams())
        assert np.array_equal(sim, want, equal_nan=True)

    def test_duplicates_score_higher_than_strangers(self):
        adj = pipeline.build_similarity(small_dataset(), WORD, SimilarityParams())
        assert adj[0, 1] > adj[0, 2]
        assert adj[3, 4] > adj[3, 5]


class TestClusterRecords:
    def test_auto_threshold_is_default(self):
        sim = pipeline.build_similarity(small_dataset(), WORD, SimilarityParams())
        _, tau = pipeline.cluster_records(sim)
        assert tau == clustering.auto_threshold(sim)

    def test_explicit_threshold_respected(self):
        sim = pipeline.build_similarity(small_dataset(), WORD, SimilarityParams())
        clusters, tau = pipeline.cluster_records(sim, tau=0.7)
        assert tau == 0.7
        assert (0, 1) in clusters.clusters  # the exact duplicates survive

    def test_refined_count_never_smaller(self):
        sim = pipeline.build_similarity(small_dataset(), WORD, SimilarityParams())
        plain, tau = pipeline.cluster_records(sim)
        refined, _ = pipeline.cluster_records(sim, tau, refine=True)
        assert refined.c >= plain.c

    @pytest.mark.parametrize("refine, iterate", [(False, False), (True, False),
                                                 (True, True)])
    @pytest.mark.parametrize("tau", [None, 0.20])
    def test_never_builds_forest(self, scores, tau, refine, iterate):
        sim = scores.get("citations")
        with mock.patch.object(clustering, "max_spanning_forest",
                               side_effect=AssertionError):
            clusters, tau = pipeline.cluster_records(sim, tau, refine, iterate)
        expected = next(clustering.single_linkage(sim, [tau]))
        if refine:
            graph = clustering.ThresholdedGraph(tau=tau, scores=sim)
            expected = clustering.refine_all(expected, graph, iterate=iterate)
        assert clusters == expected

    @pytest.mark.parametrize("refine", [False, True])
    def test_sweep_builds_forest(self, refine):
        sim = pipeline.build_similarity(small_dataset(), WORD, SimilarityParams())
        truth = clustering.ClusterSet.from_groups([[0, 1], [2], [3, 4], [5]])
        with mock.patch.object(clustering, "max_spanning_forest",
                               wraps=clustering.max_spanning_forest) as forest:
            pipeline.sweep_thresholds(sim, truth, grid_size=10, refine=refine)
        assert forest.call_count == 1


class TestSweepThresholds:
    def setup_method(self):
        data = small_dataset()
        self.sim = pipeline.build_similarity(data, WORD, SimilarityParams())
        self.truth = clustering.ClusterSet.from_groups(
            [[0, 1], [2], [3, 4], [5]]
        )

    def test_rows_sorted_with_auto_marked(self):
        rows = pipeline.sweep_thresholds(
            self.sim, self.truth, grid_size=10
        )
        taus = [tau for tau, _, _ in rows]
        assert taus == sorted(taus)
        assert sum(1 for _, is_auto, _ in rows if is_auto) == 1
        auto_tau = next(tau for tau, is_auto, _ in rows if is_auto)
        assert auto_tau == clustering.auto_threshold(self.sim)

    def test_explicit_taus(self):
        rows = pipeline.sweep_thresholds(
            self.sim, self.truth, taus=[0.3, 0.5, 0.7]
        )
        assert len(rows) == 4  # three requested plus the auto threshold
        for tau, _, report in rows:
            assert report.tau == tau and report.n == 6

    def test_empty_range_is_error(self):
        with pytest.raises(ValueError, match="empty threshold"):
            pipeline.sweep_thresholds(self.sim, self.truth, taus=[])

    @pytest.mark.parametrize("refine", [False, True])
    def test_truth_of_other_size_is_error(self, refine):
        truth = clustering.ClusterSet.from_labels([0, 0, 1, 2, 2])
        with pytest.raises(ValueError, match="different numbers of records"):
            pipeline.sweep_thresholds(self.sim, truth, grid_size=5, refine=refine)

    @pytest.mark.parametrize("refine", [False, True])
    def test_nan_threshold_is_error(self, refine):
        with pytest.raises(ValueError, match="NaN"):
            pipeline.sweep_thresholds(
                self.sim, self.truth, taus=[0.5, float("nan")],
                refine=refine)


def oracle_sweep(sim, truth, taus, grid_size, refine=False, iterate=False):
    """The per-tau path: threshold (for its warning), scipy's components of
    the graph sim >= tau, the batched refinement if asked, and evaluate at
    every tau."""
    if taus is None:
        lo, hi = clustering.nontrivial_interval(sim)
        taus = np.linspace(lo, hi, grid_size + 1)[1:]
    taus = [float(t) for t in taus]
    tau_auto = clustering.auto_threshold(sim)
    rows = []
    for tau, is_auto in sorted([(t, False) for t in taus] + [(tau_auto, True)]):
        graph = clustering.threshold(sim, tau)
        clusters = components(graph)
        if refine:
            clusters = batched_refine_all(clusters, graph, iterate)
        rows.append((tau, is_auto, evaluation.evaluate(clusters, truth, tau=tau)))
    return rows


def with_warnings(fn, *args, **kwargs):
    """fn's result and the text of every warning it gave, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args, **kwargs)
    return result, [str(w.message) for w in caught]


@st.composite
def tied_sweeps(draw):
    """A symmetric score array of 2-12 records on a coarse grid, so that ties
    are common, with NaN on the diagonal and, in half the cases, off-diagonal
    NaN (often enough to disconnect the records), but never a whole row of it;
    a truth partition; and a grid size or explicit taus around both ends of
    the nontrivial interval."""
    n = draw(st.integers(2, 12))
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    sim = np.array(draw(st.lists(st.sampled_from(grid), min_size=n * n,
                                 max_size=n * n))).reshape(n, n)
    if draw(st.booleans()):  # holes in about 3 of 4 pairs
        hole = st.sampled_from([False, True, True, True])
        holes = draw(st.lists(hole, min_size=n * n, max_size=n * n))
        sim[np.reshape(holes, (n, n))] = np.nan
    sim = np.triu(sim, 1) + np.triu(sim, 1).T
    np.fill_diagonal(sim, np.nan)
    for i in range(n):
        if np.isnan(sim[i]).all():
            j = (i + 1) % n
            sim[i, j] = sim[j, i] = draw(st.sampled_from(grid))
    truth = clustering.ClusterSet.from_labels(
        draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    if draw(st.booleans()):
        return sim, truth, None, draw(st.integers(1, 8))
    lo, hi = clustering.nontrivial_interval(sim)
    near = [lo - 0.125, lo, (lo + hi) / 2, hi, hi + 0.125] + grid
    taus = draw(st.lists(st.one_of(st.sampled_from(near), st.floats(-0.5, 1.5)),
                         min_size=1, max_size=8))
    return sim, truth, taus, 200


@st.composite
def chained_sweeps(draw):
    """Cliques of 2-5 records chained through shared records, their links
    scored 0.5-1 and every other pair 0 or 0.25, over randomly relabelled
    records: cut records are common, and refinement often leaves pieces
    that a second pass splits again. With a truth partition and a grid
    size."""
    sizes = draw(st.lists(st.integers(2, 5), min_size=2, max_size=6))
    edges, first = [], 0
    for size in sizes:
        edges += list(itertools.combinations(range(first, first + size), 2))
        first += size - 1  # the next clique shares this one's last record
    n = first + 1
    pairs = list(itertools.combinations(range(n), 2))
    sim = np.zeros((n, n))
    for (i, j), score in zip(pairs, draw(st.lists(
            st.sampled_from([0.0, 0.25]), min_size=len(pairs), max_size=len(pairs)))):
        sim[i, j] = sim[j, i] = score
    for (i, j), score in zip(edges, draw(st.lists(
            st.sampled_from([0.5, 0.75, 1.0]), min_size=len(edges),
            max_size=len(edges)))):
        sim[i, j] = sim[j, i] = score
    names = np.array(draw(st.permutations(range(n))))
    sim[np.ix_(names, names)] = sim.copy()
    np.fill_diagonal(sim, np.nan)
    truth = clustering.ClusterSet.from_labels(
        draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    return sim, truth, None, draw(st.integers(1, 8))


@st.composite
def forest_sweeps(draw):
    """A symmetric score array of 2-60 records from a seeded generator, its
    scores on a grid of 2-9 levels (ties everywhere) or continuous, with NaN
    holes in none to nearly all pairs (disconnected forests), but never a
    whole row of them; a truth partition that is one cluster, all
    singletons, or random labels from up to n values; and a grid size."""
    n = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([2, 3, 5, 9, None]))
    sim = rng.random((n, n)) if levels is None else (
        rng.integers(0, levels, (n, n)) / (levels - 1))
    sim[rng.random((n, n)) < draw(st.sampled_from([0.0, 0.5, 0.9, 0.99]))] = np.nan
    sim = np.triu(sim, 1) + np.triu(sim, 1).T
    np.fill_diagonal(sim, np.nan)
    for i in range(n):
        if np.isnan(sim[i]).all():
            j = (i + 1) % n
            sim[i, j] = sim[j, i] = 0.5
    truth = draw(st.sampled_from(["one", "singletons", "labels"]))
    labels = {"one": np.zeros(n, dtype=int), "singletons": np.arange(n),
              "labels": rng.integers(0, draw(st.integers(1, n)), n)}[truth]
    return sim, clustering.ClusterSet.from_labels(labels), None, draw(
        st.integers(1, 60))


def per_tau_sweep(sim, truth, grid_size):
    """sweep_thresholds' rows from single_linkage's partition and evaluate at
    every tau, the way an unrefined sweep made them before MergeMetrics."""
    lo, hi = clustering.nontrivial_interval(sim)
    taus = [float(t) for t in np.linspace(lo, hi, grid_size + 1)[1:]]
    points = sorted([(t, False) for t in taus]
                    + [(clustering.auto_threshold(sim), True)], reverse=True)
    forest = clustering.single_linkage(sim, [tau for tau, _ in points])
    rows = [(tau, is_auto, evaluation.evaluate(clusters, truth, tau=tau))
            for (tau, is_auto), clusters in zip(points, forest)]
    return rows[::-1]


class TestOnePassSweep:
    @settings(max_examples=300, deadline=None)
    @given(tied_sweeps())
    def test_matches_per_tau_path(self, case):
        sim, truth, taus, grid_size = case
        self.check(sim, truth, taus, grid_size)

    @settings(max_examples=150, deadline=None)
    @given(forest_sweeps())
    def test_matches_per_tau_path_on_larger_forests(self, case):
        sim, truth, taus, grid_size = case
        self.check(sim, truth, taus, grid_size)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(tied_sweeps(), chained_sweeps()), st.booleans())
    def test_refined_matches_per_tau_path(self, case, iterate):
        # one forest for every tau, each tau's clusters then refined
        sim, truth, taus, grid_size = case
        self.check(sim, truth, taus, grid_size, refine=True, iterate=iterate)

    @pytest.mark.parametrize("method", ["tfidf", "soft_tfidf"])
    @pytest.mark.parametrize("name", ["restaurants", "citations"])
    def test_data_sets_match_per_tau_path(self, scores, name, method):
        sim, truth = scores.get(name, method=method), scores.truth(name)
        rows = pipeline.sweep_thresholds(sim, truth, grid_size=200)
        assert repr(rows) == repr(per_tau_sweep(sim, truth, 200))

    @staticmethod
    def check(sim, truth, taus, grid_size, refine=False, iterate=False):
        """The rows and warnings of sweep_thresholds equal oracle_sweep's. It
        never thresholds or groups; unrefined, it builds no partition and
        never calls evaluate, while a refined sweep evaluates every row."""
        expected, expected_warnings = with_warnings(
            oracle_sweep, sim, truth, taus, grid_size, refine, iterate)
        fail = {} if refine else {"side_effect": AssertionError}
        with mock.patch.object(clustering, "threshold", side_effect=AssertionError), \
                mock.patch.object(clustering, "group", side_effect=AssertionError), \
                mock.patch.object(evaluation, "evaluate", wraps=evaluation.evaluate,
                                  **fail) as evaluate, \
                mock.patch.object(clustering.ClusterSet, "from_labels",
                                  wraps=clustering.ClusterSet.from_labels, **fail):
            rows, warned = with_warnings(
                pipeline.sweep_thresholds, sim, truth, taus=taus,
                grid_size=grid_size, refine=refine, iterate=iterate)
        assert rows == expected
        assert warned == expected_warnings
        assert evaluate.call_count == (len(rows) if refine else 0)


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

    def test_repeated_field(self, restaurants):
        data, _ = restaurants
        with pytest.raises(ValueError, match="'phone' is listed twice"):
            pipeline.degrade(data, ["phone", "city", "phone"], 0.3, seed=1)
