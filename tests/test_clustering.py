import itertools
import math
import operator
import random
import warnings
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from softdedupe import clustering, pipeline, similarity
from softdedupe.clustering import (
    ClusterSet,
    _links,
    _Removals,
    _share,
    ThresholdedGraph,
    auto_threshold,
    group,
    h_statistics,
    max_spanning_forest,
    nontrivial_interval,
    read_clusters,
    refine_all,
    threshold,
    threshold_from_h,
    write_clusters,
)

from oracles import (
    TupleClusterSet,
    batched_refine,
    batched_refine_all,
    components,
    from_groups,
    graph_from_edges,
    has_edge,
    needs_refinement,
    refine_cluster,
    single_linkage,
    strength,
    swap_prim_forest,
)


def sim_from_dense(rows):
    """Adjusted scores as the clustering functions take them: NaN diagonal."""
    arr = np.array(rows, dtype=float)
    np.fill_diagonal(arr, np.nan)
    return arr


FOUR = sim_from_dense(
    [
        [1.0, 0.9, 0.2, 0.0],
        [0.9, 1.0, 0.3, 0.1],
        [0.2, 0.3, 1.0, 0.8],
        [0.0, 0.1, 0.8, 1.0],
    ]
)


class TestClusterSet:
    def test_labels_round_trip(self):
        cs = ClusterSet([0, 1, 0, 2, 1])
        assert cs.clusters == ((0, 2), (1, 4), (3,))
        assert ClusterSet(cs.labels) == cs

    def test_from_groups_orders_by_min_element(self):
        cs = from_groups([[3, 1], [0, 2]])
        assert cs.clusters == ((0, 2), (1, 3))

    def test_validation(self):
        with pytest.raises(ValueError, match="disjoint"):
            from_groups([[0, 1], [1, 2]])
        with pytest.raises(ValueError, match="contiguous"):
            from_groups([[0], [2]])
        with pytest.raises(ValueError, match="empty"):
            from_groups([[0], []])
        # a record listed twice in one group is not a partition either
        with pytest.raises(ValueError, match="disjoint"):
            from_groups([[0, 0], [1]])
        with pytest.raises(ValueError, match="labels must"):
            ClusterSet(np.array([[0, 1]]))
        # labels numbered otherwise are renumbered by least record
        for labels, want in (([1, 0], [0, 1]), ([0, 2, 1], [0, 1, 2]),
                             ([0, -1], [0, 1])):
            assert ClusterSet(np.array(labels)).labels.tolist() == want


@st.composite
def group_lists(draw):
    """Groups of records, each listing a record once: a partition of 0..n-1,
    or lists with overlaps, gaps, negative records and empty groups."""
    n = draw(st.integers(0, 12))
    records = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, max(n - 1, 1)), max_size=n)))
    partition = [records[a:b] for a, b in zip([0, *cuts], [*cuts, n]) if a < b]
    anything = st.lists(st.integers(-2, 12), unique=True, max_size=5)
    return draw(st.one_of(st.just(partition), st.lists(anything, max_size=6)))


class TestClusterSetOracle:
    """ClusterSet against the tuple-based partition it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_labels_match(self, data):
        # labels whose first-occurrence order differs from their sorted order
        alphabet = data.draw(st.sampled_from([
            st.integers(-3, 6), st.sampled_from(["b", "a", "10", "9", "c"]),
        ]))
        labels = data.draw(st.lists(alphabet, max_size=30))
        cs, want = ClusterSet(labels), TupleClusterSet.from_labels(labels)
        assert cs.clusters == want.clusters
        assert cs.labels.tolist() == want.labels()
        assert cs.labels.dtype == np.int64 and not cs.labels.flags.writeable
        assert (cs.n, cs.c) == (want.n, want.c)
        other = data.draw(st.lists(alphabet, max_size=30))
        assert (ClusterSet(other) == cs) == (
            TupleClusterSet.from_labels(other) == want)
        assert ClusterSet(cs.labels) == cs

    def test_first_occurrence_numbering(self):
        for labels in (["b", "a", "b", "10", "9"], [7, 3, 7, 10, 9]):
            cs = ClusterSet(labels)
            assert cs.labels.tolist() == [0, 1, 0, 2, 3]
            assert cs.clusters == TupleClusterSet.from_labels(labels).clusters

    @settings(max_examples=300, deadline=None)
    @given(group_lists())
    @example([[0, 1], [1, 2]]).via("overlap")
    @example([[0], [2]]).via("gap")
    @example([[1], [0], []]).via("empty group")
    def test_from_groups_matches(self, groups):
        try:
            want = TupleClusterSet.from_groups(groups)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                from_groups(groups)
            assert str(got.value) == str(exc)
        else:
            cs = from_groups(groups)
            assert cs.clusters == want.clusters
            assert cs.labels.tolist() == want.labels()


class TestHStatistics:
    def test_row_maxima_exclude_diagonal(self):
        h = h_statistics(FOUR)
        assert h.tolist() == [0.9, 0.9, 0.8, 0.8]
        assert h.mean() == pytest.approx(0.85)
        assert h.std(ddof=1) == pytest.approx(np.std([0.9, 0.9, 0.8, 0.8], ddof=1))
        assert h.max() == 0.9

    def test_needs_two_records(self):
        with pytest.raises(ValueError):
            h_statistics(sim_from_dense([[1.0]]))


class TestThresholdFromH:
    def test_mean_plus_std_when_below_max(self):
        h = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        assert threshold_from_h(h) == pytest.approx(2.0 + math.sqrt(2.5))

    def test_skewed_values(self):
        assert threshold_from_h(np.array([0.0, 0.0, 0.0, 10.0])) == pytest.approx(7.5)

    def test_falls_back_to_mean_when_reaching_max(self):
        assert threshold_from_h(np.array([3.0, 4.0])) == pytest.approx(3.5)
        # zero spread: mean + std equals max exactly, so the mean is used
        assert threshold_from_h(np.array([4.0, 4.0, 4.0])) == 4.0

    def test_rounded_mean_capped_at_max(self):
        # the mean of ten equal H rounds one ulp above them, and a tau above
        # every H would link no pair and leave every record a singleton
        h = np.full(10, 1 / 3)
        assert h.mean() > h.max()
        assert threshold_from_h(h) == h.max()

    def test_auto_threshold_uses_h(self):
        assert auto_threshold(FOUR) == threshold_from_h(h_statistics(FOUR))

    def test_overflowing_mean_is_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warning fails here
            with pytest.raises(ValueError, match="not finite: mean H is inf"):
                threshold_from_h(np.array([1e308, 1e308, 0.5]))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.just(0.0) | st.floats(1e-3, 4.0), min_size=2, max_size=40),
        st.integers(1, 1000),
        st.sampled_from([1, -1]),
    )
    @example([0.0, 0.25, 0.5, 1.0, 1.0], 600, -1)
    @example([0.0, 0.25, 0.5, 1.0, 1.0], 600, 1)
    def test_scales_with_h(self, values, k, sign):
        # H times 2**k, a power of two that keeps every value a normal float,
        # scales tau exactly: sigma(H) must not underflow to 0 for tiny H or
        # overflow to inf for huge H and leave tau at the mean
        h = np.array(values)
        scale = 2.0 ** (sign * k)
        assert threshold_from_h(h * scale) == threshold_from_h(h) * scale


class TestThresholdAndGroup:
    def test_edges_at_or_above_tau(self):
        g = threshold(FOUR, 0.8)
        assert has_edge(g, 0, 1) and has_edge(g, 2, 3)
        assert not has_edge(g, 1, 2)
        assert g.edge_count() == 2
        assert g.scores is FOUR  # a view, not a copy

    def test_grouping_is_connected_components(self):
        assert group(threshold(FOUR, 0.8)).clusters == ((0, 1), (2, 3))
        assert group(threshold(FOUR, 0.85)).clusters == ((0, 1), (2,), (3,))

    def test_nontrivial_interval(self):
        assert nontrivial_interval(FOUR) == (0.0, 0.9)

    def test_nan_tau_is_error(self):
        # no pair compares >= NaN, so it would give singletons silently
        with pytest.raises(ValueError, match="NaN"):
            threshold(FOUR, math.nan)
        with pytest.raises(ValueError, match="NaN"):
            pipeline.cluster_records(FOUR, math.nan)

    def test_warns_outside_interval(self):
        with pytest.warns(UserWarning, match="nontrivial interval"):
            threshold(FOUR, 0.95)
        with pytest.warns(UserWarning, match="nontrivial interval"):
            threshold(FOUR, 0.0)

    def test_graph_from_edges(self):
        g = graph_from_edges(4, [(0, 1), (1, 0), (2, 2)])
        assert has_edge(g, 0, 1) and has_edge(g, 1, 0)
        assert g.edge_count() == 1
        assert not has_edge(g, 2, 2)

    def test_edge_count_leaves_out_diagonal(self):
        graph = ThresholdedGraph(0.5, np.ones((3, 3)))
        assert graph.edge_count() == 3
        assert graph.rows == {}  # counting packs no row into the graph


class TestStrength:
    def test_triangle_is_fully_linked(self):
        g = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert strength([0, 1, 2], g) == 1.0

    def test_path_misses_one_pair(self):
        g = graph_from_edges(3, [(0, 1), (1, 2)])
        assert strength([0, 1, 2], g) == pytest.approx(2 / 3)

    def test_singleton_is_zero(self):
        g = graph_from_edges(2, [(0, 1)])
        assert strength([0], g) == 0.0


class TestNeedsRefinement:
    def test_path_is_unstable(self):
        g = graph_from_edges(3, [(0, 1), (1, 2)])
        assert needs_refinement([0, 1, 2], g)

    def test_triangle_is_stable(self):
        g = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert not needs_refinement([0, 1, 2], g)

    def test_small_clusters_are_stable(self):
        g = graph_from_edges(2, [(0, 1)])
        assert not needs_refinement([0, 1], g)
        assert not needs_refinement([0], g)


def bridge_graph():
    """Two triangles joined through record 3."""
    edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 6)]
    return graph_from_edges(7, edges)


class TestRefineCluster:
    def test_path_comes_back_intact(self):
        # removing an endpoint leaves one subcluster, so the path survives
        g = graph_from_edges(3, [(0, 1), (1, 2)])
        assert refine_cluster([0, 1, 2], g) == [[0, 1, 2]]

    def test_bridge_splits_into_triangles(self):
        result = refine_cluster(list(range(7)), bridge_graph())
        assert sorted(map(tuple, result)) == [(0, 1, 2, 3), (4, 5, 6)]

    def test_stable_cluster_is_rejected(self):
        g = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ValueError, match="stable"):
            refine_cluster([0, 1, 2], g)

    def test_reattachment_prefers_stronger_union(self):
        # triangle {0,1,2} and pair {4,5} joined through record 3; re-adding
        # 3 to the pair forms a full triangle, so the pair side wins
        g = graph_from_edges(
            6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (3, 5), (4, 5)]
        )
        result = refine_cluster([0, 1, 2, 3, 4, 5], g)
        assert sorted(map(tuple, result)) == [(0, 1, 2), (3, 4, 5)]


class TestRefineAll:
    def test_stable_clusters_untouched(self):
        g = bridge_graph()
        before = group(g)
        assert before.c == 1
        after = refine_all(before, g)
        assert after.clusters == ((0, 1, 2, 3), (4, 5, 6))

    def test_never_decreases_cluster_count(self):
        g = bridge_graph()
        before = group(g)
        assert refine_all(before, g).c >= before.c

    def test_only_unstable_clusters_change(self):
        # component {0,1} stable, component {2,3,4,5,6,7,8,9} is a bridge
        edges = [(0, 1)] + [
            (i + 2, j + 2) for i, j in [(0, 1), (1, 2), (0, 2), (2, 3),
                                        (3, 4), (4, 5), (5, 6), (4, 6)]
        ]
        g = graph_from_edges(10, edges)
        after = refine_all(group(g), g)
        assert (0, 1) in after.clusters

    def test_iterate_reaches_fixed_point(self):
        # chain of three triangles: one pass may leave an unstable piece
        edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6),
                 (4, 6), (6, 7), (7, 8), (8, 9), (9, 10), (8, 10)]
        g = graph_from_edges(11, edges)
        once = refine_all(group(g), g)
        fixed = refine_all(group(g), g, iterate=True)
        assert fixed.c >= once.c
        assert refine_all(fixed, g, iterate=True) == fixed


matrix_strategy = st.integers(min_value=0, max_value=2**31 - 1)


def oracle_components(linked, vertices):
    """Components of the graph induced by `vertices`, by set search over the
    dense boolean adjacency, ordered by smallest vertex and each sorted."""
    left = set(vertices)
    comps = []
    for start in sorted(vertices):
        if start not in left:
            continue
        comp, frontier = {start}, {start}
        while frontier:
            frontier = {v for u in frontier for v in left if linked[u][v]} - comp
            comp |= frontier
        left -= comp
        comps.append(sorted(comp))
    return comps


def oracle_strength(linked, members):
    p = len(members)
    if p < 2:
        return 0.0
    pairs = itertools.combinations(members, 2)
    return sum(1 for u, v in pairs if linked[u][v]) / math.comb(p, 2)


def oracle_refine(linked, cluster):
    """The refinement rule from its definition; None for a stable cluster.

    Remove the record (lowest on ties) whose removal leaves the pieces of
    highest mean strength, then join it to the piece (first on ties) whose
    union with it is strongest.
    """
    members = sorted(cluster)
    splits = [
        (r, oracle_components(linked, [m for m in members if m != r]))
        for r in members
    ]
    if len(members) <= 2 or all(len(pieces) == 1 for _, pieces in splits):
        return None
    removed, pieces = max(
        splits,
        key=lambda split: sum(oracle_strength(linked, s) for s in split[1])
        / len(split[1]),
    )
    join = max(
        range(len(pieces)),
        key=lambda j: oracle_strength(linked, pieces[j] + [removed]),
    )
    pieces[join] = sorted(pieces[join] + [removed])
    return pieces


def oracle_refine_fixed_point(linked, clusters):
    current = [list(c) for c in clusters]
    while True:
        out, changed = [], False
        for cluster in current:
            pieces = oracle_refine(linked, cluster)
            out.extend([cluster] if pieces is None else pieces)
            changed |= pieces is not None and len(pieces) > 1
        current = out
        if not changed:
            return tuple(sorted((tuple(c) for c in current), key=lambda c: c[0]))


class TestPartitionProperties:
    @given(matrix_strategy)
    @settings(max_examples=60, deadline=None)
    def test_grouping_partitions_and_tau_monotonic(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 25)
        arr = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                arr[i, j] = arr[j, i] = round(rng.random(), 3)
        np.fill_diagonal(arr, 1.0)
        sim = sim_from_dense(arr)
        lo, hi = nontrivial_interval(sim)
        if lo >= hi:
            return
        taus = sorted(lo + (hi - lo) * rng.random() for _ in range(5))
        counts = []
        for tau in taus:
            if not lo < tau <= hi:
                continue
            graph = threshold(sim, tau)
            linked = ((arr >= tau) & ~np.eye(n, dtype=bool)).tolist()
            clusters = group(graph)
            assert sorted(i for c in clusters.clusters for i in c) == list(range(n))
            expected = oracle_components(linked, range(n))
            assert clusters.clusters == tuple(map(tuple, expected))
            refined = refine_all(clusters, graph)
            assert sorted(i for c in refined.clusters for i in c) == list(range(n))
            assert refined.c >= clusters.c
            fixed = refine_all(clusters, graph, iterate=True)
            assert fixed.clusters == oracle_refine_fixed_point(linked, expected)
            counts.append(clusters.c)
        assert counts == sorted(counts)


@st.composite
def scores_and_tau(draw):
    """A symmetric adjusted score array with NaN on the diagonal, on a coarse
    grid so that ties are common, and a threshold that often equals a score."""
    n = draw(st.integers(2, 9))
    grid = st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0])
    values = draw(st.lists(grid, min_size=n * n, max_size=n * n))
    sim = np.array(values).reshape(n, n)
    sim = np.triu(sim, 1) + np.triu(sim, 1).T
    np.fill_diagonal(sim, np.nan)
    tau = draw(st.one_of(grid, st.floats(-0.5, 1.5)))
    return sim, tau


class TestDenseScoreOracles:
    """h_statistics, nontrivial_interval and the thresholded graph's edge
    count against loops over the pairs i != j."""

    @settings(max_examples=200, deadline=None)
    @given(scores_and_tau())
    def test_match_pair_loops(self, case):
        sim, tau = case
        n = len(sim)
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        h = [max(sim[i, j] for j in range(n) if j != i) for i in range(n)]
        assert np.array_equal(h_statistics(sim), h)
        off = [sim[i, j] for i, j in pairs]
        assert nontrivial_interval(sim) == (min(off), max(off))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            graph = threshold(sim, tau)
        assert graph.scores is sim and graph.tau == tau
        edges = {(i, j) for i, j in pairs if sim[i, j] >= tau}
        assert graph.edge_count() * 2 == len(edges)


@st.composite
def extreme_scores_and_taus(draw):
    """A symmetric array with NaN on the diagonal whose off-diagonal entries
    include NaN (no edge), -inf and inf, and descending taus that include
    -inf, the one tau at which a NaN entry and a -inf edge differ."""
    n = draw(st.integers(1, 9))
    grid = [0.0, 0.5, 1.0, -np.inf, np.inf]
    values = draw(st.lists(st.sampled_from(grid + [np.nan]),
                           min_size=n * n, max_size=n * n))
    sim = np.array(values).reshape(n, n)
    sim = np.where(np.triu(np.ones((n, n), dtype=bool), 1), sim, sim.T)
    np.fill_diagonal(sim, np.nan)
    taus = draw(st.lists(st.one_of(st.sampled_from(grid), st.floats(-0.5, 1.5)),
                         max_size=6))
    return sim, sorted(taus, reverse=True)


class TestSingleLinkage:
    @settings(max_examples=300, deadline=None)
    @given(extreme_scores_and_taus())
    def test_matches_threshold_and_group(self, case):
        # against scipy's components of the CSR graph sim >= tau
        sim, taus = case
        n = len(sim)
        graphs = [ThresholdedGraph(tau=tau, scores=sim) for tau in taus]
        expected = [components(graph) for graph in graphs]
        assert list(single_linkage(sim, taus)) == expected
        assert [group(graph) for graph in graphs] == expected
        i, j, w = max_spanning_forest(sim)
        assert len(w) == n - components(ThresholdedGraph(-np.inf, sim)).c
        assert np.all(w[:-1] >= w[1:])
        assert all(sim[a, b] == x for a, b, x in zip(i, j, w))

    @pytest.mark.parametrize("taus", [[0.5, 0.8], [0.5, math.nan]])
    def test_taus_must_descend(self, taus):
        with pytest.raises(ValueError, match="descend"):
            list(single_linkage(FOUR, taus))

    def test_tree_of_complete_graph(self):
        i, j, w = max_spanning_forest(FOUR)
        assert w.tolist() == [0.9, 0.8, 0.3]
        assert sorted(map(sorted, zip(i.tolist(), j.tolist()))) == [
            [0, 1], [1, 2], [2, 3]]


class TestForestOracle:
    """max_spanning_forest against the swap-and-slice Prim it replaced
    (oracles.swap_prim_forest). Of edges of equal weight either may take
    any, but every maximum spanning forest has the same weights and the
    same single-linkage partitions at every tau."""

    @staticmethod
    def check(sim, taus):
        i, j, w = max_spanning_forest(sim)
        _, _, expected = swap_prim_forest(sim)
        assert np.array_equal(np.sort(w), np.sort(expected))
        assert np.all(w[:-1] >= w[1:])
        assert np.array_equal(sim[i, j], w)
        # single_linkage merges the edges forest_merges gives for each tau
        with mock.patch.object(clustering, "max_spanning_forest", swap_prim_forest):
            oracle = list(single_linkage(sim, taus))
        assert list(single_linkage(sim, taus)) == oracle

    @settings(max_examples=300, deadline=None)
    @given(extreme_scores_and_taus())
    def test_matches_swap_prim(self, case):
        self.check(*case)

    @pytest.mark.parametrize("name, method", [("restaurants", "tfidf"),
                                              ("citations", "soft_tfidf")])
    def test_matches_swap_prim_on_data_sets(self, scores, name, method):
        sim = scores.get(name, method=method)
        lo, hi = nontrivial_interval(sim)
        self.check(sim, np.linspace(lo, hi, 41)[:0:-1].tolist())


class TestClusterFiles:
    def test_round_trip(self, tmp_path):
        cs = ClusterSet([0, 1, 0, 2, 1, 2])
        path = str(tmp_path / "clusters.txt")
        write_clusters(cs, path)
        assert read_clusters(path) == cs

    def test_incomplete_file_is_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0\n2 1\n")
        with pytest.raises(ValueError, match="0..n-1"):
            read_clusters(str(path))

    def test_empty_file_is_error(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n")
        with pytest.raises(ValueError, match="no records"):
            read_clusters(str(path))


@st.composite
def refinement_graphs(draw):
    """An edge list over randomly relabelled records: an Erdos-Renyi graph, a
    path, a star or cliques chained through shared records, plus a few
    random edges, so that ties and several cut vertices are common."""
    kind = draw(st.sampled_from(["er", "path", "star", "cliques"]))
    if kind == "cliques":
        sizes = draw(st.lists(st.integers(2, 5), min_size=1, max_size=5))
        edges, first = [], 0
        for size in sizes:
            block = range(first, first + size)
            edges += list(itertools.combinations(block, 2))
            first += size - 1  # the next clique shares this one's last record
        n = first + 1
    else:
        n = draw(st.integers(1, 14))
        if kind == "er":
            prob = draw(st.sampled_from([0.1, 0.2, 0.35, 0.5, 0.8]))
            coins = draw(st.lists(st.floats(0, 1), min_size=n * n, max_size=n * n))
            edges = [(u, v) for u, v in itertools.combinations(range(n), 2)
                     if coins[u * n + v] < prob]
        elif kind == "path":
            edges = [(v, v + 1) for v in range(n - 1)]
        else:
            edges = [(0, v) for v in range(1, n)]
    pairs = list(itertools.combinations(range(n), 2))
    if pairs:
        edges += draw(st.lists(st.sampled_from(pairs), max_size=3))
    names = draw(st.permutations(range(n)))
    return n, [(names[u], names[v]) for u, v in edges]


class TestGroup:
    """group's breadth-first search over packed rows against single linkage,
    and refinement's reuse of the rows it packs."""

    @pytest.mark.parametrize("tau", ["auto", 0.20])
    @pytest.mark.parametrize("method", ["tfidf", "soft_tfidf"])
    @pytest.mark.parametrize("name", ["restaurants", "citations"])
    def test_matches_single_linkage_on_data_sets(self, scores, name, method, tau):
        sim = scores.get(name, method=method)
        tau = auto_threshold(sim) if tau == "auto" else tau
        assert group(ThresholdedGraph(tau=tau, scores=sim)) == next(
            single_linkage(sim, [tau]))

    @settings(max_examples=200, deadline=None)
    @given(scores_and_tau(), st.sampled_from([1.0, np.inf, 0.0, -np.inf]))
    def test_diagonal_is_no_edge(self, case, diagonal):
        sim, tau = case
        full = sim.copy()
        np.fill_diagonal(full, diagonal)
        graph = ThresholdedGraph(tau=tau, scores=sim)
        other = ThresholdedGraph(tau=tau, scores=full)
        assert group(other) == group(graph)
        assert other.edge_count() == graph.edge_count()
        for iterate in (False, True):
            assert (refine_all(group(other), other, iterate=iterate)
                    == refine_all(group(graph), graph, iterate=iterate))

    @settings(max_examples=200, deadline=None)
    @given(refinement_graphs(), st.data())
    def test_every_block_size(self, graph, data):
        # _links packs a block of at most BLOCK_ENTRIES entries of rows of n
        # at a time: from one row to all rows
        n, edges = graph
        rows = data.draw(st.integers(1, n), label="rows_per_block")
        with mock.patch.object(similarity, "BLOCK_ENTRIES", rows * n):
            g = graph_from_edges(n, edges)
            clusters = group(g)
            assert clusters == next(single_linkage(g.scores, [g.tau]))
            for iterate in (False, True):
                fresh = graph_from_edges(n, edges)
                assert (refine_all(clusters, fresh, iterate=iterate)
                        == batched_refine_all(clusters, fresh, iterate))
            count = graph_from_edges(n, edges).edge_count()
            assert count == len({frozenset(e) for e in edges})

    @staticmethod
    def packed_rows(monkeypatch):
        """A list that gets the number of rows of every np.packbits call."""
        counts = []
        packbits = np.packbits

        def counted(a, *args, **kwargs):
            counts.append(len(a))
            return packbits(a, *args, **kwargs)

        monkeypatch.setattr(np, "packbits", counted)
        return counts

    @settings(max_examples=100, deadline=None)
    @given(refinement_graphs())
    def test_refine_all_packs_each_row_once(self, graph):
        n, edges = graph
        with pytest.MonkeyPatch.context() as monkeypatch:
            counts = self.packed_rows(monkeypatch)
            g = graph_from_edges(n, edges)
            clusters = group(g)
            assert sum(counts) == n
            refine_all(clusters, g, iterate=True)
            assert sum(counts) == n  # every row comes from group's reading
            fresh = graph_from_edges(n, edges)
            counts.clear()
            refine_all(clusters, fresh, iterate=True)
            assert sum(counts) == sum(len(c) for c in clusters.clusters
                                      if len(c) > 2)
        assert fresh == g and hash(fresh) == hash(g)  # the rows do not count

    @pytest.mark.parametrize("method", ["tfidf", "soft_tfidf"])
    def test_packs_each_row_once_on_citations(self, scores, monkeypatch, method):
        sim = scores.get("citations", method=method)
        counts = self.packed_rows(monkeypatch)
        graph = ThresholdedGraph(tau=0.20, scores=sim)
        refine_all(group(graph), graph, iterate=True)
        assert sum(counts) == len(sim)


class TestRefineAgainstBatchedOracle:
    """needs_refinement, refine_cluster and refine_all against the refinement
    that labels the components left by every single removal with scipy
    (oracles.batched_refine)."""

    @staticmethod
    def check(n, edges, labels):
        graph = graph_from_edges(n, edges)
        partitions = [group(graph), ClusterSet(labels)]
        for members in [c for cs in partitions for c in cs.clusters] + [range(n)]:
            want = batched_refine(sorted(members), graph)
            assert needs_refinement(members, graph) == (want is not None)
            if want is None:
                with pytest.raises(ValueError, match="stable"):
                    refine_cluster(members, graph)
            else:
                assert refine_cluster(members, graph) == want
        for clusters in partitions:
            for iterate in (False, True):
                want = batched_refine_all(clusters, graph, iterate)
                assert refine_all(clusters, graph, iterate=iterate) == want

    @settings(max_examples=200, deadline=None)
    @given(refinement_graphs(), st.data())
    def test_matches_oracle(self, graph, data):
        n, edges = graph
        labels = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        self.check(n, edges, labels)


def searched_clusters(clusters, graph, iterate):
    """The clusters each pass of refine_all searches, pass after pass, by
    oracles.batched_refine: those of three or more records, then the pieces
    of three or more records of the clusters that split."""
    pending = [list(c) for c in clusters.clusters if len(c) > 2]
    out = []
    while pending:
        out += pending
        split = []
        for cluster in pending:
            pieces = batched_refine(cluster, graph)
            if pieces is not None and len(pieces) > 1:
                split += [piece for piece in pieces if len(piece) > 2]
        pending = split if iterate else []
    return out


class TestRefineAllTraffic:
    """refine_all searches each cluster of three or more records once a
    pass, and leaves a cluster above REFINE_SIZE_CAP whole, with a warning."""

    @settings(max_examples=200, deadline=None)
    @given(refinement_graphs(), st.data())
    def test_one_search_per_cluster_of_three_or_more(self, graph, data):
        n, edges = graph
        labels = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        g = graph_from_edges(n, edges)
        searched = []
        refine = clustering._refine

        def counted(members, links):
            searched.append(list(members))
            return refine(members, links)

        with mock.patch.object(clustering, "_refine", counted):
            for clusters in (group(g), ClusterSet(labels)):
                for iterate in (False, True):
                    searched.clear()
                    refine_all(clusters, g, iterate=iterate)
                    assert searched == searched_clusters(clusters, g, iterate)

    @settings(max_examples=200, deadline=None)
    @given(refinement_graphs(), st.data())
    def test_capped_clusters_left_whole(self, graph, data):
        n, edges = graph
        labels = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        cap = data.draw(st.integers(2, max(2, n)), label="cap")
        g = graph_from_edges(n, edges)
        for clusters in (group(g), ClusterSet(labels)):
            capped = [c for c in clusters.clusters if len(c) > cap]
            inside = {v for c in capped for v in c}
            for iterate in (False, True):
                with mock.patch.object(clustering, "REFINE_SIZE_CAP", cap), \
                        warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    got = refine_all(clusters, g, iterate=iterate)
                assert [str(w.message) for w in caught] == [
                    f"skipping refinement of cluster with {len(c)} records "
                    f"(cap {cap})" for c in capped]
                assert all(w.category is UserWarning and w.filename == __file__
                           for w in caught)
                # refinement splits within clusters, so each cluster the
                # oracle leaves lies in one capped cluster or in none
                want = batched_refine_all(clusters, g, iterate).clusters
                assert got == from_groups(
                    capped + [c for c in want if c[0] not in inside])


def left_to_right_mean(search, v):
    shares = [_share(x.entries, x.size) for x in search.pieces(v)]
    return reduce(operator.add, shares, 0.0) / len(shares)


class TestRemovalScore:
    """A removal scores the mean of its pieces' shares, added left to right
    in order of least record on every Python (builtin sum() compensates from
    Python 3.12)."""

    def test_shares_added_left_to_right(self):
        # removing 0 leaves a six-record path (share 1/3) and two linked
        # pairs (share 1 each): 1/3 + 1 + 1 rounds to 2.333333333333333
        # left to right, and to 2.3333333333333335 exactly
        edges = [(0, 1), (0, 7), (0, 9), (7, 8), (9, 10)]
        edges += [(v, v + 1) for v in range(1, 6)]
        members = list(range(11))
        search = _Removals(members, _links(graph_from_edges(11, edges), members))
        assert search.count(0) == 3
        assert search.score(0) == (1 / 3 + 1.0 + 1.0) / 3
        assert search.score(0) != math.fsum([1 / 3, 1.0, 1.0]) / 3

    @settings(max_examples=100, deadline=None)
    @given(refinement_graphs())
    def test_score_is_left_to_right_mean(self, graph):
        n, edges = graph
        members = list(range(n))
        search = _Removals(members, _links(graph_from_edges(n, edges), members))
        for v in members:
            if search.count(v) > 1:
                assert search.score(v) == left_to_right_mean(search, v)


class TestRefineKnownAnswers:
    def test_long_path_splits_off_first_triple(self):
        # removing record r of a path of p records leaves paths of r and
        # p-1-r records, and a path of m >= 2 records has strength 2/m (a
        # single record 0). Removing 2 gives (1 + 2/(p-3))/2, tied with
        # removing p-3 and above every other removal, so 2 is removed; it
        # rejoins {0, 1} (strength 2/3) rather than {3..p-1} (2/(p-2)).
        p = 1500
        graph = graph_from_edges(p, [(v, v + 1) for v in range(p - 1)])
        want = [[0, 1, 2], list(range(3, p))]
        assert refine_cluster(range(p), graph) == want
        assert refine_all(group(graph), graph).clusters == tuple(map(tuple, want))

    def test_star_of_triangles_splits_into_triangles(self):
        # triangles {3t, 3t+1, 3t+2}, t < 500, with every 3t tied to record
        # 0. Removing 0 leaves 501 fully linked pieces (mean strength 1);
        # any other removal leaves a piece of 1,497 or more sparse records.
        # Record 0 then rejoins {1, 2} (strength 1), not a triangle (2/3).
        p = 1500
        edges = [(0, 3 * t) for t in range(1, p // 3)]
        for t in range(p // 3):
            edges += list(itertools.combinations(range(3 * t, 3 * t + 3), 2))
        graph = graph_from_edges(p, edges)
        triangles = [list(range(3 * t, 3 * t + 3)) for t in range(p // 3)]
        assert refine_cluster(range(p), graph) == triangles
        fixed = refine_all(group(graph), graph, iterate=True)
        assert fixed.clusters == tuple(map(tuple, triangles))
