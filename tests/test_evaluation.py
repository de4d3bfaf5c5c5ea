import dataclasses
import json
import math
import operator
import random
from functools import reduce
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softdedupe.clustering import ClusterSet
from softdedupe.evaluation import MergeMetrics, _contingency, evaluate, z_rand

from oracles import dict_contingency, dict_evaluate


def cs(*groups):
    return ClusterSet.from_groups(groups)


labels_strategy = st.lists(
    st.integers(min_value=0, max_value=4), min_size=2, max_size=20
)


class TestIdentity:
    truth = cs([0, 1, 2], [3, 4], [5])

    def test_all_metrics_perfect(self):
        r = evaluate(self.truth, self.truth)
        assert r.purity == 1.0
        assert r.inverse_purity == 1.0
        assert r.harmonic_mean == 1.0
        assert r.rel_cluster_error == 0.0
        assert r.precision == 1.0 and r.recall == 1.0 and r.f1 == 1.0
        assert r.rel_z_rand == 1.0
        assert r.nmi == pytest.approx(1.0, abs=1e-12)

    def test_rel_z_rand_is_exactly_one(self):
        assert evaluate(self.truth, self.truth).rel_z_rand == 1.0


class TestPurity:
    def test_worked_example(self):
        c = cs([0, 1, 2, 3])
        truth = cs([0, 1, 2], [3])
        r = evaluate(c, truth)
        assert r.purity == pytest.approx(3 / 4)
        assert r.inverse_purity == 1.0

    def test_singletons_have_perfect_purity(self):
        c = cs(*[[i] for i in range(5)])
        truth = cs([0, 1, 2], [3, 4])
        r = evaluate(c, truth)
        assert r.purity == 1.0
        assert r.inverse_purity == pytest.approx(2 / 5)

    def test_harmonic_mean_between_min_and_max(self):
        c = cs([0, 1], [2, 3, 4])
        truth = cs([0, 1, 2], [3, 4])
        r = evaluate(c, truth)
        p, i, h = r.purity, r.inverse_purity, r.harmonic_mean
        assert min(p, i) - 1e-12 <= h <= max(p, i) + 1e-12
        assert h == pytest.approx(2 * p * i / (p + i))

    @given(labels_strategy, labels_strategy)
    @settings(max_examples=50)
    def test_purity_never_drops_when_splitting(self, labels, _ignored):
        n = len(labels)
        truth = ClusterSet.from_labels(labels)
        rng = random.Random(n)
        coarse = ClusterSet.from_labels([rng.randint(0, 1) for _ in range(n)])
        # split every cluster of `coarse` into singletons
        fine = cs(*[[i] for i in range(n)])
        assert evaluate(fine, truth).purity >= evaluate(coarse, truth).purity - 1e-12


class TestRelClusterError:
    def test_formula(self):
        split = evaluate(cs([0], [1], [2]), cs([0, 1, 2]))
        assert split.rel_cluster_error == 2.0
        merged = evaluate(cs([0, 1, 2]), cs([0], [1], [2]))
        assert merged.rel_cluster_error == pytest.approx(2 / 3)


class TestPairMetrics:
    def test_worked_example(self):
        c = cs([0, 1, 2])
        truth = cs([0, 1], [2])
        r = evaluate(c, truth)
        assert r.precision == pytest.approx(1 / 3)
        assert r.recall == 1.0
        assert r.f1 == pytest.approx(1 / 2)

    def test_undefined_when_no_predicted_pairs(self):
        c = cs([0], [1], [2])
        truth = cs([0, 1], [2])
        r = evaluate(c, truth)
        assert r.precision is None and r.f1 is None
        assert r.recall == 0.0

    def test_undefined_when_no_truth_pairs(self):
        r = evaluate(cs([0, 1], [2]), cs([0], [1], [2]))
        assert r.recall is None and r.f1 is None
        assert r.precision == 0.0

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(cs([0, 1]), cs([0], [1], [2]))


class TestZRand:
    def test_hand_computed(self):
        c = cs([0, 1], [2, 3])
        truth = cs([0, 1, 2], [3])
        t = comb(4, 2)
        n_c, n_g, w = 2, 3, 1
        mean = n_c * n_g / t
        var = n_g * (n_c / t) * (1 - n_c / t) * (t - n_g) / (t - 1)
        assert z_rand(c, truth) == pytest.approx((w - mean) / math.sqrt(var))

    def test_none_without_pairs(self):
        singles = cs([0], [1], [2])
        assert z_rand(singles, cs([0, 1], [2])) is None
        assert z_rand(cs([0, 1], [2]), singles) is None
        assert evaluate(cs([0, 1], [2]), singles).rel_z_rand is None

    def test_mc_mean_under_label_shuffles(self):
        # the null mean (not the variance) also holds when truth labels are
        # permuted uniformly, which gives a cheap independent check
        rng = random.Random(4)
        labels_c = [0, 0, 1, 1, 2, 2, 2, 3]
        labels_g = [0, 0, 0, 1, 1, 2, 3, 3]
        c = ClusterSet.from_labels(labels_c)
        n_c = sum(comb(len(r), 2) for r in c.clusters)
        n_g = sum(comb(len(r), 2) for r in ClusterSet.from_labels(labels_g).clusters)
        t = comb(len(labels_c), 2)
        draws = []
        for _ in range(4000):
            shuffled = labels_g[:]
            rng.shuffle(shuffled)
            truth = ClusterSet.from_labels(shuffled)
            over = sum(comb(cnt, 2) for cnt in _contingency(c, truth)[2].tolist())
            draws.append(over)
        mc_mean = sum(draws) / len(draws)
        assert mc_mean == pytest.approx(n_c * n_g / t, rel=0.05)


class TestNmi:
    def test_independent_partitions_score_zero(self):
        c = cs([0, 1], [2, 3])
        truth = cs([0, 2], [1, 3])
        assert evaluate(c, truth).nmi == 0.0

    def test_hand_computed(self):
        c = cs([0, 1], [2, 3])
        truth = cs([0, 1, 2], [3])
        info = (
            (2 / 4) * math.log(4 * 2 / (2 * 3))
            + (1 / 4) * math.log(4 / (2 * 3))
            + (1 / 4) * math.log(4 / (2 * 1))
        )
        h_c = math.log(2)
        h_t = -(3 / 4 * math.log(3 / 4) + 1 / 4 * math.log(1 / 4))
        assert evaluate(c, truth).nmi == pytest.approx(info / math.sqrt(h_c * h_t))

    def test_single_cluster_against_itself(self):
        # both entropies are 0; the guarded form returns 0 instead of NaN
        whole = cs([0, 1, 2])
        assert evaluate(whole, whole).nmi == 0.0

    @given(labels_strategy)
    @settings(max_examples=50)
    def test_symmetric_and_bounded(self, labels):
        a = ClusterSet.from_labels(labels)
        b = ClusterSet.from_labels(labels[::-1])
        ab = evaluate(a, b).nmi
        assert ab == pytest.approx(evaluate(b, a).nmi)
        assert 0.0 <= ab <= 1.0


class TestEvaluate:
    def test_report_serializes(self):
        r = evaluate(cs([0, 1], [2]), cs([0, 1, 2]), tau=0.5)
        payload = json.loads(r.to_json())
        assert payload["tau"] == 0.5
        assert payload["n"] == 3 and payload["c"] == 2 and payload["c_true"] == 1
        assert payload["recall"] == pytest.approx(1 / 3)

    def test_none_markers_survive_json(self):
        r = evaluate(cs([0], [1]), cs([0, 1]))
        payload = json.loads(r.to_json())
        assert payload["precision"] is None and payload["f1"] is None


class TestContingency:
    @given(st.data())
    @settings(max_examples=200)
    def test_matches_dict_loop(self, data):
        n = data.draw(st.integers(min_value=1, max_value=40))
        labels = st.lists(st.integers(0, 6), min_size=n, max_size=n)
        c = ClusterSet.from_labels(data.draw(labels))
        c_true = ClusterSet.from_labels(data.draw(labels))
        rows, cols, counts = _contingency(c, c_true)
        # the cells' order is the order of NMI's float sum
        table = dict(zip(zip(rows.tolist(), cols.tolist()), counts.tolist()))
        assert list(table.items()) == list(dict_contingency(c, c_true).items())
        assert len(table) == len(rows) == len(cols) == len(counts)
        assert all(a.dtype.kind == "i" for a in (rows, cols, counts))


def partitions(n):
    """Labels of n records: all singletons, one cluster, or up to n labels."""
    return st.one_of(
        st.just(list(range(n))),
        st.just([0] * n),
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
    )


class TestOracle:
    @given(st.data())
    @settings(max_examples=300)
    def test_matches_dict_evaluate(self, data):
        n = data.draw(st.integers(min_value=1, max_value=60))
        labels = data.draw(partitions(n))
        c = ClusterSet.from_labels(labels)
        truth = ClusterSet.from_labels(data.draw(st.one_of(
            st.just(labels), partitions(n)
        )))
        assert_same(evaluate(c, truth, tau=0.5), dict_evaluate(c, truth, tau=0.5))


def assert_same(got, want):
    for field in dataclasses.fields(got):
        a, b = getattr(got, field.name), getattr(want, field.name)
        # the same type and value; repr tells apart floats that == does not
        assert (type(a), a, repr(a)) == (type(b), b, repr(b)), field.name


class TestMergeMetrics:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_reports_equal_evaluate(self, data):
        # merges along a random forest, in random order, reported after every
        # `every` merges and at the end
        n = data.draw(st.integers(min_value=1, max_value=60))
        truth = ClusterSet.from_labels(data.draw(partitions(n)))
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        order = rng.sample(range(n), n)
        edges = [(order[k], order[rng.randrange(k)]) for k in range(1, n)]
        rng.shuffle(edges)
        edges = edges[:data.draw(st.integers(0, n - 1))]
        every = data.draw(st.integers(1, 8))
        metrics, label = MergeMetrics(truth), np.arange(n)
        for k in range(len(edges) + 1):
            if k:
                u, v = edges[k - 1]
                metrics.merge(u, v)
                label[label == label[v]] = label[u]
            if k % every == 0 or k == len(edges):
                want = evaluate(ClusterSet.from_labels(label), truth, tau=k / 2)
                assert_same(metrics.report(tau=k / 2), want)


    def test_merging_one_cluster_is_error(self):
        metrics = MergeMetrics(cs([0, 1, 2]))
        metrics.merge(0, 1)
        with pytest.raises(ValueError, match="already in one cluster"):
            metrics.merge(1, 0)

    def test_log_is_math_log(self):
        # the cell of cluster {0, 1, 2, 3} and truth cluster {0, 1, 2, 4, 5}
        # has ratio 7 * 3 / (4 * 5) = 1.05, whose np.log is 1 ulp below its
        # math.log, and that ulp reaches the NMI
        assert float(np.log(np.array([1.05]))[0]) != math.log(1.05)
        truth = ClusterSet.from_labels([0, 0, 0, 1, 0, 0, 1])
        metrics = MergeMetrics(truth)
        for u, v in [(0, 1), (4, 5), (0, 2), (4, 6), (0, 3)]:
            metrics.merge(u, v)
        c = cs([0, 1, 2, 3], [4, 5, 6])
        assert_same(metrics.report(), evaluate(c, truth))


class TestLeftToRightSum:
    """MergeMetrics adds its NMI terms with np.add.accumulate, which numpy
    does not document as a left-to-right sum; evaluate adds them with reduce.
    NMI terms are never -0.0, so neither are these."""

    @given(st.lists(st.floats(-1e12, 1e12), min_size=1, max_size=300))
    @settings(max_examples=500)
    def test_accumulate_matches_reduce(self, terms):
        terms = [t + 0.0 for t in terms]  # -0.0 becomes 0.0
        got = float(np.add.accumulate(np.array(terms))[-1])
        assert repr(got) == repr(reduce(operator.add, terms, 0.0))

    @pytest.mark.parametrize("size", [2, 8191, 8192, 8193, 50_000])
    def test_long_arrays_with_zero_slots(self, size):
        # past numpy's 8192-element buffer, half the slots 0.0 as absorbed cells
        rng = np.random.default_rng(size)
        terms = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 8, size)
        terms[rng.random(size) < 0.5] = 0.0
        got = float(np.add.accumulate(terms)[-1])
        assert repr(got) == repr(reduce(operator.add, terms.tolist(), 0.0))
