"""Clustering evaluation against a ground-truth partition.

Implements purity, inverse purity and their harmonic mean, the relative
error in the number of clusters, pairwise precision/recall/F1, the
(relative) z-Rand score under the hypergeometric pair model, and NMI.
Metrics that are undefined for a given pair of partitions are reported as
None rather than NaN.

evaluate reads the two partitions' label arrays (ClusterSet.labels) through
the contingency table, three aligned integer arrays of its nonzero cells in
order of each cell's first record, and the cluster sizes. MergeMetrics gives
the same reports for a partition that only ever merges clusters, as a sweep
down a single-linkage forest does: it updates the integer tallies per merge
and recomputes only the NMI terms of clusters that grew, so a sweep pays per
threshold for what changed instead of a full evaluate. Its union-find also
gives the partition itself, which a refined sweep refines.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, asdict
from functools import reduce
from math import comb

import numpy as np

from .clustering import ClusterSet

# guard added inside entropy logarithms so single-cluster partitions give
# entropy ~0 instead of blowing up the normalization
ENTROPY_EPS = 2.0**-52


@dataclass(frozen=True)
class MetricsReport:
    """Every metric of one clustering against the ground truth.

    purity is the fraction of records in their cluster's best-matching
    truth cluster (inverse_purity swaps the roles); rel_cluster_error is
    |c - c_true| / c_true. Precision, recall and F1 count co-clustered
    record pairs: precision and F1 are None when the clustering has no
    such pairs, recall and F1 when the truth has none. rel_z_rand divides
    z_rand by the truth's own z-Rand; nmi is the mutual information over
    the geometric mean of the two entropies.
    """

    purity: float
    inverse_purity: float
    harmonic_mean: float
    rel_cluster_error: float
    precision: float | None
    recall: float | None
    f1: float | None
    z_rand: float | None
    rel_z_rand: float | None
    nmi: float
    n: int
    c: int
    c_true: int
    tau: float | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def _contingency(
    c: ClusterSet, c_true: ClusterSet
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero (cluster, truth cluster) cells as aligned integer arrays
    rows, cols and counts, ordered by each cell's first record."""
    keys = c.labels * c_true.c + c_true.labels
    found, first, counts = np.unique(keys, return_index=True, return_counts=True)
    order = np.argsort(first)
    rows, cols = np.divmod(found[order], c_true.c)
    return rows, cols, counts[order]


def _z_rand(n: int, n_c: int, n_g: int, w: int) -> float | None:
    """Standard deviations separating the overlap w of n_c and n_g
    co-clustered pairs from its null mean. The null model draws the n_c
    pairs uniformly from the C(n,2) possible pairs (hypergeometric), with
    cluster sizes fixed."""
    t = comb(n, 2)
    if t < 2 or n_c == 0 or n_g == 0:
        return None
    mean = n_c * n_g / t
    var = n_g * (n_c / t) * (1 - n_c / t) * (t - n_g) / (t - 1)
    if var <= 0:
        return None
    return (w - mean) / math.sqrt(var)


def _entropy(sizes: np.ndarray, n: int) -> float:
    frac = sizes / n
    return float(max(-(frac * np.log(frac + ENTROPY_EPS)).sum(), 0.0))


def _report(n: int, c: int, c_true: int, best_c: int, best_t: int, n_c: int,
            n_g: int, overlap: int, info: float, entropy_c: float,
            entropy_t: float, tau: float | None) -> MetricsReport:
    """The report from the partitions' integer tallies: the summed best cell
    of each cluster and of each truth cluster, the co-clustered pairs of each
    side and of both, the mutual information and the two entropies."""
    pur, inv = best_c / n, best_t / n  # exact int over n
    z = _z_rand(n, n_c, n_g, overlap)
    # the ground truth overlaps itself in all of its n_g pairs
    z_self = _z_rand(n, n_g, n_g, n_g)
    denom = math.sqrt(entropy_c * entropy_t)
    return MetricsReport(
        purity=pur,
        inverse_purity=inv,
        harmonic_mean=2 * pur * inv / (pur + inv) if pur + inv > 0 else 0.0,
        rel_cluster_error=abs(c - c_true) / c_true,
        precision=overlap / n_c if n_c > 0 else None,
        recall=overlap / n_g if n_g > 0 else None,
        f1=2 * overlap / (n_c + n_g) if n_c > 0 and n_g > 0 else None,
        z_rand=z,
        rel_z_rand=None if z is None or not z_self else z / z_self,
        nmi=min(max(info / denom, 0.0), 1.0) if denom > 0 else 0.0,
        n=n,
        c=c,
        c_true=c_true,
        tau=tau,
    )


def _pairs(sizes: np.ndarray) -> int:
    # Python ints: numpy's int64 division rounds differently above 2**53
    return int((sizes * (sizes - 1) // 2).sum())


def evaluate(
    c: ClusterSet, c_true: ClusterSet, tau: float | None = None
) -> MetricsReport:
    """Compute the full metric suite for a clustering against ground truth."""
    n = c.n
    if n != c_true.n:
        raise ValueError("partitions cover different numbers of records")
    sizes_c, sizes_t = np.bincount(c.labels), np.bincount(c_true.labels)
    rows, cols, counts = _contingency(c, c_true)
    best_c, best_t = np.zeros_like(sizes_c), np.zeros_like(sizes_t)
    np.maximum.at(best_c, rows, counts)
    np.maximum.at(best_t, cols, counts)
    # both sides of each NMI ratio are at most n**2, exact in float64 (so the
    # division rounds as Python's int division) up to n = 9.4e7; math.log, as
    # numpy's SIMD log may differ by an ulp; a left-to-right sum in cell
    # order, as builtin sum() compensates from Python 3.12
    ratios = n * counts / (sizes_c[rows] * sizes_t[cols])
    terms = (k / n * math.log(r) for k, r in zip(counts.tolist(), ratios.tolist()))
    info = reduce(operator.add, terms, 0.0)
    return _report(n, len(sizes_c), len(sizes_t), int(best_c.sum()),
                   int(best_t.sum()), _pairs(sizes_c), _pairs(sizes_t),
                   _pairs(counts), info, _entropy(sizes_c, n),
                   _entropy(sizes_t, n), tau)


class MergeMetrics:
    """evaluate's report on a partition that starts as n singletons and
    changes only by merging clusters, kept up to date merge by merge.

    A union-find holds the clusters. Each cluster keeps a map from truth
    cluster to the least record of its cell there; each cell keeps its
    record count, and later its NMI term, at that least record, so that the
    least records order the cells as evaluate's contingency table does.
    merge() folds the cluster with fewer cells into the other and updates
    the integer tallies exactly: the co-clustered pairs, the overlap, the
    cluster count, each cluster's best cell and each truth cluster's best
    cell, which only ever rises. report() then recomputes the NMI terms of
    the cells whose cluster grew since the last report, with evaluate's
    arithmetic, and adds every term in least-record order; an absorbed
    cell's slot holds 0.0, which adds nothing to the +0.0 start.
    partition() reads the partition itself off the union-find.
    """

    def __init__(self, c_true: ClusterSet):
        n = self.n = c_true.n
        sizes_t = np.bincount(c_true.labels)
        self.sizes_t = sizes_t.tolist()
        self.c_true = len(sizes_t)
        self.n_g = _pairs(sizes_t)
        self.entropy_t = _entropy(sizes_t, n)
        self.parent = list(range(n))
        self.size = [1] * n  # at each root
        self.least = list(range(n))  # each root's least record
        self.best = [1] * n  # each root's largest cell
        self.cells = [{t: v} for v, t in enumerate(c_true.labels.tolist())]
        self.count = [1] * n  # at each cell's least record
        self.best_t = [1] * self.c_true
        self.best_c_sum, self.best_t_sum = n, self.c_true
        self.c, self.n_c, self.overlap = n, 0, 0
        # each cluster's size at its least record, 0 elsewhere
        self.size_at = np.ones(n, dtype=np.int64)
        self.term = np.zeros(n)  # each cell's NMI term at its least record
        self.grown = set(range(n))  # roots whose terms are out of date

    def _root(self, v: int) -> int:
        parent = self.parent
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:  # path compression
            parent[v], v = root, parent[v]
        return root

    def merge(self, u: int, v: int) -> None:
        """Join the clusters of records u and v."""
        a, b = self._root(u), self._root(v)
        if a == b:
            raise ValueError(f"records {u} and {v} are already in one cluster")
        cells, count, best_t = self.cells, self.count, self.best_t
        if len(cells[a]) < len(cells[b]):
            a, b = b, a  # fold b's cells into a's
        self.parent[b] = a
        self.n_c += self.size[a] * self.size[b]
        self.c -= 1
        self.size[a] += self.size[b]
        low, high = sorted((self.least[a], self.least[b]))
        self.least[a] = low
        self.size_at[low], self.size_at[high] = self.size[a], 0
        into, best = cells[a], self.best[a]
        for t, r in cells[b].items():
            s = into.get(t)
            if s is None:
                into[t] = s = r
            else:
                self.overlap += count[s] * count[r]
                if r < s:
                    into[t], s, r = r, r, s
                count[s] += count[r]
                self.term[r] = 0.0
            k = count[s]
            best = max(best, k)
            if k > best_t[t]:
                self.best_t_sum += k - best_t[t]
                best_t[t] = k
        self.best_c_sum += best - self.best[a] - self.best[b]
        self.best[a] = best
        cells[b] = {}
        self.grown.discard(b)
        self.grown.add(a)

    def partition(self) -> ClusterSet:
        """The partition now: pointer jumping over the parent links takes
        every record to its root, which labels its cluster."""
        root = np.fromiter(self.parent, dtype=np.int64, count=self.n)
        while True:
            up = root[root]
            if np.array_equal(up, root):
                return ClusterSet(root)
            root = up

    def report(self, tau: float | None = None) -> MetricsReport:
        """evaluate(the partition now, the truth, tau)."""
        n, count, sizes_t, term = self.n, self.count, self.sizes_t, self.term
        for root in self.grown:
            a = self.size[root]
            for t, r in self.cells[root].items():
                k = count[r]
                term[r] = k / n * math.log(n * k / (a * sizes_t[t]))
        self.grown.clear()
        # a left-to-right sum, as evaluate's reduce (pinned by a test)
        info = float(np.add.accumulate(term)[-1])
        entropy_c = _entropy(self.size_at[self.size_at > 0], n)
        return _report(n, self.c, self.c_true, self.best_c_sum, self.best_t_sum,
                       self.n_c, self.n_g, self.overlap, info, entropy_c,
                       self.entropy_t, tau)
