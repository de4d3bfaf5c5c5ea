"""Clustering evaluation against a ground-truth partition.

Implements purity, inverse purity and their harmonic mean, the relative
error in the number of clusters, pairwise precision/recall/F1, the
(relative) z-Rand score under the hypergeometric pair model, and NMI.
Metrics that are undefined for a given pair of partitions are reported as
None rather than NaN.

Every metric reads the two partitions' label arrays (ClusterSet.labels)
through the contingency table, three aligned integer arrays of its nonzero
cells in order of each cell's first record, and the cluster sizes.
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
    t = comb(n, 2)
    if t < 2 or n_c == 0 or n_g == 0:
        return None
    mean = n_c * n_g / t
    var = n_g * (n_c / t) * (1 - n_c / t) * (t - n_g) / (t - 1)
    if var <= 0:
        return None
    return (w - mean) / math.sqrt(var)


def z_rand(c: ClusterSet, c_true: ClusterSet) -> float | None:
    """Standard deviations separating the pair overlap from its null mean.

    The null model draws |C| co-clustered pairs uniformly from the C(n,2)
    possible pairs (hypergeometric), with cluster sizes fixed.
    """
    return evaluate(c, c_true).z_rand


def _entropy(sizes: np.ndarray, n: int) -> float:
    frac = sizes / n
    return float(max(-(frac * np.log(frac + ENTROPY_EPS)).sum(), 0.0))


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
    pur, inv = int(best_c.sum()) / n, int(best_t.sum()) / n  # exact int over n
    # Python ints: numpy's int64 division rounds differently above 2**53
    n_c, n_g, overlap = (
        int((k * (k - 1) // 2).sum()) for k in (sizes_c, sizes_t, counts)
    )
    z = _z_rand(n, n_c, n_g, overlap)
    # the ground truth overlaps itself in all of its n_g pairs
    z_self = _z_rand(n, n_g, n_g, n_g)
    # both sides of each NMI ratio are at most n**2, exact in float64 (so the
    # division rounds as Python's int division) up to n = 9.4e7; math.log, as
    # numpy's SIMD log may differ by an ulp; a left-to-right sum in cell
    # order, as builtin sum() compensates from Python 3.12
    ratios = n * counts / (sizes_c[rows] * sizes_t[cols])
    terms = (k / n * math.log(r) for k, r in zip(counts.tolist(), ratios.tolist()))
    info = reduce(operator.add, terms, 0.0)
    denom = math.sqrt(_entropy(sizes_c, n) * _entropy(sizes_t, n))
    return MetricsReport(
        purity=pur,
        inverse_purity=inv,
        harmonic_mean=2 * pur * inv / (pur + inv) if pur + inv > 0 else 0.0,
        rel_cluster_error=abs(len(sizes_c) - len(sizes_t)) / len(sizes_t),
        precision=overlap / n_c if n_c > 0 else None,
        recall=overlap / n_g if n_g > 0 else None,
        f1=2 * overlap / (n_c + n_g) if n_c > 0 and n_g > 0 else None,
        z_rand=z,
        rel_z_rand=None if z is None or not z_self else z / z_self,
        nmi=min(max(info / denom, 0.0), 1.0) if denom > 0 else 0.0,
        n=n,
        c=len(sizes_c),
        c_true=len(sizes_t),
        tau=tau,
    )
