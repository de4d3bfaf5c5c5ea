"""Clustering evaluation against a ground-truth partition.

Implements purity, inverse purity and their harmonic mean, the relative
error in the number of clusters, pairwise precision/recall/F1, the
(relative) z-Rand score under the hypergeometric pair model, and NMI.
Metrics that are undefined for a given pair of partitions are reported as
None rather than NaN.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
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


_Table = dict[tuple[int, int], int]


def _contingency(c: ClusterSet, c_true: ClusterSet) -> _Table:
    """Record counts per (cluster, truth cluster), keyed in order of first record."""
    keys = c.labels() * c_true.c + c_true.labels()
    found, first, counts = np.unique(keys, return_index=True, return_counts=True)
    order = np.argsort(first)
    rows, cols = np.divmod(found[order], c_true.c)
    return dict(zip(zip(rows.tolist(), cols.tolist()), counts[order].tolist()))


def _purity(table: _Table, n: int, side: int) -> float:
    best: dict[int, int] = {}
    for key, cnt in table.items():
        if cnt > best.get(key[side], 0):
            best[key[side]] = cnt
    return sum(best.values()) / n


def _pair_count(clusters: ClusterSet) -> int:
    return sum(comb(len(r), 2) for r in clusters.clusters)


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


def _entropy(clusters: ClusterSet, n: int) -> float:
    sizes = np.array([len(r) for r in clusters.clusters], dtype=float)
    frac = sizes / n
    return float(max(-(frac * np.log(frac + ENTROPY_EPS)).sum(), 0.0))


def _nmi(table: _Table, c: ClusterSet, c_true: ClusterSet, n: int) -> float:
    sizes_c = [len(r) for r in c.clusters]
    sizes_t = [len(r) for r in c_true.clusters]
    info = 0.0
    for (i, j), cnt in table.items():
        info += (cnt / n) * math.log(n * cnt / (sizes_c[i] * sizes_t[j]))
    denom = math.sqrt(_entropy(c, n) * _entropy(c_true, n))
    if denom <= 0:
        return 0.0
    return float(min(max(info / denom, 0.0), 1.0))


def evaluate(
    c: ClusterSet, c_true: ClusterSet, tau: float | None = None
) -> MetricsReport:
    """Compute the full metric suite for a clustering against ground truth."""
    if c.n != c_true.n:
        raise ValueError("partitions cover different numbers of records")
    n = c.n
    table = _contingency(c, c_true)
    pur, inv = _purity(table, n, 0), _purity(table, n, 1)
    n_c, n_g = _pair_count(c), _pair_count(c_true)
    overlap = sum(comb(cnt, 2) for cnt in table.values())
    z = _z_rand(n, n_c, n_g, overlap)
    # the ground truth overlaps itself in all of its n_g pairs
    z_self = _z_rand(n, n_g, n_g, n_g)
    return MetricsReport(
        purity=pur,
        inverse_purity=inv,
        harmonic_mean=2 * pur * inv / (pur + inv) if pur + inv > 0 else 0.0,
        rel_cluster_error=abs(c.c - c_true.c) / c_true.c,
        precision=overlap / n_c if n_c > 0 else None,
        recall=overlap / n_g if n_g > 0 else None,
        f1=2 * overlap / (n_c + n_g) if n_c > 0 and n_g > 0 else None,
        z_rand=z,
        rel_z_rand=None if z is None or not z_self else z / z_self,
        nmi=_nmi(table, c, c_true, n),
        n=n,
        c=c.c,
        c_true=c_true.c,
        tau=tau,
    )
