"""End-to-end orchestration: tokenize, score, adjust, cluster, evaluate.

build_similarity turns a data set into one dense n x n score array; the
clustering and sweep functions here read only that array.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

import numpy as np

from . import clustering, evaluation, similarity, sparsity
from .clustering import ClusterSet
from .corpus import DataSet, TokenizerConfig, build_lexicon, tokenize_field
from .evaluation import MetricsReport
from .similarity import METHOD_SOFT_TFIDF, SimilarityParams


def _field_scores(
    tokens: list[list[str]], params: SimilarityParams
) -> similarity.FieldScores:
    """One field's similarity, from its token lists."""
    features = build_lexicon(tokens)
    tfidf = similarity.build_tfidf(tokens, features)
    if params.method == METHOD_SOFT_TFIDF:
        jw = similarity.build_jw_matrix(features, params)
        return similarity.soft_tfidf_field(tfidf, jw)
    return similarity.tfidf_field(tfidf)


def build_similarity(
    dataset: DataSet,
    tok_config: TokenizerConfig,
    params: SimilarityParams,
    sparsity_mode: str = "adjust",
    seed: int | None = None,
) -> np.ndarray:
    """Score every record pair: a dense float64 n x n array, NaN diagonal.

    sparsity_mode "adjust" divides composite scores by shared-field
    counts; "impute" first fills missing entries with each field's mode
    and then applies the same division for comparability.

    Each field is tokenized once; its token lists give its column of the
    presence mask, its lexicon and its TF-IDF matrix. Under "impute", each
    field's missing entries take its mode entry's tokens (see
    sparsity.impute_tokens), drawing from one seeded generator in field
    order. Each field's scores are built as the composite takes them and go
    once they are added, so the composite and one field are held at a time:
    u x u scores of the field's u distinct TF-IDF rows, expanded to u x n
    columns for the sum.
    """
    if sparsity_mode not in ("adjust", "impute"):
        raise ValueError(f"unknown sparsity mode: {sparsity_mode!r}")
    fields = [tokenize_field(dataset, k, tok_config) for k in range(dataset.a)]
    if sparsity_mode == "impute":
        rng = random.Random(seed)
        fields = [sparsity.impute_tokens(dataset.column(k), tokens, rng)
                  for k, tokens in enumerate(fields)]
    mask = sparsity.presence_mask(fields)
    raw = similarity.composite(
        (_field_scores(tokens, params) for tokens in fields), params.weights
    )
    return sparsity.adjust(raw, mask)


def cluster_records(
    sim: np.ndarray,
    tau: float | None = None,
    refine: bool = False,
    iterate: bool = False,
) -> tuple[ClusterSet, float]:
    """Threshold and group; tau=None picks the automatic threshold.

    The clusters are the components of the graph at tau, from each record's
    row of it read once as packed bits (clustering.group); refinement reads
    the same rows. No spanning forest is built. A NaN tau is a ValueError
    (see clustering.threshold).
    """
    if tau is None:
        tau = clustering.auto_threshold(sim)
    graph = clustering.threshold(sim, tau)
    clusters = clustering.group(graph)
    if refine:
        clusters = clustering.refine_all(clusters, graph, iterate=iterate)
    return clusters, tau


def sweep_thresholds(
    sim: np.ndarray,
    truth: ClusterSet,
    taus: Sequence[float] | None = None,
    grid_size: int = 200,
    refine: bool = False,
    iterate: bool = False,
) -> list[tuple[float, bool, MetricsReport]]:
    """Evaluate the clustering at each tau, plus a row at the auto threshold.

    Returns (tau, is_auto, metrics) tuples sorted by tau.

    The clusterings come from one maximum spanning forest (single linkage):
    one O(n^2) pass over sim, whose edges then merge from the highest tau
    down. Without refinement, evaluation.MergeMetrics updates every metric
    as each edge merges two clusters, so a tau costs only the NMI terms of
    the clusters that grew since the tau before it; no partition is built.
    A refined sweep takes each tau's clusters from clustering.single_linkage,
    refines them on a view of sim at that tau, which reads only the rows of
    records in clusters of three or more, and evaluates the result.
    """
    interval = clustering.nontrivial_interval(sim)
    if taus is None:
        lo, hi = interval
        taus = np.linspace(lo, hi, grid_size + 1)[1:]  # half-open (lo, hi]
    taus = [float(t) for t in taus]
    if not taus:
        raise ValueError("empty threshold range")
    if any(math.isnan(t) for t in taus):
        raise ValueError("thresholds must not be NaN")
    tau_auto = clustering.auto_threshold(sim)
    points = sorted([(t, False) for t in taus] + [(tau_auto, True)])
    clustering.warn_trivial([tau for tau, _ in points], interval)
    if len(sim) != truth.n:
        raise ValueError("partitions cover different numbers of records")
    points.reverse()  # the forest merges from the highest tau down
    descending = [tau for tau, _ in points]
    rows = []
    if refine:
        forest = clustering.single_linkage(sim, descending)
        for (tau, is_auto), clusters in zip(points, forest):
            graph = clustering.ThresholdedGraph(tau=tau, scores=sim)
            clusters = clustering.refine_all(clusters, graph, iterate=iterate)
            rows.append((tau, is_auto, evaluation.evaluate(clusters, truth, tau=tau)))
    else:
        metrics = evaluation.MergeMetrics(truth)
        merges = clustering.forest_merges(sim, descending)
        for (tau, is_auto), edges in zip(points, merges):
            for u, v in edges:
                metrics.merge(u, v)
            rows.append((tau, is_auto, metrics.report(tau)))
    return rows[::-1]


def degrade(
    dataset: DataSet,
    fields: Sequence[str],
    fraction: float,
    seed: int,
) -> DataSet:
    """Blank round(fraction * n) entries per listed field, uniformly at random.

    At least one field must stay untouched so every record keeps some
    signal; entries in unlisted fields are preserved bit for bit. A field
    listed twice is a ValueError, as it would be blanked twice.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must lie strictly between 0 and 1")
    for k, name in enumerate(fields):
        if name in fields[:k]:
            raise ValueError(f"field {name!r} is listed twice")
    idx = [dataset.field_index(name) for name in fields]
    if len(idx) >= dataset.a:
        raise ValueError("at least one field must be left intact")
    rng = np.random.default_rng(seed)
    count = int(round(fraction * dataset.n))
    records = [list(rec) for rec in dataset.records]
    for k in idx:
        for i in rng.choice(dataset.n, size=count, replace=False):
            records[i][k] = ""
    return DataSet(
        records=tuple(tuple(r) for r in records), schema=dataset.schema
    )
