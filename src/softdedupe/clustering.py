"""Threshold-and-group clustering with automatic threshold and refinement."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import chain
from math import comb, inf
from typing import Iterable, Iterator, Sequence

import numpy as np
from scipy import sparse

# refine_all leaves clusters beyond this size unrefined, with a warning; a
# cluster costs one DFS plus a component pass for each removal that splits it
REFINE_SIZE_CAP = 2000
# _splits stacks removal graphs until they hold this many adjacency entries or
# vertices, which bounds the memory of one connected_components call
SPLIT_BATCH_ENTRIES = 1 << 18


@dataclass(frozen=True)
class ThresholdedGraph:
    """Record graph with an edge wherever similarity >= tau.

    adjacency is a symmetric boolean CSR matrix with no self-loops.
    """

    tau: float
    adjacency: sparse.csr_matrix = field(compare=False)

    def edge_count(self) -> int:
        return self.adjacency.nnz // 2

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.adjacency[i, j])


@dataclass(frozen=True)
class ClusterSet:
    """A partition of record indices 0..n-1 into disjoint clusters."""

    clusters: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for c in self.clusters:
            if not c:
                raise ValueError("empty cluster")
            if seen & set(c):
                raise ValueError("clusters are not disjoint")
            seen.update(c)
        if seen != set(range(len(seen))):
            raise ValueError("clusters do not cover a contiguous index range")

    @property
    def n(self) -> int:
        return sum(len(c) for c in self.clusters)

    @property
    def c(self) -> int:
        return len(self.clusters)

    def labels(self) -> np.ndarray:
        sizes = np.fromiter(map(len, self.clusters), dtype=np.int64, count=self.c)
        members = np.fromiter(chain.from_iterable(self.clusters), dtype=np.int64)
        lab = np.empty(len(members), dtype=np.int64)
        lab[members] = np.repeat(np.arange(self.c), sizes)
        return lab

    @staticmethod
    def from_labels(labels: Sequence[int]) -> "ClusterSet":
        groups: dict[int, list[int]] = {}
        for i, lab in enumerate(labels):
            groups.setdefault(lab, []).append(i)
        return ClusterSet.from_groups(groups.values())

    @staticmethod
    def from_groups(groups: Iterable[Iterable[int]]) -> "ClusterSet":
        clusters = sorted((tuple(sorted(g)) for g in groups), key=lambda c: c[0])
        return ClusterSet(clusters=tuple(clusters))


def h_statistics(sim: np.ndarray) -> np.ndarray:
    """H_i = max over j != i of SIM_{i,j}; sim has NaN on its diagonal."""
    if len(sim) < 2:
        raise ValueError("need at least two records")
    return np.nanmax(sim, axis=1)


def threshold_from_h(h: np.ndarray) -> float:
    """mu(H) + sigma(H), falling back to mu(H) when that reaches max(H)."""
    h = np.asarray(h, dtype=float)
    mean = float(h.mean())
    tau = mean + float(h.std(ddof=1))
    return tau if tau < float(h.max()) else mean


def auto_threshold(sim: np.ndarray) -> float:
    """Automatic threshold from the per-record maximum similarities."""
    return threshold_from_h(h_statistics(sim))


def nontrivial_interval(sim: np.ndarray) -> tuple[float, float]:
    """Half-open (min, max] off-diagonal similarity range for useful taus."""
    return float(np.nanmin(sim)), float(np.nanmax(sim))


def warn_trivial(taus: Iterable[float], interval: tuple[float, float]) -> None:
    """Warn, in order, for each tau outside the nontrivial interval (lo, hi].

    The warning points at the caller of the function that calls this one.
    """
    lo, hi = interval
    for tau in taus:
        if not lo < tau <= hi:
            warnings.warn(
                f"tau={tau} outside the nontrivial interval ({lo}, {hi}]; "
                "clustering will be trivial",
                stacklevel=3,
            )


def threshold(sim: np.ndarray, tau: float) -> ThresholdedGraph:
    """Link every record pair whose similarity is >= tau."""
    warn_trivial([tau], nontrivial_interval(sim))
    return ThresholdedGraph(tau=tau, adjacency=sparse.csr_matrix(sim >= tau))


def max_spanning_forest(sim: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edges (i, j, w) of a maximum spanning forest of the records, heaviest first.

    sim is read as a complete graph, as threshold reads it: the diagonal is
    skipped and an off-diagonal NaN is no edge. The forest spans each
    connected component with one tree, and every edge u-v outside it is
    joined by a tree path whose edges all weigh at least sim[u, v]. So for
    every tau the forest edges with w >= tau have the components of
    threshold(sim, tau), ties included (single linkage; Gower & Ross 1969).
    Without NaN the forest is a tree of n - 1 edges.

    Prim's algorithm (Prim 1957) on the dense array: O(n^2) time, one row
    read per record and O(n) temporaries.
    """
    rest = np.arange(1, len(sim))  # records not yet in the forest
    best = np.full(len(rest), -np.inf)  # weight of each one's heaviest edge into it
    linked = np.zeros(len(rest), dtype=bool)  # whether it has an edge into it at all
    via = np.zeros(len(rest), dtype=np.int64)  # the forest end of that edge
    ends: list[int] = []
    starts: list[int] = []
    weights: list[float] = []
    v = 0
    while len(rest):
        row = sim[v, rest]
        better = row > best
        # an unlinked record's best is -inf, which row > best cannot beat
        better |= ~linked & (row == best)
        np.copyto(best, row, where=better)
        np.copyto(via, v, where=better)
        linked |= better
        k = int(np.argmax(best))
        if not linked[k]:
            # best[k] is -inf: take a record linked by a -inf edge, if any,
            # else start a new tree at record rest[k]
            k = int(np.argmax(linked)) if linked.any() else k
        v = int(rest[k])
        if linked[k]:
            starts.append(int(via[k]))
            ends.append(v)
            weights.append(float(best[k]))
        last = len(rest) - 1  # drop position k by moving the last record there
        for a in (rest, best, linked, via):
            a[k] = a[last]
        rest, best, linked, via = rest[:last], best[:last], linked[:last], via[:last]
    w = np.array(weights, dtype=float)
    order = np.argsort(-w, kind="stable")
    return (np.array(starts, dtype=np.int64)[order],
            np.array(ends, dtype=np.int64)[order], w[order])


def single_linkage(sim: np.ndarray, taus: Sequence[float]) -> Iterator[ClusterSet]:
    """group(threshold(sim, tau)) for each tau of the descending `taus`, in
    that order, from one maximum spanning forest, without threshold's warning.

    Each tau merges the forest edges with w >= tau not taken yet, moving the
    smaller cluster's records into the larger one. A merge cannot be undone,
    so a tau above the one before it, or NaN, is a ValueError.
    """
    i, j, w = max_spanning_forest(sim)
    pairs, weights = list(zip(i.tolist(), j.tolist())), w.tolist()
    label = list(range(len(sim)))
    members = {v: [v] for v in label}
    merged = 0
    previous = inf
    for tau in taus:
        if not tau <= previous:
            raise ValueError(f"thresholds must descend, got {tau} after {previous}")
        previous = tau
        while merged < len(weights) and weights[merged] >= tau:
            a, b = (label[v] for v in pairs[merged])
            if len(members[a]) < len(members[b]):
                a, b = b, a
            for v in members[b]:
                label[v] = a
            members[a].extend(members.pop(b))
            merged += 1
        yield ClusterSet.from_groups(members.values())


def graph_from_edges(
    n: int, edges: Iterable[tuple[int, int]], tau: float = 0.0
) -> ThresholdedGraph:
    """Build a record graph directly from an undirected edge list."""
    i, j = np.array(list(edges), dtype=np.int64).reshape(-1, 2).T
    i, j = i[i != j], j[i != j]
    ones = np.ones(2 * len(i), dtype=bool)
    coo = sparse.coo_matrix((ones, (np.r_[i, j], np.r_[j, i])), shape=(n, n))
    return ThresholdedGraph(tau=tau, adjacency=coo.tocsr())


def _labels(adjacency: sparse.csr_matrix) -> list[int]:
    # imported on first use: csgraph loads scipy.linalg (about 12 MB and
    # 0.2 s of CPU per process), which eval, degrade and synth never need
    from scipy.sparse import csgraph

    return csgraph.connected_components(adjacency, directed=False)[1].tolist()


def group(graph: ThresholdedGraph) -> ClusterSet:
    """Connected components of the thresholded graph."""
    return ClusterSet.from_labels(_labels(graph.adjacency))


def _induced(
    adjacency: sparse.csr_matrix, members: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Stored entries of `adjacency` among the sorted `members`, as
    (row, column) arrays of positions in `members`."""
    rows = adjacency[members].tocoo()
    pos = np.searchsorted(members, rows.col)
    inside = np.take(members, np.minimum(pos, len(members) - 1)) == rows.col
    return rows.row[inside], pos[inside]


def _share(entries: int, p: int) -> float:
    """Strength of p records whose induced adjacency stores `entries`."""
    return entries // 2 / comb(p, 2) if p >= 2 else 0.0


def strength(cluster: Sequence[int], graph: ThresholdedGraph) -> float:
    """Fraction of linked pairs inside the cluster; 0 for singletons."""
    rows, _ = _induced(graph.adjacency, sorted(cluster))
    return _share(len(rows), len(cluster))


def _removal_pieces(i: np.ndarray, j: np.ndarray, p: int) -> list[int]:
    """For each of the p vertices of the graph with adjacency entries (i, j),
    i sorted, the number of components left by removing it.

    One iterative lowpoint DFS (Tarjan 1972; Hopcroft & Tarjan 1973) per
    component: removing a vertex v cuts off the subtree of each DFS child c
    with low[c] >= disc[v], and a non-root v also leaves the rest of its
    component. The other components stay whole.
    """
    start = np.searchsorted(i, np.arange(p + 1)).tolist()
    nbr = j.tolist()
    nxt = start[:p]
    disc = [-1] * p
    low = [0] * p
    pieces = [1] * p
    clock = components = 0
    for root in range(p):
        if disc[root] >= 0:
            continue
        components += 1
        disc[root] = low[root] = clock
        clock += 1
        pieces[root] = 0  # a root has no part of its component above it
        path = [root]
        while path:
            v = path[-1]
            k = nxt[v]
            if k < start[v + 1]:
                nxt[v] = k + 1
                w = nbr[k]
                if disc[w] < 0:
                    disc[w] = low[w] = clock
                    clock += 1
                    path.append(w)
                elif disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                path.pop()
                if path:
                    u = path[-1]
                    if low[v] < low[u]:
                        low[u] = low[v]
                    if low[v] >= disc[u]:
                        pieces[u] += 1
    return [k + components - 1 for k in pieces]


def _splits(
    i: np.ndarray, j: np.ndarray, p: int, removed: list[int]
) -> list[tuple[list[list[int]], float]]:
    """For each vertex in `removed`, the components left by removing it from
    the graph on 0..p-1 with adjacency entries (i, j) (ordered by smallest
    vertex, each sorted) and their mean strength.

    The graphs left by a batch of removals are stacked block-diagonally, so
    that one connected_components call labels the whole batch.
    """
    step = max(1, SPLIT_BATCH_ENTRIES // max(len(i), p))
    out = []
    for lo in range(0, len(removed), step):
        batch = removed[lo : lo + step]
        count = len(batch)
        copy = np.repeat(np.arange(count), len(i))
        ci, cj = np.tile(i, count) + copy * p, np.tile(j, count) + copy * p
        gone = np.take(batch, copy) + copy * p  # the removed vertex in each copy
        keep = (ci != gone) & (cj != gone)
        ci, cj = ci[keep], cj[keep]
        size = count * p
        # float entries, which connected_components takes without a copy
        labels = _labels(sparse.csr_matrix((np.ones(len(ci)), (ci, cj)), (size, size)))
        entries = np.bincount(np.take(labels, ci), minlength=size).tolist()
        pieces: list[list[list[int]]] = [[] for _ in range(count)]
        shares: list[list[float]] = [[] for _ in range(count)]
        for vertices in ClusterSet.from_labels(labels).clusters:
            c = vertices[0] // p
            if vertices[0] != batch[c] + c * p:
                pieces[c].append([v - c * p for v in vertices])
                shares[c].append(_share(entries[labels[vertices[0]]], len(vertices)))
        out.extend((ps, sum(ss) / len(ss)) for ps, ss in zip(pieces, shares))
    return out


def _refine(members: list[int], graph: ThresholdedGraph) -> list[list[int]] | None:
    """refine_cluster on the sorted `members`, or None for a stable cluster."""
    p = len(members)
    if p <= 2:
        return None
    i, j = _induced(graph.adjacency, members)
    cuts = [v for v, k in enumerate(_removal_pieces(i, j, p)) if k > 1]
    if not cuts:
        return None
    splits = dict(zip(cuts, _splits(i, j, p, cuts)))
    # removing any other record leaves one piece, with every entry not at it
    kept = (len(i) - 2 * np.bincount(i, minlength=p)).tolist()
    scores = [
        splits[v][1] if v in splits else _share(kept[v], p - 1) for v in range(p)
    ]
    # max() keeps the first best, so ties go to the lowest record
    removed = max(range(p), key=scores.__getitem__)
    if removed not in splits:
        return [members]  # it rejoins its one piece: the cluster comes back whole
    pieces = splits[removed][0]

    def joined(k: int) -> float:
        inside = np.zeros(p, dtype=bool)
        inside[pieces[k] + [removed]] = True
        entries = int(np.count_nonzero(inside[i] & inside[j]))
        return _share(entries, len(pieces[k]) + 1)

    join = max(range(len(pieces)), key=lambda k: (joined(k), -k))
    pieces[join] = sorted(pieces[join] + [removed])
    return [[members[v] for v in piece] for piece in pieces]


def needs_refinement(cluster: Sequence[int], graph: ThresholdedGraph) -> bool:
    """True when removing some single record disconnects the remainder."""
    return _refine(sorted(cluster), graph) is not None


def refine_cluster(cluster: Sequence[int], graph: ThresholdedGraph) -> list[list[int]]:
    """Split an unstable cluster by removing and re-attaching one record.

    The removed record maximizes the mean strength of the remaining
    subclusters; it is then re-added to the subcluster maximizing the
    strength of the union. Ties pick the lowest record / subcluster index.
    """
    pieces = _refine(sorted(cluster), graph)
    if pieces is None:
        raise ValueError("refine_cluster called on a stable cluster")
    return pieces


def refine_all(
    clusters: ClusterSet, graph: ThresholdedGraph, iterate: bool = False
) -> ClusterSet:
    """Replace every unstable cluster by its refinement.

    By default one pass is made; with iterate=True the pass repeats until
    no cluster is unstable.
    """
    pending = [list(c) for c in clusters.clusters]
    done: list[list[int]] = []
    while pending:
        split: list[list[int]] = []
        for cluster in pending:
            if len(cluster) > REFINE_SIZE_CAP:
                warnings.warn(
                    f"skipping refinement of cluster with {len(cluster)} records "
                    f"(cap {REFINE_SIZE_CAP})",
                    stacklevel=2,
                )
                done.append(cluster)
                continue
            pieces = _refine(sorted(cluster), graph)
            # stable, or refined back into itself: either way a fixed point
            if pieces is None or len(pieces) == 1:
                done.append(cluster)
            else:
                split.extend(pieces)
        if not iterate:
            return ClusterSet.from_groups(done + split)
        pending = split
    return ClusterSet.from_groups(done)


def write_clusters(clusters: ClusterSet, path: str) -> None:
    """Write 'record_index cluster_id' lines with dense 0-based cluster ids."""
    labels = clusters.labels()
    with open(path, "w", encoding="utf-8") as fh:
        for i, lab in enumerate(labels):
            fh.write(f"{i} {lab}\n")


def read_clusters(path: str) -> ClusterSet:
    """Read a cluster assignment file written by write_clusters."""
    pairs = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            idx, lab = line.split()
            pairs.append((int(idx), lab))
    if not pairs:
        raise ValueError("cluster file has no records")
    pairs.sort()
    if [i for i, _ in pairs] != list(range(len(pairs))):
        raise ValueError("cluster file does not cover records 0..n-1 exactly once")
    return ClusterSet.from_labels([lab for _, lab in pairs])
