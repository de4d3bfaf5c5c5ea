"""Threshold-and-group clustering with automatic threshold and refinement.

A run's clusters at tau are the connected components of the graph linking
every pair scoring >= tau, found by a breadth-first search over each
record's row of that graph packed into the bits of an int. Refinement
reuses the same packed rows, and scores every single-record removal from
one depth-first search of each cluster's links. A sweep takes its
clusterings at every tau from one maximum spanning forest of the score
array instead (single linkage), so no graph is built per tau. A partition
is a ClusterSet: an array of one cluster label per record.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass, field
from functools import reduce
from math import comb, frexp, inf, isfinite, isnan
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .similarity import row_blocks

# refine_all leaves clusters beyond this size unrefined, with a warning; a
# cluster of p records costs its p rows of the score array, compared with tau
# once, and one depth-first search per pass that scores every removal, with
# no component labelling
REFINE_SIZE_CAP = 2000


@dataclass(frozen=True)
class ThresholdedGraph:
    """Record graph with an edge wherever scores >= tau.

    scores is the caller's symmetric n x n array, NaN on its diagonal, held
    without a copy; an off-diagonal NaN is no edge, and grouping and
    refinement never take the diagonal for one. `rows` keeps each
    record's row of the graph once it is packed (see _links), so that
    grouping and refinement on one graph read each row once. It takes no
    part in comparison: graphs are equal when their taus are.
    """

    tau: float
    scores: np.ndarray = field(compare=False)
    rows: dict[int, int] = field(default_factory=dict, init=False,
                                 compare=False, repr=False)

    def edge_count(self) -> int:
        """The number of edges, from rows _links packs for a fresh copy of
        the graph: `rows` keeps only what grouping and refinement read."""
        fresh = ThresholdedGraph(tau=self.tau, scores=self.scores)
        rows = _links(fresh, range(len(self.scores)))
        return sum(bits.bit_count() for bits in rows.values()) // 2


@dataclass(frozen=True, eq=False)
class ClusterSet:
    """A partition of the records 0..n-1 as the read-only int64 array `labels`:
    record i is in cluster labels[i], and the clusters are numbered 0..c-1 in
    order of their least record. Partitions are equal when their labels are."""

    labels: np.ndarray

    def __post_init__(self):
        labels = np.array(self.labels, dtype=np.int64)
        # each label is >= 0 and at most one above every label before it
        if labels.ndim != 1 or (labels < 0).any() or (
                np.diff(np.maximum.accumulate(labels), prepend=-1) > 1).any():
            raise ValueError("labels must number clusters 0, 1, ... by least record")
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)

    def __eq__(self, other):
        return type(self) is type(other) and np.array_equal(self.labels, other.labels)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def c(self) -> int:
        return int(self.labels.max(initial=-1)) + 1

    @property
    def clusters(self) -> tuple[tuple[int, ...], ...]:
        """Each cluster's records, ascending, in cluster order."""
        order = np.argsort(self.labels, kind="stable").tolist()
        ends = np.cumsum(np.bincount(self.labels)).tolist()
        return tuple(tuple(order[lo:hi]) for lo, hi in zip([0, *ends], ends))

    @staticmethod
    def from_labels(labels: Sequence) -> "ClusterSet":
        """Records whose labels are equal as numpy array items share a cluster."""
        _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
        return ClusterSet(np.argsort(np.argsort(first))[inverse])

    @staticmethod
    def from_groups(groups: Iterable[Iterable[int]]) -> "ClusterSet":
        """The partition into nonempty, disjoint `groups` covering 0..n-1."""
        groups = [list(g) for g in groups]
        records = np.array([v for g in groups for v in g], dtype=np.int64)
        found = np.sort(records)
        if not all(groups):
            raise ValueError("empty cluster")
        if (found[1:] == found[:-1]).any():
            raise ValueError("clusters are not disjoint")
        if not np.array_equal(found, np.arange(len(found))):
            raise ValueError("clusters do not cover a contiguous index range")
        owner = np.repeat(np.arange(len(groups)), list(map(len, groups)))
        return ClusterSet.from_labels(owner[np.argsort(records)])


def h_statistics(sim: np.ndarray) -> np.ndarray:
    """H_i = max over j != i of SIM_{i,j}; sim has NaN on its diagonal."""
    if len(sim) < 2:
        raise ValueError("need at least two records")
    return np.nanmax(sim, axis=1)


def threshold_from_h(h: np.ndarray) -> float:
    """mu(H) + sigma(H), falling back to mu(H) when that reaches max(H). A
    mean that is not finite, as when the sum of H overflows, is a ValueError.

    sigma is taken of H times 2**-e, where 2**e is the power of two just
    above max |H|, and scaled back by 2**e. Both scalings are exact on
    normal floats, and the squared deviations of the scaled H neither
    underflow to 0 nor overflow to inf, so tau scales with H (with the
    weights) at any magnitude.
    """
    h = np.asarray(h, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(h.mean())
        if not isfinite(mean):
            raise ValueError(f"automatic threshold is not finite: mean H is {mean}")
        e = frexp(float(np.abs(h).max()))[1]
        tau = mean + float(np.ldexp(np.ldexp(h, -e).std(ddof=1), e))
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
    """Link every record pair whose similarity is >= tau: a view of sim,
    after a warning when tau lies outside the nontrivial interval.

    A NaN tau is a ValueError: no pair compares >= NaN, and single_linkage
    merges only at comparable thresholds.
    """
    if isnan(tau):
        raise ValueError("tau must not be NaN")
    warn_trivial([tau], nontrivial_interval(sim))
    return ThresholdedGraph(tau=tau, scores=sim)


def max_spanning_forest(sim: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edges (i, j, w) of a maximum spanning forest of the records, heaviest first.

    sim is read as a complete graph: the diagonal is skipped and an
    off-diagonal NaN is no edge. The forest spans each connected component
    with one tree, and every edge u-v outside it is joined by a tree path
    whose edges all weigh at least sim[u, v]. So for every tau the forest
    edges with w >= tau have the components of the graph linking every pair
    with sim >= tau, ties included (single linkage; Gower & Ross 1969).
    Without NaN the forest is a tree of n - 1 edges.

    Prim's algorithm (Prim 1957) on the dense array: O(n^2) time, one
    contiguous row read per record and O(n) memory. Each record's best edge
    into the forest is kept in full-length arrays, and each row updates them
    with a few numpy calls into preallocated buffers. Of edges of equal
    weight it may take any; every maximum spanning forest has the same
    weights and the same components at every tau.
    """
    n = len(sim)
    best = np.full(n, -inf)  # weight of each record's heaviest edge into the forest
    via = np.full(n, -1, dtype=np.int64)  # the forest end of that edge; -1: none
    outside = np.ones(n, dtype=bool)  # records not yet in the forest
    better = np.empty(n, dtype=bool)
    order = np.zeros(n, dtype=np.int64)  # the records in the order they join
    v = 0
    for step in range(1, n):
        outside[v] = False
        best[v] = -inf  # so that argmax takes a record in the forest last
        row = sim[v]
        # >= so that a -inf score links a record with no edge yet; a NaN
        # score compares false and is no edge
        np.greater_equal(row, best, out=better)
        better &= outside
        np.copyto(best, row, where=better)
        np.copyto(via, v, where=better)
        v = best.argmax()
        if best[v] == -inf:
            # no edge weighs more than -inf: take a record linked by a -inf
            # edge, if any, else start a new tree at the first record left
            linked = np.flatnonzero(outside & (via >= 0))
            v = linked[0] if len(linked) else outside.argmax()
        order[step] = v
    joined = order[1:]
    ends = joined[via[joined] >= 0]  # a tree's first record joins by no edge
    starts = via[ends]
    w = sim[starts, ends]
    heaviest = np.argsort(-w, kind="stable")
    return starts[heaviest], ends[heaviest], w[heaviest]


def forest_merges(sim: np.ndarray,
                  taus: Sequence[float]) -> Iterator[list[tuple[int, int]]]:
    """For each tau of the descending `taus`, in that order, the maximum
    spanning forest's edges (i, j) with w >= tau not given for an earlier
    tau, heaviest first. Merging every edge given up to tau yields the
    components of the graph linking every pair with sim >= tau.

    A merge cannot be undone, so a tau above the one before it, or NaN, is a
    ValueError.
    """
    i, j, w = max_spanning_forest(sim)
    merged = 0
    for previous, tau in zip([inf, *taus], taus):
        if not tau <= previous:
            raise ValueError(f"thresholds must descend, got {tau} after {previous}")
        start = merged
        while merged < len(w) and w[merged] >= tau:
            merged += 1
        yield list(zip(i[start:merged].tolist(), j[start:merged].tolist()))


def single_linkage(sim: np.ndarray, taus: Sequence[float]) -> Iterator[ClusterSet]:
    """The clusters at each tau of the descending `taus`, in that order: the
    components of the graph linking every pair with sim >= tau, from one
    maximum spanning forest (see forest_merges), without threshold's
    warning.

    An edge gives its second end's cluster the label of its first end's, in
    one comparison over the label array.
    """
    label = np.arange(len(sim))
    for edges in forest_merges(sim, taus):
        for u, v in edges:
            label[label == label[v]] = label[u]
        yield ClusterSet.from_labels(label)


def group(graph: ThresholdedGraph) -> ClusterSet:
    """Connected components of the thresholded graph, numbered in order of
    their least record.

    Every record's row is read once as packed bits (see _links). From each
    record not yet labelled, in record order, a breadth-first search takes
    the union of its frontier's rows, less the records already found, as
    the next frontier: O(n^2 / 64) word operations on the bit sets, linear
    in the bits read (Hopcroft & Tarjan 1973). A record with no link is its
    own cluster at once.
    """
    n = len(graph.scores)
    rows = _links(graph, range(n))
    label = [-1] * n
    found = 0  # the records of clusters with a link, as bits
    c = 0
    for r in range(n):
        if label[r] >= 0:
            continue
        label[r] = c
        if rows[r]:
            found |= 1 << r
            frontier = rows[r] & ~found
            while frontier:
                found |= frontier
                reach = 0
                while frontier:
                    low = frontier & -frontier
                    v = low.bit_length() - 1
                    label[v] = c
                    reach |= rows[v]
                    frontier ^= low
                frontier = reach & ~found
        c += 1
    return ClusterSet(np.array(label, dtype=np.int64))


def _share(entries: int, p: int) -> float:
    """Strength of p records whose induced adjacency stores `entries`."""
    return entries // 2 / comb(p, 2) if p >= 2 else 0.0


def _links(graph: ThresholdedGraph, records: Iterable[int]) -> dict[int, int]:
    """graph.rows, holding each of `records`' rows of the graph as an int
    whose bit k is set when it links record k; a record's own bit is clear.
    Rows not held yet are compared with tau a block of rows at a time
    (similarity.row_blocks) and kept."""
    out = graph.rows
    missing = [v for v in records if v not in out]
    for lo, hi in row_blocks(len(missing), len(graph.scores)):
        block = missing[lo:hi]
        linked = graph.scores[block] >= graph.tau
        linked[np.arange(len(block)), block] = False
        packed = np.packbits(linked, axis=1, bitorder="little")
        width, raw = packed.shape[1], packed.tobytes()
        out.update(zip(block, (int.from_bytes(raw[i : i + width], "little")
                               for i in range(0, len(raw), width))))
    return out


def _records(bits: int) -> list[int]:
    """The records whose bits are set in `bits`, ascending."""
    packed = np.frombuffer(bits.to_bytes(bits.bit_length() // 8 + 1, "little"),
                           dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(packed, bitorder="little")).tolist()


class _Piece(NamedTuple):
    """A component left by removing one record from a cluster's graph."""

    least: int  # its smallest record
    size: int
    entries: int  # adjacency entries inside it: twice its edges
    joins: int  # edges between it and the removed record
    bits: int  # its records, as the set bits of an int

    @staticmethod
    def of(bits: int, entries: int, joins: int) -> "_Piece":
        return _Piece((bits & -bits).bit_length() - 1, bits.bit_count(),
                      entries, joins, bits)


class _Removals:
    """The components left by removing each single member from the graph on
    the sorted `members` with the rows `links` (see _links), from one
    iterative depth-first search (the lowpoint test of Tarjan 1972 and
    Hopcroft & Tarjan 1973, in set form).

    Record sets are the bits of Python ints, so that a step of the search,
    which takes an undiscovered neighbour of the member on top, costs a few
    operations on n-bit ints however dense the graph. Removing v cuts off
    the subtree of each DFS child c when no member of that subtree links a
    member found before v. No edge leaves that subtree except to v, so it
    keeps its members' degree sum less its edges to v. A non-root v also
    leaves the rest of its component, which keeps what v and those subtrees
    do not take. The other components stay whole. Members are numbered by
    their position in `members`, which orders them as their records do.
    """

    def __init__(self, members: list[int], links: dict[int, int]):
        p = self.p = len(members)
        self.bit = bit = [1 << m for m in members]
        everyone = sum(bit)
        rows = [links[m] & everyone for m in members]
        position = dict(zip(members, range(p)))
        self.deg = deg = [r.bit_count() for r in rows]
        self.entries = sum(deg)
        self.root = root = [0] * p
        # the DFS children whose subtrees removing each member cuts off
        self.cut: list[list[int]] = [[] for _ in range(p)]
        self.subtree = subtree = [0] * p
        self.degs = degs = deg[:]  # degree sum of each subtree's members
        self.up = up = [0] * p  # edges between each subtree and its parent
        reach = rows[:]  # neighbours of each subtree's members
        early = [0] * p  # the members found before each one
        found, left = 0, everyone
        self.wholes = []  # each component, whole
        while left:
            r = position[left.bit_length() - 1]
            root[r], early[r] = r, found
            found ^= bit[r]
            left ^= bit[r]
            path = [r]
            while path:
                v = path[-1]
                nbr = rows[v] & left
                if nbr:
                    # the highest record, which bit_length finds in one step
                    w = position[nbr.bit_length() - 1]
                    root[w], early[w] = r, found
                    found ^= bit[w]
                    left ^= bit[w]
                    path.append(w)
                    continue
                path.pop()
                subtree[v] = found ^ early[v]
                if path:
                    u = path[-1]
                    up[v] = (rows[u] & subtree[v]).bit_count()
                    degs[u] += degs[v]
                    reach[u] |= reach[v]
                    if not reach[v] & early[u]:
                        self.cut[u].append(v)
            self.wholes.append(_Piece.of(subtree[r], degs[r], 0))

    def count(self, v: int) -> int:
        """How many components removing v leaves."""
        return len(self.cut[v]) + (v != self.root[v]) + len(self.wholes) - 1

    def pieces(self, v: int) -> list[_Piece]:
        """The components left by removing v, ordered by least record."""
        out = [_Piece.of(self.subtree[c], self.degs[c] - self.up[c], self.up[c])
               for c in self.cut[v]]
        r = self.root[v]
        if v != r:
            rest = self.subtree[r] ^ self.bit[v]
            for x in out:
                rest ^= x.bits
            out.append(_Piece.of(
                rest,
                self.degs[r] - 2 * self.deg[v] - sum(x.entries for x in out),
                self.deg[v] - sum(x.joins for x in out),
            ))
        out += [x for x in self.wholes if not x.bits & self.bit[v]]
        out.sort()
        return out

    def score(self, v: int) -> float:
        """The mean strength of the components left by removing v, summed
        left to right in order of least record (builtin sum() compensates
        from Python 3.12)."""
        if self.count(v) == 1:
            return _share(self.entries - 2 * self.deg[v], self.p - 1)
        pieces = self.pieces(v)
        shares = (_share(x.entries, x.size) for x in pieces)
        return reduce(operator.add, shares, 0.0) / len(pieces)


def _refine(members: list[int], links: dict[int, int]) -> list[list[int]] | None:
    """refine_cluster on the sorted `members`, whose rows `links` holds, or
    None for a stable cluster."""
    p = len(members)
    if p <= 2:
        return None
    search = _Removals(members, links)
    if all(search.count(v) == 1 for v in range(p)):
        return None
    # max() keeps the first best, so ties go to the lowest record
    removed = max(range(p), key=search.score)
    if search.count(removed) == 1:
        return [members]  # it rejoins its one piece: the cluster comes back whole
    pieces = search.pieces(removed)

    def joined(k: int) -> float:
        x = pieces[k]
        return _share(x.entries + 2 * x.joins, x.size + 1)

    join = max(range(len(pieces)), key=lambda k: (joined(k), -k))
    out = [_records(x.bits) for x in pieces]
    out[join] = sorted(out[join] + [members[removed]])
    return out


def needs_refinement(cluster: Sequence[int], graph: ThresholdedGraph) -> bool:
    """True when removing some single record disconnects the remainder."""
    members = sorted(cluster)
    return _refine(members, _links(graph, members)) is not None


def refine_cluster(cluster: Sequence[int], graph: ThresholdedGraph) -> list[list[int]]:
    """Split an unstable cluster by removing and re-attaching one record.

    The removed record maximizes the mean strength of the remaining
    subclusters; it is then re-added to the subcluster maximizing the
    strength of the union. Ties pick the lowest record / subcluster index.
    """
    members = sorted(cluster)
    pieces = _refine(members, _links(graph, members))
    if pieces is None:
        raise ValueError("refine_cluster called on a stable cluster")
    return pieces


def refine_all(
    clusters: ClusterSet, graph: ThresholdedGraph, iterate: bool = False
) -> ClusterSet:
    """Replace every unstable cluster by its refinement.

    By default one pass is made; with iterate=True the pass repeats until
    no cluster is unstable. Only clusters of three or more records are
    searched, and a split gives its pieces after the first fresh labels.
    """
    labels, fresh = clusters.labels.copy(), clusters.c
    pending = [list(c) for c in clusters.clusters if len(c) > 2]  # each ascending
    # the rows of every record a pass may refine, read once for all passes;
    # group has read them already when it grouped this graph
    links = _links(graph, [v for c in pending if len(c) <= REFINE_SIZE_CAP
                           for v in c])
    # with iterate, a split appends its pieces of three or more records to
    # pending, so that this loop takes them up in the next pass
    for cluster in pending:
        if len(cluster) > REFINE_SIZE_CAP:
            warnings.warn(
                f"skipping refinement of cluster with {len(cluster)} records "
                f"(cap {REFINE_SIZE_CAP})",
                stacklevel=2,
            )
            continue
        pieces = _refine(cluster, links)
        # stable, or refined back into itself: either way a fixed point
        if pieces is None or len(pieces) == 1:
            continue
        for piece in pieces[1:]:
            labels[piece] = fresh
            fresh += 1
        if iterate:
            pending += [piece for piece in pieces if len(piece) > 2]
    return ClusterSet.from_labels(labels)


def write_clusters(clusters: ClusterSet, path: str) -> None:
    """Write 'record_index cluster_id' lines with dense 0-based cluster ids."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{i} {lab}\n" for i, lab in enumerate(clusters.labels.tolist()))


def read_clusters(path: str) -> ClusterSet:
    """Read a cluster assignment file written by write_clusters."""
    pairs = []
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            try:
                if line.strip():
                    idx, lab = line.split()
                    pairs.append((int(idx), lab))
            except ValueError:
                raise ValueError(f"line {number}: expected 'record_index cluster_id', "
                                 f"got {line.strip()!r}") from None
    if not pairs:
        raise ValueError("cluster file has no records")
    pairs.sort()
    if [i for i, _ in pairs] != list(range(len(pairs))):
        raise ValueError("cluster file does not cover records 0..n-1 exactly once")
    return ClusterSet.from_labels([lab for _, lab in pairs])
