"""Reference computations that the benchmark checks softdedupe's outputs against.

Written from the definitions with numpy and scipy only; nothing here imports
the package under test. Record scores follow the paper:

* features are words (whitespace runs) or character n-grams of the
  case-folded entry, minus stop words;
* TF-IDF weights are log(1 + tf) * log(n / df), each entry's row scaled to
  unit l1 norm;
* a field's soft TF-IDF score is T M T^T, where M holds Jaro-Winkler values
  of feature pairs at or above theta (1 on the diagonal); plain TF-IDF uses
  M = I;
* the composite score of a record pair is the sum of its field scores
  divided by the number of fields present in both records; the diagonal
  is 1;
* the automatic threshold is mu(H) + sigma(H) over each record's best
  match H, falling back to mu(H) when that reaches max(H).

Weights are all 1, as in every workload of the benchmark.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass
from math import comb

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

STOP_WORDS = frozenset({"and", "the", "or", "none", "na", ""})
NGRAM_SIZE = 3
THETA = 0.90
PREFIX_FACTOR = 0.1
MAX_PREFIX = 4
# rows of the n x n score matrix computed at a time, to bound memory
BLOCK_ROWS = 1024


def jaro(s1: str, s2: str) -> float:
    """Jaro similarity.

    Characters match when equal and at most floor(min(len)/2) positions
    apart, each character of s2 matched once, scanning s1 left to right;
    t is half the number of matched characters that appear in a different
    order in the two strings.
    """
    if not s1 or not s2:
        return 0.0
    window = min(len(s1), len(s2)) // 2
    taken = [False] * len(s2)
    matched1 = []
    for i, ch in enumerate(s1):
        for j in range(max(0, i - window), min(len(s2), i + window + 1)):
            if not taken[j] and s2[j] == ch:
                taken[j] = True
                matched1.append(ch)
                break
    m = len(matched1)
    if m == 0:
        return 0.0
    matched2 = [ch for ch, hit in zip(s2, taken) if hit]
    t = sum(a != b for a, b in zip(matched1, matched2)) / 2.0
    return (m / len(s1) + m / len(s2) + (m - t) / m) / 3.0


def jaro_winkler(s1: str, s2: str) -> float:
    """Jaro similarity raised by Winkler's bonus for a common prefix."""
    j = jaro(s1, s2)
    prefix = 0
    while (
        prefix < min(MAX_PREFIX, len(s1), len(s2)) and s1[prefix] == s2[prefix]
    ):
        prefix += 1
    return j + PREFIX_FACTOR * prefix * (1.0 - j)


def tokenize(entry: str, mode: str) -> list[str]:
    text = entry.strip().casefold()
    if mode == "word":
        tokens = text.split()
    elif len(text) <= NGRAM_SIZE:
        tokens = [text] if text else []
    else:
        grams = (text[i : i + NGRAM_SIZE] for i in range(len(text) - NGRAM_SIZE + 1))
        tokens = [g for g in grams if g.strip()]
    return [t for t in tokens if t not in STOP_WORDS]


@dataclass
class Field:
    """One field's lexicon, l1-normalized TF-IDF rows and presence flags."""

    features: list[str]
    tfidf: sparse.csr_matrix
    present: np.ndarray


def field_tfidf(column: list[str], mode: str) -> Field:
    counts = [Counter(tokenize(entry, mode)) for entry in column]
    features = sorted(set().union(*counts))
    index = {f: j for j, f in enumerate(features)}
    n = len(column)
    df = np.zeros(len(features))
    for c in counts:
        for f in c:
            df[index[f]] += 1
    idf = np.log(n / df)
    rows, cols, vals = [], [], []
    for i, c in enumerate(counts):
        for f, tf in c.items():
            rows.append(i)
            cols.append(index[f])
            vals.append(math.log1p(tf) * idf[index[f]])
    t = sparse.csr_matrix((vals, (rows, cols)), shape=(n, len(features)))
    norm = np.asarray(t.sum(axis=1)).ravel()
    scale = np.divide(1.0, norm, out=np.zeros(n), where=norm > 0)
    t = sparse.diags(scale) @ t
    return Field(features, t.tocsr(), np.array([bool(c) for c in counts]))


def threshold_from_h(h: np.ndarray) -> float:
    tau = float(h.mean() + h.std(ddof=1))
    return tau if tau < float(h.max()) else float(h.mean())


class Reference:
    """Reference scores for one delimited input with a truth column first."""

    def __init__(self, csv_path: str, mode: str):
        with open(csv_path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        self.truth = [r[0].strip() for r in body]
        self.n = len(body)
        self.fields = [
            field_tfidf([r[k] for r in body], mode) for k in range(1, len(header))
        ]
        self.presence = np.column_stack([f.present for f in self.fields]).astype(float)
        self._jw: dict[tuple[str, str], float] = {}
        self._edges: tuple | None = None
        self._tau: float | None = None

    @property
    def missing_entries(self) -> int:
        return int((self.presence == 0).sum())

    @property
    def entities(self) -> int:
        return len(set(self.truth))

    def _adjust(self, scores: np.ndarray, rows, cols) -> np.ndarray:
        """Divide by shared-field counts; pin self-pairs at 1."""
        shared = self.presence[rows] @ self.presence[cols].T
        out = np.divide(scores, shared, out=np.zeros_like(scores), where=shared > 0)
        rows, cols = np.asarray(rows), np.asarray(cols)
        out[rows[:, None] == cols[None, :]] = 1.0
        return out

    def plain_rows(self, rows: np.ndarray) -> np.ndarray:
        """Adjusted plain TF-IDF scores of `rows` against every record."""
        total = np.zeros((len(rows), self.n))
        for f in self.fields:
            total += (f.tfidf[rows] @ f.tfidf.T).toarray()
        return self._adjust(total, rows, np.arange(self.n))

    def _blocks(self):
        for lo in range(0, self.n, BLOCK_ROWS):
            rows = np.arange(lo, min(lo + BLOCK_ROWS, self.n))
            yield rows, self.plain_rows(rows)

    def plain_auto_tau(self) -> float:
        if self._tau is None:
            h = np.empty(self.n)
            for rows, block in self._blocks():
                block[np.arange(len(rows)), rows] = -np.inf
                h[rows] = block.max(axis=1)
            self._tau = threshold_from_h(h)
        return self._tau

    def _plain_edges(self, floor: float) -> tuple[np.ndarray, ...]:
        """Record pairs i < j scoring >= floor, with their plain scores.

        Collected once, a little below the first floor asked for, and
        reused for every floor above that.
        """
        if self._edges is None or floor < self._edges[0]:
            low = floor - 1e-6
            parts = []
            for rows, block in self._blocks():
                i, j = np.nonzero(block >= low)
                keep = rows[i] < j
                parts.append((rows[i][keep], j[keep], block[i[keep], j[keep]]))
            self._edges = (low, *(np.concatenate(p) for p in zip(*parts)))
        _, i, j, score = self._edges
        keep = score >= floor
        return i[keep], j[keep], score[keep]

    def plain_components(self, tau: float) -> np.ndarray:
        """Component label of each record in the plain graph {score >= tau}."""
        i, j, _ = self._plain_edges(tau)
        graph = sparse.coo_matrix((np.ones(len(i)), (i, j)), shape=(self.n, self.n))
        return csgraph.connected_components(graph, directed=False)[1]

    def plain_component_counts(self, taus: list[float]) -> list[int]:
        """Component count of the plain graph {score >= tau} for each tau.

        The components at any tau are those of the maximum spanning forest's
        edges scoring >= tau, so one forest answers every tau.
        """
        i, j, score = self._plain_edges(min(taus))
        cost = sparse.coo_matrix((2.0 - score, (i, j)), shape=(self.n, self.n))
        forest = csgraph.minimum_spanning_tree(cost.tocsr()).tocoo()
        # 2 - (2 - s) may differ from s in the last bit, far inside any margin
        kept = 2.0 - forest.data
        return [self.n - int((kept >= t).sum()) for t in taus]

    def jw_matrix(self, features: list[str]) -> np.ndarray:
        """Jaro-Winkler values >= theta among `features`, 1 on the diagonal."""
        m = len(features)
        out = np.eye(m)
        for a in range(m):
            for b in range(a + 1, m):
                key = (features[a], features[b])
                if key not in self._jw:
                    self._jw[key] = jaro_winkler(*key)
                if self._jw[key] >= THETA:
                    out[a, b] = out[b, a] = self._jw[key]
        return out

    def soft_scores(self, records: list[int]) -> np.ndarray:
        """Adjusted soft TF-IDF scores among `records` (a p x p matrix)."""
        rows = np.asarray(records)
        total = np.zeros((len(rows), len(rows)))
        for f in self.fields:
            sub = f.tfidf[rows]
            cols = np.unique(sub.indices)
            dense = sub[:, cols].toarray()
            jw = self.jw_matrix([f.features[c] for c in cols])
            total += dense @ jw @ dense.T
        return self._adjust(total, rows, rows)


def components(adjacency: np.ndarray) -> np.ndarray:
    return csgraph.connected_components(
        sparse.csr_matrix(adjacency), directed=False
    )[1]


def _pieces(adjacency: np.ndarray, members: list[int]) -> list[list[int]]:
    """Components of the graph induced by `members`, ordered by first member."""
    labels = components(adjacency[np.ix_(members, members)])
    groups: dict[int, list[int]] = {}
    for m, lab in zip(members, labels):
        groups.setdefault(lab, []).append(m)
    return sorted(groups.values(), key=lambda g: g[0])


def strength(adjacency: np.ndarray, members: list[int]) -> float:
    """Share of a cluster's record pairs that are linked; 0 for a singleton."""
    p = len(members)
    if p < 2:
        return 0.0
    return int(adjacency[np.ix_(members, members)].sum()) // 2 / comb(p, 2)


def refine_once(adjacency: np.ndarray) -> list[list[int]]:
    """The paper's refinement rule applied once to one cluster's graph.

    A cluster of three or more records needs refinement when removing some
    single record leaves the rest disconnected. Then the record whose
    removal gives the highest mean strength of the remaining pieces is
    removed and joined to the piece whose union with it is strongest; ties
    go to the lowest record, then the first piece. Returns the pieces as
    positions in `adjacency`; a single piece means the cluster is a fixed
    point of the rule.
    """
    p = len(adjacency)
    adjacency = adjacency & ~np.eye(p, dtype=bool)
    everyone = list(range(p))
    splits = [_pieces(adjacency, everyone[:r] + everyone[r + 1 :]) for r in everyone]
    if p <= 2 or all(len(pieces) == 1 for pieces in splits):
        return [everyone]
    best_score, removed, pieces = -1.0, None, []
    for r, candidate in zip(everyone, splits):
        score = sum(strength(adjacency, s) for s in candidate) / len(candidate)
        if score > best_score:
            best_score, removed, pieces = score, r, candidate
    join = max(
        range(len(pieces)),
        key=lambda j: (strength(adjacency, pieces[j] + [removed]), -j),
    )
    pieces[join] = sorted(pieces[join] + [removed])
    return pieces


def _pairs(sizes) -> int:
    return sum(comb(int(s), 2) for s in sizes)


def _z_rand(overlap: int, pairs_c: int, pairs_g: int, total: int) -> float | None:
    """Pair overlap in standard deviations of the hypergeometric null, which
    draws pairs_g pairs out of `total` of which pairs_c are co-clustered."""
    if total < 2 or pairs_c == 0 or pairs_g == 0:
        return None
    q = pairs_c / total
    var = pairs_g * q * (1 - q) * (total - pairs_g) / (total - 1)
    if var <= 0:
        return None
    return (overlap - pairs_g * q) / math.sqrt(var)


def metrics(labels: list, truth: list, tau: float | None) -> dict:
    """Every field of metrics.json, recomputed from two label lists."""
    n = len(labels)
    table = Counter(zip(labels, truth))
    size_c = Counter(labels)
    size_g = Counter(truth)
    best_c: dict = {}
    best_g: dict = {}
    for (c, g), cnt in table.items():
        best_c[c] = max(best_c.get(c, 0), cnt)
        best_g[g] = max(best_g.get(g, 0), cnt)
    purity = sum(best_c.values()) / n
    inverse = sum(best_g.values()) / n
    overlap = _pairs(table.values())
    pairs_c, pairs_g = _pairs(size_c.values()), _pairs(size_g.values())
    total = comb(n, 2)
    z = _z_rand(overlap, pairs_c, pairs_g, total)
    z_self = _z_rand(pairs_g, pairs_g, pairs_g, total)
    info = sum(
        cnt / n * math.log(n * cnt / (size_c[c] * size_g[g]))
        for (c, g), cnt in table.items()
    )
    entropy_c = -sum(s / n * math.log(s / n) for s in size_c.values())
    entropy_g = -sum(s / n * math.log(s / n) for s in size_g.values())
    denom = math.sqrt(entropy_c * entropy_g)
    return {
        "purity": purity,
        "inverse_purity": inverse,
        "harmonic_mean": 2 * purity * inverse / (purity + inverse),
        "rel_cluster_error": abs(len(size_c) - len(size_g)) / len(size_g),
        "precision": overlap / pairs_c if pairs_c else None,
        "recall": overlap / pairs_g if pairs_g else None,
        "f1": 2 * overlap / (pairs_c + pairs_g) if pairs_c and pairs_g else None,
        "z_rand": z,
        "rel_z_rand": z / z_self if z is not None and z_self else None,
        "nmi": min(max(info / denom, 0.0), 1.0) if denom > 0 else 0.0,
        "n": n,
        "c": len(size_c),
        "c_true": len(size_g),
        "tau": tau,
    }
