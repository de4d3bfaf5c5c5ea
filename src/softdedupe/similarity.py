"""Character, feature and hybrid similarity scores.

Per field the pipeline builds a thresholded Jaro-Winkler matrix over the
feature lexicon and a log-scaled l1-normalized n x m TF-IDF matrix over
entries, both held as row-sorted nonzero entries (SparseRows), and
multiplies them into a soft TF-IDF record similarity (or a plain TF-IDF
one). A pair's field score depends only on the two records' TF-IDF rows,
so the products score each distinct row once: a field is held as the
u x u scores of its u distinct rows plus each record's row among them
(FieldScores). The composite expands each field into its dense n x n sum
one block of rows at a time, the fields one at a time.

The products use elementwise numpy only, and every sum adds its terms in the
order of scipy's CSR kernels, so each score has the bits that
TFIDF @ M @ TFIDF.T by scipy.sparse would give.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

# off-diagonal field scores below this are set to 0
SPARSE_FLOOR = 1e-12
# the LCS of a pair comes from one uint64 bit vector over its shorter feature
LCS_BITS = 64
# every chunked pass of the package takes at most this many entries or
# product terms per block, one row at least (_runs, row_blocks)
BLOCK_ENTRIES = 1 << 16

METHOD_TFIDF = "tfidf"
METHOD_SOFT_TFIDF = "soft_tfidf"


@dataclass(frozen=True)
class SimilarityParams:
    """Knobs for the similarity stage.

    prefix_factor and max_prefix follow Winkler's original choice
    (0.1 and 4); theta is the Jaro-Winkler cutoff for soft TF-IDF.
    """

    prefix_factor: float = 0.1
    max_prefix: int = 4
    theta: float = 0.90
    method: str = METHOD_SOFT_TFIDF
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if not self.prefix_factor >= 0.0 or self.max_prefix < 0:
            raise ValueError("prefix_factor and max_prefix must be >= 0")
        # inf * 0 is NaN, which the bound below would let through
        if not math.isfinite(self.prefix_factor):
            raise ValueError(f"prefix_factor must be finite, got {self.prefix_factor}")
        if self.prefix_factor * self.max_prefix > 1.0 + 1e-12:
            raise ValueError("prefix_factor * max_prefix must be <= 1")
        if not 0.0 <= self.theta < 1.0:
            raise ValueError("theta must lie in [0, 1)")
        if self.method not in (METHOD_TFIDF, METHOD_SOFT_TFIDF):
            raise ValueError(f"unknown method: {self.method!r}")
        if self.weights is not None and not all(
            math.isfinite(w) and w > 0 for w in self.weights
        ):
            raise ValueError("weights must be finite and positive")
        # a field scores at most 1 per pair, so the composite, summed field
        # by field, stays at most the weights summed left to right
        if self.weights is not None and not math.isfinite(
                reduce(operator.add, self.weights, 0.0)):
            raise ValueError(f"weights must have a finite sum, got {self.weights}")
        # every nonzero field score is at least SPARSE_FLOOR and adjust divides
        # by at most the field count a, so at or above this bound every nonzero
        # weighted and adjusted score is a normal float, never a subnormal one
        if self.weights and (min(self.weights) * SPARSE_FLOOR / len(self.weights)
                             < sys.float_info.min):
            smallest = sys.float_info.min * len(self.weights) / SPARSE_FLOOR
            raise ValueError(
                f"weights must be at least about {smallest:.3g} for "
                f"{len(self.weights)} fields, so that no score is subnormal, "
                f"got {self.weights}"
            )


def jaro(s1: str, s2: str) -> float:
    """Jaro similarity in [0, 1].

    Characters match when identical and within a window of
    floor(min(len)/2) positions; t is half the number of order mismatches
    among the matched sequences (kept fractional). Each character of s1
    matches the first unused equal character of s2 in its window, found by
    str.find; the used positions of s2 are the set bits of an int.
    """
    len1, len2 = len(s1), len(s2)
    if len1 == 0 or len2 == 0:
        return 0.0
    window = min(len1, len2) // 2
    used2 = 0
    m1: list[str] = []
    match_idx2: list[int] = []
    for i, ch in enumerate(s1):
        hi = i + window + 1
        j = s2.find(ch, max(0, i - window), hi)
        while j >= 0 and used2 >> j & 1:
            j = s2.find(ch, j + 1, hi)
        if j >= 0:
            used2 |= 1 << j
            m1.append(ch)
            match_idx2.append(j)
    m = len(m1)
    if m == 0:
        return 0.0
    match_idx2.sort()
    t = sum(a != s2[j] for a, j in zip(m1, match_idx2)) / 2.0
    return (m / len1 + m / len2 + (m - t) / m) / 3.0


def jaro_winkler(s1: str, s2: str,
                 prefix_factor: float = SimilarityParams.prefix_factor,
                 max_prefix: int = SimilarityParams.max_prefix) -> float:
    """Jaro similarity with Winkler's bonus for a shared prefix."""
    j = jaro(s1, s2)
    prefix = 0
    for a, b in zip(s1[:max_prefix], s2[:max_prefix]):
        if a != b:
            break
        prefix += 1
    return j + prefix_factor * prefix * (1.0 - j)


@dataclass(frozen=True, eq=False)
class SparseRows:
    """An n x m matrix held as its nonzero entries, row by row.

    Row i holds the columns indices[indptr[i]:indptr[i + 1]], ascending,
    with their values at the same positions of data: scipy's CSR layout with
    sorted indices, in plain numpy arrays.
    """

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @classmethod
    def from_entries(cls, rows, cols, vals, shape) -> "SparseRows":
        """The matrix with value vals[e] at (rows[e], cols[e]), each
        position given at most once."""
        order = np.lexsort((cols, rows))
        indptr = np.zeros(shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
        return cls(shape, indptr, cols[order], vals[order])

    def row_of(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.row_of(), self.indices] = self.data
        return out


@dataclass(frozen=True)
class JaroWinklerMatrix:
    """Symmetric m x m matrix of JW values >= theta (others absent)."""

    theta: float
    rows: SparseRows = field(compare=False)

    @property
    def matrix(self):
        """The matrix as a scipy CSR matrix, built on each access; scipy is
        imported here, not by the module."""
        from scipy import sparse

        rows = self.rows
        return sparse.csr_matrix((rows.data, rows.indices, rows.indptr),
                                 shape=rows.shape)


def _character_tables(features: Sequence[str], max_width: int):
    """Per-character tables of the features for build_jw_matrix.

    Returns the lengths; each feature's first position in the concatenated
    text; the character id at every position of that text; the m x alphabet
    match masks; the 0/1 level matrix; and the first characters' ids, at
    most max_width of them, padded with -1.

    Bit q of mask [f, c] is set when character q of feature f is c, for
    features of at most LCS_BITS characters; the masks of longer features
    are 0. The level matrix has one column per character c and level k
    below the second-largest count of c among the features, holding
    [count[c] > k]. Since min(a, b) = sum over k of [a > k][b > k], the
    product of two of its rows is the number of characters the two features
    share. Levels that at most one feature reaches add nothing to a pair and
    are left out.
    """
    m = len(features)
    lens = np.fromiter(map(len, features), dtype=np.int64, count=m)
    starts = np.cumsum(lens) - lens
    codes = np.frombuffer("".join(features).encode("utf-32-le"), dtype=np.uint32)
    alphabet, chars = np.unique(codes, return_inverse=True)
    size = len(alphabet)
    owner = np.repeat(np.arange(m), lens)
    short = lens[owner] <= LCS_BITS
    position = np.arange(len(chars)) - starts[owner]
    match = np.zeros(m * size, dtype=np.uint64)
    np.bitwise_or.at(match, owner[short] * size + chars[short],
                     np.uint64(1) << position[short].astype(np.uint64))
    counts = np.bincount(owner * size + chars, minlength=m * size).reshape(m, size)
    if m > 1:
        levels = np.partition(counts, m - 2, axis=0)[m - 2]
    else:
        levels = np.zeros(size, dtype=np.int64)
    reached = np.minimum(counts, levels)
    feat, char = np.nonzero(reached)
    first_column = np.cumsum(levels) - levels
    entry, column = _spans(first_column[char], first_column[char] + reached[feat, char])
    indicator = np.zeros((m, int(levels.sum())))
    indicator[feat[entry], column] = 1.0
    width = min(max_width, int(lens.max(initial=0)))
    offsets = np.arange(width)
    at = np.minimum(starts[:, None] + offsets, len(chars) - 1)
    heads = np.where(offsets < lens[:, None], chars[at], -1)
    return lens, starts, chars, match.reshape(m, size), indicator, heads


def _shared_prefix(first, second, heads) -> np.ndarray:
    """The length of the common prefix of each pair of heads rows, as a
    float. -1 pads each row, so two distinct features agree on a padded
    position only after disagreeing on a real one: runs stop where
    jaro_winkler's do."""
    prefix = np.zeros(len(first))
    run = np.ones(len(first), dtype=bool)
    for k in range(heads.shape[1]):
        run &= heads[first, k] == heads[second, k]
        prefix += run
    return prefix


def _count_candidates(length, indicator, heads, prefix_factor, top, floor):
    """The pairs i < j whose count bound reaches floor, with their shared
    character counts and shared prefixes.

    A block of rows at a time, one float64 product of level rows gives the
    shared counts s. Every term and partial sum of it is an integer below
    2^53, so the counts are exact under any summation order and any number
    of BLAS threads. The count bound is B = J + p*l*(1 - J) with
    J = (s/l1 + s/l2 + 1)/3, or 0 when s = 0, where l1 and l2 are the
    lengths (at least 1). As p*l <= top, B <= 1 - (1 - J)*(1 - top), so
    B >= floor needs s*(1/l1 + 1/l2) >= 2 - 3*(1 - floor)/(1 - top) when
    top < 1. That test runs on the whole block, with 1e-6 more slack than
    floor, far more than the rounding of either side; B itself runs only on
    the pairs the test keeps.
    """
    m = len(length)
    inverse = 1.0 / length
    need = -np.inf
    if top < 1.0:
        need = 2.0 - 3.0 * (1.0 - floor + 1e-6) / (1.0 - top)
    if floor > 0.0:  # B = 0 when s = 0
        need = max(need, np.finfo(float).tiny)
    first, second = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    shared = [np.zeros(0)]
    for lo, hi in row_blocks(m, m):
        block = indicator[lo:hi] @ indicator[lo:].T
        reach = np.add.outer(inverse[lo:hi], inverse[lo:])
        reach *= block
        a, b = np.nonzero(reach >= need)
        upper = b > a  # column b of the block is feature lo + b
        a, b = a[upper], b[upper]
        first.append(lo + a)
        second.append(lo + b)
        shared.append(block[a, b])
    first, second, shared = map(np.concatenate, (first, second, shared))
    prefix = _shared_prefix(first, second, heads)
    la, lb = length[first], length[second]
    j_ub = np.where(shared > 0, (shared / la + shared / lb + 1.0) / 3.0, 0.0)
    keep = j_ub + prefix_factor * prefix * (1.0 - j_ub) >= floor
    return first[keep], second[keep], shared[keep], prefix[keep]


def _lcs_lengths(first, second, lens, starts, chars, match) -> np.ndarray:
    """The length of the longest common subsequence of each pair of
    features, as a float.

    Hyyro's bit-parallel recurrence holds the shorter feature of a pair in
    one uint64, one bit per position, and reads the longer one a character
    at a time: U = V & match[c], V = (V + U) | (V - U), from V all ones; the
    zero bits of V count the LCS. match holds _character_tables' masks. A
    pair whose shorter feature has more than LCS_BITS characters gets that
    feature's length, which bounds its LCS.
    """
    swap = lens[first] > lens[second]
    pattern = np.where(swap, second, first)
    text = np.where(swap, first, second)
    out = lens[pattern].astype(float)
    fits = np.flatnonzero(out <= LCS_BITS)
    # longest texts first, so the pairs still reading at step k are a prefix
    fits = fits[np.argsort(-lens[text[fits]], kind="stable")]
    pattern = pattern[fits]
    at = starts[text[fits]]
    left = -lens[text[fits]]
    v = np.full(len(fits), ~np.uint64(0))
    for k in range(-int(left[0]) if len(fits) else 0):
        live = int(np.searchsorted(left, -k))  # pairs whose text is longer than k
        u = v[:live] & match[pattern[:live], chars[at[:live] + k]]
        v[:live] = (v[:live] + u) | (v[:live] - u)
    # U is a subset of V, so V - U never borrows and bits past the pattern
    # stay 1: every zero bit is a matched position
    zeros = np.unpackbits((~v).view(np.uint8)).reshape(len(fits), 64).sum(axis=1)
    out[fits] = zeros
    return out


def _transposition_bound(shared, lcs, la, lb) -> np.ndarray:
    """Upper bound on J given at most `shared` matches and an LCS of `lcs`.

    With m matches, Jaro's two matched sequences agree at positions that
    form a common subsequence of the two features, so at most min(m, lcs)
    of them, and t >= (m - min(m, lcs))/2. Then J <= g(m) =
    (m/l1 + m/l2 + (m + min(m, lcs))/(2m))/3, which rises in m up to lcs
    and is convex beyond, so its maximum over 0 < m <= shared is at
    min(lcs, shared) or at shared. g(0) reads 0.
    """
    def g(count):
        agree = (count + np.minimum(count, lcs)) / (2.0 * np.maximum(count, 1.0))
        return (count / la + count / lb + agree) / 3.0

    return np.maximum(g(np.minimum(lcs, shared)), g(shared))


def build_jw_matrix(
    features: Sequence[str], params: SimilarityParams
) -> JaroWinklerMatrix:
    """All-pairs thresholded Jaro-Winkler matrix over a field's lexicon.

    Only pairs that pass two upper bounds on JW are scored, each survivor by
    one call of the module's jaro_winkler; both bounds allow a slack of 1e-9
    below theta for float rounding, so the result equals the naive double
    loop. JW = J + p*l*(1 - J) grows with J when 0 <= p*l <= 1, so a bound
    on J with the exact shared prefix l bounds JW. SimilarityParams lets
    p*l reach 1 + 1e-12; then JW falls with J, by at most 1e-12 over
    J in [0, 1], which the slack absorbs.

    Count bound: Jaro pairs identical characters one to one, so there are
    at most M = sum over characters c of min(count1[c], count2[c]) matches,
    and J <= (M/l1 + M/l2 + 1)/3, or 0 when M = 0 (_count_candidates).

    Transposition bound, on the pairs the count bound keeps: J <= the
    maximum over m in {min(LCS, M), M} of (m/l1 + m/l2 + (m + min(m, LCS))
    /(2m))/3 (_transposition_bound), with the LCS of the two features from
    a uint64 bit vector (_lcs_lengths). A pair whose shorter feature has
    more than LCS_BITS characters is exempt from this bound: it keeps the
    count bound's verdict.
    """
    feats = features
    m = len(feats)
    p, cap, theta = params.prefix_factor, params.max_prefix, params.theta
    floor = theta - 1e-9
    lens, starts, chars, match, indicator, heads = _character_tables(
        feats, cap if p > 0 else 0)
    length = np.maximum(lens, 1).astype(float)
    first, second, shared, prefix = _count_candidates(
        length, indicator, heads, p, p * cap, floor)
    lcs = _lcs_lengths(first, second, lens, starts, chars, match)
    j_ub = _transposition_bound(shared, lcs, length[first], length[second])
    keep = j_ub + p * prefix * (1.0 - j_ub) >= floor
    first, second = first[keep], second[keep]
    scores = np.array([
        jaro_winkler(feats[i], feats[j], p, cap)
        for i, j in zip(first.tolist(), second.tolist())
    ], dtype=float)
    hit = scores >= theta
    first, second, scores = first[hit], second[hit], scores[hit]
    diag = np.arange(m)
    rows = SparseRows.from_entries(
        np.concatenate([diag, first, second]),
        np.concatenate([diag, second, first]),
        np.concatenate([np.ones(m), scores, scores]),  # JW(f, f) = 1
        (m, m),
    )
    return JaroWinklerMatrix(theta=theta, rows=rows)


def build_tfidf(
    tokens: Sequence[Sequence[str]], features: Sequence[str]
) -> SparseRows:
    """n x m log-scaled TF times IDF (natural log) of n token lists over the
    m features of their lexicon, nonzero rows scaled to unit l1 norm.

    Each (row, feature) count comes from one np.unique over the keys
    row * m + feature. A row's norm adds its weights in ascending feature
    order by np.add.reduceat, as scipy's CSR sum(axis=1) does.
    """
    n, m = len(tokens), len(features)
    ids = {f: j for j, f in enumerate(features)}
    sizes = np.fromiter(map(len, tokens), dtype=np.int64, count=n)
    keys = np.fromiter(map(ids.__getitem__, chain.from_iterable(tokens)),
                       dtype=np.int64, count=int(sizes.sum()))
    keys += np.repeat(np.arange(n, dtype=np.int64) * m, sizes)
    keys, counts = np.unique(keys, return_counts=True)
    rows, cols = np.divmod(keys, m)
    df = np.bincount(cols, minlength=m)
    with np.errstate(divide="ignore"):
        idf = np.where(df > 0, np.log(n / np.where(df > 0, df, 1)), 0.0)
    weights = np.log1p(counts) * idf[cols]
    keep = weights > 0.0
    mat = SparseRows.from_entries(rows[keep], cols[keep], weights[keep], (n, m))
    nonempty = np.flatnonzero(np.diff(mat.indptr))
    row_sums = np.add.reduceat(mat.data, mat.indptr[nonempty])
    # divide in place so single-feature rows normalize to exactly 1.0
    np.divide(mat.data, np.repeat(row_sums, np.diff(mat.indptr)[nonempty]),
              out=mat.data)
    return mat


@dataclass(frozen=True)
class CompositeSimilarity:
    """Sum of per-field similarities for every record pair, not yet adjusted:
    a dense float64 n x n array."""

    scores: np.ndarray = field(compare=False)

    @property
    def matrix(self):
        """The nonzero scores as a scipy CSR matrix, built on each access."""
        from scipy import sparse

        return sparse.csr_matrix(self.scores)


@dataclass(frozen=True, eq=False)
class FieldScores:
    """One field's similarity of every record pair, by distinct TF-IDF row.

    Records v != r score distinct[entry[v], entry[r]], and each record's own
    score is 1. distinct is the symmetric u x u array of the scores of the
    field's u distinct rows; its diagonal is the score of two different
    records with the same row.
    """

    distinct: np.ndarray
    entry: np.ndarray

    @property
    def n(self) -> int:
        return len(self.entry)

    def blocks(self, weight: float = 1.0):
        """The n x n field times weight, as (lo, hi, rows lo..hi-1) for each
        block of row_blocks; each record's own score is 1, so weight. Each
        block is a new array: rows entry[lo:hi] of distinct, then their
        columns entry. Besides distinct, the field holds one block and
        those rows of distinct at a time, never a u x n array."""
        n = self.n
        for lo, hi in row_blocks(n, n):
            block = np.take(np.take(self.distinct, self.entry[lo:hi], axis=0),
                            self.entry, axis=1)
            if weight != 1.0:
                block *= weight
            block[np.arange(hi - lo), np.arange(lo, hi)] = weight
            yield lo, hi, block

    def toarray(self) -> np.ndarray:
        out = np.empty((self.n, self.n))
        for lo, hi, block in self.blocks():
            out[lo:hi] = block
        return out


def _runs(sizes: np.ndarray):
    """Consecutive ranges [lo, hi) of positions whose sizes add up to at most
    BLOCK_ENTRIES, one position at least."""
    ends = np.cumsum(sizes)
    lo = 0
    while lo < len(sizes):
        base = ends[lo - 1] if lo else 0
        hi = int(np.searchsorted(ends, base + BLOCK_ENTRIES, side="right"))
        hi = max(hi, lo + 1)
        yield lo, hi
        lo = hi


def row_blocks(rows: int, width: int):
    """Consecutive row ranges [lo, hi) of `rows` rows of `width` entries
    each: _runs over their sizes, so max(1, BLOCK_ENTRIES // width) rows a
    block."""
    return _runs(np.full(rows, width))


def _spans(starts: np.ndarray, stops: np.ndarray):
    """The positions starts[e]..stops[e]-1 of every e, concatenated in
    order, and the e each one belongs to."""
    sizes = stops - starts
    owner = np.repeat(np.arange(len(sizes)), sizes)
    offset = starts - (np.cumsum(sizes) - sizes)
    return owner, np.arange(len(owner)) + offset[owner]


def _transpose(mat: SparseRows) -> tuple[SparseRows, np.ndarray]:
    """mat^T, and the position in it of each stored entry of mat."""
    order = np.argsort(mat.indices, kind="stable")
    indptr = np.zeros(mat.shape[1] + 1, dtype=np.int64)
    np.cumsum(np.bincount(mat.indices, minlength=mat.shape[1]), out=indptr[1:])
    at = np.empty_like(order)
    at[order] = np.arange(len(order))
    cols = SparseRows((mat.shape[1], mat.shape[0]), indptr,
                      mat.row_of()[order], mat.data[order])
    return cols, at


def _scatter_products(out, rows, values, other: SparseRows, starts, stops):
    """out[rows[e], other.indices[q]] += values[e] * other.data[q] for each
    e and each position q in starts[e]..stops[e]-1, in that order: each
    score adds its terms in the order of e, so as a sequential sum."""
    n = out.shape[1]
    flat = out.reshape(-1)
    for lo, hi in _runs(stops - starts):
        owner, pos = _spans(starts[lo:hi], stops[lo:hi])
        owner += lo
        np.add.at(flat, rows[owner] * n + other.indices[pos],
                  values[owner] * other.data[pos])


def _distinct_rows(tfidf: SparseRows) -> tuple[SparseRows, np.ndarray]:
    """The rows the field products score, and each record's row among them.

    Rows are grouped when bit-identical: one np.unique over each row's size,
    columns and values as int64 bits, padded to the longest row and viewed
    as one opaque item, so rows compare as byte strings (np.unique(axis=0)
    compares them column by column, about four times slower). So entries
    whose features differ only in order, or in a feature of idf 0, share a
    row.
    """
    n = tfidf.shape[0]
    sizes = np.diff(tfidf.indptr)
    width = int(sizes.max(initial=0))
    row = tfidf.row_of()
    slot = np.arange(len(row)) - tfidf.indptr[row]
    key = np.zeros((n, 1 + 2 * width), dtype=np.int64)
    key[:, 0] = sizes
    key[row, 1 + slot] = tfidf.indices
    key[row, 1 + width + slot] = tfidf.data.view(np.int64)
    items = key.view(np.dtype((np.void, key.shape[1] * key.itemsize)))
    _, first, entry = np.unique(items.reshape(-1), return_index=True,
                                return_inverse=True)
    _, pos = _spans(tfidf.indptr[first], tfidf.indptr[first + 1])
    indptr = np.zeros(len(first) + 1, dtype=np.int64)
    np.cumsum(sizes[first], out=indptr[1:])
    rows = SparseRows((len(first), tfidf.shape[1]), indptr,
                      tfidf.indices[pos], tfidf.data[pos])
    return rows, entry


def _finish_field(mat: np.ndarray, scale: float) -> np.ndarray:
    """(mat + mat^T) * scale in place off the diagonal, which keeps mat's
    own values; then values below SPARSE_FLOOR are set to 0. In row blocks.

    Each diagonal value of mat is already a whole score: that of two
    different records with the same row. The floor multiplies each block by
    its mask block >= SPARSE_FLOOR, which is exact: every entry is a sum of
    finite non-negative terms from +0.0, scaled by a positive factor, and
    for such x, x * 1.0 == x and x * 0.0 == +0.0."""
    n = len(mat)
    own = mat.diagonal().copy()
    for lo, hi in row_blocks(n, n):
        block = mat[lo:hi, lo:] + mat[lo:, lo:hi].T
        if scale != 1.0:
            block *= scale
        block *= block >= SPARSE_FLOOR
        mat[lo:hi, lo:] = block
        mat[lo:, lo:hi] = block.T
    own *= own >= SPARSE_FLOOR
    np.fill_diagonal(mat, own)
    return mat


def soft_tfidf_field(tfidf: SparseRows, jw: JaroWinklerMatrix) -> FieldScores:
    """Hybrid similarity: TFIDF . M . TFIDF^T with the thresholded JW matrix.

    Symmetric, own scores 1, computed over the distinct rows of T = TFIDF
    (_distinct_rows). Each block of rows of T goes through both products
    before the next. Score (i, k) of TM = T . M adds T[i, j] * M[j, k] over
    features j in ascending order. scipy's csr_matmat stores row i of TM in
    the reverse of the order in which it first touches each column, and
    score (i, r) of TM . T^T adds its terms in that stored order. Both sums
    depend on rows i and r alone, so records with the same rows get the
    same bits.
    """
    m = tfidf.shape[1]
    jw_rows = jw.rows
    if m != jw_rows.shape[0]:
        raise ValueError("TF-IDF and JW matrix dimensions disagree")
    tfidf, entry = _distinct_rows(tfidf)
    n = tfidf.shape[0]
    cols, _ = _transpose(tfidf)
    row = tfidf.row_of()
    out = np.zeros((n, n))
    # the terms of T . M per row of T, which set the row blocks
    row_terms = np.bincount(row, weights=np.diff(jw_rows.indptr)[tfidf.indices],
                            minlength=n)
    for lo, hi in _runs(row_terms):
        a, b = tfidf.indptr[lo], tfidf.indptr[hi]
        feats = tfidf.indices[a:b]
        owner, pos = _spans(jw_rows.indptr[feats], jw_rows.indptr[feats + 1])
        owner += a
        # terms in the order csr_matmat visits them: row, feature, column
        keys = row[owner] * m + jw_rows.indices[pos]
        keys, first, inverse = np.unique(keys, return_index=True,
                                         return_inverse=True)
        tm = np.zeros(len(keys))
        np.add.at(tm, inverse, tfidf.data[owner] * jw_rows.data[pos])
        stored = np.lexsort((-first, keys // m))
        tm_row, tm_col = np.divmod(keys[stored], m)
        _scatter_products(out, tm_row, tm[stored], cols,
                          cols.indptr[tm_col], cols.indptr[tm_col + 1])
    return FieldScores(_finish_field(out, 0.5), entry)


def tfidf_field(tfidf: SparseRows) -> FieldScores:
    """Exact-match similarity: TFIDF . TFIDF^T, own scores 1, computed over
    the distinct rows of TFIDF (_distinct_rows).

    Score (i, k) adds T[i, j] * T[k, j] over shared features j in ascending
    order. That sum is the same for (k, i), so only pairs i <= k are summed
    and then mirrored; (i, i) is the score of two records with row i.
    """
    tfidf, entry = _distinct_rows(tfidf)
    n = tfidf.shape[0]
    cols, at = _transpose(tfidf)
    out = np.zeros((n, n))
    # the records from i on in the column of each stored entry (i, j)
    _scatter_products(out, tfidf.row_of(), tfidf.data, cols,
                      at, cols.indptr[tfidf.indices + 1])
    return FieldScores(_finish_field(out, 1.0), entry)


def composite(
    fields: Iterable[FieldScores],
    weights: Sequence[float] | None = None,
) -> CompositeSimilarity:
    """Weighted sum of per-field similarities (unit weights by default).

    The fields are added in order into one n x n array, as
    ((w1 F1 + w2 F2) + ...), so a generator of fields needs only one of them
    held at a time. Each field is expanded to records one block of rows at
    a time (FieldScores.blocks).
    """
    total = None
    count = 0
    for scores in fields:
        if total is None:
            total = np.zeros((scores.n, scores.n))
        elif scores.n != len(total):
            raise ValueError("field similarities have mismatched record counts")
        if weights is not None and count >= len(weights):
            raise ValueError("weights length does not match number of fields")
        w = 1.0 if weights is None else float(weights[count])
        for lo, hi, block in scores.blocks(w):
            total[lo:hi] += block
        count += 1
        del scores  # free this field before the next one is built
    if total is None:
        raise ValueError("no field similarities given")
    if weights is not None and count != len(weights):
        raise ValueError("weights length does not match number of fields")
    return CompositeSimilarity(scores=total)
