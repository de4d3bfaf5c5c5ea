"""Character, feature and hybrid similarity scores.

Per field the pipeline builds a thresholded Jaro-Winkler matrix over the
feature lexicon and a log-scaled l1-normalized n x m TF-IDF matrix over
entries, and combines them into an n x n soft TF-IDF record similarity (or
a plain TF-IDF one). Both are scipy CSR matrices. The per-field matrices
are then summed into a composite score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy import sparse

from .corpus import FeatureLexicon, TokenizedEntry

# values smaller than this are not stored in sparse similarity matrices
SPARSE_FLOOR = 1e-12
# build_jw_matrix bounds feature pairs a block of rows at a time; a block's
# character-count minima, one per pair and character, stop at this many,
# which bounds the memory of every temporary of the block
JW_BLOCK_ENTRIES = 1 << 18

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


def jaro(s1: str, s2: str) -> float:
    """Jaro similarity in [0, 1].

    Characters match when identical and within a window of
    floor(min(len)/2) positions; t is half the number of order mismatches
    among the matched sequences (kept fractional).
    """
    len1, len2 = len(s1), len(s2)
    if len1 == 0 or len2 == 0:
        return 0.0
    window = min(len1, len2) // 2
    used2 = [False] * len2
    m1: list[str] = []
    match_idx2: list[int] = []
    for i, ch in enumerate(s1):
        lo = max(0, i - window)
        hi = min(len2, i + window + 1)
        for j in range(lo, hi):
            if not used2[j] and s2[j] == ch:
                used2[j] = True
                m1.append(ch)
                match_idx2.append(j)
                break
    m = len(m1)
    if m == 0:
        return 0.0
    m2 = [s2[j] for j in sorted(match_idx2)]
    t = sum(a != b for a, b in zip(m1, m2)) / 2.0
    return (m / len1 + m / len2 + (m - t) / m) / 3.0


def jaro_winkler(
    s1: str, s2: str, prefix_factor: float = 0.1, max_prefix: int = 4
) -> float:
    """Jaro similarity with Winkler's bonus for a shared prefix."""
    j = jaro(s1, s2)
    prefix = 0
    for a, b in zip(s1[:max_prefix], s2[:max_prefix]):
        if a != b:
            break
        prefix += 1
    return j + prefix_factor * prefix * (1.0 - j)


@dataclass(frozen=True)
class JaroWinklerMatrix:
    """Sparse symmetric m x m matrix of JW values >= theta (others absent)."""

    theta: float
    matrix: sparse.csr_matrix = field(compare=False)


def _character_tables(features: Sequence[str], max_width: int):
    """Lengths, m x alphabet character counts and the first characters'
    ids, at most max_width of them, padded with -1, of the features."""
    m = len(features)
    lens = np.fromiter(map(len, features), dtype=np.int64, count=m)
    width = min(max_width, int(lens.max(initial=0)))
    codes = np.frombuffer("".join(features).encode("utf-32-le"), dtype=np.uint32)
    alphabet, chars = np.unique(codes, return_inverse=True)
    owner = np.repeat(np.arange(m), lens)
    counts = np.bincount(
        owner * len(alphabet) + chars, minlength=m * len(alphabet)
    ).reshape(m, len(alphabet))
    counts = counts.astype(np.min_scalar_type(counts.max(initial=0)))
    offsets = np.arange(width)
    at = np.minimum((np.cumsum(lens) - lens)[:, None] + offsets, len(chars) - 1)
    heads = np.where(offsets < lens[:, None], chars[at], -1)
    return lens, counts, heads


def _jw_upper_bound(lo, hi, lens, counts, heads, prefix_factor):
    """Upper bound on JW for features lo..hi-1 against features lo..m-1."""
    shared = np.minimum(counts[lo:hi, None, :], counts[None, lo:, :]).sum(
        axis=2, dtype=np.int64
    )
    length = np.maximum(lens, 1).astype(float)
    j_ub = np.where(
        shared > 0,
        (shared / length[lo:hi, None] + shared / length[None, lo:] + 1.0) / 3.0,
        0.0,
    )
    # -1 pads each head, so two distinct features agree on a padded position
    # only after disagreeing on a real one: runs stop where jaro_winkler's do
    prefix = np.zeros(shared.shape)
    run = np.ones(shared.shape, dtype=bool)
    for k in range(heads.shape[1]):
        run &= heads[lo:hi, k, None] == heads[None, lo:, k]
        prefix += run
    return j_ub + prefix_factor * prefix * (1.0 - j_ub)


def build_jw_matrix(lexicon: FeatureLexicon, params: SimilarityParams) -> JaroWinklerMatrix:
    """All-pairs thresholded Jaro-Winkler matrix over a feature lexicon.

    Only pairs whose upper bound reaches theta are scored. Jaro matches
    pair identical characters one to one, so the match count of s1 and s2
    is at most M = sum over characters c of min(count1[c], count2[c]), and
    J <= (M/l1 + M/l2 + 1)/3, or 0 when M = 0. JW = J + p*l*(1 - J) grows
    with J when 0 <= p*l <= 1, which SimilarityParams ensures, so with the
    exact shared prefix l the bound never drops a pair with JW >= theta.
    A slack of 1e-9 below theta covers float rounding. Survivors are scored
    exactly, so the result equals the naive double loop.
    """
    feats = lexicon.features
    m = len(feats)
    p, cap, theta = params.prefix_factor, params.max_prefix, params.theta
    lens, counts, heads = _character_tables(feats, cap if p > 0 else 0)
    step = max(1, JW_BLOCK_ENTRIES // max(counts.size, 1))
    first, second = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for lo in range(0, m, step):
        hi = min(m, lo + step)
        bound = _jw_upper_bound(lo, hi, lens, counts, heads, p)
        a, b = np.nonzero(np.triu(bound >= theta - 1e-9, 1))
        first.append(lo + a)
        second.append(lo + b)
    first, second = np.concatenate(first), np.concatenate(second)
    scores = np.array([
        jaro_winkler(feats[i], feats[j], p, cap)
        for i, j in zip(first.tolist(), second.tolist())
    ], dtype=float)
    hit = scores >= theta
    first, second, scores = first[hit], second[hit], scores[hit]
    diag = np.arange(m)
    mat = sparse.csr_matrix(
        (
            np.concatenate([np.ones(m), scores, scores]),  # JW(f, f) = 1
            (np.concatenate([diag, first, second]),
             np.concatenate([diag, second, first])),
        ),
        shape=(m, m),
    )
    return JaroWinklerMatrix(theta=theta, matrix=mat)


def build_tfidf(
    tokenized: Sequence[TokenizedEntry], lexicon: FeatureLexicon, n: int
) -> sparse.csr_matrix:
    """n x m log-scaled TF times IDF (natural log), nonzero rows scaled to
    unit l1 norm."""
    if len(tokenized) != n:
        raise ValueError("tokenized entry count does not match n")
    m = len(lexicon)
    df = np.zeros(m)
    for entry in tokenized:
        for j in entry.counts:
            df[j] += 1
    with np.errstate(divide="ignore"):
        idf = np.where(df > 0, np.log(n / np.where(df > 0, df, 1)), 0.0)
    rows, cols, vals = [], [], []
    for i, entry in enumerate(tokenized):
        for j, c in entry.counts.items():
            w = np.log1p(c) * idf[j]
            if w > 0.0:
                rows.append(i)
                cols.append(j)
                vals.append(w)
    mat = sparse.csr_matrix(
        (np.array(vals), (np.array(rows), np.array(cols))), shape=(n, m)
    )
    mat = mat.tocsr()
    row_sums = np.asarray(mat.sum(axis=1)).ravel()
    # divide in place so single-feature rows normalize to exactly 1.0
    row_of = np.repeat(np.arange(n), np.diff(mat.indptr))
    mat.data /= row_sums[row_of]
    return mat


@dataclass(frozen=True)
class CompositeSimilarity:
    """Sum of per-field similarities for every record pair, not yet adjusted."""

    matrix: sparse.csr_matrix = field(compare=False)


def _finish_field_matrix(mat: sparse.csr_matrix) -> sparse.csr_matrix:
    """Symmetrize, drop tiny values, and pin the diagonal at exactly 1."""
    mat = ((mat + mat.T) * 0.5).tocoo()
    off = mat.row != mat.col
    keep = off & (np.abs(mat.data) >= SPARSE_FLOOR)
    n = mat.shape[0]
    rows = np.concatenate([mat.row[keep], np.arange(n)])
    cols = np.concatenate([mat.col[keep], np.arange(n)])
    vals = np.concatenate([mat.data[keep], np.ones(n)])
    return sparse.csr_matrix((vals, (rows, cols)), shape=mat.shape)


def soft_tfidf_field(
    tfidf: sparse.csr_matrix, jw: JaroWinklerMatrix
) -> sparse.csr_matrix:
    """Hybrid similarity: TFIDF . M . TFIDF^T with the thresholded JW matrix.

    Symmetric n x n, diagonal fixed at 1.
    """
    if tfidf.shape[1] != jw.matrix.shape[0]:
        raise ValueError("TF-IDF and JW matrix dimensions disagree")
    return _finish_field_matrix(tfidf @ jw.matrix @ tfidf.T)


def tfidf_field(tfidf: sparse.csr_matrix) -> sparse.csr_matrix:
    """Exact-match similarity: TFIDF . TFIDF^T (off-diagonal), diagonal 1."""
    return _finish_field_matrix(tfidf @ tfidf.T)


def composite(
    fields: Sequence[sparse.csr_matrix],
    weights: Sequence[float] | None = None,
) -> CompositeSimilarity:
    """Weighted sum of per-field similarities (unit weights by default)."""
    if not fields:
        raise ValueError("no field similarities given")
    if any(f.shape != fields[0].shape for f in fields):
        raise ValueError("field similarities have mismatched record counts")
    if weights is None:
        weights = [1.0] * len(fields)
    if len(weights) != len(fields):
        raise ValueError("weights length does not match number of fields")
    total = sum(w * f for w, f in zip(weights, fields))
    return CompositeSimilarity(matrix=total.tocsr())
