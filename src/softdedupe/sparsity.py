"""Missing-entry handling: shared-field score adjustment and mode imputation."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import DataSet, TokenizerConfig, tokenize
from .similarity import CompositeSimilarity


@dataclass(frozen=True)
class PresenceMask:
    """Binary n x a presence matrix B and the pairwise shared-field counts B B^T."""

    mask: np.ndarray
    shared_counts: np.ndarray


def presence_mask(fields: Sequence[Sequence[Sequence[str]]]) -> PresenceMask:
    """B[i, k] = 0 exactly when entry (i, k) is missing: its token list in
    fields[k] (see corpus.tokenize_field) is empty."""
    if len({len(tokens) for tokens in fields}) != 1:
        raise ValueError("tokenized fields have mismatched record counts")
    b = np.array(
        [[1 if entry else 0 for entry in tokens] for tokens in fields],
        dtype=np.int64,
    ).T
    # counts never exceed a, so the smallest type holding a stores them exactly
    small = b.astype(np.min_scalar_type(b.shape[1]))
    return PresenceMask(mask=b, shared_counts=small @ small.T)


def adjust(raw: CompositeSimilarity, mask: PresenceMask) -> np.ndarray:
    """Dense scores: each pair's composite score over its shared-field count.

    Pairs with no shared fields score 0. The diagonal is NaN, so that
    NaN-skipping reductions and comparisons with a threshold leave self-pairs
    out. The composite's array is adjusted in place and returned, so raw
    holds the adjusted scores afterwards. Adjusting twice, the returned
    array or raw again, is an error.
    """
    # a composite's diagonal holds the sum of the field weights, never NaN
    if isinstance(raw, np.ndarray) or np.isnan(raw.scores[:1, :1]).any():
        raise ValueError("similarity is already adjusted")
    counts = mask.shared_counts
    scores = raw.scores
    if counts.shape != scores.shape:
        raise ValueError("presence mask size does not match similarity matrix")
    np.divide(scores, counts, out=scores, where=counts > 0)
    scores[counts == 0] = 0.0
    np.fill_diagonal(scores, np.nan)
    return scores


def _mode_entry(
    entries: Sequence[str], tokens: Sequence[Sequence[str]], rng: random.Random
) -> int | None:
    """The index of the entry that fills a field's missing entries, or None
    when none is missing.

    tokens are the entries' token lists (see corpus.tokenize_field); an
    empty one is a missing entry, and at least one must be present. The
    fill is the first occurrence of the most frequent present entry,
    compared case-folded; a tie takes one draw from rng. A field with no
    missing entry draws nothing.
    """
    if all(tokens):
        return None
    counts: Counter[str] = Counter()
    first: dict[str, int] = {}
    for i, (entry, entry_tokens) in enumerate(zip(entries, tokens)):
        if entry_tokens:
            key = entry.casefold()
            counts[key] += 1
            first.setdefault(key, i)
    top = max(counts.values())
    candidates = sorted(key for key, c in counts.items() if c == top)
    return first[rng.choice(candidates)]


def impute_tokens(
    entries: Sequence[str], tokens: list[list[str]], rng: random.Random
) -> list[list[str]]:
    """A field's token lists with each missing entry's list replaced by the
    fill entry's (see _mode_entry): the token lists of the field impute_mode
    returns, without tokenizing it again."""
    fill = _mode_entry(entries, tokens, rng)
    if fill is None:
        return tokens
    return [entry_tokens or tokens[fill] for entry_tokens in tokens]


def impute_mode(
    dataset: DataSet, config: TokenizerConfig, seed: int | None = None
) -> DataSet:
    """Replace missing entries by the most frequent entry of their field.

    Missingness means the entry tokenizes to nothing (empty or stop words
    only). Entries are compared case-folded; ties are broken by one seeded
    random choice per field, reused for every missing entry in that field
    (see _mode_entry).
    """
    rng = random.Random(seed)
    columns = []
    for k in range(dataset.a):
        col = dataset.column(k)
        tokens = [tokenize(entry, config) for entry in col]
        if not any(tokens):
            raise ValueError(f"field {k} has no non-missing entries to impute from")
        fill = _mode_entry(col, tokens, rng)
        if fill is not None:
            col = [entry if entry_tokens else col[fill]
                   for entry, entry_tokens in zip(col, tokens)]
        columns.append(col)
    records = tuple(zip(*columns))
    return DataSet(records=tuple(tuple(r) for r in records), schema=dataset.schema)
