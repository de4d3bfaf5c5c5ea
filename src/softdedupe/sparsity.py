"""Missing-entry handling: shared-field score adjustment and mode imputation."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .similarity import CompositeSimilarity, row_blocks


@dataclass(frozen=True)
class PresenceMask:
    """Binary n x a presence matrix B: B[i, k] = 1 when entry (i, k) is
    present."""

    mask: np.ndarray


def presence_mask(fields: Sequence[Sequence[Sequence[str]]]) -> PresenceMask:
    """B[i, k] = 0 exactly when entry (i, k) is missing: its token list in
    fields[k] (see corpus.tokenize_field) is empty."""
    if len({len(tokens) for tokens in fields}) != 1:
        raise ValueError("tokenized fields have mismatched record counts")
    b = np.array(
        [[1 if entry else 0 for entry in tokens] for tokens in fields],
        dtype=np.int64,
    ).T
    return PresenceMask(mask=b)


def adjust(raw: CompositeSimilarity, mask: PresenceMask) -> np.ndarray:
    """Dense scores: each pair's composite score over its shared-field count.

    Pairs with no shared fields score 0. The diagonal is NaN, so that
    NaN-skipping reductions and comparisons with a threshold leave self-pairs
    out. The composite's array is adjusted in place and returned, so raw
    holds the adjusted scores afterwards. Adjusting twice, the returned
    array or raw again, is an error. The shared-field counts B B^T are
    formed a block of rows at a time, never as one n x n array, as a float64
    product: each count is an integer of at most a, so exact.
    """
    # a composite's diagonal holds the sum of the field weights, never NaN
    if isinstance(raw, np.ndarray) or np.isnan(raw.scores[:1, :1]).any():
        raise ValueError("similarity is already adjusted")
    b = mask.mask.astype(float)
    scores = raw.scores
    if scores.shape != (len(b), len(b)):
        raise ValueError("presence mask size does not match similarity matrix")
    for lo, hi in row_blocks(len(b), len(b)):
        counts = b[lo:hi] @ b.T
        none = counts == 0
        block = scores[lo:hi]
        np.divide(block, counts, out=block, where=~none)
        block[none] = 0.0
    np.fill_diagonal(scores, np.nan)
    return scores


def _mode_entry(
    entries: Sequence[str], tokens: Sequence[Sequence[str]], rng: random.Random
) -> int | None:
    """The index of the entry that fills a field's missing entries, or None
    when none is missing.

    tokens are the entries' token lists (see corpus.tokenize_field); an
    empty one is a missing entry, and a field with none present is a
    ValueError. The fill is the first occurrence of the most frequent
    present entry, compared case-folded; a tie takes one draw from rng. A
    field with no missing entry draws nothing.
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
    if not counts:
        raise ValueError("no non-missing entries to impute from")
    top = max(counts.values())
    candidates = sorted(key for key, c in counts.items() if c == top)
    return first[rng.choice(candidates)]


def impute_tokens(
    entries: Sequence[str], tokens: list[list[str]], rng: random.Random
) -> list[list[str]]:
    """A field's token lists with each missing entry's list replaced by the
    fill entry's (see _mode_entry): the token lists the field would give if
    each missing entry were replaced by the fill entry and tokenized again."""
    fill = _mode_entry(entries, tokens, rng)
    if fill is None:
        return tokens
    return [entry_tokens or tokens[fill] for entry_tokens in tokens]

