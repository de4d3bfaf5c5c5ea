"""Tabular data loading and per-field feature extraction.

A data set is an n x a grid of raw strings. Each entry is broken once into
its features (whitespace-separated words or character N-grams, stop words
removed): a field is the list of its entries' token lists. An entry with no
features is missing. The field's lexicon is its sorted distinct features.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from itertools import chain
from typing import Iterable, Sequence, TextIO

DEFAULT_STOP_WORDS = frozenset({"and", "the", "or", "none", "na", ""})


class LoadError(ValueError):
    """Raised when delimited input cannot be turned into a DataSet."""


@dataclass(frozen=True)
class DataSet:
    """An n x a grid of raw string entries with a field schema."""

    records: tuple[tuple[str, ...], ...]
    schema: tuple[str, ...]

    def __post_init__(self):
        if len(self.records) < 1 or len(self.schema) < 1:
            raise ValueError("dataset needs at least one record and one field")
        for k, name in enumerate(self.schema):
            if name in self.schema[:k]:
                raise ValueError(f"field name {name!r} appears twice in the schema")
        a = len(self.schema)
        for i, rec in enumerate(self.records):
            if len(rec) != a:
                raise ValueError(f"record {i} has {len(rec)} entries, expected {a}")

    @property
    def n(self) -> int:
        return len(self.records)

    @property
    def a(self) -> int:
        return len(self.schema)

    def field_index(self, name: str) -> int:
        try:
            return self.schema.index(name)
        except ValueError:
            raise KeyError(f"unknown field name: {name!r}") from None

    def column(self, k: int) -> list[str]:
        return [rec[k] for rec in self.records]

    def select_fields(self, names: Iterable[str]) -> "DataSet":
        idx = [self.field_index(name) for name in names]
        return DataSet(
            records=tuple(tuple(rec[k] for k in idx) for rec in self.records),
            schema=tuple(self.schema[k] for k in idx),
        )


@dataclass(frozen=True)
class TokenizerConfig:
    """How entries are split into features.

    mode "word" splits on whitespace runs; mode "ngram" slides a window of
    ngram_size characters over the raw entry (spaces included), dropping
    all-whitespace grams. Stop words are removed case-insensitively.
    """

    mode: str = "word"
    ngram_size: int = 3
    stop_words: frozenset[str] = DEFAULT_STOP_WORDS
    case_fold: bool = True

    def __post_init__(self):
        if self.mode not in ("word", "ngram"):
            raise ValueError(f"unknown tokenizer mode: {self.mode!r}")
        if self.ngram_size < 1:
            raise ValueError("ngram_size must be >= 1")

    def with_stop_words(self, words: Iterable[str]) -> "TokenizerConfig":
        extra = {w.casefold() for w in words}
        return replace(self, stop_words=self.stop_words | frozenset(extra))


def load_dataset(
    source: str | TextIO,
    header: bool = True,
    delimiter: str = ",",
) -> DataSet:
    """Read delimited text into a DataSet.

    `source` is a path (UTF-8, after a byte-order mark if it starts with
    one) or an open text stream. With header=True the first
    row gives the field names, else they are field_0, field_1, ....
    Entry strings are preserved verbatim apart from outer whitespace. Blank
    lines are skipped (a record of empty entries reads as delimiters or "").
    Text the csv reader rejects (a field over its size limit, say) is a
    LoadError naming the reader's line.
    """
    if isinstance(source, str):
        with open(source, encoding="utf-8-sig", newline="") as fh:
            return load_dataset(fh, header=header, delimiter=delimiter)

    reader = csv.reader(source, delimiter=delimiter)
    try:
        rows = [row for row in reader if row]
    except csv.Error as exc:
        raise LoadError(f"line {reader.line_num}: {exc}") from exc
    if header and rows:
        schema = [c.strip() for c in rows.pop(0)]
    if not rows:
        raise LoadError("input contains no data rows")
    if not header:
        schema = [f"field_{k}" for k in range(len(rows[0]))]
    a = len(schema)
    records = []
    for i, row in enumerate(rows):
        if len(row) != a:
            raise LoadError(f"row {i} has {len(row)} columns, expected {a}")
        records.append(tuple(cell.strip() for cell in row))
    return DataSet(records=tuple(records), schema=tuple(schema))


def load_stop_words(path: str) -> frozenset[str]:
    """Read a stop-word file, one token per line (UTF-8, after a byte-order
    mark if it starts with one)."""
    with open(path, encoding="utf-8-sig") as fh:
        return frozenset(line.strip().casefold() for line in fh)


def tokenize(entry: str, config: TokenizerConfig) -> list[str]:
    """Split an entry into feature tokens, dropping stop words."""
    if config.case_fold:
        entry = entry.casefold()
    if config.mode == "word":
        tokens = entry.split()
    else:
        n = config.ngram_size
        if len(entry) <= n:
            tokens = [entry] if entry else []
        else:
            tokens = [entry[i : i + n] for i in range(len(entry) - n + 1)]
        tokens = [t for t in tokens if t.strip()]  # drop all-whitespace grams
    if config.case_fold:
        # folding is idempotent and works character by character, so every
        # part of a folded entry is already folded
        return [t for t in tokens if t not in config.stop_words]
    return [t for t in tokens if t.casefold() not in config.stop_words]


def tokenize_field(
    dataset: DataSet, k: int, config: TokenizerConfig
) -> list[list[str]]:
    """The token list of every entry of field k; an empty list is a missing
    entry. A field whose every entry is missing is a ValueError."""
    tokens = [tokenize(entry, config) for entry in dataset.column(k)]
    if not any(tokens):
        raise ValueError(f"field {k} has no features after stop-word removal")
    return tokens


def build_lexicon(tokens: Iterable[Sequence[str]]) -> tuple[str, ...]:
    """The distinct features of a field's token lists, in lexicographic
    order."""
    return tuple(sorted(set(chain.from_iterable(tokens))))
