"""Seeded input builder: writes each workload's CSV with the package's generators.

Each workload runs on one fixed data set: the generators' default restaurant
set (seed 7) or citation set (seed 11). The workload seed shuffles the
order of the records. The data set itself stays fixed because run time
depends steeply on it: refinement at tau = 0.20 takes 11-14 s on the
citation sets of generator seeds 1, 2 and 4 but 81 s on that of seed 3, so
seeds drawing new data sets would measure the data, not the program.

The program under test only ever sees the CSV written here.
"""

from __future__ import annotations

import csv
import random

from softdedupe import synth

TRUTH_COLUMN = "entity_id"
RESTAURANTS_SEED = 7
CITATIONS_SEED = 11

Table = tuple[tuple[str, ...], list[tuple[str, ...]]]


def restaurants() -> Table:
    data = synth.make_restaurants(seed=RESTAURANTS_SEED)
    return data.schema, list(data.records)


def citations() -> Table:
    data = synth.make_citations(seed=CITATIONS_SEED)
    return data.schema, list(data.records)


GENERATORS = {
    "restaurants": restaurants,
    "citations": citations,
}


def write_input(kind: str, seed: int, path: str) -> None:
    """Generate the `kind` data set, shuffle its records with `seed` and
    write it as CSV to `path`, ground-truth entity ids in the first column."""
    schema, records = GENERATORS[kind]()
    if schema[0] != TRUTH_COLUMN:
        raise ValueError(f"generator {kind!r} lost its truth column")
    random.Random(seed).shuffle(records)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(schema)
        writer.writerows(records)
