"""Checks of one softdedupe command's outputs against the reference.

Each check raises CheckError with a reason. Scores are compared to a
threshold with a margin of SCORE_EPS, because the program and the reference
sum the same products in different orders; a verdict that flips inside the
margin is not held against the program.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

import reference
from reference import Reference

SCORE_EPS = 1e-9
# metrics.json carries full precision, sweep.csv twelve significant digits
REL_TOL = 1e-9


class CheckError(Exception):
    """An output of the program disagrees with the reference."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def read_manifest(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


def read_labels(out_dir: str, n: int) -> list[str]:
    """Cluster label of each record; clusters.txt must cover 0..n-1 once."""
    labels: dict[int, str] = {}
    with open(os.path.join(out_dir, "clusters.txt"), encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            idx, lab = line.split()
            _require(int(idx) not in labels, f"record {idx} assigned twice")
            labels[int(idx)] = lab
    _require(sorted(labels) == list(range(n)), "clusters.txt does not cover 0..n-1")
    return [labels[i] for i in range(n)]


def clusters_of(labels: list[str]) -> list[list[int]]:
    groups: dict[str, list[int]] = {}
    for i, lab in enumerate(labels):
        groups.setdefault(lab, []).append(i)
    return list(groups.values())


def check_metrics(out_dir: str, labels: list[str], ref: Reference, tau: float) -> None:
    with open(os.path.join(out_dir, "metrics.json"), encoding="utf-8") as fh:
        got = json.load(fh)
    want = reference.metrics(labels, ref.truth, tau)
    _require(set(got) == set(want), f"metrics.json keys {sorted(got)}")
    for key, value in want.items():
        if value is None or isinstance(value, int):
            _require(got[key] == value, f"metrics.json {key}={got[key]}, want {value}")
        else:
            _require(
                got[key] is not None and _close(got[key], value),
                f"metrics.json {key}={got[key]}, want {value}",
            )


def read_sweep(out_dir: str) -> list[dict]:
    with open(os.path.join(out_dir, "sweep.csv"), encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for key, value in row.items():
            if key != "auto":
                row[key] = float(value) if value != "" else None
    return rows


def check_sweep(rows: list[dict], ref: Reference, tau_auto: float) -> None:
    """Row identities, record and entity counts, and the single auto row."""
    _require(len(rows) >= 2, "sweep.csv has fewer than two rows")
    taus = [r["tau"] for r in rows]
    _require(taus == sorted(taus), "sweep rows are not sorted by tau")
    autos = [r for r in rows if r["auto"] == "auto"]
    _require(len(autos) == 1, f"{len(autos)} auto rows")
    _require(
        _close(autos[0]["tau"], tau_auto),
        f"auto row tau {autos[0]['tau']} != manifest tau_auto {tau_auto}",
    )
    for r in rows:
        _require(r["n"] == ref.n, f"sweep row n={r['n']}, input has {ref.n}")
        _require(r["c_true"] == ref.entities, f"sweep row c_true={r['c_true']}")
        p, q = r["purity"], r["inverse_purity"]
        _require(
            _close(r["harmonic_mean"], 2 * p * q / (p + q)),
            f"harmonic mean identity fails at tau={r['tau']}",
        )
        pre, rec, f1 = r["precision"], r["recall"], r["f1"]
        if pre is None or rec is None:
            _require(f1 is None, f"f1 without precision/recall at tau={r['tau']}")
        else:
            want = 2 * pre * rec / (pre + rec) if pre + rec > 0 else 0.0
            _require(
                f1 is not None and _close(f1, want),
                f"F1 identity fails at tau={r['tau']}",
            )


def check_nested(rows: list[dict]) -> None:
    """Without refinement, partitions at rising tau are nested: the cluster
    count never falls and recall never rises."""
    for lo, hi in zip(rows, rows[1:]):
        _require(hi["c"] >= lo["c"], f"cluster count falls at tau={hi['tau']}")
        _require(
            hi["recall"] <= lo["recall"] + 1e-12, f"recall rises at tau={hi['tau']}"
        )


def check_component_counts(rows: list[dict], ref: Reference, plain: bool) -> None:
    """Each row's cluster count against the plain TF-IDF graph at its tau.

    A plain sweep must give the graph's component count. Soft TF-IDF never
    scores below plain TF-IDF, so a soft graph holds the plain graph and
    has at most as many components."""
    taus = [r["tau"] for r in rows]
    upper = ref.plain_component_counts([t + SCORE_EPS for t in taus])
    lower = ref.plain_component_counts([t - SCORE_EPS for t in taus])
    for r, hi, lo in zip(rows, upper, lower):
        _require(r["c"] <= hi, f"{r['c']} clusters > {hi} plain components "
                               f"at tau={r['tau']}")
        _require(not plain or r["c"] >= lo, f"{r['c']} clusters < {lo} plain "
                                            f"components at tau={r['tau']}")


def check_soft_connected(labels: list[str], ref: Reference, tau: float) -> None:
    """Each cluster is connected by pairs whose soft score reaches tau."""
    for members in clusters_of(labels):
        if len(members) < 2:
            continue
        adjacency = ref.soft_scores(members) >= tau - SCORE_EPS
        _require(
            reference.components(adjacency).max() == 0,
            f"cluster with record {members[0]} is not connected at tau",
        )


def check_refines(fine: np.ndarray, coarse: list | np.ndarray, what: str) -> None:
    """Every block of `fine` lies inside one block of `coarse`."""
    inside: dict = {}
    for f, c in zip(fine, coarse):
        _require(inside.setdefault(f, c) == c, what)


def check_plain_inside(labels: list[str], ref: Reference, tau: float) -> None:
    fine = ref.plain_components(tau + SCORE_EPS)
    check_refines(fine, labels, "a plain TF-IDF component spans two clusters")


def check_auto_tau(tau: float, ref_tau: float, what: str) -> None:
    _require(abs(tau - ref_tau) <= SCORE_EPS, f"{what} {tau} != reference {ref_tau}")


def check_fixed_points(labels: list[str], ref: Reference, tau: float) -> None:
    """Every cluster is a fixed point of the refinement rule on its soft graph.

    A cluster holding a pair that scores within SCORE_EPS of tau is passed
    over, since the rule's verdict need not be monotone in its edges."""
    for members in clusters_of(labels):
        if len(members) < 3:
            continue
        scores = ref.soft_scores(members)
        if (np.abs(scores - tau) <= SCORE_EPS).any():
            continue
        _require(
            len(reference.refine_once(scores >= tau)) == 1,
            f"refinement would split the cluster with record {members[0]}",
        )
