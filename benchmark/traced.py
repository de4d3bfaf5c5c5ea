"""Traced run of one softdedupe CLI command, and the per-layer metrics of traces.

Run as a script, it installs a span around each call into the package's
layers (corpus, similarity, sparsity, clustering, evaluation, pipeline), runs
the CLI in this process, and writes the spans and counters as JSON when the
command ends:

    PYTHONPATH=src python3 benchmark/traced.py TRACE.json run --input ...

A span records its name, start, end, parent span and the process's peak
resident memory before and after the call. Spans live in memory until the
command ends. The same functions are called as by the untraced command, so
the difference in wall time between the two is the tracing overhead.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
from collections import Counter, defaultdict

# (module, function, span name); both field products share one span
SPANS = [
    ("corpus", "load_dataset", "corpus.load_dataset"),
    ("corpus", "build_lexicon", "corpus.build_lexicon"),
    ("corpus", "tokenize_field", "corpus.tokenize_field"),
    ("similarity", "build_jw_matrix", "similarity.build_jw_matrix"),
    ("similarity", "build_tfidf", "similarity.build_tfidf"),
    ("similarity", "soft_tfidf_field", "similarity.field_product"),
    ("similarity", "tfidf_field", "similarity.field_product"),
    ("similarity", "composite", "similarity.composite"),
    ("sparsity", "presence_mask", "sparsity.presence_mask"),
    ("sparsity", "adjust", "sparsity.adjust"),
    ("clustering", "auto_threshold", "clustering.auto_threshold"),
    ("clustering", "threshold", "clustering.threshold"),
    ("clustering", "group", "clustering.group"),
    ("clustering", "refine_all", "clustering.refine_all"),
    ("evaluation", "evaluate", "evaluation.evaluate"),
    ("pipeline", "build_similarity", "pipeline.build_similarity"),
    ("pipeline", "cluster_records", "pipeline.cluster_records"),
    ("pipeline", "sweep_thresholds", "pipeline.sweep_thresholds"),
]
SPAN_NAMES = list(dict.fromkeys(name for _, _, name in SPANS))
RSS_SPANS = [
    "pipeline.build_similarity",
    "similarity.composite",
    "sparsity.adjust",
    "clustering.threshold",
    "pipeline.sweep_thresholds",
]
COUNTERS = [
    "corpus.features",
    "similarity.jw.candidate_pairs",
    "similarity.jw.pairs_scored",
    "similarity.jw.pairs_kept",
    "similarity.composite.nnz",
    "sparsity.missing_entries",
    "clustering.threshold.edges",
    "clustering.refine.splits",
    "clustering.refine.largest_input",
    "clustering.refine.skipped",
    "pipeline.sweep_thresholds.rows",
]
CALL_COUNTS = ["clustering.threshold", "evaluation.evaluate"]


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the benchmark reports, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    for name in RSS_SPANS:
        units[f"{name}.rss_raise_mb"] = "MB"
    for name in COUNTERS:
        units[name] = "count"
    units["similarity.jw.kept_per_scored"] = "ratio"
    for name in CALL_COUNTS:
        units[f"{name}.calls"] = "count"
    units.update({"trace.wall_s": "s", "trace.untraced_wall_s": "s",
                  "trace.overhead": "ratio"})
    return units


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer totals over the traced commands of one round.

    A span's self time is its duration minus that of its child spans; the
    rise of peak resident memory is summed over a span's calls.
    """
    total: dict[str, float] = defaultdict(float)
    counters: Counter = Counter()
    for trace in traces:
        spans = trace["spans"]
        child_time = [0.0] * len(spans)
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        for s, inner in zip(spans, child_time):
            duration = s["end"] - s["start"]
            total[f"{s['name']}.s"] += duration
            total[f"{s['name']}.self_s"] += duration - inner
            total[f"{s['name']}.rss_raise_mb"] += (
                s["rss_after_kb"] - s["rss_before_kb"]
            ) / 1024
            total[f"{s['name']}.calls"] += 1
        for name, value in trace["counters"].items():
            if name == "clustering.refine.largest_input":
                counters[name] = max(counters[name], value)
            else:
                counters[name] += value
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.s"] = total[f"{name}.s"]
        out[f"{name}.self_s"] = total[f"{name}.self_s"]
    for name in RSS_SPANS:
        out[f"{name}.rss_raise_mb"] = total[f"{name}.rss_raise_mb"]
    for name in COUNTERS:
        out[name] = counters[name]
    scored = counters["similarity.jw.pairs_scored"]
    out["similarity.jw.kept_per_scored"] = (
        counters["similarity.jw.pairs_kept"] / scored if scored else 0.0
    )
    for name in CALL_COUNTS:
        out[f"{name}.calls"] = int(total[f"{name}.calls"])
    return out


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.open: list[int] = []
        self.counters: Counter = Counter()
        self.jw_calls = 0

    def span(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = {
                "name": name,
                "parent": self.open[-1] if self.open else None,
                "rss_before_kb": _peak_rss_kb(),
            }
            self.open.append(len(self.spans))
            self.spans.append(record)
            record["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                record["rss_after_kb"] = _peak_rss_kb()
                self.open.pop()
            if count is not None:
                count(args[0], result)
            return result

        return wrapper

    def count_jw_call(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.jw_calls += 1
            return fn(*args, **kwargs)

        return wrapper

    # counters, each called with the span's first argument and its result

    def count_lexicon(self, _dataset, lexicon):
        self.counters["corpus.features"] += len(lexicon)

    def count_jw(self, lexicon, jw):
        m = len(lexicon)
        self.counters["similarity.jw.candidate_pairs"] += m * (m - 1) // 2
        self.counters["similarity.jw.pairs_scored"] += self.jw_calls
        self.jw_calls = 0
        coo = jw.matrix.tocoo()
        kept = (coo.row < coo.col) & (coo.data >= jw.theta)
        self.counters["similarity.jw.pairs_kept"] += int(kept.sum())

    def count_composite(self, _fields, sim):
        self.counters["similarity.composite.nnz"] += int(sim.matrix.nnz)

    def count_mask(self, _fields, mask):
        self.counters["sparsity.missing_entries"] += int((mask.mask == 0).sum())

    def count_edges(self, _sim, graph):
        self.counters["clustering.threshold.edges"] += graph.edge_count()

    def count_refine(self, clusters, refined):
        from softdedupe.clustering import REFINE_SIZE_CAP

        sizes = [len(c) for c in clusters.clusters]
        self.counters["clustering.refine.splits"] += refined.c - clusters.c
        self.counters["clustering.refine.largest_input"] = max(
            self.counters["clustering.refine.largest_input"], max(sizes)
        )
        self.counters["clustering.refine.skipped"] += sum(
            s > REFINE_SIZE_CAP for s in sizes
        )

    def count_rows(self, _sim, rows):
        self.counters["pipeline.sweep_thresholds.rows"] += len(rows)

    def install(self) -> None:
        """Replace each traced function by its span wrapper in every module
        of the package that holds a reference to it."""
        import importlib

        import softdedupe.cli  # noqa: F401  (imports every layer)

        counts = {
            "corpus.build_lexicon": self.count_lexicon,
            "similarity.build_jw_matrix": self.count_jw,
            "similarity.composite": self.count_composite,
            "sparsity.presence_mask": self.count_mask,
            "clustering.threshold": self.count_edges,
            "clustering.refine_all": self.count_refine,
            "pipeline.sweep_thresholds": self.count_rows,
        }
        modules = [m for key, m in sys.modules.items()
                   if key == "softdedupe" or key.startswith("softdedupe.")]
        similarity = importlib.import_module("softdedupe.similarity")
        similarity.jaro_winkler = self.count_jw_call(similarity.jaro_winkler)
        for module_name, fn_name, span_name in SPANS:
            original = getattr(importlib.import_module(f"softdedupe.{module_name}"),
                               fn_name)
            wrapper = self.span(span_name, original, counts.get(span_name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from softdedupe import cli

    try:
        cli.main(cli_args, standalone_mode=False)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"argv": cli_args, "spans": tracer.spans,
                       "counters": dict(tracer.counters)}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
