"""Command line interface for the deduplication pipeline.

Every command runs on one core. The program calls BLAS for two float64
products of 0/1 matrices: similarity.build_jw_matrix's count of the
characters two features share, and sparsity.adjust's count of the fields
two records share. Their sums are small integers, so their results are
exact under any summation order and thread count. numpy's OpenBLAS still
starts one worker thread per further core when numpy loads, and each worker
spins for a while, at load and after each product it helps with, costing
CPU time but saving no wall time on products this small. So importing this
module sets OPENBLAS_NUM_THREADS to 1 in os.environ when it is unset; set it
yourself to override it. OpenBLAS reads the variable once, when numpy loads,
so it only takes effect if numpy is not loaded yet.

Most of a small command's CPU time is fixed cost: starting the interpreter
and importing numpy, click and this package take longer than the command's
own work (read, score, group, refine, write), and so would the interpreter's
teardown (clearing the modules and a final garbage collection). The console
script and `python -m softdedupe.cli` end through script(), which skips the
teardown; main() called in process (click's CliRunner, benchmark/traced.py,
a library caller) returns or raises as usual, and its interpreter tears
down normally.
"""

from __future__ import annotations

import os

# must come before numpy loads (see the module docstring); a value the user
# set wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import contextlib
import csv
import dataclasses
import json
import math
import sys
import warnings
from decimal import Decimal
from pathlib import PurePath

import click
from click.core import ParameterSource

from . import evaluation, pipeline
from .clustering import ClusterSet, read_clusters, write_clusters
from .corpus import (DELIMITER, MODES, TokenizerConfig, load_dataset,
                     load_stop_words, write_dataset)
from .evaluation import MetricsReport
from .similarity import METHOD_SOFT_TFIDF, METHOD_TFIDF, SimilarityParams

# most thresholds one sweep takes, from --grid or an explicit range; each one
# costs a metrics report and a table row, so the limit is checked on the
# count before any threshold is built
MAX_SWEEP_POINTS = 100_000

# the threshold, its automatic mark, then the report's fields but its tau
SWEEP_COLUMNS = ["tau", "auto", *(f.name for f in dataclasses.fields(MetricsReport)
                                  if f.name != "tau")]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


@contextlib.contextmanager
def _usage_errors(prefix: str = "", errors=ValueError):
    """Report an exception of the type(s) `errors` raised in the block as a
    usage error: its message after `prefix`."""
    try:
        yield
    except errors as exc:
        raise click.UsageError(f"{prefix}{exc}") from exc


def _parse_tau(value) -> float | None:
    """--tau as a number, or None for 'auto'."""
    if str(value) == "auto":
        return None
    try:
        tau = float(value)
    except ValueError:
        tau = math.nan  # rejected below, with the same message
    if not math.isfinite(tau):
        raise click.UsageError(
            f"--tau must be 'auto' or a finite number, got {value!r}"
        )
    return tau


def tau_grid(start: float, stop: float, step: float) -> list[float]:
    """Thresholds start + k*step for k = 0, 1, ... up to stop.

    Each point is computed on its own in decimal arithmetic from the
    numbers as given, then rounded once: 0.1 to 0.3 by 0.1 ends at 0.3,
    where float accumulation (or 0.1 + 2*0.1) gives 0.30000000000000004.
    More than MAX_SWEEP_POINTS thresholds is a UsageError.
    """
    start_d, stop_d, step_d = (Decimal(repr(x)) for x in (start, stop, step))
    if stop_d < start_d:
        return []
    count = int((stop_d - start_d) / step_d) + 1
    if count > MAX_SWEEP_POINTS:
        raise click.UsageError(
            f"--tau-start/--tau-stop/--tau-step give {count} thresholds, "
            f"more than the {MAX_SWEEP_POINTS} a sweep takes"
        )
    return [float(start_d + k * step_d) for k in range(count)]


class _Delimiter(click.ParamType):
    """A field delimiter: one character, as the csv module requires, other
    than its quote character and the line breaks, which it cannot tell from
    a delimiter: a file degrade writes with one of them does not read back as
    the same records."""

    name = "character"

    def convert(self, value, param, ctx):
        if not isinstance(value, str) or len(value) != 1:
            self.fail(f"must be one character, got {value!r}", param, ctx)
        if value in '"\r\n':
            self.fail("must be one character other than a quote or line "
                      f"break, got {value!r}", param, ctx)
        return value


def _read(reader, path: str, **kwargs):
    """reader(path, **kwargs), reporting malformed or unreadable input
    (text that is not UTF-8 included) as a usage error."""
    with _usage_errors(f"{path}: ", (OSError, ValueError)):
        return reader(path, **kwargs)


def _output_file(ctx, param, value):
    """An --output path whose folder exists, checked before any work."""
    if value is not None:
        folder = os.path.dirname(value) or "."
        if not os.path.isdir(folder):
            raise click.BadParameter(f"{folder!r} is not a directory", ctx, param)
    return value


def _config_defaults(ctx, param, path):
    """--config's callback, run before any other option's: the JSON object at
    `path` becomes the command's default map. Each value is a string, number
    or boolean and reaches click as flag text (a number or boolean as its
    JSON text), so click converts and checks it as the flag's, and a flag on
    the command line wins. Other values and unknown keys are UsageErrors."""
    if path is None:
        return
    with _usage_errors(f"{path}: ", (OSError, ValueError)):
        with open(path, encoding="utf-8-sig") as fh:
            data = json.load(fh)
    if not isinstance(data, dict):
        raise click.UsageError(f"{path}: top level must be a JSON object")
    names = {p.name for p in ctx.command.params if p is not param}
    for key, value in data.items():
        if key not in names:
            raise click.UsageError(f"unknown config key: {key!r}")
        if not isinstance(value, (str, int, float)):
            raise click.UsageError(
                f"config key {key!r} must be a string, number or boolean, "
                f"got {json.dumps(value)}"
            )
    ctx.default_map = {key: value if isinstance(value, str) else json.dumps(value)
                       for key, value in data.items()}


def pipeline_options(fn):
    opts = [
        click.option("--config", type=click.Path(exists=True, dir_okay=False),
                     default=None, is_eager=True, expose_value=False,
                     callback=_config_defaults,
                     help="JSON file with option defaults (flags override)."),
        click.option("--input", "input_path",
                     type=click.Path(exists=True, dir_okay=False), default=None,
                     help="Delimited input file."),
        click.option("--delimiter", type=_Delimiter(), default=DELIMITER,
                     show_default=True),
        click.option("--no-header", is_flag=True, default=False,
                     help="Input has no header row."),
        click.option("--fields", default=None,
                     help="Comma-separated field names to use "
                          "(default: all except the truth column)."),
        click.option("--mode", type=click.Choice(MODES),
                     default=TokenizerConfig.mode, show_default=True),
        click.option("--ngram-size", default=TokenizerConfig.ngram_size,
                     show_default=True),
        click.option("--stop-words", "stop_words_path",
                     type=click.Path(exists=True, dir_okay=False), default=None,
                     help="Extra stop words, one per line."),
        click.option("--no-case-fold", is_flag=True, default=False),
        click.option("--method",
                     type=click.Choice([METHOD_TFIDF, METHOD_SOFT_TFIDF]),
                     default=SimilarityParams.method, show_default=True),
        click.option("--theta", default=SimilarityParams.theta, show_default=True),
        click.option("--prefix-factor", default=SimilarityParams.prefix_factor,
                     show_default=True),
        click.option("--max-prefix", default=SimilarityParams.max_prefix,
                     show_default=True),
        click.option("--weights", default=None,
                     help="Comma-separated per-field weights."),
        click.option("--sparsity", type=click.Choice(pipeline.SPARSITY_MODES),
                     default=pipeline.SPARSITY_MODES[0], show_default=True),
        click.option("--refine/--no-refine", default=False, show_default=True),
        click.option("--iterate-refine", is_flag=True, default=False,
                     help="Iterate refinement to a fixed point (needs --refine)."),
        click.option("--truth-column", default=None,
                     help="Input column holding ground-truth entity ids."),
        click.option("--truth-file", type=click.Path(exists=True, dir_okay=False),
                     default=None,
                     help="Two-column file: record_index entity_id."),
        click.option("--seed", default=0, show_default=True),
        click.option("--output-dir", type=click.Path(file_okay=False), default="out",
                     show_default=True),
    ]
    for opt in reversed(opts):
        fn = opt(fn)
    return fn


def _field_names(spec: str, schema) -> list[str]:
    """The comma-separated field names in spec, each in schema and listed once."""
    names = [f.strip() for f in spec.split(",") if f.strip()]
    for k, name in enumerate(names):
        if name not in schema:
            raise click.UsageError(f"unknown field name: {name!r}")
        if name in names[:k]:
            raise click.UsageError(f"field {name!r} is listed twice")
    return names


def _resolve(p: dict, require_truth: bool = False):
    """The data set of the compared fields, the truth (or None), the tokenizer
    config and the similarity params, each checked; run and sweep check their
    threshold options before calling this."""
    if not p.get("input_path"):
        raise click.UsageError("--input is required")
    if p["iterate_refine"] and not p["refine"]:
        raise click.UsageError("--iterate-refine needs --refine")
    full = _read(load_dataset, p["input_path"], header=not p["no_header"],
                 delimiter=p["delimiter"])
    truth_col = p.get("truth_column")
    if truth_col and p.get("truth_file"):
        raise click.UsageError("give --truth-column or --truth-file, not both")
    if truth_col and truth_col not in full.schema:
        raise click.UsageError(f"unknown field name: {truth_col!r}")
    if p.get("fields"):
        names = _field_names(p["fields"], full.schema)
    else:
        names = [f for f in full.schema if f != truth_col]
    if truth_col in names:
        raise click.UsageError(
            f"the truth column {truth_col!r} cannot also be compared (--fields)")
    if not names:
        raise click.UsageError("no fields to compare (see --fields)")
    dataset = full.select_fields(names)
    if dataset.n < 2:
        raise click.UsageError(f"need at least two records, got {dataset.n}")

    truth = None
    if truth_col:
        truth = ClusterSet(full.column(full.field_index(truth_col)))
    elif p.get("truth_file"):
        truth = _read(read_clusters, p["truth_file"])
    if truth is not None and truth.n != dataset.n:
        raise click.UsageError(
            f"ground truth covers {truth.n} records, dataset has {dataset.n}"
        )
    if require_truth and truth is None:
        raise click.UsageError("ground truth required (--truth-column/--truth-file)")

    weights = None
    if p.get("weights"):
        with _usage_errors("--weights: "):
            weights = tuple(float(w) for w in str(p["weights"]).split(","))
        if len(weights) != dataset.a:
            raise click.UsageError("weights length does not match field count")
    with _usage_errors():
        tok_config = TokenizerConfig(
            mode=p["mode"], ngram_size=p["ngram_size"], case_fold=not p["no_case_fold"]
        )
        params = SimilarityParams(
            prefix_factor=p["prefix_factor"],
            max_prefix=p["max_prefix"],
            theta=p["theta"],
            method=p["method"],
            weights=weights,
        )
    if p.get("stop_words_path"):
        tok_config = tok_config.with_stop_words(
            _read(load_stop_words, p["stop_words_path"]))
    return dataset, truth, tok_config, params


@contextlib.contextmanager
def _output_folder(path: str):
    """Create the folder `path`, and any missing parents, one at a time along
    the path as written (new/../out makes new too), before the block's work;
    if the block fails, remove those of them that are still empty."""
    made = []  # the folders this created, outermost first
    try:
        try:
            # as in os.makedirs, a file fails the folder below it
            for folder in [*reversed(PurePath(path).parents), path]:
                if not os.path.exists(folder):
                    os.mkdir(folder)
                    made.append(folder)
        except OSError as exc:
            raise click.UsageError(f"--output-dir: {exc}") from exc
        yield
    except BaseException:
        for folder in reversed(made):
            with contextlib.suppress(OSError):  # no longer empty
                os.rmdir(folder)
        raise


@contextlib.contextmanager
def _scores(p: dict, require_truth: bool = False):
    """run's and sweep's shared start: resolve the options in p, make the
    output folder and score the records, yielding the truth (or None) and the
    scores inside _output_folder. p["fields"] becomes the compared fields as
    resolved, so that p is the manifest: every option but --config."""
    dataset, truth, tok_config, params = _resolve(p, require_truth)
    p["fields"] = ",".join(dataset.schema)
    with _output_folder(p["output_dir"]):
        with _usage_errors():  # e.g. a field with no features in any record
            scores = pipeline.build_similarity(
                dataset, tok_config, params,
                sparsity_mode=p["sparsity"], seed=p["seed"],
            )
        yield truth, scores


def _write_text(path: str, text: str) -> None:
    """Write `text` and a newline to `path`, in UTF-8."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _write_manifest(p: dict, **extra) -> None:
    _write_text(os.path.join(p["output_dir"], "manifest.json"),
                json.dumps(dict(p, **extra), indent=2, sort_keys=True))


def _write_sweep_table(path: str, rows: list[tuple[float, bool, MetricsReport]]):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        # each report's fields are read in place: dataclasses.asdict would
        # deep-copy every report
        metrics = SWEEP_COLUMNS[2:]
        for tau, is_auto, report in rows:
            writer.writerow([_fmt(tau), "auto" if is_auto else "",
                             *(_fmt(getattr(report, col)) for col in metrics)])


@click.group()
@click.pass_context
def main(ctx):
    """Duplicate detection via (soft) TF-IDF similarity and threshold clustering."""
    # a shown warning is one line, without Python's source path and code
    # line; the filters still decide whether it shows, hides or raises
    saved = warnings.formatwarning
    warnings.formatwarning = lambda msg, cat, *_: f"{cat.__name__}: {msg}\n"
    ctx.call_on_close(lambda: setattr(warnings, "formatwarning", saved))


@main.command()
@pipeline_options
@click.option("--tau", default="auto", show_default=True,
              help="Clustering threshold: 'auto' or a number.")
def run(**p):
    """Run the full pipeline once and write cluster assignments."""
    tau_arg = _parse_tau(p["tau"])
    with _scores(p) as (truth, scores):
        with _usage_errors("--weights: "):  # no finite automatic threshold
            clusters, tau_used = pipeline.cluster_records(
                scores, tau_arg, refine=p["refine"], iterate=p["iterate_refine"]
            )
        _write_manifest(p, tau_used=tau_used)
        write_clusters(clusters, os.path.join(p["output_dir"], "clusters.txt"))
        if truth is not None:
            report = evaluation.evaluate(clusters, truth, tau=tau_used)
            _write_text(os.path.join(p["output_dir"], "metrics.json"),
                        report.to_json())
    click.echo(f"tau={tau_used:.6g} clusters={clusters.c} n={clusters.n}")


@main.command()
@pipeline_options
@click.option("--tau-start", type=float, default=None)
@click.option("--tau-stop", type=float, default=None)
@click.option("--tau-step", type=float, default=None)
@click.option("--grid", type=click.IntRange(min=1, max=MAX_SWEEP_POINTS),
              default=pipeline.GRID_SIZE, show_default=True,
              help="Grid size over the nontrivial interval when no explicit range.")
@click.pass_context
def sweep(ctx, **p):
    """Evaluate the clustering over a range of thresholds."""
    taus = None
    names = ("tau_start", "tau_stop", "tau_step")
    bounds = tuple(p[name] for name in names)
    if any(x is not None for x in bounds):
        if any(x is None for x in bounds):
            raise click.UsageError("--tau-start/--tau-stop/--tau-step go together")

        def on_command_line(name):
            return ctx.get_parameter_source(name) is ParameterSource.COMMANDLINE

        grid_flag = on_command_line("grid")
        if grid_flag and any(map(on_command_line, names)):
            raise click.UsageError(
                "give --grid or --tau-start/--tau-stop/--tau-step, not both")
        # a flag beats the config file; from the config file alone, the range
        # beats the grid
        if not grid_flag:
            if not all(map(math.isfinite, bounds)):
                raise click.UsageError(
                    "--tau-start/--tau-stop/--tau-step must be finite")
            if p["tau_step"] <= 0:
                raise click.UsageError("--tau-step must be positive")
            taus = tau_grid(*bounds)
            if not taus:
                raise click.UsageError("empty threshold range")
    with _scores(p, require_truth=True) as (truth, scores):
        with _usage_errors("--weights: "):  # no finite automatic threshold
            rows = pipeline.sweep_thresholds(
                scores, truth, taus=taus, grid_size=p["grid"],
                refine=p["refine"], iterate=p["iterate_refine"],
            )
        _write_manifest(p, tau_auto=next(tau for tau, is_auto, _ in rows if is_auto))
        _write_sweep_table(os.path.join(p["output_dir"], "sweep.csv"), rows)
    click.echo(f"wrote {len(rows)} sweep rows to {p['output_dir']}/sweep.csv")


@main.command()
@click.option("--input", "input_path",
              type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--output", "output_path", type=click.Path(dir_okay=False),
              required=True, callback=_output_file)
@click.option("--fields", required=True,
              help="Comma-separated fields to blank entries from.")
@click.option("--fraction", type=float, default=0.30, show_default=True)
@click.option("--seed", type=int, required=True)
@click.option("--delimiter", type=_Delimiter(), default=DELIMITER, show_default=True)
@click.option("--no-header", is_flag=True, default=False)
def degrade(input_path, output_path, fields, fraction, seed, delimiter, no_header):
    """Blank a random fraction of entries per field to induce sparsity."""
    dataset = _read(load_dataset, input_path, header=not no_header,
                    delimiter=delimiter)
    with _usage_errors():
        degraded = pipeline.degrade(
            dataset, _field_names(fields, dataset.schema), fraction, seed
        )
    write_dataset(degraded, output_path, header=not no_header, delimiter=delimiter)
    click.echo(f"wrote degraded dataset to {output_path}")


@main.command("eval")
@click.option("--clusters", "clusters_path",
              type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--truth", "truth_path",
              type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--output", "output_path", type=click.Path(dir_okay=False),
              default=None, callback=_output_file)
def eval_cmd(clusters_path, truth_path, output_path):
    """Score a clustering file against a ground-truth clustering file."""
    clusters = _read(read_clusters, clusters_path)
    truth = _read(read_clusters, truth_path)
    if clusters.n != truth.n:
        raise click.UsageError(
            f"clusterings cover different record counts: {clusters.n} vs {truth.n}"
        )
    text = evaluation.evaluate(clusters, truth).to_json()
    if output_path:
        _write_text(output_path, text)
    else:
        click.echo(text)


@main.command("synth")
@click.option("--dataset", "which", type=click.Choice(["restaurants", "citations"]),
              required=True)
@click.option("--output", "output_path", type=click.Path(dir_okay=False),
              required=True, callback=_output_file)
@click.option("--seed", type=int, default=None,
              help="Generator seed (defaults per dataset).")
def synth_cmd(which, output_path, seed):
    """Write a synthetic benchmark dataset with a ground-truth column."""
    from . import synth  # only this command needs the generators

    if which == "restaurants":
        dataset = synth.make_restaurants(**({} if seed is None else {"seed": seed}))
    else:
        dataset = synth.make_citations(**({} if seed is None else {"seed": seed}))
    write_dataset(dataset, output_path)
    click.echo(f"wrote {dataset.n} records to {output_path}")


def script() -> None:
    """The console script's entry, and `python -m softdedupe.cli`'s: main()
    in standalone mode, ending the process without interpreter teardown.

    click ends standalone mode with SystemExit(code). For an int or None
    code this flushes stdout and stderr and calls os._exit(code), which skips
    clearing the modules and the final garbage collection (see the module
    docstring). Every file a command writes is closed before main returns,
    and the package registers no atexit handler. Any other code, or a flush
    that fails (a closed pipe), re-raises the SystemExit for a normal exit;
    any other exception propagates unchanged.
    """
    try:
        main()
    except SystemExit as exc:
        if not (exc.code is None or isinstance(exc.code, int)):
            raise
        try:
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:  # None when Python started without it
                    stream.flush()
        except OSError:
            raise exc from None
        os._exit(exc.code or 0)


if __name__ == "__main__":
    script()
