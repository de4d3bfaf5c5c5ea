"""softdedupe benchmark: seeded inputs, timed CLI commands, checked outputs.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is taken from `src/` of the checkout that
holds this file. The benchmark writes the workload's input CSV with the
package's own generators (set-up), then runs rounds of the workload's CLI
commands, one process at a time (a closed loop with one client), until S
seconds have passed; every round runs whole. Each command's outputs are
checked against reference computations made apart from the program. A
command fails when it exits non-zero, prints a traceback, warns that
refinement skipped a cluster, or fails a check.

Times are CPU time, user plus system, of the process that did the work (the
benchmark's own for set-up, each command's from its resource usage). The
program runs on one core, so on an idle machine this is its wall time; on a
shared virtual machine it leaves out the time the hypervisor runs other
machines' work on the core (steal), which varies from run to run. Each
command's wall and CPU time are logged to standard error.

With --trace 1 each round also runs every command again in a traced process
(see traced.py) and the per-layer metrics replace the end-to-end ones.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import reference
import traced

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# the whole run must end within 180 s; stop starting commands after this
DEADLINE_S = 165.0
SETUP_REPEATS = 21
TRACEBACK = "Traceback (most recent call last)"
REFINE_SKIPPED = "skipping refinement of cluster"


@dataclass(frozen=True)
class Command:
    metric: str  # end-to-end metric that times this command
    args: tuple[str, ...]  # CLI arguments besides input, truth and output

    @property
    def plain(self) -> bool:
        return "tfidf" in self.args

    @property
    def refine(self) -> bool:
        return "--refine" in self.args


@dataclass(frozen=True)
class Workload:
    input_kind: str  # generator in inputs.GENERATORS
    mode: str  # tokenizer mode of every command, for the reference
    commands: tuple[Command, ...]


# Each workload times one command that stresses its stage and a second
# command on the same input that leaves that stage out (plain TF-IDF has no
# Jaro-Winkler stage; a sweep without --refine has no refinement). Each
# command runs 7-22 s, so that it is timed over several seconds, and a round
# takes 24-31 s, so that a run of 36 s holds two rounds and a metric is the
# median of samples taken half a minute apart; only two workloads fit the
# time budget of all runs that way.
WORKLOADS = {
    "restaurants-word": Workload(
        "restaurants", "word",
        (Command("dedupe_s", ("run",)),
         Command("sweep_s", ("sweep", "--method", "tfidf", "--grid", "150"))),
    ),
    "citations-word-refine": Workload(
        "citations", "word",
        (Command("dedupe_s", ("run", "--refine", "--iterate-refine",
                              "--tau", "0.20")),
         Command("sweep_s", ("sweep", "--grid", "40"))),
    ),
}
END_TO_END_UNITS = {"setup_s": "s", "dedupe_s": "s", "sweep_s": "s",
                    "peak_rss_mb": "MB"}


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float  # user plus system time of the process
    peak_rss_kb: int
    returncode: int
    stderr: str


class Watchdog:
    """Kills the running command once the run's deadline passes, or when
    the benchmark itself is told to stop."""

    def __init__(self, seconds: float):
        self.child: subprocess.Popen | None = None
        self.fired = False
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.signal(signal.SIGTERM, self._on_stop)
        signal.signal(signal.SIGINT, self._on_stop)
        signal.setitimer(signal.ITIMER_REAL, seconds)

    def _on_alarm(self, _signum, _frame):
        self.fired = True
        if self.child is not None:
            self.child.kill()

    def _on_stop(self, signum, _frame):
        if self.child is not None:
            self.child.kill()
            self.child.wait()
        sys.exit(128 + signum)


def run_process(argv: list[str], log_dir: Path, watchdog: Watchdog) -> Outcome:
    """Run one process to its end; time it from start to exit and take its
    CPU time and peak resident memory from its own resource usage."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    err_path = log_dir / "stderr.txt"
    with open(log_dir / "stdout.txt", "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        watchdog.child = proc
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        watchdog.child = None
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                   proc.returncode,
                   err_path.read_text(encoding="utf-8", errors="replace"))


def failure_of(outcome: Outcome) -> str | None:
    if outcome.returncode != 0:
        return f"exit code {outcome.returncode}"
    if TRACEBACK in outcome.stderr:
        return "printed a traceback"
    if REFINE_SKIPPED in outcome.stderr:
        return "refinement skipped a cluster above the size cap"
    return None


def check_outputs(cmd: Command, out_dir: Path, ref: reference.Reference) -> None:
    out = str(out_dir)
    manifest = checks.read_manifest(out)
    if cmd.metric == "dedupe_s":
        labels = checks.read_labels(out, ref.n)
        tau = manifest["tau_used"]
        checks.check_metrics(out, labels, ref, tau)
        if cmd.refine:
            checks.check_fixed_points(labels, ref, tau)
        else:
            checks.check_plain_inside(labels, ref, tau)
            checks.check_soft_connected(labels, ref, tau)
    else:
        rows = checks.read_sweep(out)
        checks.check_sweep(rows, ref, manifest["tau_auto"])
        checks.check_nested(rows)
        checks.check_component_counts(rows, ref, cmd.plain)
        if cmd.plain:
            checks.check_auto_tau(manifest["tau_auto"], ref.plain_auto_tau(),
                                  "sweep tau_auto")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    times: dict[str, list[float]] = field(default_factory=dict)  # CPU seconds
    peak_rss_kb: int = 0


def run_command(cmd: Command, csv_path: Path, out_dir: Path,
                ref: reference.Reference, tally: Tally, watchdog: Watchdog,
                trace_path: Path | None = None) -> Outcome:
    """Run, check and count one command; traced when trace_path is given."""
    out_dir.mkdir(parents=True)
    argv = [cmd.args[0], "--input", str(csv_path), "--truth-column", "entity_id",
            "--output-dir", str(out_dir), *cmd.args[1:]]
    if trace_path is None:
        argv = [sys.executable, "-m", "softdedupe.cli", *argv]
    else:
        argv = [sys.executable, str(HERE / "traced.py"), str(trace_path), *argv]
    outcome = run_process(argv, out_dir, watchdog)
    print(f"{cmd.metric} wall {outcome.wall_s:.3f} s, cpu {outcome.cpu_s:.3f} s",
          file=sys.stderr)
    tally.attempted += 1
    reason = "killed at the run's deadline" if watchdog.fired else failure_of(outcome)
    if reason is None:
        try:
            check_outputs(cmd, out_dir, ref)
        except (checks.CheckError, OSError, KeyError, TypeError, ValueError) as exc:
            reason = f"output check failed: {exc}"
            tally.correct = False
    if reason is not None:
        tally.failed += 1
        print(f"FAILED {' '.join(cmd.args)}: {reason}\n{outcome.stderr[-2000:]}",
              file=sys.stderr)
    else:
        tally.times.setdefault(cmd.metric, []).append(outcome.cpu_s)
        tally.peak_rss_kb = max(tally.peak_rss_kb, outcome.peak_rss_kb)
    return outcome


def same_outputs(a: Path, b: Path) -> bool:
    names = ("clusters.txt", "metrics.json", "sweep.csv")
    return all((a / f).exists() == (b / f).exists() and
               (not (a / f).exists() or (a / f).read_bytes() == (b / f).read_bytes())
               for f in names)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program():
    """Import the generators from this checkout's src/, never from elsewhere."""
    if not (SRC / "softdedupe" / "cli.py").is_file():
        sys.exit(f"error: no program to benchmark at {SRC / 'softdedupe'}")
    sys.path.insert(0, str(SRC))
    import softdedupe

    if Path(softdedupe.__file__).resolve().parent != SRC / "softdedupe":
        sys.exit(f"error: imported softdedupe from {softdedupe.__file__}")


def run_round(workload: Workload, label: str, csv_path: Path, work: Path,
              ref: reference.Reference, tally: Tally, watchdog: Watchdog,
              trace: bool) -> list[dict]:
    """Run every command of the workload untraced; when tracing, run each
    command once more traced and return the traces."""
    last: dict[int, tuple[Path, Outcome]] = {}
    for i, cmd in enumerate(workload.commands):
        if not watchdog.fired:
            out_dir = work / f"{label}-c{i}"
            last[i] = out_dir, run_command(cmd, csv_path, out_dir, ref, tally,
                                           watchdog)
    traces = []
    for i, cmd in enumerate(workload.commands):
        if not trace or i not in last or watchdog.fired:
            continue
        out_dir, untraced = last[i]
        trace_path = work / f"{label}-c{i}-trace.json"
        traced_dir = work / f"{label}-c{i}-traced"
        failed = tally.failed
        traced_run = run_command(cmd, csv_path, traced_dir, ref, tally, watchdog,
                                 trace_path)
        if tally.failed == failed and not same_outputs(out_dir, traced_dir):
            tally.failed += 1
            tally.correct = False
            print("FAILED: traced outputs differ from untraced ones", file=sys.stderr)
        if trace_path.exists():
            traces.append(dict(json.loads(trace_path.read_text()),
                               wall_s=traced_run.wall_s,
                               untraced_wall_s=untraced.wall_s))
    return traces


def round_layer_metrics(traces: list[dict]) -> dict[str, float]:
    layers = traced.layer_metrics(traces)
    layers["trace.wall_s"] = sum(t["wall_s"] for t in traces)
    layers["trace.untraced_wall_s"] = sum(t["untraced_wall_s"] for t in traces)
    layers["trace.overhead"] = (
        layers["trace.wall_s"] / layers["trace.untraced_wall_s"] - 1.0
        if layers["trace.untraced_wall_s"] else 0.0
    )
    return layers


def main(argv: list[str]) -> int:
    opts = parse_args(argv)
    load_program()
    import inputs

    watchdog = Watchdog(DEADLINE_S)
    workload = WORKLOADS[opts.workload]
    work = WORK / f"{opts.workload}-seed{opts.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        csv_path = work / "input.csv"
        setup = []
        for _ in range(SETUP_REPEATS):
            start = time.process_time()
            inputs.write_input(workload.input_kind, opts.seed, str(csv_path))
            setup.append(time.process_time() - start)
        ref = reference.Reference(str(csv_path), workload.mode)

        tally = Tally()
        rounds: list[list[dict]] = []
        start = time.perf_counter()
        while not watchdog.fired and (
            not rounds or time.perf_counter() - start < opts.seconds
        ):
            rounds.append(run_round(workload, f"r{len(rounds)}", csv_path, work,
                                    ref, tally, watchdog, bool(opts.trace)))

        if opts.trace:
            layers = [round_layer_metrics(traces) for traces in rounds]
            metrics = {
                name: {"value": statistics.median(r[name] for r in layers),
                       "unit": unit}
                for name, unit in traced.layer_metric_units().items()
            }
            keep = WORK / f"trace-{opts.workload}-seed{opts.seed}.json"
            keep.write_text(json.dumps({"workload": opts.workload, "seed": opts.seed,
                                        "rounds": rounds}))
        else:
            values = {"setup_s": statistics.median(setup)}
            if tally.peak_rss_kb:
                values["peak_rss_mb"] = tally.peak_rss_kb / 1024
            for metric, times in tally.times.items():
                values[metric] = statistics.median(times)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END_UNITS.items() if name in values}
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
