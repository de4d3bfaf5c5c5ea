import contextlib
import csv
import io
import json
import os
import signal
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import click
import pytest
from click.testing import CliRunner

import softdedupe
from softdedupe import cli, clustering, corpus, pipeline, synth
from softdedupe.cli import SWEEP_COLUMNS, main, tau_grid
from softdedupe.clustering import ClusterSet, write_clusters
from softdedupe.similarity import SimilarityParams

TAU_RANGE = ["--tau-start", "0.1", "--tau-stop", "0.5", "--tau-step", "0.1"]

SMALL_CSV = """id,name,city
e1,Joe Bruin,Westwood
e1,Joe Bruin,Westwood
e2,Joan Lurin,Venice
e3,Mary Smith,Hollywood
e3,Mary Smyth,Hollywood
e4,Alex Stone,Pasadena
"""


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def small_csv(tmp_path):
    path = tmp_path / "small.csv"
    path.write_text(SMALL_CSV)
    return str(path)


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in this thread once `seconds` have passed."""

    def stop(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_cli(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    return result


class TestRun:
    def test_writes_expected_artifacts(self, runner, small_csv, tmp_path):
        out = tmp_path / "out"
        result = run_cli(runner, [
            "run", "--input", small_csv, "--truth-column", "id",
            "--output-dir", str(out), "--tau", "0.7",
        ])
        assert result.exit_code == 0
        assert (out / "manifest.json").exists()
        assert (out / "clusters.txt").exists()
        assert (out / "metrics.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tau_used"] == 0.7
        assert manifest["fields"] == "name,city"
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["n"] == 6 and metrics["c_true"] == 4

    def test_auto_threshold_default(self, runner, small_csv, tmp_path):
        out = tmp_path / "out"
        result = run_cli(runner, [
            "run", "--input", small_csv, "--truth-column", "id",
            "--output-dir", str(out),
        ])
        assert result.exit_code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tau"] == "auto"
        assert isinstance(manifest["tau_used"], float)

    def test_byte_identical_reruns(self, runner, small_csv, tmp_path):
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_cli(runner, [
                "run", "--input", small_csv, "--truth-column", "id",
                "--output-dir", str(out), "--seed", "3",
            ])
            outputs.append(
                (out / "clusters.txt").read_bytes()
                + (out / "metrics.json").read_bytes()
            )
        assert outputs[0] == outputs[1]

    def test_unknown_field_exits_with_usage_error(self, runner, small_csv):
        result = runner.invoke(main, [
            "run", "--input", small_csv, "--fields", "name,bogus",
        ])
        assert result.exit_code == 2
        assert "unknown field name" in result.output

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_repeated_field_is_usage_error(self, runner, small_csv, tmp_path, source):
        # a field listed twice would count twice in the composite and in the
        # shared-field counts
        args = ["--fields", "name,city, name"]
        if source == "config":
            path = tmp_path / "config.json"
            path.write_text(json.dumps({"fields": "name,city, name"}))
            args = ["--config", str(path)]
        result = runner.invoke(main, [
            "run", "--input", small_csv, "--output-dir", str(tmp_path / "out"),
            *args,
        ])
        assert result.exit_code == 2
        assert "field 'name' is listed twice" in result.output

    def test_repeated_header_name_is_usage_error(self, runner, tmp_path):
        # both names would select the first column, which would count twice
        path = tmp_path / "repeated.csv"
        path.write_text(SMALL_CSV.replace("id,name,city", "name,name,id", 1))
        result = runner.invoke(main, [
            "run", "--input", str(path), "--truth-column", "id",
            "--output-dir", str(tmp_path / "out"),
        ])
        assert result.exit_code == 2
        assert "field name 'name' appears twice" in result.output
        assert not (tmp_path / "out").exists()

    def test_missing_input_is_usage_error(self, runner):
        result = runner.invoke(main, ["run"])
        assert result.exit_code == 2

    def test_config_file_defaults_and_flag_override(
        self, runner, small_csv, tmp_path
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"theta": 0.5, "seed": 9}))
        out = tmp_path / "out"
        run_cli(runner, [
            "run", "--input", small_csv, "--truth-column", "id",
            "--config", str(config), "--seed", "4", "--output-dir", str(out),
            "--tau", "0.7",
        ])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["theta"] == 0.5  # from the config file
        assert manifest["seed"] == 4  # explicit flag wins

    def test_config_values_are_typed(self, runner, small_csv, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"refine": "false", "theta": "0.5"}))
        out = tmp_path / "out"
        result = run_cli(runner, [
            "run", "--input", small_csv, "--config", str(config),
            "--output-dir", str(out),
        ])
        assert result.exit_code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["refine"] is False
        assert manifest["theta"] == 0.5

    @pytest.mark.parametrize("command, config, message", [
        ("run", {"weights": [1, 2]}, "config key 'weights' must be a string"),
        ("run", {"bogus": 1}, "unknown config key"),
        ("run", {"seed": "many"}, "not a valid integer"),
        ("run", {"delimiter": ";;"}, "must be one character"),
        # numbers and booleans are checked as the flags' text would be
        ("run", {"max_prefix": 3.9}, "'3.9' is not a valid integer"),
        ("run", {"seed": 1.5}, "'1.5' is not a valid integer"),
        ("sweep", {"grid": True}, "'true' is not a valid integer"),
        # null, lists and objects have no flag text
        ("sweep", {"grid": None}, "config key 'grid' must be a string"),
        ("run", {"theta": None}, "config key 'theta' must be a string"),
        ("run", {"refine": [1]}, "config key 'refine' must be a string"),
        ("run", {"seed": [1]}, "config key 'seed' must be a string"),
        ("run", {"output_dir": ["x"]}, "config key 'output_dir' must be a string"),
        ("run", {"fields": ["name"]}, "config key 'fields' must be a string"),
        ("run", {"mode": {"word": 1}}, "config key 'mode' must be a string"),
        # JSON's 1e999 loads as inf
        ("run", {"prefix_factor": 1e999, "max_prefix": 0},
         "prefix_factor must be finite"),
        # beside the --truth-column flag
        ("sweep", {"truth_file": os.devnull},
         "give --truth-column or --truth-file, not both"),
        # iterating alone used to be ignored, giving unrefined clusters
        ("sweep", {"iterate_refine": True}, "--iterate-refine needs --refine"),
        # a step alone used to be ignored, giving the default grid
        ("sweep", {"tau_step": 0.05},
         "--tau-start/--tau-stop/--tau-step go together"),
        ("sweep", {"tau_start": 0.1, "tau_stop": 0.5, "tau_step": 0},
         "--tau-step must be positive"),
    ], ids=["weights_list", "unknown_key", "untyped_seed", "long_delimiter",
            "float_max_prefix", "float_seed", "boolean_grid", "null_grid",
            "null_theta", "list_refine", "list_seed", "list_output_dir",
            "list_fields", "object_mode", "infinite_prefix_factor",
            "truth_file_and_column", "iterate_without_refine", "step_alone",
            "zero_step"])
    def test_bad_config_is_usage_error(
        self, runner, small_csv, tmp_path, command, config, message
    ):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        result = runner.invoke(main, [
            command, "--input", small_csv, "--truth-column", "id",
            "--config", str(path), "--output-dir", str(tmp_path / "out"),
        ])
        assert result.exit_code == 2
        assert message in result.output

    @pytest.mark.parametrize("text, message", [
        ("{not json", "Expecting property name"),
        ("[1, 2]", "top level must be a JSON object"),
    ], ids=["invalid_json", "list_top_level"])
    def test_unreadable_config_is_usage_error(
        self, runner, small_csv, tmp_path, text, message
    ):
        path = tmp_path / "config.json"
        path.write_text(text)
        result = runner.invoke(main, [
            "run", "--input", small_csv, "--config", str(path),
            "--output-dir", str(tmp_path / "out"),
        ])
        assert result.exit_code == 2
        assert message in result.output

    @pytest.mark.parametrize("command, text, args, message", [
        ("run", "name,city\nJoe,Westwood\nJoan\n", [], "row 1 has 1 columns"),
        ("run", "name,city\nJoe,\nJoan,\n", [], "no features"),
        ("run", SMALL_CSV, ["--truth-column", "id", "--weights", "nan,1"],
         "finite and positive"),
        ("run", SMALL_CSV, ["--prefix-factor", "-0.2"], "must be >= 0"),
        ("run", SMALL_CSV, ["--prefix-factor", "inf", "--max-prefix", "0"],
         "prefix_factor must be finite"),
        ("run", SMALL_CSV, ["--tau", "abc"], "'auto' or a finite number"),
        ("run", SMALL_CSV, ["--tau", "nan"], "'auto' or a finite number"),
        ("run", SMALL_CSV, ["--fields", ","], "no fields to compare"),
        ("run", "id\ne1\ne2\n", ["--truth-column", "id"], "no fields to compare"),
        ("run", SMALL_CSV, ["--truth-column", "id", "--truth-file", os.devnull],
         "give --truth-column or --truth-file, not both"),
        ("run", SMALL_CSV, ["--fields", "name,id", "--truth-column", "id"],
         "the truth column 'id' cannot also be compared"),
        ("run", SMALL_CSV, ["--iterate-refine"], "--iterate-refine needs --refine"),
        # a step alone used to be ignored, giving the default grid
        ("sweep", SMALL_CSV, ["--truth-column", "id", "--tau-step", "0.05"],
         "--tau-start/--tau-stop/--tau-step go together"),
        ("sweep", SMALL_CSV, ["--truth-column", "id", *TAU_RANGE[:4],
                              "--tau-step", "0"], "--tau-step must be positive"),
        # the grid used to be dropped
        ("sweep", SMALL_CSV, ["--truth-column", "id", *TAU_RANGE, "--grid", "7"],
         "give --grid or --tau-start/--tau-stop/--tau-step, not both"),
    ], ids=["ragged_csv", "empty_field", "nan_weight", "negative_prefix_factor",
            "infinite_prefix_factor", "text_tau", "nan_tau", "no_fields",
            "only_truth_column", "truth_column_and_file",
            "truth_column_as_field", "iterate_without_refine",
            "step_alone", "zero_step", "range_and_grid"])
    def test_bad_input_is_usage_error(self, runner, tmp_path, command, text, args,
                                      message):
        path = tmp_path / "input.csv"
        path.write_text(text)
        result = runner.invoke(main, [
            command, "--input", str(path), "--output-dir", str(tmp_path / "out"),
            *args,
        ])
        assert result.exit_code == 2
        assert message in result.output


@pytest.mark.parametrize("args", [
    ["run"], ["run", "--tau", "0.5"], ["sweep", "--truth-column", "id"],
], ids=["run_auto_tau", "run_tau", "sweep"])
def test_single_record_is_usage_error(runner, tmp_path, args):
    path = tmp_path / "one.csv"
    path.write_text("id,name\ne1,Joe Bruin\n")
    with mock.patch.object(pipeline, "build_similarity", side_effect=AssertionError):
        result = runner.invoke(main, [
            *args, "--input", str(path), "--output-dir", str(tmp_path / "out"),
        ])
    assert result.exit_code == 2
    assert "need at least two records, got 1" in result.output


BLANK_FIELD_CSV = "id,name,city\ne1,Joe,\ne2,Joan,\n"


@pytest.mark.parametrize("args", [["run"], ["sweep", "--truth-column", "id"]],
                         ids=["run", "sweep"])
class TestFailedRunOutputFolder:
    """A usage error raised while scoring (here a field blank in every row)
    removes the output folders the command made, and keeps one it found."""

    def fail(self, runner, tmp_path, args, out):
        path = tmp_path / "input.csv"
        path.write_text(BLANK_FIELD_CSV)
        result = runner.invoke(main, [*args, "--input", str(path),
                                      "--output-dir", str(out)])
        assert result.exit_code == 2
        assert "has no features after stop-word removal" in result.output

    def test_new_folders_removed(self, runner, tmp_path, args):
        self.fail(runner, tmp_path, args, tmp_path / "new" / "deeper")
        assert sorted(os.listdir(tmp_path)) == ["input.csv"]

    def test_existing_folder_kept(self, runner, tmp_path, args):
        out = tmp_path / "out"
        out.mkdir()
        (out / "earlier.txt").write_text("kept")
        self.fail(runner, tmp_path, args, out)
        assert os.listdir(out) == ["earlier.txt"]
        assert (out / "earlier.txt").read_text() == "kept"

    def test_existing_empty_folder_kept(self, runner, tmp_path, args):
        out = tmp_path / "out"
        out.mkdir()
        self.fail(runner, tmp_path, args, out / "new")
        assert os.listdir(out) == []


class TestRoundedMeanH:
    """Ten records in five exact pairs, each pair sharing one of three fields,
    so every record's best score H is 1/3, whose mean rounds above it. The
    automatic threshold must still link the pairs."""

    @pytest.fixture
    def pairs_csv(self, tmp_path):
        path = tmp_path / "pairs.csv"
        rows = [f"{i // 2},key{i // 2},a{i},b{i}" for i in range(10)]
        path.write_text("\n".join(["entity_id,f1,f2,f3", *rows]) + "\n")
        return str(path)

    def test_run_links_the_pairs(self, runner, pairs_csv, tmp_path):
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # tau outside the nontrivial interval
            result = run_cli(runner, ["run", "--input", pairs_csv,
                                      "--truth-column", "entity_id",
                                      "--output-dir", str(out)])
        assert result.exit_code == 0
        assert json.loads((out / "manifest.json").read_text())["tau_used"] == 1 / 3
        metrics = json.loads((out / "metrics.json").read_text())
        assert (metrics["c"], metrics["recall"]) == (5, 1.0)

    def test_sweep_auto_row_links_the_pairs(self, runner, pairs_csv, tmp_path):
        out = tmp_path / "out"
        result = run_cli(runner, ["sweep", "--input", pairs_csv,
                                  "--truth-column", "entity_id", "--grid", "5",
                                  "--output-dir", str(out)])
        assert result.exit_code == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["c"] for row in rows if row["auto"]] == ["5"]


class TestOverflowingWeights:
    """Weights large enough that the sum of H overflows leave no finite
    automatic threshold: run and sweep stop with a usage error naming
    --weights and write nothing, while run at a given tau is unaffected."""

    WEIGHTS = ["--truth-column", "id", "--weights", "1,1e308"]

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_auto_threshold_is_usage_error(self, runner, small_csv, tmp_path,
                                           command):
        out = tmp_path / "out"
        result = runner.invoke(main, [command, "--input", small_csv,
                                      "--output-dir", str(out), *self.WEIGHTS])
        assert result.exit_code == 2
        assert ("--weights: automatic threshold is not finite: mean H is inf"
                in result.output)
        assert "Traceback" not in result.output
        assert not out.exists()

    @pytest.mark.parametrize("args", [["run", "--tau", "0.5"], ["sweep"]],
                             ids=["run", "sweep"])
    def test_overflowing_sum_is_usage_error(self, runner, small_csv, tmp_path,
                                            args):
        # each weight is finite, but the composite, at most their sum, is not
        out = tmp_path / "out"
        result = runner.invoke(main, [*args, "--input", small_csv,
                                      "--output-dir", str(out), "--truth-column",
                                      "id", "--weights", "1e308,1e308"])
        assert result.exit_code == 2
        assert "Error: weights must have a finite sum" in result.output
        assert "Traceback" not in result.output
        assert not out.exists()

    def test_given_tau_runs(self, runner, small_csv, tmp_path):
        out = tmp_path / "out"
        result = run_cli(runner, ["run", "--input", small_csv, "--tau", "0.5",
                                  "--output-dir", str(out), *self.WEIGHTS])
        assert result.exit_code == 0
        assert json.loads((out / "manifest.json").read_text())["tau_used"] == 0.5
        assert json.loads((out / "metrics.json").read_text())["tau"] == 0.5
        assert (out / "clusters.txt").exists()


class TestTinyWeights:
    """Equal weights that are a power of two scale every score, and tau,
    exactly, so the clusters are those at unit weights however small or large
    the power. Weights small enough to make a score subnormal are a usage
    error."""

    @pytest.fixture(scope="class")
    def citations_29(self, tmp_path_factory):
        data = synth.make_citations()
        path = tmp_path_factory.mktemp("citations_29") / "citations.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(data.schema)
            writer.writerows(data.records[:29])
        return str(path)

    def run(self, runner, path, out, weight, command="run"):
        return runner.invoke(main, [
            command, "--input", path, "--truth-column", "entity_id",
            "--output-dir", str(out), "--weights", ",".join([repr(weight)] * 3),
        ])

    @pytest.mark.parametrize("weight", [2.0**-600, 2.0**600])
    def test_scaled_weights_keep_clusters(self, runner, citations_29, tmp_path,
                                          weight):
        for w, out in ((1.0, tmp_path / "unit"), (weight, tmp_path / "scaled")):
            assert self.run(runner, citations_29, out, w).exit_code == 0
        unit, scaled = tmp_path / "unit", tmp_path / "scaled"
        assert ((scaled / "clusters.txt").read_bytes()
                == (unit / "clusters.txt").read_bytes())
        tau = json.loads((unit / "manifest.json").read_text())["tau_used"]
        assert json.loads((scaled / "manifest.json").read_text())["tau_used"] == (
            tau * weight)

    def test_scaled_weights_keep_sweep_auto_tau(self, runner, citations_29,
                                                tmp_path):
        weight = 2.0**-600
        taus = []
        for w in (1.0, weight):
            out = tmp_path / repr(w)
            assert self.run(runner, citations_29, out, w, "sweep").exit_code == 0
            taus.append(json.loads((out / "manifest.json").read_text())["tau_auto"])
        assert taus[1] == taus[0] * weight

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_subnormal_scores_are_usage_error(self, runner, citations_29,
                                              tmp_path, command):
        out = tmp_path / "out"
        result = self.run(runner, citations_29, out, 5e-324, command)
        assert result.exit_code == 2
        assert "no score is subnormal" in result.output
        assert "Traceback" not in result.output
        assert not out.exists()


# one field past the csv module's default limit of 131,072 characters
HUGE_FIELD_CSV = f"name,city\n{'x' * 131_073},Venice\nJoe,Westwood\n"


def _bad_path_args(case, tmp_path, small_csv):
    """The command line of one bad-path case, and the message it gives."""
    folder = tmp_path / "folder"
    folder.mkdir()
    clusters = tmp_path / "clusters.txt"
    write_clusters(ClusterSet.from_labels([0, 0, 1]), str(clusters))
    latin1 = tmp_path / "stop.txt"
    latin1.write_bytes("caf\xe9\n".encode("latin-1"))
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    huge = tmp_path / "huge.csv"
    huge.write_text(HUGE_FIELD_CSV)
    too_large = f"{huge}: line 2: field larger than field limit (131072)"
    run = ["run", "--input", small_csv, "--output-dir", str(tmp_path / "out")]
    is_dir = f"'{folder}' is a directory"
    under_file = ["--output-dir", str(a_file / "sub")]
    no_dir = tmp_path / "no_dir"
    no_dir_msg = f"'{no_dir}' is not a directory"
    return {
        "run_input": (["run", "--input", str(folder)], is_dir),
        "run_stop_words": ([*run, "--stop-words", str(folder)], is_dir),
        "run_truth_file": ([*run, "--truth-file", str(folder)], is_dir),
        "run_config": ([*run, "--config", str(folder)], is_dir),
        "run_stop_words_not_utf8": ([*run, "--stop-words", str(latin1)],
                                    "'utf-8' codec can't decode"),
        "run_input_not_utf8": (["run", "--input", str(latin1)],
                               "'utf-8' codec can't decode"),
        "run_config_not_utf8": ([*run, "--config", str(latin1)],
                                "'utf-8' codec can't decode"),
        "run_input_field_too_large": (["run", "--input", str(huge)], too_large),
        "run_output_dir_is_file": (["run", "--input", small_csv,
                                    "--output-dir", str(a_file)],
                                   f"'{a_file}' is a file"),
        "run_output_dir_under_file": (["run", "--input", small_csv, *under_file],
                                      "Not a directory"),
        "sweep_output_dir_under_file": (["sweep", "--input", small_csv,
                                         "--truth-column", "id", *under_file],
                                        "Not a directory"),
        "degrade_input": (["degrade", "--input", str(folder), "--output",
                           str(tmp_path / "x.csv"), "--fields", "city",
                           "--seed", "1"], is_dir),
        "degrade_output": (["degrade", "--input", small_csv, "--output",
                            str(folder), "--fields", "city", "--seed", "1"],
                           is_dir),
        "degrade_output_no_dir": (["degrade", "--input", small_csv, "--output",
                                   str(no_dir / "x.csv"), "--fields", "city",
                                   "--seed", "1"], no_dir_msg),
        "degrade_input_field_too_large": (["degrade", "--input", str(huge),
                                           "--output", str(tmp_path / "x.csv"),
                                           "--fields", "city", "--seed", "1"],
                                          too_large),
        "eval_clusters": (["eval", "--clusters", str(folder), "--truth",
                           str(clusters)], is_dir),
        "eval_truth": (["eval", "--clusters", str(clusters), "--truth",
                        str(folder)], is_dir),
        "eval_output": (["eval", "--clusters", str(clusters), "--truth",
                         str(clusters), "--output", str(folder)], is_dir),
        "eval_output_no_dir": (["eval", "--clusters", str(clusters), "--truth",
                                str(clusters), "--output", str(no_dir / "m.json")],
                               no_dir_msg),
        "synth_output": (["synth", "--dataset", "restaurants", "--output",
                          str(folder)], is_dir),
        "synth_output_no_dir": (["synth", "--dataset", "restaurants", "--output",
                                 str(no_dir / "x.csv")], no_dir_msg),
    }[case]


@pytest.mark.parametrize("case", [
    "run_input", "run_stop_words", "run_truth_file", "run_config",
    "run_stop_words_not_utf8", "run_input_not_utf8", "run_config_not_utf8",
    "run_input_field_too_large", "run_output_dir_is_file",
    "run_output_dir_under_file", "sweep_output_dir_under_file",
    "degrade_input", "degrade_output", "degrade_output_no_dir",
    "degrade_input_field_too_large",
    "eval_clusters", "eval_truth", "eval_output", "eval_output_no_dir",
    "synth_output", "synth_output_no_dir",
])
def test_bad_path_is_usage_error(runner, tmp_path, small_csv, case):
    # each path is refused before anything is scored or written
    args, message = _bad_path_args(case, tmp_path, small_csv)
    with mock.patch.object(pipeline, "build_similarity", side_effect=AssertionError):
        result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert message in result.output


BOM = "\ufeff"


class TestByteOrderMark:
    """An input that starts with a UTF-8 byte-order mark, as spreadsheet
    programs write it, gives the same outputs as the same text without one."""

    @staticmethod
    def inputs(folder, bom):
        """The files of every case, each with the mark if bom is set."""
        folder.mkdir()
        texts = {
            "small.csv": SMALL_CSV,
            "headless.csv": SMALL_CSV.split("\n", 1)[1],
            "stop.txt": "westwood\nhollywood\n",
            "truth.txt": "".join(f"{i} {row.split(',')[0]}\n" for i, row in
                                 enumerate(SMALL_CSV.splitlines()[1:])),
            "config.json": json.dumps({"truth_column": "id", "theta": 0.8}),
        }
        for name, text in texts.items():
            (folder / name).write_text(BOM * bom + text, encoding="utf-8")
        return folder

    @pytest.mark.parametrize("args", [
        ["--input", "{}/small.csv", "--truth-column", "id"],
        ["--input", "{}/headless.csv", "--no-header", "--truth-column", "field_0"],
        ["--input", "{}/small.csv", "--truth-column", "id",
         "--stop-words", "{}/stop.txt"],
        ["--input", "{}/small.csv", "--fields", "name,city",
         "--truth-file", "{}/truth.txt"],
        ["--input", "{}/small.csv", "--config", "{}/config.json"],
    ], ids=["csv", "csv_no_header", "stop_words", "truth_file", "config"])
    def test_same_outputs(self, runner, tmp_path, args):
        outputs = []
        for bom in (False, True):
            folder = self.inputs(tmp_path / f"bom{bom:d}", bom)
            out = folder / "out"
            result = run_cli(runner, [
                "run", *(arg.format(folder) for arg in args),
                "--output-dir", str(out),
            ])
            assert result.exit_code == 0, result.output
            outputs.append([result.output, (out / "clusters.txt").read_bytes(),
                            (out / "metrics.json").read_bytes()])
        assert outputs[1] == outputs[0]


MANIFEST_KEYS = {
    "input_path", "delimiter", "no_header", "fields", "mode", "ngram_size",
    "stop_words_path", "no_case_fold", "method", "theta", "prefix_factor",
    "max_prefix", "weights", "sparsity", "refine", "iterate_refine",
    "truth_column", "truth_file", "seed", "output_dir",
}


@pytest.mark.parametrize("args, extra", [
    (["run"], {"tau", "tau_used"}),
    (["sweep", "--grid", "5"],
     {"tau_start", "tau_stop", "tau_step", "grid", "tau_auto"}),
], ids=["run", "sweep"])
def test_manifest_keys(runner, small_csv, tmp_path, args, extra):
    # every option of the command but --config, whether or not it was given
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"theta": 0.8}))
    out = tmp_path / "out"
    result = run_cli(runner, [
        *args, "--input", small_csv, "--truth-column", "id", "--fields",
        "city, name", "--config", str(config), "--output-dir", str(out),
    ])
    assert result.exit_code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == MANIFEST_KEYS | extra
    assert manifest["fields"] == "city,name"
    assert manifest["theta"] == 0.8


MANIFEST_DEFAULTS = {
    "delimiter": ",", "no_header": False, "mode": "word", "ngram_size": 3,
    "stop_words_path": None, "no_case_fold": False, "method": "soft_tfidf",
    "theta": 0.9, "prefix_factor": 0.1, "max_prefix": 4, "weights": None,
    "sparsity": "adjust", "refine": False, "iterate_refine": False,
    "truth_column": None, "truth_file": None, "seed": 0,
}


@pytest.mark.parametrize("args, config, want", [
    # a config value, a flag over a config value, a given tau
    (["run", "--max-prefix", "2", "--tau", "0.5"],
     {"theta": 0.8, "max_prefix": 3, "refine": True},
     {"theta": 0.8, "max_prefix": 2, "refine": True, "tau": "0.5",
      "tau_used": 0.5}),
    (["run", "--sparsity", "impute"], {"seed": 7, "no_case_fold": True},
     {"seed": 7, "no_case_fold": True, "sparsity": "impute", "tau": "auto",
      "tau_used": "auto"}),
    # the grid flag beats the config's range, which the manifest still lists
    (["sweep", "--grid", "5", "--method", "tfidf"],
     {"tau_start": 0.1, "tau_stop": 0.3, "tau_step": 0.1, "grid": 9,
      "method": "soft_tfidf", "mode": "ngram"},
     {"tau_start": 0.1, "tau_stop": 0.3, "tau_step": 0.1, "grid": 5,
      "method": "tfidf", "mode": "ngram", "tau_auto": "auto"}),
    (["sweep", *TAU_RANGE], {"ngram_size": 4},
     {"tau_start": 0.1, "tau_stop": 0.5, "tau_step": 0.1, "grid": 200,
      "ngram_size": 4, "tau_auto": "auto"}),
], ids=["run_tau", "run_auto", "sweep_grid", "sweep_range"])
def test_manifest_values(runner, small_csv, tmp_path, args, config, want):
    # every value, defaults included; "auto" stands for the automatic
    # threshold, worked out here from the library
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    result = run_cli(runner, [
        *args, "--input", small_csv, "--truth-column", "id", "--fields",
        " name, city,", "--config", str(path), "--output-dir", str(out),
    ])
    assert result.exit_code == 0, result.output
    want = {**MANIFEST_DEFAULTS, "input_path": small_csv, "fields": "name,city",
            "truth_column": "id", "output_dir": str(out), **want}
    for key in ("tau_used", "tau_auto"):
        if want.get(key) == "auto":
            dataset = corpus.load_dataset(small_csv).select_fields(["name", "city"])
            tok = corpus.TokenizerConfig(
                mode=want["mode"], ngram_size=want["ngram_size"],
                case_fold=not want["no_case_fold"])
            params = SimilarityParams(theta=want["theta"], method=want["method"])
            scores = pipeline.build_similarity(
                dataset, tok, params, sparsity_mode=want["sparsity"],
                seed=want["seed"])
            want[key] = clustering.auto_threshold(scores)
    assert json.loads((out / "manifest.json").read_text()) == want


class TestSweep:
    def test_writes_table_with_auto_row(self, runner, small_csv, tmp_path):
        out = tmp_path / "out"
        result = run_cli(runner, [
            "sweep", "--input", small_csv, "--truth-column", "id",
            "--output-dir", str(out), "--grid", "10",
        ])
        assert result.exit_code == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0].keys()) == SWEEP_COLUMNS
        assert len(rows) == 11  # 10 grid points plus the auto threshold
        assert sum(1 for r in rows if r["auto"] == "auto") == 1
        taus = [float(r["tau"]) for r in rows]
        assert taus == sorted(taus)

    def test_requires_truth(self, runner, small_csv):
        result = runner.invoke(main, ["sweep", "--input", small_csv])
        assert result.exit_code == 2
        assert "ground truth" in result.output

    def test_explicit_range(self, runner, small_csv, tmp_path):
        out = tmp_path / "out"
        result = run_cli(runner, [
            "sweep", "--input", small_csv, "--truth-column", "id",
            "--output-dir", str(out), "--tau-start", "0.2",
            "--tau-stop", "0.7", "--tau-step", "0.25",
        ])
        assert result.exit_code == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        explicit = [float(r["tau"]) for r in rows if r["auto"] != "auto"]
        assert explicit == pytest.approx([0.2, 0.45, 0.7])

    def test_nonfinite_range_is_error(self, runner, small_csv):
        result = runner.invoke(main, [
            "sweep", "--input", small_csv, "--truth-column", "id",
            "--tau-start", "0.2", "--tau-stop", "inf", "--tau-step", "0.1",
        ])
        assert result.exit_code == 2
        assert "must be finite" in result.output

    @pytest.mark.parametrize("start, stop, step, want", [
        (0.1, 0.3, 0.1, [0.1, 0.2, 0.3]),
        (0.2, 0.7, 0.25, [0.2, 0.45, 0.7]),
        (0.0, 1.0, 0.1, [k / 10 for k in range(11)]),
        (0.5, 0.5, 0.1, [0.5]),
        (0.5, 0.4, 0.1, []),
    ])
    def test_tau_grid_is_integer_indexed(self, start, stop, step, want):
        # float accumulation ends 0.1..0.3 at 0.30000000000000004, which as
        # a threshold drops a pair scored exactly 0.3
        assert tau_grid(start, stop, step) == want

    @pytest.mark.parametrize("args, config, want", [
        (TAU_RANGE, {"grid": 7}, [0.1, 0.2, 0.3, 0.4, 0.5]),
        (["--grid", "4"], {"tau_start": 0.1, "tau_stop": 0.5, "tau_step": 0.1},
         4),
        ([], {"grid": 7, "tau_start": 0.1, "tau_stop": 0.5, "tau_step": 0.1},
         [0.1, 0.2, 0.3, 0.4, 0.5]),
    ], ids=["range_flags_config_grid", "grid_flag_config_range", "config_both"])
    def test_flag_beats_config_range_or_grid(self, runner, small_csv, tmp_path,
                                             args, config, want):
        # a flag beats the config file; from the config alone the range wins,
        # and a grid flag beside a range flag is a usage error
        # (test_bad_input_is_usage_error)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        result = run_cli(runner, [
            "sweep", "--input", small_csv, "--truth-column", "id",
            "--config", str(path), *args, "--output-dir", str(out),
        ])
        assert result.exit_code == 0, result.output
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        explicit = [float(r["tau"]) for r in rows if r["auto"] != "auto"]
        if isinstance(want, int):  # grid points over the nontrivial interval
            assert len(explicit) == want
            assert 0.1 not in explicit
        else:
            assert explicit == want

    def test_partial_range_is_error(self, runner, small_csv):
        result = runner.invoke(main, [
            "sweep", "--input", small_csv, "--truth-column", "id",
            "--tau-start", "0.2",
        ])
        assert result.exit_code == 2

    @pytest.mark.parametrize("grid", ["0", "-3"])
    def test_grid_must_be_positive(self, runner, small_csv, grid):
        result = runner.invoke(main, [
            "sweep", "--input", small_csv, "--truth-column", "id", "--grid", grid,
        ])
        assert result.exit_code == 2
        assert "not in the range 1<=x<=100000" in result.output

    @pytest.mark.parametrize("args, config", [
        (["--tau-start", "0.1", "--tau-stop", "0.9", "--tau-step", "1e-9"], None),
        (["--grid", "1000000000"], None),
        ([], {"grid": 1000000000}),
    ], ids=["explicit_range", "grid", "config_grid"])
    def test_huge_grid_is_usage_error(self, runner, small_csv, tmp_path, args,
                                      config):
        # imported first, so that code without the limit fails here, before
        # it can start building 800 million thresholds; code that has the
        # limit but builds the grid before checking it is stopped by the
        # time limit, a few million thresholds in
        from softdedupe.cli import MAX_SWEEP_POINTS

        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            args = ["--config", str(path)]

        with mock.patch.object(pipeline, "sweep_thresholds",
                               side_effect=AssertionError("grid was built")), \
                time_limit(2.0):
            result = runner.invoke(main, [
                "sweep", "--input", small_csv, "--truth-column", "id", *args,
            ])
        assert result.exit_code == 2
        assert str(MAX_SWEEP_POINTS) in result.output

    def test_tau_grid_limit(self):
        from softdedupe.cli import MAX_SWEEP_POINTS

        assert len(tau_grid(1.0, float(MAX_SWEEP_POINTS), 1.0)) == MAX_SWEEP_POINTS
        with pytest.raises(click.UsageError, match="thresholds"):
            tau_grid(0.0, float(MAX_SWEEP_POINTS), 1.0)


SCIPY_CASES = {
    "run": ["run"],
    "run_refine": ["run", "--refine", "--iterate-refine"],
    "run_ngram": ["run", "--mode", "ngram"],
    "sweep": ["sweep", "--truth-column", "id"],
    "sweep_refine": ["sweep", "--truth-column", "id", "--refine"],
}


@pytest.mark.parametrize("args", [
    *[[*args, "--method", "tfidf"] for args in SCIPY_CASES.values()],
    *SCIPY_CASES.values(),
], ids=[*SCIPY_CASES, *(f"{name}_soft" for name in SCIPY_CASES)])
def test_csgraph_never_loaded(small_csv, tmp_path, args):
    # the field products use numpy alone, a run's clusters come from a
    # breadth-first search over packed rows and a sweep's from a spanning
    # forest, and every refinement from one depth-first search, so
    # no command loads scipy, let alone scipy.sparse.csgraph; nor numpy.ma,
    # which a bare np.unique(x) imports (np.unique with return_counts=,
    # return_index= or return_inverse= does not)
    code = (
        "import sys\n"
        "from softdedupe.cli import main\n"
        "main(sys.argv[1:], standalone_mode=False)\n"
        "print('scipy' in sys.modules, 'numpy.ma' in sys.modules)\n"
    )
    args = [*args, "--input", small_csv, "--output-dir", str(tmp_path / "out")]
    src = str(Path(softdedupe.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", code, *args], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.splitlines()[-1] == "False False"


def run_python(code, **env):
    """The last line that code prints in a new interpreter that imports this
    checkout's package, with OPENBLAS_NUM_THREADS unset unless given (the
    test process has imported the CLI, which sets it)."""
    src = str(Path(softdedupe.__file__).resolve().parents[1])
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    result = subprocess.run([sys.executable, "-c", code],
                            env=dict(base, PYTHONPATH=src, **env),
                            capture_output=True, text=True, check=True)
    return result.stdout.splitlines()[-1]


class TestStartup:
    # numpy reads OPENBLAS_NUM_THREADS once, when it loads, and starts that
    # many OpenBLAS threads; the package import must not load numpy, so
    # that the CLI module can set the variable first

    def test_package_import_loads_no_layer(self):
        code = (
            "import sys, softdedupe\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'numpy' or m.startswith('softdedupe')))\n"
        )
        assert run_python(code) == "['softdedupe']"

    def test_cli_import_leaves_out_generators(self):
        code = "import sys, softdedupe.cli\nprint('softdedupe.synth' in sys.modules)\n"
        assert run_python(code) == "False"

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts threads in /proc/self/task")
    def test_cli_import_sets_one_blas_thread(self):
        code = (
            "import os, sys, softdedupe.cli\n"
            "assert 'numpy' in sys.modules\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))\n"
        )
        assert run_python(code) == "1 1"

    def test_preset_thread_count_wins(self):
        code = "import os, softdedupe.cli\nprint(os.environ['OPENBLAS_NUM_THREADS'])\n"
        assert run_python(code, OPENBLAS_NUM_THREADS="2") == "2"


class TestScript:
    """script() ends a standalone main() with os._exit(code) once stdout and
    stderr are flushed, and otherwise lets the SystemExit through for a
    normal exit. os._exit is replaced by a function that records its code."""

    @staticmethod
    def run_script(monkeypatch, args, entry=None, error=None):
        """The events from the end of main() on: flushes of stdout and
        stderr, and the os._exit call. `entry` replaces main; `error` is
        raised by every stdout flush."""
        events = []

        class Stream(io.StringIO):
            def __init__(self, name, error=None):
                super().__init__()
                self.name, self.error = name, error

            def flush(self):
                events.append((self.name, "flush"))
                if self.error is not None:
                    raise self.error

        def ended(main=entry or cli.main):
            try:
                main()
            finally:
                events.append("main ended")

        monkeypatch.setattr(cli, "main", ended)
        monkeypatch.setattr(os, "_exit", lambda code: events.append(("exit", code)))
        monkeypatch.setattr(sys, "argv", ["softdedupe", *args])
        monkeypatch.setattr(sys, "stdout", Stream("stdout", error))
        monkeypatch.setattr(sys, "stderr", Stream("stderr"))
        try:
            cli.script()
        finally:
            del events[:events.index("main ended")]
        return events, sys.stdout.getvalue(), sys.stderr.getvalue()

    @pytest.mark.parametrize("args, code, shown", [
        (["run", "--input", "{csv}", "--tau", "0.7", "--output-dir", "{out}"], 0,
         "clusters="),
        (["run", "--output-dir", "{out}"], 2, "Error: --input is required"),
        (["--help"], 0, "Usage:"),
    ], ids=["run", "usage_error", "help"])
    def test_flushes_then_exits(self, monkeypatch, small_csv, tmp_path, args,
                                code, shown):
        args = [a.format(csv=small_csv, out=tmp_path / "out") for a in args]
        events, out, err = self.run_script(monkeypatch, args)
        assert events == ["main ended", ("stdout", "flush"), ("stderr", "flush"),
                          ("exit", code)]
        assert shown in out + err

    def test_other_exit_codes_exit_normally(self, monkeypatch):
        def entry():
            sys.exit("text")

        with pytest.raises(SystemExit) as info:
            self.run_script(monkeypatch, [], entry=entry)
        assert info.value.code == "text"

    def test_failed_flush_exits_normally(self, monkeypatch):
        def entry():
            sys.exit(0)

        with pytest.raises(SystemExit) as info:
            self.run_script(monkeypatch, [], entry=entry, error=BrokenPipeError())
        assert info.value.code == 0

    def test_other_exceptions_propagate(self, monkeypatch):
        def entry():
            raise KeyError("lost")

        with pytest.raises(KeyError, match="lost"):
            self.run_script(monkeypatch, [], entry=entry)


class TestScriptMatchesMain:
    """`python -m softdedupe.cli`, which ends through script() without
    teardown, against main() run by `python -c`, which exits normally: the
    same exit code, output files, stdout, and Error: and warning lines."""

    @pytest.mark.parametrize("args, code, shown", [
        (["run", "--input", "{csv}", "--truth-column", "id", "--output-dir", "out"],
         0, "clusters="),
        (["sweep", "--input", "{csv}", "--truth-column", "id", "--grid", "10",
          "--output-dir", "out"], 0, "sweep rows"),
        (["eval", "--clusters", "{clusters}", "--truth", "{truth}"], 0, '"nmi"'),
        (["run", "--output-dir", "out"], 2, "Error: --input is required"),
        (["run", "--input", "{csv}", "--tau", "5", "--output-dir", "out"], 0,
         "UserWarning: tau=5.0 outside the nontrivial interval"),
    ], ids=["run", "sweep", "eval", "missing_input", "trivial_tau"])
    def test_same_results(self, small_csv, tmp_path, args, code, shown):
        write_clusters(ClusterSet.from_labels([0, 0, 1, 2, 2, 3]),
                       str(tmp_path / "clusters.txt"))
        write_clusters(ClusterSet.from_labels([0, 0, 1, 2, 3, 3]),
                       str(tmp_path / "truth.txt"))
        args = [a.format(csv=small_csv, clusters=tmp_path / "clusters.txt",
                         truth=tmp_path / "truth.txt") for a in args]
        src = str(Path(softdedupe.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        results = []
        for name, launch in [("script", ["-m", "softdedupe.cli"]),
                             ("main", ["-c", "from softdedupe.cli import main; main()"])]:
            cwd = tmp_path / name
            cwd.mkdir()
            # stdout and stderr are pipes
            proc = subprocess.run([sys.executable, *launch, *args], cwd=cwd,
                                  env=env, capture_output=True, text=True)
            files = {path.relative_to(cwd).as_posix(): path.read_bytes()
                     for path in sorted(cwd.rglob("*")) if path.is_file()}
            lines = [line for line in proc.stderr.splitlines()
                     if line.startswith("Error:") or "Warning:" in line]
            results.append((proc.returncode, files, proc.stdout, lines))
        assert results[0] == results[1]
        returncode, files, stdout, lines = results[0]
        assert returncode == code
        assert shown in stdout + "\n".join(lines)
        if args[0] != "eval" and code == 0:
            assert "out/manifest.json" in files


class TestWarningLines:
    """A command shows each warning as one line, `UserWarning: message`,
    without the source path and code line; the warning filters still
    decide whether it shows."""

    @staticmethod
    def stderr(tmp_path, args, flags=()):
        src = str(Path(softdedupe.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "softdedupe.cli", *args],
            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stderr

    def test_run_prints_one_line(self, small_csv, tmp_path):
        err = self.stderr(tmp_path, ["run", "--input", small_csv, "--tau", "5",
                                     "--output-dir", "out"])
        [line] = err.splitlines()
        assert line.startswith(
            "UserWarning: tau=5.0 outside the nontrivial interval")
        assert ".py:" not in err

    def test_sweep_prints_one_line_each(self, small_csv, tmp_path):
        err = self.stderr(tmp_path, [
            "sweep", "--input", small_csv, "--truth-column", "id",
            "--tau-start", "5", "--tau-stop", "7", "--tau-step", "1",
            "--output-dir", "out"])
        lines = err.splitlines()
        assert len(lines) == 3
        for line, tau in zip(lines, ("5.0", "6.0", "7.0")):
            assert line.startswith(
                f"UserWarning: tau={tau} outside the nontrivial interval")
        assert ".py:" not in err

    def test_ignore_filter_hides(self, small_csv, tmp_path):
        assert self.stderr(tmp_path, ["run", "--input", small_csv, "--tau", "5",
                                      "--output-dir", "out"],
                           flags=["-W", "ignore"]) == ""

    @pytest.mark.parametrize("tau, code", [("5", 0), ("nan", 2)])
    def test_main_restores_the_formatter(self, runner, small_csv, tmp_path,
                                         tau, code):
        before = warnings.formatwarning
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = runner.invoke(main, ["run", "--input", small_csv,
                                          "--tau", tau, "--output-dir",
                                          str(tmp_path / "out")])
        assert result.exit_code == code
        assert warnings.formatwarning is before


def test_blas_thread_count_keeps_outputs(tmp_path):
    # the program's BLAS calls, build_jw_matrix's shared-character product
    # and adjust's shared-field product, sum small integers, exact under any
    # thread count
    data = synth.make_restaurants()
    path = tmp_path / "restaurants.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(data.schema)
        writer.writerows(data.records)
    src = str(Path(softdedupe.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "softdedupe.cli", "run",
                        "--input", str(path), "--truth-column", "entity_id",
                        "--output-dir", str(out)],
                       env=env, capture_output=True, check=True)
        outputs.append([(out / name).read_bytes()
                        for name in ("clusters.txt", "metrics.json")])
    assert outputs[0] == outputs[1]


@pytest.fixture(scope="module")
def citations_csv(tmp_path_factory):
    data = synth.make_citations()
    path = tmp_path_factory.mktemp("citations") / "citations.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(data.schema)
        writer.writerows(data.records[:200])
    return str(path)


@pytest.mark.parametrize("args, outputs", [
    (["run", "--refine"], ["clusters.txt", "metrics.json"]),
    (["sweep", "--grid", "20"], ["sweep.csv"]),
], ids=["run", "sweep"])
def test_same_output_with_scipy_blocked(citations_csv, tmp_path, args, outputs):
    # with sys.modules["scipy"] = None any import of scipy raises ImportError
    code = (
        "import sys\n"
        "if sys.argv[1] == 'blocked':\n"
        "    sys.modules['scipy'] = None\n"
        "from softdedupe.cli import main\n"
        "main(sys.argv[2:], standalone_mode=False)\n"
    )
    src = str(Path(softdedupe.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    for mode in ("blocked", "open"):
        subprocess.run([
            sys.executable, "-c", code, mode, *args, "--input", citations_csv,
            "--truth-column", "entity_id", "--output-dir", str(tmp_path / mode),
        ], env=env, capture_output=True, text=True, check=True)
    for name in outputs:
        blocked = (tmp_path / "blocked" / name).read_bytes()
        assert blocked == (tmp_path / "open" / name).read_bytes(), name


@pytest.mark.parametrize("delimiter", ["", ";;", '"', "\r", "\n"],
                         ids=["empty", "two_chars", "quote", "carriage_return",
                              "line_feed"])
@pytest.mark.parametrize("command", ["run", "sweep", "degrade"])
def test_delimiter_must_be_one_character(
    runner, small_csv, tmp_path, command, delimiter
):
    args = {
        "run": [],
        "sweep": ["--truth-column", "id"],
        "degrade": ["--output", str(tmp_path / "x.csv"), "--fields", "city",
                    "--seed", "1"],
    }[command]
    result = runner.invoke(main, [
        command, "--input", small_csv, "--delimiter", delimiter, *args,
    ])
    assert result.exit_code == 2
    assert "must be one character" in result.output


class TestDegrade:
    def test_blanks_listed_fields_only(self, runner, small_csv, tmp_path):
        out_path = tmp_path / "degraded.csv"
        result = run_cli(runner, [
            "degrade", "--input", small_csv, "--output", str(out_path),
            "--fields", "city", "--fraction", "0.5", "--seed", "1",
        ])
        assert result.exit_code == 0
        with open(out_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(small_csv, newline="") as fh:
            orig = list(csv.DictReader(fh))
        assert [r["name"] for r in rows] == [r["name"] for r in orig]
        assert [r["id"] for r in rows] == [r["id"] for r in orig]
        blanked = sum(1 for r, o in zip(rows, orig) if r["city"] != o["city"])
        assert blanked == 3  # round(0.5 * 6)

    def test_unknown_field(self, runner, small_csv, tmp_path):
        result = runner.invoke(main, [
            "degrade", "--input", small_csv, "--output",
            str(tmp_path / "x.csv"), "--fields", "bogus", "--seed", "1",
        ])
        assert result.exit_code == 2

    def test_repeated_field_is_usage_error(self, runner, small_csv, tmp_path):
        # listed twice, a field would be blanked twice with separate draws
        out_path = tmp_path / "x.csv"
        result = runner.invoke(main, [
            "degrade", "--input", small_csv, "--output", str(out_path),
            "--fields", "city, city", "--seed", "1",
        ])
        assert result.exit_code == 2
        assert "field 'city' is listed twice" in result.output
        assert not out_path.exists()


class TestEval:
    def test_scores_two_cluster_files(self, runner, tmp_path):
        a = str(tmp_path / "a.txt")
        b = str(tmp_path / "b.txt")
        write_clusters(ClusterSet.from_labels([0, 0, 1, 2]), a)
        write_clusters(ClusterSet.from_labels([0, 0, 1, 1]), b)
        result = run_cli(runner, ["eval", "--clusters", a, "--truth", b])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["n"] == 4 and payload["c"] == 3 and payload["c_true"] == 2

    def test_output_file(self, runner, tmp_path):
        a = str(tmp_path / "a.txt")
        write_clusters(ClusterSet.from_labels([0, 0, 1]), a)
        out = tmp_path / "metrics.json"
        result = run_cli(runner, [
            "eval", "--clusters", a, "--truth", a, "--output", str(out),
        ])
        assert result.exit_code == 0
        assert json.loads(out.read_text())["harmonic_mean"] == 1.0

    def test_size_mismatch(self, runner, tmp_path):
        a = str(tmp_path / "a.txt")
        b = str(tmp_path / "b.txt")
        write_clusters(ClusterSet.from_labels([0, 0, 1]), a)
        write_clusters(ClusterSet.from_labels([0, 0]), b)
        result = runner.invoke(main, ["eval", "--clusters", a, "--truth", b])
        assert result.exit_code == 2

    def test_empty_files_are_usage_error(self, runner, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        result = runner.invoke(main, [
            "eval", "--clusters", str(empty), "--truth", str(empty),
        ])
        assert result.exit_code == 2
        assert "no records" in result.output

    def test_malformed_line_is_usage_error(self, runner, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 a\n\n2 b c\n")
        result = runner.invoke(main, [
            "eval", "--clusters", str(bad), "--truth", str(bad),
        ])
        assert result.exit_code == 2
        assert "line 3: expected 'record_index cluster_id', got '2 b c'" in result.output


class TestSynthCommand:
    def test_restaurants_csv(self, runner, tmp_path):
        out = tmp_path / "rst.csv"
        result = run_cli(runner, [
            "synth", "--dataset", "restaurants", "--output", str(out),
        ])
        assert result.exit_code == 0
        with open(out, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert header[0] == "entity_id"
        assert len(rows) == 864

    def test_citations_csv(self, runner, tmp_path):
        out = tmp_path / "cora.csv"
        result = run_cli(runner, [
            "synth", "--dataset", "citations", "--output", str(out),
        ])
        assert result.exit_code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 1295
