"""Robustness of run and sweep across option values, given as flags or
through a config file. Kept apart from test_cli.py, which must import with
the runtime dependencies and pytest alone."""

import contextlib
import json
import tempfile
import traceback
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from softdedupe.cli import main
from test_cli import SMALL_CSV

# option values to draw from, good and bad; "{...}" names a file of
# TestRobustness.files, and None leaves the option out
OPTION_MENU = {
    "input_path": ["{csv}", "{headless}"],
    "truth_column": ["id", None, "bogus", "name"],
    "truth_file": ["{truth}", "{bad_truth}"],
    "fields": ["name,city", "name", "city, name", "bogus", "name,name", "id,name",
               ","],
    "weights": ["1,2", "0.5", "2,2,2", "nan,1", "inf,1", "-1,1", "0,1",
                "1e308,1e308", "1e300,1e-300", "5e-324,5e-324", "a,b"],
    "theta": ["0.9", "0.5", "0", "1e-300", "-1", "2", "nan"],
    "mode": ["word", "ngram"],
    "ngram_size": ["2", "0", "-1"],
    "method": ["tfidf", "soft_tfidf"],
    "sparsity": ["adjust", "impute"],
    "prefix_factor": ["0.1", "0.25", "-0.2", "inf", "nan"],
    "max_prefix": ["4", "0", "-1", "100"],
    "seed": ["0", "7", "-1"],
    "delimiter": [",", ";"],
    "stop_words_path": ["{stop}"],
    "refine": [True, False],
    "iterate_refine": [True],
    "no_header": [True],
    "no_case_fold": [True],
}
RUN_MENU = {"tau": ["auto", "0.5", "0", "5e-324", "-0.5", "1.5", "1e308", "nan",
                    "inf", "-inf", "abc"]}
SWEEP_MENU = {
    "tau_start": ["0.1", "0", "-0.1", "nan", "inf"],
    "tau_stop": ["0.5", "0.1", "1", "1e308", "inf"],
    "tau_step": ["0.1", "0.25", "1e-9", "0", "-0.1", "nan"],
    "grid": ["3", "0", "-1", "1000000000"],
}
FLAG_NAMES = {"input_path": "--input", "stop_words_path": "--stop-words"}


@st.composite
def command_lines(draw):
    """A run or sweep command on a small CSV, with a few options from the
    menu, each given either as a flag or through the config file: the
    arguments and the config (None without one)."""
    command = draw(st.sampled_from(["run", "sweep"]))
    menu = {**OPTION_MENU, **(RUN_MENU if command == "run" else SWEEP_MENU)}
    options = {"input_path": "{csv}", "truth_column": "id"}
    for name in draw(st.lists(st.sampled_from(sorted(menu)), max_size=5,
                              unique=True)):
        options[name] = draw(st.sampled_from(menu[name]))
    options["output_dir"] = "{out}"
    args, config = [command], {}
    for name, value in options.items():
        if value is None:
            continue
        if draw(st.booleans()):
            if isinstance(value, str):
                with contextlib.suppress(ValueError):
                    # a number as JSON, which carries nan and inf too
                    value = float(value) if draw(st.booleans()) else value
            config[name] = value
            continue
        flag = FLAG_NAMES.get(name, "--" + name.replace("_", "-"))
        if value is True:
            args.append(flag)
        elif value is False:
            args.append("--no-" + flag[2:])
        else:
            args += [flag, value]
    return args, config or None


def strict_json(text):
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


class TestRobustness:
    """Any option values, given as flags or through a config file: every
    command ends with exit 0 or a usage error (exit 2) and no traceback, a
    usage error leaves no output folder, and every JSON file written is
    strict JSON (no NaN or Infinity)."""

    @staticmethod
    def files(folder):
        texts = {
            "csv": SMALL_CSV,
            "headless": SMALL_CSV.split("\n", 1)[1],
            "truth": "".join(f"{i} e{i // 2}\n" for i in range(6)),
            "bad_truth": "0 a\n0 b\n",
            "stop": "westwood\nmary\n",
        }
        paths = {}
        for name, text in texts.items():
            paths[name] = str(folder / f"{name}.txt")
            (folder / f"{name}.txt").write_text(text)
        return paths

    @pytest.mark.filterwarnings("ignore:tau=.*outside the nontrivial interval")
    @settings(max_examples=300, deadline=None)
    @given(command_lines())
    def test_exit_0_or_usage_error(self, args_config):
        args, config = args_config
        runner = CliRunner()
        with tempfile.TemporaryDirectory() as tmp:
            folder = Path(tmp)
            paths = {**self.files(folder), "out": str(folder / "out")}
            args = [arg.format(**paths) for arg in args]
            if config is not None:
                config = {key: value.format(**paths) if isinstance(value, str)
                          else value for key, value in config.items()}
                (folder / "config.json").write_text(json.dumps(config))
                args += ["--config", str(folder / "config.json")]
            result = runner.invoke(main, args)
            detail = f"{args} {config}\n{result.output}"
            if result.exc_info is not None and result.exit_code not in (0, 2):
                detail += "".join(traceback.format_exception(*result.exc_info))
            assert result.exit_code in (0, 2), detail
            assert "Traceback" not in result.output, detail
            out = folder / "out"
            if result.exit_code == 2:
                assert not out.exists(), detail
            else:
                for path in out.glob("*.json"):
                    strict_json(path.read_text())
