"""The README's library example runs as written, and the names it gives
exist.

The one ```python block of README.md is run in a folder holding the
restaurant set as rst.csv, written by the synth command as the README's
quick start writes it. Every dotted name the README writes from one of the
package's modules, such as `pipeline.cluster_records`, must resolve on that
module. Neither scipy nor hypothesis is imported, so this runs with the
runtime dependencies alone.
"""

import importlib
import math
import pkgutil
import re
from pathlib import Path

from click.testing import CliRunner

import softdedupe
from softdedupe.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

MODULES = [m.name for m in pkgutil.iter_modules(softdedupe.__path__)]

# a module name followed by one or more attributes, and not itself part of a
# longer name or path (softdedupe.cli, benchmark/traced.py)
MODULE_NAME = re.compile(rf"(?<![\w./])(?:{'|'.join(MODULES)})(?:\.[A-Za-z_]\w*)+")


def library_example() -> str:
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    return blocks[0]


def test_library_example_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = CliRunner().invoke(main, ["synth", "--dataset", "restaurants",
                                       "--output", "rst.csv"])
    assert result.exit_code == 0, result.output
    namespace = {}
    exec(compile(library_example(), str(README), "exec"), namespace)
    clusters, tau = namespace["clusters"], namespace["tau"]
    assert clusters.n == 864
    assert math.isfinite(tau)


def resolves(name: str) -> bool:
    module, *attributes = name.split(".")
    value = importlib.import_module(f"softdedupe.{module}")
    for attribute in attributes:
        if not hasattr(value, attribute):
            return False
        value = getattr(value, attribute)
    return True


def test_module_names_resolve():
    names = {m.group(0) for m in MODULE_NAME.finditer(README.read_text(encoding="utf-8"))}
    # the README writes its library names with their module; far fewer
    # matches would mean the pattern has stopped finding them
    assert len(names) >= 30
    assert sorted(n for n in names if not resolves(n)) == []
