"""The README's library example runs as written.

The one ```python block of README.md is run in a folder holding the
restaurant set as rst.csv, written by the synth command as the README's
quick start writes it. Neither scipy nor hypothesis is imported, so this
runs with the runtime dependencies alone.
"""

import math
import re
from pathlib import Path

from click.testing import CliRunner

from softdedupe.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


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
