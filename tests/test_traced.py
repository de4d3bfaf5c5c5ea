"""benchmark/traced.py against the untraced CLI.

traced.py wraps the package's functions from outside and its counters read
their arguments and results: the len() of build_lexicon's lexicon and of
build_jw_matrix's first argument, JaroWinklerMatrix.theta and .matrix,
CompositeSimilarity.matrix and PresenceMask.mask. The two .matrix attributes
are scipy CSR views built on access from the numpy arrays the program holds,
so only a traced run imports scipy. A refactor that drops one of them, or
renames a traced function, breaks the traced benchmark run; these tests
catch it first. Each command runs in a subprocess, because
Tracer.install patches module globals.
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import softdedupe
from softdedupe import synth

TRACED = Path(__file__).resolve().parents[1] / "benchmark" / "traced.py"
SRC = Path(softdedupe.__file__).resolve().parents[1]
RECORDS = 300  # the first records of the citation set, some entries blank

CASES = {
    "run-refine": (("run", "--refine"), ("clusters.txt", "metrics.json")),
    "sweep": (("sweep", "--grid", "20"), ("sweep.csv",)),
}


@pytest.fixture(scope="module")
def citations_csv(tmp_path_factory):
    data = synth.make_citations()
    path = tmp_path_factory.mktemp("traced") / "citations.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(data.schema)
        writer.writerows(data.records[:RECORDS])
    return path


def run_cli(prefix, args, csv_path, out_dir):
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    cmd = [*prefix, args[0], "--input", str(csv_path), "--truth-column",
           "entity_id", "--output-dir", str(out_dir), *args[1:]]
    return subprocess.run(cmd, env=env, capture_output=True, text=True)


@pytest.mark.parametrize("case", sorted(CASES))
def test_traced_run_matches_untraced(citations_csv, tmp_path, case):
    args, outputs = CASES[case]
    plain = run_cli([sys.executable, "-m", "softdedupe.cli"], args,
                    citations_csv, tmp_path / "plain")
    assert plain.returncode == 0, plain.stderr
    trace_path = tmp_path / "trace.json"
    traced = run_cli([sys.executable, str(TRACED), str(trace_path)], args,
                     citations_csv, tmp_path / "traced")
    assert traced.returncode == 0, traced.stderr
    for name in outputs:
        want = (tmp_path / "plain" / name).read_bytes()
        assert (tmp_path / "traced" / name).read_bytes() == want, name
    counters = json.loads(trace_path.read_text())["counters"]
    # filled by count_lexicon, count_jw, count_composite and count_mask
    for name in ("corpus.features",
                 "similarity.jw.candidate_pairs", "similarity.jw.pairs_scored",
                 "similarity.jw.pairs_kept", "similarity.composite.nnz",
                 "sparsity.missing_entries"):
        assert counters.get(name, 0) > 0, name
