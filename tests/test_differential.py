"""Differential test of whole commands (McKeeman 1998): `run` and `sweep`
through CliRunner on small random CSVs, against a reference composed of the
test oracles. Kept apart from test_cli.py, which must import with the
runtime dependencies and pytest alone.

The reference takes the program's scores (whose bits the similarity tests
check against scipy), automatic threshold and sweep grid. It groups every
threshold with scipy's components, refines with the batched refinement and
evaluates with the dict-based evaluation, so that grouping, the spanning
forest, refinement, MergeMetrics, the partition numbering and the writers
all meet an independent computation. Every step is exact, so the files
compare byte for byte.
"""

import csv
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from softdedupe import clustering, pipeline
from softdedupe.cli import _write_sweep_table, main
from softdedupe.clustering import ThresholdedGraph
from softdedupe.corpus import TokenizerConfig, load_dataset
from softdedupe.similarity import SimilarityParams

from oracles import (
    TupleClusterSet,
    batched_refine_all,
    components,
    dict_evaluate,
    from_groups,
)

# near-duplicate words, and words that fold to one another
WORDS = ["joe", "joan", "bruin", "lurin", "mary", "smith", "smyth", "venice",
         "westwood", "café", "cafe", "Zürich", "Straße", "STRASSE", "grill"]


@st.composite
def tables(draw):
    """A truth column and 2-3 fields of up to 30 records: each record copies
    its entity's words, each entry whole, with a typo, with a word dropped or
    blank; some records repeat an earlier row. The first record copies its
    entity whole, so that no field is blank in every record."""
    a = draw(st.integers(2, 3))
    phrases = st.lists(st.sampled_from(WORDS), min_size=1, max_size=3)
    entities = draw(st.lists(st.lists(phrases, min_size=a, max_size=a),
                             min_size=1, max_size=6))
    rows = []
    for i in range(draw(st.integers(2, 30))):
        if rows and draw(st.integers(0, 3)) == 0:
            rows.append(draw(st.sampled_from(rows)))
            continue
        e = draw(st.integers(0, len(entities) - 1))
        row = [str(e)]
        for words in entities[e]:
            words = list(words)
            change = "whole" if i == 0 else draw(
                st.sampled_from(["whole", "typo", "drop", "blank"]))
            if change == "typo":
                k = draw(st.integers(0, len(words) - 1))
                p = draw(st.integers(0, len(words[k]) - 1))
                words[k] = words[k][:p] + draw(st.sampled_from("aeiy")) + words[k][p + 1:]
            elif change == "drop" and len(words) > 1:
                del words[draw(st.integers(0, len(words) - 1))]
            row.append("" if change == "blank" else " ".join(words))
        rows.append(row)
    return [["entity_id", *(f"f{k}" for k in range(a))], *rows]


def partition(sim, tau, refine, iterate):
    """The clusters at tau by scipy, refined by the batched refinement."""
    graph = ThresholdedGraph(tau=tau, scores=sim)
    clusters = components(graph)
    return batched_refine_all(clusters, graph, iterate) if refine else clusters


class TestCommandsMatchOracles:
    # an explicit tau at the least score, or a table scoring 0 throughout, warns
    @pytest.mark.filterwarnings("ignore:tau=.* outside the nontrivial interval")
    @settings(max_examples=100, deadline=None)
    @given(tables(), st.sampled_from(["word", "ngram"]),
           st.sampled_from(["tfidf", "soft_tfidf"]),
           st.sampled_from([[], ["--refine"], ["--refine", "--iterate-refine"]]),
           st.data())
    def test_run_and_sweep(self, table, mode, method, refining, data):
        refine, iterate = "--refine" in refining, "--iterate-refine" in refining
        with tempfile.TemporaryDirectory() as folder:
            folder = Path(folder)
            path = folder / "input.csv"
            with open(path, "w", encoding="utf-8", newline="") as fh:
                csv.writer(fh).writerows(table)
            records = load_dataset(str(path))
            truth = from_groups(TupleClusterSet.from_labels(
                records.column(0)).clusters)
            sim = pipeline.build_similarity(
                records.select_fields(records.schema[1:]),
                TokenizerConfig(mode=mode), SimilarityParams(method=method))
            args = ["--input", str(path), "--truth-column", "entity_id",
                    "--mode", mode, "--method", method, *refining]
            runner = CliRunner()

            # run, at the automatic tau or at one of the scores
            tau = clustering.auto_threshold(sim)
            tau_flag = []
            if data.draw(st.booleans(), label="explicit tau"):
                scores = np.unique(sim[~np.isnan(sim)]).tolist()
                tau = data.draw(st.sampled_from(scores), label="tau")
                tau_flag = ["--tau", repr(tau)]
            out = folder / "run"
            result = runner.invoke(main, ["run", *args, *tau_flag,
                                          "--output-dir", str(out)])
            assert result.exit_code == 0, result.output
            clusters = partition(sim, tau, refine, iterate)
            assert (out / "clusters.txt").read_text(encoding="utf-8") == "".join(
                f"{i} {label}\n" for i, label in enumerate(clusters.labels.tolist()))
            assert (out / "metrics.json").read_text(encoding="utf-8") == (
                dict_evaluate(clusters, truth, tau=tau).to_json() + "\n")

            # sweep over a grid, plus the automatic tau
            grid = data.draw(st.integers(5, 10), label="grid")
            out = folder / "sweep"
            result = runner.invoke(main, ["sweep", *args, "--grid", str(grid),
                                          "--output-dir", str(out)])
            assert result.exit_code == 0, result.output
            lo, hi = clustering.nontrivial_interval(sim)
            taus = np.linspace(lo, hi, grid + 1)[1:].tolist()
            points = sorted([(t, False) for t in taus]
                            + [(clustering.auto_threshold(sim), True)])
            rows = [(t, is_auto, dict_evaluate(partition(sim, t, refine, iterate),
                                               truth, tau=t))
                    for t, is_auto in points]
            _write_sweep_table(str(folder / "reference.csv"), rows)
            assert (out / "sweep.csv").read_bytes() == (
                folder / "reference.csv").read_bytes()
