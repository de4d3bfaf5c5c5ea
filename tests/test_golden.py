"""Golden outputs: the CLI's files on the generators' data sets stay byte-identical.

Each case runs one command through click's CliRunner on the restaurant set
(generator seed 7) or the citation set (seed 11), in the generators' record
order, and compares the SHA-256 digests of clusters.txt, metrics.json and
sweep.csv with the digests recorded below. Any change to an output byte fails
its case; a change of behaviour must say which digest changed and why.

Print the digests of the current code with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from softdedupe.cli import main

DATA_SEEDS = {"restaurants": 7, "citations": 11}
OUTPUTS = ("clusters.txt", "metrics.json", "sweep.csv")

# name: (data set, command and options besides input, truth and output)
CASES = {
    # the benchmark's four commands
    "restaurants-run": ("restaurants", ("run",)),
    "restaurants-sweep-tfidf": (
        "restaurants", ("sweep", "--method", "tfidf", "--grid", "150")),
    "citations-run-refine-iterate-0.20": (
        "citations", ("run", "--refine", "--iterate-refine", "--tau", "0.20")),
    "citations-sweep": ("citations", ("sweep", "--grid", "40")),
    # tokenizer, sparsity and refinement variants
    "citations-run-ngram": ("citations", ("run", "--mode", "ngram")),
    # the restaurant set has no blank entries, so impute on the citations
    "citations-run-impute": ("citations", ("run", "--sparsity", "impute")),
    "citations-run-refine-iterate-0.15": (
        "citations", ("run", "--refine", "--iterate-refine", "--tau", "0.15")),
    "restaurants-run-tfidf-refine-0.3": (
        "restaurants", ("run", "--method", "tfidf", "--refine", "--tau", "0.3")),
    "citations-sweep-refine": ("citations", ("sweep", "--refine", "--grid", "20")),
    "citations-sweep-refine-iterate": (
        "citations", ("sweep", "--refine", "--iterate-refine", "--grid", "20")),
    # the only case here whose refinement meets a tie between removals
    "restaurants-sweep-refine": (
        "restaurants", ("sweep", "--refine", "--grid", "20")),
    # the composite's field weights, and a plain sweep on 3-gram features
    "restaurants-run-weights": (
        "restaurants", ("run", "--weights", "2,1,0.5,1.5,0.25")),
    "citations-sweep-ngram-tfidf": (
        "citations", ("sweep", "--mode", "ngram", "--method", "tfidf",
                      "--grid", "40")),
    # soft 3-gram features, where three of the five restaurant fields have
    # nearly as many distinct TF-IDF rows as records
    "restaurants-run-ngram": ("restaurants", ("run", "--mode", "ngram")),
}

DIGESTS = {
    'citations-run-impute': {
        'clusters.txt': 'a07dabc16b5c3e7b441faab6d618857f668a03b5be53708b14260bd29950bd48',
        'metrics.json': '74a8b01df1e199fc769a1b283322e527bdb500c9a880f71b1c36658070a62669',
    },
    'citations-run-ngram': {
        'clusters.txt': '910b2fb6bdbce58475a0c11d495f7596a63ce4e7fc3f96158d0970395f5fdf6c',
        'metrics.json': 'ba363655ef7cd5a649edffd14b033547275f1d4ff8c18937676a620680dc4441',
    },
    'citations-run-refine-iterate-0.15': {
        'clusters.txt': '1aca311d1048de218550f9d9568627be14b7c4a6301dfe9a87da56928a25ff51',
        'metrics.json': '8a0ce36f131e1048cfae69282768cdbe27137563580db1781b5442d985e18953',
    },
    'citations-run-refine-iterate-0.20': {
        'clusters.txt': 'b04a31cad9be5d13f7177a244d1c79aa4bfecf80403b571240dc72865a173f63',
        'metrics.json': '1d99564fab8d310f2aa3c4b96730b6208d061bb30256312704df863795a23c14',
    },
    'citations-sweep': {
        'sweep.csv': '058ad0bce1c199257dece9ba1a291aef7889ae737c69bc2bb5101eb9dff326b3',
    },
    'citations-sweep-ngram-tfidf': {
        'sweep.csv': '1930ccb4fc5e6ebf7a025992e6dec3773f055c33455e8b988b48989a8c7ed2f8',
    },
    'citations-sweep-refine': {
        'sweep.csv': 'cb6f2ee43af6e1ca5ac0bce720dfa3afef270d8f1b052617da79bd53e23c745a',
    },
    'citations-sweep-refine-iterate': {
        'sweep.csv': '5b97e85b674206fa1b491103c4875c748dd4728d878407afd356232866b45a0d',
    },
    'restaurants-run': {
        'clusters.txt': 'e15ebc2cd1556d7e601409b3d396a8a419c473814e68e7ba621ef98fd0fded21',
        'metrics.json': '9c6e559d49f03a1a25cc9e91fbbd89616db38bba8ae8386c5745ea8faa26a95e',
    },
    'restaurants-run-ngram': {
        'clusters.txt': '07bc8e8c3546dca666fc3ba6f6fb4aa5ba1174bb8e4acf1c66891c9eefe68894',
        'metrics.json': 'bfe4a3a052d56c83d391cd1e4e7735f45dde40f67063a80bb0f0aff9a6361594',
    },
    'restaurants-run-tfidf-refine-0.3': {
        'clusters.txt': '7d6b18db9247d9db032b67e165f4ad47dae88f2873b6f2c474ae736dc95b2be6',
        'metrics.json': '7aff20a83a417847b864d5e552cc25fac22eeb6622dc17b901d4837cba19be48',
    },
    'restaurants-run-weights': {
        'clusters.txt': 'f08dff1186d99386ac795dadf6f40c503182f82412b18553bf84ef38c3def021',
        'metrics.json': '4e9266d81aa390b4f5cef5483101c639c30a0c7e6983283182d1161fe966fb73',
    },
    'restaurants-sweep-refine': {
        'sweep.csv': '585493842afa511de0d604fb47edec64d016b9db33d9aacce625aa793cb9aaf1',
    },
    'restaurants-sweep-tfidf': {
        'sweep.csv': '02dabed6ff8c4280300f37a01ab622a7c46500af7625588345297fb85a32b37b',
    },
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden-inputs")
    return {name: write_input(name, root) for name in DATA_SEEDS}


def write_input(name: str, root: Path) -> Path:
    path = root / f"{name}.csv"
    result = CliRunner().invoke(
        main,
        ["synth", "--dataset", name, "--seed", str(DATA_SEEDS[name]),
         "--output", str(path)],
        catch_exceptions=False,
    )
    assert result.exit_code == 0, result.output
    return path


def digests(input_path: Path, args: tuple[str, ...], out: Path) -> dict[str, str]:
    result = CliRunner().invoke(
        main,
        [args[0], "--input", str(input_path), "--truth-column", "entity_id",
         "--output-dir", str(out), *args[1:]],
        catch_exceptions=False,
    )
    assert result.exit_code == 0, result.output
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in OUTPUTS
        if (out / name).exists()
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_recorded_digests(case, inputs, tmp_path):
    data, args = CASES[case]
    assert digests(inputs[data], args, tmp_path / "out") == DIGESTS[case]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        paths = {name: write_input(name, root) for name in DATA_SEEDS}
        for case in sorted(CASES):
            data, args = CASES[case]
            found = digests(paths[data], args, root / case)
            print(f"    {case!r}: {{", file=sys.stdout)
            for name, digest in found.items():
                print(f"        {name!r}: {digest!r},")
            print("    },")
