import hashlib
import random
from collections import Counter

import pytest
from click.testing import CliRunner

from softdedupe import synth
from softdedupe.cli import main
from softdedupe.corpus import TokenizerConfig, tokenize

WORD = TokenizerConfig(mode="word")


class TestRestaurants:
    def test_counts(self, restaurants):
        data, truth = restaurants
        assert data.n == synth.RESTAURANT_RECORDS == 864
        assert truth.c == synth.RESTAURANT_ENTITIES == 752
        assert data.schema == ("name", "address", "city", "phone", "cuisine")

    def test_entity_ratio_near_target(self, restaurants):
        data, truth = restaurants
        assert abs(truth.c / data.n - 0.870) <= 1e-3

    def test_every_entity_nonempty(self, restaurants):
        data, truth = restaurants
        sizes = Counter(len(c) for c in truth.clusters)
        assert min(sizes) >= 1 and sum(sizes.values()) == truth.c

    def test_deterministic(self):
        assert synth.make_restaurants().records == synth.make_restaurants().records

    def test_duplicates_differ_from_originals(self, restaurants):
        data, truth = restaurants
        multi = [c for c in truth.clusters if len(c) > 1]
        assert multi, "expected some duplicated entities"
        differing = sum(
            1
            for c in multi
            if len({data.records[i] for i in c}) > 1
        )
        assert differing / len(multi) > 0.9


class TestCitations:
    def test_counts(self, citations):
        data, truth = citations
        assert data.n == synth.CITATION_RECORDS == 1295
        assert truth.c == synth.CITATION_ENTITIES == 122
        assert data.schema == ("author", "title", "venue")

    def test_entity_ratio_near_target(self, citations):
        data, truth = citations
        assert abs(truth.c / data.n - 0.094) <= 1e-3

    def test_some_entries_missing(self, citations):
        data, _ = citations
        missing = sum(
            1
            for k in range(data.a)
            for entry in data.column(k)
            if not tokenize(entry, WORD)
        )
        frac = missing / (data.n * data.a)
        assert 0.005 < frac < 0.10

    def test_deterministic(self):
        assert synth.make_citations().records == synth.make_citations().records


class TestDigests:
    """The SHA-256 of the CSV that `softdedupe synth` writes. The generators'
    draws follow CPython's own bounded-integer rule on getrandbits, so these
    hold on every supported Python."""

    DIGESTS = {
        ("restaurants", None):
            "6ef1c17e9bd505075c41b0f83403bba52f668a561b60f361358992c592357553",
        ("restaurants", 0):
            "98a3b45561c7448bccd2eda78af7348168547a4df7b9888021af4f2b99987ad7",
        ("restaurants", 1):
            "880bd8e079e45959f2410f92829761e48b21916fa6485ff52e3ad3bea7ee4076",
        ("restaurants", 3):
            "4985ff2fe01693756d0255f2c3bcf3e8d16fd99ef1fb622f53d5e5d668e0ffbd",
        ("restaurants", 2**40):
            "c264b0923866e30d59c6dc556a631d712cb1c7e4468474f1e52c5097610ec4ac",
        ("citations", None):
            "da50ca416512bbb55ea1f52e923a3c4e84395b16f8d7f7c1cbbc0406b2166dbf",
        ("citations", 0):
            "a2c0edaba6c218a86a6228a639bc8132a4e1d3a9ae1afaed85c3223b55e184ed",
        ("citations", 1):
            "37b555d75a64d0b284b2e4a837a193276b58bb87da09ca53b56e9045f7e99e17",
        ("citations", 3):
            "70d758f03495f2f8bd7fc1047ad77539d2f0bf7c69c91af7857737797d3071c0",
        ("citations", 2**40):
            "e8e4c3d0f4b6dd1887ea3ed1fd8b8f40f3e6434204e312c938f67df6f8311d31",
    }

    @pytest.mark.parametrize("which, seed", list(DIGESTS),
                             ids=[f"{w}-{s}" for w, s in DIGESTS])
    def test_csv_digest(self, tmp_path, which, seed):
        out = tmp_path / "synth.csv"
        args = ["synth", "--dataset", which, "--output", str(out)]
        if seed is not None:
            args += ["--seed", str(seed)]
        result = CliRunner().invoke(main, args, catch_exceptions=False)
        assert result.exit_code == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == self.DIGESTS[which, seed]


@pytest.mark.parametrize("seed", [0, 1, 7, 11, 2**40])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 184, 1300, 2**20 + 1])
def test_below_draws_as_randrange_and_choice(seed, n):
    """_below(rng, n) takes the same draws from the generator as
    randrange(n) and choice(range(n)) on a twin generator."""
    rng = random.Random(seed)
    by_randrange = random.Random(seed)
    by_choice = random.Random(seed)
    population = range(n)
    for _ in range(200):
        value = synth._below(rng, n)
        assert value == by_randrange.randrange(n)
        assert value == by_choice.choice(population)
    assert rng.getstate() == by_randrange.getstate() == by_choice.getstate()
