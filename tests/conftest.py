import random

import pytest

from softdedupe import pipeline, synth
from softdedupe.clustering import ClusterSet
from softdedupe.corpus import TokenizerConfig, build_lexicon, tokenize_field
from softdedupe.similarity import (
    METHOD_SOFT_TFIDF,
    SimilarityParams,
    build_jw_matrix,
    build_tfidf,
    composite,
    soft_tfidf_field,
    tfidf_field,
)
from softdedupe.sparsity import impute_tokens, presence_mask


def tokenized_fields(data, tok_config):
    """Each field's lexicon and token lists."""
    out = []
    for k in range(data.a):
        tokens = tokenize_field(data, k, tok_config)
        out.append((build_lexicon(tokens), tokens))
    return out


def raw_composite(data, tok_config, params):
    """The unadjusted composite score of every record pair, as a dense array.

    Built from the similarity stage's public functions, the steps that
    pipeline.build_similarity takes before it adjusts.
    """
    fields = []
    for features, tokens in tokenized_fields(data, tok_config):
        tfidf = build_tfidf(tokens, features)
        if params.method == METHOD_SOFT_TFIDF:
            fields.append(soft_tfidf_field(tfidf, build_jw_matrix(features, params)))
        else:
            fields.append(tfidf_field(tfidf))
    return composite(fields, params.weights).scores


def imputed_fields(data, tok_config, seed):
    """Each field's token lists with its missing entries filled, as an
    impute build fills them: one seeded generator drawn in field order."""
    rng = random.Random(seed)
    return [impute_tokens(data.column(k), tokenize_field(data, k, tok_config), rng)
            for k in range(data.a)]


def presence(data, tok_config):
    """The presence mask of the data set's entries."""
    return presence_mask(
        [tokens for _, tokens in tokenized_fields(data, tok_config)]
    )


@pytest.fixture(scope="session")
def restaurants():
    full = synth.make_restaurants()
    truth = ClusterSet(full.column(0))
    data = full.select_fields(["name", "address", "city", "phone", "cuisine"])
    return data, truth


@pytest.fixture(scope="session")
def citations():
    full = synth.make_citations()
    truth = ClusterSet(full.column(0))
    data = full.select_fields(["author", "title", "venue"])
    return data, truth


@pytest.fixture(scope="session")
def restaurants_degraded(restaurants):
    data, truth = restaurants
    degraded = pipeline.degrade(
        data, ["address", "city", "phone", "cuisine"], 0.30, seed=42
    )
    return degraded, truth


class ScoreCache:
    """Lazily built, session-cached adjusted score arrays keyed by config."""

    def __init__(self, datasets):
        self.datasets = datasets
        self._cache = {}

    def get(self, name, mode="word", method="soft_tfidf", sparsity="adjust"):
        key = (name, mode, method, sparsity)
        if key not in self._cache:
            data, _truth = self.datasets[name]
            self._cache[key] = pipeline.build_similarity(
                data,
                TokenizerConfig(mode=mode),
                SimilarityParams(method=method),
                sparsity_mode=sparsity,
                seed=1,
            )
        return self._cache[key]

    def truth(self, name):
        return self.datasets[name][1]


@pytest.fixture(scope="session")
def scores(restaurants, citations, restaurants_degraded):
    return ScoreCache(
        {
            "restaurants": restaurants,
            "citations": citations,
            "restaurants30": restaurants_degraded,
        }
    )
