"""Unsupervised record deduplication with soft TF-IDF similarity scores.

The exported names load with their submodule on first use (PEP 562), so
importing the package alone loads neither numpy nor any layer; the CLI
relies on this to set OpenBLAS's thread count before numpy loads (see cli).
"""

import importlib

# exported name -> submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        ["DEFAULT_STOP_WORDS", "DataSet", "TokenizerConfig", "build_lexicon",
         "load_dataset", "tokenize", "tokenize_field"],
        "corpus",
    ),
    **dict.fromkeys(
        ["CompositeSimilarity", "FieldScores", "JaroWinklerMatrix",
         "SimilarityParams", "SparseRows", "build_jw_matrix", "build_tfidf",
         "composite", "jaro", "jaro_winkler", "soft_tfidf_field",
         "tfidf_field"],
        "similarity",
    ),
    **dict.fromkeys(
        ["PresenceMask", "adjust", "presence_mask"], "sparsity"
    ),
    **dict.fromkeys(
        ["ClusterSet", "ThresholdedGraph", "auto_threshold", "group",
         "refine_all", "threshold"],
        "clustering",
    ),
    **dict.fromkeys(["MetricsReport", "evaluate"], "evaluation"),
    **dict.fromkeys(
        ["build_similarity", "cluster_records", "degrade", "sweep_thresholds"],
        "pipeline",
    ),
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
