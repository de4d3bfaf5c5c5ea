"""Unsupervised record deduplication with soft TF-IDF similarity scores.

Every name lives in its module (corpus, similarity, sparsity, clustering,
evaluation, pipeline, cli, synth). This file imports nothing, so importing
the package alone loads neither numpy nor any module; the CLI relies on this
to set OpenBLAS's thread count before numpy loads (see cli).
"""
