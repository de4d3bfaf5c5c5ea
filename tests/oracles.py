"""References kept apart from the program, most of them computed with scipy.

Tokens: the tokenizer that case-folded every token a second time for the
stop-word test, and mode imputation that tokenized the data set to find the
missing entries, before the program tokenized the imputed data set again.

Features: the two-pass TF-IDF the program built before it tokenized each
entry once. One pass collects a field's lexicon, a second tokenizes every
entry again and counts its features in a dict keyed by lexicon index, and
the matrix is read from those dicts. The program's one-pass build_tfidf must
give the same bits.

Jaro: the loop the program ran before it found matches with str.find. Each
character of s1 walks its window of s2 position by position to the first
unused equal character, and the used positions are a list of flags.

Jaro-Winkler candidates: the count bound the program applied alone before
it added a transposition bound. One m x m x alphabet minimum per block of
rows gives every pair's shared-character count; the program's scored pairs
must lie within the pairs this bound keeps.

Similarity: the TF-IDF matrix, the field products TFIDF @ M @ TFIDF.T and
TFIDF @ TFIDF.T, their finishing and the weighted composite, by scipy's CSR
matrices. The program computes them with numpy alone and must give the same
bits.

Clustering: scipy components of the CSR graph `scores >= tau`, and the
refinement rule applied to every single removal through batched component
labelling. The program groups by a breadth-first search over packed rows,
sweeps from a maximum spanning forest and refines from one depth-first
search; the tests compare it with these.

Partitions: the tuple-of-sorted-tuples ClusterSet the program held before it
held a label array, with its dict-based from_labels, sort-based from_groups
and set-based validation.

Evaluation: the contingency table as a dict built record by record, and every
metric walked from it cell by cell. The program reads the table as arrays and
must give the same report, bit for bit.
"""

import math
import operator
import random
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from math import comb

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from softdedupe import sparsity
from softdedupe.clustering import ClusterSet, ThresholdedGraph
from softdedupe.corpus import DataSet, build_lexicon, tokenize, tokenize_field
from softdedupe.evaluation import ENTROPY_EPS, MetricsReport
from softdedupe.similarity import (
    METHOD_SOFT_TFIDF,
    SPARSE_FLOOR,
    CompositeSimilarity,
    SparseRows,
    build_jw_matrix,
)


@dataclass(frozen=True)
class TupleClusterSet:
    """A partition as its clusters, each a sorted tuple, ordered by least record."""

    clusters: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen = set()
        for c in self.clusters:
            if not c:
                raise ValueError("empty cluster")
            if seen & set(c):
                raise ValueError("clusters are not disjoint")
            seen.update(c)
        if seen != set(range(len(seen))):
            raise ValueError("clusters do not cover a contiguous index range")

    @property
    def n(self):
        return sum(len(c) for c in self.clusters)

    @property
    def c(self):
        return len(self.clusters)

    def labels(self):
        lab = [0] * self.n
        for k, c in enumerate(self.clusters):
            for i in c:
                lab[i] = k
        return lab

    @staticmethod
    def from_labels(labels):
        groups = {}
        for i, lab in enumerate(labels):
            groups.setdefault(lab, []).append(i)
        return TupleClusterSet.from_groups(groups.values())

    @staticmethod
    def from_groups(groups):
        # by least record, with empty groups first, so that validation names
        # them; a key of c[0] raised IndexError on them before validation ran
        clusters = sorted((tuple(sorted(g)) for g in groups), key=lambda c: c[:1])
        return TupleClusterSet(clusters=tuple(clusters))


# oracle_splits stacks removal graphs until they hold this many adjacency
# entries or vertices, which bounds one connected_components call
SPLIT_BATCH_ENTRIES = 1 << 18


def two_fold_tokenize(entry, config):
    """corpus.tokenize with each token folded again for the stop-word test,
    whether or not the entry was folded already."""
    if config.case_fold:
        entry = entry.casefold()
    if config.mode == "word":
        tokens = entry.split()
    else:
        n = config.ngram_size
        if len(entry) <= n:
            tokens = [entry] if entry else []
        else:
            tokens = [entry[i : i + n] for i in range(len(entry) - n + 1)]
        tokens = [t for t in tokens if t.strip()]
    return [t for t in tokens if t.casefold() not in config.stop_words]


def two_pass_impute_mode(dataset, config, seed=None):
    """sparsity.impute_mode as a data set of its own: each field's missing
    entries found by tokenizing it, then filled with the first raw form of
    its most frequent entry, compared case-folded, one seeded draw breaking
    a tie. The program fills the token lists of its one tokenizing pass
    instead, and they must equal the token lists of this data set."""
    rng = random.Random(seed)
    columns = []
    for k in range(dataset.a):
        col = dataset.column(k)
        missing = [not tokenize(entry, config) for entry in col]
        if all(missing):
            raise ValueError(f"field {k} has no non-missing entries to impute from")
        if not any(missing):
            columns.append(col)
            continue
        counts = Counter()
        first_raw = {}
        for entry, miss in zip(col, missing):
            if miss:
                continue
            key = entry.casefold()
            counts[key] += 1
            first_raw.setdefault(key, entry)
        top = max(counts.values())
        candidates = sorted(key for key, c in counts.items() if c == top)
        fill = first_raw[rng.choice(candidates)]
        columns.append([fill if miss else entry for entry, miss in zip(col, missing)])
    return DataSet(records=tuple(zip(*columns)), schema=dataset.schema)


def dict_counts(tokens, features):
    """Each entry's feature counts: a dict from lexicon index to count,
    filled token by token through a lookup dict. Tokens outside the lexicon
    are not counted."""
    lookup = {f: j for j, f in enumerate(features)}
    out = []
    for entry in tokens:
        counts = {}
        for t in entry:
            j = lookup.get(t)
            if j is not None:
                counts[j] = counts.get(j, 0) + 1
        out.append(counts)
    return out


def two_pass_tfidf(column, config):
    """The lexicon of a raw column and its TF-IDF matrix as SparseRows, each
    entry tokenized once for the lexicon and once more for its counts."""
    seen = set()
    for entry in column:
        seen.update(tokenize(entry, config))
    features = tuple(sorted(seen))
    counted = dict_counts([tokenize(entry, config) for entry in column], features)
    n, m = len(counted), len(features)
    sizes = [len(counts) for counts in counted]
    cols = np.fromiter(chain.from_iterable(counted), dtype=np.int64,
                       count=sum(sizes))
    counts = np.fromiter(chain.from_iterable(c.values() for c in counted),
                         dtype=float, count=len(cols))
    rows = np.repeat(np.arange(n), sizes)
    df = np.bincount(cols, minlength=m)
    with np.errstate(divide="ignore"):
        idf = np.where(df > 0, np.log(n / np.where(df > 0, df, 1)), 0.0)
    weights = np.log1p(counts) * idf[cols]
    keep = weights > 0.0
    mat = SparseRows.from_entries(rows[keep], cols[keep], weights[keep], (n, m))
    nonempty = np.flatnonzero(np.diff(mat.indptr))
    row_sums = np.add.reduceat(mat.data, mat.indptr[nonempty])
    np.divide(mat.data, np.repeat(row_sums, np.diff(mat.indptr)[nonempty]),
              out=mat.data)
    return features, mat


def tfidf_csr(counted, m):
    """len(counted) x m log-scaled TF times IDF from per-entry count dicts
    (see dict_counts), nonzero rows scaled to unit l1 norm, one entry at a
    time into a scipy CSR matrix."""
    n = len(counted)
    df = np.zeros(m)
    for counts in counted:
        for j in counts:
            df[j] += 1
    with np.errstate(divide="ignore"):
        idf = np.where(df > 0, np.log(n / np.where(df > 0, df, 1)), 0.0)
    rows, cols, vals = [], [], []
    for i, counts in enumerate(counted):
        for j, c in counts.items():
            w = np.log1p(c) * idf[j]
            if w > 0.0:
                rows.append(i)
                cols.append(j)
                vals.append(w)
    mat = sparse.csr_matrix(
        (np.array(vals), (np.array(rows, dtype=int), np.array(cols, dtype=int))),
        shape=(n, m),
    )
    row_sums = np.asarray(mat.sum(axis=1)).ravel()
    mat.data /= row_sums[np.repeat(np.arange(n), np.diff(mat.indptr))]
    return mat


def naive_jaro(s1, s2):
    """Jaro similarity by a position-by-position walk of each window."""
    len1, len2 = len(s1), len(s2)
    if len1 == 0 or len2 == 0:
        return 0.0
    window = min(len1, len2) // 2
    used2 = [False] * len2
    m1 = []
    match_idx2 = []
    for i, ch in enumerate(s1):
        lo = max(0, i - window)
        hi = min(len2, i + window + 1)
        for j in range(lo, hi):
            if not used2[j] and s2[j] == ch:
                used2[j] = True
                m1.append(ch)
                match_idx2.append(j)
                break
    m = len(m1)
    if m == 0:
        return 0.0
    m2 = [s2[j] for j in sorted(match_idx2)]
    t = sum(a != b for a, b in zip(m1, m2)) / 2.0
    return (m / len1 + m / len2 + (m - t) / m) / 3.0


def _character_tables(features, max_width):
    """Lengths, m x alphabet character counts and the first characters'
    ids, at most max_width of them, padded with -1, of the features."""
    m = len(features)
    lens = np.fromiter(map(len, features), dtype=np.int64, count=m)
    width = min(max_width, int(lens.max(initial=0)))
    codes = np.frombuffer("".join(features).encode("utf-32-le"), dtype=np.uint32)
    alphabet, chars = np.unique(codes, return_inverse=True)
    owner = np.repeat(np.arange(m), lens)
    counts = np.bincount(
        owner * len(alphabet) + chars, minlength=m * len(alphabet)
    ).reshape(m, len(alphabet))
    counts = counts.astype(np.min_scalar_type(counts.max(initial=0)))
    offsets = np.arange(width)
    at = np.minimum((np.cumsum(lens) - lens)[:, None] + offsets, len(chars) - 1)
    heads = np.where(offsets < lens[:, None], chars[at], -1)
    return lens, counts, heads


def _jw_upper_bound(lo, hi, lens, counts, heads, prefix_factor):
    """Upper bound on JW for features lo..hi-1 against features lo..m-1."""
    shared = np.minimum(counts[lo:hi, None, :], counts[None, lo:, :]).sum(
        axis=2, dtype=np.int64
    )
    length = np.maximum(lens, 1).astype(float)
    j_ub = np.where(
        shared > 0,
        (shared / length[lo:hi, None] + shared / length[None, lo:] + 1.0) / 3.0,
        0.0,
    )
    # -1 pads each head, so two distinct features agree on a padded position
    # only after disagreeing on a real one: runs stop where jaro_winkler's do
    prefix = np.zeros(shared.shape)
    run = np.ones(shared.shape, dtype=bool)
    for k in range(heads.shape[1]):
        run &= heads[lo:hi, k, None] == heads[None, lo:, k]
        prefix += run
    return j_ub + prefix_factor * prefix * (1.0 - j_ub)


def count_bound_candidates(features, params, block_rows=16):
    """The pairs (i, j), i < j, whose count bound on JW reaches
    theta - 1e-9: the pairs the program scored before the transposition
    bound."""
    p, cap = params.prefix_factor, params.max_prefix
    lens, counts, heads = _character_tables(features, cap if p > 0 else 0)
    pairs = set()
    for lo in range(0, len(features), block_rows):
        hi = min(len(features), lo + block_rows)
        bound = _jw_upper_bound(lo, hi, lens, counts, heads, p)
        a, b = np.nonzero(np.triu(bound >= params.theta - 1e-9, 1))
        pairs.update(zip((lo + a).tolist(), (lo + b).tolist()))
    return pairs


def finish_field_matrix(mat):
    """Symmetrize, drop tiny values, and pin the diagonal at exactly 1."""
    mat = ((mat + mat.T) * 0.5).tocoo()
    off = mat.row != mat.col
    keep = off & (np.abs(mat.data) >= SPARSE_FLOOR)
    n = mat.shape[0]
    rows = np.concatenate([mat.row[keep], np.arange(n)])
    cols = np.concatenate([mat.col[keep], np.arange(n)])
    vals = np.concatenate([mat.data[keep], np.ones(n)])
    return sparse.csr_matrix((vals, (rows, cols)), shape=mat.shape)


def field_csr(tfidf, jw=None):
    """TFIDF @ M @ TFIDF.T with the JW matrix M, or TFIDF @ TFIDF.T without
    one, finished; both scipy CSR."""
    product = tfidf @ tfidf.T if jw is None else tfidf @ jw @ tfidf.T
    return finish_field_matrix(product)


def composite_csr(fields, weights=None):
    """sum(w * f) over the scipy CSR field matrices."""
    if weights is None:
        weights = [1.0] * len(fields)
    return sum(w * f for w, f in zip(weights, fields)).tocsr()


def adjusted_similarity(dataset, tok_config, params):
    """pipeline.build_similarity (adjust mode) with every field product and
    the composite computed by scipy."""
    fields, fields_tokens = [], []
    for k in range(dataset.a):
        tokens = tokenize_field(dataset, k, tok_config)
        fields_tokens.append(tokens)
        features = build_lexicon(tokens)
        tfidf = tfidf_csr(dict_counts(tokens, features), len(features))
        jw = None
        if params.method == METHOD_SOFT_TFIDF:
            jw = build_jw_matrix(features, params).matrix
        fields.append(field_csr(tfidf, jw))
    raw = CompositeSimilarity(
        scores=composite_csr(fields, params.weights).toarray()
    )
    return sparsity.adjust(raw, sparsity.presence_mask(fields_tokens))


def graph_from_edges(n, edges, tau=0.0):
    """The graph with exactly the undirected `edges` on n records: a score
    array that holds tau on each edge and NaN elsewhere."""
    scores = np.full((n, n), np.nan)
    for i, j in edges:
        if i != j:
            scores[i, j] = scores[j, i] = tau
    return ThresholdedGraph(tau=tau, scores=scores)


def adjacency(graph):
    """The graph as a symmetric boolean CSR matrix with no self-loops."""
    linked = graph.scores >= graph.tau
    np.fill_diagonal(linked, False)
    return sparse.csr_matrix(linked)


def has_edge(graph, i, j):
    return bool(adjacency(graph)[i, j])


def labels(csr):
    return csgraph.connected_components(csr, directed=False)[1].tolist()


def components(graph):
    """Connected components of the graph, by scipy."""
    return ClusterSet.from_labels(labels(adjacency(graph)))


def induced(csr, members):
    """Stored entries of `csr` among the sorted `members`, as (row, column)
    arrays of positions in `members`, rows ascending."""
    rows = csr[members].tocoo()
    pos = np.searchsorted(members, rows.col)
    inside = np.take(members, np.minimum(pos, len(members) - 1)) == rows.col
    return rows.row[inside], pos[inside]


def share(entries, p):
    """Strength of p records whose induced adjacency stores `entries`."""
    return entries // 2 / comb(p, 2) if p >= 2 else 0.0


def strength(cluster, graph):
    """Fraction of linked pairs inside the cluster; 0 for singletons."""
    rows, _ = induced(adjacency(graph), sorted(cluster))
    return share(len(rows), len(cluster))


def oracle_splits(i, j, p):
    """For each of the p vertices of the graph with adjacency entries (i, j),
    the components left by removing it (ordered by smallest vertex, each
    sorted) and their mean strength. The graphs left by a batch of removals
    are stacked block-diagonally and labelled by one connected_components
    call."""
    step = max(1, SPLIT_BATCH_ENTRIES // max(len(i), p))
    out = []
    for lo in range(0, p, step):
        count = min(step, p - lo)
        copy = np.repeat(np.arange(count), len(i))
        ci, cj = np.tile(i, count) + copy * p, np.tile(j, count) + copy * p
        gone = lo + copy * (p + 1)  # the removed vertex in each copy
        keep = (ci != gone) & (cj != gone)
        ci, cj = ci[keep], cj[keep]
        size = count * p
        lab = labels(sparse.csr_matrix((np.ones(len(ci)), (ci, cj)), (size, size)))
        entries = np.bincount(np.take(lab, ci), minlength=size).tolist()
        pieces = [[] for _ in range(count)]
        shares = [[] for _ in range(count)]
        for vertices in ClusterSet.from_labels(lab).clusters:
            c = vertices[0] // p
            if vertices[0] != lo + c * (p + 1):
                pieces[c].append([v - c * p for v in vertices])
                shares[c].append(share(entries[lab[vertices[0]]], len(vertices)))
        # left to right, as the program sums them on every Python
        out.extend((ps, reduce(operator.add, ss, 0.0) / len(ss))
                   for ps, ss in zip(pieces, shares))
    return out


def batched_refine(members, graph):
    """The refinement of the sorted `members`, or None for a stable cluster:
    remove the record (lowest on ties) whose removal leaves the pieces of
    highest mean strength, then join it to the piece (first on ties) whose
    union with it is strongest."""
    p = len(members)
    if p <= 2:
        return None
    i, j = induced(adjacency(graph), members)
    splits = oracle_splits(i, j, p)
    if all(len(pieces) == 1 for pieces, _ in splits):
        return None
    removed = max(range(p), key=lambda r: splits[r][1])
    pieces = splits[removed][0]

    def joined(k):
        inside = np.zeros(p, dtype=bool)
        inside[pieces[k] + [removed]] = True
        return share(int(np.count_nonzero(inside[i] & inside[j])), len(pieces[k]) + 1)

    join = max(range(len(pieces)), key=lambda k: (joined(k), -k))
    pieces[join] = sorted(pieces[join] + [removed])
    return [[members[v] for v in piece] for piece in pieces]


def batched_refine_all(clusters, graph, iterate):
    """refine_all by batched_refine, one pass or to a fixed point."""
    pending = [list(c) for c in clusters.clusters]
    done = []
    while pending:
        split = []
        for cluster in pending:
            pieces = batched_refine(sorted(cluster), graph)
            if pieces is None or len(pieces) == 1:
                done.append(cluster)
            else:
                split.extend(pieces)
        if not iterate:
            return ClusterSet.from_groups(done + split)
        pending = split
    return ClusterSet.from_groups(done)


def dict_contingency(c, c_true):
    """Record counts per (cluster, truth cluster), a dict built record by
    record, so its keys come in order of each cell's first record."""
    table = {}
    for key in zip(c.labels.tolist(), c_true.labels.tolist()):
        table[key] = table.get(key, 0) + 1
    return table


def dict_purity(table, n, side):
    best = {}
    for key, cnt in table.items():
        if cnt > best.get(key[side], 0):
            best[key[side]] = cnt
    return sum(best.values()) / n


def pair_count(clusters):
    return sum(comb(len(r), 2) for r in clusters.clusters)


def dict_z_rand(n, n_c, n_g, w):
    t = comb(n, 2)
    if t < 2 or n_c == 0 or n_g == 0:
        return None
    mean = n_c * n_g / t
    var = n_g * (n_c / t) * (1 - n_c / t) * (t - n_g) / (t - 1)
    if var <= 0:
        return None
    return (w - mean) / math.sqrt(var)


def entropy(clusters, n):
    sizes = np.array([len(r) for r in clusters.clusters], dtype=float)
    frac = sizes / n
    return float(max(-(frac * np.log(frac + ENTROPY_EPS)).sum(), 0.0))


def dict_nmi(table, c, c_true, n):
    sizes_c = [len(r) for r in c.clusters]
    sizes_t = [len(r) for r in c_true.clusters]
    info = 0.0
    for (i, j), cnt in table.items():
        info += (cnt / n) * math.log(n * cnt / (sizes_c[i] * sizes_t[j]))
    denom = math.sqrt(entropy(c, n) * entropy(c_true, n))
    if denom <= 0:
        return 0.0
    return float(min(max(info / denom, 0.0), 1.0))


def dict_evaluate(c, c_true, tau=None):
    """evaluation.evaluate from the dict table, one Python step per cell."""
    if c.n != c_true.n:
        raise ValueError("partitions cover different numbers of records")
    n = c.n
    table = dict_contingency(c, c_true)
    pur, inv = dict_purity(table, n, 0), dict_purity(table, n, 1)
    n_c, n_g = pair_count(c), pair_count(c_true)
    overlap = sum(comb(cnt, 2) for cnt in table.values())
    z = dict_z_rand(n, n_c, n_g, overlap)
    z_self = dict_z_rand(n, n_g, n_g, n_g)
    return MetricsReport(
        purity=pur,
        inverse_purity=inv,
        harmonic_mean=2 * pur * inv / (pur + inv) if pur + inv > 0 else 0.0,
        rel_cluster_error=abs(c.c - c_true.c) / c_true.c,
        precision=overlap / n_c if n_c > 0 else None,
        recall=overlap / n_g if n_g > 0 else None,
        f1=2 * overlap / (n_c + n_g) if n_c > 0 and n_g > 0 else None,
        z_rand=z,
        rel_z_rand=None if z is None or not z_self else z / z_self,
        nmi=dict_nmi(table, c, c_true, n),
        n=n,
        c=c.c,
        c_true=c_true.c,
        tau=tau,
    )
