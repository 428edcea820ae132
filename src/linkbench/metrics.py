"""Evaluation metrics: AUC, top-C recommendation lists, VCMPR and RBO."""

from __future__ import annotations

import math
import numbers

import numpy as np
from scipy import sparse
from scipy.stats import rankdata

from .graph import _as_pair_array, _is_number, sorted_unique
from .predictors import MethodSpec, score_block
# kept as metrics.score_method: bench/tracer.py wraps that name
from .predictors import score_method  # noqa: F401


def auc_roc(pos_scores, neg_scores) -> float:
    """Probability that a positive outranks a negative, ties at half credit.

    Rank-based Mann-Whitney estimator, O((n+m) log(n+m)). Exact, no
    threshold sweep.
    """
    pos = np.asarray(pos_scores, dtype=np.float64).ravel()
    neg = np.asarray(neg_scores, dtype=np.float64).ravel()
    if pos.size == 0 or neg.size == 0:
        raise ValueError("auc_roc needs at least one positive and one negative score")
    if np.isnan(pos).any() or np.isnan(neg).any():
        raise ValueError("scores contain NaN")
    ranks = rankdata(np.concatenate([pos, neg]))
    u = ranks[: pos.size].sum() - pos.size * (pos.size + 1) / 2.0
    return float(u / (pos.size * neg.size))


def _check_top_c(top_c) -> int:
    """top_c as an int; ValueError unless it is an integer in [1, 2**63),
    the int64 range that numpy takes a list length in. The int keeps a
    numpy uint64 from turning the list lengths into floats."""
    if not _is_number(top_c, numbers.Integral) or not 1 <= top_c < 2 ** 63:
        raise ValueError(
            f"top_c must be an integer in [1, 2**63), got {top_c!r}")
    return int(top_c)


# sources scored per score_block call in top_c_recommend. A dense block
# and its partition copy take 16 bytes per cell, 16 MiB at n = 2,000;
# sizing from predictors._CHUNK_BUDGET, 2**21 / n, would give rec-lfr
# blocks of 1,048 sources and double that. The common-neighbour family's
# support route takes no (block, n) array at any block size.
_REC_BLOCK = 512


def top_c_recommend(train, spec: MethodSpec, top_c: int = 50) -> list:
    """Per-node top-C candidate lists from exhaustive scoring.

    Returns one int64 array per node: items[i] holds candidate ids for
    source i, best first, and has length min(top_c, n - 1 - deg i).
    Candidates never include i itself or its train neighbours, and ties are
    broken by ascending node id. score_block scores each block of sources
    against all n nodes, with no (block, n) pair list, and each block takes
    one of two exact routes, neither of which sorts a whole row:

    - a dense (block, n) block (pa, lpi, shortest_path, lrw): its negated
      scores, self and neighbours masked to +inf, are cut at each row's
      C-th smallest value (np.partition), and the entries below the cut,
      plus the smallest ids at it, are ranked. One (block, n) float64
      array is alive at a time, beside _top_dense's partition copy or what
      score_block takes to build it (lrw's O(n * b) walk, lpi's sparse
      terms, shortest_path's bit planes);
    - a CSR block of the support of A[blk] @ A (cn, jaccard, adamic_adar,
      resource_alloc), every other score exactly 0, scored from a listing
      of the block's walks i - z - j, a chunk of sources at a time: the
      positive support entries off self and neighbours are ranked, and a
      row short of C is filled with its smallest ids outside them, self
      and neighbours, which all score 0. Peak memory is O(support + block
      * C + n + m + _CHUNK_BUDGET) words, with no (block, n) array: a
      chunk holds at most a quarter of _CHUNK_BUDGET walks, or one
      source's vol2 = sum of deg z over z in N(i), at most 2m.

    Both rank by (row, -score, id) in one stable sort (_ranked), and the
    result holds O(n * top_c) ids.
    """
    top_c = _check_top_c(top_c)
    n = train.num_nodes
    deg = train.degrees
    items: list = []
    for lo in range(0, n, _REC_BLOCK):
        hi = min(lo + _REC_BLOCK, n)
        scores = score_block(train, lo, hi, spec)
        keep = np.minimum(top_c, n - 1 - deg[lo:hi])
        route = _top_support if sparse.issparse(scores) else _top_dense
        ids = route(scores, _masked_keys(train, lo, hi), keep)
        ends = np.cumsum(keep)
        # slices, not np.split, which takes ~4 times as long per row
        items.extend(ids[a:b] for a, b in zip((ends - keep).tolist(),
                                               ends.tolist()))
        del scores  # one block alive while the next is scored
    return items


def _masked_keys(train, lo, hi):
    """Ascending keys r * n + j of the pairs (lo + r, j) that no list of
    the block may hold: each source with itself and its train neighbours."""
    n = train.num_nodes
    rows = np.arange(hi - lo)
    nbrs = train.indices[train.indptr[lo]:train.indptr[hi]]
    return np.sort(np.concatenate([rows * n + rows + lo,
                                   np.repeat(rows * n, train.degrees[lo:hi])
                                   + nbrs]))


def _ranked(keys, neg, n):
    """The ids j of entries at ascending keys r * n + j, ordered by row r,
    then by neg ascending; the sort is stable, so ties keep ascending id."""
    return keys[np.lexsort((neg, keys // n))] % n


def _top_dense(scores, masked, keep):
    """Row r's keep[r] best ids of a dense (block, n) score block, rows
    concatenated; the block is negated and masked in place.

    Each row's cut t is its c-th smallest negated score, c = max(keep): a
    row with fewer than c unmasked entries has c > keep[r] and t = +inf.
    The row keeps every entry below t and its smallest ids equal to t (a
    -0.0 equals a 0.0) up to keep[r] entries.
    """
    n = scores.shape[1]
    neg = np.negative(scores, out=scores)
    neg.flat[masked] = np.inf
    c = int(keep.max(initial=0))
    if c == 0:
        return np.zeros(0, dtype=np.int64)
    cut = np.partition(neg, c - 1, axis=1)[:, c - 1:c].copy()
    take = neg < cut
    need = keep - np.count_nonzero(take, axis=1)
    tie = np.flatnonzero(neg == cut)
    row = tie // n
    rank = np.arange(tie.size) - np.searchsorted(row, row)
    take.reshape(-1)[tie[rank < need[row]]] = True
    keys = np.flatnonzero(take)
    return _ranked(keys, np.take(neg, keys), n)


def _top_support(scores, masked, keep):
    """Row r's keep[r] best ids of a CSR score block with sorted column
    ids that stores every nonzero score, none negative, rows concatenated.

    The positive entries off the masked keys are ranked, at most keep[r]
    per row. The rest of row r is filled with its smallest ids outside
    them and the masked ones: over that row's ascending excluded ids e_i,
    i = 0, 1, ..., the j-th fill id is j + #{i : e_i - i <= j}.
    """
    b, n = scores.shape
    keys = np.repeat(np.arange(b) * n, np.diff(scores.indptr)) + scores.indices
    at = np.searchsorted(masked, keys)
    kept = at == masked.size
    kept[~kept] = masked[at[~kept]] != keys[~kept]
    kept &= scores.data > 0
    keys = keys[kept]
    ids = _ranked(keys, -scores.data[kept], n)
    row = keys // n
    counts = np.bincount(row, minlength=b)
    rank = np.arange(row.size) - (np.cumsum(counts) - counts)[row]
    top = np.minimum(counts, keep)
    start = np.cumsum(keep) - keep
    out = np.empty(int(keep.sum()), dtype=np.int64)
    sel = rank < keep[row]
    out[start[row[sel]] + rank[sel]] = ids[sel]

    fills = keep - top
    gone = np.sort(np.concatenate([masked, keys]))
    first = np.searchsorted(gone, np.arange(b) * n)
    # r * n + e_i - i over row r's excluded ids e_i: ascending, as e_i - i
    # never falls along a row and stays in [0, n)
    gaps = gone - (np.arange(gone.size) - first[gone // n])
    frow = np.repeat(np.arange(b), fills)
    j = np.arange(frow.size) - (np.cumsum(fills) - fills)[frow]
    fill = j + np.searchsorted(gaps, frow * n + j, side="right") - first[frow]
    out[start[frow] + top[frow] + j] = fill
    return out


def vcmpr_per_node(items: list, positives, top_c: int) -> list:
    """Per-node VCMPR@C terms of top_c_recommend's lists, ascending by node.

    One (node, hits, partners, precision, recall, vcmpr) tuple per node
    with at least one held-out partner. precision = hits / C, recall =
    hits / partners, and vcmpr is the larger of the two. Positives name
    node ids in [0, len(items)); any other id raises ValueError.
    """
    top_c = _check_top_c(top_c)
    pos = _as_pair_array(positives, len(items))
    if pos.size == 0:
        raise ValueError("no node has a held-out positive partner")
    # one key v * n + u per (node v, partner u), each pair in both
    # directions; sorting groups them by node, and repeats are dropped
    n = np.uint64(len(items))
    a = pos.astype(np.uint64)
    keys = sorted_unique(np.concatenate([a[:, 0] * n + a[:, 1],
                                         a[:, 1] * n + a[:, 0]]))
    owner = keys // n
    starts = np.flatnonzero(np.concatenate([[True], owner[1:] != owner[:-1]]))
    nodes = owner[starts]
    lists = [items[v][:top_c] for v in nodes.tolist()]
    listed = (np.repeat(nodes, [len(x) for x in lists]) * n
              + np.concatenate(lists).astype(np.uint64))
    # both key sets are distinct: a node's top-C ids never repeat
    hit = np.isin(keys, listed, assume_unique=True)
    hits = np.add.reduceat(hit.astype(np.int64), starts)
    mates = np.diff(np.append(starts, keys.size))
    # float64 division of small integers rounds as Python's int / int does
    precision = hits / top_c
    recall = hits / mates
    return list(zip(nodes.tolist(), hits.tolist(), mates.tolist(),
                    precision.tolist(), recall.tolist(),
                    np.maximum(precision, recall).tolist()))


def vcmpr_at_c(items: list, positives, top_c: int) -> float:
    """Mean over nodes with held-out partners of max(precision@C, recall@C).

    Nodes without any held-out partner are skipped; see vcmpr_per_node.
    """
    return float(np.mean([row[-1] for row in
                          vcmpr_per_node(items, positives, top_c)]))


def rbo(ranking_a, ranking_b, p: float) -> float:
    """Extrapolated rank-biased overlap of two conjoint rankings.

    Both rankings must order the same item set with no duplicates. Agreement
    at depth d is the prefix-overlap fraction; depths are weighted by
    p^(d-1), and the agreement at full depth extrapolates the tail. Equal
    rankings score exactly 1 and unequal ones below 1, also where the
    float sum would round to 1 or past it.
    """
    if not 0 < p < 1:
        raise ValueError("p must be in (0, 1)")
    a = list(ranking_a)
    b = list(ranking_b)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("rankings must be non-empty")
    if len(set(a)) != len(a) or len(set(b)) != len(b):
        raise ValueError("rankings must not contain duplicates")
    if set(a) != set(b) or len(a) != len(b):
        raise ValueError("rankings must order the same item set")
    if a == b:
        return 1.0
    depth = len(a)
    seen_a: set = set()
    seen_b: set = set()
    overlap = 0
    total = 0.0
    agreement = 0.0
    for d in range(1, depth + 1):
        x, y = a[d - 1], b[d - 1]
        if x == y:
            overlap += 1
        else:
            overlap += (1 if x in seen_b else 0) + (1 if y in seen_a else 0)
        seen_a.add(x)
        seen_b.add(y)
        agreement = overlap / d
        total += p ** (d - 1) * agreement
    return min(float((1 - p) * total + p ** depth * agreement),
               math.nextafter(1.0, 0.0))
