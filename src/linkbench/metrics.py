"""Evaluation metrics: AUC, top-C recommendation lists, VCMPR and RBO."""

from __future__ import annotations

import numpy as np
from scipy.stats import rankdata

from .graph import _as_pair_array
from .predictors import MethodSpec, score_method


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


# sources scored per score_method call in top_c_recommend
_REC_BLOCK = 512


def top_c_recommend(train, spec: MethodSpec, top_c: int = 50) -> list:
    """Per-node top-C candidate lists from exhaustive scoring.

    Returns one int64 array per node: items[i] holds candidate ids for
    source i, best first, and has length min(top_c, n - 1 - deg i).
    Candidates never include i itself or its train neighbours, and ties are
    broken by ascending node id. Each block of sources is scored against
    all n nodes in one score_method call; self and neighbour pairs are then
    masked to +inf in the negated scores, and one stable argsort per block
    orders the rest. Peak memory is O(block * n) on top of the scorer's; the
    top-C columns are copied out, so the result holds O(n * top_c) ids.
    """
    if top_c < 1:
        raise ValueError("top_c must be >= 1")
    n = train.num_nodes
    deg = train.degrees
    items: list = []
    for lo in range(0, n, _REC_BLOCK):
        hi = min(lo + _REC_BLOCK, n)
        rows = np.arange(hi - lo)
        pairs = np.stack([np.repeat(np.arange(lo, hi), n),
                          np.tile(np.arange(n), hi - lo)], axis=1)
        neg = -score_method(train, pairs, spec).reshape(hi - lo, n)
        neg[rows, rows + lo] = np.inf
        neg[np.repeat(rows, deg[lo:hi]),
            train.indices[train.indptr[lo]:train.indptr[hi]]] = np.inf
        top = np.argsort(neg, axis=1, kind="stable")[:, :top_c].copy()
        keep = np.minimum(top_c, n - 1 - deg[lo:hi])
        items.extend(top[r, :k] for r, k in zip(rows, keep))
    return items


def vcmpr_per_node(items: list, positives, top_c: int) -> list:
    """Per-node VCMPR@C terms of top_c_recommend's lists, ascending by node.

    One (node, hits, partners, precision, recall, vcmpr) tuple per node
    with at least one held-out partner. precision = hits / C, recall =
    hits / partners, and vcmpr is the larger of the two. Positives name
    node ids in [0, len(items)); any other id raises ValueError.
    """
    if top_c < 1:
        raise ValueError("top_c must be >= 1")
    pos = _as_pair_array(positives)
    if pos.size == 0:
        raise ValueError("no node has a held-out positive partner")
    bad = pos[(pos < 0) | (pos >= len(items))]
    if bad.size:
        raise ValueError(f"positive node id {bad[0]} out of range "
                         f"[0, {len(items)})")
    partners: dict = {}
    for i, j in pos:
        partners.setdefault(int(i), set()).add(int(j))
        partners.setdefault(int(j), set()).add(int(i))
    rows = []
    for node, mates in sorted(partners.items()):
        hits = len(mates.intersection(items[node][:top_c].tolist()))
        precision = hits / top_c
        recall = hits / len(mates)
        rows.append((node, hits, len(mates), precision, recall,
                     max(precision, recall)))
    return rows


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
    p^(d-1), and the agreement at full depth extrapolates the tail.
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
    return float((1 - p) * total + p ** depth * agreement)
