"""Evaluation metrics: AUC, top-C recommendation lists, VCMPR and RBO."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata

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


@dataclass(frozen=True)
class Recommendations:
    """Per-node ordered candidate lists of length <= top_c.

    items[i] holds candidate node ids for source i, best first; scores[i]
    the matching scores. Candidates never include i itself or its train
    neighbors. Ties are broken by ascending node id.
    """

    items: list
    scores: list
    top_c: int
    method: str


def top_c_recommend(train, spec: MethodSpec, top_c: int = 50,
                    block: int = 512) -> Recommendations:
    """Exhaustively score all eligible candidates per node and keep the top C."""
    if top_c < 1:
        raise ValueError("top_c must be >= 1")
    n = train.num_nodes
    items: list = [None] * n
    scores_out: list = [None] * n
    all_ids = np.arange(n, dtype=np.int64)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        pair_blocks = []
        cand_blocks = []
        for i in range(lo, hi):
            mask = np.ones(n, dtype=bool)
            mask[i] = False
            mask[train.neighbors(i)] = False
            cand = all_ids[mask]
            cand_blocks.append(cand)
            pair_blocks.append(
                np.stack([np.full(cand.size, i, dtype=np.int64), cand], axis=1))
        pairs = (np.concatenate(pair_blocks)
                 if pair_blocks else np.zeros((0, 2), dtype=np.int64))
        vals = score_method(train, pairs, spec)
        pos = 0
        for i in range(lo, hi):
            cand = cand_blocks[i - lo]
            v = vals[pos:pos + cand.size]
            pos += cand.size
            # stable sort on descending score keeps ascending-id tie order,
            # because cand is already ascending
            order = np.argsort(-v, kind="stable")[:top_c]
            items[i] = cand[order]
            scores_out[i] = v[order]
    return Recommendations(items=items, scores=scores_out, top_c=top_c,
                           method=spec.method)


def vcmpr_per_node(recs: Recommendations, positives, top_c: int) -> list:
    """Per-node VCMPR@C terms, ascending by node.

    One (node, hits, partners, precision, recall, vcmpr) tuple per node
    with at least one held-out partner. precision = hits / C, recall =
    hits / partners, and vcmpr is the larger of the two.
    """
    if top_c < 1:
        raise ValueError("top_c must be >= 1")
    pos = np.asarray(positives, dtype=np.int64)
    if pos.size == 0:
        raise ValueError("no node has a held-out positive partner")
    partners: dict = {}
    for i, j in pos.reshape(-1, 2):
        partners.setdefault(int(i), set()).add(int(j))
        partners.setdefault(int(j), set()).add(int(i))
    rows = []
    for node, mates in sorted(partners.items()):
        hits = len(mates.intersection(recs.items[node][:top_c].tolist()))
        precision = hits / top_c
        recall = hits / len(mates)
        rows.append((node, hits, len(mates), precision, recall,
                     max(precision, recall)))
    return rows


def vcmpr_at_c(recs: Recommendations, positives, top_c: int) -> float:
    """Mean over nodes with held-out partners of max(precision@C, recall@C).

    Nodes without any held-out partner are skipped; see vcmpr_per_node.
    """
    return float(np.mean([row[-1] for row in
                          vcmpr_per_node(recs, positives, top_c)]))


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
