"""Benchmark edge splitting and negative-pair sampling.

Positives are a uniform sample of edges; the train graph is the remainder.
Negatives come in two flavors that differ only in their endpoint table:
each endpoint is a uniform draw from a table of node ids. The uniform
sampler's table lists every node once, which makes negative endpoints follow
the plain degree law while positive endpoints follow the size-biased one.
The degree-corrected sampler's table lists every node once per incident
edge of the original graph, so negatives match the positives' endpoint law
and the benchmark stops rewarding degree alone.

Both samplers reject self-pairs, pairs already sampled and every edge of the
original graph, held-out positives included; both are deterministic per seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import (Graph, _as_pair_array, _decode_keys, _pair_keys,
                    build_graph)


class SaturationError(RuntimeError):
    """Rejection sampling exceeded its attempt budget."""


@dataclass(frozen=True)
class EdgeSplit:
    """A benchmark instance: train graph plus positive and negative pairs.

    positives and train edges partition the original edge set; negatives are
    distinct non-edges of the original graph, one per positive.
    """

    train: Graph
    positives: np.ndarray
    negatives: np.ndarray


def split_positive(g: Graph, beta: float, seed) -> tuple[Graph, np.ndarray]:
    """Hold out round(beta * M) uniformly chosen edges as positives.

    The train graph keeps every node of g, so nodes isolated by the removal
    stay present with degree 0.

    Returns:
        (train, positives) with positives as a canonical (count, 2) array.
    """
    if not 0 < beta < 1:
        raise ValueError("beta must be in (0, 1)")
    m = g.num_edges
    if m == 0:
        raise ValueError("cannot split a graph with no edges")
    count = int(round(beta * m))
    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(m, size=count, replace=False))
    edges = g.edge_array()
    keep = np.ones(m, dtype=bool)
    keep[chosen] = False
    positives = edges[chosen]
    train = build_graph(edges[keep], num_nodes=g.num_nodes)
    return train, positives


def _available(table, g: Graph) -> int:
    """d * (d - 1) / 2 - M: the non-edges of g between the d distinct ids
    of a sorted endpoint table that lists both ends of every edge."""
    d = np.count_nonzero(table[1:] != table[:-1]) + 1 if table.size else 0
    return d * (d - 1) // 2 - g.num_edges


def _rejection_sample(table, g: Graph, count: int, seed) -> np.ndarray:
    """The first count distinct non-edges of g in proposal order, as
    canonical (lo, hi) pairs, both endpoints of every proposal drawn
    uniformly from the int64 id table. Raises SaturationError past
    1e4 * count proposals."""
    n = g.num_nodes
    rng = np.random.default_rng(seed)
    budget = 10_000 * count
    attempts = 0
    accepted = np.zeros(0, dtype=np.uint64)
    while accepted.size < count:
        size = min(max(1024, 2 * (count - accepted.size)), budget - attempts)
        if size <= 0:
            raise SaturationError(
                f"negative sampling used more than {budget} proposals "
                f"for {count} pairs; the graph is likely near-complete")
        attempts += size
        prop = table[rng.integers(0, table.size, size=(size, 2))]
        keys = _pair_keys(prop[prop[:, 0] != prop[:, 1]], n)
        if keys.size == 0:  # reduceat below takes no empty starts
            continue
        order = np.argsort(keys)
        ranked = keys[order]
        starts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
        earliest = np.minimum.reduceat(order, starts)  # the sort is unstable
        ranked = ranked[starts]
        keep = ~g._has_sorted_keys(ranked) & ~np.isin(ranked, accepted)
        fresh = keys[np.sort(earliest[keep])][:count - accepted.size]
        accepted = np.concatenate([accepted, fresh])
    return _decode_keys(accepted, n)


def sample_negative_uniform(g: Graph, count: int, seed) -> np.ndarray:
    """Sample distinct non-edges of g with endpoints uniform over its nodes:
    the endpoint table lists each node id once."""
    table = np.arange(g.num_nodes, dtype=np.int64)
    available = _available(table, g)
    if count > available:
        raise ValueError(
            f"requested {count} negatives but only {available} non-edges exist")
    return _rejection_sample(table, g, count, seed)


def sample_negative_degree_corrected(g: Graph, count: int, seed) -> np.ndarray:
    """Sample distinct non-edges of g, endpoints drawn proportional to degree:
    the endpoint table lists each node once per incident edge, in
    2 * num_edges int64 ids (O(m) memory), so nodes of degree 0 are never
    drawn."""
    if g.num_edges == 0:
        raise ValueError("degree-corrected sampling needs at least one edge")
    table = np.repeat(np.arange(g.num_nodes, dtype=np.int64), g.degrees)
    available = _available(table, g)
    if count > available:
        raise ValueError(
            f"requested {count} negatives but only {available} non-edges "
            f"exist between nodes of positive degree")
    return _rejection_sample(table, g, count, seed)


_SAMPLERS = {
    "uniform": sample_negative_uniform,
    "degree-corrected": sample_negative_degree_corrected,
}


def make_split(g: Graph, beta: float, sampler: str, seed: int) -> EdgeSplit:
    """Split positives and sample matching negatives in one step.

    The seed drives two independent streams (one for the split, one for the
    negatives) derived via SeedSequence, so one integer reproduces the whole
    instance.
    """
    if sampler not in _SAMPLERS:
        raise ValueError(f"unknown sampler {sampler!r}; expected one of "
                         f"{sorted(_SAMPLERS)}")
    split_seed, neg_seed = (int(s) for s in
                            np.random.SeedSequence(seed).generate_state(2, dtype=np.uint64))
    train, positives = split_positive(g, beta, split_seed)
    negatives = _SAMPLERS[sampler](g, positives.shape[0], neg_seed)
    return EdgeSplit(train=train, positives=positives, negatives=negatives)


def endpoint_degree_histogram(edges, g: Graph) -> np.ndarray:
    """Distribution of endpoint degrees over the 2 * |edges| endpoint slots.

    Index k of the result is the fraction of endpoint slots whose node has
    degree k in g. Degrees larger than g's maximum cannot occur, so the
    array has length max-degree + 1. An id outside [0, n) raises
    ValueError.
    """
    arr = _as_pair_array(edges, g.num_nodes)
    if arr.size == 0:
        raise ValueError("cannot build a histogram from zero edges")
    deg = g.degrees
    ends = deg[arr.ravel()]
    hist = np.bincount(ends, minlength=int(deg.max()) + 1).astype(np.float64)
    return hist / ends.size
