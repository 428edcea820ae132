"""Topology-based link scorers evaluated on a train graph.

Each scorer takes the train graph and an (m, 2) array of node pairs and
returns float64 scores. Scoring is pure: repeated calls with the same
arguments return bit-identical arrays, and all scores are finite. Pair
batches are chunked internally to bound memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .graph import _as_pair_array

METHODS = (
    "pa",
    "cn",
    "jaccard",
    "adamic_adar",
    "resource_alloc",
    "lpi",
    "shortest_path",
    "lrw",
)

_PAIR_CHUNK = 1 << 18


@dataclass(frozen=True)
class MethodSpec:
    """A method id plus the knobs that some methods take.

    epsilon weights 3-step walk counts in lpi; walk_steps is the walk
    length used by lrw. Both are ignored by the other methods.
    """

    method: str
    epsilon: float = 0.01
    walk_steps: int = 3

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be > 0")
        if self.walk_steps < 2:
            raise ValueError("walk_steps must be >= 2")

    def params(self) -> dict:
        """Keyword arguments of this method's kernel."""
        if self.method == "lpi":
            return {"epsilon": self.epsilon}
        if self.method == "lrw":
            return {"walk_steps": self.walk_steps}
        return {}


def _score_pa(train, arr) -> np.ndarray:
    deg = train.degrees
    return (deg[arr[:, 0]] * deg[arr[:, 1]]).astype(np.float64)


def _chunks(total, step):
    for lo in range(0, total, step):
        yield lo, min(lo + step, total)


def _overlap_sum(A, B, arr):
    """sum_z A[i, z] * B[j, z] per pair (i, j), _PAIR_CHUNK pairs at a time.

    Accumulation is index-ascending, so the result is independent of
    endpoint order.
    """
    out = np.empty(arr.shape[0], dtype=np.float64)
    for lo, hi in _chunks(arr.shape[0], _PAIR_CHUNK):
        rows = A[arr[lo:hi, 0]].multiply(B[arr[lo:hi, 1]])
        out[lo:hi] = np.asarray(rows.sum(axis=1)).ravel()
    return out


def _score_cn(train, arr):
    A = train.to_scipy_csr()
    return _overlap_sum(A, A, arr)


def _score_jaccard(train, arr):
    cn = _score_cn(train, arr)
    deg = train.degrees.astype(np.float64)
    union = deg[arr[:, 0]] + deg[arr[:, 1]] - cn
    out = np.zeros_like(cn)
    np.divide(cn, union, out=out, where=union > 0)
    return out


def _column_weighted(A, weights):
    return sparse.csr_matrix(A.multiply(weights[np.newaxis, :]))


def _score_weighted_cn(train, arr, weights):
    A = train.to_scipy_csr()
    return _overlap_sum(A, _column_weighted(A, weights), arr)


def _score_adamic_adar(train, arr):
    deg = train.degrees
    w = np.zeros(train.num_nodes, dtype=np.float64)
    big = deg >= 2  # ln(1) = 0 would blow up, degree <= 1 hubs carry no signal anyway
    w[big] = 1.0 / np.log(deg[big].astype(np.float64))
    return _score_weighted_cn(train, arr, w)


def _score_resource_alloc(train, arr):
    deg = train.degrees
    w = np.zeros(train.num_nodes, dtype=np.float64)
    pos = deg >= 1
    w[pos] = 1.0 / deg[pos].astype(np.float64)
    return _score_weighted_cn(train, arr, w)


def _score_lpi(train, arr, epsilon):
    A = train.to_scipy_csr()
    out = np.empty(arr.shape[0], dtype=np.float64)
    for lo, hi in _chunks(arr.shape[0], 1 << 15):
        src = arr[lo:hi, 0]
        trg = arr[lo:hi, 1]
        paths2 = _overlap_sum(A, A, arr[lo:hi])
        # walk counts of length 3: rows of A^2 for the sources, dotted with
        # the target rows; integer-valued, so exact in float64
        paths3 = np.asarray((A[src] @ A).multiply(A[trg]).sum(axis=1)).ravel()
        out[lo:hi] = paths2 + epsilon * paths3
    return out


def _score_shortest_path(train, arr):
    A = train.to_scipy_csr()
    uniq = np.unique(arr[:, 0])
    row_of = np.searchsorted(uniq, arr[:, 0])
    dist = np.empty(arr.shape[0], dtype=np.float64)
    batch = max(1, int(4e6 // max(train.num_nodes, 1)))
    for lo, hi in _chunks(uniq.size, batch):
        d = csgraph.dijkstra(A, directed=True, unweighted=True, indices=uniq[lo:hi])
        sel = (row_of >= lo) & (row_of < hi)
        dist[sel] = d[row_of[sel] - lo, arr[sel, 1]]
    out = np.zeros(arr.shape[0], dtype=np.float64)
    ok = np.isfinite(dist) & (dist > 0)
    out[ok] = 1.0 / dist[ok]
    return out


def _score_lrw(train, arr, walk_steps):
    n = train.num_nodes
    m2 = 2.0 * train.num_edges
    if m2 == 0:
        return np.zeros(arr.shape[0], dtype=np.float64)
    deg = train.degrees.astype(np.float64)
    q = deg / m2
    inv = np.zeros(n, dtype=np.float64)
    nz = deg > 0
    inv[nz] = 1.0 / deg[nz]
    A = train.to_scipy_csr()
    # P = D^-1 A; with A symmetric, P^T is A with columns scaled by 1/deg
    PT = _column_weighted(A, inv)

    uniq, col_of = np.unique(arr, return_inverse=True)
    col_of = col_of.reshape(arr.shape)
    pi_fwd = np.zeros(arr.shape[0], dtype=np.float64)
    pi_bwd = np.zeros(arr.shape[0], dtype=np.float64)
    batch = max(16, min(1024, int(2e7 // max(n, 1))))
    for lo, hi in _chunks(uniq.size, batch):
        cols = np.zeros((n, hi - lo), dtype=np.float64)
        cols[uniq[lo:hi], np.arange(hi - lo)] = 1.0
        for _ in range(walk_steps):
            cols = PT @ cols
        sel = (col_of[:, 0] >= lo) & (col_of[:, 0] < hi)
        pi_fwd[sel] = cols[arr[sel, 1], col_of[sel, 0] - lo]
        sel = (col_of[:, 1] >= lo) & (col_of[:, 1] < hi)
        pi_bwd[sel] = cols[arr[sel, 0], col_of[sel, 1] - lo]
    return q[arr[:, 0]] * pi_fwd + q[arr[:, 1]] * pi_bwd


_KERNELS = {
    "pa": _score_pa,
    "cn": _score_cn,
    "jaccard": _score_jaccard,
    "adamic_adar": _score_adamic_adar,
    "resource_alloc": _score_resource_alloc,
    "lpi": _score_lpi,
    "shortest_path": _score_shortest_path,
    "lrw": _score_lrw,
}


def score_method(train, pairs, spec: MethodSpec) -> np.ndarray:
    """Scores of ``spec.method`` for an (m, 2) pair array on the train graph.

    Raises ValueError for a malformed pair array or ids outside the train
    graph, and ArithmeticError if the kernel yields a non-finite score.
    """
    arr = _as_pair_array(pairs)
    if arr.size == 0:
        return np.zeros(0, dtype=np.float64)
    if arr.min() < 0 or arr.max() >= train.num_nodes:
        raise ValueError("pair ids out of range for the train graph")
    scores = _KERNELS[spec.method](train, arr, **spec.params())
    if not np.all(np.isfinite(scores)):
        raise ArithmeticError(f"non-finite score produced by {spec.method}")
    return scores
