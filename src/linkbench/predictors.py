"""Topology-based link scorers evaluated on a train graph.

Each method has two forms. Its pair kernel takes the train graph and an
(m, 2) array of node pairs and returns float64 scores; those are the
numbers of record. Its block form scores a range of sources against every
node and returns exactly the pair kernel's numbers, bit for bit. Scoring is
pure: repeated calls with the same arguments return bit-identical arrays,
and all scores are finite. Pair batches are chunked internally to bound
memory.
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


def _jaccard(cn, deg_a, deg_b):
    """cn over the union size deg_a + deg_b - cn, and 0 where the union is
    empty; broadcasts."""
    union = deg_a + deg_b - cn
    out = np.zeros_like(cn)
    np.divide(cn, union, out=out, where=union > 0)
    return out


def _score_jaccard(train, arr):
    deg = train.degrees.astype(np.float64)
    return _jaccard(_score_cn(train, arr), deg[arr[:, 0]], deg[arr[:, 1]])


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
    return _inverse_distance(dist)


def _inverse_distance(dist):
    """1 / d where the distance d is finite and positive, else 0."""
    out = np.zeros(dist.shape, dtype=np.float64)
    ok = np.isfinite(dist) & (dist > 0)
    out[ok] = 1.0 / dist[ok]
    return out


def _lrw_operators(train):
    """(q, P^T) of the local random walk: q = deg / 2m and P = D^-1 A."""
    deg = train.degrees.astype(np.float64)
    q = deg / (2.0 * train.num_edges)
    inv = np.zeros(train.num_nodes, dtype=np.float64)
    nz = deg > 0
    inv[nz] = 1.0 / deg[nz]
    # with A symmetric, P^T is A with columns scaled by 1/deg
    return q, _column_weighted(train.to_scipy_csr(), inv)


def _walk_columns(PT, nodes, walk_steps):
    """Yield (lo, hi, cols) where cols[:, k] is column nodes[lo + k] of
    (P^T)^walk_steps, walked in batches of columns.

    A column of a CSR @ dense product does not depend on the batch it is
    walked in. Memory is O(n * batch) as long as the caller drops cols
    before it asks for the next batch.
    """
    n = PT.shape[0]
    batch = max(16, min(1024, int(2e7 // max(n, 1))))
    for lo, hi in _chunks(nodes.size, batch):
        cols = np.zeros((n, hi - lo), dtype=np.float64)
        cols[nodes[lo:hi], np.arange(hi - lo)] = 1.0
        for _ in range(walk_steps):
            cols = PT @ cols
        yield lo, hi, cols


def _score_lrw(train, arr, walk_steps):
    if train.num_edges == 0:
        return np.zeros(arr.shape[0], dtype=np.float64)
    q, PT = _lrw_operators(train)
    uniq, col_of = np.unique(arr, return_inverse=True)
    col_of = col_of.reshape(arr.shape)
    pi_fwd = np.zeros(arr.shape[0], dtype=np.float64)
    pi_bwd = np.zeros(arr.shape[0], dtype=np.float64)
    for lo, hi, cols in _walk_columns(PT, uniq, walk_steps):
        sel = (col_of[:, 0] >= lo) & (col_of[:, 0] < hi)
        pi_fwd[sel] = cols[arr[sel, 1], col_of[sel, 0] - lo]
        sel = (col_of[:, 1] >= lo) & (col_of[:, 1] < hi)
        pi_bwd[sel] = cols[arr[sel, 0], col_of[sel, 1] - lo]
        del cols  # one batch alive while the next is walked
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


def _block_pa(train, lo, hi):
    deg = train.degrees
    return np.multiply.outer(deg[lo:hi], deg).astype(np.float64)


def _block_cn(train, lo, hi):
    A = train.to_scipy_csr()
    return (A[lo:hi] @ A).toarray()


def _block_jaccard(train, lo, hi):
    deg = train.degrees.astype(np.float64)
    return _jaccard(_block_cn(train, lo, hi), deg[lo:hi, None], deg[None, :])


def _block_on_support(method):
    """Block form that scores only the pairs with a common neighbour, the
    nonzeros of A[lo:hi] @ A, with the method's pair kernel; every other
    score of a common-neighbour sum is exactly 0.

    A weighted product A[lo:hi] @ (A diag(w)) would sum in another order and
    move scores by a few ulp, so the pair kernel keeps the numbers.
    """
    def block(train, lo, hi):
        A = train.to_scipy_csr()
        support = (A[lo:hi] @ A).tocoo()
        rows = support.row.astype(np.int64)
        cols = support.col.astype(np.int64)
        out = np.zeros((hi - lo, train.num_nodes), dtype=np.float64)
        out[rows, cols] = _KERNELS[method](
            train, np.stack([rows + lo, cols], axis=1))
        return out
    return block


def _block_lpi(train, lo, hi, epsilon):
    A = train.to_scipy_csr()
    paths2 = A[lo:hi] @ A
    return paths2.toarray() + epsilon * (paths2 @ A).toarray()


def _block_shortest_path(train, lo, hi):
    A = train.to_scipy_csr()
    return _inverse_distance(csgraph.dijkstra(
        A, directed=True, unweighted=True, indices=np.arange(lo, hi)))


def _block_lrw(train, lo, hi, walk_steps):
    n = train.num_nodes
    if train.num_edges == 0:
        return np.zeros((hi - lo, n), dtype=np.float64)
    q, PT = _lrw_operators(train)
    # fwd[:, r] is column lo + r of (P^T)^s; bwd[r] is its row lo + r
    fwd = np.empty((n, hi - lo), dtype=np.float64)
    bwd = np.empty((hi - lo, n), dtype=np.float64)
    for c_lo, c_hi, cols in _walk_columns(PT, np.arange(n), walk_steps):
        a, b = max(lo, c_lo), min(hi, c_hi)
        if a < b:
            fwd[:, a - lo:b - lo] = cols[:, a - c_lo:b - c_lo]
        bwd[:, c_lo:c_hi] = cols[lo:hi]
        del cols  # one batch alive while the next is walked
    return q[lo:hi, None] * fwd.T + q[None, :] * bwd


# one block form per method; each equals its pair kernel bit for bit
_BLOCKS = {
    "pa": _block_pa,
    "cn": _block_cn,
    "jaccard": _block_jaccard,
    "adamic_adar": _block_on_support("adamic_adar"),
    "resource_alloc": _block_on_support("resource_alloc"),
    "lpi": _block_lpi,
    "shortest_path": _block_shortest_path,
    "lrw": _block_lrw,
}


def _check_finite(scores, method):
    if not np.all(np.isfinite(scores)):
        raise ArithmeticError(f"non-finite score produced by {method}")
    return scores


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
    return _check_finite(_KERNELS[spec.method](train, arr, **spec.params()),
                         spec.method)


def score_block(train, lo: int, hi: int, spec: MethodSpec) -> np.ndarray:
    """Scores of sources lo..hi-1 against every node, as a (hi - lo, n) array.

    Row r, column j holds the score of the pair (lo + r, j): the result is
    bit-identical to score_method on the block's row-major pair list,
    reshaped, but no pair list is built except for adamic_adar and
    resource_alloc, which score only their support (the nonzeros of
    A[lo:hi] @ A). Peak memory is O((hi - lo) * n), plus O(n * batch) for
    lrw's column walk and the support of A[lo:hi] @ A.

    Raises ValueError unless 0 <= lo <= hi <= n, and ArithmeticError if the
    block holds a non-finite score.
    """
    n = train.num_nodes
    if not 0 <= lo <= hi <= n:
        raise ValueError(f"source block [{lo}, {hi}) out of range for the "
                         f"train graph's {n} nodes")
    return _check_finite(_BLOCKS[spec.method](train, lo, hi, **spec.params()),
                         spec.method)
