"""Topology-based link scorers evaluated on a train graph.

_FORMS lists each method's two forms. Its pair kernel (train, arr, spec)
scores an (m, 2) pair array in float64; those are the numbers of record.
Its block form (train, lo, hi, spec) scores sources lo..hi-1 against every
node, bit-identical to the pair kernel. Only lpi reads spec.epsilon and only
lrw spec.walk_steps. Scoring is pure and every score is finite; memory is
bounded by one budget, _CHUNK_BUDGET, whichever hubs a chunk draws, and
for lrw's walk by its column batch.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .graph import _as_pair_array

# One budget bounds the pair kernels' memory: the sparse row entries one
# pair chunk may build, and the uint64 words (2**21 = 16 MiB) of the
# (nnz, S / 64) gather of one BFS level over S sources. Pair budgets of
# 2**20 to 2**22 ran equally fast on a 500k-edge graph, but lp-large's two
# lpi cells took 2.67 -> 2.88 s at 2**20.
_CHUNK_BUDGET = 1 << 21

# lrw walks a column batch as sparse columns until this share of its n * b
# entries is stored, then as dense columns
_DENSE_SHARE = 1 / 8


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
        if not _is_number(self.epsilon) or not self.epsilon > 0:
            raise ValueError(f"epsilon must be a finite number > 0, got {self.epsilon!r}")
        if not _is_number(self.walk_steps, numbers.Integral) or self.walk_steps < 2:
            raise ValueError(f"walk_steps must be an integer >= 2, got {self.walk_steps!r}")


def _is_number(value, kind=numbers.Real) -> bool:
    """Whether value is a kind of number, finite if real, and not a bool."""
    return (isinstance(value, kind) and not isinstance(value, bool)
            and (kind is numbers.Integral or math.isfinite(value)))


def _reciprocal(x):
    """1 / x where x > 0, else 0, in float64; broadcasts."""
    x = np.asarray(x, dtype=np.float64)
    return np.divide(1.0, x, out=np.zeros_like(x), where=x > 0)


def _score_pa(train, arr, spec) -> np.ndarray:
    deg = train.degrees
    return (deg[arr[:, 0]] * deg[arr[:, 1]]).astype(np.float64)


def _chunks(total, step):
    for lo in range(0, total, step):
        yield lo, min(lo + step, total)


def _budget_chunks(cost):
    """Yield (lo, hi) slices that cut items 0..len(cost)-1 into consecutive
    chunks. Item k costs cost[k] + 1, so free items still fill a chunk. A
    chunk costs at most _CHUNK_BUDGET, except that an item over budget gets
    a chunk of its own, so a caller whose costs count the entries an item
    builds holds O(_CHUNK_BUDGET + items) entries at a time."""
    ends = np.cumsum(np.asarray(cost, dtype=np.int64) + 1)
    lo = 0
    while lo < ends.size:
        spent = ends[lo - 1] if lo else 0
        hi = int(np.searchsorted(ends, spent + _CHUNK_BUDGET, side="right"))
        hi = max(hi, lo + 1)
        yield lo, hi
        lo = hi


def _overlap_sum(A, B, arr):
    """sum_z A[i, z] * B[j, z] per pair (i, j).

    A chunk of pairs costs the entries of its rows, nnz(A[i]) + nnz(B[j])
    per pair, cut by _budget_chunks; peak memory is O(budget + pairs),
    whichever hubs a chunk draws. Each row sums its own entries
    index-ascending, so the result depends neither on endpoint order nor
    on where the chunks are cut.
    """
    cost = np.diff(A.indptr)[arr[:, 0]] + np.diff(B.indptr)[arr[:, 1]]
    out = np.empty(arr.shape[0], dtype=np.float64)
    for lo, hi in _budget_chunks(cost):
        rows = A[arr[lo:hi, 0]].multiply(B[arr[lo:hi, 1]])
        out[lo:hi] = np.asarray(rows.sum(axis=1)).ravel()
    return out


def _score_cn(train, arr, spec):
    A = train.to_scipy_csr()
    return _overlap_sum(A, A, arr)


def _jaccard(cn, deg_a, deg_b):
    """cn over the union size deg_a + deg_b - cn, and 0 where the union is
    empty; broadcasts."""
    union = deg_a + deg_b - cn
    out = np.zeros_like(cn)
    np.divide(cn, union, out=out, where=union > 0)
    return out


def _score_jaccard(train, arr, spec):
    deg = train.degrees.astype(np.float64)
    return _jaccard(_score_cn(train, arr, spec), deg[arr[:, 0]], deg[arr[:, 1]])


def _column_weighted(A, weights):
    return sparse.csr_matrix(A.multiply(weights[np.newaxis, :]))


def _score_weighted_cn(train, arr, weights):
    A = train.to_scipy_csr()
    return _overlap_sum(A, _column_weighted(A, weights), arr)


def _score_adamic_adar(train, arr, spec):
    # degree <= 1 nodes weigh 0: ln(1) = 0, and they carry no signal anyway
    w = _reciprocal(np.log(np.maximum(train.degrees, 1)))
    return _score_weighted_cn(train, arr, w)


def _score_resource_alloc(train, arr, spec):
    return _score_weighted_cn(train, arr, _reciprocal(train.degrees))


def _score_lpi(train, arr, spec):
    """paths2 + epsilon * paths3, the 2- and 3-walk counts of each pair.

    paths3(i, j) is A^2[i] . A[j], a symmetric integer, so each pair takes
    its A^2 row from the endpoint with the smaller two-hop volume
    vol2 = A @ deg, which bounds the entries of that row. A chunk costs
    vol2[src] + deg[trg] per pair, cut by _budget_chunks; peak memory is
    O(budget + pairs), whichever hubs a chunk draws. Every term is an
    exact integer in float64, so neither orientation nor chunking moves a
    score.
    """
    A = train.to_scipy_csr()
    deg = train.degrees
    vol2 = (A @ deg).astype(np.int64)
    flip = vol2[arr[:, 1]] < vol2[arr[:, 0]]
    src = np.where(flip, arr[:, 1], arr[:, 0])
    trg = np.where(flip, arr[:, 0], arr[:, 1])
    paths3 = np.empty(arr.shape[0], dtype=np.float64)
    for lo, hi in _budget_chunks(vol2[src] + deg[trg]):
        walks = (A[src[lo:hi]] @ A).multiply(A[trg[lo:hi]])
        paths3[lo:hi] = np.asarray(walks.sum(axis=1)).ravel()
    return _overlap_sum(A, A, arr) + spec.epsilon * paths3


def _bfs_batch(A):
    """Sources per BFS batch: a multiple S of 64 whose (nnz, S / 64) level
    gather holds at most max(_CHUNK_BUDGET, nnz) uint64 words."""
    return 64 * max(1, _CHUNK_BUDGET // max(A.nnz, 1))


def _bfs_levels(A, sources):
    """Yield (d, words) for d = 1, 2, ... of a bit-parallel BFS from every
    node of ``sources`` (distinct ids) at once.

    words is an (n, ceil(S / 64)) uint64 array: bit k of words[v, k // 64] is
    set when node v is exactly d hops from sources[k]. Each level is one
    gather of the frontier over A's column ids and one OR-reduction per
    non-empty row (multi-source BFS; Then et al., PVLDB 2014). Stops when no
    node is newly reached. Peak memory is O((n + nnz) * S / 64) words.
    """
    k = np.arange(sources.size)
    visited = np.zeros((A.shape[0], -(-sources.size // 64)), dtype=np.uint64)
    visited[sources, k // 64] = np.uint64(1) << (k % 64).astype(np.uint64)
    frontier = visited.copy()
    rows = np.flatnonzero(np.diff(A.indptr))
    starts = A.indptr[rows]
    for d in itertools.count(1):
        nxt = np.zeros_like(visited)
        nxt[rows] = np.bitwise_or.reduceat(frontier[A.indices], starts, axis=0)
        nxt &= ~visited
        if not nxt.any():
            return
        visited |= nxt
        yield d, nxt
        frontier = nxt


def _score_shortest_path(train, arr, spec):
    A = train.to_scipy_csr()
    # self-pairs keep d = 0 and score 0, as do pairs never reached
    dist = np.zeros(arr.shape[0], dtype=np.float64)
    pairs = np.flatnonzero(arr[:, 0] != arr[:, 1])
    uniq, src_of = np.unique(arr[pairs, 0], return_inverse=True)
    for lo, hi in _chunks(uniq.size, _bfs_batch(A)):
        sel = (src_of >= lo) & (src_of < hi)
        todo, k = pairs[sel], src_of[sel] - lo
        word, bit = k // 64, np.uint64(1) << (k % 64).astype(np.uint64)
        for d, words in _bfs_levels(A, uniq[lo:hi]):
            hit = (words[arr[todo, 1], word] & bit) != 0
            dist[todo[hit]] = d
            todo, word, bit = todo[~hit], word[~hit], bit[~hit]
            if todo.size == 0:
                break
    return _reciprocal(dist)


def _lrw_operators(train):
    """(q, P^T) of the local random walk: q = deg / 2m and P = D^-1 A.
    An edgeless graph has deg = 0, so q = 0 and every lrw score is +0.0."""
    deg = train.degrees.astype(np.float64)
    q = deg / max(2.0 * train.num_edges, 1.0)
    # with A symmetric, P^T is A with columns scaled by 1/deg
    return q, _column_weighted(train.to_scipy_csr(), _reciprocal(deg))


def _walk_columns(PT, nodes, steps):
    """Yield (lo, hi, cols) where cols[:, k] is column nodes[lo + k] of
    (P^T)^steps, walked in batches of b = max(16, min(256, 2e7 // n))
    columns and yielded as a dense (n, b) array.

    A batch starts as a sparse selection and takes each step as a CSR @
    CSR product until its stored entries pass n * b * _DENSE_SHARE; the
    remaining steps are CSR @ dense products. Both products sum each entry
    over P^T's row in stored order from 0, and the sparse one only skips
    terms that are exactly 0, so the bits depend neither on where the
    batch turns dense nor on the batch it is walked in. Peak memory is
    O(n * b) floats, at most 256 * n and at most 2e7 until n passes
    1.25e6, as long as the caller drops cols before it asks for the next.
    """
    n = PT.shape[0]
    # 2e7 / n floats in 16..256 columns, not max(16, _CHUNK_BUDGET // n):
    # the rec-lfr train graph's four lrw blocks (n = 2,000) took 0.18 ->
    # 0.24 s at the latter's 1,048 columns, and lp-price cells (n = 5,000,
    # 419 columns) 0.10 -> 0.10-0.12 s, best of 5
    batch = max(16, min(256, int(2e7 // max(n, 1))))
    for lo, hi in _chunks(nodes.size, batch):
        b = hi - lo
        cols = sparse.csr_matrix((np.ones(b), (nodes[lo:hi], np.arange(b))),
                                 shape=(n, b))
        for _ in range(steps):
            if sparse.issparse(cols) and cols.nnz > n * b * _DENSE_SHARE:
                cols = cols.toarray()
            cols = PT @ cols
        yield lo, hi, cols.toarray() if sparse.issparse(cols) else cols


def _last_step(PT, W, rows, cols):
    """(P^T @ W)[rows[k], cols[k]] per k, summed over P^T's row in stored
    order as the dense product sums it; O(_CHUNK_BUDGET + k) entries."""
    out = np.empty(rows.size, dtype=np.float64)
    ones = np.ones(PT.shape[1])
    for lo, hi in _budget_chunks(np.diff(PT.indptr)[rows]):
        R = PT[rows[lo:hi]]
        R.data *= W[R.indices, np.repeat(cols[lo:hi], np.diff(R.indptr))]
        out[lo:hi] = R @ ones
    return out


def _score_lrw(train, arr, spec):
    q, PT = _lrw_operators(train)
    uniq, col_of = np.unique(arr, return_inverse=True)
    col_of = col_of.reshape(arr.shape)
    # entry k < m is pi(arr[k, 0] -> arr[k, 1]), entry m + k the reverse:
    # row `row` of (P^T)^s in the walked column `col`
    m = arr.shape[0]
    row = np.concatenate([arr[:, 1], arr[:, 0]])
    col = np.concatenate([col_of[:, 0], col_of[:, 1]])
    pi = np.empty(2 * m, dtype=np.float64)
    for lo, hi, W in _walk_columns(PT, uniq, spec.walk_steps - 1):
        sel = np.flatnonzero((col >= lo) & (col < hi))
        pi[sel] = _last_step(PT, W, row[sel], col[sel] - lo)
        del W  # one batch alive while the next is walked
    return q[arr[:, 0]] * pi[:m] + q[arr[:, 1]] * pi[m:]


def _block_pa(train, lo, hi, spec):
    deg = train.degrees
    return np.multiply.outer(deg[lo:hi], deg).astype(np.float64)


def _block_cn(train, lo, hi, spec):
    A = train.to_scipy_csr()
    return (A[lo:hi] @ A).toarray()


def _block_jaccard(train, lo, hi, spec):
    deg = train.degrees.astype(np.float64)
    return _jaccard(_block_cn(train, lo, hi, spec), deg[lo:hi, None], deg[None, :])


def _block_on_support(train, lo, hi, spec):
    """Block form that scores only the pairs with a common neighbour, the
    nonzeros of A[lo:hi] @ A, with the pair kernel of spec.method; every
    other score of a common-neighbour sum is exactly 0.

    A weighted product A[lo:hi] @ (A diag(w)) would sum in another order and
    move scores by a few ulp, so the pair kernel keeps the numbers.
    """
    A = train.to_scipy_csr()
    support = (A[lo:hi] @ A).tocoo()
    rows = support.row.astype(np.int64)
    cols = support.col.astype(np.int64)
    out = np.zeros((hi - lo, train.num_nodes), dtype=np.float64)
    pairs = np.stack([rows + lo, cols], axis=1)
    out[rows, cols] = _FORMS[spec.method][0](train, pairs, spec)
    return out


def _block_lpi(train, lo, hi, spec):
    A = train.to_scipy_csr()
    paths2 = A[lo:hi] @ A
    return paths2.toarray() + spec.epsilon * (paths2 @ A).toarray()


def _block_shortest_path(train, lo, hi, spec):
    A = train.to_scipy_csr()
    dist = np.zeros((hi - lo, train.num_nodes), dtype=np.float64)
    for b_lo, b_hi in _chunks(hi - lo, _bfs_batch(A)):
        for d, words in _bfs_levels(A, np.arange(lo + b_lo, lo + b_hi)):
            octets = words.astype("<u8", copy=False).view(np.uint8)
            bits = np.unpackbits(octets, axis=1, count=b_hi - b_lo,
                                 bitorder="little")
            dist[b_lo:b_hi][bits.T.view(bool)] = d
    return _reciprocal(dist)


def _block_lrw(train, lo, hi, spec):
    n = train.num_nodes
    q, PT = _lrw_operators(train)
    # with W = (P^T)^(s-1): fwd[:, r] is column lo + r of P^T @ W and
    # bwd[r] its row lo + r
    fwd = np.empty((n, hi - lo), dtype=np.float64)
    bwd = np.empty((hi - lo, n), dtype=np.float64)
    rows = PT[lo:hi]
    for c_lo, c_hi, W in _walk_columns(PT, np.arange(n), spec.walk_steps - 1):
        a, b = max(lo, c_lo), min(hi, c_hi)
        if a < b:
            fwd[:, a - lo:b - lo] = PT @ W[:, a - c_lo:b - c_lo]
        bwd[:, c_lo:c_hi] = rows @ W
        del W  # one batch alive while the next is walked
    # q_i fwd + q_j bwd in either order of the (commutative) float sum; a
    # contiguous copy of fwd.T halves the time of its strided read
    bwd *= q[None, :]
    bwd += q[lo:hi, None] * np.ascontiguousarray(fwd.T)
    return bwd


# method -> (pair kernel, block form), equal bit for bit
_FORMS = {
    "pa": (_score_pa, _block_pa),
    "cn": (_score_cn, _block_cn),
    "jaccard": (_score_jaccard, _block_jaccard),
    "adamic_adar": (_score_adamic_adar, _block_on_support),
    "resource_alloc": (_score_resource_alloc, _block_on_support),
    "lpi": (_score_lpi, _block_lpi),
    "shortest_path": (_score_shortest_path, _block_shortest_path),
    "lrw": (_score_lrw, _block_lrw),
}
METHODS = tuple(_FORMS)


def _check_finite(scores, method):
    if not np.all(np.isfinite(scores)):
        raise ArithmeticError(f"non-finite score produced by {method}")
    return scores


def score_method(train, pairs, spec: MethodSpec) -> np.ndarray:
    """Scores of ``spec.method`` for an (m, 2) pair array on the train graph.

    The common-neighbour family (cn, jaccard, adamic_adar, resource_alloc)
    and lpi build sparse rows for chunks of pairs, so their peak memory is
    O(_CHUNK_BUDGET + pairs) entries, whichever hubs a chunk draws. lrw
    adds O(n * b) floats for its walk of b = max(16, min(256, 2e7 // n))
    columns at a time.

    Raises ValueError for a malformed pair array or ids outside the train
    graph, and ArithmeticError if the kernel yields a non-finite score.
    """
    arr = _as_pair_array(pairs, train.num_nodes)
    if arr.size == 0:
        return np.zeros(0, dtype=np.float64)
    return _check_finite(_FORMS[spec.method][0](train, arr, spec), spec.method)


def score_block(train, lo: int, hi: int, spec: MethodSpec) -> np.ndarray:
    """Scores of sources lo..hi-1 against every node, as a (hi - lo, n) array.

    Row r, column j holds the score of the pair (lo + r, j): the result is
    bit-identical to score_method on the block's row-major pair list,
    reshaped, but no pair list is built except for adamic_adar and
    resource_alloc, which score only their support (the nonzeros of
    A[lo:hi] @ A) in pair chunks of at most _CHUNK_BUDGET row entries. Peak
    memory is O((hi - lo) * n), plus O(n * b) floats for lrw's walk of
    b = max(16, min(256, 2e7 // n)) columns at a time, the support of
    A[lo:hi] @ A, and for shortest_path a BFS level gather of at most
    max(_CHUNK_BUDGET, nnz) words with level arrays n / nnz its size.

    Raises ValueError unless 0 <= lo <= hi <= n, and ArithmeticError if the
    block holds a non-finite score.
    """
    n = train.num_nodes
    if not 0 <= lo <= hi <= n:
        raise ValueError(f"source block [{lo}, {hi}) out of range for the "
                         f"train graph's {n} nodes")
    return _check_finite(_FORMS[spec.method][1](train, lo, hi, spec), spec.method)
