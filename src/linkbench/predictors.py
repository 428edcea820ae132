"""Topology-based link scorers evaluated on a train graph.

_FORMS lists each method's two forms. Its pair kernel (train, arr, spec)
scores an (m, 2) pair array in float64; those are the numbers of record.
Its block form (train, lo, hi, spec) scores sources lo..hi-1 against every
node, bit-identical to the pair kernel: a dense (hi - lo, n) array, or for
the common-neighbour family a CSR matrix of its support. Only lpi reads
spec.epsilon and only lrw spec.walk_steps. Scoring is pure and every score
is finite (the cn family's one-entry cache on the train graph moves no
score); memory is bounded by one budget, _CHUNK_BUDGET, whichever hubs a
chunk draws, and for lrw's walk by its column batch.
"""

from __future__ import annotations

import bisect
import itertools
import numbers
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .graph import _as_pair_array, _is_number

# One budget bounds the pair kernels' memory: the sparse row entries one
# pair chunk may build (lpi: a quarter for rows of A^2, a quarter for its
# lookup cells), and the uint64 words (2**21 = 16 MiB) that one BFS level
# over S sources gathers, nnz * S / 64, a 32nd of them at a time. Budgets
# a factor of 2 either side ran no faster.
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


def _reciprocal(x):
    """1 / x where x > 0, else 0, in float64; broadcasts."""
    x = np.asarray(x, dtype=np.float64)
    return np.divide(1.0, x, out=np.zeros_like(x), where=x > 0)


def _score_pa(train, arr, spec) -> np.ndarray:
    deg = train.degrees
    return (deg[arr[:, 0]] * deg[arr[:, 1]]).astype(np.float64)


def _chunks(cost, budget, rows=None):
    """Yield (lo, hi) slices that cut items 0..len(cost)-1 into consecutive
    chunks. Item k takes cost[k] >= 1 cells on row rows[k] (non-decreasing;
    None puts every item on one row). A chunk's grid, the rows it spans
    times the cells its items take, holds at most budget cells, except that
    an item over budget gets a chunk of its own. So a caller whose cost
    counts the entries an item builds, plus 1 where that can be 0, holds
    O(budget + items) entries at a time, whichever items a chunk draws."""
    ends = np.cumsum(cost)
    lo = 0
    while lo < ends.size:
        spent = ends[lo - 1] if lo else 0

        def cells(k):  # of the chunk lo..k
            span = 1 if rows is None else rows[k] - rows[lo] + 1
            return span * (ends[k] - spent)

        hi = bisect.bisect_right(range(ends.size), budget, lo=lo, key=cells)
        hi = max(hi, lo + 1)
        yield lo, hi
        lo = hi


def _column_weighted(A, weights):
    """A's pattern, in A's stored order, with data weights[column]."""
    return sparse.csr_matrix((weights[A.indices], A.indices, A.indptr),
                             shape=A.shape)


def _common_pattern(train, arr):
    """The common neighbours z of each pair (i, j) of a non-empty arr, as
    that pair's row of a read-only bool CSR pattern, in ascending z.

    A chunk of pairs takes the intersections A[i].multiply(A[j]) of its
    rows, deg(i) + deg(j) entries per pair cut by _chunks, so peak memory
    is O(n + budget + pairs + sum cn) words, whichever hubs a chunk draws,
    and the pattern keeps O(pairs + sum cn) of them.
    """
    # bool entries: the row gathers and their intersections move one byte
    # per entry where A's float64 ones move eight
    A = _column_weighted(train.to_scipy_csr(),
                         np.ones(train.num_nodes, dtype=bool))
    deg = train.degrees
    cost = deg[arr[:, 0]] + deg[arr[:, 1]] + 1
    pattern = sparse.vstack([A[arr[lo:hi, 0]].multiply(A[arr[lo:hi, 1]])
                             for lo, hi in _chunks(cost, _CHUNK_BUDGET)],
                            format="csr")
    for part in (pattern.data, pattern.indices, pattern.indptr):
        part.flags.writeable = False
    return pattern


def _shared_pattern(train, arr):
    """_common_pattern(train, arr) through train's one-entry cache, keyed
    by the pair array's content: the cache holds read-only copies of arr
    and its pattern until another pair array replaces them. It is filled
    without a lock: threads that race each build an equal pattern and
    score from their own, so a race costs only duplicate work.
    """
    cached = train._common
    if cached is not None and np.array_equal(cached[0], arr):
        return cached[1]
    pattern = _common_pattern(train, arr)
    key = arr.copy()
    key.flags.writeable = False
    train._common = (key, pattern)
    return pattern


def _common_sum(pattern, weights):
    """sum of weights[z] over each row's z of a common-neighbour pattern.

    weights[z] goes on the pattern's indices and indptr, which
    eliminate_zeros compacts in place: a read-only pattern, the shared
    pair cache, is copied first, and a writable one is the caller's to
    spend. Terms exactly 0 are dropped, and each row is summed by scipy's
    row sum: np.add.reduceat over its terms in ascending z, which is
    neither a running sum nor np.sum, and whose pairwise blocks shift when
    a 0.0 term stays. Neither endpoint order nor chunk borders move a
    result.
    """
    terms = _column_weighted(pattern, weights)
    if not pattern.indices.flags.writeable:
        terms = terms.copy()
    terms.eliminate_zeros()
    return np.asarray(terms.sum(axis=1)).ravel()


# method -> the weight w[z] that a common neighbour z adds, from the
# degrees; adamic_adar weighs degree <= 1 by 0, as ln(1) = 0
_CN_WEIGHTS = {
    "adamic_adar": lambda deg: _reciprocal(np.log(np.maximum(deg, 1))),
    "resource_alloc": _reciprocal,
}


def _common_scores(deg, arr, method, counts, pattern=None):
    """Scores of the pairs arr from counts[k], pair k's number of common
    neighbours, and for adamic_adar and resource_alloc their pattern, whose
    row k lists them in ascending z: cn is the count, jaccard divides it
    by the union size (0 where it is empty), and adamic_adar and
    resource_alloc sum _CN_WEIGHTS over the pattern's rows."""
    if method in _CN_WEIGHTS:
        return _common_sum(pattern, _CN_WEIGHTS[method](deg))
    cn = counts.astype(np.float64)
    if method == "cn":
        return cn
    union = deg[arr[:, 0]] + deg[arr[:, 1]] - cn
    return np.divide(cn, union, out=np.zeros_like(cn), where=union > 0)


def _score_common(train, arr, spec):
    pattern = _shared_pattern(train, arr)
    return _common_scores(train.degrees, arr, spec.method,
                          np.diff(pattern.indptr), pattern)


def _gather_entries(Z, rows, cols, slot, buf):
    """Z[rows[k], cols[k]] per k, as int64.

    A sparse accumulator (Gustavson, ACM TOMS 4(3), 1978) over a compact
    column space: slot, an n-sized array of -1, numbers cols 0..w-1; the
    entries of Z's rows r0..r1-1 (the span of rows) that fall on them are
    scattered into buf, keyed by (row - r0) * w + number, read back, and
    cleared, as is slot. buf must be all 0 and hold (r1 - r0) * w cells.
    """
    r0, r1 = rows.min(), rows.max() + 1
    width = cols.size
    slot[cols] = np.arange(width)
    z = slice(Z.indptr[r0], Z.indptr[r1])
    col = slot[Z.indices[z]]
    hit = np.flatnonzero(col >= 0)
    row = np.searchsorted(Z.indptr[r0 + 1:r1 + 1], hit + z.start, side="right")
    at = row * width + col[hit]
    buf[at] = Z.data[z][hit]
    out = buf[(rows - r0) * width + slot[cols]]
    buf[at] = 0
    slot[cols] = -1
    return out


def _hub_masks(train):
    """(light, mask) of train's hubs, its 64 highest-degree nodes in
    stable (-deg, id) order (every node when n <= 64): light[z] is 1.0,
    or 0.0 on a hub, and bit r of mask[v] is set when v is adjacent to hub
    r. Built from the CSR in O(n + m), on each call."""
    deg = train.degrees
    k = min(64, deg.size)
    # the nodes above the k-th largest degree, then the lowest ids at it
    cut = np.partition(deg, deg.size - k)[deg.size - k]
    hubs = np.concatenate([np.flatnonzero(deg > cut),
                           np.flatnonzero(deg == cut)])[:k]
    hubs = hubs[np.lexsort((hubs, -deg[hubs]))]
    light = np.ones(train.num_nodes)
    light[hubs] = 0.0
    mask = np.zeros(train.num_nodes, dtype=np.uint64)
    ptr, ids = train.indptr, train.indices
    for r, h in enumerate(hubs.tolist()):
        mask[ids[ptr[h]:ptr[h + 1]]] |= np.uint64(1) << np.uint64(r)
    return light, mask


def _score_lpi(train, arr, spec):
    """paths2 + epsilon * paths3, the 2- and 3-walk counts of each pair.

    Both are read off one endpoint's row of A^2, which is symmetric: for
    either orientation (e, o) of a pair, paths2 = A^2[e, o] and paths3 =
    sum of A^2[e, v] over v in N(o). Each pair expands its higher-degree
    endpoint e, the one that pairs share most, and the pairs are sorted by
    e, so each distinct e's row is built once per call.

    The middle nodes z of the walks e - z - v split by degree (Alon,
    Yuster and Zwick, Algorithmica 17(3), 1997): A^2[e, v] = light(e, v)
    + popcount(mask[e] & mask[v]), where the masks of _hub_masks count the
    walks through the 64 hubs, a word per node, and light the others. The
    light rows are Z = A[E] @ A with A[E]'s hub columns dropped, for
    chunks E of distinct e whose light two-hop volumes, A @ (deg * light),
    add up to a quarter of _CHUNK_BUDGET. Sub-chunks of a chunk's pairs
    read their o and N(o) entries of Z through one lookup buffer
    (_gather_entries) of (rows spanned) x (ids read) cells, cut to a
    quarter of _CHUNK_BUDGET by _chunks, and add the masks' popcounts.

    Peak memory is O(n + pairs + _CHUNK_BUDGET) words plus the n mask
    words, whichever hubs a chunk draws: a chunk or sub-chunk over budget
    holds one e or one pair, and so at most n entries of Z and 1 + deg(o)
    <= n cells. Every count is an integer summed in int64, so neither
    orientation, the split nor chunking moves a score.
    """
    A = train.to_scipy_csr()
    if A.nnz == 0:  # no walks, and no A.indices to read from below
        return np.zeros(arr.shape[0], dtype=np.float64)
    deg = train.degrees
    budget = _CHUNK_BUDGET // 4
    light, mask = _hub_masks(train)
    flip = deg[arr[:, 1]] > deg[arr[:, 0]]
    e = np.where(flip, arr[:, 1], arr[:, 0])
    order = np.argsort(e, kind="stable")
    e = e[order]
    o = np.where(flip, arr[:, 0], arr[:, 1])[order]
    # row[k] numbers pair k's e among the distinct e; heads[r] is row r's
    # first pair
    new = np.r_[True, e[1:] != e[:-1]]
    row = np.cumsum(new) - 1
    heads = np.append(np.flatnonzero(new), e.size)
    vol2 = (A @ (deg * light)).astype(np.int64)
    # paths2 and paths3 in sorted order
    walks = np.empty((2, e.size), dtype=np.int64)
    slot = np.full(train.num_nodes, -1, dtype=np.int64)
    buf = np.zeros(0, dtype=np.int64)
    for g_lo, g_hi in _chunks(vol2[e[heads[:-1]]] + 1, budget):
        E = e[heads[g_lo:g_hi]]
        hub_bits = mask[E]
        # A[E] is the chunk's own copy, so its hub entries can be dropped
        # in place
        R = _column_weighted(A[E], light)
        R.eliminate_zeros()
        Z = R @ A
        part = slice(heads[g_lo], heads[g_hi])
        others, z_row, out = o[part], row[part] - g_lo, walks[:, part]
        reads = 1 + deg[others]
        for lo, hi in _chunks(reads, budget, rows=z_row):
            # pair k reads o at first[k], then N(o) from A.indices; at[first]
            # would point before o's neighbours, so it reads entry 0 instead
            count = reads[lo:hi]
            first = np.cumsum(count) - count
            at = np.repeat(A.indptr[others[lo:hi]] - first - 1, count)
            at += np.arange(at.size)
            at[first] = 0
            cols = A.indices[at]
            cols[first] = others[lo:hi]
            rows = np.repeat(z_row[lo:hi], count)
            cells = (rows[-1] - rows[0] + 1) * cols.size
            if buf.size < cells:
                buf = np.zeros(cells, dtype=np.int64)
            got = _gather_entries(Z, rows, cols, slot, buf)
            got += np.bitwise_count(hub_bits[rows] & mask[cols])
            out[0, lo:hi] = got[first]
            out[1, lo:hi] = np.add.reduceat(got, first) - got[first]
    paths = np.empty((2, e.size), dtype=np.float64)
    paths[:, order] = walks
    return paths[0] + spec.epsilon * paths[1]


def _bfs_batch(A):
    """Sources per BFS batch: a multiple S of 64 whose levels gather, over
    all of their chunks, at most max(_CHUNK_BUDGET, nnz) uint64 words, the
    (nnz, S / 64) words of one whole-level gather."""
    return 64 * max(1, _CHUNK_BUDGET // max(A.nnz, 1))


def _bfs_levels(A, sources):
    """Yield (d, words) for d = 1, 2, ... of a bit-parallel BFS from every
    node of ``sources`` (distinct ids) at once.

    words is an (n, w) uint64 array, w = ceil(S / 64): bit k of words[v, k
    // 64] is set when node v is exactly d hops from sources[k]. Each level
    gathers the frontier over A's column ids and ORs it per non-empty row
    (multi-source BFS; Then et al., PVLDB 2014), for chunks of rows that
    _chunks cuts at deg(row) * w words, a 32nd of _CHUNK_BUDGET, so that a
    chunk's gather stays in cache; a row over that stands alone. Stops when
    no node is newly reached. Peak memory is O(n * w + _CHUNK_BUDGET / 32)
    words, as a row's gather holds deg(row) * w <= n * w of them.
    """
    width = -(-sources.size // 64)
    k = np.arange(sources.size)
    visited = np.zeros((A.shape[0], width), dtype=np.uint64)
    visited[sources, k // 64] = np.uint64(1) << (k % 64).astype(np.uint64)
    frontier = visited.copy()
    rows = np.flatnonzero(np.diff(A.indptr))
    starts = A.indptr[rows]
    ends = A.indptr[rows + 1]
    # a chunk's gather at this budget stays in cache, where one gather of
    # the whole level does not
    cuts = [lo for lo, _ in _chunks((ends - starts) * width,
                                    _CHUNK_BUDGET >> 5)] + [rows.size]
    for d in itertools.count(1):
        nxt = np.zeros_like(visited)
        for lo, hi in itertools.pairwise(cuts):
            ids = A.indices[starts[lo]:ends[hi - 1]]
            nxt[rows[lo:hi]] = np.bitwise_or.reduceat(
                frontier[ids], starts[lo:hi] - starts[lo], axis=0)
        nxt &= ~visited
        if not nxt.any():
            return
        visited |= nxt
        yield d, nxt
        frontier = nxt


def _score_shortest_path(train, arr, spec):
    A = train.to_scipy_csr()
    # self-pairs and pairs across components keep d = 0 and score 0; every
    # other pair is reached, so a batch stops at its farthest pair
    label = csgraph.connected_components(A, directed=False)[1]
    dist = np.zeros(arr.shape[0], dtype=np.float64)
    pairs = np.flatnonzero((arr[:, 0] != arr[:, 1])
                           & (label[arr[:, 0]] == label[arr[:, 1]]))
    uniq, src_of = np.unique(arr[pairs, 0], return_inverse=True)
    for lo, hi in _chunks(np.ones(uniq.size, dtype=np.int64), _bfs_batch(A)):
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
    # 2e7 / n floats in 16..256 columns, not max(16, _CHUNK_BUDGET // n),
    # whose wider batches walked slower
    batch = max(16, min(256, int(2e7 // max(n, 1))))
    for lo, hi in _chunks(np.ones(nodes.size, dtype=np.int64), batch):
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
    for lo, hi in _chunks(np.diff(PT.indptr)[rows] + 1, _CHUNK_BUDGET):
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
    # a float64 product rounds the exact degree product once, as the pair
    # kernel's cast of its int64 product does, with no (block, n) int64 copy
    deg = train.degrees.astype(np.float64)
    return np.multiply.outer(deg[lo:hi], deg)


def _walk_scores(train, lo, hi, method):
    """Scores of sources lo..hi-1 on their support, as a CSR matrix with
    sorted column ids, in O(walks + n) words. Their walks i - z - j, z in
    N(i) ascending and j in N(z), are keyed by (i, j): a group of equal
    keys is a support pair, and its size the pair's common-neighbour
    count. cn and jaccard read only that, so one plain sort groups the
    keys; adamic_adar and resource_alloc sort them stably, which gives
    each pair its _common_pattern row, in ascending z."""
    ptr, ids, deg = train.indptr, train.indices, train.degrees
    n = train.num_nodes
    z = ids[ptr[lo]:ptr[hi]]
    run = deg[z]
    # walk k reads its j at ids[key[k]], then is keyed (i - lo) * n + j
    key = np.repeat(ptr[z] - np.cumsum(run) + run, run)
    key += np.arange(key.size)
    key = ids[key]
    key += np.repeat(np.repeat(np.arange(hi - lo) * n, deg[lo:hi]), run)
    weighted = method in _CN_WEIGHTS
    if weighted:
        order = np.argsort(key, kind="stable")
        key = key[order]
    else:
        # an in-place sort, faster than a stable argsort and gather
        key.sort()
    heads = np.flatnonzero(np.diff(key, prepend=-1))
    arr = np.empty((heads.size, 2), dtype=key.dtype)
    np.divmod(key[heads], n, out=(arr[:, 0], arr[:, 1]))
    arr[:, 0] += lo
    bounds = np.append(heads, key.size)
    # each walk-sized array is dropped once read, which lowers the peak
    del key, heads
    counts = pattern = None
    if weighted:
        pattern = sparse.csr_matrix(
            (np.ones(order.size, dtype=bool), np.repeat(z, run)[order],
             bounds), shape=(bounds.size - 1, n))
        del order
    else:
        counts = np.diff(bounds)
    del bounds
    scores = _common_scores(deg, arr, method, counts, pattern)
    return sparse.csr_matrix(
        (scores, arr[:, 1], np.searchsorted(arr[:, 0], np.arange(lo, hi + 1))),
        shape=(hi - lo, n))


def _block_common(train, lo, hi, spec):
    """Block form of the common-neighbour family: a CSR matrix with sorted
    column ids of the support, the pairs joined by a walk i - z - j (the
    nonzeros of A[lo:hi] @ A); every other score is exactly 0.

    Gustavson's row-by-row product (ACM TOMS 4(3), 1978), kept unsummed:
    _walk_scores lists and scores the walks of a chunk of sources at a
    time. _chunks cuts at a quarter of _CHUNK_BUDGET walks, vol2(i) = sum
    of deg z over z in N(i), and a source over budget, vol2 <= 2m, stands
    alone; splitting one would sum partial sums and move the bits. Peak
    memory is O(n + m + support + _CHUNK_BUDGET) words.
    """
    vol2 = (train.to_scipy_csr()[lo:hi] @ train.degrees).astype(np.int64)
    parts = [_walk_scores(train, lo + a, lo + b, spec.method)
             for a, b in _chunks(vol2 + 1, _CHUNK_BUDGET // 4)]
    return sparse.vstack(parts or [sparse.csr_matrix((0, train.num_nodes))],
                         format="csr")


def _block_lpi(train, lo, hi, spec):
    # where one term is not stored the sum is the other, as x + 0.0 is x
    A = train.to_scipy_csr()
    paths2 = A[lo:hi] @ A
    return (paths2 + spec.epsilon * (paths2 @ A)).toarray()


def _block_shortest_path(train, lo, hi, spec):
    """Block form of shortest_path, by BFS batches of S sources. Each level
    d is ORed into the bit planes of d: plane i holds the levels whose bit
    i is set. After the BFS each of its b = ceil(log2(D + 1)) planes, D
    the batch's last level, is unpacked once into an (n, S) array of hop
    counts in the smallest unsigned type that holds D, which one transpose
    turns into 1 / d through a table of the D + 1 reciprocals. Peak memory
    is the (hi - lo, n) float64 block plus O(n * S) bytes and O(b * n * S
    / 64 + n * 64 + _CHUNK_BUDGET / 32) words.
    """
    A = train.to_scipy_csr()
    n = train.num_nodes
    out = np.empty((hi - lo, n), dtype=np.float64)
    for b_lo, b_hi in _chunks(np.ones(hi - lo, dtype=np.int64), _bfs_batch(A)):
        size = b_hi - b_lo
        planes, far = [], 0
        for far, words in _bfs_levels(A, np.arange(lo + b_lo, lo + b_hi)):
            if far.bit_length() > len(planes):
                planes.append(np.zeros_like(words))
            for i, plane in enumerate(planes):
                if far >> i & 1:
                    plane |= words
        # hops[v, k] is node v's distance from source lo + b_lo + k, and 0
        # where v is that source or is not reached from it
        hops = np.zeros((n, size), dtype=np.min_scalar_type(far))
        for i, plane in enumerate(planes):
            octets = plane.astype("<u8", copy=False).view(np.uint8)
            bits = np.unpackbits(octets, axis=1, count=size, bitorder="little")
            hops |= bits.astype(hops.dtype, copy=False) << i
        # take copies its index as intp, so 64 sources go at a time; clip
        # mode (every d is in range) writes to the block unbuffered, faster
        # than a cast and masked divide
        recip = _reciprocal(np.arange(far + 1))
        rows = out[b_lo:b_hi]
        for c in range(0, size, 64):
            np.take(recip, hops[:, c:c + 64].T, out=rows[c:c + 64],
                    mode="clip")
    return out


def _block_lrw(train, lo, hi, spec):
    n = train.num_nodes
    q, PT = _lrw_operators(train)
    # with W = (P^T)^(s-1), entry (i, j) is q_j (P^T @ W)[i, j] + q_i (P^T @
    # W)[j, i], each term added to +0.0 as its batch is walked: the first add
    # is exact and the float sum commutes, so it rounds once either way
    out = np.zeros((hi - lo, n), dtype=np.float64)
    rows = PT[lo:hi]
    for c_lo, c_hi, W in _walk_columns(PT, np.arange(n), spec.walk_steps - 1):
        out[:, c_lo:c_hi] += (rows @ W) * q[c_lo:c_hi]
        a, b = max(lo, c_lo), min(hi, c_hi)
        if a < b:
            out[a - lo:b - lo] += (q[a:b, None]
                                   * (PT @ W[:, a - c_lo:b - c_lo]).T)
        del W  # one batch alive while the next is walked
    return out


# method -> (pair kernel, block form), equal bit for bit
_FORMS = {
    "pa": (_score_pa, _block_pa),
    "cn": (_score_common, _block_common),
    "jaccard": (_score_common, _block_common),
    "adamic_adar": (_score_common, _block_common),
    "resource_alloc": (_score_common, _block_common),
    "lpi": (_score_lpi, _block_lpi),
    "shortest_path": (_score_shortest_path, _block_shortest_path),
    "lrw": (_score_lrw, _block_lrw),
}
METHODS = tuple(_FORMS)


def _check_finite(scores, method):
    # two reductions, with no mask the size of a dense block: a NaN carries
    # through both, and an infinity shows in one of them
    values = scores.data if sparse.issparse(scores) else scores
    ends = [values.min(initial=0.0), values.max(initial=0.0)]
    if not np.isfinite(ends).all():
        raise ArithmeticError(f"non-finite score produced by {method}")
    return scores


def score_method(train, pairs, spec: MethodSpec) -> np.ndarray:
    """Scores of ``spec.method`` for an (m, 2) pair array on the train graph.

    The common-neighbour family (cn, jaccard, adamic_adar, resource_alloc)
    intersects sparse rows for chunks of pairs, with no copy of A, once per
    pair array: the train graph keeps a read-only copy of the last array
    and its common neighbours, so the four methods of a link-prediction
    cell share one pass, paid by the first of them. Peak memory is O(n +
    _CHUNK_BUDGET + pairs + sum cn) words, whichever hubs a chunk draws,
    and the graph keeps O(pairs + sum cn) of them until another pair array
    replaces them. lpi counts the 2-walks through the 64 highest-degree
    nodes with one uint64 hub mask per node, builds the other middle
    nodes' A^2 row once per distinct higher-degree endpoint, for chunks of
    those endpoints, and reads each pair's entries from them through a
    lookup buffer that an n-sized array keys by compact column; its peak
    memory is O(n + pairs + _CHUNK_BUDGET) words plus the n mask words.
    lrw adds O(n * b) floats for its walk of b = max(16, min(256, 2e7 //
    n)) columns at a time. shortest_path labels the train graph's
    components once, so that pairs across them, which score 0, start no
    BFS, and runs its BFS in batches of S sources: O(n * S / 64 +
    _CHUNK_BUDGET / 32) words per batch, with S / 64 = max(1,
    _CHUNK_BUDGET // nnz).

    Raises ValueError for a malformed pair array or ids outside the train
    graph, and ArithmeticError if the kernel yields a non-finite score.
    """
    arr = _as_pair_array(pairs, train.num_nodes)
    if arr.size == 0:
        return np.zeros(0, dtype=np.float64)
    return _check_finite(_FORMS[spec.method][0](train, arr, spec), spec.method)
