"""Immutable undirected simple graph stored as a sorted CSR adjacency.

Node ids are dense integers ``0..num_nodes-1``. Construction canonicalizes
the input pair list: self-loops and duplicate pairs are dropped and counted.
Every query is read-only, so one Graph instance can be shared freely across
threads and repeated calls.
"""

from __future__ import annotations

import math
import numbers

import numpy as np
from scipy import sparse


class EdgeListParseError(ValueError):
    """Raised when an edge-list file cannot be parsed. Mentions the line number."""


# Largest node count n whose pair keys lo * n + hi fit in uint64, and the
# ids an int64 array can hold.
_MAX_NODES = 2**32
_INT64_IDS = range(-2**63, 2**63)


def _is_number(value, kind=numbers.Real) -> bool:
    """Whether value is a kind of number, finite if real, and not a bool."""
    return (isinstance(value, kind) and not isinstance(value, bool)
            and (kind is numbers.Integral or math.isfinite(value)))


def _as_pair_array(pairs, num_nodes: int | None = None) -> np.ndarray:
    """pairs as an (m, 2) int64 array (an int64 one as it is). A bool, a
    fractional or non-finite number, an id beyond int64 and, with
    num_nodes, an id outside [0, num_nodes) raise ValueError naming it."""
    arr = pairs if isinstance(pairs, np.ndarray) else np.array(pairs, object)
    if arr.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected an (m, 2) pair array, got shape {arr.shape}")
    if arr.dtype != np.int64:
        if arr.dtype.kind not in "iu" or int(arr.max()) not in _INT64_IDS:
            for v in arr.ravel().tolist():
                if isinstance(v, (float, np.floating)) and np.isfinite(v):
                    v = int(v) if v == int(v) else v  # a whole float counts
                if (isinstance(v, bool) or not isinstance(v, (int, np.integer))
                        or int(v) not in _INT64_IDS):
                    raise ValueError(f"node id {v!r} is not an integer in "
                                     f"int64 range")
        arr = arr.astype(np.int64)
    if num_nodes is not None:
        bad = arr[(arr < 0) | (arr >= num_nodes)]
        if bad.size:
            raise ValueError(f"node id {bad[0]} out of range [0, {num_nodes})")
    return arr


def _pair_keys(pairs: np.ndarray, n: int) -> np.ndarray:
    """One uint64 key ``lo * n + hi`` per unordered pair of ids below n,
    where lo and hi are the smaller and larger id. Keys sort in the
    lexicographic order of (lo, hi)."""
    lo = np.minimum(pairs[:, 0], pairs[:, 1]).astype(np.uint64)
    hi = np.maximum(pairs[:, 0], pairs[:, 1]).astype(np.uint64)
    return lo * np.uint64(n) + hi


def _decode_keys(keys: np.ndarray, n: int) -> np.ndarray:
    """Inverse of _pair_keys: the (m, 2) int64 pairs (lo, hi) of keys."""
    return np.stack(np.divmod(keys, np.uint64(n)), axis=1).astype(np.int64)


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """keys sorted ascending with repeats dropped: np.unique's result by
    one sort and an adjacent-difference mask, which on uint64 keys is far
    faster than np.unique itself."""
    keys = np.sort(keys)
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


class Graph:
    """Simple undirected graph backed by CSR arrays ``indptr`` and ``indices``.

    Neighbor lists are sorted ascending, contain no self-references and no
    repeats, and every edge appears in both directions (so the degree sum is
    exactly twice the edge count). Alongside the CSR the graph keeps the
    sorted pair key ``lo * n + hi`` of every edge, 8 bytes per edge, from
    which edge_array and has_edges read. Instances are immutable: the
    backing arrays are marked read-only at construction.
    """

    __slots__ = (
        "_indptr",
        "_indices",
        "_keys",
        "dropped_self_loops",
        "dropped_duplicates",
        "_csr",
        "_common",
    )

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 keys: np.ndarray, dropped_self_loops: int = 0,
                 dropped_duplicates: int = 0):
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        for arr in (indptr, indices, keys):
            arr.flags.writeable = False
        self._indptr = indptr
        self._indices = indices
        self._keys = keys
        self.dropped_self_loops = int(dropped_self_loops)
        self.dropped_duplicates = int(dropped_duplicates)
        self._csr = None
        # predictors' one-entry cache: a pair array and its common
        # neighbours, shared by the cn-family methods that score it
        self._common = None

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self._indptr.size - 1

    @property
    def num_edges(self) -> int:
        return self._keys.size

    @property
    def indptr(self) -> np.ndarray:
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        return self._indices

    @property
    def degrees(self) -> np.ndarray:
        """Degree of every node, as an int64 array of length num_nodes."""
        return np.diff(self._indptr)

    def has_edges(self, pairs) -> np.ndarray:
        """Bool mask over an (m, 2) pair array: True where the pair, in
        either orientation, is an edge. Self-pairs give False.

        Raises ValueError for a malformed array or an id outside [0, n).
        The query keys are sorted first, so each binary search over the
        sorted edge keys starts where the last one ended and memory is read
        in order; the mask is then put back in query order.
        """
        n = self.num_nodes
        keys = _pair_keys(_as_pair_array(pairs, n), n)
        order = np.argsort(keys)
        hit = np.empty(keys.size, dtype=bool)
        hit[order] = self._has_sorted_keys(keys[order])
        return hit

    def _has_sorted_keys(self, queries: np.ndarray) -> np.ndarray:
        """Bool mask over ascending pair keys: True at an edge's key."""
        edges = self._keys
        pos = np.searchsorted(edges, queries)
        found = pos < edges.size
        found[found] = edges[pos[found]] == queries[found]
        return found

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------

    def edge_array(self) -> np.ndarray:
        """Canonical (M, 2) edge array with i < j, lexicographically sorted.

        Decoded from the edge keys into a new array on each call.
        """
        return _decode_keys(self._keys, self.num_nodes)

    def to_scipy_csr(self) -> sparse.csr_matrix:
        """Adjacency as a scipy CSR matrix with float64 ones (cached).

        Every caller shares it, so its arrays are read-only. The cache is
        filled without a lock: threads that race on the first call each
        build an equal matrix, so a race costs only duplicate work.
        """
        if self._csr is None:
            n = self.num_nodes
            data = np.ones(self._indices.size, dtype=np.float64)
            mat = sparse.csr_matrix(
                (data, self._indices, self._indptr), shape=(n, n))
            for arr in (mat.data, mat.indices, mat.indptr):
                arr.flags.writeable = False
            self._csr = mat
        return self._csr

    def __repr__(self) -> str:
        return f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"


def build_graph(pairs, num_nodes: int | None = None) -> Graph:
    """Build a Graph from raw (i, j) pairs.

    Self-loops and duplicate pairs (in either orientation) are dropped; the
    counts are recorded on the instance as ``dropped_self_loops`` and
    ``dropped_duplicates``. Isolated nodes are kept when ``num_nodes`` says
    they exist.

    Args:
        pairs: iterable or array of node-id pairs.
        num_nodes: total node count. Defaults to max id + 1.

    Returns:
        Graph with sorted CSR adjacency.
    """
    arr = _as_pair_array(pairs)
    if num_nodes is None:
        num_nodes = int(arr.max()) + 1 if arr.size else 0
    num_nodes = int(num_nodes)
    if num_nodes > _MAX_NODES:
        # checked before indptr, whose size is num_nodes, is allocated
        raise ValueError(f"node id {num_nodes - 1} is too large: ids must be "
                         f"below {_MAX_NODES} so pair keys fit in 64 bits")
    arr = _as_pair_array(arr, num_nodes)

    loop = arr[:, 0] == arr[:, 1]
    keys = _pair_keys(arr[~loop], num_nodes)
    edge_keys = sorted_unique(keys)
    # both directions as row * n + col keys: sorted, they list the CSR
    n = np.uint64(num_nodes)
    lo, hi = np.divmod(edge_keys, n)
    rows, cols = np.divmod(np.sort(np.concatenate([edge_keys, hi * n + lo])), n)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows.astype(np.int64), minlength=num_nodes),
              out=indptr[1:])
    return Graph(indptr, cols, edge_keys,
                 dropped_self_loops=np.count_nonzero(loop),
                 dropped_duplicates=keys.size - edge_keys.size)


# ----------------------------------------------------------------------
# edge-list text I/O
# ----------------------------------------------------------------------

def read_edge_list(path) -> np.ndarray:
    """Read integer pairs from a text file.

    Accepts whitespace- or comma-separated ids, one pair per line. Blank
    lines and lines starting with '#' are skipped. EdgeListParseError names
    the line of a malformed line, and an id beyond int64.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            tokens = text.replace(",", " ").split()
            if len(tokens) != 2:
                raise EdgeListParseError(
                    f"{path}: line {ln}: expected two ids, got {len(tokens)} tokens")
            try:
                rows.append((int(tokens[0]), int(tokens[1])))
            except ValueError as exc:
                raise EdgeListParseError(
                    f"{path}: line {ln}: non-integer token in {text!r}") from exc
    if not rows:
        return np.zeros((0, 2), dtype=np.int64)
    try:
        return np.asarray(rows, dtype=np.int64)
    except OverflowError:
        bad = next(v for pair in rows for v in pair if v not in _INT64_IDS)
        raise EdgeListParseError(f"{path}: node id {bad} is not an integer in "
                                 f"int64 range") from None


def write_edge_list(pairs, path) -> None:
    """Write pairs as "i j" lines, which read_edge_list reads back exactly."""
    arr = _as_pair_array(pairs)
    with open(path, "w", encoding="utf-8") as fh:
        for i, j in arr:
            fh.write(f"{i} {j}\n")
