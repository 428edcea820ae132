"""Immutable undirected simple graph stored as a sorted CSR adjacency.

Node ids are dense integers ``0..num_nodes-1``. Construction canonicalizes
the input pair list: self-loops and duplicate pairs are dropped and counted.
Every query is read-only, so one Graph instance can be shared freely across
threads and repeated calls.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse


class EdgeListParseError(ValueError):
    """Raised when an edge-list file cannot be parsed. Mentions the line number."""


# Largest node count n whose pair keys lo * n + hi fit in uint64.
_MAX_NODES = 2**32


def _as_pair_array(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=np.int64)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected an (m, 2) pair array, got shape {arr.shape}")
    return arr


class Graph:
    """Simple undirected graph backed by CSR arrays ``indptr`` and ``indices``.

    Neighbor lists are sorted ascending, contain no self-references and no
    repeats, and every edge appears in both directions (so the degree sum is
    exactly twice the edge count). Instances are immutable: the backing
    arrays are marked read-only at construction.
    """

    __slots__ = (
        "_indptr",
        "_indices",
        "dropped_self_loops",
        "dropped_duplicates",
        "_edge_array",
        "_csr",
    )

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 dropped_self_loops: int = 0, dropped_duplicates: int = 0):
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        indptr.flags.writeable = False
        indices.flags.writeable = False
        self._indptr = indptr
        self._indices = indices
        self.dropped_self_loops = int(dropped_self_loops)
        self.dropped_duplicates = int(dropped_duplicates)
        self._edge_array = None
        self._csr = None

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self._indptr.size - 1

    @property
    def num_edges(self) -> int:
        return self._indices.size // 2

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

    def degree(self, i: int) -> int:
        self._check_node(i)
        return int(self._indptr[i + 1] - self._indptr[i])

    def neighbors(self, i: int) -> np.ndarray:
        """Sorted neighbor ids of node i (read-only view)."""
        self._check_node(i)
        return self._indices[self._indptr[i]:self._indptr[i + 1]]

    def has_edge(self, i: int, j: int) -> bool:
        self._check_node(i)
        self._check_node(j)
        if i == j:
            return False
        row = self.neighbors(i)
        pos = np.searchsorted(row, j)
        return pos < row.size and row[pos] == j

    def _check_node(self, i) -> None:
        if not 0 <= i < self.num_nodes:
            raise ValueError(f"node id {i} out of range [0, {self.num_nodes})")

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------

    def edge_array(self) -> np.ndarray:
        """Canonical (M, 2) edge array with i < j, lexicographically sorted.

        The cache is filled without a lock: threads that race on the first
        call each build an equal array, so a race costs only duplicate work.
        """
        if self._edge_array is None:
            src = np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.degrees)
            mask = self._indices > src
            out = np.stack([src[mask], self._indices[mask]], axis=1)
            out.flags.writeable = False
            self._edge_array = out
        return self._edge_array

    def to_scipy_csr(self) -> sparse.csr_matrix:
        """Adjacency as a scipy CSR matrix with float64 ones (cached).

        The cache is filled without a lock: threads that race on the first
        call each build an equal matrix, so a race costs only duplicate work.
        """
        if self._csr is None:
            n = self.num_nodes
            data = np.ones(self._indices.size, dtype=np.float64)
            mat = sparse.csr_matrix(
                (data, self._indices.copy(), self._indptr.copy()), shape=(n, n))
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
    if arr.size and arr.min() < 0:
        raise ValueError("node ids must be non-negative")
    inferred = int(arr.max()) + 1 if arr.size else 0
    if num_nodes is None:
        num_nodes = inferred
    elif inferred > num_nodes:
        raise ValueError(
            f"node id {inferred - 1} out of range for num_nodes={num_nodes}")
    num_nodes = int(num_nodes)
    if num_nodes > _MAX_NODES:
        # checked before indptr, whose size is num_nodes, is allocated
        raise ValueError(f"node id {num_nodes - 1} is too large: ids must be "
                         f"below {_MAX_NODES} so pair keys fit in 64 bits")

    if arr.size:
        lo = np.minimum(arr[:, 0], arr[:, 1])
        hi = np.maximum(arr[:, 0], arr[:, 1])
        loops = int(np.count_nonzero(lo == hi))
        keep = lo != hi
        stacked = np.stack([lo[keep], hi[keep]], axis=1)
        edges = np.unique(stacked, axis=0) if stacked.size else stacked
        dups = int(stacked.shape[0] - edges.shape[0])
    else:
        edges = arr
        loops = dups = 0

    if edges.size:
        both = np.concatenate([edges, edges[:, ::-1]], axis=0)
        order = np.lexsort((both[:, 1], both[:, 0]))
        both = both[order]
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.add.at(indptr, both[:, 0] + 1, 1)
        indptr = np.cumsum(indptr)
        indices = np.ascontiguousarray(both[:, 1])
    else:
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        indices = np.zeros(0, dtype=np.int64)

    return Graph(indptr, indices, dropped_self_loops=loops, dropped_duplicates=dups)


# ----------------------------------------------------------------------
# edge-list text I/O
# ----------------------------------------------------------------------

def read_edge_list(path) -> np.ndarray:
    """Read integer pairs from a text file.

    Accepts whitespace- or comma-separated ids, one pair per line. Blank
    lines and lines starting with '#' are skipped. Malformed lines raise
    EdgeListParseError naming the offending line number.
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
    return np.asarray(rows, dtype=np.int64)


def write_edge_list(pairs, path) -> None:
    """Write pairs as "i j" lines, which read_edge_list reads back exactly."""
    arr = _as_pair_array(pairs)
    with open(path, "w", encoding="utf-8") as fh:
        for i, j in arr:
            fh.write(f"{i} {j}\n")
