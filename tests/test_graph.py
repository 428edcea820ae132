import re
import resource
import sys
import threading

import numpy as np
import pytest

from conftest import neighbors
from linkbench import (EdgeListParseError, MethodSpec, build_graph,
                       generate_price, read_edge_list, score_method,
                       write_edge_list)
from linkbench.graph import _pair_keys

TRIANGLE = [(0, 1), (1, 2), (0, 2)]


def reference_build_graph(pairs, num_nodes=None):
    """The 2-D canonicalisation build_graph replaced (np.unique(axis=0),
    lexsort, np.add.at), as the oracle: (indptr, indices, dropped self-loops,
    dropped duplicates, edge array) of a valid pair list."""
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if num_nodes is None:
        num_nodes = int(arr.max()) + 1 if arr.size else 0
    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    loops = int(np.count_nonzero(lo == hi))
    stacked = np.stack([lo[lo != hi], hi[lo != hi]], axis=1)
    edges = np.unique(stacked, axis=0) if stacked.size else stacked
    dups = int(stacked.shape[0] - edges.shape[0])
    both = np.concatenate([edges, edges[:, ::-1]], axis=0)
    both = both[np.lexsort((both[:, 1], both[:, 0]))]
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.add.at(indptr, both[:, 0] + 1, 1)
    indptr = np.cumsum(indptr)
    src = np.repeat(np.arange(num_nodes), np.diff(indptr))
    mask = both[:, 1] > src
    edge_array = np.stack([src[mask], both[:, 1][mask]], axis=1)
    return indptr, both[:, 1], loops, dups, edge_array


def assert_matches_reference(pairs, num_nodes=None):
    g = build_graph(pairs, num_nodes=num_nodes)
    indptr, indices, loops, dups, edges = reference_build_graph(pairs,
                                                                num_nodes)
    assert np.array_equal(g.indptr, indptr)
    assert np.array_equal(g.indices, indices)
    assert (g.dropped_self_loops, g.dropped_duplicates) == (loops, dups)
    assert np.array_equal(g.edge_array(), edges.reshape(-1, 2))
    return g


def test_triangle_degrees():
    g = build_graph(TRIANGLE)
    assert g.num_nodes == 3
    assert g.num_edges == 3
    assert [g.degrees[i] for i in range(3)] == [2, 2, 2]


def test_duplicates_and_self_loops_dropped_with_counts():
    g = build_graph([(0, 1), (1, 0), (1, 1)])
    assert g.num_edges == 1
    assert g.has_edges([(0, 1)])[0]
    assert g.dropped_duplicates == 1
    assert g.dropped_self_loops == 1


def test_path_degrees():
    g = build_graph([(0, 1), (1, 2), (2, 3)])
    assert list(g.degrees) == [1, 2, 2, 1]
    assert g.num_edges == 3


def test_num_nodes_override_keeps_isolates():
    g = build_graph([(0, 1)], num_nodes=5)
    assert g.num_nodes == 5
    assert g.degrees[4] == 0


def test_huge_node_id_rejected():
    # 2**32 + 1 nodes would overflow the samplers' uint64 pair keys and
    # need a 32 GiB indptr, so the id is refused before anything sized by
    # n is allocated. The address-space cap turns a regression into a
    # MemoryError in this process rather than exhausting the host.
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = 16 << 30
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        with pytest.raises(ValueError, match=f"node id {2**32} "):
            build_graph([(0, 2**32)])
        with pytest.raises(ValueError, match=f"node id {2**32} "):
            build_graph([(0, 1)], num_nodes=2**32 + 1)
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def test_id_out_of_range_rejected():
    with pytest.raises(ValueError):
        build_graph([(0, 5)], num_nodes=3)
    with pytest.raises(ValueError):
        build_graph(TRIANGLE).has_edges([(0, 3)])


@pytest.mark.parametrize("pairs, named", [
    ([(0.7, 1.2), (2.2, 3.9)], "0.7"),      # was built as (0, 1), (2, 3)
    (np.array([[0.0, 1.5]]), "1.5"),
    (np.array([[0.0, np.nan]]), "nan"),
    ([(0, float("inf"))], "inf"),
    ([[True, 1]], "True"),                  # was the pair (1, 1)
    ([(0, 10**23)], str(10**23)),           # was an OverflowError
    (np.array([[0, 2**63]], dtype=np.uint64), str(2**63)),
], ids=["fraction", "fraction-array", "nan", "inf", "bool", "huge",
        "huge-uint64"])
def test_non_integer_ids_rejected_naming_them(pairs, named):
    match = f"node id {re.escape(named)} is not an integer"
    with pytest.raises(ValueError, match=match):
        build_graph(pairs)
    with pytest.raises(ValueError, match=match):
        score_method(build_graph(TRIANGLE), pairs, MethodSpec("cn"))


def test_whole_number_ids_of_any_dtype_accepted():
    want = build_graph(TRIANGLE).edge_array()
    for pairs in (np.array(TRIANGLE, dtype=np.float64),
                  np.array(TRIANGLE, dtype=np.int32),
                  np.array(TRIANGLE, dtype=np.uint64),
                  [(np.int64(i), np.uint8(j)) for i, j in TRIANGLE],
                  [(float(i), j) for i, j in TRIANGLE]):
        assert np.array_equal(build_graph(pairs).edge_array(), want)


def test_empty_graph_is_valid():
    g = build_graph([])
    assert g.num_nodes == 0
    assert g.num_edges == 0


def test_has_edge_cases():
    g = build_graph(TRIANGLE)
    assert g.has_edges([(0, 1), (1, 0)]).all()
    assert not g.has_edges([(0, 0)])[0]
    p = build_graph([(0, 1), (1, 2)])
    assert not p.has_edges([(0, 2)])[0]


def test_star_center_degree():
    g = build_graph([(0, i) for i in range(1, 5)])
    assert g.degrees[0] == 4


def test_adjacency_invariants_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 60))
        m = int(rng.integers(0, n * (n - 1) // 2 + 1))
        pairs = rng.integers(0, n, size=(m, 2))
        g = build_graph(pairs[pairs[:, 0] != pairs[:, 1]], num_nodes=n)
        total = 0
        for i in range(n):
            nb = neighbors(g, i)
            total += nb.size
            assert np.all(np.diff(nb) > 0)          # sorted, no repeats
            assert i not in nb                       # no self loops
            for j in nb:
                assert i in neighbors(g, int(j))     # symmetry
        assert total == 2 * g.num_edges


@pytest.mark.parametrize("n, m, extra", [(2, 0, 0), (5, 12, 3), (60, 400, 0),
                                         (3000, 20000, 7)])
def test_build_graph_matches_reference(n, m, extra):
    rng = np.random.default_rng(n + m)
    pairs = rng.integers(0, n, size=(m, 2))
    pairs = np.concatenate([pairs, pairs[: m // 3, ::-1]])  # both orientations
    assert_matches_reference(pairs)
    assert_matches_reference(pairs, num_nodes=n + extra)


def test_has_edges_matches_edge_set():
    rng = np.random.default_rng(4)
    pairs = rng.integers(0, 25, size=(80, 2))
    g = build_graph(pairs, num_nodes=25)
    edges = {(int(i), int(j)) for i, j in pairs if i != j}
    edges |= {(j, i) for i, j in edges}
    grid = np.array([(i, j) for i in range(25) for j in range(25)])
    want = [(int(i), int(j)) in edges for i, j in grid]
    assert g.has_edges(grid).tolist() == want    # self and reversed pairs
    assert g.has_edges(grid[::-1, ::-1]).tolist() == want[::-1]
    assert g.has_edges(np.zeros((0, 2), dtype=np.int64)).shape == (0,)
    edgeless = build_graph([], num_nodes=4)
    assert not edgeless.has_edges([(0, 1), (2, 2), (3, 0)]).any()
    for bad in ([(0, 25)], [(-1, 3)], [(24, 2**40)]):
        with pytest.raises(ValueError, match="out of range"):
            g.has_edges(bad)
    for malformed in ([0, 1, 2], [[0, 1, 2]], np.zeros((2, 2, 2))):
        with pytest.raises(ValueError, match="pair array"):
            g.has_edges(malformed)


def reference_has_edges(g, pairs):
    """has_edges before it sorted its queries: one binary search per pair,
    in query order, over the sorted edge keys."""
    n = g.num_nodes
    edges = _pair_keys(g.edge_array(), n)
    keys = _pair_keys(pairs, n)
    pos = np.searchsorted(edges, keys)
    hit = pos < edges.size
    hit[hit] = edges[pos[hit]] == keys[hit]
    return hit


def test_has_edges_equals_unsorted_search():
    g = generate_price(3000, 4, seed=2)
    rng = np.random.default_rng(3)
    edges = g.edge_array()
    stubs = np.repeat(np.arange(g.num_nodes), g.degrees)
    nodes = np.arange(g.num_nodes)
    queries = [rng.integers(0, g.num_nodes, size=(20_000, 2)),
               stubs[rng.integers(0, stubs.size, size=(20_000, 2))],
               edges[::-1, ::-1], np.stack([nodes, nodes], axis=1)]
    mixed = np.concatenate(queries)
    mixed = np.concatenate([mixed, mixed[:5000]])[rng.permutation(
        mixed.shape[0] + 5000)]
    for pairs in queries + [mixed, mixed[:1], np.zeros((0, 2), np.int64)]:
        assert np.array_equal(g.has_edges(pairs),
                              reference_has_edges(g, pairs))
    edgeless = build_graph([], num_nodes=6)
    assert np.array_equal(edgeless.has_edges(queries[0] % 6),
                          reference_has_edges(edgeless, queries[0] % 6))


def test_has_edge_matches_linear_scan():
    rng = np.random.default_rng(1)
    pairs = rng.integers(0, 30, size=(120, 2))
    g = build_graph(pairs[pairs[:, 0] != pairs[:, 1]], num_nodes=30)
    for i in range(30):
        row = set(neighbors(g, i).tolist())
        for j in range(30):
            assert g.has_edges([(i, j)])[0] == (j in row)


def test_read_edge_list_whitespace(tmp_path):
    p = tmp_path / "a.txt"
    p.write_text("0 1\n1 2\n")
    assert read_edge_list(p).tolist() == [[0, 1], [1, 2]]


def test_read_edge_list_comments_and_commas(tmp_path):
    p = tmp_path / "b.txt"
    p.write_text("# comment\n3,4\n")
    assert read_edge_list(p).tolist() == [[3, 4]]


def test_read_edge_list_parse_error_names_line(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("0 1\nfoo bar\n")
    with pytest.raises(EdgeListParseError, match="line 2"):
        read_edge_list(p)


def test_read_edge_list_rejects_extra_columns(tmp_path):
    p = tmp_path / "w.txt"
    p.write_text("0 1\n0 1 5\n")
    with pytest.raises(EdgeListParseError, match="line 2.*got 3 tokens"):
        read_edge_list(p)


def test_read_edge_list_rejects_ids_beyond_int64(tmp_path):
    # such an id used to end in an OverflowError
    p = tmp_path / "huge.txt"
    p.write_text(f"0 1\n1 {2**63}\n")
    with pytest.raises(EdgeListParseError,
                       match=f"node id {2**63} is not an integer"):
        read_edge_list(p)


def test_write_read_round_trip(tmp_path):
    pairs = build_graph([(5, 2), (0, 1), (2, 5), (3, 4)]).edge_array()
    p = tmp_path / "d.txt"
    write_edge_list(pairs, p)
    back = read_edge_list(p)
    assert np.array_equal(back, pairs)
    assert np.array_equal(build_graph(back).edge_array(), pairs)


def test_canonical_edges_orders_and_dedups():
    # the canonical form lives in build_graph(...).edge_array()
    out = build_graph([(2, 1), (1, 2), (0, 3)]).edge_array()
    assert out.tolist() == [[0, 3], [1, 2]]


def test_edge_array_is_canonical():
    g = build_graph([(3, 1), (0, 2), (1, 3)])
    arr = g.edge_array()
    assert arr.tolist() == [[0, 2], [1, 3]]
    assert np.all(arr[:, 0] < arr[:, 1])


def test_caches_fill_equal_under_threads():
    # evaluate --jobs shares one Graph across threads; its lazy CSR cache
    # has no lock, so a race on the first call must cost only duplicate work
    rng = np.random.default_rng(3)
    workers = 8
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            g = build_graph(rng.integers(0, 3000, size=(20000, 2)))
            barrier = threading.Barrier(workers)
            got = [None] * workers

            def call(t):
                barrier.wait(timeout=10)
                if t % 2:  # half the threads race on each cache first
                    edges = g.edge_array()
                    csr = g.to_scipy_csr()
                else:
                    csr = g.to_scipy_csr()
                    edges = g.edge_array()
                got[t] = (edges, csr)
            threads = [threading.Thread(target=call, args=(t,))
                       for t in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            edges, csr = g.edge_array(), g.to_scipy_csr()
            for e, c in got:
                assert np.array_equal(e, edges)
                assert c.shape == csr.shape
                for part in ("data", "indices", "indptr"):
                    assert np.array_equal(getattr(c, part), getattr(csr, part))
                    assert not getattr(c, part).flags.writeable
    finally:
        sys.setswitchinterval(old)


def test_cached_csr_is_read_only():
    # every caller shares the cached matrix: a write through it used to
    # double every later cn score of the graph
    g = generate_price(80, 3, seed=2)
    pairs = g.edge_array()[:20]
    spec = MethodSpec("cn")
    before = score_method(g, pairs, spec)
    csr = g.to_scipy_csr()
    for part in (csr.data, csr.indices, csr.indptr):
        with pytest.raises(ValueError, match="read-only"):
            part[:] = 2
    assert np.array_equal(score_method(g, pairs, spec), before)
    assert g.to_scipy_csr() is csr
    # the matrix is built from the graph's own arrays: they stay read-only,
    # and no writable array aliases them
    for own, part in ((g.indices, csr.indices), (g.indptr, csr.indptr)):
        assert not own.flags.writeable
        assert not (np.shares_memory(own, part) and part.flags.writeable)
        assert np.array_equal(own, part)
    assert csr.has_sorted_indices
