import resource
import sys
import threading

import numpy as np
import pytest

from linkbench import (EdgeListParseError, build_graph, read_edge_list,
                       write_edge_list)

TRIANGLE = [(0, 1), (1, 2), (0, 2)]


def test_triangle_degrees():
    g = build_graph(TRIANGLE)
    assert g.num_nodes == 3
    assert g.num_edges == 3
    assert [g.degree(i) for i in range(3)] == [2, 2, 2]


def test_duplicates_and_self_loops_dropped_with_counts():
    g = build_graph([(0, 1), (1, 0), (1, 1)])
    assert g.num_edges == 1
    assert g.has_edge(0, 1)
    assert g.dropped_duplicates == 1
    assert g.dropped_self_loops == 1


def test_path_degrees():
    g = build_graph([(0, 1), (1, 2), (2, 3)])
    assert list(g.degrees) == [1, 2, 2, 1]
    assert g.num_edges == 3


def test_num_nodes_override_keeps_isolates():
    g = build_graph([(0, 1)], num_nodes=5)
    assert g.num_nodes == 5
    assert g.degree(4) == 0


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
    g = build_graph(TRIANGLE)
    with pytest.raises(ValueError):
        g.degree(3)
    with pytest.raises(ValueError):
        g.has_edge(0, 3)


def test_empty_graph_is_valid():
    g = build_graph([])
    assert g.num_nodes == 0
    assert g.num_edges == 0


def test_has_edge_cases():
    g = build_graph(TRIANGLE)
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 0)
    p = build_graph([(0, 1), (1, 2)])
    assert not p.has_edge(0, 2)


def test_star_center_degree():
    g = build_graph([(0, i) for i in range(1, 5)])
    assert g.degree(0) == 4


def test_adjacency_invariants_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 60))
        m = int(rng.integers(0, n * (n - 1) // 2 + 1))
        pairs = rng.integers(0, n, size=(m, 2))
        g = build_graph(pairs[pairs[:, 0] != pairs[:, 1]], num_nodes=n)
        total = 0
        for i in range(n):
            nb = g.neighbors(i)
            total += nb.size
            assert np.all(np.diff(nb) > 0)          # sorted, no repeats
            assert i not in nb                       # no self loops
            for j in nb:
                assert i in g.neighbors(int(j))      # symmetry
        assert total == 2 * g.num_edges


def test_has_edge_matches_linear_scan():
    rng = np.random.default_rng(1)
    pairs = rng.integers(0, 30, size=(120, 2))
    g = build_graph(pairs[pairs[:, 0] != pairs[:, 1]], num_nodes=30)
    for i in range(30):
        row = set(g.neighbors(i).tolist())
        for j in range(30):
            assert g.has_edge(i, j) == (j in row)


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
    # evaluate --jobs shares one Graph across threads; its lazy caches have
    # no lock, so a race on the first call must cost only duplicate work
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
    finally:
        sys.setswitchinterval(old)
