import math

import numpy as np
import pytest

from linkbench import METHODS, MethodSpec, build_graph, predictors, score_method


def random_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return build_graph(pairs, num_nodes=n)


def dense_adjacency(g):
    a = np.zeros((g.num_nodes, g.num_nodes))
    for i, j in g.edge_array():
        a[i, j] = a[j, i] = 1.0
    return a


def bfs_distance(g, src):
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for v in g.neighbors(u).tolist():
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def brute_score(g, i, j, method, epsilon=0.01, walk_steps=3):
    """Set/dense-matrix reference implementations, one per method."""
    gi = set(g.neighbors(i).tolist())
    gj = set(g.neighbors(j).tolist())
    inter = gi & gj
    if method == "pa":
        return float(len(gi) * len(gj))
    if method == "cn":
        return float(len(inter))
    if method == "jaccard":
        union = gi | gj
        return len(inter) / len(union) if union else 0.0
    if method == "adamic_adar":
        return sum(1.0 / math.log(g.degree(z)) for z in inter if g.degree(z) > 1)
    if method == "resource_alloc":
        return sum(1.0 / g.degree(z) for z in inter)
    if method == "lpi":
        a = dense_adjacency(g)
        a2 = a @ a
        return float(a2[i, j] + epsilon * (a2 @ a)[i, j])
    if method == "shortest_path":
        d = bfs_distance(g, i).get(j)
        return 0.0 if d is None or d == 0 else 1.0 / d
    if method == "lrw":
        a = dense_adjacency(g)
        deg = a.sum(axis=1)
        p = np.divide(a, deg[:, None], out=np.zeros_like(a), where=deg[:, None] > 0)
        pt = np.linalg.matrix_power(p, walk_steps)
        q = deg / deg.sum()
        return float(q[i] * pt[i, j] + q[j] * pt[j, i])
    raise AssertionError(method)


@pytest.mark.parametrize("method", METHODS)
def test_matches_brute_force_on_random_graphs(method):
    for seed in (0, 1, 2):
        g = random_graph(50, 0.08, seed=seed)
        pairs = [(i, j) for i in range(g.num_nodes)
                 for j in range(i + 1, g.num_nodes)]
        got = score_method(g, pairs, MethodSpec(method))
        want = np.array([brute_score(g, i, j, method) for i, j in pairs])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


@pytest.mark.parametrize("method", METHODS)
def test_scores_symmetric(method):
    g = random_graph(40, 0.1, seed=7)
    rng = np.random.default_rng(8)
    pairs = [(int(a), int(b)) for a, b in rng.integers(0, 40, size=(60, 2))
             if a != b]
    fwd = score_method(g, pairs, MethodSpec(method))
    rev = score_method(g, [(j, i) for i, j in pairs], MethodSpec(method))
    np.testing.assert_array_equal(fwd, rev)


def test_pa_hand_values():
    # degrees 3 and 4 multiply to 12
    g = build_graph([(0, 1), (0, 2), (0, 3), (4, 1), (4, 2), (4, 3), (4, 5)])
    assert score_method(g, [(0, 4)], MethodSpec("pa")).tolist() == [12.0]


def test_pa_isolated_endpoint_scores_zero():
    g = build_graph([(0, 1)], num_nodes=3)
    assert score_method(g, [(0, 2)], MethodSpec("pa"))[0] == 0.0


def test_path_hand_values():
    g = build_graph([(0, 1), (1, 2)])
    assert score_method(g, [(0, 2)], MethodSpec("cn"))[0] == 1.0
    assert score_method(g, [(0, 2)], MethodSpec("jaccard"))[0] == 1.0
    # the sole common neighbor has degree 2
    assert score_method(g, [(0, 2)], MethodSpec("resource_alloc"))[0] == 0.5
    assert score_method(g, [(0, 2)], MethodSpec("adamic_adar"))[0] == (
        pytest.approx(1 / math.log(2)))


def test_disconnected_pair_shortest_path_zero():
    g = build_graph([(0, 1), (2, 3)])
    assert score_method(g, [(0, 2)], MethodSpec("shortest_path"))[0] == 0.0


def test_adamic_adar_skips_degree_one_neighbor():
    # common neighbor of degree 1 cannot happen on a simple graph, but a
    # degree-1 endpoint contributes nothing rather than dividing by ln 1
    g = build_graph([(0, 1), (1, 2), (1, 3)])
    val = score_method(g, [(0, 2)], MethodSpec("adamic_adar"))[0]
    assert val == pytest.approx(1 / math.log(3))


def test_neighborhood_scores_zero_without_common_neighbors():
    g = build_graph([(0, 1), (2, 3)], num_nodes=5)
    for method in ("cn", "jaccard", "adamic_adar", "resource_alloc"):
        assert score_method(g, [(0, 2)], MethodSpec(method))[0] == 0.0


def test_lpi_small_epsilon_preserves_two_path_order():
    g = random_graph(40, 0.12, seed=13)
    pairs = [(i, j) for i in range(40) for j in range(i + 1, 40)]
    cn = score_method(g, pairs, MethodSpec("cn"))
    lpi = score_method(g, pairs, MethodSpec("lpi", epsilon=1e-9))
    for a in range(0, len(pairs), 17):
        for b in range(0, len(pairs), 23):
            if cn[a] != cn[b]:
                assert (lpi[a] > lpi[b]) == (cn[a] > cn[b])


def test_repeated_calls_bit_identical():
    g = random_graph(60, 0.07, seed=21)
    pairs = [(i, j) for i in range(0, 60, 3) for j in range(i + 1, 60, 2)]
    for method in METHODS:
        first = score_method(g, pairs, MethodSpec(method))
        second = score_method(g, pairs, MethodSpec(method))
        np.testing.assert_array_equal(first, second)


def test_method_spec_validation():
    with pytest.raises(ValueError):
        MethodSpec("unknown")
    with pytest.raises(ValueError):
        MethodSpec("lpi", epsilon=0.0)
    with pytest.raises(ValueError):
        MethodSpec("lrw", walk_steps=1)


def test_build_score_table_shape_and_finiteness():
    # score_method now carries the shape and finiteness checks of the old score table
    g = random_graph(30, 0.1, seed=2)
    pairs = [(0, 5), (3, 9), (10, 20)]
    spec = MethodSpec("lrw")
    scores = score_method(g, pairs, spec)
    assert scores.shape == (3,)
    assert np.all(np.isfinite(scores))
    assert spec.params() == {"walk_steps": 3}


def test_non_finite_score_rejected(monkeypatch):
    g = build_graph([(0, 1), (1, 2)])
    monkeypatch.setitem(predictors._KERNELS, "cn",
                        lambda train, arr: np.full(arr.shape[0], np.nan))
    with pytest.raises(ArithmeticError, match="cn"):
        score_method(g, [(0, 2)], MethodSpec("cn"))
    monkeypatch.setitem(predictors._BLOCKS, "cn",
                        lambda train, lo, hi: np.full((hi - lo, 3), np.inf))
    with pytest.raises(ArithmeticError, match="cn"):
        predictors.score_block(g, 0, 2, MethodSpec("cn"))


def test_pairs_out_of_range_rejected():
    g = build_graph([(0, 1)])
    with pytest.raises(ValueError):
        score_method(g, [(0, 9)], MethodSpec("cn"))
    for lo, hi in [(-1, 1), (0, 3), (2, 1)]:
        with pytest.raises(ValueError, match="out of range"):
            predictors.score_block(g, lo, hi, MethodSpec("cn"))


def block_pairs(lo, hi, n):
    """Row-major pair list of sources lo..hi-1 against every node."""
    return np.stack([np.repeat(np.arange(lo, hi), n),
                     np.tile(np.arange(n), hi - lo)], axis=1)


def block_cases():
    """(graph, blocks) inputs of the block-form test."""
    rng = np.random.default_rng(1)
    # ids 1000..1099 stay isolated; [300, 1050) crosses the 512-source
    # block border of top_c_recommend and lrw's 1024-column batch border
    sparse_1100 = build_graph(rng.integers(0, 1000, size=(2500, 2)),
                              num_nodes=1100)
    k6 = build_graph([(i, j) for i in range(6) for j in range(i + 1, 6)])
    star = build_graph([(0, j) for j in range(1, 9)])
    return [(sparse_1100, [(0, 512), (300, 1050), (1000, 1100)]),
            (build_graph([], num_nodes=3), [(0, 3), (1, 2)]),
            (k6, [(0, 6), (2, 5)]),
            (star, [(0, 9), (0, 1), (3, 9)])]


BLOCK_SPECS = [MethodSpec(m) for m in METHODS] + [
    MethodSpec("lpi", epsilon=0.5), MethodSpec("lrw", walk_steps=2),
    MethodSpec("lrw", walk_steps=5)]


@pytest.mark.parametrize("spec", BLOCK_SPECS, ids=repr)
def test_score_block_equals_pair_route(spec):
    for g, blocks in block_cases():
        n = g.num_nodes
        for lo, hi in blocks:
            want = score_method(g, block_pairs(lo, hi, n), spec)
            got = predictors.score_block(g, lo, hi, spec)
            assert got.shape == (hi - lo, n)
            assert np.array_equal(got, want.reshape(hi - lo, n)), (n, lo, hi)
