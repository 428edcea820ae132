import math

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import csgraph

from conftest import dense_adjacency, neighbors
from linkbench import (METHODS, MethodSpec, build_graph, generate_price,
                       make_split, predictors, score_method)


def random_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return build_graph(pairs, num_nodes=n)


def bfs_distance(g, src):
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for v in neighbors(g, u).tolist():
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def brute_score(g, i, j, method, epsilon=0.01, walk_steps=3):
    """Set/dense-matrix reference implementations, one per method."""
    gi = set(neighbors(g, i).tolist())
    gj = set(neighbors(g, j).tolist())
    inter = gi & gj
    if method == "pa":
        return float(len(gi) * len(gj))
    if method == "cn":
        return float(len(inter))
    if method == "jaccard":
        union = gi | gj
        return len(inter) / len(union) if union else 0.0
    if method == "adamic_adar":
        deg = g.degrees
        return sum(1.0 / math.log(deg[z]) for z in inter if deg[z] > 1)
    if method == "resource_alloc":
        return sum(1.0 / g.degrees[z] for z in inter)
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
        p = np.divide(a, deg[:, None], out=np.zeros(a.shape), where=deg[:, None] > 0)
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
    for bad in ({"epsilon": float("nan")}, {"epsilon": np.inf},
                {"epsilon": True}, {"walk_steps": 3.0}, {"walk_steps": "3"}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            MethodSpec("lpi", **bad)
    assert MethodSpec("lrw", np.float64(0.5), np.int64(4)).walk_steps == 4


def test_build_score_table_shape_and_finiteness():
    # score_method now carries the shape and finiteness checks of the old score table
    g = random_graph(30, 0.1, seed=2)
    pairs = [(0, 5), (3, 9), (10, 20)]
    spec = MethodSpec("lrw")
    scores = score_method(g, pairs, spec)
    assert scores.shape == (3,)
    assert np.all(np.isfinite(scores))


def test_non_finite_score_rejected(monkeypatch):
    g = build_graph([(0, 1), (1, 2)])
    monkeypatch.setitem(predictors._FORMS, "cn", (
        lambda train, arr, spec: np.full(arr.shape[0], np.nan),
        lambda train, lo, hi, spec: np.full((hi - lo, 3), np.inf)))
    with pytest.raises(ArithmeticError, match="cn"):
        score_method(g, [(0, 2)], MethodSpec("cn"))
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
    # block border of top_c_recommend and lrw's 256-column batch borders
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


@pytest.mark.parametrize("spec", BLOCK_SPECS, ids=repr)
def test_one_call_equals_two(spec):
    # the link-prediction cell scores positives and negatives in one call
    g = generate_price(1100, 5, seed=1)
    for sampler in ("uniform", "degree-corrected"):
        split = make_split(g, 0.25, sampler, 3)
        joint = score_method(split.train, np.concatenate(
            [split.positives, split.negatives]), spec)
        apart = np.concatenate([score_method(split.train, split.positives, spec),
                                score_method(split.train, split.negatives, spec)])
        assert np.array_equal(joint, apart), sampler


def dijkstra_distances(g, sources):
    """Hop distances from scipy's unweighted Dijkstra: the oracle of the
    bit-parallel BFS, and shortest_path's kernel before it."""
    return csgraph.dijkstra(g.to_scipy_csr(), directed=True, unweighted=True,
                            indices=sources)


def dijkstra_pair_scores(g, pairs):
    uniq = np.unique(pairs[:, 0])
    dist = dijkstra_distances(g, uniq)
    return predictors._reciprocal(
        dist[np.searchsorted(uniq, pairs[:, 0]), pairs[:, 1]])


def bfs_cases():
    """(graph, pair arrays, source blocks) inputs of the BFS oracle test."""
    rng = np.random.default_rng(5)
    # two components of 100 nodes, then ids 200..209 isolated
    halves = rng.integers(0, 100, size=(260, 2))
    two = build_graph(np.concatenate([halves[:130], halves[130:] + 100]),
                      num_nodes=210)
    k6 = build_graph([(i, j) for i in range(6) for j in range(i + 1, 6)])
    star = build_graph([(0, j) for j in range(1, 9)])
    path = build_graph([(i, i + 1) for i in range(299)])  # 299 levels
    cases = []
    for g in (two, build_graph([], num_nodes=5), k6, star, path):
        n = g.num_nodes
        nodes = np.arange(n)
        rep = rng.integers(0, n, size=(20, 2))
        pair_sets = [np.stack([nodes, nodes], axis=1),
                     np.concatenate([rep, rep, rep[:, ::-1]]),
                     block_pairs(0, n, n)]
        # 65 and 129 sources cross the 64-bit word border
        for count in (65, 129):
            src = np.repeat(rng.permutation(n)[:count], 4)
            pair_sets.append(np.stack([src, rng.integers(0, n, src.size)],
                                      axis=1))
        blocks = {(0, n), (n - 1, n), (n // 3, min(n, n // 3 + 65)),
                  (1, min(n, 130))}
        cases.append((g, pair_sets, sorted(blocks)))
    return cases


@pytest.mark.parametrize("tiny_batches", [False, True])
def test_bfs_equals_dijkstra(tiny_batches, monkeypatch):
    if tiny_batches:
        # 64 sources per batch, so 65 and 129 sources cross batch borders
        monkeypatch.setattr(predictors, "_CHUNK_BUDGET", 1)
    spec = MethodSpec("shortest_path")
    for g, pair_sets, blocks in bfs_cases():
        for pairs in pair_sets:
            assert np.array_equal(score_method(g, pairs, spec),
                                  dijkstra_pair_scores(g, pairs)), g
        for lo, hi in blocks:
            want = predictors._reciprocal(
                dijkstra_distances(g, np.arange(lo, hi)))
            assert np.array_equal(predictors.score_block(g, lo, hi, spec),
                                  want), (g, lo, hi)


def reference_overlap_sum(A, B, arr):
    """_overlap_sum before budgeted chunks: 2**18 pairs at a time."""
    out = np.empty(arr.shape[0], dtype=np.float64)
    for lo in range(0, arr.shape[0], 1 << 18):
        hi = min(lo + (1 << 18), arr.shape[0])
        rows = A[arr[lo:hi, 0]].multiply(B[arr[lo:hi, 1]])
        out[lo:hi] = np.asarray(rows.sum(axis=1)).ravel()
    return out


def reference_score_lpi(train, arr, epsilon):
    """_score_lpi before orientation and budgeted chunks: the A^2 row of
    each pair's first endpoint, 2**15 pairs at a time."""
    A = train.to_scipy_csr()
    out = np.empty(arr.shape[0], dtype=np.float64)
    for lo in range(0, arr.shape[0], 1 << 15):
        hi = min(lo + (1 << 15), arr.shape[0])
        src = arr[lo:hi, 0]
        trg = arr[lo:hi, 1]
        paths2 = reference_overlap_sum(A, A, arr[lo:hi])
        paths3 = np.asarray((A[src] @ A).multiply(A[trg]).sum(axis=1)).ravel()
        out[lo:hi] = paths2 + epsilon * paths3
    return out


def test_budget_chunks_cover_in_order_within_budget(monkeypatch):
    monkeypatch.setattr(predictors, "_CHUNK_BUDGET", 10)
    # each item costs cost + 1; the 20 is over budget and stands alone
    cost = np.array([0, 3, 20, 0, 0, 5, 4, 9, 0])
    assert list(predictors._budget_chunks(cost)) == [
        (0, 2), (2, 3), (3, 6), (6, 7), (7, 8), (8, 9)]
    assert list(predictors._budget_chunks(np.zeros(0, dtype=np.int64))) == []
    monkeypatch.setattr(predictors, "_CHUNK_BUDGET", 1)
    assert list(predictors._budget_chunks(np.zeros(3, dtype=np.int64))) == [
        (0, 1), (1, 2), (2, 3)]


def hub_pairs():
    """(train, pairs) on a hub-heavy Price graph: positives, both
    samplers' negatives, reversed and repeated pairs, and self-pairs,
    the largest hub's among them."""
    g = generate_price(3000, 4, seed=2)
    split = make_split(g, 0.25, "uniform", 5)
    dc = make_split(g, 0.25, "degree-corrected", 5).negatives
    hub = int(np.argmax(split.train.degrees))
    rng = np.random.default_rng(6)
    base = np.concatenate([split.positives, split.negatives, dc,
                           [(hub, j) for j in range(0, 3000, 97)]])
    some = base[rng.integers(0, base.shape[0], 500)]
    selfs = np.stack([np.arange(0, 3000, 61), np.arange(0, 3000, 61)], axis=1)
    pairs = np.concatenate([base, some[:, ::-1], some, selfs, [(hub, hub)]])
    return split.train, pairs[rng.permutation(pairs.shape[0])]


@pytest.mark.parametrize("budget", [None, 1, 997, 1 << 14])
def test_budgeted_kernels_equal_reference_oracles(budget, monkeypatch):
    train, pairs = hub_pairs()
    if budget == 1:
        # a chunk per pair is slow; a shuffled slice keeps every kind
        pairs = pairs[:1000]
        assert (pairs[:, 0] == pairs[:, 1]).any()
    methods = ("cn", "jaccard", "adamic_adar", "resource_alloc")
    with monkeypatch.context() as m:
        m.setattr(predictors, "_overlap_sum", reference_overlap_sum)
        want = {name: score_method(train, pairs, MethodSpec(name))
                for name in methods}
    for epsilon in (0.01, 0.5):
        want[epsilon] = reference_score_lpi(train, pairs, epsilon)
    if budget is not None:
        monkeypatch.setattr(predictors, "_CHUNK_BUDGET", budget)
        # 997 and 2**14 put chunk borders mid-array, with several pairs in
        # most chunks; 1 gives every pair a chunk of its own
        deg = train.degrees
        cost = deg[pairs[:, 0]] + deg[pairs[:, 1]]
        chunks = list(predictors._budget_chunks(cost))
        assert 1 < len(chunks) and (budget == 1) == (len(chunks) == len(pairs))
    for name in methods:
        got = score_method(train, pairs, MethodSpec(name))
        assert np.array_equal(got, want[name]), name
    for epsilon in (0.01, 0.5):
        got = score_method(train, pairs, MethodSpec("lpi", epsilon=epsilon))
        assert np.array_equal(got, want[epsilon]), epsilon


def reference_walk_columns(PT, nodes, walk_steps):
    """_walk_columns before sparse steps: dense (n, batch) columns from the
    first step on."""
    n = PT.shape[0]
    batch = max(16, min(256, int(2e7 // max(n, 1))))
    for lo in range(0, nodes.size, batch):
        hi = min(lo + batch, nodes.size)
        cols = np.zeros((n, hi - lo), dtype=np.float64)
        cols[nodes[lo:hi], np.arange(hi - lo)] = 1.0
        for _ in range(walk_steps):
            cols = PT @ cols
        yield lo, hi, cols


def reference_score_lrw(train, arr, spec):
    """_score_lrw before sparse steps: all s steps on dense columns, then
    each pair's entry read off its endpoint's column."""
    if train.num_edges == 0:
        return np.zeros(arr.shape[0], dtype=np.float64)
    q, PT = predictors._lrw_operators(train)
    uniq, col_of = np.unique(arr, return_inverse=True)
    col_of = col_of.reshape(arr.shape)
    pi_fwd = np.zeros(arr.shape[0], dtype=np.float64)
    pi_bwd = np.zeros(arr.shape[0], dtype=np.float64)
    for lo, hi, cols in reference_walk_columns(PT, uniq, spec.walk_steps):
        sel = (col_of[:, 0] >= lo) & (col_of[:, 0] < hi)
        pi_fwd[sel] = cols[arr[sel, 1], col_of[sel, 0] - lo]
        sel = (col_of[:, 1] >= lo) & (col_of[:, 1] < hi)
        pi_bwd[sel] = cols[arr[sel, 0], col_of[sel, 1] - lo]
    return q[arr[:, 0]] * pi_fwd + q[arr[:, 1]] * pi_bwd


def reference_block_lrw(train, lo, hi, spec):
    """_block_lrw before sparse steps: the block's rows and columns of
    (P^T)^s, read off all n dense columns."""
    n = train.num_nodes
    if train.num_edges == 0:
        return np.zeros((hi - lo, n), dtype=np.float64)
    q, PT = predictors._lrw_operators(train)
    fwd = np.empty((n, hi - lo), dtype=np.float64)
    bwd = np.empty((hi - lo, n), dtype=np.float64)
    for c_lo, c_hi, cols in reference_walk_columns(PT, np.arange(n),
                                                   spec.walk_steps):
        a, b = max(lo, c_lo), min(hi, c_hi)
        if a < b:
            fwd[:, a - lo:b - lo] = cols[:, a - c_lo:b - c_lo]
        bwd[:, c_lo:c_hi] = cols[lo:hi]
    return q[lo:hi, None] * fwd.T + q[None, :] * bwd


class MatmulLog:
    """Stands in for P^T in _walk_columns and logs, per product, whether
    the columns it took were still sparse."""

    def __init__(self, PT):
        self.PT, self.shape, self.took_sparse = PT, PT.shape, []

    def __matmul__(self, cols):
        self.took_sparse.append(sparse.issparse(cols))
        return self.PT @ cols


def test_walk_columns_equal_dense_oracle():
    train, pairs = hub_pairs()
    sparse_1100 = block_cases()[0][0]
    # 2,975 hub-graph endpoints and 1,100 nodes cross the 256-column batch
    # borders; the last batch of sparse_1100 holds only isolated nodes
    cases = [(train, np.unique(pairs)), (sparse_1100, np.arange(1100))]
    sparse_steps = []
    for steps in range(1, 7):
        for g, nodes in cases:
            _, PT = predictors._lrw_operators(g)
            log = MatmulLog(PT)
            got = list(predictors._walk_columns(log, nodes, steps))
            want = list(reference_walk_columns(PT, nodes, steps))
            assert [b[:2] for b in got] == [b[:2] for b in want]
            for (lo, hi, a), (_, _, b) in zip(got, want):
                assert isinstance(a, np.ndarray) and np.array_equal(a, b), (
                    g, steps, lo)
            sparse_steps.append(np.reshape(log.took_sparse, (len(got), steps))
                                .sum(axis=1) < steps)
    # the switch to dense columns fired in some batches and not in others
    fired = np.concatenate(sparse_steps)
    assert fired.any() and not fired.all()


def lrw_pair_cases():
    """(train, pairs) inputs of the lrw oracle test: the hub-heavy Price
    pairs, random pairs on sparse_1100 (isolated ids among them) and pairs
    of an edgeless graph."""
    rng = np.random.default_rng(7)
    sparse_1100 = block_cases()[0][0]
    edgeless = build_graph([], num_nodes=3)
    return [hub_pairs(),
            (sparse_1100, rng.integers(0, 1100, size=(3000, 2))),
            (edgeless, np.array([(0, 1), (2, 2), (1, 0)]))]


@pytest.mark.parametrize("walk_steps", [2, 3, 4, 5, 6])
def test_lrw_equals_dense_oracles(walk_steps, monkeypatch):
    spec = MethodSpec("lrw", walk_steps=walk_steps)
    pair_cases = lrw_pair_cases()
    hub_train = pair_cases[0][0]
    # (0, 300) crosses the hub graph's first 256-column batch border
    block_sets = block_cases() + [(hub_train, [(0, 300)])]
    want_pairs = [reference_score_lrw(g, pairs, spec) for g, pairs in pair_cases]
    want_blocks = [[reference_block_lrw(g, lo, hi, spec) for lo, hi in blocks]
                   for g, blocks in block_sets]
    # the shipped share; 0 turns every batch dense before its first step,
    # as the oracle walks, and 1 keeps every batch sparse to the end
    for share in (predictors._DENSE_SHARE, 0.0, 1.0):
        monkeypatch.setattr(predictors, "_DENSE_SHARE", share)
        for (g, pairs), want in zip(pair_cases, want_pairs):
            got = score_method(g, pairs, spec)
            assert np.array_equal(got, want), (g, share)
        for (g, blocks), wants in zip(block_sets, want_blocks):
            for (lo, hi), want in zip(blocks, wants):
                got = predictors.score_block(g, lo, hi, spec)
                assert np.array_equal(got, want), (g, lo, hi, share)
