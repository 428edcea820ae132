import itertools
import math
import re
import sys
import threading
import tracemalloc

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
    # a bool or a float is not taken as a node id
    for lo, hi, bad in [(True, 2, "lo"), (0, True, "hi"), (0.0, 2, "lo"),
                        (0, 1.5, "hi"), ("0", 2, "lo"), (0, None, "hi")]:
        value = lo if bad == "lo" else hi
        with pytest.raises(ValueError, match=re.escape(
                f"{bad} must be an integer, got {value!r}")):
            predictors.score_block(g, lo, hi, MethodSpec("cn"))
    assert predictors.score_block(g, np.int64(0), np.int32(2),
                                  MethodSpec("cn")).shape == (2, 2)


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
    # the common-neighbour family stores its support, the pattern of
    # A[lo:hi] @ A, with sorted column ids, and the others a dense block
    for g, blocks in block_cases():
        n = g.num_nodes
        A = g.to_scipy_csr()
        for lo, hi in blocks:
            want = score_method(g, block_pairs(lo, hi, n), spec)
            got = predictors.score_block(g, lo, hi, spec)
            assert got.shape == (hi - lo, n)
            assert sparse.issparse(got) == (spec.method in CN_FAMILY)
            if sparse.issparse(got):
                assert got.format == "csr" and got.has_sorted_indices
                support = (A[lo:hi] @ A).tocsr()
                support.sort_indices()
                assert np.array_equal(got.indptr, support.indptr)
                assert np.array_equal(got.indices, support.indices)
                got = got.toarray()
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


# _CHUNK_BUDGET (None: the default) -> what it adds: at 2**10 the small
# graphs keep batches of 128 sources or more but cut their levels at 32
# words, so that chunk borders fall mid-graph and rows of degree over 16
# stand alone; at 1 every batch holds 64 sources, which 65 and 129 sources
# cross, and every row is a chunk of its own
BFS_BUDGETS = {"default": None, "32-word levels": 1 << 10,
               "64-source batches": 1}


@pytest.mark.parametrize("budget", list(BFS_BUDGETS.values()),
                         ids=list(BFS_BUDGETS))
def test_bfs_equals_dijkstra(budget, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(predictors, "_CHUNK_BUDGET", budget)
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


def reference_bfs_levels(A, sources):
    """_bfs_levels before chunked levels: each level one gather of the
    frontier over all of A's column ids, and one OR-reduction per
    non-empty row."""
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


def bfs_level_cases():
    """(A, sources) inputs of the level oracle test: each graph of
    bfs_cases() from all of its nodes, from 65 of them and from its last,
    and a Price 5,000 graph from 200 nodes and from its hub and 128 more."""
    rng = np.random.default_rng(8)
    cases = []
    for g, _, _ in bfs_cases():
        n = g.num_nodes
        for sources in (np.arange(n), rng.permutation(n)[:65], [n - 1]):
            cases.append((g.to_scipy_csr(), np.asarray(sources)))
    g = generate_price(5000, 5, seed=2)
    hub = int(np.argmax(g.degrees))
    others = rng.permutation(np.flatnonzero(np.arange(5000) != hub))
    cases.append((g.to_scipy_csr(), others[:200]))
    cases.append((g.to_scipy_csr(), np.append(hub, others[200:328])))
    return cases


# level budget rule (None: the default) -> the _chunks borders it must
# cross over all cases: one word under the costliest row's gather leaves
# that row, a hub's on the Price graph, alone; a fifth of a level's words
# puts borders mid-graph
LEVEL_BUDGETS = {
    "default": (None, set()),
    "hub alone": (lambda cost: cost.max() - 1, {"cut", "over"}),
    "fifth": (lambda cost: cost.sum() // 5, {"cut"}),
}


@pytest.mark.parametrize("rule, borders", list(LEVEL_BUDGETS.values()),
                         ids=list(LEVEL_BUDGETS))
def test_chunked_levels_equal_whole_level_oracle(rule, borders, monkeypatch):
    # the same words at every level, and the same number of levels
    seen = spy_chunks(monkeypatch)
    for A, sources in bfs_level_cases():
        if rule is not None:
            # each non-empty row's gather of deg(row) * ceil(S / 64) words
            deg = np.diff(A.indptr)
            cost = deg[deg > 0] * -(-len(sources) // 64)
            level_budget = rule(cost) if cost.size else 0
            monkeypatch.setattr(predictors, "_CHUNK_BUDGET", level_budget << 5)
        want = [(d, words.copy()) for d, words in
                reference_bfs_levels(A, sources)]
        got = [(d, words.copy()) for d, words in
               predictors._bfs_levels(A, sources)]
        assert len(got) == len(want), (A.shape, len(sources))
        for (d, words), (e, other) in zip(got, want):
            assert d == e and words.dtype == other.dtype
            assert np.array_equal(words, other), (A.shape, len(sources), d)
    assert seen >= borders, seen


def spy_bfs_levels(monkeypatch):
    """Record the levels that each _bfs_levels call yields: one list per
    call, in call order."""
    calls = []
    levels = predictors._bfs_levels

    def spy(A, sources):
        calls.append([])
        for d, words in levels(A, sources):
            calls[-1].append(d)
            yield d, words

    monkeypatch.setattr(predictors, "_bfs_levels", spy)
    return calls


def farthest_per_batch(dist, sources, batch):
    """The largest finite hop count from each batch of the sorted distinct
    sources, cut into runs of batch, as the BFS routes cut them: the last
    level that a batch's BFS reaches."""
    uniq = np.unique(sources)
    reached = np.where(np.isinf(dist), -1, dist)
    return [int(reached[uniq[lo:lo + batch]].max())
            for lo in range(0, uniq.size, batch)]


@pytest.mark.parametrize("budget", [None, 1], ids=["default",
                                                   "64-source batches"])
def test_bfs_runs_no_level_past_its_farthest_reachable_pair(budget,
                                                             monkeypatch):
    if budget is not None:
        monkeypatch.setattr(predictors, "_CHUNK_BUDGET", budget)
    spec = MethodSpec("shortest_path")
    # bfs_cases()' two components of 100 nodes, then ids 200..209 isolated.
    # Each source pairs with a node of the other component and an isolated
    # id, and 180 of them with a node 1 or 2 hops away too.
    cases = bfs_cases()
    g = cases[0][0]
    dist = dijkstra_distances(g, np.arange(g.num_nodes))
    rng = np.random.default_rng(9)
    pairs, reach = [(4, 4), (205, 3), (207, 207)], []
    for k, s in enumerate(rng.permutation(200)):
        near = np.flatnonzero((dist[s] >= 1) & (dist[s] <= 2))
        if k < 180 and near.size:
            reach.append((s, rng.choice(near)))
        pairs += [(s, (s + 100) % 200), (s, 200 + s % 10)]
    pairs = np.array(pairs + reach)[rng.permutation(len(pairs) + len(reach))]
    calls = spy_bfs_levels(monkeypatch)
    assert np.array_equal(score_method(g, pairs, spec),
                          dijkstra_pair_scores(g, pairs))
    # only sources with a reachable pair start a BFS, and each batch stops
    # at its farthest such pair, short of the last level it could reach
    reach = np.array(reach)
    uniq = np.unique(reach[:, 0])
    batch = predictors._bfs_batch(g.to_scipy_csr())
    hops = dist[reach[:, 0], reach[:, 1]]
    far = [int(hops[np.isin(reach[:, 0], uniq[lo:lo + batch])].max())
           for lo in range(0, uniq.size, batch)]
    assert calls == [list(range(1, f + 1)) for f in far], (calls, far)
    assert all(f < last for f, last in
               zip(far, farthest_per_batch(dist, uniq, batch)))
    # the path's block from node 0 runs 299 levels: hop counts of 256 and
    # more take uint16 planes, and must not wrap
    path = cases[4][0]
    dist = dijkstra_distances(path, np.arange(path.num_nodes))
    calls.clear()
    got = predictors.score_block(path, 0, 300, spec)
    assert np.array_equal(got, predictors._reciprocal(dist))
    assert got[0, 299] == 1 / 299 and got[299, 0] == 1 / 299
    want = farthest_per_batch(dist, np.arange(300),
                              predictors._bfs_batch(path.to_scipy_csr()))
    assert calls == [list(range(1, f + 1)) for f in want] and max(want) == 299


def reference_overlap_sum(A, B, arr):
    """sum_z A[i, z] * B[j, z] per pair (i, j), 2**18 pairs at a time: the
    common-neighbour kernel before budgeted chunks and weighted patterns."""
    out = np.empty(arr.shape[0], dtype=np.float64)
    for lo in range(0, arr.shape[0], 1 << 18):
        hi = min(lo + (1 << 18), arr.shape[0])
        rows = A[arr[lo:hi, 0]].multiply(B[arr[lo:hi, 1]])
        out[lo:hi] = np.asarray(rows.sum(axis=1)).ravel()
    return out


def reference_common_scores(train, arr, method):
    """cn, jaccard, adamic_adar or resource_alloc the way they were scored
    before one kernel: an overlap sum of A against A diag(w), a weighted
    copy of all of A, whose zero products the elementwise multiply drops."""
    A = train.to_scipy_csr()
    deg = train.degrees.astype(np.float64)
    if method in ("cn", "jaccard"):
        cn = reference_overlap_sum(A, A, arr)
        if method == "cn":
            return cn
        union = deg[arr[:, 0]] + deg[arr[:, 1]] - cn
        return np.divide(cn, union, out=np.zeros_like(cn), where=union > 0)
    if method == "adamic_adar":
        log = np.log(np.maximum(deg, 1))
        w = np.divide(1.0, log, out=np.zeros_like(log), where=log > 0)
    else:
        w = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
    return reference_overlap_sum(A, sparse.csr_matrix(A.multiply(w[None, :])),
                                 arr)


def reference_block_common(train, lo, hi, method):
    """_block_common before its walk listing: the support of A[lo:hi] @ A,
    with sorted column ids, scored by reference_common_scores."""
    A = train.to_scipy_csr()
    S = A[lo:hi] @ A
    S.sort_indices()
    pairs = np.stack([np.repeat(np.arange(lo, hi), np.diff(S.indptr)),
                      S.indices], axis=1).astype(np.int64)
    S.data = reference_common_scores(train, pairs, method)
    return S


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


def test_common_neighbour_sums_keep_the_reduceat_order():
    # a pair's weights over its 15 common neighbours sum as np.add.reduceat
    # sums them in ascending id order (scipy's row sum); a running sum and
    # np.sum give other last bits on this pair
    g = generate_price(300, 5, seed=1)
    common = np.intersect1d(neighbors(g, 1), neighbors(g, 6))
    assert common.size == 15
    deg = g.degrees[common].astype(np.float64)
    for name, weights in (("adamic_adar", 1.0 / np.log(deg)),
                          ("resource_alloc", 1.0 / deg)):
        want = np.add.reduceat(weights, [0])[0]
        running = 0.0
        for w in weights:
            running += w
        assert want != running and want != np.sum(weights), name
        got = score_method(g, [(1, 6), (6, 1)], MethodSpec(name))
        assert got.tolist() == [want, want], name
    # a self-pair's common neighbours are its 9 neighbours, one of degree 1
    # here, whose adamic_adar weight 0 is dropped: a kept 0.0 term would
    # shift reduceat's pairwise blocks and change the last bit
    g = block_cases()[0][0]
    for node in (807, 972):
        log = np.log(g.degrees[neighbors(g, node)].astype(np.float64))
        assert log.size == 9 and np.count_nonzero(log == 0) == 1
        weights = np.divide(1.0, log, out=np.zeros_like(log), where=log > 0)
        want = np.add.reduceat(weights[weights > 0], [0])[0]
        assert want != np.add.reduceat(weights, [0])[0], node
        got = score_method(g, [(node, node)], MethodSpec("adamic_adar"))
        assert got.tolist() == [want], node


CN_FAMILY = ("cn", "jaccard", "adamic_adar", "resource_alloc")


def cached_pattern_is_read_only(train, arr):
    """Whether train's cached pair array equals arr, as a copy, and it and
    the cached pattern's arrays are read-only."""
    key, pattern = train._common
    return (np.array_equal(key, arr) and not np.shares_memory(key, arr)
            and not any(a.flags.writeable for a in
                        (key, pattern.data, pattern.indices, pattern.indptr)))


def test_shared_pattern_follows_the_pair_array():
    # the cache is keyed by the pair array's content: an array of the same
    # shape, and the first array changed in place, each get their own pass
    train, pairs = hub_pairs()
    P, Q = pairs[:800].copy(), pairs[800:1600].copy()

    def check(arr):
        for name in CN_FAMILY:
            got = score_method(train, arr, MethodSpec(name))
            assert np.array_equal(got, reference_common_scores(
                train, arr, name)), name
            assert cached_pattern_is_read_only(train, arr), name
            assert arr.flags.writeable  # the caller's array is left alone
    check(P)
    check(Q)
    before = reference_common_scores(train, P, "cn")
    P[:, 1] = np.roll(P[:, 1], 1)
    assert not np.array_equal(reference_common_scores(train, P, "cn"), before)
    check(P)


@pytest.mark.parametrize("order", [CN_FAMILY[2:] + CN_FAMILY[:2],
                                   CN_FAMILY[3:1:-1] + CN_FAMILY[:2]])
def test_weighted_sums_leave_the_shared_pattern_whole(order):
    # adamic_adar weighs a degree-1 common neighbour by 0, and dropping that
    # term compacts its arrays in place: on the shared pattern it would
    # shift every later row. Sources 800..999 hold the self-pairs (807,
    # 807) and (972, 972), whose common neighbours include one of degree 1.
    g = block_cases()[0][0]
    pairs = block_pairs(800, 1000, g.num_nodes)
    for name in order:
        got = score_method(g, pairs, MethodSpec(name))
        assert np.array_equal(got, reference_common_scores(g, pairs, name)), \
            (order, name)
        assert cached_pattern_is_read_only(g, pairs), name


def test_shared_pattern_fills_equal_under_threads():
    # evaluate --jobs may share one train Graph across threads; the pattern
    # cache has no lock, so threads that race on it, two pair arrays of one
    # shape taking turns in its one entry, must each get the serial scores
    train, pairs = hub_pairs()
    arrays = (pairs[:2000], pairs[2000:4000])
    want = {(a, name): score_method(train, arrays[a], MethodSpec(name))
            for a in range(2) for name in CN_FAMILY}
    workers = 8
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            g = build_graph(train.edge_array(), num_nodes=train.num_nodes)
            barrier = threading.Barrier(workers)
            got = [None] * workers

            def call(t):
                barrier.wait(timeout=10)
                # half the threads start on each array, each at its own method
                names = CN_FAMILY[t % 4:] + CN_FAMILY[:t % 4]
                got[t] = {(a, name): score_method(g, arrays[a],
                                                  MethodSpec(name))
                          for a in (t % 2, 1 - t % 2) for name in names}
            threads = [threading.Thread(target=call, args=(t,))
                       for t in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            for scores in got:
                assert scores.keys() == want.keys()
                for key, value in scores.items():
                    assert np.array_equal(value, want[key]), key
    finally:
        sys.setswitchinterval(old)


# (cost, budget, rows) -> the chunks _chunks cuts. A chunk holds (rows it
# spans) x (its items' cells) <= budget; an item over budget stands alone.
# The one-row cases are the summed costs cost + 1 of the pair kernels and
# the fixed steps (cost 1) of the BFS and walk batches.
BUDGET_COST = np.array([0, 3, 20, 0, 0, 5, 4, 9, 0]) + 1
GRID_ROWS = np.array([0, 0, 1, 1, 1, 2, 5, 5])
GRID_COST = np.array([2, 3, 1, 1, 9, 2, 1, 12])
CHUNK_TABLE = [
    (BUDGET_COST, 10, None,
     [(0, 2), (2, 3), (3, 6), (6, 7), (7, 8), (8, 9)]),
    (BUDGET_COST, 25, None, [(0, 2), (2, 5), (5, 9)]),
    (np.ones(0, dtype=np.int64), 10, None, []),
    (np.ones(3, dtype=np.int64), 1, None, [(0, 1), (1, 2), (2, 3)]),
    (np.ones(7, dtype=np.int64), 3, None, [(0, 3), (3, 6), (6, 7)]),
    (np.ones(6, dtype=np.int64), 3, None, [(0, 3), (3, 6)]),
    (GRID_COST, 10, GRID_ROWS,
     [(0, 2), (2, 4), (4, 5), (5, 6), (6, 7), (7, 8)]),
    (GRID_COST[:0], 10, GRID_ROWS[:0], []),
    (GRID_COST[:3], 0, GRID_ROWS[:3], [(0, 1), (1, 2), (2, 3)]),
]


@pytest.mark.parametrize("cost, budget, rows, want", CHUNK_TABLE)
def test_chunks_cover_in_order_within_budget(cost, budget, rows, want):
    assert list(predictors._chunks(cost, budget, rows)) == want


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


def spy_lookup_borders(monkeypatch):
    """Record the borders that _score_lpi's lookup sub-chunks (the _chunks
    calls that pass rows) cross: "cut" when one starts inside a distinct
    endpoint's group of pairs, "inside" when one lies within a group,
    starting and ending inside it, and "over" when one pair's reads alone
    exceed the cell budget."""
    seen = set()
    chunks = predictors._chunks

    def spy(cost, budget, rows=None):
        for lo, hi in chunks(cost, budget, rows):
            if rows is not None:
                starts_in = 0 < lo and rows[lo - 1] == rows[lo]
                if starts_in:
                    seen.add("cut")
                    if hi < rows.size and rows[hi - 1] == rows[hi]:
                        seen.add("inside")
                if cost[lo:hi].sum() > budget:
                    assert hi - lo == 1
                    seen.add("over")
            yield lo, hi

    monkeypatch.setattr(predictors, "_chunks", spy)
    return seen


# budget (None: the default) -> the lookup borders it must cross; at 512
# the hub's self-pair reads 157 ids against 128 cells
BUDGET_BORDERS = {None: {"cut"}, 1: {"cut", "inside", "over"},
                  512: {"cut", "inside", "over"}, 997: {"cut", "inside"},
                  1 << 11: {"cut", "inside"}, 1 << 14: {"cut"}}


@pytest.mark.parametrize("budget", list(BUDGET_BORDERS))
def test_budgeted_kernels_equal_reference_oracles(budget, monkeypatch):
    train, pairs = hub_pairs()
    if budget == 1:
        # a chunk per pair is slow; a shuffled slice keeps every kind
        pairs = pairs[:1000]
        assert (pairs[:, 0] == pairs[:, 1]).any()
    want = {name: reference_common_scores(train, pairs, name)
            for name in CN_FAMILY}
    for epsilon in (0.01, 0.5):
        want[epsilon] = reference_score_lpi(train, pairs, epsilon)
    if budget is not None:
        monkeypatch.setattr(predictors, "_CHUNK_BUDGET", budget)
        # 512 to 2**14 put chunk borders mid-array, with several pairs in
        # most chunks; 1 gives every pair a chunk of its own
        deg = train.degrees
        cost = deg[pairs[:, 0]] + deg[pairs[:, 1]] + 1
        chunks = list(predictors._chunks(cost, budget))
        assert 1 < len(chunks) and (budget == 1) == (len(chunks) == len(pairs))
    for name in CN_FAMILY:
        got = score_method(train, pairs, MethodSpec(name))
        assert np.array_equal(got, want[name]), name
    borders = spy_lookup_borders(monkeypatch)
    for epsilon in (0.01, 0.5):
        got = score_method(train, pairs, MethodSpec("lpi", epsilon=epsilon))
        assert np.array_equal(got, want[epsilon]), epsilon
    assert borders >= BUDGET_BORDERS[budget], borders


def spy_chunks(monkeypatch):
    """Record what the _chunks calls of a kernel cut: "cut" when a call
    yields more than one chunk, so that a border falls inside a block or a
    BFS level, and "over" when one item, a source's walks or a row's
    gather, alone exceeds the budget."""
    seen = set()
    chunks = predictors._chunks

    def spy(cost, budget, rows=None):
        cut = list(chunks(cost, budget, rows))
        if len(cut) > 1:
            seen.add("cut")
        for lo, hi in cut:
            if cost[lo:hi].sum() > budget:
                assert hi - lo == 1
                seen.add("over")
        return iter(cut)

    monkeypatch.setattr(predictors, "_chunks", spy)
    return seen


# budget (None: the default) -> the chunk borders that the block form of
# every 512-source block of block_cases() and of hub_pairs()' graph must
# cross. At 2**8 sparse_1100's largest vol2, 84, is over a quarter of it,
# and at 2**12 the hub's, 2,102, is over a quarter of it.
BLOCK_BORDERS = {None: set(), 1 << 8: {"cut", "over"},
                 1 << 12: {"cut", "over"}}


@pytest.mark.parametrize("budget", list(BLOCK_BORDERS))
def test_block_common_equals_reference_oracle(budget, monkeypatch):
    # bit for bit: the same index dtypes, column ids and score bytes
    graphs = [g for g, _ in block_cases()] + [hub_pairs()[0]]
    if budget is not None:
        monkeypatch.setattr(predictors, "_CHUNK_BUDGET", budget)
    seen = spy_chunks(monkeypatch)
    for g in graphs:
        for lo in range(0, g.num_nodes, 512):
            hi = min(lo + 512, g.num_nodes)
            for name in CN_FAMILY:
                got = predictors.score_block(g, lo, hi, MethodSpec(name))
                want = reference_block_common(g, lo, hi, name)
                assert got.format == "csr" and got.shape == want.shape
                for part in ("indptr", "indices", "data"):
                    a, b = getattr(got, part), getattr(want, part)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), \
                        (g, lo, name, part)
    assert seen == BLOCK_BORDERS[budget], seen


@pytest.mark.parametrize("budget", [1 << 14, None])
def test_lpi_peak_memory_within_its_stated_bound(budget, monkeypatch):
    # _score_lpi's O(n + pairs + _CHUNK_BUDGET) words, as traced numpy and
    # scipy arrays, on a hub-heavy degree-corrected split. At 2**14 the
    # bound is 8.8 MiB: every distinct endpoint's A^2 row at once would take
    # 28 MiB, and one lookup grid over all of them 35 GiB.
    g = generate_price(20000, 5, seed=2)
    split = make_split(g, 0.25, "degree-corrected", 5)
    pairs = np.concatenate([split.positives, split.negatives])
    split.train.to_scipy_csr()  # the cached matrix is the graph's, not lpi's
    if budget is not None:
        monkeypatch.setattr(predictors, "_CHUNK_BUDGET", budget)
    tracemalloc.start()
    try:
        score_method(split.train, pairs, MethodSpec("lpi"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    words = 16 * (g.num_nodes + pairs.shape[0]) + 2 * predictors._CHUNK_BUDGET
    assert peak <= 8 * words, (peak, 8 * words)


@pytest.mark.parametrize("method", CN_FAMILY)
def test_common_neighbour_peak_memory_within_its_stated_bound(method,
                                                              monkeypatch):
    # _common_pattern's O(n + pairs + sum cn + _CHUNK_BUDGET) words, with
    # the pattern kept in the train graph's cache, as traced numpy and
    # scipy arrays, for 1,000 hub-heavy pairs (sum cn = 25,215) of a train
    # graph with m / n = 37, so that an O(m) array stands out: the bound
    # is 2.5 MiB, a weighted copy of A peaked at 8.6 MiB, and all 1,000
    # pairs' rows and intersections in one chunk at 14.6 MiB
    g = generate_price(5000, 50, seed=2)
    split = make_split(g, 0.25, "degree-corrected", 5)
    pairs = np.concatenate([split.positives, split.negatives])[:1000]
    A = split.train.to_scipy_csr()  # the cached matrix is the graph's
    sum_cn = int(reference_overlap_sum(A, A, pairs).sum())
    monkeypatch.setattr(predictors, "_CHUNK_BUDGET", 1 << 14)
    tracemalloc.start()
    try:
        score_method(split.train, pairs, MethodSpec(method))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    words = (16 * (g.num_nodes + pairs.shape[0]) + 8 * sum_cn
             + 2 * predictors._CHUNK_BUDGET)
    assert peak <= 8 * words, (peak, 8 * words)


@pytest.mark.parametrize("budget", [1 << 12, None], ids=["hub over budget",
                                                     "default"])
@pytest.mark.parametrize("method", CN_FAMILY)
def test_common_neighbour_block_peak_memory_within_its_stated_bound(
        method, budget, monkeypatch):
    # _block_common's O(n + m + support + _CHUNK_BUDGET) words, with no
    # (block, n) array, as traced numpy and scipy arrays, on the hub block
    # of a degree-corrected train graph: a chunk lists at most a quarter of
    # the budget's walks, or one source's vol2 <= 2m. At 2**12 the hub's
    # vol2 is over the whole budget; at the default the block is one chunk
    # of 223,787 walks. The bound is 8 words per support pair, 1 per walk
    # of the largest chunk and 2 per node and edge, 1.81M words at the
    # default: one dense (block, n) float64 array alone takes 2.56M, and a
    # copy of resource_alloc's weighted pattern, private to its chunk, took
    # it to 1.95M (1.74M without).
    g = generate_price(5000, 5, seed=2)
    train = make_split(g, 0.25, "degree-corrected", 5).train
    A = train.to_scipy_csr()  # the cached matrix is the graph's
    lo, hi = 0, 512
    support = (A[lo:hi] @ A).nnz
    if budget is not None:
        monkeypatch.setattr(predictors, "_CHUNK_BUDGET", budget)
        assert (A[lo:hi] @ train.degrees).max() > budget
    vol2 = (A[lo:hi] @ train.degrees).astype(np.int64)
    walks = max(vol2[a:b].sum() for a, b in
                predictors._chunks(vol2 + 1, predictors._CHUNK_BUDGET // 4))
    tracemalloc.start()
    try:
        predictors.score_block(train, lo, hi, MethodSpec(method))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    words = 8 * support + walks + 2 * (g.num_nodes + train.num_edges)
    assert peak <= 8 * words, (peak, 8 * words)


def test_pa_block_peak_memory_is_one_block():
    # the degree outer product taken in float64: one (block, n) float64
    # array, and score_block's finiteness check takes no (block, n) bool
    # mask. An int64 product cast to float64 peaked at 23.5 MiB, the check
    # with a mask at 13.2 MiB, and the bound is 11.9 MiB
    g = generate_price(3000, 5, seed=2)
    n, block = g.num_nodes, 512
    tracemalloc.start()
    try:
        predictors.score_block(g, 0, block, MethodSpec("pa"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * block * n + 64 * n, (peak, 8 * block * n + 64 * n)


@pytest.mark.parametrize("spec, m, lo, hi", [
    (MethodSpec("lrw", walk_steps=2), 5, 0, 512),
    (MethodSpec("lrw"), 5, 0, 512), (MethodSpec("lrw"), 5, 1000, 1512),
    (MethodSpec("lrw", walk_steps=5), 5, 0, 512),
    (MethodSpec("lpi"), 2, 0, 512), (MethodSpec("lpi"), 2, 1000, 1512),
    (MethodSpec("lpi"), 5, 0, 512)], ids=str)
def test_walk_blocks_build_one_block_beside_their_terms(spec, m, lo, hi):
    # lrw's and lpi's block forms, as traced numpy and scipy arrays: the
    # (hi - lo, n) float64 block they return, and beside it lrw's column
    # walk with the products read off it, within the walk's 4 * n * b
    # words for b = max(16, min(256, 2e7 // n)), or lpi's sparse A^2 and
    # A^3 rows of the block, 3 words per entry: both terms and their sum,
    # which scipy sizes for both before it trims. lrw's fwd buffer, its
    # transposed copy and a product beside the block peaked at the block
    # plus 6.1 walks (3.4 now), and lpi's A^2 and A^3 densified apart at
    # 1.35 and 1.62 times the bound on the m = 2 graph (0.81 and 0.89 now).
    g = generate_price(3000, m, seed=2)
    A = g.to_scipy_csr()  # the cached matrix is the graph's
    n = g.num_nodes
    paths2 = A[lo:hi] @ A
    if spec.method == "lrw":
        extra = 4 * n * max(16, min(256, int(2e7 // n)))
    else:
        extra = 3 * (paths2.nnz + (paths2 @ A).nnz) + 2 * n
    del paths2
    tracemalloc.start()
    try:
        predictors.score_block(g, lo, hi, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 8 * ((hi - lo) * n + extra)
    assert peak <= bound, (peak, bound)


# (m, sources, _CHUNK_BUDGET or None for the default) of the level memory
# test: at 2**15 the level budget is 1,024 words, under the hub row's
# gather of 1,416 at m = 40, and at 2**10 it is 32 words, a chunk per row
@pytest.mark.parametrize("m, sources, budget", [
    (5, 64, None), (5, 320, None), (40, 128, None), (40, 128, 1 << 15),
    (5, 64, 1 << 10)])
def test_bfs_level_gather_peak_memory_within_its_stated_bound(
        m, sources, budget, monkeypatch):
    # _bfs_levels' O(n * S / 64 + _CHUNK_BUDGET / 32) words for S sources,
    # as traced numpy arrays, with each level dropped before the next: four
    # (n, S / 64) level arrays, the row bookkeeping, and one chunk's gather
    # and OR, of at most the level budget or one row's words. One gather
    # over all of A took 849,567 words at m = 40, against a bound of 211k.
    g = generate_price(5000, m, seed=2)
    A = g.to_scipy_csr()
    if budget is not None:
        monkeypatch.setattr(predictors, "_CHUNK_BUDGET", budget)
    picked = np.random.default_rng(0).choice(g.num_nodes, sources,
                                             replace=False)
    width = -(-sources // 64)
    row = max(predictors._CHUNK_BUDGET >> 5, g.degrees.max() * width)
    tracemalloc.start()
    try:
        for _, words in predictors._bfs_levels(A, picked):
            del words
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 4 * g.num_nodes * width + 8 * g.num_nodes + 2 * row
    assert peak <= 8 * bound, (peak, 8 * bound)


@pytest.mark.parametrize("graph, lo, hi", [
    ("price", 0, 512), ("price", 1000, 1100), ("path", 0, 300)])
def test_bit_plane_block_peak_memory_within_its_stated_bound(graph, lo, hi):
    # _block_shortest_path's (hi - lo, n) float64 block plus O(n * S)
    # bytes and O(b * n * S / 64 + n * 64 + _CHUNK_BUDGET / 32) words, as
    # traced numpy arrays, for a batch of S = hi - lo sources and b bit
    # planes: the path's block has 9, and uint16 hop counts. A float
    # distance block written level by level and then inverted into a
    # second one peaked at 2.27 blocks on the Price graph; the bound is 1.84
    # at 512 sources, and 1.44 was measured
    g = (generate_price(3000, 5, seed=2) if graph == "price"
         else build_graph([(i, i + 1) for i in range(299)]))
    A = g.to_scipy_csr()  # the cached matrix is the graph's
    n, size = g.num_nodes, hi - lo
    assert size <= predictors._bfs_batch(A)
    planes = int(dijkstra_distances(g, np.arange(lo, hi)).max()).bit_length()
    tracemalloc.start()
    try:
        predictors.score_block(g, lo, hi, MethodSpec("shortest_path"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    words = ((planes + 5) * n * -(-size // 64) + 64 * n
             + 2 * (predictors._CHUNK_BUDGET >> 5))
    bound = 8 * size * n + 4 * n * size + 8 * words
    assert peak <= bound, (peak, bound)


@pytest.mark.parametrize("steps", [1, 2, 5])
def test_lrw_column_walk_peak_memory_within_its_stated_bound(steps):
    # _walk_columns' O(n * b) floats for b = max(16, min(256, 2e7 // n)),
    # as traced numpy and scipy arrays, when the caller drops each batch;
    # at n = 5,000 all n columns at once would take 19.5 * n * b floats
    g = generate_price(5000, 5, seed=2)
    _, PT = predictors._lrw_operators(g)
    n = g.num_nodes
    b = max(16, min(256, int(2e7 // n)))
    tracemalloc.start()
    try:
        for lo, hi, cols in predictors._walk_columns(PT, np.arange(n), steps):
            assert cols.shape == (n, hi - lo) and hi - lo <= b
            del cols
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 4 * n * b, (peak, 8 * 4 * n * b)


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
