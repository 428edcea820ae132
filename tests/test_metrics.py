import itertools
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy import sparse

from conftest import dense_block, neighbors
from linkbench import (METHODS, MethodSpec, auc_roc, build_graph,
                       generate_price, metrics, predictors, rbo, score_method,
                       top_c_recommend, vcmpr_at_c, vcmpr_per_node)


def brute_auc(pos, neg):
    wins = ties = 0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1
            elif p == n:
                ties += 1
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def test_auc_perfect_separation():
    assert auc_roc([2, 3], [0, 1]) == 1.0


def test_auc_all_ties():
    assert auc_roc([1.0, 1.0, 1.0], [1.0, 1.0]) == 0.5


def test_auc_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(100):
        npos = int(rng.integers(1, 200))
        nneg = int(rng.integers(1, 200))
        # round to one decimal so ties actually occur
        pos = np.round(rng.normal(size=npos), 1)
        neg = np.round(rng.normal(size=nneg), 1)
        assert auc_roc(pos, neg) == pytest.approx(brute_auc(pos, neg), abs=1e-12)


def test_auc_complement_symmetry():
    rng = np.random.default_rng(4)
    for _ in range(20):
        pos = np.round(rng.normal(size=50), 1)
        neg = np.round(rng.normal(size=70), 1)
        assert auc_roc(pos, neg) + auc_roc(neg, pos) == pytest.approx(1.0, abs=1e-12)


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(5)
    pos = rng.normal(size=80)
    neg = rng.normal(size=60)
    base = auc_roc(pos, neg)
    assert auc_roc(np.exp(pos), np.exp(neg)) == pytest.approx(base, abs=1e-12)
    assert auc_roc(3 * pos + 7, 3 * neg + 7) == pytest.approx(base, abs=1e-12)


def test_auc_rejects_empty_and_nan():
    with pytest.raises(ValueError):
        auc_roc([], [1.0])
    with pytest.raises(ValueError):
        auc_roc([1.0], [])
    with pytest.raises(ValueError):
        auc_roc([1.0, float("nan")], [0.0])


def random_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return build_graph(pairs, num_nodes=n)


def oracle_top_c(train, spec, c):
    """All-pairs scoring plus a python sort; ties by ascending id."""
    out = {}
    for i in range(train.num_nodes):
        banned = set(neighbors(train, i).tolist()) | {i}
        cands = [j for j in range(train.num_nodes) if j not in banned]
        if not cands:
            out[i] = []
            continue
        scores = score_method(train, [(i, j) for j in cands], spec)
        order = sorted(zip(cands, scores), key=lambda t: (-t[1], t[0]))
        out[i] = [j for j, _ in order[:c]]
    return out


def argsort_rows(scores, mask, c):
    """top_c_recommend's route before the partition cut and the support
    route, on one dense block: each row's negated scores, +inf where mask
    is set, one stable argsort, and the first min(c, unmasked) ids."""
    neg = -scores
    neg[mask] = np.inf
    top = np.argsort(neg, axis=1, kind="stable")
    return [top[r, :min(c, int((~mask[r]).sum()))].copy()
            for r in range(top.shape[0])]


def argsort_top_c(train, spec, c):
    """argsort_rows over 512-source blocks, self and neighbours masked."""
    n = train.num_nodes
    deg = train.degrees
    out = []
    for lo in range(0, n, 512):
        hi = min(lo + 512, n)
        rows = np.arange(hi - lo)
        mask = np.zeros((hi - lo, n), dtype=bool)
        mask[rows, rows + lo] = True
        mask[np.repeat(rows, deg[lo:hi]),
             train.indices[train.indptr[lo]:train.indptr[hi]]] = True
        out.extend(argsort_rows(dense_block(train, lo, hi, spec), mask, c))
    return out


def test_top_c_path_single_candidate():
    g = build_graph([(0, 1), (1, 2)])
    recs = top_c_recommend(g, MethodSpec("cn"), top_c=1)
    assert recs[0].tolist() == [2]


def test_top_c_complete_graph_empty():
    g = build_graph([(i, j) for i in range(5) for j in range(i + 1, 5)])
    recs = top_c_recommend(g, MethodSpec("cn"), top_c=3)
    assert all(recs[i].size == 0 for i in range(5))


@pytest.mark.parametrize("method", METHODS)
def test_top_c_matches_exhaustive_oracle(method):
    g = random_graph(100, 0.06, seed=9)
    spec = MethodSpec(method)
    recs = top_c_recommend(g, spec, top_c=7)
    want = oracle_top_c(g, spec, 7)
    for i in range(g.num_nodes):
        assert recs[i].tolist() == want[i], f"node {i}"


def argsort_cases():
    """Graphs of more than 1,024 nodes, so that lists cross two 512-source
    block borders: a Price graph and a sparse random graph whose ids
    1000..1099 have degree 0."""
    rng = np.random.default_rng(1)
    return [generate_price(1300, 3, seed=1),
            build_graph(rng.integers(0, 1000, size=(2500, 2)),
                        num_nodes=1100)]


@pytest.mark.parametrize("method", METHODS)
def test_top_c_matches_argsort_route(method):
    spec = MethodSpec(method)
    for g in argsort_cases():
        assert g.num_nodes > 2 * metrics._REC_BLOCK
        for c in (1, 50, g.num_nodes):
            got = top_c_recommend(g, spec, c)
            want = argsort_top_c(g, spec, c)
            assert len(got) == len(want) == g.num_nodes
            for i, (a, b) in enumerate(zip(got, want)):
                assert a.dtype == np.int64 and np.array_equal(a, b), (g, c, i)


def crafted_blocks():
    """(name, scores, mask, c) blocks for the two selection routes."""
    rng = np.random.default_rng(4)
    mixed = rng.integers(0, 4, size=(6, 9)).astype(np.float64)
    mixed_mask = rng.random((6, 9)) < 0.3
    mixed_mask[0] = True  # a row with no candidate at all
    mixed_mask[1] = False
    mixed_mask[2, 1:] = True  # one candidate
    none = np.zeros((1, 5), dtype=bool)
    return [
        ("all equal", np.full((2, 5), 2.0), np.eye(2, 5, dtype=bool), 2),
        ("all zero", np.zeros((2, 6)), np.eye(2, 6, dtype=bool), 3),
        ("signed zeros", np.array([[0.0, -0.0, 1.0, 0.0, -0.0, 0.0]]),
         np.zeros((1, 6), dtype=bool), 3),
        ("tie across the cut", np.array([[5.0, 3, 1, 3, 3, 0, 3]]),
         np.zeros((1, 7), dtype=bool), 3),
        ("tie at the cut with a masked tie",
         np.array([[3.0, 3, 1, 3, 3, 0, 3]]),
         np.array([[False, True, False, False, True, False, False]]), 2),
        ("fewer than c candidates", np.array([[1.0, 2, 2, 0, 4]] * 3),
         np.array([[True, False, True, True, True],
                   [True, True, True, True, True],
                   [False, True, False, True, False]]), 4),
        ("c = 1", mixed, mixed_mask, 1),
        ("c = n - 1", mixed, mixed_mask, 8),
        ("c = n", mixed, mixed_mask, 9),
        ("c > n", mixed, mixed_mask, 40),
        ("one row, c = n - 1", np.array([[0.0, 1, 1, 0, 2]]), none, 4),
        ("one row, c > n", np.array([[0.0, 1, 1, 0, 2]]), none, 7),
    ]


@pytest.mark.parametrize("name, scores, mask, c", crafted_blocks(),
                         ids=[case[0] for case in crafted_blocks()])
def test_top_c_selection_routes_match_argsort(name, scores, mask, c):
    # both routes on one block: the threshold cut of a dense block, and the
    # support route on the same scores as a CSR matrix, whose unstored
    # scores are exactly 0, once with only the nonzeros stored and once
    # with the zeros (of either sign) of even ids stored too
    want = [row.tolist() for row in argsort_rows(scores, mask, c)]
    masked = np.flatnonzero(mask)
    keep = np.minimum(c, (~mask).sum(axis=1))
    ends = np.cumsum(keep).tolist()
    rows, ids = np.nonzero((scores != 0) | (np.arange(scores.shape[1]) % 2
                                            == 0))
    some_zeros = sparse.csr_matrix((scores[rows, ids], (rows, ids)),
                                   shape=scores.shape)
    for route, block in ((metrics._top_dense, scores.copy()),
                         (metrics._top_support, sparse.csr_matrix(scores)),
                         (metrics._top_support, some_zeros)):
        ids = route(block, masked, keep)
        assert ids.dtype == np.int64
        got = [ids[a - k:a].tolist() for a, k in zip(ends, keep.tolist())]
        assert got == want, route.__name__


@pytest.mark.parametrize("method", METHODS)
def test_top_c_degree_zero_sources_and_edgeless_graphs(method):
    spec = MethodSpec(method)
    for g in (build_graph([(0, 1), (1, 2), (2, 3)], num_nodes=6),
              build_graph([], num_nodes=5), build_graph([], num_nodes=1)):
        for c in (1, 2, g.num_nodes - 1, g.num_nodes + 2):
            if c < 1:
                continue
            want = oracle_top_c(g, spec, c)
            got = top_c_recommend(g, spec, c)
            assert [row.tolist() for row in got] == [
                want[i] for i in range(g.num_nodes)], (g, c)
            assert all(np.array_equal(a, b) for a, b in
                       zip(got, argsort_top_c(g, spec, c)))


# method -> the top-C route its score_block result takes: the threshold
# cut of a dense (block, n) array, or the ranked support of a CSR block
TOP_C_ROUTES = {
    "pa": "_top_dense",
    "cn": "_top_support",
    "jaccard": "_top_support",
    "adamic_adar": "_top_support",
    "resource_alloc": "_top_support",
    "lpi": "_top_dense",
    "shortest_path": "_top_dense",
    "lrw": "_top_dense",
}


def test_every_method_has_a_top_c_route():
    assert set(TOP_C_ROUTES) == set(METHODS)


@pytest.mark.parametrize("method", METHODS)
def test_each_method_takes_exactly_one_top_c_route(method, monkeypatch):
    # every block of every method is ranked by one route, the one the
    # table names; the support route's fill ranks every unstored score as
    # 0 behind the stored ones, so its stored scores must not be negative
    g = random_graph(600, 0.02, seed=5)
    calls = []

    def counting(name):
        route = getattr(metrics, name)

        def wrapped(scores, masked, keep):
            calls.append(name)
            if sparse.issparse(scores):
                assert scores.format == "csr" and scores.has_sorted_indices
                assert (scores.data >= 0).all()
            return route(scores, masked, keep)
        return wrapped

    for name in ("_top_dense", "_top_support"):
        monkeypatch.setattr(metrics, name, counting(name))
    top_c_recommend(g, MethodSpec(method), top_c=5)
    assert calls == [TOP_C_ROUTES[method]] * 2


def test_top_c_truncates_when_candidates_run_out():
    g = build_graph([(0, 1), (1, 2), (2, 3)])
    recs = top_c_recommend(g, MethodSpec("pa"), top_c=50)
    # node 0 has candidates {2, 3} only
    assert recs[0].size == 2


def test_top_c_items_hold_only_top_c_ids():
    # items must not be views into a (block, n) array of their block
    g = random_graph(300, 0.02, seed=4)
    recs = top_c_recommend(g, MethodSpec("pa"), top_c=4)
    held = {id(r if r.base is None else r.base):
            (r if r.base is None else r.base).size for r in recs}
    assert sum(held.values()) <= g.num_nodes * 4


@pytest.mark.parametrize("method", METHODS)
def test_top_c_scores_without_pair_lists(monkeypatch, method):
    # count every pair that reaches a pair scorer, and every pass of the
    # common-neighbour pair kernel: no block form builds a pair list or
    # calls a pair kernel, the common-neighbour family scores its support
    # from its own walk listing with no _common_pattern pass, and no block
    # leaves its support pairs in the graph's pattern cache
    g = random_graph(600, 0.02, seed=5)
    seen = []
    passes = []

    def counting(fn, log):
        def wrapped(train, pairs, *args, **kwargs):
            log.append(len(pairs))
            return fn(train, pairs, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(metrics, "score_method",
                        counting(metrics.score_method, seen))
    for name, (kernel, block) in list(predictors._FORMS.items()):
        monkeypatch.setitem(predictors._FORMS, name,
                            (counting(kernel, seen), block))
    monkeypatch.setattr(predictors, "_common_pattern",
                        counting(predictors._common_pattern, passes))
    assert len(top_c_recommend(g, MethodSpec(method), top_c=5)) == 600
    assert seen == [] and passes == []
    assert g._common is None


@pytest.mark.parametrize("method", ["pa", "lpi", "shortest_path", "lrw",
                                    "cn", "jaccard", "adamic_adar"])
def test_top_c_peak_memory_within_its_stated_bound(method):
    # top_c_recommend's stated bounds, as traced numpy and scipy arrays over
    # the whole call, with the result's O(n * top_c) ids. A dense route
    # holds one (block, n) float64 block, and beside it either what
    # score_block takes to build it or _top_dense's partition copy, one
    # block: lrw's column walk, 4 * n * b words; lpi's sparse A^2 and A^3
    # rows, 3 words per entry of the fullest block; shortest_path's hop
    # counts and bit planes, under a block here even with a plane per bit
    # of n; pa nothing. The common-neighbour family takes O(support + n +
    # m + _CHUNK_BUDGET) words and no (block, n) array; here a block's
    # walks are about its support, so the walk listing fits in the support
    # term. At n = 5,000 one (block, n) float64 array takes 19.5 MiB, and
    # the bounds are 42.9 MiB for pa and shortest_path, 62.4 MiB for lrw
    # and 77.4 MiB for lpi. Built beside more blocks, or with the last
    # block kept alive while the next was scored, lpi, shortest_path and
    # lrw peaked at 79.2, 49.7 and 100.2 MiB.
    g = generate_price(5000, 5, seed=2)
    A = g.to_scipy_csr()  # the cached matrix is the graph's
    n, block, top_c = g.num_nodes, metrics._REC_BLOCK, 50
    blocks = [A[lo:lo + block] @ A for lo in range(0, n, block)]
    tracemalloc.start()
    try:
        top_c_recommend(g, MethodSpec(method), top_c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if TOP_C_ROUTES[method] == "_top_support":
        support = max(paths2.nnz for paths2 in blocks)
        words = 2 * n * top_c + 16 * (support + n)
    else:
        walk = 4 * n * max(16, min(256, int(2e7 // n)))
        terms = 3 * max(paths2.nnz + (paths2 @ A).nnz for paths2 in blocks)
        planes = n.bit_length()
        hops = ((planes + 5) * n * -(-block // 64) + 64 * n + n * block // 8
                + 2 * (predictors._CHUNK_BUDGET >> 5))
        assert hops < block * n
        extra = {"pa": 0, "lpi": terms, "shortest_path": hops,
                 "lrw": walk}[method]
        words = block * n + max(block * n, extra) + 2 * n * top_c
    assert peak <= 8 * words, (peak, 8 * words)


def test_top_c_drops_each_block_before_it_scores_the_next(monkeypatch):
    # the spy keeps a weak reference to each block it hands out: when the
    # next block is asked for, the last one must be gone, whichever route
    # ranked it
    g = random_graph(1100, 0.01, seed=6)
    for method in METHODS:
        refs = []

        def spy(train, lo, hi, spec):
            assert all(ref() is None for ref in refs), (spec.method, lo)
            scores = predictors.score_block(train, lo, hi, spec)
            refs.append(weakref.ref(scores))
            return scores

        monkeypatch.setattr(metrics, "score_block", spy)
        top_c_recommend(g, MethodSpec(method), top_c=5)
        assert len(refs) == 3


def reference_vcmpr_per_node(items, positives, top_c):
    """The per-node set loop that vcmpr_per_node replaced."""
    partners: dict = {}
    for i, j in np.asarray(positives).tolist():
        partners.setdefault(i, set()).add(j)
        partners.setdefault(j, set()).add(i)
    rows = []
    for node, mates in sorted(partners.items()):
        hits = len(mates.intersection(items[node][:top_c].tolist()))
        precision = hits / top_c
        recall = hits / len(mates)
        rows.append((node, hits, len(mates), precision, recall,
                     max(precision, recall)))
    return rows


def test_vcmpr_per_node_matches_set_loop():
    rng = np.random.default_rng(8)
    g = random_graph(120, 0.05, seed=3)
    recs = top_c_recommend(g, MethodSpec("cn"), top_c=6)
    for size in (1, 5, 40, 400):
        # repeats, reversed pairs and self-pairs included
        pos = rng.integers(0, 120, size=(size, 2))
        for top_c in (1, 3, 6, 9):
            got = vcmpr_per_node(recs, pos, top_c)
            want = reference_vcmpr_per_node(recs, pos, top_c)
            assert got == want
            assert [tuple(map(type, r)) for r in got] == \
                [(int, int, int, float, float, float)] * len(got)


def test_vcmpr_recall_saturates():
    # node 0's single held-out partner is its top candidate
    g = build_graph([(0, 1), (1, 2), (1, 3), (3, 4)], num_nodes=5)
    recs = top_c_recommend(g, MethodSpec("cn"), top_c=50)
    assert 2 in recs[0].tolist()
    val = vcmpr_at_c(recs, [(0, 2)], top_c=50)
    assert val == pytest.approx(max(1 / 50, 1 / 1) / 2 + max(1 / 50, 1 / 1) / 2)


def test_vcmpr_zero_when_partner_missed():
    g = build_graph([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], num_nodes=6)
    recs = top_c_recommend(g, MethodSpec("cn"), top_c=1)
    # 0 and 5 sit on opposite ends: cn(0,5)=0 so 5 cannot enter 0's top-1
    # unless nothing better exists; check against the definition directly
    partners = {0: {5}, 5: {0}}
    want = np.mean([
        max(len(set(recs[i].tolist()) & partners[i]) / 1,
            len(set(recs[i].tolist()) & partners[i]) / len(partners[i]))
        for i in (0, 5)
    ])
    assert vcmpr_at_c(recs, [(0, 5)], top_c=1) == pytest.approx(want)


def test_vcmpr_hand_enumeration_toy():
    # 8-node graph, 3 held-out edges, C=2; every quantity enumerated by hand
    train = build_graph([(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6),
                         (6, 7), (7, 4)], num_nodes=8)
    positives = [(0, 2), (4, 6), (5, 7)]
    recs = top_c_recommend(train, MethodSpec("cn"), top_c=2)

    # square 0-1-2-3: cn(0,2)=2 via {1,3}; candidates of 0 are {2,4,5,6,7}
    assert recs[0].tolist()[0] == 2
    expected = {
        0: max(1 / 2, 1 / 1),   # partner 2 ranked first
        2: max(1 / 2, 1 / 1),
        4: max(1 / 2, 1 / 1),
        6: max(1 / 2, 1 / 1),
        5: max(1 / 2, 1 / 1),
        7: max(1 / 2, 1 / 1),
    }
    want = sum(expected.values()) / len(expected)
    assert vcmpr_at_c(recs, positives, top_c=2) == pytest.approx(want)


def test_vcmpr_per_node_terms_and_mean():
    train = build_graph([(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6),
                         (6, 7), (7, 4)], num_nodes=8)
    positives = [(0, 2), (0, 5), (4, 6)]
    recs = top_c_recommend(train, MethodSpec("cn"), top_c=2)
    rows = vcmpr_per_node(recs, positives, top_c=2)
    assert [r[0] for r in rows] == [0, 2, 4, 5, 6]
    # node 0: partner 2 is its top candidate, partner 5 shares no neighbor
    assert rows[0] == (0, 1, 2, 0.5, 0.5, 0.5)
    assert vcmpr_at_c(recs, positives, top_c=2) == float(
        np.mean([r[5] for r in rows]))


def test_vcmpr_requires_positives():
    g = build_graph([(0, 1), (1, 2)])
    recs = top_c_recommend(g, MethodSpec("cn"), top_c=2)
    with pytest.raises(ValueError):
        vcmpr_at_c(recs, [], top_c=2)


@pytest.mark.parametrize("top_c", [0, -1, True, False, 2.5, 2.0, "2", None,
                                   2 ** 63, np.uint64(2 ** 63)])
def test_top_c_must_be_an_integer_of_at_least_one(top_c):
    # a bool is not a count, and a float is not taken as one; 2**63 is past
    # the int64 that numpy takes a list length as, and used to raise
    # OverflowError from np.minimum
    g = build_graph([(0, 1), (1, 2), (2, 3)])
    recs = top_c_recommend(g, MethodSpec("cn"), top_c=2)
    message = re.escape(f"top_c must be an integer in [1, 2**63), got "
                        f"{top_c!r}")
    with pytest.raises(ValueError, match=message):
        top_c_recommend(g, MethodSpec("cn"), top_c)
    with pytest.raises(ValueError, match=message):
        vcmpr_per_node(recs, [(0, 2)], top_c)
    # a numpy uint64 used to turn the list lengths into floats
    for fine in (np.int64(2), np.uint64(2)):
        assert len(top_c_recommend(g, MethodSpec("cn"), fine)[0]) == 2
    longest = top_c_recommend(g, MethodSpec("cn"), 2 ** 63 - 1)
    assert [len(x) for x in longest] == [2, 1, 1, 2]
    assert vcmpr_per_node(longest, [(0, 2)], 2 ** 63 - 1)[0][1] == 1


def rbo_reference(a, b, p):
    d = len(a)
    total = 0.0
    for depth in range(1, d + 1):
        overlap = len(set(a[:depth]) & set(b[:depth])) / depth
        total += p ** (depth - 1) * overlap
    tail = len(set(a) & set(b)) / d
    return (1 - p) * total + p ** d * tail


def test_rbo_identical_is_one():
    for p in (0.3, 0.5, 0.9):
        assert rbo(["a", "b", "c"], ["a", "b", "c"], p) == pytest.approx(1.0)


def test_rbo_single_swap_half():
    assert rbo(["x", "y", "z"], ["y", "x", "z"], 0.5) == pytest.approx(0.5)


def test_rbo_reversed_pair_half():
    assert rbo(["x", "y"], ["y", "x"], 0.5) == pytest.approx(0.5)


def test_rbo_matches_reference_on_random_permutations():
    rng = np.random.default_rng(11)
    items = list("abcdefg")
    for _ in range(50):
        a = list(rng.permutation(items))
        b = list(rng.permutation(items))
        p = float(rng.uniform(0.1, 0.95))
        assert rbo(a, b, p) == pytest.approx(rbo_reference(a, b, p), abs=1e-12)


def test_rbo_symmetry():
    a, b = list("abcde"), list("baecd")
    assert rbo(a, b, 0.5) == pytest.approx(rbo(b, a, 0.5))


def test_rbo_adjacent_swap_monotone():
    # swapping b[d], b[d+1] changes only the depth-(d+1) prefix overlap;
    # rbo must move in the same direction as that overlap, exhaustively
    # over every permutation pair of up to 5 items
    items = list(range(5))
    a = items
    for b in itertools.permutations(items):
        b = list(b)
        base = rbo(a, b, 0.5)
        for d in range(len(b) - 1):
            swapped = b.copy()
            swapped[d], swapped[d + 1] = swapped[d + 1], swapped[d]
            before = len(set(a[:d + 1]) & set(b[:d + 1]))
            after = len(set(a[:d + 1]) & set(swapped[:d + 1]))
            val = rbo(a, swapped, 0.5)
            if after > before:
                assert val > base
            elif after < before:
                assert val < base
            else:
                assert val == pytest.approx(base, abs=1e-12)


def test_rbo_validation():
    with pytest.raises(ValueError):
        rbo(["a", "b"], ["a", "c"], 0.5)        # different item sets
    with pytest.raises(ValueError):
        rbo(["a", "a"], ["a", "a"], 0.5)        # duplicates
    with pytest.raises(ValueError):
        rbo(["a"], ["a"], 0.0)                  # p outside (0,1)
    with pytest.raises(ValueError):
        rbo([], [], 0.5)                        # empty
