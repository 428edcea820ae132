import itertools
import math

import numpy as np
import pytest

from conftest import neighbors
from linkbench import (METHODS, MethodSpec, auc_roc, build_graph, metrics,
                       predictors, rbo, score_method, top_c_recommend,
                       vcmpr_at_c, vcmpr_per_node)


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


def test_top_c_truncates_when_candidates_run_out():
    g = build_graph([(0, 1), (1, 2), (2, 3)])
    recs = top_c_recommend(g, MethodSpec("pa"), top_c=50)
    # node 0 has candidates {2, 3} only
    assert recs[0].size == 2


def test_top_c_items_hold_only_top_c_ids():
    # items must not be views into the (block, n) argsort of their block
    g = random_graph(300, 0.02, seed=4)
    recs = top_c_recommend(g, MethodSpec("pa"), top_c=4)
    held = {id(r if r.base is None else r.base):
            (r if r.base is None else r.base).size for r in recs}
    assert sum(held.values()) <= g.num_nodes * 4


@pytest.mark.parametrize("method", METHODS)
def test_top_c_scores_without_pair_lists(monkeypatch, method):
    # count every pair that reaches a pair scorer; the block forms build
    # none, and adamic_adar and resource_alloc score only their support
    g = random_graph(600, 0.02, seed=5)
    seen = []

    def counting(fn):
        def wrapped(train, pairs, *args, **kwargs):
            seen.append(len(pairs))
            return fn(train, pairs, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(metrics, "score_method",
                        counting(metrics.score_method))
    for name, (kernel, block) in list(predictors._FORMS.items()):
        monkeypatch.setitem(predictors._FORMS, name, (counting(kernel), block))
    assert len(top_c_recommend(g, MethodSpec(method), top_c=5)) == 600
    A = g.to_scipy_csr()
    if method in ("adamic_adar", "resource_alloc"):
        assert 0 < sum(seen) <= (A @ A).nnz
    else:
        assert sum(seen) == 0


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
