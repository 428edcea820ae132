"""Property tests on small random graphs (needs hypothesis)."""

import itertools
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from linkbench import (METHODS, MethodSpec, SaturationError,  # noqa: E402
                       build_graph, metrics, predictors, rbo,
                       sample_negative_degree_corrected,
                       sample_negative_uniform, score_method, top_c_recommend)
from conftest import dense_adjacency, dense_block  # noqa: E402
from test_graph import assert_matches_reference  # noqa: E402
from test_metrics import oracle_top_c  # noqa: E402
from test_predictors import block_pairs  # noqa: E402
from test_sampling import reference_sample  # noqa: E402


@st.composite
def small_graphs(draw):
    n = draw(st.integers(2, 30))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=n * (n - 1) // 2))
    return build_graph(pairs, num_nodes=n)


@st.composite
def raw_pair_lists(draw):
    """Pair lists with self-loops, both orientations and repeats, and a
    node count that is None (max id + 1) or above the max id."""
    n = draw(st.integers(1, 30))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=60))
    if pairs:
        picks = st.lists(st.sampled_from(pairs), max_size=20)
        pairs += [(j, i) for i, j in draw(picks)] + draw(picks)
    num_nodes = draw(st.sampled_from((None, n, n + 5)))
    return draw(st.permutations(pairs)), num_nodes


@settings(max_examples=200, deadline=None)
@given(raw=raw_pair_lists())
@example(raw=([], None))
@example(raw=([], 3))
def test_build_graph_matches_reference_and_csr_invariants(raw):
    pairs, num_nodes = raw
    g = assert_matches_reference(pairs, num_nodes)
    n, indptr, indices = g.num_nodes, g.indptr, g.indices
    assert indptr[0] == 0 and indptr[-1] == indices.size == 2 * g.num_edges
    assert np.all(np.diff(indptr) >= 0)
    rows = np.repeat(np.arange(n), g.degrees)
    # rows sorted strictly: no repeats; no self-references; symmetric
    same_row = rows[1:] == rows[:-1]
    assert np.all(indices[1:][same_row] > indices[:-1][same_row])
    assert not np.any(rows == indices)
    assert sorted(zip(rows.tolist(), indices.tolist())) == sorted(
        zip(indices.tolist(), rows.tolist()))
    assert g.num_edges + g.dropped_self_loops + g.dropped_duplicates == len(pairs)


def outcome(call, *args):
    """call's result, or the type of the sampling error it raised."""
    try:
        return call(*args)
    except (ValueError, SaturationError) as exc:
        return type(exc)


@settings(max_examples=30, deadline=None)
@given(g=small_graphs(), count=st.integers(1, 20), seed=st.integers(0, 2**32),
       method=st.sampled_from(METHODS), top_c=st.integers(1, 10),
       epsilon=st.sampled_from((0.01, 0.5)),
       walk_steps=st.sampled_from((2, 3, 5)), data=st.data())
def test_sampler_and_top_c_match_reference_loops(g, count, seed, method,
                                                 top_c, epsilon, walk_steps,
                                                 data):
    for fn in (sample_negative_uniform, sample_negative_degree_corrected):
        got = outcome(fn, g, count, seed)
        want = outcome(reference_sample, fn, g, count, seed)
        if isinstance(want, type):
            assert got is want
            continue
        assert np.array_equal(got, want)
        pairs = {(int(i), int(j)) for i, j in got}
        assert len(pairs) == count
        assert all(i < j for i, j in pairs) and not g.has_edges(got).any()

    spec = MethodSpec(method, epsilon=epsilon, walk_steps=walk_steps)
    items = top_c_recommend(g, spec, top_c)
    want = oracle_top_c(g, spec, top_c)
    assert [row.tolist() for row in items] == [want[i]
                                               for i in range(g.num_nodes)]

    n = g.num_nodes
    lo = data.draw(st.integers(0, n))
    hi = data.draw(st.integers(lo, n))
    pair_route = score_method(g, block_pairs(lo, hi, n), spec)
    assert np.array_equal(dense_block(g, lo, hi, spec),
                          pair_route.reshape(hi - lo, n))


def dense_shortest_path_scores(g):
    """1 / d for every pair, with the hop distance d(i, j) read off powers
    of the dense adjacency matrix as the least k >= 1 with A^k[i, j] > 0;
    self-pairs and unreachable pairs score 0."""
    n = g.num_nodes
    a = dense_adjacency(g)
    dist = np.zeros((n, n))
    walks = np.eye(n, dtype=np.int64)
    for k in range(1, n):
        walks = (walks @ a > 0).astype(np.int64)
        dist[(walks > 0) & (dist == 0)] = k
    np.fill_diagonal(dist, 0)
    return np.divide(1.0, dist, out=np.zeros_like(dist), where=dist > 0)


@settings(max_examples=50, deadline=None)
@given(g=small_graphs(), data=st.data())
def test_shortest_path_matches_dense_power_oracle(g, data):
    n = g.num_nodes
    want = dense_shortest_path_scores(g)
    node = st.integers(0, n - 1)
    pairs = np.array(data.draw(st.lists(st.tuples(node, node), min_size=1,
                                        max_size=60)))
    spec = MethodSpec("shortest_path")
    assert np.array_equal(score_method(g, pairs, spec),
                          want[pairs[:, 0], pairs[:, 1]])
    lo = data.draw(st.integers(0, n))
    hi = data.draw(st.integers(lo, n))
    assert np.array_equal(metrics._score_block(g, lo, hi, spec),
                          want[lo:hi])


@settings(max_examples=50, deadline=None)
@given(g=small_graphs(), epsilon=st.floats(1e-6, 10.0), data=st.data())
def test_lpi_and_cn_match_dense_walk_counts(g, epsilon, data):
    # paths2 = A @ A and paths3 = A @ A @ A count walks exactly, so
    # paths2 + epsilon * paths3 rounds once, as lpi's kernels do
    n = g.num_nodes
    a = dense_adjacency(g)
    paths2 = (a @ a).astype(np.float64)
    paths3 = (a @ a @ a).astype(np.float64)
    cases = [(MethodSpec("cn"), paths2),
             (MethodSpec("lpi", epsilon=epsilon), paths2 + epsilon * paths3)]
    node = st.integers(0, n - 1)
    pairs = np.array(data.draw(st.lists(st.tuples(node, node), min_size=1,
                                        max_size=60)))
    lo = data.draw(st.integers(0, n))
    hi = data.draw(st.integers(lo, n))
    for spec, want in cases:
        assert np.array_equal(score_method(g, pairs, spec),
                              want[pairs[:, 0], pairs[:, 1]]), spec
        assert np.array_equal(dense_block(g, lo, hi, spec),
                              want[lo:hi]), spec
        # the smallest budget: a chunk per pair and per distinct endpoint,
        # so self-pairs and repeated endpoints sit at every border
        with mock.patch.object(predictors, "_CHUNK_BUDGET", 1):
            assert np.array_equal(score_method(g, pairs, spec),
                                  want[pairs[:, 0], pairs[:, 1]]), spec


@settings(max_examples=50, deadline=None)
@given(g=small_graphs(), walk_steps=st.sampled_from((2, 3, 5)),
       data=st.data())
def test_remaining_scorers_match_dense_oracles(g, walk_steps, data):
    # pa and jaccard are exact integer arithmetic plus one rounding, so they
    # match exactly; the weighted sums and walk probabilities add in another
    # order than the kernels, so they match to rtol 1e-12
    n = g.num_nodes
    a = dense_adjacency(g)
    deg = a.sum(axis=1)
    inter = (a[:, None, :] & a[None, :, :]).sum(axis=2)
    union = (a[:, None, :] | a[None, :, :]).sum(axis=2)
    jaccard = np.divide(inter, union, out=np.zeros((n, n)), where=union > 0)
    with np.errstate(divide="ignore"):
        aa_w = np.where(deg > 1, 1.0 / np.log(deg), 0.0)
        ra_w = np.where(deg > 0, 1.0 / deg, 0.0)
    # P = D^-1 A; lrw(i, j) = q_i P^t[i, j] + q_j P^t[j, i], q = deg / 2m
    P = np.divide(a, deg[:, None], out=np.zeros((n, n)),
                  where=deg[:, None] > 0)
    walk = (deg / max(deg.sum(), 1))[:, None] * np.linalg.matrix_power(
        P, walk_steps)
    cases = [(MethodSpec("pa"), np.multiply.outer(deg, deg).astype(float), 0),
             (MethodSpec("jaccard"), jaccard, 0),
             (MethodSpec("adamic_adar"), (a * aa_w) @ a, 1e-12),
             (MethodSpec("resource_alloc"), (a * ra_w) @ a, 1e-12),
             (MethodSpec("lrw", walk_steps=walk_steps), walk + walk.T, 1e-12)]
    node = st.integers(0, n - 1)
    pairs = np.array(data.draw(st.lists(st.tuples(node, node), min_size=1,
                                        max_size=60)))
    lo = data.draw(st.integers(0, n))
    hi = data.draw(st.integers(lo, n))
    for spec, want, rtol in cases:
        np.testing.assert_allclose(score_method(g, pairs, spec),
                                   want[pairs[:, 0], pairs[:, 1]],
                                   rtol=rtol, atol=0, err_msg=repr(spec))
        np.testing.assert_allclose(dense_block(g, lo, hi, spec),
                                   want[lo:hi], rtol=rtol, atol=0,
                                   err_msg=repr(spec))


@st.composite
def near_complete_graphs(draw):
    """A complete graph on 2..12 nodes minus up to four edges, with up to
    three isolated nodes besides."""
    k = draw(st.integers(2, 12))
    edges = list(itertools.combinations(range(k), 2))
    removed = draw(st.sets(st.sampled_from(edges), max_size=4))
    isolated = draw(st.integers(0, 3))
    return build_graph([e for e in edges if e not in removed],
                       num_nodes=k + isolated)


@settings(max_examples=100, deadline=None)
@given(g=near_complete_graphs(), shortfall=st.integers(-2, 3),
       seed=st.integers(0, 2**32))
@example(g=build_graph(list(itertools.combinations(range(12), 2))),
         shortfall=0, seed=0)
def test_samplers_on_near_complete_graphs(g, shortfall, seed):
    # a sampler raises ValueError exactly when fewer non-edges exist than
    # asked for; otherwise it finds them all without a SaturationError
    a = dense_adjacency(g)
    i, j = np.triu_indices(g.num_nodes, 1)
    free = a[i, j] == 0
    both_linked = (a.sum(axis=1)[i] > 0) & (a.sum(axis=1)[j] > 0)
    for fn, ok in ((sample_negative_uniform, free),
                   (sample_negative_degree_corrected, free & both_linked)):
        allowed = set(zip(i[ok].tolist(), j[ok].tolist()))
        count = max(1, len(allowed) - shortfall)
        if count > len(allowed):
            with pytest.raises(ValueError):
                fn(g, count, seed)
            continue
        got = fn(g, count, seed)
        pairs = {(min(p), max(p)) for p in got.tolist()}
        assert got.shape == (count, 2) and len(pairs) == count
        assert pairs <= allowed
        assert np.array_equal(fn(g, count, seed), got)


@st.composite
def ranking_pairs(draw):
    """Two rankings of one item set: equal, or the second a permutation."""
    a = draw(st.lists(st.integers(0, 99), min_size=1, max_size=30,
                      unique=True))
    return a, draw(st.one_of(st.just(list(a)), st.permutations(a)))


@settings(max_examples=200, deadline=None)
@given(pair=ranking_pairs(),
       p=st.floats(0, 1, exclude_min=True, exclude_max=True))
# the float sum read 1.0000000000000002 on equal rankings, and exactly 1
# on rankings that differ only in their last two places
@example(pair=([0, 1], [0, 1]), p=0.08)
@example(pair=(list(range(20)), list(range(18)) + [19, 18]), p=0.1)
def test_rbo_in_unit_interval_and_one_only_on_equal_rankings(pair, p):
    a, b = pair
    value = rbo(a, b, p)
    assert 0 <= value <= 1
    assert (value == 1) == (a == b)
