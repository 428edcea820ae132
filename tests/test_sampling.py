import collections

import numpy as np
import pytest

from linkbench import (SaturationError, build_graph, endpoint_degree_histogram,
                       generate_price, make_split, sample_negative_degree_corrected,
                       sample_negative_uniform, sampling, split_positive)
from linkbench.graph import _pair_keys

TRIANGLE = [(0, 1), (1, 2), (0, 2)]
PATH = [(0, 1), (1, 2)]


def as_set(edges):
    return {(int(i), int(j)) for i, j in edges}


def test_split_beta_bounds():
    g = build_graph(TRIANGLE)
    for beta in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            split_positive(g, beta, seed=0)


def test_split_counts_round():
    g = build_graph([(0, i + 1) for i in range(8)])     # 8 edges
    _, pos = split_positive(g, 0.25, seed=1)
    assert pos.shape == (2, 2)
    two_edges = build_graph([(0, 1), (2, 3)])
    _, pos = split_positive(two_edges, 0.5, seed=5)
    assert pos.shape[0] == 1


def test_split_partitions_edges_and_keeps_nodes():
    g = generate_price(300, 3, seed=2)
    train, pos = split_positive(g, 0.25, seed=3)
    assert train.num_nodes == g.num_nodes
    assert train.num_edges + pos.shape[0] == g.num_edges
    full = as_set(g.edge_array())
    assert as_set(train.edge_array()) | as_set(pos) == full
    assert as_set(train.edge_array()) & as_set(pos) == set()


def test_split_uniform_over_edges():
    # each triangle edge held out in ~1/3 of seeds
    g = build_graph(TRIANGLE)
    counts = collections.Counter()
    n = 3000
    for seed in range(n):
        _, pos = split_positive(g, 1 / 3, seed=seed)
        counts[tuple(pos[0].tolist())] += 1
    assert set(counts) == {(0, 1), (0, 2), (1, 2)}
    for freq in counts.values():
        assert abs(freq / n - 1 / 3) < 0.03


def test_uniform_negative_unique_non_edge():
    g = build_graph(PATH)
    for seed in range(5):
        neg = sample_negative_uniform(g, 1, seed)
        assert as_set(neg) == {(0, 2)}


def test_uniform_negative_exhausts_star():
    g = build_graph([(0, 1), (0, 2), (0, 3)])
    neg = sample_negative_uniform(g, 3, seed=4)
    assert as_set(neg) == {(1, 2), (1, 3), (2, 3)}


def test_uniform_negative_count_exceeding_supply_is_parameter_error():
    g = build_graph(TRIANGLE)      # complete: no non-edges at all
    with pytest.raises(ValueError):
        sample_negative_uniform(g, 1, seed=0)


def test_uniform_negative_rejection_budget_saturates():
    # K_500 minus one edge: a single non-edge hides among 125k pairs, so
    # the proposal budget runs out before uniform draws can find it
    pairs = [(i, j) for i in range(500) for j in range(i + 1, 500)]
    pairs.remove((7, 123))
    g = build_graph(pairs, num_nodes=500)
    with pytest.raises(SaturationError):
        sample_negative_uniform(g, 1, seed=0)


def test_batches_of_self_pairs_only_saturate():
    # a table of one id proposes only self-pairs, so no batch holds a key
    g = build_graph([], num_nodes=3)
    with pytest.raises(SaturationError):
        sampling._rejection_sample(np.zeros(4, dtype=np.int64), g, 1, seed=0)


def test_degree_corrected_unique_non_edge():
    g = build_graph(PATH)
    for seed in range(5):
        neg = sample_negative_degree_corrected(g, 1, seed)
        assert as_set(neg) == {(0, 2)}


def test_degree_corrected_star_leaf_pairs_only():
    g = build_graph([(0, 1), (0, 2), (0, 3)])
    seen = set()
    for seed in range(60):
        neg = sample_negative_degree_corrected(g, 1, seed)
        seen |= as_set(neg)
    assert seen == {(1, 2), (1, 3), (2, 3)}


def test_degree_corrected_rejects_edgeless_graph():
    g = build_graph([], num_nodes=4)
    with pytest.raises(ValueError):
        sample_negative_degree_corrected(g, 1, seed=0)


def random_graph(n, m, seed):
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, n, size=(m, 2))
    return build_graph(pairs[pairs[:, 0] != pairs[:, 1]], num_nodes=n)


def reference_rejection_sample(draw, g, count, seed):
    """The per-key acceptance loop the vectorised sampler replaced."""
    if count == 0:
        return np.zeros((0, 2), dtype=np.int64)
    n = g.num_nodes
    forbidden = np.unique(_pair_keys(g.edge_array(), n))
    rng = np.random.default_rng(seed)
    budget = 10_000 * count
    attempts = 0
    accepted: list = []
    taken: set = set()
    while len(accepted) < count:
        size = max(1024, 2 * (count - len(accepted)))
        size = min(size, budget - attempts)
        if size <= 0:
            raise SaturationError("proposal budget exhausted")
        attempts += size
        prop = draw(rng, size)
        ok = prop[:, 0] != prop[:, 1]
        keys = _pair_keys(prop, n)
        pos = np.searchsorted(forbidden, keys)
        pos = np.minimum(pos, max(forbidden.size - 1, 0))
        if forbidden.size:
            ok &= forbidden[pos] != keys
        for idx in np.flatnonzero(ok):
            key = int(keys[idx])
            if key in taken:
                continue
            taken.add(key)
            accepted.append(divmod(key, n))
            if len(accepted) == count:
                break
    return np.asarray(accepted, dtype=np.int64)


def reference_uniform_draw(g):
    """The uniform endpoint draw before the endpoint table: node ids drawn
    directly."""
    n = g.num_nodes

    def draw(rng, size):
        return rng.integers(0, n, size=(size, 2), dtype=np.int64)

    return draw


def reference_degree_corrected_draw(g):
    """The degree-corrected endpoint draw before the stub table: a binary
    search of each uniform stub index in the cumulative degrees."""
    cum = np.cumsum(g.degrees)
    total = int(cum[-1])

    def draw(rng, size):
        r = rng.integers(0, total, size=(size, 2), dtype=np.int64)
        return np.searchsorted(cum, r, side="right").astype(np.int64)

    return draw


def reference_sample(fn, g, count, seed):
    """fn's negatives from the reference loop fed the endpoint draw fn used
    before it drew from an endpoint table. Raises ValueError when fewer
    than count pairs are allowed: non-edges, and for the degree-corrected
    sampler non-edges between nodes of positive degree."""
    uniform = fn is sample_negative_uniform
    d = g.num_nodes if uniform else int(np.count_nonzero(g.degrees))
    if count > d * (d - 1) // 2 - g.num_edges:
        raise ValueError("too few allowed pairs")
    draw = (reference_uniform_draw if uniform
            else reference_degree_corrected_draw)(g)
    return reference_rejection_sample(draw, g, count, seed)


def test_degree_corrected_draw_equals_cumulative_search():
    # isolated ids first, last and in between, a star, and a Price graph:
    # the stub table gives the negatives of the cumulative search
    gapped = build_graph([(1, 2), (2, 3), (3, 5), (1, 5), (5, 6)],
                         num_nodes=9)
    star = build_graph([(0, j) for j in range(1, 9)])
    for g, count in ((gapped, 5), (star, 28), (generate_price(2000, 3, 4), 900)):
        want = reference_degree_corrected_draw(g)
        for seed in (0, 1, 7):
            for k in (1, count // 2, count):
                assert np.array_equal(
                    sample_negative_degree_corrected(g, k, seed),
                    reference_rejection_sample(want, g, k, seed))


SAMPLER_FNS = (sample_negative_uniform, sample_negative_degree_corrected)


@pytest.mark.parametrize("fn", SAMPLER_FNS)
def test_negatives_equal_reference_loop(fn):
    # sparse to dense random graphs, so acceptance spans one batch or many
    for seed, (n, m, count) in enumerate([(300, 900, 700), (2000, 6000, 3000),
                                          (60, 1500, 250), (40, 900, 100)]):
        g = random_graph(n, m, seed)
        got = fn(g, count, seed=seed + 7)
        assert np.array_equal(got, reference_sample(fn, g, count, seed + 7))
    # isolated ids first, last and in between
    ids = np.setdiff1d(np.arange(1, 199), np.arange(80, 120))
    pairs = ids[np.random.default_rng(5).integers(0, ids.size, (600, 2))]
    g = build_graph(pairs[pairs[:, 0] != pairs[:, 1]], num_nodes=200)
    assert g.degrees[[0, 100, 199]].sum() == 0
    for seed in range(3):
        got = fn(g, 400, seed)
        assert np.array_equal(got, reference_sample(fn, g, 400, seed))
    # K_40 minus 30 edges: every non-edge is requested
    pairs = [(i, j) for i in range(40) for j in range(i + 1, 40)]
    missing = pairs[::26]
    g = build_graph([p for k, p in enumerate(pairs) if k % 26], num_nodes=40)
    for seed in range(3):
        got = fn(g, len(missing), seed)
        assert np.array_equal(got, reference_sample(fn, g, len(missing), seed))
        assert as_set(got) == set(missing)


def test_sampler_error_texts():
    # evaluate writes these texts into its error rows as "split failed: ..."
    path = build_graph(PATH, num_nodes=4)
    for fn, text in (
            (sample_negative_uniform,
             "requested 5 negatives but only 4 non-edges exist"),
            (sample_negative_degree_corrected,
             "requested 5 negatives but only 1 non-edges exist between "
             "nodes of positive degree")):
        with pytest.raises(ValueError) as info:
            fn(path, 5, seed=0)
        assert str(info.value) == text
    with pytest.raises(ValueError) as info:
        sample_negative_degree_corrected(build_graph([], num_nodes=4), 0, 0)
    assert str(info.value) == "degree-corrected sampling needs at least one edge"


@pytest.mark.parametrize("fn", SAMPLER_FNS)
def test_zero_negatives_are_an_empty_pair_array(fn):
    got = fn(build_graph(PATH), 0, seed=0)
    assert got.shape == (0, 2) and got.dtype == np.int64


@pytest.mark.parametrize("sampler", ["uniform", "degree-corrected"])
def test_negatives_valid_on_random_graphs(sampler):
    fn = (sample_negative_uniform if sampler == "uniform"
          else sample_negative_degree_corrected)
    for seed in range(5):
        g = random_graph(int(300 + 200 * seed), 1200, seed)
        count = 2000
        neg = fn(g, count, seed=seed + 50)
        assert neg.shape == (count, 2)
        pairs = as_set(neg)
        assert len(pairs) == count                       # no duplicates
        assert all(i < j for i, j in pairs)              # canonical, no loops
        assert not g.has_edges(neg).any()


@pytest.mark.parametrize("sampler", ["uniform", "degree-corrected"])
def test_negative_determinism(sampler):
    fn = (sample_negative_uniform if sampler == "uniform"
          else sample_negative_degree_corrected)
    g = random_graph(500, 3000, seed=3)
    a = fn(g, 500, seed=42)
    b = fn(g, 500, seed=42)
    assert np.array_equal(a, b)
    c = fn(g, 500, seed=43)
    assert not np.array_equal(a, c)


def test_endpoint_histogram_triangle_point_mass():
    g = build_graph(TRIANGLE)
    h = endpoint_degree_histogram(g.edge_array(), g)
    assert h[2] == 1.0
    assert h.sum() == pytest.approx(1.0)


def test_endpoint_histogram_rejects_ids_outside_graph():
    # -1 used to count as the last node, and 3 raised IndexError
    g = build_graph(TRIANGLE)
    for pair, bad in (((-1, 0), -1), ((0, 3), 3)):
        with pytest.raises(ValueError, match=f"node id {bad} out of range"):
            endpoint_degree_histogram([pair], g)


def test_endpoint_histogram_star_half_half():
    g = build_graph([(0, 1), (0, 2), (0, 3)])
    h = endpoint_degree_histogram(g.edge_array(), g)
    assert h[3] == pytest.approx(0.5)
    assert h[1] == pytest.approx(0.5)


def test_uniform_positive_endpoints_follow_size_bias():
    # friendship paradox: held-out endpoints average <k^2>/<k>, not <k>
    g = generate_price(40_000, 10, seed=6)
    _, pos = split_positive(g, 0.25, seed=7)
    assert 2 * pos.shape[0] >= 100_000
    deg = g.degrees.astype(np.float64)
    expected = (deg ** 2).mean() / deg.mean()
    measured = deg[pos.ravel()].mean()
    assert abs(measured - expected) / expected < 0.02


def test_degree_corrected_negatives_match_size_biased_law():
    g = generate_price(5000, 8, seed=8)
    neg = sample_negative_degree_corrected(g, 20_000, seed=9)
    h = endpoint_degree_histogram(neg, g)
    deg = g.degrees
    pk = np.bincount(deg, minlength=h.size).astype(np.float64)
    pk /= pk.sum()
    k = np.arange(pk.size, dtype=np.float64)
    sized = k * pk / (k * pk).sum()
    ks = np.abs(np.cumsum(h) - np.cumsum(sized)).max()
    assert ks < 0.05


def test_make_split_wires_everything_together():
    g = generate_price(800, 5, seed=10)
    split = make_split(g, 0.25, "degree-corrected", seed=11)
    assert split.negatives.shape == split.positives.shape
    assert split.train.num_edges + split.positives.shape[0] == g.num_edges
    assert not g.has_edges(split.negatives).any()
    again = make_split(g, 0.25, "degree-corrected", seed=11)
    assert np.array_equal(again.positives, split.positives)
    assert np.array_equal(again.negatives, split.negatives)


def test_make_split_rejects_unknown_sampler():
    g = build_graph(TRIANGLE)
    with pytest.raises(ValueError):
        make_split(g, 0.25, "hardest", seed=0)
