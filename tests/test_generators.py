import numpy as np
import pytest
from scipy.sparse import csgraph

from linkbench import (GenerationError, LfrParams, build_graph,
                       degree_sequence_graph, fit_lognormal_degrees,
                       generate_lfr, generate_price, mixing_fraction,
                       sample_powerlaw_degrees)


def n_components(g):
    return csgraph.connected_components(g.to_scipy_csr(), directed=False)[0]


def reference_price(n, m, seed):
    """The per-stub loop generate_price replaced, kept as its oracle."""
    rng = np.random.default_rng(seed)
    num_edges = n * m - m * (m + 1) // 2
    edges = np.empty((num_edges, 2), dtype=np.int64)
    stubs = np.empty(2 * num_edges, dtype=np.int64)
    e = 0
    for i in range(m + 1):
        for j in range(i + 1, m + 1):
            edges[e] = (i, j)
            stubs[2 * e], stubs[2 * e + 1] = i, j
            e += 1
    for v in range(m + 1, n):
        filled = 2 * e
        targets, seen = [], set()
        while len(targets) < m:
            picks = stubs[rng.integers(0, filled, size=m - len(targets))]
            for t in picks:
                t = int(t)
                if t not in seen:
                    seen.add(t)
                    targets.append(t)
                    if len(targets) == m:
                        break
        for t in targets:
            edges[e] = (v, t)
            stubs[2 * e], stubs[2 * e + 1] = v, t
            e += 1
    return build_graph(edges, num_nodes=n)


@pytest.mark.parametrize("n, m, seed", [
    (2, 1, 0), (6, 5, 3), (400, 1, 7), (500, 3, 11), (800, 7, 2),
    (300, 12, 5), (1000, 4, 9),
])
def test_price_matches_reference_loop(n, m, seed):
    got, want = generate_price(n, m, seed), reference_price(n, m, seed)
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)


def test_price_seed_clique_only():
    g = generate_price(3, 2, seed=0)
    assert g.num_nodes == 3
    assert g.num_edges == 3
    assert all(g.degrees[i] == 2 for i in range(3))


def test_price_edge_count_exact():
    n, m = 400, 7
    g = generate_price(n, m, seed=1)
    assert g.num_edges == m * (m + 1) // 2 + (n - m - 1) * m


def test_price_connected_min_degree():
    g = generate_price(2000, 3, seed=2)
    assert n_components(g) == 1
    assert g.degrees.min() >= 3


def test_price_rejects_bad_sizes():
    with pytest.raises(ValueError):
        generate_price(3, 3, seed=0)
    with pytest.raises(ValueError):
        generate_price(10, 0, seed=0)


def test_price_deterministic_per_seed():
    a = generate_price(500, 4, seed=9)
    b = generate_price(500, 4, seed=9)
    assert np.array_equal(a.edge_array(), b.edge_array())
    c = generate_price(500, 4, seed=10)
    assert not np.array_equal(a.edge_array(), c.edge_array())


def test_price_heavy_tail_slope():
    # exponent-3 degree law shows up as CCDF slope near -2 on log-log
    g = generate_price(100_000, 10, seed=1)
    assert abs(g.num_edges - 1_000_000) < 100
    deg = np.sort(g.degrees)
    ks = np.unique(deg)
    ccdf = 1.0 - np.searchsorted(deg, ks, side="left") / deg.size
    keep = (ks >= 10) & (ccdf * deg.size >= 10)
    slope = np.polyfit(np.log(ks[keep]), np.log(ccdf[keep]), 1)[0]
    assert -2.4 < slope < -1.6


def test_price_log_degree_spread_in_frozen_band():
    # multi-seed band measured once on this generator and frozen
    for seed in (0, 7, 19):
        g = generate_price(10_000, 10, seed=seed)
        sigma = fit_lognormal_degrees(g).sigma
        assert 0.515 < sigma < 0.535


def test_powerlaw_degenerate_support_is_constant():
    d = sample_powerlaw_degrees(10, 4.0, k_min=4, k_max=4, seed=0)
    assert d.tolist() == [4] * 10


def test_powerlaw_sum_forced_even():
    d = sample_powerlaw_degrees(3, 4.0, k_min=3, k_max=3, seed=0)
    assert d.sum() % 2 == 0
    assert sorted(d.tolist()) == [2, 3, 3]     # one entry decremented
    for seed in range(10):
        d = sample_powerlaw_degrees(501, 2.5, k_min=2, k_max=50, seed=seed)
        assert d.sum() % 2 == 0


def test_powerlaw_hits_target_mean():
    d = sample_powerlaw_degrees(3000, 3.0, k_max=1000, target_mean=25.0, seed=1)
    assert 23.75 <= d.mean() <= 26.25
    assert d.max() <= 1000


def test_powerlaw_infeasible_target_rejected():
    with pytest.raises(ValueError):
        sample_powerlaw_degrees(100, 3.0, k_max=1000, target_mean=2000.0, seed=0)
    with pytest.raises(ValueError):
        sample_powerlaw_degrees(100, 2.0, k_max=10, target_mean=50.0, seed=0)


def test_powerlaw_matches_analytic_ccdf():
    tau, k_min, k_max, n = 2.5, 5, 1000, 100_000
    d = sample_powerlaw_degrees(n, tau, k_min=k_min, k_max=k_max, seed=3)
    support = np.arange(k_min, k_max + 1, dtype=np.float64)
    pmf = support ** -tau
    pmf /= pmf.sum()
    cdf = np.cumsum(pmf)
    ecdf = np.searchsorted(np.sort(d), support, side="right") / n
    # ignore the single decremented entry if the raw sum was odd
    assert np.abs(ecdf - cdf).max() < 0.05


BASE = dict(n=3000, tau1=3.0, tau2=3.0, avg_degree=25.0, max_degree=1000,
            min_comm=100, max_comm=1000)


def test_lfr_params_validation():
    with pytest.raises(ValueError):
        LfrParams(mu=0.3, **dict(BASE, tau1=1.0))
    with pytest.raises(ValueError):
        LfrParams(mu=1.5, **BASE)
    with pytest.raises(ValueError):
        LfrParams(mu=0.3, **dict(BASE, min_comm=500, max_comm=100))
    with pytest.raises(ValueError):
        LfrParams(mu=0.3, **dict(BASE, avg_degree=2000.0))
    with pytest.raises(ValueError):
        # a max-degree hub needs (1-mu) k_max internal partners but the
        # largest community cannot hold them
        LfrParams(mu=0.0, **dict(BASE, max_comm=900, min_comm=100))


def test_lfr_mu_zero_is_disjoint_union_of_communities():
    params = LfrParams(mu=0.0, **dict(BASE, max_degree=90))
    g, labels = generate_lfr(params, seed=5)
    assert mixing_fraction(g, labels) == 0.0
    assert n_components(g) >= len(np.unique(labels))


def test_lfr_mu_one_has_no_internal_edges():
    params = LfrParams(mu=1.0, **BASE)
    g, labels = generate_lfr(params, seed=6)
    assert mixing_fraction(g, labels) == 1.0


def test_lfr_realized_mixing_tracks_request():
    params = LfrParams(mu=0.3, **BASE)
    g, labels = generate_lfr(params, seed=7)
    assert abs(mixing_fraction(g, labels) - 0.3) <= 0.02
    assert 0.28 <= mixing_fraction(g, labels) <= 0.32


def test_lfr_community_sizes_within_bounds():
    params = LfrParams(mu=0.2, **BASE)
    g, labels = generate_lfr(params, seed=8)
    assert labels.shape == (3000,)
    sizes = np.bincount(labels)
    assert sizes.sum() == 3000
    assert sizes.min() >= 100
    assert sizes.max() <= 1000


def test_lfr_degrees_near_target_mean():
    params = LfrParams(mu=0.4, **BASE)
    g, _ = generate_lfr(params, seed=9)
    assert abs(g.degrees.mean() - 25.0) / 25.0 < 0.1


def test_lfr_deterministic_per_seed():
    params = LfrParams(mu=0.5, **BASE)
    g1, l1 = generate_lfr(params, seed=10)
    g2, l2 = generate_lfr(params, seed=10)
    assert np.array_equal(g1.edge_array(), g2.edge_array())
    assert np.array_equal(l1, l2)


def test_degree_sequence_graph_realizes_easy_sequence():
    degrees = np.full(200, 4)
    g = degree_sequence_graph(degrees, seed=11)
    assert np.array_equal(np.sort(g.degrees), np.sort(degrees))


def test_stub_loss_warning_points_at_the_caller():
    with pytest.warns(UserWarning, match="discarded 4 of 6 stubs") as seen:
        degree_sequence_graph([5, 1], seed=0)
    params = LfrParams(n=60, tau1=2.5, tau2=3.0, mu=0.5, avg_degree=8,
                       max_degree=20, min_comm=25, max_comm=40)
    with pytest.warns(UserWarning, match="discarded .* stubs") as seen_lfr:
        generate_lfr(params, seed=1)
    assert [w.filename for w in seen.list + seen_lfr.list] == [__file__] * 2


def test_mixing_fraction_hand_case():
    g = build_graph([(0, 1), (2, 3), (1, 2)])
    labels = np.array([0, 0, 1, 1])
    assert mixing_fraction(g, labels) == pytest.approx(1 / 3)


def test_mixing_fraction_rejects_wrong_label_count():
    # a longer array was accepted, a shorter one raised IndexError
    g = build_graph([(0, 1), (2, 3), (1, 2)])
    for labels in ([0, 0, 1, 1, 1], [0, 0, 1]):
        with pytest.raises(ValueError, match=rf"one label per node \(4\).*"
                                             rf"\({len(labels)},\)"):
            mixing_fraction(g, labels)
