import re

import numpy as np
import pytest
from scipy.sparse import csgraph

from linkbench import generators
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
    # windows of up to 960 nodes; m = 1, which never repeats (windows of up
    # to 13,614 nodes); a repeat at almost every node
    (20_000, 8, 2), (30_000, 1, 5), (3_000, 50, 4),
])
def test_price_matches_reference_loop(n, m, seed):
    got, want = generate_price(n, m, seed), reference_price(n, m, seed)
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)


@pytest.mark.parametrize("n, m, seed", [(5_000, 1, 5), (5_000, 5, 0)])
def test_price_at_the_window_cap_matches_reference_loop(monkeypatch, n, m, seed):
    # windows never pass _MAX_WINDOW nodes, which bounds their memory; only
    # graphs of ~10**5 nodes reach 2**16, so a small cap stands in for it
    monkeypatch.setattr(generators, "_MAX_WINDOW", 16)
    drawn = []
    window_picks = generators._window_picks

    def record(stubs, e, idx):
        drawn.append(idx.size)
        return window_picks(stubs, e, idx)

    monkeypatch.setattr(generators, "_window_picks", record)
    got, want = generate_price(n, m, seed), reference_price(n, m, seed)
    assert np.array_equal(got.indices, want.indices)
    assert max(drawn) == 16 * m


_BIT_GENERATORS = [np.random.PCG64, np.random.MT19937, np.random.SFC64,
                   np.random.Philox]


@pytest.mark.parametrize("bit_generator", _BIT_GENERATORS)
@pytest.mark.parametrize("low_bound", [1_000, 2**32 - 2**20, 2**33],
                         ids=["below-2**32", "across-2**32", "above-2**32"])
def test_array_bound_integers_equal_sequential_calls(bit_generator, low_bound):
    # generate_price draws a window of nodes' picks in one call with an
    # array of bounds, and is exact only while numpy gives the values and
    # end state of one size-m call per bound
    m = 3
    highs = np.repeat(low_bound + 2**15 * np.arange(65, dtype=np.int64), m)
    one, each = (np.random.Generator(bit_generator(5)) for _ in range(2))
    got = one.integers(0, highs)
    want = np.concatenate([each.integers(0, h, size=m) for h in highs[::m]])
    assumption = ("numpy no longer draws integers(0, highs) bound by bound as "
                  "the per-bound calls do; generate_price relies on it")
    assert np.array_equal(got, want), assumption
    for high in (1_000, 2**40):  # the next draws, from 32- and 64-bit paths
        assert np.array_equal(one.integers(0, high, size=9),
                              each.integers(0, high, size=9)), assumption


@pytest.mark.parametrize("bit_generator", _BIT_GENERATORS)
def test_price_from_a_generator_matches_reference_and_end_state(bit_generator):
    mine, theirs = (np.random.Generator(bit_generator(3)) for _ in range(2))
    got = generate_price(20_000, 5, mine)
    want = reference_price(20_000, 5, theirs)
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(mine.integers(0, 2**40, size=8),
                          theirs.integers(0, 2**40, size=8))


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


@pytest.mark.parametrize("n", [2**32 + 1, 2**40, 10**30])
def test_price_rejects_node_counts_past_the_id_range(n):
    # raised before the (n * m, 2) edge array, terabytes here, is allocated
    want = f"^n must be at most {2**32}, got {n}$"
    with pytest.raises(ValueError, match=want):
        generate_price(n, 1, seed=0)


@pytest.mark.parametrize("n, m, name", [
    (100.7, 3, "n"), (100, 2.5, "m_per_node"), (100, True, "m_per_node"),
    (True, 1, "n"), (float("nan"), 3, "n"), (100, float("inf"), "m_per_node"),
    (100.0, 3, "n"), ("100", 3, "n"), (100, None, "m_per_node"),
])
def test_price_rejects_non_integer_sizes(n, m, name):
    # these used to be truncated (100.7 nodes built 100, m = 2.5 used 2)
    # or read as 1 (True)
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        generate_price(n, m, seed=0)


def test_price_accepts_numpy_integer_sizes():
    got = generate_price(np.int64(300), np.int32(4), seed=1)
    assert np.array_equal(got.indices, generate_price(300, 4, seed=1).indices)


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


@pytest.mark.parametrize("n", [0, 2**32 + 1, 10**30])
def test_lfr_params_reject_node_counts_outside_the_id_range(n):
    # raised before generate_lfr draws n degrees and community labels
    want = rf"^n must be in \[1, {2**32}\], got {n}$"
    with pytest.raises(ValueError, match=want):
        LfrParams(mu=0.3, **dict(BASE, n=n))


@pytest.mark.parametrize("change, message", [
    # each used to fail later, elsewhere, or not at all: tau1 in the
    # degree law's achievable range, tau2 inside numpy's choice, the
    # fractional counts built a graph, and n raised numpy's TypeError
    ({"tau1": float("nan")}, "tau1 must be a finite number, got nan"),
    ({"tau2": float("nan")}, "tau2 must be a finite number, got nan"),
    ({"max_degree": 20.5}, "max_degree must be an integer, got 20.5"),
    ({"min_comm": 10.5}, "min_comm must be an integer, got 10.5"),
    ({"n": 100.5}, "n must be an integer, got 100.5"),
    ({"max_comm": 1000.0}, "max_comm must be an integer, got 1000.0"),
    ({"mu": True}, "mu must be a finite number, got True"),
    ({"avg_degree": float("inf")}, "avg_degree must be a finite number, got inf"),
    ({"mu": "0.3"}, "mu must be a finite number, got '0.3'"),
])
def test_lfr_params_check_each_field_against_its_annotation(change, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        LfrParams(**{**BASE, "mu": 0.3, **change})


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


@pytest.mark.parametrize("degrees, bad", [
    ([1.7, 2.2, 1.1], "1.7"), ([True, 1], "True"), ([2, float("nan")], "nan"),
    ([1, float("inf")], "inf"), (np.array([1.5, 2.0]), "1.5"),
    (np.array([True, True]), "True"), ([1, "2"], "'2'")])
def test_degree_sequence_graph_rejects_non_integer_degrees(degrees, bad):
    # [1.7, 2.2, 1.1] used to be truncated to [1, 2, 1], and [True, 1]
    # built a graph
    with pytest.raises(ValueError, match=f"^degree {re.escape(bad)} is not "
                                         f"an integer$"):
        degree_sequence_graph(degrees, seed=0)


def test_degree_sequence_graph_takes_whole_floats_as_integers():
    want = degree_sequence_graph(np.full(200, 4), seed=11)
    for degrees in ([4.0] * 200, np.full(200, 4.0)):
        got = degree_sequence_graph(degrees, seed=11)
        assert np.array_equal(got.edge_array(), want.edge_array())


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
