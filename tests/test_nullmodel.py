import math
import re
import time

import numpy as np
import pytest
from scipy.special import ndtr

from linkbench import (build_graph, degree_sequence_graph, expected_pa_auc,
                       expected_pa_auc_closed_form, fit_lognormal_degrees,
                       size_biased_law, split_positive)


def normal_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def test_fit_regular_graph_sigma_zero():
    g = build_graph([(i, (i + 1) % 8) for i in range(8)])     # 2-regular cycle
    fit = fit_lognormal_degrees(g)
    assert fit.sigma == 0.0
    assert fit.mu == pytest.approx(math.log(2))
    assert fit.n_fitted == 8


def test_fit_is_moments_of_log_degrees():
    # star on 8 nodes: log degrees are {ln 7, 0 x7}
    g = build_graph([(0, i) for i in range(1, 8)])
    fit = fit_lognormal_degrees(g)
    logs = [math.log(7)] + [0.0] * 7
    mu = sum(logs) / 8
    var = sum((x - mu) ** 2 for x in logs) / 8      # population variance
    assert fit.mu == pytest.approx(mu, abs=1e-12)
    assert fit.sigma == pytest.approx(math.sqrt(var), abs=1e-12)


def test_fit_excludes_degree_zero_nodes():
    g = build_graph([(0, 1), (1, 2)], num_nodes=10)
    fit = fit_lognormal_degrees(g)
    assert fit.n_fitted == 3
    assert fit.mu == pytest.approx((0 + math.log(2) + 0) / 3)


def test_fit_rejects_all_isolated():
    g = build_graph([], num_nodes=5)
    with pytest.raises(ValueError):
        fit_lognormal_degrees(g)


def test_fit_recovers_discretized_lognormal_parameters():
    # degrees k = ceil(exp(X)), X ~ Normal(1, 0.8^2). Rounding up inflates
    # small degrees, so the log-degree moments of the *discretized* law are
    # the honest target, computed here by direct summation over k.
    mu, sig = 1.0, 0.8
    j = np.arange(1, 2_000_000)
    cdf = ndtr((np.log(j) - mu) / sig)
    pmf = np.diff(np.concatenate([[0.0], cdf]))
    lnj = np.log(j)
    m1 = float((pmf * lnj).sum())
    m2 = float((pmf * lnj ** 2).sum())
    sigma_target = math.sqrt(m2 - m1 ** 2)

    rng = np.random.default_rng(7)
    k = np.ceil(np.exp(rng.normal(mu, sig, size=100_000))).astype(np.int64)
    if k.sum() % 2:
        k[np.argmax(k)] -= 1
    g = degree_sequence_graph(k, seed=3)
    fit = fit_lognormal_degrees(g)
    assert abs(fit.mu - m1) < 0.02
    assert abs(fit.sigma - sigma_target) < 0.02


def test_size_biased_law_shifts_mean_by_variance():
    g = build_graph([(0, 1), (0, 2), (0, 3), (1, 2)])
    fit = fit_lognormal_degrees(g)
    shifted = size_biased_law(fit)
    assert shifted.mu == pytest.approx(fit.mu + fit.sigma ** 2)
    assert shifted.sigma == fit.sigma
    assert shifted.n_fitted == fit.n_fitted


def test_size_biased_law_degenerate_sigma_zero():
    g = build_graph([(0, 1), (2, 3)])
    fit = fit_lognormal_degrees(g)
    assert fit.sigma == 0.0
    shifted = size_biased_law(fit)
    assert (shifted.mu, shifted.sigma) == (fit.mu, 0.0)


def test_positive_endpoints_follow_shifted_law():
    # chain: fit -> shifted law -> measured log-degree mean of held-out
    # edge endpoints, on a synthetic graph with log-normal-ish degrees
    rng = np.random.default_rng(19)
    k = np.ceil(np.exp(rng.normal(1.0, 0.7, size=30_000))).astype(np.int64)
    if k.sum() % 2:
        k[np.argmax(k)] -= 1
    g = degree_sequence_graph(k, seed=4)
    fit = fit_lognormal_degrees(g)
    shifted = size_biased_law(fit)
    _, pos = split_positive(g, 0.25, seed=11)
    measured = np.log(g.degrees[pos.ravel()]).mean()
    assert measured == pytest.approx(shifted.mu, abs=0.08)


def test_expected_auc_sigma_zero_is_exactly_half():
    assert expected_pa_auc(0.0) == 0.5


def test_expected_auc_sigma_one():
    assert expected_pa_auc(1.0) == pytest.approx(normal_cdf(1.0), abs=1e-8)


def test_expected_auc_matches_closed_form_grid_under_a_second():
    start = time.time()
    for sigma in np.arange(0.0, 3.01, 0.25):
        quad = expected_pa_auc(float(sigma))
        closed = expected_pa_auc_closed_form(float(sigma))
        assert abs(quad - closed) < 1e-6
        assert closed == pytest.approx(normal_cdf(float(sigma)), abs=1e-12)
    assert time.time() - start < 1.0


def test_expected_auc_strictly_increasing_and_bounded():
    grid = np.arange(0.0, 3.01, 0.25)
    vals = [expected_pa_auc(float(s)) for s in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(0.5 <= v < 1.0 for v in vals)


def test_expected_auc_rejects_negative_sigma():
    with pytest.raises(ValueError):
        expected_pa_auc(-0.1)


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -math.inf,
                                   True, False, "1.0", None, 1j])
@pytest.mark.parametrize("fn", [expected_pa_auc, expected_pa_auc_closed_form])
def test_expected_auc_rejects_sigma_that_is_not_a_finite_real(fn, sigma):
    # not a quadrature of nan nor a bool taken as 0 or 1
    with pytest.raises(ValueError, match=re.escape(
            f"sigma must be a finite number >= 0, got {sigma!r}")):
        fn(sigma)


def test_expected_auc_takes_numpy_and_integer_sigma():
    assert expected_pa_auc(np.float64(1.0)) == expected_pa_auc(1.0)
    assert expected_pa_auc_closed_form(np.float32(0.0)) == 0.5
    assert expected_pa_auc(0) == 0.5
