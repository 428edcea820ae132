"""Log-normal degree model and the expected AUC of the degree-product score.

When degrees are approximately log-normal, sampling test edges uniformly
biases their endpoints toward high degree: the endpoint degree law is the
size-biased version of the degree law, which for LogNormal(mu, sigma^2) is
again log-normal with the mean shifted to mu + sigma^2. Under that model the
degree-product (preferential attachment) score separates test edges from
uniformly sampled non-edges with an AUC that depends only on sigma; the
closed form is the standard normal CDF evaluated at sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import ndtr

from .graph import _is_number


@dataclass(frozen=True)
class LogNormalFit:
    """Moments of ln k over nodes with degree >= 1.

    Attributes:
        mu: mean of ln k.
        sigma: maximum-likelihood standard deviation of ln k (ddof = 0).
        n_fitted: number of nodes that entered the fit.
    """

    mu: float
    sigma: float
    n_fitted: int


def fit_lognormal_degrees(g) -> LogNormalFit:
    """Fit ln-degree moments of a graph, ignoring isolated nodes."""
    degs = g.degrees
    degs = degs[degs >= 1]
    if degs.size < 2:
        raise ValueError("need at least 2 nodes with degree >= 1 to fit")
    logk = np.log(degs.astype(np.float64))
    mu = float(np.mean(logk))
    sigma = float(np.std(logk))  # ddof=0, the ML estimate
    return LogNormalFit(mu=mu, sigma=sigma, n_fitted=int(degs.size))


def size_biased_law(fit: LogNormalFit) -> LogNormalFit:
    """Degree law of endpoints of uniformly sampled edges.

    Weighting LogNormal(mu, sigma^2) by k shifts the location parameter by
    sigma^2 and leaves the scale untouched.
    """
    return LogNormalFit(mu=fit.mu + fit.sigma ** 2, sigma=fit.sigma,
                        n_fitted=fit.n_fitted)


def expected_pa_auc_closed_form(sigma: float) -> float:
    """Phi(sigma): the closed form of the degree-product AUC. sigma must be
    a finite real number >= 0, else ValueError."""
    if not _is_number(sigma) or sigma < 0:
        raise ValueError(f"sigma must be a finite number >= 0, got {sigma!r}")
    return float(ndtr(sigma))


def expected_pa_auc(sigma: float) -> float:
    """Expected AUC of the degree-product score under log-normal degrees.

    Evaluates 1 - integral of Norm(z | 0, 1) * Phi(z - sqrt(2) * sigma) dz
    by adaptive quadrature and cross-checks the result against the closed
    form Phi(sigma); disagreement beyond 1e-6 raises, since it would mean
    the quadrature went wrong.

    sigma = 0 returns exactly 0.5, and sigma is checked as in the closed form.
    """
    closed = expected_pa_auc_closed_form(sigma)  # checks sigma
    if sigma == 0:
        return 0.5
    shift = math.sqrt(2.0) * sigma

    def integrand(z):
        return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) * ndtr(z - shift)

    val, _ = integrate.quad(integrand, -10.0, 10.0 + shift, epsabs=1e-8, limit=200)
    auc = 1.0 - val
    if abs(auc - closed) >= 1e-6:
        raise ArithmeticError(
            f"quadrature AUC {auc!r} disagrees with closed form {closed!r}")
    return auc
