"""Per-series reference reduction of the sampler's sufficient statistics.

The engine derives every statistic its conditionals read from per-voxel cross
products and the current state. This module derives the same statistics the
slow way, from each series' quasi-differenced form and its stacked real
representation, so the oracles and the op-level reference chain can feed the
public ``draw_*`` functions of ``cvfmri.sampler`` independently of the
engine's algebra. The ``*_draws`` helpers give n draws of one series'
conditional, taking their standard variates from ``rng`` in the order and
layout of the engine's stream (two normals per complex draw).

``graph_laplacian`` is the dense oracle of a parcel's graph Laplacian, which
the spatial basis tests compare against, and ``probit_log_odds`` that of the
spatial prior's log odds.
"""

import numpy as np
from scipy import sparse
from scipy.special import log_ndtr

from cvfmri.errors import InsufficientDataError, InvalidSpecError
from cvfmri.sampler import (
    _standard_complex_normals,
    draw_beta,
    draw_kappa,
    draw_rho,
    draw_sigma2,
    draw_tau2,
    inclusion_probability,
    prior_logit_spatial,
)


def backward_transform(y, x, rho):
    """Lag-1 quasi-differencing of a series and its regressor.

    Returns ``(y_star, x_star)`` with y*_t = y_{t+1} - rho y_t and the same for
    x (complex arithmetic; x may be real). ``rho`` may hold one coefficient per
    series of a (V, T) stack. Requires at least three time points.
    """
    y = np.asarray(y)
    x = np.asarray(x)
    if y.shape[-1] < 3:
        raise InsufficientDataError("quasi-differencing needs at least 3 time points")
    rho = np.asarray(rho)
    if rho.ndim:
        rho = rho[..., None]
    return y[..., 1:] - rho * y[..., :-1], x[..., 1:] - rho * x[..., :-1]


def real_design_matrix(z):
    """Stack a complex regressor into its real 2n x 2 design matrix.

    Rows are [Re z, -Im z] over the first n rows and [Im z, Re z] over the
    last n; its Gram matrix equals ||z||^2 I_2 exactly.
    """
    z = np.asarray(z, dtype=complex).ravel()
    top = np.column_stack([z.real, -z.imag])
    bottom = np.column_stack([z.imag, z.real])
    return np.vstack([top, bottom])


def stack_real(z):
    """Stack a complex vector into its real [Re; Im] form."""
    z = np.asarray(z, dtype=complex).ravel()
    return np.concatenate([z.real, z.imag])


def cross_stats(target, regressor):
    """(||regressor||^2, regressor^H target) along the last axis."""
    norm2 = np.sum(regressor.real**2 + regressor.imag**2, axis=-1)
    return norm2, np.sum(np.conj(regressor) * target, axis=-1)


def design_stats(y, x, rho):
    """(||x*||^2, x*^H y*) of each series after quasi-differencing with rho:
    the statistics of ``inclusion_probability`` and ``draw_beta``."""
    ystar, xstar = backward_transform(y, x, rho)
    return cross_stats(ystar, xstar)


def lag_stats(y, x, beta):
    """(||w_lag||^2, w_lag^H w_now) of the residual w = y - beta x of each
    series: the statistics of ``draw_rho``."""
    w = np.asarray(y) - np.multiply.outer(np.asarray(beta), np.asarray(x))
    return cross_stats(w[..., 1:], w[..., :-1])


def residual_ss(w_now, w_lag, rho):
    """||w_now - rho w_lag||^2 of each series: the statistic of ``draw_sigma2``."""
    resid = np.asarray(w_now) - np.expand_dims(rho, -1) * np.asarray(w_lag)
    return np.sum(resid.real**2 + resid.imag**2, axis=-1)


def gamma_probability(ystar, xstar, sigma2, tau2, eta, psi):
    """Inclusion probability of one quasi-differenced series under the probit prior."""
    xnorm2, c = cross_stats(np.asarray(ystar), np.asarray(xstar))
    return inclusion_probability(xnorm2, c, sigma2, tau2, prior_logit_spatial(psi, eta))


def beta_draws(ystar, xstar, sigma2, tau2, gamma, n, rng):
    xnorm2, c = cross_stats(np.asarray(ystar), np.asarray(xstar))
    return draw_beta(np.full(n, xnorm2), np.full(n, c), np.full(n, sigma2), tau2,
                     np.full(n, gamma), _standard_complex_normals(rng, (n,)))


def rho_draws(y, x, beta, sigma2, n, rng):
    """``(rho, degenerate)`` for n draws."""
    wl2, cw = lag_stats(y, x, beta)
    return draw_rho(np.full(n, cw), np.full(n, wl2), np.full(n, sigma2),
                    _standard_complex_normals(rng, (n,)))


def sigma2_draws(w_now, w_lag, rho, n, rng):
    ss = residual_ss(w_now, w_lag, rho)
    return draw_sigma2(np.full(n, ss), rng.standard_gamma(len(w_now), size=n))


def tau2_draws(gamma, beta, prev_tau2, n, rng):
    beta = np.asarray(beta)
    ssb = float(np.sum(beta.real**2 + beta.imag**2))
    return draw_tau2(np.full(n, int(np.sum(gamma))), np.full(n, ssb), np.full(n, prev_tau2),
                     rng.random(n))


def kappa_draw(eta, nu2, a_kappa, b_kappa, rng):
    g = rng.standard_gamma(eta.size / 2.0 + a_kappa)
    return float(draw_kappa(np.sum(eta * eta / nu2), g, b_kappa))


def graph_laplacian(adjacency):
    """Dense Q = diag(A 1) - A of a dense or sparse adjacency; degrees are
    summed in integer arithmetic so that Q 1 = 0 exactly."""
    a = adjacency.toarray() if sparse.issparse(adjacency) else np.asarray(adjacency)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not np.array_equal(a, a.T):
        raise InvalidSpecError("adjacency must be square and symmetric")
    return np.diag(a.astype(np.int64).sum(axis=1).astype(float)) - a


def probit_log_odds(z):
    """logit Phi(z) from scipy's log-CDF, accurate in both tails."""
    return log_ndtr(z) - log_ndtr(-z)
