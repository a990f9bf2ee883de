"""Per-series reference reduction of the sampler's sufficient statistics.

The engine derives every statistic its conditionals read from per-voxel cross
products and the current state. This module derives the same statistics the
slow way, from each series' quasi-differenced form and its stacked real
representation, so the oracles and the op-level reference chain can feed the
public ``draw_*`` functions of ``cvfmri.sampler`` independently of the
engine's algebra. The ``*_draws`` helpers give n draws of one series'
conditional, taking their standard variates from ``rng`` in the order and
layout of the engine's stream (two normals per complex draw).

``mcse`` is the oracle of the engine's batch-means MCSE, on a stack of kept
draws. ``complex_wald`` and ``magnitude_t`` are per-voxel statistics of the
data that the posterior's ranking of voxels must match or beat. ``graph_laplacian`` is the dense oracle of a parcel's graph Laplacian,
``reference_eigenvectors`` and ``reference_nu2`` those of the spatial basis
of any graph at any minimum rank q, and ``probit_log_odds`` that of the
spatial prior's log odds.
"""

import math

import numpy as np
from scipy import sparse
from scipy.linalg import cholesky, eigh, solve_triangular
from scipy.special import log_ndtr

from cvfmri.errors import InsufficientDataError, InvalidSpecError, SingularBasisError
from cvfmri.parcellation import TIE_RTOL
from cvfmri.sampler import (
    A_KAPPA,
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


def standard_complex_normals(rng, n):
    """n standard complex normals z1 + i z2, from normals drawn in pairs."""
    return rng.standard_normal((n, 2)).view(complex)[:, 0]


def beta_draws(ystar, xstar, sigma2, tau2, gamma, n, rng):
    xnorm2, c = cross_stats(np.asarray(ystar), np.asarray(xstar))
    return draw_beta(np.full(n, xnorm2), np.full(n, c), np.full(n, sigma2), tau2,
                     np.full(n, gamma), standard_complex_normals(rng, n))


def rho_draws(y, x, beta, sigma2, n, rng):
    """``(rho, degenerate)`` for n draws."""
    wl2, cw = lag_stats(y, x, beta)
    return draw_rho(np.full(n, cw), np.full(n, wl2), np.full(n, sigma2),
                    standard_complex_normals(rng, n))


def sigma2_draws(w_now, w_lag, rho, n, rng):
    ss = residual_ss(w_now, w_lag, rho)
    return draw_sigma2(np.full(n, ss), rng.standard_gamma(len(w_now), size=n))


def tau2_draws(gamma, beta, prev_tau2, n, rng):
    beta = np.asarray(beta)
    ssb = float(np.sum(beta.real**2 + beta.imag**2))
    return draw_tau2(np.full(n, int(np.sum(gamma))), np.full(n, ssb), np.full(n, prev_tau2),
                     rng.random(n))


def kappa_draw(eta, nu2, rng):
    g = rng.standard_gamma(eta.size / 2.0 + A_KAPPA)
    return float(draw_kappa(np.sum(eta * eta / nu2), g))


def graph_laplacian(adjacency):
    """Dense Q = diag(A 1) - A of a dense or sparse adjacency; degrees are
    summed in integer arithmetic so that Q 1 = 0 exactly."""
    a = adjacency.toarray() if sparse.issparse(adjacency) else np.asarray(adjacency)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not np.array_equal(a, a.T):
        raise InvalidSpecError("adjacency must be square and symmetric")
    return np.diag(a.astype(np.int64).sum(axis=1).astype(float)) - a


def reference_eigenvectors(adjacency, q):
    """Orthonormal eigenvectors of the q largest eigenvalues of a dense or
    sparse adjacency and of every eigenvalue within ``TIE_RTOL`` times
    max(1, largest) of the q-th, in descending order, from LAPACK's dense
    ``eigh``."""
    a = adjacency.toarray() if sparse.issparse(adjacency) else np.asarray(adjacency)
    n = a.shape[0]
    k = min(n, 2 * q)
    while True:
        vals, vecs = eigh(a.astype(float), subset_by_index=[n - k, n - 1])
        order = np.argsort(vals)[::-1]
        vals, vecs = vals[order], vecs[:, order]
        keep = vals >= vals[q - 1] - TIE_RTOL * max(1.0, vals[0])
        # the tie group of the q-th eigenvalue is closed once a smaller one shows
        if not keep.all() or k == n:
            return vecs[:, keep]
        k = min(n, 2 * k)


def reference_nu2(adjacency, q):
    """nu2 of any graph at minimum rank q: the diagonal of I + M (M'QM)^-1 M'
    with M from :func:`reference_eigenvectors` and Q the graph Laplacian,
    M'QM summed over edges as ``build_spatial_basis`` does. Raises
    ``SingularBasisError`` on the same test."""
    a = adjacency.toarray() if sparse.issparse(adjacency) else np.asarray(adjacency)
    m = reference_eigenvectors(a, q)
    i, j = np.nonzero(np.triu(a, 1))
    diff = m[i] - m[j]
    qs = diff.T @ diff
    eigs = np.linalg.eigvalsh(qs)
    if eigs[0] <= 1e-12 * a.sum(axis=1).max() or eigs[-1] / eigs[0] > 1e12:
        raise SingularBasisError("M'QM is numerically singular")
    y = solve_triangular(cholesky(qs, lower=True), m.T, lower=True)
    return 1.0 + np.sum(y * y, axis=0)


def probit_log_odds(z):
    """logit Phi(z) from scipy's log-CDF, accurate in both tails."""
    return log_ndtr(z) - log_ndtr(-z)


def mcse(draws: np.ndarray) -> np.ndarray:
    """Batch-means Monte Carlo standard error of the draw mean(s).

    Splits the chain into b = floor(sqrt(n)) consecutive batches of equal
    length (discarding the remainder) and returns sd(batch means)/sqrt(b).
    Accepts a (n,) sequence or an (n, V) stack of per-voxel sequences.
    """
    draws = np.asarray(draws, dtype=float)
    n = draws.shape[0]
    if n < 16:
        raise InsufficientDataError("batch-means MCSE needs at least 16 draws")
    b = int(math.isqrt(n))
    m = n // b
    used = draws[: b * m]
    batch_means = used.reshape(b, m, *draws.shape[1:]).mean(axis=1)
    out = batch_means.std(axis=0, ddof=1) / math.sqrt(b)
    return out if draws.ndim > 1 else float(out)


def complex_wald(y, x):
    """The complex OLS Wald statistic of each series of a (V, T) stack.

    Complex least squares of the centred series on the centred real regressor
    gives b = sum x_c y_c / ||x_c||^2 and the residual sum of squares RSS; the
    statistic is |b|^2 ||x_c||^2 / RSS. This is the complex-valued activation
    test of Rowe & Logan (2004) without its constant-phase restriction, and it
    ignores the AR(1) errors.
    """
    yc = y - y.mean(axis=-1, keepdims=True)
    xc = x - x.mean()
    sxx = xc @ xc
    b = yc @ xc / sxx
    rss = np.sum(np.abs(yc - b[:, None] * xc) ** 2, axis=-1)
    return np.abs(b) ** 2 * sxx / rss


def magnitude_t(y, x):
    """The one-sided OLS t statistic of |y| on the regressor, per series: the
    magnitude-only analysis, which discards the phase."""
    m = np.abs(y)
    mc = m - m.mean(axis=-1, keepdims=True)
    xc = x - x.mean()
    sxx = xc @ xc
    b = mc @ xc / sxx
    rss = np.sum((mc - b[:, None] * xc) ** 2, axis=-1)
    return b / np.sqrt(rss / (x.size - 2) / sxx)
