"""Parcel-wise Gibbs sampler for spike-and-slab activation detection.

Model, per voxel v with complex series y and real regressor x (both centered):

    y = x b + r p + e,   e ~ complex N(0, 2 s^2 I) (circular),

where b is the complex activation coefficient under a spike-and-slab prior
(point mass at 0 vs. complex normal slab with per-parcel variance tau^2), p a
complex AR(1) coefficient with flat prior, and s^2 the per-voxel noise variance
with Jeffreys prior. Inclusion indicators follow a probit prior whose latent
field eta carries a low-rank spatial structure built from the parcel's
adjacency eigenvectors (variance nu_v^2 / kappa after collapsing the random
effects); a nonspatial mode replaces it with a single shared Bernoulli rate
under a flat Beta prior.

Quasi-differencing with the current AR coefficient (lag-1 backward operator)
reduces every conditional to conjugate form. The stacked real design matrix of
a complex regressor satisfies X'X = ||x||^2 I_2, so the normal updates are
scalar; the chain exploits this plus per-parcel cross-product statistics to run
each sweep in O(V) after an O(V*T) precomputation.

The spatial random effects delta are integrated out: eta is drawn from its
delta-collapsed half-normal and kappa depends on eta alone, so the chain never
draws delta.

Within a sweep the voxel-level updates (gamma, beta, rho, sigma^2) are
conditionally independent given the parcel-level state, so they are performed
as vectorized stage updates; this realizes the same transition kernel as a
fixed voxel-order scan. Each conditional is written once, as a function of its
sufficient statistics; the chain and the series-level ``sample_*`` functions
both call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, log_ndtr, ndtri

from .errors import (
    DegeneratePosteriorError,
    InsufficientDataError,
    InvalidSpecError,
)
from .parcellation import Partition, SpatialBasis

__all__ = [
    "SamplerConfig",
    "ChainState",
    "ChainSummary",
    "ResultMaps",
    "SPATIAL",
    "NONSPATIAL",
    "splitmix64",
    "derive_seed",
    "backward_transform",
    "real_design_matrix",
    "stack_real",
    "log_null_slab_ratio",
    "inclusion_probability",
    "sample_gamma",
    "sample_beta",
    "sample_rho",
    "sample_sigma2",
    "sample_tau2",
    "sample_eta",
    "sample_kappa",
    "sample_eta_nonspatial",
    "run_parcel_chain",
    "mcse",
    "stitch_voxel_field",
    "summarize",
]

SPATIAL = "spatial"
NONSPATIAL = "nonspatial"

_MASK64 = (1 << 64) - 1
#: Threshold on |w_lag|^2 below which the AR update is declared degenerate.
_DEGENERATE_NORM = 1e-300


# --------------------------------------------------------------------------
# seeding
# --------------------------------------------------------------------------

def splitmix64(value: int) -> int:
    """One SplitMix64 step: deterministic 64-bit avalanche of ``value``."""
    z = (int(value) + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(master: int, *indices: int) -> int:
    """Derive an independent stream seed from a master seed and index path.

    Parcel g of a run uses ``derive_seed(master, g) = splitmix64(master XOR g)``
    so results do not depend on scheduling or worker count.
    """
    seed = int(master) & _MASK64
    for idx in indices:
        seed = splitmix64(seed ^ (int(idx) & _MASK64))
    return seed


# --------------------------------------------------------------------------
# configuration and state
# --------------------------------------------------------------------------

@dataclass
class SamplerConfig:
    """Tuning parameters of one Gibbs run.

    ``threshold`` and ``n_burn`` may be left None to take their mode-dependent
    defaults (0.8722 spatial / 0.5 nonspatial; half the iterations).
    """

    psi: float = ndtri(0.47)
    q: int = 5
    a_kappa: float = 0.5
    b_kappa: float = 2000.0
    n_iter: int = 1000
    n_burn: int | None = None
    threshold: float | None = None
    mode: str = SPATIAL
    mcse_tol: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.mode not in (SPATIAL, NONSPATIAL):
            raise InvalidSpecError(f"unknown sampler mode {self.mode!r}")
        if self.n_iter < 1:
            raise InvalidSpecError("n_iter must be positive")
        if self.n_burn is None:
            self.n_burn = self.n_iter // 2
        if not 0 <= self.n_burn < self.n_iter:
            raise InvalidSpecError("n_burn must lie in [0, n_iter)")
        if self.threshold is None:
            self.threshold = 0.8722 if self.mode == SPATIAL else 0.5
        if not 0.0 < self.threshold < 1.0:
            raise InvalidSpecError("threshold must lie in (0, 1)")
        if self.q < 1:
            raise InvalidSpecError("q must be positive")
        if self.a_kappa <= 0 or self.b_kappa <= 0:
            raise InvalidSpecError("kappa prior parameters must be positive")
        if self.mcse_tol <= 0:
            raise InvalidSpecError("mcse_tol must be positive")

    @property
    def n_kept(self) -> int:
        return self.n_iter - self.n_burn


@dataclass
class ChainState:
    """Latent variables of one parcel chain (array-of-voxels layout).

    Per voxel: inclusion indicator, complex activation coefficient, complex
    AR(1) coefficient, noise variance, probit latent. Parcel level: slab
    variance, smoothing parameter, and the shared inclusion rate used by the
    nonspatial mode.
    """

    gamma: np.ndarray
    beta: np.ndarray
    rho: np.ndarray
    sigma2: np.ndarray
    eta: np.ndarray
    tau2: float
    kappa: float
    eta_shared: float = 0.5

    def validate(self):
        if np.any(self.beta[~self.gamma] != 0):
            raise AssertionError("state invariant violated: gamma=0 voxel with nonzero beta")
        if np.any(self.sigma2 <= 0):
            raise AssertionError("state invariant violated: nonpositive sigma2")
        if not (self.tau2 > 0 and self.kappa > 0):
            raise AssertionError("state invariant violated: nonpositive tau2/kappa")


@dataclass
class ChainSummary:
    """Post burn-in summaries of one parcel chain."""

    incl_prob: np.ndarray
    beta_mean: np.ndarray
    mcse: np.ndarray
    converged: bool
    n_kept: int
    trace: dict | None = None


@dataclass
class ResultMaps:
    """Stitched whole-image outputs: activation, magnitude, phase."""

    dims: tuple
    activation: np.ndarray
    magnitude: np.ndarray
    phase: np.ndarray


# --------------------------------------------------------------------------
# transforms and closed-form pieces
# --------------------------------------------------------------------------

def backward_transform(y: np.ndarray, x: np.ndarray, rho):
    """Lag-1 quasi-differencing of a series and its regressor.

    Returns ``(y_star, x_star)`` with y*_t = y_{t+1} - rho y_t and the same for
    x (complex arithmetic; x may be real). Requires at least three time points.
    """
    y = np.asarray(y)
    x = np.asarray(x)
    if y.shape[-1] != x.shape[-1]:
        raise InvalidSpecError("series and regressor must share a length")
    if y.shape[-1] < 3:
        raise InsufficientDataError("quasi-differencing needs at least 3 time points")
    rho = np.asarray(rho)
    if rho.ndim:
        rho = rho[..., None]
    ystar = y[..., 1:] - rho * y[..., :-1]
    xstar = x[..., 1:] - rho * x[..., :-1]
    return ystar, xstar


def real_design_matrix(z: np.ndarray) -> np.ndarray:
    """Stack a complex regressor into its real 2n x 2 design matrix.

    Rows are [Re z, -Im z] over the first n rows and [Im z, Re z] over the
    last n; its Gram matrix equals ||z||^2 I_2 exactly.
    """
    z = np.asarray(z, dtype=complex).ravel()
    top = np.column_stack([z.real, -z.imag])
    bottom = np.column_stack([z.imag, z.real])
    return np.vstack([top, bottom])


def stack_real(z: np.ndarray) -> np.ndarray:
    """Stack a complex vector into its real [Re; Im] form."""
    z = np.asarray(z, dtype=complex).ravel()
    return np.concatenate([z.real, z.imag])


def log_null_slab_ratio(xstar_norm2, xty_norm2, sigma2, tau2):
    """log of the marginal-likelihood ratio null/slab with beta integrated out.

    Uses the scalar-identity structure of the stacked design: the 2x2 Gram
    matrix is ||x*||^2 I, so the determinant is (||x*||^2 + sigma2/tau2)^2 and
    the quadratic form reduces to |X*'y*|^2 / (||x*||^2 + sigma2/tau2).
    """
    denom = xstar_norm2 + sigma2 / tau2
    return np.log(tau2) - np.log(sigma2) + np.log(denom) - xty_norm2 / (2.0 * sigma2 * denom)


def _prior_logit_spatial(psi, eta):
    z = psi + eta
    return log_ndtr(z) - log_ndtr(-z)


def _prior_logit_shared(eta_shared):
    p = min(max(float(eta_shared), 1e-15), 1.0 - 1e-15)
    return math.log(p) - math.log1p(-p)


# --------------------------------------------------------------------------
# full conditionals on sufficient statistics
# --------------------------------------------------------------------------
#
# Each conditional's formula lives in exactly one function below. They take
# the chain's layout (1-D per-voxel float/complex/bool arrays) and coerce
# nothing, so the chain calls them directly; the public ``sample_*`` functions
# reduce a batch of series to the same statistics and call the same function.

def _inclusion_probability(xnorm2, c, sigma2, tau2, prior_logit):
    log_ratio = log_null_slab_ratio(xnorm2, c.real**2 + c.imag**2, sigma2, tau2)
    return expit(prior_logit - log_ratio)


def _complex_normal(num, prec, sigma2, mask, rng):
    """num/prec + sqrt(sigma2/prec) (z1 + i z2) where ``mask`` holds, 0 elsewhere."""
    out = np.zeros(mask.shape, dtype=complex)
    idx = np.flatnonzero(mask)
    if idx.size:
        z = rng.standard_normal((idx.size, 2))
        p = prec[idx]
        out[idx] = num[idx] / p + np.sqrt(sigma2[idx] / p) * (z[:, 0] + 1j * z[:, 1])
    return out


def _draw_beta(xnorm2, c, sigma2, tau2, gamma, rng):
    return _complex_normal(c, xnorm2 + sigma2 / tau2, sigma2, gamma, rng)


def _draw_rho(cw, wl2, sigma2, rng):
    degenerate = wl2 < _DEGENERATE_NORM
    return _complex_normal(cw, wl2, sigma2, ~degenerate, rng), degenerate


def _draw_sigma2(ss, shape, rng):
    bad = np.flatnonzero(ss <= 0.0)
    if bad.size:
        raise DegeneratePosteriorError(f"zero residual sum of squares at voxel {bad[0]}")
    return (ss / 2.0) / rng.standard_gamma(shape, size=ss.shape)


def _draw_tau2(gamma, beta, prev_tau2, rng):
    k = int(gamma.sum())
    if k == 0:
        return prev_tau2
    ssb = float(np.sum(beta.real**2 + beta.imag**2))
    if ssb <= 0.0:
        raise DegeneratePosteriorError(
            "slab variance update saw active voxels with zero coefficients"
        )
    return (ssb / 2.0) / rng.standard_gamma(k)


def _draw_eta(gamma, nu2, kappa, rng):
    # standardized half-normal by inverse survival; the clamp keeps u == 0
    # (probability 2^-53 per draw) finite at ~37 sd
    u = rng.random(gamma.shape)
    mag = -ndtri(np.maximum(u * 0.5, 1e-300)) * np.sqrt(nu2 / kappa)
    return np.where(gamma, mag, -mag)


def _draw_kappa(eta, nu2, a_kappa, b_kappa, rng):
    rate = 0.5 * float(np.sum(eta * eta / nu2)) + 1.0 / b_kappa
    return float(rng.standard_gamma(eta.size / 2.0 + a_kappa) / rate)


def _draw_eta_shared(gamma, rng):
    k = int(gamma.sum())
    return float(rng.beta(1 + k, 1 + gamma.size - k))


# --------------------------------------------------------------------------
# full conditional draws on series
# --------------------------------------------------------------------------

def _cross_stats(target, regressor):
    """(||regressor||^2, regressor^H target) along the last axis."""
    norm2 = np.sum(regressor.real**2 + regressor.imag**2, axis=-1)
    return norm2, np.sum(np.conj(regressor) * target, axis=-1)


def _flatten(shape, *arrays):
    """Broadcast per-series values to the batch ``shape``, as 1-D arrays."""
    return [np.broadcast_to(a, shape).reshape(-1) for a in arrays]


def inclusion_probability(ystar, xstar, sigma2, tau2, eta, psi) -> np.ndarray:
    """Posterior inclusion probability of the spike-and-slab indicator.

    Assembled fully in log space: expit(prior logit - log ratio), which agrees
    with the naive ratio formula wherever the latter does not overflow.
    """
    xnorm2, c = _cross_stats(np.asarray(ystar), np.asarray(xstar))
    return _inclusion_probability(xnorm2, c, sigma2, tau2, _prior_logit_spatial(psi, eta))


def sample_gamma(ystar, xstar, sigma2, tau2, eta, psi, rng) -> np.ndarray:
    """Draw the inclusion indicator(s) from their Bernoulli full conditional."""
    p = inclusion_probability(ystar, xstar, sigma2, tau2, eta, psi)
    draw = rng.random(np.shape(p)) < p
    return draw if np.ndim(p) else bool(draw)


def sample_beta(ystar, xstar, sigma2, tau2, gamma, rng):
    """Draw the activation coefficient(s): zero when excluded, else the
    conjugate ridge normal with scalar precision ||x*||^2 + sigma2/tau2."""
    xnorm2, c = _cross_stats(np.asarray(ystar), np.asarray(xstar))
    shape = np.shape(c)
    xnorm2, c, sigma2, gamma = _flatten(shape, xnorm2, c, sigma2, np.asarray(gamma, dtype=bool))
    return _draw_beta(xnorm2, c, sigma2, tau2, gamma, rng).reshape(shape)[()]


def sample_rho(y, x, beta, sigma2, rng):
    """Draw the AR(1) coefficient(s) from the conjugate normal on lagged residuals.

    Returns ``(rho, degenerate)``; a voxel whose lagged residual energy falls
    below 1e-300 is flagged and assigned rho = 0 without consuming draws.
    """
    w = np.asarray(y) - np.multiply.outer(np.asarray(beta), np.asarray(x))
    wl2, cw = _cross_stats(w[..., 1:], w[..., :-1])
    shape = np.shape(wl2)
    rho, degenerate = _draw_rho(*_flatten(shape, cw, wl2, sigma2), rng)
    return rho.reshape(shape)[()], degenerate.reshape(shape)[()]


def sample_sigma2(w_now, w_lag, rho, rng):
    """Draw the noise variance(s) from the inverse-gamma full conditional.

    Shape is the number of quasi-differenced time points (T - 1); the scale is
    half the squared norm of the stacked real residual.
    """
    w_now = np.asarray(w_now)
    resid = w_now - np.expand_dims(rho, -1) * np.asarray(w_lag)
    ss = np.sum(resid.real**2 + resid.imag**2, axis=-1)
    return _draw_sigma2(ss, w_now.shape[-1], rng)


def sample_tau2(gamma, beta, prev_tau2, rng):
    """Draw the slab variance, or keep the previous value when nothing is active."""
    return _draw_tau2(np.asarray(gamma, dtype=bool), np.asarray(beta), float(prev_tau2), rng)


def sample_eta(gamma, nu2, kappa, rng):
    """Draw the probit latent(s): half-normal magnitude sd = sqrt(nu2/kappa),
    positive when the voxel is included and negative otherwise."""
    gamma = np.asarray(gamma, dtype=bool)
    out = _draw_eta(gamma, np.asarray(nu2, dtype=float), kappa, rng)
    return out if gamma.ndim else float(out)


def sample_kappa(eta, nu2, a_kappa, b_kappa, rng):
    """Draw the smoothing parameter Gamma(V/2 + a, 1 / (sum eta^2/nu2 / 2 + 1/b))."""
    nu2 = np.asarray(nu2, dtype=float)
    if np.any(nu2 < 1.0):
        raise InvalidSpecError("nu2 must be >= 1")
    return _draw_kappa(np.asarray(eta, dtype=float), nu2, a_kappa, b_kappa, rng)


def sample_eta_nonspatial(gamma, rng):
    """Draw the shared inclusion rate Beta(1 + k, 1 + V - k)."""
    return _draw_eta_shared(np.asarray(gamma, dtype=bool), rng)


# --------------------------------------------------------------------------
# the chain
# --------------------------------------------------------------------------

class _ParcelStats:
    """Per-parcel cross products that make each sweep O(V).

    With x real and y complex, every quantity the conditionals need
    (||x*||^2, X*'y*, residual energies) is a fixed combination of these
    statistics and the current rho/beta, so no O(V*T) work recurs per sweep.
    """

    def __init__(self, y: np.ndarray, x: np.ndarray):
        xn, xl = x[1:], x[:-1]
        yn, yl = y[:, 1:], y[:, :-1]
        self.sxx_nn = float(xn @ xn)
        self.sxx_ll = float(xl @ xl)
        self.sxx_nl = float(xn @ xl)
        self.a1 = yn @ xn
        self.a2 = yn @ xl
        self.a3 = yl @ xn
        self.a4 = yl @ xl
        self.syy = np.sum(np.conj(yl) * yn, axis=1)
        self.syl2 = np.sum(yl.real**2 + yl.imag**2, axis=1)
        self.syn2 = np.sum(yn.real**2 + yn.imag**2, axis=1)

    def design_norms(self, rho):
        r2 = rho.real**2 + rho.imag**2
        xnorm2 = self.sxx_nn - 2.0 * rho.real * self.sxx_nl + r2 * self.sxx_ll
        c = self.a1 - np.conj(rho) * self.a2 - rho * self.a3 + r2 * self.a4
        return xnorm2, c

    def residual_norms(self, beta):
        b2 = beta.real**2 + beta.imag**2
        cw = self.syy - beta * np.conj(self.a3) - np.conj(beta) * self.a2 + b2 * self.sxx_nl
        wl2 = np.maximum(self.syl2 - 2.0 * (np.conj(beta) * self.a4).real + b2 * self.sxx_ll, 0.0)
        wn2 = np.maximum(self.syn2 - 2.0 * (np.conj(beta) * self.a1).real + b2 * self.sxx_nn, 0.0)
        return cw, wl2, wn2


def _initial_state(y: np.ndarray, stats: _ParcelStats, cfg) -> ChainState:
    n_vox = y.shape[0]
    gamma = np.ones(n_vox, dtype=bool)
    # pooled per-component variance of the centered series, halved
    sigma2 = np.maximum(0.25 * np.mean(y.real**2 + y.imag**2, axis=1), 1e-30)
    rho = np.zeros(n_vox, dtype=complex)
    tau2 = 1.0
    xnorm2, c = stats.design_norms(rho)
    beta = c / (xnorm2 + sigma2 / tau2)
    return ChainState(
        gamma=gamma,
        beta=beta,
        rho=rho,
        sigma2=sigma2,
        eta=np.zeros(n_vox),
        tau2=tau2,
        kappa=cfg.a_kappa * cfg.b_kappa,
        eta_shared=0.5,
    )


def run_parcel_chain(
    y: np.ndarray,
    basis: SpatialBasis | None,
    x: np.ndarray,
    cfg: SamplerConfig,
    parcel_seed: int,
    trace_voxels=None,
    audit: bool = False,
) -> ChainSummary:
    """Run one parcel's Gibbs chain and summarize the kept draws.

    ``y`` is the (V, T) complex data of the parcel and ``x`` the shared
    regressor; both are centered internally. ``basis`` may be None in
    nonspatial mode. The chain is a deterministic function of its arguments
    and ``parcel_seed``.
    """
    y = np.ascontiguousarray(y, dtype=complex)
    x = np.asarray(x, dtype=float)
    if y.ndim != 2 or y.shape[1] != x.size:
        raise InvalidSpecError("parcel data must be (V, T) with T matching the regressor")
    if x.size < 3:
        raise InsufficientDataError("chains need at least 3 time points")
    if cfg.n_kept < 16:
        raise InsufficientDataError("need at least 16 kept draws for batch-means MCSE")
    if cfg.mode == SPATIAL:
        if basis is None:
            raise InvalidSpecError("spatial mode requires a SpatialBasis")
        if basis.n_voxels != y.shape[0]:
            raise InvalidSpecError("basis size does not match parcel size")

    n_vox, n_time = y.shape
    rng = np.random.default_rng(parcel_seed)

    yc = y - y.mean(axis=1, keepdims=True)
    xc = x - x.mean()
    stats = _ParcelStats(yc, xc)
    state = _initial_state(yc, stats, cfg)
    spatial = cfg.mode == SPATIAL
    nu2 = basis.nu2 if spatial else None

    kept_gamma = np.zeros((cfg.n_kept, n_vox), dtype=np.int8)
    beta_sum = np.zeros(n_vox, dtype=complex)
    trace = None
    if trace_voxels is not None:
        trace = {int(v): np.zeros((cfg.n_iter, 6)) for v in trace_voxels}

    shape_sigma = n_time - 1
    for it in range(cfg.n_iter):
        # voxel stage: gamma, beta, rho, sigma2 (vectorized across voxels)
        xnorm2, c = stats.design_norms(state.rho)
        if spatial:
            prior_logit = _prior_logit_spatial(cfg.psi, state.eta)
        else:
            prior_logit = _prior_logit_shared(state.eta_shared)
        p_incl = _inclusion_probability(xnorm2, c, state.sigma2, state.tau2, prior_logit)
        state.gamma = rng.random(n_vox) < p_incl
        state.beta = _draw_beta(xnorm2, c, state.sigma2, state.tau2, state.gamma, rng)
        cw, wl2, wn2 = stats.residual_norms(state.beta)
        state.rho, _ = _draw_rho(cw, wl2, state.sigma2, rng)
        r2 = state.rho.real**2 + state.rho.imag**2
        ss = np.maximum(wn2 - 2.0 * (np.conj(state.rho) * cw).real + r2 * wl2, 0.0)
        state.sigma2 = _draw_sigma2(ss, shape_sigma, rng)

        # parcel stage: tau2, then the inclusion-prior latents
        state.tau2 = _draw_tau2(state.gamma, state.beta, state.tau2, rng)
        if spatial:
            state.eta = _draw_eta(state.gamma, nu2, state.kappa, rng)
            state.kappa = _draw_kappa(state.eta, nu2, cfg.a_kappa, cfg.b_kappa, rng)
        else:
            state.eta_shared = _draw_eta_shared(state.gamma, rng)

        if audit:
            state.validate()
        if trace is not None:
            for v, buf in trace.items():
                buf[it] = (
                    state.gamma[v],
                    state.beta[v].real,
                    state.beta[v].imag,
                    state.rho[v].real,
                    state.rho[v].imag,
                    state.sigma2[v],
                )
        if it >= cfg.n_burn:
            kept_gamma[it - cfg.n_burn] = state.gamma
            beta_sum += state.beta

    incl = kept_gamma.mean(axis=0)
    errs = mcse(kept_gamma)
    return ChainSummary(
        incl_prob=incl,
        beta_mean=beta_sum / cfg.n_kept,
        mcse=errs,
        converged=bool(np.max(errs) < cfg.mcse_tol),
        n_kept=cfg.n_kept,
        trace=trace,
    )


# --------------------------------------------------------------------------
# diagnostics and stitching
# --------------------------------------------------------------------------

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


def stitch_voxel_field(partition: Partition, chains, extract, dtype=float) -> np.ndarray:
    """Scatter per-parcel voxel vectors back onto the full grid."""
    if len(chains) != len(partition.parcel_voxel_lists):
        raise InvalidSpecError("one chain summary per parcel is required")
    flat = np.zeros(int(np.prod(partition.dims)), dtype=dtype)
    for summary, voxels in zip(chains, partition.parcel_voxel_lists):
        flat[voxels] = extract(summary)
    return flat.reshape(partition.dims)


def summarize(chains, partition: Partition, threshold: float) -> ResultMaps:
    """Stitch parcel summaries into activation, magnitude, and phase maps.

    A voxel is declared active when its inclusion probability strictly exceeds
    ``threshold``; the phase map is defined on active voxels only (NaN
    elsewhere).
    """
    incl = stitch_voxel_field(partition, chains, lambda s: s.incl_prob)
    beta = stitch_voxel_field(partition, chains, lambda s: s.beta_mean, dtype=complex)
    activation = (incl > threshold).astype(np.int8)
    magnitude = np.abs(beta)
    phase = np.where(activation == 1, np.angle(beta), np.nan)
    return ResultMaps(partition.dims, activation, magnitude, phase)
