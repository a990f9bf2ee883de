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
fixed voxel-order scan. One engine runs a batch of parcels stacked along the
voxel axis: each stage is one numpy call across every parcel of the batch, and
parcel-level sums are ``np.add.reduceat`` over the parcels' offsets (the sum
of each parcel's own segment). A lone parcel is a batch of one.

Parcel g has its own random stream, ``default_rng(derive_seed(cfg.seed, g))``,
which the engine derives from the parcel's index in the image. Every draw a
parcel uses has a fixed count, for every voxel whether it uses it or not, and
is pregenerated in blocks of ``BLOCK_SWEEPS`` sweeps (the layout is given
there). So a parcel's draws, and its maps, do not depend on which batch
or worker runs it. When the batch's parcels average at least
``PREFETCH_MIN_VOXELS`` voxels and a CPU is spare (the process may run on
more than one and is not a worker of a process pool), a helper thread draws
each block while the engine sweeps the one before it; the stream is the same
either way. Each
conditional is written once, as a public function of its sufficient
statistics and standard variates (``inclusion_probability`` and the
``draw_*`` functions); the engine calls them, and the test suite feeds them
from an independent per-series reference.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv, expit, gammaincinv, ndtr, ndtri

from .errors import (
    DegeneratePosteriorError,
    InsufficientDataError,
    InvalidSpecError,
)
from .parcellation import Partition

__all__ = [
    "SamplerConfig",
    "ChainSummary",
    "ResultMaps",
    "SPATIAL",
    "NONSPATIAL",
    "splitmix64",
    "derive_seed",
    "log_null_slab_ratio",
    "prior_logit_spatial",
    "prior_logit_shared",
    "inclusion_probability",
    "draw_beta",
    "draw_rho",
    "draw_sigma2",
    "draw_tau2",
    "draw_eta",
    "draw_kappa",
    "draw_eta_shared",
    "BLOCK_SWEEPS",
    "run_parcel_chain",
    "usable_cpus",
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
# configuration and summaries
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
        if not math.isfinite(self.psi):
            raise InvalidSpecError(f"psi must be finite, got {self.psi}")
        if self.mode not in (SPATIAL, NONSPATIAL):
            raise InvalidSpecError(f"unknown sampler mode {self.mode!r}")
        if self.n_iter < 1:
            raise InvalidSpecError("n_iter must be positive")
        if self.n_burn is None:
            self.n_burn = self.n_iter // 2
        if not 0 <= self.n_burn < self.n_iter:
            raise InvalidSpecError("n_burn must lie in [0, n_iter)")
        if self.n_kept < 16:
            raise InvalidSpecError(
                f"n_iter - n_burn = {self.n_kept} kept draws; batch-means MCSE needs at least 16"
            )
        if self.threshold is None:
            self.threshold = 0.8722 if self.mode == SPATIAL else 0.5
        if not 0.0 < self.threshold < 1.0:
            raise InvalidSpecError("threshold must lie in (0, 1)")
        if self.q < 1:
            raise InvalidSpecError("q must be positive")
        if not (0 < self.a_kappa < math.inf and 0 < self.b_kappa < math.inf):
            raise InvalidSpecError("kappa prior parameters must be positive and finite")
        if not 0 < self.mcse_tol < math.inf:
            raise InvalidSpecError("mcse_tol must be positive and finite")

    @property
    def n_kept(self) -> int:
        return self.n_iter - self.n_burn


@dataclass
class ChainSummary:
    """Post burn-in summaries of a batch of parcel chains, per stacked voxel."""

    incl_prob: np.ndarray
    beta_mean: np.ndarray
    mcse: np.ndarray
    converged: bool
    trace: dict | None = None


@dataclass
class ResultMaps:
    """Stitched whole-image outputs: activation, magnitude, phase."""

    activation: np.ndarray
    magnitude: np.ndarray
    phase: np.ndarray


# --------------------------------------------------------------------------
# closed-form pieces
# --------------------------------------------------------------------------

def log_null_slab_ratio(xstar_norm2, xty_norm2, sigma2, tau2):
    """log of the marginal-likelihood ratio null/slab with beta integrated out.

    Uses the scalar-identity structure of the stacked design: the 2x2 Gram
    matrix is ||x*||^2 I, so the determinant is (||x*||^2 + sigma2/tau2)^2 and
    the quadratic form reduces to |X*'y*|^2 / (||x*||^2 + sigma2/tau2).
    """
    denom = xstar_norm2 + sigma2 / tau2
    return np.log(tau2) - np.log(sigma2) + np.log(denom) - xty_norm2 / (2.0 * sigma2 * denom)


def prior_logit_spatial(psi, eta):
    """Prior log odds of inclusion under the probit latent: logit Phi(psi + eta).

    Beyond |z| of about 38 one tail underflows to 0, and the log odds are
    +-inf, which make the inclusion probability exactly 1 or 0."""
    z = psi + eta
    with np.errstate(divide="ignore"):
        return np.log(ndtr(z)) - np.log(ndtr(-z))


def prior_logit_shared(eta_shared):
    """Prior log odds of inclusion under the nonspatial shared rate."""
    p = np.clip(eta_shared, 1e-15, 1.0 - 1e-15)
    return np.log(p) - np.log1p(-p)


# --------------------------------------------------------------------------
# full conditionals on sufficient statistics
# --------------------------------------------------------------------------
#
# Each conditional's formula lives in exactly one function below: the only
# conditional API of the package. They take the chain's layout (1-D per-voxel
# float/complex/bool arrays, or per-parcel sums) together with the standard
# variates they transform, and coerce nothing, so the engine calls them
# directly with its pregenerated draws. For voxel v after quasi-differencing
# with its AR coefficient, xnorm2 = ||x*||^2 and c = x*^H y*; for the lagged
# residual w = y - beta x, wl2 = ||w_lag||^2 and cw = w_lag^H w_now.

def inclusion_probability(xnorm2, c, sigma2, tau2, prior_logit):
    """Posterior inclusion probability, assembled in log space as
    expit(prior logit - log null/slab ratio), so that it cannot overflow."""
    log_ratio = log_null_slab_ratio(xnorm2, c.real**2 + c.imag**2, sigma2, tau2)
    return expit(prior_logit - log_ratio)


def _standard_complex_normals(rng, shape):
    """z1 + i z2 for each element of ``shape``, from standard normals drawn in pairs."""
    return rng.standard_normal((*shape, 2)).view(complex)[..., 0]


def _complex_normal(num, prec, sigma2, mask, z):
    """num/prec + sqrt(sigma2/prec) z where ``mask`` holds, 0 elsewhere.

    ``z`` holds one standard complex normal per element; masked-out ones go
    unused.
    """
    if mask.all():
        return num / prec + np.sqrt(sigma2 / prec) * z
    out = np.zeros(mask.shape, dtype=complex)
    idx = np.flatnonzero(mask)
    p = prec[idx]
    out[idx] = num[idx] / p + np.sqrt(sigma2[idx] / p) * z[idx]
    return out


def draw_beta(xnorm2, c, sigma2, tau2, gamma, z):
    """Activation coefficients: zero where ``gamma`` is False, else the
    conjugate ridge normal with scalar precision ||x*||^2 + sigma2/tau2."""
    return _complex_normal(c, xnorm2 + sigma2 / tau2, sigma2, gamma, z)


def draw_rho(cw, wl2, sigma2, z):
    """AR(1) coefficients from the conjugate normal on the lagged residuals,
    and the flags of voxels with wl2 below 1e-300, whose rho is set to 0."""
    degenerate = wl2 < _DEGENERATE_NORM
    return _complex_normal(cw, wl2, sigma2, ~degenerate, z), degenerate


def draw_sigma2(ss, g):
    """Noise variances, inverse gamma from standard gammas ``g`` of shape T - 1;
    ``ss`` is the residual sum of squares after quasi-differencing."""
    bad = np.flatnonzero(ss <= 0.0)
    if bad.size:
        raise DegeneratePosteriorError(f"zero residual sum of squares at voxel {bad[0]}")
    return (ss / 2.0) / g


def draw_tau2(n_active, ssb, prev_tau2, u):
    """Slab variances of parcels with ``n_active`` active voxels whose squared
    coefficients sum to ``ssb``: inverse gamma IG(k, ssb/2) by inverse
    transform of uniforms ``u``, or ``prev_tau2`` where nothing is active."""
    active = n_active > 0
    if np.any(active & (ssb <= 0.0)):
        raise DegeneratePosteriorError(
            "slab variance update saw active voxels with zero coefficients"
        )
    # the clamp keeps u == 0 finite, as in draw_eta
    g = gammaincinv(np.maximum(n_active, 1), np.maximum(u, 1e-300))
    return np.where(active, (ssb / 2.0) / g, prev_tau2)


def draw_eta(gamma, nu2, kappa, u):
    """Probit latents from uniforms ``u``: half-normal magnitude with sd
    sqrt(nu2/kappa), positive where the voxel is included, else negative."""
    # standardized half-normal by inverse survival; the clamp keeps u == 0
    # (probability 2^-53 per draw) finite at ~37 sd
    mag = -ndtri(np.maximum(u * 0.5, 1e-300)) * np.sqrt(nu2 / kappa)
    return np.where(gamma, mag, -mag)


def draw_kappa(sum_eta2_nu2, g, b_kappa):
    """Smoothing parameter, Gamma from standard gammas ``g`` of shape V/2 + a_kappa."""
    return g / (0.5 * sum_eta2_nu2 + 1.0 / b_kappa)


def draw_eta_shared(n_active, n_vox, u):
    """Shared inclusion rates of parcels, Beta(1 + k, 1 + V - k) by inverse
    transform of uniforms ``u``."""
    return betaincinv(1 + n_active, 1 + n_vox - n_active, u)


# --------------------------------------------------------------------------
# the chain engine
# --------------------------------------------------------------------------

#: Sweeps per block of pregenerated draws. For each block of
#: k = min(BLOCK_SWEEPS, sweeps left) sweeps, a parcel's generator yields every
#: draw of those sweeps, stage by stage in sweep order: k x V uniforms (gamma),
#: k x V x 2 normals (beta), k x V x 2 normals (rho), k x V standard gammas of
#: shape T - 1 (sigma^2), k uniforms (tau^2), then in spatial mode k x V
#: uniforms (eta) and k standard gammas of shape V/2 + a_kappa (kappa), or in
#: nonspatial mode k uniforms (the shared rate). The value is part of the
#: stream's definition: changing it changes every chain. Which thread draws a
#: block (see PREFETCH_MIN_VOXELS) is not: each generator is read in this
#: order by one thread at a time.
BLOCK_SWEEPS = 32

#: Mean parcel size, in voxels, from which the engine draws each block one
#: block ahead on a helper thread, overlapping the generator fills (which
#: release the GIL) with the sweeps. Each generator call then costs two
#: thread switches, so batches of smaller parcels draw inline, on the thread
#: that sweeps. The overlap also needs a CPU the sweeps leave idle; see
#: ``_cpu_to_spare``.
PREFETCH_MIN_VOXELS = 256


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cpu_to_spare() -> bool:
    """Whether a helper thread would find an idle CPU: the process may run on
    more than one, and it is not a pool worker (a fit's pool starts one
    worker per CPU, so each CPU already sweeps)."""
    return usable_cpus() > 1 and multiprocessing.parent_process() is None


def _block_draws(rng, n_sweeps, n_vox, shape_sigma, shape_kappa):
    """One parcel's block of draws, in stream order (see BLOCK_SWEEPS)."""
    draws = [
        rng.random((n_sweeps, n_vox)),
        _standard_complex_normals(rng, (n_sweeps, n_vox)),
        _standard_complex_normals(rng, (n_sweeps, n_vox)),
        rng.standard_gamma(shape_sigma, (n_sweeps, n_vox)),
        rng.random((n_sweeps, 1)),
    ]
    if shape_kappa is None:
        return draws + [rng.random((n_sweeps, 1))]
    return draws + [rng.random((n_sweeps, n_vox)), rng.standard_gamma(shape_kappa, (n_sweeps, 1))]


class _ParcelStats:
    """Per-voxel cross products that make each sweep O(V).

    With x real and y complex, every quantity the conditionals need
    (||x*||^2, X*'y*, residual energies) is a fixed combination of these
    statistics and the current rho/beta, so no O(V*T) work recurs per sweep.
    Each parcel's statistics are computed from its own rows, so their bits do
    not depend on the batch; ``stack`` concatenates those of a batch.
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

    @classmethod
    def stack(cls, parts):
        """The statistics of a batch: per-voxel arrays concatenated, the
        regressor's sums (the same for every parcel) kept once."""
        out = cls.__new__(cls)
        for name, value in vars(parts[0]).items():
            if np.ndim(value):
                value = np.concatenate([getattr(p, name) for p in parts])
            setattr(out, name, value)
        return out

    def design_norms(self, rho):
        r2 = rho.real**2 + rho.imag**2
        xnorm2 = self.sxx_nn - 2.0 * rho.real * self.sxx_nl + r2 * self.sxx_ll
        c = self.a1 - np.conj(rho) * self.a2 - rho * self.a3 + r2 * self.a4
        return xnorm2, c

    def residual_norms(self, beta, active):
        """(cw, wl2, wn2) of the residual y - beta x, where beta is 0 off
        ``active``: there they are the series' own ``syy``, ``syl2``, ``syn2``."""
        idx = np.flatnonzero(active)
        b = beta[idx]
        b2 = b.real**2 + b.imag**2
        cw, wl2, wn2 = self.syy.copy(), self.syl2.copy(), self.syn2.copy()
        cw[idx] = (self.syy[idx] - b * np.conj(self.a3[idx]) - np.conj(b) * self.a2[idx]
                   + b2 * self.sxx_nl)
        wl2[idx] = np.maximum(self.syl2[idx] - 2.0 * (np.conj(b) * self.a4[idx]).real
                              + b2 * self.sxx_ll, 0.0)
        wn2[idx] = np.maximum(self.syn2[idx] - 2.0 * (np.conj(b) * self.a1[idx]).real
                              + b2 * self.sxx_nn, 0.0)
        return cw, wl2, wn2


def _center(values):
    """Remove the mean along the last axis (the time axis of a series)."""
    return values - values.mean(axis=-1, keepdims=True)


def run_parcel_chain(
    y: np.ndarray,
    nu2,
    x: np.ndarray,
    cfg: SamplerConfig,
    sizes,
    parcel_ids=None,
    trace_voxels=None,
) -> ChainSummary:
    """Run the Gibbs chains of a batch of parcels and summarize the kept draws.

    ``y`` is the (V, T) complex data of the batch, its parcels' rows stacked
    in order, ``sizes`` rows each; ``x`` is the shared regressor. Both are
    centered internally, parcel by parcel. ``nu2`` gives each parcel's spatial
    basis (the nu2 vector of :func:`~cvfmri.parcellation.build_spatial_basis`),
    or is None in nonspatial mode. ``parcel_ids`` (default 0, 1, ...) are the
    parcels' indices in the image: parcel g draws from
    ``default_rng(derive_seed(cfg.seed, g))`` and is named g in error messages.

    Each stage of a sweep is one numpy call across the batch. Every parcel
    draws from its own generator (see ``BLOCK_SWEEPS``) and its statistics come
    from its own rows, so its part of the summary is a deterministic function
    of its rows, nu2, index and ``cfg``, whatever batch it runs in. The summary
    covers the stacked rows, which ``trace_voxels`` index too; the trace maps
    each traced row to its (n_iter, 6) draws of gamma, beta, rho and sigma^2.
    """
    y = np.ascontiguousarray(y, dtype=complex)
    x = np.asarray(x, dtype=float)
    if y.ndim != 2 or y.shape[1] != x.size:
        raise InvalidSpecError("parcel data must be (V, T) with T matching the regressor")
    if x.size < 3:
        raise InsufficientDataError("chains need at least 3 time points")
    n_vox, n_time = y.shape
    sizes = np.array([int(s) for s in sizes], dtype=np.intp)
    n_parcels = len(sizes)
    ids = list(range(n_parcels) if parcel_ids is None else parcel_ids)
    if sum(sizes) != n_vox or min(sizes) < 1 or len(ids) != n_parcels:
        raise InvalidSpecError("a batch needs one size and id per parcel; sizes sum to V")

    def in_first_failing_parcel(draw, bounds, *args):
        """Redo a failed ``draw`` parcel by parcel, on each parcel's slice
        ``lo:hi`` of ``args``, and raise its error with the first failing
        parcel named: the one form of a parcel-level error."""
        for g, (lo, hi) in enumerate(bounds):
            try:
                draw(*(a[lo:hi] for a in args))
            except DegeneratePosteriorError as exc:
                raise type(exc)(f"parcel {ids[g]}: {exc}") from None

    spatial = cfg.mode == SPATIAL
    if spatial:
        if nu2 is None:
            raise InvalidSpecError("spatial mode requires the parcels' nu2")
        if len(nu2) != n_parcels:
            raise InvalidSpecError("a batch needs one nu2 vector per parcel")
        for g, (b, size) in enumerate(zip(nu2, sizes)):
            if np.shape(b) != (size,):
                raise InvalidSpecError(f"parcel {ids[g]}: basis size does not match parcel size")
        nu2 = np.concatenate(nu2)

    trace = None
    if trace_voxels is not None:
        traced = np.fromiter(trace_voxels, dtype=np.intp)
        outside = traced[(traced < 0) | (traced >= n_vox)]
        if outside.size:
            raise InvalidSpecError(f"trace row {outside[0]} lies outside [0, {n_vox})")
        trace = np.zeros((cfg.n_iter, traced.size, 6))

    offsets = np.concatenate([[0], np.cumsum(sizes)])
    starts = offsets[:-1]
    voxel_bounds = list(zip(starts, offsets[1:]))
    parcel_bounds = [(g, g + 1) for g in range(n_parcels)]
    xc = _center(x)
    parts, sigma2 = [], []
    for lo, hi in voxel_bounds:
        yc = _center(y[lo:hi])
        parts.append(_ParcelStats(yc, xc))
        # pooled per-component variance of the centered series, halved
        sigma2.append(np.maximum(0.25 * np.mean(yc.real**2 + yc.imag**2, axis=1), 1e-30))
    stats = _ParcelStats.stack(parts)
    # the state the mode reads (gamma and beta are drawn before their first read)
    sigma2 = np.concatenate(sigma2)
    rho = np.zeros(n_vox, dtype=complex)
    tau2 = np.ones(n_parcels)
    if spatial:
        eta = np.zeros(n_vox)
        kappa = np.full(n_parcels, cfg.a_kappa * cfg.b_kappa)
    else:
        eta_shared = np.full(n_parcels, 0.5)
    rngs = [np.random.default_rng(derive_seed(cfg.seed, g)) for g in ids]
    kappa_shapes = [s / 2.0 + cfg.a_kappa if spatial else None for s in sizes]

    def make_block(it):
        """The batch's draws of the block that sweep ``it`` opens, one array
        per stage; the only reader of the parcels' generators."""
        n_sweeps = min(BLOCK_SWEEPS, cfg.n_iter - it)
        per_parcel = [_block_draws(rng, n_sweeps, size, n_time - 1, shape)
                      for rng, size, shape in zip(rngs, sizes, kappa_shapes)]
        if n_parcels == 1:
            return per_parcel[0]
        return [np.concatenate(stage, axis=1) for stage in zip(*per_parcel)]

    kept_gamma = np.zeros((cfg.n_kept, n_vox), dtype=np.int8)
    beta_sum = np.zeros(n_vox, dtype=complex)
    ahead = n_vox >= PREFETCH_MIN_VOXELS * n_parcels and _cpu_to_spare()
    # the producer's thread starts at its first submit and is joined on exit
    with ThreadPoolExecutor(max_workers=1) as producer:
        pending = producer.submit(make_block, 0) if ahead else None
        try:
            for it in range(cfg.n_iter):
                j = it % BLOCK_SWEEPS
                if j == 0:
                    u_gamma, z_beta, z_rho, g_sigma, u_tau2, *prior_draws = (
                        pending.result() if ahead else make_block(it))
                    if ahead and it + BLOCK_SWEEPS < cfg.n_iter:
                        pending = producer.submit(make_block, it + BLOCK_SWEEPS)

                # voxel stage: gamma, beta, rho, sigma2 (one call across the batch)
                tau2_v = np.repeat(tau2, sizes)
                xnorm2, c = stats.design_norms(rho)
                if spatial:
                    prior_logit = prior_logit_spatial(cfg.psi, eta)
                else:
                    prior_logit = np.repeat(prior_logit_shared(eta_shared), sizes)
                p_incl = inclusion_probability(xnorm2, c, sigma2, tau2_v, prior_logit)
                gamma = u_gamma[j] < p_incl
                beta = draw_beta(xnorm2, c, sigma2, tau2_v, gamma, z_beta[j])
                cw, wl2, wn2 = stats.residual_norms(beta, gamma)
                rho, _ = draw_rho(cw, wl2, sigma2, z_rho[j])
                r2 = rho.real**2 + rho.imag**2
                ss = np.maximum(wn2 - 2.0 * (np.conj(rho) * cw).real + r2 * wl2, 0.0)
                try:
                    sigma2 = draw_sigma2(ss, g_sigma[j])
                except DegeneratePosteriorError:
                    # the parcel's own rows name the local voxel
                    in_first_failing_parcel(draw_sigma2, voxel_bounds, ss, g_sigma[j])

                # parcel stage: tau2, then the inclusion-prior latents
                n_active = np.add.reduceat(gamma, starts, dtype=np.intp)
                ssb = np.add.reduceat(beta.real**2 + beta.imag**2, starts)
                try:
                    tau2 = draw_tau2(n_active, ssb, tau2, u_tau2[j])
                except DegeneratePosteriorError:
                    in_first_failing_parcel(draw_tau2, parcel_bounds, n_active, ssb, tau2,
                                            u_tau2[j])
                if spatial:
                    u_eta, g_kappa = prior_draws
                    eta = draw_eta(gamma, nu2, np.repeat(kappa, sizes), u_eta[j])
                    sum_eta2 = np.add.reduceat(eta * eta / nu2, starts)
                    kappa = draw_kappa(sum_eta2, g_kappa[j], cfg.b_kappa)
                else:
                    eta_shared = draw_eta_shared(n_active, sizes, prior_draws[0][j])

                if trace is not None:
                    trace[it] = np.column_stack((gamma[traced], beta[traced].real,
                                                 beta[traced].imag, rho[traced].real,
                                                 rho[traced].imag, sigma2[traced]))
                if it >= cfg.n_burn:
                    kept_gamma[it - cfg.n_burn] = gamma
                    beta_sum += beta
        finally:
            if pending is not None:
                pending.cancel()

    incl = kept_gamma.mean(axis=0)
    # parcel by parcel: the float copy stays parcel-sized, and each parcel's
    # MCSE comes from the same array as when it runs alone
    errs = np.concatenate([mcse(kept_gamma[:, lo:hi]) for lo, hi in voxel_bounds])
    return ChainSummary(
        incl_prob=incl,
        beta_mean=beta_sum / cfg.n_kept,
        mcse=errs,
        converged=bool(np.max(errs) < cfg.mcse_tol),
        trace=None if trace is None else {int(v): trace[:, i] for i, v in enumerate(traced)},
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
    """Scatter chain summaries' voxel vectors back onto the full grid.

    ``chains`` run over the parcels in order, one summary per parcel or per
    batch of consecutive parcels, so their voxels, concatenated, are the
    parcels' voxel lists concatenated.
    """
    voxels = np.concatenate(partition.parcel_voxel_lists)
    values = np.concatenate([extract(summary) for summary in chains])
    if values.shape != voxels.shape:
        raise InvalidSpecError("the chain summaries must cover every parcel's voxels")
    flat = np.zeros(int(np.prod(partition.dims)), dtype=dtype)
    flat[voxels] = values
    return flat.reshape(partition.dims)


def summarize(incl_prob: np.ndarray, beta_mean: np.ndarray, threshold: float) -> ResultMaps:
    """Activation, magnitude, and phase maps from the stitched inclusion
    probabilities and posterior mean coefficients.

    A voxel is declared active when its inclusion probability strictly exceeds
    ``threshold``; the phase map is defined on active voxels only (NaN
    elsewhere).
    """
    activation = (incl_prob > threshold).astype(np.int8)
    magnitude = np.abs(beta_mean)
    phase = np.where(activation == 1, np.angle(beta_mean), np.nan)
    return ResultMaps(activation, magnitude, phase)
