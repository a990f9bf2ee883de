"""Parcel-wise Gibbs sampler for spike-and-slab activation detection.

Model, per voxel v with complex series y and real regressor x (both centered):

    y = x b + r p + e,   e ~ complex N(0, 2 s^2 I) (circular),

where b is the complex activation coefficient under a spike-and-slab prior
(point mass at 0 vs. complex normal slab with per-parcel variance tau^2), p a
complex AR(1) coefficient with flat prior, and s^2 the per-voxel noise variance
with Jeffreys prior. Inclusion indicators follow a probit prior,
P(gamma_v = 1) = Phi(psi + eta_v). In spatial mode psi is fixed and the latent
field eta carries a low-rank spatial structure built from the parcel's
adjacency eigenvectors (variance nu_v^2 / kappa after collapsing the random
effects). In nonspatial mode eta is 0 and each parcel draws its own intercept
psi_g ~ N(0, 1): Phi(psi_g) is then a shared rate under a flat Beta prior.

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
fixed voxel-order scan. One engine runs a batch of parcels, each given as its
rows of the series (in a fit, the whole image's); it gathers one parcel's rows
at a time and fills its rows of the batch's statistics. Each stage is one
numpy call across the batch's parcels, however many: parcel-level values
reach the voxels by ``np.repeat`` over the parcels' sizes, and parcel-level
sums are ``np.add.reduceat`` over the parcels' offsets.

Parcel g has its own random stream, ``default_rng(derive_seed(cfg.seed, g))``,
which the engine derives from the parcel's index in the image and reads
through ``_block_stream`` alone, so a parcel's draws, and its maps, do not
depend on which batch or worker runs it. Each conditional is written once,
as a public function of its sufficient statistics and standard variates
(``inclusion_log_odds`` and the ``draw_*`` functions); the engine calls them,
and the test suite feeds them from an independent per-series reference.

The chain keeps running counts, not draws: a voxel's count of kept gamma = 1,
in all and per batch of n_kept // b sweeps for b = isqrt(n_kept), gives its
inclusion probability and that estimate's batch-means MCSE.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import multiprocessing
import os
import signal
import sys
import traceback
from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv, erfc, expit, gammaincinv, ndtri

from .errors import (
    CvfmriError,
    DataFormatError,
    DegenerateDesignError,
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
    "prior_logit",
    "inclusion_log_odds",
    "inclusion_probability",
    "draw_beta",
    "draw_rho",
    "draw_sigma2",
    "draw_tau2",
    "half_normal_magnitudes",
    "draw_eta",
    "draw_kappa",
    "draw_eta_shared",
    "A_KAPPA",
    "B_KAPPA",
    "BLOCK_SWEEPS",
    "run_parcel_chain",
    "usable_cpus",
    "stitch_voxel_field",
    "summarize",
]

SPATIAL = "spatial"
NONSPATIAL = "nonspatial"

#: Shape and scale of the Gamma prior on each parcel's smoothing parameter
#: kappa; its mean, A_KAPPA * B_KAPPA, is kappa's start value.
A_KAPPA = 0.5
B_KAPPA = 2000.0

_MASK64 = (1 << 64) - 1
#: Threshold on |w_lag|^2 below which the AR update is declared degenerate.
_DEGENERATE_NORM = 1e-300
#: The fields of a traced voxel's draws, one column each per sweep.
_TRACE_FIELDS = ("gamma", "beta_re", "beta_im", "rho_re", "rho_im", "sigma2")


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
        if not 0 < self.mcse_tol < math.inf:
            raise InvalidSpecError("mcse_tol must be positive and finite")

    @property
    def n_kept(self) -> int:
        return self.n_iter - self.n_burn


@dataclass
class ChainSummary:
    """Post burn-in summaries of a batch of parcel chains from running counts,
    per voxel of the batch's parcels in order (``mcse`` over isqrt(n_kept)
    batches); ``trace`` is keyed by row of the series."""

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
    """log of the marginal-likelihood ratio null/slab with beta integrated out:
    log1p(||x*||^2 tau2/sigma2) - |X*'y*|^2 / (2 sigma2 (||x*||^2 + sigma2/tau2)).

    Uses the scalar-identity structure of the stacked design: the 2x2 Gram
    matrix is ||x*||^2 I, so the determinant is (||x*||^2 + sigma2/tau2)^2 and
    the quadratic form reduces to |X*'y*|^2 / (||x*||^2 + sigma2/tau2). The
    determinant's log, log tau2 - log sigma2 + log(||x*||^2 + sigma2/tau2), is
    taken as one log1p, which stays accurate where the slab is narrow.
    """
    denom = xstar_norm2 + sigma2 / tau2
    return np.log1p(xstar_norm2 * tau2 / sigma2) - xty_norm2 / (2.0 * sigma2 * denom)


def prior_logit(psi, eta):
    """Prior log odds of inclusion under the probit prior: logit Phi(psi + eta),
    as sign(z) (log1p(-y) - log y) with y = Phi(-|z|) = erfc(|z|/sqrt 2)/2,
    the smaller tail, from one special-function call. In nonspatial mode eta
    is 0 and psi is the parcel's intercept Phi^-1(theta) of its shared rate
    theta, so these are log theta - log1p(-theta).

    Beyond |z| of about 38 one tail underflows to 0, and the log odds are
    +-inf, which make the inclusion probability exactly 1 or 0."""
    z = psi + eta
    y = 0.5 * erfc(np.abs(z) * math.sqrt(0.5))
    with np.errstate(divide="ignore"):
        return np.copysign(np.log1p(-y) - np.log(y), z)


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

def inclusion_log_odds(xnorm2, c, sigma2, tau2, prior_logit):
    """Posterior log odds of inclusion: prior logit - log null/slab ratio.

    The engine draws gamma = 1 where logit(u) = log u - log1p(-u) of its
    inclusion uniform u lies below them, the same event as u below the
    inclusion probability."""
    return prior_logit - log_null_slab_ratio(xnorm2, c.real**2 + c.imag**2, sigma2, tau2)


def inclusion_probability(xnorm2, c, sigma2, tau2, prior_logit):
    """Posterior inclusion probability, expit of :func:`inclusion_log_odds`:
    assembled in log space, so that it cannot overflow."""
    return expit(inclusion_log_odds(xnorm2, c, sigma2, tau2, prior_logit))


def draw_beta(xnorm2, c, sigma2, tau2, gamma, z):
    """Activation coefficients: zero where ``gamma`` is False, else the
    conjugate ridge normal c/p + sqrt(sigma2/p) z with scalar precision
    p = ||x*||^2 + sigma2/tau2, formed at those voxels only."""
    idx = np.flatnonzero(gamma)
    s = sigma2[idx]
    prec = xnorm2[idx] + s / tau2[idx]
    beta = np.zeros(gamma.shape, dtype=complex)
    beta[idx] = c[idx] / prec + np.sqrt(s / prec) * z[idx]
    return beta


def draw_rho(cw, wl2, sigma2, z):
    """AR(1) coefficients cw/wl2 + sqrt(sigma2/wl2) z from the conjugate normal
    on the lagged residuals, and the flags of voxels with wl2 below 1e-300,
    whose rho is set to 0."""
    degenerate = wl2 < _DEGENERATE_NORM
    # a degenerate voxel divides by 1 instead, so only the draws that are kept can warn
    wl2 = np.where(degenerate, 1.0, wl2)
    rho = cw / wl2 + np.sqrt(sigma2 / wl2) * z
    rho[degenerate] = 0
    return rho, degenerate


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
    # the clamp keeps u == 0 finite, as in half_normal_magnitudes
    g = gammaincinv(np.maximum(n_active, 1), np.maximum(u, 1e-300))
    return np.where(active, (ssb / 2.0) / g, prev_tau2)


def half_normal_magnitudes(u, out=None):
    """Standard half-normal magnitudes -ndtri(u/2) of uniforms ``u`` (into ``out``
    if given); the clamp keeps u == 0 (probability 2^-53) finite at about 37.05."""
    half = np.maximum(np.multiply(u, 0.5, out=out), 1e-300, out=out)
    return np.negative(ndtri(half, out=out), out=out)


def draw_eta(gamma, m, kappa_rsqrt):
    """Probit latents from magnitudes m = h sqrt(nu2), h standard half-normal:
    magnitude m kappa^-1/2 (``kappa_rsqrt``, the voxel's parcel's, or one for
    all), so h sqrt(nu2/kappa), positive where the voxel is included, else
    negative."""
    mag = m * kappa_rsqrt
    return np.where(gamma, mag, -mag)


def draw_kappa(sum_eta2_nu2, g):
    """Smoothing parameter, Gamma from standard gammas ``g`` of shape V/2 + A_KAPPA."""
    return g / (0.5 * sum_eta2_nu2 + 1.0 / B_KAPPA)


def draw_eta_shared(n_active, n_vox, u):
    """Shared inclusion rates theta of parcels, Beta(1 + k, 1 + V - k) by
    inverse transform of uniforms ``u``. Phi^-1(theta) is the parcel's probit
    intercept psi_g, whose N(0, 1) prior is theta's flat Beta(1, 1)."""
    return betaincinv(1 + n_active, 1 + n_vox - n_active, u)


# --------------------------------------------------------------------------
# the chain engine
# --------------------------------------------------------------------------

#: Sweeps per block of pregenerated draws (see ``_block_stream``). The value
#: is part of the stream's definition: changing it changes every chain.
BLOCK_SWEEPS = 32


#: The stages of a block, in stream order: for a block of
#: k = min(BLOCK_SWEEPS, sweeps left) sweeps, a parcel's generator fills each
#: stage's k sweeps in turn. Per stage: its name; whether it holds one value
#: per voxel, or one per parcel; float, or complex, each value drawn as a pair
#: of normals, real part first; and its draw into ``out``, a C-contiguous float
#: array, for series of length t and a parcel of v voxels. A spatial chain
#: draws all but ``rate``, a nonspatial one all but ``eta`` and ``kappa``.
_BLOCK_STAGES = (
    ("gamma", True, float, lambda rng, out, t, v: rng.random(out=out)),
    ("beta", True, complex, lambda rng, out, t, v: rng.standard_normal(out=out)),
    ("rho", True, complex, lambda rng, out, t, v: rng.standard_normal(out=out)),
    ("sigma2", True, float, lambda rng, out, t, v: rng.standard_gamma(t - 1, out=out)),
    ("tau2", False, float, lambda rng, out, t, v: rng.random(out=out)),
    ("eta", True, float, lambda rng, out, t, v: rng.random(out=out)),
    ("kappa", False, float, lambda rng, out, t, v: rng.standard_gamma(v / 2.0 + A_KAPPA, out=out)),
    ("rate", False, float, lambda rng, out, t, v: rng.random(out=out)),
)


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cpu_to_spare() -> bool:
    """Whether a chain may fork a block producer: the platform can fork, the
    process may run on more than one CPU, and it is not a worker of a process
    pool. A pool's workers draw their blocks inline, whatever the pool's size."""
    return (hasattr(os, "fork") and usable_cpus() > 1
            and multiprocessing.parent_process() is None)


def _buffer_sets(layout, count: int):
    """``count`` dicts of the arrays of ``layout``, (name, shape, dtype), carved
    from one allocation: for more than one, anonymous shared memory, so that
    what a forked child writes there its parent reads, or one private set where
    that memory cannot be mapped."""
    floats = [math.prod(shape) * np.dtype(dtype).itemsize // 8 for _, shape, dtype in layout]
    ends = np.cumsum(floats * count)
    try:
        flat = np.frombuffer(mmap.mmap(-1, 8 * ends[-1])) if count > 1 else np.empty(ends[-1])
    except OSError:
        return _buffer_sets(layout, 1)
    parts = iter(np.split(flat, ends[:-1]))
    return [{name: next(parts).view(dtype).reshape(shape) for name, shape, dtype in layout}
            for _ in range(count)]


def _block_draws(rng, names, k: int, n_time: int, n_vox: int, nu=None):
    """A parcel's block of ``k`` sweeps, drawn from its generator ``rng`` alone:
    a dict by stage name of new (k, n_vox) or (k, 1) arrays, one per stage of
    ``_BLOCK_STAGES`` in ``names``, drawn in the table's order for series of
    length ``n_time``. Then come the transforms that read no chain state: the
    gamma uniforms u become their logits log u - log1p(-u), and where ``nu``,
    the voxels' sqrt(nu2), is given (spatial mode), the eta uniforms become
    h sqrt(nu2) with h = -ndtri(u/2), and "h2" holds each sweep's sum of h^2."""
    block = {}
    for name, per_voxel, dtype, draw in _BLOCK_STAGES:
        if name in names:
            block[name] = np.empty((k, n_vox if per_voxel else 1), dtype)
            draw(rng, block[name].view(float), n_time, n_vox)
    u = block["gamma"]
    log1m = np.log1p(-u)
    with np.errstate(divide="ignore"):  # u == 0: logit -inf, gamma = 1 unless odds are 0
        np.log(u, out=u)
    u -= log1m
    if nu is not None:
        h = half_normal_magnitudes(block["eta"], out=block["eta"])
        block["h2"] = np.add.reduceat(np.square(h), [0], axis=1)
        h *= nu
    return block


def _block_stream(rngs, starts, sizes, n_time: int, n_iter: int, nu_v=None):
    """The draws of a batch's chains: per ``next``, the block of the next
    k = min(BLOCK_SWEEPS, sweeps left) sweeps, a dict by stage name of (k, n)
    arrays, n the batch's voxels or parcels, valid until the next ``next``.
    Close it on every exit.

    Parcel p of the batch has ``sizes[p]`` voxels from ``starts[p]`` on and
    draws from ``rngs[p]``, for series of length ``n_time``; ``nu_v`` holds
    the voxels' sqrt(nu2), or is None in nonspatial mode. Each parcel's block
    comes from ``_block_draws``, every draw a fixed count, and is copied into
    the parcel's columns, so its draws do not depend on its batch.

    Where a CPU is spare (``_cpu_to_spare``) and the chain has a second block,
    the first ``next`` forks a producer process that draws every block into
    two alternating buffer sets in shared memory while the caller sweeps the
    block before, and this process draws none. The producer draws blocks 0
    and 1 at once, each later one once the caller has freed its set (a byte on
    the pipe ``free``), and announces each block (a byte on ``ready``). It
    ignores SIGINT, the caller's to act on, and leaves by ``os._exit``: 0 when
    done or once the caller has closed its ends, 1 after printing any other
    error. Closing the stream reaps it; a producer gone before a block raises
    ``CvfmriError``. Where no producer can be set up (a pipe, the shared memory
    or the fork fails), this process draws each block. The stream is the same
    either way.
    """
    n_vox = int(sizes.sum())
    unused = ("eta", "kappa") if nu_v is None else ("rate",)
    stages = [stage[:3] for stage in _BLOCK_STAGES if stage[0] not in unused]
    stages += [("h2", False, float)] * (nu_v is not None)
    per_voxel = {name: flag for name, flag, _ in stages}
    layout = [(name, (BLOCK_SWEEPS, n_vox if flag else sizes.size), dtype)
              for name, flag, dtype in stages]
    buffers = _buffer_sets(layout, 1 + (n_iter > BLOCK_SWEEPS and _cpu_to_spare()))

    pid = None  # the producer's id; 0 in the producer, None where this process draws
    if len(buffers) > 1:
        fds = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
    status, lost = 1, None  # the producer's exit code; the sweep of an undelivered block
    try:
        if pid is not None:
            free_r, free_w, ready_r, ready_w = fds
            # the producer reads free and writes ready; the caller holds the other ends
            for fd in (free_w, ready_r) if pid == 0 else (free_r, ready_w):
                os.close(fd)
        if pid == 0:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
        for it in range(0, n_iter, BLOCK_SWEEPS):
            k = min(BLOCK_SWEEPS, n_iter - it)
            draws = {name: b[:k] for name, b in buffers[it // BLOCK_SWEEPS % len(buffers)].items()}
            if pid:
                try:
                    done = os.read(ready_r, 1)  # empty once the producer has gone
                    if done and it and it + BLOCK_SWEEPS < n_iter:
                        os.write(free_w, b"\1")  # the set of the block just swept
                except BrokenPipeError:
                    done = b""
                if not done:
                    lost = it
                    break
                yield draws
                continue
            if pid == 0 and it > BLOCK_SWEEPS and not os.read(free_r, 1):
                break  # the caller has stopped
            for p, (rng, lo, size) in enumerate(zip(rngs, starts, sizes)):
                nu = None if nu_v is None else nu_v[lo:lo + size]
                voxels, parcel = slice(lo, lo + size), slice(p, p + 1)
                for name, b in _block_draws(rng, per_voxel, k, n_time, size, nu).items():
                    draws[name][:, voxels if per_voxel[name] else parcel] = b
            if pid == 0:
                os.write(ready_w, b"\1")
            else:
                yield draws
        status = 0
    except BaseException as exc:
        if pid != 0:
            raise
        if isinstance(exc, BrokenPipeError):
            status = 0  # the caller stopped while this block was drawn
        else:
            traceback.print_exc()
            sys.stderr.flush()
    finally:
        if pid == 0:
            os._exit(status)  # the producer never returns into its parent's frames
        if pid:
            os.close(free_w)
            os.close(ready_r)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if lost is not None:
        raise CvfmriError(f"the block producer process {pid} exited with code {code} "
                          f"before the block of sweep {lost}")


class _ParcelStats:
    """Per-voxel cross products that make each sweep O(V).

    With x real and y complex, every quantity the conditionals need
    (||x*||^2, X*'y*, residual energies) is a fixed combination of these
    statistics and the current rho/beta, so no O(V*T) work recurs per sweep.
    A batch's statistics are allocated once, for ``n_vox`` voxels, and each
    parcel fills its own rows from its own series (``fill``), so their bits
    do not depend on the batch. ``y2_mean``, each series' mean squared
    modulus, sets the chain's initial sigma^2.
    """

    def __init__(self, x: np.ndarray, n_vox: int):
        self.xn, self.xl = xn, xl = x[1:], x[:-1]
        self.sxx_nn = float(xn @ xn)
        self.sxx_ll = float(xl @ xl)
        self.sxx_nl = float(xn @ xl)
        self.sxx_nl2 = 2.0 * self.sxx_nl
        self.a1, self.a2, self.a3, self.a4, self.syy = np.empty((5, n_vox), dtype=complex)
        self.syl2, self.syn2, self.y2_mean = np.empty((3, n_vox))

    def fill(self, lo: int, y: np.ndarray):
        """Fill the statistics of voxels lo, lo + 1, ... from their series ``y``."""
        xn, xl, yn, yl = self.xn, self.xl, y[:, 1:], y[:, :-1]
        at = slice(lo, lo + len(y))
        # einsum, not @: it runs on the calling thread, while a BLAS product
        # would wake the library's helper threads in every pool worker
        np.einsum("vt,t->v", yn, xn, out=self.a1[at])
        np.einsum("vt,t->v", yn, xl, out=self.a2[at])
        np.einsum("vt,t->v", yl, xn, out=self.a3[at])
        np.einsum("vt,t->v", yl, xl, out=self.a4[at])
        np.sum(np.conj(yl) * yn, axis=1, out=self.syy[at])
        np.sum(yl.real**2 + yl.imag**2, axis=1, out=self.syl2[at])
        np.sum(yn.real**2 + yn.imag**2, axis=1, out=self.syn2[at])
        np.mean(y.real**2 + y.imag**2, axis=1, out=self.y2_mean[at])

    def design_norms(self, rho, r2):
        """(||x*||^2, x*^H y*) after quasi-differencing with ``rho``, whose
        squared moduli are ``r2``."""
        xnorm2 = self.sxx_nn - rho.real * self.sxx_nl2 + r2 * self.sxx_ll
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


def _zeros(shape, what: str, n_iter: int) -> np.ndarray:
    """``np.zeros(shape)`` for an array that ``n_iter`` sizes; one too large to
    allocate is a bad setting."""
    try:
        return np.zeros(shape)
    except (MemoryError, ValueError):  # past free memory, or past numpy's largest array
        raise InvalidSpecError(
            f"n_iter = {n_iter} needs a {shape} {what} array, too large to allocate") from None


def run_parcel_chain(
    y: np.ndarray,
    nu2,
    x: np.ndarray,
    cfg: SamplerConfig,
    parcels,
    trace_voxels=None,
) -> ChainSummary:
    """Run the Gibbs chains of a batch of parcels and summarize the kept draws.

    ``y`` is an (N, T) complex series (in a fit, the image's, row v holding
    voxel v) and ``x`` the shared regressor. ``parcels`` maps each parcel of
    the batch, in order, from its index in the image to its integer rows of
    ``y``, no row twice in the batch: parcel g draws from
    ``default_rng(derive_seed(cfg.seed, g))`` and is named g in error
    messages. The engine gathers and centers one parcel's rows at a time.
    ``nu2`` gives each parcel's spatial basis (the nu2 vector of
    :func:`~cvfmri.parcellation.build_spatial_basis`), in the same order, or is
    None in nonspatial mode.

    Each stage of a sweep is one numpy call across the batch, reading the
    block that ``_block_stream`` draws. Every parcel draws from its own
    generator and its statistics come from its own rows, so its part of the
    summary is a deterministic function of its rows, nu2, index and ``cfg``,
    whatever batch it runs in. The summary covers the parcels' rows in order.
    ``trace_voxels`` are integer rows of ``y`` in the batch's parcels; the
    trace maps each to its (n_iter, 6) draws, in the columns of
    ``_TRACE_FIELDS``.
    """
    y = np.asarray(y, dtype=complex)
    x = np.asarray(x, dtype=float)
    if y.ndim != 2 or y.shape[1] != x.size:
        raise InvalidSpecError("parcel data must be (N, T) with T matching the regressor")
    if x.size < 3:
        raise InsufficientDataError("chains need at least 3 time points")
    nonfinite = np.flatnonzero(~np.isfinite(x))
    if nonfinite.size:
        raise InvalidSpecError(f"the regressor is {x[nonfinite[0]]} at time point {nonfinite[0]}")
    if x.max() == x.min():
        raise DegenerateDesignError("the regressor is constant, so no voxel can respond to it")
    ids = list(parcels)
    row_lists = [np.asarray(r) for r in parcels.values()]
    sizes = np.array([r.size for r in row_lists], dtype=np.intp)
    n_parcels = len(ids)
    if not n_parcels or sizes.min() < 1:
        raise InvalidSpecError("a batch needs at least one parcel, and each parcel a row")
    for g, r in zip(ids, row_lists):
        if r.ndim != 1:
            raise InvalidSpecError(f"parcel {g}: rows must be 1-D, not of shape {r.shape}")
        if r.dtype.kind not in "iu":
            raise InvalidSpecError(f"parcel {g}: row {r.flat[0].item()!r} is not an integer")
    rows = np.concatenate(row_lists).astype(np.intp, copy=False)
    n_vox = rows.size
    outside = rows[(rows < 0) | (rows >= len(y))]
    if outside.size:
        raise InvalidSpecError(f"parcel row {outside[0]} lies outside [0, {len(y)})")
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])

    def parcel_of(k):
        """The image index of the parcel of the batch's voxel ``k``."""
        return ids[np.searchsorted(starts, k, side="right") - 1]

    repeated = np.bincount(rows)[rows] > 1
    if repeated.any():
        k = np.flatnonzero(rows == rows[np.argmax(repeated)])[1]
        raise InvalidSpecError(f"parcel {parcel_of(k)}: row {rows[k]} is listed twice in the batch")

    spatial = cfg.mode == SPATIAL
    nu_v = None
    if spatial:
        if nu2 is None:
            raise InvalidSpecError("spatial mode requires the parcels' nu2")
        if len(nu2) != n_parcels:
            raise InvalidSpecError("a batch needs one nu2 vector per parcel")
        for g, b, size in zip(ids, nu2, sizes):
            if np.shape(b) != (size,):
                raise InvalidSpecError(f"parcel {g}: basis size does not match parcel size")
        nu_v = np.sqrt(np.concatenate(nu2))

    trace = None
    if trace_voxels is not None:
        trace_voxels = list(trace_voxels)
        bad = [v for v in trace_voxels if np.asarray(v).dtype.kind not in "iu"]
        if bad:
            raise InvalidSpecError(f"trace voxel {bad[0]} is not an integer")
        traced = list(dict.fromkeys(int(v) for v in trace_voxels))
        position = dict(zip(rows.tolist(), range(n_vox)))
        missing = [v for v in traced if v not in position]
        if missing:
            raise InvalidSpecError(f"trace voxel {missing[0]} lies outside the batch's parcels")
        at = np.array([position[v] for v in traced], dtype=np.intp)
        trace = _zeros((cfg.n_iter, len(traced), len(_TRACE_FIELDS)), "trace", cfg.n_iter)

    stats = _ParcelStats(_center(x), n_vox)
    with np.errstate(over="ignore", invalid="ignore"):  # an unusable series is rejected below
        for lo, r in zip(starts, row_lists):
            stats.fill(lo, _center(y[r]))
    unusable = np.flatnonzero(~np.isfinite(stats.syl2 + stats.syn2))
    if unusable.size:
        k = unusable[0]
        problem = (f"the sum of squares of the series at voxel {rows[k]} overflows"
                   if np.isfinite(y[rows[k]]).all() else f"non-finite series at voxel {rows[k]}")
        raise DataFormatError(f"parcel {parcel_of(k)}: {problem}")
    # the state the mode reads (gamma and beta are drawn before their first
    # read): sigma2 the pooled per-component variance of the series, halved, and
    # per voxel tau2 and the prior log odds, at eta = 0 or a shared rate of 1/2
    sigma2 = np.maximum(0.25 * stats.y2_mean, 1e-30)
    rho = np.zeros(n_vox, dtype=complex)
    r2 = np.zeros(n_vox)
    tau2 = np.ones(n_parcels)
    tau2_v = np.ones(n_vox)
    prior_v = np.full(n_vox, prior_logit(cfg.psi if spatial else 0.0, 0.0))
    if spatial:
        kappa = np.full(n_parcels, A_KAPPA * B_KAPPA)
    rngs = [np.random.default_rng(derive_seed(cfg.seed, g)) for g in ids]

    # running counts of kept gamma = 1: in all, and per batch of batch_len
    # kept sweeps (the last n_kept - n_batches * batch_len count in all only)
    n_batches = math.isqrt(cfg.n_kept)
    batch_len = cfg.n_kept // n_batches
    count = np.zeros(n_vox, dtype=np.intp)
    batch_counts = _zeros((n_batches, n_vox), "batch-count", cfg.n_iter)
    beta_sum = np.zeros(n_vox, dtype=complex)
    with contextlib.closing(_block_stream(rngs, starts, sizes, x.size, cfg.n_iter, nu_v)) as blocks:
        for it in range(cfg.n_iter):
            j = it % BLOCK_SWEEPS
            if j == 0:
                draws = next(blocks)

            # voxel stage: gamma, beta, rho, sigma2 (one call across the batch)
            xnorm2, c = stats.design_norms(rho, r2)
            gamma = draws["gamma"][j] < inclusion_log_odds(xnorm2, c, sigma2, tau2_v, prior_v)
            beta = draw_beta(xnorm2, c, sigma2, tau2_v, gamma, draws["beta"][j])
            cw, wl2, wn2 = stats.residual_norms(beta, gamma)
            rho, _ = draw_rho(cw, wl2, sigma2, draws["rho"][j])
            r2 = rho.real**2 + rho.imag**2
            ss = np.maximum(wn2 - 2.0 * (np.conj(rho) * cw).real + r2 * wl2, 0.0)
            try:
                sigma2 = draw_sigma2(ss, draws["sigma2"][j])
            except DegeneratePosteriorError:
                # named by its row of y, which in a fit is its image voxel
                k = int(np.argmax(ss <= 0.0))
                raise DegeneratePosteriorError(
                    f"parcel {parcel_of(k)}: zero residual sum of squares at voxel {rows[k]}"
                ) from None

            # parcel stage: tau2, then the prior, each also per voxel for the voxel stage
            n_active = np.add.reduceat(gamma, starts, dtype=np.intp)
            ssb = np.add.reduceat(beta.real**2 + beta.imag**2, starts)
            try:
                tau2 = draw_tau2(n_active, ssb, tau2, draws["tau2"][j])
            except DegeneratePosteriorError as exc:
                g = ids[int(np.argmax((n_active > 0) & (ssb <= 0.0)))]
                raise type(exc)(f"parcel {g}: {exc}") from None
            tau2_v = np.repeat(tau2, sizes)
            if spatial:
                eta = draw_eta(gamma, draws["eta"][j], np.repeat(kappa ** -0.5, sizes))
                prior_v = prior_logit(cfg.psi, eta)
                # each parcel's sum of eta^2/nu2 is its sum of h^2 over the kappa that drew eta
                kappa = draw_kappa(draws["h2"][j] / kappa, draws["kappa"][j])
            else:  # each parcel's free intercept psi_g, Phi^-1 of its shared rate
                psi = ndtri(draw_eta_shared(n_active, sizes, draws["rate"][j]))
                prior_v = np.repeat(prior_logit(psi, 0.0), sizes)

            if trace is not None:  # the columns of _TRACE_FIELDS
                trace[it] = np.column_stack((gamma[at], beta[at].real, beta[at].imag,
                                             rho[at].real, rho[at].imag, sigma2[at]))
            kept = it - cfg.n_burn
            if kept >= 0:
                count += gamma
                if kept < n_batches * batch_len:
                    batch_counts[kept // batch_len] += gamma
                beta_sum += beta

    # batch-means MCSE: np.std(batch means, axis=0, ddof=1) in place, column by column
    batch_counts /= batch_len
    batch_counts -= batch_counts.sum(axis=0) / n_batches
    errs = np.sqrt(np.square(batch_counts, out=batch_counts).sum(axis=0) / (n_batches - 1))
    errs /= math.sqrt(n_batches)
    return ChainSummary(
        incl_prob=count / cfg.n_kept,
        beta_mean=beta_sum / cfg.n_kept,
        mcse=errs,
        converged=bool(np.max(errs) < cfg.mcse_tol),
        trace=None if trace is None else {v: trace[:, i] for i, v in enumerate(traced)},
    )


# --------------------------------------------------------------------------
# stitching
# --------------------------------------------------------------------------

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
