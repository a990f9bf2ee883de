"""Synthetic complex-valued fMRI generators.

Three regimes are provided:

* ``simulate_iid`` — constant-phase signal with independent Gaussian noise on
  the real and imaginary channels,
* ``simulate_ar1`` — the same mean structure with complex AR(1) noise,
* ``simulate_realistic`` — a seven-slice 96x96 volume with dynamic phase and
  two cubic active regions spanning the interior slices.

All generators are deterministic functions of their arguments and the seed.
The study regions (``STUDY_REGION_TABLE``) and the realistic volume's geometry
and signal (the ``REALISTIC_*`` constants) are fixed module constants; only
the realistic volume's slice count, series length and taper are arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import _MAX_SAMPLE, ComplexDataset, TrueMaps
from .design import design_for_length
from .errors import InvalidSpecError

__all__ = [
    "RegionSpec",
    "NoiseSpec",
    "SignalSpec",
    "STUDY_REGION_TABLE",
    "generate_true_maps",
    "random_regions",
    "simulate_iid",
    "simulate_ar1",
    "simulate_realistic",
]

#: Default signal multiplier: with sigma equal to the same value the maximum
#: contrast-to-noise ratio of a map is exactly one.
DEFAULT_MULTIPLIER = 0.04909

#: (radius, decay) pairs used by the reproduction studies. The pairs span the
#: documented ranges (radius 2..6, decay 0..0.3) while keeping rim voxels
#: detectable; shapes and centers are randomized per map.
STUDY_REGION_TABLE = ((6.0, 0.0), (4.0, 0.15), (2.0, 0.3))

#: Placement attempts per region before :func:`random_regions` gives up.
MAX_PLACEMENT_TRIES = 1000

#: The realistic volume: 96x96 slices with baseline magnitude 25 and phase
#: pi/4 under unit noise; two 5x5 active squares per interior slice whose
#: magnitude and phase coefficients peak at 0.5 and pi/120 (scaled per slice by
#: the taper), so the peak magnitude CNR is 0.5 and the phase CNR (pi/120)/25.
REALISTIC_SLICE_SHAPE = (96, 96)
REALISTIC_BETA0 = 25.0
REALISTIC_SIGMA = 1.0
REALISTIC_BETA1_MAX = 0.5
REALISTIC_THETA0 = math.pi / 4
REALISTIC_THETA1_MAX = math.pi / 120
REALISTIC_SQUARE_CORNERS = ((30, 30), (60, 60))
REALISTIC_SQUARE_SIZE = 5


@dataclass(frozen=True)
class RegionSpec:
    """One active region: a sphere (Euclidean) or cube (Chebyshev) with linear fade.

    A voxel at distance d from the center gets relative magnitude
    max(0, 1 - decay*d) if d <= radius, else zero.
    """

    center: tuple
    radius: float
    shape: str = "sphere"
    decay: float = 0.0

    def __post_init__(self):
        if self.shape not in ("sphere", "cube"):
            raise InvalidSpecError(f"unknown region shape {self.shape!r}")
        if self.radius <= 0:
            raise InvalidSpecError("region radius must be positive")
        if not 0.0 <= self.decay <= 0.3:
            raise InvalidSpecError("region decay must lie in [0, 0.3]")


@dataclass(frozen=True)
class NoiseSpec:
    """Noise model: iid complex Gaussian or complex AR(1)."""

    kind: str = "iid"
    sigma: float = DEFAULT_MULTIPLIER
    ar_coeff: complex = 0.2 + 0.9j

    def __post_init__(self):
        if self.kind not in ("iid", "ar1"):
            raise InvalidSpecError(f"unknown noise kind {self.kind!r}")
        if self.sigma < 0:
            raise InvalidSpecError("noise sigma cannot be negative")
        if self.kind == "ar1" and abs(self.ar_coeff) >= 1:
            raise InvalidSpecError("AR(1) coefficient must have modulus < 1 (stationarity)")


@dataclass(frozen=True)
class SignalSpec:
    """Baseline magnitude and (constant) phase of the simulated signal."""

    beta0: float = 0.4909
    theta0: float = math.pi / 4


def _region_field(dims, region: RegionSpec) -> np.ndarray:
    center = np.asarray(region.center, dtype=float)
    if center.size != len(dims):
        raise InvalidSpecError("region center dimensionality does not match the grid")
    grids = np.meshgrid(*(np.arange(d) for d in dims), indexing="ij")
    deltas = [g - c for g, c in zip(grids, center)]
    if region.shape == "sphere":
        dist = np.sqrt(sum(d * d for d in deltas))
    else:
        dist = np.max(np.abs(np.stack(deltas)), axis=0)
    rel = np.where(dist <= region.radius, np.maximum(0.0, 1.0 - region.decay * dist), 0.0)
    return rel


def generate_true_maps(dims, regions=None, multiplier: float = DEFAULT_MULTIPLIER,
                       seed=None) -> TrueMaps:
    """Build ground-truth maps from explicit regions, or sample regions if None.

    Regions must fit inside the grid and must not overlap (checked on the
    actual voxel footprints, not on bounding boxes).
    """
    dims = tuple(int(d) for d in dims)
    if not 0 < multiplier < math.inf:
        raise InvalidSpecError(
            f"magnitude multiplier must be positive and finite, got {multiplier}"
        )
    if multiplier > _MAX_SAMPLE:  # the largest part of a sample a dataset holds
        raise InvalidSpecError(f"magnitude multiplier {multiplier:g} exceeds {_MAX_SAMPLE:g}")
    if regions is None:
        regions = random_regions(dims, np.random.default_rng(seed))
    magnitude = np.zeros(dims)
    occupied = np.zeros(dims, dtype=bool)
    for region in regions:
        lo = np.floor(np.asarray(region.center) - region.radius)
        hi = np.ceil(np.asarray(region.center) + region.radius)
        if np.any(lo < 0) or np.any(hi > np.asarray(dims) - 1):
            raise InvalidSpecError(f"region at {region.center} extends outside the grid")
        rel = _region_field(dims, region)
        footprint = rel > 0
        if np.any(footprint & occupied):
            raise InvalidSpecError(f"region at {region.center} overlaps another region")
        occupied |= footprint
        magnitude += rel * multiplier
    return TrueMaps(dims, occupied.astype(np.int8), magnitude)


def random_regions(dims, rng: np.random.Generator):
    """Sample non-overlapping regions with random shapes and centers.

    Radii and decay rates come from ``STUDY_REGION_TABLE``; placement is
    rejection-sampled until footprints are disjoint.
    """
    dims = tuple(int(d) for d in dims)
    regions = []
    occupied = np.zeros(dims, dtype=bool)
    for radius, decay in STUDY_REGION_TABLE:
        margin = int(np.ceil(radius))
        if any(d <= 2 * margin for d in dims):
            raise InvalidSpecError("grid too small for the requested region radii")
        for attempt in range(MAX_PLACEMENT_TRIES):
            shape = "sphere" if rng.random() < 0.5 else "cube"
            center = tuple(int(rng.integers(margin, d - margin)) for d in dims)
            region = RegionSpec(center, radius, shape, decay)
            rel = _region_field(dims, region)
            footprint = rel > 0
            if not np.any(footprint & occupied):
                occupied |= footprint
                regions.append(region)
                break
        else:
            raise InvalidSpecError("could not place non-overlapping regions")
    return regions


def _signal_mean(maps: TrueMaps, x: np.ndarray, sig: SignalSpec):
    beta1 = maps.magnitude.reshape(-1, 1)
    return sig.beta0 + beta1 * x[None, :]


def _simulate_constant_phase(kind: str, maps: TrueMaps, x: np.ndarray,
                             sig: SignalSpec, noise: NoiseSpec, seed) -> ComplexDataset:
    if noise.kind != kind:
        raise InvalidSpecError(f"simulate_{kind} requires noise kind {kind!r}")
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        raise InvalidSpecError("simulation needs at least two time points")
    rng = np.random.default_rng(seed)
    mean = _signal_mean(maps, x, sig) * np.exp(1j * sig.theta0)
    z = rng.standard_normal((maps.active.size, x.size, 2))
    eps = noise.sigma * (z[..., 0] + 1j * z[..., 1])
    if kind == "ar1":
        rho = complex(noise.ar_coeff)
        for t in range(1, x.size):  # column t still holds the innovation xi_t
            eps[:, t] += rho * eps[:, t - 1]
    return ComplexDataset(maps.dims, (mean + eps).reshape(*maps.dims, x.size))


def simulate_iid(maps: TrueMaps, x: np.ndarray, sig: SignalSpec,
                 noise: NoiseSpec, seed) -> ComplexDataset:
    """Constant-phase signal plus iid complex Gaussian noise.

    Per voxel v and time t the channels are
    (beta0 + beta1_v x_t) cos(theta0) + eps and the analogous sine term, with
    independent N(0, sigma^2) noise on each channel.
    """
    return _simulate_constant_phase("iid", maps, x, sig, noise, seed)


def simulate_ar1(maps: TrueMaps, x: np.ndarray, sig: SignalSpec,
                 noise: NoiseSpec, seed) -> ComplexDataset:
    """Same mean structure as :func:`simulate_iid` with complex AR(1) noise.

    The noise recursion is eps_t = rho * eps_{t-1} + xi_t in complex
    arithmetic, started at eps_0 = xi_0; innovations share the draw order of
    the iid generator so ar_coeff = 0 reproduces it bit for bit.
    """
    return _simulate_constant_phase("ar1", maps, x, sig, noise, seed)


def realistic_design(n_time: int = 490) -> np.ndarray:
    """Regressor of a finger-tapping design: 10 warm-up points, then 15-on/15-off epochs."""
    return design_for_length(n_time, on_len=15, off_len=15, warmup=10)


def simulate_realistic(
    seed,
    *,
    n_slices: int = 7,
    n_time: int = 490,
    taper=(0.0, 0.5, 0.75, 1.0, 0.75, 0.5, 0.0),
):
    """Seven-slice dynamic-phase volume with two cubic active regions.

    Slices are generated independently (one RNG consumed slice-major). Each
    interior slice holds the two active squares of ``REALISTIC_SQUARE_CORNERS``,
    whose magnitude and phase coefficients scale with the per-slice ``taper``
    (peaking at the middle slice); the outermost slices carry no activation.

    Returns ``(dataset, true_maps)``.
    """
    if len(taper) != n_slices:
        raise InvalidSpecError("taper must provide one factor per slice")
    slice_shape = REALISTIC_SLICE_SHAPE
    dims = (n_slices, *slice_shape)
    x = realistic_design(n_time)
    rng = np.random.default_rng(seed)

    slice_active = np.zeros(slice_shape, dtype=np.int8)
    size = REALISTIC_SQUARE_SIZE
    for r0, c0 in REALISTIC_SQUARE_CORNERS:
        slice_active[r0 : r0 + size, c0 : c0 + size] = 1

    active = np.zeros(dims, dtype=np.int8)
    magnitude = np.zeros(dims)
    data = np.empty((*dims, n_time), dtype=np.complex128)
    n_vox = slice_shape[0] * slice_shape[1]
    for s in range(n_slices):
        factor = float(taper[s])
        if factor > 0:
            active[s] = slice_active
            magnitude[s] = slice_active * REALISTIC_BETA1_MAX * factor
        beta1 = magnitude[s].reshape(-1, 1)
        theta1 = ((slice_active.reshape(-1, 1) * REALISTIC_THETA1_MAX * factor)
                  if factor > 0 else 0.0)
        amp = REALISTIC_BETA0 + beta1 * x[None, :]
        phase = REALISTIC_THETA0 + theta1 * x[None, :]
        z = rng.standard_normal((n_vox, n_time, 2))
        eps = REALISTIC_SIGMA * (z[..., 0] + 1j * z[..., 1])
        data[s] = (amp * np.exp(1j * phase) + eps).reshape(*slice_shape, n_time)
    return ComplexDataset(dims, data), TrueMaps(dims, active, magnitude)
