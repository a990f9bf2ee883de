"""Experimental design: boxcar stimulus, double-gamma HRF, expected BOLD response.

The regression model sees a single regressor: the expected BOLD response,
obtained by convolving the on/off stimulus with the canonical double-gamma
hemodynamic response function and rescaling the result to a maximum of one
(so the activation coefficient carries the full signal magnitude). The HRF's
shapes, rates and undershoot weight are fixed module constants; the sampler
centers the regressor itself.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln, xlogy

from .errors import DegenerateDesignError, InvalidSpecError

__all__ = [
    "boxcar_stimulus",
    "double_gamma_hrf",
    "expected_bold",
    "design_for_length",
]

#: Canonical double-gamma HRF: a peak gamma(6, 1) kernel minus an undershoot
#: gamma(16, 1) kernel weighted by 1/6 (shapes a, rates b).
HRF_PEAK_SHAPE = 6.0
HRF_PEAK_RATE = 1.0
HRF_UNDERSHOOT_SHAPE = 16.0
HRF_UNDERSHOOT_RATE = 1.0
HRF_UNDERSHOOT_RATIO = 1.0 / 6.0


def boxcar_stimulus(n_time: int, on_len: int = 20, off_len: int = 20,
                    warmup: int = 0) -> np.ndarray:
    """The 0/1 stimulus of a run of ``n_time`` points.

    ``warmup`` off points come first, then epochs of ``on_len`` on points and
    ``off_len`` off points repeat to the end of the run, the last one cut
    short. ``on_len`` must be at least one time point; ``off_len`` may be zero
    (always on after the warmup). A design that starts with its off block is
    this one with ``off_len`` added to the warmup.
    """
    if n_time < 1:
        raise InvalidSpecError("design length must be positive")
    if warmup < 0 or warmup >= n_time:
        raise InvalidSpecError("warmup must lie in [0, n_time)")
    if on_len < 1:
        raise InvalidSpecError("stimulus on-block must span at least one time point")
    if off_len < 0:
        raise InvalidSpecError("stimulus off-block length cannot be negative")
    on_len, off_len = min(on_len, n_time), min(off_len, n_time)  # longer blocks are cut anyway
    t = np.arange(n_time) - warmup
    return ((t >= 0) & (t % (on_len + off_len) < on_len)).astype(np.int8)


def _gamma_kernel(t: np.ndarray, shape: float, rate: float) -> np.ndarray:
    # gamma-density kernel t^(a-1) b^a e^(-bt) / Gamma(a), in log space so
    # large shapes do not overflow
    with np.errstate(divide="ignore", invalid="ignore"):
        log_k = xlogy(shape - 1.0, t) + shape * np.log(rate) - rate * t - gammaln(shape)
    return np.exp(log_k)


def double_gamma_hrf(t) -> np.ndarray:
    """Evaluate the double-gamma HRF weight at nonnegative times ``t``."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise InvalidSpecError("HRF is defined for t >= 0 only")
    return _gamma_kernel(t, HRF_PEAK_SHAPE, HRF_PEAK_RATE) - (
        HRF_UNDERSHOOT_RATIO * _gamma_kernel(t, HRF_UNDERSHOOT_SHAPE, HRF_UNDERSHOOT_RATE)
    )


def expected_bold(stimulus: np.ndarray) -> np.ndarray:
    """Convolve ``stimulus`` with the HRF and rescale the peak to one.

    The convolution is discrete and causal on the sampling grid:
    x_t = sum_{k=0..t} s_{t-k} h(k), truncated to the stimulus length.
    """
    s = np.asarray(stimulus, dtype=float)
    if s.size == 0:
        raise InvalidSpecError("stimulus must be nonempty")
    h = double_gamma_hrf(np.arange(s.size))
    x = np.convolve(s, h)[: s.size]
    peak = x.max() if x.size else 0.0
    if peak <= 0:
        raise DegenerateDesignError(
            "expected BOLD response has no positive peak (all-off stimulus?); cannot rescale"
        )
    return x / peak


def design_for_length(
    n_time: int,
    on_len: int = 20,
    off_len: int = 20,
    warmup: int = 0,
) -> np.ndarray:
    """The regressor of a run of ``n_time`` points: the expected BOLD response
    of :func:`boxcar_stimulus` with the same arguments.

    Truncation commutes with the causal HRF convolution, so partial final
    epochs are well defined.
    """
    return expected_bold(boxcar_stimulus(n_time, on_len, off_len, warmup))
