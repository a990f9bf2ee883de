"""Experimental design: boxcar stimulus, double-gamma HRF, expected BOLD response.

The regression model sees a single regressor: the expected BOLD response,
obtained by convolving the on/off stimulus with the canonical double-gamma
hemodynamic response function and rescaling the result to a maximum of one
(so the activation coefficient carries the full signal magnitude). The HRF's
shapes, rates and undershoot weight are fixed module constants; the sampler
centers the regressor itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, xlogy

from .errors import DegenerateDesignError, InvalidSpecError

__all__ = [
    "StimulusSpec",
    "DesignVector",
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


@dataclass(frozen=True)
class StimulusSpec:
    """A periodic on/off (boxcar) stimulus.

    ``on_len`` must be at least one time point; ``off_len`` may be zero
    (a degenerate always-on epoch). When ``on_first`` is false each epoch
    starts with its off-block.
    """

    n_epochs: int
    on_len: int
    off_len: int
    on_first: bool = True

    def __post_init__(self):
        if self.n_epochs < 1:
            raise InvalidSpecError("stimulus needs at least one epoch")
        if self.on_len < 1:
            raise InvalidSpecError("stimulus on-block must span at least one time point")
        if self.off_len < 0:
            raise InvalidSpecError("stimulus off-block length cannot be negative")


@dataclass(frozen=True)
class DesignVector:
    """Stimulus sequence and expected BOLD response of a run."""

    stimulus: np.ndarray
    bold: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "stimulus", np.asarray(self.stimulus, dtype=np.int8))
        object.__setattr__(self, "bold", np.asarray(self.bold, dtype=float))
        if self.stimulus.shape != self.bold.shape:
            raise InvalidSpecError("stimulus and BOLD response must share a length")

    @property
    def n_time(self) -> int:
        return self.bold.size


def boxcar_stimulus(spec: StimulusSpec) -> np.ndarray:
    """Build the 0/1 stimulus sequence for ``spec``.

    Within each epoch the on-block precedes the off-block when ``on_first``,
    otherwise the order is reversed.
    """
    on = np.ones(spec.on_len, dtype=np.int8)
    off = np.zeros(spec.off_len, dtype=np.int8)
    epoch = np.concatenate([on, off] if spec.on_first else [off, on])
    return np.tile(epoch, spec.n_epochs)


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
    on_first: bool = True,
    warmup: int = 0,
) -> DesignVector:
    """Build a design of exactly ``n_time`` points from a repeating epoch pattern.

    ``warmup`` off points are prepended, then epochs are tiled and the sequence
    is truncated to ``n_time``. Truncation commutes with the causal HRF
    convolution, so partial final epochs are well defined.
    """
    if n_time < 1:
        raise InvalidSpecError("design length must be positive")
    if warmup < 0 or warmup >= n_time:
        raise InvalidSpecError("warmup must lie in [0, n_time)")
    on_len, off_len = min(on_len, n_time), min(off_len, n_time)  # longer blocks are cut anyway
    n_epochs = -(-(n_time - warmup) // max(on_len + off_len, 1)) or 1
    stim = boxcar_stimulus(StimulusSpec(n_epochs, on_len, off_len, on_first))
    stim = np.concatenate([np.zeros(warmup, dtype=np.int8), stim])[:n_time]
    return DesignVector(stim, expected_bold(stim))
