"""Stimulus, HRF, and expected-BOLD construction."""

import math

import numpy as np
import pytest

from cvfmri.design import (
    StimulusSpec,
    _gamma_kernel,
    boxcar_stimulus,
    design_for_length,
    double_gamma_hrf,
    expected_bold,
)
from cvfmri.errors import DegenerateDesignError, InvalidSpecError
from cvfmri.sampler import _center


def naive_causal_convolution(stim, kernel):
    """Independent oracle: x_t = sum_{k<=t} s_{t-k} h(k) by explicit loops."""
    n = len(stim)
    out = np.zeros(n)
    for t in range(n):
        for k in range(t + 1):
            out[t] += stim[t - k] * kernel[k]
    return out


class TestBoxcar:
    def test_five_epoch_block_design(self):
        s = boxcar_stimulus(StimulusSpec(5, 20, 20))
        assert s.size == 200
        assert np.all(s[:20] == 1) and np.all(s[20:40] == 0)
        assert np.array_equal(s, np.tile(s[:40], 5))

    def test_degenerate_single_point_epoch(self):
        assert boxcar_stimulus(StimulusSpec(1, 1, 0)).tolist() == [1]

    def test_off_first(self):
        assert boxcar_stimulus(StimulusSpec(2, 2, 1, on_first=False)).tolist() == [0, 1, 1, 0, 1, 1]

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpecError):
            StimulusSpec(0, 20, 20)
        with pytest.raises(InvalidSpecError):
            StimulusSpec(5, 0, 20)

    def test_sum_equals_total_on_time(self):
        for spec in (StimulusSpec(5, 20, 20), StimulusSpec(3, 7, 2), StimulusSpec(1, 4, 0, False)):
            assert boxcar_stimulus(spec).sum() == spec.n_epochs * spec.on_len


class TestDoubleGammaHrf:
    def test_zero_at_origin_for_shapes_above_one(self):
        assert double_gamma_hrf(0.0) == 0.0
        assert _gamma_kernel(0.0, 3.5, 1.0) == 0.0

    def test_single_gamma_value(self):
        # gamma(2, 1) kernel t e^-t at t = 1
        assert _gamma_kernel(1.0, 2.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_default_value_and_peak_location(self):
        # direct evaluation of the kernel difference at t=6
        t = 6.0
        g1 = t**5 * math.exp(-t) / math.factorial(5)
        g2 = t**15 * math.exp(-t) / math.factorial(15)
        assert double_gamma_hrf(t) == pytest.approx(g1 - g2 / 6.0, rel=1e-12)
        # grid-search oracle over [0, 30] step 0.001: the peak sits at the
        # first gamma's mode (a-1)/b = 5 (undershoot negligible there)
        grid = np.arange(0.0, 30.0005, 0.001)
        argmax = grid[np.argmax(double_gamma_hrf(grid))]
        assert argmax == pytest.approx(5.0, abs=0.005)

    def test_rejects_negative_time(self):
        with pytest.raises(InvalidSpecError):
            double_gamma_hrf(-0.5)


class TestExpectedBold:
    def test_impulse_gives_rescaled_hrf(self):
        stim = np.zeros(60)
        stim[0] = 1
        h = double_gamma_hrf(np.arange(60))
        expected = h / h.max()
        assert np.allclose(expected_bold(stim), expected, atol=1e-12)

    def test_block_design_five_peaks_and_convolution_oracle(self):
        stim = boxcar_stimulus(StimulusSpec(5, 20, 20))
        x = expected_bold(stim)
        h = double_gamma_hrf(np.arange(stim.size))
        oracle = naive_causal_convolution(stim, h)
        assert np.allclose(x, oracle / oracle.max(), atol=1e-10)
        # one broad peak per epoch: count upward crossings of 0.5
        above = x > 0.5
        rises = np.sum(~above[:-1] & above[1:])
        assert rises == 5

    def test_invariant_to_hrf_scaling(self):
        stim = boxcar_stimulus(StimulusSpec(3, 10, 10))
        h = double_gamma_hrf(np.arange(stim.size))
        for scale in (0.25, 7.0):
            a = naive_causal_convolution(stim, h)
            b = naive_causal_convolution(stim, scale * h)
            assert np.allclose(a / a.max(), b / b.max(), atol=1e-12)

    def test_all_zero_stimulus_rejected(self):
        with pytest.raises(DegenerateDesignError):
            expected_bold(np.zeros(50))
        with pytest.raises(InvalidSpecError):
            expected_bold(np.array([]))


class TestCenterSeries:
    # the sampler centers the regressor and each voxel's series over time
    def test_simple(self):
        assert np.allclose(_center(np.array([1.0, 2.0, 3.0])), [-1.0, 0.0, 1.0])

    def test_zeros(self):
        assert np.array_equal(_center(np.zeros(4)), np.zeros(4))

    def test_complex_mean_removal(self):
        out = _center(np.array([1 + 1j, 3 + 3j]))
        assert np.allclose(out, [-1 - 1j, 1 + 1j])

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        once = _center(v)
        assert np.allclose(_center(once), once, atol=1e-12)


class TestDesignVector:
    def test_design_for_length_truncates_partial_epochs(self):
        d = design_for_length(500)
        assert d.n_time == 500
        full = boxcar_stimulus(StimulusSpec(13, 20, 20))[:500]
        assert np.array_equal(d.stimulus, full)
        # causal convolution commutes with truncation (up to the rescale)
        longer = design_for_length(520)
        trimmed = longer.bold[:500]
        assert np.allclose(d.bold, trimmed / trimmed.max(), atol=1e-12)

    def test_design_for_length_warmup(self):
        d = design_for_length(490, on_len=15, off_len=15, warmup=10)
        assert d.n_time == 490
        assert np.all(d.stimulus[:10] == 0) and d.stimulus[10] == 1

    @pytest.mark.parametrize("on_len, off_len, on_first, on_points", [
        (10**12, 5, True, range(2, 40)),
        (3, 10**12, True, range(2, 5)),
        (10**12, 5, False, range(7, 40)),
    ])
    def test_blocks_longer_than_the_run_are_cut(self, on_len, off_len, on_first, on_points):
        # a 10^12-point block once asked for a 10^12-element array
        d = design_for_length(40, on_len, off_len, on_first, warmup=2)
        stimulus = np.zeros(40, dtype=np.int8)
        stimulus[list(on_points)] = 1
        assert np.array_equal(d.stimulus, stimulus)
        assert np.array_equal(d.bold, expected_bold(stimulus))
