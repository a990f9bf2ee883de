"""Stimulus, HRF, and expected-BOLD construction."""

import math

import numpy as np
import pytest

from cvfmri.design import (
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


def tile_stimulus(n_time, on_len, off_len, on_first=True, warmup=0):
    """Oracle: the stimulus built block by block, as the package once did.

    Both blocks are cut to the run first, then whole epochs (off block first
    when not ``on_first``) are tiled after ``warmup`` zeros and the sequence is
    cut to ``n_time`` points."""
    on_len, off_len = min(on_len, n_time), min(off_len, n_time)
    n_epochs = -(-(n_time - warmup) // max(on_len + off_len, 1)) or 1
    on, off = np.ones(on_len, dtype=np.int8), np.zeros(off_len, dtype=np.int8)
    epoch = np.concatenate([on, off] if on_first else [off, on])
    return np.concatenate([np.zeros(warmup, dtype=np.int8), np.tile(epoch, n_epochs)])[:n_time]


def block_lengths(rng, low, n_time):
    """A block length: a huge one, one past the run, or one inside it."""
    kind = rng.integers(4)
    if kind == 0:
        return int(rng.integers(10**12, 10**12 + 10))
    if kind == 1:
        return int(rng.integers(n_time, 3 * n_time + 1))
    return int(rng.integers(low, n_time + 1))


class TestBoxcar:
    def test_five_epoch_block_design(self):
        s = boxcar_stimulus(200, 20, 20)
        assert s.size == 200
        assert np.all(s[:20] == 1) and np.all(s[20:40] == 0)
        assert np.array_equal(s, np.tile(s[:40], 5))

    def test_degenerate_single_point_epoch(self):
        assert boxcar_stimulus(1, 1, 0).tolist() == [1]

    def test_off_first(self):
        # a design that opens with its off block is one whose warmup is that block
        assert boxcar_stimulus(6, 2, 1, warmup=1).tolist() == [0, 1, 1, 0, 1, 1]

    def test_invalid_specs(self):
        for args, message in (((0,), "design length must be positive"),
                              ((40, 0, 20), "on-block must span at least one time point"),
                              ((40, 20, -1), "off-block length cannot be negative"),
                              ((40, 20, 20, 40), r"warmup must lie in \[0, n_time\)"),
                              ((40, 20, 20, -1), r"warmup must lie in \[0, n_time\)")):
            with pytest.raises(InvalidSpecError, match=message):
                boxcar_stimulus(*args)

    def test_sum_equals_total_on_time(self):
        for n_time, on_len, off_len, n_epochs in ((200, 20, 20, 5), (27, 7, 2, 3), (4, 4, 0, 1)):
            assert boxcar_stimulus(n_time, on_len, off_len).sum() == n_epochs * on_len

    def test_matches_the_tile_form_and_the_off_first_form(self):
        # seeded cases, a quarter of their blocks 10^12 points long; a
        # 10^12-point block once asked for a 10^12-element array
        rng = np.random.default_rng(20261020)
        shifted = 0
        for _ in range(3000):
            n_time = int(rng.integers(1, 80))
            on_len, off_len = block_lengths(rng, 1, n_time), block_lengths(rng, 0, n_time)
            warmup = int(rng.integers(n_time))
            stimulus = boxcar_stimulus(n_time, on_len, off_len, warmup)
            assert stimulus.dtype == np.int8
            assert np.array_equal(stimulus, tile_stimulus(n_time, on_len, off_len, True, warmup))
            off_first = tile_stimulus(n_time, on_len, off_len, False, warmup)
            shift = warmup + min(off_len, n_time)
            if shift < n_time:
                shifted += 1
                assert np.array_equal(off_first,
                                      boxcar_stimulus(n_time, on_len, off_len, shift))
            else:  # the off block fills the run: no regressor either way
                assert not off_first.any()
                with pytest.raises(InvalidSpecError, match="warmup must lie"):
                    boxcar_stimulus(n_time, on_len, off_len, shift)
        assert shifted > 500  # the off-first branch is exercised


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
        stim = boxcar_stimulus(200)
        x = expected_bold(stim)
        h = double_gamma_hrf(np.arange(stim.size))
        oracle = naive_causal_convolution(stim, h)
        assert np.allclose(x, oracle / oracle.max(), atol=1e-10)
        # one broad peak per epoch: count upward crossings of 0.5
        above = x > 0.5
        rises = np.sum(~above[:-1] & above[1:])
        assert rises == 5

    def test_invariant_to_hrf_scaling(self):
        stim = boxcar_stimulus(60, 10, 10)
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
    # design_for_length returns the regressor: expected_bold of the stimulus
    def test_design_for_length_truncates_partial_epochs(self):
        x = design_for_length(500)
        assert x.shape == (500,) and x.dtype == float
        full = np.tile(np.repeat([1, 0], 20), 13)[:500]
        assert np.array_equal(x, expected_bold(full))
        # causal convolution commutes with truncation (up to the rescale)
        trimmed = design_for_length(520)[:500]
        assert np.allclose(x, trimmed / trimmed.max(), atol=1e-12)

    def test_design_for_length_warmup(self):
        stimulus = boxcar_stimulus(490, on_len=15, off_len=15, warmup=10)
        assert np.all(stimulus[:10] == 0) and stimulus[10] == 1
        x = design_for_length(490, on_len=15, off_len=15, warmup=10)
        assert np.array_equal(x, expected_bold(stimulus))

    @pytest.mark.parametrize("on_len, off_len, on_first, on_points", [
        (10**12, 5, True, range(2, 40)),
        (3, 10**12, True, range(2, 5)),
        (10**12, 5, False, range(7, 40)),
        (10**30, 10**30, True, range(2, 40)),
    ])
    def test_blocks_longer_than_the_run_are_cut(self, on_len, off_len, on_first, on_points):
        # a 10^12-point block once asked for a 10^12-element array, and one of
        # 10^30 points would overflow int64; an off-first design is written as
        # a warmup that spans its off block
        warmup = 2 if on_first else 2 + min(off_len, 40)
        stimulus = np.zeros(40, dtype=np.int8)
        stimulus[list(on_points)] = 1
        assert np.array_equal(boxcar_stimulus(40, on_len, off_len, warmup), stimulus)
        assert np.array_equal(design_for_length(40, on_len, off_len, warmup),
                              expected_bold(stimulus))
