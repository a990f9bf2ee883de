"""Ground-truth maps and the three synthetic data regimes."""

import math

import numpy as np
import pytest

from cvfmri import simulate
from cvfmri.data import TrueMaps
from cvfmri.design import DesignVector, design_for_length
from cvfmri.errors import InvalidSpecError
from cvfmri.simulate import (
    NoiseSpec,
    RegionSpec,
    SignalSpec,
    generate_true_maps,
    random_regions,
    simulate_ar1,
    simulate_iid,
    simulate_realistic,
)

MULT = 0.04909


def footprint_oracle(dims, regions, multiplier):
    """Exhaustive re-scan: every voxel's distance to every region center."""
    active = np.zeros(dims, dtype=int)
    mag = np.zeros(dims)
    for reg in regions:
        for idx in np.ndindex(*dims):
            delta = np.array(idx, dtype=float) - np.array(reg.center, dtype=float)
            d = np.sqrt(np.sum(delta**2)) if reg.shape == "sphere" else np.max(np.abs(delta))
            if d <= reg.radius:
                val = max(0.0, 1.0 - reg.decay * d)
                if val > 0:
                    active[idx] = 1
                    mag[idx] = val * multiplier
    return active, mag


class TestTrueMaps:
    def test_flat_sphere(self):
        maps = generate_true_maps((11, 11), [RegionSpec((5, 5), 2.0)], MULT)
        dist = np.array([[math.hypot(i - 5, j - 5) for j in range(11)] for i in range(11)])
        inside = dist <= 2.0
        assert np.all(maps.magnitude[inside] == MULT)
        assert np.all(maps.magnitude[~inside] == 0)
        assert maps.active.sum() == inside.sum() == 13

    def test_linear_fade(self):
        maps = generate_true_maps((11, 11), [RegionSpec((5, 5), 3.0, "sphere", 0.3)], MULT)
        assert maps.magnitude[5, 5] == pytest.approx(MULT)
        assert maps.magnitude[5, 6] == pytest.approx(MULT * 0.7)

    def test_study_config_against_exhaustive_oracle(self):
        rng = np.random.default_rng(11)
        regions = random_regions((50, 50), rng)
        maps = generate_true_maps((50, 50), regions, MULT)
        active, mag = footprint_oracle((50, 50), regions, MULT)
        assert np.array_equal(maps.active, active)
        assert np.allclose(maps.magnitude, mag, atol=1e-12)
        assert 10 <= maps.active.sum() <= 300
        assert maps.magnitude.max() == pytest.approx(MULT)

    def test_overlap_rejected(self):
        regions = [RegionSpec((10, 10), 4.0), RegionSpec((12, 12), 4.0)]
        with pytest.raises(InvalidSpecError):
            generate_true_maps((30, 30), regions, MULT)

    def test_outside_grid_rejected(self):
        with pytest.raises(InvalidSpecError):
            generate_true_maps((20, 20), [RegionSpec((1, 10), 4.0)], MULT)

    def test_monotone_fade_with_distance(self):
        maps = generate_true_maps((21, 21), [RegionSpec((10, 10), 6.0, "cube", 0.15)], MULT)
        center = np.array([10, 10])
        for idx in np.ndindex(21, 21):
            d = np.max(np.abs(np.array(idx) - center))
            closer = center + np.sign(np.array(idx) - center) * max(int(d) - 1, 0)
            assert maps.magnitude[idx] <= maps.magnitude[tuple(closer)] + 1e-15

    def test_positive_magnitude_iff_active(self):
        with pytest.raises(InvalidSpecError):
            TrueMaps((2, 2), np.ones((2, 2)), np.zeros((2, 2)))


def _small_setup(multiplier=MULT):
    maps = generate_true_maps((8, 8), [RegionSpec((3, 3), 2.0)], multiplier)
    design = design_for_length(40, on_len=5, off_len=5)
    return maps, design


class TestIid:
    def test_noiseless_formula(self):
        maps, design = _small_setup()
        sig = SignalSpec(beta0=0.4909, theta0=math.pi / 4)
        ds = simulate_iid(maps, design, sig, NoiseSpec("iid", sigma=0.0), seed=1)
        inactive = ds.data[7, 7]  # far corner, beta1 = 0
        expected = 0.4909 * math.cos(math.pi / 4)
        assert np.allclose(inactive.real, expected, atol=1e-12)
        assert np.allclose(inactive.imag, expected, atol=1e-12)

    def test_snr_and_cnr_configuration(self):
        sig = SignalSpec(beta0=0.4909)
        noise = NoiseSpec("iid", sigma=0.04909)
        maps, _ = _small_setup()
        assert sig.beta0 / noise.sigma == pytest.approx(10.0)
        assert maps.magnitude.max() / noise.sigma == pytest.approx(1.0)

    def test_deterministic(self):
        maps, design = _small_setup()
        sig = SignalSpec()
        a = simulate_iid(maps, design, sig, NoiseSpec("iid"), seed=42)
        b = simulate_iid(maps, design, sig, NoiseSpec("iid"), seed=42)
        assert np.array_equal(a.data, b.data)

    def test_noiseless_modulus_identity(self):
        # with sigma=0 and constant phase, |y| reproduces beta0 + beta1 x exactly
        maps, design = _small_setup()
        sig = SignalSpec(beta0=0.4909)
        ds = simulate_iid(maps, design, sig, NoiseSpec("iid", sigma=0.0), seed=0)
        flat = ds.voxel_view()
        expected = sig.beta0 + maps.magnitude.reshape(-1, 1) * design.bold[None, :]
        assert np.allclose(np.abs(flat), expected, atol=1e-12)


class TestAr1:
    def test_zero_coefficient_matches_iid_bitwise(self):
        maps, design = _small_setup()
        sig = SignalSpec()
        iid = simulate_iid(maps, design, sig, NoiseSpec("iid"), seed=9)
        ar0 = simulate_ar1(maps, design, sig, NoiseSpec("ar1", ar_coeff=0.0), seed=9)
        assert np.array_equal(iid.data, ar0.data)

    def test_nonstationary_rejected(self):
        with pytest.raises(InvalidSpecError):
            NoiseSpec("ar1", ar_coeff=0.6 + 0.9j)

    def _noise_path(self, n_time, seed, sigma=1.0):
        maps = generate_true_maps((1, 1), [], MULT)
        design = DesignVector(np.zeros(n_time, dtype=np.int8), np.zeros(n_time))
        sig = SignalSpec(beta0=0.0)
        ds = simulate_ar1(maps, design, sig, NoiseSpec("ar1", sigma=sigma), seed=seed)
        return ds.data[0, 0]

    def test_lag1_autocorrelation_long_path(self):
        # Monte Carlo oracle: the lag-1 complex autocorrelation of a long
        # noise path estimates the AR coefficient
        eps = self._noise_path(100_000, seed=2024)
        est = np.sum(eps[1:] * np.conj(eps[:-1])) / np.sum(np.abs(eps[:-1]) ** 2)
        assert abs(est.real - 0.2) < 0.02
        assert abs(est.imag - 0.9) < 0.02

    def test_stationary_variance(self):
        eps = self._noise_path(100_000, seed=77)
        per_component = 1.0 / (1.0 - abs(0.2 + 0.9j) ** 2)
        tail = eps[200:]
        assert np.var(tail.real) == pytest.approx(per_component, rel=0.05)
        assert np.var(tail.imag) == pytest.approx(per_component, rel=0.05)

    def test_complex_recursion_equals_real_matrix_recursion(self):
        # re-derive the innovations from the documented draw order, then run
        # the 2x2 rotation-matrix recursion on stacked (re, im) pairs
        maps, design = _small_setup()
        n_time = design.n_time
        sig = SignalSpec(beta0=0.0, theta0=0.0)
        seed = 5
        ds = simulate_ar1(maps, design, sig, NoiseSpec("ar1", sigma=1.0), seed=seed)
        z = np.random.default_rng(seed).standard_normal((64, n_time, 2))
        mean = maps.magnitude.reshape(-1, 1) * design.bold[None, :]
        eps = ds.voxel_view() - mean
        mat = np.array([[0.2, -0.9], [0.9, 0.2]])
        state = z[:, 0, :].copy()
        assert np.allclose(np.stack([eps[:, 0].real, eps[:, 0].imag], axis=1), state, atol=1e-12)
        for t in range(1, n_time):
            state = state @ mat.T + z[:, t, :]
            got = np.stack([eps[:, t].real, eps[:, t].imag], axis=1)
            assert np.allclose(got, state, atol=1e-10)


@pytest.fixture(scope="module")
def volume():
    return simulate_realistic(31, n_time=120)


class TestRealistic:
    def test_geometry_and_taper(self, volume):
        ds, maps = volume
        assert ds.dims == (7, 96, 96)
        counts = [int(maps.active[s].sum()) for s in range(7)]
        assert counts == [0, 50, 50, 50, 50, 50, 0]
        assert maps.magnitude[3].max() == pytest.approx(0.5)
        assert maps.magnitude[1].max() == pytest.approx(0.25)
        assert maps.magnitude[2].max() == pytest.approx(0.375)

    def test_cnr_configuration(self):
        # slice 4 maxima: magnitude CNR 0.5/1 and phase CNR (pi/120)/25
        assert simulate.REALISTIC_BETA1_MAX / simulate.REALISTIC_SIGMA == pytest.approx(0.5)
        assert simulate.REALISTIC_THETA1_MAX == pytest.approx(math.pi / 120)
        assert simulate.REALISTIC_BETA0 / simulate.REALISTIC_SIGMA == pytest.approx(25.0)

    def test_deterministic(self):
        a, _ = simulate_realistic(8, n_time=40)
        b, _ = simulate_realistic(8, n_time=40)
        assert np.array_equal(a.data, b.data)

    def test_amplitude_scale(self, volume):
        ds, maps = volume
        # baseline magnitude ~25 with unit noise
        corner = np.abs(ds.data[0, 0, 0])
        assert 20 < corner.mean() < 30
