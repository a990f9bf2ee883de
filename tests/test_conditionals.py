"""Every full conditional against an independent oracle.

The fixed reference instance is a path-graph parcel of 4 voxels (1x4 grid,
q=2) with T=4 time points. Oracles come from dense linear algebra on the
stacked real representation and from scipy reference distributions; the
inclusion probability is checked against 2-D numerical quadrature of the slab
marginal likelihood. The conditionals under test are
the public ``draw_*`` functions, fed with statistics from ``reference``.
"""

import math
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import dblquad
from scipy.special import expit, gammaincinv, ndtr

from cvfmri import sampler
from cvfmri.design import design_for_length
from cvfmri.errors import DegeneratePosteriorError, InsufficientDataError
from cvfmri.parcellation import build_adjacency, build_spatial_basis
from cvfmri.sampler import (
    SamplerConfig,
    derive_seed,
    draw_eta,
    draw_eta_shared,
    draw_kappa,
    draw_tau2,
    half_normal_magnitudes,
    inclusion_log_odds,
    inclusion_probability,
    log_null_slab_ratio,
    prior_logit_spatial,
    run_parcel_chain,
    splitmix64,
)
from reference import (
    backward_transform,
    beta_draws,
    gamma_probability,
    kappa_draw,
    probit_log_odds,
    real_design_matrix,
    reference_nu2,
    rho_draws,
    sigma2_draws,
    stack_real,
    tau2_draws,
)

N_DRAWS = 100_000
KS_TOL = 0.02

T4_X = np.array([0.1, 0.9, 0.4, -0.6])
T4_Y = np.array([0.8 + 0.3j, -0.2 + 1.1j, 0.5 - 0.7j, 1.0 + 0.2j])
T4_RHO = 0.15 + 0.25j


@pytest.fixture(scope="module")
def path4_nu2():
    a = build_adjacency(np.arange(4), (1, 4))
    return reference_nu2(a, 2)


def ks(sample_a, sample_b):
    return stats.ks_2samp(sample_a, sample_b).statistic


class TestSeeding:
    def test_splitmix64_avalanche(self):
        # reference values of the standard SplitMix64 finalizer
        assert splitmix64(0) == 0xE220A8397B1DCDAF
        assert splitmix64(1) == 0x910A2DEC89025CC1

    def test_derive_seed_deterministic_and_distinct(self):
        seeds = {derive_seed(123, g) for g in range(100)}
        assert len(seeds) == 100
        assert derive_seed(123, 5) == derive_seed(123, 5)


class TestBackwardTransform:
    def test_zero_rho_drops_first(self):
        ystar, xstar = backward_transform(T4_Y, T4_X, 0.0)
        assert np.allclose(ystar, T4_Y[1:])
        assert np.allclose(xstar, T4_X[1:])
        xr = real_design_matrix(xstar)
        assert np.allclose(xr[:3, 1], 0.0)  # -Im column vanishes for real x*
        assert np.allclose(xr[3:, 0], 0.0)

    def test_unit_rho_first_differences(self):
        ystar, _ = backward_transform(T4_X.astype(complex), T4_X, 1.0)
        assert np.allclose(ystar, np.diff(T4_X))

    def test_gram_matrix_is_scalar_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            xr = real_design_matrix(z)
            gram = xr.T @ xr
            norm2 = np.sum(np.abs(z) ** 2)
            assert abs(gram[0, 0] - norm2) < 1e-12 * norm2
            assert abs(gram[1, 1] - norm2) < 1e-12 * norm2
            assert abs(gram[0, 1]) < 1e-12 * norm2
            assert abs(gram[1, 0]) < 1e-12 * norm2

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            backward_transform(T4_Y[:2], T4_X[:2], 0.0)


def slab_marginal_quadrature(ystar, xstar, sigma2, tau2):
    """2-D adaptive quadrature of int p(y*|b) p(b|tau2) db over the complex b."""
    xr = real_design_matrix(xstar)
    yr = stack_real(ystar)
    n = yr.size

    def integrand(b_im, b_re):
        b = np.array([b_re, b_im])
        resid = yr - xr @ b
        log_lik = -0.5 * n * math.log(2 * math.pi * sigma2) - resid @ resid / (2 * sigma2)
        log_pri = -math.log(2 * math.pi * tau2) - b @ b / (2 * tau2)
        return math.exp(log_lik + log_pri)

    lim = 12.0 * math.sqrt(tau2)
    val, _ = dblquad(integrand, -lim, lim, -lim, lim, epsabs=1e-13, epsrel=1e-11)
    return val


class TestGamma:
    def test_ratio_matches_quadrature(self):
        sigma2, tau2 = 1.0, 1.0
        ystar, xstar = backward_transform(T4_Y, T4_X, T4_RHO)
        slab = slab_marginal_quadrature(ystar, xstar, sigma2, tau2)
        yr = stack_real(ystar)
        null = math.exp(-0.5 * yr.size * math.log(2 * math.pi * sigma2) - yr @ yr / (2 * sigma2))
        xnorm2 = np.sum(np.abs(xstar) ** 2)
        c = np.sum(np.conj(xstar) * ystar)
        log_ratio = log_null_slab_ratio(xnorm2, abs(c) ** 2, sigma2, tau2)
        assert math.exp(log_ratio) == pytest.approx(null / slab, rel=1e-6)

    def test_probability_matches_quadrature(self):
        sigma2, tau2, psi, eta = 1.0, 1.0, -0.5, 0.3
        ystar, xstar = backward_transform(T4_Y, T4_X, T4_RHO)
        slab = slab_marginal_quadrature(ystar, xstar, sigma2, tau2)
        yr = stack_real(ystar)
        null = math.exp(-0.5 * yr.size * math.log(2 * math.pi * sigma2) - yr @ yr / (2 * sigma2))
        prior = ndtr(psi + eta)
        expect = prior / (prior + (null / slab) * (1 - prior))
        got = gamma_probability(ystar, xstar, sigma2, tau2, eta, psi)
        assert got == pytest.approx(expect, rel=1e-4)

    def test_prior_underflow_forces_exclusion(self):
        ystar, xstar = backward_transform(T4_Y, T4_X, T4_RHO)
        p = gamma_probability(ystar, xstar, 1.0, 1.0, eta=0.0, psi=-38.0)
        assert p == 0.0

    def test_prior_log_odds_match_oracle(self):
        z = np.linspace(-37.0, 37.0, 20001)
        np.testing.assert_allclose(prior_logit_spatial(0.0, z), probit_log_odds(z), rtol=1e-12)

    def test_far_tails_give_certain_inclusion(self):
        # a tail of Phi underflows there: the log odds are +-inf, not a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            logit = prior_logit_spatial(0.0, np.array([40.0, -40.0]))
            p = inclusion_probability(np.ones(2), np.ones(2, dtype=complex), np.ones(2),
                                      np.ones(2), logit)
        assert p.tolist() == [1.0, 0.0]

    def test_unit_ratio_balanced_prior(self):
        # ||x*||^2 = 1 and |X*'y*|^2 = 4 log 2 make the ratio exactly one
        xstar = np.array([1.0, 0.0, 0.0], dtype=complex)
        ystar = np.array([2.0 * math.sqrt(math.log(2.0)), 0.0, 0.0], dtype=complex)
        p = gamma_probability(ystar, xstar, 1.0, 1.0, eta=0.0, psi=0.0)
        assert p == pytest.approx(0.5, abs=1e-12)

    def test_log_space_agrees_with_naive(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            ystar = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            xstar = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            sigma2 = float(rng.uniform(0.2, 3.0))
            tau2 = float(rng.uniform(0.2, 3.0))
            psi, eta = rng.uniform(-2, 2, size=2)
            xnorm2 = np.sum(np.abs(xstar) ** 2)
            c = np.sum(np.conj(xstar) * ystar)
            ratio = math.exp(log_null_slab_ratio(xnorm2, abs(c) ** 2, sigma2, tau2))
            prior = ndtr(psi + eta)
            naive = prior / (prior + ratio * (1 - prior))
            got = gamma_probability(ystar, xstar, sigma2, tau2, eta, psi)
            assert got == pytest.approx(naive, abs=1e-10)

    def test_log_odds_match_the_three_log_form(self):
        # tau2 from 1e-12 to 1e12, sigma2 down to the engine's 1e-30 floor, |c|^2 up to 1e300
        tau2, sigma2, c2, xnorm2, z = (a.ravel() for a in np.meshgrid(
            np.logspace(-12, 12, 13), np.logspace(-30, 4, 18), np.logspace(-6, 300, 18),
            np.logspace(-3, 6, 4), np.linspace(-8.0, 8.0, 5), indexing="ij"))
        denom = xnorm2 + sigma2 / tau2
        c = np.sqrt(c2) * np.exp(0.7j)
        with np.errstate(over="ignore"):  # both forms' quadratic term overflows alike
            terms = [np.log(tau2), -np.log(sigma2), np.log(denom), -c2 / (2.0 * sigma2 * denom)]
            old = probit_log_odds(z) - sum(terms)
            new = inclusion_log_odds(xnorm2, c, sigma2, tau2, prior_logit_spatial(0.0, z))
        finite = np.isfinite(old)
        assert finite.any() and not finite.all()
        assert np.all(np.isfinite(new[finite]))
        assert np.array_equal(new[~finite], old[~finite])
        # rtol 1e-12 of the old form's terms, whose own rounding is relative to
        # them: the first three cancel where the slab is narrow
        scale = np.maximum(np.abs(old), np.abs(probit_log_odds(z)) + sum(map(np.abs, terms)))
        assert np.all(np.abs(new[finite] - old[finite]) <= 1e-12 * scale[finite])

    def test_probability_is_the_expit_of_the_log_odds(self):
        rng = np.random.default_rng(13)
        args = (rng.uniform(0.1, 50.0, 1000), rng.standard_normal(1000) * (1 + 1j),
                rng.uniform(0.1, 2.0, 1000), rng.uniform(0.1, 2.0, 1000),
                rng.standard_normal(1000))
        assert np.array_equal(inclusion_probability(*args), expit(inclusion_log_odds(*args)))

    def test_gamma_rule_in_log_odds_is_the_probability_rule(self):
        # gamma = logit(u) < log odds, the engine's rule, against u < expit(log odds)
        rng = np.random.default_rng(14)
        u = rng.random(1_000_000)
        log_odds = rng.logistic(0.0, 4.0, u.size)
        logit_u = np.log(u) - np.log1p(-u)
        assert np.array_equal(logit_u < log_odds, u < expit(log_odds))

    def test_draws_match_quadrature_probability(self):
        sigma2, tau2, psi, eta = 1.0, 1.0, -0.2, 0.1
        ystar, xstar = backward_transform(T4_Y, T4_X, T4_RHO)
        slab = slab_marginal_quadrature(ystar, xstar, sigma2, tau2)
        yr = stack_real(ystar)
        null = math.exp(-0.5 * yr.size * math.log(2 * math.pi * sigma2) - yr @ yr / (2 * sigma2))
        prior = ndtr(psi + eta)
        p_true = prior / (prior + (null / slab) * (1 - prior))
        rng = np.random.default_rng(101)
        draws = rng.random(N_DRAWS) < gamma_probability(ystar, xstar, 1.0, tau2, eta, psi)
        oracle = stats.bernoulli(p_true).rvs(N_DRAWS, random_state=202)
        assert ks(draws.astype(float), oracle.astype(float)) < KS_TOL


class TestBeta:
    def test_excluded_is_zero(self):
        rng = np.random.default_rng(0)
        ystar, xstar = backward_transform(T4_Y, T4_X, T4_RHO)
        assert beta_draws(ystar, xstar, 1.0, 1.0, False, 1, rng).tolist() == [0j]

    def test_flat_slab_recovers_least_squares(self):
        rng = np.random.default_rng(0)
        ystar, xstar = backward_transform(T4_Y, T4_X, T4_RHO)
        draws = beta_draws(ystar, xstar, 1e-12, 1e30, True, 200_000, rng)
        xr = real_design_matrix(xstar)
        yr = stack_real(ystar)
        ols = np.linalg.solve(xr.T @ xr, xr.T @ yr)
        assert np.mean(draws.real) == pytest.approx(ols[0], abs=1e-5)
        assert np.mean(draws.imag) == pytest.approx(ols[1], abs=1e-5)

    def test_draws_match_dense_normal_oracle(self):
        sigma2, tau2 = 0.8, 1.7
        ystar, xstar = backward_transform(T4_Y, T4_X, T4_RHO)
        xr = real_design_matrix(xstar)
        yr = stack_real(ystar)
        prec = xr.T @ xr + (sigma2 / tau2) * np.eye(2)
        mu = np.linalg.solve(prec, xr.T @ yr)
        cov = sigma2 * np.linalg.inv(prec)
        rng = np.random.default_rng(5)
        draws = beta_draws(ystar, xstar, sigma2, tau2, True, N_DRAWS, rng)
        oracle = stats.multivariate_normal(mu, cov).rvs(N_DRAWS, random_state=6)
        assert ks(draws.real, oracle[:, 0]) < KS_TOL
        assert ks(draws.imag, oracle[:, 1]) < KS_TOL
        # moment check: empirical covariance within 5%
        emp = np.cov(np.stack([draws.real, draws.imag]))
        assert np.allclose(emp, cov, rtol=0.05, atol=5e-4)


class TestRho:
    def test_exact_linear_system(self):
        rho0 = 0.2 + 0.9j
        y = np.empty(6, dtype=complex)
        y[0] = 1.3 - 0.4j
        for t in range(1, 6):
            y[t] = rho0 * y[t - 1]
        rng = np.random.default_rng(3)
        (rho,), (degenerate,) = rho_draws(y, np.zeros(6), 0j, 1e-30, 1, rng)
        assert not degenerate
        assert rho.real == pytest.approx(0.2, abs=1e-10)
        assert rho.imag == pytest.approx(0.9, abs=1e-10)

    def test_zero_residuals_flagged(self):
        x = T4_X
        beta = 0.7 - 0.2j
        y = beta * x
        rng = np.random.default_rng(3)
        (rho,), (degenerate,) = rho_draws(y, x, beta, 1.0, 1, rng)
        assert degenerate and rho == 0j

    def test_gram_off_diagonals_vanish(self):
        rng = np.random.default_rng(9)
        w = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        xr = real_design_matrix(w)
        gram = xr.T @ xr
        assert abs(gram[0, 1]) < 1e-12 * gram[0, 0]

    def test_draws_match_dense_normal_oracle(self):
        sigma2 = 0.6
        beta = 0.4 + 0.1j
        w = T4_Y - beta * T4_X
        w_now, w_lag = w[1:], w[:-1]
        wr = real_design_matrix(w_lag)
        wn = stack_real(w_now)
        mu = np.linalg.solve(wr.T @ wr, wr.T @ wn)
        cov = sigma2 * np.linalg.inv(wr.T @ wr)
        rng = np.random.default_rng(15)
        draws, flags = rho_draws(T4_Y, T4_X, beta, sigma2, N_DRAWS, rng)
        assert not flags.any()
        oracle = stats.multivariate_normal(mu, cov).rvs(N_DRAWS, random_state=16)
        assert ks(draws.real, oracle[:, 0]) < KS_TOL
        assert ks(draws.imag, oracle[:, 1]) < KS_TOL


class TestSigma2:
    def test_fixed_shape_and_scale(self):
        # residual (1,1,1,1) stacked: complex (1+1j, 1+1j), shape T-1 = 2, scale 2
        w_now = np.array([1 + 1j, 1 + 1j])
        w_lag = np.zeros(2, dtype=complex)
        rng = np.random.default_rng(21)
        draws = sigma2_draws(w_now, w_lag, 0j, N_DRAWS, rng)
        oracle = stats.invgamma(a=2, scale=2.0).rvs(N_DRAWS, random_state=22)
        assert ks(draws, oracle) < KS_TOL

    def test_reference_instance_oracle(self):
        rho = 0.1 - 0.3j
        w = T4_Y - (0.5 + 0.2j) * T4_X
        w_now, w_lag = w[1:], w[:-1]
        resid = w_now - rho * w_lag
        ss = float(np.sum(np.abs(resid) ** 2))
        rng = np.random.default_rng(23)
        draws = sigma2_draws(w_now, w_lag, rho, N_DRAWS, rng)
        oracle = stats.invgamma(a=3, scale=ss / 2).rvs(N_DRAWS, random_state=24)
        assert ks(draws, oracle) < KS_TOL

    def test_moment_example(self):
        # IG(shape 5, scale 3): mean 3/4
        w_now = np.zeros(5, dtype=complex)
        w_now[:4] = 1.0
        w_now[4] = math.sqrt(2.0)  # ss = 6, scale 3
        w_lag = np.zeros(5, dtype=complex)
        rng = np.random.default_rng(25)
        draws = sigma2_draws(w_now, w_lag, 0j, N_DRAWS, rng)
        se = math.sqrt(stats.invgamma(a=5, scale=3).var() / N_DRAWS)
        assert abs(draws.mean() - 0.75) < 3 * se

    def test_zero_rss_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DegeneratePosteriorError):
            sigma2_draws(np.zeros(3, dtype=complex), np.zeros(3, dtype=complex), 0j, 1, rng)


class TestTau2:
    def test_keeps_previous_when_empty(self):
        rng = np.random.default_rng(1)
        draws = tau2_draws(np.zeros(4, dtype=bool), np.zeros(4, dtype=complex), 1.23, 3, rng)
        assert draws.tolist() == [1.23] * 3

    def test_two_active_voxels(self):
        gamma = np.array([True, True, False])
        beta = np.array([1 + 1j, 1 + 1j, 0j])
        draws = tau2_draws(gamma, beta, 1.0, N_DRAWS, np.random.default_rng(31))
        oracle = stats.invgamma(a=2, scale=2.0).rvs(N_DRAWS, random_state=32)
        assert ks(draws, oracle) < KS_TOL

    def test_single_voxel(self):
        gamma = np.array([True])
        beta = np.array([3 + 4j])
        draws = tau2_draws(gamma, beta, 1.0, N_DRAWS, np.random.default_rng(33))
        oracle = stats.invgamma(a=1, scale=12.5).rvs(N_DRAWS, random_state=34)
        assert ks(draws, oracle) < KS_TOL

    @pytest.mark.parametrize("k", [3, 250])
    def test_many_active_voxels(self, k):
        beta = np.random.default_rng(35).standard_normal(k) * (0.3 + 0.1j)
        ssb = float(np.sum(np.abs(beta) ** 2))
        draws = tau2_draws(np.ones(k, dtype=bool), beta, 1.0, N_DRAWS, np.random.default_rng(36))
        oracle = stats.invgamma(a=k, scale=ssb / 2).rvs(N_DRAWS, random_state=37)
        assert ks(draws, oracle) < KS_TOL

    def test_active_voxels_with_zero_coefficients_rejected(self):
        with pytest.raises(DegeneratePosteriorError, match="slab variance"):
            draw_tau2(np.array([0, 2]), np.array([0.0, 0.0]), np.ones(2), np.full(2, 0.5))


def eta_draws(gamma, nu2, kappa, u):
    """draw_eta fed as the engine feeds it: the half-normal magnitudes of
    uniforms ``u`` times sqrt(nu2), and kappa^-1/2."""
    return draw_eta(gamma, half_normal_magnitudes(u) * np.sqrt(nu2), kappa ** -0.5)


class TestEta:
    def test_signs_respect_indicator(self):
        rng = np.random.default_rng(41)
        up = eta_draws(np.ones(1000, dtype=bool), np.full(1000, 1.3), 2.0, rng.random(1000))
        down = eta_draws(np.zeros(1000, dtype=bool), np.full(1000, 1.3), 2.0, rng.random(1000))
        assert np.all(up > 0) and np.all(down < 0)

    def test_isolated_voxel_unit_variance(self):
        # nu2 = 1: the latent is a half-normal with sd 1/sqrt(kappa)
        kappa = 2.5
        rng = np.random.default_rng(42)
        draws = eta_draws(True, np.ones(N_DRAWS), kappa, rng.random(N_DRAWS))
        oracle = stats.halfnorm(scale=1 / math.sqrt(kappa)).rvs(N_DRAWS, random_state=43)
        assert ks(draws, oracle) < KS_TOL

    def test_halfnormal_moment(self):
        # gamma=1, nu2=2, kappa=4: mean sqrt(2/4) * sqrt(2/pi)
        rng = np.random.default_rng(44)
        draws = eta_draws(True, np.full(N_DRAWS, 2.0), 4.0, rng.random(N_DRAWS))
        sd = math.sqrt(0.5)
        expect = sd * math.sqrt(2 / math.pi)
        se = sd * math.sqrt((1 - 2 / math.pi) / N_DRAWS)
        assert abs(draws.mean() - expect) < 3 * se

    def test_negative_side_distribution(self):
        rng = np.random.default_rng(45)
        draws = eta_draws(False, np.full(N_DRAWS, 1.5), 3.0, rng.random(N_DRAWS))
        oracle = -stats.halfnorm(scale=math.sqrt(1.5 / 3.0)).rvs(N_DRAWS, random_state=46)
        assert ks(draws, oracle) < KS_TOL

    @pytest.mark.parametrize("seed", [47, 48, 49])
    def test_block_forms_match_the_latent_forms(self, seed):
        # a seeded box parcel's nu2, kappa over nine decades: eta from the
        # block's h sqrt(nu2) against h sqrt(nu2/kappa), and kappa's statistic
        # sum h^2 / kappa against sum eta^2 / nu2
        rng = np.random.default_rng(seed)
        shape = tuple(int(n) for n in rng.integers(1, 40, 2))
        nu2 = build_spatial_basis(build_adjacency(np.arange(math.prod(shape)), shape), shape)
        gamma = rng.random(nu2.size) < 0.5
        for kappa in 10.0 ** rng.uniform(-3.0, 6.0, 20):
            h = half_normal_magnitudes(rng.random(nu2.size))
            eta = draw_eta(gamma, h * np.sqrt(nu2), kappa ** -0.5)
            mag = h * np.sqrt(nu2 / kappa)
            np.testing.assert_allclose(eta, np.where(gamma, mag, -mag), rtol=1e-15, atol=0)
            np.testing.assert_allclose(np.sum(h * h) / kappa, np.sum(eta * eta / nu2),
                                       rtol=1e-13, atol=0)


class TestKappa:
    def test_flat_field_prior_scale(self):
        rng = np.random.default_rng(61)
        draws = np.array([
            kappa_draw(np.zeros(1), np.ones(1), rng) for _ in range(N_DRAWS // 5)
        ])
        oracle = stats.gamma(a=1.0, scale=2000.0).rvs(N_DRAWS // 5, random_state=62)
        assert ks(draws, oracle) < 1.6 * KS_TOL
        assert draws.mean() == pytest.approx(2000.0, rel=0.05)

    def test_three_voxel_example(self):
        eta = np.array([1.0, 1.0, 1.0])
        nu2 = np.ones(3)
        rng = np.random.default_rng(63)
        draws = np.array([
            kappa_draw(eta, nu2, rng) for _ in range(N_DRAWS // 5)
        ])
        oracle = stats.gamma(a=2.0, scale=1.0 / 1.5005).rvs(N_DRAWS // 5, random_state=64)
        assert ks(draws, oracle) < 1.6 * KS_TOL

    def test_shape_depends_only_on_size(self, path4_nu2):
        rng = np.random.default_rng(65)
        big = np.array([
            kappa_draw(np.full(4, 100.0), path4_nu2, rng)
            for _ in range(2000)
        ])
        # huge eta shrinks the scale but the shape stays (V+1)/2 = 2.5;
        # check the coefficient of variation, which depends on shape alone
        cv = big.std() / big.mean()
        assert cv == pytest.approx(1 / math.sqrt(2.5), rel=0.08)


class TestEtaNonspatial:
    def test_all_active(self):
        draws = draw_eta_shared(10, 10, np.random.default_rng(71).random(N_DRAWS))
        oracle = stats.beta(11, 1).rvs(N_DRAWS, random_state=72)
        assert ks(draws, oracle) < KS_TOL

    def test_none_active(self):
        draws = draw_eta_shared(0, 10, np.random.default_rng(73).random(N_DRAWS))
        oracle = stats.beta(1, 11).rvs(N_DRAWS, random_state=74)
        assert ks(draws, oracle) < KS_TOL

    def test_half_active_symmetric(self):
        gamma = np.array([True] * 5 + [False] * 5)
        draws = draw_eta_shared(int(gamma.sum()), gamma.size,
                                np.random.default_rng(75).random(N_DRAWS))
        oracle = stats.beta(6, 6).rvs(N_DRAWS, random_state=76)
        assert ks(draws, oracle) < KS_TOL
        assert draws.mean() == pytest.approx(0.5, abs=0.01)


class TestInverseTransforms:
    """The parcel-level draws from their standard variates: finite at the
    ends of the uniforms' range, and elementwise in their bits."""

    U_ENDS = np.array([0.0, 1.0 - 2.0**-53])

    @pytest.mark.parametrize("k", [1, 3, 250, 2500])
    def test_extreme_uniforms_stay_finite(self, k):
        tau2 = draw_tau2(np.full(2, k), np.full(2, 0.05 * k), np.ones(2), self.U_ENDS)
        assert np.all(np.isfinite(tau2)) and np.all(tau2 > 0)
        rate = draw_eta_shared(k, 2 * k, self.U_ENDS)
        assert np.all((rate >= 0) & (rate <= 1))

    def test_half_normal_magnitudes_at_the_ends(self):
        # u = 0 is clamped to 1e-300 (about 37 sd); the largest uniform gives ~1e-16
        h = half_normal_magnitudes(self.U_ENDS)
        assert np.all(np.isfinite(h))
        assert h[0] == pytest.approx(37.05, abs=0.01)
        assert h[1] >= 0.0

    @pytest.mark.parametrize("n_vox", [1, 51, 2500])
    def test_extreme_kappa_stays_finite(self, n_vox):
        shape = n_vox / 2 + 0.5
        # the smallest and largest standard gammas, the quantiles at 2^-53 and 1 - 2^-53
        g_ends = gammaincinv(shape, np.array([2.0**-53, 1.0 - 2.0**-53]))
        for u in self.U_ENDS:
            for gamma in (True, False):
                eta = eta_draws(gamma, np.ones(n_vox), 1e-3, np.full(n_vox, u))
                kappa = draw_kappa(np.sum(eta * eta), g_ends)
                assert np.all(np.isfinite(kappa)) and np.all(kappa > 0)

    def test_engine_logits_at_the_ends(self, monkeypatch):
        # the smallest and largest uniform as voxels 0 and 1's gamma uniforms:
        # logits -inf (so gamma = 1 at every sweep) and finite, with no warning
        draw, logits = sampler._block_draws, []

        def ends(rng, stages, *shapes):
            draw(rng, stages, *shapes)
            stages[0][:, :2, 0] = self.U_ENDS
            logits.append(stages[0])  # the engine turns it into logits in place

        monkeypatch.setattr(sampler, "_block_draws", ends)
        x = design_for_length(12, on_len=3, off_len=3)
        y = np.exp(1j * np.arange(36.0)).reshape(3, 12) + x
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary = run_parcel_chain(y, [np.ones(3)], x, SamplerConfig(n_iter=20, n_burn=0),
                                       {0: range(3)}, trace_voxels=[0])
        assert len(logits) == 1
        assert np.all(logits[0][:, 0, 0] == -np.inf)
        assert np.all(np.isfinite(logits[0][:, 1, 0]))
        assert np.all(summary.trace[0][:, 0] == 1)

    def test_bits_do_not_depend_on_the_array(self):
        rng = np.random.default_rng(81)
        n_vox = rng.integers(1, 300, 64)
        k = rng.integers(0, n_vox + 1)
        ssb = rng.random(64) * k
        prev = rng.random(64)
        u = rng.random(64)
        tau2 = draw_tau2(k, ssb, prev, u)
        rate = draw_eta_shared(k, n_vox, u)
        for i in range(64):
            alone = draw_tau2(k[i:i + 1], ssb[i:i + 1], prev[i:i + 1], u[i:i + 1])
            assert alone.tobytes() == tau2[i:i + 1].tobytes()
            alone = draw_eta_shared(k[i:i + 1], n_vox[i:i + 1], u[i:i + 1])
            assert alone.tobytes() == rate[i:i + 1].tobytes()
