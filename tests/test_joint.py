"""Joint-distribution tests of the sampler's blocks (Geweke 2004, JASA 99:799,
"Getting it right").

A successive-conditional simulator alternates a draw of the data from the
likelihood with one Gibbs sweep. If every conditional of the sweep is right,
the sweep leaves the joint distribution of data and parameters invariant, so
a chain started from a prior draw has the prior as its marginal after every
sweep. Each test runs many such chains side by side, one parcel each, and
takes each chain's state after a fixed number of sweeps: one independent
draw per chain, compared with the prior. Per-voxel arrays hold the chains'
voxels in order, V per chain, as the engine holds a batch's parcels.

The sweeps are built here from the public conditionals of ``cvfmri.sampler``,
on the sufficient statistics of a parcel of V = 3 voxels with T = 12 time
points. Per voxel, ``XNORM2`` is ||x*||^2 of the regressor quasi-differenced
at a fixed AR coefficient, and the data are c = x*^H y* = ||x*||^2 beta +
x*^H e*, with e* complex normal of per-component variance sigma^2. sigma^2,
rho and the slab variance tau^2 are held fixed there: the priors of sigma^2
(Jeffreys) and rho (flat) are improper, and so is tau^2's. The (rho, sigma^2)
block is checked instead on fixed data, against the closed form of rho's
marginal posterior (``TestNoiseBlock``).
"""

import itertools

import numpy as np
import pytest
from scipy import stats
from scipy.special import betaln, ndtr, ndtri

from cvfmri.design import design_for_length
from cvfmri.sampler import (
    draw_beta,
    draw_eta,
    draw_eta_shared,
    draw_rho,
    draw_sigma2,
    half_normal_magnitudes,
    inclusion_probability,
    prior_logit,
)

V = 3
_X = design_for_length(12, on_len=3, off_len=3)
_XC = _X - _X.mean()
#: each voxel's quasi-differenced regressor x*, at its fixed AR coefficient
XSTAR = _XC[1:] - np.array([0.3 + 0.2j, -0.4 + 0.1j, 0.0])[:, None] * _XC[:-1]
XNORM2 = np.sum(XSTAR.real**2 + XSTAR.imag**2, axis=1)
SIGMA2 = np.array([0.2, 0.5, 0.3])
TAU2 = 1.0
#: a p-value below this fails a test
ALPHA = 1e-3


def complex_normals(rng, n):
    """n standard complex normals, each part N(0, 1)."""
    z = rng.standard_normal((n, 2))
    return z[:, 0] + 1j * z[:, 1]


def draw_data(rng, beta, n_chains):
    """Each voxel's c = ||x*||^2 beta + x*^H e* given its beta."""
    xstar = np.tile(XSTAR, (n_chains, 1))
    noise = np.sqrt(np.tile(SIGMA2, n_chains))[:, None] * (
        rng.standard_normal(xstar.shape) + 1j * rng.standard_normal(xstar.shape))
    return np.tile(XNORM2, n_chains) * beta + np.sum(np.conj(xstar) * noise, axis=1)


def slab_draws(rng, gamma):
    """beta from its prior given gamma: complex normal of per-component variance tau^2, or 0."""
    return np.where(gamma, np.sqrt(TAU2) * complex_normals(rng, gamma.size), 0)


def gamma_beta_sweep(rng, c, prior_logits, n_chains):
    """gamma from its conditional with beta integrated out, then beta given gamma."""
    xnorm2, sigma2 = np.tile(XNORM2, n_chains), np.tile(SIGMA2, n_chains)
    tau2 = np.full(c.size, TAU2)
    gamma = rng.random(c.size) < inclusion_probability(xnorm2, c, sigma2, tau2, prior_logits)
    return gamma, draw_beta(xnorm2, c, sigma2, tau2, gamma, complex_normals(rng, c.size))


def nonspatial_sweep(rng, c, psi):
    """One sweep of the nonspatial block: (gamma, beta) given each chain's
    intercept psi, then psi = Phi^-1 of the shared rate given gamma."""
    n_chains = psi.size
    gamma, beta = gamma_beta_sweep(rng, c, np.repeat(prior_logit(psi, 0.0), V), n_chains)
    n_active = gamma.reshape(n_chains, V).sum(axis=1)
    return ndtri(draw_eta_shared(n_active, V, rng.random(n_chains))), gamma, beta


class TestNonspatialBlock:
    N_CHAINS = 20_000
    SWEEPS = 40

    @pytest.fixture(scope="class")
    def geweke(self):
        """Each chain's (psi, gamma, beta) after ``SWEEPS`` successive-conditional
        sweeps from a prior draw: psi ~ N(0, 1), gamma_v ~ Bernoulli(Phi(psi)),
        beta_v from the slab where gamma_v = 1."""
        rng = np.random.default_rng(20261022)
        psi = rng.standard_normal(self.N_CHAINS)
        gamma = rng.random(self.N_CHAINS * V) < np.repeat(ndtr(psi), V)
        beta = slab_draws(rng, gamma)
        for _ in range(self.SWEEPS):
            psi, gamma, beta = nonspatial_sweep(rng, draw_data(rng, beta, self.N_CHAINS), psi)
        return psi, gamma.reshape(-1, V), beta.reshape(-1, V)

    def test_intercept_keeps_its_prior(self, geweke):
        psi, _, _ = geweke
        assert stats.kstest(psi, "norm").pvalue > ALPHA

    def test_active_count_keeps_its_prior(self, geweke):
        # k = sum(gamma) is uniform on 0..V under a flat prior on the shared rate
        _, gamma, _ = geweke
        counts = np.bincount(gamma.sum(axis=1), minlength=V + 1)
        assert stats.chisquare(counts).pvalue > ALPHA

    def test_active_coefficient_keeps_its_prior(self, geweke):
        _, gamma, beta = geweke
        active = beta[gamma[:, 0], 0]
        assert active.size > 1000
        assert stats.kstest(active.real, "norm", args=(0.0, np.sqrt(TAU2))).pvalue > ALPHA

    def test_inclusion_matches_enumeration(self):
        # fixed data: the chains' inclusion frequencies against the posterior
        # of the 2^V configurations, each weighted by its Beta-Bernoulli prior
        # B(k + 1, V - k + 1) and its voxels' marginal likelihoods of c, whose
        # parts are normal of variance sigma^2 ||x*||^2, plus tau^2 ||x*||^4 in the slab
        c = draw_data(np.random.default_rng(5), np.array([0.0, 0.25, 0.6 + 0.3j]), 1)
        null_sd = np.sqrt(SIGMA2 * XNORM2)
        slab_sd = np.sqrt(SIGMA2 * XNORM2 + TAU2 * XNORM2**2)
        log_like = np.array([
            stats.norm.logpdf(c.real, scale=sd) + stats.norm.logpdf(c.imag, scale=sd)
            for sd in (null_sd, slab_sd)])
        configs = np.array(list(itertools.product([False, True], repeat=V)))
        k = configs.sum(axis=1)
        log_post = betaln(k + 1, V - k + 1) + log_like[configs.astype(int), range(V)].sum(axis=1)
        post = np.exp(log_post - log_post.max())
        exact = post @ configs / post.sum()
        assert np.all((exact > 0.05) & (exact < 0.95))

        n_chains, burn, kept = 2000, 20, 100
        rng = np.random.default_rng(6)
        data, psi = np.tile(c, n_chains), np.zeros(n_chains)
        freq = np.zeros((n_chains, V))
        for it in range(burn + kept):
            psi, gamma, _ = nonspatial_sweep(rng, data, psi)
            if it >= burn:
                freq += gamma.reshape(n_chains, V)
        freq /= kept
        mcse = freq.std(axis=0, ddof=1) / np.sqrt(n_chains)
        assert np.all(np.abs(freq.mean(axis=0) - exact) < 4 * mcse)


def rho_sigma2_sweeps(rng, w, n_chains, sweeps):
    """Each of ``n_chains`` chains' rho after ``sweeps`` Gibbs sweeps of the
    (rho, sigma^2) block on one voxel's residual series ``w``: rho from
    :func:`draw_rho`, then sigma^2 from :func:`draw_sigma2` with standard
    gammas of shape T - 1, as the engine draws them. Every chain starts at
    rho = 0 and sigma^2 = 1."""
    wl, wn = w[:-1], w[1:]
    cw = np.full(n_chains, np.vdot(wl, wn))
    wl2 = np.full(n_chains, np.vdot(wl, wl).real)
    wn2 = np.vdot(wn, wn).real
    sigma2 = np.ones(n_chains)
    for _ in range(sweeps):
        rho, _ = draw_rho(cw, wl2, sigma2, complex_normals(rng, n_chains))
        ss = wn2 - 2.0 * (np.conj(rho) * cw).real + (rho.real**2 + rho.imag**2) * wl2
        sigma2 = draw_sigma2(ss, rng.standard_gamma(w.size - 1, n_chains))
    return rho


def rho_marginal(w):
    """The marginal posterior of Re rho (and of Im rho) under the flat prior on
    rho and the Jeffreys prior on sigma^2: p(rho | w) is proportional to
    ss(rho)^-(T-1) = (R + wl2 |rho - cw/wl2|^2)^-(T-1), with R = wn2 - |cw|^2/wl2,
    a bivariate Student t of nu = 2T - 4 degrees of freedom centred at cw/wl2,
    whose components are t of scale sqrt(R / (wl2 nu))."""
    wl, wn = w[:-1], w[1:]
    cw, wl2, wn2 = np.vdot(wl, wn), np.vdot(wl, wl).real, np.vdot(wn, wn).real
    nu = 2 * w.size - 4
    scale = np.sqrt((wn2 - abs(cw) ** 2 / wl2) / (wl2 * nu))
    centre = cw / wl2
    return [stats.t(nu, loc=loc, scale=scale) for loc in (centre.real, centre.imag)]


class TestNoiseBlock:
    """The (rho, sigma^2) block against its closed-form posterior: the priors
    of rho (flat) and sigma^2 (Jeffreys) are improper, so this block is checked
    on fixed data, not by a successive-conditional simulator."""

    N_CHAINS = 20_000
    SWEEPS = 60

    @pytest.fixture(scope="class")
    def series(self):
        """A centred complex AR(1) series of length 12 with coefficient 0.5 + 0.3i."""
        rng = np.random.default_rng(20261024)
        e = complex_normals(rng, _X.size)
        y = np.empty_like(e)
        y[0] = e[0]
        for t in range(1, y.size):
            y[t] = (0.5 + 0.3j) * y[t - 1] + e[t]
        return y - y.mean()

    def check(self, w, seed):
        rho = rho_sigma2_sweeps(np.random.default_rng(seed), w, self.N_CHAINS, self.SWEEPS)
        for part, marginal in zip((rho.real, rho.imag), rho_marginal(w)):
            assert stats.kstest(part, marginal.cdf).pvalue > ALPHA

    def test_null_voxel_rho_has_its_marginal(self, series):
        # gamma = 0: the residual is the centred series itself
        self.check(series, 7)

    def test_active_voxel_rho_has_its_marginal(self, series):
        # gamma = 1 with beta (and so tau^2) held fixed: the same block on y - beta x
        self.check(series - (0.8 - 0.4j) * _XC, 8)


@pytest.mark.xfail(strict=True, reason=(
    "eta is drawn from gamma alone, as a half-normal of gamma's sign (draw_eta), not from "
    "its conditional under the probit prior, so sign(eta) always agrees with gamma"))
def test_spatial_block_keeps_its_prior():
    # the (eta, gamma, beta) block at psi = 0, kappa = 1 and nu2 = 1: under the
    # prior eta_v ~ N(0, 1) and gamma_v ~ Bernoulli(Phi(eta_v)), independent
    # over voxels, so sign(eta_v) agrees with gamma_v with probability 3/4
    n_chains, sweeps = 4000, 20
    rng = np.random.default_rng(20261023)
    eta = rng.standard_normal(n_chains * V)
    gamma = rng.random(eta.size) < ndtr(eta)
    beta = slab_draws(rng, gamma)
    for _ in range(sweeps):
        c = draw_data(rng, beta, n_chains)
        gamma, beta = gamma_beta_sweep(rng, c, prior_logit(0.0, eta), n_chains)
        eta = draw_eta(gamma, half_normal_magnitudes(rng.random(eta.size)), 1.0)
    agree = np.mean((eta > 0) == gamma)
    assert abs(agree - 0.75) < 4 * np.sqrt(0.75 * 0.25 / eta.size)
