"""Chain behavior: equivalence with the op-level reference, determinism,
detection power, MCSE, and result stitching."""

import errno
import math
import multiprocessing
import os
import re
import signal
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy.special import ndtri

from cvfmri import sampler
from cvfmri.design import design_for_length
from cvfmri.errors import (
    CvfmriError,
    DataFormatError,
    DegenerateDesignError,
    DegeneratePosteriorError,
    InsufficientDataError,
    InvalidSpecError,
)
from cvfmri.parcellation import build_adjacency, build_spatial_basis, partition_grid
from cvfmri.sampler import (
    A_KAPPA,
    B_KAPPA,
    BLOCK_SWEEPS,
    NONSPATIAL,
    ChainSummary,
    SamplerConfig,
    derive_seed,
    draw_beta,
    draw_eta,
    draw_eta_shared,
    draw_kappa,
    draw_rho,
    draw_sigma2,
    draw_tau2,
    inclusion_log_odds,
    prior_logit_spatial,
    run_parcel_chain,
    stitch_voxel_field,
    summarize,
)
from reference import dense_adjacency, design_stats, lag_stats, mcse, reference_nu2, residual_ss


def block_draws(rng, it, cfg, n_vox, n_time, nu2):
    """The block of draws that sweep ``it`` opens, written from the documented
    stream layout: uniforms for gamma, as their logits log u - log1p(-u),
    normal pairs for beta and rho, standard gammas for sigma2, one uniform per
    sweep for tau2, then (spatial) uniforms for eta, as their standard
    half-normal magnitudes h = -ndtri(u/2) times sqrt(nu2), and standard
    gammas for kappa, with the sum of h^2 of each sweep, or (nonspatial) one
    uniform per sweep for the shared rate."""
    k = min(BLOCK_SWEEPS, cfg.n_iter - it)
    u = rng.random((k, n_vox))
    with np.errstate(divide="ignore"):
        block = {"gamma": np.log(u) - np.log1p(-u)}
    block.update({
        "beta": rng.standard_normal((k, n_vox, 2)),
        "rho": rng.standard_normal((k, n_vox, 2)),
        "sigma2": rng.standard_gamma(n_time - 1, (k, n_vox)),
        "tau2": rng.random(k),
    })
    if cfg.mode != NONSPATIAL:
        h = -ndtri(np.maximum(rng.random((k, n_vox)) * 0.5, 1e-300))
        block["eta"] = h * np.sqrt(nu2)
        block["sum_h2"] = np.sum(h * h, axis=1)
        block["kappa"] = rng.standard_gamma(n_vox / 2 + A_KAPPA, k)
    else:
        block["rate"] = rng.random(k)
    return block


def reference_chain(y, nu2, x, cfg, seed):
    """Op-level reference of one parcel: the public conditionals, fed with
    per-series statistics from ``reference`` and the parcel's pregenerated
    blocks, in either mode (nonspatial inclusion from the naive formula).

    Consumes the parcel's RNG stream exactly like run_parcel_chain, so the two
    must agree draw for draw (up to roundoff in the sufficient-statistics
    algebra). Returns the per-sweep history, the (n_kept, V) kept gamma draws
    and the posterior mean of beta.
    """
    rng = np.random.default_rng(seed)
    n_vox, n_time = y.shape
    spatial = cfg.mode != NONSPATIAL
    yc = y - y.mean(axis=1, keepdims=True)
    xc = x - x.mean()
    sigma2 = np.maximum(0.25 * np.mean(yc.real**2 + yc.imag**2, axis=1), 1e-30)
    rho = np.zeros(n_vox, dtype=complex)
    tau2, eta, kappa, eta_shared = 1.0, np.zeros(n_vox), A_KAPPA * B_KAPPA, 0.5

    history = []
    kept_gamma = []
    beta_sum = np.zeros(n_vox, dtype=complex)
    for it in range(cfg.n_iter):
        j = it % BLOCK_SWEEPS
        if j == 0:
            block = block_draws(rng, it, cfg, n_vox, n_time, nu2)
        xnorm2, c = design_stats(yc, xc, rho)
        if spatial:
            log_odds = inclusion_log_odds(xnorm2, c, sigma2, tau2,
                                          prior_logit_spatial(cfg.psi, eta))
        else:
            # the naive three-log formula, an oracle for the shared-rate log odds
            denom = xnorm2 + sigma2 / tau2
            log_odds = (np.log(eta_shared / (1 - eta_shared)) - np.log((tau2 / sigma2) * denom)
                        + np.abs(c) ** 2 / (2 * sigma2 * denom))
        gamma = block["gamma"][j] < log_odds
        beta = draw_beta(xnorm2, c, sigma2, np.full(n_vox, tau2), gamma,
                         block["beta"][j].view(complex)[:, 0])
        wl2, cw = lag_stats(yc, xc, beta)
        rho, _ = draw_rho(cw, wl2, sigma2, block["rho"][j].view(complex)[:, 0])
        w = yc - beta[:, None] * xc
        sigma2 = draw_sigma2(residual_ss(w[:, 1:], w[:, :-1], rho), block["sigma2"][j])
        tau2 = draw_tau2(int(gamma.sum()), float(np.sum(beta.real**2 + beta.imag**2)), tau2,
                         block["tau2"][j])
        if spatial:
            eta = draw_eta(gamma, block["eta"][j], kappa ** -0.5)
            kappa = draw_kappa(block["sum_h2"][j] / kappa, block["kappa"][j])
        else:
            eta_shared = draw_eta_shared(int(gamma.sum()), n_vox, block["rate"][j])
        history.append((gamma.copy(), beta.copy(), rho.copy(), sigma2.copy()))
        if it >= cfg.n_burn:
            kept_gamma.append(gamma.copy())
            beta_sum += beta
    kept_gamma = np.array(kept_gamma)
    return history, kept_gamma, beta_sum / len(kept_gamma)


def assert_trace_matches(trace, history, rows):
    """Engine trace rows ``rows`` against the reference history, voxel by voxel."""
    for it, (gamma, beta, rho, sigma2) in enumerate(history):
        for v, r in enumerate(rows):
            row = trace[r][it]
            assert row[0] == gamma[v]
            assert np.isclose(row[1], beta[v].real, rtol=1e-9, atol=1e-12)
            assert np.isclose(row[2], beta[v].imag, rtol=1e-9, atol=1e-12)
            assert np.isclose(row[3], rho[v].real, rtol=1e-9, atol=1e-12)
            assert np.isclose(row[4], rho[v].imag, rtol=1e-9, atol=1e-12)
            assert np.isclose(row[5], sigma2[v], rtol=1e-9)


@pytest.fixture(scope="module")
def tiny_instance():
    rng = np.random.default_rng(555)
    n_vox, n_time = 4, 12
    x = design_for_length(n_time, on_len=3, off_len=3)
    beta_true = np.array([0.0, 0.5, 0.0, 1.0])
    y = (1.0 + beta_true[:, None] * x[None, :]) * np.exp(1j * 0.6)
    y = y + 0.3 * (rng.standard_normal((n_vox, n_time)) + 1j * rng.standard_normal((n_vox, n_time)))
    nu2 = reference_nu2(dense_adjacency((1, 4)), 2)
    return y, x, nu2


def consecutive(sizes, first=0):
    """Parcels ``first``, ``first + 1``, ... of consecutive rows, ``sizes`` rows each."""
    ends = np.cumsum(sizes)
    return {g: range(end - n, end) for g, (n, end) in enumerate(zip(sizes, ends), first)}


@pytest.fixture(scope="module")
def batch_instance():
    rng = np.random.default_rng(556)
    sizes = (4, 3, 5)
    n_time = 12
    x = design_for_length(n_time, on_len=3, off_len=3)
    beta_true = rng.choice([0.0, 0.5, 1.0], size=sum(sizes))
    y = (1.0 + beta_true[:, None] * x[None, :]) * np.exp(1j * 0.6)
    y = y + 0.3 * (rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape))
    nu2s = [reference_nu2(dense_adjacency((1, n)), 2) for n in sizes]
    return y, x, nu2s, sizes


class TestChainEquivalence:
    def test_chain_matches_op_level_reference(self, tiny_instance):
        y, x, nu2 = tiny_instance
        cfg = SamplerConfig(n_iter=20, n_burn=0, seed=77777)
        summary = run_parcel_chain(y, [nu2], x, cfg, {0: range(4)}, trace_voxels=[0, 1, 2, 3])
        history, kept, beta_mean = reference_chain(y, nu2, x, cfg, derive_seed(cfg.seed, 0))
        assert_trace_matches(summary.trace, history, range(4))
        assert np.allclose(summary.incl_prob, kept.mean(axis=0), atol=1e-12)
        assert np.allclose(summary.beta_mean, beta_mean, rtol=1e-9, atol=1e-12)
        assert np.array_equal(summary.mcse, mcse(kept))

    def test_batch_matches_op_level_reference(self, batch_instance):
        # three parcels of scattered rows in one batch, over a block boundary:
        # each parcel must follow its own stream as if it ran alone, the one
        # that the seeding rule derives from the config's seed and the
        # parcel's index, and its trace is keyed by its rows of y; 32 kept
        # draws make 5 batches of 6 and a tail of 2 that the MCSE drops
        y, x, nu2s, sizes = batch_instance
        cfg = SamplerConfig(n_iter=BLOCK_SWEEPS + 8, n_burn=8, seed=404)
        rows = np.random.default_rng(7).permutation(y.shape[0])
        parcels = dict(zip([5, 6, 7], np.split(rows, np.cumsum(sizes)[:-1])))
        summary = run_parcel_chain(y, nu2s, x, cfg, parcels, trace_voxels=rows)
        lo = 0
        for nu2, (g, r) in zip(nu2s, parcels.items()):
            history, kept, beta_mean = reference_chain(y[r], nu2, x, cfg, derive_seed(cfg.seed, g))
            assert_trace_matches(summary.trace, history, r)
            assert np.allclose(summary.incl_prob[lo:lo + r.size], kept.mean(axis=0), atol=1e-12)
            assert np.allclose(summary.beta_mean[lo:lo + r.size], beta_mean,
                               rtol=1e-9, atol=1e-12)
            assert np.array_equal(summary.mcse[lo:lo + r.size], mcse(kept))
            lo += r.size


class TestChainBehavior:
    def test_deterministic(self, tiny_instance):
        y, x, nu2 = tiny_instance
        cfg = SamplerConfig(n_iter=60, n_burn=20, seed=42)
        a = run_parcel_chain(y, [nu2], x, cfg, {0: range(4)})
        b = run_parcel_chain(y, [nu2], x, cfg, {0: range(4)})
        assert np.array_equal(a.incl_prob, b.incl_prob)
        assert np.array_equal(a.beta_mean, b.beta_mean)
        assert np.array_equal(a.mcse, b.mcse)
        # the parcel's index picks its stream
        c = run_parcel_chain(y, [nu2], x, cfg, {1: range(4)})
        assert not np.array_equal(a.beta_mean, c.beta_mean)

    def test_pure_noise_parcel_stays_quiet(self):
        rng = np.random.default_rng(8)
        n_vox, n_time = 100, 200
        x = design_for_length(n_time)
        y = 0.5 + 0.2 * (rng.standard_normal((n_vox, n_time)) + 1j * rng.standard_normal((n_vox, n_time)))
        part = partition_grid((10, 10), 1)
        nu2 = build_spatial_basis(build_adjacency((10, 10)), (10, 10))
        cfg = SamplerConfig(n_iter=400, n_burn=200, seed=3)
        summary = run_parcel_chain(y, [nu2], x, cfg, {0: range(n_vox)})
        below = np.mean(summary.incl_prob < cfg.threshold)
        assert below >= 0.99

    def test_strong_signal_detected(self):
        rng = np.random.default_rng(9)
        n_time = 200
        x = design_for_length(n_time)
        sigma = 0.05
        beta_true = np.array([0.0, 5 * sigma, 0.0, 0.0])  # CNR 5
        y = (0.5 + beta_true[:, None] * x[None, :]) * np.exp(1j * np.pi / 4)
        y = y + sigma * (rng.standard_normal((4, n_time)) + 1j * rng.standard_normal((4, n_time)))
        nu2 = reference_nu2(dense_adjacency((1, 4)), 2)
        cfg = SamplerConfig(n_iter=400, n_burn=200, seed=5)
        summary = run_parcel_chain(y, [nu2], x, cfg, {0: range(4)})
        assert summary.incl_prob[1] > 0.99

    def test_inclusion_monotone_in_signal_strength(self):
        n_time = 200
        x = design_for_length(n_time)
        sigma = 0.05
        beta_true = np.array([0.5 * sigma, 2.0 * sigma, 0.0, 0.0])
        nu2 = reference_nu2(dense_adjacency((1, 4)), 2)
        weak, strong = [], []
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            y = (0.5 + beta_true[:, None] * x[None, :]) * np.exp(1j * np.pi / 4)
            y = y + sigma * (rng.standard_normal((4, n_time)) + 1j * rng.standard_normal((4, n_time)))
            cfg = SamplerConfig(n_iter=200, n_burn=100, seed=seed)
            summary = run_parcel_chain(y, [nu2], x, cfg, {0: range(4)})
            weak.append(summary.incl_prob[0])
            strong.append(summary.incl_prob[1])
        assert np.mean(strong) > np.mean(weak)

    def test_audit_invariants_hold(self, tiny_instance):
        # every traced sweep: gamma=0 => beta=0, and sigma2 > 0
        y, x, nu2 = tiny_instance
        cfg = SamplerConfig(n_iter=100, n_burn=50, seed=11)
        summary = run_parcel_chain(y, [nu2], x, cfg, {0: range(4)}, trace_voxels=range(4))
        draws = np.stack([summary.trace[v] for v in range(4)], axis=1)  # (sweep, voxel, field)
        assert np.all(draws[draws[..., 0] == 0][:, 1:3] == 0)
        assert np.all(draws[..., 5] > 0)

    def test_nonspatial_mode(self, tiny_instance):
        y, x, _ = tiny_instance
        cfg = SamplerConfig(n_iter=60, n_burn=20, mode=NONSPATIAL, seed=2)
        assert cfg.threshold == 0.5
        summary = run_parcel_chain(y, None, x, cfg, {0: range(4)})
        assert summary.incl_prob.shape == (4,)

    def test_nonspatial_matches_op_reference(self, tiny_instance):
        y, x, _ = tiny_instance
        cfg = SamplerConfig(n_iter=16, n_burn=0, mode=NONSPATIAL, seed=31)
        summary = run_parcel_chain(y, None, x, cfg, {0: range(4)}, trace_voxels=[0, 1, 2, 3])
        history, kept, _ = reference_chain(y, None, x, cfg, derive_seed(cfg.seed, 0))
        assert_trace_matches(summary.trace, history, range(4))
        assert np.array_equal(summary.mcse, mcse(kept))

    def test_summaries_hold_no_kept_draws(self):
        # the engine keeps running counts, so ten times the sweeps grow its
        # peak by the batch counts alone (a store of the kept draws of this
        # 1600-voxel batch would add 1.4 MiB)
        part = partition_grid((40, 40), 16)
        rng = np.random.default_rng(31)
        x = design_for_length(60)
        y = 1.0 + 0.05 * (rng.standard_normal((1600, 60)) + 1j * rng.standard_normal((1600, 60)))
        peaks = []
        for n_iter in (200, 2000):
            cfg = SamplerConfig(n_iter=n_iter, mode=NONSPATIAL, seed=1)
            tracemalloc.start()
            try:
                run_parcel_chain(y, None, x, cfg, dict(enumerate(part.parcel_voxel_lists)))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 0.5 * 2**20

    def test_rejects_mismatched_inputs(self, tiny_instance):
        y, x, nu2 = tiny_instance
        with pytest.raises(InvalidSpecError):
            run_parcel_chain(y[:, :6], [nu2], x, SamplerConfig(seed=1), {0: range(4)})
        # too few kept draws for the MCSE is a bad setting, caught before any chain
        with pytest.raises(InvalidSpecError, match="kept draws"):
            SamplerConfig(n_iter=20, n_burn=10, seed=0)

    @pytest.mark.parametrize("row", [-1, 12, 9])
    def test_trace_rows_outside_the_batch_rejected(self, batch_instance, monkeypatch, row):
        # a batch of the first two parcels, rows 0 to 6 of y's 12; rejected
        # before the O(V*T) statistics are built
        y, x, nu2s, sizes = batch_instance
        monkeypatch.setattr(sampler, "_ParcelStats", None)
        with pytest.raises(InvalidSpecError,
                           match=rf"^trace voxel {row} lies outside the batch's parcels$"):
            run_parcel_chain(y, nu2s[:2], x, SamplerConfig(n_iter=40, n_burn=20),
                             consecutive(sizes[:2]), trace_voxels=[0, row])


class TestBatchInvariance:
    @pytest.mark.parametrize("mode", ["spatial", NONSPATIAL])
    def test_parcel_bits_do_not_depend_on_batch(self, mode):
        # six parcels of 30, 24, 24, 25, 20 and 20 voxels; each split below
        # runs every parcel once, alone or inside a ragged batch
        dims = (11, 13)
        part = partition_grid(dims, 6)
        lists = part.parcel_voxel_lists
        rng = np.random.default_rng(17)
        n_vox, n_time = 11 * 13, 60
        x = design_for_length(n_time)
        beta_true = np.where(rng.random(n_vox) < 0.3, 0.15, 0.0)
        y = (1.0 + beta_true[:, None] * x[None, :]) * np.exp(0.4j)
        y = y + 0.05 * (rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape))
        nu2s = [reference_nu2(dense_adjacency(s), 3) for s in part.parcel_shapes]
        cfg = SamplerConfig(n_iter=2 * BLOCK_SWEEPS + 10, n_burn=30, mode=mode, seed=9)

        def per_parcel(bounds):
            out = []
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                s = run_parcel_chain(y, nu2s[lo:hi] if mode == "spatial" else None, x, cfg,
                                     dict(enumerate(lists[lo:hi], lo)))
                cuts = np.cumsum([len(v) for v in lists[lo:hi]])[:-1]
                out += [tuple(a.tobytes() for a in fields)
                        for fields in zip(*(np.split(f, cuts)
                                            for f in (s.incl_prob, s.beta_mean, s.mcse)))]
            return out

        alone = per_parcel(range(7))
        for bounds in ([0, 3, 6], [0, 1, 4, 6], [0, 2, 5, 6], [0, 6]):
            assert per_parcel(bounds) == alone, bounds

    def test_tau2_failure_names_its_parcel(self, batch_instance, monkeypatch):
        # zero coefficients on the middle parcel's rows: its active voxels
        # leave its slab variance without data, and the error names it
        y, x, nu2s, sizes = batch_instance
        draw = sampler.draw_beta

        def zero_middle_parcel(*args):
            beta = draw(*args)
            beta[4:7] = 0
            return beta

        monkeypatch.setattr(sampler, "draw_beta", zero_middle_parcel)
        cfg = SamplerConfig(n_iter=40, n_burn=20, seed=0)
        with pytest.raises(DegeneratePosteriorError, match="^parcel 8: slab variance"):
            run_parcel_chain(y, nu2s, x, cfg, consecutive(sizes, 7))

    def test_batch_rejects_mismatched_parts(self, batch_instance):
        y, x, nu2s, sizes = batch_instance
        cfg = SamplerConfig(n_iter=40, n_burn=20, seed=0)
        with pytest.raises(InvalidSpecError, match=r"^parcel row 12 lies outside \[0, 12\)$"):
            run_parcel_chain(y, nu2s, x, cfg, {0: range(4), 1: range(4, 7), 2: range(8, 13)})
        with pytest.raises(InvalidSpecError, match="each parcel a row"):
            run_parcel_chain(y, nu2s, x, cfg, {0: range(4), 1: range(4, 7), 2: []})
        with pytest.raises(InvalidSpecError, match="at least one parcel"):
            run_parcel_chain(y, [], x, cfg, {})
        with pytest.raises(InvalidSpecError):
            run_parcel_chain(y, nu2s[:2], x, cfg, consecutive(sizes))
        with pytest.raises(InvalidSpecError, match="parcel 7: basis size"):
            run_parcel_chain(y, nu2s[::-1], x, cfg, consecutive(sizes, 7))
        # rows the engine once cast or ran twice: a boolean mask, float rows, a
        # row twice in one parcel or in two, and trace rows that are not integers
        ns = SamplerConfig(n_iter=40, n_burn=20, seed=0, mode=NONSPATIAL)
        for parcels, trace, message in (
            ({0: np.arange(6) < 4}, None, "parcel 0: row True is not an integer"),
            ({0: [0.5, 1.7]}, None, "parcel 0: row 0.5 is not an integer"),
            ({3: [1, 1, 2]}, None, "parcel 3: row 1 is listed twice in the batch"),
            ({0: [0, 1, 2], 1: [3, 2]}, None, "parcel 1: row 2 is listed twice in the batch"),
            ({0: range(4)}, [2.9, True], "trace voxel 2.9 is not an integer"),
            ({0: range(4)}, [2, True], "trace voxel True is not an integer"),
        ):
            with pytest.raises(InvalidSpecError, match=f"^{re.escape(message)}$"):
                run_parcel_chain(y, None, x, ns, parcels, trace_voxels=trace)

    def test_unusable_regressor_or_series_rejected(self, batch_instance):
        # each once ran: a NaN regressor or sample to all-zero inclusion, a
        # constant regressor to no active voxel
        y, x, nu2s, sizes = batch_instance
        cfg = SamplerConfig(n_iter=40, n_burn=20, seed=0)
        gap = x.copy()
        gap[3] = np.nan
        with pytest.raises(InvalidSpecError, match="^the regressor is nan at time point 3$"):
            run_parcel_chain(y, nu2s, gap, cfg, consecutive(sizes))
        with pytest.raises(DegenerateDesignError, match="^the regressor is constant"):
            run_parcel_chain(y, nu2s, np.full_like(x, 0.5), cfg, consecutive(sizes))
        y = y.copy()
        y[5, 4] = np.nan
        with pytest.raises(DataFormatError, match="^parcel 8: non-finite series at voxel 5$"):
            run_parcel_chain(y, nu2s, x, cfg, consecutive(sizes, 7))


@pytest.fixture
def drawers(monkeypatch, tmp_path):
    """Record, for each parcel block drawn, the id of the process that drew
    it, in a file that a forked producer appends to as well; returns a
    function giving the ids recorded so far, in order."""
    path = tmp_path / "drawers"
    path.touch()
    draw = sampler._block_draws

    def recorded(*args):
        fd = os.open(path, os.O_WRONLY | os.O_APPEND)
        try:
            os.write(fd, b"%d\n" % os.getpid())
        finally:
            os.close(fd)
        return draw(*args)

    monkeypatch.setattr(sampler, "_block_draws", recorded)
    return lambda: [int(v) for v in path.read_text().split()]


@pytest.fixture
def forks(monkeypatch):
    """The ids of the children that ``os.fork`` starts from this process."""
    fork, pids = os.fork, []

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return pids


def assert_reaped(pid):
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


def open_fds():
    """The file descriptors open in this process."""
    return sorted(int(fd) for fd in os.listdir("/dev/fd"))


def one_cpu_bits(monkeypatch, *args):
    """The bytes of the summary of ``run_parcel_chain(*args)``, with every block drawn inline."""
    with monkeypatch.context() as m:
        m.setattr(sampler, "usable_cpus", lambda: 1)
        return summary_bits(run_parcel_chain(*args))


def summary_bits(summary):
    return [a.tobytes() for a in (summary.incl_prob, summary.beta_mean, summary.mcse)]


class TestBlockProducer:
    """Where a CPU is spare and the chain has a second block, the engine forks
    a producer process that draws every block, and draws none itself: the
    same bits, and no process left behind. Where no producer can be set up,
    the engine draws every block inline."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        # the producer path whatever the machine: two CPUs, this process a pool's parent
        monkeypatch.setattr(sampler, "usable_cpus", lambda: 2)

    @pytest.fixture(autouse=True)
    def no_hang(self):
        # an engine that waits on its producer for good fails the test instead of hanging it
        def timeout(*_):
            raise TimeoutError("no block producer answered in 60 s")

        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(60)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize("mode", ["spatial", NONSPATIAL])
    def test_producer_matches_inline(self, batch_instance, monkeypatch, drawers, mode):
        y, x, nu2s, sizes = batch_instance
        # three blocks, the last one short
        cfg = SamplerConfig(n_iter=2 * BLOCK_SWEEPS + 8, n_burn=8, mode=mode, seed=21)
        main = os.getpid()
        # a batch of three parcels, and the third parcel alone
        for parcels, nu2 in ((consecutive(sizes, 3), nu2s), ({5: range(7, 12)}, nu2s[2:])):
            rows = [r for v in parcels.values() for r in v]
            runs = {}
            for cpus in (1, 2):
                monkeypatch.setattr(sampler, "usable_cpus", lambda: cpus)
                start = len(drawers())
                s = run_parcel_chain(y, nu2 if mode == "spatial" else None, x, cfg, parcels,
                                     trace_voxels=rows)
                drawn = drawers()[start:]
                runs[cpus] = summary_bits(s)
                runs[cpus] += [s.trace[v].tobytes() for v in rows]
                # every parcel's three blocks: inline on one CPU; on two, all
                # of them, the first included, in one producer process
                assert len(drawn) == 3 * len(parcels)
                if cpus == 1:
                    assert set(drawn) == {main}
                else:
                    assert len(set(drawn)) == 1 and drawn[0] != main
            assert runs[2] == runs[1]

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("mode", ["spatial", NONSPATIAL])
    def test_one_sweep_last_block_matches_alone(self, batch_instance, monkeypatch, cpus, mode):
        # the last block has one sweep, so a batch parcel's columns there are
        # C-contiguous and drawn in place, not through scratch: each parcel of
        # the batch still gets the bits it gets alone, inline and with a producer
        y, x, nu2s, sizes = batch_instance
        monkeypatch.setattr(sampler, "usable_cpus", lambda: cpus)
        cfg = SamplerConfig(n_iter=2 * BLOCK_SWEEPS + 1, n_burn=8, mode=mode, seed=22)
        parcels = consecutive(sizes, 3)
        batch = run_parcel_chain(y, nu2s if mode == "spatial" else None, x, cfg, parcels,
                                 trace_voxels=range(len(y)))
        cuts = np.cumsum(sizes)[:-1]
        for p, (g, rows) in enumerate(parcels.items()):
            alone = run_parcel_chain(y, [nu2s[p]] if mode == "spatial" else None, x, cfg,
                                     {g: rows}, trace_voxels=rows)
            parts = [np.split(f, cuts)[p] for f in (batch.incl_prob, batch.beta_mean, batch.mcse)]
            assert [a.tobytes() for a in parts] == summary_bits(alone)
            assert all(batch.trace[v].tobytes() == alone.trace[v].tobytes() for v in rows)

    def test_no_producer_without_a_spare_cpu(self, batch_instance, monkeypatch, drawers, forks):
        y, x, nu2s, sizes = batch_instance
        monkeypatch.setattr(sampler, "usable_cpus", lambda: 1)
        run_parcel_chain(y, nu2s, x, SamplerConfig(n_iter=BLOCK_SWEEPS + 8, n_burn=8),
                         consecutive(sizes))
        assert forks == [] and drawers() == [os.getpid()] * 6

    def test_no_producer_for_one_block(self, batch_instance, drawers, forks):
        y, x, nu2s, sizes = batch_instance
        run_parcel_chain(y, nu2s, x, SamplerConfig(n_iter=BLOCK_SWEEPS, n_burn=16),
                         consecutive(sizes))
        assert forks == [] and drawers() == [os.getpid()] * 3

    def test_no_producer_in_a_pool_worker(self, batch_instance, drawers):
        # a fit's pool runs one worker per CPU, so its workers draw inline
        y, x, nu2s, sizes = batch_instance
        cfg = SamplerConfig(n_iter=BLOCK_SWEEPS + 8, n_burn=8)
        with ProcessPoolExecutor(max_workers=1,
                                 mp_context=multiprocessing.get_context("fork")) as pool:
            pool.submit(run_parcel_chain, y, nu2s, x, cfg, consecutive(sizes)).result()
        drawn = drawers()
        assert len(drawn) == 6 and len(set(drawn)) == 1 and drawn[0] != os.getpid()

    def test_no_producer_without_os_fork(self, batch_instance, monkeypatch, drawers):
        y, x, nu2s, sizes = batch_instance
        monkeypatch.delattr(os, "fork")
        assert not sampler._cpu_to_spare()
        run_parcel_chain(y, nu2s, x, SamplerConfig(n_iter=BLOCK_SWEEPS + 8, n_burn=8),
                         consecutive(sizes))
        assert drawers() == [os.getpid()] * 6

    def test_a_failed_fork_draws_inline(self, batch_instance, monkeypatch, drawers):
        y, x, nu2s, sizes = batch_instance
        cfg = SamplerConfig(n_iter=2 * BLOCK_SWEEPS + 8, n_burn=8, seed=4)
        ahead = run_parcel_chain(y, nu2s, x, cfg, consecutive(sizes))

        def no_fork():
            raise BlockingIOError("fork: resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        fds = open_fds()
        s = run_parcel_chain(y, nu2s, x, cfg, consecutive(sizes))
        assert open_fds() == fds
        assert drawers()[9:] == [os.getpid()] * 9
        assert s.incl_prob.tobytes() == ahead.incl_prob.tobytes()
        assert s.beta_mean.tobytes() == ahead.beta_mean.tobytes()

    @pytest.mark.parametrize("failure", ["first pipe", "second pipe", "mmap"])
    def test_a_failed_setup_draws_inline(self, batch_instance, monkeypatch, forks, failure):
        # out of file descriptors for a pipe, or of memory for the shared
        # buffers: the same bits as on one CPU, no child, no fd left open
        y, x, nu2s, sizes = batch_instance
        args = (y, nu2s, x, SamplerConfig(n_iter=2 * BLOCK_SWEEPS + 8, n_burn=8, seed=4),
                consecutive(sizes))
        inline = one_cpu_bits(monkeypatch, *args)
        pipe, pipes = os.pipe, []

        def fails(*_):
            if failure == "mmap":
                raise OSError(errno.ENOMEM, "Cannot allocate memory")
            pipes.append(None)
            if len(pipes) == (1 if failure == "first pipe" else 2):
                raise OSError(errno.EMFILE, "Too many open files")
            return pipe()

        if failure == "mmap":
            monkeypatch.setattr(sampler.mmap, "mmap", fails)
        else:
            monkeypatch.setattr(os, "pipe", fails)
        fds = open_fds()
        assert summary_bits(run_parcel_chain(*args)) == inline
        assert open_fds() == fds and forks == []

    def test_a_sigint_to_the_producer_is_ignored(self, batch_instance, monkeypatch, forks,
                                                 capfd):
        # a Ctrl-C reaches the producer too; it is the engine's to act on
        y, x, nu2s, sizes = batch_instance
        args = (y, nu2s, x, SamplerConfig(n_iter=3 * BLOCK_SWEEPS, n_burn=8, seed=5),
                consecutive(sizes))
        inline = one_cpu_bits(monkeypatch, *args)
        draw, main = sampler._block_draws, os.getpid()

        def interrupted(*args):
            if os.getpid() != main:
                os.kill(os.getpid(), signal.SIGINT)
            return draw(*args)

        monkeypatch.setattr(sampler, "_block_draws", interrupted)
        capfd.readouterr()
        assert summary_bits(run_parcel_chain(*args)) == inline
        assert len(forks) == 1
        assert_reaped(forks[0])
        assert capfd.readouterr().err == ""

    def test_no_producer_outlives_the_call(self, batch_instance, forks):
        y, x, nu2s, sizes = batch_instance
        run_parcel_chain(y, nu2s, x, SamplerConfig(n_iter=3 * BLOCK_SWEEPS, n_burn=8),
                         consecutive(sizes))
        assert len(forks) == 1
        assert_reaped(forks[0])

    def test_no_producer_outlives_a_failed_sweep(self, batch_instance, forks):
        # a constant series fails the first sweep while the producer draws
        # the second block: the engine stops it, reaps it and raises the usual error
        y, x, nu2s, sizes = batch_instance
        y = y.copy()
        y[5] = 1.0 + 0.5j
        with pytest.raises(DegeneratePosteriorError,
                           match="^parcel 8: zero residual sum of squares at voxel 5$"):
            run_parcel_chain(y, nu2s, x, SamplerConfig(n_iter=3 * BLOCK_SWEEPS, n_burn=8),
                             consecutive(sizes, 7))
        assert len(forks) == 1
        assert_reaped(forks[0])

    @pytest.mark.parametrize("death", ["raises", "killed"])
    def test_a_dead_producer_is_an_error(self, batch_instance, monkeypatch, forks, capfd,
                                         death):
        y, x, nu2s, sizes = batch_instance
        draw, main = sampler._block_draws, os.getpid()

        def dies_in_the_producer(*args):
            if os.getpid() != main:
                if death == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise RuntimeError("no more draws")
            return draw(*args)

        monkeypatch.setattr(sampler, "_block_draws", dies_in_the_producer)
        code = 1 if death == "raises" else -signal.SIGKILL
        with pytest.raises(CvfmriError, match=rf"^the block producer process \d+ exited with "
                           rf"code {code} before the block of sweep 0$"):
            run_parcel_chain(y, nu2s, x, SamplerConfig(n_iter=3 * BLOCK_SWEEPS, n_burn=8),
                             consecutive(sizes))
        assert len(forks) == 1
        assert_reaped(forks[0])
        if death == "raises":
            assert "RuntimeError: no more draws" in capfd.readouterr().err


def full_residual_norms(stats, beta):
    """The residual norms with the beta terms evaluated on every voxel."""
    b2 = beta.real**2 + beta.imag**2
    cw = stats.syy - beta * np.conj(stats.a3) - np.conj(beta) * stats.a2 + b2 * stats.sxx_nl
    wl2 = np.maximum(stats.syl2 - 2.0 * (np.conj(beta) * stats.a4).real + b2 * stats.sxx_ll, 0.0)
    wn2 = np.maximum(stats.syn2 - 2.0 * (np.conj(beta) * stats.a1).real + b2 * stats.sxx_nn, 0.0)
    return cw, wl2, wn2


class TestResidualNorms:
    @pytest.mark.parametrize("share", [0.0, 0.4, 1.0])
    def test_active_set_form_is_the_full_form(self, share):
        rng = np.random.default_rng(31)
        n_vox, n_time = 257, 40
        y = rng.standard_normal((n_vox, n_time)) + 1j * rng.standard_normal((n_vox, n_time))
        x = rng.standard_normal(n_time)
        stats = sampler._ParcelStats(x - x.mean(), n_vox)
        stats.fill(0, y - y.mean(axis=1, keepdims=True))
        active = rng.random(n_vox) < share
        beta = np.where(active, rng.standard_normal(n_vox) + 1j * rng.standard_normal(n_vox), 0)
        for got, full in zip(stats.residual_norms(beta, active), full_residual_norms(stats, beta)):
            assert got.dtype == full.dtype and got.tobytes() == full.tobytes()


class TestMcse:
    def test_constant_draws(self):
        assert mcse(np.ones(100)) == 0.0

    def test_iid_bernoulli_scale(self):
        rng = np.random.default_rng(1)
        draws = (rng.random(10_000) < 0.5).astype(float)
        est = mcse(draws)
        assert 0.005 / 1.5 < est < 0.005 * 1.5

    def test_root_n_scaling(self):
        rng = np.random.default_rng(2)
        small = np.array([mcse((rng.random(2500) < 0.5).astype(float)) for _ in range(40)])
        large = np.array([mcse((rng.random(10_000) < 0.5).astype(float)) for _ in range(40)])
        ratio = small.mean() / large.mean()
        assert abs(ratio - 2.0) < 0.6

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            mcse(np.ones(15))

    def test_columnwise(self):
        rng = np.random.default_rng(3)
        draws = (rng.random((400, 5)) < 0.3).astype(float)
        out = mcse(draws)
        assert out.shape == (5,)
        assert np.allclose(out, [mcse(draws[:, j]) for j in range(5)])


class TestSummarize:
    def test_magnitude_and_phase(self):
        incl = np.array([[1.0, 0.0], [1.0, 0.0]])
        beta = np.array([[1 + 1j, 0j], [2 + 0j, 0j]])
        maps = summarize(incl, beta, 0.8722)
        assert maps.activation.tolist() == [[1, 0], [1, 0]]
        assert maps.magnitude[0, 0] == pytest.approx(math.sqrt(2))
        assert maps.phase[0, 0] == pytest.approx(math.pi / 4)
        assert np.isnan(maps.phase[0, 1])

    def test_threshold_is_strict(self):
        maps = summarize(np.array([[0.8722, 0.87221]]), np.array([[1 + 0j, 1 + 0j]]), 0.8722)
        assert maps.activation.tolist() == [[0, 1]]

    def test_missing_parcel_rejected(self):
        # stitching scatters each parcel's voxels back, and must see them all
        part = partition_grid((2, 2), 2)
        summaries = [ChainSummary(incl_prob=np.full(v.size, 0.5), beta_mean=np.zeros(v.size),
                                  mcse=np.zeros(v.size), converged=True)
                     for v in part.parcel_voxel_lists]
        field = stitch_voxel_field(part, summaries, lambda s: s.incl_prob)
        assert field.tolist() == [[0.5, 0.5], [0.5, 0.5]]
        with pytest.raises(InvalidSpecError):
            stitch_voxel_field(part, summaries[:1], lambda s: s.incl_prob)
