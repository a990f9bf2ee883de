"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run). Criteria:

1. AR(1) study, 20 replicates: mean accuracy >= 0.95, F1 >= 0.85,
   AUC >= 0.96, X-Y MSE <= 3.0e-5, <= 120 s per dataset.
2. iid study, 20 replicates: mean accuracy >= 0.94, F1 >= 0.78, AUC >= 0.94.
3. Long series (T=1000, 5 replicates, low prior offset): mean accuracy
   >= 0.999 and mean recall >= 0.99.
4. Parcellation edge effects: G=1 vs G=9 activation maps disagree on <= 2%
   of voxels for a strong-signal AR(1) dataset.
5. Realistic seven-slice volume: slice 4 precision >= 0.95 and recall
   >= 0.5; slices 1 and 7 produce <= 5 false positives each.
6. Conditional-sampler oracles: KS distance < 0.02 at 1e5 draws for all
   seven conditionals; inclusion probability matches 2-D quadrature to 1e-4.
7. Noiseless recovery: magnitude map within 1e-4 of truth, phase within
   1e-4 of pi/4 on active voxels.
8. Structural invariants: scalar-identity Gram matrices (1e-12, 1000 random
   instances), exact zero Laplacian row sums, nu2 >= 1, and gamma=0 => beta=0
   and sigma2 > 0 for every voxel after every sweep of a 100-sweep traced run.
9. Determinism: byte-identical data outputs for worker counts 1, 2, 8.
"""

import math

import numpy as np
from scipy import stats
from scipy.special import ndtr, ndtri

from cvfmri.design import design_for_length
from cvfmri.metrics import classification_metrics
from cvfmri.parcellation import build_adjacency, build_spatial_basis, partition_grid
from cvfmri.pipeline import (
    REALISTIC_G,
    REALISTIC_PSI,
    FitConfig,
    fit_dataset,
    reproduce,
    simulate_study_dataset,
    write_fit_outputs,
)
from cvfmri.sampler import (
    SamplerConfig,
    derive_seed,
    draw_eta,
    half_normal_magnitudes,
    run_parcel_chain,
)
from cvfmri.simulate import (
    NoiseSpec,
    SignalSpec,
    generate_true_maps,
    realistic_design,
    simulate_ar1,
    simulate_iid,
    simulate_realistic,
)
from reference import (
    backward_transform,
    beta_draws,
    gamma_probability,
    graph_laplacian,
    kappa_draw,
    real_design_matrix,
    reference_nu2,
    rho_draws,
    sigma2_draws,
    stack_real,
    tau2_draws,
)

MASTER_SEED = 20260401
N_KS = 100_000
KS_TOL = 0.02


def criterion(number, name, ok, detail):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}")
    return ok


def study_means(rows):
    cols = {}
    for j, key in enumerate(
        ("accuracy", "precision", "recall", "f1", "auc", "slope", "ccc", "xy_mse", "time"),
        start=1,
    ):
        vals = [float(r[j]) for r in rows if r[j] != "NA"]
        cols[key] = sum(vals) / len(vals)
    cols["max_time"] = max(float(r[9]) for r in rows)
    return cols


class TestStudyCriteria:
    def test_criterion_1_ar1_study(self, tmp_path):
        rows = reproduce("ar1", 20, MASTER_SEED, tmp_path, workers=1)
        m = study_means(rows)
        ok = (
            m["accuracy"] >= 0.95
            and m["f1"] >= 0.85
            and m["auc"] >= 0.96
            and m["xy_mse"] <= 3.0e-5
            and m["max_time"] <= 120.0
        )
        assert criterion(
            1,
            "AR(1) study",
            ok,
            f"acc={m['accuracy']:.4f} (>=0.95) f1={m['f1']:.4f} (>=0.85) "
            f"auc={m['auc']:.4f} (>=0.96) mse={m['xy_mse']:.3e} (<=3.0e-5) "
            f"max_fit_time={m['max_time']:.1f}s (<=120)",
        )

    def test_criterion_2_iid_study(self, tmp_path):
        rows = reproduce("iid", 20, MASTER_SEED + 1, tmp_path, workers=1)
        m = study_means(rows)
        ok = m["accuracy"] >= 0.94 and m["f1"] >= 0.78 and m["auc"] >= 0.94
        assert criterion(
            2,
            "iid study",
            ok,
            f"acc={m['accuracy']:.4f} (>=0.94) f1={m['f1']:.4f} (>=0.78) "
            f"auc={m['auc']:.4f} (>=0.94)",
        )

    def test_criterion_3_long_series(self):
        accs, recalls = [], []
        for rep in range(5):
            rep_seed = derive_seed(MASTER_SEED + 2, rep)
            dataset, maps, design = simulate_study_dataset("ar1", rep_seed, n_time=1000)
            cfg = FitConfig(
                n_parcels=9,
                workers=1,
                sampler=SamplerConfig(psi=ndtri(0.02), seed=derive_seed(rep_seed, 3)),
            )
            result = fit_dataset(dataset, design, cfg)
            cls = classification_metrics(maps.active, result.maps.activation)
            accs.append(cls.accuracy)
            recalls.append(cls.recall)
        mean_acc = float(np.mean(accs))
        mean_rec = float(np.mean(recalls))
        ok = mean_acc >= 0.999 and mean_rec >= 0.99
        assert criterion(
            3,
            "long series T=1000",
            ok,
            f"mean_acc={mean_acc:.5f} (>=0.999) mean_recall={mean_rec:.5f} (>=0.99)",
        )

    def test_criterion_4_parcellation_edge_effects(self):
        # strong signal: multiplier 3x the study default (CNR 3)
        seed = derive_seed(MASTER_SEED + 3, 0)
        design = design_for_length(200)
        maps = generate_true_maps((50, 50), regions=None, multiplier=3 * 0.04909,
                                  seed=derive_seed(seed, 0))
        dataset = simulate_ar1(
            maps, design, SignalSpec(beta0=0.4909),
            NoiseSpec("ar1", sigma=0.04909), derive_seed(seed, 1),
        )
        activations = {}
        for g in (1, 9):
            cfg = FitConfig(n_parcels=g, workers=1,
                            sampler=SamplerConfig(seed=derive_seed(seed, 3)))
            activations[g] = fit_dataset(dataset, design, cfg).maps.activation
        disagree = float(np.mean(activations[1] != activations[9]))
        ok = disagree <= 0.02
        assert criterion(
            4,
            "edge effects G=1 vs G=9",
            ok,
            f"disagreement={disagree:.4f} (<=0.02)",
        )

    def test_criterion_5_realistic(self):
        seed = MASTER_SEED + 4
        dataset, maps = simulate_realistic(derive_seed(seed, 2))
        design = realistic_design(dataset.n_time)
        reports = {}
        for s in (0, 3, 6):  # slices 1, 4, 7
            cfg = FitConfig(
                n_parcels=REALISTIC_G,
                workers=1,
                sampler=SamplerConfig(psi=REALISTIC_PSI, seed=derive_seed(seed, 100 + s)),
            )
            result = fit_dataset(dataset.slice_dataset(s), design, cfg)
            reports[s] = classification_metrics(
                maps.slice_maps(s).active, result.maps.activation
            )
        mid = reports[3]
        ok = (
            mid.precision is not None
            and mid.precision >= 0.95
            and mid.recall >= 0.5
            and reports[0].fp <= 5
            and reports[6].fp <= 5
        )
        assert criterion(
            5,
            "realistic volume",
            ok,
            f"slice4 precision={mid.precision} (>=0.95) recall={mid.recall} (>=0.5); "
            f"slice1 FP={reports[0].fp} slice7 FP={reports[6].fp} (<=5 each)",
        )


class TestSamplerOracles:
    def test_criterion_6_conditional_oracles(self):
        x4 = np.array([0.1, 0.9, 0.4, -0.6])
        y4 = np.array([0.8 + 0.3j, -0.2 + 1.1j, 0.5 - 0.7j, 1.0 + 0.2j])
        rho0 = 0.15 + 0.25j
        nu2 = reference_nu2(build_adjacency(np.arange(4), (1, 4)), 2)
        ystar, xstar = backward_transform(y4, x4, rho0)
        ks = lambda a, b: stats.ks_2samp(a, b).statistic
        dists = {}

        # gamma: quadrature-based probability (coarse Gauss-Legendre-free
        # reference via dblquad) and Bernoulli draws
        from scipy.integrate import dblquad

        sigma2, tau2, psi, eta0 = 1.0, 1.0, -0.2, 0.1
        xr = real_design_matrix(xstar)
        yr = stack_real(ystar)

        def integrand(b_im, b_re):
            b = np.array([b_re, b_im])
            resid = yr - xr @ b
            return math.exp(
                -0.5 * yr.size * math.log(2 * math.pi * sigma2)
                - resid @ resid / (2 * sigma2)
                - math.log(2 * math.pi * tau2)
                - b @ b / (2 * tau2)
            )

        slab, _ = dblquad(integrand, -12, 12, -12, 12, epsabs=1e-13, epsrel=1e-11)
        null = math.exp(-0.5 * yr.size * math.log(2 * math.pi * sigma2) - yr @ yr / (2 * sigma2))
        prior = ndtr(psi + eta0)
        p_quad = prior / (prior + (null / slab) * (1 - prior))
        p_impl = gamma_probability(ystar, xstar, sigma2, tau2, eta0, psi)
        quad_ok = abs(p_impl - p_quad) / p_quad < 1e-4

        rng = np.random.default_rng(1)
        draws = (rng.random(N_KS) < p_impl).astype(float)
        dists["gamma"] = ks(draws, stats.bernoulli(p_quad).rvs(N_KS, random_state=2).astype(float))

        # beta
        prec = xr.T @ xr + (sigma2 / tau2) * np.eye(2)
        mu = np.linalg.solve(prec, xr.T @ yr)
        cov = sigma2 * np.linalg.inv(prec)
        b_draws = beta_draws(ystar, xstar, sigma2, tau2, True, N_KS, np.random.default_rng(3))
        oracle = stats.multivariate_normal(mu, cov).rvs(N_KS, random_state=4)
        dists["beta"] = max(ks(b_draws.real, oracle[:, 0]), ks(b_draws.imag, oracle[:, 1]))

        # rho
        beta0 = 0.4 + 0.1j
        w = y4 - beta0 * x4
        wr = real_design_matrix(w[:-1])
        wn = stack_real(w[1:])
        mu_r = np.linalg.solve(wr.T @ wr, wr.T @ wn)
        cov_r = 0.6 * np.linalg.inv(wr.T @ wr)
        r_draws, _ = rho_draws(y4, x4, beta0, 0.6, N_KS, np.random.default_rng(5))
        oracle = stats.multivariate_normal(mu_r, cov_r).rvs(N_KS, random_state=6)
        dists["rho"] = max(ks(r_draws.real, oracle[:, 0]), ks(r_draws.imag, oracle[:, 1]))

        # sigma2
        resid_ss = float(np.sum(np.abs(w[1:] - rho0 * w[:-1]) ** 2))
        s2_draws = sigma2_draws(w[1:], w[:-1], rho0, N_KS, np.random.default_rng(7))
        dists["sigma2"] = ks(
            s2_draws, stats.invgamma(a=3, scale=resid_ss / 2).rvs(N_KS, random_state=8)
        )

        # tau2
        gamma_fix = np.array([True, True, False, True])
        beta_fix = np.array([0.5 + 0.1j, -0.3 + 0.4j, 0j, 0.2 - 0.6j])
        ssb = float(np.sum(np.abs(beta_fix) ** 2))
        tau_draws = tau2_draws(gamma_fix, beta_fix, 1.0, N_KS, np.random.default_rng(9))
        dists["tau2"] = ks(
            tau_draws, stats.invgamma(a=3, scale=ssb / 2).rvs(N_KS, random_state=10)
        )

        # eta (positive side, nu2 from the spatial basis)
        kappa0 = 3.0
        nu2_v = float(nu2[1])
        h = half_normal_magnitudes(np.random.default_rng(11).random(N_KS))
        eta_draws = draw_eta(True, h * math.sqrt(nu2_v), kappa0 ** -0.5)
        dists["eta"] = ks(
            eta_draws,
            stats.halfnorm(scale=math.sqrt(nu2_v / kappa0)).rvs(N_KS, random_state=12),
        )

        # kappa
        eta_field = np.array([0.4, -0.2, 0.9, 0.1])
        rate = 0.5 * float(np.sum(eta_field**2 / nu2)) + 1 / 2000.0
        rng = np.random.default_rng(15)
        kappa_draws = np.array([
            kappa_draw(eta_field, nu2, rng) for _ in range(N_KS)
        ])
        dists["kappa"] = ks(
            kappa_draws, stats.gamma(a=2.5, scale=1 / rate).rvs(N_KS, random_state=16)
        )

        worst = max(dists.values())
        ok = quad_ok and worst < KS_TOL
        detail = " ".join(f"{k}={v:.4f}" for k, v in dists.items())
        assert criterion(
            6,
            "conditional oracles",
            ok,
            f"quadrature rel err={abs(p_impl - p_quad) / p_quad:.2e} (<1e-4); "
            f"KS {detail} (<{KS_TOL})",
        )


class TestRecoveryCriteria:
    def test_criterion_7_noiseless_recovery(self):
        seed = MASTER_SEED + 5
        design = design_for_length(200)
        maps = generate_true_maps((50, 50), regions=None, seed=derive_seed(seed, 0))
        dataset = simulate_iid(
            maps, design, SignalSpec(beta0=0.4909, theta0=math.pi / 4),
            NoiseSpec("iid", sigma=1e-8), derive_seed(seed, 1),
        )
        cfg = FitConfig(n_parcels=9, workers=1,
                        sampler=SamplerConfig(seed=derive_seed(seed, 3)))
        result = fit_dataset(dataset, design, cfg)
        mag_err = float(np.max(np.abs(result.maps.magnitude - maps.magnitude)))
        active = maps.active == 1
        phase_err = float(np.max(np.abs(result.maps.phase[active] - math.pi / 4)))
        ok = mag_err < 1e-4 and phase_err < 1e-4
        assert criterion(
            7,
            "noiseless recovery",
            ok,
            f"max |magnitude error|={mag_err:.2e} (<1e-4); "
            f"max |phase error|={phase_err:.2e} (<1e-4)",
        )

    def test_criterion_8_structural_invariants(self):
        rng = np.random.default_rng(99)
        worst_x = worst_w = 0.0
        for _ in range(1000):
            n = int(rng.integers(3, 40))
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            xr = real_design_matrix(z)
            gram = xr.T @ xr
            norm2 = float(np.sum(np.abs(z) ** 2))
            dev = np.max(np.abs(gram - norm2 * np.eye(2))) / norm2
            worst_x = max(worst_x, dev)
            w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            wr = real_design_matrix(w)
            gram_w = wr.T @ wr
            norm2_w = float(np.sum(np.abs(w) ** 2))
            worst_w = max(worst_w, np.max(np.abs(gram_w - norm2_w * np.eye(2))) / norm2_w)

        lap_ok = True
        nu2_min = np.inf
        for dims, g in (((50, 50), 9), ((20, 20), 4)):
            part = partition_grid(dims, g)
            for vox, shape in zip(part.parcel_voxel_lists, part.parcel_shapes):
                a = build_adjacency(vox, dims)
                q = graph_laplacian(a)
                lap_ok &= bool(np.all(q.sum(axis=1) == 0.0))
                nu2_min = min(nu2_min, float(build_spatial_basis(a, shape).min()))

        # 100-sweep traced run: gamma=0 => beta=(0,0) and sigma2 > 0 after every sweep
        rng2 = np.random.default_rng(1)
        x = design_for_length(100)
        y = 0.5 + 0.05 * (rng2.standard_normal((100, 100)) + 1j * rng2.standard_normal((100, 100)))
        part = partition_grid((10, 10), 1)
        nu2 = build_spatial_basis(build_adjacency(part.parcel_voxel_lists[0], (10, 10)), (10, 10))
        summary = run_parcel_chain(y, [nu2], x, SamplerConfig(n_iter=100, n_burn=50, seed=4),
                                   {0: part.parcel_voxel_lists[0]}, trace_voxels=range(100))
        draws = np.stack([summary.trace[v] for v in range(100)], axis=1)  # (sweep, voxel, field)
        trace_ok = bool(np.all(draws[draws[..., 0] == 0][:, 1:3] == 0)
                        and np.all(draws[..., 5] > 0))

        ok = worst_x < 1e-12 and worst_w < 1e-12 and lap_ok and nu2_min >= 1.0 and trace_ok
        assert criterion(
            8,
            "structural invariants",
            ok,
            f"gram dev x={worst_x:.2e} w={worst_w:.2e} (<1e-12); "
            f"laplacian rows exactly 0: {lap_ok}; min nu2={nu2_min:.6f} (>=1); "
            f"100-sweep traced invariants: {trace_ok}",
        )

    def test_criterion_9_worker_determinism(self, tmp_path):
        seed = MASTER_SEED + 6
        dataset, maps, design = simulate_study_dataset("ar1", seed)
        digests = {}
        files = ("activation.csv", "magnitude.csv", "phase.csv", "incl_prob.csv",
                 "mcse.csv", "activation.pgm", "magnitude.pgm")
        for workers in (1, 2, 8):
            cfg = FitConfig(
                n_parcels=9, workers=workers,
                sampler=SamplerConfig(n_iter=400, n_burn=200, seed=derive_seed(seed, 3)),
            )
            out = tmp_path / f"w{workers}"
            write_fit_outputs(fit_dataset(dataset, design, cfg), out)
            digests[workers] = {f: (out / f).read_bytes() for f in files}
        ok = digests[1] == digests[2] == digests[8]
        assert criterion(
            9,
            "worker determinism",
            ok,
            f"data outputs byte-identical across workers 1/2/8: {ok}",
        )

    def test_worker_determinism_at_g49(self, tmp_path):
        # 49 parcels cut into 1, 2, 3 and 8 contiguous batches of unequal
        # parcel counts: the data outputs must not change
        seed = MASTER_SEED + 7
        dataset, _, design = simulate_study_dataset("ar1", seed)
        files = ("activation.csv", "magnitude.csv", "phase.csv", "incl_prob.csv",
                 "mcse.csv", "activation.pgm", "magnitude.pgm")
        digests = {}
        for workers in (1, 2, 3, 8):
            cfg = FitConfig(
                n_parcels=49, workers=workers,
                sampler=SamplerConfig(n_iter=200, n_burn=100, seed=derive_seed(seed, 3)),
            )
            out = tmp_path / f"w{workers}"
            write_fit_outputs(fit_dataset(dataset, design, cfg), out)
            digests[workers] = {f: (out / f).read_bytes() for f in files}
        assert digests[1] == digests[2] == digests[3] == digests[8]
