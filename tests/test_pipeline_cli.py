"""End-to-end pipeline and CLI behavior on small configurations."""

import csv
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from multiprocessing.reduction import ForkingPickler
from pathlib import Path

import numpy as np
import pytest

from cvfmri import cli, dataio, pipeline, sampler
from cvfmri.data import ComplexDataset
from cvfmri.design import design_for_length
from cvfmri.errors import DegenerateDesignError, InvalidSpecError
from cvfmri.metrics import REPORT_COLUMNS, classification_metrics, magnitude_fidelity, report_row
from cvfmri.pipeline import (
    REALISTIC_COLUMNS,
    FitConfig,
    evaluate_dirs,
    fit_dataset,
    write_fit_outputs,
)
from cvfmri.sampler import SamplerConfig
from cvfmri.simulate import (
    DEFAULT_MULTIPLIER,
    NoiseSpec,
    RegionSpec,
    SignalSpec,
    generate_true_maps,
    simulate_iid,
)

#: Fit settings that are gone, with the values they had as defaults: no flag
#: or config key sets them. The spatial prior's are fixed parts of the model;
#: an off-first stimulus is a longer ``stimulus_warmup``.
REMOVED_SETTINGS = {"neighborhood": "edge+corner", "q": "5", "a_kappa": "0.5",
                    "b_kappa": "2000", "stimulus_on_first": "1"}

DATA_FILES = (
    "activation.csv",
    "magnitude.csv",
    "phase.csv",
    "incl_prob.csv",
    "mcse.csv",
    "activation.pgm",
    "magnitude.pgm",
)


def small_dataset(seed=3):
    maps = generate_true_maps((12, 12), [RegionSpec((5, 5), 2.0)], 0.15)
    design = design_for_length(80)
    ds = simulate_iid(maps, design, SignalSpec(beta0=0.5), NoiseSpec("iid", sigma=0.05), seed)
    return ds, maps, design


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestFitPipeline:
    def test_fit_and_outputs(self, tmp_path):
        ds, maps, design = small_dataset()
        cfg = FitConfig(n_parcels=4, workers=1,
                        sampler=SamplerConfig(n_iter=120, n_burn=60, seed=11))
        result = fit_dataset(ds, design, cfg)
        out = tmp_path / "fit"
        write_fit_outputs(result, out)
        for name in DATA_FILES + ("summary.csv", "manifest.txt"):
            assert (out / name).exists()
        act = dataio.read_map(out / "activation.csv")
        assert act.shape == (12, 12)
        # strong flat region of CNR 3 is found
        assert act[maps.active == 1].mean() > 0.9

    def test_worker_count_does_not_change_outputs(self, tmp_path):
        ds, _, design = small_dataset()
        outs = []
        for workers in (1, 2):
            cfg = FitConfig(n_parcels=4, workers=workers,
                            sampler=SamplerConfig(n_iter=80, n_burn=40, seed=5))
            result = fit_dataset(ds, design, cfg)
            out = tmp_path / f"w{workers}"
            write_fit_outputs(result, out)
            outs.append(out)
        for name in DATA_FILES:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_pooled_traces_match_one_worker(self, tmp_path):
        # traced voxels in both workers' parcel ranges, one of them listed twice
        ds, _, _ = small_dataset()
        part = pipeline.partition_grid(ds.dims, 4)
        assert part.assignment[0] < 2 <= part.assignment[143]
        dataio.write_dataset(tmp_path / "d.cvf", ds)
        traces = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            assert cli.main(["fit", "--data", str(tmp_path / "d.cvf"), "--out", str(out),
                             "--G", "4", "--iters", "40", "--burn", "20", "--seed", "6",
                             "--workers", workers, "--trace-voxels", "143,0,70,143"]) == 0
            traces.append({p.name: p.read_bytes() for p in out.glob("trace_voxel*.csv")})
        assert sorted(traces[0]) == ["trace_voxel0.csv", "trace_voxel143.csv",
                                     "trace_voxel70.csv"]
        assert traces[0] == traces[1]

    def test_pooled_fit_parent_holds_no_copy_of_the_series(self):
        # the workers inherit the series and read their parcels' rows from it
        maps = generate_true_maps((40, 40), [RegionSpec((20, 20), 4.0)], 0.15)
        design = design_for_length(200)
        ds = simulate_iid(maps, design, SignalSpec(beta0=0.5), NoiseSpec("iid", sigma=0.05), 8)
        cfg = FitConfig(n_parcels=4, workers=2,
                        sampler=SamplerConfig(n_iter=40, n_burn=20, seed=1))
        tracemalloc.start()
        try:
            fit_dataset(ds, design, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ds.data.nbytes / 4

    def test_pool_pickles_parcel_ranges_only(self, monkeypatch):
        # what the parent pickles to its workers: the tasks, not the fit
        dumps = ForkingPickler.dumps
        sent = []

        def counting(obj, protocol=None):
            data = dumps(obj, protocol)
            sent.append(len(data))
            return data

        monkeypatch.setattr(ForkingPickler, "dumps", counting)
        ds, _, design = small_dataset()
        cfg = FitConfig(n_parcels=4, workers=2,
                        sampler=SamplerConfig(n_iter=40, n_burn=20, seed=1))
        fit_dataset(ds, design, cfg)
        assert 0 < sum(sent) < 2048

    def test_one_worker_fit_holds_no_copy_of_the_series(self):
        # the engine reads each parcel's rows from the series, so a job holds
        # one parcel's gathered rows at a time, not a copy of its batch
        maps = generate_true_maps((40, 40), [RegionSpec((20, 20), 4.0)], 0.15)
        design = design_for_length(1000)
        ds = simulate_iid(maps, design, SignalSpec(beta0=0.5), NoiseSpec("iid", sigma=0.05), 8)
        cfg = FitConfig(n_parcels=16, workers=1,
                        sampler=SamplerConfig(n_iter=64, n_burn=32, seed=1))
        tracemalloc.start()
        try:
            fit_dataset(ds, design, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * ds.data.nbytes

    def test_volume_outputs_do_not_depend_on_workers(self, tmp_path):
        # a 3-D fit: maps, per-slice PGMs and traces of voxels in the later
        # slices (one listed twice) are the same bytes at 1 and 2 workers
        maps = generate_true_maps((3, 12, 12), [RegionSpec((1, 4, 4), 1.0, shape="cube"),
                                                RegionSpec((1, 8, 8), 1.0, shape="cube")], 0.15)
        design = design_for_length(40)
        ds = simulate_iid(maps, design, SignalSpec(beta0=0.5), NoiseSpec("iid", sigma=0.05), 4)
        outs = []
        for workers in (1, 2):
            cfg = FitConfig(n_parcels=8, workers=workers, trace_voxels=(300, 150, 300),
                            sampler=SamplerConfig(n_iter=80, n_burn=40, seed=7))
            out = tmp_path / f"w{workers}"
            write_fit_outputs(fit_dataset(ds, design, cfg), out)
            outs.append({p.name: p.read_bytes() for p in out.iterdir()
                         if p.name not in ("summary.csv", "manifest.txt")})
        assert sorted(outs[0]) == sorted(
            [f"{kind}_slice{s}.pgm" for kind in ("activation", "magnitude") for s in range(3)]
            + [f"{name}.csv" for name in ("activation", "magnitude", "phase", "incl_prob",
                                          "mcse", "trace_voxel150", "trace_voxel300")])
        assert outs[0] == outs[1]

    def test_design_length_mismatch(self):
        ds, _, _ = small_dataset()
        with pytest.raises(Exception, match="design length"):
            fit_dataset(ds, design_for_length(60), FitConfig(n_parcels=4))

    @pytest.mark.parametrize("voxel", [5.0, True])
    def test_non_integer_trace_voxels_rejected(self, voxel):
        # each once reached a parcel job, to die there with numpy's IndexError or ValueError
        ds, _, design = small_dataset()
        with pytest.raises(InvalidSpecError, match=f"^trace voxel {voxel} is not an integer$"):
            fit_dataset(ds, design, FitConfig(n_parcels=4, workers=1, trace_voxels=(0, voxel)))

    @pytest.mark.parametrize("defect", ["nan", "constant"])
    def test_unusable_regressor_rejected(self, defect):
        # each once fitted to no active voxel, the NaN one reporting convergence
        ds, _, design = small_dataset()
        design = design.copy()
        if defect == "nan":
            design[10] = np.nan
        else:
            design[:] = 1.0
        error = InvalidSpecError if defect == "nan" else DegenerateDesignError
        with pytest.raises(error, match="^the regressor is"):
            fit_dataset(ds, design, FitConfig(n_parcels=4, workers=1))

    def test_trace_header_names_every_column(self, tmp_path):
        ds, _, design = small_dataset()
        cfg = FitConfig(n_parcels=4, workers=1, trace_voxels=(7,),
                        sampler=SamplerConfig(n_iter=40, n_burn=20, seed=1))
        result = fit_dataset(ds, design, cfg)
        write_fit_outputs(result, tmp_path)
        rows = read_csv_rows(tmp_path / "trace_voxel7.csv")
        fields = sampler._TRACE_FIELDS
        assert rows[0] == ["iteration", *fields]
        assert result.traces[7].shape == (40, len(fields))
        assert {len(row) for row in rows} == {1 + len(fields)}

    def test_parcels_smaller_than_the_basis_rank_rejected(self):
        # 36 parcels of a 12x12 grid hold 4 voxels each, one fewer than q = 5
        ds, _, design = small_dataset()
        with pytest.raises(InvalidSpecError, match=r"rank 5 exceeds the smallest parcel "
                                                   r"\(4 voxels\); reduce the parcel count"):
            fit_dataset(ds, design, FitConfig(n_parcels=36))

    def test_single_parcel(self):
        ds, _, design = small_dataset()
        cfg = FitConfig(n_parcels=1, workers=1,
                        sampler=SamplerConfig(n_iter=60, n_burn=30, seed=1))
        result = fit_dataset(ds, design, cfg)
        assert result.maps.activation.shape == (12, 12)

    def test_nonspatial_baseline_mode(self):
        # shared inclusion rate, no parcellation, threshold 0.5
        ds, maps, design = small_dataset()
        cfg = FitConfig(n_parcels=1, workers=1,
                        sampler=SamplerConfig(n_iter=200, n_burn=100, seed=4,
                                              mode="nonspatial"))
        assert cfg.sampler.threshold == 0.5
        result = fit_dataset(ds, design, cfg)
        assert result.maps.activation[maps.active == 1].mean() > 0.9
        assert result.maps.activation[maps.active == 0].mean() < 0.1

    def test_default_workers_follow_cpu_affinity(self, monkeypatch):
        # a fit pinned to one CPU of an eight-CPU host starts one worker
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert FitConfig(n_parcels=9).resolved_workers() == 1
        assert FitConfig(n_parcels=9, workers=3).resolved_workers() == 3


class TestParcelRanges:
    def test_bounds_cover_every_parcel_in_nonempty_ranges(self):
        rng = np.random.default_rng(24)
        for _ in range(2000):
            n_parcels = int(rng.integers(1, 80))
            workers = int(rng.integers(1, n_parcels + 1))
            sizes = rng.integers(1, 500, size=n_parcels)
            bounds = pipeline._parcel_ranges(sizes, workers)
            assert len(bounds) == workers + 1
            assert bounds[0] == 0 and bounds[-1] == n_parcels
            assert np.all(np.diff(bounds) > 0), (sizes, workers, bounds)

    def test_ranges_hold_an_equal_share_within_one_parcel(self):
        # on the grids of the studies, tests and benchmark, at every G that
        # fits up to 64 and every worker count up to 8, no range's voxel count
        # is further from the equal share than one largest parcel
        for dims in [(50, 50), (96, 96), (28, 28), (5, 20, 20), (7, 96, 96)]:
            for n_parcels in range(1, 65):
                try:
                    sizes = pipeline.partition_grid(dims, n_parcels).parcel_sizes()
                except InvalidSpecError:  # a G no factorization fits
                    continue
                for workers in range(1, min(8, n_parcels) + 1):
                    bounds = pipeline._parcel_ranges(sizes, workers)
                    counts = np.add.reduceat(sizes, bounds[:-1])
                    share = sizes.sum() / workers
                    assert np.all(np.abs(counts - share) <= sizes.max()), (dims, n_parcels,
                                                                          workers, counts)


class TestBlasThreads:
    @staticmethod
    def fit_under_blas_threads(tmp_path, n_parcels, workers):
        """Fit a 28x28 iid dataset under one and under two BLAS threads and
        check that neither the nu2 bits nor the maps follow the count. The
        child writes a digest of each nu2 the fit builds, one line per write
        call, so that two workers' lines do not interleave."""
        maps = generate_true_maps((28, 28), [RegionSpec((13, 13), 4.0)], 0.15)
        design = design_for_length(80)
        ds = simulate_iid(maps, design, SignalSpec(beta0=0.5), NoiseSpec("iid", sigma=0.05), 7)
        dataio.write_dataset(tmp_path / "d.cvf", ds)
        code = (
            "import hashlib, os, sys\n"
            "from cvfmri import cli, pipeline\n"
            "build = pipeline.build_spatial_basis\n"
            "def digested(*args):\n"
            "    nu2 = build(*args)\n"
            "    os.write(1, f'nu2 {hashlib.sha256(nu2.tobytes()).hexdigest()}\\n'.encode())\n"
            "    return nu2\n"
            "pipeline.build_spatial_basis = digested\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        src = str(Path(cli.__file__).parents[1])
        outs, digests = [], []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            out = tmp_path / f"t{threads}"
            proc = subprocess.run(
                [sys.executable, "-c", code, "fit", "--data", str(tmp_path / "d.cvf"),
                 "--out", str(out), "--G", str(n_parcels), "--iters", "80", "--burn", "40",
                 "--seed", "3", "--workers", str(workers)],
                capture_output=True, text=True, env=env, check=True,
            )
            outs.append(out)
            digests.append(sorted(ln for ln in proc.stdout.splitlines() if ln.startswith("nu2 ")))
        assert len(digests[0]) == n_parcels and digests[0] == digests[1]
        for name in ("activation.csv", "magnitude.csv", "phase.csv", "incl_prob.csv",
                     "mcse.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_fit_maps_do_not_depend_on_blas_threads(self, tmp_path):
        # G=4 gives 14x14 parcels, the realistic slice's size, fitted by a
        # two-worker pool
        self.fit_under_blas_threads(tmp_path, n_parcels=4, workers=2)

    def test_in_process_fit_maps_do_not_depend_on_blas_threads(self, tmp_path):
        # one 784-voxel parcel fitted in the calling process, under its
        # caller's BLAS threads
        self.fit_under_blas_threads(tmp_path, n_parcels=1, workers=1)


class TestCli:
    def run(self, *argv):
        return cli.main(list(argv))

    def test_simulate_fit_evaluate_round_trip(self, tmp_path):
        sim = tmp_path / "sim"
        fit = tmp_path / "fit"
        report = tmp_path / "metrics.csv"
        assert self.run("simulate", "--study", "iid", "--seed", "7",
                        "--T", "80", "--out", str(sim)) == 0
        assert (sim / "dataset.cvf").exists() and (sim / "manifest.txt").exists()
        assert self.run(
            "fit", "--data", str(sim / "dataset.cvf"), "--out", str(fit),
            "--G", "4", "--iters", "150", "--burn", "50", "--seed", "1", "--workers", "1",
        ) == 0
        assert self.run("evaluate", "--truth", str(sim), "--result", str(fit),
                        "--out", str(report)) == 0
        rows = read_csv_rows(report)
        assert rows[0][0] == "dataset"
        assert len(rows) == 3  # header, one dataset, mean
        assert rows[2][0] == "mean"

    def test_config_file_and_override(self, tmp_path):
        sim = tmp_path / "sim"
        self.run("simulate", "--study", "iid", "--seed", "3", "--T", "80", "--out", str(sim))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# study config\n"
            f"data = {sim / 'dataset.cvf'}\n"
            "G = 4\niters = 64\nburn = 32\nseed = 9\nworkers = 1\n"
        )
        out1 = tmp_path / "o1"
        assert self.run("fit", "--config", str(cfg), "--out", str(out1)) == 0
        manifest = dataio.read_keyvalues(out1 / "manifest.txt")
        assert manifest["n_iter"] == "64" and manifest["seed"] == "9"
        out2 = tmp_path / "o2"
        assert self.run("fit", "--config", str(cfg), "--out", str(out2),
                        "--iters", "80", "--burn", "40") == 0
        manifest2 = dataio.read_keyvalues(out2 / "manifest.txt")
        assert manifest2["n_iter"] == "80"  # CLI flag wins

    def test_trace_voxels(self, tmp_path):
        sim = tmp_path / "sim"
        self.run("simulate", "--study", "iid", "--seed", "2", "--T", "80", "--out", str(sim))
        out = tmp_path / "fit"
        assert self.run(
            "fit", "--data", str(sim / "dataset.cvf"), "--out", str(out),
            "--G", "4", "--iters", "40", "--burn", "20", "--seed", "1", "--workers", "1",
            "--trace-voxels", "0,1300",
        ) == 0
        rows = read_csv_rows(out / "trace_voxel0.csv")
        assert rows[0] == ["iteration", "gamma", "beta_re", "beta_im",
                           "rho_re", "rho_im", "sigma2"]
        assert len(rows) == 41
        assert (out / "trace_voxel1300.csv").exists()

    @pytest.mark.parametrize("voxels", ["2500", "-1", "3,x"])
    def test_bad_trace_voxels_exit_code(self, tmp_path, capsys, voxels):
        sim = tmp_path / "sim"
        self.run("simulate", "--study", "iid", "--seed", "2", "--T", "80", "--out", str(sim))
        assert self.run(
            "fit", "--data", str(sim / "dataset.cvf"), "--out", str(tmp_path / "fit"),
            "--G", "4", "--iters", "40", "--workers", "1", "--trace-voxels", voxels,
        ) == 2
        assert "trace" in capsys.readouterr().err

    def test_flags_and_config_keys_agree(self, tmp_path):
        sim = tmp_path / "sim"
        self.run("simulate", "--study", "ar1", "--seed", "4", "--T", "60", "--out", str(sim))
        settings = {
            "data": str(sim / "dataset.cvf"), "G": "4", "workers": "1", "psi": "-0.3",
            "iters": "40", "burn": "10", "threshold": "0.7", "mode": "spatial", "seed": "8",
            "mcse_tol": "0.2", "stimulus_on": "12", "stimulus_off": "8",
            "stimulus_warmup": "3",
        }
        assert set(settings) == set(cli._FIT_SETTINGS)
        cfg = tmp_path / "all.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
        flags = [arg for k, v in settings.items() for arg in ("--" + k.replace("_", "-"), v)]
        outs = (tmp_path / "from_config", tmp_path / "from_flags")
        assert self.run("fit", "--config", str(cfg), "--out", str(outs[0])) == 0
        assert self.run("fit", *flags, "--out", str(outs[1])) == 0
        manifests = [dataio.read_keyvalues(out / "manifest.txt") for out in outs]
        for manifest in manifests:
            del manifest["time_seconds"]
        assert manifests[0] == manifests[1]
        assert manifests[0]["stimulus_warmup"] == "3"
        assert not set(REMOVED_SETTINGS) & set(manifests[0])
        for name in DATA_FILES:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    @pytest.mark.parametrize("key", list(REMOVED_SETTINGS))
    def test_removed_setting_in_config_rejected_before_read(self, tmp_path, capsys, key):
        # the dataset does not exist, so reaching the read would exit 3
        cfg = tmp_path / "old.cfg"
        cfg.write_text(f"data = {tmp_path / 'none.cvf'}\n{key} = {REMOVED_SETTINGS[key]}\n")
        assert self.run("fit", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", list(REMOVED_SETTINGS))
    def test_removed_setting_flag_rejected(self, tmp_path, capsys, key):
        flag = "--" + key.replace("_", "-")
        with pytest.raises(SystemExit) as exc:
            self.run("fit", "--data", str(tmp_path / "none.cvf"), "--out", str(tmp_path / "o"),
                     flag, REMOVED_SETTINGS[key])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_too_few_kept_draws_rejected_before_read(self, tmp_path, capsys):
        # 20 sweeps keep 10 draws; the batch-means MCSE needs 16. The dataset
        # does not exist, so reaching the read would exit 3 instead.
        assert self.run("fit", "--data", str(tmp_path / "none.cvf"),
                        "--out", str(tmp_path / "o"), "--iters", "20") == 2
        assert "kept draws" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_rejected(self, tmp_path, capsys, workers):
        assert self.run("fit", "--data", str(tmp_path / "none.cvf"),
                        "--out", str(tmp_path / "o"), "--workers", workers) == 2
        assert f"workers must be at least 1, got {workers}" in capsys.readouterr().err
        assert FitConfig(n_parcels=4, workers=8).resolved_workers() == 4

    def test_repeated_config_key_rejected(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        self.run("simulate", "--study", "iid", "--seed", "3", "--T", "80", "--out", str(sim))
        cfg = tmp_path / "twice.cfg"
        cfg.write_text(f"data = {sim / 'dataset.cvf'}\nG = 4\niters = 40\nG = 5\n")
        assert self.run("fit", "--config", str(cfg), "--out", str(tmp_path / "o")) == 3
        assert "'G' is given more than once" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        # undecodable bytes once exited 1 with a UnicodeDecodeError traceback
        cfg.write_bytes(b"G = 4\n\xff\xfe bad\n")
        assert self.run("fit", "--config", str(cfg), "--out", str(tmp_path / "o")) == 3
        assert capsys.readouterr().err == \
            f"error: {cfg}: not UTF-8 text (byte 6: invalid start byte)\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("tol, named", [
        ("0.5", None), ("1e-9", "0, 1, 2, 3"),
    ], ids=["converged", "unconverged"])
    def test_closing_line_names_unconverged_parcels(self, tmp_path, capsys, tol, named):
        sim, fit = tmp_path / "sim", tmp_path / "fit"
        self.run("simulate", "--study", "iid", "--seed", "3", "--T", "80", "--out", str(sim))
        capsys.readouterr()
        assert self.run("fit", "--data", str(sim / "dataset.cvf"), "--out", str(fit),
                        "--G", "4", "--iters", "40", "--seed", "2", "--mcse-tol", tol) == 0
        line = capsys.readouterr().out
        summary = read_csv_rows(fit / "summary.csv")
        if named is None:
            assert ", converged; outputs in" in line and "parcel" not in line
            assert summary[1][0] == "1"
        else:
            assert f"NOT converged (max MCSE above tolerance in parcel(s) {named}); " in line
            assert summary[1][0] == "0"

    def test_closing_line_lists_ten_unconverged_parcels(self, tmp_path, capsys, monkeypatch):
        fit_dataset = pipeline.fit_dataset

        def fourteen_unconverged(*args):
            return replace(fit_dataset(*args), unconverged_parcels=tuple(range(3, 17)))

        monkeypatch.setattr(pipeline, "fit_dataset", fourteen_unconverged)
        sim = tmp_path / "sim"
        self.run("simulate", "--study", "iid", "--seed", "3", "--T", "80", "--out", str(sim))
        capsys.readouterr()
        assert self.run("fit", "--data", str(sim / "dataset.cvf"), "--out", str(tmp_path / "o"),
                        "--G", "4", "--iters", "40") == 0
        assert "in parcel(s) 3, 4, 5, 6, 7, 8, 9, 10, 11, 12 and 4 more); " in \
            capsys.readouterr().out

    @pytest.mark.parametrize("workers", ["1", "3"])
    def test_constant_voxel_names_parcel_and_image_voxel(self, tmp_path, capsys, workers):
        # voxel (10, 10) of a 50x50 grid is voxel 510 of the image and row 180
        # of parcel 0 at G=9; the error names the image voxel, the one that
        # --trace-voxels and the map files use, whatever batch runs the parcel
        sim = tmp_path / "sim"
        self.run("simulate", "--study", "ar1", "--seed", "100", "--out", str(sim))
        ds = dataio.read_dataset(sim / "dataset.cvf")
        data = ds.data.copy()
        data[10, 10] = 0.0
        dataio.write_dataset(sim / "dataset.cvf", ComplexDataset(ds.dims, data))
        assert self.run("fit", "--data", str(sim / "dataset.cvf"), "--out", str(tmp_path / "o"),
                        "--G", "9", "--iters", "200", "--workers", workers) == 4
        assert capsys.readouterr().err == (
            "error: parcel 0: zero residual sum of squares at voxel 510\n")

    def test_exit_codes(self, tmp_path):
        # missing dataset file -> I/O category
        assert self.run("fit", "--data", str(tmp_path / "none.cvf"),
                        "--out", str(tmp_path / "o")) == 3
        # unknown config key -> invalid spec category
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frobnicate = 1\n")
        assert self.run("fit", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        # corrupt dataset -> format category
        bad = tmp_path / "bad.cvf"
        bad.write_bytes(b"JUNKJUNKJUNKJUNK")
        assert self.run("fit", "--data", str(bad), "--out", str(tmp_path / "o")) == 3
        # evaluate on directories without maps -> invalid spec
        (tmp_path / "e1").mkdir()
        (tmp_path / "e2").mkdir()
        assert self.run("evaluate", "--truth", str(tmp_path / "e1"),
                        "--result", str(tmp_path / "e2"),
                        "--out", str(tmp_path / "m.csv")) == 2

    @pytest.mark.parametrize("flag, value, message", [
        ("--psi", "nan", "psi must be finite"),
        ("--psi", "inf", "psi must be finite"),
        ("--mcse-tol", "nan", "mcse_tol must be positive and finite"),
        ("--G", "0", "number of parcels"),
    ], ids=["psi=nan", "psi=inf", "mcse_tol=nan", "G=0"])
    def test_bad_numeric_setting_rejected_before_read(self, tmp_path, capsys, flag, value,
                                                      message):
        # the dataset does not exist, so reaching the read would exit 3
        assert self.run("fit", "--data", str(tmp_path / "none.cvf"),
                        "--out", str(tmp_path / "o"), flag, value) == 2
        assert message in capsys.readouterr().err

    def test_malformed_map_header_exit_code(self, tmp_path, capsys):
        (tmp_path / "truth").mkdir()
        (tmp_path / "truth" / "true_activation.csv").write_text("# dims: 2,x\n1,0\n0,1\n")
        assert self.run("evaluate", "--truth", str(tmp_path / "truth"),
                        "--result", str(tmp_path / "truth"),
                        "--out", str(tmp_path / "m.csv")) == 3
        assert "true_activation.csv: malformed '# dims:' header" in capsys.readouterr().err
        # a map whose first cell is not UTF-8 once exited 1 with a traceback
        (tmp_path / "truth" / "true_activation.csv").write_bytes(b"# dims: 2,2\n\xff,0\n0,1\n")
        assert self.run("evaluate", "--truth", str(tmp_path / "truth"),
                        "--result", str(tmp_path / "truth"),
                        "--out", str(tmp_path / "m.csv")) == 3
        assert capsys.readouterr().err == (f"error: {tmp_path / 'truth' / 'true_activation.csv'}"
                                           ": not UTF-8 text (byte 12: invalid start byte)\n")
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("header, body, message", [
        ("-50,-50", "1\n" * 2500, "grid extents must be positive"),
        ("0,50", "", "grid extents must be positive"),
        ("4294967296,4294967296", "1\n", f"expected {2**64} cells"),
    ], ids=["negative", "empty", "cells=2^64"])
    def test_bad_map_extents_exit_code(self, tmp_path, capsys, header, body, message):
        # -50,-50 once failed in reshape, 0,50 in the metrics and 2^32 x 2^32
        # in reshape after its cell count wrapped to 0, each exit 1 with a
        # traceback
        for name in ("true_activation", "true_magnitude", "activation", "magnitude",
                     "incl_prob"):
            (tmp_path / f"{name}.csv").write_text(f"# dims: {header}\n{body}")
        assert self.run("evaluate", "--truth", str(tmp_path), "--result", str(tmp_path),
                        "--out", str(tmp_path / "m.csv")) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"true_activation.csv: {message}" in err
        assert not (tmp_path / "m.csv").exists()

    def test_missing_result_replicates_rejected(self, tmp_path, capsys):
        maps = generate_true_maps((10, 10), [RegionSpec((4, 4), 2.0)], 0.2)
        for rep in ("rep0", "rep1", "rep2"):
            root = tmp_path / "truth" / rep
            root.mkdir(parents=True)
            dataio.write_map(root / "true_activation.csv", maps.active, integer=True)
            dataio.write_map(root / "true_magnitude.csv", maps.magnitude)
        result = tmp_path / "result" / "rep1"
        result.mkdir(parents=True)
        dataio.write_map(result / "activation.csv", maps.active, integer=True)
        dataio.write_map(result / "magnitude.csv", maps.magnitude)
        dataio.write_map(result / "incl_prob.csv", maps.active.astype(float))
        assert self.run("evaluate", "--truth", str(tmp_path / "truth"),
                        "--result", str(tmp_path / "result"),
                        "--out", str(tmp_path / "m.csv")) == 2
        assert "no result for truth replicate(s) rep0, rep2" in capsys.readouterr().err
        assert not (tmp_path / "m.csv").exists()

    def test_empty_dataset_header_exit_code(self, tmp_path, capsys):
        path = tmp_path / "empty.cvf"
        path.write_bytes(b"CVF1" + struct.pack("<II2II", 1, 2, 50, 50, 0))
        assert self.run("fit", "--data", str(path), "--out", str(tmp_path / "o")) == 3
        assert "empty.cvf: series length T must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("dims, n_time", [
        ((2**31, 2**31, 4), 1), ((2**32 - 1, 2**32 - 1), 2**32 - 1),
    ], ids=["cells=2^64", "samples=(2^32-1)^3"])
    def test_overflowing_dataset_extents_exit_code(self, tmp_path, capsys, dims, n_time):
        # a header-only file whose sample count wraps to 0 (or below) in int64
        # once passed the size check and failed in reshape with a traceback
        path = tmp_path / "huge.cvf"
        path.write_bytes(b"CVF1" + struct.pack(f"<II{len(dims)}II", 1, len(dims), *dims, n_time))
        assert self.run("fit", "--data", str(path), "--out", str(tmp_path / "o")) == 3
        err = capsys.readouterr().err
        expected = 12 + 4 * (len(dims) + 1) + 16 * n_time * math.prod(dims)
        assert err == f"error: {path}: payload length mismatch, expected {expected} bytes, " \
                      f"got {path.stat().st_size}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_multiplier_rejected(self, tmp_path, capsys, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.run("simulate", "--study", "ar1", "--seed", "1", "--multiplier", value,
                            "--out", str(tmp_path / "sim")) == 2
        err = capsys.readouterr().err
        assert f"magnitude multiplier must be positive and finite, got {value}" in err
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("value", ["1e74", "1e75"])
    def test_multiplier_up_to_the_sample_bound_accepted(self, tmp_path, value):
        assert self.run("simulate", "--study", "ar1", "--seed", "1", "--multiplier", value,
                        "--out", str(tmp_path / "sim")) == 0

    @pytest.mark.parametrize("n_time", ["2", "1"])
    def test_simulate_rejects_short_series_before_creating_out(self, tmp_path, capsys, n_time):
        out = tmp_path / "sim"
        assert self.run("simulate", "--study", "ar1", "--seed", "1", "--T", n_time,
                        "--out", str(out)) == 2
        assert f"T must be at least 3 (the fewest a chain takes), got {n_time}" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", [("--T", "100"), ("--multiplier", "3")])
    def test_realistic_simulate_rejects_iid_ar1_flags(self, tmp_path, capsys, monkeypatch, flag):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated despite a flag the study does not use")

        monkeypatch.setattr(pipeline, "simulate_realistic", no_simulation)
        out = tmp_path / "sim"
        assert self.run("simulate", "--study", "realistic", "--seed", "1", *flag,
                        "--out", str(out)) == 2
        assert "the realistic study sets its own T and multiplier" in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_manifest_records_the_values_used(self, tmp_path, monkeypatch):
        out = tmp_path / "ar1"
        assert self.run("simulate", "--study", "ar1", "--seed", "1", "--T", "3",
                        "--out", str(out)) == 0
        manifest = dataio.read_keyvalues(out / "manifest.txt")
        assert manifest["T"] == "3" and float(manifest["multiplier"]) == DEFAULT_MULTIPLIER
        # a one-slice, 40-point volume stands in for the seven-slice one
        realistic = pipeline.simulate_realistic
        monkeypatch.setattr(pipeline, "simulate_realistic",
                            lambda seed: realistic(seed, n_slices=1, n_time=40, taper=(1.0,)))
        out = tmp_path / "realistic"
        assert self.run("simulate", "--study", "realistic", "--seed", "1",
                        "--out", str(out)) == 0
        manifest = dataio.read_keyvalues(out / "manifest.txt")
        assert manifest == {"study": "realistic", "seed": "1", "T": "40", "dims": "1,96,96"}

    def test_non_finite_sample_exit_code(self, tmp_path, capsys):
        ds, _, _ = small_dataset()
        path = tmp_path / "nan.cvf"
        dataio.write_dataset(path, ds)
        raw = bytearray(path.read_bytes())
        # 2-D header is 24 bytes; overwrite Re of voxel 5, time 2
        offset = 24 + (5 * ds.n_time + 2) * 16
        raw[offset:offset + 8] = np.array([np.nan], dtype="<f8").tobytes()
        path.write_bytes(bytes(raw))
        assert self.run("fit", "--data", str(path), "--out", str(tmp_path / "o")) == 3
        assert "non-finite sample at voxel 5, time index 2" in capsys.readouterr().err

    def test_console_script(self):
        # the child finds the package where this process found it
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "cvfmri.cli", "--help"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert "simulate" in proc.stdout


class TestEvaluate:
    def _write_truth(self, root, maps):
        root.mkdir(parents=True, exist_ok=True)
        dataio.write_map(root / "true_activation.csv", maps.active, integer=True)
        dataio.write_map(root / "true_magnitude.csv", maps.magnitude)

    def _write_result(self, root, activation, magnitude, incl):
        root.mkdir(parents=True, exist_ok=True)
        dataio.write_map(root / "activation.csv", activation, integer=True)
        dataio.write_map(root / "magnitude.csv", magnitude)
        dataio.write_map(root / "incl_prob.csv", incl)

    def test_truth_equals_result_is_perfect(self, tmp_path):
        maps = generate_true_maps((10, 10), [RegionSpec((4, 4), 2.0)], 0.2)
        self._write_truth(tmp_path / "t", maps)
        self._write_result(tmp_path / "r", maps.active, maps.magnitude,
                           maps.active.astype(float))
        rows = evaluate_dirs(tmp_path / "t", tmp_path / "r")
        (row,) = rows
        # accuracy, precision, recall, f1, auc, slope, ccc all exactly 1
        assert [float(v) for v in row[1:8]] == [1.0] * 7
        assert float(row[8]) == 0.0  # xy_mse

    def test_replicates_and_mean_row(self, tmp_path):
        rng = np.random.default_rng(0)
        maps = generate_true_maps((10, 10), [RegionSpec((4, 4), 2.0)], 0.2)
        for rep in range(3):
            self._write_truth(tmp_path / "t" / f"rep{rep}", maps)
            noisy = np.clip(maps.magnitude + 0.01 * rng.standard_normal((10, 10)), 0, None)
            self._write_result(tmp_path / "r" / f"rep{rep}", maps.active, noisy,
                               maps.active.astype(float))
        rows = evaluate_dirs(tmp_path / "t", tmp_path / "r")
        assert len(rows) == 3
        out = tmp_path / "m.csv"
        from cvfmri.pipeline import write_report_csv

        write_report_csv(out, rows)
        table = read_csv_rows(out)
        assert table[-1][0] == "mean"
        for j in range(1, 10):
            vals = [float(r[j]) for r in table[1:4] if r[j] != "NA"]
            if vals:
                assert float(table[-1][j]) == pytest.approx(
                    sum(vals) / len(vals), abs=1e-12
                )

    @pytest.mark.parametrize("fill", [0, 1])
    def test_one_class_truth_reports_auc_na(self, tmp_path, fill):
        # a one-class truth (a slice with no activation) once stopped evaluate
        # with exit 4 and no metrics.csv
        rng = np.random.default_rng(fill)
        truth = np.full((6, 6), fill)
        magnitude = 2.0 * truth
        activation = (rng.random((6, 6)) < 0.4).astype(int)
        estimate = activation * rng.random((6, 6))
        incl = rng.random((6, 6))
        (tmp_path / "t").mkdir()
        dataio.write_map(tmp_path / "t" / "true_activation.csv", truth, integer=True)
        dataio.write_map(tmp_path / "t" / "true_magnitude.csv", magnitude)
        self._write_result(tmp_path / "r", activation, estimate, incl)
        out = tmp_path / "m.csv"
        assert cli.main(["evaluate", "--truth", str(tmp_path / "t"),
                         "--result", str(tmp_path / "r"), "--out", str(out)]) == 0
        row = read_csv_rows(out)[1]
        expected = report_row("r", classification_metrics(truth, activation),
                              magnitude_fidelity(magnitude, estimate), None, None)
        assert row == expected
        assert row[1 + REPORT_COLUMNS.index("auc")] == "NA"

    def test_map_round_trip_preserves_phase_nan(self, tmp_path):
        ds, _, design = small_dataset()
        cfg = FitConfig(n_parcels=4, workers=1,
                        sampler=SamplerConfig(n_iter=60, n_burn=30, seed=2))
        result = fit_dataset(ds, design, cfg)
        out = tmp_path / "fit"
        write_fit_outputs(result, out)
        phase = dataio.read_map(out / "phase.csv")
        assert np.array_equal(phase, result.maps.phase, equal_nan=True)


class TestReproduceCli:
    def test_iid_study_small(self, tmp_path):
        out = tmp_path / "study"
        assert cli.main([
            "reproduce", "--study", "iid", "--replicates", "1",
            "--seed", "99", "--out", str(out), "--workers", "1",
        ]) == 0
        table = read_csv_rows(out / "report.csv")
        assert table[0][0] == "dataset"
        assert table[1][0] == "rep000"
        assert table[-1][0] == "mean"
        acc = float(table[1][1])
        assert 0.8 < acc <= 1.0

    @pytest.mark.parametrize("study", ["ar1", "params", "realistic"])
    @pytest.mark.parametrize("replicates", ["0", "-3"])
    def test_replicates_below_one_rejected(self, tmp_path, capsys, study, replicates):
        out = tmp_path / "study"
        assert cli.main(["reproduce", "--study", study, "--replicates", replicates,
                         "--seed", "1", "--out", str(out)]) == 2
        assert f"replicates must be at least 1, got {replicates}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("study", ["ar1", "realistic"])
    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_rejected_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                        study, workers):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before the worker count was checked")

        monkeypatch.setattr(pipeline, "simulate_realistic", no_simulation)
        monkeypatch.setattr(pipeline, "simulate_study_dataset", no_simulation)
        out = tmp_path / "study"
        assert cli.main(["reproduce", "--study", study, "--replicates", "1",
                         "--seed", "1", "--workers", workers, "--out", str(out)]) == 2
        assert f"workers must be at least 1, got {workers}" in capsys.readouterr().err
        assert not out.exists()

    def test_realistic_rejects_replicates_before_any_work(self, tmp_path, capsys, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated despite a replicate count the study ignores")

        monkeypatch.setattr(pipeline, "simulate_realistic", no_simulation)
        out = tmp_path / "study"
        assert cli.main(["reproduce", "--study", "realistic", "--replicates", "3",
                         "--seed", "1", "--out", str(out)]) == 2
        assert "the realistic study has no replicates" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_records_the_replicates_used(self, tmp_path, monkeypatch):
        runs = []
        monkeypatch.setattr(pipeline, "_replicate_rows",
                            lambda study, n, seed, cfg: runs.append(n) or [])
        monkeypatch.setattr(pipeline, "_reproduce_realistic", lambda seed, base: [])
        assert cli.main(["reproduce", "--study", "ar1", "--seed", "1",
                         "--out", str(tmp_path / "ar1")]) == 0
        assert runs == [20]
        manifest = dataio.read_keyvalues(tmp_path / "ar1" / "manifest.txt")
        assert manifest == {"study": "ar1", "replicates": "20", "seed": "1"}
        out = tmp_path / "realistic"
        assert cli.main(["reproduce", "--study", "realistic", "--seed", "1",
                         "--out", str(out)]) == 0
        assert dataio.read_keyvalues(out / "manifest.txt") == {"study": "realistic", "seed": "1"}
        assert read_csv_rows(out / "report.csv") == [["slice", *REALISTIC_COLUMNS]]


class TestFitbenchTracer:
    def test_every_span_and_the_batch_count_are_recorded(self, tmp_path):
        # the benchmark's tracer wraps pipeline names by lookup and patches
        # modules for good, so it runs in a process of its own
        ds, _, _ = small_dataset()
        dataio.write_dataset(tmp_path / "d.cvf", ds)
        src = str(Path(cli.__file__).parents[1])
        fitproc = Path(__file__).resolve().parents[1] / "fitbench" / "fitproc.py"
        proc = subprocess.run(
            [sys.executable, str(fitproc), src, "1", "--data", str(tmp_path / "d.cvf"),
             "--out", str(tmp_path / "fit"), "--G", "4", "--iters", "40", "--burn", "20",
             "--seed", "1", "--workers", "1"],
            capture_output=True, text=True, check=True,
        )
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        assert report["exit"] == 0
        for key in ("dataio.read", "dataio.write", "parcellation.partition",
                    "parcellation.adjacency", "parcellation.basis", "sampler.chain",
                    "sampler.stitch", "pipeline.fit_dataset"):
            assert report["spans"].get(key, 0) > 0, key
        # what the tracer reads of each chain call: its arguments y and cfg,
        # and its summary's mcse and converged
        counts = report["counts"]
        assert counts["parcels"] == 1
        assert counts["parcel_sweeps"] == 40 and counts["voxel_sweeps"] == ds.n_voxels * 40
        assert counts["max_mcse"] > 0 and "unconverged" in counts
