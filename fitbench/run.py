"""Benchmark of ``cvfmri fit``, the user's own operation, on fixed workloads.

    python3 fitbench/run.py --workload ar1-g49 --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Inputs are generated from the seeds in this process (untimed) and
written as CVF1 files. Each fit then runs in a fresh interpreter through the
public ``cvfmri.cli.main(["fit", ...])``: read the dataset, fit, write the
maps. A round fits each of the workload's replicate datasets once; whole
rounds repeat until ``--seconds`` have passed. After every fit the output
checker runs (see checker.py).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of traced one-worker fits (see fitproc.py). The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. No BLAS or OpenMP thread variable is set: the
threads the libraries start are part of what a user's fit costs.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checker

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS = BENCH_DIR / "_runs"

#: A run must end within 180 s; no child may outlive this many seconds of it.
RUN_DEADLINE_S = 170.0
#: Fewest fresh-interpreter imports behind the set-up median of a run; fit
#: processes provide one each, import-only processes make up the rest.
SETUP_SAMPLES = 3
_TIMED_IMPORT = ("import time; t = time.perf_counter(); import cvfmri.cli; "
                 "print(time.perf_counter() - t)")
MIB = float(1 << 20)


@dataclass(frozen=True)
class Workload:
    kind: str  # "ar1" (50x50, T=200) or "realistic" (one 96x96 slice, T=490)
    n_parcels: int
    workers: int
    datasets: int  # replicate datasets per round; quality is their mean


# Why each workload (BENCHMARK.json has one line each): ar1-g49 is dominated
# by the fixed numpy cost per parcel per sweep (49 chains of 49-64 voxels);
# ar1-g1 by the dense 2500x2500 adjacency, Laplacian and eigh of one parcel;
# realistic-slice by the O(V*T) precompute, a 72 MB read and a two-worker
# process pool. Replicates average out the dataset-to-dataset spread of the
# quality metrics.
WORKLOADS = {
    "ar1-g49": Workload("ar1", 49, 1, 3),
    "ar1-g1": Workload("ar1", 1, 1, 6),
    "realistic-slice": Workload("realistic", 49, 2, 2),
}


class Runner:
    """Starts child processes one at a time and never leaves one behind."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

    def run(self, args) -> tuple[int, str, str]:
        proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, env=self.env,
                                cwd=ROOT, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            out, err = "", "killed at the run deadline"
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        return proc.returncode, out, err

    def fit(self, fit_args, trace: bool) -> dict | None:
        code, out, err = self.run([str(BENCH_DIR / "fitproc.py"), str(SRC),
                                   "1" if trace else "0", *fit_args])
        lines = out.strip().splitlines()
        if code != 0 or not lines:
            print(f"fit process failed (exit {code}): {err.strip()}", file=sys.stderr)
            return None
        result = json.loads(lines[-1])
        if result["exit"] != 0:
            print(f"cvfmri fit exited {result['exit']}: {err.strip()}", file=sys.stderr)
        return result


@dataclass
class Dataset:
    path: Path
    active: np.ndarray
    magnitude: np.ndarray


def make_datasets(work: Workload, data_seed: int, count: int, workdir: Path):
    """Generate ``count`` replicate inputs with the package's simulators.

    Returns the datasets and the problems of their CVF1 round trips.
    """
    from cvfmri import dataio, pipeline
    from cvfmri.data import ComplexDataset
    from cvfmri.simulate import simulate_realistic

    out, problems = [], []
    for rep in range(count):
        seed = data_seed * 100 + rep
        if work.kind == "ar1":
            dataset, maps, _ = pipeline.simulate_study_dataset("ar1", seed)
        else:
            volume, vmaps = simulate_realistic(seed, n_slices=1, taper=(1.0,))
            dataset = ComplexDataset(volume.dims[1:], volume.data[0])
            maps = vmaps.slice_maps(0)
        path = workdir / f"input{rep}.cvf"
        dataio.write_dataset(path, dataset)
        problems += checker.check_roundtrip(path, dataset.data)
        out.append(Dataset(path, maps.active, maps.magnitude))
    return out, problems


def fit_args(work: Workload, ds: Dataset, out_dir: Path, fit_seed: int, workers: int):
    from scipy.special import ndtri

    args = ["--data", str(ds.path), "--out", str(out_dir), "--G", str(work.n_parcels),
            "--iters", "1000", "--workers", str(workers), "--seed", str(fit_seed)]
    if work.kind == "realistic":
        args += ["--psi", repr(float(ndtri(0.11))), "--stimulus-on", "15",
                 "--stimulus-off", "15", "--stimulus-warmup", "10"]
    else:
        args += ["--psi", repr(float(ndtri(0.47)))]
    return args


def repeat_rounds(seconds: float, one_round) -> None:
    """Run whole rounds until ``seconds`` have passed (at least one round)."""
    start = time.monotonic()
    one_round()
    while time.monotonic() - start < seconds:
        one_round()


class Bench:
    def __init__(self, work: Workload, fit_seed: int, runner: Runner, workdir: Path):
        self.work, self.fit_seed, self.runner, self.workdir = work, fit_seed, runner, workdir
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.references: dict[int, Path] = {}
        self.quality: dict[int, dict] = {}

    def fit(self, index: int, ds: Dataset, workers: int, trace: bool = False) -> dict | None:
        """One checked fit of dataset ``index``; None when it failed."""
        self.attempted += 1
        out_dir = self.workdir / f"fit{self.attempted}"
        result = self.runner.fit(fit_args(self.work, ds, out_dir, self.fit_seed, workers), trace)
        if result is None or result["exit"] != 0:
            self.failed += 1
            return None
        print(f"fit{self.attempted}: dataset {index}, {workers} worker(s)"
              f"{', traced' if trace else ''}: import {result['import_s']:.3f} s, "
              f"fit {result['wall_s']:.3f} s wall, "
              f"{result['cpu_s']:.3f} s CPU, {result['peak_rss_mb']:.1f} MB peak RSS")
        found = checker.check_outputs(out_dir, ds.active.shape)
        if index in self.references:
            found += checker.check_identical(self.references[index], out_dir)
            shutil.rmtree(out_dir)
        else:
            self.quality[index] = checker.quality(out_dir, ds.active, ds.magnitude)
            self.references[index] = out_dir
        self.problems += [f"fit{self.attempted} ({workers} worker(s)): {p}" for p in found]
        return result

    def mean_quality(self, n_datasets: int) -> dict | None:
        """Quality averaged over the replicate datasets, checked against the floors.

        The repository states the ar1 floors on the mean of a study's
        replicates (criterion 1). The realistic ones (criterion 5) are stated
        per slice; they are applied to the mean too, since the precision of
        one slice turns on two or three false positives among 50 actives.
        """
        if len(self.quality) != n_datasets:
            return None
        mean = {k: statistics.fmean(q[k] for q in self.quality.values())
                for k in self.quality[0]}
        floors = checker.AR1_FLOORS if self.work.kind == "ar1" else checker.REALISTIC_FLOORS
        self.problems += checker.check_floors(mean, floors)
        return mean


def import_seconds(runner: Runner, count: int) -> list[float]:
    """Times of ``import cvfmri.cli`` in ``count`` fresh interpreters."""
    times = []
    for _ in range(count):
        code, out, err = runner.run(["-c", _TIMED_IMPORT])
        if code != 0:
            raise RuntimeError(f"import cvfmri.cli failed: {err.strip()}")
        times.append(float(out))
    return times


def metrics_import_seconds(runner: Runner) -> float:
    """Cumulative import time of cvfmri.metrics inside ``import cvfmri.cli``."""
    times = []
    for _ in range(3):
        _, _, err = runner.run(["-X", "importtime", "-c", "import cvfmri.cli"])
        match = re.search(r"^import time:\s*\d+ \|\s*(\d+) \|\s*cvfmri\.metrics$", err, re.M)
        if match is None:
            raise RuntimeError("no cvfmri.metrics line in -X importtime output")
        times.append(int(match.group(1)) / 1e6)
    return statistics.median(times)


def blas_threads() -> str:
    """OpenBLAS builds and thread counts loaded by numpy and scipy.linalg."""
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS)

    with open("/proc/self/maps") as fh:
        libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    seen = []
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for suffix in ("64_", ""):
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if get is not None and config is not None:
                config.restype = ctypes.c_char_p
                seen.append(f"{config().decode()}: {get()} threads")
                break
    return "; ".join(seen) or "no OpenBLAS found"


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(bench: Bench, datasets, seconds: float) -> dict:
    results = []

    def one_round():
        for i, ds in enumerate(datasets):
            results.append(bench.fit(i, ds, bench.work.workers))

    repeat_rounds(seconds, one_round)
    done = [r for r in results if r is not None]
    quality = bench.mean_quality(len(datasets))
    if not done or quality is None:
        return {}
    imports = [r["import_s"] for r in done]
    imports += import_seconds(bench.runner, SETUP_SAMPLES - len(imports))

    def median(key):
        return statistics.median(r[key] for r in done)

    return {
        "setup_s": metric(statistics.median(imports), "s"),
        "fit_s": metric(median("wall_s"), "s"),
        "cpu_s": metric(median("cpu_s"), "s"),
        "peak_rss_mb": metric(median("peak_rss_mb"), "MB"),
        "f1": metric(quality["f1"], "ratio"),
        "auc": metric(quality["auc"], "ratio"),
        "magnitude_ccc": metric(quality["magnitude_ccc"], "ratio"),
    }


def per_layer(bench: Bench, datasets, seconds: float) -> dict:
    """Traced one-worker fits of every dataset, then an untraced two-worker
    fit of the first, which gives the worker speed-up and must reproduce the
    one-worker maps byte for byte."""
    rows, speedups = [], []

    def one_round():
        traced = [bench.fit(i, ds, 1, trace=True) for i, ds in enumerate(datasets)]
        pooled = bench.fit(0, datasets[0], 2)
        rows.extend(layer_row(t) for t in traced if t is not None)
        if traced[0] is not None and pooled is not None:
            speedups.append(traced[0]["wall_s"] / pooled["wall_s"])
            print(f"traced one-worker fit_s {traced[0]['wall_s']:.3f}, "
                  f"two-worker fit_s {pooled['wall_s']:.3f}")

    import_s = metrics_import_seconds(bench.runner)
    print(f"BLAS: {blas_threads()}")
    repeat_rounds(seconds, one_round)
    if not rows or not speedups or bench.mean_quality(len(datasets)) is None:
        return {}
    out = {"metrics.import_s": metric(import_s, "s")}
    for name, unit in LAYER_UNITS.items():
        if name in rows[0]:
            out[name] = metric(statistics.median(r[name] for r in rows), unit)
    out["pipeline.worker_speedup"] = metric(statistics.median(speedups), "ratio")
    return out


LAYER_UNITS = {
    "metrics.import_s": "s",
    "dataio.read_s": "s",
    "dataio.read_alloc_mb": "MB",
    "dataio.write_s": "s",
    "parcellation.partition_s": "s",
    "parcellation.adjacency_s": "s",
    "parcellation.basis_s": "s",
    "parcellation.dense_mb": "MB",
    "sampler.chain_s": "s",
    "sampler.parcel_sweeps": "count",
    "sampler.us_per_parcel_sweep": "us",
    "sampler.ns_per_voxel_sweep": "ns",
    "sampler.stitch_s": "s",
    "sampler.max_mcse": "ratio",
    "sampler.unconverged_parcels": "count",
    "pipeline.self_s": "s",
    "pipeline.helper_cpu_s": "s",
    "pipeline.worker_speedup": "ratio",
    "pipeline.job_mb": "MB",
}


def layer_row(traced: dict) -> dict:
    s, c = traced["spans"], traced["counts"]
    children = ("parcellation.partition", "parcellation.adjacency", "parcellation.basis",
                "sampler.chain", "sampler.stitch")
    return {
        "dataio.read_s": s["dataio.read"],
        "dataio.read_alloc_mb": c["read_alloc_bytes"] / MIB,
        "dataio.write_s": s["dataio.write"],
        "parcellation.partition_s": s["parcellation.partition"],
        "parcellation.adjacency_s": s["parcellation.adjacency"],
        "parcellation.basis_s": s["parcellation.basis"],
        "parcellation.dense_mb": c["dense_bytes"] / MIB,
        "sampler.chain_s": s["sampler.chain"],
        "sampler.parcel_sweeps": c["parcel_sweeps"],
        "sampler.us_per_parcel_sweep": s["sampler.chain"] / c["parcel_sweeps"] * 1e6,
        "sampler.ns_per_voxel_sweep": s["sampler.chain"] / c["voxel_sweeps"] * 1e9,
        "sampler.stitch_s": s["sampler.stitch"],
        "sampler.max_mcse": c["max_mcse"],
        "sampler.unconverged_parcels": c["unconverged"],
        "pipeline.self_s": s["pipeline.fit_dataset"] - sum(s[k] for k in children),
        "pipeline.helper_cpu_s": traced["cpu_s"] - traced["wall_s"],
        "pipeline.job_mb": c["job_bytes"] / MIB,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--data-seed", type=int,
                        help="seed of the simulated inputs (default: --seed)")
    parser.add_argument("--fit-seed", type=int,
                        help="master seed of the fit (default: --seed + 100000)")
    args = parser.parse_args(argv)
    if not (SRC / "cvfmri" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'cvfmri'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    work = WORKLOADS[args.workload]
    data_seed = args.seed if args.data_seed is None else args.data_seed
    fit_seed = args.seed + 100000 if args.fit_seed is None else args.fit_seed
    RUNS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS))
    try:
        runner = Runner(time.monotonic() + RUN_DEADLINE_S)
        datasets, problems = make_datasets(work, data_seed, work.datasets, workdir)
        bench = Bench(work, fit_seed, runner, workdir)
        bench.problems += problems
        print(f"{args.workload}: data seed {data_seed}, fit seed {fit_seed}, "
              f"{len(datasets)} replicate dataset(s)")
        if args.trace:
            metrics = per_layer(bench, datasets, args.seconds)
        else:
            metrics = end_to_end(bench, datasets, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in bench.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    if not metrics:
        print("error: no fit completed", file=sys.stderr)
        return 1
    print(json.dumps({"correct": not bench.problems, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
