"""End-to-end runs: fit a dataset, evaluate results against truth, reproduce
the simulation studies.

Parcels are independent chains. Each worker takes one contiguous range of
parcels, balanced by voxel count, builds each parcel's adjacency and spatial
basis, and runs the whole range as one batch of the sampler's engine. Every
parcel draws from a stream seeded by the master seed and its index alone, so
outputs do not depend on the number of workers or on scheduling order.

The pool forks, so its workers inherit the fit (the series, the partition,
the regressor and the config); a task is a range of parcels, whose rows the
engine reads from the inherited series one parcel at a time. Only the ranges
and the summaries cross the pipe. The default worker count is the number of
CPUs the process may run on. The parcel stage calls BLAS and LAPACK only on
q x q matrices and the regressor, never on an array that grows with the
parcel, so no BLAS helper thread competes with the workers for those CPUs.
"""

from __future__ import annotations

import csv
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from . import dataio
from .data import ComplexDataset
from .design import design_for_length
from .errors import CvfmriError, DataFormatError, InvalidSpecError, UndefinedMetricError
from .metrics import (
    REPORT_COLUMNS,
    classification_metrics,
    magnitude_fidelity,
    report_row,
    roc_auc,
)
from .parcellation import SPATIAL_RANK, build_adjacency, build_spatial_basis, partition_grid
from .sampler import (
    NONSPATIAL,
    _TRACE_FIELDS,
    ResultMaps,
    SamplerConfig,
    derive_seed,
    run_parcel_chain,
    stitch_voxel_field,
    summarize,
    usable_cpus,
)
from .simulate import (
    DEFAULT_MULTIPLIER,
    NoiseSpec,
    SignalSpec,
    generate_true_maps,
    simulate_ar1,
    simulate_iid,
    simulate_realistic,
    realistic_design,
)

__all__ = [
    "FitConfig",
    "FitResult",
    "fit_dataset",
    "write_fit_outputs",
    "evaluate_pair",
    "evaluate_dirs",
    "write_report_csv",
    "simulate_study_dataset",
    "reproduce",
    "REALISTIC_COLUMNS",
]

#: Replicates of the iid, ar1 and params studies unless a caller sets them.
DEFAULT_REPLICATES = 20

#: Sampler settings of the realistic study; the 50x50 studies use the defaults.
REALISTIC_PSI = ndtri(0.11)
REALISTIC_G = 49

REALISTIC_COLUMNS = ("tp", "fp", "fn", "tn", "precision", "recall", "time_seconds")


@dataclass
class FitConfig:
    """Everything a fit needs besides the data and the design."""

    n_parcels: int = 9
    workers: int | None = None
    trace_voxels: tuple = ()
    sampler: SamplerConfig = field(default_factory=SamplerConfig)

    def __post_init__(self):
        if self.n_parcels < 1:
            raise InvalidSpecError("number of parcels must be positive")
        if self.workers is not None and self.workers < 1:
            raise InvalidSpecError(f"workers must be at least 1, got {self.workers}")

    def resolved_workers(self) -> int:
        """The worker count, by default one per CPU this process may run on."""
        w = self.workers
        if w is None:
            w = usable_cpus()
        return min(w, self.n_parcels)


@dataclass
class FitResult:
    maps: ResultMaps
    incl_prob: np.ndarray
    mcse: np.ndarray
    unconverged_parcels: tuple
    time_seconds: float
    config: FitConfig
    traces: dict | None = None

    @property
    def converged(self) -> bool:
        return not self.unconverged_parcels


def _parcel_ranges(sizes, workers: int) -> list:
    """Cut parcels 0..G-1 (1 <= workers <= G) into ``workers`` contiguous,
    non-empty ranges of about equal voxel counts: the ranges' bounds."""
    ends = np.cumsum(sizes)
    k = np.arange(1, workers)
    # the parcel boundary nearest each k/workers share of the voxels, then
    # pushed apart so that no range is empty
    cuts = np.rint(np.interp(ends[-1] * k / workers, np.r_[0, ends], np.arange(len(sizes) + 1)))
    cuts = np.maximum.accumulate(np.maximum(cuts.astype(int) - k, 0)) + k
    return [0, *np.minimum(cuts, len(sizes) - workers + k).tolist(), len(sizes)]


#: The fit a pool worker inherits; see ``_start_worker``.
_worker_fit: tuple = ()


def _start_worker(fit):
    """Pool initializer: keep the fit. The pool forks, so ``fit`` reaches the
    worker as inherited memory, not pickled, and each task is a parcel range."""
    global _worker_fit
    _worker_fit = fit


def _worker_job(bounds):
    return _batch_job(_worker_fit, *bounds)


def _batch_job(fit, lo: int, hi: int):
    """Fit parcels ``lo`` to ``hi - 1`` of ``fit = (series, partition,
    regressor, FitConfig)`` as one batch of the engine, which reads each
    parcel's rows from the (V, T) series; the summary's trace is keyed by flat
    voxel index."""
    series, partition, x, cfg = fit
    voxel_lists = partition.parcel_voxel_lists[lo:hi]
    nu2 = None
    if cfg.sampler.mode != NONSPATIAL:
        nu2 = []
        for pid, shape in enumerate(partition.parcel_shapes[lo:hi], lo):
            try:
                nu2.append(build_spatial_basis(build_adjacency(shape), shape))
            except CvfmriError as exc:
                raise type(exc)(f"parcel {pid}: {exc}") from None
    traced = [gv for gv in cfg.trace_voxels if lo <= partition.assignment[gv] < hi]
    return run_parcel_chain(series, nu2, x, cfg.sampler, dict(enumerate(voxel_lists, lo)),
                            trace_voxels=traced or None)


def fit_dataset(dataset: ComplexDataset, x: np.ndarray, cfg: FitConfig) -> FitResult:
    """Partition, run all parcel chains on the regressor ``x``, stitch the maps.

    The output is a pure function of (dataset, x, sampler config, seed);
    worker count only affects wall-clock time. The basis builds and chains
    call BLAS and LAPACK only on q x q matrices and the regressor, so their
    per-voxel work runs on the calling thread whatever the library's thread
    count. With more than one worker the parcel ranges run in a forked
    process pool whose workers inherit the series. No job copies its range's
    rows: the engine gathers one parcel's at a time. ``unconverged_parcels``
    lists each parcel with a voxel whose MCSE is at or over ``mcse_tol``.
    """
    x = np.asarray(x, dtype=float)
    if x.size != dataset.n_time:
        raise InvalidSpecError(
            f"design length {x.size} does not match dataset T {dataset.n_time}"
        )
    started = time.perf_counter()
    partition = partition_grid(dataset.dims, cfg.n_parcels)
    if cfg.sampler.mode != NONSPATIAL:
        smallest = int(partition.parcel_sizes().min())
        if SPATIAL_RANK > smallest:
            raise InvalidSpecError(
                f"the spatial basis rank {SPATIAL_RANK} exceeds the smallest parcel "
                f"({smallest} voxels); reduce the parcel count"
            )
    for gv in cfg.trace_voxels:
        if np.asarray(gv).dtype.kind not in "iu":
            raise InvalidSpecError(f"trace voxel {gv} is not an integer")
        if not 0 <= gv < dataset.n_voxels:
            raise InvalidSpecError(f"trace voxel {gv} lies outside [0, {dataset.n_voxels})")

    fit = (dataset.voxel_view(), partition, x, cfg)
    workers = cfg.resolved_workers()
    bounds = _parcel_ranges(partition.parcel_sizes(), workers)
    ranges = list(zip(bounds[:-1], bounds[1:]))
    if workers == 1:
        results = [_batch_job(fit, lo, hi) for lo, hi in ranges]
    else:
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("fork"),
                                 initializer=_start_worker, initargs=(fit,)) as pool:
            results = list(pool.map(_worker_job, ranges))

    incl = stitch_voxel_field(partition, results, lambda s: s.incl_prob)
    beta = stitch_voxel_field(partition, results, lambda s: s.beta_mean, dtype=complex)
    errs = stitch_voxel_field(partition, results, lambda s: s.mcse)
    unconverged = np.unique(partition.assignment[errs.ravel() >= cfg.sampler.mcse_tol])
    traces = None
    if cfg.trace_voxels:
        traces = {gv: buf for s in results if s.trace for gv, buf in s.trace.items()}
    return FitResult(
        maps=summarize(incl, beta, cfg.sampler.threshold),
        incl_prob=incl,
        mcse=errs,
        unconverged_parcels=tuple(unconverged.tolist()),
        time_seconds=time.perf_counter() - started,
        config=cfg,
        traces=traces,
    )


# --------------------------------------------------------------------------
# output files
# --------------------------------------------------------------------------

def write_fit_outputs(result: FitResult, out_dir, extra_manifest: dict | None = None):
    """Write maps, summary, and manifest into ``out_dir``.

    Data outputs (activation/magnitude/phase/incl_prob/mcse maps) depend only
    on (data, config, seed); summary.csv and manifest.txt additionally record
    wall-clock time and worker count.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    maps = result.maps
    dataio.write_map(out / "activation.csv", maps.activation, integer=True)
    dataio.write_map(out / "magnitude.csv", maps.magnitude)
    dataio.write_map(out / "phase.csv", maps.phase)
    dataio.write_map(out / "incl_prob.csv", result.incl_prob)
    dataio.write_map(out / "mcse.csv", result.mcse)

    act = maps.activation
    mag = maps.magnitude
    mag_scale = 255.0 / mag.max() if mag.max() > 0 else 0.0
    if act.ndim == 2:
        dataio.write_pgm(out / "activation.pgm", act.astype(np.uint8) * 255)
        dataio.write_pgm(out / "magnitude.pgm", mag * mag_scale)
    else:
        for s in range(act.shape[0]):
            dataio.write_pgm(out / f"activation_slice{s}.pgm", act[s].astype(np.uint8) * 255)
            dataio.write_pgm(out / f"magnitude_slice{s}.pgm", mag[s] * mag_scale)

    with open(out / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["converged", "max_mcse", "n_kept", "threshold", "mode", "time_seconds"])
        writer.writerow([
            int(result.converged),
            repr(float(result.mcse.max())),
            result.config.sampler.n_kept,
            result.config.sampler.threshold,
            result.config.sampler.mode,
            repr(result.time_seconds),
        ])

    if result.traces:
        for gv, buf in result.traces.items():
            with open(out / f"trace_voxel{gv}.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["iteration", *_TRACE_FIELDS])
                for it, row in enumerate(buf):
                    writer.writerow([it, int(row[0])] + [repr(float(v)) for v in row[1:]])

    sampler = asdict(result.config.sampler)
    sampler["psi"] = repr(float(sampler["psi"]))
    manifest = {
        "n_parcels": result.config.n_parcels,
        "workers": result.config.resolved_workers(),
        **sampler,
        "magnitude_pgm_scale": repr(float(mag_scale)),
        "time_seconds": repr(result.time_seconds),
        "converged": int(result.converged),
    }
    manifest.update(extra_manifest or {})
    dataio.write_keyvalues(out / "manifest.txt", manifest)


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

def evaluate_arrays(true_active, true_magnitude, activation, magnitude, incl_prob,
                    time_seconds=None, label="dataset"):
    """Build one metrics row from in-memory fields; AUC is NA for a one-class truth."""
    cls = classification_metrics(true_active, activation)
    fid = magnitude_fidelity(true_magnitude, magnitude)
    try:
        auc = roc_auc(true_active, incl_prob)
    except UndefinedMetricError:  # e.g. a slice with no activation
        auc = None
    return report_row(label, cls, fid, auc, time_seconds)


def _read_time_seconds(result_dir: Path):
    try:
        with open(result_dir / "summary.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        return float(rows[1][rows[0].index("time_seconds")])
    except (FileNotFoundError, IndexError, ValueError, csv.Error):  # no, or no readable, summary
        return None


def _read_scored_map(path, binary=False):
    """A map that evaluation scores: every cell finite, and 0 or 1 if ``binary``."""
    values = dataio.read_map(path)
    bad = ~np.isin(values, (0.0, 1.0)) if binary else ~np.isfinite(values)
    if bad.any():
        cell = tuple(int(i) for i in np.argwhere(bad)[0])
        expected = "0 or 1" if binary else "a finite value"
        raise DataFormatError(
            f"{path}: cell {cell} holds {float(values[cell])!r}, expected {expected}")
    return values


def evaluate_pair(truth_dir, result_dir, label=None):
    """Metrics row for one truth/result directory pair; a non-finite cell in
    any map it reads, or an activation cell other than 0 or 1, is bad data."""
    truth_dir = Path(truth_dir)
    result_dir = Path(result_dir)
    true_active = _read_scored_map(truth_dir / "true_activation.csv", binary=True)
    true_mag = _read_scored_map(truth_dir / "true_magnitude.csv")
    activation = _read_scored_map(result_dir / "activation.csv", binary=True)
    magnitude = _read_scored_map(result_dir / "magnitude.csv")
    incl = _read_scored_map(result_dir / "incl_prob.csv")
    return evaluate_arrays(
        true_active,
        true_mag,
        activation,
        magnitude,
        incl,
        time_seconds=_read_time_seconds(result_dir),
        label=label or result_dir.name,
    )


def evaluate_dirs(truth_dir, result_dir):
    """Evaluate a single pair, or matching replicate subdirectories.

    When ``truth_dir`` holds truth maps, the two directories form one pair;
    otherwise each of its subdirectories is a replicate and pairs with the
    subdirectory of the same name in ``result_dir``, which must exist.
    """
    truth_dir = Path(truth_dir)
    result_dir = Path(result_dir)
    if (truth_dir / "true_activation.csv").exists():
        return [evaluate_pair(truth_dir, result_dir)]
    names = sorted(p.name for p in truth_dir.iterdir() if p.is_dir())
    if not names:
        raise InvalidSpecError(
            f"{truth_dir} has neither truth maps nor replicate subdirectories"
        )
    missing = [n for n in names if not (result_dir / n).is_dir()]
    if missing:
        raise InvalidSpecError(
            f"{result_dir} has no result for truth replicate(s) {', '.join(missing)}"
        )
    return [evaluate_pair(truth_dir / n, result_dir / n, label=n) for n in names]


def _mean_row(rows):
    """Arithmetic mean of the numeric cells, skipping NA."""
    means = ["mean"]
    for j in range(1, len(REPORT_COLUMNS) + 1):
        vals = [float(r[j]) for r in rows if r[j] != "NA"]
        means.append(repr(sum(vals) / len(vals)) if vals else "NA")
    return means


def write_report_csv(path, rows, columns=("dataset",) + REPORT_COLUMNS, mean_row=True):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)
        if mean_row and rows:
            writer.writerow(_mean_row(rows))


# --------------------------------------------------------------------------
# study harness
# --------------------------------------------------------------------------

def simulate_study_dataset(study: str, seed: int, n_time: int | None = None,
                           multiplier: float | None = None):
    """One dataset of the named study with its ground truth and regressor.

    Returns ``(dataset, maps, x)``. Seeds for the map and the noise are
    derived from ``seed`` so replicates differ in both. The iid and ar1
    studies take ``n_time`` (default 200) and ``multiplier`` (default
    ``DEFAULT_MULTIPLIER``); the realistic study fixes both and takes neither.
    """
    if study == "realistic":
        if n_time is not None or multiplier is not None:
            raise InvalidSpecError("the realistic study sets its own T and multiplier")
        dataset, maps = simulate_realistic(derive_seed(seed, 2))
        return dataset, maps, realistic_design(dataset.n_time)
    simulate = {"iid": simulate_iid, "ar1": simulate_ar1}.get(study)
    if simulate is None:
        raise InvalidSpecError(f"unknown study {study!r}")
    n_time = 200 if n_time is None else n_time
    multiplier = DEFAULT_MULTIPLIER if multiplier is None else multiplier
    if n_time < 3:
        raise InvalidSpecError(f"T must be at least 3 (the fewest a chain takes), got {n_time}")
    maps = generate_true_maps((50, 50), multiplier=multiplier, seed=derive_seed(seed, 0))
    try:  # the arrays that T sizes
        x = design_for_length(n_time)
        dataset = simulate(maps, x, SignalSpec(), NoiseSpec(study), derive_seed(seed, 1))
    except (MemoryError, ValueError):  # past free memory, or past numpy's largest array
        raise InvalidSpecError(f"T = {n_time} needs arrays too large to allocate") from None
    return dataset, maps, x


def _replicate_rows(study, n_replicates, seed, cfg: FitConfig, n_time=None):
    """Simulate, fit and score replicates 0 to ``n_replicates - 1`` of the
    study, replicate r's data and chains seeded from ``derive_seed(seed, r)``:
    their report rows."""
    rows = []
    for rep in range(n_replicates):
        rep_seed = derive_seed(seed, rep)
        dataset, maps, x = simulate_study_dataset(study, rep_seed, n_time=n_time)
        result = fit_dataset(dataset, x, replace(
            cfg, sampler=replace(cfg.sampler, seed=derive_seed(rep_seed, 3))))
        rows.append(evaluate_arrays(maps.active, maps.magnitude, result.maps.activation,
                                    result.maps.magnitude, result.incl_prob,
                                    time_seconds=result.time_seconds, label=f"rep{rep:03d}"))
    return rows


def _reproduce_params(n_replicates, seed, base: FitConfig):
    """One-at-a-time sweeps over psi, parcel count, and series length: one
    mean row per setting."""
    sections = [(f"psi=ndtri({p})", replace(base, sampler=SamplerConfig(psi=ndtri(p))), 200)
                for p in (0.02, 0.20, 0.35, 0.47)]
    sections += [(f"G={g}", replace(base, n_parcels=g), 200) for g in (1, 4, 9, 16)]
    sections += [(f"T={n_time}", base, n_time) for n_time in (80, 200, 500)]
    sections.append(("T=1000", replace(base, sampler=SamplerConfig(psi=ndtri(0.02))), 1000))
    rows = []
    for i, (label, cfg, n_time) in enumerate(sections):
        reps = _replicate_rows("ar1", n_replicates, derive_seed(seed, 1000 + i), cfg, n_time)
        rows.append([label, *_mean_row(reps)[1:]])
    return rows


def _reproduce_realistic(seed, base: FitConfig):
    """Per-slice detection table for the seven-slice dynamic-phase volume."""
    dataset, maps, x = simulate_study_dataset("realistic", seed)
    rows = []
    for s in range(dataset.dims[0]):
        cfg = replace(base, n_parcels=REALISTIC_G,
                      sampler=SamplerConfig(psi=REALISTIC_PSI, seed=derive_seed(seed, 100 + s)))
        result = fit_dataset(dataset.slice_dataset(s), x, cfg)
        cls = classification_metrics(maps.slice_maps(s).active, result.maps.activation)
        rows.append([f"slice{s + 1}", cls.tp, cls.fp, cls.fn, cls.tn,
                     *("NA" if v is None else repr(v) for v in (cls.precision, cls.recall)),
                     repr(result.time_seconds)])
    return rows


def reproduce(study: str, n_replicates: int | None, seed: int, out_dir, workers=None):
    """Run simulate -> fit -> evaluate end to end and write the study report.

    ``study`` is one of iid, ar1, params, realistic. ``n_replicates`` defaults
    to ``DEFAULT_REPLICATES``; the realistic study fits its seven slices once
    and takes none. Returns the report rows.
    """
    if study not in ("iid", "ar1", "params", "realistic"):
        raise InvalidSpecError(f"unknown study {study!r}")
    if n_replicates is not None and n_replicates < 1:
        raise InvalidSpecError(f"replicates must be at least 1, got {n_replicates}")
    base = FitConfig(workers=workers)
    if study == "realistic" and n_replicates is not None:
        raise InvalidSpecError("the realistic study has no replicates")
    n_replicates = DEFAULT_REPLICATES if n_replicates is None else n_replicates
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if study in ("iid", "ar1"):
        rows = _replicate_rows(study, n_replicates, seed, base)
        write_report_csv(out / "report.csv", rows)
    elif study == "params":
        rows = _reproduce_params(n_replicates, seed, base)
        write_report_csv(out / "report.csv", rows,
                         columns=("setting",) + REPORT_COLUMNS, mean_row=False)
    else:
        rows = _reproduce_realistic(seed, base)
        write_report_csv(out / "report.csv", rows,
                         columns=("slice",) + REALISTIC_COLUMNS, mean_row=False)
    replicates = {} if study == "realistic" else {"replicates": n_replicates}
    dataio.write_keyvalues(out / "manifest.txt", {"study": study, **replicates, "seed": seed})
    return rows
