"""Output checks and detection quality for one ``cvfmri fit`` run.

Everything here reads the files the CLI wrote with the benchmark's own
parsers and computes quality with its own code, so a fault in the program's
readers or metric suite cannot hide a fault in its fits. Each check returns a
list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

#: Map files whose bytes depend only on (data, config, seed). summary.csv and
#: manifest.txt also record wall time and worker count, so they are left out
#: of the worker-count comparison.
DATA_FILES = (
    "activation.csv",
    "magnitude.csv",
    "phase.csv",
    "incl_prob.csv",
    "mcse.csv",
    "activation.pgm",
    "magnitude.pgm",
)

#: Acceptance floors of the repository (criteria 1 and 5), applied to the
#: mean quality over a run's replicate datasets.
AR1_FLOORS = {"f1": 0.85, "auc": 0.96}
REALISTIC_FLOORS = {"precision": 0.95, "recall": 0.5}


def read_map(path) -> np.ndarray:
    """Parse a map CSV: a '# dims: ...' line, then one grid row per line."""
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("# dims:"):
        raise ValueError(f"{path}: missing '# dims:' header")
    dims = tuple(int(t) for t in lines[0][len("# dims:"):].split(","))
    rows = [[float(tok) for tok in line.split(",")] for line in lines[1:] if line]
    return np.array(rows, dtype=float).reshape(dims)


def read_cvf(path) -> tuple[tuple, np.ndarray]:
    """Parse a CVF1 file into (dims, float64 array of shape (V, T, 2))."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"CVF1":
        raise ValueError(f"{path}: bad magic {raw[:4]!r}")
    header = np.frombuffer(raw, dtype="<u4", count=2, offset=4)
    ndim = int(header[1])
    fields = np.frombuffer(raw, dtype="<u4", count=ndim + 1, offset=12)
    dims, n_time = tuple(int(d) for d in fields[:ndim]), int(fields[ndim])
    payload = np.frombuffer(raw, dtype="<f8", offset=12 + 4 * (ndim + 1))
    return dims, payload.reshape(int(np.prod(dims)), n_time, 2)


def read_manifest(path) -> dict:
    items = {}
    for line in Path(path).read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep:
            items[key.strip()] = value.strip()
    return items


def check_roundtrip(path, data: np.ndarray) -> list[str]:
    """The CVF1 file must read back bit for bit equal to the generated array."""
    dims, payload = read_cvf(path)
    if dims != data.shape[:-1]:
        return [f"CVF1 dims {dims} differ from generated {data.shape[:-1]}"]
    flat = data.reshape(-1, data.shape[-1])
    same = (
        payload[..., 0].tobytes() == np.ascontiguousarray(flat.real).tobytes()
        and payload[..., 1].tobytes() == np.ascontiguousarray(flat.imag).tobytes()
    )
    return [] if same else ["CVF1 payload does not read back bit for bit"]


def check_outputs(out_dir, dims) -> list[str]:
    """Properties every fit output must have, whatever the data.

    The CLI exit code is checked by the caller: a fit that exits non-zero
    counts as failed and leaves no outputs to check.
    """
    out = Path(out_dir)
    maps = {name: read_map(out / f"{name}.csv")
            for name in ("activation", "magnitude", "phase", "incl_prob", "mcse")}
    problems = [f"{name}.csv has shape {m.shape}, expected {tuple(dims)}"
                for name, m in maps.items() if m.shape != tuple(dims)]
    if problems:
        return problems
    threshold = float(read_manifest(out / "manifest.txt")["threshold"])
    incl, act, phase = maps["incl_prob"], maps["activation"], maps["phase"]
    if not np.all(np.isfinite(incl)) or incl.min() < 0.0 or incl.max() > 1.0:
        problems.append("incl_prob is not finite and within [0, 1]")
    if not np.array_equal(act, (incl > threshold).astype(float)):
        bad = int(np.sum(act != (incl > threshold)))
        problems.append(f"activation differs from incl_prob > {threshold} at {bad} voxel(s)")
    active = act == 1
    if not np.array_equal(np.isnan(phase), ~active):
        problems.append("phase is not NaN exactly off the active set")
    on = phase[active & ~np.isnan(phase)]
    if on.size and (on.min() <= -math.pi or on.max() > math.pi):
        problems.append("phase on the active set leaves (-pi, pi]")
    for name in ("magnitude", "mcse"):
        m = maps[name]
        if not np.all(np.isfinite(m)) or m.min() < 0.0:
            problems.append(f"{name} is not finite and >= 0")
    return problems


def check_identical(dir_a, dir_b) -> list[str]:
    """The data outputs of two fits of the same input must be byte-identical."""
    return [f"{name} differs between {Path(dir_a).name} and {Path(dir_b).name}"
            for name in DATA_FILES
            if (Path(dir_a) / name).read_bytes() != (Path(dir_b) / name).read_bytes()]


def _auc(truth: np.ndarray, score: np.ndarray) -> float:
    """Mann-Whitney ROC-AUC with average ranks for ties."""
    _, inverse, counts = np.unique(score, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    n_pos = int(truth.sum())
    n_neg = truth.size - n_pos
    return float((ranks[truth].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def _ccc(x: np.ndarray, y: np.ndarray) -> float:
    """Lin's concordance correlation coefficient (population moments)."""
    cov = np.mean((x - x.mean()) * (y - y.mean()))
    return float(2.0 * cov / (x.var() + y.var() + (x.mean() - y.mean()) ** 2))


def quality(out_dir, true_active: np.ndarray, true_magnitude: np.ndarray) -> dict:
    """Detection and estimation quality of one fit against the simulated truth."""
    out = Path(out_dir)
    truth = np.asarray(true_active).ravel() == 1
    act = read_map(out / "activation.csv").ravel() == 1
    tp = int(np.sum(act & truth))
    fp = int(np.sum(act & ~truth))
    fn = int(np.sum(~act & truth))
    return {
        "precision": tp / (tp + fp) if tp + fp else 0.0,
        "recall": tp / (tp + fn),
        "f1": 2.0 * tp / (2.0 * tp + fp + fn),
        "auc": _auc(truth, read_map(out / "incl_prob.csv").ravel()),
        "magnitude_ccc": _ccc(np.asarray(true_magnitude, dtype=float).ravel(),
                              read_map(out / "magnitude.csv").ravel()),
    }


def check_floors(q: dict, floors: dict) -> list[str]:
    return [f"{name} = {q[name]:.4f} is below the floor {floor}"
            for name, floor in floors.items() if q[name] < floor]
