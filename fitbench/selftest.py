"""Self-test of the output checker: it must pass a real fit and reject
corrupted copies of it.

    python3 fitbench/selftest.py

Runs one small ``cvfmri fit`` (16x16, T=60, one parcel, 200 sweeps), checks
that the checker accepts it, then corrupts copies of its outputs one way at a
time and checks that each is rejected. Exits 0 when every case behaves.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import checker

ROOT = Path(__file__).resolve().parent.parent


def edit_cell(path: Path, row: int, col: int, value: str) -> None:
    """Replace one CSV cell of a map (row 0 is the first grid row)."""
    lines = path.read_text().splitlines()
    cells = lines[1 + row].split(",")
    cells[col] = value
    lines[1 + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from cvfmri import cli, dataio
    from cvfmri.design import design_for_length
    from cvfmri.simulate import NoiseSpec, RegionSpec, SignalSpec, generate_true_maps, simulate_iid

    runs = Path(__file__).resolve().parent / "_runs"
    runs.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=runs))
    try:
        maps = generate_true_maps((16, 16), [RegionSpec((8, 8), 3.0)], multiplier=0.05)
        data = simulate_iid(maps, design_for_length(60), SignalSpec(),
                            NoiseSpec("iid", sigma=0.02), seed=5)
        cvf = work / "input.cvf"
        dataio.write_dataset(cvf, data)
        good = work / "good"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["fit", "--data", str(cvf), "--out", str(good), "--G", "1",
                             "--iters", "200", "--workers", "1", "--seed", "3"])
        dims = maps.active.shape
        failures = []

        def expect(name, problems, rejected):
            ok = bool(problems) == rejected
            print(f"{'ok  ' if ok else 'FAIL'} {name}: {problems or 'accepted'}")
            if not ok:
                failures.append(name)

        expect("clean output", [f"exit code {code}"] if code else checker.check_outputs(good, dims),
               rejected=False)
        expect("clean round trip", checker.check_roundtrip(cvf, data.data), rejected=False)
        act = checker.read_map(good / "activation.csv")
        inactive = np.argwhere(act == 0)[0]
        if not np.any(act == 1):
            failures.append("clean fit found no active voxel to corrupt")

        flipped = work / "flipped"
        shutil.copytree(good, flipped)
        r, c = np.argwhere(act == 1)[0]
        edit_cell(flipped / "activation.csv", r, c, "0")
        expect("one activation flipped", checker.check_outputs(flipped, dims), rejected=True)

        phased = work / "phased"
        shutil.copytree(good, phased)
        edit_cell(phased / "phase.csv", *inactive, "0.5")
        expect("phase on an inactive voxel", checker.check_outputs(phased, dims), rejected=True)

        pooled = work / "pooled"
        shutil.copytree(good, pooled)
        raw = bytearray((pooled / "magnitude.csv").read_bytes())
        digit = len(raw) - 2  # last digit of the last cell
        raw[digit] = ord("1") if raw[digit] != ord("1") else ord("2")
        (pooled / "magnitude.csv").write_bytes(bytes(raw))
        expect("two-worker map one byte off", checker.check_identical(good, pooled),
               rejected=True)

        raw = bytearray(cvf.read_bytes())
        raw[-1] ^= 1
        (work / "bad.cvf").write_bytes(bytes(raw))
        expect("CVF1 payload one bit off", checker.check_roundtrip(work / "bad.cvf", data.data),
               rejected=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("checker self-test", "FAILED: " + ", ".join(failures) if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
