"""Fit fixed cases and print two sha256 digests of each fit's data outputs.

Usage: python3 tools/fit_digests.py [--workers N]

Each case is simulated, written as a CVF1 file in a temporary directory and
fitted through ``cvfmri fit`` with fit seed 7, 1000 sweeps and trace voxels
0, 77, 1300 and 77 (listed twice). Every output file except ``summary.csv``
and ``manifest.txt``, which record the wall time and the worker count, falls
in one of two groups, and each group's digest covers the name and bytes of
its files:

- ``decisions``: ``activation.csv``, ``incl_prob.csv``, ``mcse.csv`` and the
  activation PGMs, which follow from the chain's gamma draws alone;
- ``values``: ``magnitude.csv``, ``phase.csv``, the magnitude PGMs and the
  trace CSVs, which also carry the floats of beta, rho and sigma^2.

A change that moves the floats by rounding alone (another summation order,
an equivalent formula) moves only the ``values`` line as long as every
gamma draw stays the same. An output file in neither group stops the tool.
Fits are deterministic and do not depend on the worker count, so two runs
print the same lines at any ``--workers``, and a change that keeps every
line keeps every map bit for bit. ``tools/fit_digests.txt`` records the
lines of the current code, and CI diffs the ``--workers 1`` output against
it; a change that alters the outputs on purpose updates that file. The cases:

- ``ar1-g1``, ``ar1-g49``: the ar1 study's dataset of seed 100 (50x50, T=200)
  at G=1 and G=49;
- ``ar1-g9-nonspatial``: the same dataset at G=9 in nonspatial mode;
- ``realistic-g49``: a one-slice realistic volume (96x96, T=490, seed 100)
  at G=49 with psi = ndtri(0.11) and the realistic stimulus;
- ``volume-g8``: a 5x20x20 volume with T=60 and one active sphere across
  slices 0 to 4, at G=8; voxel 1300 lies in slice 3.

Nothing is written outside the temporary directory.
"""

from __future__ import annotations

import argparse
import contextlib
import fnmatch
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from scipy.special import ndtri  # noqa: E402

from cvfmri import cli, dataio, pipeline  # noqa: E402
from cvfmri.data import ComplexDataset  # noqa: E402
from cvfmri.design import design_for_length  # noqa: E402
from cvfmri.simulate import (  # noqa: E402
    NoiseSpec,
    RegionSpec,
    SignalSpec,
    generate_true_maps,
    simulate_iid,
    simulate_realistic,
)

COMMON = ["--seed", "7", "--iters", "1000", "--trace-voxels", "0,77,1300,77"]
REALISTIC = ["--psi", repr(float(ndtri(0.11))), "--stimulus-on", "15", "--stimulus-off", "15",
             "--stimulus-warmup", "10"]
UNDIGESTED = {"summary.csv", "manifest.txt"}
#: digest group -> the file name patterns it covers
GROUPS = {
    "decisions": ("activation.csv", "incl_prob.csv", "mcse.csv", "activation*.pgm"),
    "values": ("magnitude.csv", "phase.csv", "magnitude*.pgm", "trace_voxel*.csv"),
}


def ar1_dataset():
    return pipeline.simulate_study_dataset("ar1", 100)[0]


def realistic_slice():
    volume, _ = simulate_realistic(100, n_slices=1, taper=(1.0,))
    return ComplexDataset(volume.dims[1:], volume.data[0])


def small_volume():
    dims = (5, 20, 20)
    maps = generate_true_maps(dims, [RegionSpec((2, 10, 10), 2.0)], 0.15)
    return simulate_iid(maps, design_for_length(60), SignalSpec(beta0=0.5),
                        NoiseSpec("iid", sigma=0.05), 8)


#: name -> (dataset maker, extra fit arguments)
CASES = {
    "ar1-g1": (ar1_dataset, ["--G", "1"]),
    "ar1-g49": (ar1_dataset, ["--G", "49"]),
    "ar1-g9-nonspatial": (ar1_dataset, ["--G", "9", "--mode", "nonspatial"]),
    "realistic-g49": (realistic_slice, ["--G", "49", *REALISTIC]),
    "volume-g8": (small_volume, ["--G", "8"]),
}


def group_of(name: str) -> str:
    """The digest group of an output file; a file in none or both is an error."""
    groups = [g for g, patterns in GROUPS.items()
              if any(fnmatch.fnmatchcase(name, p) for p in patterns)]
    if len(groups) != 1:
        raise ValueError(f"output {name} falls in {len(groups)} digest groups, not one")
    return groups[0]


def digests(out: Path) -> dict:
    """Each group's sha256 over the names and bytes of its files, in name order."""
    hashes = {g: hashlib.sha256() for g in GROUPS}
    for path in sorted(out.iterdir()):
        if path.name not in UNDIGESTED:
            h = hashes[group_of(path.name)]
            h.update(path.name.encode() + b"\0")
            h.update(path.read_bytes())
    return {g: h.hexdigest() for g, h in hashes.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="fit_digests_") as tmp:
        for name, (make, extra) in CASES.items():
            data, out = Path(tmp) / f"{name}.cvf", Path(tmp) / name
            dataio.write_dataset(data, make())
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["fit", "--data", str(data), "--out", str(out),
                                 "--workers", str(args.workers), *COMMON, *extra])
            if code != 0:
                print(f"{name}: cvfmri fit exited {code}", file=sys.stderr)
                return 1
            for group, value in digests(out).items():
                print(f"{value}  {name} {group}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
