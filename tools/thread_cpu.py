"""Fail when a one-worker fit burns CPU on threads other than its main one.

Usage: python3 tools/thread_cpu.py

A BLAS call on an array that grows with the parcel wakes the library's
helper threads, which then spin on the CPUs that the sweeps or the pool's
workers need; the parcel stage therefore forms its products with
``np.einsum`` on the calling thread. This tool guards that. It fits a
realistic slice (96x96, T=490, seed 100, psi = ndtri(0.11), the realistic
stimulus) at G=49 with one worker through ``cvfmri fit``, in this process,
and reads the CPU time of this process's threads other than the main one:
``RUSAGE_SELF`` minus ``time.thread_time()``. A producer process that the
engine forks to draw blocks ahead is a child, so ``RUSAGE_SELF`` leaves it
out. Each reading starts once the OpenBLAS threads have stopped spinning
(they busy-wait for a while after the library loads and after each threaded
call) and ends once they have stopped again.

A positive control runs every time: the same fit with ``_ParcelStats``
forming its per-voxel products with ``@``, the regression the gate is there
to catch. It must read at least the limit too, or the gate is blind here and
the tool fails.

Exit status 0 when the fit reads below ``LIMIT_S`` seconds and the control
at or above it, 1 otherwise. Nothing is written outside a temporary
directory.
"""

from __future__ import annotations

import contextlib
import io
import resource
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from scipy.special import ndtri  # noqa: E402

from cvfmri import cli, dataio, sampler  # noqa: E402
from cvfmri.data import ComplexDataset  # noqa: E402
from cvfmri.simulate import simulate_realistic  # noqa: E402

#: CPU seconds on other threads at which a fit fails the gate.
LIMIT_S = 0.05
FIT = ["--G", "49", "--workers", "1", "--seed", "7", "--iters", "1000",
       "--psi", repr(float(ndtri(0.11))), "--stimulus-on", "15", "--stimulus-off", "15",
       "--stimulus-warmup", "10"]


def other_threads_cpu() -> float:
    """CPU seconds of this process's threads other than the calling one."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    return own.ru_utime + own.ru_stime - time.thread_time()


def settled() -> float:
    """``other_threads_cpu()`` once it has stopped growing: less than 1 ms
    over 50 ms, or after 5 s."""
    last = other_threads_cpu()
    for _ in range(100):
        time.sleep(0.05)
        now = other_threads_cpu()
        if now - last < 1e-3:
            return now
        last = now
    return last


class MatmulStats(sampler._ParcelStats):
    """``_ParcelStats`` with its per-voxel products formed by ``@``."""

    def fill(self, lo, y):
        super().fill(lo, y)
        xn, xl, yn, yl = self.xn, self.xl, y[:, 1:], y[:, :-1]
        at = slice(lo, lo + len(y))
        self.a1[at], self.a2[at], self.a3[at], self.a4[at] = yn @ xn, yn @ xl, yl @ xn, yl @ xl


def fit_cpu(data: Path, out: Path) -> float:
    """Other-thread CPU seconds of one ``cvfmri fit`` of ``data``."""
    start = settled()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["fit", "--data", str(data), "--out", str(out), *FIT])
    if code != 0:
        raise SystemExit(f"cvfmri fit exited {code}")
    return settled() - start


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="thread_cpu_") as tmp:
        volume, _ = simulate_realistic(100, n_slices=1, taper=(1.0,))
        data = Path(tmp) / "slice.cvf"
        dataio.write_dataset(data, ComplexDataset(volume.dims[1:], volume.data[0]))
        fit = fit_cpu(data, Path(tmp) / "fit")
        einsum_stats, sampler._ParcelStats = sampler._ParcelStats, MatmulStats
        try:
            control = fit_cpu(data, Path(tmp) / "control")
        finally:
            sampler._ParcelStats = einsum_stats
    print(f"one-worker realistic-slice fit: {fit:.3f} s of CPU on other threads "
          f"(limit {LIMIT_S} s)")
    print(f"control, the fit with @ in _ParcelStats: {control:.3f} s")
    if control < LIMIT_S:
        print("FAILED: the control reads below the limit, so the gate cannot see "
              "helper threads here", file=sys.stderr)
        return 1
    if fit >= LIMIT_S:
        print("FAILED: the fit burns CPU on threads other than its main one", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
