"""Run one ``cvfmri fit`` in this fresh process and report what it cost.

Usage: python3 fitproc.py <src dir> <0|1 trace> <cvfmri fit arguments...>

The import of ``cvfmri.cli`` is timed on its own, as the set-up every
``cvfmri`` command pays; the fit's clock starts after it. The last line of
standard output is a JSON object: the import seconds, the CLI exit code, the
wall and CPU seconds of ``cvfmri.cli.main`` (CPU counts every thread of this
process plus the worker processes it waited for), the high-water RSS of this
process and its workers, and, when tracing, the per-layer spans and counts.

Tracing wraps, from here, the functions the CLI and the pipeline look up at
call time (``dataio.*`` through the module, the parcellation and sampler
names that ``cvfmri.pipeline`` imported). Nothing in the package changes.
Spans recorded in pool workers would be lost, so a traced fit uses one worker.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import resource
import sys
import time
import tracemalloc
from collections import defaultdict


def install_tracing(spans: dict, counts: dict) -> None:
    from cvfmri import dataio, pipeline

    def wrap(module, name, key, after=None):
        fn = getattr(module, name)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            spans[key] += time.perf_counter() - start
            if after is not None:
                after(out, *args)
            return out

        setattr(module, name, timed)

    read_dataset = dataio.read_dataset

    def traced_read(path):
        tracemalloc.start()
        start = time.perf_counter()
        try:
            return read_dataset(path)
        finally:
            spans["dataio.read"] += time.perf_counter() - start
            counts["read_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()

    dataio.read_dataset = traced_read
    for name in ("write_map", "write_pgm", "write_keyvalues"):
        wrap(dataio, name, "dataio.write")

    def after_partition(partition, *_):
        sizes = [len(v) for v in partition.parcel_voxel_lists]
        # dense int8 adjacency plus float64 Laplacian of the largest parcel
        counts["dense_bytes"] = max(sizes) ** 2 * (1 + 8)

    def after_chain(summary, y, basis, x, cfg, *_):
        counts["parcels"] += 1
        counts["parcel_sweeps"] += cfg.n_iter
        counts["voxel_sweeps"] += y.shape[0] * cfg.n_iter
        # what a pool pickles per job: the parcel series, voxel ids, regressor
        counts["job_bytes"] += y.nbytes + y.shape[0] * 8 + x.nbytes
        counts["unconverged"] += int(not summary.converged)
        counts["max_mcse"] = max(counts["max_mcse"], float(summary.mcse.max()))

    wrap(pipeline, "fit_dataset", "pipeline.fit_dataset")
    wrap(pipeline, "partition_grid", "parcellation.partition", after_partition)
    wrap(pipeline, "build_adjacency", "parcellation.adjacency")
    wrap(pipeline, "build_spatial_basis", "parcellation.basis")
    wrap(pipeline, "run_parcel_chain", "sampler.chain", after_chain)
    wrap(pipeline, "summarize", "sampler.stitch")
    wrap(pipeline, "stitch_voxel_field", "sampler.stitch")


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(argv) -> int:
    src, trace, fit_args = argv[0], argv[1] == "1", argv[2:]
    sys.path.insert(0, src)
    start = time.perf_counter()
    import cvfmri.cli
    import_s = time.perf_counter() - start

    spans, counts = defaultdict(float), defaultdict(float)
    if trace:
        install_tracing(spans, counts)
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cvfmri.cli.main(["fit", *fit_args])
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    print(json.dumps({"import_s": import_s, "exit": code, "wall_s": wall, "cpu_s": cpu,
                      "peak_rss_mb": peak_kib / 1024.0,
                      "spans": spans, "counts": counts}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
