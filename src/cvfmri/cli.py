"""Command-line interface.

Subcommands: simulate, fit, evaluate, reproduce. Every fit setting is both a
flag and a key of a flat "key = value" config file (# comments allowed, each
key at most once): ``data``, ``G``, ``workers``, ``psi``, ``iters``,
``burn``, ``threshold``, ``mode``, ``seed``, ``mcse_tol``, ``stimulus_on``,
``stimulus_off`` and ``stimulus_warmup``. A flag is the key with ``_``
written as ``-`` (``--mcse-tol``), and explicit flags override the file.
A setting given nowhere takes the default of
:class:`~cvfmri.pipeline.FitConfig`, :class:`~cvfmri.sampler.SamplerConfig` or
:func:`~cvfmri.design.design_for_length`. ``--trace-voxels`` is a flag only.

Exit codes: 0 success; 2 a bad setting; 3 bad data or a bad file; 4 a
numerically degenerate fit (a constant voxel); 1 anything unexpected. Each
error type of :mod:`cvfmri.errors` carries its code as ``exit_code``.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path

from . import dataio, pipeline
from .design import design_for_length
from .errors import CvfmriError, InsufficientDataError, InvalidSpecError
from .sampler import SamplerConfig
from .simulate import DEFAULT_MULTIPLIER

#: Every fit setting, by flag and config-file name: the config class or
#: function that takes it, the field or parameter it sets there, its coercion
#: from text, and its help. ``data`` has no target; it names the file to fit.
_FIT_SETTINGS = {
    "data": (None, "data", str, "CVF1 dataset file"),
    "G": (pipeline.FitConfig, "n_parcels", int, "number of parcels"),
    "workers": (pipeline.FitConfig, "workers", int, None),
    "psi": (SamplerConfig, "psi", float, "probit prior offset"),
    "iters": (SamplerConfig, "n_iter", int, None),
    "burn": (SamplerConfig, "n_burn", int, None),
    "threshold": (SamplerConfig, "threshold", float, None),
    "mode": (SamplerConfig, "mode", str, "spatial or nonspatial"),
    "seed": (SamplerConfig, "seed", int, None),
    "mcse_tol": (SamplerConfig, "mcse_tol", float, None),
    "stimulus_on": (design_for_length, "on_len", int, None),
    "stimulus_off": (design_for_length, "off_len", int, None),
    "stimulus_warmup": (design_for_length, "warmup", int, None),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvfmri",
        description="Bayesian activation mapping for complex-valued fMRI time series",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic dataset with ground truth")
    sim.add_argument("--study", required=True, choices=["iid", "ar1", "realistic"])
    sim.add_argument("--seed", required=True, type=int)
    sim.add_argument("--out", required=True)
    sim.add_argument("--T", type=int, help="time points (iid/ar1 studies; default 200)")
    sim.add_argument("--multiplier", type=float,
                     help="peak magnitude of the true maps (iid/ar1 studies; "
                          f"default {DEFAULT_MULTIPLIER})")

    fit = sub.add_parser("fit", help="fit a dataset and write result maps")
    fit.add_argument("--config", help="flat key = value config file")
    fit.add_argument("--out", required=True)
    for name, (_, _, coerce, text) in _FIT_SETTINGS.items():
        fit.add_argument("--" + name.replace("_", "-"), dest=name, type=coerce, help=text)
    fit.add_argument("--trace-voxels", dest="trace_voxels",
                     help="comma-separated flat voxel indices to trace")

    ev = sub.add_parser("evaluate", help="compare result maps against ground truth")
    ev.add_argument("--truth", required=True)
    ev.add_argument("--result", required=True)
    ev.add_argument("--out", required=True)

    rep = sub.add_parser("reproduce", help="run a full simulation study")
    rep.add_argument("--study", required=True,
                     choices=["iid", "ar1", "params", "realistic"])
    rep.add_argument("--replicates", type=int,
                     help="replicates (iid/ar1/params studies; "
                          f"default {pipeline.DEFAULT_REPLICATES})")
    rep.add_argument("--seed", type=int, default=20260101)
    rep.add_argument("--out", required=True)
    rep.add_argument("--workers", type=int)
    return parser


def _cmd_simulate(args) -> int:
    dataset, maps, _ = pipeline.simulate_study_dataset(
        args.study, args.seed, n_time=args.T, multiplier=args.multiplier
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataio.write_dataset(out / "dataset.cvf", dataset)
    dataio.write_map(out / "true_activation.csv", maps.active, integer=True)
    dataio.write_map(out / "true_magnitude.csv", maps.magnitude)
    manifest = {
        "study": args.study,
        "seed": args.seed,
        "T": dataset.n_time,
        "dims": ",".join(str(d) for d in dataset.dims),
    }
    if args.study != "realistic":
        manifest["multiplier"] = DEFAULT_MULTIPLIER if args.multiplier is None else args.multiplier
    dataio.write_keyvalues(out / "manifest.txt", manifest)
    print(f"wrote {out / 'dataset.cvf'} ({dataset.n_voxels} voxels, T={dataset.n_time})")
    return 0


def _fit_settings(args) -> dict:
    """The fit settings given in the config file or as flags; flags win."""
    settings = {}
    if args.config:
        raw = dataio.read_keyvalues(args.config)
        unknown = set(raw) - set(_FIT_SETTINGS)
        if unknown:
            raise InvalidSpecError(f"unknown config keys: {sorted(unknown)}")
        for key, value in raw.items():
            try:
                settings[key] = _FIT_SETTINGS[key][2](value)
            except ValueError as exc:
                raise InvalidSpecError(f"config key {key}: {exc}") from None
    for key in _FIT_SETTINGS:
        value = getattr(args, key)
        if value is not None:
            settings[key] = value
    if not settings.get("data"):
        raise InvalidSpecError("no dataset given (use --data or the config file)")
    return settings


def _trace_voxels(text) -> tuple:
    if not text:
        return ()
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise InvalidSpecError(
            f"--trace-voxels: expected comma-separated integers, got {text!r}"
        ) from None


def _cmd_fit(args) -> int:
    out = Path(args.out)
    for path in (out, *out.parents):
        if path.exists() and not path.is_dir():
            raise NotADirectoryError(f"--out {out}: {path} exists and is not a directory")
    kwargs = {target: {} for target, *_ in _FIT_SETTINGS.values()}
    for name, value in _fit_settings(args).items():
        target, param, *_ = _FIT_SETTINGS[name]
        kwargs[target][param] = value
    cfg = pipeline.FitConfig(
        **kwargs[pipeline.FitConfig],
        trace_voxels=_trace_voxels(args.trace_voxels),
        sampler=SamplerConfig(**kwargs[SamplerConfig]),
    )
    data = kwargs[None]["data"]
    dataset = dataio.read_dataset(data)
    if dataset.n_time < 3:
        raise InsufficientDataError(
            f"{data}: series length T={dataset.n_time}; a chain needs at least 3 time points")
    stimulus = kwargs[design_for_length]
    x = design_for_length(dataset.n_time, **stimulus)
    result = pipeline.fit_dataset(dataset, x, cfg)
    defaults = inspect.signature(design_for_length).parameters
    manifest = {"data": data}
    for name, (target, param, *_) in _FIT_SETTINGS.items():
        if target is design_for_length:
            manifest[name] = stimulus.get(param, defaults[param].default)
    pipeline.write_fit_outputs(result, args.out, extra_manifest=manifest)
    status = "converged"
    if not result.converged:
        ids = result.unconverged_parcels
        more = f" and {len(ids) - 10} more" if len(ids) > 10 else ""
        status = ("NOT converged (max MCSE above tolerance in parcel(s) "
                  f"{', '.join(map(str, ids[:10]))}{more})")
    print(f"fit finished in {result.time_seconds:.2f}s, {status}; outputs in {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    rows = pipeline.evaluate_dirs(args.truth, args.result)
    pipeline.write_report_csv(args.out, rows)
    print(f"wrote {args.out} ({len(rows)} dataset row(s) + mean)")
    return 0


def _cmd_reproduce(args) -> int:
    rows = pipeline.reproduce(
        args.study, args.replicates, args.seed, args.out, workers=args.workers
    )
    print(f"study {args.study}: {len(rows)} report row(s) in {Path(args.out) / 'report.csv'}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "evaluate": _cmd_evaluate,
    "reproduce": _cmd_reproduce,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except CvfmriError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
