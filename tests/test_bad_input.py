"""A seeded sweep of bad input through the CLI.

Each case writes its files, runs ``cvfmri.cli.main`` in this process and
checks the documented exit code: 2 for a bad setting, 3 for bad data or a bad
file, and 4 only for a numerically degenerate fit (a constant voxel). A
rejected command prints one ``error:`` line and no traceback (argparse's own
type errors print its usage first) and leaves no ``--out`` behind. The
mutations are drawn from one fixed seed, so every run checks the same cases.
Every case fits at most 40 sweeps on at most 2 workers.
"""

import math
import struct
from typing import NamedTuple

import numpy as np
import pytest

from cvfmri import cli

rng = np.random.default_rng(20261019)

DIMS, T = (6, 6), 40
V = math.prod(DIMS)
DATA = "{d}/data.cvf"
FIT = ("fit", "--data", DATA, "--out", "{d}/out", "--G", "1", "--iters", "40",
       "--workers", "1")
CONFIG = ("fit", "--config", "{d}/run.cfg", "--out", "{d}/out")
EVALUATE = ("evaluate", "--truth", "{d}/truth", "--result", "{d}/result", "--out", "{d}/out")
SIMULATE = ("simulate", "--study", "ar1", "--seed", "1", "--out", "{d}/out")


class Case(NamedTuple):
    id: str
    files: dict  # name under the case's directory -> bytes, "{d}" standing for it
    argv: tuple
    code: int
    message: str  # part of the error line; for argparse, of its last line


def samples(dims=DIMS, n_time=T):
    return rng.standard_normal(2 * math.prod(dims) * n_time)


def cvf1(dims=DIMS, n_time=T, values=None, magic=b"CVF1", version=1, ndim=None):
    """A CVF1 file with the given header fields, then ``values`` (random by default)."""
    ndim = len(dims) if ndim is None else ndim
    values = samples(dims, n_time) if values is None else values
    head = magic + struct.pack(f"<II{len(dims)}II", version, ndim, *dims, n_time)
    return head + np.asarray(values, dtype="<f8").tobytes()


def fit_case(id, data, flags, code, message):
    return Case(id, {"data.cvf": data}, FIT + tuple(flags), code, message)


def dataset_cases():
    good = cvf1()
    magic = b"CVF1"
    while magic == b"CVF1":
        magic = bytes(rng.integers(ord("A"), ord("Z") + 1, 4, dtype=np.uint8))
    yield fit_case("cvf1-magic", cvf1(magic=magic), (), 3, f"bad magic {magic!r}")
    for version in (0, int(rng.integers(2, 2**32))):
        yield fit_case(f"cvf1-version={version}", cvf1(version=version), (), 3,
                       f"unsupported version {version}")
    for ndim in (0, 1, 4, int(rng.integers(5, 2**32))):
        yield fit_case(f"cvf1-ndim={ndim}", cvf1(ndim=ndim), (), 3,
                       f"ndim must be 2 or 3, got {ndim}")
    for dims in ((0, 6), (6, 0), (4, 0, 4)):
        yield fit_case(f"cvf1-dims={dims}", cvf1(dims, values=()), (), 3,
                       "grid extents must be positive")
    yield fit_case("cvf1-dims=huge", cvf1((2**32 - 1, 2**32 - 1), values=()), (), 3,
                   "payload length mismatch")
    cut = int(rng.integers(0, 24))
    yield fit_case("cvf1-truncated-header", good[:cut], (), 3,
                   f"truncated header ({cut} bytes)")
    cut = int(rng.integers(25, len(good)))
    yield fit_case("cvf1-truncated-payload", good[:cut], (), 3,
                   f"expected {len(good)} bytes, got {cut}")
    extra = rng.bytes(int(rng.integers(1, 64)))
    yield fit_case("cvf1-extra-bytes", good + extra, (), 3,
                   f"expected {len(good)} bytes, got {len(good) + len(extra)}")
    for value in (np.nan, np.inf, -np.inf):
        values = samples()
        at = int(rng.integers(values.size))
        values[at] = value
        voxel, t = divmod(at // 2, T)
        yield fit_case(f"cvf1-sample={value}", cvf1(values=values), (), 3,
                       f"non-finite sample at voxel {voxel}, time index {t}")
    # finite samples past 1e75 would overflow the chain's slab term; a series
    # that reaches the bound fits without a warning (fixed samples, so the
    # seeded stream of the cases below does not move)
    wave = np.cos(np.arange(2 * V * T))
    for scale in (1e100, 1e160, 1e300):
        yield fit_case(f"cvf1-scale={scale:g}", cvf1(values=scale * wave), (), 3,
                       "sample at voxel 0, time index 0 exceeds 1e+75 in magnitude")
    yield fit_case("cvf1-scale=1e+75", cvf1(values=1e75 * wave), (), 0, "")
    yield fit_case("cvf1-T=0", cvf1(n_time=0), (), 3, "series length T must be positive")
    for n_time in (1, 2):
        yield fit_case(f"cvf1-T={n_time}", cvf1(n_time=n_time), (), 3,
                       f"{DATA}: series length T={n_time}; a chain needs at least 3 time points")
    for kind, constant in (("zero", 0.0), ("complex", complex(*rng.standard_normal(2)))):
        values = samples().view(complex).reshape(V, T)
        voxel = int(rng.integers(V))
        values[voxel] = constant
        yield fit_case(f"constant-voxel-{kind}", cvf1(values=values.view(float)), (), 4,
                       f"error: parcel 0: zero residual sum of squares at voxel {voxel}")
    yield Case("data-missing", {}, FIT, 3, "No such file or directory")
    yield Case("data-is-a-directory", {"data.cvf/x": b""}, FIT, 3, "Is a directory")
    # design settings that leave no regressor, and a parcel count whose basis is singular
    yield fit_case("warmup=T-1", good, ("--stimulus-warmup", str(T - 1)), 2,
                   "expected BOLD response has no positive peak")
    short = cvf1(n_time=3)
    yield fit_case("T=3-warmup=2", short, ("--stimulus-warmup", "2"), 2,
                   "expected BOLD response has no positive peak")
    # a design that opens with its off block is written as a warmup spanning
    # that block; at T=3 an off block of 5 leaves no room for the on block
    yield fit_case("T=3-off-first", short, ("--stimulus-warmup", "3", "--stimulus-off", "5"),
                   2, "warmup must lie in [0, n_time)")
    # a block past the run's end is cut to the run before it is used
    yield fit_case("off-first-off=10^12", good,
                   ("--stimulus-warmup", str(T - 1), f"--stimulus-off={10**12}"), 2,
                   "expected BOLD response has no positive peak")
    volume = cvf1((4, 4, 4))
    for workers in ("1", "2"):
        yield fit_case(f"4x4x4-G=8-workers={workers}", volume,
                       ("--G", "8", "--workers", workers), 2,
                       "error: parcel 0: M'QM is numerically singular; use fewer, larger parcels")
    # 1x5 strips at rank 5 take every eigenvector, the constant among them
    # (fixed samples, so the seeded stream of the cases below does not move)
    yield fit_case("1x10-G=2", cvf1((1, 10), values=np.cos(np.arange(2 * 10 * T))), ("--G", "2"), 2,
                   "error: parcel 0: M'QM is numerically singular; use fewer, larger parcels")
    # --out is checked before the (corrupt) dataset is read
    for id, out in (("out-is-a-file", "{d}/busy"), ("out-parent-is-a-file", "{d}/busy/out")):
        yield Case(id, {"data.cvf": good[:10], "busy": b""},
                   tuple(out if arg == "{d}/out" else arg for arg in FIT), 3,
                   f"error: --out {out}: {{d}}/busy exists and is not a directory")


def config_case(id, text, code, message):
    # ``text`` comes first, so byte offsets in the messages do not depend on {d}
    body = text + b"data = {d}/data.cvf\nG = 1\niters = 40\nworkers = 1\n"
    return Case(id, {"data.cvf": cvf1(), "run.cfg": body}, CONFIG, code, message)


def config_cases():
    for key in ("frobnicate", "out", "config", "trace_voxels", "iter", "mcse-tol", "Workers",
                "stimulus_onfirst"):
        yield config_case(f"config-unknown-{key}", f"{key} = 1\n".encode(), 2,
                          f"unknown config keys: [{key!r}]")
    yield config_case("config-repeated-key", f"G = {rng.integers(2, 9)}\n".encode(), 3,
                      "'G' is given more than once")
    # the key of the on-first flag is gone, whatever its value
    for word in ("ture", "2", ""):
        yield config_case(f"config-stimulus_on_first={word!r}",
                          f"stimulus_on_first = {word}\n".encode(), 2,
                          "unknown config keys: ['stimulus_on_first']")
    for key, value in (("seed", "four"), ("burn", "4.5"), ("stimulus_on", "1e3")):
        yield config_case(f"config-{key}={value}", f"{key} = {value}\n".encode(), 2,
                          f"config key {key}: invalid literal for int()")
    yield config_case("config-missing-=", b"mode spatial\n", 3,
                      "expected 'key = value', got 'mode spatial'")
    yield config_case("config-not-utf8", b"seed = 4\n\xff\xfe bad\n", 3,
                      "run.cfg: not UTF-8 text (byte 9: invalid start byte)")
    high = bytes([int(rng.integers(0x80, 0x100))])
    yield config_case(f"config-byte={high[0]:#x}", b"mode = spa" + high + b"tial\n", 3,
                      "run.cfg: not UTF-8 text (byte 10: ")
    yield config_case("config-nul", b"mode = spa\0tial\n", 3, "run.cfg: not text (NUL")
    yield Case("config-missing", {}, CONFIG, 3, "No such file or directory")
    yield Case("config-without-data", {"run.cfg": b"G = 1\n"}, CONFIG, 2, "no dataset given")


def flag_cases():
    negative = str(-int(rng.integers(1, 1000)))
    fraction = f"{-rng.random():.3f}"
    bad = {
        "--G": [("0", "number of parcels must be positive"), (negative, "must be positive"),
                (str(V + 1), f"cannot form {V + 1} parcels from {V} voxels"),
                ("7", "no factorization of G=7"),
                ("8", "the spatial basis rank 5 exceeds the smallest parcel")],
        "--workers": [("0", "workers must be at least 1, got 0"),
                      (negative, f"workers must be at least 1, got {negative}")],
        "--iters": [("0", "n_iter must be positive"), (negative, "n_iter must be positive"),
                    ("20", "kept draws; batch-means MCSE needs at least 16")],
        "--burn": [("-1", "n_burn must lie in [0, n_iter)"),
                   ("40", "n_burn must lie in [0, n_iter)")],
        "--threshold": [(v, "threshold must lie in (0, 1)")
                        for v in ("0", "1", "nan", "inf", fraction)],
        "--psi": [(v, "psi must be finite") for v in ("nan", "inf", "-inf")],
        "--mcse-tol": [(v, "mcse_tol must be positive and finite")
                       for v in ("0", fraction, "inf", "nan")],
        "--mode": [("bogus", "unknown sampler mode 'bogus'")],
        "--stimulus-on": [("0", "on-block must span"), (negative, "on-block must span")],
        "--stimulus-off": [(negative, "off-block length cannot be negative")],
        "--stimulus-warmup": [(v, "warmup must lie in [0, n_time)")
                              for v in ("-1", str(T), str(int(rng.integers(10**6, 10**12))))],
        "--trace-voxels": [("-1", "trace voxel -1 lies outside"),
                           (str(V), f"trace voxel {V} lies outside"),
                           ("x", "expected comma-separated integers"),
                           (",", "expected comma-separated integers")],
    }
    for flag, values in bad.items():
        for value, message in values:
            # "=" keeps a leading "-" from reading as a flag
            yield fit_case(f"{flag}={value}", cvf1(), (f"{flag}={value}",), 2, message)
    for flag, value, kind in (("--G", "2.5", "int"), ("--iters", "nan", "int"),
                              ("--psi", "x", "float")):
        yield Case(f"argparse{flag}={value}", {}, FIT + (flag, value), 2,
                   f"cvfmri fit: error: argument {flag}: invalid {kind} value: '{value}'")
    for value in ("0", negative, "1", "2"):
        yield Case(f"simulate--T={value}", {}, SIMULATE + (f"--T={value}",), 2,
                   f"T must be at least 3 (the fewest a chain takes), got {value}")
    for value in ("0", fraction, "nan", "inf"):
        yield Case(f"simulate--multiplier={value}", {}, SIMULATE + (f"--multiplier={value}",),
                   2, "magnitude multiplier must be positive and finite")
    for flag, value in (("--replicates", "0"), ("--replicates", negative), ("--workers", "0")):
        yield Case(f"reproduce{flag}={value}", {},
                   ("reproduce", "--study", "iid", "--out", "{d}/out", f"{flag}={value}"), 2,
                   f"{flag[2:]} must be at least 1, got {value}")


def csv_map(values) -> bytes:
    rows = "\n".join(",".join(repr(float(v)) for v in row) for row in values)
    return f"# dims: {','.join(map(str, values.shape))}\n{rows}\n".encode()


def evaluate_case(id, code, message, **maps):
    active = (rng.random((5, 5)) < 0.3).astype(float)
    files = {"truth/true_activation.csv": active, "truth/true_magnitude.csv": 2.0 * active,
             "result/activation.csv": active, "result/magnitude.csv": 2.0 * active,
             "result/incl_prob.csv": rng.random((5, 5))}
    files = {name: csv_map(values) for name, values in files.items()}
    files.update(maps)
    return Case(id, files, EVALUATE, code, message)


def evaluate_cases():
    yield evaluate_case("truth-not-utf8", 3, "true_activation.csv: not UTF-8 text (byte 12: ",
                        **{"truth/true_activation.csv": b"# dims: 1,2\n\xff,1\n"})
    for fill in (0.0, 1.0):
        yield evaluate_case(f"truth-all-{fill:.0f}", 0, "",
                            **{"truth/true_activation.csv": csv_map(np.full((5, 5), fill))})
    # an unreadable summary leaves time_seconds NA, as a missing one does
    yield evaluate_case("summary-not-utf8", 0, "", **{"result/summary.csv": b"\xff\xfe"})
    yield evaluate_case("result-shape", 2, "field shapes differ: (5, 5) vs (4, 5)",
                        **{"result/incl_prob.csv": csv_map(rng.random((4, 5)))})
    yield Case("truth-empty", {"truth/x/y": b"", "result/y": b""}, EVALUATE, 2,
               "has no result for truth replicate(s) x")
    # every map evaluation reads must be finite, and activation maps 0 or 1
    cell = tuple(int(i) for i in rng.integers(5, size=2))
    for name, value, text in (("result/incl_prob.csv", np.nan, b"nan"),
                              ("result/magnitude.csv", np.inf, b"inf"),
                              ("result/magnitude.csv", np.inf, b"1e400"),
                              ("truth/true_activation.csv", 2.0, b"2.0"),
                              ("result/activation.csv", 0.5, b"0.5")):
        binary = name.endswith("activation.csv")
        values = (rng.random((5, 5)) < 0.3).astype(float) if binary else rng.random((5, 5))
        values[cell] = 123.0
        expected = "0 or 1" if binary else "a finite value"
        yield evaluate_case(f"{name}-cell={text.decode()}", 3,
                            f"{name}: cell {cell} holds {value!r}, expected {expected}",
                            **{name: csv_map(values).replace(b"123.0", text)})


CASES = [*dataset_cases(), *config_cases(), *flag_cases(), *evaluate_cases()]


@pytest.mark.parametrize("case", CASES, ids=[case.id for case in CASES])
def test_bad_input_exits_with_its_documented_code(tmp_path, capsys, case):
    for name, content in case.files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(content.replace(b"{d}", str(tmp_path).encode()))
    argv = [arg.replace("{d}", str(tmp_path)) for arg in case.argv]
    try:
        code = cli.main(argv)
        argparse_usage = False
    except SystemExit as exc:  # argparse rejects a value its type cannot parse
        code, argparse_usage = exc.code, True
    err = capsys.readouterr().err
    message = case.message.replace("{d}", str(tmp_path))
    assert code == case.code, err
    assert "Traceback" not in err
    if argparse_usage:
        assert err.startswith("usage: cvfmri") and message in err.splitlines()[-1]
    elif code == 0:
        assert err == ""
    else:
        assert err.count("\n") == 1 and err.startswith("error: ") and message in err, err
    if code in (2, 3):
        assert not (tmp_path / "out").exists()


def test_only_a_constant_voxel_exits_4():
    assert [case.id for case in CASES if case.code == 4] == [
        "constant-voxel-zero", "constant-voxel-complex"]
