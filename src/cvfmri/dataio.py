"""File formats: binary complex time-series datasets, CSV maps, PGM previews,
and flat key = value config/manifest files.

Dataset files ("CVF1"):
    magic   4 bytes ASCII "CVF1"
    version u32 little-endian, currently 1
    ndim    u32 (2 or 3)
    dims    ndim x u32
    T       u32
    payload voxel-major (row-major over the grid), per voxel T pairs of
            little-endian IEEE-754 float64 (re, im); exactly V*T*16 bytes.

Map files are CSV with a leading "# dims: ..." comment line; 3-D maps store
their slices one after another, one grid row per CSV line. Values use the
shortest round-tripping float representation, so write -> read -> write is
byte-stable.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from .data import ComplexDataset
from .errors import DataFormatError, InvalidSpecError

__all__ = [
    "write_dataset",
    "read_dataset",
    "write_map",
    "read_map",
    "write_pgm",
    "write_keyvalues",
    "read_keyvalues",
]

_MAGIC = b"CVF1"
_VERSION = 1


def write_dataset(path, dataset: ComplexDataset) -> None:
    """Write a dataset in the CVF1 binary layout (bit-exact round trip)."""
    path = Path(path)
    dims = dataset.dims
    header = _MAGIC + struct.pack(
        f"<II{len(dims)}II", _VERSION, len(dims), *dims, dataset.n_time
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(dataset.data.astype("<c16", copy=False).tobytes())


def read_dataset(path) -> ComplexDataset:
    """Read a CVF1 file, validating magic, version, and payload size.

    The (re, im) float64 pairs are read as one little-endian complex128 array,
    so every bit of each sample, the sign of a zero included, survives.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(12)
        if len(head) < 12:
            raise DataFormatError(f"{path}: truncated header ({size} bytes)")
        if head[:4] != _MAGIC:
            raise DataFormatError(f"{path}: bad magic {head[:4]!r}, expected {_MAGIC!r}")
        version, ndim = struct.unpack_from("<II", head, 4)
        if version != _VERSION:
            raise DataFormatError(f"{path}: unsupported version {version}, expected {_VERSION}")
        if ndim not in (2, 3):
            raise DataFormatError(f"{path}: ndim must be 2 or 3, got {ndim}")
        shape = fh.read(4 * ndim + 4)
        if len(shape) < 4 * ndim + 4:
            raise DataFormatError(f"{path}: truncated header ({size} bytes)")
        *dims, n_time = struct.unpack(f"<{ndim}II", shape)
        if min(dims) < 1:
            raise DataFormatError(f"{path}: grid extents must be positive, got {tuple(dims)}")
        if n_time < 1:
            raise DataFormatError(f"{path}: series length T must be positive, got {n_time}")
        n_samples = math.prod(dims) * n_time
        expected = 12 + len(shape) + n_samples * 16
        if size != expected:
            raise DataFormatError(
                f"{path}: payload length mismatch, expected {expected} bytes, got {size}"
            )
        data = np.fromfile(fh, dtype="<c16", count=n_samples)
    return ComplexDataset(tuple(dims), data.reshape(*dims, n_time))


def _format_cell(v, as_int: bool) -> str:
    if as_int:
        return str(int(v))
    return repr(float(v))


def write_map(path, values: np.ndarray, integer: bool = False) -> None:
    """Write a 2-D or 3-D map as CSV (row-major, one value per cell)."""
    values = np.asarray(values)
    if values.ndim not in (2, 3):
        raise InvalidSpecError("maps must be 2-D or 3-D")
    rows = values.reshape(-1, values.shape[-1])
    lines = ["# dims: " + ",".join(str(d) for d in values.shape)]
    lines.extend(",".join(_format_cell(v, integer) for v in row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_lines(path) -> list:
    """The lines of a UTF-8 text file; undecodable bytes or a NUL are a format error."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None
    if "\0" in text:
        raise DataFormatError(f"{path}: not text (NUL at character {text.index(chr(0))})")
    return text.splitlines()


def read_map(path) -> np.ndarray:
    """Read a map CSV written by :func:`write_map`: after its ``# dims:``
    header, one line of dims[-1] cells per grid row, prod(dims[:-1]) lines."""
    path = Path(path)
    dims = None
    data_lines = []
    for lineno, line in enumerate(_read_lines(path), 1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped.lstrip("#").strip()
            if body.startswith("dims:"):
                try:
                    dims = tuple(int(t) for t in body[5:].split(","))
                except ValueError as exc:
                    raise DataFormatError(f"{path}: malformed '# dims:' header ({exc})") from None
            continue
        data_lines.append((lineno, stripped))
    if dims is None:
        raise DataFormatError(f"{path}: missing '# dims:' header")
    if len(dims) not in (2, 3):
        raise DataFormatError(f"{path}: a map has 2 or 3 dims, got {len(dims)}")
    if min(dims) < 1:
        raise DataFormatError(f"{path}: grid extents must be positive, got {dims}")
    n_rows, n_cols = math.prod(dims[:-1]), dims[-1]
    layout = f"expected {math.prod(dims)} cells for dims {dims}, {n_rows} line(s) of {n_cols}"
    for row, (lineno, line) in enumerate(data_lines):
        cells = line.count(",") + 1
        if row == n_rows or cells != n_cols:
            what = "is past the last row" if row == n_rows else f"holds {cells} cell(s)"
            raise DataFormatError(f"{path}: {layout}; line {lineno} {what}")
    if len(data_lines) < n_rows:
        raise DataFormatError(f"{path}: {layout}; got {len(data_lines)} line(s)")
    try:
        values = np.array([[float(tok) for tok in line.split(",")] for _, line in data_lines])
    except ValueError as exc:
        raise DataFormatError(f"{path}: unparseable cell ({exc})") from exc
    return values.reshape(dims)


def write_pgm(path, image: np.ndarray) -> None:
    """Write a 2-D uint8 image as binary PGM (P5, maxval 255)."""
    image = np.asarray(image)
    if image.ndim != 2:
        raise InvalidSpecError("PGM output requires a 2-D image")
    img = np.clip(np.round(image), 0, 255).astype(np.uint8)
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(img.tobytes())


def write_keyvalues(path, items: dict) -> None:
    """Write a flat 'key = value' file (one pair per line)."""
    lines = [f"{k} = {v}" for k, v in items.items()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_keyvalues(path) -> dict:
    """Parse a flat 'key = value' file; '#' starts a comment, blanks ignored.

    A key given twice is an error, not a silent override.
    """
    out = {}
    for raw in _read_lines(path):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataFormatError(f"{path}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in out:
            raise DataFormatError(f"{path}: key {key!r} is given more than once")
        out[key] = value.strip()
    return out
