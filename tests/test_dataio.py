"""File formats: CVF1 datasets, CSV maps, PGM, key = value files."""

import re
import struct

import numpy as np
import pytest

from cvfmri.data import ComplexDataset
from cvfmri.dataio import (
    read_dataset,
    read_keyvalues,
    read_map,
    write_dataset,
    write_keyvalues,
    write_map,
    write_pgm,
)
from cvfmri.errors import DataFormatError

LAYOUT_2x3 = "expected 6 cells for dims (2, 3), 2 line(s) of 3"


def random_dataset(rng, dims=(3, 4), n_time=5):
    data = rng.standard_normal((*dims, n_time)) + 1j * rng.standard_normal((*dims, n_time))
    return ComplexDataset(dims, data)


class TestDatasetFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        for dims in ((3, 4), (2, 3, 4)):
            ds = random_dataset(rng, dims)
            path = tmp_path / "d.cvf"
            write_dataset(path, ds)
            back = read_dataset(path)
            assert back.dims == ds.dims
            assert np.array_equal(back.data, ds.data)

    def test_round_trip_keeps_signed_zeros(self, tmp_path):
        data = np.zeros((2, 2, 3), dtype=np.complex128)
        data.real = [[[0.0, -0.0, 1.5]] * 2] * 2
        data.imag = [[[-0.0, 0.0, -0.0], [0.0, -0.0, -2.5]]] * 2
        path = tmp_path / "zeros.cvf"
        write_dataset(path, ComplexDataset((2, 2), data))
        back = read_dataset(path)
        assert np.signbit(back.data.imag).tolist() == np.signbit(data.imag).tolist()
        again = tmp_path / "again.cvf"
        write_dataset(again, back)
        assert again.read_bytes() == path.read_bytes()

    def test_file_size_formula(self, tmp_path):
        ds = ComplexDataset((1, 1), np.array([[[1 + 2j, 3 + 4j]]]))
        path = tmp_path / "tiny.cvf"
        write_dataset(path, ds)
        header = 4 + 4 + 4 + 4 * 2 + 4
        assert path.stat().st_size == header + 32

    def test_truncated_payload(self, tmp_path):
        ds = random_dataset(np.random.default_rng(2))
        path = tmp_path / "d.cvf"
        write_dataset(path, ds)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(DataFormatError, match="expected .* bytes"):
            read_dataset(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.cvf"
        path.write_bytes(b"NOPE" + bytes(40))
        with pytest.raises(DataFormatError, match="magic"):
            read_dataset(path)

    def test_bad_version(self, tmp_path):
        ds = random_dataset(np.random.default_rng(3))
        path = tmp_path / "d.cvf"
        write_dataset(path, ds)
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="version"):
            read_dataset(path)

    @pytest.mark.parametrize("dims, n_time, message", [
        ((0, 4), 5, "grid extents must be positive"),
        ((3, 0), 5, "grid extents must be positive"),
        ((3, 4), 0, "series length T must be positive"),
        ((2**31, 2**31, 4), 1, f"expected {28 + 16 * 2**64} bytes, got 28"),
        ((2**32 - 1, 2**32 - 1), 2**32 - 1, f"expected {24 + 16 * (2**32 - 1)**3} bytes, got 24"),
    ], ids=["rows=0", "cols=0", "T=0", "cells=2^64", "samples=(2^32-1)^3"])
    def test_empty_header_extent_rejected(self, tmp_path, dims, n_time, message):
        # the payload of an empty grid or series is empty, so its size
        # matches; so is the one that a cell count wrapped at 2^64 expects
        path = tmp_path / "empty.cvf"
        path.write_bytes(b"CVF1" + struct.pack(f"<II{len(dims)}II", 1, len(dims), *dims, n_time))
        with pytest.raises(DataFormatError, match=f"empty.cvf: .*{message}"):
            read_dataset(path)

    def test_non_finite_sample_rejected(self):
        data = random_dataset(np.random.default_rng(4)).data.copy()
        data[1, 2, 3] = complex(np.inf, 0.0)
        with pytest.raises(DataFormatError, match="voxel 6, time index 3"):
            ComplexDataset((3, 4), data)

    def test_sample_past_the_bound_rejected(self):
        # either part of a sample may reach +-1e75; the first one past it is named
        data = random_dataset(np.random.default_rng(4)).data.copy()
        data[0, 1, 0] = complex(1e75, -1e75)
        ComplexDataset((3, 4), data)
        data[1, 2, 3] = complex(0.5, -1.01e75)
        data[2, 0, 1] = np.nan
        with pytest.raises(DataFormatError,
                           match="^sample at voxel 6, time index 3 exceeds 1e\\+75 in magnitude$"):
            ComplexDataset((3, 4), data)


class TestMapFormat:
    def test_round_trip_2d(self, tmp_path):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((5, 7))
        path = tmp_path / "m.csv"
        write_map(path, m)
        assert np.array_equal(read_map(path), m)

    def test_round_trip_3d_with_nan(self, tmp_path):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((2, 3, 4))
        m[0, 1, 2] = np.nan
        path = tmp_path / "m.csv"
        write_map(path, m)
        assert np.array_equal(read_map(path), m, equal_nan=True)

    def test_integer_maps(self, tmp_path):
        m = np.array([[0, 1], [1, 0]])
        path = tmp_path / "act.csv"
        write_map(path, m, integer=True)
        assert "1" in path.read_text().splitlines()[1]
        assert np.array_equal(read_map(path), m)

    def test_read_write_byte_stable(self, tmp_path):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((4, 4))
        path = tmp_path / "m.csv"
        write_map(path, m)
        first = path.read_text()
        write_map(path, read_map(path))
        assert path.read_text() == first

    def test_missing_dims_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        with pytest.raises(DataFormatError, match="dims"):
            read_map(path)

    def test_malformed_dims_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# dims: 2,x\n1.0,2.0\n3.0,4.0\n")
        with pytest.raises(DataFormatError, match="m.csv: malformed '# dims:' header"):
            read_map(path)

    def test_cell_count_mismatch(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# dims: 2,3\n1.0,2.0\n3.0,4.0\n")
        with pytest.raises(DataFormatError, match="expected 6 cells"):
            read_map(path)

    @pytest.mark.parametrize("header, body, message", [
        ("-50,-50", "1.0\n" * 2500, "grid extents must be positive"),
        ("0,50", "", "grid extents must be positive"),
        ("3,0", "", "grid extents must be positive"),
        ("4", "1.0,2.0,3.0,4.0\n", "a map has 2 or 3 dims, got 1"),
        ("1,1,2,2", "1.0,2.0\n3.0,4.0\n", "a map has 2 or 3 dims, got 4"),
        ("4294967296,4294967296", "1.0\n", f"expected {2**64} cells"),
        # one grid row per line: a layout that only the cell count matched
        # once read as a scrambled map
        ("2,3", "1,2\n3,4\n5,6\n", f"{LAYOUT_2x3}; line 2 holds 2 cell(s)"),
        ("2,3", "1,2,3,4,5,6\n", f"{LAYOUT_2x3}; line 2 holds 6 cell(s)"),
        ("2,3", "1,2,3\n\n4,5\n6\n", f"{LAYOUT_2x3}; line 4 holds 2 cell(s)"),
        ("2,3", "1,2,3\n", f"{LAYOUT_2x3}; got 1 line(s)"),
        ("2,3", "1,2,3\n4,5,6\n7,8,9\n", f"{LAYOUT_2x3}; line 4 is past the last row"),
        ("2,2,3", "1,2,3\n4,5,6\n7,8,9\n",
         "expected 12 cells for dims (2, 2, 3), 4 line(s) of 3; got 3 line(s)"),
    ], ids=["negative", "rows=0", "cols=0", "1-d", "4-d", "cells=2^64", "3-lines-of-2",
            "1-line-of-6", "ragged", "short", "long", "3-d-short"])
    def test_bad_dims_rejected(self, tmp_path, header, body, message):
        path = tmp_path / "m.csv"
        path.write_text(f"# dims: {header}\n{body}")
        with pytest.raises(DataFormatError, match=re.escape(f"m.csv: {message}")):
            read_map(path)


class TestPgm:
    def test_header_and_payload(self, tmp_path):
        img = np.array([[0, 128], [255, 64]], dtype=float)
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n2 2\n255\n")
        assert raw[-4:] == bytes([0, 128, 255, 64])


class TestKeyValues:
    def test_round_trip_with_comments(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("# a comment\n\nG = 9\npsi = -0.075\nmode = spatial\n")
        got = read_keyvalues(path)
        assert got == {"G": "9", "psi": "-0.075", "mode": "spatial"}
        write_keyvalues(path, got)
        assert read_keyvalues(path) == got

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("not a pair\n")
        with pytest.raises(DataFormatError):
            read_keyvalues(path)

    def test_repeated_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("G = 4\nseed = 1\nG = 5\n")
        with pytest.raises(DataFormatError, match="'G' is given more than once"):
            read_keyvalues(path)
