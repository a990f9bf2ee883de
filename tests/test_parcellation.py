"""Partitioning, adjacency, Laplacian, and the spatial basis."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cvfmri import parcellation
from cvfmri.errors import InvalidSpecError, SingularBasisError
from cvfmri.parcellation import (
    SPATIAL_RANK,
    build_adjacency,
    build_spatial_basis,
    partition_grid,
)
from reference import graph_laplacian, reference_eigenvectors, reference_nu2


def box_basis(dims):
    """The adjacency and nu2 of one box parcel spanning the whole of ``dims``."""
    a = build_adjacency(np.arange(np.prod(dims)), dims)
    return a, build_spatial_basis(a, dims)


def axis_runs_oracle(extent, pieces):
    """Splitting rule: first (extent % pieces) runs get the extra cell."""
    base, extra = divmod(extent, pieces)
    return [base + 1] * extra + [base] * (pieces - extra)


def block_extents(partition, axis):
    sizes = []
    for voxels in partition.parcel_voxel_lists:
        coords = np.unravel_index(voxels, partition.dims)[axis]
        sizes.append(coords.max() - coords.min() + 1)
    return sizes


class TestPartition:
    def test_even_split(self):
        p = partition_grid((50, 50), 4)
        assert sorted(map(len, p.parcel_voxel_lists)) == [625] * 4

    def test_nine_parcels_axis_runs(self):
        p = partition_grid((50, 50), 9)
        expected = axis_runs_oracle(50, 3)
        assert expected == [17, 17, 16]
        sizes = sorted(map(len, p.parcel_voxel_lists), reverse=True)
        oracle = sorted((a * b for a in expected for b in expected), reverse=True)
        assert sizes == oracle

    def test_seven_by_seven_on_96(self):
        p = partition_grid((96, 96), 49)
        expected = axis_runs_oracle(96, 7)
        assert expected == [14, 14, 14, 14, 14, 13, 13]
        sizes = sorted(map(len, p.parcel_voxel_lists), reverse=True)
        oracle = sorted((a * b for a in expected for b in expected), reverse=True)
        assert sizes == oracle

    def test_prime_falls_back_to_strips(self):
        p = partition_grid((50, 50), 7)
        assert len(p.parcel_voxel_lists) == 7
        # strips: each parcel spans the full second axis
        assert all(e == 50 for e in block_extents(p, 1))

    def test_block_extent_slack(self):
        for g in (4, 6, 9, 12):
            p = partition_grid((50, 50), g)
            for axis in (0, 1):
                ext = block_extents(p, axis)
                assert max(ext) - min(ext) <= 1

    def test_bijection(self):
        p = partition_grid((13, 9), 6)
        joined = np.concatenate(p.parcel_voxel_lists)
        assert np.array_equal(np.sort(joined), np.arange(13 * 9))
        assert np.array_equal(np.sort(np.unique(p.assignment)), np.arange(6))

    def test_three_dimensional(self):
        p = partition_grid((4, 6, 6), 8)
        assert len(p.parcel_voxel_lists) == 8
        joined = np.concatenate(p.parcel_voxel_lists)
        assert np.array_equal(np.sort(joined), np.arange(4 * 6 * 6))

    def test_parcel_shapes_are_box_extents(self):
        for dims, g in (((50, 50), 9), ((13, 9), 6), ((4, 6, 6), 8), ((50, 50), 7)):
            p = partition_grid(dims, g)
            for voxels, shape in zip(p.parcel_voxel_lists, p.parcel_shapes):
                coords = np.unravel_index(voxels, dims)
                assert shape == tuple(int(c.max() - c.min() + 1) for c in coords)
                assert np.prod(shape) == len(voxels)

    def test_too_many_parcels(self):
        with pytest.raises(InvalidSpecError):
            partition_grid((4, 4), 17)


class TestAdjacency:
    def test_horizontal_pair(self):
        a = build_adjacency(np.array([0, 1]), (1, 2))
        assert a.toarray().tolist() == [[0, 1], [1, 0]]

    def test_diagonal_pair(self):
        # voxels (0,0) and (1,1) on a 2x2 grid
        vox = np.array([0, 3])
        assert build_adjacency(vox, (2, 2)).toarray().tolist() == [[0, 1], [1, 0]]

    def test_moore_center_degree(self):
        a = build_adjacency(np.arange(9), (3, 3))
        assert a[4].sum() == 8

    def test_truncated_at_parcel_border(self):
        # left half of a 2x4 grid: neighbors outside the list are ignored
        a = build_adjacency(np.array([0, 1, 4, 5]), (2, 4))
        assert a.sum() == 2 * 6  # a 2x2 block is complete: 6 undirected edges

    def test_3d_rules(self):
        a = build_adjacency(np.arange(27), (3, 3, 3))
        assert a[13].sum() == 26


class TestLaplacian:
    def test_pair(self):
        q = graph_laplacian(np.array([[0, 1], [1, 0]]))
        assert q.tolist() == [[1, -1], [-1, 1]]

    def test_empty_graph(self):
        assert np.array_equal(graph_laplacian(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_path3_spectrum(self):
        a = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        q = graph_laplacian(a)
        assert np.allclose(np.sort(np.linalg.eigvalsh(q)), [0.0, 1.0, 3.0], atol=1e-12)

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidSpecError):
            graph_laplacian(np.array([[0, 1], [0, 0]]))

    def test_row_sums_exactly_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            n = int(rng.integers(3, 30))
            a = (rng.random((n, n)) < 0.3).astype(int)
            a = np.triu(a, 1)
            a = a + a.T
            q = graph_laplacian(a)
            assert np.all(q.sum(axis=1) == 0.0)


class TestSpatialBasis:
    def test_complete_graph_basis_is_singular(self):
        # a 2x2x2 box is the complete graph K8: its basis at rank 5 takes all
        # 8 eigenvectors (the 7 below the first are tied), constant included
        a = build_adjacency(np.arange(8), (2, 2, 2))
        for nu2 in (lambda: build_spatial_basis(a, (2, 2, 2)), lambda: reference_nu2(a, 5)):
            with pytest.raises(SingularBasisError):
                nu2()

    def test_strip_spanning_the_constant_is_singular(self):
        # a 1x5 strip at rank 5 takes every eigenvector, so M spans 1
        a = build_adjacency(np.arange(5), (1, 5))
        for nu2 in (lambda: build_spatial_basis(a, (1, 5)), lambda: reference_nu2(a, 5)):
            with pytest.raises(SingularBasisError):
                nu2()

    def test_grid_basis_against_dense_oracle(self):
        # the closed-form M holds orthonormal eigenvectors of A, and nu2 is the
        # diagonal of I + M (M'QM)^-1 M' by dense linear algebra
        dims = (4, 5)
        a, nu2 = box_basis(dims)
        m = parcellation._principal_vectors(dims)
        assert np.allclose(m.T @ m, np.eye(m.shape[1]), atol=1e-12)
        vals = np.sum(m * (a @ m), axis=0)
        assert np.allclose(a @ m, m * vals, atol=1e-12)
        assert np.all(np.diff(vals) <= 1e-12)
        q = graph_laplacian(a)
        nu2_oracle = 1.0 + np.diag(m @ np.linalg.inv(m.T @ q @ m) @ m.T)
        assert np.allclose(nu2, nu2_oracle, atol=1e-8)
        assert np.all(nu2 >= 1.0)

    def test_deterministic(self):
        assert np.array_equal(box_basis((5, 5))[1], box_basis((5, 5))[1])

    def test_q_bounds(self):
        # the box must hold at least SPATIAL_RANK voxels, and the adjacency
        # must be the box's
        with pytest.raises(InvalidSpecError, match="at least 5 voxels"):
            build_spatial_basis(build_adjacency(np.arange(4), (1, 4)), (1, 4))
        a = build_adjacency(np.arange(30), (5, 6))
        for shape in ((6, 6), (30, 1, 2), (0, 6)):
            with pytest.raises(InvalidSpecError):
                build_spatial_basis(a, shape)

    def test_nu2_at_least_one_everywhere(self):
        for dims, g in (((10, 10), 4), ((6, 6, 3), 2)):
            p = partition_grid(dims, g)
            for vox, shape in zip(p.parcel_voxel_lists, p.parcel_shapes):
                a = build_adjacency(vox, dims)
                assert np.all(build_spatial_basis(a, shape) >= 1.0)

    def test_square_parcel_nu2_is_transpose_symmetric(self):
        # a square grid graph is invariant under transposition, so any basis
        # that depends on the graph alone gives a transpose-symmetric nu2
        # (it is already symmetric under flips of either axis)
        worst = 0.0
        for k in (7, 8, 14):
            nu2 = box_basis((k, k))[1].reshape(k, k)
            worst = max(worst, float(np.max(np.abs(nu2 - nu2.T) / nu2)))
        assert worst < 1e-9


class TestSolverPaths:
    @pytest.mark.parametrize("dims, columns", [
        ((7, 7), 6), ((14, 14), 6), ((30, 30), 6), ((50, 49), 5), ((12, 12, 12), 7),
    ])
    def test_closed_form_matches_dense_oracle(self, dims, columns):
        # squares tie the 5th and 6th eigenvalues and cubes the 5th to 7th, so
        # the closed form must take the whole tied eigenspace, as the dense
        # eigensolver does; 50x49 has no tie at q=5
        a, nu2 = box_basis(dims)
        m = parcellation._principal_vectors(dims)
        m_oracle = reference_eigenvectors(a, SPATIAL_RANK)
        assert m.shape[1] == m_oracle.shape[1] == columns
        # the same subspace: every principal cosine is 1
        assert np.allclose(np.linalg.svd(m.T @ m_oracle, compute_uv=False), 1.0, atol=1e-10)
        oracle = reference_nu2(a, SPATIAL_RANK)
        assert np.max(np.abs(nu2 - oracle) / oracle) < 1e-10
        if dims[0] == dims[1]:
            square = nu2.reshape(dims[0], dims[1], -1)
            assert np.max(np.abs(square - square.transpose(1, 0, 2)) / square) < 1e-9

    def test_volume_parcel_memory_stays_bounded(self):
        # one 7x50x50 parcel: a dense int8 adjacency alone would take 306 MB
        dims = (7, 50, 50)
        tracemalloc.start()
        try:
            _, nu2 = box_basis(dims)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert nu2.shape == (np.prod(dims),) and np.all(nu2 >= 1.0)
        assert peak < 64 * 2**20

    def test_nu2_does_not_depend_on_blas_threads(self):
        # the 2500-voxel parcel of a G=1 fit on a 50x50 image
        src = str(Path(parcellation.__file__).parents[1])
        code = (
            "import numpy as np\n"
            "from cvfmri.parcellation import build_adjacency, build_spatial_basis\n"
            "a = build_adjacency(np.arange(2500), (50, 50))\n"
            "print(build_spatial_basis(a, (50, 50)).tobytes().hex())\n"
        )
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "MKL_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")]))}
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                  text=True, env=env, check=True)
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
