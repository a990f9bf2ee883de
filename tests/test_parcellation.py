"""Partitioning, adjacency, Laplacian, and the spatial basis."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from cvfmri import parcellation
from cvfmri.errors import InvalidSpecError, SingularBasisError
from cvfmri.parcellation import (
    build_adjacency,
    build_spatial_basis,
    partition_grid,
    principal_eigenvectors,
)
from reference import graph_laplacian


def face_adjacency(dims):
    """The face-neighbour lattice of a whole grid (4 neighbours in 2-D, 6 in
    3-D), built as the Kronecker sum of the axes' path graphs: a second graph
    family for the spatial basis."""
    a = sparse.csr_array((1, 1), dtype=np.int8)
    for n in dims:
        path = sparse.diags_array([np.ones(n - 1), np.ones(n - 1)], offsets=[-1, 1])
        a = sparse.kronsum(path, a)
    return sparse.csr_array(a, dtype=np.int8)


#: The two graph families of the basis tests, by their ids.
GRAPHS = {
    "edge": face_adjacency,
    "edge+corner": lambda dims: build_adjacency(np.arange(np.prod(dims)), dims),
}


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
        assert p.n_parcels == 7
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
    def test_complete_graph_principal_vector(self):
        k3 = np.ones((3, 3), dtype=int) - np.eye(3, dtype=int)
        vals, m = principal_eigenvectors(k3, 1)
        assert vals[0] == pytest.approx(2.0)
        assert np.allclose(m[:, 0], np.full(3, 1 / np.sqrt(3)), atol=1e-12)

    def test_complete_graph_basis_is_singular(self):
        # the constant principal eigenvector lies in the Laplacian null space,
        # whatever the sign of the roundoff in M'QM
        graphs = [np.ones((n, n), dtype=int) - np.eye(n, dtype=int) for n in range(2, 12)]
        graphs += [graph((2, 2)) for graph in GRAPHS.values()]
        for a in graphs:
            with pytest.raises(SingularBasisError):
                build_spatial_basis(a, 1)

    def test_grid_basis_against_dense_oracle(self):
        a = face_adjacency((4, 4))
        nu2 = build_spatial_basis(a, 3)
        _, m = principal_eigenvectors(a, 3)
        assert np.allclose(m.T @ m, np.eye(3), atol=1e-8)
        # dense linear-algebra oracle for nu2
        q = graph_laplacian(a)
        qs = m.T @ q @ m
        nu2_oracle = 1.0 + np.diag(m @ np.linalg.inv(qs) @ m.T)
        assert np.allclose(nu2, nu2_oracle, atol=1e-8)
        assert np.all(nu2 >= 1.0)

    def test_deterministic(self):
        a = build_adjacency(np.arange(25), (5, 5))
        assert np.array_equal(principal_eigenvectors(a, 5)[1], principal_eigenvectors(a, 5)[1])
        assert np.array_equal(build_spatial_basis(a, 5), build_spatial_basis(a, 5))

    def test_q_bounds(self):
        a = build_adjacency(np.arange(4), (1, 4))
        with pytest.raises(InvalidSpecError):
            principal_eigenvectors(a, 5)

    def test_nu2_at_least_one_everywhere(self):
        for dims, g in (((10, 10), 4), ((6, 6, 3), 2)):
            from cvfmri.parcellation import partition_grid

            p = partition_grid(dims, g)
            for vox in p.parcel_voxel_lists:
                a = build_adjacency(vox, dims)
                assert np.all(build_spatial_basis(a, 3) >= 1.0)

    def test_square_parcel_nu2_is_transpose_symmetric(self):
        # a square grid graph is invariant under transposition, so any basis
        # that depends on the graph alone gives a transpose-symmetric nu2
        # (it is already symmetric under flips of either axis)
        worst = 0.0
        for k in (7, 8, 14):
            for graph in GRAPHS.values():
                a = graph((k, k))
                nu2 = build_spatial_basis(a, 5).reshape(k, k)
                worst = max(worst, float(np.max(np.abs(nu2 - nu2.T) / nu2)))
        assert worst < 1e-9


def _basis_on(path, monkeypatch, a, q):
    """Column count of M and nu2 with the eigensolver forced onto one path."""
    limit = {"dense": 10**9, "sparse": 0}[path]
    monkeypatch.setattr(parcellation, "DENSE_EIGH_MAX_VOXELS", limit)
    return principal_eigenvectors(a, q)[1].shape[1], build_spatial_basis(a, q)


class TestSolverPaths:
    @pytest.mark.parametrize("graph", list(GRAPHS))
    @pytest.mark.parametrize("dims, columns", [
        ((7, 7), 6), ((14, 14), 6), ((30, 30), 6), ((50, 49), 5), ((12, 12, 12), 7),
    ])
    def test_dense_and_sparse_agree(self, monkeypatch, dims, columns, graph):
        # squares tie the 5th and 6th eigenvalues and cubes the 5th to 7th, so
        # both paths must take the whole tied eigenspace; 50x49 has no tie at q=5
        a = GRAPHS[graph](dims)
        cols_dense, nu2_dense = _basis_on("dense", monkeypatch, a, 5)
        cols_sparse, nu2_sparse = _basis_on("sparse", monkeypatch, a, 5)
        assert cols_dense == cols_sparse == columns
        assert np.max(np.abs(nu2_sparse - nu2_dense) / nu2_dense) < 1e-10
        if dims[0] == dims[1]:
            square = nu2_sparse.reshape(dims[0], dims[1], -1)
            assert np.max(np.abs(square - square.transpose(1, 0, 2)) / square) < 1e-9

    def test_size_selects_the_solver(self):
        # the constant, not an option, picks the path: 49-196 voxel parcels
        # stay dense and a 2500-voxel parcel goes sparse
        assert 196 < parcellation.DENSE_EIGH_MAX_VOXELS < 2500

    def test_dense_adjacency_accepted(self):
        a = build_adjacency(np.arange(100), (10, 10))
        assert np.array_equal(build_spatial_basis(a.toarray(), 5), build_spatial_basis(a, 5))

    def test_volume_parcel_memory_stays_bounded(self):
        # one 7x50x50 parcel: a dense int8 adjacency alone would take 306 MB
        dims = (7, 50, 50)
        tracemalloc.start()
        try:
            a = build_adjacency(np.arange(np.prod(dims)), dims)
            nu2 = build_spatial_basis(a, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert nu2.shape == (np.prod(dims),) and np.all(nu2 >= 1.0)
        assert peak < 64 * 2**20

    def test_nu2_does_not_depend_on_blas_threads(self):
        # the 2500-voxel parcel of a G=1 fit on a 50x50 image (the sparse path)
        src = str(Path(parcellation.__file__).parents[1])
        code = (
            "import numpy as np\n"
            "from cvfmri.parcellation import build_adjacency, build_spatial_basis\n"
            "a = build_adjacency(np.arange(2500), (50, 50))\n"
            "print(build_spatial_basis(a, 5).tobytes().hex())\n"
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
