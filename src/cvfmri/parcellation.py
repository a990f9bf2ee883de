"""Image parcellation and per-parcel spatial machinery.

The grid is split into G rectangular boxes of approximately equal size. Each
box gets its own edge list and, from its principal adjacency eigenvectors M,
its spatial basis: the prior variance scale nu2 of every voxel's probit
latent, which is all the sampler reads of the spatial prior once the random
effects are integrated out.

A box's adjacency joins voxels that touch by a face, an edge or a corner, so
its graph is the strong product of the axes' path graphs, and A + I is the
Kronecker product of the axes' I + P. Its eigenpairs therefore come in closed
form from the box extents: no eigensolver runs and no V x V array is formed.
M holds at least q eigenvectors and every eigenspace it touches whole, so
nu2 depends on the graph alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import InvalidSpecError, SingularBasisError

__all__ = [
    "Partition",
    "partition_grid",
    "build_adjacency",
    "build_spatial_basis",
    "SPATIAL_RANK",
]

#: Eigenvalues this close to the q-th, relative to the largest (or to 1), are
#: tied with it, and their eigenvectors enter the basis together.
TIE_RTOL = 1e-9

#: The q of every fit's spatial basis: its minimum rank, completed to whole
#: tied eigenspaces (see :func:`build_spatial_basis`).
SPATIAL_RANK = 5


@dataclass
class Partition:
    """Assignment of every voxel to exactly one rectangular parcel.

    ``parcel_shapes[g]`` holds parcel g's extent on each axis; its voxel list
    runs over that box in row-major order."""

    dims: tuple
    assignment: np.ndarray
    parcel_voxel_lists: list
    parcel_shapes: list

    def parcel_sizes(self) -> np.ndarray:
        return np.array([len(v) for v in self.parcel_voxel_lists])


def _split_axis(extent: int, pieces: int):
    """Contiguous runs whose lengths differ by at most one (long runs first)."""
    return np.array_split(np.arange(extent), pieces)


def _factorizations(g: int, n_axes: int):
    """All ordered factorizations of g into n_axes positive factors."""
    if n_axes == 1:
        return [(g,)]
    out = []
    for d in range(1, g + 1):
        if g % d == 0:
            out.extend((d, *rest) for rest in _factorizations(g // d, n_axes - 1))
    return out


def partition_grid(dims, n_parcels: int) -> Partition:
    """Split the grid into ``n_parcels`` near-square (near-cubic) blocks.

    The factorization of G over the axes is chosen to minimize the spread of
    the per-axis block counts, breaking ties by giving larger counts to longer
    axes; infeasible factorizations (more blocks than cells on an axis) are
    skipped, so a prime G degrades to strips instead of failing.
    """
    dims = tuple(int(d) for d in dims)
    n_vox = int(np.prod(dims))
    if n_parcels < 1:
        raise InvalidSpecError("number of parcels must be positive")
    if n_parcels > n_vox:
        raise InvalidSpecError(f"cannot form {n_parcels} parcels from {n_vox} voxels")

    # Rank factor multisets by balance, then assign big factors to long axes.
    axis_order = sorted(range(len(dims)), key=lambda a: (-dims[a], a))
    best = None
    for counts in _factorizations(n_parcels, len(dims)):
        ordered = sorted(counts, reverse=True)
        per_axis = [0] * len(dims)
        for axis, cnt in zip(axis_order, ordered):
            per_axis[axis] = cnt
        if any(c > d for c, d in zip(per_axis, dims)):
            continue
        score = (max(counts) - min(counts), tuple(per_axis))
        if best is None or score < best[0]:
            best = (score, per_axis)
    if best is None:
        raise InvalidSpecError(
            f"no factorization of G={n_parcels} fits grid extents {dims}"
        )
    per_axis = best[1]

    runs = [_split_axis(d, c) for d, c in zip(dims, per_axis)]
    assignment = np.empty(dims, dtype=np.int64)
    voxel_lists, shapes = [], []
    index_grid = np.arange(n_vox).reshape(dims)
    for pid, block in enumerate(np.ndindex(*per_axis)):
        region = np.ix_(*(runs[ax][b] for ax, b in enumerate(block)))
        assignment[region] = pid
        box = index_grid[region]
        voxel_lists.append(box.ravel())
        shapes.append(box.shape)
    return Partition(dims, assignment.ravel(), voxel_lists, shapes)


def build_adjacency(shape):
    """The edges of a box of extents ``shape``, as index arrays ``(i, j)``
    with i < j, sorted by i and then by j: voxels, numbered in row-major
    order, are neighbours when they touch by a face, an edge or a corner.

    Each forward offset in {-1, 0, 1}^n (4 in 2-D, 13 in 3-D) pairs one
    shifted slice of the box's indices with another, so no V x V structure is
    formed.
    """
    shape = tuple(int(n) for n in shape)
    index = np.arange(int(np.prod(shape))).reshape(shape)
    i, j = [], []
    # an offset's digit d in {0, 1, 2} shifts its axis by d - 1; the offsets
    # after the middle one, (1, ..., 1), are the forward ones
    for offset in list(np.ndindex((3,) * len(shape)))[3 ** len(shape) // 2 + 1:]:
        src = tuple(slice(max(0, 1 - d), n - max(0, d - 1)) for d, n in zip(offset, shape))
        dst = tuple(slice(max(0, d - 1), n - max(0, 1 - d)) for d, n in zip(offset, shape))
        i.append(index[src].ravel())
        j.append(index[dst].ravel())
    i, j = np.concatenate(i), np.concatenate(j)
    order = np.lexsort((j, i))
    return i[order], j[order]


def _principal_vectors(shape) -> np.ndarray:
    """M of a box of ``shape``: orthonormal adjacency eigenvectors of the
    ``SPATIAL_RANK`` largest eigenvalues, completed to whole tied eigenspaces,
    in descending order of eigenvalue.

    A path of n voxels has I + P eigenvalues 1 + 2cos(pi k/(n+1)) with
    eigenvectors sqrt(2/(n+1)) sin(pi j k/(n+1)), j, k = 1..n. The box's
    adjacency eigenvalues are the products of one factor per axis, minus 1,
    and its eigenvectors the row-major Kronecker products of the axes'
    vectors. Every eigenvalue within ``TIE_RTOL`` times max(1, largest) of
    the q-th is kept, so a square box at q=5 gets 6 columns (its 5th and 6th
    eigenvalues are equal) and a cube 7; the products of a cube's three
    factors tie only to rounding.
    """
    factors = [1.0 + 2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1)) for n in shape]
    vals = reduce(np.multiply.outer, factors).ravel() - 1.0
    order = np.argsort(-vals, kind="stable")
    tol = TIE_RTOL * max(1.0, vals[order[0]])
    keep = order[vals[order] >= vals[order[SPATIAL_RANK - 1]] - tol]
    columns = []
    for ks in zip(*np.unravel_index(keep, shape)):
        axes = [np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.arange(1, n + 1) * (k + 1) / (n + 1))
                for n, k in zip(shape, ks)]
        columns.append(reduce(np.kron, axes))
    return np.column_stack(columns)


def build_spatial_basis(edges, shape) -> np.ndarray:
    """The spatial basis of a box parcel of extents ``shape``: nu2, one value
    per voxel, in the row-major order of the box.

    nu2 is the diagonal of I + M (M'QM)^-1 M', with M the principal adjacency
    eigenvectors of the box (at least ``SPATIAL_RANK``, and whole tied
    eigenspaces; see :func:`_principal_vectors`) and Q the graph Laplacian of
    ``edges``, the box's :func:`build_adjacency`: the variance scale of
    each voxel's probit latent once the spatial random effects are integrated
    out.

    M'QM is formed as the sum over edges (i, j) of (m_i - m_j)(m_i - m_j)',
    which equals M'QM and is positive semidefinite by construction. Raises
    :class:`SingularBasisError` when M'QM is numerically singular (smallest
    eigenvalue at most 1e-12 times the largest degree, or condition number
    above 1e12), which happens when M spans the constant vector, as on a
    1 x 5 strip or a 2 x 2 x 2 cube.
    """
    shape = tuple(int(n) for n in shape)
    n_vox = int(np.prod(shape))
    if min(shape) < 1 or n_vox < SPATIAL_RANK:
        raise InvalidSpecError(
            f"a spatial basis of rank {SPATIAL_RANK} needs a box of at least "
            f"{SPATIAL_RANK} voxels, got extents {shape}")
    i, j = edges
    # a box's edges touch each of its voxels, and no other
    degree = np.bincount(np.concatenate(edges), minlength=n_vox)
    if degree.size != n_vox or degree.min() == 0:
        raise InvalidSpecError(
            f"edges over voxels 0 to {degree.size - 1} do not fit a box of extents {shape}")
    m = _principal_vectors(shape)
    diff = m[i] - m[j]
    # einsum, not BLAS, for every product that grows with V: LAPACK below
    # sees only q x q matrices, so no BLAS helper thread wakes per parcel
    qs = np.einsum("ei,ej->ij", diff, diff)
    eigs = np.linalg.eigvalsh(qs)
    if eigs[0] <= 1e-12 * int(degree.max()) or eigs[-1] / eigs[0] > 1e12:
        raise SingularBasisError(
            "M'QM is numerically singular; use fewer, larger parcels"
        )
    # nu2 as 1 + a sum of squares, which keeps nu2 >= 1 exactly
    y = np.einsum("ij,vj->iv", np.linalg.inv(np.linalg.cholesky(qs)), m)
    return 1.0 + np.sum(y * y, axis=0)
