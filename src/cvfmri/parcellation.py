"""Image parcellation and per-parcel spatial machinery.

The grid is split into G contiguous blocks of approximately equal geometric
size. Each block gets its own sparse adjacency matrix and, from its principal
adjacency eigenvectors M, its spatial basis: the prior variance scale nu2 of
every voxel's probit latent, which is all the sampler reads of the spatial
prior once the random effects are integrated out.

M holds at least q eigenvectors and every eigenspace it touches whole, so nu2
depends on the graph alone, not on the basis of a tied eigenspace that an
eigensolver happens to return. Small parcels take a dense eigensolver and
large ones a sparse one (``DENSE_EIGH_MAX_VOXELS``); no step forms a V x V
array for a parcel above that size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import cholesky, eigh, solve_triangular

from .errors import InvalidSpecError, SingularBasisError

__all__ = [
    "Partition",
    "partition_grid",
    "build_adjacency",
    "principal_eigenvectors",
    "build_spatial_basis",
    "SPATIAL_RANK",
]

#: Parcels up to this many voxels take the dense eigensolver, larger ones the
#: sparse one. The crossover was measured on k x k king graphs at 10
#: eigenpairs: 400 voxels took 8.5 ms dense and 10.2 ms sparse, 625 took
#: 21.6 ms and 16.6 ms, 2500 took 787 ms and 75 ms.
DENSE_EIGH_MAX_VOXELS = 512

#: Eigenvalues this close to the q-th, relative to the largest (or to 1), are
#: tied with it, and their eigenvectors enter the basis together.
TIE_RTOL = 1e-9

#: The q of every fit's spatial basis: its minimum rank, completed to whole
#: tied eigenspaces (see :func:`principal_eigenvectors`).
SPATIAL_RANK = 5


@dataclass
class Partition:
    """Assignment of every voxel to exactly one rectangular parcel."""

    dims: tuple
    n_parcels: int
    assignment: np.ndarray
    parcel_voxel_lists: list

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
    voxel_lists = []
    index_grid = np.arange(n_vox).reshape(dims)
    for pid, block in enumerate(np.ndindex(*per_axis)):
        region = np.ix_(*(runs[ax][b] for ax, b in enumerate(block)))
        assignment[region] = pid
        voxel_lists.append(index_grid[region].ravel())
    return Partition(dims, n_parcels, assignment.ravel(), voxel_lists)


def _neighbor_offsets(n_axes: int):
    """Every nonzero offset in {-1, 0, 1}^n_axes: 8 neighbours in 2-D, 26 in 3-D."""
    return [np.array(off) - 1 for off in np.ndindex(*(3,) * n_axes) if off != (1,) * n_axes]


def build_adjacency(voxels, dims) -> sparse.csr_array:
    """Symmetric 0/1 adjacency among ``voxels``, truncated at the parcel border:
    voxels are neighbours when they touch by a face, an edge or a corner.

    Returned as an int8 CSR matrix: a parcel of V voxels stores about V times
    its neighbour count of entries, never a V x V array.
    """
    voxels = np.asarray(voxels, dtype=np.int64)
    if voxels.size == 0:
        raise InvalidSpecError("parcel voxel list is empty")
    dims = tuple(int(d) for d in dims)
    n = voxels.size
    coords = np.stack(np.unravel_index(voxels, dims), axis=1)
    local = -np.ones(dims, dtype=np.int64)
    local[tuple(coords.T)] = np.arange(n)
    rows, cols = [], []
    for delta in _neighbor_offsets(len(dims)):
        nb = coords + delta
        ok = np.all((nb >= 0) & (nb < np.asarray(dims)), axis=1)
        src = np.flatnonzero(ok)
        dst = local[tuple(nb[src].T)]
        inside = dst >= 0
        rows.append(src[inside])
        cols.append(dst[inside])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    return sparse.csr_array((np.ones(rows.size, dtype=np.int8), (rows, cols)), shape=(n, n))


def _square_symmetric(adjacency) -> sparse.csr_array:
    """``adjacency`` (dense or sparse) as CSR, after checking its shape and symmetry."""
    a = sparse.csr_array(adjacency)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or (a != a.T).nnz:
        raise InvalidSpecError("adjacency must be square and symmetric")
    return a


def _top_eigenpairs(a: sparse.csr_array, k: int):
    """The k algebraically largest eigenpairs of ``a``, in descending order.

    Parcels of at most ``DENSE_EIGH_MAX_VOXELS`` voxels take LAPACK's dense
    ``eigh``; larger ones take ARPACK's Lanczos ``eigsh`` from a fixed start
    vector, so no n x n array is formed and repeated calls agree bit for bit.
    """
    n = a.shape[0]
    # ARPACK cannot return (nearly) all n pairs; a q that large needs them all
    if n <= DENSE_EIGH_MAX_VOXELS or k >= n - 1:
        vals, vecs = eigh(a.toarray().astype(float), subset_by_index=[n - k, n - 1])
    else:
        from scipy.sparse.linalg import eigsh

        v0 = np.random.default_rng(0).standard_normal(n)
        vals, vecs = eigsh(a.astype(float), k=k, which="LA", v0=v0)
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]


def principal_eigenvectors(adjacency, q: int):
    """Orthonormal eigenvectors of the q algebraically largest eigenvalues,
    completed to whole tied eigenspaces.

    Every eigenvalue within ``TIE_RTOL`` times max(1, largest eigenvalue) of
    the q-th is kept as well, so M spans the same space whatever basis of a
    tied eigenspace the solver returns, and q is a minimum rank: a square
    parcel at q=5 gets 6 columns, since its 5th and 6th eigenvalues are equal.
    Columns are ordered by descending eigenvalue and sign-fixed so that each
    column's largest-magnitude entry is positive, making the result
    deterministic across calls.

    ``adjacency`` may be dense or sparse. Returns ``(eigenvalues, M)``.
    """
    a = sparse.csr_array(adjacency)
    n = a.shape[0]
    if not 1 <= q <= n:
        raise InvalidSpecError(f"q={q} must lie in [1, {n}]")
    k = min(n, 2 * q)
    while True:
        vals, vecs = _top_eigenpairs(a, k)
        tol = TIE_RTOL * max(1.0, vals[0])
        keep = int(np.count_nonzero(vals >= vals[q - 1] - tol))
        # the tie group of the q-th eigenvalue is closed once a smaller one shows
        if keep < k or k == n:
            break
        k = min(n, 2 * k)
    vals, vecs = vals[:keep], vecs[:, :keep]
    for j in range(keep):
        i = int(np.argmax(np.abs(vecs[:, j])))
        if vecs[i, j] < 0:
            vecs[:, j] = -vecs[:, j]
    return vals, np.ascontiguousarray(vecs)


def build_spatial_basis(adjacency, q: int) -> np.ndarray:
    """The per-parcel spatial basis: nu2, one value per voxel.

    nu2 is the diagonal of I + M (M'QM)^-1 M', with M the principal adjacency
    eigenvectors of :func:`principal_eigenvectors` (at least q, and whole tied
    eigenspaces, so nu2 depends on the graph alone) and Q the graph
    Laplacian: the variance scale of each voxel's probit latent once the
    spatial random effects are integrated out. ``adjacency`` may be dense or
    sparse.

    M'QM is formed as the sum over edges (i, j) of (m_i - m_j)(m_i - m_j)',
    which equals M'QM and is positive semidefinite by construction. Raises
    :class:`SingularBasisError` when M'QM is numerically singular (smallest
    eigenvalue at most 1e-12 times the largest degree, or condition number
    above 1e12), which happens when a low-index adjacency eigenvector is
    (numerically) constant on a connected component.
    """
    a = _square_symmetric(adjacency)
    _, m = principal_eigenvectors(a, q)
    i, j = a.nonzero()
    upper = i < j
    diff = m[i[upper]] - m[j[upper]]
    qs = diff.T @ diff
    eigs = np.linalg.eigvalsh(qs)
    max_degree = int(np.bincount(i, minlength=a.shape[0]).max())
    if eigs[0] <= 1e-12 * max_degree or eigs[-1] / eigs[0] > 1e12:
        raise SingularBasisError(
            "M'QM is numerically singular; use fewer, larger parcels"
        )
    # nu2 as 1 + a sum of squares, which keeps nu2 >= 1 exactly
    y = solve_triangular(cholesky(qs, lower=True), m.T, lower=True)
    return 1.0 + np.sum(y * y, axis=0)
