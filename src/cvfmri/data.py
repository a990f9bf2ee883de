"""Shared data carriers: complex-valued image time series and ground-truth maps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, InvalidSpecError

__all__ = ["ComplexDataset", "TrueMaps"]

#: Largest magnitude of a sample's real or imaginary part. The slab term
#: 2 sigma^2 (||x*||^2 + sigma^2/tau^2), about 2 sigma^4 at tau^2's start of 1,
#: overflows float64 from samples of about 1e77; 1e75 leaves sigma^2 a factor 100.
_MAX_SAMPLE = 1e75


@dataclass
class ComplexDataset:
    """Per-voxel complex time series on a 2-D or 3-D grid.

    ``data`` has shape ``(*dims, T)`` with dtype complex128; voxels are
    addressed in row-major order throughout the package. Each part of every
    sample must be finite and at most 1e75 in magnitude.
    """

    dims: tuple
    data: np.ndarray

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        self.data = np.ascontiguousarray(self.data, dtype=np.complex128)
        if len(self.dims) not in (2, 3):
            raise InvalidSpecError("datasets must be 2-D or 3-D grids")
        if any(d < 1 for d in self.dims):
            raise InvalidSpecError("grid extents must be positive")
        if self.data.shape[:-1] != self.dims:
            raise InvalidSpecError(
                f"data shape {self.data.shape} does not match dims {self.dims}"
            )
        parts = self.data.view(np.float64)
        # NaN fails both comparisons; only a failure looks for the sample
        if parts.size and not (-_MAX_SAMPLE <= parts.min() and parts.max() <= _MAX_SAMPLE):
            at = int(np.argmax(~(np.abs(parts) <= _MAX_SAMPLE)))
            voxel, t = divmod(at // 2, self.n_time)
            where = f"sample at voxel {voxel}, time index {t}"
            if np.isfinite(parts.flat[at]):
                raise DataFormatError(f"{where} exceeds {_MAX_SAMPLE:g} in magnitude")
            raise DataFormatError(f"non-finite {where}")

    @property
    def n_time(self) -> int:
        return self.data.shape[-1]

    @property
    def n_voxels(self) -> int:
        return int(np.prod(self.dims))

    def voxel_view(self) -> np.ndarray:
        """Row-major (V, T) view of the time series."""
        return self.data.reshape(self.n_voxels, self.n_time)

    def slice_dataset(self, index: int) -> "ComplexDataset":
        """Extract one 2-D slice of a 3-D dataset (slices along axis 0)."""
        if len(self.dims) != 3:
            raise InvalidSpecError("slice_dataset requires a 3-D dataset")
        return ComplexDataset(self.dims[1:], self.data[index])


@dataclass
class TrueMaps:
    """Ground-truth activation indicators and signal magnitudes."""

    dims: tuple
    active: np.ndarray
    magnitude: np.ndarray

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        self.active = np.asarray(self.active, dtype=np.int8)
        self.magnitude = np.asarray(self.magnitude, dtype=float)
        if self.active.shape != self.dims or self.magnitude.shape != self.dims:
            raise InvalidSpecError("map shapes must match dims")
        if np.any((self.magnitude > 0) != (self.active == 1)):
            raise InvalidSpecError("magnitude must be positive exactly on active voxels")

    def slice_maps(self, index: int) -> "TrueMaps":
        if len(self.dims) != 3:
            raise InvalidSpecError("slice_maps requires 3-D maps")
        return TrueMaps(self.dims[1:], self.active[index], self.magnitude[index])
