"""Site/momentum indexing and circulant Fourier transforms on periodic cubic lattices.

:class:`LatticeShape` is the single authority for reducing, negating and
enumerating offsets and momenta; a :class:`CouplingTable` holds a circulant's
finite support as arrays of offsets and matrices.  Momentum-resolved kernels
are stored as arrays of shape ``(n_sites, s, s)`` whose first axis runs over
``LatticeShape.momenta()`` in row-major order; offset grids as arrays of shape
``dims + (s, s)`` indexed by the reduced offset, and ``site_matrix`` turns
such a grid into the site-by-site matrix of a translation-invariant operator.

Sign convention: numpy's.  The forward transform
``X_k = sum_n exp(-2pi i sum_i n_i k_i / N_i) X_n`` is ``np.fft.fftn`` over the
site axes and the inverse ``X_n = (1/N) sum_k exp(+2pi i sum_i n_i k_i / N_i) X_k``
is ``np.fft.ifftn``, so the two are exact inverses in any dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterable

import numpy as np

__all__ = [
    "CouplingTable",
    "LatticeShape",
    "fourier_circulant",
    "inverse_fourier",
    "site_matrix",
]


@dataclass(frozen=True)
class LatticeShape:
    """Periodic cubic lattice with ``dims`` sites per axis and ``spin`` modes per site."""

    dims: tuple[int, ...]
    spin: int = 1

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))
        if not 1 <= len(self.dims) <= 3:
            raise ValueError(f"supported dimensions are 1..3, got {len(self.dims)}")
        if any(n < 2 for n in self.dims):
            raise ValueError(f"every axis needs at least 2 sites, got {self.dims}")
        if self.spin < 1:
            raise ValueError(f"spin count must be >= 1, got {self.spin}")

    @property
    def d(self) -> int:
        return len(self.dims)

    @property
    def n_sites(self) -> int:
        return math.prod(self.dims)

    @property
    def n_modes(self) -> int:
        return self.n_sites * self.spin

    # -- offset / momentum arithmetic -------------------------------------

    def reduce(self, offset: Iterable[int]) -> tuple[int, ...]:
        """Reduce an offset (or momentum) componentwise modulo the axis sizes."""
        idx = tuple(int(c) for c in offset)
        if len(idx) != self.d:
            raise ValueError(f"index {idx} has {len(idx)} components, lattice has {self.d}")
        return tuple(c % n for c, n in zip(idx, self.dims))

    def negate(self, offset: Iterable[int]) -> tuple[int, ...]:
        return self.reduce(-int(c) for c in offset)

    def signed(self, offsets) -> np.ndarray:
        """Minimal-magnitude signed representatives of ``(..., d)`` offsets (ties
        resolve to the positive one)."""
        dims = np.asarray(self.dims)
        red = np.asarray(offsets) % dims
        return np.where(red <= dims // 2, red, red - dims)

    # -- momentum grid ------------------------------------------------------

    @cached_property
    def _momenta(self) -> np.ndarray:
        return np.stack(np.unravel_index(np.arange(self.n_sites), self.dims), axis=1)

    def momenta(self) -> np.ndarray:
        """All momentum index tuples as an ``(n_sites, d)`` int array, row-major order."""
        return self._momenta

    @cached_property
    def negation_table(self) -> np.ndarray:
        """``negation_table[i]`` is the flat index of ``-k`` for flat momentum ``i``."""
        axes = [(-np.arange(n) % n) * math.prod(self.dims[a + 1:]) for a, n in enumerate(self.dims)]
        return reduce(np.add.outer, axes).ravel()

    @cached_property
    def half_zone(self) -> np.ndarray:
        """Flat indices ``i <= negation_table[i]``, ascending: the lower index of each
        ``(k, -k)`` pair and every self-conjugate momentum."""
        return np.flatnonzero(np.arange(self.n_sites) <= self.negation_table)


@dataclass(frozen=True, eq=False)
class CouplingTable:
    """The finite support of one circulant coupling on ``shape``: the s x s matrix
    ``mats[k]`` sits at ``offsets[k]``, and ``len`` is their count ``K``.  ``offsets``
    is ``(K, d)`` int64, reduced, unique and in row-major order, ``mats`` ``(K, s, s)``
    complex and finite, both read-only: the constructor reduces and sorts, and
    raises ``ValueError`` on a non-integer or duplicate offset or a wrong shape."""

    shape: LatticeShape
    offsets: np.ndarray
    mats: np.ndarray

    def __post_init__(self):
        d, s = self.shape.d, self.shape.spin
        offsets, mats = np.asarray(self.offsets), np.array(self.mats, dtype=complex)
        if offsets.size == 0 and mats.size == 0:
            offsets, mats = np.empty((0, d), np.int64), np.empty((0, s, s), complex)
        if offsets.dtype.kind not in "iu" or offsets.shape[1:] != (d,) or mats.shape != (len(offsets), s, s):
            raise ValueError(f"a coupling table takes (K, {d}) integer offsets and (K, {s}, {s}) "
                             f"matrices, got {offsets.dtype} {offsets.shape} and {mats.shape}")
        offsets = offsets.astype(np.int64) % self.shape.dims
        if not (finite := np.isfinite(mats).all(axis=(1, 2))).all():
            raise ValueError(f"coupling at offset {offsets[finite.argmin()].tolist()} has a non-finite entry")
        order = np.lexsort(offsets.T[::-1])  # row-major: the first axis is the primary key
        offsets, mats = offsets[order], mats[order]
        if (repeat := (np.diff(offsets, axis=0) == 0).all(axis=1)).any():
            raise ValueError(f"duplicate coupling at reduced offset {offsets[repeat.argmax()].tolist()}")
        for name, value in (("offsets", offsets), ("mats", mats)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.offsets)

    @classmethod
    def of(cls, shape: LatticeShape, data) -> "CouplingTable":
        """``data`` as a table on ``shape``: a table on ``shape`` itself, else a table's
        arrays or an ``{offset: matrix}`` mapping's keys and values, constructed."""
        if isinstance(data, cls):
            return data if data.shape == shape else cls(shape, data.offsets, data.mats)
        return cls(shape, list(data.keys()), list(data.values()))


def fourier_circulant(table, shape: LatticeShape) -> np.ndarray:
    """Momentum kernel ``X_k = sum_n exp(-2pi i n.k/N) X_n`` of a finite-support
    circulant (a table, or a mapping for ``CouplingTable.of``): one scatter into a
    zero offset grid and one ``np.fft.fftn`` over its site axes (none if empty)."""
    table, s = CouplingTable.of(shape, table), shape.spin
    if not len(table):
        return np.zeros((shape.n_sites, s, s), dtype=complex)
    grid = np.zeros(shape.dims + (s, s), dtype=complex)
    grid[tuple(table.offsets.T)] = table.mats
    return np.fft.fftn(grid, axes=tuple(range(shape.d))).reshape(shape.n_sites, s, s)


def inverse_fourier(kernel: np.ndarray, shape: LatticeShape) -> np.ndarray:
    """Offset grid ``X_n = (1/N) sum_k exp(+2pi i n.k/N) X_k`` of a full-grid momentum
    kernel, shape ``dims + (s, s)``, via ``np.fft.ifftn`` over the site axes."""
    kernel = np.asarray(kernel, dtype=complex)
    if kernel.shape != (shape.n_sites, shape.spin, shape.spin):
        raise ValueError(
            f"kernel must cover the full momentum grid with shape "
            f"{(shape.n_sites, shape.spin, shape.spin)}, got {kernel.shape}"
        )
    grid = kernel.reshape(shape.dims + (shape.spin, shape.spin))
    return np.fft.ifftn(grid, axes=tuple(range(shape.d)))


def site_matrix(grid: np.ndarray, sites: np.ndarray) -> np.ndarray:
    """``M[(x, a), (y, b)] = grid[(y - x) mod dims][a, b]`` over the rows ``x``, ``y`` of an
    ``(n, d)`` site array: an ``(n s, n s)`` matrix, sites major, of a ``dims + (s, s)`` grid."""
    n, d = sites.shape
    diff = (sites[None, :] - sites[:, None]) % grid.shape[:d]  # diff[x, y] = y - x
    return grid[tuple(np.moveaxis(diff, -1, 0))].transpose(0, 2, 1, 3).reshape(n * grid.shape[-1], -1)
