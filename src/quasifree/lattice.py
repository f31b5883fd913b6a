"""Site/momentum indexing and circulant Fourier transforms on periodic cubic lattices.

Offsets and momenta are plain tuples of ints; :class:`LatticeShape` is the single
authority for reducing, negating and enumerating them.  Momentum-resolved kernels
are stored as arrays of shape ``(n_sites, s, s)`` whose first axis runs over
``LatticeShape.momenta()`` in row-major order; offset grids as arrays of shape
``dims + (s, s)`` indexed by the reduced offset tuple, and ``site_matrix`` turns
such a grid into the site-by-site matrix of a translation-invariant operator.

Sign convention: numpy's.  The forward transform
``X_k = sum_n exp(-2pi i sum_i n_i k_i / N_i) X_n`` is ``np.fft.fftn`` over the
site axes and the inverse ``X_n = (1/N) sum_k exp(+2pi i sum_i n_i k_i / N_i) X_k``
is ``np.fft.ifftn``, so the two are exact inverses in any dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

__all__ = [
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

    def _check(self, idx: Iterable[int]) -> tuple[int, ...]:
        idx = tuple(int(c) for c in idx)
        if len(idx) != self.d:
            raise ValueError(f"index {idx} has {len(idx)} components, lattice has {self.d}")
        return idx

    def reduce(self, offset: Iterable[int]) -> tuple[int, ...]:
        """Reduce an offset (or momentum) componentwise modulo the axis sizes."""
        return tuple(c % n for c, n in zip(self._check(offset), self.dims))

    def negate(self, offset: Iterable[int]) -> tuple[int, ...]:
        return tuple((n - c) % n for c, n in zip(self._check(offset), self.dims))

    def signed(self, offset: Iterable[int]) -> tuple[int, ...]:
        """Minimal-magnitude signed representative (ties resolve to the positive one)."""
        out = []
        for c, n in zip(self.reduce(offset), self.dims):
            out.append(c if c <= n // 2 else c - n)
        return tuple(out)

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
        neg = (-self._momenta) % np.asarray(self.dims)
        return np.ravel_multi_index(tuple(neg.T), self.dims)

    @cached_property
    def half_zone(self) -> np.ndarray:
        """Flat indices ``i <= negation_table[i]``, ascending: the lower index of each
        ``(k, -k)`` pair and every self-conjugate momentum."""
        return np.flatnonzero(np.arange(self.n_sites) <= self.negation_table)


def fourier_circulant(
    couplings: Mapping[tuple[int, ...], np.ndarray], shape: LatticeShape
) -> np.ndarray:
    """Momentum kernel ``X_k = sum_n exp(-2pi i n.k/N) X_n`` of a finite-support circulant.

    The support is scattered into a zero offset grid, which ``np.fft.fftn``
    transforms over the site axes; an empty support is the zero kernel, with no
    transform.  Offsets colliding after modular reduction make the circulant
    ambiguous and raise ``ValueError``.
    """
    s = shape.spin
    if not couplings:
        return np.zeros((shape.n_sites, s, s), dtype=complex)
    grid = np.zeros(shape.dims + (s, s), dtype=complex)
    seen: set[tuple[int, ...]] = set()
    for offset, mat in couplings.items():
        red = shape.reduce(offset)
        if red in seen:
            raise ValueError(f"support collision after modular reduction at offset {red}")
        seen.add(red)
        mat = np.asarray(mat, dtype=complex)
        if mat.shape != (s, s):
            raise ValueError(f"coupling at {offset} has shape {mat.shape}, expected {(s, s)}")
        grid[red] = mat
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
