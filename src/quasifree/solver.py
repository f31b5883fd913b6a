"""Momentum-space diagonalization and exact ground-state covariance.

Per momentum the 2s x 2s BdG block ``H_k`` is diagonalized and the Bogoliubov
data is organized in the particle-hole consistent layout

    U_k = [[alpha_k^dag, beta_{-k}^T], [beta_k^dag, alpha_{-k}^T]],

whose first s columns are the designated-branch eigenvectors at ``k`` (energies
``branch[k]``) and whose last s columns are the particle-hole images
``sx conj(.)`` of the designated eigenvectors at ``-k``, so their energies are
``-branch[-k]``.  The designated branch maximizes the particle weight
``|upper components|^2``, which keeps a number-conserving model's particle bands
designated, at a zero mode too.

The ground state is the Gaussian state with Nambu correlation block

    Gamma_k = <Psi_k Psi_k^dag>,  Psi_k = (b_k, b_{-k}^dag),

computed canonically as the spectral projector onto the positive-energy
subspace of ``H_k`` (zero modes, |energy| below tolerance, enter with weight
1/2, the unique particle-hole symmetric choice).  Stored kernels:

    g_k^{jj'} = <b_k^{j dag} b_k^{j'}>   (occupation kernel, eigenvalues in [0,1])
    f_k^{jj'} = <b_k^j b_{-k}^{j'}>      (pairing kernel, f_k = -f_{-k}^T)

so real-space correlators are plain inverse transforms:
``<b+_m b_{m+n}> = (1/N) sum_k e^{+i k.n} g_k`` and
``<b_m b_{m+n}> = (1/N) sum_k e^{-i k.n} f_k``.

Particle-hole symmetry ``sx H_k sx = -conj(H_{-k})`` makes the eigendata at
``-k`` the image of that at ``k``, so only the half-zone rows
(``LatticeShape.half_zone``: the lead momenta, flat index below that of ``-k``,
and the self-conjugate ones) are diagonalized.  A solution stores ``U_k`` on
those rows only, with the designated branch on the full grid; ``U_{-k} = sx
conj(U_k) sx`` is derived on demand, and ``ground_covariance`` reads the stored
rows alone.  What follows from the branch alone (the partner energies, the gap,
the zero modes and the counts) lives on ``Spectrum``, of which a solution is one;
``spectrum`` forms no BdG block for a pairing-free model, whose designated
branch is the spectrum of the hopping kernel ``A_k``: at s <= 2 from the transforms of
the entries it reads, the diagonal's real ones by ``irfftn`` (``_hopping_bands``), at
s >= 3 by LAPACK's ``eigvalsh``.  An eigensolver result that is not finite, as from a
kernel that overflows, is refused with the momentum named.

A second route assembles the same kernels from the Bogoliubov coefficients and
branch signs (``covariance_from_coefficients``).  It reads the same eigenbasis
but uses different algebra; the two must agree, and the test suite checks both
against references that share no code with them (the dense Fock oracle and a
full-zone ``eigh`` projector).

A sudden quench (``evolve_quench``) by ``H'`` rotates the stored rows to ``W_k U_k``,
``W_k = exp(-i t H'_k)``: the eigenbasis of ``W H W^dag``, whose energies are ``H``'s.
From ``H'_k = V_k E'_k V_k^dag``, by ``diagonalize``, they are ``V_k exp(-i t E'_k) V_k^dag
U_k`` with ``V_k^dag U_k`` formed once, so no ``W_k`` is; ``V``'s self-conjugate blocks
are paired with their images, so the image layout holds to rounding at every time.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .lattice import LatticeShape, fourier_circulant, inverse_fourier
from .model import CouplingSet, _aligned, _closure_image, bdg_blocks

__all__ = [
    "Spectrum",
    "BogoliubovSolution",
    "CovarianceKernel",
    "RealSpaceCorrelators",
    "diagonalize",
    "spectrum",
    "ground_covariance",
    "covariance_from_coefficients",
    "real_space",
    "evolve_quench",
    "ground_energy",
    "constraint_residuals",
]

ZERO_MODE_TOL = 1e-9
CLUSTER_RTOL = 1e-12  # relative eigenvalue spacing below which columns form a degenerate cluster
_COVARIANCE_CHUNK = 1024  # half-zone rows per projector product: ground_covariance temporaries of a few MB


def _is_zero(energies: np.ndarray, tol: float) -> np.ndarray:
    """The zero-mode rule: an energy is a zero mode when ``|energy| < tol``."""
    return np.abs(energies) < tol


def _check_memory(what: str, arrays: int) -> None:
    """Refuse a computation whose arrays, ``arrays`` bytes plus 64 MiB for the
    interpreter, index tables, chunk buffers and BLAS, cannot fit in physical
    memory; callers check before their large allocations."""
    need = arrays + (64 << 20)
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(f"{what} needs about {need} bytes, more than the {have} bytes of physical memory")


def _resolve_clusters(lam: np.ndarray, vecs: np.ndarray, s: int) -> np.ndarray:
    """Within each degenerate eigenvalue cluster, rotate ``vecs`` in place to
    particle-weight extremal vectors."""
    scale = max(1.0, float(np.abs(lam).max()))
    start = 0
    for stop in range(1, len(lam) + 1):
        if stop == len(lam) or lam[stop] - lam[stop - 1] > CLUSTER_RTOL * scale:
            if stop - start > 1:
                block = vecs[:, start:stop]
                _, rot = np.linalg.eigh(block[:s].conj().T @ block[:s])
                vecs[:, start:stop] = block @ rot[:, ::-1]
            start = stop
    return vecs


@dataclass(frozen=True)
class Spectrum:
    """The designated branch of one Hamiltonian, ``branch`` (M, s) ascending per momentum,
    and all that follows from it: the column layout ``u_energies`` (the branch, then the
    partners ``-branch[-k]``), ``energies``, ``coef_ok`` (no zero mode at ``k`` or ``-k``:
    the designation is canonical), ``gap``, ``imbalance`` and ``zero_modes``."""

    shape: LatticeShape
    branch: np.ndarray  # (M, s)
    zero_mode_tol: float

    def _paired(self, rows) -> np.ndarray:
        """Energies in the column layout at ``rows``: the branch, then the partners ``-branch[-k]``."""
        return np.concatenate([self.branch[rows], -self.branch[self.shape.negation_table[rows]]], axis=1)

    @property
    def u_energies(self) -> np.ndarray:
        """Energies in the column layout of the module docstring, shape (M, 2s)."""
        return self._paired(slice(None))

    @property
    def energies(self) -> np.ndarray:
        """One-particle energies per momentum in ascending order, shape (M, 2s)."""
        return np.sort(self.u_energies, axis=1)

    @cached_property
    def _zero(self) -> np.ndarray:
        """(M, s) bool: ``_is_zero`` of ``branch``."""
        return _is_zero(self.branch, self.zero_mode_tol)

    @cached_property
    def coef_ok(self) -> np.ndarray:
        """(M,) bool: no zero mode in the branch at ``k`` or at ``-k``, so none in the block."""
        zero = np.zeros(len(self.branch), dtype=bool)
        zero[np.flatnonzero(self._zero) // self.shape.spin] = True  # any(axis=1) pays per row
        return ~(zero | zero[self.shape.negation_table])

    @property
    def gap(self) -> float:
        return float(np.abs(self.branch).min())

    @cached_property
    def imbalance(self) -> np.ndarray:
        """(M,) ``n(k) - n(-k)``, ``n`` the branch energies below the zero-mode band plus half
        its zero modes: ``tr g_k - tr g_{-k}`` of the ground state."""
        n = np.where(self._zero, 0.5, self.branch < 0).dot(np.ones(self.shape.spin))  # halves: exact
        n -= n[self.shape.negation_table]  # in place: the right side is a copy
        return n

    def n_minus(self, rows) -> np.ndarray:
        """The number of branch energies below the zero-mode band at each of ``rows``."""
        return np.count_nonzero((self.branch[rows] < 0) & ~self._zero[rows], axis=1)

    @property
    def zero_modes(self) -> int:
        """The number of zero modes on the grid, partners included: twice the branch's."""
        return 2 * int(np.count_nonzero(self._zero))


@dataclass(frozen=True)
class BogoliubovSolution(Spectrum):
    """A ``Spectrum`` plus the eigenbasis ``U_k`` at the rows of ``shape.half_zone``
    (``u_rows``).  Derived: the full-grid ``u``, whose partner rows are the images
    ``U_{-k} = sx conj(U_k) sx``, ``alpha`` and ``beta``.  The columns of ``u_rows``
    are eigenvectors at the energies ``_paired(shape.half_zone)``: a quench generator's
    are the basis and phases of ``evolve_quench``.  A solution from ``evolve_quench``
    keeps this layout, but not the particle-weight designation."""

    u_rows: np.ndarray  # (len(shape.half_zone), 2s, 2s)

    @property
    def u(self) -> np.ndarray:
        """Full-grid eigenbasis, shape (M, 2s, 2s): ``u_rows`` plus their particle-hole images."""
        rows = self.shape.half_zone
        out = np.empty((self.shape.n_sites,) + self.u_rows.shape[1:], dtype=complex)
        out[self.shape.negation_table[rows]] = np.roll(self.u_rows, self.shape.spin, axis=(1, 2)).conj()
        out[rows] = self.u_rows  # a self-conjugate row keeps its own layout
        return out

    @property
    def alpha(self) -> np.ndarray:
        """Coefficient matrices ``alpha[k][j, l] = alpha^{jl}_k``, shape (M, s, s)."""
        s = self.shape.spin
        return np.conj(np.transpose(self.u[:, :s, :s], (0, 2, 1)))

    @property
    def beta(self) -> np.ndarray:
        """Coefficient matrices ``beta[k][j, l] = beta^{jl}_k``, shape (M, s, s)."""
        s = self.shape.spin
        return np.conj(np.transpose(self.u[:, s:, :s], (0, 2, 1)))


def _closed_form(p: np.ndarray, q: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues, shape (M, 2), of the Hermitian 2x2 blocks with real
    diagonals ``p, q`` and off-diagonal modulus ``b``: ``mean +- hypot((p - q)/2, b)``,
    formed from halved diagonals so that no finite entry overflows."""
    out = np.empty((len(p), 2))
    lo, hi = np.multiply(p, 0.5, out=out[:, 0]), np.multiply(q, 0.5, out=out[:, 1])
    mean = lo + hi
    np.hypot(np.subtract(lo, hi, out=lo), b, out=hi)
    np.subtract(mean, hi, out=lo)
    hi += mean
    return out


def _hopping_bands(c: CouplingSet) -> np.ndarray:
    """Ascending eigenvalues of the hopping kernels ``A_k`` at s <= 2, shape (M, s), from
    the transforms of the entries they read: each diagonal entry's Hermitian part
    ``(x_n + conj x_{-n})/2``, whose transform is real, by an unscaled ``irfftn`` of the
    conjugated half grid, and at s = 2 the ``(1, 0)`` entry, LAPACK's lower triangle."""
    shape, s = c.shape, c.shape.spin
    union, (mats, image) = _aligned(c.hop, _closure_image(c.hop, shape, "hop"))
    # x - (x - image)/2 is x, bit for bit, where the table is closed exactly, and cannot overflow
    diag = np.diagonal(mats - (mats - image) / 2, axis1=1, axis2=2)
    kept = union[:, -1] <= shape.dims[-1] // 2  # irfftn reads the last axis up to its Nyquist index
    half = np.zeros((s,) + shape.dims[:-1] + (shape.dims[-1] // 2 + 1,), dtype=complex)
    half[(slice(None),) + tuple(union[kept].T)] = diag[kept].T.conj()
    p = np.fft.irfftn(half, s=shape.dims, axes=tuple(range(1, shape.d + 1)), norm="forward").reshape(s, -1)
    if s == 1:
        return p.T
    off = np.zeros(shape.dims, dtype=complex)
    off[tuple(c.hop.offsets.T)] = c.hop.mats[:, 1, 0]
    return _closed_form(p[0], p[1], np.abs(np.fft.fftn(off)).ravel())


def _momentum(shape: LatticeShape, i: int) -> tuple[int, ...]:
    return tuple(int(x) for x in shape.momenta()[i])


def _solve(solver, blocks: np.ndarray, shape: LatticeShape, flat: Sequence[int]):
    """``solver(blocks)`` for the blocks at the flat momenta ``flat``, checked by
    ``_finite``; a ``LinAlgError`` names the first momentum whose block fails alone."""
    try:
        out = solver(blocks)
    except np.linalg.LinAlgError:
        for i, blk in zip(flat, blocks):
            try:
                solver(blk)
            except np.linalg.LinAlgError as exc:
                raise np.linalg.LinAlgError(f"eigensolver failed at momentum {_momentum(shape, i)}") from exc
        raise
    return _finite(out, shape, flat)


def _finite(out, shape: LatticeShape, flat: Sequence[int]):
    """``out`` (arrays over ``flat``), or a ``LinAlgError`` naming its first non-finite momentum."""
    for part in out if isinstance(out, tuple) else (out,):
        if not np.isfinite(part).all():  # the per-row scan only names the momentum
            finite = np.isfinite(part).reshape(len(part), -1).all(axis=1)
            k = _momentum(shape, flat[int(np.argmin(finite))])
            raise np.linalg.LinAlgError(f"eigensolver gave a non-finite result at momentum {k}: "
                                        "its block overflows, or the solver failed")
    return out


def _designate(lam: np.ndarray, pw: np.ndarray, s: int) -> np.ndarray:
    """Per row: the s heaviest particle-weight columns, energy ascending, then the rest descending."""
    def by(key, cols):  # each row of ``cols`` stably sorted by ``key`` at those columns
        order = np.argsort(np.take_along_axis(key, cols, axis=1), axis=1, kind="stable")
        return np.take_along_axis(cols, order, axis=1)

    top = np.argsort(-pw, axis=1, kind="stable")
    return np.concatenate([by(lam, top[:, :s]), by(-lam, np.sort(top[:, s:], axis=1))], axis=1)


def _self_conjugate(lam: np.ndarray, vecs: np.ndarray, s: int, i: int):
    """Layout ``(U_k, branch)`` of a self-conjugate momentum free of zero modes, whose
    partner columns, the images ``sx conj(.)`` of its branch's, live in its own block;
    ``i`` is its flat index, for the error message."""
    vecs = _resolve_clusters(lam, vecs, s)
    pos = np.nonzero(lam > 0)[0]
    if len(pos) != s:
        raise np.linalg.LinAlgError(f"self-conjugate block lost its +- eigenvalue pairing at flat index {i}")
    flip = np.sum(np.abs(vecs[:s, pos]) ** 2, axis=0) < 0.5
    e = np.where(flip, -lam[pos], lam[pos])
    order = np.argsort(e, kind="stable")
    d = np.where(flip, np.roll(vecs[:, pos], s, axis=0).conj(), vecs[:, pos])[:, order]
    # d is orthogonal to its image sx conj(d) only to about eps ||H_k|| / gap; the polar
    # factor of [d, image] is unitary and keeps the image structure, exact in its first s
    x, _, yh = np.linalg.svd(np.concatenate([d, np.roll(d, s, axis=0).conj()], axis=1))
    d = (x @ yh)[:, :s]
    return np.concatenate([d, np.roll(d, s, axis=0).conj()], axis=1), e[order]


def diagonalize(c: CouplingSet, zero_mode_tol: float = ZERO_MODE_TOL) -> BogoliubovSolution:
    """Hermitian eigendecomposition of the half-zone BdG blocks plus branch designation.

    Each pair ``(k, -k)`` is diagonalized and designated at its lower flat index,
    whose eigenbasis is the only one stored; the partner's branch is the negated
    rest of the row.  A self-conjugate momentum (at most ``2^d``) free of zero modes
    goes alone, so that its rest is the exact image of its branch; one with a zero
    mode is designated with the batch.  Raises ``ValueError`` before any
    per-momentum allocation when the pipeline would not fit in physical memory.
    """
    shape = c.shape
    s = shape.spin
    # the peak comes in ground_covariance, per momentum: the stored basis (half the
    # momenta, (2s)^2 complex: 32 s^2 bytes) and the kernels g and f (32 s^2), the
    # branch (8 s), the half-zone energies, weights, masks and temporaries (40 s), and
    # the index tables (at most 48): 110 and 344 bytes beside the tables at s = 1 and 2;
    # diagonalize peaks lower, at blocks plus eigenvectors (64 s^2) and energies
    _check_memory(f"a lattice of {shape.n_sites} momenta at spin {s}",
                  shape.n_sites * (64 * s * s + 48 * s + 48))
    rows = shape.half_zone
    neg = shape.negation_table[rows]
    # a block that overflows gives a non-finite energy, which _solve refuses by momentum
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = bdg_blocks(c, rows)
        energies, vectors = _solve(np.linalg.eigh, blocks, shape, rows)
    del blocks

    # the self-conjugate rows read the raw eigenpairs, which the batch below overwrites
    sc = np.flatnonzero(rows == neg)
    special = [(r, _self_conjugate(energies[r], vectors[r], s, rows[r]))
               for r in sc[~_is_zero(energies[sc], zero_mode_tol).any(axis=1)]]
    scale = np.maximum(1.0, np.abs(energies).max(axis=1))
    for r in np.nonzero((~(np.diff(energies, axis=1) > CLUSTER_RTOL * scale[:, None])).any(axis=1))[0]:
        _resolve_clusters(energies[r], vectors[r], s)
    cols = _designate(energies, np.sum(np.abs(vectors[:, :s]) ** 2, axis=1), s)
    vectors[:] = np.take_along_axis(vectors, cols[:, None, :], axis=2)
    energies = np.take_along_axis(energies, cols, axis=1)

    branch = np.empty((shape.n_sites, s))
    branch[neg] = -energies[:, s:]  # the partner's branch: the rest, whose images it designates
    branch[rows] = energies[:, :s]
    for r, (u, e) in special:
        vectors[r], branch[rows[r]] = u, e
    return BogoliubovSolution(shape=shape, branch=branch, zero_mode_tol=zero_mode_tol, u_rows=vectors)


def spectrum(c: CouplingSet, zero_mode_tol: float = ZERO_MODE_TOL) -> Spectrum:
    """The energies of ``c``, without the eigenbasis where it can be skipped.  A
    pairing model's is its ``diagonalize`` solution.  Without pairing
    ``H_k = A_k + (-A_{-k}^T)``: the branch is the spectrum of ``A_k`` (ascending).
    Raises ``ValueError`` before any per-momentum allocation when it would not fit.
    """
    if c.pair:
        return diagonalize(c, zero_mode_tol=zero_mode_tol)
    shape, s = c.shape, c.shape.spin
    # per momentum: the hopping kernel's offset grid and two FFT stages (48 s^2), or at s <= 2
    # ``_hopping_bands``'s half grids, transforms and closed form (40 s: 32 and 80 bytes measured),
    # then beside the branch (8 s) the counts, the invariant's transform and the asymmetry table
    # (48: 34 to 44 bytes measured at s = 1 to 4) and the index tables (48)
    _check_memory(f"a lattice of {shape.n_sites} momenta at spin {s}",
                  shape.n_sites * ((48 * s * s if s > 2 else 40 * s) + 8 * s + 96))
    with np.errstate(over="ignore", invalid="ignore"):  # as in diagonalize
        branch = (_finite(_hopping_bands(c), shape, range(shape.n_sites)) if s <= 2 else
                  _solve(np.linalg.eigvalsh, fourier_circulant(c.hop, shape), shape, range(shape.n_sites)))
    return Spectrum(shape, branch, zero_mode_tol)


def constraint_residuals(sol: BogoliubovSolution) -> dict[str, float]:
    """Max residuals of the canonical-anticommutation and completeness identities.

    anticommutation: alpha_k beta_{-k}^T + beta_k alpha_{-k}^T = 0
    normalization:   alpha_k alpha_k^dag + beta_k beta_k^dag = 1
    completeness:    sum_l S^{l+}_k = alpha_k^dag beta_k + beta_{-k}^T conj(alpha_{-k}) = 0
                     sum_l Z^{l+}_k = alpha_k^dag alpha_k + beta_{-k}^T conj(beta_{-k}) = 1
    """
    neg = sol.shape.negation_table
    a, b = sol.alpha, sol.beta
    an, bn = a[neg], b[neg]
    eye = np.eye(sol.shape.spin)
    at = np.transpose(a, (0, 2, 1))
    bt = np.transpose(b, (0, 2, 1))
    ah = at.conj()
    ant, bnt = np.transpose(an, (0, 2, 1)), np.transpose(bn, (0, 2, 1))
    return {
        "anticommutation": float(np.abs(a @ bnt + b @ ant).max()),
        "normalization": float(np.abs(a @ np.conj(at) + b @ np.conj(bt) - eye).max()),
        "s_plus": float(np.abs(ah @ b + bnt @ np.conj(an)).max()),
        "z_plus": float(np.abs(ah @ a + bnt @ np.conj(bn) - eye).max()),
    }


# ---------------------------------------------------------------------------
# covariance kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CovarianceKernel:
    """Gaussian state of the lattice: occupation kernel ``g``, pairing kernel ``f``,
    and the number of zero modes, filled with weight 1/2.  Its ``imbalance`` is that
    of a ``Spectrum``, read off the trace of ``g``, so ``invariant_map`` takes either."""

    shape: LatticeShape
    g: np.ndarray  # (M, s, s)
    f: np.ndarray  # (M, s, s)
    zero_modes: int = 0

    def gamma(self) -> np.ndarray:
        """Nambu blocks ``[[1 - g_k^T, f_k], [f_k^dag, g_{-k}]]`` (a projector when pure)."""
        s = self.shape.spin
        neg = self.shape.negation_table
        out = np.empty((self.shape.n_sites, 2 * s, 2 * s), dtype=complex)
        out[:, :s, :s] = np.eye(s) - np.transpose(self.g, (0, 2, 1))
        out[:, :s, s:] = self.f
        out[:, s:, :s] = np.conj(np.transpose(self.f, (0, 2, 1)))
        out[:, s:, s:] = self.g[neg]
        return out

    @property
    def imbalance(self) -> np.ndarray:
        """(M,) ``tr g_k - tr g_{-k}``: of a ground state, its spectrum's ``Spectrum.imbalance``."""
        t = np.trace(self.g, axis1=1, axis2=2).real
        return t - t[self.shape.negation_table]


def ground_covariance(sol: BogoliubovSolution) -> CovarianceKernel:
    """Exact ground-state kernels from the positive-energy spectral projector.

    Zero modes are occupied with weight 1/2 and counted in ``zero_modes``;
    everything else is filled by energy sign.  Only the stored half-zone basis is
    read: at a row ``k`` the projector ``U_k W U_k^dag`` gives ``g_{-k}`` and
    ``f_k``, and the partner's projector, the conjugate of the same product over
    the image ``sx U_k sx`` with the partner weights (``lambda < 0``, 1/2 for a
    zero mode), gives ``g_k`` and ``f_{-k}``.  Rows go in chunks of
    ``_COVARIANCE_CHUNK``, so no projector stack is held.
    """
    shape, s = sol.shape, sol.shape.spin
    rows = shape.half_zone
    neg = shape.negation_table[rows]
    lam = sol._paired(rows)
    zero = _is_zero(lam, sol.zero_mode_tol)
    weight = np.where(zero, 0.5, lam > 0)
    partner = np.roll(np.where(zero, 0.5, lam < 0), s, axis=1)

    def projector(u, w):
        return (u * w[:, None, :]) @ np.conj(np.transpose(u, (0, 2, 1)))

    g = np.empty((shape.n_sites, s, s), dtype=complex)
    f = np.empty_like(g)
    for lo in range(0, len(rows), _COVARIANCE_CHUNK):
        part = slice(lo, lo + _COVARIANCE_CHUNK)
        gamma = projector(np.roll(sol.u_rows[part], s, axis=(1, 2)), partner[part]).conj()
        g[rows[part]], f[neg[part]] = gamma[:, s:, s:], gamma[:, :s, s:]
        # a self-conjugate row is its own partner: its direct projector overwrites it
        gamma = projector(sol.u_rows[part], weight[part])
        g[neg[part]], f[rows[part]] = gamma[:, s:, s:], gamma[:, :s, s:]
    return CovarianceKernel(shape=shape, g=g, f=f, zero_modes=sol.zero_modes)


def covariance_from_coefficients(sol: BogoliubovSolution) -> CovarianceKernel:
    """Kernel assembly from Bogoliubov coefficients and branch signs, with algebra
    separate from the spectral projector's.

    Uses the sign functions ``M_k^l = (sgn L_k^l - sgn L_{-k}^l)/2`` and
    ``P_k^l = (sgn L_k^l + sgn L_{-k}^l)/2`` together with the coefficient
    bilinears S/Z; requires a solution free of zero modes.
    """
    if not sol.coef_ok.all():
        raise ValueError("coefficient route needs a zero-mode-free solution")
    neg = sol.shape.negation_table
    sgn = np.sign(sol.branch)                  # (M, s)
    m_sign = (sgn - sgn[neg]) / 2.0
    p_sign = (sgn + sgn[neg]) / 2.0

    a, b = sol.alpha, sol.beta                 # [k, j(branch), l(spin)]
    an, bn = a[neg], b[neg]

    # (S^{l +-}_k)_{jj'} = conj(a_k^{lj}) b_k^{lj'} +- b_{-k}^{lj} conj(a_{-k}^{lj'})
    s1 = np.einsum("klj,kli->klji", a.conj(), b)
    s2 = np.einsum("klj,kli->klji", bn, an.conj())
    # (Z^{l +-}_{-k})_{jj'} = conj(a_{-k}^{lj}) a_{-k}^{lj'} +- b_k^{lj} conj(b_k^{lj'})
    z1 = np.einsum("klj,kli->klji", an.conj(), an)
    z2 = np.einsum("klj,kli->klji", b, b.conj())

    w_m = (m_sign + 1.0)[:, :, None, None]
    w_p = p_sign[:, :, None, None]
    bb = (w_m * (s1 + s2) + w_p * (s1 - s2)).sum(axis=1)
    bdag_b = (w_m * np.conj(z1 + z2) - w_p * np.conj(z1 - z2)).sum(axis=1)

    return CovarianceKernel(shape=sol.shape, g=0.5 * bdag_b[neg], f=0.5 * bb)


@dataclass(frozen=True)
class RealSpaceCorrelators:
    """Two-point functions at selected offsets: ``bdag_b[n] = <b+_m b_{m+n}>`` and
    ``bb[n] = <b_m b_{m+n}>`` (s x s matrices over spin)."""

    shape: LatticeShape
    bdag_b: dict[tuple[int, ...], np.ndarray]
    bb: dict[tuple[int, ...], np.ndarray]


def real_space(cov: CovarianceKernel, offsets: Iterable[Iterable[int]]) -> RealSpaceCorrelators:
    """Inverse transforms of the kernels at the requested offsets; ``<b_m b_{m+n}>``
    is the pairing kernel's inverse transform at ``-n``."""
    shape = cov.shape
    g = inverse_fourier(cov.g, shape)
    f = inverse_fourier(cov.f, shape)
    keys = [shape.reduce(n) for n in offsets]
    return RealSpaceCorrelators(shape=shape, bdag_b={n: g[n] for n in keys},
                                bb={n: f[shape.negate(n)] for n in keys})


def evolve_quench(
    sol: BogoliubovSolution, h: CouplingSet, times: Iterable[float]
) -> Iterator[BogoliubovSolution]:
    """Sudden-quench evolution: ``sol`` at each of ``times``, the ground state of ``W H
    W^dag``, ``W_k = exp(-i t H'_k)`` over the BdG blocks of ``h``: the same energies,
    the stored rows rotated to ``W_k U_k``, which keep the image layout (``W_{-k} = sx
    conj(W_k) sx``).  ``ground_covariance`` of a state gives its kernels.

    ``h`` is diagonalized once, in this call, by ``diagonalize``, as ``H'_k = V_k E'_k
    V_k^dag``; the rows are taken once into that basis, ``V_k^dag U_k``, and each time
    phases them by ``exp(-i t E'_k)`` and rotates them back by ``V_k``.  The states follow
    lazily, one per time, so a caller need hold only one at a time.  Raises
    ``ValueError`` before the eigendecomposition when it would not fit in physical
    memory, before the first state when a time's phase ``t max|E'|`` is not finite,
    and as ``diagonalize`` does, so a block of ``h`` that overflows is a
    ``LinAlgError`` naming its momentum.
    """
    shape, s = sol.shape, sol.shape.spin
    if h.shape != shape:
        raise ValueError(f"quench shape {h.shape} does not match state shape {shape}")
    # the peak comes while a state is formed, per momentum: six half-zone stacks of
    # (2s)^2 complex (32 s^2 bytes each): the eigenvectors and the state in their basis,
    # held for every time, the state's rows and the previous time's that a caller still
    # holds, the phased rows and their product; the kernels g and f that a caller may
    # hold (32 s^2); the branch, energies and phases (32 s) and the index tables (at most 48)
    _check_memory(f"a quench of {shape.n_sites} momenta at spin {s}",
                  shape.n_sites * (224 * s * s + 32 * s + 48))
    gen = diagonalize(h, zero_mode_tol=sol.zero_mode_tol)
    lam, vecs = gen._paired(shape.half_zone), gen.u_rows
    times = [float(t) for t in times]
    top = float(np.abs(lam).max(initial=0.0))
    for t in times:
        if not math.isfinite(t * top):
            raise ValueError(f"quench time {t:g} times the largest quench energy {top:g} is not finite")
    rows = np.conj(np.transpose(vecs, (0, 2, 1))) @ sol.u_rows  # the state in the eigenbasis of h
    return (replace(sol, u_rows=vecs @ (np.exp(-1j * t * lam)[:, :, None] * rows)) for t in times)


def ground_energy(c: CouplingSet, spec: Spectrum | None = None) -> float:
    """Ground energy of the normal-ordered Hamiltonian, from the designated branch of
    ``spec``, the spectrum of ``c``: by default ``spectrum(c)``, which raises as it does;
    a caller that holds one, as a ``diagonalize`` solution, need not solve again.

    Each BdG block's spectrum is ``branch[k]`` and ``-branch[-k]``, so the negative
    energies over the grid sum to ``-sum |branch|``, and half of that is the ground
    energy of the symmetrized (Nambu) form, ``(1/2) sum_k tr A_k = (N/2) tr hop(0)``
    below the normal-ordered one, which is restored for comparison with Fock
    diagonalization."""
    spec = spectrum(c) if spec is None else spec
    onsite = np.trace(c.hop.mats[0]).real if len(c.hop) and not c.hop.offsets[0].any() else 0.0
    return float((c.shape.n_sites * onsite - np.abs(spec.branch).sum()) / 2)
