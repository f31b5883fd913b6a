"""Momentum-space diagonalization and exact ground-state covariance.

Per momentum the 2s x 2s BdG block ``H_k`` is diagonalized and the Bogoliubov
data is organized in the particle-hole consistent layout

    U_k = [[alpha_k^dag, beta_{-k}^T], [beta_k^dag, alpha_{-k}^T]],

whose first s columns are the designated-branch eigenvectors at ``k`` (energies
``branch[k]``) and whose last s columns are the particle-hole images
``sx conj(.)`` of the designated eigenvectors at ``-k``.  The designated branch
maximizes the particle weight ``|upper components|^2``, which keeps a
number-conserving model's particle bands designated.

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
``-k`` the image of that at ``k``, so only the lead momenta (flat index below
that of ``-k``) and the self-conjugate ones are diagonalized; ``U_{-k}`` is
filled in as the image of ``U_k``.  That one eigenbasis is all a solution
stores.

A second route assembles the same kernels from the Bogoliubov coefficients and
branch signs (``covariance_from_coefficients``).  It reads the same eigenbasis
but uses different algebra; the two must agree, and the test suite checks both
against references that share no code with them (the dense Fock oracle and a
full-zone ``eigh`` projector).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .lattice import LatticeShape, fourier_circulant, inverse_fourier
from .model import CouplingSet, bdg_blocks, random_model

__all__ = [
    "BogoliubovSolution",
    "CovarianceKernel",
    "RealSpaceCorrelators",
    "diagonalize",
    "spinless_closed_form",
    "ground_covariance",
    "covariance_from_coefficients",
    "real_space",
    "apply_bogoliubov_map",
    "validate_ph_map",
    "random_ph_map",
    "evolve_quench",
    "ground_energy",
    "constraint_residuals",
]

ZERO_MODE_TOL = 1e-9
CLUSTER_RTOL = 1e-12  # relative eigenvalue spacing below which columns form a degenerate cluster


def _is_zero(energies: np.ndarray, tol: float) -> np.ndarray:
    """The zero-mode rule: an energy is a zero mode when ``|energy| < tol``."""
    return np.abs(energies) < tol


def _resolve_clusters(lam: np.ndarray, vecs: np.ndarray, s: int, rtol: float = CLUSTER_RTOL) -> np.ndarray:
    """Within each degenerate eigenvalue cluster, rotate ``vecs`` in place to
    particle-weight extremal vectors."""
    scale = max(1.0, float(np.abs(lam).max()))
    start = 0
    for stop in range(1, len(lam) + 1):
        if stop == len(lam) or lam[stop] - lam[stop - 1] > rtol * scale:
            if stop - start > 1:
                block = vecs[:, start:stop]
                _, rot = np.linalg.eigh(block[:s].conj().T @ block[:s])
                vecs[:, start:stop] = block @ rot[:, ::-1]
            start = stop
    return vecs


@dataclass(frozen=True)
class BogoliubovSolution:
    """Full-grid eigendata of one Hamiltonian: ``u``/``u_energies`` in the
    particle-hole consistent column layout of the module docstring.

    Everything else is derived from them: ``energies`` (ascending per momentum),
    ``coef_ok`` (momenta free of zero modes, where the designation is canonical),
    ``gap``, ``zero_modes()``, ``branch``, ``alpha`` and ``beta``.
    """

    shape: LatticeShape
    u: np.ndarray           # (M, 2s, 2s)
    u_energies: np.ndarray  # (M, 2s)
    zero_mode_tol: float

    @property
    def energies(self) -> np.ndarray:
        """One-particle energies per momentum in ascending order, shape (M, 2s)."""
        return np.sort(self.u_energies, axis=1)

    @property
    def coef_ok(self) -> np.ndarray:
        """(M,) bool: the block at this momentum has no zero mode."""
        return ~_is_zero(self.u_energies, self.zero_mode_tol).any(axis=1)

    @property
    def branch(self) -> np.ndarray:
        """Designated one-particle energies ``u_energies[:, :s]``, shape (M, s)."""
        return self.u_energies[:, :self.shape.spin]

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

    @property
    def gap(self) -> float:
        return float(np.abs(self.u_energies).min())

    def zero_modes(self) -> list[tuple[tuple[int, ...], int]]:
        """(momentum tuple, slot in ``energies``) for every zero mode."""
        hits = np.argwhere(_is_zero(self.energies, self.zero_mode_tol))
        grid = self.shape.momenta()
        return [(tuple(int(c) for c in grid[i]), int(a)) for i, a in hits]


def _designate(lam: np.ndarray, pw: np.ndarray, s: int) -> np.ndarray:
    """Per row: the s heaviest particle-weight columns, energy ascending, then the rest descending."""
    def by(key, cols):  # each row of ``cols`` stably sorted by ``key`` at those columns
        order = np.argsort(np.take_along_axis(key, cols, axis=1), axis=1, kind="stable")
        return np.take_along_axis(cols, order, axis=1)

    top = np.argsort(-pw, axis=1, kind="stable")
    return np.concatenate([by(lam, top[:, :s]), by(-lam, np.sort(top[:, s:], axis=1))], axis=1)


def diagonalize(c: CouplingSet, zero_mode_tol: float = ZERO_MODE_TOL) -> BogoliubovSolution:
    """Hermitian eigendecomposition of the lead-momentum BdG blocks plus branch designation.

    Each pair ``(k, -k)`` is diagonalized and designated at its lower flat index and
    the partner gets the particle-hole image; the self-conjugate momenta (at most
    ``2^d``) go one by one.
    """
    shape = c.shape
    s = shape.spin
    neg = shape.negation_table
    rows = np.nonzero(np.arange(shape.n_sites) <= neg)[0]  # lead and self-conjugate momenta
    blocks = bdg_blocks(c)[rows]
    try:
        energies, vectors = np.linalg.eigh(blocks)
    except np.linalg.LinAlgError:
        # locate the offending momentum for the error message
        for i, blk in zip(rows, blocks):
            try:
                np.linalg.eigh(blk)
            except np.linalg.LinAlgError as exc:
                k = tuple(int(x) for x in shape.momenta()[i])
                raise np.linalg.LinAlgError(f"eigensolver failed at momentum {k}") from exc
        raise

    u = np.empty((shape.n_sites, 2 * s, 2 * s), dtype=complex)
    u_energies = np.empty((shape.n_sites, 2 * s))
    is_lead = rows < neg[rows]
    lead = rows[is_lead]
    lam, vecs = energies[is_lead], vectors[is_lead]
    scale = np.maximum(1.0, np.abs(lam).max(axis=1))
    for r in np.nonzero((~(np.diff(lam, axis=1) > CLUSTER_RTOL * scale[:, None])).any(axis=1))[0]:
        _resolve_clusters(lam[r], vecs[r], s)
    cols = _designate(lam, np.sum(np.abs(vecs[:, :s]) ** 2, axis=1), s)
    u[lead] = np.take_along_axis(vecs, cols[:, None, :], axis=2)
    u_energies[lead] = np.take_along_axis(lam, cols, axis=1)

    # partner layout: particle-hole images of the lead columns, halves swapped
    u[neg[lead]] = np.roll(u[lead], s, axis=(1, 2)).conj()
    u_energies[neg[lead]] = -np.roll(u_energies[lead], s, axis=1)

    for r in np.nonzero(~is_lead)[0]:
        # self-conjugate momentum: partner columns live in the same block
        i, lam = rows[r], energies[r]
        vecs = _resolve_clusters(lam, vectors[r], s)
        if _is_zero(lam, zero_mode_tol).any():
            zero_cols = np.r_[s:2 * s, s - 1:-1:-1]
            u[i], u_energies[i] = vecs[:, zero_cols], lam[zero_cols]
            continue
        pos = np.nonzero(lam > 0)[0]
        if len(pos) != s:
            raise np.linalg.LinAlgError(
                f"self-conjugate block lost its +- eigenvalue pairing at flat index {i}"
            )
        flip = np.sum(np.abs(vecs[:s, pos]) ** 2, axis=0) < 0.5
        e = np.where(flip, -lam[pos], lam[pos])
        order = np.argsort(e, kind="stable")
        d = np.where(flip, np.roll(vecs[:, pos], s, axis=0).conj(), vecs[:, pos])[:, order]
        # d is orthogonal to its image only to about eps ||H_k|| / gap; the polar
        # factor of [d, image] is unitary and keeps the image structure
        x, _, yh = np.linalg.svd(np.concatenate([d, np.roll(d, s, axis=0).conj()], axis=1))
        d = (x @ yh)[:, :s]
        u[i] = np.concatenate([d, np.roll(d, s, axis=0).conj()], axis=1)
        u_energies[i] = np.concatenate([e[order], -e[order]])
    return BogoliubovSolution(shape=shape, u=u, u_energies=u_energies, zero_mode_tol=zero_mode_tol)


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
    ant = np.transpose(an, (0, 2, 1))
    bnt = np.transpose(bn, (0, 2, 1))
    return {
        "anticommutation": float(np.abs(a @ bnt + b @ ant).max()),
        "normalization": float(np.abs(a @ np.conj(at) + b @ np.conj(bt) - eye).max()),
        "s_plus": float(np.abs(ah @ b + bnt @ np.conj(an)).max()),
        "z_plus": float(np.abs(ah @ a + bnt @ np.conj(bn) - eye).max()),
    }


def spinless_closed_form(c: CouplingSet) -> np.ndarray:
    """Closed-form one-particle energies for spinless models.

    Per momentum, ``(A_k - A_{-k} + sqrt((A_k + A_{-k})^2 + 4 |B_k|^2)) / 2``;
    together with ``-value(-k)`` this reproduces the 2x2 block eigenvalue pair.
    """
    if c.shape.spin != 1:
        raise ValueError("closed form applies to spinless models only")
    a = fourier_circulant(c.hop, c.shape)[:, 0, 0].real
    b = fourier_circulant(c.pair, c.shape)[:, 0, 0]
    an = a[c.shape.negation_table]
    rad = (a + an) ** 2 + 4.0 * np.abs(b) ** 2
    return (a - an + np.sqrt(np.clip(rad, 0.0, None))) / 2.0


# ---------------------------------------------------------------------------
# covariance kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CovarianceKernel:
    """Gaussian state of the lattice: occupation kernel ``g``, pairing kernel ``f``,
    and the zero modes (momentum, eigenvalue slot) filled with weight 1/2."""

    shape: LatticeShape
    g: np.ndarray  # (M, s, s)
    f: np.ndarray  # (M, s, s)
    zero_modes: tuple[tuple[tuple[int, ...], int], ...] = ()

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

    def trace_kernel(self) -> np.ndarray:
        """Spin-traced occupation per momentum (real)."""
        return np.trace(self.g, axis1=1, axis2=2).real


def _kernels_from_gamma(gamma: np.ndarray, shape: LatticeShape, zero_modes=()) -> CovarianceKernel:
    s = shape.spin
    g = gamma[shape.negation_table][:, s:, s:].copy()
    f = gamma[:, :s, s:].copy()
    return CovarianceKernel(shape=shape, g=g, f=f, zero_modes=tuple(zero_modes))


def ground_covariance(sol: BogoliubovSolution) -> CovarianceKernel:
    """Exact ground-state kernels from the positive-energy spectral projector.

    Zero modes are occupied with weight 1/2 and listed in ``zero_modes``;
    everything else is filled by energy sign.
    """
    lam, u = sol.u_energies, sol.u
    weight = np.where(_is_zero(lam, sol.zero_mode_tol), 0.5, lam > 0)
    gamma = (u * weight[:, None, :]) @ np.conj(np.transpose(u, (0, 2, 1)))
    return _kernels_from_gamma(gamma, sol.shape, sol.zero_modes())


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

    return CovarianceKernel(shape=sol.shape, g=0.5 * bdag_b[neg], f=0.5 * bb, zero_modes=())


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


def validate_ph_map(w: np.ndarray, shape: LatticeShape, tol: float = 1e-10) -> None:
    """Check a per-momentum map is unitary with the particle-hole block structure."""
    s = shape.spin
    if w.shape != (shape.n_sites, 2 * s, 2 * s):
        raise ValueError(f"map must have shape {(shape.n_sites, 2 * s, 2 * s)}, got {w.shape}")
    eye = np.eye(2 * s)
    uerr = np.abs(w @ np.conj(np.transpose(w, (0, 2, 1))) - eye).max()
    if uerr > tol:
        raise ValueError(f"map is not unitary (residual {uerr:.2e})")
    pherr = np.abs(np.roll(np.conj(w[shape.negation_table]), s, axis=(1, 2)) - w).max()
    if pherr > tol:
        raise ValueError(f"map breaks particle-hole structure (residual {pherr:.2e})")


def apply_bogoliubov_map(cov: CovarianceKernel, w: np.ndarray) -> CovarianceKernel:
    """Conjugate the Nambu blocks by a validated translation-invariant Bogoliubov map."""
    validate_ph_map(np.asarray(w, dtype=complex), cov.shape)
    gamma = w @ cov.gamma() @ np.conj(np.transpose(w, (0, 2, 1)))
    return _kernels_from_gamma(gamma, cov.shape, cov.zero_modes)


def _propagator(h: CouplingSet, t: float) -> np.ndarray:
    """``exp(-i t H_k)`` for every BdG block of ``h``, shape ``(M, 2s, 2s)``."""
    lam, vecs = np.linalg.eigh(bdg_blocks(h))
    phases = np.exp(-1j * t * lam)
    return (vecs * phases[:, None, :]) @ np.conj(np.transpose(vecs, (0, 2, 1)))


def random_ph_map(shape: LatticeShape, seed: int, strength: float = 1.0) -> np.ndarray:
    """Random valid Bogoliubov map ``exp(-i * strength * H_k)`` of a seeded Hamiltonian."""
    reach = min(2, (min(shape.dims) - 1) // 2)
    return _propagator(random_model(shape, reach=reach, pairing=True, seed=seed), strength)


def evolve_quench(cov: CovarianceKernel, h: CouplingSet, t: float) -> CovarianceKernel:
    """Sudden-quench evolution: conjugate each Nambu block by ``exp(-i t H'_k)``."""
    if h.shape != cov.shape:
        raise ValueError(f"quench shape {h.shape} does not match state shape {cov.shape}")
    prop = _propagator(h, t)
    gamma = prop @ cov.gamma() @ np.conj(np.transpose(prop, (0, 2, 1)))
    return _kernels_from_gamma(gamma, cov.shape, cov.zero_modes)


def ground_energy(c: CouplingSet) -> float:
    """Ground energy of the normal-ordered Hamiltonian.

    The half-sum of negative BdG eigenvalues is the ground energy of the
    symmetrized (Nambu) form, which sits ``-(1/2) sum_k tr A_k`` below the
    normal-ordered one; the constant is restored here so the value is directly
    comparable with brute-force Fock diagonalization.
    """
    lam = np.linalg.eigvalsh(bdg_blocks(c))
    trace_a = np.trace(fourier_circulant(c.hop, c.shape), axis1=1, axis2=2).real.sum()
    return float(lam[lam < 0].sum() / 2.0 + trace_a / 2.0)
