"""Brute-force many-body verification on tiny lattices.

The full Fock-space Hamiltonian of a coupling set is assembled in the
occupation-number basis and solved exactly, giving ground-state correlators
that are independent of all momentum-space machinery.  Mode
ordering is site-major then spin: mode ``i = flat_site * s + spin_index``, and
bit ``i`` of a basis-state integer is the occupation of mode ``i``.

Jordan-Wigner sign strings run over modes of lower index, so
``b_i |x> = (-1)^{#occupied modes < i} |x without i>``.  The Hamiltonian is
built by applying this rule vectorized over the whole basis and over every
quadratic term (one scatter per kind of term), which is algebraically
identical to multiplying the dense kron-string operator matrices but fast
enough for fifty desk-scale models.  Modes are indexed through one grid,
``np.arange(n_modes).reshape(dims + (s,))``, which ``np.roll`` shifts by a
lattice offset.
The Hamiltonian is assembled as one dense matrix.  A quadratic Hamiltonian,
pairing included, conserves fermion parity, so after checking that nothing
couples the even- and odd-parity sectors each sector is handled as a dense
block of its own.  The ground state takes each block's spectrum from
``eigvalsh`` and computes only the ground vectors, by shifted subspace inverse
iteration; its energy is the Rayleigh quotient of the first ground vector.
Time evolution diagonalizes each block in full.  Builds are capped at 14 modes
and at physical memory: ``build_fock_hamiltonian`` charges the ground state's
peak, 32 bytes per entry of the Fock matrix, ``evolve_state`` checks its own 40
before its first ``eigh``, and ``translation_operator`` charges its 8-byte output,
each plus the 64 MiB of ``solver._check_memory``.  A degenerate ground space has
no canonical single-vector correlators, so ``compare_with_quasifree`` refuses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .lattice import LatticeShape, site_matrix
from .model import CouplingSet
from .solver import RealSpaceCorrelators, _check_memory

__all__ = [
    "MODE_CAP",
    "ExactGroundState",
    "ComparisonResult",
    "build_fock_hamiltonian",
    "exact_ground_correlators",
    "translation_operator",
    "evolve_state",
    "correlators_from_vector",
    "invariant_from_correlators",
    "compare_with_quasifree",
]

MODE_CAP = 14
DEGENERACY_TOL = 1e-8
RESIDUAL_RTOL = 1e-12  # ground-vector residual bound, relative to the spectral width
_SHIFT = 1e-10         # inverse-iteration shift below the lowest level, relative to the spectral width
_RITZ_EXTRA = 4        # Rayleigh-Ritz vectors beyond the wanted ground vectors
_RITZ_REACH = 1e3      # levels within this many times the last wanted level's distance join the block
_INVERSE_STEPS = 6     # inverse-iteration steps before a LinAlgError


def _check_cap(n_modes: int, per_entry: int, what: str) -> None:
    """Refuse more than ``MODE_CAP`` modes, or arrays of ``per_entry`` bytes per
    entry of the ``2^Ns x 2^Ns`` Fock matrix that cannot fit in physical memory."""
    if n_modes > MODE_CAP:
        raise ValueError(f"{n_modes} modes exceeds the dense Fock-space cap of {MODE_CAP}")
    _check_memory(f"{what} on {n_modes} modes", per_entry * 4**n_modes)


def _bit_tables(n_modes: int):
    """Occupations and below-mode parities for every basis state.

    Returns ``bits[x, i]`` (occupation of mode i in state x) and ``par[x, i]``
    (+-1, the Jordan-Wigner sign for acting with mode i on state x).
    """
    states = np.arange(1 << n_modes)
    bits = (states[:, None] >> np.arange(n_modes)[None, :]) & 1
    below = np.cumsum(bits, axis=1) - bits
    return bits.astype(np.int8), (1 - 2 * (below & 1)).astype(np.int8)


def _modes(shape: LatticeShape) -> np.ndarray:
    """The site-major mode grid: ``modes[site + (spin,)]`` is that mode's index."""
    return np.arange(shape.n_modes).reshape(shape.dims + (shape.spin,))


def _terms(table, shape: LatticeShape) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Modes ``i``, ``j`` and coefficient of every term ``mat[a, b]`` at site ``m``
    that pairs mode ``(m, a)`` with mode ``(m - offset, b)``, in offset, site,
    ``(a, b)`` order."""
    modes = _modes(shape)
    i, j, coef = [], [], []
    for offset, mat in table.items():
        a, b = np.nonzero(mat)
        i.append(modes[..., a].ravel())
        j.append(np.roll(modes, offset, axis=tuple(range(shape.d)))[..., b].ravel())
        coef.append(np.broadcast_to(mat[a, b], modes[..., a].shape).ravel())
    if not i:
        return np.empty(0, int), np.empty(0, int), np.empty(0, complex)
    return np.concatenate(i), np.concatenate(j), np.concatenate(coef)


def build_fock_hamiltonian(c: CouplingSet) -> np.ndarray:
    """Dense Fock-space matrix of the quadratic Hamiltonian defined by ``c``."""
    ns = c.shape.n_modes
    # charged with the peak of exact_ground_correlators, during the solve: h (16
    # bytes per entry), both sector blocks, the shifted matrix and its LU copy (4
    # each; eigvalsh's copy is freed by then).  evolve_state checks its own, higher
    # peak; the build alone peaks near h itself
    _check_cap(ns, 32, "a dense Fock ground state")
    dim = 1 << ns
    bits, par = _bit_tables(ns)
    h = np.zeros((dim, dim), dtype=complex)
    flat = h.reshape(-1)

    # b+_i b_j acts on states with j occupied and i empty (or i == j), and
    # b+_i b+_j on states with both empty; each term's targets are distinct, and
    # np.add.at sums the terms that share an entry in term order
    i, j, coef = _terms(c.hop, c.shape)
    t, x = np.nonzero((bits[:, j] == 1).T & ((bits[:, i] == 0).T | (i == j)[:, None]))
    y = x ^ (1 << i[t]) ^ (1 << j[t])
    np.add.at(flat, y * dim + x, coef[t] * (par[x, j[t]] * par[x, i[t]] * np.where(j < i, -1, 1)[t]))

    i, j, coef = _terms(c.pair, c.shape)
    t, x = np.nonzero((bits[:, j] == 0).T & (bits[:, i] == 0).T & (i != j)[:, None])
    y = x | (1 << i[t]) | (1 << j[t])
    val = 0.5 * coef[t] * (par[x, j[t]] * par[x, i[t]] * np.where(j < i, -1, 1)[t])
    np.add.at(flat, y * dim + x, val)
    np.add.at(flat, x * dim + y, val.conj())

    # row blocks of about 2^16 entries keep the check's temporaries near 1 MB
    step = max(1, (1 << 16) // dim)
    herm = max(np.abs(h[r:r + step] - h[:, r:r + step].conj().T).max() for r in range(0, dim, step))
    if herm > 1e-12:  # a valid CouplingSet assembles Hermitian: this is an internal failure
        raise np.linalg.LinAlgError(
            f"assembled Fock Hamiltonian is not Hermitian (residual {herm:.2e})")
    return h


def _apply_annihilate(vec: np.ndarray, i: int, bits, par) -> np.ndarray:
    out = np.zeros_like(vec)
    src = np.nonzero(bits[:, i] == 1)[0]
    out[src ^ (1 << i)] = par[src, i] * vec[src]
    return out


def _apply_create(vec: np.ndarray, i: int, bits, par) -> np.ndarray:
    out = np.zeros_like(vec)
    src = np.nonzero(bits[:, i] == 0)[0]
    out[src | (1 << i)] = par[src, i] * vec[src]
    return out


def correlators_from_vector(vec: np.ndarray, n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """All-mode-pair ``<b+_i b_j>`` and ``<b_i b_j>`` matrices for one state vector."""
    bits, par = _bit_tables(n_modes)
    ann = [_apply_annihilate(vec, i, bits, par) for i in range(n_modes)]
    cre = [_apply_create(vec, i, bits, par) for i in range(n_modes)]
    bdag_b = np.empty((n_modes, n_modes), dtype=complex)
    bb = np.empty((n_modes, n_modes), dtype=complex)
    for i in range(n_modes):
        for j in range(n_modes):
            bdag_b[i, j] = np.vdot(ann[i], ann[j])
            bb[i, j] = np.vdot(cre[i], ann[j])
    return bdag_b, bb


@dataclass(frozen=True)
class ExactGroundState:
    """Exact diagonalization summary: lowest energy, gap to the next level,
    ground vector(s), and all two-point functions of the (possibly averaged)
    ground state."""

    energy: float
    gap_above: float
    degenerate: bool
    degeneracy_dim: int
    vectors: np.ndarray  # (dim, degeneracy_dim)
    bdag_b: np.ndarray   # (Ns, Ns)
    bb: np.ndarray       # (Ns, Ns)


def exact_ground_correlators(
    h: np.ndarray, degeneracy_tol: float = DEGENERACY_TOL, average_degenerate: bool = False
) -> ExactGroundState:
    """Exact ground space, sector by sector, and ground-state correlators.

    Each parity sector's spectrum comes from ``eigvalsh``, and the two are merged
    into one, so degeneracy is judged relative to the full spectral width and a
    ground space may span both sectors.  Only the ground vectors are computed, in
    each sector that holds ground levels, by shifted subspace inverse iteration
    (``_lowest_vectors``); each has a residual of at most
    ``RESIDUAL_RTOL * width``.  The energy is the Rayleigh quotient of the first
    ground vector.  For a degenerate ground space the correlators of a single
    arbitrary vector are not canonical; with ``average_degenerate`` they are
    averaged over an orthonormal basis of the ground space (the maximally mixed
    ground state).
    """
    dim = h.shape[0]
    n_modes = int(round(np.log2(dim)))
    sectors = _parity_sectors(h)
    blocks = [h[np.ix_(states, states)] for states in sectors]
    spectra = [np.linalg.eigvalsh(block) for block in blocks]
    merged = np.concatenate(spectra)
    order = np.argsort(merged, kind="stable")
    evals = merged[order]
    width = max(1.0, float(evals[-1] - evals[0]))
    cluster = np.nonzero(evals - evals[0] <= degeneracy_tol * width)[0]
    deg_dim = int(cluster[-1]) + 1
    degenerate = deg_dim > 1
    gap_above = float(evals[deg_dim] - evals[0]) if deg_dim < len(evals) else 0.0

    # both sectors hold dim / 2 states; zeros fill the other sector.  A sector's
    # ground levels are its lowest, and the stable merge keeps them in ascending
    # order, the order in which _lowest_vectors returns them
    in_sector = order[:deg_dim] // (dim // 2)
    vectors = np.zeros((dim, deg_dim), dtype=complex)
    for states, block, spectrum, cols in zip(sectors, blocks, spectra, (in_sector == 0, in_sector == 1)):
        if cols.any():
            vectors[np.ix_(states, cols)] = _lowest_vectors(block, spectrum, int(cols.sum()), width)
    take = deg_dim if (average_degenerate and degenerate) else 1
    pieces = [correlators_from_vector(np.ascontiguousarray(vectors[:, a]), n_modes) for a in range(take)]
    bdag_b = sum(p[0] for p in pieces) / take
    bb = sum(p[1] for p in pieces) / take
    return ExactGroundState(
        energy=float(np.vdot(vectors[:, 0], h @ vectors[:, 0]).real),
        gap_above=gap_above,
        degenerate=degenerate,
        degeneracy_dim=deg_dim,
        vectors=vectors,
        bdag_b=bdag_b,
        bb=bb,
    )


def _parity_sectors(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The basis states of the even, then the odd, fermion-parity sector.

    Raises if any entry of ``h`` couples the two sectors.
    """
    bits, _ = _bit_tables(int(round(np.log2(h.shape[0]))))
    odd = (bits.sum(axis=1) & 1).astype(bool)
    even_states, odd_states = np.nonzero(~odd)[0], np.nonzero(odd)[0]
    mixing = max(np.abs(h[np.ix_(even_states, odd_states)]).max(),
                 np.abs(h[np.ix_(odd_states, even_states)]).max())
    if mixing >= 1e-12:
        raise ValueError(f"Hamiltonian couples the fermion-parity sectors (entry {mixing:.2e})")
    return even_states, odd_states


def _lowest_vectors(block: np.ndarray, spectrum: np.ndarray, n: int, width: float) -> np.ndarray:
    """The ``n`` lowest eigenvectors of the Hermitian ``block``, in ascending order,
    given its ascending ``spectrum`` and the spectral ``width`` of ``h``.

    Shifted subspace inverse iteration: a block of vectors from a fixed-seed start
    is solved against ``block - sigma I``, orthonormalized and rotated by
    Rayleigh-Ritz.  The shift ``sigma`` sits ``_SHIFT * width`` below the lowest
    eigenvalue, so the shifted matrix is positive definite even when ``block`` is
    diagonal, and the wanted directions grow by ``(lambda_p - sigma) / (lambda_i -
    sigma)`` per step over the first level ``lambda_p`` outside the subspace.  The
    block holds ``_RITZ_EXTRA`` vectors beyond the ``n`` wanted ones, and more when
    needed to take in every level closer to ``sigma`` than ``_RITZ_REACH`` times the
    last wanted level, so that ratio is at most ``1 / _RITZ_REACH`` even for a
    degenerate ground space just below dense levels.  Raises ``LinAlgError`` when a
    Ritz residual is above ``RESIDUAL_RTOL * width`` after ``_INVERSE_STEPS`` steps.
    """
    size = len(spectrum)
    sigma = spectrum[0] - _SHIFT * width
    near = int(np.count_nonzero(spectrum - sigma < _RITZ_REACH * (spectrum[n - 1] - sigma)))
    p = min(size, max(n + _RITZ_EXTRA, near))
    tol = RESIDUAL_RTOL * width
    shifted = block.copy()
    shifted.flat[::size + 1] -= sigma
    v = np.random.default_rng(0).standard_normal((size, 2 * p)).view(complex)
    for _ in range(_INVERSE_STEPS):
        q = np.linalg.qr(np.linalg.solve(shifted, v))[0]
        theta, y = np.linalg.eigh(q.conj().T @ block @ q)
        v = q @ y
        residual = np.abs(block @ v[:, :n] - v[:, :n] * theta[:n]).max()
        if residual <= tol:
            return v[:, :n]
    raise np.linalg.LinAlgError(
        f"inverse iteration left a ground-vector residual of {residual:.2e} after "
        f"{_INVERSE_STEPS} steps (bound {tol:.2e})")


def translation_operator(shape: LatticeShape, axis: int = 0) -> np.ndarray:
    """Fock-space one-site translation along ``axis`` (a signed permutation matrix)."""
    ns = shape.n_modes
    _check_cap(ns, 8, "a Fock translation operator")  # the real output matrix
    mode_map = np.roll(_modes(shape), -1, axis=axis).ravel()  # mode at site + e_axis
    bits = _bit_tables(ns)[0].astype(np.int64)
    # the sign is the parity of the inversions the map makes among occupied modes
    inversions = np.triu(mode_map[:, None] > mode_map[None, :], k=1).astype(np.int64)
    sign = 1 - 2 * (np.einsum("xi,ij,xj->x", bits, inversions, bits) & 1)
    dim = 1 << ns
    out = np.zeros((dim, dim))
    out[bits @ (1 << mode_map), np.arange(dim)] = sign
    return out


def evolve_state(h: np.ndarray, t: float, vec: np.ndarray) -> np.ndarray:
    """``exp(-i t h) vec`` through the eigendecomposition of ``h``, sector by sector.

    Raises ``ValueError`` before the first ``eigh`` when it would not fit in
    physical memory.
    """
    # the peak comes while the odd sector is diagonalized: h (16 bytes per entry),
    # the even sector's eigenvectors, and eigh's input block, LAPACK copy, work,
    # rwork and output (4 each)
    _check_memory(f"time evolution in a {len(vec)}-state Fock space", 40 * h.size)
    out = np.zeros(len(vec), dtype=complex)
    for states in _parity_sectors(h):
        evals, evecs = np.linalg.eigh(h[np.ix_(states, states)])
        out[states] = evecs @ (np.exp(-1j * t * evals) * (evecs.conj().T @ vec[states]))
    return out


def invariant_from_correlators(bdag_b: np.ndarray, shape: LatticeShape) -> np.ndarray:
    """Site-averaged ``Im sum_j <b+_m b_{m+n}>`` from Fock correlators, a ``dims``-shaped
    array indexed by the reduced offset ``n``."""
    modes = _modes(shape)
    axes = tuple(range(shape.d))
    inv = [bdag_b[modes, np.roll(modes, [-c for c in n], axis=axes)].imag.sum()
           for n in np.ndindex(*shape.dims)]
    return np.reshape(inv, shape.dims) / shape.n_sites


class ComparisonResult(NamedTuple):
    max_correlator_dev: float
    energy_rel_dev: float | None


def compare_with_quasifree(
    exact: ExactGroundState,
    rc: RealSpaceCorrelators,
    energy: float | None = None,
    allow_degenerate: bool = False,
) -> ComparisonResult:
    """Entrywise deviation between Fock and momentum-space ground-state correlators.

    ``rc`` must cover every lattice offset.  Degenerate exact ground states are
    rejected unless explicitly allowed (their single-vector correlators are not
    canonical).
    """
    if exact.degenerate and not allow_degenerate:
        raise ValueError("degenerate exact ground state; correlators are not comparable")
    shape = rc.shape
    sites = shape.momenta()  # the row-major index grid, here of sites
    grids = [np.array([table[n] for n in np.ndindex(*shape.dims)]).reshape(shape.dims + (shape.spin,) * 2)
             for table in (rc.bdag_b, rc.bb)]
    qf = np.stack([site_matrix(grid, sites) for grid in grids])  # modes site-major
    dev = float(np.abs(qf - np.stack([exact.bdag_b, exact.bb])).max())
    e_dev = None
    if energy is not None:
        e_dev = abs(energy - exact.energy) / max(1.0, abs(exact.energy))
    return ComparisonResult(max_correlator_dev=dev, energy_rel_dev=e_dev)
