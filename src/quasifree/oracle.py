"""Brute-force many-body verification on tiny lattices.

The Fock-space Hamiltonian ``h`` of a coupling set, in the occupation-number
basis, is solved exactly, giving ground-state correlators that are independent
of all momentum-space machinery.  Mode ordering is site-major then spin: mode
``i = flat_site * s + spin_index``, and bit ``i`` of a basis-state integer is
the occupation of mode ``i``.

Jordan-Wigner sign strings run over modes of lower index, so
``b_i |x> = (-1)^{#occupied modes < i} |x without i>``.  ``_fock_columns`` builds
the columns of ``h`` at a set of source states by applying this rule vectorized
over those states and over every quadratic term, which is algebraically
identical to multiplying the dense kron-string operator matrices;
``build_fock_hamiltonian`` is its columns at every state.  Modes are indexed
through one grid, ``np.arange(n_modes).reshape(dims + (s,))``, indexed at
the sites shifted by every coupling offset at once.

A quadratic Hamiltonian, pairing included, conserves fermion parity; one
without pairing conserves the particle number ``N``; and a translation-invariant
one also commutes with every lattice translation ``T_g``.  ``fock_ground_state``,
which the ``oracle`` command runs, splits the basis states into charge groups,
the ``n_modes + 1`` particle numbers of a pairing-free coupling set or else the
two parities, and each group into crystal-momentum sectors ``K``, which need only
the columns of ``h`` at the orbit representatives, a slab about ``1/N`` of the
group's columns for ``N`` translations (``_momentum_sectors``); it builds only
those columns, on the group's own rows, from the couplings, and never forms
``h``.  A group's index table holds each basis state's row in the group's slab,
-1 outside the group, and a term that takes a source state to a -1 row is an
assembly fault.  ``exact_ground_correlators`` solves a dense ``h`` by its two
parity sectors alone.  The translation tables (``_translations``) are the powers
of each axis's one-site translation, one gather of its target and sign tables per
step; with the ``-g`` index and the phases ``exp(-i K.g)`` they are built once per
solve (``_translation_group``) and shared by every charge group.  Given an
estimate of the first level above the ground cluster, a block whose shifted
Cholesky factorization proves every level higher gets no spectrum
(``_sector_spectra``); every other block's spectrum comes from ``eigvalsh``, and
where the solved spectra do not settle the ground cluster and the level above it,
the skipped blocks are solved too, so the estimate never changes the result.  A
block that holds ground levels gives its ground vectors by shifted inverse
iteration at those known levels (``_lowest_vectors``), a few LU solves in place of
a second, full ``eigh``, and they are lifted back to the occupation basis by a
phased scatter over each orbit, whose coefficients only those sectors form.  The
energy of the first ground vector is the couplings contracted with its
correlators, or ``v^dag h v`` where ``h`` is given.

Fock spaces are capped at 14 modes, and each step checks physical memory
before it allocates, each estimate plus the 64 MiB of ``solver._check_memory``:
``build_fock_hamiltonian`` counts ``h``, 16 bytes per entry; the sectors 16
bytes per entry of every group's blocks and, for one group at a time, of its
column slab (the group's rows by its orbit representatives) and twice its
blocks, to which ``exact_ground_correlators`` adds ``h``.  A degenerate ground
space has no canonical single-vector correlators, so ``compare_with_quasifree``
refuses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .lattice import CouplingTable, LatticeShape, site_matrix
from .model import CouplingSet
from .solver import RealSpaceCorrelators, _check_memory

__all__ = [
    "MODE_CAP",
    "ExactGroundState",
    "ComparisonResult",
    "build_fock_hamiltonian",
    "fock_ground_state",
    "exact_ground_correlators",
    "correlators_from_vector",
    "compare_with_quasifree",
]

MODE_CAP = 14
DEGENERACY_TOL = 1e-8
# the most shifted solves that give a sector's ground vectors before one full eigh
# is cheaper: one LU solve costs 1/8 of an eigh at n = 52, 1/11 at n = 102 and
# 1/18 at n = 1170 (complex blocks, OpenBLAS on 2 threads)
MAX_SOLVES = 4


def _bit_tables(states: np.ndarray, n_modes: int):
    """Occupations and below-mode parities of the basis states ``states``.

    Returns ``bits[x, i]`` (occupation of mode i in state ``states[x]``) and
    ``par[x, i]`` (+-1, the Jordan-Wigner sign for acting with mode i on it).
    """
    bits = (states[:, None] >> np.arange(n_modes)[None, :]) & 1
    below = np.cumsum(bits, axis=1) - bits
    return bits.astype(np.int8), (1 - 2 * (below & 1)).astype(np.int8)


def _modes(shape: LatticeShape) -> np.ndarray:
    """The site-major mode grid: ``modes[site + (spin,)]`` is that mode's index."""
    return np.arange(shape.n_modes).reshape(shape.dims + (shape.spin,))


def _terms(table: CouplingTable, shape: LatticeShape) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Modes ``i``, ``j`` and coefficient of every term ``mats[k][a, b]`` at site ``m``
    that pairs mode ``(m, a)`` with mode ``(m - offsets[k], b)``, in site, offset,
    ``(a, b)`` order."""
    modes = _modes(shape)
    k, a, b = np.nonzero(table.mats)
    source = (shape.momenta()[:, None, :] - table.offsets[k]) % shape.dims  # (site, term, axis)
    i = modes[..., a].reshape(-1)
    j = modes[tuple(np.moveaxis(source, -1, 0)) + (b,)].reshape(-1)
    return i, j, np.tile(table.mats[k, a, b], shape.n_sites)


def _check_cap(n_modes: int) -> None:
    if n_modes > MODE_CAP:
        raise ValueError(f"{n_modes} modes exceeds the dense Fock-space cap of {MODE_CAP}")


def _fock_columns(c: CouplingSet, states: np.ndarray, rows=None, terms=None) -> np.ndarray:
    """``h[group, states]``: the columns of the Fock Hamiltonian of ``c`` at the basis
    states ``states``, on the rows of one charge group, with every term applied to
    those source states only.

    ``rows[x]`` is the row of basis state ``x`` in the slab, -1 outside the group;
    by default every state is its own row, and the slab is ``h[:, states]``.  A term
    that takes a source state outside the group raises ``LinAlgError``.  ``terms``
    is ``(_terms(c.hop, c.shape), _terms(c.pair, c.shape))``, passed by a caller
    that builds many slabs of one ``c``; by default it is built here.
    """
    if terms is None:
        terms = _terms(c.hop, c.shape), _terms(c.pair, c.shape)
    ns = c.shape.n_modes
    if rows is None:
        rows = np.arange(1 << ns)
    n = len(states)
    bits, par = _bit_tables(states, ns)
    cols = np.zeros((int(rows.max()) + 1, n), dtype=complex)
    flat = cols.reshape(-1)

    def scatter(i, j, t, x, val):
        target = states[x] ^ (1 << i[t]) ^ (1 << j[t])
        y = rows[target]
        if (y < 0).any():
            k = np.argmin(y)
            raise np.linalg.LinAlgError(
                f"Hamiltonian couples the {'fermion-parity' if len(c.pair) else 'particle-number'} "
                f"sectors (a term takes state {states[x[k]]} to state {target[k]})")
        np.add.at(flat, y * n + x, val[t] * (par[x, j[t]] * par[x, i[t]] * np.where(j < i, -1, 1)[t]))

    # b+_i b_j acts on sources with j occupied and i empty (or i == j), b+_i b+_j
    # on sources with both empty and its conjugate b_j b_i on sources with both
    # occupied, whose sign at the emptied state is minus the sign at the source;
    # each term's targets are distinct, and np.add.at sums the terms that share
    # an entry in term order
    i, j, coef = terms[0]
    scatter(i, j, *np.nonzero((bits[:, j] == 1).T & ((bits[:, i] == 0).T | (i == j)[:, None])), coef)
    i, j, coef = terms[1]
    for occupied, val in ((0, 0.5 * coef), (1, -0.5 * coef.conj())):
        scatter(i, j, *np.nonzero((bits[:, j] == occupied).T & (bits[:, i] == occupied).T & (i != j)[:, None]),
                val)
    return cols


def build_fock_hamiltonian(c: CouplingSet) -> np.ndarray:
    """Dense Fock-space matrix of the quadratic Hamiltonian defined by ``c``."""
    ns = c.shape.n_modes
    _check_cap(ns)
    # h itself; the term tables and the ~1 MB row blocks of the check are small
    _check_memory(f"a dense Fock Hamiltonian on {ns} modes", 16 * 4**ns)
    h = _fock_columns(c, np.arange(1 << ns))
    blocks = _row_blocks(len(h), len(h))
    herm = max(np.abs(h[r:r + blocks.step] - h[:, r:r + blocks.step].conj().T).max() for r in blocks)
    if herm > 1e-12:  # a valid CouplingSet assembles Hermitian: this is an internal failure
        raise np.linalg.LinAlgError(
            f"assembled Fock Hamiltonian is not Hermitian (residual {herm:.2e})")
    return h


def _apply(vec: np.ndarray, i: int, bits, par, occupied: int) -> np.ndarray:
    """``b_i vec`` (``occupied`` 1) or ``b+_i vec`` (``occupied`` 0), with Jordan-Wigner signs."""
    out = np.zeros_like(vec)
    src = np.nonzero(bits[:, i] == occupied)[0]
    out[src ^ (1 << i)] = par[src, i] * vec[src]
    return out


def correlators_from_vector(vec: np.ndarray, n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """All-mode-pair ``<b+_i b_j>`` and ``<b_i b_j>`` matrices for one state vector."""
    bits, par = _bit_tables(np.arange(1 << n_modes), n_modes)
    ann = [_apply(vec, i, bits, par, 1) for i in range(n_modes)]
    cre = [_apply(vec, i, bits, par, 0) for i in range(n_modes)]
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
    ground vector(s), and all two-point functions of the first ground vector."""

    energy: float
    gap_above: float
    degenerate: bool
    degeneracy_dim: int
    vectors: np.ndarray  # (dim, degeneracy_dim)
    bdag_b: np.ndarray   # (Ns, Ns)
    bb: np.ndarray       # (Ns, Ns)


def fock_ground_state(c: CouplingSet, degeneracy_tol: float = DEGENERACY_TOL,
                      hint: float | None = None) -> ExactGroundState:
    """Exact ground state of the couplings ``c`` by (charge, crystal-momentum)
    sectors, built from the columns of ``h`` at the orbit representatives only;
    ``h`` itself is never formed.  The charge is the particle number when ``c``
    has no pairing terms, and the fermion parity otherwise.  Otherwise as
    ``exact_ground_correlators``.

    ``hint``, an estimate of the first level above the ground cluster (the momentum
    route's ground energy plus its gap), spares ``eigvalsh`` on the sectors that a
    shifted Cholesky factorization proves to lie above it (``_sector_spectra``).  It
    only decides which sectors get a full spectrum: the result equals the unhinted
    one field by field, whatever the hint.

    Raises ``ValueError`` beyond ``MODE_CAP`` modes or when the sectors cannot fit
    in physical memory, and ``LinAlgError`` when a term takes a state out of its
    charge group or the assembled entries are not Hermitian and translation
    invariant.
    """
    _check_cap(c.shape.n_modes)
    terms = (i, j, hop), (p, q, pair) = _terms(c.hop, c.shape), _terms(c.pair, c.shape)

    def energy(v, bdag_b, bb):
        # <h> is each term's coefficient times its correlator; a pairing term and its
        # conjugate add up to the real part of pair <b+_p b+_q> = pair conj(<b_q b_p>)
        return float((hop @ bdag_b[i, j] + pair @ bb[q, p].conj()).real)

    return _ground_state(lambda reps, rows: _fock_columns(c, reps, rows, terms),
                         _translation_group(c.shape.n_modes, c.shape.dims), degeneracy_tol,
                         number=not len(c.pair), energy=energy, hint=hint)


def exact_ground_correlators(h: np.ndarray, degeneracy_tol: float = DEGENERACY_TOL) -> ExactGroundState:
    """Exact ground space of the dense Fock matrix ``h``, by its fermion-parity
    sectors, and the correlators of its first ground vector.

    Each sector's spectrum comes from ``eigvalsh``, with no hint to spare any,
    and all are merged into one, so degeneracy is judged relative to the full
    spectral width and a ground space may span several sectors.  Each sector that holds ground levels
    gives that many orthonormal eigenvectors at its lowest levels, by shifted
    inverse iteration from its spectrum (``_lowest_vectors``).  The energy is the
    Rayleigh quotient ``v^dag h v`` of the first ground vector.  For a degenerate
    ground space the correlators of a single arbitrary vector are not canonical.

    Raises ``ValueError`` when ``h`` couples the parity sectors or when the
    sectors cannot fit in physical memory, and ``LinAlgError`` when the
    entries of ``h`` that the blocks use are not Hermitian.
    """
    n_modes = int(round(np.log2(h.shape[0])))

    def columns(reps, rows):
        _check_charge(h, np.nonzero(rows < 0)[0], reps)
        return h[np.ix_(np.nonzero(rows >= 0)[0], reps)]

    return _ground_state(columns, _translation_group(n_modes, ()), degeneracy_tol, number=False,
                         energy=lambda v, bdag_b, bb: float(np.vdot(v, h @ v).real), held=h.nbytes)


def _ground_state(
    columns: Callable[[np.ndarray, np.ndarray], np.ndarray],
    group: _TranslationGroup,
    degeneracy_tol: float,
    number: bool,
    energy: Callable[[np.ndarray, np.ndarray, np.ndarray], float],
    held: int = 0,
    hint: float | None = None,
) -> ExactGroundState:
    """The ground state from the sectors of the translation ``group`` within each
    charge group (particle number if ``number``, else fermion parity), given
    ``columns(reps, rows)``, the slab ``h[states, reps]`` of a group's ``states``
    whose index table (``_group_rows``) is ``rows``; ``columns`` raises when ``h``
    couples the group to another, ``energy(v, bdag_b, bb)`` is ``<v|h|v>`` of the first
    ground vector and its correlators, ``held`` bytes are already allocated, and
    ``hint`` estimates the first level above the ground cluster (``_sector_spectra``)."""
    targets = group.targets
    dim = targets.shape[1]
    n_modes = dim.bit_length() - 1
    groups = _charge_groups(n_modes, number)
    reps = [states[targets[:, states].min(axis=0) == states] for states in groups]
    # every group's sector blocks, and beside them one group at a time its column
    # slab, freed with the group, and its gathered blocks and the FFT's output; that
    # allowance, 16 |group| |reps| + 2 blocks bytes, at least 48 |reps|^2 as |group| >=
    # |reps|, also covers the later work on one sector block of n <= |reps| at a time:
    # the certificate's shifted copy, Cholesky's work copy and its factor, 48 n^2
    # bytes, and the ground vectors' shifted copy and LU copy, 32 n^2 bytes
    blocks = [16 * len(targets) * len(r) ** 2 for r in reps]
    _check_memory(f"the sectors of a {dim}-state Fock space",
                  held + sum(blocks) + max(16 * len(states) * len(r) + 2 * b
                                           for states, r, b in zip(groups, reps, blocks)))
    sectors = []
    for states, r in zip(groups, reps):
        rows = _group_rows(states, dim)
        sectors += _momentum_sectors(columns(r, rows), r, rows, group)
    spectra = _sector_spectra([sector.block for sector in sectors], hint, degeneracy_tol)
    merged = np.concatenate(spectra)
    order = np.argsort(merged, kind="stable")
    evals = merged[order]
    width = max(1.0, float(evals[-1] - evals[0]))
    cluster = np.nonzero(evals - evals[0] <= degeneracy_tol * width)[0]
    deg_dim = int(cluster[-1]) + 1
    gap_above = float(evals[deg_dim] - evals[0]) if deg_dim < len(evals) else 0.0

    # a sector's ground levels are its lowest, and the stable merge keeps them in
    # ascending order, the order in which _lowest_vectors returns them
    owner = np.repeat(np.arange(len(sectors)), [len(spectrum) for spectrum in spectra])[order[:deg_dim]]
    vectors = np.zeros((dim, deg_dim), dtype=complex)
    for i in np.unique(owner):
        cols = owner == i
        sector = sectors[i]
        y = _lowest_vectors(sector.block, spectra[i], int(cols.sum()))
        # |r, K> = sum_g coef[g, r] |T_g r>: a phased scatter over each orbit
        lifted = np.zeros((dim, y.shape[1]), dtype=complex)
        np.add.at(lifted, targets[:, sector.reps].ravel(), (sector.coef()[..., None] * y).reshape(-1, y.shape[1]))
        vectors[:, cols] = lifted
    v = np.ascontiguousarray(vectors[:, 0])
    bdag_b, bb = correlators_from_vector(v, n_modes)
    return ExactGroundState(
        energy=energy(v, bdag_b, bb),
        gap_above=gap_above,
        degenerate=deg_dim > 1,
        degeneracy_dim=deg_dim,
        vectors=vectors,
        bdag_b=bdag_b,
        bb=bb,
    )


def _sector_spectra(blocks: list[np.ndarray], hint: float | None, degeneracy_tol: float) -> list[np.ndarray]:
    """The ascending ``eigvalsh`` spectrum of each Hermitian block, or an empty one
    for a block proven to lie above the ground cluster and the first level over it,
    so that the merged spectra give the ground cluster, the level above it and the
    blocks that hold them exactly as every block's spectrum would.

    ``hint`` estimates that first level, and the shift ``sigma`` sits
    ``1e-8 max(1, |hint|)`` above it.  By Sylvester's law of inertia every level of
    a block lies above ``sigma`` exactly when ``block - sigma`` has a Cholesky
    factor (spectrum slicing, Parlett, *The Symmetric Eigenvalue Problem*, ch. 3);
    ``_certified`` turns a computed factor into a proven floor.  Every block that
    it does not certify is solved, and the skips stand only when
    ``_skips_stand`` finds the solved spectra decide the result; otherwise the
    skipped blocks are solved too.  Without a finite ``sigma`` no block is skipped.
    """
    sigma = math.nan if hint is None else float(hint) + 1e-8 * max(1.0, abs(float(hint)))
    bounds = [_certified(block, sigma) if math.isfinite(sigma) else None for block in blocks]
    spectra = [np.linalg.eigvalsh(block) if bound is None else np.empty(0)
               for block, bound in zip(blocks, bounds)]
    skipped = [i for i, bound in enumerate(bounds) if bound is not None]
    if skipped and not _skips_stand(spectra, [bounds[i] for i in skipped], degeneracy_tol):
        for i in skipped:
            spectra[i] = np.linalg.eigvalsh(blocks[i])
    return spectra


def _certified(block: np.ndarray, sigma: float) -> tuple[float, float] | None:
    """``(floor, top)``, bounds on the ``eigvalsh`` levels of the Hermitian ``block``
    when a Cholesky factorization of ``block - sigma`` proves them above ``floor``,
    else ``None``; ``top`` is its Gershgorin upper bound.

    A diagonal entry at or below ``sigma`` already rules a factor out.  A computed
    factor ``R`` of the ``n x n`` matrix ``A = block - sigma`` is exact for ``A + dA``,
    ``|dA| <= gamma_{n+1} |R^dag| |R|`` (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., Thm 10.3), whose right side has 2-norm at most
    ``tr(A + dA) <= tr A / (1 - gamma_{n+1})``; with the rounding of the shifted
    diagonal, ``2 gamma_{n+1} tr A`` bounds how far the levels can lie below
    ``sigma``.  Both bounds are widened by ``n eps`` times the largest absolute row
    sum, for the backward error of the ``eigvalsh`` whose levels they stand for.
    """
    n = len(block)
    diag = block.diagonal().real
    if (diag <= sigma).any():
        return None
    shifted = block.copy()
    shifted.flat[::n + 1] -= sigma
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return None
    del shifted
    eps = np.finfo(float).eps
    gamma = (n + 1) * eps / 2 / (1 - (n + 1) * eps / 2)
    rows = np.abs(block).sum(axis=1)
    guard = n * eps * float(rows.max())
    with np.errstate(over="ignore"):  # a sigma near -realmax: an infinite trace certifies nothing
        trace = float((diag - sigma).sum())
    return sigma - 2 * gamma * trace - guard, float((diag + rows - np.abs(block.diagonal())).max()) + guard


def _skips_stand(spectra: list[np.ndarray], bounds: list[tuple[float, float]], degeneracy_tol: float) -> bool:
    """Whether the solved (nonempty) ``spectra`` fix the ground cluster and the first
    level above it whatever the skipped blocks' levels, given their ``(floor, top)``
    ``bounds``: the width lies between the solved levels' and the one that takes in
    the tops, so no solved level may fall between the two cluster cuts, and a solved
    level above them must exist and lie at or below every floor, which puts every
    skipped level above the wider cut too.
    """
    solved = [spectrum for spectrum in spectra if len(spectrum)]
    if not solved:
        return False
    levels = np.concatenate(solved)
    e0 = levels.min()
    top = max(levels.max(), max(bound[1] for bound in bounds))
    lo = degeneracy_tol * max(1.0, float(levels.max() - e0))
    hi = degeneracy_tol * max(1.0, float(top - e0))
    above = levels[levels - e0 > lo]
    return bool(len(above) and (above - e0).min() > hi and above.min() <= min(bound[0] for bound in bounds))


def _lowest_vectors(block: np.ndarray, levels: np.ndarray, k: int) -> np.ndarray:
    """``k`` orthonormal eigenvectors of the Hermitian ``block`` at its ``k`` lowest
    levels, given its ascending spectrum ``levels``, by shifted inverse iteration.

    The shift ``sigma`` sits a few ulps below ``levels[0]``, so each solve with
    ``block - sigma`` shrinks the components above the lowest ``k`` levels by at
    least ``rho = (levels[k-1] - sigma) / (levels[k] - sigma)`` against theirs.  A
    fixed start block leans off that subspace by about ``sqrt(n)`` (the tangent of
    its angle, for a generic subspace), so ``ceil(log(eps / sqrt(n)) / log rho)``
    solves, each followed by a QR step, leave the block's lowest invariant subspace
    to rounding, and a ``k x k`` Rayleigh-Ritz ``eigh`` separates the levels inside
    it.  Where that would take more than ``MAX_SOLVES`` solves, or ``k`` is the
    whole block, the lowest columns of a full ``eigh`` are taken instead.  The
    columns are normalized either way.
    """
    n = len(levels)
    eps = np.finfo(float).eps
    sigma = levels[0] - 4 * eps * max(1.0, -levels[0], levels[-1])
    rho = (levels[k - 1] - sigma) / (levels[k] - sigma) if k < n else 1.0
    if rho ** MAX_SOLVES > eps / math.sqrt(n):
        y = np.linalg.eigh(block)[1][:, :k]
    else:
        # x[j, c] = z_j^(c+1), z_j = exp(2 pi i (j+1) / golden ratio): deterministic,
        # and its rows at any k states, distinct z_j times a Vandermonde matrix of
        # them, have full rank
        golden = (math.sqrt(5) - 1) / 2
        x = np.exp(2j * np.pi * golden * np.outer(np.arange(1, n + 1), np.arange(1, k + 1)))
        shifted = block.copy()
        shifted.flat[::n + 1] -= sigma
        for _ in range(math.ceil(math.log(eps / math.sqrt(n)) / math.log(rho))):
            x = np.linalg.qr(np.linalg.solve(shifted, x))[0]
        y = x @ np.linalg.eigh(x.conj().T @ block @ x)[1]
    return y / np.linalg.norm(y, axis=0)


def _row_blocks(n_rows: int, row_len: int) -> range:
    """Starts of row blocks of about 2^16 entries of an ``n_rows x row_len``
    matrix: checked block by block, a Fock matrix or slab needs temporaries near
    1 MB, not near its own size."""
    return range(0, n_rows, max(1, (1 << 16) // row_len))


def _charge_groups(n_modes: int, number: bool) -> list[np.ndarray]:
    """The basis states of each value of the conserved charge in turn, ascending:
    the particle number (``number``) or else the fermion parity."""
    charge = _bit_tables(np.arange(1 << n_modes), n_modes)[0].sum(axis=1)
    if not number:
        charge &= 1
    return [np.nonzero(charge == q)[0] for q in range(int(charge.max()) + 1)]


def _group_rows(states: np.ndarray, dim: int) -> np.ndarray:
    """The index table of the charge group ``states`` among ``dim`` basis states:
    each state's row in the group's slabs, -1 outside the group."""
    rows = np.full(dim, -1)
    rows[states] = np.arange(len(states))
    return rows


def _check_charge(h: np.ndarray, other: np.ndarray, cols: np.ndarray) -> None:
    """Raise ``ValueError`` if the columns ``cols`` of the dense ``h``, in one
    fermion-parity group, have an entry in the rows ``other`` outside it."""
    blocks = _row_blocks(len(other), len(cols))
    mixing = max(np.abs(h[np.ix_(other[r:r + blocks.step], cols)]).max() for r in blocks)
    if mixing >= 1e-12:
        raise ValueError(f"Hamiltonian couples the fermion-parity sectors (entry {mixing:.2e})")


def _translations(n_modes: int, group: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Every lattice translation of every basis state: ``T_g |x> = signs[g, x] |targets[g, x]>``.

    ``g`` runs over the translations of a lattice of ``group`` sites per axis, in
    row-major order; ``group = ()`` is the identity alone.  ``T_g`` moves the
    particle in mode ``(m, a)`` to mode ``(m + g, a)``, and its sign is the parity
    of the inversions that mode map makes among the occupied modes.  The tables are
    powers of each axis's one-site translation ``T_e``, whose own tables come from
    its mode map: ``T_{g+e} |x> = signs[g, x] T_e |targets[g, x]>``, one gather of
    ``T_e``'s tables per step.
    """
    dim = 1 << n_modes
    states = np.arange(dim, dtype=np.int64)
    bits = (states[:, None] >> np.arange(n_modes)) & 1
    modes = np.arange(n_modes).reshape(group + (-1,))
    targets, signs = states[None], np.ones((1, dim), dtype=np.int64)
    for axis, n in enumerate(group):
        step = np.roll(modes, -1, axis=axis).ravel()  # step[m]: the mode at site(m) + e_axis
        inversions = np.triu(step[:, None] > step[None, :], k=1).astype(np.int64)
        one_target = bits @ (1 << step)
        one_sign = 1 - 2 * (np.einsum("xj,xj->x", bits @ inversions, bits) & 1)
        # the new axis runs fastest, so the stacked tables stay in row-major order
        t = np.empty((len(targets), n, dim), dtype=np.int64)
        sg = np.empty_like(t)
        t[:, 0], sg[:, 0] = targets, signs
        for k in range(1, n):
            sg[:, k] = sg[:, k - 1] * one_sign[t[:, k - 1]]
            t[:, k] = one_target[t[:, k - 1]]
        targets, signs = t.reshape(-1, dim), sg.reshape(-1, dim)
    return targets, signs


class _TranslationGroup(NamedTuple):
    """The translations of a lattice of ``dims`` sites per axis on the Fock basis,
    ``g`` and the momenta ``K`` in row-major order: the tables of ``_translations``,
    ``minus[g]``, the index of ``-g``, and ``phases[K, g] = exp(-i K.g)``."""

    dims: tuple[int, ...]
    targets: np.ndarray  # (N, dim)
    signs: np.ndarray    # (N, dim)
    minus: np.ndarray    # (N,)
    phases: np.ndarray   # (N, N)


def _translation_group(n_modes: int, dims: tuple[int, ...]) -> _TranslationGroup:
    """The translation group of ``dims`` on ``n_modes`` modes, built once per solve."""
    targets, signs = _translations(n_modes, dims)
    index = np.array(list(np.ndindex(*dims)), dtype=int).reshape(len(targets), len(dims))
    strides = np.array([math.prod(dims[axis + 1:]) for axis in range(len(dims))], dtype=int)
    minus = (-index % np.array(dims, dtype=int)) @ strides
    phases = np.exp(-2j * np.pi * (index / dims) @ index.T)
    return _TranslationGroup(dims, targets, signs, minus, phases)


class _Sector(NamedTuple):
    """One (charge, momentum) sector: the block of ``h`` over the orthonormal states
    ``|r, K> = sum_g coef[g, r] |T_g r>``, one per kept representative ``r``, where
    ``coef[g, r] = exp(-i K.g) sign_g(r) / sqrt(N |S_r|)``, formed only for a sector
    that is lifted."""

    block: np.ndarray
    reps: np.ndarray    # (n,)
    phase: np.ndarray   # (group order,): exp(-i K.g)
    scale: np.ndarray   # (group order, n): sign_g(r) / sqrt(|S_r|)

    def coef(self) -> np.ndarray:
        return self.phase[:, None] * self.scale / np.sqrt(len(self.phase))


def _momentum_sectors(cols: np.ndarray, reps: np.ndarray, rows: np.ndarray,
                      group: _TranslationGroup) -> list[_Sector]:
    """The nonempty crystal-momentum sectors of one charge group, from the columns
    ``cols = h[states, reps]`` at its orbit representatives on the group's
    ``states``, whose index table (``_group_rows``) is ``rows``, momenta ``K`` in
    row-major order of the translation ``group``.

    Each orbit is represented by its lowest state ``r``, with stabilizer ``S_r``.
    The state ``|r, K>`` is ``sum_g exp(-i K.g) T_g |r> / sqrt(N |S_r|)``, where
    ``N`` is the group order, when the FFT of the signs of ``S_r``,
    ``c_r(K) = sum_{g in S_r} exp(-i K.g) sign_g(r)``, is ``|S_r|``; where it is 0
    the sum vanishes and ``r`` drops out of sector ``K``.  Then
    ``<r', K|h|r, K>`` is the FFT over ``g`` of
    ``sign_g(r) h[r', T_g r] / sqrt(|S_r'| |S_r|)``, so one FFT gives every
    momentum's block at once, and ``h[r', T_g r] = conj(h[T_g r, r'])`` is an entry
    of ``cols``, since translations keep the charge.  Each gathered entry is
    checked against its translated partner,
    ``sign_{-g}(r') sign_g(r) h[T_{-g} r', r]``, the same entry of a Hermitian,
    translation-invariant ``h``.  With the trivial group the single sector's block
    is ``h`` restricted to the charge group, exactly.
    """
    t, s = group.targets[:, reps], group.signs[:, reps]
    n, n_g = len(reps), len(t)
    axes = tuple(range(len(group.dims)))
    fixed = t == reps
    weight = 1 / np.sqrt(fixed.sum(axis=0))
    # every entry of cols is gathered below, each state of the group being T_g r
    scale = float(np.abs(cols).max(initial=0.0))
    gathered = cols[rows[t]]  # gathered[g, r, r'] = h[T_g r, r']
    del cols  # every entry is gathered: the slab can go before the FFT
    worst = _translation_residual(gathered, s, group.minus)
    if worst >= 1e-12 * max(1.0, scale):
        raise np.linalg.LinAlgError(f"assembled Fock Hamiltonian is not Hermitian and translation "
                                    f"invariant on {group.dims} (residual {worst:.2e})")
    blocks = np.conjugate(gathered, out=gathered).transpose(0, 2, 1)  # blocks[g, r', r] = h[r', T_g r]
    del gathered  # blocks alone holds the buffer, freed once the FFT returns
    signed = s * weight  # signed[g, r] = sign_g(r) / sqrt(|S_r|)
    blocks *= signed[:, None, :]
    blocks *= weight[:, None]
    blocks = np.fft.fftn(blocks.reshape(group.dims + (n, n)), axes=axes).reshape(n_g, n, n)
    kept = np.fft.fftn((s * fixed).reshape(group.dims + (n,)), axes=axes).reshape(n_g, n).real > 0.5
    sectors = []
    for block, keep, phase in zip(blocks, kept, group.phases):
        keep = np.nonzero(keep)[0]
        if len(keep):
            sectors.append(_Sector(block[keep[:, None], keep], reps[keep], phase, signed[:, keep]))
    return sectors


def _translation_residual(gathered: np.ndarray, s: np.ndarray, minus: np.ndarray) -> float:
    """The largest ``|conj(gathered[g, r, r']) - s[g, r] s[-g, r'] gathered[-g, r', r]|``.

    The residual at ``-g`` is the conjugate transpose of that at ``g``, so only the
    first translations that hold one of each pair ``(g, -g)`` are compared, in one
    dimension ``g <= N/2``, against one gathered copy of their partners.
    """
    half = int(np.minimum(np.arange(len(minus)), minus).max()) + 1
    partner = gathered[minus[:half]].transpose(0, 2, 1)
    partner *= s[:half, :, None]
    partner *= s[minus[:half], None, :]
    np.conjugate(partner, out=partner)
    partner -= gathered[:half]
    return float(np.abs(partner).max(initial=0.0))


class ComparisonResult(NamedTuple):
    max_correlator_dev: float
    energy_rel_dev: float | None


def compare_with_quasifree(
    exact: ExactGroundState,
    rc: RealSpaceCorrelators,
    energy: float | None = None,
) -> ComparisonResult:
    """Entrywise deviation between Fock and momentum-space ground-state correlators.

    ``rc`` must cover every lattice offset.  Degenerate exact ground states are
    rejected (their single-vector correlators are not canonical).
    """
    if exact.degenerate:
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
