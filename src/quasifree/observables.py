"""Inversion-breaking invariants, gap diagnostics, criticality verdicts, entropy scans.

The central quantity is the offset map

    invariant(n) = Im sum_j <b^{j dag}_m b^j_{m+n}>,

the density of the conserved charge ``C_n = (i/2) sum_{m,j} (b+_{n+m} b_m - b+_m b_{m+n})``.
It equals the sine transform of the spin-traced occupation kernel, is invariant
under every translation-invariant Bogoliubov map and quench, and can only be
nonzero when the one-particle spectrum is sign-asymmetric under momentum
negation, which forces a band through zero in the large-lattice limit.  A
truly gapped model therefore carries an identically vanishing invariant even
at finite size; a nonzero invariant together with a stable finite-size gap
would falsify that picture and is reported as such.

Block entropies of a chain come from the correlation spectrum of the block.
When the pairing kernel is exactly zero that is the spectrum of the Ls x Ls
hopping matrix ``C_xy = <b+_x b_y>`` (Peschel 2003); otherwise it is the
spectrum of the 2Ls x 2Ls Nambu correlation matrix of the block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .lattice import LatticeShape, inverse_fourier
from .model import CouplingSet, random_model, scaled, slope_bound
from .solver import (
    ZERO_MODE_TOL,
    BogoliubovSolution,
    CovarianceKernel,
    diagonalize,
    ground_covariance,
)

__all__ = [
    "InvariantReport",
    "EntropyScan",
    "SurveyResult",
    "invariant_map",
    "asymmetry_diagnostics",
    "verify_criticality",
    "gapped_model_survey",
    "block_entropy",
    "entropy_scan",
]

GAP_TOL = 1e-6
INV_TOL = 1e-8
SURVEY_GAP_TOL = 0.1  # above pi/N for N >= 32 at unit band slope


def invariant_map(cov: CovarianceKernel) -> np.ndarray:
    """The invariant at every lattice offset, a ``dims``-shaped array indexed by the
    reduced offset, via an inverse FFT of the traced kernel."""
    shape = cov.shape
    return np.fft.ifftn(cov.trace_kernel().reshape(shape.dims)).imag


def asymmetry_diagnostics(
    sol: BogoliubovSolution, threshold: float = 0.5
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Sign-asymmetry markers of the designated branch.

    Returns ``((momenta, band, M, P), (momenta, band))``.  The first group lists
    the (momentum, band) entries with ``M = (sgn L_k - sgn L_{-k})/2`` exceeding
    the threshold in magnitude; the second those whose branch energy is too
    close to zero for a sign.  Momenta are ``(n, d)`` rows and the other arrays
    have length ``n``; both groups run over momenta in flat order, bands
    ascending within a momentum.
    """
    neg = sol.shape.negation_table
    grid = sol.shape.momenta()
    lk, lnk = sol.branch, sol.branch[neg]
    indet = (np.minimum(np.abs(lk), np.abs(lnk)) <= sol.zero_mode_tol) | ~(
        sol.coef_ok & sol.coef_ok[neg])[:, None]
    m = (np.sign(lk) - np.sign(lnk)) / 2.0
    p = (np.sign(lk) + np.sign(lnk)) / 2.0
    i, j = np.nonzero(~indet & (np.abs(m) > threshold))
    k, b = np.nonzero(indet)
    return (grid[i], j, m[i, j], p[i, j]), (grid[k], b)


@dataclass(frozen=True)
class InvariantReport:
    """Outcome of the gap/invariant consistency check on one model."""

    dims: tuple[int, ...]
    spin: int
    invariant: np.ndarray  # dims-shaped, indexed by reduced offset
    max_abs_invariant: float
    gap: float
    doubled_gap: float | None
    asymmetry: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]  # momenta (n, d), band, M, P
    indeterminate: tuple[np.ndarray, np.ndarray]  # momenta (n, d), band
    zero_modes: tuple
    verdict: str  # consistent-gapped | gapless-by-invariant | gapless-by-spectrum
    falsification: bool
    gap_tol: float
    inv_tol: float


def verify_criticality(
    c: CouplingSet,
    gap_tol: float = GAP_TOL,
    inv_tol: float = INV_TOL,
    zero_mode_tol: float = ZERO_MODE_TOL,
    size_doubling: bool = False,
) -> InvariantReport:
    """Evaluate the invariant map and the spectral gap, and classify the model.

    A nonzero invariant with a gap that survives the tolerance (and, when
    requested, lattice doubling) is flagged as a falsification event; otherwise
    the verdict records which side of the criterion fired.
    """
    sol = diagonalize(c, zero_mode_tol=zero_mode_tol)
    cov = ground_covariance(sol)
    inv = invariant_map(cov)
    max_inv = float(np.abs(inv).max())
    gap = sol.gap
    doubled_gap = None
    if size_doubling:
        doubled = c.resized(tuple(2 * n for n in c.shape.dims))
        doubled_gap = diagonalize(doubled, zero_mode_tol=zero_mode_tol).gap

    gapped = gap > gap_tol and (doubled_gap is None or doubled_gap > gap_tol)
    if not gapped:
        verdict = "gapless-by-spectrum"
        falsification = False
    elif max_inv >= inv_tol:
        verdict = "gapless-by-invariant"
        falsification = True
    else:
        verdict = "consistent-gapped"
        falsification = False

    asym, indet = asymmetry_diagnostics(sol)
    return InvariantReport(
        dims=c.shape.dims, spin=c.shape.spin,
        invariant=inv, max_abs_invariant=max_inv,
        gap=gap, doubled_gap=doubled_gap,
        asymmetry=asym, indeterminate=indet,
        zero_modes=tuple(cov.zero_modes),
        verdict=verdict, falsification=falsification,
        gap_tol=gap_tol, inv_tol=inv_tol,
    )


@dataclass(frozen=True)
class SurveyResult:
    """Outcome of a randomized sweep of the gap/invariant consistency check."""

    drawn: int
    gapped: int
    falsifications: int
    worst_invariant: float
    events: tuple[tuple[int, float, float], ...]  # (seed, gap, invariant)


def gapped_model_survey(
    dims: tuple[int, ...],
    count: int,
    seed: int,
    reach: int = 2,
    spins: Sequence[int] = (1, 2),
    gap_tol: float = SURVEY_GAP_TOL,
    inv_tol: float = INV_TOL,
    zero_mode_tol: float = ZERO_MODE_TOL,
    slope_limit: float = 1.0,
) -> SurveyResult:
    """Draw ``count`` random models, keep the stably gapped ones, check invariants.

    Each draw alternates spin and pairing and is rescaled so its band-slope
    bound does not exceed ``slope_limit``; with unit slopes, a continuum band
    crossing forces a grid energy below ``pi/N``, so requiring the gap above
    ``gap_tol > pi/N`` at the base size and above ``gap_tol/2 > pi/(2N)`` on
    the doubled lattice provably excludes gapless bands.  Surviving models are
    genuinely gapped and must carry a vanishing invariant; any with invariant
    at or above ``inv_tol`` is a falsification event.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    spins = tuple(spins)
    doubled = tuple(2 * n for n in dims)
    gapped = falsified = 0
    worst = 0.0
    events = []
    for idx in range(count):
        spin = spins[idx % len(spins)]
        pairing = (idx // len(spins)) % 2 == 0
        cs = random_model(LatticeShape(dims, spin), reach=reach, pairing=pairing, seed=seed + idx)
        steep = slope_bound(cs)
        if steep > slope_limit:
            cs = scaled(cs, slope_limit / steep)
        sol = diagonalize(cs, zero_mode_tol=zero_mode_tol)
        if sol.gap <= gap_tol:
            continue
        if diagonalize(cs.resized(doubled), zero_mode_tol=zero_mode_tol).gap <= gap_tol / 2:
            continue
        gapped += 1
        max_inv = float(np.abs(invariant_map(ground_covariance(sol))).max())
        worst = max(worst, max_inv)
        if max_inv >= inv_tol:
            falsified += 1
            events.append((seed + idx, sol.gap, max_inv))
    return SurveyResult(
        drawn=count, gapped=gapped, falsifications=falsified,
        worst_invariant=worst, events=tuple(events),
    )


# ---------------------------------------------------------------------------
# block entanglement entropy
# ---------------------------------------------------------------------------

def _offset_stacks(cov: CovarianceKernel, top: int) -> tuple[np.ndarray, np.ndarray]:
    """``<b+_x b_{x+n}>`` and ``<b_x b_{x+n}>`` of a chain for n = -(top-1)..top-1,
    stacked as ``(2 top - 1, s, s)`` arrays indexed by ``n + top - 1``.

    Offsets 0..top-1 come from the kernels' inverse transforms; ``<b_x b_{x+n}>``
    sits at ``-n`` of the pairing one.  Negative offsets are ``c[n]^dag`` and
    ``-d[n]^T``.  Offset 0 holds the mirrored ``c[0]^dag`` and ``-d[0]^T``: these
    equal ``c[0]`` and ``d[0]`` only to rounding.  The mirroring serves only
    the pairing path, whose entropies stay pinned to the mirrored values.
    """
    c = inverse_fourier(cov.g, cov.shape)[:top]
    d = inverse_fourier(cov.f, cov.shape)[-np.arange(top)]
    return (np.concatenate([c[::-1].conj().swapaxes(1, 2), c[1:]]),
            np.concatenate([-d[::-1].swapaxes(1, 2), d[1:]]))


def _restricted_nambu(c: np.ndarray, d: np.ndarray, length: int) -> np.ndarray:
    """2Ls x 2Ls correlation matrix of the first ``length`` sites of a chain,
    from the offset stacks of ``_offset_stacks``."""
    top = (len(c) + 1) // 2
    s = c.shape[1]
    ls = length * s
    x = np.arange(length)
    diff = x[:, None] - x[None, :] + top - 1   # stack index of offset x - y
    out = np.empty((2 * ls, 2 * ls), dtype=complex)
    q = out.reshape(2, length, s, 2, length, s)
    np.subtract(np.eye(ls).reshape(length, s, length, s), c[diff].transpose(0, 3, 1, 2),
                out=q[0, :, :, 0])                         # <b_x b_y^dag>
    q[0, :, :, 1] = d[diff.T].transpose(0, 2, 1, 3)         # <b_x b_y>
    q[1, :, :, 0] = d[diff].conj().transpose(0, 3, 1, 2)    # <b_x^dag b_y^dag>
    q[1, :, :, 1] = c[diff.T].transpose(0, 2, 1, 3)         # <b_x^dag b_y>
    return out


def _block_spectra(cov: CovarianceKernel, lengths: Sequence[int]) -> Iterator[np.ndarray]:
    """Correlation spectrum of the first ``L`` sites of a chain, for each ``L`` in turn.

    With ``cov.f`` exactly zero the Nambu matrix of the block is block-diagonal,
    ``1 - C^T`` and ``C``, so its spectrum is ``(nu, 1 - nu)`` over the eigenvalues
    ``nu`` of the Ls x Ls hopping matrix ``C_xy = <b+_x b_y>`` (Peschel 2003).
    Otherwise it is the spectrum of the 2Ls x 2Ls Nambu matrix itself.
    """
    if cov.f.any():
        c, d = _offset_stacks(cov, max(lengths))
        for length in lengths:
            yield np.linalg.eigvalsh(_restricted_nambu(c, d, length))
        return
    g = inverse_fourier(cov.g, cov.shape)
    top, s = max(lengths), cov.shape.spin
    x = np.arange(top)
    # cmat[x, y] = g[y - x] = <b+_x b_y>; each block is a leading corner of it
    cmat = g[(x[None, :] - x[:, None]) % len(g)].transpose(0, 2, 1, 3).reshape(top * s, top * s)
    for length in lengths:
        nu = np.linalg.eigvalsh(cmat[:length * s, :length * s])
        yield np.concatenate([nu, 1.0 - nu])


def _gaussian_entropy(nu: np.ndarray, bound_tol: float = 1e-8) -> float:
    if nu.min() < -bound_tol or nu.max() > 1.0 + bound_tol:
        raise np.linalg.LinAlgError(
            f"restricted correlation matrix has eigenvalues in "
            f"[{nu.min():.3e}, {nu.max():.3e}]; covariance data is corrupted"
        )
    nu = np.clip(nu, 0.0, 1.0)
    terms = np.where(nu > 0.0, nu * np.log(np.where(nu > 0.0, nu, 1.0)), 0.0)
    # eigenvalues come in (nu, 1-nu) pairs, so -sum nu ln nu over all of them
    # already equals -sum [nu ln nu + (1-nu) ln(1-nu)] over the pairs
    return float(-terms.sum())


def _check_lengths(cov: CovarianceKernel, lengths: Sequence[int]) -> None:
    if cov.shape.d != 1:
        raise ValueError("block entropy scans are implemented for chains only")
    if not lengths:
        raise ValueError("no block lengths given")
    for length in lengths:
        if not 1 <= length <= cov.shape.dims[0]:
            raise ValueError(f"block length {length} outside 1..{cov.shape.dims[0]}")


def block_entropy(cov: CovarianceKernel, length: int) -> float:
    """Von Neumann entropy (nats) of a contiguous block of ``length`` sites (chains only).

    Diagonalizes the Ls x Ls hopping matrix when the pairing kernel is exactly
    zero, and the 2Ls x 2Ls Nambu correlation matrix otherwise.
    """
    _check_lengths(cov, [length])
    nu, = _block_spectra(cov, [length])
    return _gaussian_entropy(nu)


@dataclass(frozen=True)
class EntropyScan:
    """Entropy-vs-block-length data with a log fit over the upper half of the lengths."""

    lengths: tuple[int, ...]
    entropies: tuple[float, ...]
    slope: float          # coefficient of ln L
    intercept: float
    residual: float       # rms residual of the fit
    saturation: float     # mean entropy over the fit window
    classification: str   # area-law | log-violation | inconclusive


def entropy_scan(cov: CovarianceKernel, lengths: Sequence[int]) -> EntropyScan:
    """Block entropies at each length plus an ``S ~ a ln L + b`` fit and classification.

    Each block's entropy comes from the Ls x Ls hopping matrix when the pairing
    kernel is exactly zero, and from the 2Ls x 2Ls Nambu correlation matrix
    otherwise.  The fit window is the upper half of the length range
    (wrap-around effects on the ring stay mild for L well below the system
    size); ``a > 0.1`` classifies as log-violation, ``a < 0.05`` as area-law, in
    between as inconclusive.
    """
    lengths = tuple(int(x) for x in lengths)
    _check_lengths(cov, lengths)
    ent = [_gaussian_entropy(nu) for nu in _block_spectra(cov, lengths)]
    cut = (min(lengths) + max(lengths)) / 2.0
    window = [(L, S) for L, S in zip(lengths, ent) if L >= cut]
    if len(window) < 4:
        raise ValueError(f"need at least 4 lengths in the fit window, got {len(window)}")
    x = np.log([L for L, _ in window])
    y = np.array([S for _, S in window])
    design = np.stack([x, np.ones_like(x)], axis=1)
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = float(np.sqrt(np.mean((design @ [slope, intercept] - y) ** 2)))
    if slope > 0.1:
        label = "log-violation"
    elif slope < 0.05:
        label = "area-law"
    else:
        label = "inconclusive"
    return EntropyScan(
        lengths=lengths, entropies=tuple(float(v) for v in ent),
        slope=float(slope), intercept=float(intercept), residual=resid,
        saturation=float(np.mean(y)), classification=label,
    )
