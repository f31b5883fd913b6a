"""Inversion-breaking invariants, gap diagnostics, criticality verdicts, entropy scans.

The central quantity is the offset map

    invariant(n) = Im sum_j <b^{j dag}_m b^j_{m+n}>,

the density of the conserved charge ``C_n = (i/2) sum_{m,j} (b+_{n+m} b_m - b+_m b_{m+n})``.
It is the sine transform of the spin-traced occupation ``tr g_k``, so only the odd
part enters, a real array taken by one real-output ``irfftn``.  That part is a count:
``tr g_k - tr g_{-k} = n(k) - n(-k)``, with ``n`` the designated-branch energies below
the zero-mode band plus half its zero modes (``Spectrum.imbalance``, computed once per
spectrum; ``asymmetry_diagnostics`` lists the momenta where it is nonzero).  So the
criticality checks read a ``solver.Spectrum`` alone (for a pairing-free model the
spectra of the s x s hopping kernel).  The invariant is unchanged by every
translation-invariant Bogoliubov map and quench, and is nonzero only when the spectrum
is sign-asymmetric under momentum negation, which forces a band through zero in the
large-lattice limit.  A truly gapped model therefore carries an identically vanishing
invariant even at finite size, and a nonzero invariant is a proof of a continuum zero
crossing, whatever the gap on the grid.

Block entropies of a chain come from the correlation spectrum of the block.
``lattice.site_matrix`` gathers ``C_xy = <b+_x b_y>`` and ``F_xy = <b_x b_y>``
once, for the longest block.  When the pairing kernel is exactly zero the
spectrum is that of the Ls x Ls hopping matrix ``C`` (Peschel 2003); otherwise
it is that of the 2Ls x 2Ls Nambu matrix ``[[1 - C^T, F], [F^dag, C]]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .lattice import LatticeShape, inverse_fourier, site_matrix
from .model import CouplingSet, random_model, scaled, slope_bound
from .solver import ZERO_MODE_TOL, CovarianceKernel, Spectrum, spectrum

__all__ = [
    "InvariantReport",
    "EntropyScan",
    "SurveyResult",
    "invariant_map",
    "asymmetry_diagnostics",
    "verify_criticality",
    "gapped_model_survey",
    "entropy_scan",
]

GAP_TOL = 1e-6
INV_TOL = 1e-8
SURVEY_GAP_TOL = 0.1  # above sum_i pi/N_i for N >= 32 in 1-D at unit band slope


def invariant_map(state: Spectrum | CovarianceKernel) -> np.ndarray:
    """The invariant at every offset, a real ``dims``-shaped array indexed by the reduced offset:
    the sine transform of the odd part ``(tr g_k - tr g_{-k})/2``, half a spectrum's or a kernel's
    ``imbalance``, as one ``irfftn`` of ``-i`` times its half grid, its own Hermitian extension."""
    shape = state.shape
    half = (0.5 * state.imbalance).reshape(shape.dims)[..., :shape.dims[-1] // 2 + 1]
    return np.fft.irfftn(-1j * half, s=shape.dims, axes=tuple(range(shape.d)))


def asymmetry_diagnostics(spec: Spectrum) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The momenta whose counts are unbalanced, as ``(momenta, n_minus, imbalance)``:
    momenta as ``(n, d)`` rows in flat order, ``n_minus`` the number of branch energies
    at each below the zero-mode band, and ``imbalance`` its ``Spectrum.imbalance``."""
    imbalance = spec.imbalance
    k = np.flatnonzero(imbalance)
    return spec.shape.momenta()[k], spec.n_minus(k), imbalance[k]


@dataclass(frozen=True)
class InvariantReport:
    """Outcome of the gap/invariant consistency check on one model."""

    invariant: np.ndarray  # dims-shaped, indexed by reduced offset
    gap: float
    asymmetry: tuple[np.ndarray, np.ndarray, np.ndarray]  # momenta (n, d), n_minus, imbalance
    zero_modes: int
    verdict: str  # consistent-gapped | gapless-by-invariant | gapless-by-spectrum

    @property
    def max_abs_invariant(self) -> float:
        return float(np.abs(self.invariant).max())


def verify_criticality(
    c: CouplingSet,
    gap_tol: float = GAP_TOL,
    inv_tol: float = INV_TOL,
    zero_mode_tol: float = ZERO_MODE_TOL,
) -> InvariantReport:
    """Evaluate the invariant map and the spectral gap, and classify the model.

    A model whose gap on ``c``'s own lattice is at most ``gap_tol`` is
    ``gapless-by-spectrum``.  One gapped on the grid whose invariant reaches
    ``inv_tol`` is ``gapless-by-invariant``: its counts are unbalanced, a proof of
    a band crossing zero between grid momenta.  The rest are ``consistent-gapped``,
    though a grid gap does not prove that the continuum band avoids zero.
    """
    spec = spectrum(c, zero_mode_tol)
    inv, gap = invariant_map(spec), spec.gap
    if gap <= gap_tol:
        verdict = "gapless-by-spectrum"
    elif np.abs(inv).max() >= inv_tol:
        verdict = "gapless-by-invariant"
    else:
        verdict = "consistent-gapped"
    return InvariantReport(invariant=inv, gap=gap, asymmetry=asymmetry_diagnostics(spec),
                           zero_modes=spec.zero_modes, verdict=verdict)


@dataclass(frozen=True)
class SurveyResult:
    """Outcome of a randomized sweep of the gap/invariant check."""

    gapped: int
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
) -> SurveyResult:
    """Draw ``count`` random models and classify each with ``verify_criticality``.

    Each draw alternates spin and pairing and is rescaled so its band-slope
    bound is at most 1.  ``gapped`` counts the draws whose grid gap exceeds
    ``gap_tol``; ``events`` lists those among them that are
    ``gapless-by-invariant``, as ``(seed, gap, invariant)``.  With unit slopes a
    continuum band crossing shows as a grid energy of at most ``sum_i pi/N_i``
    (see ``slope_bound``), so for ``gap_tol`` above that sum (for the default
    0.1, from N = 32 in 1-D, 63 in 2-D and 95 in 3-D) the grid gap excludes a
    crossing and an event would contradict the theorem or ``slope_bound``.
    Below it an event is a draw certified gapless by its invariant.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    spins = tuple(spins)
    gapped = 0
    worst = 0.0
    events = []
    for idx in range(count):
        spin = spins[idx % len(spins)]
        pairing = (idx // len(spins)) % 2 == 0
        cs = random_model(LatticeShape(dims, spin), reach=reach, pairing=pairing, seed=seed + idx)
        steep = slope_bound(cs)
        if steep > 1.0:
            cs = scaled(cs, 1.0 / steep)
        report = verify_criticality(cs, gap_tol=gap_tol, inv_tol=inv_tol, zero_mode_tol=zero_mode_tol)
        if report.verdict == "gapless-by-spectrum":
            continue
        gapped += 1
        worst = max(worst, report.max_abs_invariant)
        if report.verdict == "gapless-by-invariant":
            events.append((seed + idx, report.gap, report.max_abs_invariant))
    return SurveyResult(gapped=gapped, worst_invariant=worst, events=tuple(events))


# ---------------------------------------------------------------------------
# block entanglement entropy
# ---------------------------------------------------------------------------

def _site_correlations(cov: CovarianceKernel, top: int) -> tuple[np.ndarray, np.ndarray]:
    """``C_xy = <b+_x b_y>`` and ``F_xy = <b_x b_y>`` over the first ``top`` sites of a
    chain, ``(top s, top s)`` each; ``F_xy`` is the pairing grid at ``-(y - x)``."""
    x = np.arange(top)[:, None]
    return (site_matrix(inverse_fourier(cov.g, cov.shape), x),
            site_matrix(inverse_fourier(cov.f, cov.shape), -x))


def _nambu_block(c: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The block's 2Ls x 2Ls correlation matrix ``[[1 - C^T, F], [F^dag, C]]``."""
    return np.block([[np.eye(len(c)) - c.T, f], [f.conj().T, c]])


def _block_spectra(cov: CovarianceKernel, lengths: Sequence[int]) -> Iterator[np.ndarray]:
    """Correlation spectrum of the first ``L`` sites of a chain, for each ``L`` in turn:
    that of the Nambu matrix over the leading ``Ls x Ls`` corners of ``C`` and ``F``,
    gathered once.  With ``cov.f`` exactly zero that matrix is block-diagonal, so its
    spectrum is ``(nu, 1 - nu)`` over the eigenvalues ``nu`` of ``C`` (Peschel 2003).
    """
    s = cov.shape.spin
    c, f = _site_correlations(cov, max(lengths))
    pairing = cov.f.any()
    for ls in (length * s for length in lengths):
        if pairing:
            yield np.linalg.eigvalsh(_nambu_block(c[:ls, :ls], f[:ls, :ls]))
        else:
            nu = np.linalg.eigvalsh(c[:ls, :ls])
            yield np.concatenate([nu, 1.0 - nu])


def _gaussian_entropy(nu: np.ndarray) -> float:
    if nu.min() < -1e-8 or nu.max() > 1.0 + 1e-8:
        raise np.linalg.LinAlgError(
            f"restricted correlation matrix has eigenvalues in "
            f"[{nu.min():.3e}, {nu.max():.3e}]; covariance data is corrupted"
        )
    nu = np.clip(nu, 0.0, 1.0)
    terms = np.where(nu > 0.0, nu * np.log(np.where(nu > 0.0, nu, 1.0)), 0.0)
    # eigenvalues come in (nu, 1-nu) pairs, so -sum nu ln nu over all of them
    # already equals -sum [nu ln nu + (1-nu) ln(1-nu)] over the pairs
    return float(-terms.sum())


@dataclass(frozen=True)
class EntropyScan:
    """Entropy-vs-block-length data, in the order of the lengths scanned, with a log
    fit over the upper half of the lengths."""

    entropies: tuple[float, ...]
    slope: float          # coefficient of ln L
    intercept: float
    residual: float       # rms residual of the fit
    saturation: float     # mean entropy over the fit window
    classification: str   # area-law | log-violation | inconclusive


def entropy_scan(cov: CovarianceKernel, lengths: Sequence[int]) -> EntropyScan:
    """Block entropies at each length plus an ``S ~ a ln L + b`` fit and classification.

    Each block's entropy comes from the leading corners of ``C_xy = <b+_x b_y>``
    and ``F_xy = <b_x b_y>``, gathered once: from the Ls x Ls hopping matrix
    ``C`` when the pairing kernel is exactly zero, and from the 2Ls x 2Ls Nambu
    matrix ``[[1 - C^T, F], [F^dag, C]]`` otherwise.  The fit window is the
    upper half of the length range (wrap-around effects on the ring stay mild
    for L well below the system size); ``a > 0.1`` classifies as
    log-violation, ``a < 0.05`` as area-law, in between as inconclusive.
    """
    lengths = tuple(int(x) for x in lengths)
    if cov.shape.d != 1:
        raise ValueError("block entropy scans are implemented for chains only")
    if not lengths:
        raise ValueError("no block lengths given")
    for length in lengths:
        if not 1 <= length <= cov.shape.dims[0]:
            raise ValueError(f"block length {length} outside 1..{cov.shape.dims[0]}")
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
        entropies=tuple(float(v) for v in ent),
        slope=float(slope), intercept=float(intercept), residual=resid,
        saturation=float(np.mean(y)), classification=label,
    )
