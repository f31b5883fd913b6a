import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasifree import (
    CouplingSet,
    LatticeShape,
    ModelParams,
    catalog,
    diagonalize,
    entropy_scan,
    evolve_quench,
    ground_covariance,
    invariant_map,
    random_model,
    real_space,
    spectrum,
    verify_criticality,
)
from quasifree.lattice import CouplingTable
from quasifree.model import bdg_blocks, scaled, slope_bound
from quasifree.observables import (
    GAP_TOL,
    INV_TOL,
    _block_spectra,
    _gaussian_entropy,
    _nambu_block,
    _site_correlations,
    asymmetry_diagnostics,
    gapped_model_survey,
)
from quasifree.solver import ZERO_MODE_TOL, BogoliubovSolution, CovarianceKernel

from conftest import make_p_model, make_twisted
from test_solver import zero_mode_model


def test_invariant_vanishes_for_p_model(p_model_64):
    inv = invariant_map(ground_covariance(diagonalize(p_model_64)))
    assert np.abs(inv).max() < 1e-12


def test_invariant_at_zero_offset_is_zero():
    cs = random_model(LatticeShape((12,), 2), reach=2, pairing=True, seed=0)
    inv = invariant_map(ground_covariance(diagonalize(cs)))
    assert abs(inv[(0,)]) < 1e-14


def test_invariant_antisymmetry():
    cs = make_twisted(16, np.pi / 2)
    shape = cs.shape
    inv = invariant_map(ground_covariance(diagonalize(cs)))
    for n in np.ndindex(*shape.dims):
        assert abs(inv[n] + inv[shape.negate(n)]) < 1e-12


def test_invariant_agrees_with_direct_sum():
    # independent evaluation: (1/N) sum_k sin(2 pi k n / N) tr g_k
    cs = make_twisted(20, np.pi / 2)
    cov = ground_covariance(diagonalize(cs))
    inv = invariant_map(cov)
    tr = np.trace(cov.g, axis1=1, axis2=2).real
    n_sites = cs.shape.n_sites
    for n in range(n_sites):
        direct = sum(np.sin(2 * np.pi * k * n / n_sites) * tr[k] for k in range(n_sites)) / n_sites
        assert abs(inv[(n,)] - direct) < 1e-12


def test_invariant_matches_summed_imaginary_route():
    cs = random_model(LatticeShape((10,), 2), reach=2, pairing=True, seed=5)
    cov = ground_covariance(diagonalize(cs))
    via_fft = invariant_map(cov)
    rc = real_space(cov, [(n,) for n in range(10)])
    for n, mat in rc.bdag_b.items():
        assert abs(np.trace(mat).imag - via_fft[n]) < 1e-12


def test_twisted_chain_invariant_is_large(twisted_critical_64):
    inv = invariant_map(ground_covariance(diagonalize(twisted_critical_64)))
    assert abs(inv[(1,)]) > 0.1


def test_spectral_gap_examples(p_model_64, twisted_critical_64):
    onsite = CouplingSet(LatticeShape((6,), 1), {(0,): [[0.3]]}, {})
    assert diagonalize(onsite).gap == pytest.approx(0.3, abs=1e-13)
    assert diagonalize(p_model_64).gap == pytest.approx(1.0, abs=1e-12)
    assert diagonalize(twisted_critical_64).gap < 1e-12


def test_asymmetry_empty_for_symmetric_gapped_model(p_model_64):
    momenta, n_minus, imbalance = asymmetry_diagnostics(diagonalize(p_model_64))
    assert momenta.shape == (0, 1) and n_minus.size == imbalance.size == 0


def test_asymmetry_sign_pattern_of_quarter_twist():
    n = 16
    sol = diagonalize(make_twisted(n, np.pi / 2))
    momenta, n_minus, imbalance = asymmetry_diagnostics(sol)
    k = np.array([k for k in range(1, n) if k != n // 2])
    assert np.array_equal(momenta[:, 0], k)
    assert np.array_equal(imbalance, np.where(k < n // 2, -1.0, 1.0))  # -sign of sin(2 pi k / n)
    assert np.array_equal(n_minus, (k > n // 2).astype(int))
    # band zeros sit at the self-conjugate momenta: balanced, and flagged by coef_ok
    assert np.array_equal(np.flatnonzero(~sol.coef_ok), [0, n // 2])


def test_asymmetry_zero_at_self_conjugate_momenta():
    for seed in range(6):
        cs = random_model(LatticeShape((12,), 2), reach=2, pairing=True, seed=seed)
        sol = diagonalize(cs)
        momenta, *_ = asymmetry_diagnostics(sol)
        flat = np.ravel_multi_index(tuple(momenta.T), cs.shape.dims)
        assert not (cs.shape.negation_table == np.arange(cs.shape.n_sites))[flat].any()


@pytest.mark.parametrize("onsite", [1e-9, 0.5e-9])
def test_asymmetry_indeterminate_follows_zero_mode_rule(onsite):
    # |E| equal to the default zero-mode tolerance is not a zero mode, so its sign counts
    sol = diagonalize(CouplingSet(LatticeShape((8,)), {(0,): [[onsite]]}, {}))
    momenta, *_ = asymmetry_diagnostics(sol)
    zero = onsite < sol.zero_mode_tol
    assert sol.zero_modes == (16 if zero else 0)
    assert np.array_equal(sol.coef_ok, np.full(8, not zero))
    assert len(momenta) == 0 and not sol.imbalance.any()


def test_verify_consistent_gapped(p_model_64):
    rep = verify_criticality(p_model_64)
    assert rep.verdict == "consistent-gapped"
    assert rep.max_abs_invariant < 1e-10
    assert rep.gap == pytest.approx(1.0, abs=1e-12)
    assert diagonalize(p_model_64.resized((128,))).gap == pytest.approx(1.0, abs=1e-12)
    assert rep.invariant.shape == (64,)


def test_verify_twisted_chain_fires_both_sides(twisted_critical_64):
    rep = verify_criticality(twisted_critical_64)
    assert rep.verdict == "gapless-by-spectrum"
    assert rep.max_abs_invariant > 0.1
    assert rep.zero_modes == 4


def sign_asymmetric_bait(n):
    # band sin(kt) + 1/2: crosses zero in the continuum, but a small grid can
    # miss the crossing and look gapped while carrying a nonzero invariant
    return catalog(ModelParams(
        "spinless-general",
        {"a0": 0.5, "a1_im": 0.5},
        LatticeShape((n,), 1),
    ))


def test_verify_certifies_gapless_without_doubling():
    # the grid at N=4 misses the crossing, but its counts are unbalanced
    cs = sign_asymmetric_bait(4)
    a_k = np.array([0.5, 1.5, 0.5, -0.5])
    sol = diagonalize(cs)
    neg = cs.shape.negation_table
    want = np.sort(np.stack([a_k, -a_k[neg]], 1), 1)
    assert np.abs(want - np.sort(sol.energies, 1)).max() < 1e-12
    rep = verify_criticality(cs, gap_tol=0.3)
    assert rep.verdict == "gapless-by-invariant"


def test_verify_doubling_exposes_the_shrinking_gap():
    rep = verify_criticality(sign_asymmetric_bait(8), gap_tol=0.3)
    assert rep.verdict == "gapless-by-spectrum"
    assert rep.gap < 0.3


@st.composite
def random_chains(draw):
    shape = LatticeShape((draw(st.integers(8, 24)),), draw(st.integers(1, 2)))
    return random_model(shape, reach=draw(st.integers(1, 2)), pairing=draw(st.booleans()),
                        seed=draw(st.integers(0, 2**16)))


@settings(max_examples=60, deadline=None)
@given(cs=random_chains())
@example(cs=make_twisted(16, 0.9))
@example(cs=make_twisted(16, 1.0))
def test_gapless_by_invariant_is_a_real_certificate(cs):
    # independent of the counts: a band crossing zero in the continuum shows on a
    # fine grid as an energy within slope_bound * pi/N of zero
    if verify_criticality(cs).verdict == "gapless-by-invariant":
        assert spectrum(cs.resized((2048,))).gap <= slope_bound(cs) * math.pi / 2048


def test_verify_two_dimensional_gapped_model():
    shape = LatticeShape((6, 6), 1)
    cs = random_model(shape, reach=1, pairing=True, seed=9)
    cs = scaled(cs, 0.2 / slope_bound(cs))
    # push the model into a clean gap with a strong on-site term
    mats = np.array(cs.hop.mats)
    mats[(cs.hop.offsets == 0).all(axis=1)] += 2.0 * np.eye(1)
    cs = CouplingSet(shape, CouplingTable(shape, cs.hop.offsets, mats), cs.pair)
    rep = verify_criticality(cs)
    assert rep.verdict == "consistent-gapped"
    assert rep.max_abs_invariant < 1e-12


# rounding bound between the gap of the eigenvalue route and diagonalize's,
# relative to the largest |energy|
GAP_RTOL = 1e-14


def expected_verdict(gap, inv, gap_tol, inv_tol):
    if gap <= gap_tol:
        return "gapless-by-spectrum"
    if np.abs(inv).max() >= inv_tol:
        return "gapless-by-invariant"
    return "consistent-gapped"


def random_unitary(spin, seed):
    z = np.random.default_rng(seed).standard_normal((2, spin, spin))
    q, r = np.linalg.qr(z[0] + 1j * z[1])
    return q * (np.diag(r) / np.abs(np.diag(r)))


def conjugated_couplings(cs):
    """Complex conjugation of every coupling: time reversal."""
    return CouplingSet(cs.shape, *(CouplingTable(cs.shape, t.offsets, t.mats.conj()) for t in (cs.hop, cs.pair)))


def rotated_couplings(cs, u):
    """The on-site spin rotation ``b_m -> u b_m``: ``hop -> u hop u^dag``, ``pair -> u pair u^T``."""
    return CouplingSet(cs.shape, CouplingTable(cs.shape, cs.hop.offsets, u @ cs.hop.mats @ u.conj().T),
                       CouplingTable(cs.shape, cs.pair.offsets, u @ cs.pair.mats @ u.T))


def invariant_routes(cs):
    """The invariant map by every route: the count of a solution, the count of the
    report (eigenvalues alone without pairing) and the trace of the covariance kernel."""
    sol = diagonalize(cs)
    return invariant_map(sol), verify_criticality(cs).invariant, invariant_map(ground_covariance(sol))


model_draws = dict(
    dims=st.lists(st.integers(2, 6), min_size=1, max_size=3).map(tuple),
    spin=st.integers(1, 3),
    pairing=st.booleans(),
    seed=st.integers(0, 10_000),
    factor=st.floats(1e-3, 1e3),
)


def drawn_model(dims, spin, pairing, seed, factor):
    reach = 1 if min(dims) > 2 else 0
    return scaled(random_model(LatticeShape(dims, spin), reach, pairing, seed), factor)


@settings(max_examples=80, deadline=None)
@given(**model_draws)
def test_solution_invariant_matches_covariance_invariant(dims, spin, pairing, seed, factor):
    # the trace of a projector is its rank: tr g_k - tr g_{-k} = n_-(k) + n_0(k)/2 - s
    sol = diagonalize(drawn_model(dims, spin, pairing, seed, factor))
    assert np.abs(invariant_map(sol) - invariant_map(ground_covariance(sol))).max() < 1e-14


@pytest.mark.parametrize("cs, zero_modes", [
    (make_twisted(64, np.pi / 2), 4),
    # every slot of this pairing chain falls in the zero-mode band
    (scaled(random_model(LatticeShape((64,), 2), 2, True, 3), 1e-10), 256),
    # a zero mode of a pairing model, designated beside negative energies
    (zero_mode_model((6, 5), 2, seed=3, pairing=True, flat=7), 2),
], ids=["quarter-twist", "scaled-into-band", "pairing-6x5"])
def test_solution_invariant_with_zero_modes(cs, zero_modes):
    sol = diagonalize(cs)
    zero = np.abs(np.linalg.eigvalsh(bdg_blocks(cs))) < sol.zero_mode_tol
    assert sol.zero_modes == zero_modes == np.count_nonzero(zero)
    assert verify_criticality(cs).zero_modes == zero_modes
    assert np.array_equal(~sol.coef_ok, zero.any(axis=1))
    assert np.array_equal(spectrum(cs).coef_ok, sol.coef_ok)
    assert np.abs(invariant_map(sol) - invariant_map(ground_covariance(sol))).max() < 1e-14


@settings(max_examples=80, deadline=None)
@given(dims=st.lists(st.integers(2, 7), min_size=1, max_size=3).map(tuple), spin=st.integers(1, 2),
       pairing=st.booleans(), seed=st.integers(0, 10_000),
       zero_at=st.one_of(st.none(), st.integers(0, 10_000)))
@example(dims=(64,), spin=1, pairing=False, seed=0, zero_at=16)
@example(dims=(5, 4, 3), spin=2, pairing=True, seed=1, zero_at=None)
def test_invariant_map_matches_plane_wave_sum(dims, spin, pairing, seed, zero_at):
    # (1/N) sum_k sin(k.n) x_k over the spectrum's x = imbalance/2 and the kernel's
    # x = tr g_k, one offset per row; the counts are cached, and sum the halves as a
    # sum along the axis does, bit for bit
    if zero_at is None:
        cs = drawn_model(dims, spin, pairing, seed, 1.0)
    else:
        cs = zero_mode_model(dims, spin, seed, pairing, zero_at)
    shape, sol = cs.shape, diagonalize(cs)
    grid = shape.momenta()
    turns = (grid[:, None, :] * grid[None, :, :] % shape.dims / np.asarray(shape.dims)).sum(axis=2)
    sine = np.sin(2 * np.pi * turns) / shape.n_sites  # [offset, momentum]
    for spec in (spectrum(cs), sol):
        n = np.sum(np.where(spec._zero, 0.5, spec.branch < 0), axis=1)
        assert spec.imbalance is spec.imbalance
        assert spec.imbalance.tobytes() == (n - n[shape.negation_table]).tobytes()
        got = invariant_map(spec)
        assert got.dtype == float and got.shape == shape.dims
        assert np.abs(got.ravel() - sine @ (0.5 * spec.imbalance)).max() <= 1e-14
    cov = ground_covariance(sol)
    tr = np.trace(cov.g, axis1=1, axis2=2).real
    assert np.abs(invariant_map(cov).ravel() - sine @ tr).max() <= 1e-14


def old_asymmetry_diagnostics(spec):
    """The per-band markers that ``asymmetry_diagnostics`` once returned, with M and P
    over the whole grid and the indeterminate rows from a second mask;
    ``test_asymmetry_matches_two_pass_reference`` rebuilds them from the table."""
    branch, neg = spec.branch, spec.shape.negation_table
    m = (np.sign(branch) - np.sign(branch[neg])) / 2.0
    p = (np.sign(branch) + np.sign(branch[neg])) / 2.0
    indet = np.broadcast_to(~spec.coef_ok[:, None], branch.shape)
    i, j = np.nonzero(~indet & (np.abs(m) == 1))
    k, b = np.nonzero(indet)
    grid = spec.shape.momenta()
    return (grid[i], j, m[i, j], p[i, j]), (grid[k], b)


@settings(max_examples=80, deadline=None)
@given(**model_draws, zero_at=st.one_of(st.none(), st.integers(0, 10_000)))
@example(dims=(64,), spin=1, pairing=False, seed=0, factor=1.0, zero_at=16)
@example(dims=(6, 5), spin=2, pairing=True, seed=3, factor=1.0, zero_at=7)
def test_asymmetry_matches_two_pass_reference(dims, spin, pairing, seed, factor, zero_at):
    # the table (k, n_minus, imbalance) loses nothing: on the momenta free of zero modes
    # the old markers are M = -sign(imbalance) and P = 0 on the bands between n_minus(-k)
    # and n_minus(k), and the old indeterminate rows are every band where coef_ok fails;
    # rebuilt so, they are the old arrays bit for bit and dtype for dtype
    if zero_at is None:
        cs = drawn_model(dims, spin, pairing, seed, factor)
    else:
        cs = scaled(zero_mode_model(dims, spin, seed, pairing, zero_at), factor)
    for spec in (spectrum(cs), diagonalize(cs)):
        shape, s = spec.shape, spec.shape.spin
        momenta, n_minus, imbalance = asymmetry_diagnostics(spec)
        flat = np.ravel_multi_index(tuple(momenta.T), shape.dims)
        assert (np.diff(flat) > 0).all() and imbalance.all()
        counted = dict(zip(flat.tolist(), n_minus.tolist()))
        rows = [(k, j, -np.sign(imb)) for k, imb in zip(flat.tolist(), imbalance)
                if spec.coef_ok[k] for j in range(*sorted((counted[k], counted[shape.negation_table[k]])))]
        k, j, m = (np.array([r[i] for r in rows], dtype=d) for i, d in enumerate((np.intp, np.intp, float)))
        grid = shape.momenta()
        indet = np.flatnonzero(np.repeat(~spec.coef_ok, s))
        rebuilt = (grid[k], j, m, np.zeros(len(rows))), (grid[indet // s], indet % s)
        old_asym, old_indet = old_asymmetry_diagnostics(spec)
        for got, want in zip(rebuilt[0] + rebuilt[1], old_asym + old_indet):
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert got.tobytes() == want.tobytes()


@settings(max_examples=80, deadline=None)
@given(**model_draws, zero_at=st.one_of(st.none(), st.integers(0, 10_000)))
@example(dims=(64,), spin=1, pairing=False, seed=0, factor=1.0, zero_at=16)
@example(dims=(6, 5), spin=2, pairing=True, seed=3, factor=1.0, zero_at=7)
@example(dims=(4,), spin=3, pairing=False, seed=1, factor=1.0, zero_at=2)
def test_counts_match_a_designation_free_reference(dims, spin, pairing, seed, factor, zero_at):
    # the imbalance, the zero-mode count and the gap read off the branch are those of a
    # direct count over every BdG eigenvalue, each |E| < tol a zero mode worth 1/2; a
    # draw with an energy within rounding of the band edge, where rounding decides its
    # side, has its counts skipped, as in check_entry_route
    if zero_at is None:
        cs = drawn_model(dims, spin, pairing, seed, factor)
    else:
        cs = scaled(zero_mode_model(dims, spin, seed, pairing, zero_at), factor)
    lam = np.linalg.eigvalsh(bdg_blocks(cs))
    scale = np.abs(lam).max()
    zero = np.abs(lam) < ZERO_MODE_TOL
    for spec in (spectrum(cs), diagonalize(cs)):
        assert abs(spec.gap - np.abs(lam).min()) <= GAP_RTOL * scale
        if (np.abs(np.abs(lam) - ZERO_MODE_TOL) <= 2e-15 * scale).any():
            continue
        assert np.array_equal(spec.imbalance, np.sum(np.where(zero, 0.5, lam < 0), axis=1) - spin)
        assert spec.zero_modes == np.count_nonzero(zero)


def longdouble_energies(cs):
    """Sorted energies of a pairing-free model at s <= 2 in long double, sharing no
    code with ``spectrum``: ``A_k`` as a plane-wave sum over the table, then ``A_k``
    itself at s = 1 and ``mean +- hypot((p - q)/2, |b|)`` at s = 2.  Where long
    double is the x87 80-bit type, its rounding is about 2000 times below double's."""
    shape, ld = cs.shape, np.longdouble
    turns = (shape.momenta()[:, None] * cs.hop.offsets % shape.dims / np.asarray(shape.dims, ld)).sum(axis=2)
    angle = 2 * np.arccos(ld(-1)) * turns  # (M, K)
    a = np.einsum("mk,kij->mij", np.cos(angle) - 1j * np.sin(angle), cs.hop.mats.astype(np.clongdouble))
    if shape.spin == 1:
        branch = a[:, 0, :1].real
    else:
        mean, half = (a[:, 0, 0].real + a[:, 1, 1].real) / 2, (a[:, 0, 0].real - a[:, 1, 1].real) / 2
        radius = np.hypot(half, np.abs(a[:, 1, 0]))
        branch = np.stack([mean - radius, mean + radius], axis=1)
    return np.sort(np.concatenate([branch, -branch[shape.negation_table]], axis=1), axis=1)


@settings(max_examples=80, deadline=None)
@given(
    dims=st.lists(st.integers(2, 6), min_size=1, max_size=3).map(tuple),
    spin=st.integers(1, 3),
    pairing=st.booleans(),
    seed=st.integers(0, 10_000),
    factor=st.floats(1e-3, 1e3),
    zero_at=st.one_of(st.none(), st.integers(0, 10_000)),
)
@example(dims=(64,), spin=1, pairing=False, seed=0, factor=1.0, zero_at=16)
def test_eigenvalue_route_matches_diagonalize(dims, spin, pairing, seed, factor, zero_at):
    # spectrum() of a pairing-free model reads the spectra of the hopping kernel; the
    # reference is the long-double closed form at s <= 2, where the BdG eigh's own
    # rounding can reach the bound, and the BdG blocks' eigh at s = 3; a pairing
    # model's spectrum is its solution
    if zero_at is None:
        cs = drawn_model(dims, spin, pairing, seed, factor)
    else:
        cs = scaled(zero_mode_model(dims, spin, seed, pairing, zero_at), factor)
    rep = verify_criticality(cs)
    sol = diagonalize(cs)
    spec = spectrum(cs)
    if cs.pair:
        assert isinstance(spec, BogoliubovSolution)
        assert np.array_equal(spec.branch, sol.branch) and np.array_equal(spec.u_rows, sol.u_rows)
    else:
        want = longdouble_energies(cs) if spin <= 2 else sol.energies
        assert np.abs(spec.energies - want).max() <= 1e-15 * np.abs(sol.u_energies).max()
    assert spec.zero_modes == sol.zero_modes and np.array_equal(spec.coef_ok, sol.coef_ok)
    assert rep.verdict == expected_verdict(sol.gap, invariant_map(sol), GAP_TOL, INV_TOL)
    assert abs(rep.gap - sol.gap) <= GAP_RTOL * np.abs(sol.u_energies).max()
    assert np.array_equal(rep.invariant, invariant_map(sol))
    for got, want in zip(rep.asymmetry, asymmetry_diagnostics(sol)):
        assert np.array_equal(got, want)
    assert rep.zero_modes == sol.zero_modes


@settings(max_examples=60, deadline=None)
@given(**model_draws)
def test_conjugation_negates_the_invariant(dims, spin, pairing, seed, factor):
    # time reversal flips the sign of Im <b+_m b_{m+n}> on every route
    cs = drawn_model(dims, spin, pairing, seed, factor)
    for inv, image in zip(invariant_routes(cs), invariant_routes(conjugated_couplings(cs))):
        assert np.abs(inv + image).max() < 1e-14


@settings(max_examples=60, deadline=None)
@given(**model_draws)
def test_onsite_rotation_keeps_the_invariant(dims, spin, pairing, seed, factor):
    # the spin-traced correlator is unchanged by an on-site U(s) rotation on every route
    cs = drawn_model(dims, spin, pairing, seed, factor)
    rotated = rotated_couplings(cs, random_unitary(spin, seed))
    for inv, image in zip(invariant_routes(cs), invariant_routes(rotated)):
        assert np.abs(inv - image).max() < 1e-14


def permuted_axes(cs, perm):
    """The lattice with its axes reordered: offset ``n`` goes to ``n[perm]``, an
    unsorted order that the table constructor must sort."""
    shape = LatticeShape(tuple(cs.shape.dims[i] for i in perm), cs.shape.spin)
    return CouplingSet(shape, *(CouplingTable(shape, t.offsets[:, perm], t.mats) for t in (cs.hop, cs.pair)))


@settings(max_examples=60, deadline=None)
@given(**{**model_draws, "dims": st.lists(st.integers(2, 6), min_size=2, max_size=3).map(tuple)},
       data=st.data())
def test_axis_permutation_transposes_the_invariant(dims, spin, pairing, seed, factor, data):
    # on the count route and the covariance-kernel route
    perm = data.draw(st.permutations(range(len(dims))))
    cs = drawn_model(dims, spin, pairing, seed, factor)
    image = permuted_axes(cs, perm)
    for route in (lambda c: invariant_map(spectrum(c)),
                  lambda c: invariant_map(ground_covariance(diagonalize(c)))):
        assert np.abs(route(image) - np.transpose(route(cs), perm)).max() <= 1e-13


@settings(max_examples=40, deadline=None)
@given(
    dims=st.lists(st.integers(3, 8), min_size=1, max_size=3).map(tuple),
    spin=st.integers(1, 2),
    pairing=st.booleans(),
    seed=st.integers(0, 2**16),
    factor=st.floats(1e-3, 1e3),
    gap_tol=st.floats(1e-6, 2.0),
    inv_tol=st.floats(1e-12, 1e-1),
)
def test_verdict_follows_gap_and_invariant(dims, spin, pairing, seed, factor, gap_tol, inv_tol):
    cs = scaled(random_model(LatticeShape(dims, spin), reach=min(2, (min(dims) - 1) // 2),
                             pairing=pairing, seed=seed), factor)
    rep = verify_criticality(cs, gap_tol=gap_tol, inv_tol=inv_tol)
    want = expected_verdict(rep.gap, rep.invariant, gap_tol, inv_tol)
    assert rep.verdict == want
    assert rep.max_abs_invariant == np.abs(rep.invariant).max()
    # a pairing-free model takes the eigenvalue route, which agrees with diagonalize
    # to rounding
    sol = diagonalize(cs)
    assert abs(rep.gap - sol.gap) <= GAP_RTOL * np.abs(sol.u_energies).max()
    assert np.abs(rep.invariant - invariant_map(ground_covariance(sol))).max() < 1e-14


def test_invariant_preserved_by_maps_and_quenches():
    shape = LatticeShape((16,), 2)
    cs = random_model(shape, reach=2, pairing=True, seed=33)
    sol = diagonalize(cs)
    inv0 = invariant_map(ground_covariance(sol))
    for seed in range(5):
        # a Bogoliubov map: the propagator exp(-i H_k) of a random pairing model
        mapped = next(evolve_quench(sol, random_model(shape, reach=2, pairing=True, seed=seed), [1.0]))
        inv_m = invariant_map(ground_covariance(mapped))
        assert np.abs(inv0 - inv_m).max() < 1e-9
        h = random_model(shape, reach=1, pairing=True, seed=50 + seed)
        [quenched] = evolve_quench(sol, h, [0.9 + seed])
        inv_q = invariant_map(ground_covariance(quenched))
        assert np.abs(inv0 - inv_q).max() < 1e-9


def block_entropies(cov, lengths):
    """Entropy of each block from its own ``_block_spectra`` call: the route
    ``entropy_scan`` takes, for length sets too small for its fit window."""
    return [_gaussian_entropy(nu) for length in lengths for nu in _block_spectra(cov, [length])]


def test_block_entropy_of_product_state_is_zero():
    cs = CouplingSet(LatticeShape((16,), 1), {(0,): [[0.7]]}, {})
    cov = ground_covariance(diagonalize(cs))
    for entropy in block_entropies(cov, (1, 4, 9)):
        assert entropy == pytest.approx(0.0, abs=1e-10)


def test_block_entropy_bounds_and_errors(p_model_64):
    cov = ground_covariance(diagonalize(p_model_64))
    s, = block_entropies(cov, [6])
    assert 0.0 <= s <= 6 * 2 * np.log(2) + 1e-12
    with pytest.raises(ValueError, match="outside"):
        entropy_scan(cov, [0])
    with pytest.raises(ValueError, match="outside"):
        entropy_scan(cov, [65])


def test_block_entropy_rejects_higher_dimensions():
    cs = random_model(LatticeShape((4, 4), 1), reach=1, pairing=False, seed=0)
    cov = ground_covariance(diagonalize(cs))
    with pytest.raises(ValueError, match="chains"):
        entropy_scan(cov, [2])


def test_block_entropy_flags_corrupted_covariance(p_model_64):
    cov = ground_covariance(diagonalize(p_model_64))
    bad_g = cov.g.copy()
    bad_g[3] = 1.5 * np.eye(2)
    bad = CovarianceKernel(shape=cov.shape, g=bad_g, f=cov.f)
    with pytest.raises(ValueError, match="corrupted"):
        entropy_scan(bad, [8])


@pytest.mark.parametrize("lengths", [[8] * 8, [4, 5, 6, 20, 20, 20, 20]], ids=["one-length", "repeated-top"])
def test_entropy_scan_needs_four_distinct_lengths_in_the_fit_window(lengths):
    # repeated lengths add rows but no rank: lstsq's minimum-norm answer to a rank-1
    # design would pass for a slope with zero residual
    cov = ground_covariance(diagonalize(make_twisted(64, 1.0)))
    with pytest.raises(ValueError, match="need at least 4 distinct lengths in the fit window, got 1"):
        entropy_scan(cov, lengths)


def test_entropy_scan_classifications():
    shape = LatticeShape((96,), 2)
    gapped = catalog(ModelParams("p-model", {"p": 2.0}, shape))
    scan = entropy_scan(ground_covariance(diagonalize(gapped)), range(4, 25))
    assert scan.classification == "area-law"
    assert scan.slope < 0.05

    critical = make_twisted(96, np.pi / 2)
    scan = entropy_scan(ground_covariance(diagonalize(critical)), range(4, 25))
    assert scan.classification == "log-violation"
    assert scan.slope > 0.1
    assert all(b >= a - 1e-12 for a, b in zip(scan.entropies, scan.entropies[1:]))


def test_entropy_scan_needs_enough_points(twisted_critical_64):
    cov = ground_covariance(diagonalize(twisted_critical_64))
    with pytest.raises(ValueError, match="at least 4"):
        entropy_scan(cov, [4, 8])


def loop_restricted_nambu(rc, cov, length):
    """Site-pair double-loop assembly of the block's 2Ls x 2Ls correlation matrix:
    the reference for ``_nambu_block`` over ``_site_correlations``.  Negative
    offsets, and offset 0, hold the mirrored ``c[n]^dag`` and ``-d[n]^T``."""
    shape = cov.shape
    s = shape.spin
    c_of = {}
    d_of = {}
    for n in range(length):
        c_of[n] = rc.bdag_b[shape.reduce((n,))]
        d_of[n] = rc.bb[shape.reduce((n,))]
        c_of[-n] = c_of[n].conj().T
        d_of[-n] = -d_of[n].T
    ls = length * s
    out = np.empty((2 * ls, 2 * ls), dtype=complex)
    eye = np.eye(s)
    for x in range(length):
        for y in range(length):
            r, q = slice(x * s, (x + 1) * s), slice(y * s, (y + 1) * s)
            delta = eye if x == y else 0.0
            out[r, q] = delta - c_of[x - y].T        # <b_x b_y^dag>
            out[r.start:r.stop, ls + q.start:ls + q.stop] = d_of[y - x]          # <b_x b_y>
            out[ls + r.start:ls + r.stop, q] = d_of[x - y].conj().T              # <b_x^dag b_y^dag>
            out[ls + r.start:ls + r.stop, ls + q.start:ls + q.stop] = c_of[y - x]  # <b_x^dag b_y>
    return out


# the library reads offset 0 and the negative offsets from the grids, where the
# loop mirrors them, so the two agree to rounding only
@example(n_sites=6, spin=2, reach=2, pairing=True, seed=0)
@settings(max_examples=40, deadline=None)
@given(
    n_sites=st.integers(5, 40),
    spin=st.integers(1, 3),
    reach=st.integers(0, 3),
    pairing=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_restricted_nambu_matches_loop(n_sites, spin, reach, pairing, seed):
    reach = min(reach, (n_sites - 1) // 2)
    cs = random_model(LatticeShape((n_sites,), spin), reach=reach, pairing=pairing, seed=seed)
    cov = ground_covariance(diagonalize(cs))
    rc = real_space(cov, [(n,) for n in range(n_sites)])
    c, f = _site_correlations(cov, n_sites)
    for length in range(1, n_sites + 1):
        ls = length * spin
        got = _nambu_block(c[:ls, :ls], f[:ls, :ls])
        assert np.abs(got - loop_restricted_nambu(rc, cov, length)).max() < 1e-14


@example(n_sites=9, spin=2, reach=1, pairing=False, seed=3, zero_at=4)
@example(n_sites=8, spin=2, reach=2, pairing=True, seed=5, zero_at=0)
@settings(max_examples=40, deadline=None)
@given(
    n_sites=st.integers(5, 40),
    spin=st.integers(1, 3),
    reach=st.integers(0, 3),
    pairing=st.booleans(),
    seed=st.integers(0, 2**16),
    zero_at=st.one_of(st.none(), st.integers(0, 10_000)),
)
def test_block_entropies_match_nambu_route(n_sites, spin, reach, pairing, seed, zero_at):
    if zero_at is None:
        reach = min(reach, (n_sites - 1) // 2)
        cs = random_model(LatticeShape((n_sites,), spin), reach=reach, pairing=pairing, seed=seed)
    else:
        cs = zero_mode_model((n_sites,), spin, seed, pairing, zero_at)
    cov = ground_covariance(diagonalize(cs))
    # pairing-free models must yield an exactly zero pairing kernel, or the
    # Ls x Ls hopping-matrix path is never taken
    assert pairing or not cov.f.any()
    lengths = range(1, n_sites + 1)
    got = {"block_spectra": block_entropies(cov, lengths)}
    if n_sites >= 7:  # the fit window needs 4 lengths in the upper half
        got["entropy_scan"] = list(entropy_scan(cov, lengths).entropies)
    rc = real_space(cov, [(n,) for n in range(n_sites)])
    want = [_gaussian_entropy(np.linalg.eigvalsh(loop_restricted_nambu(rc, cov, length)))
            for length in lengths]
    for entropies in got.values():
        assert np.abs(np.subtract(entropies, want)).max() < 1e-11


def peschel_entropy(cov, length):
    """-sum[c ln c + (1-c) ln(1-c)] over the eigenvalues c of the block's
    C_xy = <b+_x b_y> (Peschel 2003); number-conserving chains only."""
    shape = cov.shape
    rc = real_space(cov, [(n,) for n in range(-(length - 1), length)])
    assert max(np.abs(m).max() for m in rc.bb.values()) < 1e-12
    cmat = np.block([[rc.bdag_b[shape.reduce((y - x,))] for y in range(length)]
                     for x in range(length)])
    c = np.clip(np.linalg.eigvalsh(cmat), 0.0, 1.0)
    return -math.fsum([v * math.log(v) for v in c if v > 0.0]
                      + [(1 - v) * math.log(1 - v) for v in c if v < 1.0])


@pytest.mark.parametrize("cs", [make_twisted(128, np.pi / 2), make_p_model(64, 2.0)],
                         ids=["twisted-quarter-128", "p-model-64"])
def test_entropies_match_peschel_hopping_formula(cs):
    cov = ground_covariance(diagonalize(cs))
    n_sites = cs.shape.dims[0]
    lengths = range(4, 41)
    scan = entropy_scan(cov, lengths)
    for length, entropy in zip(lengths, scan.entropies):
        assert abs(entropy - peschel_entropy(cov, length)) < 1e-9
    for length in (1, 2, n_sites // 2, n_sites - 1, n_sites):
        assert abs(block_entropies(cov, [length])[0] - peschel_entropy(cov, length)) < 1e-9


def test_survey_rejects_negative_count():
    with pytest.raises(ValueError, match="nonnegative"):
        gapped_model_survey((8,), -3, seed=0)
    empty = gapped_model_survey((8,), 0, seed=0)
    assert empty.gapped == 0 and not empty.events
