import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasifree import (
    CouplingSet,
    LatticeShape,
    ModelParams,
    apply_bogoliubov_map,
    block_entropy,
    catalog,
    diagonalize,
    entropy_scan,
    evolve_quench,
    ground_covariance,
    invariant_map,
    random_model,
    random_ph_map,
    real_space,
    verify_criticality,
)
from quasifree.observables import (
    _gaussian_entropy,
    _offset_stacks,
    _restricted_nambu,
    asymmetry_diagnostics,
    gapped_model_survey,
)
from quasifree.solver import CovarianceKernel

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
    tr = cov.trace_kernel()
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
    (momenta, band, m, p), (indet, indet_band) = asymmetry_diagnostics(diagonalize(p_model_64))
    assert momenta.shape == (0, 1) and indet.shape == (0, 1)
    assert band.size == m.size == p.size == indet_band.size == 0


def test_asymmetry_sign_pattern_of_quarter_twist():
    n = 16
    sol = diagonalize(make_twisted(n, np.pi / 2))
    (momenta, band, m, _), (indet, _) = asymmetry_diagnostics(sol)
    k = np.array([k for k in range(1, n) if k != n // 2])
    assert np.array_equal(momenta[:, 0], k) and not band.any()
    assert np.array_equal(m, np.where(k < n // 2, 1.0, -1.0))  # sign of sin(2 pi k / n)
    # band zeros sit at the self-conjugate momenta and are flagged indeterminate
    assert np.array_equal(np.unique(indet[:, 0]), [0, n // 2])


def test_asymmetry_zero_at_self_conjugate_momenta():
    for seed in range(6):
        cs = random_model(LatticeShape((12,), 2), reach=2, pairing=True, seed=seed)
        sol = diagonalize(cs)
        (momenta, *_), _ = asymmetry_diagnostics(sol, threshold=1e-6)
        flat = np.ravel_multi_index(tuple(momenta.T), cs.shape.dims)
        assert not cs.shape.self_conjugate_mask[flat].any()


def test_verify_consistent_gapped(p_model_64):
    rep = verify_criticality(p_model_64, size_doubling=True)
    assert rep.verdict == "consistent-gapped"
    assert not rep.falsification
    assert rep.max_abs_invariant < 1e-10
    assert rep.gap == pytest.approx(1.0, abs=1e-12)
    assert rep.doubled_gap == pytest.approx(1.0, abs=1e-12)
    assert rep.dims == (64,)


def test_verify_twisted_chain_fires_both_sides(twisted_critical_64):
    rep = verify_criticality(twisted_critical_64)
    assert rep.verdict == "gapless-by-spectrum"
    assert rep.max_abs_invariant > 0.1
    assert len(rep.zero_modes) == 4


def sign_asymmetric_bait(n):
    # band sin(kt) + 1/2: crosses zero in the continuum, but a small grid can
    # miss the crossing and look gapped while carrying a nonzero invariant
    return catalog(ModelParams(
        "spinless-general",
        {"a0": 0.5, "a1_im": 0.5},
        LatticeShape((n,), 1),
    ))


def test_verify_detects_falsification_without_doubling():
    cs = sign_asymmetric_bait(4)
    a_k = np.array([0.5, 1.5, 0.5, -0.5])
    sol = diagonalize(cs)
    neg = cs.shape.negation_table
    want = np.sort(np.stack([a_k, -a_k[neg]], 1), 1)
    assert np.abs(want - np.sort(sol.energies, 1)).max() < 1e-12
    rep = verify_criticality(cs, gap_tol=0.3, size_doubling=False)
    assert rep.verdict == "gapless-by-invariant"
    assert rep.falsification


def test_verify_doubling_exposes_the_shrinking_gap():
    rep = verify_criticality(sign_asymmetric_bait(4), gap_tol=0.3, size_doubling=True)
    assert rep.verdict == "gapless-by-spectrum"
    assert not rep.falsification
    assert rep.doubled_gap < 0.3


def test_verify_two_dimensional_gapped_model():
    shape = LatticeShape((6, 6), 1)
    cs = random_model(shape, reach=1, pairing=True, seed=9)
    from quasifree.model import scaled, slope_bound

    cs = scaled(cs, 0.2 / slope_bound(cs))
    # push the model into a clean gap with a strong on-site term
    hop = dict(cs.hop)
    hop[(0, 0)] = hop.get((0, 0), np.zeros((1, 1))) + 2.0 * np.eye(1)
    cs = CouplingSet(shape, hop, cs.pair)
    rep = verify_criticality(cs, size_doubling=True)
    assert rep.verdict == "consistent-gapped"
    assert rep.max_abs_invariant < 1e-12


def test_invariant_preserved_by_maps_and_quenches():
    shape = LatticeShape((16,), 2)
    cs = random_model(shape, reach=2, pairing=True, seed=33)
    cov = ground_covariance(diagonalize(cs))
    inv0 = invariant_map(cov)
    for seed in range(5):
        mapped = apply_bogoliubov_map(cov, random_ph_map(shape, seed=seed))
        inv_m = invariant_map(mapped)
        assert np.abs(inv0 - inv_m).max() < 1e-9
        h = random_model(shape, reach=1, pairing=True, seed=50 + seed)
        quenched = evolve_quench(cov, h, 0.9 + seed)
        inv_q = invariant_map(quenched)
        assert np.abs(inv0 - inv_q).max() < 1e-9


def test_block_entropy_of_product_state_is_zero():
    cs = CouplingSet(LatticeShape((16,), 1), {(0,): [[0.7]]}, {})
    cov = ground_covariance(diagonalize(cs))
    for length in (1, 4, 9):
        assert block_entropy(cov, length) == pytest.approx(0.0, abs=1e-10)


def test_block_entropy_bounds_and_errors(p_model_64):
    cov = ground_covariance(diagonalize(p_model_64))
    s = block_entropy(cov, 6)
    assert 0.0 <= s <= 6 * 2 * np.log(2) + 1e-12
    with pytest.raises(ValueError, match="outside"):
        block_entropy(cov, 0)
    with pytest.raises(ValueError, match="outside"):
        block_entropy(cov, 65)


def test_block_entropy_rejects_higher_dimensions():
    cs = random_model(LatticeShape((4, 4), 1), reach=1, pairing=False, seed=0)
    cov = ground_covariance(diagonalize(cs))
    with pytest.raises(ValueError, match="chains"):
        block_entropy(cov, 2)


def test_block_entropy_flags_corrupted_covariance(p_model_64):
    cov = ground_covariance(diagonalize(p_model_64))
    bad_g = cov.g.copy()
    bad_g[3] = 1.5 * np.eye(2)
    bad = CovarianceKernel(shape=cov.shape, g=bad_g, f=cov.f)
    with pytest.raises(ValueError, match="corrupted"):
        block_entropy(bad, 8)


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
    the reference for ``_restricted_nambu``."""
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


# every s = 2 pairing chain fails here unless offset 0 holds the mirrored c[0]^dag, -d[0]^T
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
    c, d = _offset_stacks(cov, n_sites)
    for length in range(1, n_sites + 1):
        got = _restricted_nambu(c, d, length)
        want = loop_restricted_nambu(rc, cov, length)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))


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
    got = {"block_entropy": [block_entropy(cov, length) for length in lengths]}
    if n_sites >= 7:  # the fit window needs 4 lengths in the upper half
        got["entropy_scan"] = list(entropy_scan(cov, lengths).entropies)
    if cov.f.any():
        c, d = _offset_stacks(cov, n_sites)
        want = [_gaussian_entropy(np.linalg.eigvalsh(_restricted_nambu(c, d, length)))
                for length in lengths]
        for entropies in got.values():
            assert entropies == want
    else:
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
        assert abs(block_entropy(cov, length) - peschel_entropy(cov, length)) < 1e-9


def test_survey_rejects_negative_count():
    with pytest.raises(ValueError, match="nonnegative"):
        gapped_model_survey((8,), -3, seed=0)
    assert gapped_model_survey((8,), 0, seed=0).drawn == 0
