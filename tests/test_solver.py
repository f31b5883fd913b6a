import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasifree import (
    CouplingSet,
    LatticeShape,
    ModelParams,
    catalog,
    covariance_from_coefficients,
    diagonalize,
    evolve_quench,
    ground_covariance,
    random_model,
    real_space,
    verify_criticality,
)
from quasifree import solver
from quasifree.lattice import CouplingTable, fourier_circulant, inverse_fourier
from quasifree.model import CLOSURE_TOL, bdg_blocks, scaled, symmetrize, validate
from quasifree.solver import CLUSTER_RTOL, ZERO_MODE_TOL, _closed_form, constraint_residuals, ground_energy

from conftest import QUENCH_SHORT_MEMORY, fake_sysconf, make_twisted, spinless_closed_form


def onsite_chain(n, mu):
    return CouplingSet(LatticeShape((n,), 1), {(0,): [[mu]]}, {})


def ensemble(n=16, seeds=range(12)):
    models = []
    for seed in seeds:
        spin = 1 + seed % 2
        pairing = (seed // 2) % 2 == 0
        models.append(random_model(LatticeShape((n,), spin), reach=2, pairing=pairing, seed=seed))
    return models


def test_diagonalize_onsite_energies():
    sol = diagonalize(onsite_chain(6, 0.8))
    assert np.abs(sol.energies - np.array([-0.8, 0.8])).max() < 1e-14


def test_p_model_designated_branch(p_model_64):
    sol = diagonalize(p_model_64)
    assert np.abs(sol.branch - np.array([-1.0, 2.0])).max() < 1e-12
    assert sol.gap == pytest.approx(1.0, abs=1e-12)


def check_layout(sol, blocks):
    """The column layout every ``diagonalize`` result of ``blocks`` must have."""
    s = sol.shape.spin
    neg = sol.shape.negation_table
    scale = np.linalg.norm(blocks, axis=(1, 2))
    resid = np.abs(blocks @ sol.u - sol.u * sol.u_energies[:, None, :]).max(axis=(1, 2))
    assert (resid < 1e-11 * np.maximum(scale, 1.0)).all()
    # partner rows are never diagonalized: their spectrum must still be the block's own
    spread = np.abs(sol.energies - np.linalg.eigvalsh(blocks)).max(axis=1)
    assert (spread < 1e-12 * np.maximum(scale, 1.0)).all()
    eye = np.eye(2 * s)
    assert np.abs(sol.u @ np.conj(np.transpose(sol.u, (0, 2, 1))) - eye).max() < 1e-12
    # U_{-k} is the particle-hole image of U_k: halves swapped and conjugated.  Only
    # a self-conjugate momentum with a zero mode is exempt (its rest columns are its
    # own eigenvectors).
    ph = sol.coef_ok | (sol.shape.negation_table != np.arange(sol.shape.n_sites))
    swap = np.r_[s:2 * s, 0:s]
    image = sol.u[neg][:, swap][:, :, swap].conj()
    assert np.array_equal(sol.u[ph], image[ph])
    assert np.array_equal(sol.u_energies[ph], -sol.u_energies[neg][:, swap][ph])
    # the designated columns carry the s largest particle weights, at every momentum
    weight = np.sum(np.abs(sol.u[:, :s, :]) ** 2, axis=1)
    assert (weight[:, :s].min(axis=1) >= weight[:, s:].max(axis=1) - 1e-12).all()
    assert (np.diff(sol.branch, axis=1) >= 0).all()


@settings(max_examples=80, deadline=None)
@given(
    dims=st.one_of(
        st.tuples(st.integers(2, 9)),
        st.tuples(st.integers(2, 5), st.integers(2, 5)),
        st.tuples(st.integers(2, 3), st.integers(2, 3), st.integers(2, 3)),
    ),
    spin=st.integers(1, 3),
    pairing=st.booleans(),
    seed=st.integers(0, 10_000),
)
# a self-conjugate momentum with energies +-6.7e-5: its block breaks particle-hole
# symmetry by 1e-16, so its eigenvector and image overlap by 1.6e-12
@example(dims=(3, 4), spin=1, pairing=True, seed=2)
def test_diagonalize_layout_properties(dims, spin, pairing, seed):
    reach = 1 if min(dims) > 2 else 0
    cs = random_model(LatticeShape(dims, spin), reach, pairing, seed)
    check_layout(diagonalize(cs), bdg_blocks(cs))


def test_eigen_residuals_and_unitarity():
    for cs in ensemble():
        check_layout(diagonalize(cs), bdg_blocks(cs))


def random_propagator(shape, seed, t):
    """``exp(-i t H_k)`` of a seeded random pairing model, the propagator of a quench."""
    h = random_model(shape, reach=min(2, (min(shape.dims) - 1) // 2), pairing=True, seed=seed)
    return solver._propagator(*np.linalg.eigh(bdg_blocks(h)), t)


def conjugated_model(cs, seed):
    """``cs`` conjugated by a random Bogoliubov map: the spectrum is kept, and
    particles and holes are mixed at every momentum."""
    shape, s = cs.shape, cs.shape.spin
    w = random_propagator(shape, seed, 0.7)
    h = w @ bdg_blocks(cs) @ np.conj(np.transpose(w, (0, 2, 1)))
    hop_grid = inverse_fourier(h[:, :s, :s], shape)
    pair_grid = inverse_fourier(h[:, :s, s:], shape)
    return symmetrize(shape, {n: hop_grid[n] for n in np.ndindex(*shape.dims)},
                      {n: pair_grid[n] for n in np.ndindex(*shape.dims)})


def degenerate_pairing_model(dims, spin, seed):
    """Spin-degenerate hopping chain conjugated by a random Bogoliubov map: every
    eigenvalue stays s-fold degenerate, but each block is irreducible, so the
    eigensolver returns an arbitrary basis of every degenerate cluster."""
    shape = LatticeShape(dims, spin)
    step = (1,) + (0,) * (len(dims) - 1)
    hop = {(0,) * len(dims): 0.3 * np.eye(spin), step: 0.5 * np.eye(spin)}
    hop[shape.negate(step)] = 0.5 * np.eye(spin)
    return conjugated_model(CouplingSet(shape, hop, {}), seed)


@pytest.mark.parametrize("dims,spin,seed", [((6,), 2, 4), ((5,), 3, 1), ((4, 3), 2, 2)])
def test_diagonalize_layout_degenerate_clusters(dims, spin, seed):
    cs = degenerate_pairing_model(dims, spin, seed)
    sol = diagonalize(cs)
    check_layout(sol, bdg_blocks(cs))
    # inside a degenerate cluster the columns are rotated until their particle
    # parts are orthogonal (particle-weight extremal)
    lam = sol.u_energies
    scale = np.maximum(1.0, np.abs(lam).max(axis=1))[:, None, None]
    same = np.abs(lam[:, :, None] - lam[:, None, :]) <= CLUSTER_RTOL * scale
    same &= ~np.eye(2 * spin, dtype=bool)
    assert same.any(axis=(1, 2)).all()
    upper = sol.u[:, :spin, :]
    gram = np.conj(np.transpose(upper, (0, 2, 1))) @ upper
    assert np.abs(gram[same]).max() < 1e-12


def test_diagonalize_layout_zero_modes(twisted_critical_64):
    # band sin(k): particle and hole eigenvalues coincide at every momentum, and
    # the self-conjugate momenta 0 and N/2 carry zero modes
    sol = diagonalize(twisted_critical_64)
    self_conjugate = sol.shape.negation_table == np.arange(sol.shape.n_sites)
    assert not sol.coef_ok[self_conjugate].any()
    assert (np.diff(sol.energies, axis=1) < 1e-12).all()
    check_layout(sol, bdg_blocks(twisted_critical_64))
    # number conserving: the designated columns are the particle states, at the zero
    # modes too
    assert np.abs(np.abs(sol.u[:, 0, 0]) - 1).max() < 1e-12


def test_diagonalize_refuses_a_lattice_beyond_physical_memory(monkeypatch):
    cs = random_model(LatticeShape((8,), 2), reach=1, pairing=True, seed=0)
    monkeypatch.setattr("quasifree.solver.os.sysconf", lambda name: 1024)
    with pytest.raises(ValueError, match="physical memory"):
        diagonalize(cs)
    monkeypatch.undo()
    # 2^64 momenta: refused by the count alone, before any per-momentum array
    huge = CouplingSet(LatticeShape((1 << 32, 1 << 32)), {(0, 0): [[0.5]]}, {})
    with pytest.raises(ValueError, match="physical memory"):
        diagonalize(huge)


def test_eigenvalue_route_refuses_a_lattice_beyond_physical_memory(monkeypatch):
    cs = random_model(LatticeShape((8,), 2), reach=1, pairing=False, seed=0)
    monkeypatch.setattr("quasifree.solver.os.sysconf", lambda name: 1024)
    with pytest.raises(ValueError, match="physical memory"):
        verify_criticality(cs)
    monkeypatch.undo()
    huge = CouplingSet(LatticeShape((1 << 32, 1 << 32)), {(0, 0): [[0.5]]}, {})
    with pytest.raises(ValueError, match="physical memory"):
        verify_criticality(huge)


@pytest.mark.parametrize("cs", [
    catalog(ModelParams("p-model", {"p": 2.0}, LatticeShape((1 << 14,), 2))),
    random_model(LatticeShape((128, 128), 2), reach=1, pairing=False, seed=0),
], ids=["p-model-chain", "hopping-128x128"])
def test_eigenvalue_route_memory_per_momentum(cs):
    # a pairing-free model forms no BdG blocks, no eigenvectors and, at s = 2, no
    # hopping kernel: the entry transforms and the count stages peak near 80 bytes
    # per momentum (128 and 192 through the s x s kernel), where the eigh route
    # through diagonalize peaks near 312
    verify_criticality(cs)  # warm-up: the shape's cached index tables
    tracemalloc.start()
    try:
        verify_criticality(cs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / cs.shape.n_sites <= 256


@settings(max_examples=200, deadline=None)
@given(
    count=st.integers(1, 16),
    kind=st.sampled_from(["hermitian", "diagonal", "identity", "zero"]),
    exponent=st.floats(-150, 150),
    seed=st.integers(0, 10_000),
)
@example(count=4, kind="zero", exponent=0.0, seed=0)
def test_closed_form_eigenvalues_match_lapack(count, kind, exponent, seed):
    # the 2x2 closed form over the diagonals and the lower entry's modulus: ascending,
    # within 2e-15 of each block's largest |eigenvalue| from LAPACK
    z = np.random.default_rng(seed).uniform(-1, 1, (2, count, 2, 2))
    a = z[0] + 1j * z[1]
    a = (a + np.conj(np.transpose(a, (0, 2, 1)))) / 2
    if kind == "diagonal":
        a = a * np.eye(2)
    elif kind == "identity":
        a = a[:, :1, :1].real * np.eye(2)
    elif kind == "zero":
        a = np.zeros_like(a)
    a = a * 10.0 ** exponent
    got = _closed_form(a[:, 0, 0].real, a[:, 1, 1].real, np.abs(a[:, 1, 0]))
    want = np.linalg.eigvalsh(a)
    assert got.shape == want.shape
    assert (np.diff(got, axis=1) >= 0).all()
    assert (np.abs(got - want) <= 2e-15 * np.abs(want).max(axis=1, keepdims=True)).all()


def kernel_route(cs):
    """The pairing-free spectrum from the full hopping kernel: ``eigvalsh`` of every ``A_k``."""
    return solver.Spectrum(cs.shape, np.linalg.eigvalsh(fourier_circulant(cs.hop, cs.shape)), ZERO_MODE_TOL)


def check_entry_route(cs):
    """``spectrum`` at s <= 2 against the kernel route: energies within 2e-15 of the
    largest |energy|, the counts, the zero modes and their momenta identical.  The zero-mode band
    is absolute, so where an energy lies within that bound of its edge, as a
    constructed zero mode does at a large scale, rounding decides its side on
    either route and the counts are not compared."""
    got, want = solver.spectrum(cs), kernel_route(cs)
    assert got.branch.shape == want.branch.shape
    assert (np.diff(got.branch, axis=1) >= 0).all()
    bound = 2e-15 * np.abs(want.branch).max()
    assert np.abs(got.branch - want.branch).max() <= bound
    if (np.abs(np.abs(want.branch) - ZERO_MODE_TOL) <= bound).any():
        return
    assert np.array_equal(got.imbalance, want.imbalance)
    assert got.zero_modes == want.zero_modes
    assert np.array_equal(got.coef_ok, want.coef_ok)


@settings(max_examples=80, deadline=None)
@given(
    dims=st.lists(st.sampled_from([2, 3, 4, 5, 7]), min_size=1, max_size=3).map(tuple),
    spin=st.integers(1, 2),
    seed=st.integers(0, 10_000),
    exponent=st.floats(-100, 100),
    zero_at=st.one_of(st.none(), st.integers(0, 10_000)),
)
@example(dims=(64,), spin=2, seed=0, exponent=0.0, zero_at=None)
@example(dims=(5, 2, 3), spin=1, seed=1, exponent=0.0, zero_at=7)
def test_entry_transforms_match_the_kernel_route(dims, spin, seed, exponent, zero_at):
    # the diagonal entries by irfftn and the (1, 0) entry by fftn give the spectra of
    # the full kernel, on odd and even axes and over many decades of scale
    if zero_at is None:
        cs = random_model(LatticeShape(dims, spin), 1 if min(dims) > 2 else 0, False, seed)
    else:
        cs = zero_mode_model(dims, spin, seed, False, zero_at)
    check_entry_route(scaled(cs, 10.0 ** exponent))


def test_entry_transforms_read_the_hermitian_part_of_a_nearly_closed_table():
    # a table closed only within CLOSURE_TOL: an on-site diagonal with an imaginary
    # part, and hop(-n) off hop(n)^dag, both below the tolerance; the diagonal's
    # transform is the real part of the entry's, as LAPACK reads it from the kernel
    shape = LatticeShape((5, 4), 2)
    defect = 0.4 * CLOSURE_TOL  # an imaginary on-site entry misses its image by twice this
    hop1 = np.array([[0.3 + 0.2j, -0.4], [0.1j, 0.25]])
    hop = {(0, 0): np.diag([0.7 + defect * 1j, -0.2 - defect * 1j]), (1, 0): hop1,
           (-1, 0): hop1.conj().T + defect, (0, 1): 0.5 * np.eye(2), (0, -1): 0.5 * np.eye(2) - defect * 1j}
    cs = CouplingSet(shape, hop, {})
    assert not validate(cs) and np.abs(symmetrize(shape, hop).hop.mats - cs.hop.mats).max() > 0
    check_entry_route(cs)


def test_quench_refuses_a_lattice_that_diagonalize_accepts(monkeypatch):
    shape = LatticeShape((4096,), 2)
    monkeypatch.setattr("quasifree.solver.os.sysconf", fake_sysconf(QUENCH_SHORT_MEMORY))
    sol = diagonalize(random_model(shape, reach=1, pairing=True, seed=0))
    with pytest.raises(ValueError, match="physical memory"):
        evolve_quench(sol, random_model(shape, reach=1, pairing=True, seed=1), [1.0])


@pytest.mark.parametrize("cs", [
    catalog(ModelParams("p-model", {"p": 2.0}, LatticeShape((1 << 14,), 2))),
    random_model(LatticeShape((128, 128), 2), reach=1, pairing=True, seed=0),
], ids=["p-model-chain", "pairing-128x128"])
def test_ground_covariance_memory_per_momentum(cs):
    # the half-zone basis and the chunked projector products peak near 420 bytes
    # per momentum at s = 2; a full-grid basis or projector stack reads 1088
    shape = cs.shape
    ground_covariance(diagonalize(cs))  # warm-up: the shape's cached index tables
    tracemalloc.start()
    try:
        sol = diagonalize(cs)
        ground_covariance(sol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / shape.n_sites <= 800
    assert len(sol.u_rows) == np.count_nonzero(np.arange(shape.n_sites) <= shape.negation_table)


def test_particle_hole_energy_pairing():
    for cs in ensemble(seeds=range(6)):
        lam = np.linalg.eigvalsh(bdg_blocks(cs))
        mirrored = np.sort(-lam[cs.shape.negation_table], axis=1)
        assert np.abs(lam - mirrored).max() < 1e-11


def test_anticommutation_and_completeness_constraints():
    for cs in ensemble():
        sol = diagonalize(cs)
        if sol.gap <= sol.zero_mode_tol:
            continue
        res = constraint_residuals(sol)
        assert max(res.values()) < 1e-11, res


def test_zero_mode_blocks_are_flagged(twisted_critical_64):
    # both slots of (0,) and of (32,) are zero modes, and no other
    sol = diagonalize(twisted_critical_64)
    assert sol.zero_modes == 4
    assert np.abs(sol.u_energies[0]).max() < sol.zero_mode_tol
    assert np.array_equal(np.flatnonzero(~sol.coef_ok), [0, 32])


def test_spinless_closed_form_pure_hopping():
    cs = CouplingSet(LatticeShape((8,), 1), {(1,): [[0.5]], (-1,): [[0.5]]}, {})
    lam = spinless_closed_form(cs)
    kt = 2 * np.pi * np.arange(8) / 8
    neg = cs.shape.negation_table
    # multiset {lam_k, -lam_{-k}} equals {cos kt, -cos kt}
    got = np.sort(np.stack([lam, -lam[neg]]), axis=0)
    want = np.sort(np.stack([np.cos(kt), -np.cos(kt)]), axis=0)
    assert np.abs(got - want).max() < 1e-12


def test_spinless_closed_form_twisted_band():
    cs = make_twisted(16, np.pi / 2)
    lam = spinless_closed_form(cs)
    neg = cs.shape.negation_table
    kt = 2 * np.pi * np.arange(16) / 16
    pair_got = np.sort(np.stack([lam, -lam[neg]]), axis=0)
    pair_want = np.sort(np.stack([np.sin(kt), np.sin(kt)]), axis=0)
    assert np.abs(pair_got - pair_want).max() < 1e-12


def test_spinless_closed_form_matches_eigenvalues():
    # includes a Kitaev-style pairing chain and 100 random draws
    kitaev = catalog(ModelParams(
        "spinless-general", {"a0": -0.4, "a1_re": 0.5, "b1_re": -0.5}, LatticeShape((12,), 1)
    ))
    models = [kitaev] + [
        random_model(LatticeShape((10,), 1), reach=2, pairing=seed % 2 == 0, seed=seed)
        for seed in range(100)
    ]
    for cs in models:
        lam = spinless_closed_form(cs)
        sol = diagonalize(cs)
        neg = cs.shape.negation_table
        got = np.sort(np.stack([lam, -lam[neg]], axis=1), axis=1)
        want = np.sort(sol.energies, axis=1)
        assert np.abs(got - want).max() < 1e-11


def test_spinless_closed_form_rejects_spinful(p_model_64):
    with pytest.raises(ValueError):
        spinless_closed_form(p_model_64)


def test_ground_covariance_band_limits():
    empty = ground_covariance(diagonalize(onsite_chain(6, 0.5)))
    assert np.abs(empty.g).max() < 1e-14
    assert np.abs(empty.f).max() < 1e-14
    filled = ground_covariance(diagonalize(onsite_chain(6, -0.5)))
    assert np.abs(filled.g - np.eye(1)).max() < 1e-14


def test_ground_covariance_p_model(p_model_64):
    cov = ground_covariance(diagonalize(p_model_64))
    occ = np.linalg.eigvalsh(cov.g)
    assert np.abs(occ - np.array([0.0, 1.0])).max() < 1e-12
    assert np.abs(cov.f).max() < 1e-13
    assert cov.zero_modes == 0


def test_covariance_invariants_on_random_models():
    neg_check = lambda arr, neg: np.abs(arr + np.transpose(arr[neg], (0, 2, 1))).max()
    for cs in ensemble(seeds=range(8)):
        sol = diagonalize(cs)
        cov = ground_covariance(sol)
        occ = np.linalg.eigvalsh(cov.g)
        assert occ.min() > -1e-10 and occ.max() < 1 + 1e-10
        assert neg_check(cov.f, cs.shape.negation_table) < 1e-10
        if not cov.zero_modes:
            gamma = cov.gamma()
            assert np.abs(gamma @ gamma - gamma).max() < 1e-9
        # the two ways of reading the occupation kernel off the Nambu block agree
        s = cs.shape.spin
        gamma = cov.gamma()
        alt = np.transpose(np.eye(s) - gamma[:, :s, :s], (0, 2, 1))
        assert np.abs(alt - cov.g).max() < 1e-12


def test_zero_modes_get_half_occupation(twisted_critical_64):
    cov = ground_covariance(diagonalize(twisted_critical_64))
    assert cov.g[0, 0, 0] == pytest.approx(0.5, abs=1e-12)
    assert cov.zero_modes == 4


def full_zone_projector(cs, tol=ZERO_MODE_TOL):
    """Nambu blocks of the ground state from an ``eigh`` of every BdG block, zero
    modes at weight 1/2: the reference for ``ground_covariance``."""
    lam, vecs = np.linalg.eigh(bdg_blocks(cs))
    weight = np.where(lam > tol, 1.0, 0.0) + 0.5 * (np.abs(lam) <= tol)
    return (vecs * weight[:, None, :]) @ np.conj(np.transpose(vecs, (0, 2, 1)))


def zero_mode_model(dims, spin, seed, pairing, flat):
    """A random hopping model shifted so one band crosses zero at flat momentum
    ``flat``; with ``pairing`` it is then conjugated by a random Bogoliubov map."""
    shape = LatticeShape(dims, spin)
    reach = 1 if min(dims) > 2 else 0
    cs = random_model(shape, reach, False, seed)
    mu = np.linalg.eigvalsh(fourier_circulant(cs.hop, shape)[flat % shape.n_sites])[seed % spin]
    mats = np.array(cs.hop.mats)
    mats[(cs.hop.offsets == 0).all(axis=1)] -= mu * np.eye(spin)
    cs = CouplingSet(shape, CouplingTable(shape, cs.hop.offsets, mats), {})
    return conjugated_model(cs, seed) if pairing else cs


@settings(max_examples=80, deadline=None)
@given(
    dims=st.one_of(
        st.tuples(st.integers(2, 9)),
        st.tuples(st.integers(2, 5), st.integers(2, 5)),
        st.tuples(st.integers(2, 3), st.integers(2, 3), st.integers(2, 3)),
    ),
    spin=st.integers(1, 3),
    pairing=st.booleans(),
    seed=st.integers(0, 10_000),
    zero_at=st.one_of(st.none(), st.integers(0, 10_000)),
)
@example(dims=(3, 4), spin=1, pairing=True, seed=2, zero_at=None)
@example(dims=(8,), spin=2, pairing=True, seed=5, zero_at=0)
@example(dims=(6,), spin=3, pairing=False, seed=1, zero_at=2)
def test_ground_covariance_matches_full_zone_projector(dims, spin, pairing, seed, zero_at):
    if zero_at is None:
        reach = 1 if min(dims) > 2 else 0
        cs = random_model(LatticeShape(dims, spin), reach, pairing, seed)
    else:
        cs = zero_mode_model(dims, spin, seed, pairing, zero_at)
    sol = diagonalize(cs)
    if zero_at is not None:
        assert sol.zero_modes
    gamma = ground_covariance(sol).gamma()
    assert np.abs(gamma - full_zone_projector(cs)).max() < 1e-12


@settings(max_examples=80, deadline=None)
@given(
    dims=st.one_of(
        st.tuples(st.integers(2, 9)),
        st.tuples(st.integers(2, 5), st.integers(2, 5)),
        st.tuples(st.integers(2, 3), st.integers(2, 3), st.integers(2, 3)),
    ),
    spin=st.integers(2, 3),
    seed=st.integers(0, 10_000),
    zero_at=st.integers(0, 10_000),
)
@example(dims=(4,), spin=2, seed=0, zero_at=0)
@example(dims=(6,), spin=3, seed=1, zero_at=3)
def test_zero_mode_designates_the_particle_bands(dims, spin, seed, zero_at):
    # without pairing the particle bands are the spectrum of A_k at every momentum, a
    # self-conjugate one with a zero mode included, where the particle and hole
    # eigenvalues of a cluster at zero are resolved by weight
    cs = zero_mode_model(dims, spin, seed, False, zero_at)
    want = np.linalg.eigvalsh(fourier_circulant(cs.hop, cs.shape))
    got = diagonalize(cs).branch
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def full_grid_ground_energy(c):
    """The reference ground energy: half the negative eigenvalues of every BdG block on
    the full grid plus half the trace of every hopping kernel."""
    lam = np.linalg.eigvalsh(bdg_blocks(c))
    trace_a = np.trace(fourier_circulant(c.hop, c.shape), axis1=1, axis2=2).real.sum()
    return float(lam[lam < 0].sum() / 2.0 + trace_a / 2.0)


@settings(max_examples=100, deadline=None)
@given(
    dims=st.one_of(
        st.tuples(st.integers(2, 9)),
        st.tuples(st.integers(2, 5), st.integers(2, 5)),
        st.tuples(st.integers(2, 3), st.integers(2, 3), st.integers(2, 3)),
    ),
    spin=st.integers(1, 3),
    pairing=st.booleans(),
    kind=st.sampled_from(["random", "zero-mode", "no-onsite", "pairing-only"]),
    seed=st.integers(0, 10_000),
)
@example(dims=(8,), spin=2, pairing=True, kind="zero-mode", seed=5)
@example(dims=(4, 3), spin=3, pairing=False, kind="no-onsite", seed=1)
@example(dims=(3, 3), spin=2, pairing=False, kind="pairing-only", seed=2)
def test_ground_energy_matches_the_full_grid_blocks(dims, spin, pairing, kind, seed):
    # the designated branch against every BdG block's eigenvalues, with zero modes, a
    # table without an on-site term, and a pairing-only set (an empty hopping table)
    shape = LatticeShape(dims, spin)
    if kind == "zero-mode":
        cs = zero_mode_model(dims, spin, seed, pairing, seed)
    else:
        cs = random_model(shape, 1 if min(dims) > 2 else 0, pairing or kind == "pairing-only", seed)
        if kind == "no-onsite":
            bonds = cs.hop.offsets.any(axis=1)
            cs = CouplingSet(shape, CouplingTable(shape, cs.hop.offsets[bonds], cs.hop.mats[bonds]), cs.pair)
        elif kind == "pairing-only":
            cs = CouplingSet(shape, {}, cs.pair)
    # ground_energy solves the spectrum itself, or reads a solution the caller holds
    scale = max(1.0, float(np.abs(solver.spectrum(cs).branch).sum()))
    want = full_grid_ground_energy(cs)
    for energy in (ground_energy(cs), ground_energy(cs, diagonalize(cs))):
        assert abs(energy - want) <= 1e-14 * scale


def test_ground_covariance_chunks_match_one_pass(monkeypatch):
    # 16 half-zone rows in chunks of 5, the last one ragged, with zero modes
    cs = zero_mode_model((6, 5), 2, seed=3, pairing=True, flat=7)
    sol = diagonalize(cs)
    assert sol.zero_modes
    whole = ground_covariance(sol)
    monkeypatch.setattr("quasifree.solver._COVARIANCE_CHUNK", 5)
    chunked = ground_covariance(sol)
    assert np.array_equal(chunked.g, whole.g) and np.array_equal(chunked.f, whole.f)
    assert np.abs(chunked.gamma() - full_zone_projector(cs)).max() < 1e-12


def test_coefficient_route_matches_projector_route():
    for cs in ensemble(seeds=range(10)):
        sol = diagonalize(cs)
        if sol.gap <= sol.zero_mode_tol:
            continue
        a = ground_covariance(sol)
        b = covariance_from_coefficients(sol)
        assert np.abs(a.g - b.g).max() < 1e-9
        assert np.abs(a.f - b.f).max() < 1e-9


def test_coefficient_route_rejects_zero_modes(twisted_critical_64):
    with pytest.raises(ValueError, match="zero-mode"):
        covariance_from_coefficients(diagonalize(twisted_critical_64))


def test_real_space_p_model_correlators(p_model_64):
    rc = real_space(ground_covariance(diagonalize(p_model_64)), [(0,), (1,)])
    c1 = rc.bdag_b[(1,)]
    assert c1[0, 0] == pytest.approx(-0.25j, abs=1e-12)
    assert c1[1, 1] == pytest.approx(+0.25j, abs=1e-12)
    assert np.trace(c1).imag == pytest.approx(0.0, abs=1e-12)


def test_real_space_filled_band_is_local():
    cov = ground_covariance(diagonalize(onsite_chain(8, -1.0)))
    rc = real_space(cov, [(n,) for n in range(8)])
    assert np.abs(rc.bdag_b[(0,)] - np.eye(1)).max() < 1e-13
    for n in range(1, 8):
        assert np.abs(rc.bdag_b[(n,)]).max() < 1e-13


def test_real_space_symmetries():
    cs = random_model(LatticeShape((12,), 2), reach=2, pairing=True, seed=21)
    rc = real_space(ground_covariance(diagonalize(cs)), [(n,) for n in range(12)])
    shape = cs.shape
    for n in range(12):
        m = shape.negate((n,))
        assert np.abs(rc.bdag_b[m] - rc.bdag_b[(n,)].conj().T).max() < 1e-12
        assert np.abs(rc.bb[m] + rc.bb[(n,)].T).max() < 1e-12
    # on-site occupation trace within [0, s]
    tr = np.trace(rc.bdag_b[(0,)]).real
    assert -1e-12 <= tr <= 2 + 1e-12


def test_gauge_covariance_of_commensurate_twist():
    n = 32
    base = real_space(ground_covariance(diagonalize(make_twisted(n, 0.0))), [(1,)])
    c0 = base.bdag_b[(1,)][0, 0]
    for m in (1, 5, 8):
        alpha = 2 * np.pi * m / n
        rc = real_space(ground_covariance(diagonalize(make_twisted(n, alpha))), [(1,)])
        assert abs(rc.bdag_b[(1,)][0, 0] - np.exp(1j * alpha) * c0) < 1e-12


def test_apply_identity_map_is_noop():
    cs = random_model(LatticeShape((10,), 2), reach=1, pairing=True, seed=2)
    sol = diagonalize(cs)
    cov = ground_covariance(sol)
    out = ground_covariance(replace(sol, u_rows=np.eye(4) @ sol.u_rows))
    assert np.abs(out.g - cov.g).max() < 1e-14
    assert np.abs(out.f - cov.f).max() < 1e-14


def test_particle_hole_swap_flips_occupation():
    # the Nambu swap exchanges b_k with b^dag_{-k}, so g'_k = 1 - g_{-k}^T
    cs = make_twisted(8, 0.3)
    sol = diagonalize(cs)
    cov = ground_covariance(sol)
    # sx is its own particle-hole image, so it keeps the layout of the stored rows
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = ground_covariance(replace(sol, u_rows=sx @ sol.u_rows))
    neg = cs.shape.negation_table
    expected = np.eye(1) - np.transpose(cov.g[neg], (0, 2, 1))
    assert np.abs(out.g - expected).max() < 1e-12
    # occupation eigenvalues flip nu -> 1 - nu across the grid
    old = np.sort(np.linalg.eigvalsh(cov.g).ravel())
    new = np.sort(1.0 - np.linalg.eigvalsh(out.g).ravel())[::-1]
    assert np.abs(np.sort(old) - np.sort(new)).max() < 1e-12


def test_quench_propagator_is_a_bogoliubov_map():
    # unitary at every momentum, and W_{-k} = sx conj(W_k) sx, so it maps the
    # Nambu blocks of a state to those of a state
    shape = LatticeShape((12,), 2)
    neg = shape.negation_table
    for seed in range(5):
        w = random_propagator(shape, seed, 1.0)
        assert np.abs(w @ np.conj(np.transpose(w, (0, 2, 1))) - np.eye(4)).max() < 1e-13
        assert np.abs(np.roll(np.conj(w[neg]), 2, axis=(1, 2)) - w).max() < 1e-13


def test_quench_time_zero_and_stationarity():
    cs = random_model(LatticeShape((10,), 2), reach=2, pairing=True, seed=8)
    sol = diagonalize(cs)
    cov = ground_covariance(sol)
    out0, out = map(ground_covariance, evolve_quench(sol, cs, [0.0, 2.7]))
    assert np.abs(out0.g - cov.g).max() < 1e-13
    # the parent Hamiltonian leaves its own ground state invariant
    assert np.abs(out.g - cov.g).max() < 1e-10
    assert np.abs(out.f - cov.f).max() < 1e-10


def test_quench_composition():
    shape = LatticeShape((10,), 1)
    cs = random_model(shape, reach=2, pairing=True, seed=4)
    h = random_model(shape, reach=1, pairing=True, seed=14)
    once, direct = evolve_quench(diagonalize(cs), h, [1.6, 3.7])
    [twice] = evolve_quench(once, h, [2.1])
    twice, direct = ground_covariance(twice), ground_covariance(direct)
    assert np.abs(twice.g - direct.g).max() < 1e-10
    assert np.abs(twice.f - direct.f).max() < 1e-10


def test_quench_diagonalizes_once_for_all_times(monkeypatch):
    shape = LatticeShape((12,), 2)
    sol = diagonalize(random_model(shape, reach=2, pairing=True, seed=3))
    h = random_model(shape, reach=1, pairing=True, seed=13)
    times = [0.0, 0.4, 2.5, 7.0]
    calls = []
    blocks = solver.bdg_blocks
    monkeypatch.setattr(solver, "bdg_blocks", lambda c, rows=slice(None): calls.append(rows) or blocks(c, rows))
    states = list(evolve_quench(sol, h, times))
    # one eigendecomposition, of the half-zone blocks alone
    assert len(calls) == 1 and np.array_equal(calls[0], shape.half_zone)
    # each time's rows are bit for bit those of a quench to that time alone
    for t, out in zip(times, states):
        [alone] = evolve_quench(sol, h, [t])
        assert out.u_rows.tobytes() == alone.u_rows.tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_quench_refuses_a_generator_that_overflows():
    # finite entries whose hopping kernel overflows, A_k = 8e307 (1 + 2 cos k) I: the
    # generator's one diagonalize names the momentum, before any state is formed
    shape = LatticeShape((8,), 2)
    sol = diagonalize(random_model(shape, reach=1, pairing=True, seed=0))
    big = CouplingSet(shape, {(n,): 8e307 * np.eye(2) for n in (0, 1, -1)}, {})
    with pytest.raises(np.linalg.LinAlgError, match=r"at momentum \(0,\)"):
        evolve_quench(sol, big, [0.0, 1.0])


# a quenched solution's rows are unitary and its kernels dimensionless, so rounding is
# a few hundred eps; the bound below also allows t eps max|E'|, the phase error of the
# quench energies E' at a self-conjugate momentum whose eigenpairs were not paired
# with their images (worst seen then: 221 eps (1 + t max|E'|), over 3000 draws with E'
# scaled by 1e-3 to 1e3), and the next property holds the constraints to 1000 eps alone
QUENCH_RTOL = 1000 * np.finfo(float).eps


@settings(max_examples=60, deadline=None)
@given(
    dims=st.one_of(
        st.tuples(st.integers(2, 9)),
        st.tuples(st.integers(2, 5), st.integers(2, 5)),
        st.tuples(st.integers(2, 3), st.integers(2, 3), st.integers(2, 3)),
    ),
    spin=st.integers(1, 3),
    pairing=st.booleans(),
    seed=st.integers(0, 10_000),
    zero_at=st.one_of(st.none(), st.integers(0, 10_000)),
    factor=st.floats(1e-3, 1e3),
    times=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=3),
)
@example(dims=(8,), spin=2, pairing=True, seed=5, zero_at=0, factor=1.0, times=[0.0, 9.5])
@example(dims=(3, 4), spin=3, pairing=False, seed=2, zero_at=None, factor=1e3, times=[2.5])
def test_quench_is_a_bogoliubov_map_on_the_solution(dims, spin, pairing, seed, zero_at, factor, times):
    shape = LatticeShape(dims, spin)
    reach = 1 if min(dims) > 2 else 0
    cs = random_model(shape, reach, pairing, seed) if zero_at is None else \
        zero_mode_model(dims, spin, seed, pairing, zero_at)
    h = scaled(random_model(shape, reach, True, seed + 1), factor)
    sol = diagonalize(cs)
    scale = np.abs(solver.spectrum(h).branch).max()
    for t, state in zip(times, evolve_quench(sol, h, times)):
        tol = QUENCH_RTOL * (1 + t * scale)
        assert max(constraint_residuals(state).values()) < tol
        cov = ground_covariance(state)
        # the coefficient route refuses any zero mode, but reads the branch signs at k
        # and -k alone: a nonzero stand-in there leaves the rows where coef_ok exact
        alt = covariance_from_coefficients(replace(state, branch=np.where(state._zero, 1.0, state.branch)))
        ok = state.coef_ok
        assert np.abs(alt.g - cov.g)[ok].max(initial=0.0) < tol
        assert np.abs(alt.f - cov.f)[ok].max(initial=0.0) < tol
        # the quench keeps the counts: tr g_k - tr g_{-k} on the kernel route
        tr = cov.trace_kernel()
        assert np.abs(tr - tr[shape.negation_table] - sol.imbalance).max() < tol


@settings(max_examples=40, deadline=None)
@given(
    dims=st.one_of(
        st.tuples(st.integers(2, 9)),
        st.tuples(st.integers(2, 5), st.integers(2, 5)),
        st.tuples(st.integers(2, 3), st.integers(2, 3), st.integers(2, 3)),
    ),
    spin=st.integers(1, 3),
    pairing=st.booleans(),
    seed=st.integers(0, 10_000),
    factor=st.floats(1e-3, 1e3),
    times=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=3),
)
@example(dims=(3, 4), spin=3, pairing=True, seed=2, factor=1e3, times=[0.5, 10.0])
def test_quench_constraints_hold_to_rounding_at_every_time(dims, spin, pairing, seed, factor, times):
    # a self-conjugate block's eigenvectors are paired with their images, so there
    # W_k = sx conj(W_k) sx to rounding and the residuals do not grow with t max|E'|
    # (unpaired, the example reads 1.1e-12 at t = 0.5 and 2.0e-11 at t = 10)
    shape = LatticeShape(dims, spin)
    reach = 1 if min(dims) > 2 else 0
    sol = diagonalize(random_model(shape, reach, pairing, seed))
    h = scaled(random_model(shape, reach, True, seed + 5), factor)
    for state in evolve_quench(sol, h, times):
        assert max(constraint_residuals(state).values()) < QUENCH_RTOL


def test_quench_shape_mismatch():
    sol = diagonalize(make_twisted(8, 0.0))
    other = random_model(LatticeShape((10,), 1), reach=1, pairing=False, seed=0)
    with pytest.raises(ValueError, match="shape"):
        evolve_quench(sol, other, [1.0])


def test_beta_weight_symmetric_in_momentum():
    # whenever every branch sign matches between k and -k, the total pairing
    # weight sum |beta|^2 must be momentum symmetric
    for cs in ensemble(seeds=range(10)):
        sol = diagonalize(cs)
        if sol.gap <= sol.zero_mode_tol:
            continue
        neg = cs.shape.negation_table
        m_sign = (np.sign(sol.branch) - np.sign(sol.branch[neg])) / 2
        if np.abs(m_sign).max() > 0:
            continue
        w = np.sum(np.abs(sol.beta) ** 2, axis=(1, 2))
        assert np.abs(w - w[neg]).max() < 1e-10
        tr = np.trace(ground_covariance(sol).g, axis1=1, axis2=2).real
        assert np.abs(tr - tr[neg]).max() < 1e-10


def test_traced_kernel_asymmetry_counts_branch_signs():
    # momentum antisymmetry of the traced occupation kernel equals
    # -(1/2) sum_j M_k^j on zero-mode-free solutions
    hits = 0
    for seed in range(14):
        cs = random_model(LatticeShape((14,), 1 + seed % 2), reach=2, pairing=seed % 3 == 0, seed=100 + seed)
        sol = diagonalize(cs)
        if sol.gap <= sol.zero_mode_tol:
            continue
        hits += 1
        neg = cs.shape.negation_table
        m_sum = ((np.sign(sol.branch) - np.sign(sol.branch[neg])) / 2).sum(axis=1)
        tr = ground_covariance(sol).trace_kernel()
        assert np.abs((tr - tr[neg]) / 2 + m_sum / 2).max() < 1e-9
    assert hits >= 8
