import math
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasifree import oracle
from quasifree import (
    CouplingSet,
    ExactGroundState,
    LatticeShape,
    ModelParams,
    RealSpaceCorrelators,
    build_fock_hamiltonian,
    catalog,
    compare_with_quasifree,
    diagonalize,
    evolve_quench,
    exact_ground_correlators,
    fock_ground_state,
    ground_covariance,
    random_model,
    real_space,
    symmetrize,
)
from quasifree.cli import ORACLE_DEV_TOL
from quasifree.oracle import correlators_from_vector
from quasifree.solver import ground_energy

from conftest import make_p_model, make_twisted


def all_offsets(shape):
    return [tuple(int(v) for v in n) for n in np.ndindex(*shape.dims)]


def every_offset_model(shape, pairing, seed):
    """Random couplings at every lattice offset, so 2-site axes get bonds too: real
    and imaginary parts uniform on [-1, 1], hopping drawn first, closure-projected."""
    rng = np.random.default_rng(seed)
    s = shape.spin
    draw = lambda: {n: rng.uniform(-1, 1, (s, s)) + 1j * rng.uniform(-1, 1, (s, s)) for n in all_offsets(shape)}
    return symmetrize(shape, draw(), draw() if pairing else {})


def invariant_from_correlators(bdag_b, shape):
    """Site-averaged ``Im sum_j <b+_m b_{m+n}>`` from Fock correlators, a ``dims``-shaped
    array indexed by the reduced offset ``n``: an independent reference for the
    momentum-side ``invariant_map``."""
    modes = np.arange(shape.n_modes).reshape(shape.dims + (shape.spin,))
    axes = tuple(range(shape.d))
    inv = [bdag_b[modes, np.roll(modes, [-c for c in n], axis=axes)].imag.sum()
           for n in np.ndindex(*shape.dims)]
    return np.reshape(inv, shape.dims) / shape.n_sites


def evolve_state(h, t, vec):
    """Reference ``exp(-i t h) vec`` through the eigendecomposition of each parity
    block of the dense ``h``; raises ``ValueError`` when ``h`` couples them."""
    out = np.zeros(len(vec), dtype=complex)
    for states in oracle._charge_groups(int(round(np.log2(len(h)))), number=False):
        oracle._check_charge(h, np.setdiff1d(np.arange(len(h)), states), states)
        evals, evecs = np.linalg.eigh(h[np.ix_(states, states)])
        out[states] = evecs @ (np.exp(-1j * t * evals) * (evecs.conj().T @ vec[states]))
    return out


def mixed_ground_state(ex, n_modes):
    """``ex`` with its correlators averaged over its orthonormal ground vectors (the
    maximally mixed ground state, which is canonical), marked nondegenerate so that
    ``compare_with_quasifree`` takes it."""
    pieces = [correlators_from_vector(np.ascontiguousarray(v), n_modes) for v in ex.vectors.T]
    return replace(ex, degenerate=False, bdag_b=sum(p[0] for p in pieces) / len(pieces),
                   bb=sum(p[1] for p in pieces) / len(pieces))


def translation_operator(shape, axis=0):
    """Fock-space one-site translation along ``axis``, the signed permutation matrix
    of the oracle's translation table."""
    targets, signs = oracle._translations(shape.n_modes, shape.dims)
    step = math.prod(shape.dims[axis + 1:])  # the row-major index of g = e_axis
    dim = 1 << shape.n_modes
    out = np.zeros((dim, dim))
    out[targets[step], np.arange(dim)] = signs[step]
    return out


@dataclass(frozen=True)
class FockOperatorSet:
    """Dense annihilation matrices for every mode, kron-built with sign strings."""

    n_modes: int
    annihilators: tuple[np.ndarray, ...]

    def creator(self, i: int) -> np.ndarray:
        return self.annihilators[i].conj().T


def fock_operators(n_modes: int) -> FockOperatorSet:
    """Dense Jordan-Wigner operator matrices (memory grows as Ns 4^Ns; keep Ns small)."""
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])
    sz = np.diag([1.0, -1.0])
    eye = np.eye(2)
    ops = []
    for i in range(n_modes):
        mat = np.array([[1.0]])
        # kron factors ordered most-significant mode first so bit i <-> mode i
        for j in range(n_modes - 1, -1, -1):
            mat = np.kron(mat, lower if j == i else (sz if j < i else eye))
        ops.append(mat)
    return FockOperatorSet(n_modes=n_modes, annihilators=tuple(ops))


def reference_hamiltonian(cs):
    """Slow reference: assemble from dense kron-string operator matrices."""
    shape = cs.shape
    ops = fock_operators(shape.n_modes)
    b = ops.annihilators
    bd = [m.conj().T for m in b]
    mode = lambda site, sp: int(np.ravel_multi_index(site, shape.dims)) * shape.spin + sp
    dim = 1 << shape.n_modes
    h = np.zeros((dim, dim), dtype=complex)
    sites = all_offsets(shape)
    for offset, mat in zip(cs.hop.offsets, cs.hop.mats):
        for m in sites:
            n = shape.reduce(tuple(mc - oc for mc, oc in zip(m, offset)))
            for sj in range(shape.spin):
                for sl in range(shape.spin):
                    h += mat[sj, sl] * bd[mode(m, sj)] @ b[mode(n, sl)]
    for offset, mat in zip(cs.pair.offsets, cs.pair.mats):
        for m in sites:
            n = shape.reduce(tuple(mc - oc for mc, oc in zip(m, offset)))
            for sj in range(shape.spin):
                for sl in range(shape.spin):
                    term = 0.5 * mat[sj, sl] * bd[mode(m, sj)] @ bd[mode(n, sl)]
                    h += term + term.conj().T
    return h


def loop_invariant_from_correlators(bdag_b, shape):
    """Reference: the site-loop invariant per offset, as a dict keyed by offset."""
    mode = lambda site, sp: int(np.ravel_multi_index(site, shape.dims)) * shape.spin + sp
    sites = all_offsets(shape)
    out = {}
    for n in sites:
        acc = 0.0
        for m in sites:
            tgt = shape.reduce(tuple(mc + nc for mc, nc in zip(m, n)))
            for sp in range(shape.spin):
                acc += bdag_b[mode(m, sp), mode(tgt, sp)].imag
        out[n] = acc / shape.n_sites
    return out


def loop_quasifree_matrices(rc):
    """Reference: the site-loop fill of the (Ns, Ns) ``<b+_x b_y>`` and ``<b_x b_y>``
    matrices from per-offset blocks."""
    shape = rc.shape
    ns = shape.n_modes
    mode = lambda site, sp: int(np.ravel_multi_index(site, shape.dims)) * shape.spin + sp
    sites = all_offsets(shape)
    qf_bdag_b = np.empty((ns, ns), dtype=complex)
    qf_bb = np.empty((ns, ns), dtype=complex)
    for x in sites:
        for y in sites:
            n = shape.reduce(tuple(yc - xc for yc, xc in zip(y, x)))
            cb = rc.bdag_b[n]
            db = rc.bb[n]
            for sj in range(shape.spin):
                for sl in range(shape.spin):
                    qf_bdag_b[mode(x, sj), mode(y, sl)] = cb[sj, sl]
                    qf_bb[mode(x, sj), mode(y, sl)] = db[sj, sl]
    return qf_bdag_b, qf_bb


@settings(max_examples=60, deadline=None)
@given(dims=st.lists(st.integers(2, 4), min_size=1, max_size=3).map(tuple),
       spin=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_mode_grid_gathers_match_site_loops(dims, spin, seed):
    shape = LatticeShape(dims, spin)
    rng = np.random.default_rng(seed)
    draw = lambda *size: rng.uniform(-1, 1, size) + 1j * rng.uniform(-1, 1, size)
    bdag_b = draw(shape.n_modes, shape.n_modes)
    inv = invariant_from_correlators(bdag_b, shape)
    assert inv.shape == dims
    assert max(abs(inv[n] - v) for n, v in loop_invariant_from_correlators(bdag_b, shape).items()) <= 1e-14
    rc = RealSpaceCorrelators(shape, {n: draw(spin, spin) for n in all_offsets(shape)},
                              {n: draw(spin, spin) for n in all_offsets(shape)})
    qf_bdag_b, qf_bb = loop_quasifree_matrices(rc)
    exact = ExactGroundState(energy=0.0, gap_above=1.0, degenerate=False, degeneracy_dim=1,
                             vectors=np.zeros((1, 1)), bdag_b=qf_bdag_b, bb=qf_bb)
    assert compare_with_quasifree(exact, rc).max_correlator_dev <= 1e-14


def test_canonical_anticommutation_relations():
    for n_modes in (2, 4, 5):
        ops = fock_operators(n_modes)
        eye = np.eye(1 << n_modes)
        for i in range(n_modes):
            for j in range(n_modes):
                anti = ops.annihilators[i] @ ops.creator(j) + ops.creator(j) @ ops.annihilators[i]
                target = eye if i == j else 0.0
                assert np.abs(anti - target).max() < 1e-12
                anti2 = ops.annihilators[i] @ ops.annihilators[j] + ops.annihilators[j] @ ops.annihilators[i]
                assert np.abs(anti2).max() < 1e-12


def test_mode_cap_enforced():
    big = random_model(LatticeShape((16,), 1), reach=1, pairing=False, seed=0)
    with pytest.raises(ValueError, match="cap"):
        build_fock_hamiltonian(big)


def test_build_rejected_when_it_cannot_fit_in_memory(monkeypatch):
    cs = random_model(LatticeShape((10,), 1), reach=1, pairing=True, seed=0)
    monkeypatch.setattr("quasifree.solver.os.sysconf", lambda name: 1024)
    with pytest.raises(ValueError, match="physical memory"):
        build_fock_hamiltonian(cs)


def test_builder_matches_operator_matrix_reference():
    cases = [
        random_model(LatticeShape((4,), 1), reach=1, pairing=True, seed=1),
        random_model(LatticeShape((5,), 1), reach=2, pairing=True, seed=2),
        random_model(LatticeShape((3,), 2), reach=1, pairing=True, seed=3),
        make_twisted(4, 0.9),
    ]
    for cs in cases:
        fast = build_fock_hamiltonian(cs)
        slow = reference_hamiltonian(cs)
        assert np.abs(fast - slow).max() < 1e-12


def test_onsite_two_site_spectrum():
    mu = 0.73
    cs = CouplingSet(LatticeShape((2,), 1), {(0,): [[mu]]}, {})
    h = build_fock_hamiltonian(cs)
    assert np.abs(h - np.diag([0.0, mu, mu, 2 * mu])).max() < 1e-14


def test_hamiltonian_hermitian_and_translation_invariant():
    for seed in range(4):
        cs = random_model(LatticeShape((5,), 1), reach=2, pairing=seed % 2 == 0, seed=seed)
        h = build_fock_hamiltonian(cs)
        assert np.abs(h - h.conj().T).max() < 1e-12
        t = translation_operator(cs.shape)
        assert np.abs(t @ t.T - np.eye(h.shape[0])).max() < 1e-12
        assert np.abs(h @ t - t @ h).max() < 1e-10


def test_translation_invariance_two_dimensional():
    cs = random_model(LatticeShape((3, 3), 1), reach=1, pairing=True, seed=7)
    h = build_fock_hamiltonian(cs)
    for axis in (0, 1):
        t = translation_operator(cs.shape, axis=axis)
        assert np.abs(h @ t - t @ h).max() < 1e-10


def test_p_model_exact_ground_state():
    cs = make_p_model(4, 2.0)
    ex = exact_ground_correlators(build_fock_hamiltonian(cs))
    assert not ex.degenerate
    # filled designated band contributes -1 per momentum
    assert ex.energy == pytest.approx(-4.0, abs=1e-10)
    up, down = 0, 1
    mode = lambda site, sp: site * 2 + sp
    assert ex.bdag_b[mode(0, up), mode(1, up)] == pytest.approx(-0.25j, abs=1e-10)
    assert ex.bdag_b[mode(0, down), mode(1, down)] == pytest.approx(+0.25j, abs=1e-10)


def test_filled_band_correlators_are_kronecker():
    cs = CouplingSet(LatticeShape((4,), 1), {(0,): [[-1.0]]}, {})
    ex = exact_ground_correlators(build_fock_hamiltonian(cs))
    assert np.abs(ex.bdag_b - np.eye(4)).max() < 1e-12
    assert np.abs(ex.bb).max() < 1e-12


def test_degenerate_ground_state_is_flagged():
    # two exact zero modes -> fourfold degenerate ground space
    cs = make_twisted(4, np.pi / 2)
    h = build_fock_hamiltonian(cs)
    bits = (np.arange(h.shape[0])[:, None] >> np.arange(cs.shape.n_modes)) & 1
    odd = bits.sum(axis=1) % 2 == 1
    t = translation_operator(cs.shape)
    cov = ground_covariance(diagonalize(cs))
    rc = real_space(cov, all_offsets(cs.shape))
    for ex in (exact_ground_correlators(h), fock_ground_state(cs)):
        assert ex.degenerate
        assert ex.degeneracy_dim == 4
        # the ground space spans both parity sectors, two vectors in each
        v = ex.vectors
        assert np.abs(v.conj().T @ v - np.eye(4)).max() < 1e-12
        assert np.abs(h @ v - ex.energy * v).max() < 1e-12
        in_odd = np.linalg.norm(v[odd], axis=0)
        assert np.abs(np.sort(in_odd) - [0, 0, 1, 1]).max() < 1e-12
        with pytest.raises(ValueError, match="degenerate"):
            compare_with_quasifree(ex, rc)
    # with the lattice given, each ground vector has a crystal momentum, K = +-pi/2
    # in each parity sector
    eig = np.einsum("xa,xa->a", v.conj(), t @ v)
    assert np.abs(t @ v - v * eig).max() < 1e-12
    assert np.abs(np.sort_complex(np.round(eig, 12)) - [-1j, -1j, 1j, 1j]).max() < 1e-12
    assert sorted(in_odd[eig.imag > 0].round()) == [0, 1]


@pytest.mark.parametrize("n_sites", [4, 5, 6])
def test_averaged_degenerate_ground_space_matches_full_eigh(n_sites):
    # levels at multiples of 5e-9 on a unit width: the ground cluster (at most two
    # particles) sits just below the dense three-particle levels
    cs = catalog(ModelParams("spinless-general", {"a0": 5e-9}, LatticeShape((n_sites,), 1)))
    h = build_fock_hamiltonian(cs)
    deg = 1 + n_sites + n_sites * (n_sites - 1) // 2
    ref = np.linalg.eigh(h)[1][:, :deg]
    pieces = [correlators_from_vector(np.ascontiguousarray(ref[:, a]), cs.shape.n_modes) for a in range(deg)]
    for ex in (exact_ground_correlators(h), fock_ground_state(cs)):
        assert ex.degenerate and ex.degeneracy_dim == deg
        assert np.abs(ex.vectors @ ex.vectors.conj().T - ref @ ref.conj().T).max() < 1e-12
        mixed = mixed_ground_state(ex, cs.shape.n_modes)
        assert np.abs(mixed.bdag_b - sum(p[0] for p in pieces) / deg).max() < 1e-12
        assert np.abs(mixed.bb - sum(p[1] for p in pieces) / deg).max() < 1e-12


def test_oracle_agreement_on_random_models():
    shapes = [((4,), 1, 1), ((6,), 1, 2), ((3,), 2, 1), ((4,), 2, 1)]
    done = 0
    seed = 0
    while done < 10:
        dims, spin, reach = shapes[done % len(shapes)]
        cs = random_model(LatticeShape(dims, spin), reach=reach, pairing=done % 2 == 0, seed=seed)
        seed += 1
        sol = diagonalize(cs)
        if sol.gap < 1e-6:
            continue
        ex = exact_ground_correlators(build_fock_hamiltonian(cs))
        if ex.degenerate:
            continue
        rc = real_space(ground_covariance(sol), all_offsets(cs.shape))
        res = compare_with_quasifree(ex, rc, energy=ground_energy(cs))
        assert res.max_correlator_dev < 1e-10
        assert res.energy_rel_dev < 1e-10
        done += 1


def test_comparison_detects_injected_fault():
    cs = make_p_model(4, 2.0)
    ex = exact_ground_correlators(build_fock_hamiltonian(cs))
    rc = real_space(ground_covariance(diagonalize(cs)), all_offsets(cs.shape))
    rc.bdag_b[(1,)][0, 0] += 1e-3
    res = compare_with_quasifree(ex, rc)
    assert res.max_correlator_dev == pytest.approx(1e-3, rel=1e-6)


def test_gauge_covariance_against_oracle():
    # generic incommensurate twist: compare the same Hamiltonian both ways
    cs = make_twisted(8, 0.9)
    sol = diagonalize(cs)
    assert sol.gap > 0.05
    ex = exact_ground_correlators(build_fock_hamiltonian(cs))
    rc = real_space(ground_covariance(sol), all_offsets(cs.shape))
    res = compare_with_quasifree(ex, rc, energy=ground_energy(cs))
    assert res.max_correlator_dev < 1e-10
    assert res.energy_rel_dev < 1e-10


def test_zero_mode_invariant_matches_oracle_ground_space():
    # odd ring with a quarter twist: one exact zero mode, twofold degeneracy;
    # the invariant is insensitive to how the degeneracy is resolved
    cs = make_twisted(9, np.pi / 2)
    sol = diagonalize(cs)
    cov = ground_covariance(sol)
    # one physical zero mode at k=0, doubled in the Nambu spectrum
    assert np.array_equal(np.flatnonzero(~sol.coef_ok), [0])
    assert cov.zero_modes == 2
    from quasifree import invariant_map

    inv_qf = invariant_map(cov)
    ex = exact_ground_correlators(build_fock_hamiltonian(cs))
    assert ex.degenerate and ex.degeneracy_dim == 2
    mixed = mixed_ground_state(ex, cs.shape.n_modes)
    inv_fock = invariant_from_correlators(mixed.bdag_b, cs.shape)
    assert np.abs(inv_fock - inv_qf).max() < 1e-9
    # averaged ground space equals the half-filled zero-mode Gaussian state exactly
    rc = real_space(cov, all_offsets(cs.shape))
    res = compare_with_quasifree(mixed, rc)
    assert res.max_correlator_dev < 1e-9
    # single arbitrary ground vectors shift only the real part
    inv_single = invariant_from_correlators(ex.bdag_b, cs.shape)
    assert np.abs(inv_single - inv_qf).max() < 1e-9


def test_oracle_agreement_two_dimensional():
    done = 0
    seed = 40
    while done < 4:
        cs = random_model(LatticeShape((3, 3), 1), reach=1, pairing=done % 2 == 0, seed=seed)
        seed += 1
        sol = diagonalize(cs)
        if sol.gap < 1e-6:
            continue
        ex = exact_ground_correlators(build_fock_hamiltonian(cs))
        if ex.degenerate:
            continue
        rc = real_space(ground_covariance(sol), all_offsets(cs.shape))
        res = compare_with_quasifree(ex, rc, energy=ground_energy(cs))
        assert res.max_correlator_dev < 1e-10
        assert res.energy_rel_dev < 1e-10
        # the momentum-side invariant matches the site-averaged Fock one
        from quasifree import invariant_map

        inv_qf = invariant_map(ground_covariance(sol))
        inv_fock = invariant_from_correlators(ex.bdag_b, cs.shape)
        assert np.abs(inv_fock - inv_qf).max() < 1e-10
        done += 1


def test_fock_quench_conserves_invariant():
    shape = LatticeShape((4,), 1)
    cs = random_model(shape, reach=1, pairing=True, seed=12)
    sol = diagonalize(cs)
    ex = exact_ground_correlators(build_fock_hamiltonian(cs))
    assert not ex.degenerate
    psi0 = ex.vectors[:, 0]
    inv0 = invariant_from_correlators(ex.bdag_b, shape)
    hq = build_fock_hamiltonian(random_model(shape, reach=1, pairing=True, seed=77))
    for t in (0.5, 2.0, 7.5):
        psi_t = evolve_state(hq, t, psi0)
        bdag_b, _ = correlators_from_vector(psi_t, shape.n_modes)
        inv_t = invariant_from_correlators(bdag_b, shape)
        assert np.abs(inv_t - inv0).max() < 1e-9


@pytest.mark.parametrize("dims, spin, pairing", [
    ((6,), 1, True), ((5,), 2, False), ((4,), 2, True),
    ((3, 3), 1, True), ((3, 3), 1, False), ((2, 2), 2, False),
])
def test_quenched_state_matches_fock_evolution(dims, spin, pairing):
    # each evolve_quench state's correlators against exp(-i t H') |psi0> in Fock space,
    # H' a pairing generator at every offset, within the oracle command's bound
    shape = LatticeShape(dims, spin)
    cs = every_offset_model(shape, pairing, seed=0)
    ex = exact_ground_correlators(build_fock_hamiltonian(cs))
    assert not ex.degenerate
    quench = every_offset_model(shape, True, seed=1)
    hq = build_fock_hamiltonian(quench)
    times = [0.0, 0.7, 3.1]
    for t, state in zip(times, evolve_quench(diagonalize(cs), quench, times)):
        bdag_b, bb = correlators_from_vector(evolve_state(hq, t, ex.vectors[:, 0]), shape.n_modes)
        rc = real_space(ground_covariance(state), all_offsets(shape))
        res = compare_with_quasifree(replace(ex, bdag_b=bdag_b, bb=bb), rc)
        assert res.max_correlator_dev < ORACLE_DEV_TOL


@settings(max_examples=60, deadline=None)
@given(data=st.data(), spin=st.integers(1, 2), pairing=st.booleans(), seed=st.integers(0, 10_000))
def test_parity_sectors_match_full_diagonalization(data, spin, pairing, seed):
    # at most 8 modes; couplings at every lattice offset, so 2-site axes get bonds too
    dims = data.draw(st.one_of(st.tuples(st.integers(2, 8 // spin)),
                               st.tuples(st.integers(2, 4 // spin), st.just(2))))
    shape = LatticeShape(dims, spin)
    cs = every_offset_model(shape, pairing, seed)
    h = build_fock_hamiltonian(cs)
    # reference: one full-matrix eigh, with the oracle's degeneracy rule
    evals, evecs = np.linalg.eigh(h)
    width = float(evals[-1] - evals[0])
    deg_dim = int(np.nonzero(evals - evals[0] <= 1e-8 * max(1.0, width))[0][-1]) + 1
    gap_above = float(evals[deg_dim] - evals[0]) if deg_dim < len(evals) else 0.0
    tol = 1e-12 * max(1.0, width)
    # the parity sectors of h alone, then the (parity, crystal momentum) sectors of the couplings
    for ex in (exact_ground_correlators(h), fock_ground_state(cs)):
        assert abs(ex.energy - evals[0]) <= tol
        assert abs(ex.gap_above - gap_above) <= tol
        assert ex.degeneracy_dim == deg_dim
        # full-length, orthonormal eigenvectors, whichever sectors they come from
        v = ex.vectors
        hv = h @ v
        assert np.abs(v.conj().T @ v - np.eye(deg_dim)).max() <= 1e-12
        assert np.abs(hv - v * np.einsum("xa,xa->a", v.conj(), hv).real).max() <= tol
        if deg_dim == 1:
            bdag_b, bb = correlators_from_vector(np.ascontiguousarray(evecs[:, 0]), shape.n_modes)
            assert np.abs(ex.bdag_b - bdag_b).max() <= 1e-12
            assert np.abs(ex.bb - bb).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(n_modes=st.integers(4, 7), ground=st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any),
       near=st.sampled_from([(), (0.99,), (1.01,), (0.99, 1.01)]), near_odd=st.booleans(),
       diagonal=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_ground_space_of_synthetic_parity_hamiltonians(n_modes, ground, near, near_odd, diagonal, seed):
    # h = U diag(levels) U^dag within each parity sector, U a random unitary or
    # (diagonal h) the identity; `ground` levels sit exactly at e0 in each sector,
    # and the `near` levels sit just below or above the degeneracy threshold in one
    # sector: below it they join the ground space, above it their eigenvectors
    # must stay out of it
    rng = np.random.default_rng(seed)
    dim, half = 1 << n_modes, 1 << (n_modes - 1)
    bits = (np.arange(dim)[:, None] >> np.arange(n_modes)) & 1
    e0 = rng.uniform(-5, 5)
    width = rng.uniform(1, 10)
    threshold = oracle.DEGENERACY_TOL * width
    h = np.zeros((dim, dim), dtype=complex)
    for parity, k in enumerate(ground):
        levels = rng.uniform(e0 + 0.01 * width, e0 + width, half)
        levels[:k] = e0
        levels[-1] = e0 + width
        if parity == near_odd:
            levels[3:3 + len(near)] = e0 + np.array(near) * threshold
        u = np.eye(half)
        if not diagonal:
            u = np.linalg.qr(rng.normal(size=(half, half)) + 1j * rng.normal(size=(half, half)))[0]
        states = np.nonzero(bits.sum(axis=1) % 2 == parity)[0]
        h[np.ix_(states, states)] = (u * levels) @ u.conj().T
    ex = exact_ground_correlators(h)
    evals = np.linalg.eigh(h)[0]
    tol = 1e-12 * width
    assert ex.degeneracy_dim == sum(ground) + (0.99 in near)
    assert abs(ex.energy - evals[0]) <= tol
    v = ex.vectors
    hv = h @ v
    assert np.abs(v.conj().T @ v - np.eye(ex.degeneracy_dim)).max() <= 1e-12
    assert np.abs(hv - v * np.einsum("xa,xa->a", v.conj(), hv).real).max() <= tol
    assert exact_ground_correlators(h).vectors.tobytes() == v.tobytes()


def test_parity_mixing_hamiltonian_is_rejected():
    # state 0 is even, state 1 (one mode occupied) odd; either block is checked
    for entry in ((0, 1), (1, 0)):
        h = build_fock_hamiltonian(random_model(LatticeShape((4,), 1), reach=1, pairing=True, seed=3))
        h[entry] = 1e-12
        with pytest.raises(ValueError, match="parity"):
            exact_ground_correlators(h)
        with pytest.raises(ValueError, match="parity"):
            evolve_state(h, 1.0, np.eye(h.shape[0])[0])


def test_translation_operator_generates_the_sector_translations():
    # the table behind the sectors holds every translation; each is a power of
    # the one-site generators, which commute
    shape = LatticeShape((3, 2), 1)
    targets, signs = oracle._translations(shape.n_modes, shape.dims)
    dim = 1 << shape.n_modes
    t0, t1 = translation_operator(shape, 0), translation_operator(shape, 1)
    assert np.abs(t0 @ t1 - t1 @ t0).max() == 0
    for flat, g in enumerate(np.ndindex(*shape.dims)):  # row-major, as the table
        want = np.linalg.matrix_power(t0, g[0]) @ np.linalg.matrix_power(t1, g[1])
        got = np.zeros((dim, dim))
        got[targets[flat], np.arange(dim)] = signs[flat]
        assert np.abs(got - want).max() == 0


def reference_translations(n_modes, group):
    """The translation tables of every basis state, ``T_g |x> = signs[g, x] |targets[g, x]>``,
    each translation's mode map applied to the occupation table and its sign an einsum
    over that map's full inversion table: a reference that shares no step with the
    oracle's composition of the one-site generators."""
    modes = np.arange(n_modes).reshape(group + (-1,))
    axes = tuple(range(len(group)))
    # maps[g, m]: the mode at site(m) + g
    maps = np.stack([np.roll(modes, [-c for c in g], axis=axes).ravel() for g in np.ndindex(*group)])
    bits = oracle._bit_tables(np.arange(1 << n_modes), n_modes)[0].astype(np.int64)
    inversions = np.triu(maps[:, :, None] > maps[:, None, :], k=1).astype(np.int64)
    signs = 1 - 2 * (np.einsum("gxj,xj->gx", bits @ inversions, bits) & 1)
    return (bits @ (1 << maps).T).T, signs


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.integers(0, 3), spin=st.integers(1, 2))
def test_translation_tables_match_the_einsum_reference(data, d, spin):
    # at most 12 modes, on d = 1 to 3 axes of any length, or the trivial group ()
    dims = ()
    for _ in range(d):
        dims += (data.draw(st.integers(1, 12 // (spin * math.prod(dims)))),)
    n_modes = math.prod(dims) * spin if dims else data.draw(st.integers(1, 12))
    for got, want in zip(oracle._translations(n_modes, dims), reference_translations(n_modes, dims)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("n_modes, dims", [(12, (6,)), (12, (2, 3, 2)), (14, (7,)), (14, (7, 1)), (14, ())])
def test_translation_tables_match_the_einsum_reference_at_the_cap(n_modes, dims):
    for got, want in zip(oracle._translations(n_modes, dims), reference_translations(n_modes, dims)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_evolve_state_matches_full_matrix_evolution():
    shape = LatticeShape((4,), 1)
    h = build_fock_hamiltonian(random_model(shape, reach=1, pairing=True, seed=5))
    rng = np.random.default_rng(5)
    psi = rng.normal(size=h.shape[0]) + 1j * rng.normal(size=h.shape[0])
    psi /= np.linalg.norm(psi)
    evals, evecs = np.linalg.eigh(h)
    for t in (0.3, 4.0):
        full = evecs @ (np.exp(-1j * t * evals) * (evecs.conj().T @ psi))
        assert np.abs(evolve_state(h, t, psi) - full).max() < 1e-12


@settings(max_examples=25, deadline=None)
@given(data=st.data(), spin=st.integers(1, 2), pairing=st.booleans(), seed=st.integers(0, 10_000))
def test_coupling_built_sectors_match_the_dense_hamiltonian(data, spin, pairing, seed):
    # d in {1, 2}, at most 12 modes; couplings at every lattice offset
    first = data.draw(st.integers(2, 12 // spin))
    second = data.draw(st.sampled_from([()] + [(n,) for n in (2, 3) if n * first * spin <= 12]))
    shape = LatticeShape((first,) + second, spin)
    cs = every_offset_model(shape, pairing, seed)
    h = build_fock_hamiltonian(cs)
    group = oracle._translation_group(shape.n_modes, shape.dims)
    targets, signs = group.targets, group.signs
    momenta = shape.momenta()
    # phases[K, g] = exp(-i K.g), momenta and translations in row-major order
    phases = np.exp(-2j * np.pi * (momenta / shape.dims) @ momenta.T)
    # the charge groups of the oracle: particle numbers without pairing, else parities
    for states in oracle._charge_groups(shape.n_modes, number=not pairing):
        reps = states[targets[:, states].min(axis=0) == states]
        rows = oracle._group_rows(states, len(h))
        cols = oracle._fock_columns(cs, reps, rows)
        assert not np.delete(h[:, reps], states, axis=0).any()
        sectors = oracle._momentum_sectors(cols, reps, rows, group)
        # r is in sector K when sum_{g in S_r} exp(-i K.g) sign_g(r) is |S_r|, not 0;
        # the sectors that keep no representative are left out
        kept = (phases @ (signs[:, reps] * (targets[:, reps] == reps))).real > 0.5
        nonempty = kept.any(axis=1)
        assert len(sectors) == nonempty.sum()
        assert sum(len(sector.reps) for sector in sectors) == len(states)
        for sector, phase, keep in zip(sectors, phases[nonempty], kept[nonempty]):
            assert np.array_equal(sector.reps, reps[keep])
            # reference: <r', K|h|r, K> = w_r' w_r sum_g exp(-i K.g) sign_g(r) h[r', T_g r],
            # from the rows of h and one explicit sum over the translations
            r = sector.reps
            weight = 1 / np.sqrt((targets[:, r] == r).sum(axis=0))
            rows = h[r[None, :, None], targets[:, r][:, None, :]] * signs[:, r][:, None, :]
            ref = np.einsum("g,gab->ab", phase, rows) * np.multiply.outer(weight, weight)
            assert np.abs(sector.block - ref).max(initial=0.0) <= 1e-13


@pytest.mark.parametrize("dims", [(5,), (6,), (3, 3)])
def test_translation_check_sees_a_fault_at_every_translation(dims):
    # the check compares only the translations up to one of each pair (g, -g); a
    # fault at h[T_g r, r'] for any g, on either side of its pair, still shows
    shape = LatticeShape(dims, 1)
    cs = random_model(shape, reach=1, pairing=True, seed=4)
    group = oracle._translation_group(shape.n_modes, dims)
    targets = group.targets
    states = oracle._charge_groups(shape.n_modes, number=False)[1]
    reps = states[targets[:, states].min(axis=0) == states]
    rows = oracle._group_rows(states, 1 << shape.n_modes)
    cols = oracle._fock_columns(cs, reps, rows)
    oracle._momentum_sectors(cols, reps, rows, group)
    r = np.nonzero((targets[:, reps] == reps).sum(axis=0) == 1)[0][0]  # an orbit of n_sites states
    for g in range(shape.n_sites):
        broken = cols.copy()
        broken[rows[targets[g, reps[r]]], 1 if r == 0 else 0] += 1e-9
        with pytest.raises(np.linalg.LinAlgError, match="not Hermitian and translation invariant"):
            oracle._momentum_sectors(broken, reps, rows, group)


@st.composite
def pairing_free_models(draw):
    """Hopping-only coupling sets on at most 10 modes, d in {1, 2}, s in {1, 2},
    with couplings at every lattice offset.  (At 12 modes the dense reference's
    parity blocks are 2048 x 2048, about 10 s of eigvalsh and eigh per draw.)"""
    spin = draw(st.integers(1, 2))
    first = draw(st.integers(2, 10 // spin))
    second = draw(st.sampled_from([()] + [(n,) for n in (2, 3) if n * first * spin <= 10]))
    return every_offset_model(LatticeShape((first,) + second, spin), False, draw(st.integers(0, 10_000)))


@settings(max_examples=20, deadline=None)
@given(cs=pairing_free_models())
# levels at multiples of 5e-9: a ground space of 16 states spread over the
# particle numbers 0, 1 and 2
@example(cs=catalog(ModelParams("spinless-general", {"a0": 5e-9}, LatticeShape((5,), 1))))
def test_particle_number_sectors_match_the_dense_parity_sectors(cs):
    # the (particle number, momentum) sectors built from the couplings against the
    # parity sectors of the dense h
    ex = fock_ground_state(cs)
    ref = exact_ground_correlators(build_fock_hamiltonian(cs))
    tol = 1e-12 * max(1.0, abs(ref.energy))
    assert ex.degeneracy_dim == ref.degeneracy_dim
    assert abs(ex.energy - ref.energy) <= tol
    assert abs(ex.gap_above - ref.gap_above) <= tol
    if not ref.degenerate:
        assert np.abs(ex.bdag_b - ref.bdag_b).max() <= 1e-12
        assert np.abs(ex.bb - ref.bb).max() <= 1e-12


@pytest.mark.parametrize("dims, spin, pairing", [
    ((6,), 1, True), ((3, 3), 1, True), ((4,), 2, False), ((3, 3), 1, False),
])
def test_fock_columns_are_the_dense_hamiltonian_columns(dims, spin, pairing):
    # each charge group's slab, at its representatives and at arbitrary source
    # states of the group, is h on the group's rows; without rows, h's full columns
    cs = random_model(LatticeShape(dims, spin), reach=1, pairing=pairing, seed=11)
    h = build_fock_hamiltonian(cs)
    targets, _ = oracle._translations(cs.shape.n_modes, dims)
    rng = np.random.default_rng(11)
    for group in oracle._charge_groups(cs.shape.n_modes, number=not pairing):
        rows = oracle._group_rows(group, len(h))
        reps = group[targets[:, group].min(axis=0) == group]
        for states in (reps, group, np.sort(rng.choice(group, min(17, len(group)), replace=False)),
                       rng.permutation(group)[:9]):
            slab = oracle._fock_columns(cs, states, rows)
            assert slab.shape == (len(group), len(states))
            assert np.array_equal(slab, h[np.ix_(group, states)])
    states = rng.permutation(len(h))[:9]
    assert np.array_equal(oracle._fock_columns(cs, states), h[:, states])


@pytest.mark.parametrize("dims, spin, pairing", [
    ((5,), 2, True), ((3, 3), 1, True), ((8,), 1, True), ((2, 2), 2, True), ((5,), 2, False),
], ids=["dims0-2", "dims1-1", "dims2-1", "dims3-2", "dims4-2-number"])
def test_lifted_energy_is_the_rayleigh_quotient(dims, spin, pairing):
    # the Fock energy, the couplings contracted with the ground correlators, on the
    # parity sectors and, without pairing, the particle-number sectors
    shape = LatticeShape(dims, spin)
    cs = (random_model(shape, reach=1, pairing=pairing, seed=2) if min(dims) > 2
          else every_offset_model(shape, pairing, seed=2))
    h = build_fock_hamiltonian(cs)
    ex = fock_ground_state(cs)
    v = ex.vectors[:, 0]
    assert abs(ex.energy - np.vdot(v, h @ v).real) <= 1e-14 * abs(ex.energy)
