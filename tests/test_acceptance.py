"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is expected to finish in well under two minutes.
"""

import numpy as np
import pytest

from quasifree import (
    LatticeShape,
    ModelParams,
    catalog,
    compare_with_quasifree,
    covariance_from_coefficients,
    diagonalize,
    entropy_scan,
    evolve_quench,
    fock_ground_state,
    ground_covariance,
    invariant_map,
    random_model,
    real_space,
)
from quasifree.model import bdg_blocks, particle_hole_residual
from quasifree.observables import gapped_model_survey
from quasifree.solver import constraint_residuals, ground_energy

from conftest import spinless_closed_form

BASE_SEED = 20240


def report(name: str, detail: str) -> None:
    print(f"[{name}] PASS: {detail}", flush=True)


def test_criterion_1_gapped_spin_pair_reproduction():
    """Gapped two-band chain: spectrum {-1, 2}, gap 1, +-i/4 correlators, zero invariant."""
    cs = catalog(ModelParams("p-model", {"p": 2.0}, LatticeShape((64,), 2)))
    sol = diagonalize(cs)
    branch_dev = np.abs(sol.branch - np.array([-1.0, 2.0])).max()
    assert branch_dev < 1e-10
    assert abs(sol.gap - 1.0) < 1e-10
    cov = ground_covariance(sol)
    c1 = real_space(cov, [(1,)]).bdag_b[(1,)]
    assert abs(c1[0, 0] - (-0.25j)) < 1e-10
    assert abs(c1[1, 1] - (+0.25j)) < 1e-10
    inv = invariant_map(cov)
    worst = float(np.abs(inv).max())
    assert worst < 1e-10
    report(
        "criterion 1",
        f"branch dev {branch_dev:.2e}, gap dev {abs(sol.gap - 1):.2e}, "
        f"hop correlators -i/4 and +i/4, max invariant {worst:.2e}",
    )


def test_criterion_2_invariance_under_maps_and_quenches():
    """Invariant map unchanged by 50 Bogoliubov maps and 50 quenches, each on a fresh state."""
    rng = np.random.default_rng(BASE_SEED)
    worst = 0.0
    for i in range(50):
        spin = 1 + i % 2
        shape = LatticeShape((20,), spin)
        cs = random_model(shape, reach=2, pairing=i % 3 != 0, seed=BASE_SEED + i)
        sol = diagonalize(cs)
        inv0 = invariant_map(ground_covariance(sol))

        # a Bogoliubov map: the propagator exp(-i H_k) of a random pairing model
        generator = random_model(shape, reach=2, pairing=True, seed=BASE_SEED + 1000 + i)
        mapped = next(evolve_quench(sol, generator, [1.0]))
        inv_m = invariant_map(ground_covariance(mapped))
        worst = max(worst, np.abs(inv0 - inv_m).max())

        h = random_model(shape, reach=1, pairing=True, seed=BASE_SEED + 2000 + i)
        t = float(rng.uniform(0.0, 10.0))
        [quenched] = evolve_quench(sol, h, [t])
        inv_q = invariant_map(ground_covariance(quenched))
        worst = max(worst, np.abs(inv0 - inv_q).max())
    assert worst < 1e-9
    report("criterion 2", f"50 maps + 50 quenches, max invariant deviation {worst:.2e}")


def test_criterion_3_gapped_models_have_vanishing_invariant():
    """200 random models; those gapped on the grid carry invariants below 1e-8."""
    survey = gapped_model_survey((32,), 200, BASE_SEED, reach=2, spins=(1, 2))
    assert not survey.events, survey.events
    assert survey.worst_invariant < 1e-8
    assert survey.gapped >= 3  # the assertion must not hold vacuously
    report(
        "criterion 3",
        f"{survey.gapped}/200 gapped on the grid (gap > 0.1 at N=32), "
        f"0 certified gapless, worst invariant {survey.worst_invariant:.2e}",
    )


def test_criterion_4_quarter_twist_is_critical():
    """Quarter-twisted half-filled chain: macroscopic invariant and 1/N gap closing."""
    inv1 = None
    gaps = {}
    for n in (16, 32, 64, 128, 256):
        cs = catalog(ModelParams("twisted-chain", {"alpha": np.pi / 2}, LatticeShape((n,), 1)))
        sol = diagonalize(cs)
        gaps[n] = sol.gap
        assert sol.gap <= 2 * np.pi / n
        if n == 64:
            inv1 = invariant_map(ground_covariance(sol))[(1,)]
    assert abs(inv1) > 0.1
    report(
        "criterion 4",
        f"|invariant(1)| = {abs(inv1):.4f} > 0.1; min band energies "
        + " ".join(f"N={n}:{g:.1e}" for n, g in gaps.items()) + " all within 2*pi/N",
    )


def _oracle_cases():
    shapes = [((4,), 1, 1), ((6,), 1, 2), ((8,), 1, 2), ((10,), 1, 2),
              ((4,), 2, 1), ((5,), 2, 2), ((3,), 2, 1)]
    seed = BASE_SEED
    produced = 0
    attempts = 0
    while produced < 50 and attempts < 400:
        dims, spin, reach = shapes[attempts % len(shapes)]
        pairing = attempts % 2 == 0
        attempts += 1
        cs = random_model(LatticeShape(dims, spin), reach=reach, pairing=pairing, seed=seed + attempts)
        sol = diagonalize(cs)
        if sol.gap < 1e-6:
            continue
        exact = fock_ground_state(cs)
        if exact.degenerate:
            continue
        produced += 1
        yield cs, sol, exact


def test_criterion_5_fock_oracle_equivalence():
    """50 random nondegenerate models at <= 10 modes: correlators and energies agree."""
    worst_c = worst_e = 0.0
    count = 0
    for cs, sol, exact in _oracle_cases():
        rc = real_space(ground_covariance(sol), [tuple(int(v) for v in n) for n in np.ndindex(*cs.shape.dims)])
        res = compare_with_quasifree(exact, rc, energy=ground_energy(cs))
        worst_c = max(worst_c, res.max_correlator_dev)
        worst_e = max(worst_e, res.energy_rel_dev)
        count += 1
    assert count >= 50
    assert worst_c < 1e-9
    assert worst_e < 1e-9
    report(
        "criterion 5",
        f"{count} models: worst correlator deviation {worst_c:.2e}, "
        f"worst relative energy deviation {worst_e:.2e}",
    )


def test_criterion_6_identity_suite():
    """Coefficient constraints, block symmetry, closed-form energies, pairing-weight symmetry."""
    worst_constraint = 0.0
    worst_ph = 0.0
    worst_beta = 0.0
    beta_checked = 0
    for seed in range(40):
        spin = 1 + seed % 2
        cs = random_model(LatticeShape((16,), spin), reach=2, pairing=seed % 3 != 0, seed=BASE_SEED + seed)
        worst_ph = max(worst_ph, particle_hole_residual(bdg_blocks(cs), cs.shape))
        sol = diagonalize(cs)
        if sol.gap <= sol.zero_mode_tol:
            continue
        worst_constraint = max(worst_constraint, max(constraint_residuals(sol).values()))
        neg = cs.shape.negation_table
        m_sign = (np.sign(sol.branch) - np.sign(sol.branch[neg])) / 2
        if np.abs(m_sign).max() == 0:
            beta_checked += 1
            w = np.sum(np.abs(sol.beta) ** 2, axis=(1, 2))
            worst_beta = max(worst_beta, float(np.abs(w - w[neg]).max()))
    assert worst_constraint < 1e-10
    assert worst_ph < 1e-13
    assert beta_checked >= 10
    assert worst_beta < 1e-10

    worst_disp = 0.0
    for seed in range(100):
        cs = random_model(LatticeShape((12,), 1), reach=2, pairing=seed % 2 == 0, seed=BASE_SEED + 500 + seed)
        lam = spinless_closed_form(cs)
        sol = diagonalize(cs)
        neg = cs.shape.negation_table
        got = np.sort(np.stack([lam, -lam[neg]], axis=1), axis=1)
        worst_disp = max(worst_disp, float(np.abs(got - np.sort(sol.energies, axis=1)).max()))
    assert worst_disp < 1e-11
    report(
        "criterion 6",
        f"constraint residual {worst_constraint:.2e}, block-symmetry residual {worst_ph:.2e}, "
        f"closed-form dev {worst_disp:.2e}, pairing-weight symmetry {worst_beta:.2e} "
        f"({beta_checked} sign-symmetric models)",
    )


def test_criterion_7_entropy_scaling():
    """Area law for the gapped chain, logarithmic growth for the critical twisted chain."""
    lengths = list(range(4, 65))
    gapped = catalog(ModelParams("p-model", {"p": 2.0}, LatticeShape((256,), 2)))
    scan_g = entropy_scan(ground_covariance(diagonalize(gapped)), lengths)
    assert scan_g.slope < 0.05
    assert scan_g.classification == "area-law"

    critical = catalog(ModelParams("twisted-chain", {"alpha": np.pi / 2}, LatticeShape((256,), 1)))
    scan_c = entropy_scan(ground_covariance(diagonalize(critical)), lengths)
    assert scan_c.slope > 0.2
    assert scan_c.classification == "log-violation"
    diffs = np.diff(scan_c.entropies)
    assert (diffs > -1e-10).all()
    report(
        "criterion 7",
        f"gapped fit slope {scan_g.slope:.3e} < 0.05; critical fit slope "
        f"{scan_c.slope:.3f} > 0.2 with monotone block entropy",
    )


def test_criterion_8_projector_and_coefficient_routes_agree():
    """Two independent covariance assemblies coincide on 100 random nondegenerate models."""
    worst = 0.0
    count = 0
    seed = 0
    while count < 100:
        spin = 1 + seed % 2
        cs = random_model(LatticeShape((16,), spin), reach=2, pairing=seed % 2 == 0, seed=BASE_SEED + seed)
        seed += 1
        sol = diagonalize(cs)
        if sol.gap <= sol.zero_mode_tol:
            continue
        count += 1
        a = ground_covariance(sol)
        b = covariance_from_coefficients(sol)
        worst = max(worst, float(np.abs(a.g - b.g).max()), float(np.abs(a.f - b.f).max()))
    assert worst < 1e-9
    report("criterion 8", f"{count} models: max kernel deviation between routes {worst:.2e}")
