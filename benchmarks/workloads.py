"""The benchmark workloads: their commands, output checks, traced replays
and accuracy residuals.

Each workload is a list of ``quasifree`` commands run back to back through
``quasifree.cli.main``.  For the traced run every command also has a replay:
the library calls the command makes, in the command's order, each inside a
span named ``<module>.<function>``.  Calls that hide deeper layers are
followed by a ``bench.parts.<function>`` group that repeats, on the same
inputs, the public calls they make internally (``solver.diagonalize`` is
split into ``model.validate``, ``lattice.fourier_circulant``,
``model.bdg_blocks`` and a bare batched ``np.linalg.eigh``).
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from quasifree.lattice import LatticeShape, fourier_circulant
from quasifree.model import (
    ModelParams,
    bdg_blocks,
    catalog,
    load_model,
    particle_hole_residual,
    random_model,
    save_model,
    validate,
)
from quasifree.observables import (
    asymmetry_diagnostics,
    entropy_scan,
    invariant_map,
    verify_criticality,
)
from quasifree.oracle import (
    build_fock_hamiltonian,
    compare_with_quasifree,
    exact_ground_correlators,
)
from quasifree.solver import (
    constraint_residuals,
    covariance_from_coefficients,
    diagonalize,
    ground_covariance,
    ground_energy,
    real_space,
)

from spans import Tracer

# command-line defaults of quasifree.cli that the replays must repeat
ZERO_MODE_TOL = 1e-9
GAP_TOL = 1e-6
INV_TOL = 1e-8
DEGENERACY_TOL = 1e-8

# accuracy gates: the tier-1 bounds on the particle-hole residual, the route
# agreement and the oracle deviations, plus the benchmark's own bound for the
# Peschel entropy reference (no tier-1 test covers it).  Idempotency and the
# constraint residuals enter accuracy_digits without a gate: on random 8^3
# draws the constraint residual has a heavy tail (up to 1.95e-9) from nearly
# degenerate blocks.
GATES = {
    "particle_hole": 1e-13,
    "route_agreement": 1e-9,
    "peschel_entropy": 1e-9,
    "oracle_correlator": 1e-9,
    "oracle_energy": 1e-9,
}

CHAIN_SITES = 65536
TWIST = "1.5707963"
ENTROPY_SITES = 1024
ENTROPY_LENGTHS = range(4, 97)
ORACLE_RANDOM = (((10,), 1), ((5,), 2))  # (dims, spin) of the seeded random models
ORACLE_REACH = 2
ORACLE_MIN_GAP = 1e-3  # one-particle gap; a gapless draw has a degenerate ground state


@dataclass
class Command:
    argv: list[str]
    expect: str                           # a line report.txt must contain
    replay: Callable[[Tracer], None]
    out: Path = field(default=Path("."))


@dataclass
class Workload:
    commands: list[Command]
    accuracy: Callable[[], "Accuracy"]


@dataclass
class Accuracy:
    residuals: dict[str, float] = field(default_factory=dict)  # worst value per kind
    skipped: dict[str, int] = field(default_factory=dict)      # kind -> models skipped
    checked: int = 0                                           # models checked

    def add(self, kind: str, value: float) -> None:
        self.residuals[kind] = max(self.residuals.get(kind, 0.0), float(value))

    def skip(self, kind: str) -> None:
        self.skipped[kind] = self.skipped.get(kind, 0) + 1

    def gated(self) -> list[str]:
        return [k for k in self.residuals if k in GATES]

    def violations(self) -> list[str]:
        return [f"{k} residual {self.residuals[k]:.3e} exceeds {GATES[k]:g}"
                for k in self.gated() if not self.residuals[k] < GATES[k]]

    def digits(self) -> float:
        worst = max(self.residuals.values())
        return -math.log10(max(worst, np.finfo(float).tiny))


# ---------------------------------------------------------------------------
# traced building blocks
# ---------------------------------------------------------------------------

def traced_diagonalize(tr: Tracer, cs):
    sol = tr.call("solver.diagonalize", diagonalize, cs, zero_mode_tol=ZERO_MODE_TOL)
    tr.count("solver.momenta", cs.shape.n_sites)
    with tr.span("bench.parts.solver.diagonalize"):
        tr.call("model.validate", validate, cs)
        for table in (cs.hop, cs.pair):
            tr.call("lattice.fourier_circulant", fourier_circulant, table, cs.shape)
            tr.count("lattice.support_offsets", len(table))
            tr.count("lattice.kernel_bytes", cs.shape.n_sites * cs.shape.spin ** 2 * 16)
        blocks = tr.call("model.bdg_blocks", bdg_blocks, cs)
        tr.call("solver.eigh", np.linalg.eigh, blocks)
    return sol


def _catalog_model(name: str, params: dict[str, float], dims: tuple[int, ...]):
    shape = LatticeShape(dims, 2 if name == "p-model" else 1)
    return ModelParams(name, params, shape)


# ---------------------------------------------------------------------------
# accuracy residuals
# ---------------------------------------------------------------------------

def momentum_residuals(acc: Accuracy, cs) -> None:
    """Particle-hole, idempotency, route-agreement and constraint residuals of one model.

    A model with zero modes has a half-filled, non-projector covariance and no
    coefficient route, so idempotency and route agreement are skipped for it.
    """
    acc.checked += 1
    acc.add("particle_hole", particle_hole_residual(bdg_blocks(cs), cs.shape))
    sol = diagonalize(cs, zero_mode_tol=ZERO_MODE_TOL)
    acc.add("constraints", max(constraint_residuals(sol).values()))
    cov = ground_covariance(sol)
    if cov.zero_modes or not sol.coef_ok.all():
        acc.skip("idempotency")
        acc.skip("route_agreement")
        return
    gamma = cov.gamma()
    acc.add("idempotency", np.abs(gamma @ gamma - gamma).max())
    alt = covariance_from_coefficients(sol)
    acc.add("route_agreement", max(np.abs(cov.g - alt.g).max(), np.abs(cov.f - alt.f).max()))


def peschel_entropies(cov, lengths) -> list[float]:
    """Block entropies from the L x L hopping correlation matrix (Peschel 2003).

    Valid for number-conserving spinless chains: S(L) = -sum[c ln c + (1-c) ln(1-c)]
    over the eigenvalues c of C_xy = <b+_x b_y>, x, y in the block.
    """
    top = max(lengths)
    n_sites = cov.shape.dims[0]
    rc = real_space(cov, [(n,) for n in range(-(top - 1), top)])
    pairing = max(float(np.abs(m).max()) for m in rc.bb.values())
    if pairing > 1e-12:
        raise ValueError(f"model pairs (|<bb>| = {pairing:.2e}); the Peschel reference needs number conservation")
    # hop[n + top - 1] = <b+_x b_{x+n}> for n in -(top-1)..top-1
    hop = np.array([rc.bdag_b[((n % n_sites),)][0, 0] for n in range(-(top - 1), top)])
    out = []
    for length in lengths:
        idx = np.arange(length)
        c = np.clip(np.linalg.eigvalsh(hop[idx[None, :] - idx[:, None] + top - 1]), 0.0, 1.0)
        terms = [v * math.log(v) for v in c if v > 0.0] + [(1 - v) * math.log(1 - v) for v in c if v < 1.0]
        out.append(-math.fsum(terms))
    return out


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def chain_invariants(seed: int, work: Path) -> Workload:
    params = {"p": 2.0}
    argv = ["invariants", "--model", "p-model", "--param", "p=2", "--dims", str(CHAIN_SITES)]

    def replay(tr: Tracer) -> None:
        cs = tr.call("model.catalog", catalog, _catalog_model("p-model", params, (CHAIN_SITES,)))
        tr.call("model.validate", validate, cs)
        tr.call("observables.verify_criticality", verify_criticality, cs,
                gap_tol=GAP_TOL, inv_tol=INV_TOL, zero_mode_tol=ZERO_MODE_TOL)
        with tr.span("bench.parts.observables.verify_criticality"):
            sol = traced_diagonalize(tr, cs)
            cov = tr.call("solver.ground_covariance", ground_covariance, sol)
            tr.call("observables.invariant_map", invariant_map, cov)
            tr.call("observables.asymmetry_diagnostics", asymmetry_diagnostics, sol)

    def accuracy() -> Accuracy:
        acc = Accuracy()
        momentum_residuals(acc, catalog(_catalog_model("p-model", params, (CHAIN_SITES,))))
        return acc

    return Workload([Command(argv, "verdict: consistent-gapped", replay)], accuracy)


def entropy_scan_workload(seed: int, work: Path) -> Workload:
    params = {"alpha": float(TWIST)}
    lengths = list(ENTROPY_LENGTHS)
    argv = ["entropy", "--model", "twisted-chain", "--param", f"alpha={TWIST}",
            "--dims", str(ENTROPY_SITES), "--lengths", f"{lengths[0]}:{lengths[-1]}"]

    def model():
        return catalog(_catalog_model("twisted-chain", params, (ENTROPY_SITES,)))

    def replay(tr: Tracer) -> None:
        cs = tr.call("model.catalog", model)
        tr.call("model.validate", validate, cs)
        sol = traced_diagonalize(tr, cs)
        cov = tr.call("solver.ground_covariance", ground_covariance, sol)
        tr.call("observables.entropy_scan", entropy_scan, cov, lengths)
        with tr.span("bench.parts.observables.entropy_scan"):
            tr.call("solver.real_space", real_space, cov, [(n,) for n in range(max(lengths))])
        tr.count("observables.entropy_lengths", len(lengths))
        tr.count("observables.entropy_matrix_elems", sum((2 * L * cs.shape.spin) ** 2 for L in lengths))

    cmd = Command(argv, "classification: log-violation", replay)

    def accuracy() -> Accuracy:
        acc = Accuracy()
        cs = model()
        momentum_residuals(acc, cs)
        with open(cmd.out / "entropy.csv") as fh:
            rows = list(csv.DictReader(fh))
        written = [float(r["S"]) for r in rows]
        if [int(r["L"]) for r in rows] != lengths:
            raise ValueError("entropy.csv does not list the requested block lengths")
        ref = peschel_entropies(ground_covariance(diagonalize(cs, zero_mode_tol=ZERO_MODE_TOL)), lengths)
        acc.add("peschel_entropy", max(abs(a - b) for a, b in zip(written, ref)))
        return acc

    return Workload([cmd], accuracy)


def fock_oracle(seed: int, work: Path) -> Workload:
    """p-model p=2 on 5 sites plus seeded random models written with ``save_model``."""
    rng = np.random.default_rng(seed)
    models: list[tuple[list[str], Callable]] = [(
        ["--model", "p-model", "--param", "p=2", "--dims", "5"],
        lambda tr: tr.call("model.catalog", catalog, _catalog_model("p-model", {"p": 2.0}, (5,))),
    )]
    for i, (dims, spin) in enumerate(ORACLE_RANDOM):
        while True:
            cs = random_model(LatticeShape(dims, spin), reach=ORACLE_REACH, pairing=True,
                              seed=int(rng.integers(2 ** 31)))
            if diagonalize(cs).gap > ORACLE_MIN_GAP:
                break
        path = work / f"model{i}.json"
        save_model(cs, path)
        models.append((["--model", str(path)],
                       lambda tr, path=path: tr.call("model.load_model", load_model, path).couplings))

    def replay_for(resolve):
        def replay(tr: Tracer) -> None:
            cs = resolve(tr)
            tr.call("model.validate", validate, cs)
            sol = traced_diagonalize(tr, cs)
            cov = tr.call("solver.ground_covariance", ground_covariance, sol)
            h = tr.call("oracle.build_fock_hamiltonian", build_fock_hamiltonian, cs)
            tr.count("oracle.fock_dim", h.shape[0])
            tr.count("oracle.hamiltonian_bytes", h.nbytes * (2 if cs.pair else 1))
            exact = tr.call("oracle.exact_ground_correlators", exact_ground_correlators, h,
                            degeneracy_tol=DEGENERACY_TOL)
            rc = tr.call("solver.real_space", real_space, cov, list(np.ndindex(*cs.shape.dims)))
            energy = tr.call("solver.ground_energy", ground_energy, cs)
            tr.call("oracle.compare", compare_with_quasifree, exact, rc, energy=energy)
            tr.call("solver.ground_energy", ground_energy, cs)
        return replay

    commands = [Command(["oracle"] + args, "agreement: PASS", replay_for(resolve)) for args, resolve in models]

    def accuracy() -> Accuracy:
        acc = Accuracy()
        for cmd in commands:
            report = (cmd.out / "report.txt").read_text()
            acc.checked += 1
            acc.add("oracle_correlator", _report_value(report, "max correlator deviation"))
            acc.add("oracle_energy", _report_value(report, "energy relative deviation"))
        return acc

    return Workload(commands, accuracy)


def _report_value(report: str, label: str) -> float:
    match = re.search(rf"^{re.escape(label)}: (\S+)$", report, re.MULTILINE)
    if match is None:
        raise ValueError(f"report.txt has no {label!r} line")
    return float(match.group(1))


BY_NAME = {
    "chain-invariants": chain_invariants,
    "entropy-scan": entropy_scan_workload,
    "fock-oracle": fock_oracle,
}


def build(name: str, seed: int, work: Path) -> Workload:
    """Generate the workload's inputs from ``seed`` under ``work``; outputs go to ``work/cmd<i>``."""
    wl = BY_NAME[name](seed, work)
    for i, cmd in enumerate(wl.commands):
        cmd.out = work / f"cmd{i}"
    return wl
