"""Command-line driver: load a model, run the analysis pipeline, emit CSV + report.

Commands

    spectrum    one-particle spectrum per momentum  -> spectrum.csv
    invariants  invariant map, gap, asymmetry, verdict -> invariants.csv, asymmetry.csv
    verify      randomized gapped-model sweep of the invariant criterion
    entropy     block-entropy scan with log fit -> entropy.csv
    oracle      brute-force Fock comparison (small lattices)
    quench      invariant trajectory under a seeded random quench -> quench.csv

Exit codes: 0 success, 1 failed assertion / falsification / threshold breach,
2 invalid input, 3 internal numerical failure (an eigensolver error or corrupted
covariance data).  All commands are deterministic for a fixed seed; floats are
written with 17 significant digits so downstream plots reproduce exactly.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

import numpy as np

from .lattice import LatticeShape
from .model import (
    CATALOG_NAMES,
    CouplingSet,
    ModelParams,
    catalog,
    load_model,
    random_model,
)
from .observables import (
    entropy_scan,
    gapped_model_survey,
    invariant_map,
    verify_criticality,
)
from .oracle import (
    build_fock_hamiltonian,
    compare_with_quasifree,
    exact_ground_correlators,
)
from .solver import (
    diagonalize,
    evolve_quench,
    ground_covariance,
    ground_energy,
    real_space,
)

ORACLE_DEV_TOL = 1e-9
QUENCH_SPREAD_TOL = 1e-9
DEFAULT_SEED = 20240

FLOAT_FMT = "%.17g"


def _fmt(value) -> str:
    return FLOAT_FMT % float(value)


def _write_csv(path, header, columns) -> None:
    """Write equal-length columns: integer columns as ``%d``, the rest as ``FLOAT_FMT``."""
    columns = [np.asarray(c) for c in columns]
    row = ",".join("%d" if c.dtype.kind in "iu" else FLOAT_FMT for c in columns) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row % values for values in zip(*(c.tolist() for c in columns)))


class InputError(Exception):
    """User input problems; mapped to exit code 2."""


@dataclass
class RunConfig:
    command: str
    model: str | None
    params: dict[str, float]
    dims: tuple[int, ...] | None
    spin: int | None
    seed: int
    gap_tol: float
    inv_tol: float
    zero_mode_tol: float
    degeneracy_tol: float
    out: str
    offsets: str | None  # raw --offsets text, parsed once the model fixes d
    lengths: list[int] | None
    times: list[float] | None
    count: int
    reach: int | None  # None: _reach picks the default for the lattice


def _parse_dims(text: str | None) -> tuple[int, ...] | None:
    if text is None:
        return None
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise InputError(f"cannot parse --dims {text!r}") from exc


def _parse_params(pairs: list[str]) -> dict[str, float]:
    out = {}
    for item in pairs:
        if "=" not in item:
            raise InputError(f"--param expects key=value, got {item!r}")
        key, _, val = item.partition("=")
        try:
            out[key.strip()] = float(val)
        except ValueError as exc:
            raise InputError(f"--param {key}: {val!r} is not a number") from exc
    return out


def _parse_offsets(text: str | None, d: int) -> list[tuple[int, ...]] | None:
    if text is None:
        return None
    try:
        if ";" in text or d > 1:
            groups = [g for g in text.split(";") if g.strip()]
            out = [tuple(int(v) for v in g.split(",")) for g in groups]
        else:
            out = [(int(v),) for v in text.split(",")]
    except ValueError as exc:
        raise InputError(f"cannot parse --offsets {text!r}") from exc
    for n in out:
        if len(n) != d:
            raise InputError(f"offset {n} has {len(n)} components, lattice has {d}")
    return out


def _parse_lengths(text: str | None) -> list[int] | None:
    if text is None:
        return None
    try:
        if ":" in text:
            lo, hi = text.split(":")
            return list(range(int(lo), int(hi) + 1))
        return [int(v) for v in text.split(",")]
    except ValueError as exc:
        raise InputError(f"cannot parse --lengths {text!r}") from exc


def _parse_times(text: str | None) -> list[float] | None:
    if text is None:
        return None
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise InputError(f"cannot parse --times {text!r}") from exc


def _resolve_model(cfg: RunConfig) -> CouplingSet:
    if cfg.model is None:
        raise InputError("--model is required for this command")
    if os.path.exists(cfg.model):
        loaded = load_model(cfg.model)
        cs = loaded.couplings
        if loaded.projection_distance > 0:
            print(f"model file closure projection distance: {loaded.projection_distance:.3e}")
        if cfg.dims is not None and cfg.dims != cs.shape.dims:
            cs = cs.resized(cfg.dims)
        return cs
    if cfg.model not in CATALOG_NAMES:
        raise InputError(
            f"model {cfg.model!r} is neither a file nor a catalog name {CATALOG_NAMES}"
        )
    if cfg.dims is None:
        raise InputError("catalog models need --dims")
    spin = cfg.spin if cfg.spin is not None else (2 if cfg.model == "p-model" else 1)
    shape = LatticeShape(cfg.dims, spin)
    try:
        return catalog(ModelParams(name=cfg.model, params=cfg.params, shape=shape))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _reach(cfg: RunConfig, dims: tuple[int, ...]) -> int:
    """``--range``, or without it 2 capped at the largest reach that
    ``random_model`` accepts on ``dims``."""
    if cfg.reach is not None:
        return cfg.reach
    return min(2, (min(dims) - 1) // 2)


def _report(cfg: RunConfig, lines: list[str]) -> None:
    os.makedirs(cfg.out, exist_ok=True)
    with open(os.path.join(cfg.out, "report.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _offset_columns(d: int) -> list[str]:
    return [f"n_{i + 1}" for i in range(d)]


def _reduced_offsets(text: str | None, shape: LatticeShape) -> np.ndarray:
    """The ``--offsets`` reduced onto the lattice, in request order, as an ``(n, d)``
    int array; without ``--offsets`` every offset in row-major order."""
    if text is None:
        return shape.momenta()
    offsets = np.array(_parse_offsets(text, shape.d), dtype=np.int64)
    return offsets.reshape(-1, shape.d) % shape.dims


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_spectrum(cfg: RunConfig) -> int:
    cs = _resolve_model(cfg)
    sol = diagonalize(cs, zero_mode_tol=cfg.zero_mode_tol)
    shape = cs.shape
    os.makedirs(cfg.out, exist_ok=True)
    header = (
        [f"k_{i + 1}" for i in range(shape.d)]
        + [f"lam_{a + 1}" for a in range(2 * shape.spin)]
        + [f"branch_{j + 1}" for j in range(shape.spin)]
    )
    columns = [*shape.momenta().T, *sol.energies.T, *sol.branch.T]
    _write_csv(os.path.join(cfg.out, "spectrum.csv"), header, columns)
    lines = [
        f"model dims={shape.dims} spin={shape.spin}",
        f"spectral gap: {_fmt(sol.gap)}",
        f"zero modes (|energy| < {cfg.zero_mode_tol:g}): {len(sol.zero_modes())}",
    ]
    _report(cfg, lines)
    print("\n".join(lines))
    print(f"wrote {shape.n_sites} rows to {os.path.join(cfg.out, 'spectrum.csv')}")
    return 0


def cmd_invariants(cfg: RunConfig) -> int:
    cs = _resolve_model(cfg)
    report = verify_criticality(
        cs, gap_tol=cfg.gap_tol, inv_tol=cfg.inv_tol, zero_mode_tol=cfg.zero_mode_tol
    )
    shape = cs.shape
    os.makedirs(cfg.out, exist_ok=True)
    wanted = _reduced_offsets(cfg.offsets, shape)
    _write_csv(
        os.path.join(cfg.out, "invariants.csv"),
        _offset_columns(shape.d) + ["invariant"],
        [*wanted.T, report.invariant[tuple(wanted.T)]],
    )
    asym = report.asymmetry
    momenta = np.array([k for k, *_ in asym], dtype=np.int64).reshape(len(asym), shape.d)
    band, m, p = (np.array([entry[c] for entry in asym]) for c in (1, 2, 3))
    _write_csv(
        os.path.join(cfg.out, "asymmetry.csv"),
        [f"k_{i + 1}" for i in range(shape.d)] + ["band", "M", "P"],
        [*momenta.T, band, m, p],
    )
    lines = [
        f"model dims={shape.dims} spin={shape.spin}",
        f"spectral gap: {_fmt(report.gap)}",
        f"max |invariant|: {_fmt(report.max_abs_invariant)}",
        f"asymmetric (momentum, band) entries: {len(report.asymmetry)}",
        f"indeterminate entries: {len(report.indeterminate)}",
        f"zero modes: {len(report.zero_modes)}",
    ]
    if report.falsification:
        lines.append("FALSIFICATION: stable gap with nonzero invariant")
    _report(cfg, lines + [f"verdict: {report.verdict}"])
    print("\n".join(lines))
    print(f"verdict: {report.verdict}")
    return 1 if report.falsification else 0


def cmd_verify(cfg: RunConfig) -> int:
    if cfg.dims is None:
        raise InputError("verify needs --dims for the base lattice")
    spins = (cfg.spin,) if cfg.spin is not None else (1, 2)
    if cfg.count == 0:
        print("warning: --count 0 requested; nothing to verify")
        _report(cfg, ["verify: 0 models requested", "falsifications: 0"])
        return 0

    reach = _reach(cfg, cfg.dims)
    survey = gapped_model_survey(
        cfg.dims, cfg.count, cfg.seed, reach=reach, spins=spins,
        gap_tol=cfg.gap_tol, inv_tol=cfg.inv_tol, zero_mode_tol=cfg.zero_mode_tol,
    )
    for seed, gap, inv in survey.events:
        print(f"FALSIFICATION at seed {seed}: gap {gap:.4f}, invariant {inv:.3e}")
    lines = [
        f"verify: dims={cfg.dims} reach={reach} spins={list(spins)} seed={cfg.seed}",
        "ensemble: uniform couplings rescaled to band-slope bound 1",
        f"models drawn: {survey.drawn}",
        f"stably gapped (gap > {cfg.gap_tol:g} at N, > {cfg.gap_tol / 2:g} at 2N): {survey.gapped}",
        f"worst-case invariant among gapped: {_fmt(survey.worst_invariant)}",
        f"falsifications (invariant >= {cfg.inv_tol:g}): {survey.falsifications}",
    ]
    if cfg.gap_tol <= np.pi / min(cfg.dims):
        lines.append(
            f"warning: gap threshold {cfg.gap_tol:g} is below pi/N = {np.pi / min(cfg.dims):.4f}; "
            "the filter is not leak-proof at this lattice size"
        )
    _report(cfg, lines)
    print("\n".join(lines))
    return 1 if survey.falsifications else 0


def cmd_entropy(cfg: RunConfig) -> int:
    cs = _resolve_model(cfg)
    if cs.shape.d != 1:
        raise InputError("entropy scans support chains (d=1) only")
    n_sites = cs.shape.dims[0]
    top = max(5, n_sites // 4)
    lengths = cfg.lengths or list(range(4, top + 1))
    sol = diagonalize(cs, zero_mode_tol=cfg.zero_mode_tol)
    try:
        scan = entropy_scan(ground_covariance(sol), lengths)
    except np.linalg.LinAlgError:  # a ValueError, but corrupted data: exit 3 below
        raise
    except ValueError as exc:
        if cfg.lengths:
            raise
        raise InputError(
            f"{exc} (default --lengths 4:{top}, i.e. 4:N/4 for N={n_sites}); pass --lengths"
        ) from exc
    os.makedirs(cfg.out, exist_ok=True)
    _write_csv(
        os.path.join(cfg.out, "entropy.csv"),
        ["L", "S"],
        [scan.lengths, scan.entropies],
    )
    lines = [
        f"model dims={cs.shape.dims} spin={cs.shape.spin}",
        f"fit S ~ a ln L + b on upper-half window: a={_fmt(scan.slope)} b={_fmt(scan.intercept)}",
        f"fit rms residual: {_fmt(scan.residual)}",
        f"saturation estimate: {_fmt(scan.saturation)}",
        f"classification: {scan.classification}",
    ]
    _report(cfg, lines)
    print("\n".join(lines))
    return 0


def cmd_oracle(cfg: RunConfig) -> int:
    cs = _resolve_model(cfg)
    sol = diagonalize(cs, zero_mode_tol=cfg.zero_mode_tol)
    cov = ground_covariance(sol)
    if cov.zero_modes:
        raise InputError("model has one-particle zero modes; oracle comparison undefined")
    exact = exact_ground_correlators(build_fock_hamiltonian(cs), degeneracy_tol=cfg.degeneracy_tol)
    if exact.degenerate:
        raise InputError("exact ground state is degenerate; oracle comparison undefined")
    rc = real_space(cov, list(np.ndindex(*cs.shape.dims)))
    energy = ground_energy(cs)
    result = compare_with_quasifree(exact, rc, energy=energy)
    lines = [
        f"model dims={cs.shape.dims} spin={cs.shape.spin} ({cs.shape.n_modes} modes)",
        f"max correlator deviation: {_fmt(result.max_correlator_dev)}",
        f"ground energy (momentum route): {_fmt(energy)}",
        f"ground energy (Fock route): {_fmt(exact.energy)}",
        f"energy relative deviation: {_fmt(result.energy_rel_dev)}",
        f"threshold: {ORACLE_DEV_TOL:g}",
    ]
    ok = result.max_correlator_dev < ORACLE_DEV_TOL and result.energy_rel_dev < ORACLE_DEV_TOL
    lines.append("agreement: PASS" if ok else "agreement: FAIL")
    _report(cfg, lines)
    print("\n".join(lines))
    return 0 if ok else 1


def cmd_quench(cfg: RunConfig) -> int:
    cs = _resolve_model(cfg)
    shape = cs.shape
    times = cfg.times if cfg.times is not None else [float(t) for t in range(11)]
    reach = _reach(cfg, shape.dims)
    quench = random_model(shape, reach=reach, pairing=True, seed=cfg.seed)
    cov0 = ground_covariance(diagonalize(cs, zero_mode_tol=cfg.zero_mode_tol))
    offsets = _reduced_offsets(cfg.offsets, shape)
    # series[t, o]: invariant at time t and offset o
    series = np.array([
        invariant_map(evolve_quench(cov0, quench, t))[tuple(offsets.T)] for t in times
    ])
    os.makedirs(cfg.out, exist_ok=True)
    _write_csv(
        os.path.join(cfg.out, "quench.csv"),
        ["t"] + _offset_columns(shape.d) + ["invariant"],
        [np.repeat(times, len(offsets)), *np.tile(offsets, (len(times), 1)).T, series.ravel()],
    )
    spread = float((series.max(axis=0) - series.min(axis=0)).max()) if series.size else 0.0
    lines = [
        f"model dims={shape.dims} spin={shape.spin}",
        f"quench: seeded random model (seed={cfg.seed}, reach={reach}, pairing on)",
        f"times: {len(times)} points in [{min(times):g}, {max(times):g}]",
        f"max per-offset invariant spread over time: {_fmt(spread)}",
        f"conservation threshold: {QUENCH_SPREAD_TOL:g}",
    ]
    ok = spread < QUENCH_SPREAD_TOL
    lines.append("conservation: PASS" if ok else "conservation: FAIL")
    _report(cfg, lines)
    print("\n".join(lines))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasifree",
        description="translation-invariant quadratic fermion lattices: "
        "spectra, invariants, entropy, quenches, brute-force checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("spectrum", "one-particle spectrum per momentum"),
        ("invariants", "invariant map, gap, asymmetry, verdict"),
        ("verify", "randomized sweep of the gap/invariant criterion"),
        ("entropy", "block entanglement entropy scan"),
        ("oracle", "brute-force Fock-space comparison"),
        ("quench", "invariant trajectory under a random quench"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--model", help=f"model file path or catalog name {CATALOG_NAMES}")
        p.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                       help="catalog model parameter (repeatable)")
        p.add_argument("--dims", help="comma-separated axis sizes, e.g. 64 or 8,8")
        p.add_argument("--spin", type=int, default=None, help="spin components per site")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--gap-tol", type=float, default=0.1 if name == "verify" else 1e-6)
        p.add_argument("--inv-tol", type=float, default=1e-8)
        p.add_argument("--zero-mode-tol", type=float, default=1e-9)
        p.add_argument("--degeneracy-tol", type=float, default=1e-8)
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--offsets", help="d=1: comma list (1,2,3); d>1: semicolon tuples (1,0;0,1)")
        p.add_argument("--lengths", help="block lengths, comma list or lo:hi range")
        p.add_argument("--times", help="comma-separated quench times")
        p.add_argument("--count", type=int, default=200, help="verify: number of random models")
        p.add_argument("--range", dest="reach", type=int, default=None,
                       help="random-model coupling range (per-axis offset bound); "
                       "default 2, or less where the lattice is too small")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        for name in ("gap_tol", "inv_tol", "zero_mode_tol", "degeneracy_tol"):
            if getattr(args, name) <= 0:
                raise InputError(f"--{name.replace('_', '-')} must be positive")
        cfg = RunConfig(
            command=args.command,
            model=args.model,
            params=_parse_params(args.param),
            dims=_parse_dims(args.dims),
            spin=args.spin,
            seed=args.seed,
            gap_tol=args.gap_tol,
            inv_tol=args.inv_tol,
            zero_mode_tol=args.zero_mode_tol,
            degeneracy_tol=args.degeneracy_tol,
            out=args.out,
            offsets=args.offsets,
            lengths=_parse_lengths(args.lengths),
            times=_parse_times(args.times),
            count=args.count,
            reach=args.reach,
        )
        handler = {
            "spectrum": cmd_spectrum,
            "invariants": cmd_invariants,
            "verify": cmd_verify,
            "entropy": cmd_entropy,
            "oracle": cmd_oracle,
            "quench": cmd_quench,
        }[cfg.command]
        return handler(cfg)
    except np.linalg.LinAlgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InputError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
