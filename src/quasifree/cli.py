"""Command-line driver: load a model, run the analysis pipeline, emit CSV + report.

Commands, and the flags each reads besides ``--out <dir>``.  "model" stands
for ``--model --param --dims --spin``.

    spectrum    one-particle spectrum per momentum -> spectrum.csv
                model, --zero-mode-tol
    invariants  invariant map, gap, asymmetry, verdict -> invariants.csv, asymmetry.csv
                model, --gap-tol --inv-tol --zero-mode-tol --offsets
    verify      randomized gapped-model sweep of the invariant criterion
                --dims --spin --seed --gap-tol --inv-tol --zero-mode-tol --count --range
    entropy     block-entropy scan with log fit -> entropy.csv
                model, --zero-mode-tol --lengths
    oracle      brute-force Fock comparison (small lattices)
                model, --zero-mode-tol --degeneracy-tol
    quench      invariant trajectory under a seeded random quench -> quench.csv
                model, --seed --zero-mode-tol --offsets --times --range

A flag the command does not read, or a value its type rejects, is an argparse
error.  Tolerance defaults are the library's.  Exit codes: 0 success, 1 failed
assertion / falsification / threshold breach, 2 invalid input, 3 internal
numerical failure (an eigensolver error or corrupted covariance data).  All
commands are deterministic for a fixed seed; floats are written with 17
significant digits so downstream plots reproduce exactly.
"""

from __future__ import annotations

import argparse
import os
import sys

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
    GAP_TOL,
    INV_TOL,
    SURVEY_GAP_TOL,
    entropy_scan,
    gapped_model_survey,
    invariant_map,
    verify_criticality,
)
from .oracle import (
    DEGENERACY_TOL,
    build_fock_hamiltonian,
    compare_with_quasifree,
    exact_ground_correlators,
)
from .solver import (
    ZERO_MODE_TOL,
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


# argparse types: a value they reject is an argparse error, exit code 2

def _dims(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse {text!r}") from exc


def _param(item: str) -> tuple[str, float]:
    if "=" not in item:
        raise argparse.ArgumentTypeError(f"expects key=value, got {item!r}")
    key, _, val = item.partition("=")
    try:
        return key.strip(), float(val)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{key}: {val!r} is not a number") from exc


def _lengths(text: str) -> list[int]:
    try:
        if ":" not in text:
            return [int(v) for v in text.split(",")]
        lo, hi = (int(v) for v in text.split(":"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse {text!r}") from exc
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}: {lo} > {hi}")
    return list(range(lo, hi + 1))


def _times(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse {text!r}") from exc


def _resolve_model(args: argparse.Namespace) -> CouplingSet:
    if args.model is None:
        raise InputError("--model is required for this command")
    if os.path.exists(args.model):
        loaded = load_model(args.model)
        cs = loaded.couplings
        if loaded.projection_distance > 0:
            print(f"model file closure projection distance: {loaded.projection_distance:.3e}")
        if args.dims is not None and args.dims != cs.shape.dims:
            cs = cs.resized(args.dims)
        return cs
    if args.model not in CATALOG_NAMES:
        raise InputError(
            f"model {args.model!r} is neither a file nor a catalog name {CATALOG_NAMES}"
        )
    if args.dims is None:
        raise InputError("catalog models need --dims")
    spin = args.spin if args.spin is not None else (2 if args.model == "p-model" else 1)
    shape = LatticeShape(args.dims, spin)
    try:
        return catalog(ModelParams(name=args.model, params=dict(args.param), shape=shape))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _reach(args: argparse.Namespace, dims: tuple[int, ...]) -> int:
    """``--range``, or without it 2 capped at the largest reach that
    ``random_model`` accepts on ``dims``."""
    if args.reach is not None:
        return args.reach
    return min(2, (min(dims) - 1) // 2)


def _report(args: argparse.Namespace, lines: list[str]) -> None:
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "report.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _offset_columns(d: int) -> list[str]:
    return [f"n_{i + 1}" for i in range(d)]


def _reduced_offsets(text: str | None, shape: LatticeShape) -> np.ndarray:
    """The ``--offsets`` reduced onto the lattice, in request order, as an ``(n, d)``
    int array; without ``--offsets`` every offset in row-major order."""
    if text is None:
        return shape.momenta()
    try:
        if ";" in text or shape.d > 1:
            out = [[int(v) for v in g.split(",")] for g in text.split(";") if g.strip()]
        else:
            out = [[int(v)] for v in text.split(",")]
    except ValueError as exc:
        raise InputError(f"cannot parse --offsets {text!r}") from exc
    for n in out:
        if len(n) != shape.d:
            raise InputError(f"offset {tuple(n)} has {len(n)} components, lattice has {shape.d}")
    return np.array(out, dtype=np.int64).reshape(-1, shape.d) % shape.dims


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_spectrum(args: argparse.Namespace) -> int:
    cs = _resolve_model(args)
    sol = diagonalize(cs, zero_mode_tol=args.zero_mode_tol)
    shape = cs.shape
    os.makedirs(args.out, exist_ok=True)
    header = (
        [f"k_{i + 1}" for i in range(shape.d)]
        + [f"lam_{a + 1}" for a in range(2 * shape.spin)]
        + [f"branch_{j + 1}" for j in range(shape.spin)]
    )
    columns = [*shape.momenta().T, *sol.energies.T, *sol.branch.T]
    _write_csv(os.path.join(args.out, "spectrum.csv"), header, columns)
    lines = [
        f"model dims={shape.dims} spin={shape.spin}",
        f"spectral gap: {_fmt(sol.gap)}",
        f"zero modes (|energy| < {args.zero_mode_tol:g}): {len(sol.zero_modes())}",
    ]
    _report(args, lines)
    print("\n".join(lines))
    print(f"wrote {shape.n_sites} rows to {os.path.join(args.out, 'spectrum.csv')}")
    return 0


def cmd_invariants(args: argparse.Namespace) -> int:
    cs = _resolve_model(args)
    report = verify_criticality(
        cs, gap_tol=args.gap_tol, inv_tol=args.inv_tol, zero_mode_tol=args.zero_mode_tol
    )
    shape = cs.shape
    os.makedirs(args.out, exist_ok=True)
    wanted = _reduced_offsets(args.offsets, shape)
    _write_csv(
        os.path.join(args.out, "invariants.csv"),
        _offset_columns(shape.d) + ["invariant"],
        [*wanted.T, report.invariant[tuple(wanted.T)]],
    )
    momenta, band, m, p = report.asymmetry
    _write_csv(
        os.path.join(args.out, "asymmetry.csv"),
        [f"k_{i + 1}" for i in range(shape.d)] + ["band", "M", "P"],
        [*momenta.T, band, m, p],
    )
    lines = [
        f"model dims={shape.dims} spin={shape.spin}",
        f"spectral gap: {_fmt(report.gap)}",
        f"max |invariant|: {_fmt(report.max_abs_invariant)}",
        f"asymmetric (momentum, band) entries: {len(band)}",
        f"indeterminate entries: {len(report.indeterminate[1])}",
        f"zero modes: {len(report.zero_modes)}",
    ]
    if report.falsification:
        lines.append("FALSIFICATION: stable gap with nonzero invariant")
    _report(args, lines + [f"verdict: {report.verdict}"])
    print("\n".join(lines))
    print(f"verdict: {report.verdict}")
    return 1 if report.falsification else 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.dims is None:
        raise InputError("verify needs --dims for the base lattice")
    spins = (args.spin,) if args.spin is not None else (1, 2)
    if args.count == 0:
        print("warning: --count 0 requested; nothing to verify")
        _report(args, ["verify: 0 models requested", "falsifications: 0"])
        return 0

    reach = _reach(args, args.dims)
    survey = gapped_model_survey(
        args.dims, args.count, args.seed, reach=reach, spins=spins,
        gap_tol=args.gap_tol, inv_tol=args.inv_tol, zero_mode_tol=args.zero_mode_tol,
    )
    for seed, gap, inv in survey.events:
        print(f"FALSIFICATION at seed {seed}: gap {gap:.4f}, invariant {inv:.3e}")
    lines = [
        f"verify: dims={args.dims} reach={reach} spins={list(spins)} seed={args.seed}",
        "ensemble: uniform couplings rescaled to band-slope bound 1",
        f"models drawn: {survey.drawn}",
        f"stably gapped (gap > {args.gap_tol:g} at N, > {args.gap_tol / 2:g} at 2N): {survey.gapped}",
        f"worst-case invariant among gapped: {_fmt(survey.worst_invariant)}",
        f"falsifications (invariant >= {args.inv_tol:g}): {survey.falsifications}",
    ]
    if args.gap_tol <= np.pi / min(args.dims):
        lines.append(
            f"warning: gap threshold {args.gap_tol:g} is below pi/N = {np.pi / min(args.dims):.4f}; "
            "the filter is not leak-proof at this lattice size"
        )
    _report(args, lines)
    print("\n".join(lines))
    return 1 if survey.falsifications else 0


def cmd_entropy(args: argparse.Namespace) -> int:
    cs = _resolve_model(args)
    if cs.shape.d != 1:
        raise InputError("entropy scans support chains (d=1) only")
    n_sites = cs.shape.dims[0]
    top = max(5, n_sites // 4)
    lengths = args.lengths if args.lengths is not None else list(range(4, top + 1))
    sol = diagonalize(cs, zero_mode_tol=args.zero_mode_tol)
    try:
        scan = entropy_scan(ground_covariance(sol), lengths)
    except np.linalg.LinAlgError:  # a ValueError, but corrupted data: exit 3 below
        raise
    except ValueError as exc:
        if args.lengths is not None:
            raise
        raise InputError(
            f"{exc} (default --lengths 4:{top}, i.e. 4:N/4 for N={n_sites}); pass --lengths"
        ) from exc
    os.makedirs(args.out, exist_ok=True)
    _write_csv(
        os.path.join(args.out, "entropy.csv"),
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
    _report(args, lines)
    print("\n".join(lines))
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    cs = _resolve_model(args)
    sol = diagonalize(cs, zero_mode_tol=args.zero_mode_tol)
    cov = ground_covariance(sol)
    if cov.zero_modes:
        raise InputError("model has one-particle zero modes; oracle comparison undefined")
    exact = exact_ground_correlators(build_fock_hamiltonian(cs), degeneracy_tol=args.degeneracy_tol)
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
    _report(args, lines)
    print("\n".join(lines))
    return 0 if ok else 1


def cmd_quench(args: argparse.Namespace) -> int:
    cs = _resolve_model(args)
    shape = cs.shape
    times = args.times if args.times is not None else [float(t) for t in range(11)]
    reach = _reach(args, shape.dims)
    quench = random_model(shape, reach=reach, pairing=True, seed=args.seed)
    cov0 = ground_covariance(diagonalize(cs, zero_mode_tol=args.zero_mode_tol))
    offsets = _reduced_offsets(args.offsets, shape)
    # series[t, o]: invariant at time t and offset o
    series = np.array([
        invariant_map(evolve_quench(cov0, quench, t))[tuple(offsets.T)] for t in times
    ])
    os.makedirs(args.out, exist_ok=True)
    _write_csv(
        os.path.join(args.out, "quench.csv"),
        ["t"] + _offset_columns(shape.d) + ["invariant"],
        [np.repeat(times, len(offsets)), *np.tile(offsets, (len(times), 1)).T, series.ravel()],
    )
    spread = float((series.max(axis=0) - series.min(axis=0)).max()) if series.size else 0.0
    lines = [
        f"model dims={shape.dims} spin={shape.spin}",
        f"quench: seeded random model (seed={args.seed}, reach={reach}, pairing on)",
        f"times: {len(times)} points in [{min(times):g}, {max(times):g}]",
        f"max per-offset invariant spread over time: {_fmt(spread)}",
        f"conservation threshold: {QUENCH_SPREAD_TOL:g}",
    ]
    ok = spread < QUENCH_SPREAD_TOL
    lines.append("conservation: PASS" if ok else "conservation: FAIL")
    _report(args, lines)
    print("\n".join(lines))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_FLAGS = {
    "--model": dict(help=f"model file path or catalog name {CATALOG_NAMES}"),
    "--param": dict(type=_param, action="append", default=[], metavar="KEY=VALUE",
                    help="catalog model parameter (repeatable)"),
    "--dims": dict(type=_dims, help="comma-separated axis sizes, e.g. 64 or 8,8"),
    "--spin": dict(type=int, help="spin components per site"),
    "--seed": dict(type=int, default=DEFAULT_SEED),
    "--gap-tol": dict(type=float, default=GAP_TOL),
    "--inv-tol": dict(type=float, default=INV_TOL),
    "--zero-mode-tol": dict(type=float, default=ZERO_MODE_TOL),
    "--degeneracy-tol": dict(type=float, default=DEGENERACY_TOL),
    "--out": dict(default=".", help="output directory"),
    "--offsets": dict(help="d=1: comma list (1,2,3); d>1: semicolon tuples (1,0;0,1)"),
    "--lengths": dict(type=_lengths, help="block lengths, comma list or lo:hi range"),
    "--times": dict(type=_times, help="comma-separated quench times"),
    "--count": dict(type=int, default=200, help="number of random models"),
    "--range": dict(dest="reach", type=int, help="random-model coupling range (per-axis offset "
                    "bound); default 2, or less where the lattice is too small"),
}

_MODEL_FLAGS = ("--model", "--param", "--dims", "--spin")

# each command takes exactly the flags it reads: these and --out
_COMMANDS = {
    "spectrum": (cmd_spectrum, "one-particle spectrum per momentum",
                 _MODEL_FLAGS + ("--zero-mode-tol",)),
    "invariants": (cmd_invariants, "invariant map, gap, asymmetry, verdict",
                   _MODEL_FLAGS + ("--gap-tol", "--inv-tol", "--zero-mode-tol", "--offsets")),
    "verify": (cmd_verify, "randomized sweep of the gap/invariant criterion",
               ("--dims", "--spin", "--seed", "--gap-tol", "--inv-tol", "--zero-mode-tol", "--count",
                "--range")),
    "entropy": (cmd_entropy, "block entanglement entropy scan",
                _MODEL_FLAGS + ("--zero-mode-tol", "--lengths")),
    "oracle": (cmd_oracle, "brute-force Fock-space comparison",
               _MODEL_FLAGS + ("--zero-mode-tol", "--degeneracy-tol")),
    "quench": (cmd_quench, "invariant trajectory under a random quench",
               _MODEL_FLAGS + ("--seed", "--zero-mode-tol", "--offsets", "--times", "--range")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasifree",
        description="translation-invariant quadratic fermion lattices: "
        "spectra, invariants, entropy, quenches, brute-force checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, helptext, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.set_defaults(handler=handler)
        for flag in flags + ("--out",):
            p.add_argument(flag, **_FLAGS[flag])
        if name == "verify":
            p.set_defaults(gap_tol=SURVEY_GAP_TOL)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        for name, value in vars(args).items():
            if name.endswith("_tol") and value <= 0:
                raise InputError(f"--{name.replace('_', '-')} must be positive")
        return args.handler(args)
    except np.linalg.LinAlgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InputError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
