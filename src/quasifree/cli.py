"""Command-line driver: load a model, run the analysis pipeline, emit CSV + report.

Commands, and the flags each reads besides ``--out <dir>``.  "model" stands
for ``--model --param --dims``: a catalog model has the one spin it accepts (2 for
``p-model``, 1 for the others), a model file the one it states.

    spectrum    one-particle spectrum per momentum -> spectrum.csv
                model, --zero-mode-tol
    invariants  invariant map, gap, unbalanced momenta, verdict -> invariants.csv, asymmetry.csv
                model, --gap-tol --inv-tol --zero-mode-tol --offsets
    verify      randomized gapped-model sweep of the invariant criterion
                --dims --spin --seed --gap-tol --inv-tol --zero-mode-tol --count --range
    entropy     block-entropy scan with log fit -> entropy.csv
                model, --zero-mode-tol --lengths
    oracle      brute-force Fock comparison by sectors (up to 14 modes)
                model, --zero-mode-tol --degeneracy-tol
    quench      invariant trajectory under a seeded random quench -> quench.csv
                model, --seed --zero-mode-tol --offsets --times --range

A flag the command does not read, or a value its type rejects, is an argparse
error.  Tolerance defaults are the library's; a tolerance that is not finite
and positive is invalid input.  Exit codes: 0 success (``invariants`` on
every verdict), 1 a failed check (for ``verify``, only where its gap filter is
leak-proof), 2 invalid input, 3 internal numerical failure (an eigensolver
error, corrupted covariance data, or Fock columns that leak out of their
charge group or whose sector entries are not Hermitian and translation
invariant: ``oracle`` builds only the columns of the Fock matrix at the orbit
representatives of each particle number, or each fermion parity for a pairing
model, checks that they have no entry in another group's rows, and checks each
entry its sector blocks use against its partner).  ``oracle`` solves the momentum
route once: its one ``diagonalize`` solution gives both the covariance and the
energy's branch.  All commands are deterministic for a fixed seed; floats are
written with 17 significant digits so downstream plots reproduce exactly; CSV
integers are gathered from a digit table, and a float column's distinct values
are formatted once per block.

Commands return their report lines; ``main`` writes ``<out>/report.txt`` and
repeats it on stdout.  A model file's closure projection note, if any, goes to
stderr.  A failing command writes no report.  ``verify --count 0`` reports
"models drawn: 0" and a warning line.
"""

from __future__ import annotations

import argparse
import functools
import math
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
    _check_cap,
    compare_with_quasifree,
    fock_ground_state,
)
from .solver import (
    ZERO_MODE_TOL,
    diagonalize,
    evolve_quench,
    ground_covariance,
    ground_energy,
    real_space,
    spectrum,
)

ORACLE_DEV_TOL = 1e-9
QUENCH_SPREAD_TOL = 1e-9
DEFAULT_SEED = 20240

FLOAT_FMT = "%.17g"
FLOAT_WIDTH = 24  # the longest ``FLOAT_FMT`` output, e.g. -2.2250738585072014e-308
CSV_CHUNK = 4096  # rows gathered at a time
# each n < 10^4 as "%04d" (_DIGITS) and "%4d" (_PADDED); _cells's limb texts read as
# uint32: "%04d" below a value's top limb, "%4d" at it, "    " above it, "   -" the sign
_DIGITS = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + np.uint8(ord("0"))
_PADDED = _DIGITS.copy()
_PADDED[:1000, 0] = _PADDED[:100, 1] = _PADDED[:10, 2] = ord(" ")
_WORDS = np.concatenate([_DIGITS, _PADDED, np.frombuffer(b"       -", dtype=np.uint8).reshape(2, 4)])
_WORDS = _WORDS.view(np.uint32).ravel()
_BLANK = 20000  # the index of "    " in _WORDS; "   -" is the next


def _fmt(value) -> str:
    return FLOAT_FMT % float(value)


def _cells(column: np.ndarray) -> np.ndarray:
    """The text of each value of ``column`` as a ``(len(column), width)`` uint8
    array padded with spaces.  Integers read as ``%d``: their magnitudes, uint64
    so that ``-2**63`` has one, are split into base-10^4 limbs whose texts are
    gathered from ``_WORDS``, after a sign word if the block has a negative value.
    The rest read as ``FLOAT_FMT``, each distinct value formatted once and cut to the
    longest; floats are told apart by bits, so ``-0.0`` and ``0.0`` keep their text."""
    if column.dtype.kind in "iu":
        neg = column < 0
        q = column.astype(np.uint64)
        np.negative(q, out=q, where=neg)  # modulo 2^64: the magnitude of a negative value
        words = []
        while not words or q.any():
            hi = q // np.uint64(10000)
            index = (q - hi * np.uint64(10000)).astype(np.intp)
            index[hi == 0] += 10000  # the top limb
            if words:
                index[q == 0] = _BLANK  # above the top limb
            words.append(_WORDS[index])
            q = hi
        if neg.any():
            words.append(_WORDS[_BLANK + neg])
        return np.stack(words[::-1], axis=1).view(np.uint8)
    keys, rows = np.unique(column.astype(np.float64).view(np.int64), return_inverse=True)
    values = keys.view(np.float64).tolist()
    text = ((f"%-{FLOAT_WIDTH}{FLOAT_FMT[1:]}" * len(values)) % tuple(values)).encode("ascii")
    table = np.frombuffer(text, dtype=np.uint8).reshape(len(values), FLOAT_WIDTH)
    width = np.count_nonzero((table != ord(" ")).any(axis=0))  # the longest text: each is left-aligned
    return table[:, :width][rows]


def _write_csv(out, name, header, columns) -> None:
    """Write equal-length columns to ``out/name``: integer columns as ``%d``, the
    rest as ``FLOAT_FMT``.  ``CSV_CHUNK`` rows at a time, each column's cells
    (``_cells``) are laid into one block between the ``,`` and newline columns,
    and the padding is dropped; since no value contains a space, that leaves the
    bytes of one ``%`` call per row."""
    columns = [np.asarray(c) for c in columns]
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, name), "wb") as fh:
        fh.write((",".join(header) + "\n").encode("ascii"))
        for lo in range(0, len(columns[0]), CSV_CHUNK):
            cells = [_cells(c[lo:lo + CSV_CHUNK]) for c in columns]
            ends = np.cumsum([part.shape[1] + 1 for part in cells])  # one past each separator
            block = np.full((len(cells[0]), ends[-1]), ord(","), dtype=np.uint8)
            for part, end in zip(cells, ends):
                block[:, end - 1 - part.shape[1]:end - 1] = part
            block[:, -1] = ord("\n")
            fh.write(block[block != ord(" ")])


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
        times = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse {text!r}") from exc
    if not all(math.isfinite(t) for t in times):
        raise argparse.ArgumentTypeError(f"quench times must be finite, got {text!r}")
    return times


def _resolve_model(args: argparse.Namespace) -> CouplingSet:
    if args.model is None:
        raise ValueError("--model is required for this command")
    if os.path.exists(args.model):
        loaded = load_model(args.model)
        cs = loaded.couplings
        if loaded.projection_distance > 0:
            print(f"model file closure projection distance: {loaded.projection_distance:.3e}",
                  file=sys.stderr)
        if args.dims is not None and args.dims != cs.shape.dims:
            if len(args.dims) != cs.shape.d:
                raise ValueError(f"--dims {args.dims} is a {len(args.dims)}-axis lattice, but the "
                                 f"model file's {cs.shape.dims} is {cs.shape.d}-axis")
            # a coupling that reaches r sites along an axis folds onto its partner at
            # -r, or onto a shorter one, on 2r sites or fewer
            offsets = np.concatenate([cs.hop.offsets, cs.pair.offsets])
            reach = np.abs(cs.shape.signed(offsets)).max(axis=0, initial=0)
            for axis, (n, r) in enumerate(zip(args.dims, reach.tolist())):
                if n <= 2 * r:
                    raise ValueError(f"--dims {args.dims} would fold the model file's couplings: they "
                                     f"reach {r} sites along axis {axis + 1}, which needs at least "
                                     f"{2 * r + 1} sites")
            cs = cs.resized(args.dims)
        return cs
    if args.model not in CATALOG_NAMES:
        raise ValueError(f"model {args.model!r} is neither a file nor a catalog name {CATALOG_NAMES}")
    if args.dims is None:
        raise ValueError("catalog models need --dims")
    spin = 2 if args.model == "p-model" else 1
    params: dict[str, float] = {}
    for key, value in args.param:  # dict(args.param) would keep only the last of a repeated key
        if key in params:
            raise ValueError(f"--param {key}={params[key]:g} and {key}={value:g} both set {key!r}")
        params[key] = value
    return catalog(ModelParams(name=args.model, params=params, shape=LatticeShape(args.dims, spin)))


def _reach(args: argparse.Namespace, dims: tuple[int, ...]) -> int:
    """``--range``, or without it 2 capped at the largest reach that
    ``random_model`` accepts on ``dims``."""
    if args.reach is not None:
        return args.reach
    return min(2, (min(dims) - 1) // 2)


def _columns(prefix: str, n: int) -> list[str]:
    return [f"{prefix}_{i + 1}" for i in range(n)]


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
        raise ValueError(f"cannot parse --offsets {text!r}") from exc
    for n in out:
        if len(n) != shape.d:
            raise ValueError(f"offset {tuple(n)} has {len(n)} components, lattice has {shape.d}")
    return np.array(out, dtype=np.int64).reshape(-1, shape.d) % shape.dims


# ---------------------------------------------------------------------------
# commands: each returns its report lines and exit code
# ---------------------------------------------------------------------------

def cmd_spectrum(args: argparse.Namespace) -> tuple[list[str], int]:
    cs = _resolve_model(args)
    spec = spectrum(cs, zero_mode_tol=args.zero_mode_tol)
    shape = cs.shape
    header = _columns("k", shape.d) + _columns("lam", 2 * shape.spin) + _columns("branch", shape.spin)
    columns = [*shape.momenta().T, *spec.energies.T, *spec.branch.T]
    _write_csv(args.out, "spectrum.csv", header, columns)
    return [
        f"model dims={shape.dims} spin={shape.spin}",
        f"spectral gap: {_fmt(spec.gap)}",
        f"zero modes (|energy| < {args.zero_mode_tol:g}): {spec.zero_modes}",
    ], 0


def cmd_invariants(args: argparse.Namespace) -> tuple[list[str], int]:
    cs = _resolve_model(args)
    report = verify_criticality(
        cs, gap_tol=args.gap_tol, inv_tol=args.inv_tol, zero_mode_tol=args.zero_mode_tol
    )
    shape = cs.shape
    wanted = _reduced_offsets(args.offsets, shape)
    _write_csv(args.out, "invariants.csv", _columns("n", shape.d) + ["invariant"],
               [*wanted.T, report.invariant[tuple(wanted.T)]])
    momenta, n_minus, imbalance = report.asymmetry
    _write_csv(args.out, "asymmetry.csv", _columns("k", shape.d) + ["n_minus", "imbalance"],
               [*momenta.T, n_minus, imbalance])
    return [
        f"model dims={shape.dims} spin={shape.spin}",
        f"spectral gap: {_fmt(report.gap)}",
        f"max |invariant|: {_fmt(report.max_abs_invariant)}",
        f"asymmetric momenta: {len(n_minus)}",
        f"zero modes: {report.zero_modes}",
        f"verdict: {report.verdict}",
    ], 0


def cmd_verify(args: argparse.Namespace) -> tuple[list[str], int]:
    if args.dims is None:
        raise ValueError("verify needs --dims for the base lattice")
    spins = (args.spin,) if args.spin is not None else (1, 2)
    reach = _reach(args, args.dims)
    survey = gapped_model_survey(
        args.dims, args.count, args.seed, reach=reach, spins=spins,
        gap_tol=args.gap_tol, inv_tol=args.inv_tol, zero_mode_tol=args.zero_mode_tol,
    )
    leak = sum(np.pi / n for n in args.dims)  # the grid energy a unit-slope crossing can reach
    leak_proof = args.gap_tol > leak  # then an unbalanced draw contradicts the theorem or slope_bound
    label = "FALSIFICATION" if leak_proof else "certified gapless"
    lines = [f"{label} at seed {seed}: grid gap {gap:.4f}, invariant {inv:.3e}"
             for seed, gap, inv in survey.events]
    lines += [
        f"verify: dims={args.dims} reach={reach} spins={list(spins)} seed={args.seed}",
        "ensemble: uniform couplings rescaled to band-slope bound 1",
        f"models drawn: {args.count}",
        f"gapped on the grid (gap > {args.gap_tol:g}): {survey.gapped}",
        f"worst-case invariant among gapped: {_fmt(survey.worst_invariant)}",
        f"certified gapless among them (invariant >= {args.inv_tol:g}): {len(survey.events)}",
    ]
    if not leak_proof:
        lines.append(
            f"warning: gap threshold {args.gap_tol:g} is not above sum_i pi/N_i = {leak:.4f}; "
            "the filter is not leak-proof at this lattice size"
        )
    if args.count == 0:
        lines.append("warning: --count 0 requested; nothing to verify")
    return lines, 1 if leak_proof and survey.events else 0


def cmd_entropy(args: argparse.Namespace) -> tuple[list[str], int]:
    cs = _resolve_model(args)
    if cs.shape.d != 1:
        raise ValueError("entropy scans support chains (d=1) only")
    n_sites = cs.shape.dims[0]
    top = max(5, n_sites // 4)
    lengths = args.lengths if args.lengths is not None else list(range(4, top + 1))
    sol = diagonalize(cs, zero_mode_tol=args.zero_mode_tol)
    try:
        scan = entropy_scan(ground_covariance(sol), lengths)
    except ValueError as exc:
        # a LinAlgError is a ValueError too, but it means corrupted data: exit 3
        if args.lengths is not None or isinstance(exc, np.linalg.LinAlgError):
            raise
        raise ValueError(
            f"{exc} (default --lengths 4:{top}, i.e. 4:N/4 for N={n_sites}); pass --lengths"
        ) from exc
    _write_csv(args.out, "entropy.csv", ["L", "S"], [lengths, scan.entropies])
    return [
        f"model dims={cs.shape.dims} spin={cs.shape.spin}",
        f"fit S ~ a ln L + b on upper-half window: a={_fmt(scan.slope)} b={_fmt(scan.intercept)}",
        f"fit rms residual: {_fmt(scan.residual)}",
        f"saturation estimate: {_fmt(scan.saturation)}",
        f"classification: {scan.classification}",
    ], 0


def cmd_oracle(args: argparse.Namespace) -> tuple[list[str], int]:
    cs = _resolve_model(args)
    _check_cap(cs.shape.n_modes)  # refused before the momentum route allocates for the lattice
    sol = diagonalize(cs, zero_mode_tol=args.zero_mode_tol)  # one solve: covariance and energy
    cov = ground_covariance(sol)
    if cov.zero_modes:
        raise ValueError("model has one-particle zero modes; oracle comparison undefined")
    energy = ground_energy(cs, sol)
    # the momentum route's first level above the ground state spares eigvalsh on the
    # Fock sectors proven to lie above it; the Fock result does not depend on it
    exact = fock_ground_state(cs, degeneracy_tol=args.degeneracy_tol, hint=energy + sol.gap)
    rc = real_space(cov, list(np.ndindex(*cs.shape.dims)))
    result = compare_with_quasifree(exact, rc, energy=energy)
    ok = result.max_correlator_dev < ORACLE_DEV_TOL and result.energy_rel_dev < ORACLE_DEV_TOL
    return [
        f"model dims={cs.shape.dims} spin={cs.shape.spin} ({cs.shape.n_modes} modes)",
        f"max correlator deviation: {_fmt(result.max_correlator_dev)}",
        f"ground energy (momentum route): {_fmt(energy)}",
        f"ground energy (Fock route): {_fmt(exact.energy)}",
        f"energy relative deviation: {_fmt(result.energy_rel_dev)}",
        f"threshold: {ORACLE_DEV_TOL:g}",
        "agreement: PASS" if ok else "agreement: FAIL",
    ], 0 if ok else 1


def cmd_quench(args: argparse.Namespace) -> tuple[list[str], int]:
    cs = _resolve_model(args)
    shape = cs.shape
    times = args.times if args.times is not None else [float(t) for t in range(11)]
    reach = _reach(args, shape.dims)
    quench = random_model(shape, reach=reach, pairing=True, seed=args.seed)
    sol = diagonalize(cs, zero_mode_tol=args.zero_mode_tol)
    offsets = _reduced_offsets(args.offsets, shape)
    # series[t, o]: invariant at time t and offset o
    series = np.array([invariant_map(ground_covariance(state))[tuple(offsets.T)]
                       for state in evolve_quench(sol, quench, times)])
    _write_csv(args.out, "quench.csv", ["t"] + _columns("n", shape.d) + ["invariant"],
               [np.repeat(times, len(offsets)), *np.tile(offsets, (len(times), 1)).T, series.ravel()])
    spread = float((series.max(axis=0) - series.min(axis=0)).max()) if series.size else 0.0
    ok = spread < QUENCH_SPREAD_TOL
    return [
        f"model dims={shape.dims} spin={shape.spin}",
        f"quench: seeded random model (seed={args.seed}, reach={reach}, pairing on)",
        f"times: {len(times)} points in [{min(times):g}, {max(times):g}]",
        f"max per-offset invariant spread over time: {_fmt(spread)}",
        f"conservation threshold: {QUENCH_SPREAD_TOL:g}",
        "conservation: PASS" if ok else "conservation: FAIL",
    ], 0 if ok else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_FLAGS = {
    "--model": dict(help=f"model file path or catalog name {CATALOG_NAMES}"),
    "--param": dict(type=_param, action="append", default=[], metavar="KEY=VALUE",
                    help="catalog model parameter (repeatable, each key once)"),
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

_MODEL_FLAGS = ("--model", "--param", "--dims")

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


@functools.cache  # one parser per process: a parse keeps its values in its own namespace
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
            if name.endswith("_tol") and not (math.isfinite(value) and value > 0):
                raise ValueError(f"--{name.replace('_', '-')} must be positive and finite, got {value:g}")
        lines, code = args.handler(args)
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "report.txt"), "w") as fh:
            fh.write("\n".join(lines) + "\n")
    except np.linalg.LinAlgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
