"""Benchmark of the ``quasifree`` command line, run in-process.

    python3 benchmarks/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One workload per process, so peak RSS and set-up time belong to it.  The
workload's commands run back to back through ``quasifree.cli.main`` (a closed
loop, one client) for ``--seconds`` seconds after set-up; every invocation is
checked (exit code, the report line that carries the verdict, identical
output digests across iterations) and the accuracy residuals are computed
outside the timed region.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a separate traced run.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the full result
with the machine record is written to ``.bench_out/<workload>/``.  See
``benchmarks/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("chain-invariants", "entropy-scan", "fock-oracle")
SETUP_REPEATS = 3
THREADS = min(2, len(os.sched_getaffinity(0)))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Idle OpenBLAS workers sleep after 2^4 cycles instead of spinning: a spinning
# worker kept the second CPU busy between calls and nearly doubled the spread
# of iteration times on a 2-CPU machine.
THREAD_TIMEOUT = "4"

# wall_s and setup_s are calibrated: each timing is divided by the time of a
# fixed numpy kernel measured next to it and multiplied by CAL_REF_S, i.e. they
# are seconds on a machine where the kernel takes CAL_REF_S.  On a shared
# 2-CPU VM the kernel's own time varied from 0.052 to 0.10 s between runs, and
# raw iteration medians of identical code by 30% between sets of runs.
CAL_REF_S = 0.06

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "accuracy_digits": "digits"}
LAYER_TIMES = (
    "lattice.fourier_circulant",
    "model.bdg_blocks", "model.validate", "model.load_model",
    "solver.diagonalize", "solver.eigh", "solver.ground_covariance", "solver.real_space",
    "solver.ground_energy",
    "observables.invariant_map", "observables.asymmetry_diagnostics",
    "observables.entropy_scan",
    "oracle.build_fock_hamiltonian", "oracle.exact_ground_correlators", "oracle.compare",
    "cli.main",
)
LAYER_COUNTS = {
    "lattice.support_offsets": "count", "lattice.kernel_bytes": "bytes",
    "solver.momenta": "count",
    "observables.entropy_lengths": "count", "observables.entropy_matrix_elems": "count",
    "oracle.fock_dim": "count", "oracle.hamiltonian_bytes": "bytes",
    "cli.rows_written": "count", "cli.bytes_written": "bytes",
}


def parse_args(argv):
    def nonneg(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("must be >= 0")
        return value

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=nonneg)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def machine_record(seed: int, np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    return {
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu, "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": THREADS, "git_commit": commit, "seed": seed,
    }


def calibration_kernel(np):
    """A fixed mix of the program's kinds of work: small-matrix calls in a Python
    loop, dict and string building, a 96x96 eigvalsh, a 160x160 complex eigh
    and a vector exp.  Inputs come from a fixed seed, never the workload's."""
    rng = np.random.default_rng(0)
    small = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    small = small + small.conj().T
    mid = rng.standard_normal((96, 96))
    mid = mid + mid.T
    big = rng.standard_normal((160, 160)) + 1j * rng.standard_normal((160, 160))
    big = big + big.conj().T
    angles = rng.uniform(0, 2 * np.pi, 4096)

    def run() -> float:
        start = time.perf_counter()
        for _ in range(4):
            for _ in range(150):
                _, vec = np.linalg.eigh(small)
                order = sorted(range(4), key=lambda a: -abs(vec[0, a]))
                np.concatenate([vec[:, order], vec.conj()], axis=1)
            {(i, i + 1): float(i) for i in range(3000)}
            ",".join("%.17g" % v for v in angles[:500])
            np.linalg.eigvalsh(mid)
            np.linalg.eigh(big)
            np.exp(1j * angles).sum()
        return time.perf_counter() - start

    run()  # first calls load LAPACK paths; not a sample
    return run


def digest_dir(path: Path) -> dict[str, str]:
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(path.iterdir()) if f.is_file()}


class Bench:
    """Runs a workload's commands, checks every invocation, keeps the failure tally."""

    def __init__(self, cli_main):
        self.cli_main = cli_main
        self.wl = None  # set once the workload's inputs are generated
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[int, set] = defaultdict(set)

    def fail(self, what: str) -> None:
        self.failures.append(what)
        print(f"FAILED: {what}", file=sys.stderr)

    def invoke(self, i: int, tracer=None) -> float:
        """One checked command; returns the wall time of ``cli.main`` alone."""
        cmd = self.wl.commands[i]
        shutil.rmtree(cmd.out, ignore_errors=True)
        argv = cmd.argv + ["--out", str(cmd.out)]
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
        gc.collect()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
                code = self.cli_main(argv)
        except (Exception, SystemExit):
            self.fail(f"{' '.join(argv)} raised:\n{traceback.format_exc()}")
            return time.perf_counter() - start
        wall = time.perf_counter() - start
        report = cmd.out / "report.txt"
        if code != 0:
            self.fail(f"{' '.join(argv)} exited {code}: {err.getvalue().strip()}")
        elif not report.is_file() or cmd.expect not in report.read_text().splitlines():
            self.fail(f"{' '.join(argv)}: report.txt lacks {cmd.expect!r}")
        else:
            digests = digest_dir(cmd.out)
            self.digests[i].add(tuple(sorted(digests.items())))
            if tracer:
                csvs = [f for f in cmd.out.iterdir() if f.suffix == ".csv"]
                tracer.count("cli.rows_written", sum(f.read_text().count("\n") - 1 for f in csvs))
                tracer.count("cli.bytes_written", sum(f.stat().st_size for f in cmd.out.iterdir()))
        return wall

    def iteration(self, tracer=None) -> float:
        wall = 0.0
        for i, cmd in enumerate(self.wl.commands):
            if tracer:
                try:
                    with tracer.span("bench.replay"):
                        cmd.replay(tracer)
                except Exception:
                    self.attempted += 1
                    self.fail(f"replay of {' '.join(cmd.argv)} raised:\n{traceback.format_exc()}")
            wall += self.invoke(i, tracer)
        return wall

    def check_outputs(self):
        """Accuracy gates and digest determinism; returns the accuracy record or None."""
        try:
            acc = self.wl.accuracy()
        except Exception:
            self.attempted += 1
            self.fail(f"accuracy check raised:\n{traceback.format_exc()}")
            return None
        self.attempted += len(acc.gated())
        for problem in acc.violations():
            self.fail(problem)
        for i, cmd in enumerate(self.wl.commands):
            seen = self.digests[i]
            self.attempted += 1
            if len(seen) != 1:
                self.fail(f"{' '.join(cmd.argv)}: {len(seen)} distinct output digests across iterations")
        return acc


def layer_metrics(tracer, untraced: list[float], traced_iters: list[int]) -> dict[str, tuple[float, str]]:
    """Per-layer medians over the traced iterations."""
    per_iter = []
    for it in traced_iters:
        tot = tracer.totals(it)
        row = {f"{name}_s": tot.get(name, 0.0) for name in LAYER_TIMES}
        row["solver.designation_s"] = (
            tot.get("solver.diagonalize", 0.0) - tot.get("model.bdg_blocks", 0.0) - tot.get("solver.eigh", 0.0))
        row["solver.eigh_share"] = (
            tot["solver.eigh"] / tot["solver.diagonalize"] if tot.get("solver.diagonalize") else 0.0)
        library = 0.0
        for idx, (name, _, _, _, span_it) in enumerate(tracer.spans):
            if name == "bench.replay" and span_it == it:
                for child in tracer.direct_children(idx):
                    child_name, start, end = tracer.spans[child][:3]
                    if not child_name.startswith("bench."):
                        library += end - start
        row["cli.overhead_s"] = tot.get("cli.main", 0.0) - library
        counts = tracer.counts[it]
        for name in LAYER_COUNTS:
            row[name] = counts.get(name, 0.0)
        per_iter.append(row)
    out = {}
    for name in per_iter[0]:
        unit = LAYER_COUNTS.get(name, "s" if name.endswith("_s") else "ratio")
        out[name] = (statistics.median(r[name] for r in per_iter), unit)
    traced_wall = statistics.median(tracer.totals(it).get("cli.main", 0.0) for it in traced_iters)
    out["trace.overhead_s"] = (traced_wall - statistics.median(untraced), "s")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "quasifree" / "__init__.py").is_file():
        print(f"error: no quasifree sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    os.environ["OPENBLAS_THREAD_TIMEOUT"] = THREAD_TIMEOUT
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))

    start = time.perf_counter()
    import quasifree.cli
    import_s = time.perf_counter() - start
    if Path(quasifree.__file__).resolve().parent != SRC / "quasifree":
        print(f"error: imported quasifree from {quasifree.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy as np

    import workloads
    from spans import Tracer

    work = OUT / args.workload
    work.mkdir(parents=True, exist_ok=True)

    calibrate = calibration_kernel(np)
    cal_prev = cal_import = calibrate()
    bench = Bench(quasifree.cli.main)
    setups, setup_ratios = [], []
    for _ in range(SETUP_REPEATS if args.trace == 0 else 1):
        start = time.perf_counter()
        bench.wl = workloads.build(args.workload, args.seed, work)
        bench.iteration()
        setups.append(time.perf_counter() - start)
        cal_next = calibrate()
        setup_ratios.append(setups[-1] / ((cal_prev + cal_next) / 2))
        cal_prev = cal_next

    walls: list[float] = []
    ratios: list[float] = []
    cals = [cal_prev]
    tracer = Tracer()
    traced_iters: list[int] = []
    start = time.perf_counter()
    while True:
        walls.append(bench.iteration())
        cals.append(calibrate())
        ratios.append(walls[-1] / ((cals[-2] + cals[-1]) / 2))
        if args.trace:
            tracer.iteration = len(traced_iters)
            with tracer.span("bench.iteration"):
                bench.iteration(tracer)
            traced_iters.append(tracer.iteration)
            cals.append(calibrate())
        if time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    acc = bench.check_outputs()
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "machine": machine_record(args.seed, np),
        "commands": [["quasifree"] + c.argv for c in bench.wl.commands],
        "samples": len(walls), "iteration_walls_s": walls, "setup_repeats_s": setups,
        "import_s": import_s, "calibration_ref_s": CAL_REF_S, "calibrations_s": [cal_import] + cals,
        "residuals": acc.residuals if acc else None, "skipped": acc.skipped if acc else None,
        "models_checked": acc.checked if acc else 0,
        "failures": bench.failures,
    }
    if args.trace == 0:
        metrics = {
            "wall_s": CAL_REF_S * statistics.median(ratios),
            "setup_s": CAL_REF_S * (import_s / cal_import + statistics.median(setup_ratios)),
            "peak_rss_mb": peak_rss_mb,
            "accuracy_digits": acc.digits() if acc else 0.0,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    else:
        metrics = layer_metrics(tracer, walls, traced_iters)
        tracer.write(work / f"spans-seed{args.seed}.jsonl")
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (work / f"result-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}: {len(walls)} timed iterations in {args.seconds:g} s "
          f"(closed loop, 1 client, {THREADS} BLAS threads); raw median iteration "
          f"{statistics.median(walls):.4g} s, median calibration {statistics.median(cals):.4g} s "
          f"(reference {CAL_REF_S:g} s)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    if acc:
        print("  residuals: " + ", ".join(f"{k} {v:.3e}" for k, v in acc.residuals.items())
              + (f"; skipped {acc.skipped}" if acc.skipped else ""))
    print("machine: " + json.dumps(record["machine"]))
    correct = not bench.failures
    print(json.dumps({
        "correct": correct, "attempted": bench.attempted, "failed": len(bench.failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
