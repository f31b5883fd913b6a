import itertools
import json
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasifree import (
    CouplingSet,
    LatticeShape,
    diagonalize,
    ground_covariance,
    invariant_map,
    load_model,
    random_model,
    save_model,
)
from quasifree.cli import CSV_CHUNK, FLOAT_FMT, _build_parser, _write_csv, main
from quasifree.model import symmetrize
from quasifree.oracle import build_fock_hamiltonian, exact_ground_correlators, fock_ground_state
from quasifree.solver import ground_energy

from conftest import QUENCH_SHORT_MEMORY, fake_sysconf, make_p_model, make_twisted


def run(args):
    return main(args)


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_spectrum_p_model(tmp_path, capsys):
    code = run([
        "spectrum", "--model", "p-model", "--param", "p=2", "--dims", "16",
        "--out", str(tmp_path),
    ])
    assert code == 0
    header, rows = read_csv(tmp_path / "spectrum.csv")
    assert header == ["k_1", "lam_1", "lam_2", "lam_3", "lam_4", "branch_1", "branch_2"]
    assert len(rows) == 16
    for row in rows:
        lam = sorted(float(v) for v in row[1:5])
        assert np.allclose(lam, [-2, -1, 1, 2], atol=1e-10)
        assert np.allclose([float(row[5]), float(row[6])], [-1, 2], atol=1e-10)
    out = capsys.readouterr().out
    gap_line = next(line for line in out.splitlines() if line.startswith("spectral gap"))
    assert float(gap_line.split(":")[1]) == pytest.approx(1.0, abs=1e-10)


def test_spectrum_refuses_a_lattice_beyond_physical_memory(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("quasifree.solver.os.sysconf", lambda name: 1024)
    code = run(["spectrum", "--model", "p-model", "--param", "p=2", "--dims", "16", "--out", str(tmp_path)])
    assert code == 2
    assert "physical memory" in capsys.readouterr().err
    assert not (tmp_path / "spectrum.csv").exists()


def test_quench_refuses_a_lattice_beyond_physical_memory(tmp_path, monkeypatch, capsys):
    # the ground state fits; the quench would not
    monkeypatch.setattr("quasifree.solver.os.sysconf", fake_sysconf(QUENCH_SHORT_MEMORY))
    code = run(["quench", "--model", "p-model", "--param", "p=2", "--dims", "4096", "--times", "0,1",
                "--out", str(tmp_path)])
    assert code == 2
    assert "physical memory" in capsys.readouterr().err
    assert not (tmp_path / "quench.csv").exists()


def test_spectrum_twisted_gap_at_band_zero(tmp_path):
    code = run([
        "spectrum", "--model", "twisted-chain", "--param", "param=0".replace("param", "alpha"),
        "--dims", "64", "--out", str(tmp_path),
    ])
    assert code == 0
    header, rows = read_csv(tmp_path / "spectrum.csv")
    by_abs = sorted(rows, key=lambda r: min(abs(float(r[1])), abs(float(r[2]))))
    # quarter twist handled separately; here just check rows parse and count
    assert len(by_abs) == 64


@pytest.mark.parametrize("params", [["a1=1", "a7=0.3"], ["a0_im=0.5"], ["b4=0.5"]],
                         ids=["conflicting-partner", "complex-onsite", "self-paired-pairing"])
def test_spinless_general_closure_violation_exits_2(tmp_path, capsys, params):
    args = ["spectrum", "--model", "spinless-general", "--dims", "8", "--out", str(tmp_path)]
    for p in params:
        args += ["--param", p]
    assert run(args) == 2
    assert "coupling closure" in capsys.readouterr().err
    assert not (tmp_path / "spectrum.csv").exists()


def test_spinless_general_offset_collision_exits_2(tmp_path, capsys):
    # a9 reduces to offset 1 on 8 sites, where a1 already sets it
    args = ["spectrum", "--model", "spinless-general", "--param", "a1=1", "--param", "a9=0.3",
            "--dims", "8", "--out", str(tmp_path)]
    assert run(args) == 2
    assert "'a1' and 'a9' both set offset (1,)" in capsys.readouterr().err
    assert not (tmp_path / "spectrum.csv").exists() and not (tmp_path / "report.txt").exists()


@pytest.mark.parametrize("model, params, message", [
    ("spinless-general", ["a1=1", "a1_re=2"], "'a1' and 'a1_re' both set the real part of offset (1,)"),
    ("p-model", ["p=1", "p=3"], "--param p=1 and p=3 both set 'p'"),
], ids=["two-spellings", "repeated-key"])
def test_one_parameter_set_twice_exits_2(tmp_path, capsys, model, params, message):
    args = ["spectrum", "--model", model, "--dims", "8", "--out", str(tmp_path)]
    for p in params:
        args += ["--param", p]
    assert run(args) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "report.txt").exists()


def test_spectrum_spinless_general_catalog(tmp_path):
    code = run([
        "spectrum", "--model", "spinless-general",
        "--param", "a0=-0.4", "--param", "a1_re=0.5", "--param", "b1_re=-0.5",
        "--dims", "12", "--out", str(tmp_path),
    ])
    assert code == 0
    header, rows = read_csv(tmp_path / "spectrum.csv")
    assert len(rows) == 12
    kt = 2 * np.pi * np.arange(12) / 12
    expected = np.sqrt((np.cos(kt) - 0.4) ** 2 + np.sin(kt) ** 2)
    got = np.array([abs(float(r[2])) for r in rows])  # upper band
    assert np.allclose(np.sort(got), np.sort(expected), atol=1e-10)


def test_invalid_model_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "shape": {"dims": [4], "spin": 1},
        "couplings": [{"kind": "hops", "offset": [1], "matrix": [[[1, 0]]]}],
    }))
    code = run(["spectrum", "--model", str(bad), "--out", str(tmp_path)])
    assert code == 2
    assert "error" in capsys.readouterr().err


GOOD_RECORD = {"kind": "hop", "offset": [1], "matrix": [[[0.5, 0.0]]]}


@pytest.mark.parametrize("doc, field", [
    ({"shape": {"dims": [8]}, "couplings": [{"offset": [1], "matrix": [[[0.5, 0.0]]]}]}, "couplings[0].kind"),
    ({"couplings": [GOOD_RECORD]}, "shape"),
    ({"shape": {"dims": [8]}, "couplings": [{"kind": "hop", "offset": [1]}]}, "couplings[0].matrix"),
    ({"shape": {"dims": 8}, "couplings": [GOOD_RECORD]}, "shape.dims"),
    ([GOOD_RECORD], "document"),
    ({"shape": {"dims": [8]}, "couplings": [{**GOOD_RECORD, "offset": [1.5]}]}, "couplings[0].offset"),
], ids=["no-kind", "no-shape", "no-matrix", "dims-int", "top-level-list", "offset-float"])
def test_malformed_model_file_exits_2(tmp_path, capsys, doc, field):
    # a malformed file is invalid input, named by its field, not a traceback (exit 1)
    # and, for a fractional offset, not a silently truncated coupling (exit 0)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(["spectrum", "--model", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: model file: " + field) and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("model", ["p-model", "twisted-chain"])
def test_two_site_catalog_chain_exits_2(tmp_path, capsys, model):
    assert run(["spectrum", "--model", model, "--dims", "2", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {model} needs at least 3 sites, got dims (2,)\n"
    assert not (tmp_path / "report.txt").exists()


def test_unknown_catalog_name_exits_2(tmp_path):
    assert run(["spectrum", "--model", "nope", "--dims", "8", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("model, param", [("p-model", "q=2"), ("twisted-chain", "p=1")])
def test_unknown_catalog_parameter_exits_2(tmp_path, capsys, model, param):
    # a key the model does not take is invalid input, not ignored
    args = ["invariants", "--model", model, "--param", param, "--dims", "8", "--out", str(tmp_path)]
    assert run(args) == 2
    key = param.partition("=")[0]
    assert f"error: unrecognized {model} parameter {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "report.txt").exists()


def test_invariants_p_model(tmp_path, capsys):
    code = run([
        "invariants", "--model", "p-model", "--param", "p=2", "--dims", "32",
        "--out", str(tmp_path),
    ])
    assert code == 0
    header, rows = read_csv(tmp_path / "invariants.csv")
    assert header == ["n_1", "invariant"]
    assert len(rows) == 32
    assert max(abs(float(r[1])) for r in rows) < 1e-10
    assert float(rows[0][1]) == 0.0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1] == "verdict: consistent-gapped"
    assert (tmp_path / "asymmetry.csv").read_text() == "k_1,n_minus,imbalance\n"


@pytest.mark.parametrize("model", ["p-model", "pairing-8x6"])
def test_balanced_counts_write_unsigned_zeros(tmp_path, capsys, model):
    # balanced counts transform to exactly 0 at every offset, written "0", never "-0";
    # the 8x6 model's hopping is even and its pairing odd, so n(k) = n(-k) while the
    # branch takes both signs
    if model == "p-model":
        args = ["--model", "p-model", "--param", "p=2", "--dims", "64"]
    else:
        shape = LatticeShape((8, 6), 1)
        cs = symmetrize(shape, {(0, 0): [[1.0]], (1, 0): [[-1.0]], (0, 1): [[-1.0]]},
                        {(1, 0): [[0.5]], (0, 1): [[0.5j]]})
        sol = diagonalize(cs)
        assert sol.gap > 0.1 and (sol.branch < 0).any()
        save_model(cs, tmp_path / "m.json")
        args = ["--model", str(tmp_path / "m.json")]
    assert run(["invariants", *args, "--out", str(tmp_path / "out")]) == 0
    header, rows = read_csv(tmp_path / "out" / "invariants.csv")
    assert len(rows) == (64 if model == "p-model" else 48)
    assert [r[-1] for r in rows] == ["0"] * len(rows)
    assert "max |invariant|: 0" in capsys.readouterr().out.splitlines()


def test_invariants_twisted_chain(tmp_path, capsys):
    code = run([
        "invariants", "--model", "twisted-chain", "--param", "alpha=1.5707963267948966",
        "--dims", "64", "--out", str(tmp_path), "--offsets", "0,1,2",
    ])
    assert code == 0
    header, rows = read_csv(tmp_path / "invariants.csv")
    assert len(rows) == 3
    assert abs(float(rows[1][1])) > 0.1
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1] == "verdict: gapless-by-spectrum"
    header, asym = read_csv(tmp_path / "asymmetry.csv")
    assert header == ["k_1", "n_minus", "imbalance"]
    # band sin(k): every momentum but the self-conjugate ones is unbalanced, by -1 on
    # the first half of the zone, whose branch lies above zero, and by +1 on the second
    assert [int(r[0]) for r in asym] == [k for k in range(1, 64) if k != 32]
    assert [(r[1], r[2]) for r in asym] == [("0", "-1")] * 31 + [("1", "1")] * 31
    assert "asymmetric momenta: 62" in out


def test_invariants_offsets_on_two_dimensional_lattice(tmp_path):
    path = tmp_path / "m.json"
    save_model(random_model(LatticeShape((4, 3), 1), reach=1, pairing=False, seed=3), path)
    inv = invariant_map(ground_covariance(diagonalize(load_model(path).couplings)))
    assert np.abs(inv).max() > 1e-3
    # --gap-tol above the bandwidth: the verdict is gapless-by-spectrum, exit 0
    args = ["invariants", "--model", str(path), "--gap-tol", "100"]

    assert run([*args, "--offsets", "1,0;-1,2;7,-3;0,0;-5,5", "--out", str(tmp_path / "sel")]) == 0
    header, rows = read_csv(tmp_path / "sel" / "invariants.csv")
    assert header == ["n_1", "n_2", "invariant"]
    wanted = [(1, 0), (3, 2), (3, 0), (0, 0), (3, 2)]
    assert [(int(r[0]), int(r[1])) for r in rows] == wanted
    assert [float(r[2]) for r in rows] == [inv[n] for n in wanted]

    assert run([*args, "--out", str(tmp_path / "all")]) == 0
    _, rows = read_csv(tmp_path / "all" / "invariants.csv")
    assert [(int(r[0]), int(r[1])) for r in rows] == list(np.ndindex(4, 3))
    assert [float(r[2]) for r in rows] == inv.ravel().tolist()


@pytest.mark.parametrize("command, dims, file_dims, message", [
    ("spectrum", "5", (3, 3), "--dims (5,) is a 1-axis lattice, but the model file's (3, 3) is 2-axis"),
    ("quench", "4,4", (6,), "--dims (4, 4) is a 2-axis lattice, but the model file's (6,) is 1-axis"),
], ids=["2-D file", "1-D file"])
def test_dims_with_another_axis_count_than_the_model_file_exits_2(tmp_path, capsys, command, dims,
                                                                  file_dims, message):
    path = tmp_path / "m.json"
    save_model(random_model(LatticeShape(file_dims, 1), reach=1, pairing=True, seed=0), path)
    capsys.readouterr()
    assert run([command, "--model", str(path), "--dims", dims, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("file_dims, dims, axis, fits", [
    ((8,), "4", 1, "5"), ((8,), "3", 1, "5"), ((6, 6), "4,6", 1, "5,6"), ((6, 6), "6,3", 2, "6,5"),
], ids=["8 to 4", "8 to 3", "6x6 to 4x6", "6x6 to 6x3"])
def test_dims_that_fold_a_model_files_couplings_exit_2(tmp_path, capsys, file_dims, dims, axis, fits):
    # a reach-2 file on 4 sites or fewer along an axis: its offsets 2 and -2 would meet
    path = tmp_path / "m.json"
    save_model(random_model(LatticeShape(file_dims, 1), reach=2, pairing=True, seed=3), path)
    capsys.readouterr()
    assert run(["spectrum", "--model", str(path), "--dims", dims, "--out", str(tmp_path / "out")]) == 2
    wanted = tuple(int(n) for n in dims.split(","))
    assert capsys.readouterr().err == (f"error: --dims {wanted} would fold the model file's couplings: they "
                                       f"reach 2 sites along axis {axis}, which needs at least 5 sites\n")
    assert not (tmp_path / "out").exists()
    assert run(["spectrum", "--model", str(path), "--dims", fits, "--out", str(tmp_path / "fits")]) == 0


def test_verify_clean_run_and_determinism(tmp_path):
    args = [
        "verify", "--dims", "32", "--count", "30", "--range", "2",
        "--seed", "20240", "--out", str(tmp_path),
    ]
    assert run(args) == 0
    first = (tmp_path / "report.txt").read_bytes()
    assert run(args) == 0
    assert (tmp_path / "report.txt").read_bytes() == first
    assert b"certified gapless among them (invariant >= 1e-08): 0" in first


def test_verify_count_zero_warns(tmp_path, capsys):
    assert run(["verify", "--dims", "8", "--count", "0", "--out", str(tmp_path)]) == 0
    assert "warning" in capsys.readouterr().out
    assert "models drawn: 0" in (tmp_path / "report.txt").read_text().splitlines()


@pytest.mark.parametrize("dims, warns", [("32,32", True), ("32", False)])
def test_verify_gap_warning_sums_over_axes(tmp_path, capsys, dims, warns):
    # sum_i pi/N_i is 0.196 on 32 x 32 but 0.098 on 32 sites, against the default 0.1
    assert run(["verify", "--dims", dims, "--count", "0", "--out", str(tmp_path)]) == 0
    assert ("warning: gap threshold 0.1 is not above" in capsys.readouterr().out) == warns


def understate_slope_bound(monkeypatch):
    """``verify`` rescales each draw by a tenth of its true slope bound, so bands up to
    ten times steeper than assumed leak through the gap filter."""
    import quasifree.observables as obs

    bound = obs.slope_bound
    monkeypatch.setattr(obs, "slope_bound", lambda cs: bound(cs) / 10)


def test_verify_falsification_needs_a_leak_proof_filter(tmp_path, monkeypatch, capsys):
    # sum_i pi/N_i = 0.0785 on 40 sites, below the default 0.1: only a wrong slope
    # bound lets an unbalanced draw through
    understate_slope_bound(monkeypatch)
    assert run(["verify", "--dims", "40", "--count", "60", "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out[:5]] == [
        f"FALSIFICATION at seed {seed}" for seed in (20248, 20275, 20282, 20288, 20299)]
    assert "certified gapless among them (invariant >= 1e-08): 5" in out


@pytest.mark.parametrize("dims, certified", [("16", [20250]), ("40", [])], ids=["16-sites", "40-sites"])
def test_verify_lists_certified_gapless_draws(tmp_path, capsys, dims, certified):
    # below the leak (16 sites) an unbalanced draw gapped on the grid is certified
    # gapless; on 40 sites none is gapped on the grid
    assert run(["verify", "--dims", dims, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out[:len(certified)]] == [
        f"certified gapless at seed {seed}" for seed in certified]
    assert f"certified gapless among them (invariant >= 1e-08): {len(certified)}" in out
    assert not any("FALSIFICATION" in line for line in out)


def test_verify_negative_count_exits_2(tmp_path, capsys):
    assert run(["verify", "--dims", "8", "--count", "-3", "--out", str(tmp_path)]) == 2
    assert "count must be nonnegative, got -3" in capsys.readouterr().err
    assert not (tmp_path / "report.txt").exists()


def test_entropy_gapped_classification(tmp_path, capsys):
    code = run([
        "entropy", "--model", "p-model", "--param", "p=2", "--dims", "64",
        "--lengths", "4:16", "--out", str(tmp_path),
    ])
    assert code == 0
    assert "classification: area-law" in capsys.readouterr().out
    header, rows = read_csv(tmp_path / "entropy.csv")
    assert header == ["L", "S"]
    assert len(rows) == 13


def test_entropy_critical_classification(tmp_path, capsys):
    code = run([
        "entropy", "--model", "twisted-chain", "--param", "alpha=1.5707963267948966",
        "--dims", "96", "--lengths", "4:24", "--out", str(tmp_path),
    ])
    assert code == 0
    assert "classification: log-violation" in capsys.readouterr().out


@pytest.mark.parametrize("lengths", ["8,8,8,8,8,8,8,8", "4,5,6,20,20,20,20"])
def test_entropy_rejects_a_fit_window_of_repeated_lengths(tmp_path, capsys, lengths):
    # one distinct length in the window: a rank-1 design, whose minimum-norm fit
    # would read as a slope with zero residual
    code = run([
        "entropy", "--model", "twisted-chain", "--param", "alpha=1", "--dims", "64",
        "--lengths", lengths, "--out", str(tmp_path),
    ])
    assert code == 2
    assert "need at least 4 distinct lengths in the fit window, got 1" in capsys.readouterr().err
    assert not (tmp_path / "entropy.csv").exists()


def test_entropy_rejects_two_point_fit(tmp_path):
    code = run([
        "entropy", "--model", "twisted-chain", "--dims", "32",
        "--lengths", "4,8", "--out", str(tmp_path),
    ])
    assert code == 2


@pytest.mark.parametrize("lengths", ["10:40", "0:8"])
def test_entropy_rejects_lengths_outside_chain(tmp_path, capsys, lengths):
    code = run([
        "entropy", "--model", "p-model", "--dims", "16",
        "--lengths", lengths, "--out", str(tmp_path),
    ])
    assert code == 2
    assert "outside 1..16" in capsys.readouterr().err


def test_entropy_short_default_lengths_names_the_flag(tmp_path, capsys):
    code = run(["entropy", "--model", "p-model", "--dims", "32", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "--lengths 4:8" in err and "4:N/4" in err


def test_entropy_empty_lengths_range_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["entropy", "--model", "p-model", "--dims", "64", "--lengths", "5:4",
             "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "argument --lengths: empty range '5:4'" in capsys.readouterr().err
    assert not (tmp_path / "entropy.csv").exists()


def test_entropy_rejects_two_dimensional_model(tmp_path):
    shape = LatticeShape((4, 4), 1)
    from quasifree import random_model

    path = tmp_path / "twod.json"
    save_model(random_model(shape, reach=1, pairing=False, seed=0), path)
    assert run(["entropy", "--model", str(path), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("args", [
    ["quench", "--model", "p-model", "--dims", "4"],
    ["verify", "--dims", "4,4", "--count", "2"],
], ids=["quench", "verify"])
def test_default_range_fits_small_lattices(tmp_path, capsys, args):
    assert run([*args, "--out", str(tmp_path)]) == 0
    assert "reach=1" in (tmp_path / "report.txt").read_text()
    assert run([*args, "--range", "2", "--out", str(tmp_path / "explicit")]) == 2
    assert "reach 2 too large" in capsys.readouterr().err


def test_oracle_command_p_model(tmp_path, capsys):
    code = run([
        "oracle", "--model", "p-model", "--param", "p=2", "--dims", "4",
        "--out", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "agreement: PASS" in out


def test_oracle_command_rejects_large_lattice(tmp_path):
    code = run(["oracle", "--model", "p-model", "--dims", "16", "--out", str(tmp_path)])
    assert code == 2


def test_oracle_command_reports_library_mode_cap(tmp_path, capsys):
    code = run(["oracle", "--model", "twisted-chain", "--param", "alpha=0", "--dims", "15",
                "--out", str(tmp_path)])
    assert code == 2
    assert "dense Fock-space cap" in capsys.readouterr().err


def test_oracle_command_checks_the_mode_cap_before_diagonalizing(tmp_path, monkeypatch, capsys):
    # 16 modes: refused before the momentum route runs at all
    def refuse(*args, **kwargs):
        raise AssertionError("diagonalize ran before the mode cap was checked")

    monkeypatch.setattr("quasifree.cli.diagonalize", refuse)
    code = run(["oracle", "--model", "p-model", "--param", "p=2", "--dims", "8", "--out", str(tmp_path)])
    assert code == 2
    assert "16 modes exceeds the dense Fock-space cap" in capsys.readouterr().err


def test_oracle_command_rejects_build_beyond_physical_memory(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("quasifree.solver.os.sysconf", lambda name: 1024)
    code = run(["oracle", "--model", "p-model", "--param", "p=2", "--dims", "5", "--out", str(tmp_path)])
    assert code == 2
    assert "physical memory" in capsys.readouterr().err


def test_oracle_command_fits_where_time_evolution_would_not(tmp_path, monkeypatch, capsys):
    # 10 modes, 4^10 entries of h, each estimate plus 64 MiB: the command never
    # forms h and counts its blocks, 16 bytes per entry of 5 x 52^2 at the largest,
    # 5 particles, and beside them one particle number's column slab, 16 bytes per
    # entry of its C(10, N) rows by its orbit representatives, and twice its blocks,
    # about 1.2 MB in all; the dense build is counted 16 bytes per entry of h and the
    # parity-sector ground state of h 36 MiB (h, each parity's quarter-of-h block,
    # one parity's quarter-of-h slab and twice its block); this machine fits the
    # command and the build, but not the dense ground state
    monkeypatch.setattr("quasifree.solver.os.sysconf", fake_sysconf(96 << 20))
    code = run(["oracle", "--model", "p-model", "--param", "p=2", "--dims", "5", "--out", str(tmp_path)])
    assert code == 0
    assert "agreement: PASS" in capsys.readouterr().out
    h = build_fock_hamiltonian(make_p_model(5, 2.0))
    with pytest.raises(ValueError, match="physical memory"):
        exact_ground_correlators(h)


def test_oracle_memory_estimate_counts_group_rows(tmp_path, monkeypatch, capsys):
    # the 12-mode p-model's sectors, plus 64 MiB: 16 bytes per entry of the blocks
    # of the 6 translations of every particle number N, and beside them, for one N
    # at a time, 16 per entry of its C(12, N) rows by its orbit representatives and
    # twice its blocks, about 15 MB; a full-height slab of 2^12 rows would ask about
    # 8 MB more, and a machine just above the estimate runs the command
    import quasifree.oracle as oracle

    targets, _ = oracle._translations(12, (6,))
    particles = np.array([bin(x).count("1") for x in range(1 << 12)])
    blocks, current = [], []
    for n in range(13):
        group = np.nonzero(particles == n)[0]
        reps = np.count_nonzero(targets[:, group].min(axis=0) == group)
        blocks.append(16 * 6 * reps**2)
        current.append(16 * len(group) * reps + 2 * blocks[-1])
    need = (64 << 20) + sum(blocks) + max(current)
    args = ["oracle", "--model", "p-model", "--param", "p=2", "--dims", "6", "--out"]
    monkeypatch.setattr("quasifree.solver.os.sysconf", fake_sysconf(need - 1))
    assert run(args + [str(tmp_path / "short")]) == 2
    err = capsys.readouterr().err
    assert "the sectors of a 4096-state Fock space" in err and "physical memory" in err
    monkeypatch.setattr("quasifree.solver.os.sysconf", fake_sysconf(need + 4095))
    assert run(args + [str(tmp_path / "fits")]) == 0
    assert "agreement: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("n_sites", ["4", "5"])
def test_oracle_command_degenerate_ground_space_exits_2(tmp_path, capsys, n_sites):
    # at 5 sites the ground cluster of 16 levels lies just below dense levels
    code = run(["oracle", "--model", "spinless-general", "--param", "a0=5e-9", "--dims", n_sites,
                "--out", str(tmp_path)])
    assert code == 2
    assert "degenerate exact ground state" in capsys.readouterr().err
    assert not (tmp_path / "report.txt").exists()


def test_oracle_command_rejects_a_translation_breaking_hamiltonian(tmp_path, monkeypatch, capsys):
    # the command builds only the columns of h at the orbit representatives, on
    # their charge group's rows, and checks each entry the sector blocks use
    # against its Hermitian, translated partner; a break inside the one-particle
    # group, at h[2, 1] (mode 1 occupied, from mode 0), in state 2's row of the
    # group's slab, is an assembly fault
    import quasifree.oracle as oracle

    columns = oracle._fock_columns

    def broken(c, states, rows, *rest):
        cols = columns(c, states, rows, *rest)
        if states[0] == 1:
            cols[rows[2], 0] += 1e-9
        return cols

    monkeypatch.setattr(oracle, "_fock_columns", broken)
    code = run(["oracle", "--model", "p-model", "--param", "p=2", "--dims", "4", "--out", str(tmp_path)])
    assert code == 3
    assert "not Hermitian and translation invariant" in capsys.readouterr().err
    assert not (tmp_path / "report.txt").exists()


@pytest.mark.parametrize("model, row, charge", [
    (["p-model", "--param", "p=2"], 3, "particle-number"),
    (["spinless-general", "--param", "a1=1", "--param", "b1=0.5", "--param", "a0=0.3"], 1, "fermion-parity"),
], ids=["particle-number", "fermion-parity"])
def test_oracle_command_rejects_a_sector_leak(tmp_path, monkeypatch, capsys, model, row, charge):
    # a slab holds its charge group's rows alone, so a leak is a term that takes a
    # state out of the group: with a state of two particles for the pairing-free
    # p-model, and of one for the pairing chain, filed under the vacuum's group,
    # the terms of its column reach the rest of its own group, rows the vacuum
    # group's slab does not have; an assembly fault of a valid coupling set, not
    # invalid input
    import quasifree.oracle as oracle

    groups = oracle._charge_groups

    def misfiled(n_modes, number):
        vacuum, *rest = groups(n_modes, number)
        return [np.union1d(vacuum, [row])] + [np.setdiff1d(states, [row]) for states in rest]

    monkeypatch.setattr(oracle, "_charge_groups", misfiled)
    code = run(["oracle", "--model", *model, "--dims", "4", "--out", str(tmp_path)])
    assert code == 3
    assert f"couples the {charge} sectors" in capsys.readouterr().err
    assert not (tmp_path / "report.txt").exists()


def test_oracle_command_never_forms_the_dense_hamiltonian(tmp_path, monkeypatch, capsys):
    def refuse(c):
        raise AssertionError("the dense Fock Hamiltonian was built")

    import quasifree.oracle as oracle

    columns, built = oracle._fock_columns, []

    def counted(c, states, *rest):
        cols = columns(c, states, *rest)
        built.append(cols.shape)
        return cols

    monkeypatch.setattr(oracle, "build_fock_hamiltonian", refuse)
    monkeypatch.setattr(oracle, "_fock_columns", counted)
    code = run(["oracle", "--model", "p-model", "--param", "p=2", "--dims", "4", "--out", str(tmp_path)])
    assert code == 0
    assert "agreement: PASS" in capsys.readouterr().out
    # one slab per particle number of the pairing-free p-model, 0 to 8, together
    # well under the 2^8 columns of h: each orbit under the 4 translations has
    # one representative; each slab has exactly its particle number's C(8, N) rows
    assert len(built) == 9 and sum(n for _, n in built) < 2**8 / 3
    assert [rows for rows, _ in built] == [math.comb(8, n) for n in range(9)]


@pytest.mark.parametrize("pairing", [True, False], ids=["pairing", "pairing-free"])
def test_oracle_command_solves_the_momentum_route_once(tmp_path, monkeypatch, capsys, pairing):
    # one eigendecomposition, of the half-zone blocks, and no spectrum: the command's
    # diagonalize solution gives both the covariance and the energy's branch
    import quasifree.cli as cli
    import quasifree.solver as solver

    cs = random_model(LatticeShape((5,), 2), reach=1, pairing=pairing, seed=3)
    save_model(cs, tmp_path / "model.json")
    calls, spectra = [], []
    blocks, spectrum = solver.bdg_blocks, solver.spectrum
    monkeypatch.setattr(solver, "bdg_blocks", lambda c, rows=slice(None): calls.append(rows) or blocks(c, rows))
    for module in (solver, cli):
        monkeypatch.setattr(module, "spectrum", lambda c, **kw: spectra.append(c) or spectrum(c, **kw))
    code = run(["oracle", "--model", str(tmp_path / "model.json"), "--out", str(tmp_path / "out")])
    assert code == 0
    assert "agreement: PASS" in capsys.readouterr().out
    assert len(calls) == 1 and np.array_equal(calls[0], cs.shape.half_zone)
    assert spectra == []


@pytest.mark.parametrize("pairing", [True, False], ids=["pairing", "pairing-free"])
def test_oracle_command_runs_no_eigh_on_a_fock_sector(tmp_path, monkeypatch, capsys, pairing):
    # the ground sector's eigvalsh spectrum gives its ground vector by shifted solves:
    # eigh runs on diagonalize's momentum blocks and the 1 x 1 Rayleigh-Ritz matrix only
    import quasifree.oracle as oracle

    cs = random_model(LatticeShape((5,), 2), reach=1, pairing=pairing, seed=3)
    save_model(cs, tmp_path / "model.json")
    sectors, seen = [], []
    momentum_sectors, eigh = oracle._momentum_sectors, np.linalg.eigh

    def record(*args):
        group = momentum_sectors(*args)
        sectors.extend(group)
        return group

    monkeypatch.setattr(oracle, "_momentum_sectors", record)
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *r, **kw: seen.append(np.array(a)) or eigh(a, *r, **kw))
    code = run(["oracle", "--model", str(tmp_path / "model.json"), "--out", str(tmp_path / "out")])
    assert code == 0
    assert "agreement: PASS" in capsys.readouterr().out
    assert sectors and seen
    assert not any(a.shape == s.block.shape and np.array_equal(a, s.block) for a in seen for s in sectors)
    assert all(a.ndim == 3 and a.shape[1:] == (4, 4) or a.shape == (1, 1) for a in seen)
    assert fock_ground_state(cs).vectors.tobytes() == fock_ground_state(cs).vectors.tobytes()


@pytest.mark.parametrize("pairing", [True, False], ids=["pairing", "pairing-free"])
def test_oracle_command_runs_eigvalsh_only_on_sectors_below_the_shift(tmp_path, monkeypatch, capsys, pairing):
    # the momentum route's E0 + gap sets the shift sigma: a sector with a level at or
    # below it gets eigvalsh, every other one is certified by one Cholesky factorization
    # of the sector block minus sigma and gets no spectrum
    import quasifree.oracle as oracle

    cs = random_model(LatticeShape((5,), 2), reach=1, pairing=pairing, seed=3)
    save_model(cs, tmp_path / "model.json")
    sol = diagonalize(cs)
    hint = ground_energy(cs, sol) + sol.gap
    sigma = hint + 1e-8 * max(1.0, abs(hint))
    assert not fock_ground_state(cs).degenerate
    sectors, solved, factored = [], [], []
    momentum_sectors, eigvalsh, cholesky = oracle._momentum_sectors, np.linalg.eigvalsh, np.linalg.cholesky

    def record(*args):
        group = momentum_sectors(*args)
        sectors.extend(group)
        return group

    monkeypatch.setattr(oracle, "_momentum_sectors", record)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solved.append(np.array(a)) or eigvalsh(a))
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: factored.append(np.array(a)) or cholesky(a))
    code = run(["oracle", "--model", str(tmp_path / "model.json"), "--out", str(tmp_path / "out")])
    assert code == 0
    assert "agreement: PASS" in capsys.readouterr().out

    def passed(block, seen):
        return any(a.shape == block.shape and np.array_equal(a, block) for a in seen)

    low = [eigvalsh(s.block)[0] <= sigma for s in sectors]
    assert 0 < sum(low) < len(sectors)
    for s, below in zip(sectors, low):
        assert passed(s.block, solved) == below
        if not below:
            assert passed(s.block - sigma * np.eye(len(s.block)), factored)


def test_oracle_command_rejects_zero_modes(tmp_path, capsys):
    code = run([
        "oracle", "--model", "twisted-chain", "--param", "alpha=1.5707963267948966",
        "--dims", "8", "--out", str(tmp_path),
    ])
    assert code == 2
    assert "zero modes" in capsys.readouterr().err


def test_quench_conservation_and_t0_row(tmp_path):
    out_inv = tmp_path / "inv"
    out_q = tmp_path / "q"
    model_args = ["--model", "twisted-chain", "--param", "alpha=1.5707963267948966", "--dims", "16"]
    assert run(["invariants", *model_args, "--out", str(out_inv)]) == 0
    code = run([
        "quench", *model_args, "--times", "0,1,2,3,4,5", "--seed", "3",
        "--out", str(out_q),
    ])
    assert code == 0
    _, inv_rows = read_csv(out_inv / "invariants.csv")
    _, q_rows = read_csv(out_q / "quench.csv")
    inv_by_offset = {r[0]: float(r[1]) for r in inv_rows}
    for row in q_rows:
        if float(row[0]) == 0.0:
            assert inv_by_offset[row[1]] == pytest.approx(float(row[2]), abs=1e-12)
    # flat lines: spread across times below threshold per offset
    spreads = {}
    for row in q_rows:
        spreads.setdefault(row[1], []).append(float(row[2]))
    assert max(max(v) - min(v) for v in spreads.values()) < 1e-9


def test_quench_shape_mismatch_is_input_error(tmp_path):
    path = tmp_path / "m.json"
    save_model(make_twisted(8, 0.0), path)
    # --dims resize keeps this valid, so force mismatch via a two-axis dims string
    code = run(["quench", "--model", str(path), "--dims", "8,8", "--out", str(tmp_path)])
    assert code == 2


@pytest.mark.parametrize("alpha", ["0.9", "1.0"])
def test_invariants_finite_size_certificate_exits_0(tmp_path, capsys, alpha):
    # incommensurate twist at small N: the grid misses the band crossing, but the
    # invariant stays macroscopic and certifies it
    code = run([
        "invariants", "--model", "twisted-chain", "--param", f"alpha={alpha}",
        "--dims", "16", "--out", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "FALSIFICATION" not in out
    assert out.splitlines()[-1] == "verdict: gapless-by-invariant"


def test_csv_outputs_are_byte_identical_across_reruns(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["invariants", "--model", "twisted-chain", "--param", "alpha=0.7", "--dims", "32"]
    code_a = run([*args, "--out", str(a)])
    code_b = run([*args, "--out", str(b)])
    assert code_a == code_b
    assert (a / "invariants.csv").read_bytes() == (b / "invariants.csv").read_bytes()
    assert (a / "report.txt").read_bytes() == (b / "report.txt").read_bytes()


def old_write_csv(out, name, header, columns) -> None:
    """``cli._write_csv`` as written with one ``%`` per ``CSV_CHUNK`` rows;
    ``test_write_csv_matches_the_per_row_format`` pins to it."""
    columns = [np.asarray(c) for c in columns]
    row = ",".join("%d" if c.dtype.kind in "iu" else FLOAT_FMT for c in columns) + "\n"
    values = [c.tolist() for c in columns]
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, name), "w") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(values[0]), CSV_CHUNK):
            part = list(zip(*(v[lo:lo + CSV_CHUNK] for v in values)))
            fh.write((row * len(part)) % tuple(itertools.chain.from_iterable(part)))


INT_VALUES = st.sampled_from([0, -1, 2**62, -2**62, -2**63, 2**63 - 1]) | st.integers(-2**63, 2**63 - 1)
FLOAT_VALUES = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324]) | st.floats()


@st.composite
def csv_tables(draw):
    """1-6 equal-length int or float columns: values drawn from a pool of 1-3 (so
    they repeat) or from random bit patterns (so they mostly do not), as arrays or
    as Python lists."""
    n_rows = draw(st.sampled_from([0, 1, CSV_CHUNK - 1, CSV_CHUNK, CSV_CHUNK + 1]))
    columns = []
    for _ in range(draw(st.integers(1, 6))):
        is_int = draw(st.booleans())
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        if draw(st.booleans()):
            pool = draw(st.lists(INT_VALUES if is_int else FLOAT_VALUES, min_size=1, max_size=3))
            column = np.array(pool, dtype=np.int64 if is_int else float)[rng.integers(len(pool), size=n_rows)]
        else:
            column = np.frombuffer(rng.bytes(8 * n_rows), dtype=np.int64 if is_int else float)
        columns.append(column.tolist() if draw(st.booleans()) else column)
    return columns


@settings(max_examples=100, deadline=None)
@given(columns=csv_tables())
@example(columns=[[-0.0, 0.0, -0.0]])
@example(columns=[np.array([0.0, -0.0, 1e-300, 0.30000000000000004, -1.2345678901234567e-300, 0.0] * 700)])
@example(columns=[np.array([], dtype=float), np.array([], dtype=np.int64)])
@example(columns=[np.array([-(10 ** (i % 19)) for i in range(CSV_CHUNK)] + [-2**63])])
def test_write_csv_matches_the_per_row_format(tmp_path_factory, columns):
    # formatting each distinct value once, into a table as wide as its longest text,
    # must leave every byte of the CSV as it was
    out = tmp_path_factory.mktemp("csv")
    header = [f"c_{i}" for i in range(len(columns))]
    old_write_csv(out, "old.csv", header, columns)
    _write_csv(out, "new.csv", header, columns)
    assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()


def test_projection_note_goes_to_stderr(tmp_path, capsys):
    # a hop on offset 1 without its Hermitian partner is projected by distance 0.5
    path = tmp_path / "raw.json"
    path.write_text(json.dumps({
        "shape": {"dims": [8], "spin": 1},
        "couplings": [{"kind": "hop", "offset": [1], "matrix": [[[1.0, 0.0]]]}],
    }))
    assert run(["spectrum", "--model", str(path), "--out", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == (tmp_path / "report.txt").read_text()
    assert "model file closure projection distance: 5.000e-01" in captured.err


def test_closure_broken_by_resize_exits_2(tmp_path, capsys):
    # offset 2 is its own negation on 4 sites but not on 8, where hop(-2) is missing
    path = tmp_path / "m.json"
    save_model(CouplingSet(LatticeShape((4,), 1), {(2,): [[0.5]]}, {}), path)
    code = run(["spectrum", "--model", str(path), "--dims", "8", "--out", str(tmp_path)])
    assert code == 2
    assert "coupling closure" in capsys.readouterr().err


def overflow_file(path):
    # finite entries whose hopping kernel overflows: A_k = 8e307 (1 + 2 cos k) I
    big = [[[8e307, 0.0], [0.0, 0.0]], [[0.0, 0.0], [8e307, 0.0]]]
    path.write_text(json.dumps({
        "shape": {"dims": [8], "spin": 2},
        "couplings": [{"kind": "hop", "offset": [n], "matrix": big} for n in (0, 1, -1)],
    }))
    return str(path)


def test_eigensolver_failure_exits_3(tmp_path, monkeypatch, capsys):
    # every eigensolver route: LAPACK eigvalsh of the 3x3 hopping kernels of a
    # pairing-free model, eigh of the BdG blocks of a pairing one, and, on kernels
    # that overflow, the closed form of 2x2 kernels (spectrum, invariants) and eigh
    # of their BdG blocks (entropy)
    def fail(a, *args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    path = tmp_path / "s3.json"
    save_model(random_model(LatticeShape((8,), 3), reach=1, pairing=False, seed=0), path)
    pairing = ["spinless-general", "--param", "a1=1", "--param", "b1=0.5", "--dims", "8"]
    for solver, model in [("eigvalsh", [str(path)]), ("eigh", pairing)]:
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, solver, fail)
            code = run(["spectrum", "--model", *model, "--out", str(tmp_path)])
        assert code == 3
        assert "eigensolver failed at momentum (0,)" in capsys.readouterr().err
    big = overflow_file(tmp_path / "big.json")
    for command in ("spectrum", "invariants", "entropy"):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run([command, "--model", big, "--out", str(tmp_path / command)])
        assert code == 3
        assert "non-finite result at momentum (0,)" in capsys.readouterr().err
        assert not (tmp_path / command).exists()


def test_spectrum_and_invariants_print_one_gap(tmp_path, capsys):
    # a pairing-free model whose gap the BdG eigh and the hopping-kernel eigvalsh
    # round differently: both commands read the one spectrum
    path = tmp_path / "m.json"
    save_model(random_model(LatticeShape((24,), 2), reach=2, pairing=False, seed=15), path)
    gaps = []
    for command in ("spectrum", "invariants"):
        run([command, "--model", str(path), "--out", str(tmp_path / command)])
        gaps.append(next(line for line in (tmp_path / command / "report.txt").read_text().splitlines()
                         if line.startswith("spectral gap: ")))
    assert gaps[0] == gaps[1]
    capsys.readouterr()


# model files whose hop at offset 1 holds a non-finite [re, im] entry
NON_FINITE_FILES = {"nan-file": [float("nan"), 0.0], "inf-real-file": [float("inf"), 0.0],
                    "inf-imag-file": [0.0, float("inf")]}


def non_finite_hop_file(path, entry):
    path.write_text(json.dumps({
        "shape": {"dims": [8], "spin": 1},
        "couplings": [{"kind": "hop", "offset": [1], "matrix": [[entry]]}],
    }))
    return str(path)


@pytest.mark.parametrize("args, message", [
    (["invariants", "--model", "nan-file"], "non-finite entry"),
    (["entropy", "--model", "nan-file", "--dims", "64"], "non-finite entry"),
    (["invariants", "--model", "inf-real-file"], "non-finite entry"),
    (["invariants", "--model", "inf-imag-file"], "non-finite entry"),
    (["invariants", "--model", "twisted-chain", "--param", "alpha=nan", "--dims", "8"], "non-finite entry"),
    (["invariants", "--model", "twisted-chain", "--param", "alpha=inf", "--dims", "8"], "non-finite entry"),
    (["spectrum", "--model", "p-model", "--param", "p=inf", "--dims", "8"], "finite p > 0"),
], ids=["file-invariants", "file-entropy", "file-inf-real", "file-inf-imag", "catalog-alpha-nan",
        "catalog-alpha-inf", "catalog-p-inf"])
def test_non_finite_coupling_exits_2(tmp_path, capsys, args, message):
    # refused before any arithmetic on the value, which would warn first
    args = [non_finite_hop_file(tmp_path / "m.json", NON_FINITE_FILES[a]) if a in NON_FINITE_FILES else a
            for a in args]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run([*args, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("times", ["0,nan", "0,inf"])
def test_quench_rejects_non_finite_times(tmp_path, capsys, times):
    with pytest.raises(SystemExit) as exc:
        run(["quench", "--model", "p-model", "--dims", "8", "--times", times, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "quench times must be finite" in capsys.readouterr().err
    assert not (tmp_path / "quench.csv").exists()


def test_quench_time_that_overflows_the_phase_exits_2(tmp_path, capsys):
    # t max|E'| overflows at 1e308 but not at 1e300: refused before any phase is
    # formed, where numpy would warn and the spread read nan
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run(["quench", "--model", "p-model", "--dims", "8", "--times", "0,1e308",
                    "--out", str(tmp_path / "big")])
        assert code == 2
        err = capsys.readouterr().err
        assert "quench time 1e+308 times the largest quench energy " in err and "is not finite" in err
        assert not (tmp_path / "big" / "quench.csv").exists()
        assert run(["quench", "--model", "p-model", "--dims", "8", "--times", "0,1e300",
                    "--out", str(tmp_path / "ok")]) == 0
    assert "conservation: PASS" in capsys.readouterr().out


def drop_last_fock_term(monkeypatch):
    import quasifree.oracle as oracle

    terms = oracle._terms
    monkeypatch.setattr(oracle, "_terms", lambda table, shape: tuple(a[:-1] for a in terms(table, shape)))


def test_non_hermitian_fock_assembly_exits_3(tmp_path, monkeypatch, capsys):
    drop_last_fock_term(monkeypatch)
    code = run(["oracle", "--model", "p-model", "--param", "p=2", "--dims", "4", "--out", str(tmp_path)])
    assert code == 3
    assert "not Hermitian" in capsys.readouterr().err


@pytest.mark.parametrize("args, code", [
    (["spectrum", "--model", "p-model", "--dims", "8"], 0),
    (["invariants", "--model", "twisted-chain", "--param", "alpha=0.9", "--dims", "16"], 0),
    (["verify", "--dims", "8", "--count", "2"], 0),
    (["verify", "--dims", "40", "--count", "9"], 1),
    (["entropy", "--model", "p-model", "--dims", "16", "--lengths", "4:12"], 0),
    (["oracle", "--model", "p-model", "--dims", "4"], 0),
    (["quench", "--model", "p-model", "--dims", "8", "--times", "0,1"], 0),
    (["entropy", "--model", "p-model", "--dims", "8"], 2),
    (["oracle", "--model", "p-model", "--dims", "4"], 3),
], ids=["spectrum", "invariants", "verify", "verify-falsified", "entropy", "oracle", "quench",
        "input-error", "internal-error"])
def test_stdout_is_the_report(tmp_path, monkeypatch, capsys, args, code):
    if code == 3:
        drop_last_fock_term(monkeypatch)
    if code == 1:
        understate_slope_bound(monkeypatch)
    assert run([*args, "--out", str(tmp_path)]) == code
    out = capsys.readouterr().out
    report = tmp_path / "report.txt"
    if code >= 2:
        assert out == "" and not report.exists()
    else:
        assert out == report.read_text()
    if code == 1:
        assert out.startswith("FALSIFICATION at seed 20248: grid gap ")


@pytest.mark.parametrize("model", [
    ["p-model"],
    ["spinless-general", "--param", "a1=1", "--param", "b1=0.5", "--param", "a0=0.3"],
], ids=["p-model", "spinless-general-pairing"])
def test_corrupted_entropy_covariance_exits_3(tmp_path, monkeypatch, capsys, model):
    import quasifree.observables as obs

    transform = obs.inverse_fourier
    monkeypatch.setattr(obs, "inverse_fourier", lambda kernel, shape: 3 * transform(kernel, shape))
    code = run(["entropy", "--model", *model, "--dims", "16", "--lengths", "4:8",
                "--out", str(tmp_path)])
    assert code == 3
    assert "corrupted" in capsys.readouterr().err


# the flags each command reads; it must reject every other one
READS = {
    "spectrum": {"--model", "--param", "--dims", "--zero-mode-tol", "--out"},
    "invariants": {"--model", "--param", "--dims", "--gap-tol", "--inv-tol", "--zero-mode-tol",
                   "--out", "--offsets"},
    "verify": {"--dims", "--spin", "--seed", "--gap-tol", "--inv-tol", "--zero-mode-tol", "--out",
               "--count", "--range"},
    "entropy": {"--model", "--param", "--dims", "--zero-mode-tol", "--out", "--lengths"},
    "oracle": {"--model", "--param", "--dims", "--zero-mode-tol", "--degeneracy-tol", "--out"},
    "quench": {"--model", "--param", "--dims", "--seed", "--zero-mode-tol", "--out", "--offsets",
               "--times", "--range"},
}


VALUE = {"--model": "p-model", "--param": "p=2", "--dims": "8", "--spin": "1", "--seed": "1",
         "--gap-tol": "1", "--inv-tol": "1", "--zero-mode-tol": "1", "--degeneracy-tol": "1",
         "--out": ".", "--offsets": "1", "--lengths": "4:8", "--times": "0,1", "--count": "1",
         "--range": "1"}


@pytest.mark.parametrize("command", list(READS))
def test_command_rejects_flags_it_does_not_read(command, capsys):
    parser = _build_parser()
    for flag in READS[command]:
        parser.parse_args([command, flag, VALUE[flag]])
    for flag in sorted(VALUE.keys() - READS[command]):
        with pytest.raises(SystemExit) as exc:
            run([command, flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


def test_parser_is_built_once_and_carries_no_state(tmp_path, capsys):
    # in one process every main call parses with the same parser; a --param of
    # the first call must not stay in the second, which runs with the catalog's p
    assert _build_parser() is _build_parser()
    args = ["spectrum", "--model", "p-model", "--dims", "8"]
    assert run(args + ["--param", "p=3", "--out", str(tmp_path / "p3")]) == 0
    assert run(args + ["--out", str(tmp_path / "default")]) == 0
    assert run(args + ["--param", "p=2", "--out", str(tmp_path / "p2")]) == 0
    capsys.readouterr()
    default = (tmp_path / "default" / "spectrum.csv").read_bytes()
    assert default == (tmp_path / "p2" / "spectrum.csv").read_bytes()
    assert default != (tmp_path / "p3" / "spectrum.csv").read_bytes()


@pytest.mark.parametrize("command, flag", [
    ("invariants", "--gap-tol"), ("verify", "--inv-tol"), ("oracle", "--degeneracy-tol"),
    ("spectrum", "--zero-mode-tol"),
])
def test_nonpositive_tolerance_exits_2(tmp_path, capsys, command, flag):
    args = ["--dims", "8"] if command == "verify" else ["--model", "p-model", "--dims", "4"]
    assert run([command, *args, flag, "0", "--out", str(tmp_path)]) == 2
    assert f"{flag} must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, flag", [
    ("invariants", "--gap-tol"), ("invariants", "--inv-tol"), ("verify", "--gap-tol"),
    ("spectrum", "--zero-mode-tol"), ("oracle", "--degeneracy-tol"),
])
def test_nonfinite_tolerance_exits_2(tmp_path, capsys, command, flag, value):
    # an infinite --inv-tol would call every gapped model consistent, a NaN --gap-tol
    # every draw gapped on the grid
    args = ["--dims", "8"] if command == "verify" else ["--model", "p-model", "--dims", "4"]
    assert run([command, *args, f"{flag}={value}", "--out", str(tmp_path)]) == 2
    assert f"{flag} must be positive and finite, got {value}" in capsys.readouterr().err
    assert not (tmp_path / "report.txt").exists()
