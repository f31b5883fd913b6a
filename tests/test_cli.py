import json
import os

import numpy as np
import pytest

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
from quasifree.cli import _build_parser, main

from conftest import make_twisted


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


def test_unknown_catalog_name_exits_2(tmp_path):
    assert run(["spectrum", "--model", "nope", "--dims", "8", "--out", str(tmp_path)]) == 2


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
    assert (tmp_path / "asymmetry.csv").read_text().strip() == "k_1,band,M,P"


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
    _, asym = read_csv(tmp_path / "asymmetry.csv")
    assert len(asym) == 62  # every non-self-conjugate momentum carries |M| = 1


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


def test_verify_clean_run_and_determinism(tmp_path):
    args = [
        "verify", "--dims", "32", "--count", "30", "--range", "2",
        "--seed", "20240", "--out", str(tmp_path),
    ]
    assert run(args) == 0
    first = (tmp_path / "report.txt").read_bytes()
    assert run(args) == 0
    assert (tmp_path / "report.txt").read_bytes() == first
    assert b"falsifications (invariant >= 1e-08): 0" in first


def test_verify_count_zero_warns(tmp_path, capsys):
    assert run(["verify", "--dims", "8", "--count", "0", "--out", str(tmp_path)]) == 0
    assert "warning" in capsys.readouterr().out


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


def test_oracle_command_rejects_build_beyond_physical_memory(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("quasifree.oracle.os.sysconf", lambda name: 1024)
    code = run(["oracle", "--model", "p-model", "--param", "p=2", "--dims", "5", "--out", str(tmp_path)])
    assert code == 2
    assert "physical memory" in capsys.readouterr().err


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


def test_invariants_finite_size_falsification_exits_1(tmp_path, capsys):
    # incommensurate twist at small N: the grid misses the band crossing, the
    # invariant stays macroscopic, and the check reports the inconsistency
    code = run([
        "invariants", "--model", "twisted-chain", "--param", "alpha=0.9",
        "--dims", "16", "--out", str(tmp_path),
    ])
    assert code == 1
    out = capsys.readouterr().out
    assert "FALSIFICATION" in out
    assert "verdict: gapless-by-invariant" in out


def test_csv_outputs_are_byte_identical_across_reruns(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["invariants", "--model", "twisted-chain", "--param", "alpha=0.7", "--dims", "32"]
    code_a = run([*args, "--out", str(a)])
    code_b = run([*args, "--out", str(b)])
    assert code_a == code_b
    assert (a / "invariants.csv").read_bytes() == (b / "invariants.csv").read_bytes()
    assert (a / "report.txt").read_bytes() == (b / "report.txt").read_bytes()


def test_closure_broken_by_resize_exits_2(tmp_path, capsys):
    # offset 2 is its own negation on 4 sites but not on 8, where hop(-2) is missing
    path = tmp_path / "m.json"
    save_model(CouplingSet(LatticeShape((4,), 1), {(2,): [[0.5]]}, {}), path)
    code = run(["spectrum", "--model", str(path), "--dims", "8", "--out", str(tmp_path)])
    assert code == 2
    assert "coupling closure" in capsys.readouterr().err


def test_eigensolver_failure_exits_3(tmp_path, monkeypatch, capsys):
    def fail(a, *args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    code = run(["spectrum", "--model", "p-model", "--dims", "8", "--out", str(tmp_path)])
    assert code == 3
    assert "eigensolver failed at momentum (0,)" in capsys.readouterr().err


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
    "spectrum": {"--model", "--param", "--dims", "--spin", "--zero-mode-tol", "--out"},
    "invariants": {"--model", "--param", "--dims", "--spin", "--gap-tol", "--inv-tol",
                   "--zero-mode-tol", "--out", "--offsets"},
    "verify": {"--dims", "--spin", "--seed", "--gap-tol", "--inv-tol", "--zero-mode-tol", "--out",
               "--count", "--range"},
    "entropy": {"--model", "--param", "--dims", "--spin", "--zero-mode-tol", "--out", "--lengths"},
    "oracle": {"--model", "--param", "--dims", "--spin", "--zero-mode-tol", "--degeneracy-tol",
               "--out"},
    "quench": {"--model", "--param", "--dims", "--spin", "--seed", "--zero-mode-tol", "--out",
               "--offsets", "--times", "--range"},
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


@pytest.mark.parametrize("command, flag", [
    ("invariants", "--gap-tol"), ("verify", "--inv-tol"), ("oracle", "--degeneracy-tol"),
    ("spectrum", "--zero-mode-tol"),
])
def test_nonpositive_tolerance_exits_2(tmp_path, capsys, command, flag):
    args = ["--dims", "8"] if command == "verify" else ["--model", "p-model", "--dims", "4"]
    assert run([command, *args, flag, "0", "--out", str(tmp_path)]) == 2
    assert f"{flag} must be positive" in capsys.readouterr().err
