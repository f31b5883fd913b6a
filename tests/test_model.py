import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasifree import (
    CouplingSet,
    LatticeShape,
    ModelParams,
    bdg_blocks,
    catalog,
    inversion_transform,
    load_model,
    random_model,
    save_model,
    symmetrize,
    validate,
)
from quasifree.lattice import fourier_circulant
from quasifree.model import particle_hole_residual

from conftest import make_p_model, make_twisted


def chain(n):
    return LatticeShape((n,), 1)


def test_validate_accepts_antihermitian_hop_pair():
    cs = CouplingSet(chain(8), {(1,): [[0.5j]], (-1,): [[-0.5j]]}, {})
    assert validate(cs) == []


def test_validate_flags_missing_partner():
    cs = CouplingSet(chain(8), {(1,): [[1.0]]}, {})
    bad = validate(cs)
    assert any(v.offset == (7,) and v.kind == "hop" for v in bad)


def test_validate_flags_onsite_diagonal_pairing():
    cs = CouplingSet(chain(8), {}, {(0,): [[1.0]]})
    bad = validate(cs)
    assert any(v.kind == "pair" and v.offset == (0,) for v in bad)


def test_symmetrize_is_identity_on_valid_sets(p_model_64):
    again = symmetrize(p_model_64.shape, p_model_64.hop, p_model_64.pair)
    for n, mat in p_model_64.hop.items():
        assert np.abs(again.hop[n] - mat).max() < 1e-15


def test_symmetrize_averages_hermitian_partner():
    cs = symmetrize(chain(8), {(1,): [[1.0]], (-1,): [[0.0]]})
    assert cs.hop[(1,)][0, 0] == pytest.approx(0.5)
    assert cs.hop[(7,)][0, 0] == pytest.approx(0.5)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), spin=st.integers(1, 2))
def test_symmetrize_output_always_validates(seed, spin):
    shape = LatticeShape((6,), spin)
    rng = np.random.default_rng(seed)
    raw = lambda: {
        shape.reduce((n,)): rng.normal(size=(spin, spin)) + 1j * rng.normal(size=(spin, spin))
        for n in range(-2, 3)
    }
    assert validate(symmetrize(shape, raw(), raw())) == []


def test_bdg_onsite_block_is_momentum_independent():
    mu = 0.7
    cs = CouplingSet(chain(6), {(0,): [[mu]]}, {})
    blocks = bdg_blocks(cs)
    for blk in blocks:
        assert np.allclose(blk, np.diag([mu, -mu]), atol=1e-15)


def test_bdg_p_model_matches_momentum_display(p_model_64):
    # hand-coded momentum-space matrix of the catalog model
    p, n = 2.0, 64
    blocks = bdg_blocks(p_model_64)
    rng = np.random.default_rng(1)
    for k in rng.integers(0, n, size=10):
        kt = 2 * np.pi * k / n
        a_k = np.array([
            [(p - 1) / 2 + (p + 1) / 2 * np.sin(kt), -(p + 1) / 2 * np.cos(kt)],
            [-(p + 1) / 2 * np.cos(kt), (p - 1) / 2 - (p + 1) / 2 * np.sin(kt)],
        ])
        blk = blocks[k]
        assert np.abs(blk[:2, :2] - a_k).max() < 1e-14
        assert np.abs(blk[:2, 2:]).max() < 1e-14


def test_bdg_blocks_are_hermitian_and_ph_symmetric():
    for seed in range(5):
        shape = LatticeShape((10,), 2)
        cs = random_model(shape, reach=2, pairing=True, seed=seed)
        blocks = bdg_blocks(cs)
        herm = np.abs(blocks - np.conj(np.transpose(blocks, (0, 2, 1)))).max()
        assert herm < 1e-13
        assert particle_hole_residual(blocks, shape) < 1e-13


def test_bdg_rejects_invalid_set():
    cs = CouplingSet(chain(8), {(1,): [[1.0]]}, {})
    with pytest.raises(ValueError, match="invalid"):
        bdg_blocks(cs)


def test_inversion_fixed_point_iff_hop_hermitian():
    sym = CouplingSet(chain(8), {(1,): [[0.5]], (-1,): [[0.5]]}, {})
    out = inversion_transform(sym)
    assert np.abs(out.hop[(1,)] - sym.hop[(1,)]).max() < 1e-15

    asym = CouplingSet(chain(8), {(1,): [[(1 + 1j) / 2]], (-1,): [[(1 - 1j) / 2]]}, {})
    out = inversion_transform(asym)
    assert out.hop[(1,)][0, 0] == pytest.approx((1 - 1j) / 2)
    assert out.hop[(7,)][0, 0] == pytest.approx((1 + 1j) / 2)


def test_inversion_is_involution_and_preserves_validity():
    cs = random_model(LatticeShape((12,), 2), reach=2, pairing=True, seed=3)
    once = inversion_transform(cs)
    assert validate(once) == []
    twice = inversion_transform(once)
    for n in cs.hop:
        assert np.abs(twice.hop[n] - cs.hop[n]).max() < 1e-15
    for n in cs.pair:
        assert np.abs(twice.pair[n] - cs.pair[n]).max() < 1e-15


def test_catalog_p_model_requires_valid_parameters():
    with pytest.raises(ValueError, match="p > 0"):
        make_p_model(8, -1.0)
    with pytest.raises(ValueError, match="spin=2"):
        catalog(ModelParams("p-model", {"p": 2.0}, chain(8)))
    with pytest.raises(ValueError, match="unknown catalog"):
        catalog(ModelParams("no-such-model", {}, chain(8)))


def test_catalog_twisted_chain_band():
    n = 8
    for alpha in (0.0, np.pi / 2, 1.3):
        cs = make_twisted(n, alpha)
        a_k = fourier_circulant(cs.hop, cs.shape)[:, 0, 0]
        kt = 2 * np.pi * np.arange(n) / n
        assert np.abs(a_k - np.cos(kt - alpha)).max() < 1e-14
    # quarter twist makes the band odd in momentum
    cs = make_twisted(n, np.pi / 2)
    a_k = fourier_circulant(cs.hop, cs.shape)[:, 0, 0].real
    neg = cs.shape.negation_table
    assert np.abs(a_k + a_k[neg]).max() < 1e-14


def test_catalog_spinless_general_builds_kitaev_couplings():
    # A_k = cos k - mu and B_k = i sin k
    mu = 0.4
    cs = catalog(ModelParams(
        "spinless-general",
        {"a0": -mu, "a1_re": 0.5, "b1_re": -0.5},
        chain(8),
    ))
    a_k = fourier_circulant(cs.hop, cs.shape)[:, 0, 0]
    b_k = fourier_circulant(cs.pair, cs.shape)[:, 0, 0]
    kt = 2 * np.pi * np.arange(8) / 8
    assert np.abs(a_k - (np.cos(kt) - mu)).max() < 1e-14
    assert np.abs(b_k - 1j * np.sin(kt)).max() < 1e-14


def test_catalog_spinless_general_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unrecognized"):
        catalog(ModelParams("spinless-general", {"j2": 1.0}, chain(8)))


def test_random_model_deterministic_and_valid():
    shape = LatticeShape((10,), 2)
    a = random_model(shape, reach=2, pairing=True, seed=42)
    b = random_model(shape, reach=2, pairing=True, seed=42)
    for n in a.hop:
        assert np.array_equal(a.hop[n], b.hop[n])
    for n in a.pair:
        assert np.array_equal(a.pair[n], b.pair[n])
    for seed in range(30):
        assert validate(random_model(shape, reach=2, pairing=seed % 2 == 0, seed=seed)) == []


def test_random_model_onsite_only_when_reach_zero():
    cs = random_model(LatticeShape((6,), 2), reach=0, pairing=False, seed=0)
    assert set(cs.hop) == {(0,)}
    assert cs.pair == {}


def test_random_model_range_check():
    with pytest.raises(ValueError, match="too large"):
        random_model(chain(4), reach=2, pairing=False, seed=0)


def test_resized_preserves_signed_support():
    cs = random_model(LatticeShape((8,), 1), reach=2, pairing=True, seed=7)
    big = cs.resized((16,))
    assert big.shape.dims == (16,)
    for n, mat in cs.hop.items():
        target = big.shape.reduce(cs.shape.signed(n))
        assert np.abs(big.hop[target] - mat).max() < 1e-15
    assert validate(big) == []


def test_slope_bound_and_scaling():
    from quasifree.model import scaled, slope_bound

    # nearest-neighbor chain with |hop| = 1/2 on both offsets: bound exactly 1
    cs = make_twisted(8, 0.4)
    assert slope_bound(cs) == pytest.approx(1.0)
    half = scaled(cs, 0.5)
    assert slope_bound(half) == pytest.approx(0.5)
    assert validate(half) == []
    # bands scale with the couplings
    from quasifree import diagonalize

    assert diagonalize(half).gap == pytest.approx(0.5 * diagonalize(cs).gap, abs=1e-12)


def test_slope_bound_dominates_band_derivative():
    from quasifree.lattice import fourier_circulant
    from quasifree.model import slope_bound

    for seed in range(5):
        cs = random_model(LatticeShape((64,), 1), reach=2, pairing=True, seed=seed)
        bound = slope_bound(cs)
        lam = np.linalg.eigvalsh(bdg_blocks(cs))
        # finite-difference slope of every eigenvalue branch along the grid
        kt = 2 * np.pi / 64
        steep = np.abs(np.diff(np.sort(lam, axis=1), axis=0)).max() / kt
        assert steep <= bound + 1e-9


def test_model_file_round_trip(tmp_path, p_model_64):
    path = tmp_path / "model.json"
    save_model(p_model_64, path)
    loaded = load_model(path)
    assert loaded.projection_distance < 1e-15
    assert loaded.couplings.shape == p_model_64.shape
    for n, mat in p_model_64.hop.items():
        assert np.abs(loaded.couplings.hop[n] - mat).max() < 1e-15


def test_model_file_loader_projects_and_reports(tmp_path):
    path = tmp_path / "raw.json"
    doc = {
        "shape": {"dims": [8], "spin": 1},
        "couplings": [{"kind": "hop", "offset": [1], "matrix": [[[1.0, 0.0]]]}],
    }
    import json

    path.write_text(json.dumps(doc))
    loaded = load_model(path)
    assert loaded.projection_distance == pytest.approx(0.5)
    assert validate(loaded.couplings) == []
    assert loaded.couplings.hop[(1,)][0, 0] == pytest.approx(0.5)


def test_model_file_rejects_duplicates_and_bad_kind(tmp_path):
    import json

    dup = {
        "shape": {"dims": [4], "spin": 1},
        "couplings": [
            {"kind": "hop", "offset": [1], "matrix": [[[1, 0]]]},
            {"kind": "hop", "offset": [-3], "matrix": [[[1, 0]]]},
        ],
    }
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(dup))
    with pytest.raises(ValueError, match="duplicate"):
        load_model(path)

    bad = {
        "shape": {"dims": [4], "spin": 1},
        "couplings": [{"kind": "hops", "offset": [1], "matrix": [[[1, 0]]]}],
    }
    path.write_text(json.dumps(bad))
    with pytest.raises(ValueError, match="kind"):
        load_model(path)
