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
from quasifree.model import CLOSURE_TOL, particle_hole_residual

from conftest import make_p_model, make_twisted


def chain(n):
    return LatticeShape((n,), 1)


def test_validate_accepts_antihermitian_hop_pair():
    cs = CouplingSet(chain(8), {(1,): [[0.5j]], (-1,): [[-0.5j]]}, {})
    assert validate(cs) == []


def test_validate_flags_missing_partner():
    with pytest.raises(ValueError, match=r"coupling closure[\s\S]*hop offset \(7,\)"):
        CouplingSet(chain(8), {(1,): [[1.0]]}, {})


def test_validate_flags_onsite_diagonal_pairing():
    with pytest.raises(ValueError, match=r"coupling closure[\s\S]*pair offset \(0,\)"):
        CouplingSet(chain(8), {}, {(0,): [[1.0]]})


@st.composite
def raw_tables(draw):
    """A lattice and raw hop/pair tables: random entries, some offsets given
    their closure partner, some partners perturbed."""
    shape = LatticeShape((draw(st.integers(2, 7)),), draw(st.integers(1, 2)))
    s = shape.spin
    entry = st.builds(complex, st.sampled_from([0.0, 1.0, -0.5, 0.25]),
                      st.sampled_from([0.0, 1.0, -2.0]))

    def table(partner):
        out = {}
        for n in draw(st.lists(st.integers(-8, 8), max_size=4)):
            out[(n,)] = np.array(draw(st.lists(entry, min_size=s * s, max_size=s * s))).reshape(s, s)
            if draw(st.booleans()):
                nudge = draw(st.sampled_from([0.0, 1e-13, 1e-6]))
                out[(-n,)] = partner(out[(n,)]) + nudge
        return out

    return shape, table(lambda m: m.conj().T), table(lambda m: -m.T)


def closure_deviation(shape, table, partner):
    """Independent reference: max entrywise |table(n) - partner(table(-n))|."""
    zero = np.zeros((shape.spin, shape.spin), dtype=complex)
    red = {shape.reduce(n): np.asarray(m, dtype=complex) for n, m in table.items()}
    return max((np.abs(red.get(n, zero) - partner(red.get(shape.negate(n), zero))).max()
                for n in red), default=0.0)


@settings(max_examples=200, deadline=None)
@given(raw_tables())
def test_coupling_set_is_valid_by_construction(data):
    shape, hop, pair = data
    unique = all(len({shape.reduce(n) for n in t}) == len(t) for t in (hop, pair))
    closed = (closure_deviation(shape, hop, lambda m: m.conj().T) <= CLOSURE_TOL
              and closure_deviation(shape, pair, lambda m: -m.T) <= CLOSURE_TOL)
    try:
        cs = CouplingSet(shape, hop, pair)
    except ValueError as exc:
        assert not (unique and closed)
        assert ("duplicate" if not unique else "coupling closure") in str(exc)
    else:
        assert unique and closed
        assert validate(cs) == []
    assert validate(symmetrize(shape, hop, pair)) == []


def old_symmetrize(shape, hop, pair=None):
    """The closure projection as written before ``CouplingSet`` checked closure
    itself; ``test_symmetrize_matches_previous_implementation`` pins to it."""
    pair = pair or {}
    s = shape.spin
    zero = np.zeros((s, s), dtype=complex)

    def project(table, partner_of):
        raw = {shape.reduce(n): np.asarray(m, dtype=complex) for n, m in table.items()}
        offsets = set(raw) | {shape.negate(n) for n in raw}
        proj = {}
        for n in offsets:
            a = raw.get(n, zero)
            b = raw.get(shape.negate(n), zero)
            proj[n] = (a + partner_of(b)) / 2
        return {n: m for n, m in proj.items() if np.abs(m).max() > 0.0}

    return project(hop, lambda b: b.conj().T), project(pair, lambda b: -b.T)


@pytest.mark.parametrize("dims", [(6,), (9,), (6, 6), (5, 5, 5), (12, 12, 12)])
def test_symmetrize_matches_previous_implementation(dims):
    # large partial supports, as on the 12^3 grid, are where a set of the same
    # offsets built another way iterates in another order
    for seed in range(8):
        rng = np.random.default_rng(seed)
        shape = LatticeShape(dims, 1 + seed % 2)
        s = shape.spin

        def draw():
            keep = rng.random() < 0.5
            return {n: rng.normal(size=(s, s)) + 1j * rng.normal(size=(s, s))
                    for n in np.ndindex(*dims) if keep or rng.random() < 0.7}

        hop, pair = draw(), draw()
        new = symmetrize(shape, hop, pair)
        for table, ref in zip((new.hop, new.pair), old_symmetrize(shape, hop, pair)):
            assert list(table) == list(ref)
            assert all(table[n].tobytes() == ref[n].tobytes() for n in ref)


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
    # bdg_blocks cannot receive one: construction refuses it
    with pytest.raises(ValueError, match=r"invalid coupling set[\s\S]*hop offset \(7,\)"):
        CouplingSet(chain(8), {(1,): [[1.0]]}, {})


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


@pytest.mark.parametrize("params", [
    {"a1": 1.0, "a7": 0.3},  # a7 is a1's partner on 8 sites and disagrees with it
    {"a0_im": 0.5},  # imaginary onsite energy
    {"b4": 0.5},  # offset 4 is self-paired on 8 sites, where pairing must vanish
])
def test_catalog_spinless_general_rejects_closure_violations(params):
    with pytest.raises(ValueError, match="coupling closure"):
        catalog(ModelParams("spinless-general", params, chain(8)))


def test_catalog_spinless_general_accepts_consistent_partner():
    cs = catalog(ModelParams("spinless-general", {"a1": 1.0, "a7": 1.0}, chain(8)))
    assert set(cs.hop) == {(1,), (7,)}
    assert cs.hop[(1,)][0, 0] == cs.hop[(7,)][0, 0] == 1.0


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
