import re
import warnings

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
    diagonalize,
    invariant_map,
    load_model,
    random_model,
    save_model,
    symmetrize,
    validate,
)
from quasifree.lattice import CouplingTable, fourier_circulant
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
    if unique:
        assert validate(symmetrize(shape, hop, pair)) == []
    else:
        with pytest.raises(ValueError, match="duplicate"):
            symmetrize(shape, hop, pair)


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


def assert_table_is(table, ref):
    """``table`` holds the entries of the ``{offset: matrix}`` dict ``ref`` bit for bit,
    its offsets in row-major order."""
    keys = sorted(ref)
    assert table.offsets.tolist() == [list(n) for n in keys]
    assert table.mats.tobytes() == b"".join(np.asarray(ref[n], dtype=complex).tobytes() for n in keys)


@pytest.mark.parametrize("dims", [(6,), (9,), (6, 6), (5, 5, 5), (12, 12, 12)])
def test_symmetrize_matches_previous_implementation(dims):
    # large partial supports, as on the 12^3 grid, where the reference's set of
    # offsets iterates in hash order and the table must come out row-major
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
            assert_table_is(table, ref)


def test_symmetrize_is_identity_on_valid_sets(p_model_64):
    again = symmetrize(p_model_64.shape, p_model_64.hop, p_model_64.pair)
    assert np.array_equal(again.hop.offsets, p_model_64.hop.offsets)
    assert np.abs(again.hop.mats - p_model_64.hop.mats).max() < 1e-15


def test_symmetrize_averages_hermitian_partner():
    cs = symmetrize(chain(8), {(1,): [[1.0]], (-1,): [[0.0]]})
    assert cs.hop.offsets.tolist() == [[1], [7]]
    assert cs.hop.mats[:, 0, 0] == pytest.approx([0.5, 0.5])


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


def inversion_transform(c):
    """Site-inversion image ``b_m -> i b_{-m}`` of a coupling set: ``hop(n) -> hop(-n)
    = hop(n)^dag`` and, with the sign of ``i^2``, ``pair(n) -> -pair(-n) = pair(n)^T``.
    An involution."""
    return CouplingSet(c.shape, CouplingTable(c.shape, c.hop.offsets, np.swapaxes(c.hop.mats, 1, 2).conj()),
                       CouplingTable(c.shape, c.pair.offsets, np.swapaxes(c.pair.mats, 1, 2)))


def test_inversion_fixed_point_iff_hop_hermitian():
    sym = CouplingSet(chain(8), {(1,): [[0.5]], (-1,): [[0.5]]}, {})
    out = inversion_transform(sym)
    assert np.array_equal(out.hop.offsets, sym.hop.offsets)
    assert np.abs(out.hop.mats - sym.hop.mats).max() < 1e-15

    asym = CouplingSet(chain(8), {(1,): [[(1 + 1j) / 2]], (-1,): [[(1 - 1j) / 2]]}, {})
    out = inversion_transform(asym)
    assert out.hop.offsets.tolist() == [[1], [7]]
    assert out.hop.mats[:, 0, 0] == pytest.approx([(1 - 1j) / 2, (1 + 1j) / 2])


def test_inversion_is_involution_and_preserves_validity():
    cs = random_model(LatticeShape((12,), 2), reach=2, pairing=True, seed=3)
    once = inversion_transform(cs)
    assert validate(once) == []
    twice = inversion_transform(once)
    for table, ref in ((twice.hop, cs.hop), (twice.pair, cs.pair)):
        assert np.array_equal(table.offsets, ref.offsets)
        assert np.abs(table.mats - ref.mats).max() < 1e-15


def test_catalog_p_model_requires_valid_parameters():
    with pytest.raises(ValueError, match="p > 0"):
        make_p_model(8, -1.0)
    with pytest.raises(ValueError, match="spin=2"):
        catalog(ModelParams("p-model", {"p": 2.0}, chain(8)))
    with pytest.raises(ValueError, match="unknown catalog"):
        catalog(ModelParams("no-such-model", {}, chain(8)))


@pytest.mark.parametrize("name, spin", [("p-model", 2), ("twisted-chain", 1)])
def test_catalog_chains_need_three_sites(name, spin):
    # on 2 sites the hops to +1 and -1 reduce to one offset, which the coupling table
    # refuses; the model names its minimum instead, and 3 sites build
    with pytest.raises(ValueError, match=f"^{name} needs at least 3 sites, got dims \\(2,\\)$"):
        catalog(ModelParams(name, {}, LatticeShape((2,), spin)))
    assert catalog(ModelParams(name, {}, LatticeShape((3,), spin))).shape.dims == (3,)


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
    assert cs.hop.offsets.tolist() == [[1], [7]]
    assert cs.hop.mats[:, 0, 0].tolist() == [1.0, 1.0]


@pytest.mark.parametrize("params, keys", [
    ({"a1": 1.0, "a9": 0.3}, "'a1' and 'a9'"),  # 9 reduces to 1 on 8 sites
    ({"b2_re": 0.5, "b10_im": 0.2}, "'b2_re' and 'b10_im'"),
], ids=["a1-a9", "b2-b10"])
def test_catalog_spinless_general_rejects_offset_collisions(params, keys):
    with pytest.raises(ValueError, match=f"{keys} both set offset"):
        catalog(ModelParams("spinless-general", params, chain(8)))


@pytest.mark.parametrize("params, keys", [
    ({"a1": 1.0, "a1_re": 2.0}, "'a1' and 'a1_re'"),
    ({"b3_im": 0.5, "b3_re": 0.1, "b3": 0.2}, "'b3_re' and 'b3'"),
], ids=["a1-a1_re", "b3_re-b3"])
def test_catalog_spinless_general_rejects_two_spellings_of_one_part(params, keys):
    with pytest.raises(ValueError, match=f"{keys} both set the real part of offset"):
        catalog(ModelParams("spinless-general", params, chain(8)))


def test_catalog_spinless_general_combines_parts_of_one_offset():
    cs = catalog(ModelParams("spinless-general", {"a1_re": 0.5, "a1_im": 0.25}, chain(8)))
    assert cs.hop.offsets.tolist() == [[1], [7]]
    assert cs.hop.mats[:, 0, 0].tolist() == [0.5 + 0.25j, 0.5 - 0.25j]


@pytest.mark.parametrize("name, params", [
    ("spinless-general", {"j2": 1.0}),
    ("p-model", {"q": 2.0}),
    ("twisted-chain", {"alpha": 0.5, "p": 1.0}),
], ids=["spinless-general", "p-model", "twisted-chain"])
def test_catalog_rejects_unknown_keys(name, params):
    with pytest.raises(ValueError, match=f"unrecognized {name} parameter"):
        catalog(ModelParams(name, params, chain(8)))


def test_random_model_deterministic_and_valid():
    shape = LatticeShape((10,), 2)
    a = random_model(shape, reach=2, pairing=True, seed=42)
    b = random_model(shape, reach=2, pairing=True, seed=42)
    for table, other in ((a.hop, b.hop), (a.pair, b.pair)):
        assert np.array_equal(table.offsets, other.offsets)
        assert np.array_equal(table.mats, other.mats)
    for seed in range(30):
        assert validate(random_model(shape, reach=2, pairing=seed % 2 == 0, seed=seed)) == []


def test_random_model_onsite_only_when_reach_zero():
    cs = random_model(LatticeShape((6,), 2), reach=0, pairing=False, seed=0)
    assert cs.hop.offsets.tolist() == [[0]]
    assert len(cs.pair) == 0


def test_random_model_range_check():
    with pytest.raises(ValueError, match="too large"):
        random_model(chain(4), reach=2, pairing=False, seed=0)


def old_random_model(shape, reach, pairing, seed):
    """``random_model`` as written with one draw per offset into dicts, projected by
    ``old_symmetrize``; ``test_random_model_matches_the_per_offset_draws`` pins to it."""
    rng = np.random.default_rng(seed)
    s = shape.spin
    offsets = sorted(np.ndindex(*([2 * reach + 1] * shape.d)))

    def draw():
        table = {}
        for raw in offsets:
            n = tuple(c - reach for c in raw)
            table[shape.reduce(n)] = rng.uniform(-1, 1, (s, s)) + 1j * rng.uniform(-1, 1, (s, s))
        return table

    hop = draw()
    pair = draw() if pairing else {}
    return old_symmetrize(shape, hop, pair)


@settings(max_examples=200, deadline=None)
@given(d=st.integers(1, 3), spin=st.integers(1, 3), reach=st.integers(0, 2), pairing=st.booleans(),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_random_model_matches_the_per_offset_draws(d, spin, reach, pairing, seed, data):
    # one (K, 2, s, s) draw reads the stream as K pairs of (s, s) draws: the
    # seeded models of the benchmark and of verify's seed lists stay the same
    dims = tuple(data.draw(st.lists(st.integers(max(2, 2 * reach + 1), 6), min_size=d, max_size=d)))
    shape = LatticeShape(dims, spin)
    cs = random_model(shape, reach, pairing, seed)
    for table, ref in zip((cs.hop, cs.pair), old_random_model(shape, reach, pairing, seed)):
        assert_table_is(table, ref)


def test_resized_preserves_signed_support():
    cs = random_model(LatticeShape((8,), 1), reach=2, pairing=True, seed=7)
    big = cs.resized((16,))
    assert big.shape.dims == (16,)
    target = cs.shape.signed(cs.hop.offsets) % 16
    order = np.argsort(target[:, 0])
    assert np.array_equal(big.hop.offsets, target[order])
    assert np.abs(big.hop.mats - cs.hop.mats[order]).max() < 1e-15
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


def running_total_slope_bound(c):
    """``slope_bound`` as one running total per axis, every norm taken per axis."""
    worst = 0.0
    for axis in range(c.shape.d):
        total = 0.0
        for table in (c.hop, c.pair):
            for n, mat in zip(table.offsets, table.mats):  # table order: row-major
                total += abs(c.shape.signed(n)[axis]) * np.linalg.norm(mat, 2)
        worst = max(worst, total)
    return worst


@settings(max_examples=1000, deadline=None)
@given(d=st.integers(1, 3), spin=st.integers(1, 2), reach=st.integers(0, 2), pairing=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_slope_bound_is_bit_identical_to_the_running_total(d, spin, reach, pairing, seed):
    from quasifree.model import slope_bound

    cs = random_model(LatticeShape((5,) * d, spin), reach=reach, pairing=pairing, seed=seed)
    assert slope_bound(cs) == running_total_slope_bound(cs)


def test_model_file_round_trip(tmp_path, p_model_64):
    path = tmp_path / "model.json"
    save_model(p_model_64, path)
    loaded = load_model(path)
    assert loaded.projection_distance < 1e-15
    assert loaded.couplings.shape == p_model_64.shape
    assert np.array_equal(loaded.couplings.hop.offsets, p_model_64.hop.offsets)
    assert np.abs(loaded.couplings.hop.mats - p_model_64.hop.mats).max() < 1e-15


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
    assert loaded.couplings.hop.offsets.tolist() == [[1], [7]]
    assert loaded.couplings.hop.mats[:, 0, 0] == pytest.approx([0.5, 0.5])


def test_non_finite_couplings_are_refused(tmp_path):
    # the constructor, scaled, symmetrize, and a model file, refused before any
    # arithmetic on the entries, so without a numpy warning
    import json

    from quasifree.model import scaled

    cs = random_model(chain(8), reach=1, pairing=True, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="non-finite entry"):
            CouplingSet(chain(8), {(1,): [[np.inf]], (7,): [[np.inf]]}, {})
        for factor in (np.nan, np.inf):
            with pytest.raises(ValueError, match="non-finite entry"):
                scaled(cs, factor)
        with pytest.raises(ValueError, match="non-finite entry"):
            symmetrize(chain(8), {(1,): [[np.inf]]})
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"shape": {"dims": [8], "spin": 1},
                                    "couplings": [{"kind": "pair", "offset": [2],
                                                   "matrix": [[[0.0, np.nan]]]}]}))
        with pytest.raises(ValueError, match="non-finite entry"):
            load_model(path)


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


@pytest.mark.parametrize("shape, offset, field", [
    ({"dims": [8.0]}, [1], "shape.dims"),
    ({"dims": [8], "spin": 1.5}, [1], "shape.spin"),
    ({"dims": [8], "spin": True}, [1], "shape.spin"),
    ({"dims": [8], "d": 1.0}, [1], "shape.d"),
    ({"dims": [8]}, [True], "couplings[0].offset"),
    ({"dims": [8]}, [1, 0], "couplings[0].offset"),
])
def test_model_file_refuses_non_integer_fields(tmp_path, shape, offset, field):
    # JSON numbers that are not integers, booleans included, are not truncated
    import json

    path = tmp_path / "m.json"
    path.write_text(json.dumps({"shape": shape, "couplings": [
        {"kind": "hop", "offset": offset, "matrix": [[[0.5, 0.0]]]}]}))
    with pytest.raises(ValueError, match=f"model file: {re.escape(field)} must be"):
        load_model(path)


@settings(max_examples=60, deadline=None)
@given(dims=st.lists(st.integers(3, 5), min_size=1, max_size=3).map(tuple), spin=st.integers(1, 3),
       pairing=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_inversion_flips_the_invariant(dims, spin, pairing, seed):
    # the paper's sign flip: Im sum_j <b+_m b_{m+n}> is odd under site inversion;
    # a map that keeps pair(n) instead of transposing it misses by up to 0.3 at s = 2
    cs = random_model(LatticeShape(dims, spin), reach=1, pairing=pairing, seed=seed)
    inv = invariant_map(diagonalize(cs))
    assert np.abs(invariant_map(diagonalize(inversion_transform(cs))) + inv).max() <= 1e-13
