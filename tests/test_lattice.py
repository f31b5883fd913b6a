import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasifree import CouplingTable, LatticeShape, fourier_circulant, inverse_fourier, site_matrix


def direct_phases(shape, offset):
    """``exp(+2pi i n.k/N)`` for one offset against every momentum, with the per-axis
    products reduced mod N_i before the angle is formed."""
    dims = np.asarray(shape.dims)
    frac = ((shape.momenta() * np.asarray(offset)) % dims) / dims
    return np.exp(2j * np.pi * frac.sum(axis=1))


def direct_fourier(support, shape):
    """Plane-wave sum ``X_k = sum_n conj(phase(n, k)) X_n``: the reference for
    ``fourier_circulant``."""
    out = np.zeros((shape.n_sites, shape.spin, shape.spin), dtype=complex)
    for n, mat in support.items():
        out += direct_phases(shape, shape.reduce(n)).conj()[:, None, None] * mat
    return out


def direct_inverse(kernel, shape):
    """Plane-wave sum ``X_n = (1/N) sum_k phase(n, k) X_k`` at every offset: the
    reference for ``inverse_fourier``."""
    out = np.empty(shape.dims + kernel.shape[1:], dtype=complex)
    for n in np.ndindex(*shape.dims):
        out[n] = np.tensordot(direct_phases(shape, n), kernel, axes=(0, 0)) / shape.n_sites
    return out


def plane_wave(shape, n):
    """``exp(-2pi i n.k/N)`` over the momentum grid, from a single-offset support."""
    return fourier_circulant({n: np.eye(1)}, shape)[:, 0, 0]


def test_shape_counts():
    shape = LatticeShape((4, 6), 2)
    assert shape.d == 2
    assert shape.n_sites == 24
    assert shape.n_modes == 48
    # exact beyond int64: a memory check must never see a wrapped count
    assert LatticeShape((1 << 32, 1 << 32)).n_sites == 1 << 64


def test_shape_rejects_bad_input():
    with pytest.raises(ValueError):
        LatticeShape((4, 1))
    with pytest.raises(ValueError):
        LatticeShape((4,), 0)
    with pytest.raises(ValueError):
        LatticeShape((2, 2, 2, 2))


def test_offset_reduction_and_negation():
    shape = LatticeShape((4, 6))
    assert shape.reduce((-1, 7)) == (3, 1)
    assert shape.negate((1, 2)) == (3, 4)
    assert shape.negate((0, 0)) == (0, 0)
    assert shape.signed([[3, 5], [2, 3]]).tolist() == [[-1, -1], [2, 3]]  # ties resolve positive


def test_self_conjugate_momenta():
    shape = LatticeShape((4, 5))
    selfconj = [tuple(k) for k in shape.momenta()[shape.negation_table == np.arange(shape.n_sites)]]
    # k_i in {0, N_i/2 for even N_i} and nothing else
    assert selfconj == [(0, 0), (2, 0)]


@pytest.mark.parametrize("dims", [(2,), (7,), (2, 2), (3, 2), (5, 4), (2, 3, 2), (3, 5, 7), (4, 2, 9)])
def test_negation_table_matches_the_momentum_expression(dims):
    # the per-axis outer sum against -k reduced and raveled from the momentum tuples;
    # every axis has at least 2 sites, so the smallest sizes here are 2
    shape = LatticeShape(dims)
    want = np.ravel_multi_index(tuple(((-shape.momenta()) % np.asarray(dims)).T), dims)
    got = shape.negation_table
    assert got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)


def test_half_zone_holds_one_momentum_per_pair():
    for dims in [(4, 5), (6,), (7,), (2, 3, 4)]:
        shape = LatticeShape(dims)
        rows = shape.half_zone
        neg = shape.negation_table
        assert (np.diff(rows) > 0).all() and (rows <= neg[rows]).all()
        # every momentum is a stored row or the negation of one
        assert np.array_equal(np.union1d(rows, neg[rows]), np.arange(shape.n_sites))
        assert len(rows) == (shape.n_sites + (neg == np.arange(shape.n_sites)).sum()) // 2


def test_phase_zero_offset_is_one():
    shape = LatticeShape((8,))
    for value in plane_wave(shape, (0,)):
        assert value == pytest.approx(1.0)


def test_phase_quarter_rotation():
    shape = LatticeShape((4,))
    assert plane_wave(shape, (1,))[1] == pytest.approx(-1j)


def test_phase_multi_axis_direct_evaluation():
    # independent evaluation of the phase sum: 1*2/4 + 3*2/6 = 3/2
    shape = LatticeShape((4, 6))
    expected = np.exp(-2j * np.pi * 1.5)
    k = np.ravel_multi_index((2, 2), shape.dims)
    assert plane_wave(shape, (1, 3))[k] == pytest.approx(expected)
    assert expected == pytest.approx(-1.0)


def test_phase_unit_modulus():
    shape = LatticeShape((5, 7, 3))
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = tuple(rng.integers(0, d) for d in shape.dims)
        assert np.abs(np.abs(plane_wave(shape, n)) - 1.0).max() < 1e-15


def test_phase_dimension_mismatch():
    shape = LatticeShape((4, 4))
    with pytest.raises(ValueError):
        plane_wave(shape, (1,))


@settings(max_examples=30, deadline=None)
@given(
    dims=st.tuples(st.integers(2, 7), st.integers(2, 7)),
    data=st.data(),
)
def test_phase_multiplicative_in_offset(dims, data):
    shape = LatticeShape(dims)
    n = tuple(data.draw(st.integers(0, d - 1)) for d in dims)
    m = tuple(data.draw(st.integers(0, d - 1)) for d in dims)
    k = data.draw(st.integers(0, shape.n_sites - 1))
    lhs = plane_wave(shape, shape.reduce(np.add(n, m)))[k]
    rhs = plane_wave(shape, n)[k] * plane_wave(shape, m)[k]
    assert abs(lhs - rhs) < 1e-12


def test_fourier_onsite_constant():
    shape = LatticeShape((6,), 2)
    mat = np.array([[1.0, 2j], [-2j, 3.0]])
    kern = fourier_circulant({(0,): mat}, shape)
    assert np.abs(kern - mat).max() < 1e-15


def test_fourier_cosine_band():
    shape = LatticeShape((4,))
    kern = fourier_circulant({(1,): np.array([[0.5]]), (-1,): np.array([[0.5]])}, shape)
    assert np.allclose(kern[:, 0, 0], [1.0, 0.0, -1.0, 0.0], atol=1e-15)


def test_inverse_constant_kernel():
    shape = LatticeShape((8,), 2)
    mat = np.array([[0.3, 1j], [-1j, -0.7]])
    offsets = inverse_fourier(np.broadcast_to(mat, (8, 2, 2)).copy(), shape)
    assert np.abs(offsets[(0,)] - mat).max() < 1e-14
    for n in range(1, 8):
        assert np.abs(offsets[(n,)]).max() < 1e-14


def test_inverse_cosine_kernel():
    shape = LatticeShape((4,))
    kern = np.array([1.0, 0.0, -1.0, 0.0]).reshape(4, 1, 1)
    offsets = inverse_fourier(kern, shape)
    assert offsets[(1,)][0, 0] == pytest.approx(0.5)
    assert offsets[(3,)][0, 0] == pytest.approx(0.5)
    assert abs(offsets[(0,)][0, 0]) < 1e-15
    assert abs(offsets[(2,)][0, 0]) < 1e-15


def _random_support(shape, reach, seed):
    rng = np.random.default_rng(seed)
    s = shape.spin
    support = {}
    for raw in np.ndindex(*([2 * reach + 1] * shape.d)):
        n = shape.reduce(tuple(c - reach for c in raw))
        support[n] = rng.normal(size=(s, s)) + 1j * rng.normal(size=(s, s))
    return support


@pytest.mark.parametrize("dims,spin", [((32,), 2), ((4, 6), 1)])
def test_round_trip(dims, spin):
    shape = LatticeShape(dims, spin)
    support = _random_support(shape, 1, seed=3)
    kern = fourier_circulant(support, shape)
    back = inverse_fourier(kern, shape)
    for n, mat in support.items():
        assert np.abs(back[n] - mat).max() < 1e-14
    for n in np.ndindex(*shape.dims):
        if n not in support:
            assert np.abs(back[n]).max() < 1e-14


def test_round_trip_large_chain():
    shape = LatticeShape((1024,))
    support = _random_support(shape, 2, seed=5)
    back = inverse_fourier(fourier_circulant(support, shape), shape)
    err = max(np.abs(back[n] - mat).max() for n, mat in support.items())
    assert err < 1e-13


def test_hermitian_closed_kernel_gives_adjoint_closed_offsets():
    shape = LatticeShape((8,), 2)
    rng = np.random.default_rng(9)
    kern = rng.normal(size=(8, 2, 2)) + 1j * rng.normal(size=(8, 2, 2))
    kern = (kern + np.conj(np.transpose(kern, (0, 2, 1)))) / 2
    offsets = inverse_fourier(kern, shape)
    for n in np.ndindex(*shape.dims):
        assert np.abs(offsets[shape.negate(n)] - offsets[n].conj().T).max() < 1e-13


def test_parseval():
    shape = LatticeShape((16,), 2)
    support = _random_support(shape, 2, seed=11)
    kern = fourier_circulant(support, shape)
    lhs = np.sum(np.abs(kern) ** 2)
    rhs = shape.n_sites * sum(np.sum(np.abs(m) ** 2) for m in support.values())
    assert abs(lhs - rhs) / rhs < 1e-12


def test_support_collision_rejected():
    # offsets colliding after modular reduction make the circulant ambiguous
    shape = LatticeShape((4,))
    with pytest.raises(ValueError, match=r"duplicate coupling at reduced offset \[1\]"):
        CouplingTable(shape, [(1,), (-3,)], [np.eye(1), np.eye(1)])
    with pytest.raises(ValueError, match="duplicate"):
        fourier_circulant({(1,): np.eye(1), (-3,): np.eye(1)}, shape)


def test_inverse_requires_full_grid():
    shape = LatticeShape((8,))
    with pytest.raises(ValueError, match="full momentum grid"):
        inverse_fourier(np.zeros((4, 1, 1)), shape)


@settings(max_examples=60, deadline=None)
@given(
    dims=st.one_of(
        st.tuples(st.integers(2, 12)),
        st.tuples(st.integers(2, 6), st.integers(2, 6)),
        st.tuples(st.integers(2, 4), st.integers(2, 4), st.integers(2, 4)),
    ),
    spin=st.integers(1, 3),
    data=st.data(),
)
def test_transforms_match_direct_sums(dims, spin, data):
    shape = LatticeShape(dims, spin)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    offsets = data.draw(st.sets(st.tuples(*(st.integers(0, n - 1) for n in dims)), max_size=12))
    support = {n: rng.normal(size=(spin, spin)) + 1j * rng.normal(size=(spin, spin))
               for n in offsets}
    want = direct_fourier(support, shape)
    assert np.abs(fourier_circulant(support, shape) - want).max() < 1e-13 * max(1.0, np.abs(want).max())
    kern = rng.normal(size=(shape.n_sites, spin, spin)) + 1j * rng.normal(size=(shape.n_sites, spin, spin))
    want = direct_inverse(kern, shape)
    assert np.abs(inverse_fourier(kern, shape) - want).max() < 1e-13 * max(1.0, np.abs(want).max())


@settings(max_examples=60, deadline=None)
@given(
    dims=st.one_of(
        st.tuples(st.integers(2, 12)),
        st.tuples(st.integers(2, 6), st.integers(2, 6)),
        st.tuples(st.integers(2, 4), st.integers(2, 4), st.integers(2, 4)),
    ),
    spin=st.integers(1, 3),
    data=st.data(),
)
def test_site_matrix_matches_double_loop(dims, spin, data):
    # sites in any order and outside 0..N-1, as the negated sites of a block are
    sites = data.draw(st.lists(st.tuples(*(st.integers(-n, 2 * n - 1) for n in dims)),
                               min_size=1, max_size=10, unique=True))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    grid = rng.normal(size=dims + (spin, spin)) + 1j * rng.normal(size=dims + (spin, spin))
    want = np.empty((len(sites) * spin,) * 2, dtype=complex)
    for i, x in enumerate(sites):
        for j, y in enumerate(sites):
            want[i * spin:(i + 1) * spin, j * spin:(j + 1) * spin] = grid[tuple(np.subtract(y, x) % dims)]
    assert np.array_equal(site_matrix(grid, np.array(sites)), want)
