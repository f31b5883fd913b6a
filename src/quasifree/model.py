"""Hamiltonians as finite-support circulant coupling sets.

A quadratic lattice Hamiltonian

    H = sum A^{jl}_{mn} b^{j+}_m b^l_n
        + 1/2 sum (B^{jl}_{mn} b^{j+}_m b^{l+}_n - conj(B)^{jl}_{mn} b^j_m b^l_n)

with circulant coefficients is stored through its offset slices
``hop(n) = A_{n,0}`` and ``pair(n) = B_{n,0}``, each a ``lattice.CouplingTable``
(offsets as one ``(K, d)`` array, s x s complex matrices as one ``(K, s, s)``
stack; a ``{offset: matrix}`` mapping is accepted wherever a table is).
Hermiticity requires ``hop(-n) = hop(n)^dag`` and the fermionic antisymmetry of
the pairing requires ``pair(-n) = -pair(n)^T``.  Every ``CouplingSet``
satisfies both: its constructor raises on a violation, so code that receives
one never checks again.  ``symmetrize`` and ``load_model`` project raw data
onto the constraints.

Momentum blocks are the 2s x 2s Bogoliubov-de Gennes matrices

    H_k = [[A_k, B_k], [B_k^dag, -A_{-k}^T]],

which are Hermitian and obey the particle-hole identity
``sx H_k sx = -conj(H_{-k})`` with ``sx`` swapping the two s-blocks.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .lattice import CouplingTable, LatticeShape, fourier_circulant

__all__ = [
    "CouplingSet",
    "ModelParams",
    "Violation",
    "LoadedModel",
    "validate",
    "symmetrize",
    "bdg_blocks",
    "catalog",
    "CATALOG_NAMES",
    "random_model",
    "slope_bound",
    "scaled",
    "load_model",
    "save_model",
]

CLOSURE_TOL = 1e-12


def _closure_image(table: CouplingTable, shape: LatticeShape, kind: str) -> CouplingTable:
    """The table closure requires ``table`` to equal: ``partner(table(n))`` at ``-n``,
    with partner ``m^dag`` for ``kind == "hop"`` and ``-m^T`` for ``kind == "pair"``."""
    swapped = np.swapaxes(table.mats, 1, 2)
    return CouplingTable(shape, -table.offsets, swapped.conj() if kind == "hop" else -swapped)


def _aligned(a: CouplingTable, b: CouplingTable) -> tuple[np.ndarray, np.ndarray]:
    """The union of two tables' offsets, in row-major order, and both tables'
    matrices on it, stacked, a missing offset counting as zero."""
    offsets = np.concatenate([a.offsets, b.offsets])
    order = np.lexsort(offsets.T[::-1])
    fresh = (np.diff(offsets[order], axis=0, prepend=-1) != 0).any(axis=1)  # first of each equal run
    rows = np.empty(len(order), dtype=np.int64)
    rows[order] = np.cumsum(fresh) - 1
    mats = np.zeros((2, fresh.sum()) + a.mats.shape[1:], dtype=complex)
    mats[0, rows[:len(a)]], mats[1, rows[len(a):]] = a.mats, b.mats
    return offsets[order][fresh], mats


@dataclass(frozen=True)
class CouplingSet:
    """Immutable hopping/pairing support of one translation-invariant Hamiltonian.

    Invariant: every entry is finite, and ``hop(-n) = hop(n)^dag`` and
    ``pair(-n) = -pair(n)^T`` hold entrywise within ``CLOSURE_TOL``, a missing
    offset counting as zero.  Construction raises ``ValueError`` otherwise.
    """

    shape: LatticeShape
    hop: CouplingTable
    pair: CouplingTable

    def __post_init__(self):
        object.__setattr__(self, "hop", CouplingTable.of(self.shape, self.hop))
        object.__setattr__(self, "pair", CouplingTable.of(self.shape, self.pair))
        if problems := validate(self):
            lines = "\n".join(f"  {v.kind} offset {v.offset} entry ({v.row},{v.col}) "
                              f"magnitude {v.magnitude:.3e}" for v in problems[:10])
            raise ValueError(f"model violates coupling closure (invalid coupling set):\n{lines}")

    def resized(self, dims: Iterable[int]) -> "CouplingSet":
        """Same couplings on a different lattice (offsets carried over as signed representatives)."""
        shape = LatticeShape(tuple(dims), self.shape.spin)
        return CouplingSet(shape, *(CouplingTable(shape, self.shape.signed(t.offsets), t.mats)
                                    for t in (self.hop, self.pair)))


class Violation(NamedTuple):
    kind: str  # "hop" or "pair"
    offset: tuple[int, ...]
    row: int
    col: int
    magnitude: float


def validate(c: CouplingSet) -> list[Violation]:
    """Entries where a table and its closure image differ by more than ``CLOSURE_TOL``
    (a missing offset counts as zero); every constructed set has none."""
    out: list[Violation] = []
    for kind, table in (("hop", c.hop), ("pair", c.pair)):
        union, (mats, image) = _aligned(table, _closure_image(table, c.shape, kind))
        dev = np.abs(mats - image)
        out += [Violation(kind, tuple(union[k].tolist()), int(row), int(col), float(dev[k, row, col]))
                for k, row, col in zip(*np.nonzero(dev > CLOSURE_TOL))]
    return out


def symmetrize(shape: LatticeShape, hop, pair=None) -> CouplingSet:
    """Project raw coupling tables (or mappings) onto the closure constraints:
    ``hop(n) <- (hop(n) + hop(-n)^dag)/2`` and ``pair(n) <- (pair(n) - pair(-n)^T)/2``,
    filled in on both ``n`` and ``-n``.  Idempotent; the output always validates."""
    def project(data, kind):
        raw = CouplingTable.of(shape, data)  # refuses a non-finite entry before any arithmetic
        union, (mats, image) = _aligned(raw, _closure_image(raw, shape, kind))
        proj = (mats + image) / 2
        keep = proj.any(axis=(1, 2))  # an overflow is kept, for the table to refuse
        return CouplingTable(shape, union[keep], proj[keep])

    return CouplingSet(shape, project(hop, "hop"), project(pair or {}, "pair"))


def bdg_blocks(c: CouplingSet, rows=slice(None)) -> np.ndarray:
    """The momentum-space BdG blocks at the flat momenta ``rows`` (an index array
    or slice, by default every momentum), shape ``(len, 2s, 2s)``."""
    s = c.shape.spin
    a = fourier_circulant(c.hop, c.shape)
    b = fourier_circulant(c.pair, c.shape)[rows]
    neg = c.shape.negation_table[rows]
    out = np.empty((len(neg), 2 * s, 2 * s), dtype=complex)
    out[:, :s, :s] = a[rows]
    out[:, :s, s:] = b
    out[:, s:, :s] = np.conj(np.transpose(b, (0, 2, 1)))
    out[:, s:, s:] = -np.transpose(a[neg], (0, 2, 1))
    return out


def particle_hole_residual(blocks: np.ndarray, shape: LatticeShape) -> float:
    """Max norm of ``sx H_k sx + conj(H_{-k})`` over the grid (identically ~0)."""
    swapped = np.roll(blocks, shape.spin, axis=(1, 2))
    return float(np.abs(swapped + np.conj(blocks[shape.negation_table])).max())


# ---------------------------------------------------------------------------
# catalog models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelParams:
    """Catalog selector: model name, named real parameters, lattice shape."""

    name: str
    params: Mapping[str, float]
    shape: LatticeShape


CATALOG_NAMES = ("p-model", "twisted-chain", "spinless-general")

_SPINLESS_KEY = re.compile(r"^(a|b)(\d+)(?:_(re|im))?$")


def _p_model(shape: LatticeShape, p: float) -> CouplingSet:
    # spin-1/2 chain whose bands are exactly {-1, p}; the +-i/4 hop correlators
    # of its ground state are the canonical non-real-but-gapped example
    if shape.d != 1 or shape.spin != 2:
        raise ValueError("p-model is a spin-1/2 chain: need d=1 and spin=2")
    if shape.dims[0] < 3:  # on 2 sites the hops to +1 and -1 fall on one offset
        raise ValueError(f"p-model needs at least 3 sites, got dims {shape.dims}")
    if not 0 < p < np.inf:
        raise ValueError(f"p-model needs a finite p > 0, got {p}")
    q = (p + 1) / 4
    hop1 = np.array([[1j * q, -q], [-q, -1j * q]])
    return CouplingSet(shape, {(0,): (p - 1) / 2 * np.eye(2, dtype=complex), (1,): hop1,
                               (-1,): hop1.conj().T}, {})


def _twisted_chain(shape: LatticeShape, alpha: float) -> CouplingSet:
    # gauge-twisted half-filled hopping chain: hop(+1) = e^{i alpha}/2, so the
    # band is cos(2 pi k/N - alpha) and <c+_l c_{l+1}> picks up e^{i alpha}
    if shape.d != 1 or shape.spin != 1:
        raise ValueError("twisted-chain is spinless and one-dimensional")
    if shape.dims[0] < 3:  # as for the p-model
        raise ValueError(f"twisted-chain needs at least 3 sites, got dims {shape.dims}")
    if not np.isfinite(alpha):
        raise ValueError(f"twisted-chain alpha={alpha} would give the hop a non-finite entry")
    t = np.exp(1j * alpha) / 2
    return CouplingSet(shape, {(1,): [[t]], (-1,): [[np.conj(t)]]}, {})


def _spinless_general(shape: LatticeShape, params: Mapping[str, float]) -> CouplingSet:
    # free-form spinless chain; keys  a<r>_re / a<r>_im / b<r>_re / b<r>_im
    # (plain a0 allowed) set hop(r) and pair(r) for r >= 0; the partners at -r
    # are completed from the closure, not averaged in, so a parameter on a
    # self-paired offset or one that conflicts with another fails the closure check;
    # two r that reduce to one offset, or two spellings of one part (a1, a1_re), raise
    if shape.d != 1 or shape.spin != 1:
        raise ValueError("spinless-general is spinless and one-dimensional")
    hop: dict[tuple[int], complex] = {}
    pair: dict[tuple[int], complex] = {}
    first: dict[tuple, tuple[int, str]] = {}  # (kind, offset) -> its first (r, key)
    spelled: dict[tuple, str] = {}  # (kind, offset, part) -> its key
    for key, value in params.items():
        m = _SPINLESS_KEY.match(key)
        if not m:
            raise ValueError(f"unrecognized spinless-general parameter {key!r}")
        kind, r, part = m.group(1), int(m.group(2)), m.group(3) or "re"
        n = shape.reduce((r,))
        r0, key0 = first.setdefault((kind, n), (r, key))
        if r0 != r:
            raise ValueError(f"spinless-general parameters {key0!r} and {key!r} both set "
                             f"offset {n} on dims {shape.dims}")
        key0 = spelled.setdefault((kind, n, part), key)
        if key0 != key:
            raise ValueError(f"spinless-general parameters {key0!r} and {key!r} both set "
                             f"the {'real' if part == 're' else 'imaginary'} part of offset {n}")
        table = hop if kind == "a" else pair
        table[n] = table.get(n, 0.0) + (value if part == "re" else 1j * value)

    def complete(table, kind):
        # the closure partner at -r: hop(r)^dag, or -pair(r)^T
        image = {shape.negate(n): complex(v).conjugate() if kind == "a" else -complex(v)
                 for n, v in table.items()}
        return {n: [[v]] for n, v in {**image, **table}.items()}

    return CouplingSet(shape, complete(hop, "a"), complete(pair, "b"))


def _only_param(mp: ModelParams, key: str, default: float) -> float:
    """``mp``'s value of ``key``, its one parameter, or ``default``; any other key raises."""
    for other in mp.params:
        if other != key:
            raise ValueError(f"unrecognized {mp.name} parameter {other!r}")
    return float(mp.params.get(key, default))


def catalog(mp: ModelParams) -> CouplingSet:
    """Build a named catalog model; unknown names and out-of-range parameters raise."""
    if mp.name == "p-model":
        return _p_model(mp.shape, _only_param(mp, "p", 2.0))
    if mp.name == "twisted-chain":
        return _twisted_chain(mp.shape, _only_param(mp, "alpha", 0.0))
    if mp.name == "spinless-general":
        return _spinless_general(mp.shape, mp.params)
    raise ValueError(f"unknown catalog model {mp.name!r}; known: {CATALOG_NAMES}")


def random_model(
    shape: LatticeShape, reach: int, pairing: bool, seed: int
) -> CouplingSet:
    """Seeded random coupling set with per-axis support ``|n_i| <= reach``.

    Entries have independent real/imaginary parts uniform on [-1, 1]; the raw
    draw is closure-projected, so the result always validates.
    """
    if reach < 0:
        raise ValueError("reach must be nonnegative")
    if reach >= min(shape.dims) / 2:
        raise ValueError(f"reach {reach} too large for dims {shape.dims}")
    rng = np.random.default_rng(seed)
    s, side = shape.spin, 2 * reach + 1
    offsets = np.indices((side,) * shape.d).reshape(shape.d, -1).T - reach  # row-major

    def draw():
        # one draw, in the order of a real then an imaginary s x s draw per offset
        parts = rng.uniform(-1, 1, (len(offsets), 2, s, s))
        return CouplingTable(shape, offsets, parts[:, 0] + 1j * parts[:, 1])

    return symmetrize(shape, draw(), draw() if pairing else {})  # hop drawn first


def slope_bound(c: CouplingSet) -> float:
    """Lipschitz bound on every one-particle band derivative d(lambda)/d(axis angle).

    By Weyl's inequality the bands move no faster than ``||dH_k/d(angle)||``,
    itself bounded by ``slope_i = sum_n |n_i| (||hop(n)|| + ||pair(n)||)`` along
    axis ``i``; the bound is the largest ``slope_i``.  The grid point nearest a
    continuum band crossing is within ``pi/N_i`` of it on each axis, so the
    crossing shows as a grid energy of at most ``sum_i slope_i pi/N_i``, which
    is what makes gap thresholds above that sum a rigorous gaplessness filter.
    """
    offsets = np.abs(c.shape.signed(np.concatenate([c.hop.offsets, c.pair.offsets])))
    if not len(offsets):
        return 0.0
    norms = np.linalg.norm(np.concatenate([c.hop.mats, c.pair.mats]), 2, axis=(1, 2))
    # one term at a time in table order, hop then pair (np.sum adds 8 or more terms pairwise)
    return float(np.cumsum(offsets * norms[:, None], axis=0)[-1].max())


def scaled(c: CouplingSet, factor: float) -> CouplingSet:
    """Multiply every coupling matrix by a real factor (units change only)."""
    if not np.isfinite(factor):  # refused before the product, which would warn
        raise ValueError(f"scaling factor {factor} would give the couplings a non-finite entry")
    return CouplingSet(c.shape, *(CouplingTable(c.shape, t.offsets, factor * t.mats)
                                  for t in (c.hop, c.pair)))


# ---------------------------------------------------------------------------
# model definition files
# ---------------------------------------------------------------------------

class LoadedModel(NamedTuple):
    couplings: CouplingSet
    projection_distance: float


def _field(block: dict, key: str, where: str, ok=lambda v: True, what: str = "", default=None):
    """``block[key]`` (``default``, if given, when absent), refused by name unless ``ok``."""
    if not isinstance(block, dict):
        raise ValueError(f"model file: {where[:-1] or 'document'} is a {type(block).__name__}, not an object")
    if key not in block and default is None:
        raise ValueError(f"model file: {where}{key} is missing")
    value = block.get(key, default)
    if not ok(value):
        raise ValueError(f"model file: {where}{key} must be {what}, got {value!r}")
    return value


def _ints(v, n=None) -> bool:
    """``v`` is a list of (JSON, so not boolean) integers, of length ``n`` if given."""
    return isinstance(v, list) and all(type(c) is int for c in v) and n in (None, len(v))


def _matrix_from_json(data, s: int, where: str) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError):
        arr = np.empty(0)
    if arr.shape != (s, s, 2):
        raise ValueError(f"model file: {where}matrix must be {s}x{s} of [re, im] pairs, got {data!r}")
    if not np.isfinite(arr).all():  # refused before the complex arithmetic and the projection
        raise ValueError(f"model file: {where}matrix {data} has a non-finite entry")
    return arr[..., 0] + 1j * arr[..., 1]


def save_model(c: CouplingSet, path) -> None:
    """Write a coupling set as a JSON model definition file."""
    doc = {
        "shape": {"d": c.shape.d, "dims": list(c.shape.dims), "spin": c.shape.spin},
        "couplings": [
            {"kind": kind, "offset": n, "matrix": m}
            for kind, table in (("hop", c.hop), ("pair", c.pair))
            for n, m in zip(table.offsets.tolist(), np.stack([table.mats.real, table.mats.imag], -1).tolist())
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_model(path) -> LoadedModel:
    """Read a model definition file, closure-project it, and report the projection
    distance.  A malformed file raises ``ValueError`` naming the field."""
    with open(path) as fh:
        doc = json.load(fh)
    sh = _field(doc, "shape", "")
    shape = LatticeShape(tuple(_field(sh, "dims", "shape.", _ints, "a list of integers")),
                         _field(sh, "spin", "shape.", lambda v: _ints([v]), "an integer", default=1))
    if _field(sh, "d", "shape.", lambda v: _ints([v]), "an integer", default=shape.d) != shape.d:
        raise ValueError(f"shape block says d={sh['d']} but dims has {shape.d} axes")
    raw: dict[str, tuple[list, list]] = {"hop": ([], []), "pair": ([], [])}
    for i, rec in enumerate(_field(doc, "couplings", "", lambda v: isinstance(v, list), "a list", default=[])):
        where = f"couplings[{i}]."
        offsets, mats = raw[_field(rec, "kind", where, lambda v: v in ("hop", "pair"), "'hop' or 'pair'")]
        offsets.append(_field(rec, "offset", where, lambda v: _ints(v, shape.d),
                              f"a list of {shape.d} integer(s)"))
        mats.append(_matrix_from_json(_field(rec, "matrix", where), shape.spin, where))
    hop, pair = (CouplingTable(shape, *raw[kind]) for kind in ("hop", "pair"))
    cs = symmetrize(shape, hop, pair)
    distance = max(float(np.abs(np.subtract(*_aligned(raw, table)[1])).max(initial=0.0))
                   for raw, table in ((hop, cs.hop), (pair, cs.pair)))
    return LoadedModel(cs, distance)
