"""Hamiltonians as finite-support circulant coupling sets.

A quadratic lattice Hamiltonian

    H = sum A^{jl}_{mn} b^{j+}_m b^l_n
        + 1/2 sum (B^{jl}_{mn} b^{j+}_m b^{l+}_n - conj(B)^{jl}_{mn} b^j_m b^l_n)

with circulant coefficients is stored through its offset slices
``hop(n) = A_{n,0}`` and ``pair(n) = B_{n,0}`` (s x s complex matrices keyed by
reduced offset tuples).  Hermiticity requires ``hop(-n) = hop(n)^dag`` and the
fermionic antisymmetry of the pairing requires ``pair(-n) = -pair(n)^T``.  Every
``CouplingSet`` satisfies both: its constructor raises on a violation, so code
that receives one never checks again.  ``symmetrize`` and ``load_model`` project
raw data onto the constraints.

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

from .lattice import LatticeShape, fourier_circulant

__all__ = [
    "CouplingSet",
    "ModelParams",
    "Violation",
    "LoadedModel",
    "validate",
    "symmetrize",
    "bdg_blocks",
    "inversion_transform",
    "catalog",
    "CATALOG_NAMES",
    "random_model",
    "slope_bound",
    "scaled",
    "load_model",
    "save_model",
]

CLOSURE_TOL = 1e-12


def _freeze(couplings: Mapping[tuple[int, ...], np.ndarray], shape: LatticeShape):
    out = {}
    for offset, mat in couplings.items():
        red = shape.reduce(offset)
        if red in out:
            raise ValueError(f"duplicate coupling at reduced offset {red}")
        mat = np.asarray(mat, dtype=complex)
        if mat.shape != (shape.spin, shape.spin):
            raise ValueError(f"coupling at {offset} must be {shape.spin}x{shape.spin}")
        mat = mat.copy()
        mat.setflags(write=False)
        out[red] = mat
    return out


def _closure_image(table: Mapping[tuple[int, ...], np.ndarray], shape: LatticeShape, kind: str):
    """The table closure requires ``table`` to equal: ``{-n: partner(table[n])}``, with
    partner ``m^dag`` for ``kind == "hop"`` and ``-m^T`` for ``kind == "pair"``."""
    if kind == "hop":
        return {shape.negate(n): m.conj().T for n, m in table.items()}
    return {shape.negate(n): -m.T for n, m in table.items()}


@dataclass(frozen=True)
class CouplingSet:
    """Immutable hopping/pairing support of one translation-invariant Hamiltonian.

    Invariant: ``hop(-n) = hop(n)^dag`` and ``pair(-n) = -pair(n)^T`` entrywise
    within ``CLOSURE_TOL``, a missing offset counting as zero.  Construction
    raises ``ValueError`` listing the violations otherwise.
    """

    shape: LatticeShape
    hop: Mapping[tuple[int, ...], np.ndarray]
    pair: Mapping[tuple[int, ...], np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "hop", _freeze(self.hop, self.shape))
        object.__setattr__(self, "pair", _freeze(self.pair, self.shape))
        if problems := validate(self):
            lines = "\n".join(f"  {v.kind} offset {v.offset} entry ({v.row},{v.col}) "
                              f"magnitude {v.magnitude:.3e}" for v in problems[:10])
            raise ValueError(f"model violates coupling closure (invalid coupling set):\n{lines}")

    def resized(self, dims: Iterable[int]) -> "CouplingSet":
        """Same couplings on a different lattice (offsets carried over as signed representatives)."""
        return CouplingSet(LatticeShape(tuple(dims), self.shape.spin),
                           {self.shape.signed(n): m for n, m in self.hop.items()},
                           {self.shape.signed(n): m for n, m in self.pair.items()})


class Violation(NamedTuple):
    kind: str  # "hop" or "pair"
    offset: tuple[int, ...]
    row: int
    col: int
    magnitude: float


def validate(c: CouplingSet, tol: float = CLOSURE_TOL) -> list[Violation]:
    """Entries where a table and its closure image differ by more than ``tol`` (a
    missing offset counts as zero); every constructed set has none at the default."""
    out: list[Violation] = []
    zero = np.zeros((c.shape.spin, c.shape.spin), dtype=complex)
    for kind, table in (("hop", c.hop), ("pair", c.pair)):
        image = _closure_image(table, c.shape, kind)
        for n in sorted(set(table) | set(image)):
            dev = np.abs(table.get(n, zero) - image.get(n, zero))
            for row, col in zip(*np.nonzero(dev > tol)):
                out.append(Violation(kind, n, int(row), int(col), float(dev[row, col])))
    return out


def symmetrize(
    shape: LatticeShape,
    hop: Mapping[tuple[int, ...], np.ndarray],
    pair: Mapping[tuple[int, ...], np.ndarray] | None = None,
) -> CouplingSet:
    """Project raw coupling data onto the closure constraints.

    ``hop(n) <- (hop(n) + hop(-n)^dag)/2`` and ``pair(n) <- (pair(n) - pair(-n)^T)/2``,
    filled in on both ``n`` and ``-n``.  Idempotent; the output always validates.
    """
    zero = np.zeros((shape.spin, shape.spin), dtype=complex)

    def project(table, kind):
        raw = {shape.reduce(n): np.asarray(m, dtype=complex) for n, m in table.items()}
        image = _closure_image(raw, shape, kind)
        # a set's iteration order depends on how it was built; adding the image
        # keys one at a time keeps the key order that slope_bound's sum follows
        offsets = set(raw) | {n for n in image}
        proj = {n: (raw.get(n, zero) + image.get(n, zero)) / 2 for n in offsets}
        return {n: m for n, m in proj.items() if np.abs(m).max() > 0.0}

    return CouplingSet(shape, project(hop, "hop"), project(pair or {}, "pair"))


def bdg_blocks(c: CouplingSet) -> np.ndarray:
    """All momentum-space BdG blocks, shape ``(n_sites, 2s, 2s)``."""
    s = c.shape.spin
    a = fourier_circulant(c.hop, c.shape)
    b = fourier_circulant(c.pair, c.shape)
    neg = c.shape.negation_table
    out = np.empty((c.shape.n_sites, 2 * s, 2 * s), dtype=complex)
    out[:, :s, :s] = a
    out[:, :s, s:] = b
    out[:, s:, :s] = np.conj(np.transpose(b, (0, 2, 1)))
    out[:, s:, s:] = -np.transpose(a[neg], (0, 2, 1))
    return out


def particle_hole_residual(blocks: np.ndarray, shape: LatticeShape) -> float:
    """Max norm of ``sx H_k sx + conj(H_{-k})`` over the grid (identically ~0)."""
    swapped = np.roll(blocks, shape.spin, axis=(1, 2))
    return float(np.abs(swapped + np.conj(blocks[shape.negation_table])).max())


def inversion_transform(c: CouplingSet) -> CouplingSet:
    """Site-inversion image ``b_m -> i b_{-m}``: every hop matrix is replaced by its
    adjoint (equivalently ``hop(n) -> hop(-n)``), pairing matrices are kept.  Involution."""
    return CouplingSet(c.shape, {n: m.conj().T for n, m in c.hop.items()}, dict(c.pair))


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
    if not p > 0:
        raise ValueError(f"p-model needs p > 0, got {p}")
    hop1 = np.array(
        [[1j * (p + 1) / 4, -(p + 1) / 4],
         [-(p + 1) / 4, -1j * (p + 1) / 4]],
        dtype=complex,
    )
    hop = {(0,): (p - 1) / 2 * np.eye(2, dtype=complex), (1,): hop1, (-1,): hop1.conj().T}
    return CouplingSet(shape, {shape.reduce(n): m for n, m in hop.items()}, {})


def _twisted_chain(shape: LatticeShape, alpha: float) -> CouplingSet:
    # gauge-twisted half-filled hopping chain: hop(+1) = e^{i alpha}/2, so the
    # band is cos(2 pi k/N - alpha) and <c+_l c_{l+1}> picks up e^{i alpha}
    if shape.d != 1 or shape.spin != 1:
        raise ValueError("twisted-chain is spinless and one-dimensional")
    t = np.exp(1j * alpha) / 2
    hop = {(1,): np.array([[t]]), (-1,): np.array([[np.conj(t)]])}
    return CouplingSet(shape, {shape.reduce(n): m for n, m in hop.items()}, {})


def _spinless_general(shape: LatticeShape, params: Mapping[str, float]) -> CouplingSet:
    # free-form spinless chain; keys  a<r>_re / a<r>_im / b<r>_re / b<r>_im
    # (plain a0 allowed) set hop(r) and pair(r) for r >= 0; the partners at -r
    # are completed from the closure, not averaged in, so a parameter on a
    # self-paired offset or one that conflicts with another fails the closure check
    if shape.d != 1 or shape.spin != 1:
        raise ValueError("spinless-general is spinless and one-dimensional")
    hop: dict[int, complex] = {}
    pair: dict[int, complex] = {}
    for key, value in params.items():
        m = _SPINLESS_KEY.match(key)
        if not m:
            raise ValueError(f"unrecognized spinless-general parameter {key!r}")
        kind, r, part = m.group(1), int(m.group(2)), m.group(3) or "re"
        table = hop if kind == "a" else pair
        table[r] = table.get(r, 0.0) + (value if part == "re" else 1j * value)

    def complete(table, kind):
        raw = {shape.reduce((r,)): np.array([[v]], dtype=complex) for r, v in table.items()}
        return {**_closure_image(raw, shape, kind), **raw}

    return CouplingSet(shape, complete(hop, "hop"), complete(pair, "pair"))


def catalog(mp: ModelParams) -> CouplingSet:
    """Build a named catalog model; unknown names and out-of-range parameters raise."""
    params = dict(mp.params)
    if mp.name == "p-model":
        return _p_model(mp.shape, float(params.pop("p", 2.0)))
    if mp.name == "twisted-chain":
        return _twisted_chain(mp.shape, float(params.pop("alpha", 0.0)))
    if mp.name == "spinless-general":
        return _spinless_general(mp.shape, params)
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
    s = shape.spin
    offsets = sorted(
        np.ndindex(*([2 * reach + 1] * shape.d)),
        key=lambda t: t,
    )

    def draw():
        table = {}
        for raw in offsets:
            n = tuple(c - reach for c in raw)
            table[shape.reduce(n)] = rng.uniform(-1, 1, (s, s)) + 1j * rng.uniform(-1, 1, (s, s))
        return table

    hop = draw()
    pair = draw() if pairing else {}
    return symmetrize(shape, hop, pair)


def slope_bound(c: CouplingSet) -> float:
    """Lipschitz bound on every one-particle band derivative d(lambda)/d(axis angle).

    By Weyl's inequality the bands move no faster than ``||dH_k/d(angle)||``,
    itself bounded by ``sum_n |n_i| (||hop(n)|| + ||pair(n)||)`` per axis.  A
    continuum band crossing therefore shows up on an N-point grid as a
    spectral value below ``bound * pi / N``, which is what makes gap
    thresholds just above that number a rigorous gaplessness filter.
    """
    worst = 0.0
    for axis in range(c.shape.d):
        total = 0.0
        for table in (c.hop, c.pair):
            for n, mat in table.items():
                total += abs(c.shape.signed(n)[axis]) * np.linalg.norm(mat, 2)
        worst = max(worst, total)
    return worst


def scaled(c: CouplingSet, factor: float) -> CouplingSet:
    """Multiply every coupling matrix by a real factor (units change only)."""
    return CouplingSet(
        c.shape,
        {n: factor * m for n, m in c.hop.items()},
        {n: factor * m for n, m in c.pair.items()},
    )


# ---------------------------------------------------------------------------
# model definition files
# ---------------------------------------------------------------------------

class LoadedModel(NamedTuple):
    couplings: CouplingSet
    projection_distance: float


def _matrix_to_json(mat: np.ndarray):
    return [[[float(v.real), float(v.imag)] for v in row] for row in mat]


def _matrix_from_json(data, s: int) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.shape != (s, s, 2):
        raise ValueError(f"matrix must be {s}x{s} of [re, im] pairs, got shape {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def save_model(c: CouplingSet, path) -> None:
    """Write a coupling set as a JSON model definition file."""
    doc = {
        "shape": {"d": c.shape.d, "dims": list(c.shape.dims), "spin": c.shape.spin},
        "couplings": [
            {"kind": kind, "offset": list(n), "matrix": _matrix_to_json(m)}
            for kind, table in (("hop", c.hop), ("pair", c.pair))
            for n, m in sorted(table.items())
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_model(path) -> LoadedModel:
    """Read a model definition file, closure-project it, and report the projection distance."""
    with open(path) as fh:
        doc = json.load(fh)
    sh = doc["shape"]
    shape = LatticeShape(tuple(sh["dims"]), int(sh.get("spin", 1)))
    if "d" in sh and int(sh["d"]) != shape.d:
        raise ValueError(f"shape block says d={sh['d']} but dims has {shape.d} axes")
    hop: dict[tuple[int, ...], np.ndarray] = {}
    pair: dict[tuple[int, ...], np.ndarray] = {}
    for rec in doc.get("couplings", []):
        kind = rec["kind"]
        if kind not in ("hop", "pair"):
            raise ValueError(f"coupling kind must be 'hop' or 'pair', got {kind!r}")
        n = shape.reduce(rec["offset"])
        table = hop if kind == "hop" else pair
        if n in table:
            raise ValueError(f"duplicate {kind} record at reduced offset {n}")
        table[n] = _matrix_from_json(rec["matrix"], shape.spin)
    cs = symmetrize(shape, hop, pair)
    zero = np.zeros((shape.spin, shape.spin), dtype=complex)
    distance = max(
        (float(np.abs(raw.get(n, zero) - table.get(n, zero)).max())
         for raw, table in ((hop, cs.hop), (pair, cs.pair)) for n in set(raw) | set(table)),
        default=0.0,
    )
    return LoadedModel(cs, distance)
