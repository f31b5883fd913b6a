import numpy as np
import pytest

from quasifree import LatticeShape, ModelParams, catalog
from quasifree.lattice import fourier_circulant


@pytest.fixture
def p_model_64():
    return catalog(ModelParams("p-model", {"p": 2.0}, LatticeShape((64,), 2)))


@pytest.fixture
def twisted_critical_64():
    return catalog(ModelParams("twisted-chain", {"alpha": np.pi / 2}, LatticeShape((64,), 1)))


def make_twisted(n_sites: int, alpha: float):
    return catalog(ModelParams("twisted-chain", {"alpha": alpha}, LatticeShape((n_sites,), 1)))


def make_p_model(n_sites: int, p: float):
    return catalog(ModelParams("p-model", {"p": p}, LatticeShape((n_sites,), 2)))


# 4096 momenta at s = 2: diagonalize's memory check asks 64 MiB + 400 B per
# momentum, evolve_quench's 64 MiB + 1008 B; this machine, midway, passes only the first
QUENCH_SHORT_MEMORY = (64 << 20) + 4096 * 704


def fake_sysconf(physical_bytes: int):
    """An ``os.sysconf`` stand-in for a machine with 4 KiB pages and this much memory."""
    return lambda name: 4096 if name == "SC_PAGE_SIZE" else physical_bytes // 4096


def spinless_closed_form(c):
    """Closed-form one-particle energies of a spinless model, a reference that
    shares no code with ``diagonalize``.

    Per momentum, ``(A_k - A_{-k} + sqrt((A_k + A_{-k})^2 + 4 |B_k|^2)) / 2``;
    together with ``-value(-k)`` this reproduces the 2x2 block eigenvalue pair.
    """
    if c.shape.spin != 1:
        raise ValueError("closed form applies to spinless models only")
    a = fourier_circulant(c.hop, c.shape)[:, 0, 0].real
    b = fourier_circulant(c.pair, c.shape)[:, 0, 0]
    an = a[c.shape.negation_table]
    rad = (a + an) ** 2 + 4.0 * np.abs(b) ** 2
    return (a - an + np.sqrt(np.clip(rad, 0.0, None))) / 2.0
