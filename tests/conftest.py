import numpy as np
import pytest

from quasifree import LatticeShape, ModelParams, catalog


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


# 4096 momenta at s = 2: diagonalize's memory check asks 64 MiB + 434 B per
# momentum, evolve_quench's 64 MiB + 1680 B; this machine passes only the first
QUENCH_SHORT_MEMORY = (64 << 20) + 4096 * 800


def fake_sysconf(physical_bytes: int):
    """An ``os.sysconf`` stand-in for a machine with 4 KiB pages and this much memory."""
    return lambda name: 4096 if name == "SC_PAGE_SIZE" else physical_bytes // 4096
