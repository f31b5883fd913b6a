"""Exact ground states of translation-invariant quadratic fermion lattices.

Build a Hamiltonian from finite-support circulant couplings, diagonalize its
momentum-space BdG blocks, extract the exact Gaussian ground-state covariance,
evolve it under a sudden quench, and evaluate the inversion-breaking
invariants whose nonvanishing forces the model gapless.  An exact Fock-space
oracle cross-checks everything at desk scale, sector by sector, from the
columns of the Fock Hamiltonian at the orbit representatives of the lattice
translations.
"""

from .lattice import CouplingTable, LatticeShape, fourier_circulant, inverse_fourier, site_matrix
from .model import (
    CATALOG_NAMES,
    CouplingSet,
    ModelParams,
    bdg_blocks,
    catalog,
    load_model,
    random_model,
    save_model,
    symmetrize,
    validate,
)
from .observables import (
    EntropyScan,
    InvariantReport,
    asymmetry_diagnostics,
    entropy_scan,
    invariant_map,
    verify_criticality,
)
from .oracle import (
    ExactGroundState,
    build_fock_hamiltonian,
    compare_with_quasifree,
    exact_ground_correlators,
    fock_ground_state,
)
from .solver import (
    BogoliubovSolution,
    CovarianceKernel,
    RealSpaceCorrelators,
    Spectrum,
    covariance_from_coefficients,
    diagonalize,
    evolve_quench,
    ground_covariance,
    ground_energy,
    real_space,
    spectrum,
)

__version__ = "0.1.0"
