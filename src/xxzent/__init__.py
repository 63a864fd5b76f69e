"""Ground-state nearest-neighbor concurrence of the spin-1/2 XXZ antiferromagnet.

Exact diagonalization on finite hypercubic lattices, linear spin-wave
theory in the thermodynamic limit, and machine checks of the analytic
structure (peak at the isotropic point, energy concavity, the
Hellmann-Feynman identity, and the d >= 2 cusp).
"""

__version__ = "0.1.0"

from .analysis import (
    ConcurrenceCurve,
    ExtremumReport,
    FitResult,
    ScanSample,
    delta_grid,
    scan_ed,
    scan_spinwave,
)
from .ed import (
    GroundState,
    LanczosError,
    SectorBasis,
    SectorError,
    SparseHamiltonian,
    build_hamiltonian,
    dense_ground_oracle,
    enumerate_basis,
    lanczos_ground,
    sector_dimension,
    solve_ground,
)
from .entanglement import (
    BondCorrelators,
    TwoSiteRDM,
    concurrence_block,
    concurrence_corr,
    concurrence_from_energy,
    correlators,
    mean_bond_correlators,
    operator_bond_correlators,
    two_site_rdm,
    wootters_oracle,
)
from .lattice import Bond, Lattice, LatticeSpec, build_lattice
from .spinwave import bogoliubov_factors

__all__ = [
    "Bond",
    "BondCorrelators",
    "ConcurrenceCurve",
    "ExtremumReport",
    "FitResult",
    "GroundState",
    "Lattice",
    "LatticeSpec",
    "LanczosError",
    "ScanSample",
    "SectorBasis",
    "SectorError",
    "SparseHamiltonian",
    "bogoliubov_factors",
    "build_hamiltonian",
    "build_lattice",
    "concurrence_block",
    "concurrence_corr",
    "concurrence_from_energy",
    "correlators",
    "delta_grid",
    "dense_ground_oracle",
    "enumerate_basis",
    "lanczos_ground",
    "mean_bond_correlators",
    "operator_bond_correlators",
    "scan_ed",
    "scan_spinwave",
    "sector_dimension",
    "solve_ground",
    "two_site_rdm",
    "wootters_oracle",
]
