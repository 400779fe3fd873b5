"""Desk-scale tailored coupled-cluster workbench.

Determinant algebra with exact sign bookkeeping, dense FCI/CAS-FCI
references, the linked tailored amplitude equations with a quasi-Newton
solver, entropy-based active-space selection, and a diagnostics suite
(gap reports, monotonicity probes, energy-error decomposition, dual
solves, quadratic-scaling studies).
"""

__version__ = "0.1.0"

from .determinants import (
    AmplitudeVector,
    BasisSplit,
    Determinant,
    ExcitationIndex,
    ExcitationSpace,
    OrbitalBasis,
    apply_excitation,
    classify_excitation,
    enumerate_determinants,
    enumerate_excitations,
    excitation_from_reference,
    excitation_space,
    v_ext_norm,
)
from .hamiltonian import (
    FockSpectrum,
    IntegralSet,
    build_dense_hamiltonian,
    canonicalize_core,
    fock_matrix,
    hubbard_model,
    matrix_element,
    pairing_model,
    parse_fcidump,
    rotate_orbitals,
    write_fcidump,
)
from .exact import (
    CiVector,
    SpectralSummary,
    cas_fci_solve,
    ci_to_cluster,
    cluster_to_ci,
    fci_solve,
)
from .tcc import (
    TailoredHamiltonian,
    TccConfig,
    TccResult,
    TruncationScheme,
    enumerate_truncated_space,
    solve_tcc,
    split_amplitudes,
    tcc_energy,
    tcc_residual,
    truncated_space,
)
from .entropy import (
    CasSelection,
    OrbitalEntropyProfile,
    mutual_information,
    one_orbital_rdm,
    permute_spatial_orbitals,
    select_cas,
    two_orbital_rdm,
)
from .diagnostics import (
    AssumptionReport,
    ErrorDecomposition,
    GapReport,
    ScalingStudy,
    Study,
    assumption_b_report,
    error_decomposition,
    error_representation_check,
    fock_norm_identity_check,
    gap_report,
    linear_limit_scaling_study,
    monotonicity_probe,
    quadratic_scaling_study,
    solve_dual,
    tcc_jacobian,
)

__all__ = [name for name in dir() if not name.startswith("_")]
