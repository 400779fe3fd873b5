"""Desk-scale tailored coupled-cluster workbench.

Determinant algebra with exact sign bookkeeping, dense FCI/CAS-FCI
references, the linked tailored amplitude equations with a quasi-Newton
solver, entropy-based active-space selection, and a diagnostics suite
(gap reports, monotonicity probes, energy-error decomposition, dual
solves, quadratic-scaling studies).

The exported names resolve on first access (PEP 562), so `import tccbench`
loads no submodule and each name loads only the module that defines it.
They are looked up there on every access, never copied into this namespace:
whatever rebinds a module's function is seen through the package too.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names it exports through the package
_EXPORTS = {
    "determinants": (
        "AmplitudeVector", "BasisSplit", "Determinant", "ExcitationIndex",
        "ExcitationSpace", "OrbitalBasis", "apply_excitation", "classify_excitation",
        "enumerate_determinants", "enumerate_excitations", "excitation_space",
        "v_ext_norm"),
    "hamiltonian": (
        "FockSpectrum", "IntegralSet", "build_dense_hamiltonian", "canonicalize_core",
        "fock_matrix", "hubbard_model", "pairing_model", "rotate_orbitals"),
    "fcidump": ("parse_fcidump", "write_fcidump"),
    "exact": (
        "CiVector", "SpectralSummary", "cas_fci_solve", "ci_to_cluster",
        "cluster_to_ci", "fci_solve"),
    "tcc": (
        "Study", "TailoredHamiltonian", "TccConfig", "TccResult", "TruncationScheme",
        "enumerate_truncated_space", "solve_dual", "solve_tcc", "split_amplitudes",
        "tcc_energy", "tcc_jacobian", "tcc_residual"),
    "entropy": (
        "CasSelection", "OrbitalEntropyProfile", "mutual_information", "one_orbital_rdm",
        "permute_spatial_orbitals", "select_cas", "two_orbital_rdm"),
    "diagnostics": (
        "AssumptionReport", "ErrorDecomposition", "GapReport", "ScalingStudy",
        "assumption_b_report", "error_decomposition", "error_representation_check",
        "fock_norm_identity_check", "gap_report", "linear_limit_scaling_study",
        "monotonicity_probe", "quadratic_scaling_study"),
    "errors": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
