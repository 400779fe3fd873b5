"""Exact references: FCI, CAS-FCI, and the cluster exp/log maps.

Everything here is dense and deterministic. The exponential
parameterization psi = e^T phi_0 is evaluated by finite series only --
cluster operators are nilpotent on the N-electron space, so e^{+-T} and
log(I+S) terminate after at most N applications. No BCH truncation is
used anywhere.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .determinants import (
    AmplitudeVector,
    BasisSplit,
    OrbitalBasis,
    SPACE_FULL,
    determinant_masks,
    excitation_space,
    support_space,
)
from .errors import (
    DimensionLimitError,
    DimensionMismatchError,
    ZeroReferenceOverlapError,
)
from .hamiltonian import MAX_DENSE_DIM, IntegralSet, build_dense_hamiltonian

NORM_L2 = "L2"
NORM_INTERMEDIATE = "INTERMEDIATE"


class DegenerateGroundStateWarning(UserWarning):
    """Spectral gap below resolution; sign fixing falls back to index order."""


@dataclass
class CiVector:
    """Coefficients over the canonical determinant enumeration."""

    basis: OrbitalBasis
    coefficients: np.ndarray
    normalization: str = NORM_L2

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        dim = len(determinant_masks(self.basis.n_orbitals, self.basis.n_electrons))
        if self.coefficients.shape != (dim,):
            raise DimensionMismatchError(
                f"expected {dim} coefficients, got {self.coefficients.shape}"
            )

    def reference_coefficient(self) -> float:
        return float(self.coefficients[_reference_position(self.basis)])

    def intermediate_normalized(self) -> "CiVector":
        c0 = self.reference_coefficient()
        if abs(c0) < 1e-12:
            raise ZeroReferenceOverlapError(
                f"reference overlap {c0:.3e} too small for intermediate normalization"
            )
        return CiVector(self.basis, self.coefficients / c0, NORM_INTERMEDIATE)


@dataclass
class SpectralSummary:
    eigenvalues: np.ndarray
    gap: float
    state_index: int = 0

    @property
    def ground_energy(self) -> float:
        return float(self.eigenvalues[self.state_index])


def _reference_position(basis: OrbitalBasis) -> int:
    masks = determinant_masks(basis.n_orbitals, basis.n_electrons)
    return int(np.flatnonzero(masks == (1 << basis.n_electrons) - 1)[0])


# ---------------------------------------------------------------------------
# Cluster operator application
# ---------------------------------------------------------------------------

def apply_cluster(t: AmplitudeVector, v: np.ndarray, basis: OrbitalBasis) -> np.ndarray:
    """T @ v for T = sum_mu t_mu X_mu; v is (dim,) or a (dim, m) block."""
    space = support_space(t, basis)
    return space.apply(space.embed(t), v)


def exp_cluster_apply(t: AmplitudeVector, v: np.ndarray, basis: OrbitalBasis,
                      sign: int = +1) -> np.ndarray:
    """e^{sign*T} @ v by the finite nilpotent series."""
    space = support_space(t, basis)
    return space.exp_apply(space.embed(t), v, sign)


def cluster_to_ci(t: AmplitudeVector, basis: OrbitalBasis) -> CiVector:
    """e^T phi_0, intermediate-normalized by construction."""
    space = support_space(t, basis)
    psi = space.exp_apply(space.embed(t), space.reference_state())
    return CiVector(basis, psi, NORM_INTERMEDIATE)


def _vector_to_amplitudes(w: np.ndarray, basis: OrbitalBasis) -> AmplitudeVector:
    """Read a reference-orthogonal vector as amplitudes: w = sum t_mu X_mu phi_0."""
    space = excitation_space(basis)
    if w[space.reference] != 0.0:
        raise DimensionMismatchError("vector has a reference component")
    return space.amplitudes(space.project(w), SPACE_FULL)


def ci_to_cluster(psi: CiVector) -> AmplitudeVector:
    """T = log(I + S) with S phi_0 = psi/<phi_0,psi> - phi_0.

    The logarithm series sum_m (-1)^{m+1} S^m/m applied to phi_0
    terminates because S is nilpotent on phi_0.
    """
    basis = psi.basis
    psi = psi.intermediate_normalized()
    c = psi.coefficients.copy()
    c[_reference_position(basis)] = 0.0
    s = _vector_to_amplitudes(c, basis)
    space = support_space(s, basis)
    s_vec = space.embed(s)

    acc = c.copy()           # m = 1 term: S phi_0
    power = c.copy()         # S^m phi_0
    for m in range(2, basis.n_electrons + 1):
        power = space.apply(s_vec, power)
        if not power.any():
            break
        acc += ((-1) ** (m + 1) / m) * power
    return _vector_to_amplitudes(acc, basis)


def similarity_apply(t: AmplitudeVector, v: np.ndarray, ints: IntegralSet,
                     basis: OrbitalBasis) -> np.ndarray:
    """e^{-T} H e^{T} @ v, exact via the finite series."""
    ham = build_dense_hamiltonian(ints, basis)
    w = exp_cluster_apply(t, np.asarray(v, dtype=float), basis, sign=+1)
    return exp_cluster_apply(t, ham @ w, basis, sign=-1)


# ---------------------------------------------------------------------------
# Eigen solves
# ---------------------------------------------------------------------------

def _fix_sign(vec: np.ndarray, degenerate: bool) -> np.ndarray:
    if degenerate:
        lead = next((c for c in vec if abs(c) > 1e-12), 1.0)
    else:
        lead = vec[int(np.argmax(np.abs(vec)))]
    return -vec if lead < 0 else vec


def fci_solve(ints: IntegralSet, basis: OrbitalBasis, n_states: int = 1
              ) -> tuple[SpectralSummary, list[CiVector]]:
    """Lowest eigenpairs of the dense H over the full determinant space."""
    dim = len(determinant_masks(basis.n_orbitals, basis.n_electrons))
    if dim > MAX_DENSE_DIM:
        raise DimensionLimitError(f"FCI dimension {dim} exceeds {MAX_DENSE_DIM}")
    ham = build_dense_hamiltonian(ints, basis)
    evals, evecs = np.linalg.eigh(ham)
    gap = float(evals[1] - evals[0]) if len(evals) > 1 else np.inf
    degenerate = gap < 1e-10
    if degenerate:
        warnings.warn("near-degenerate ground state; sign fix by lowest determinant index",
                      DegenerateGroundStateWarning, stacklevel=2)
    states = [
        CiVector(basis, _fix_sign(evecs[:, i], degenerate), NORM_L2)
        for i in range(min(n_states, len(evals)))
    ]
    return SpectralSummary(evals, gap), states


def cas_fci_solve(ints: IntegralSet, basis: OrbitalBasis, split: BasisSplit,
                  n_states: int = 1) -> tuple[SpectralSummary, list[CiVector]]:
    """Eigenpairs of P H P restricted to determinants inside the CAS.

    Vectors are embedded back into the full coefficient order with zero
    external coefficients.
    """
    # determinants inside the CAS, in enumeration order
    idx = np.flatnonzero(determinant_masks(basis.n_orbitals, basis.n_electrons)
                         < (1 << split.k))
    if len(idx) > MAX_DENSE_DIM:
        raise DimensionLimitError(f"CAS dimension {len(idx)} exceeds {MAX_DENSE_DIM}")
    ham = build_dense_hamiltonian(ints, basis)
    sub = ham[np.ix_(idx, idx)]
    evals, evecs = np.linalg.eigh(sub)
    gap = float(evals[1] - evals[0]) if len(evals) > 1 else np.inf
    degenerate = gap < 1e-10
    if degenerate:
        warnings.warn("near-degenerate CAS ground state; sign fix by lowest determinant index",
                      DegenerateGroundStateWarning, stacklevel=2)
    dim = ham.shape[0]
    states = []
    for i in range(min(n_states, len(evals))):
        full = np.zeros(dim)
        full[idx] = _fix_sign(evecs[:, i], degenerate)
        states.append(CiVector(basis, full, NORM_L2))
    return SpectralSummary(evals, gap), states
