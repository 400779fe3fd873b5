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
    ExcitationSpace,
    OrbitalBasis,
    SPACE_FULL,
    support_space,
)
from .errors import InputError
from .hamiltonian import IntegralSet, build_dense_hamiltonian

NORM_L2 = "L2"
NORM_INTERMEDIATE = "INTERMEDIATE"
DEGENERACY_TOL = 1e-10   # ground gaps below it are degenerate levels
SECTOR_TOL = 1e-12   # CAS ground-state norm outside the reference's S_z sector that is rounding


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
        dim = len(self.basis.determinants.masks)
        if self.coefficients.shape != (dim,):
            raise InputError(f"expected {dim} coefficients, got {self.coefficients.shape}")

    def intermediate_normalized(self) -> "CiVector":
        c0 = float(self.coefficients[self.basis.determinants.reference])
        if abs(c0) < 1e-12:
            raise InputError(f"reference overlap {c0:.3e} too small for intermediate normalization")
        return CiVector(self.basis, self.coefficients / c0, NORM_INTERMEDIATE)


@dataclass
class SpectralSummary:
    eigenvalues: np.ndarray
    gap: float
    state_index: int = 0

    @property
    def ground_energy(self) -> float:
        return float(self.eigenvalues[self.state_index])


# ---------------------------------------------------------------------------
# Cluster exp/log maps
# ---------------------------------------------------------------------------

def cluster_to_ci(t: AmplitudeVector, basis: OrbitalBasis) -> CiVector:
    """e^T phi_0, intermediate-normalized by construction."""
    space = support_space(t, basis)
    psi = space.exp_apply(space.embed(t), space.dets.reference_state())
    return CiVector(basis, psi, NORM_INTERMEDIATE)


def _support_space(w: np.ndarray, basis: OrbitalBasis) -> ExcitationSpace:
    """The support space of the indices mu with X_mu phi_0 in the support of a
    reference-orthogonal w (support_space refuses phi_0's mask): w = sum t_mu X_mu phi_0
    for t = project(w) on it."""
    return support_space(basis.determinants.masks[np.flatnonzero(w)].tolist(), basis)


def ci_to_cluster(psi: CiVector) -> AmplitudeVector:
    """T = log(I + S) with S phi_0 = psi/<phi_0,psi> - phi_0.

    The logarithm series sum_m (-1)^{m+1} S^m/m applied to phi_0
    terminates because S is nilpotent on phi_0.
    """
    basis = psi.basis
    psi = psi.intermediate_normalized()
    c = psi.coefficients.copy()
    c[basis.determinants.reference] = 0.0
    space = _support_space(c, basis)
    s_vec = space.project(c)

    acc = c.copy()           # m = 1 term: S phi_0
    power = c.copy()         # S^m phi_0
    for m in range(2, basis.n_electrons + 1):
        power = space.apply(s_vec, power)
        if not power.any():
            break
        acc += ((-1) ** (m + 1) / m) * power
    space = _support_space(acc, basis)
    return space.amplitudes(space.project(acc), SPACE_FULL)


# ---------------------------------------------------------------------------
# Eigen solves
# ---------------------------------------------------------------------------

def _fix_sign(vec: np.ndarray, degenerate: bool) -> np.ndarray:
    if degenerate:
        lead = next((c for c in vec if abs(c) > 1e-12), 1.0)
    else:
        lead = vec[int(np.argmax(np.abs(vec)))]
    return -vec if lead < 0 else vec


def _lowest_states(ham: np.ndarray, basis: OrbitalBasis, blocks: tuple[np.ndarray, ...],
                   n_states: int) -> tuple[SpectralSummary, list[CiVector]]:
    """Eigenpairs of H over determinant blocks it does not couple, embedded in full order.

    The blocks' spectra merge into one ascending spectrum; within a degenerate
    ground level the reference's block comes first.
    """
    dim = sum(len(idx) for idx in blocks)
    if not 1 <= n_states <= dim:
        raise InputError(f"n_states must lie in 1..{dim}, got {n_states}")
    pairs = [np.linalg.eigh(ham[np.ix_(idx, idx)]) for idx in blocks]
    values = np.concatenate([evals for evals, _ in pairs])
    block = np.repeat(np.arange(len(blocks)), [len(idx) for idx in blocks])
    order = np.argsort(values, kind="stable")
    gap = float(values[order[1]] - values[order[0]]) if len(values) > 1 else np.inf
    degenerate = gap < DEGENERACY_TOL
    if degenerate:
        lead = np.array([basis.determinants.reference in idx for idx in blocks])[block]
        order = np.lexsort((values, ~(lead & (values - values[order[0]] < DEGENERACY_TOL))))
    states = []
    for i in order[:n_states]:
        b = block[i]   # eigenvector column: i less the position of block b's first value
        full = np.zeros(len(ham))
        full[blocks[b]] = _fix_sign(pairs[b][1][:, i - np.searchsorted(block, b)], degenerate)
        states.append(CiVector(basis, full, NORM_L2))
    return SpectralSummary(values[order], gap), states


def _warned(solved: tuple[SpectralSummary, list[CiVector]], label: str) -> tuple:
    """`solved`, after one warning if its ground level is degenerate."""
    if solved[0].gap < DEGENERACY_TOL:
        warnings.warn(f"near-degenerate {label}ground state; sign fix by lowest determinant index",
                      DegenerateGroundStateWarning, stacklevel=3)
    return solved


def fci_solve(ints: IntegralSet, basis: OrbitalBasis, n_states: int = 1
              ) -> tuple[SpectralSummary, list[CiVector]]:
    """Lowest eigenpairs of the dense H over the full space, one S_z sector at a time."""
    ham = build_dense_hamiltonian(ints, basis)
    return _warned(_lowest_states(ham, basis, basis.determinants.sectors, n_states), "")


def cas_fci_solve(ints: IntegralSet, split: BasisSplit, *, n_states: int = 1
                  ) -> tuple[SpectralSummary, list[CiVector]]:
    """Eigenpairs of P H P restricted to determinants inside the CAS of split.basis.

    One block, or one per S_z sector when the block's ground state has more than
    rounding weight outside the reference's sector (an odd-N doublet's M_s = -1/2
    member). Vectors are embedded back into the full coefficient order with zero
    external coefficients.
    """
    basis = split.basis
    ham, cas, dets = build_dense_hamiltonian(ints, basis), split.cas_determinants(), basis.determinants
    solved = _lowest_states(ham, basis, (np.flatnonzero(cas),), n_states)
    ref_sector = next(s for s in dets.sectors if dets.reference in s)
    if np.linalg.norm(np.delete(solved[1][0].coefficients, ref_sector)) > SECTOR_TOL:
        blocks = tuple(s[cas[s]] for s in dets.sectors if cas[s].any())
        solved = _lowest_states(ham, basis, blocks, n_states)
    return _warned(solved, "CAS ")
