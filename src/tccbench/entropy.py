"""Orbital entanglement entropies and active-space selection.

One- and two-orbital reduced density matrices of every orbital and of
every pair i < j are read at once from a CI vector and the determinant
bit masks (no 2^K tensors). For a fixed particle-number state,
particle-number superselection makes the one-orbital matrix diagonal and
the two-orbital matrix block-diagonal in the local particle number; the
only off-diagonal element is the exchange coherence between the |10> and
|01> local configurations.

Entropies use the natural logarithm, so s(i) <= ln 2 and
s(i,j) <= ln 4.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import InputError
from .exact import CiVector
from .hamiltonian import IntegralSet

NORM_TOL = 1e-10


def _check_normalized(psi: CiVector) -> np.ndarray:
    c = psi.coefficients
    nrm = float(np.linalg.norm(c))
    if not abs(nrm - 1.0) <= NORM_TOL:   # a NaN or inf coefficient makes nrm NaN or inf
        raise InputError(f"CI vector norm is {nrm!r}, expected 1")
    return c


def _column_sums(hit: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Sum of w over the rows that `hit` marks, per column, added in row order."""
    return np.cumsum(np.where(hit, w, 0.0), axis=0)[-1]


def _orbital_rdms(psi: CiVector) -> tuple[np.ndarray, np.ndarray]:
    """Every one-orbital RDM, (K, 2, 2), and pair i < j RDM, (K(K-1)/2, 4, 4) in triu_indices
    order, on the local basis |00>,|01>,|10>,|11> (|01>: j occupied, |10>: i occupied).

    Each entry sums over the determinants in enumeration order, as a loop would.
    """
    c = _check_normalized(psi)
    k = psi.basis.n_orbitals
    occ = psi.basis.determinants.occupations
    w = (c * c)[:, None]
    n_occ = _column_sums(occ, w)
    one = np.zeros((k, 2, 2))
    one[:, 0, 0], one[:, 1, 1] = 1.0 - n_occ, n_occ

    i, j = np.triu_indices(k, 1)
    oi, oj = occ[:, i], occ[:, j]
    local = (~oi & ~oj, ~oi & oj, oi & ~oj, oi & oj)   # |00>, |01>, |10>, |11> per pair
    two = np.zeros((len(i), 4, 4))
    for a, hit in enumerate(local):
        two[:, a, a] = _column_sums(hit, w)
    # Exchange coherence <10|rho|01>: sum of c_d c_d' (no phase, as the dense
    # oracle confirms) over the |10> determinants d, d' being d with i moved to j.
    # Lexicographic order compares determinants by the lowest orbital just one
    # holds, which the move keeps, so the n-th |10> one maps to the n-th |01> one.
    pair, src = np.nonzero(local[2].T)
    dst = np.nonzero(local[1].T)[1]
    two[:, 2, 1] = two[:, 1, 2] = np.bincount(pair, weights=c[src] * c[dst], minlength=len(i))
    return one, two


def _von_neumann(rho: np.ndarray) -> np.ndarray:
    """Entropies of a stack of density matrices, (..., m, m) -> (...)."""
    evals = np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0)
    nz = evals > 1e-300
    return -np.where(nz, evals * np.log(np.where(nz, evals, 1.0)), 0.0).sum(axis=-1)


@dataclass
class OrbitalEntropyProfile:
    """Per-orbital entropies, pair entropies and mutual information."""

    s1: np.ndarray          # (K,)
    s2: np.ndarray          # (K, K), diagonal zero by convention
    mi: np.ndarray          # (K, K), I(i,i) = 0

    @property
    def n_orbitals(self) -> int:
        return len(self.s1)


def mutual_information(psi: CiVector) -> OrbitalEntropyProfile:
    """Full entropy profile: s(i), s(i,j), I(i,j) = s(i)+s(j)-s(i,j)."""
    one, two = _orbital_rdms(psi)
    s1 = _von_neumann(one)
    s2 = np.zeros((len(s1), len(s1)))
    i, j = np.triu_indices(len(s1), 1)
    s2[i, j] = s2[j, i] = _von_neumann(two)
    mi = s1[:, None] + s1[None, :] - s2
    np.fill_diagonal(mi, 0.0)
    return OrbitalEntropyProfile(s1, s2, mi)


# ---------------------------------------------------------------------------
# CAS selection
# ---------------------------------------------------------------------------

MODE_THRESHOLD = "THRESHOLD"
MODE_JUMP = "JUMP"


class WeakProfileWarning(UserWarning):
    """No orbital passed the selection thresholds; falling back to k = N."""


@dataclass
class CasSelection:
    """Proposed active space, possibly non-contiguous in the input order."""

    orbitals: tuple[int, ...]          # selected spin-orbitals, sorted
    k: int                             # CAS size after relabeling
    spin_permutation: tuple[int, ...]  # new order of spin-orbitals (1-based)
    spatial_permutation: tuple[int, ...]  # new order of spatial orbitals (1-based)
    jump_ratio: Optional[float] = None
    jump_ties: int = 0


def _spatial(i: int) -> int:
    return (i + 1) // 2


def _spin_pair(spatial: int) -> tuple[int, int]:
    return 2 * spatial - 1, 2 * spatial


def check_thresholds(s_threshold: float, mi_threshold: float) -> None:
    """Reject a negative (or NaN) selection threshold."""
    if not (s_threshold >= 0 and mi_threshold >= 0):   # NaN fails too
        raise InputError(f"thresholds must be nonnegative, got {s_threshold}, {mi_threshold}")


def select_cas(profile: OrbitalEntropyProfile, n_electrons: int,
               s_threshold: float = 0.0, mi_threshold: float = 0.0,
               mode: str = MODE_THRESHOLD) -> CasSelection:
    """Pick active spin-orbitals from an entropy profile.

    THRESHOLD keeps {i : s(i) > s_threshold} plus every orbital with a
    mutual information above mi_threshold; JUMP sorts the I values
    descending, cuts at the largest consecutive ratio gap and keeps the
    orbitals appearing above the cut (the first such gap wins on ties,
    recorded in jump_ties). The reference orbitals 1..N are always
    included, and the selection is closed under spin partners so the
    active space maps to whole spatial orbitals. The emitted permutations
    relabel the basis so the CAS becomes 1..k.
    """
    check_thresholds(s_threshold, mi_threshold)
    k_orb = profile.n_orbitals
    if k_orb % 2:
        raise InputError(f"spin partners need an even number of spin-orbitals, got K = {k_orb}")
    selected: set[int] = set()
    jump_ratio = None
    jump_ties = 0

    if mode == MODE_THRESHOLD:
        selected.update((np.flatnonzero(profile.s1 > s_threshold) + 1).tolist())
        selected.update((np.argwhere(np.triu(profile.mi > mi_threshold, 1)) + 1).ravel().tolist())
        if not selected:
            warnings.warn("no orbital passed the thresholds; proposing k = N",
                          WeakProfileWarning, stacklevel=2)
    elif mode == MODE_JUMP:
        i, j = np.triu_indices(k_orb, 1)
        pairs = sorted(zip(profile.mi[i, j].tolist(), (i + 1).tolist(), (j + 1).tolist()),
                       key=lambda r: (-r[0], r[1], r[2]))
        values = [r[0] for r in pairs]
        best, cut = 0.0, 0
        for a in range(len(values) - 1):
            hi, lo = values[a], values[a + 1]
            if hi <= 0.0:
                break
            ratio = np.inf if lo <= 0.0 else hi / lo
            if ratio > best:
                best, cut, jump_ties = ratio, a + 1, 0
            elif ratio == best and np.isfinite(ratio):
                jump_ties += 1
        jump_ratio = best if cut else None
        for _, i, j in pairs[:cut]:
            selected.update((i, j))
    else:
        raise InputError(f"unknown selection mode {mode!r}")

    selected.update(range(1, n_electrons + 1))
    # close under spin partners
    spatial_sel = sorted({_spatial(i) for i in selected})
    orbitals = tuple(s for p in spatial_sel for s in _spin_pair(p))
    spatial_rest = [p for p in range(1, k_orb // 2 + 1) if p not in spatial_sel]
    spatial_perm = tuple(spatial_sel + spatial_rest)
    spin_perm = tuple(s for p in spatial_perm for s in _spin_pair(p))
    return CasSelection(orbitals, len(orbitals), spin_perm, spatial_perm,
                        jump_ratio, jump_ties)


def permute_spatial_orbitals(ints: IntegralSet, perm: tuple[int, ...]) -> IntegralSet:
    """Relabel spatial orbitals: new orbital a is old orbital perm[a-1].

    Exact (pure index shuffling, no arithmetic).
    """
    idx = np.array(perm) - 1
    if sorted(perm) != list(range(1, ints.n_spatial + 1)):
        raise InputError(f"not a permutation of 1..{ints.n_spatial}: {perm}")
    return replace(ints, h=ints.h[np.ix_(idx, idx)], g=ints.g[np.ix_(idx, idx, idx, idx)])
