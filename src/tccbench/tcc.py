"""Tailored coupled-cluster equations on a truncated external space.

The CAS amplitudes t^CAS are frozen throughout; the external amplitudes
solve the projected root problem

    0 = f(t; t^CAS)_mu = <X_mu phi_0, e^{-T^CAS} e^{-T} H e^{T} e^{T^CAS} phi_0>

for mu in the chosen truncated index set, by damped quasi-Newton
iteration with the Fock-diagonal Jacobian approximation D = diag(eps_mu)
and optional DIIS acceleration. k = N reproduces single-reference CC,
k = K reproduces CAS-FCI. The exact Jacobian, the adjoint (dual) solve and
`Study`, the cache that makes each solve of one problem once, live here
beside the solver they call.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Optional, Sequence

import numpy as np

from .determinants import (
    AmplitudeVector,
    BasisSplit,
    SPACE_CAS,
    SPACE_EXT,
    SPACE_FULL,
    SPACE_TRUNCATED,
    ExcitationIndex,
    ExcitationSpace,
    _frozen,
    classify_excitation,
    enumerate_excitations,
    excitation_space,
)
from .errors import (
    GapViolationError,
    SingularJacobianError,
    SolverFailureError,
    SpaceMismatchError,
)
from .exact import cas_fci_solve, ci_to_cluster
from .hamiltonian import FockSpectrum, IntegralSet, build_dense_hamiltonian

MODE_RANK = "rank"
MODE_FOI = "foi"
MODE_FULL = "full"

DIVERGENCE_LIMIT = 1.0e3


@dataclass(frozen=True)
class TruncationScheme:
    """Which external indices are kept.

    'rank' keeps |mu| <= n (reference-rooted excitation rank);
    'foi' keeps indices with at most n external particles, i.e. bounded
    external rank from any CAS determinant (first-order interaction
    style); 'full' keeps all of the external index set.
    """

    mode: str
    n: Optional[int] = None

    def __post_init__(self):
        if self.mode not in (MODE_RANK, MODE_FOI, MODE_FULL):
            raise ValueError(f"unknown truncation mode {self.mode!r}")
        if self.mode != MODE_FULL and (self.n is None or self.n < 1):
            raise ValueError(f"mode {self.mode!r} needs a positive rank cap")

    def describe(self) -> str:
        return self.mode if self.mode == MODE_FULL else f"{self.mode}:{self.n}"


@lru_cache(maxsize=32)
def external_space(split: BasisSplit) -> ExcitationSpace:
    """Every external index, in enumerate_excitations order: the one space of them."""
    return excitation_space(split.basis, tuple(
        mu for mu in enumerate_excitations(split.basis) if classify_excitation(mu, split) == "ext"))


@lru_cache(maxsize=32)
def truncation_positions(split: BasisSplit, scheme: TruncationScheme) -> np.ndarray:
    """The ascending positions in external_space(split) of the indices the scheme keeps."""
    return _frozen(np.flatnonzero([
        (scheme.mode != MODE_RANK or mu.rank <= scheme.n)
        and (scheme.mode != MODE_FOI or sum(p > split.k for p in mu.particles) <= scheme.n)
        for mu in external_space(split).indices]))


def enumerate_truncated_space(split: BasisSplit, scheme: TruncationScheme
                              ) -> list[ExcitationIndex]:
    """Deterministically ordered external indices kept by the scheme."""
    indices = external_space(split).indices
    return [indices[a] for a in truncation_positions(split, scheme)]


@lru_cache(maxsize=32)
def cas_space(split: BasisSplit) -> ExcitationSpace:
    """Every CAS index, in enumerate_excitations order."""
    return excitation_space(split.basis, tuple(
        mu for mu in enumerate_excitations(split.basis) if classify_excitation(mu, split) == "cas"))


@dataclass(frozen=True)
class TccConfig:
    max_iterations: int = 200
    tolerance: float = 1e-10
    damping: float = 1.0
    diis: Optional[int] = None
    truncation: TruncationScheme = field(default_factory=lambda: TruncationScheme(MODE_FULL))

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if not 0 < self.tolerance < np.inf:   # NaN fails too
            raise ValueError("tolerance must be positive and finite")
        if not 0 < self.damping <= 1:
            raise ValueError("damping must lie in (0, 1]")
        if self.diis is not None and self.diis < 0:
            raise ValueError("diis must be a non-negative history length")


@dataclass
class TccResult:
    t: AmplitudeVector
    energy: float
    # (iter, l2 residual norm, eps-dual residual norm sqrt(sum r^2/eps), energy)
    history: list[tuple[int, float, float, float]]
    converged: bool
    iterations: int
    diverged: bool = False


# ---------------------------------------------------------------------------
# Residual and energy
# ---------------------------------------------------------------------------

class TailoredHamiltonian:
    """e^{-T^CAS} e^{-T} H e^{T} e^{T^CAS} on ndarrays, for frozen t^CAS.

    T runs over external_space(split), as an amplitude ndarray in its index order; e^{T^CAS}
    phi_0 is computed once. Results hold the determinants of level <= `rank` (default: all
    that residual reads) and zeros elsewhere, so e^{-T} and e^{-T^CAS} run on that block's
    leading table rows, and e^{T} on those up to rank + 2, as H couples levels at most 2 apart.
    """

    def __init__(self, t_cas: AmplitudeVector, ints: IntegralSet, split: BasisSplit,
                 rank: Optional[int] = None):
        if t_cas.space != SPACE_CAS:
            raise SpaceMismatchError(f"CAS amplitudes tagged {t_cas.space!r}")
        self.space = space = external_space(split)
        self.cas = cas_space(split)
        self.t_cas = self.cas.embed(t_cas)
        self.ham = build_dense_hamiltonian(ints, split.basis)
        self.u0 = self.cas.exp_apply(self.t_cas, space.reference_state())
        rank = space.ranks.max(initial=0) if rank is None else rank
        self.forward = space.block(rank + 2)   # first, so the table is built once
        self.rows = space.block(rank)
        self.outside = space.dets.levels > rank
        self.cas_coef = self.cas.coefficients(self.t_cas, self.cas.block(rank))

    def conjugate(self, t: np.ndarray, w: np.ndarray) -> np.ndarray:
        """e^{-T^CAS} e^{-T} H e^{T} w on the block; w is (dim,) or (dim, m)."""
        coef = self.space.coefficients(t, self.forward)
        w = self.ham @ self.space.exp_series(coef, w, +1)
        w[self.outside] = 0.0
        w = self.space.exp_series(coef[:self.rows], w, -1)
        return self.cas.exp_series(self.cas_coef, w, -1)

    def __call__(self, t: np.ndarray) -> np.ndarray:
        """The transformed reference e^{-T^CAS} e^{-T} H e^{T} e^{T^CAS} phi_0."""
        return self.conjugate(t, self.u0)

    def residual(self, t: np.ndarray) -> np.ndarray:
        """f(t; t^CAS) over the indices of the space."""
        return self.space.project(self(t))


def _transformed_reference(t: AmplitudeVector, t_cas: AmplitudeVector, ints: IntegralSet,
                           split: BasisSplit, rank: int) -> np.ndarray:
    """The transformed reference up to level `rank`, with t embedded in external_space(split).

    Rows of indices off t's support add +-0.0 to sums that start at +0.0: the bits of T on it."""
    if t.space not in (SPACE_EXT, SPACE_TRUNCATED):
        raise SpaceMismatchError(f"external amplitudes tagged {t.space!r}")
    return TailoredHamiltonian(t_cas, ints, split, rank)(external_space(split).embed(t))


def tcc_residual(t: AmplitudeVector, t_cas: AmplitudeVector, ints: IntegralSet,
                 split: BasisSplit, scheme: TruncationScheme) -> AmplitudeVector:
    """f(t; t^CAS) restricted to the truncated index set."""
    space, kept = external_space(split), truncation_positions(split, scheme)
    v = _transformed_reference(t, t_cas, ints, split, space.ranks[kept].max(initial=0))
    return space.amplitudes(space.project(v)[kept], SPACE_TRUNCATED, scheme.describe(), kept)


def tcc_energy(t: AmplitudeVector, t_cas: AmplitudeVector, ints: IntegralSet,
               split: BasisSplit) -> float:
    """<phi_0, e^{-T^CAS} e^{-T} H e^{T} e^{T^CAS} phi_0>."""
    v = _transformed_reference(t, t_cas, ints, split, 0)
    return float(v[external_space(split).reference])


# ---------------------------------------------------------------------------
# FCI amplitude splitting
# ---------------------------------------------------------------------------

def split_amplitudes(t_full: AmplitudeVector, split: BasisSplit
                     ) -> tuple[AmplitudeVector, AmplitudeVector]:
    """Partition full-space amplitudes into (t^CAS, t^ext) under the split."""
    if t_full.space != SPACE_FULL:
        raise SpaceMismatchError(f"expected a full-space vector, got {t_full.space!r}")
    cas, ext = {}, {}
    for mu, val in t_full.entries.items():
        (cas if classify_excitation(mu, split) == "cas" else ext)[mu] = val
    return AmplitudeVector(SPACE_CAS, cas), AmplitudeVector(SPACE_EXT, ext)


# ---------------------------------------------------------------------------
# Quasi-Newton solve
# ---------------------------------------------------------------------------

def _diis_extrapolate(trials: Sequence[np.ndarray], errors: Sequence[np.ndarray]) -> np.ndarray:
    m = len(trials)
    b = np.full((m + 1, m + 1), -1.0)
    b[:m, :m] = np.array([[float(e1 @ e2) for e2 in errors] for e1 in errors])
    b[m, m] = 0.0
    rhs = np.zeros(m + 1)
    rhs[m] = -1.0
    coef, *_ = np.linalg.lstsq(b, rhs, rcond=None)
    return sum(c * t for c, t in zip(coef[:m], trials))


def solve_tcc(t_cas: AmplitudeVector, ints: IntegralSet, split: BasisSplit,
              fock: FockSpectrum, config: TccConfig = TccConfig()) -> TccResult:
    """Damped quasi-Newton iteration t <- t - damping * D^{-1} f(t; t^CAS).

    D = diag(eps_mu) over the truncated index set; requires all eps_mu
    positive. Divergence guard: abort when the weighted amplitude norm
    exceeds 1e3 or the residual is not finite (the underlying theory is
    local, runaway iterates are reported rather than truncated).
    """
    scheme = config.truncation
    space, kept = external_space(split), truncation_positions(split, scheme)
    op = TailoredHamiltonian(t_cas, ints, split, space.ranks[kept].max(initial=0))
    t_full, t_vec = np.zeros(len(space)), np.zeros(len(kept))   # t_full: t_vec at kept, else 0

    if not len(kept):
        # k = K (or an empty truncation): nothing to solve
        energy = float(op(t_full)[space.reference])
        t = space.amplitudes(t_vec, SPACE_TRUNCATED, scheme.describe(), kept)
        return TccResult(t, energy, [(0, 0.0, 0.0, energy)], True, 0)

    eps = space.epsilon(fock)[kept]
    if eps.min() <= 0.0:
        raise GapViolationError(f"min eps_mu = {eps.min():.6e} <= 0 over the truncated index set")

    history: list[tuple[int, float, float, float]] = []
    trials, errs = deque(maxlen=config.diis), deque(maxlen=config.diis)   # the DIIS window
    converged = diverged = False
    it = 0

    for it in range(1, config.max_iterations + 1):
        t_full[kept] = t_vec
        v = op(t_full)
        r_vec = space.project(v)[kept]
        energy = float(v[space.reference])
        l2 = float(np.linalg.norm(r_vec))
        vnorm = float(np.sqrt((eps * t_vec**2).sum()))
        history.append((it, l2, float(np.sqrt((r_vec**2 / eps).sum())), energy))

        if l2 <= config.tolerance:
            converged = True
            break
        # NaN compares false, so a non-finite residual must be caught explicitly
        if not (np.isfinite(l2) and np.isfinite(vnorm)) or vnorm > DIVERGENCE_LIMIT:
            diverged = True
            break

        step = -config.damping * r_vec / eps
        trial = t_vec + step
        if config.diis:
            trials.append(trial)
            errs.append(step)
            if len(trials) > 1:
                trial = _diis_extrapolate(trials, errs)
        t_vec = trial
    else:
        # out of iterations: the last update was never evaluated
        t_full[kept] = t_vec
        energy = float(op(t_full)[space.reference])

    t = space.amplitudes(t_vec, SPACE_TRUNCATED, scheme.describe(), kept)
    return TccResult(t, energy, history, converged, it, diverged)


# ---------------------------------------------------------------------------
# Jacobian, dual solves and the solve cache
# ---------------------------------------------------------------------------

def tcc_jacobian(t: AmplitudeVector, t_cas: AmplitudeVector, ints: IntegralSet,
                 split: BasisSplit, indices: Sequence[ExcitationIndex]
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact Jacobian J_{mu,nu} = (Df(t) e_nu)_mu, energy gradient, residual.

    Columns are evaluated through the commutator identity
    Df(t) S = <., e^{-T^CAS} [e^{-T} H e^{T}, S] e^{T^CAS} phi_0>
    (S commutes with e^{T^CAS}), which is exact on the finite space --
    no finite differences involved. The reference component of each
    column is the energy gradient E'(t) e_nu. Only the columns of `indices` are built."""
    space = external_space(split)
    cols = space.positions(indices)
    op = TailoredHamiltonian(t_cas, ints, split, space.ranks[cols].max(initial=0))
    t_vec = space.embed(t)
    v_base = op(t_vec)
    # all columns at once: one dim x n block through e^{T}, H and e^{-T}
    block = (op.conjugate(t_vec, space.excitation_columns(op.u0, cols, op.forward))
             - space.excitation_columns(v_base, cols, op.rows))
    return space.project(block)[cols], block[space.reference].copy(), space.project(v_base)[cols]


def solve_dual(t_d: AmplitudeVector, t_cas: AmplitudeVector, ints: IntegralSet,
               split: BasisSplit, scheme: TruncationScheme) -> AmplitudeVector:
    """Adjoint solve: z with <f'(t_d) u, z> = E'(t_d)(u) for all u in the space."""
    space, kept = external_space(split), truncation_positions(split, scheme)
    if not len(kept):
        return AmplitudeVector(SPACE_TRUNCATED, {}, scheme=scheme.describe())
    jac, grad, _ = tcc_jacobian(t_d, t_cas, ints, split, [space.indices[a] for a in kept])
    svals = np.linalg.svd(jac, compute_uv=False)
    if svals[-1] <= 1e-12 * max(1.0, svals[0]):
        raise SingularJacobianError(
            f"adjoint system singular (smallest singular value {svals[-1]:.3e})"
        )
    return space.amplitudes(np.linalg.solve(jac.T, grad), SPACE_TRUNCATED, scheme.describe(), kept)


class Study:
    """The solves of one (integrals, CAS split, Fock) problem, each made once.

    t^CAS comes from CAS-FCI; `root` memoises the converged roots of
    f(.; t^CAS) and `dual` the adjoint solutions at them. `root` is the
    one place a non-converged solve becomes an error.
    """

    def __init__(self, ints: IntegralSet, split: BasisSplit, fock: FockSpectrum):
        self.ints, self.split, self.fock = ints, split, fock
        self._roots: dict[tuple, TccResult] = {}
        self._duals: dict[TccConfig, AmplitudeVector] = {}

    @cached_property
    def t_cas(self) -> AmplitudeVector:
        """t^CAS: the cluster amplitudes of the CAS-FCI ground state."""
        _, states = cas_fci_solve(self.ints, self.split.basis, self.split)
        return AmplitudeVector(SPACE_CAS, dict(ci_to_cluster(states[0]).entries))

    def root(self, config: TccConfig, t_cas: Optional[AmplitudeVector] = None) -> TccResult:
        """The converged root under `config`, tailored on t_cas (default: self.t_cas)."""
        t_cas = self.t_cas if t_cas is None else t_cas
        key = (config, tuple(t_cas.sorted_items()))
        if key not in self._roots:
            result = solve_tcc(t_cas, self.ints, self.split, self.fock, config)
            if not result.converged:
                raise SolverFailureError(
                    f"{config.truncation.describe()} solve not converged in {result.iterations} "
                    f"iterations (final residual {result.history[-1][1]:.3e}"
                    f"{', diverged' if result.diverged else ''})")
            self._roots[key] = result
        return self._roots[key]

    def dual(self, config: TccConfig) -> AmplitudeVector:
        """The dual root z at root(config)."""
        if config not in self._duals:
            self._duals[config] = solve_dual(self.root(config).t, self.t_cas, self.ints,
                                             self.split, config.truncation)
        return self._duals[config]
