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
    ExcitationSpace,
    _frozen,
    excitation_space,
)
from .errors import InputError, SolverError
from .exact import cas_fci_solve, ci_to_cluster
from .hamiltonian import FockSpectrum, IntegralSet, build_dense_hamiltonian, fock_matrix

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
            raise InputError(f"unknown truncation mode {self.mode!r}")
        if self.mode == MODE_FULL and self.n is not None:
            raise InputError(f"mode 'full' takes no rank cap, got {self.n}")
        if self.mode != MODE_FULL and (self.n is None or self.n < 1):
            raise InputError(f"mode {self.mode!r} needs a positive rank cap")
        if self.mode != MODE_FULL and type(self.n) is not int:   # a bool is no count either
            raise InputError(f"the rank cap must be an int, got {self.n!r}")

    def describe(self) -> str:
        return self.mode if self.mode == MODE_FULL else f"{self.mode}:{self.n}"


@lru_cache(maxsize=32)
def external_space(split: BasisSplit) -> ExcitationSpace:
    """The one space of the external indices (a particle above k), in DeterminantSpace order."""
    every = split.basis.determinants.indices
    return excitation_space(split.basis, tuple(every[every >> np.uint64(split.k) != 0].tolist()))


@lru_cache(maxsize=32)
def truncation_positions(split: BasisSplit, scheme: TruncationScheme) -> np.ndarray:
    """The ascending positions in external_space(split) of the indices the scheme keeps:
    'rank' by |mu|, 'foi' by the count of particles above k."""
    space = external_space(split)
    if scheme.mode == MODE_FULL:
        return _frozen(np.arange(len(space)))
    count = space.ranks if scheme.mode == MODE_RANK else np.bitwise_count(
        space.indices >> np.uint64(split.k))   # the particles above k
    return _frozen(np.flatnonzero(count <= scheme.n))


def enumerate_truncated_space(split: BasisSplit, scheme: TruncationScheme) -> list[int]:
    """Deterministically ordered external indices kept by the scheme."""
    return external_space(split).indices[truncation_positions(split, scheme)].tolist()


@lru_cache(maxsize=32)
def cas_space(split: BasisSplit) -> ExcitationSpace:
    """Every CAS index (no particle above k), in DeterminantSpace order."""
    every = split.basis.determinants.indices
    return excitation_space(split.basis, tuple(every[every >> np.uint64(split.k) == 0].tolist()))


@dataclass(frozen=True)
class TccConfig:
    max_iterations: int = 500
    tolerance: float = 1e-10
    damping: float = 1.0
    diis: Optional[int] = None
    truncation: TruncationScheme = field(default_factory=lambda: TruncationScheme(MODE_FULL))

    def __post_init__(self):
        if self.max_iterations < 1:
            raise InputError("max_iterations must be positive")
        if not 0 < self.tolerance < np.inf:   # NaN fails too
            raise InputError("tolerance must be positive and finite")
        if not 0 < self.damping <= 1:
            raise InputError("damping must lie in (0, 1]")
        if self.diis is not None and self.diis < 0:
            raise InputError("diis must be a non-negative history length")
        if type(self.max_iterations) is not int or type(self.diis) not in (int, type(None)):
            raise InputError(f"need ints, got max_iterations={self.max_iterations!r}, diis={self.diis!r}")


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
            raise InputError(f"CAS amplitudes tagged {t_cas.space!r}")
        self.space = space = external_space(split)
        self.cas = cas_space(split)
        self.t_cas = self.cas.embed(t_cas)
        self.ham = build_dense_hamiltonian(ints, split.basis)
        self.u0 = self.cas.exp_apply(self.t_cas, space.dets.reference_state())
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
        raise InputError(f"external amplitudes tagged {t.space!r}")
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
        raise InputError(f"expected a full-space vector, got {t_full.space!r}")
    split.basis.determinants.index_positions(list(t_full.entries))   # refuses what is no index
    cas, ext = {}, {}
    for mu, val in t_full.entries.items():
        (ext if mu >> split.k else cas)[mu] = val
    return AmplitudeVector(SPACE_CAS, cas), AmplitudeVector(SPACE_EXT, ext)


# ---------------------------------------------------------------------------
# Quasi-Newton solve
# ---------------------------------------------------------------------------

def _diis_extrapolate(window: Sequence[tuple], gram: np.ndarray) -> np.ndarray:
    m = len(window)
    b = np.full((m + 1, m + 1), -1.0)
    b[:m, :m] = gram
    b[m, m] = 0.0
    rhs = np.zeros(m + 1)
    rhs[m] = -1.0
    coef, *_ = np.linalg.lstsq(b, rhs, rcond=None)
    return sum(c * t for c, (t, _) in zip(coef[:m], window))


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
        raise SolverError(f"min eps_mu = {eps.min():.6e} <= 0 over the truncated index set")

    history: list[tuple[int, float, float, float]] = []
    # DIIS; the window never holds more errors than there are iterations
    window = deque(maxlen=config.diis)
    gram = np.zeros((min(config.diis or 0, config.max_iterations),) * 2)
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
            if len(window) == config.diis:   # the oldest pair leaves with its Gram row and column
                gram = np.roll(gram, -1, axis=(0, 1))
            window.append((trial, step))   # (trial, error) pairs; gram[i, j] = e_i @ e_j
            m = len(window)   # only the new error's products are computed
            gram[m - 1, :m] = gram[:m, m - 1] = [float(e @ step) for _, e in window]
            if m > 1:
                trial = _diis_extrapolate(window, gram[:m, :m])
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
                 split: BasisSplit, scheme: TruncationScheme
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact Jacobian J_{mu,nu} = (Df(t) e_nu)_mu, energy gradient, residual.

    Columns are evaluated through the commutator identity
    Df(t) S = <., e^{-T^CAS} [e^{-T} H e^{T}, S] e^{T^CAS} phi_0>
    (S commutes with e^{T^CAS}), which is exact on the finite space --
    no finite differences involved. The reference component of each
    column is the energy gradient E'(t) e_nu. Rows and columns are the scheme's indices."""
    space, cols = external_space(split), truncation_positions(split, scheme)
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
    jac, grad, _ = tcc_jacobian(t_d, t_cas, ints, split, scheme)
    svals = np.linalg.svd(jac, compute_uv=False)
    if svals[-1] <= 1e-12 * max(1.0, svals[0]):
        raise SolverError(f"adjoint system singular (smallest singular value {svals[-1]:.3e})")
    return space.amplitudes(np.linalg.solve(jac.T, grad), SPACE_TRUNCATED, scheme.describe(), kept)


class Study:
    """One tailored problem, f(.; t^CAS) on its integrals and CAS split; each solve made once.

    The Fock spectrum is the integrals' own; t^CAS is the one given, else (`exact`) the
    CAS-FCI amplitudes. `root` memoises the converged roots of f(.; t^CAS) and `dual` the
    adjoint solutions at them. `root` is the one place a non-converged solve becomes an error.
    """

    def __init__(self, ints: IntegralSet, split: BasisSplit, *, t_cas: Optional[AmplitudeVector] = None):
        self.ints, self.split, self.fock = ints, split, fock_matrix(ints, split.basis)
        self.exact = t_cas is None
        if t_cas is not None:   # shadows the CAS-FCI amplitudes below
            self.t_cas = t_cas
        self._roots: dict[TccConfig, TccResult] = {}
        self._duals: dict[TccConfig, AmplitudeVector] = {}

    @cached_property
    def t_cas(self) -> AmplitudeVector:
        """t^CAS: the cluster amplitudes of the CAS-FCI ground state."""
        _, states = cas_fci_solve(self.ints, self.split)
        return AmplitudeVector(SPACE_CAS, dict(ci_to_cluster(states[0]).entries))

    def root(self, config: TccConfig) -> TccResult:
        """The converged root under `config`."""
        if config not in self._roots:
            result = solve_tcc(self.t_cas, self.ints, self.split, self.fock, config)
            if not result.converged:
                raise SolverError(
                    f"{config.truncation.describe()} solve not converged in {result.iterations} "
                    f"iterations (final residual {result.history[-1][1]:.3e}"
                    f"{', diverged' if result.diverged else ''})")
            self._roots[config] = result
        return self._roots[config]

    def dual(self, config: TccConfig) -> AmplitudeVector:
        """The dual root z at root(config)."""
        if config not in self._duals:
            self._duals[config] = solve_dual(self.root(config).t, self.t_cas, self.ints,
                                             self.split, config.truncation)
        return self._duals[config]
