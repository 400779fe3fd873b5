"""Numerical verification of the workbench's analytical backbone.

Reports and probes covering: spectral gap bookkeeping, the ball-local
smallness condition on the off-CAS fluctuation map, sampled
monotonicity/Lipschitz constants, the full energy-error decomposition
with adjoint (dual) solves, the second-order error representation, and
quadratic error-scaling studies over nested truncation families. Each
report that tailors reads f(.; t^CAS) from the `Study` it is given.

All sampling-based quantities are seeded and deterministic: they draw from
random.Random(seed).random(), normals by Box-Muller, which replaced numpy.random
and so changed every seeded `verify` figure for a given seed. They are lower/upper
*estimates* of constants defined as infima/suprema over continua and are labelled as such.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Optional

import numpy as np

from .determinants import AmplitudeVector, BasisSplit, ExcitationSpace, SPACE_EXT, index_label
from .errors import InputError, SolverError
from .exact import ci_to_cluster, fci_solve
from .hamiltonian import FockSpectrum, fock_diagonal_vector
from .tcc import (  # Study, solve_dual and tcc_jacobian are re-exported here
    Study,
    TailoredHamiltonian,
    TccConfig,
    TruncationScheme,
    external_space,
    solve_dual,
    split_amplitudes,
    tcc_energy,
    tcc_jacobian,
)

REFERENCE_RESIDUAL_TOL = 1e-8
_SAMPLED = dict(over="ignore", invalid="ignore", divide="ignore")   # _quotient refuses overflows
# Solver settings of the error-decomposition and scaling sub-solves; the
# CLI's solver flags drive only the reference and truncated roots of `verify`.
STUDY_CONFIG = TccConfig(tolerance=1e-11, diis=8)


# ---------------------------------------------------------------------------
# Gap report
# ---------------------------------------------------------------------------

@dataclass
class GapReport:
    eps0: float            # lambda_{k+1} - lambda_k
    eps0_ext: float        # lambda_{k+1} - lambda_N
    homo_lumo: float       # lambda_{N+1} - lambda_N
    min_eps_ext: float     # min eps_mu over the external index set
    all_external_positive: bool


def gap_report(fock: FockSpectrum, split: BasisSplit) -> GapReport:
    """Gap quantities from the Fock diagonal; negative gaps are reported, not raised."""
    lam = fock.lambdas
    basis = split.basis
    n, k, kk = basis.n_electrons, split.k, basis.n_orbitals
    eps0 = float(lam[k] - lam[k - 1]) if k < kk else np.inf
    eps0_ext = float(lam[k] - lam[n - 1]) if k < kk else np.inf
    homo_lumo = float(lam[n] - lam[n - 1])
    min_eps = float(external_space(split).epsilon(fock).min(initial=np.inf))
    return GapReport(eps0, eps0_ext, homo_lumo, min_eps, min_eps > 0.0)


# ---------------------------------------------------------------------------
# Monotonicity / Lipschitz sampling probe
# ---------------------------------------------------------------------------

@dataclass
class MonotonicityProbe:
    gamma_hat: float       # min <df, dt> / ||dt||_V^2 (V-weighted denominator)
    gamma_hat_l2: float    # min <df, dt> / ||dt||_2^2 (plain denominator)
    l_hat: float           # max ||df||_V' / ||dt||_V
    delta: float
    samples: int
    seed: int


def _weights(space: ExcitationSpace, fock: FockSpectrum) -> np.ndarray:
    """The weights eps_mu of space, refused if one is <= 0 (naming the lowest): the V-norm's."""
    eps = space.epsilon(fock)
    if eps.min(initial=np.inf) <= 0.0:
        mu = int(eps.argmin())
        raise SolverError(f"eps_mu <= 0 for {index_label(space.indices[mu])}: {eps[mu]}")
    return eps


def check_ball(delta: float, samples: int) -> None:
    """Reject a sampling ball that is empty or unbounded, or sampled no times."""
    if not 0 < delta < np.inf or samples < 1:
        raise InputError(f"need finite delta > 0 and samples >= 1, got {delta}, {samples}")


def _ball(study: Study, t_star: Optional[AmplitudeVector], delta: float, samples: int, seed: int
          ) -> tuple[TailoredHamiltonian, np.ndarray, np.ndarray, np.ndarray, list]:
    """The sampled ball B_delta(t_*) of both reports: the study's tailored operator, t_* as an
    ndarray of its space, the residual f(t_*) it was checked by, eps and the seeded pairs.
    The arguments are checked before the operator builds H."""
    check_ball(delta, samples)
    if t_star is None:
        raise InputError("a converged reference amplitude vector is required")
    space = external_space(study.split)   # the operator's
    if not len(space):
        raise InputError("k = K leaves the external space empty: no ball around t_* to sample")
    eps = _weights(space, study.fock)
    op = TailoredHamiltonian(study.t_cas, study.ints, study.split)
    t_vec = space.embed(t_star)
    r = op.residual(t_vec)
    if float(np.linalg.norm(r)) > REFERENCE_RESIDUAL_TOL:
        raise InputError(
            f"reference residual {np.linalg.norm(r):.3e} exceeds {REFERENCE_RESIDUAL_TOL}")
    return op, t_vec, r, eps, _ball_pairs(t_vec, eps, delta, samples, seed)


def _quotient(num: float, den: float, delta: float) -> float:
    """num / den of one sample, refused unless finite: min and max would skip a NaN."""
    q = num / den if den else math.nan
    if not math.isfinite(q):
        raise InputError(f"a sample of the delta={delta} ball gave a non-finite quotient")
    return q


class _Stream(random.Random):
    """random.Random(seed), whose stream CPython keeps; Box-Muller normals take two random() each."""

    def __init__(self, seed: int):
        if not isinstance(seed, (int, np.integer)) or seed < 0:  # Random(-1) is Random(1)
            raise InputError(f"need an integer seed >= 0, got {seed!r}")
        super().__init__(int(seed))

    def normals(self, n: int) -> np.ndarray:
        return np.array([math.sqrt(-2.0 * math.log(1.0 - self.random()))
                         * math.cos(2.0 * math.pi * self.random()) for _ in range(n)])


@np.errstate(**_SAMPLED)
def _ball_pairs(center: np.ndarray, eps: np.ndarray, delta: float, samples: int,
                seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """`samples` seeded pairs of random points of the V-norm ball of radius delta around center."""
    rng = _Stream(seed)

    def point():
        u = rng.normals(len(eps))
        u *= (delta * rng.random()) / np.sqrt((eps * u**2).sum())
        return center + u

    return [(point(), point()) for _ in range(samples)]


def monotonicity_probe(study: Study, t_star: AmplitudeVector, *, delta: float = 0.1,
                       samples: int = 20, seed: int = 0) -> MonotonicityProbe:
    """Sampled monotonicity and Lipschitz constants of the study's f(.; t^CAS) on B_delta(t_*).

    Random pairs inside the ball are complemented by deterministic
    coordinate-direction probes (t_* + h e_mu vs t_*), so that in the
    linear (W = 0) case the plain-denominator estimate gamma_hat_l2
    attains min eps_mu exactly.
    """
    ball = _ball(study, t_star, delta, samples, seed)
    return MonotonicityProbe(*_probe(*ball, delta), delta, samples, seed)


@np.errstate(**_SAMPLED)
def _probe(op: TailoredHamiltonian, t_vec: np.ndarray, r_star: np.ndarray, eps: np.ndarray,
           pairs: list[tuple[np.ndarray, np.ndarray]], delta: float
           ) -> tuple[float, float, float]:
    """(gamma_hat, gamma_hat_l2, l_hat) of monotonicity_probe over the ball pairs
    and the coordinate probes at the checked reference t_vec, whose residual is r_star."""
    n, h = len(eps), delta / np.sqrt(eps)
    # t_vec + h_mu e_mu, each made only when the loop reads it
    probes = ((t_vec + h[mu] * np.eye(1, n, mu)[0], t_vec) for mu in range(n))

    g_v = g_l2 = np.inf
    l_hat = 0.0
    for v1, v2 in chain(pairs, probes):
        # every coordinate probe pairs with t_vec itself, whose residual is r_star
        df = op.residual(v1) - (r_star if v2 is t_vec else op.residual(v2))
        dt = v1 - v2
        inner = float(df @ dt)
        vsq = float((eps * dt**2).sum())
        lsq = float((dt**2).sum())
        g_v = min(g_v, _quotient(inner, vsq, delta))
        g_l2 = min(g_l2, _quotient(inner, lsq, delta))
        l_hat = max(l_hat, _quotient(float(np.sqrt((df**2 / eps).sum())),
                                     math.sqrt(vsq), delta))
    return float(g_v), float(g_l2), float(l_hat)


# ---------------------------------------------------------------------------
# Assumption-(B)-style smallness report
# ---------------------------------------------------------------------------

@dataclass
class AssumptionReport(MonotonicityProbe):
    gap: GapReport
    omega0: float          # <phi0, W_CAS phi0>
    omega_cas: float       # sum |t_sigma^CAS eps_sigma|
    lipschitz_star: float  # sampled Lipschitz estimate of the O-map
    margin: float          # eps0 - omega0 - omega_cas - lipschitz_star


def assumption_b_report(study: Study, t_star: AmplitudeVector, *, delta: float = 0.1,
                        samples: int = 20, seed: int = 0) -> AssumptionReport:
    """Smallness margin eps0 - omega0 - Omega_CAS - L_* with sampled L_*.

    The off-CAS map O(t) = (e^{-T} A e^{T} - A) phi_0 with
    A = W_CAS - P W_CAS P, W_CAS = e^{-T^CAS} W e^{T^CAS}, is sampled on
    pairs in the delta-ball around t_*; L_* is the largest observed
    ratio ||O(t1)-O(t2)||_2 / ||t1-t2||_2; W_CAS and A are only applied to
    vectors. Also carries the monotonicity probe of the same ball.
    """
    ball = _ball(study, t_star, delta, samples, seed)
    op, pairs = ball[0], ball[-1]
    space, split, fock = op.space, study.split, study.fock

    fock_diag = fock_diagonal_vector(fock, split.basis)
    cas_coef = op.cas.coefficients(op.t_cas)
    p = split.cas_determinants()   # diagonal of the CAS projector

    def w_cas(x):
        x = op.cas.exp_series(cas_coef, x, +1)
        return op.cas.exp_series(cas_coef, op.ham @ x - fock_diag * x, -1)

    def a(x):
        return w_cas(x) - p * w_cas(p * x)

    ref = space.dets.reference_state()
    omega0 = float(w_cas(ref)[space.reference])
    eps_cas = dict(zip(op.cas.indices.tolist(), op.cas.epsilon(fock)))
    omega_cas = float(sum(abs(val * eps_cas[s]) for s, val in study.t_cas.sorted_items()))
    a_ref = a(ref)

    def o_map(vec):
        inner = a(space.exp_apply(vec, ref, +1))
        return space.exp_apply(vec, inner, -1) - a_ref

    l_star = 0.0
    with np.errstate(**_SAMPLED):
        for t1, t2 in pairs:
            num = float(np.linalg.norm(o_map(t1) - o_map(t2)))
            den = float(np.linalg.norm(t1 - t2))
            l_star = max(l_star, _quotient(num, den, delta))

    gaps = gap_report(fock, split)
    margin = gaps.eps0 - omega0 - omega_cas - l_star
    return AssumptionReport(*_probe(*ball, delta), delta, samples, seed,
                            gaps, omega0, omega_cas, float(l_star), float(margin))


# ---------------------------------------------------------------------------
# Error decomposition
# ---------------------------------------------------------------------------

@dataclass
class ErrorDecomposition:
    dE: float
    d_eps: float
    d_eps_cas: float
    d_eps_cas_star: float
    dE_cas: float
    triangle_slack: float
    e_fci: float
    e_truncated: float


def error_decomposition(study: Study, scheme: TruncationScheme) -> ErrorDecomposition:
    """Split |E(t_d; t^CAS) - E_FCI| into truncation and CAS contributions, t^CAS = study.t_cas.

    The study's full-space root t_* and truncated root t_d are solved first, so that a t^CAS
    of another space is refused before CAS-FCI or FCI runs; the root with the CAS-FCI
    amplitudes is the study's own when it is exact, else an exact sibling's, which shares
    the H cache. Then every term of the triangle decomposition plus the CAS error dE_cas
    of the CAS-only energies <phi_0, H e^{T^CAS} phi_0>.
    """
    e_star = study.root(STUDY_CONFIG).energy
    e_d = study.root(replace(STUDY_CONFIG, truncation=scheme)).energy
    exact = study if study.exact else Study(study.ints, study.split)
    e_tilde = exact.root(STUDY_CONFIG).energy

    ints, split = study.ints, study.split
    summary, states = fci_solve(ints, split.basis)
    e_fci = summary.ground_energy
    t_star_cas, t_star_ext = split_amplitudes(ci_to_cluster(states[0]), split)
    e_exact_pair = tcc_energy(t_star_ext, t_star_cas, ints, split)

    d_eps = abs(e_d - e_star)
    d_eps_cas = abs(e_star - e_tilde)
    d_eps_cas_star = abs(e_tilde - e_exact_pair)
    de = abs(e_d - e_exact_pair)

    # e^{T^CAS} phi_0 lies in the CAS, so this is <phi_0, P H P e^{T^CAS} phi_0>
    no_ext = AmplitudeVector(SPACE_EXT)
    de_cas = abs(tcc_energy(no_ext, study.t_cas, ints, split)
                 - tcc_energy(no_ext, exact.t_cas, ints, split))

    return ErrorDecomposition(
        dE=de, d_eps=d_eps, d_eps_cas=d_eps_cas, d_eps_cas_star=d_eps_cas_star,
        dE_cas=de_cas,
        triangle_slack=d_eps + d_eps_cas + d_eps_cas_star - de,
        e_fci=e_fci, e_truncated=e_d,
    )


# ---------------------------------------------------------------------------
# Second-order error representation
# ---------------------------------------------------------------------------

@dataclass
class RepresentationCheck:
    remainder: float       # R in 2(E(t_*) - E(t_d)) = R + rho(z_*-z_d) + rho*(t_*-t_d)
    distance: float        # ||t_* - t_d||_V
    cubic_ratio: Optional[float]  # |R| / distance^3


def error_representation_check(study: Study, t_d: AmplitudeVector, z_d: AmplitudeVector,
                               t_star: AmplitudeVector, z_star: AmplitudeVector
                               ) -> RepresentationCheck:
    """Residual of the second-order (dual-weighted) error identity of the study's f(.; t^CAS).

    With primal residual rho(t_d)(u) = -<f(t_d), u> and dual residual
    rho*(t_d, z_d)(u) = E'(t_d)(u) - <Df(t_d) u, z_d>, the remainder

        R = 2(E(t_*) - E(t_d)) - rho(t_d)(z_*-z_d) - rho*(t_d,z_d)(t_*-t_d)

    is cubic in the primal/dual errors; it vanishes identically for a
    quadratic (linear-residual) problem.
    """
    op = TailoredHamiltonian(study.t_cas, study.ints, study.split)
    space = op.space
    eps = _weights(space, study.fock)
    td, zd, ts, zs = (space.embed(x) for x in (t_d, z_d, t_star, z_star))

    v_d = op(td)
    e_star, e_d = float(op(ts)[space.reference]), float(v_d[space.reference])

    # the one Jacobian column rho* reads, Df(t_d) u = <., e^{-T^CAS}[e^{-T_d} H e^{T_d}, X_u] u0>
    u = ts - td
    df_u = op.conjugate(td, space.apply(u, op.u0)) - space.apply(u, v_d)
    rho_primal = float(-(space.project(v_d) @ (zs - zd)))
    rho_dual = float(df_u[space.reference] - zd @ space.project(df_u))
    remainder = 2.0 * (e_star - e_d) - rho_primal - rho_dual
    dist = float(np.sqrt((eps * u ** 2).sum()))
    ratio = abs(remainder) / dist**3 if dist > 1e-13 else None
    return RepresentationCheck(float(remainder), dist, ratio)


# ---------------------------------------------------------------------------
# Scaling studies
# ---------------------------------------------------------------------------

@dataclass
class ScalingRow:
    descriptor: str
    distance: float        # ||t_d - t_*||_V
    energy_error: float    # |E(t_d) - E(t_*)|
    dual_distance: float   # ||z_d - z_*||_V
    used_in_fit: bool = True


@dataclass
class ScalingStudy:
    rows: list[ScalingRow] = field(default_factory=list)
    slope: float = np.nan


def _fit_slope(rows: list[ScalingRow]) -> float:
    usable = [r for r in rows if r.used_in_fit]
    if len(usable) < 3:
        raise InputError(f"need at least 3 usable rows for a slope fit, have {len(usable)}")
    x = np.log([r.distance for r in usable])
    y = np.log([r.energy_error for r in usable])
    return float(np.polyfit(x, y, 1)[0])


def quadratic_scaling_study(study: Study, schemes: list[TruncationScheme]) -> ScalingStudy:
    """Energy error vs amplitude distance over a nested truncation family.

    For each truncation the primal and dual problems are solved; the
    fitted log-log slope of |E(t_d) - E(t_*)| against ||t_d - t_*||_V
    should approach 2. Rows at (numerically) zero distance are excluded
    from the fit.
    """
    space = external_space(study.split)
    eps = _weights(space, study.fock)

    star = study.root(STUDY_CONFIG)
    ts = space.embed(star.t)
    zs = space.embed(study.dual(STUDY_CONFIG))

    scaling = ScalingStudy()
    for scheme in schemes:
        config = replace(STUDY_CONFIG, truncation=scheme)
        root = study.root(config)
        td = space.embed(root.t)
        zd = space.embed(study.dual(config))
        dist = float(np.sqrt((eps * (ts - td) ** 2).sum()))
        derr = abs(root.energy - star.energy)
        ddual = float(np.sqrt((eps * (zs - zd) ** 2).sum()))
        usable = dist > 1e-12 and derr > 0.0
        scaling.rows.append(ScalingRow(scheme.describe(), dist, derr, ddual, usable))
    scaling.slope = _fit_slope(scaling.rows)
    return scaling


def linear_limit_scaling_study(study: Study, *, seed: int = 0) -> ScalingStudy:
    """Quadratic-law study for the linear (W = 0) limit.

    With a vanishing fluctuation the true truncation error degenerates
    (t_* = t_d = 0 for every truncation), so the quadratic law is
    exhibited on the canonical quadratic surrogate built from the same
    Fock weights: residual f(t) = D (t - s) with D = diag(eps_mu) and a
    seeded source s, energy E(t) = (t-s)^T D (t-s). Truncated Galerkin
    solutions keep the retained components of s, hence

        |E(t_d) - E(t_*)| = ||t_d - t_*||_V^2

    exactly, and the fitted slope is 2 up to round-off. Only the study's split and
    Fock weights are read: no root is solved.
    """
    space = external_space(study.split)
    eps = _weights(space, study.fock)
    source = _Stream(seed).normals(len(space))

    scaling = ScalingStudy()
    for r in sorted(set(space.ranks.tolist())):
        dropped = space.ranks > r
        dist_sq = float((eps[dropped] * source[dropped] ** 2).sum())
        dist = float(np.sqrt(dist_sq))
        usable = dist > 1e-12
        scaling.rows.append(ScalingRow(f"rank:{r}", dist, dist_sq, 0.0, usable))
    scaling.slope = _fit_slope(scaling.rows)
    return scaling
