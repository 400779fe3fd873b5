"""Independent dense oracles on the full 2^K occupation-tensor space.

Everything here is built from first principles -- explicit creation/
annihilation matrices with the standard phase string, dense many-body
operators, explicit partial traces -- and deliberately shares no code
with the package beyond the integral containers and the reading of an
excitation index (the determinant mask it reaches) as 1-based holes and
particles; a determinant is its tuple of 1-based occupied orbitals. Used to
pin signs, matrix elements, reduced density matrices and operator norms.

The scalar integral lookups and the Slater-Condon matrix_element are the
loop references the package's vectorised Hamiltonian build is held to, and the
scalar epsilon is the one ExcitationSpace.epsilon is held to bit for bit.

fock_norm_identity_check is the exception: it states the Fock-norm identity
||t||_V = ||T phi_0||_F in the package's own determinant algebra and V-norm
weights, and lives here because no command reports it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tccbench.determinants import SPACE_EXT, SPACE_TRUNCATED, index_orbitals, support_space
from tccbench.diagnostics import _weights
from tccbench.errors import InputError
from tccbench.hamiltonian import fock_diagonal_vector


def creation(n_modes: int, p: int) -> np.ndarray:
    """Dense a^+_p on the 2^K Fock space; mode p is bit p-1."""
    dim = 1 << n_modes
    m = np.zeros((dim, dim))
    bit = 1 << (p - 1)
    below = bit - 1
    for s in range(dim):
        if not s & bit:
            phase = -1.0 if bin(s & below).count("1") % 2 else 1.0
            m[s | bit, s] = phase
    return m


def annihilation(n_modes: int, p: int) -> np.ndarray:
    return creation(n_modes, p).T


def determinant_state(occ, n_modes: int) -> np.ndarray:
    """a^+_{p1} ... a^+_{pN} |vac> with p1 < ... < pN (rightmost acts first)."""
    v = np.zeros(1 << n_modes)
    v[0] = 1.0
    for p in reversed(sorted(occ)):
        v = creation(n_modes, p) @ v
    return v


def excitation_operator(holes, particles, n_modes: int) -> np.ndarray:
    """a^+_{A1} a_{I1} ... a^+_{Ar} a_{Ir}, rightmost pair applied first."""
    dim = 1 << n_modes
    m = np.eye(dim)
    for hole, particle in zip(holes, particles):
        m = m @ creation(n_modes, particle) @ annihilation(n_modes, hole)
    return m


def spin_h(ints, P: int, Q: int) -> float:
    """One-electron integral between spin-orbitals (1-based)."""
    if (P - Q) & 1:
        return 0.0
    return float(ints.h[(P - 1) // 2, (Q - 1) // 2])


def phys(ints, P: int, Q: int, R: int, S: int) -> float:
    """<PQ|RS> = (pr|qs) with spin conservation on (P,R) and (Q,S)."""
    if (P - R) & 1 or (Q - S) & 1:
        return 0.0
    p, q, r, s = (P - 1) // 2, (Q - 1) // 2, (R - 1) // 2, (S - 1) // 2
    return float(ints.g[p, r, q, s])


def antisymmetrized(ints, P: int, Q: int, R: int, S: int) -> float:
    """<PQ||RS> in physicists' notation over spin-orbitals."""
    return phys(ints, P, Q, R, S) - phys(ints, P, Q, S, R)


def occ_mask(occ) -> int:
    """The bit mask of 1-based occupied orbitals: bit p-1 <-> orbital p."""
    return sum(1 << (p - 1) for p in occ)


def index_mask(n: int, holes, particles) -> int:
    """The excitation index (1-based holes -> particles) of N electrons: the mask it reaches."""
    return occ_mask(range(1, n + 1)) ^ occ_mask(holes) ^ occ_mask(particles)


def _align_phase(d1, d2, removed: list[int], added: list[int]) -> int:
    """Parity of bringing d2 into maximal coincidence with d1.

    Standard position-parity bookkeeping: each (removed, added) pair
    contributes (-1)^(occupied orbitals strictly between them in d2,
    after earlier substitutions).
    """
    mask = occ_mask(d2)
    sign = 1
    for r, a in zip(removed, added):
        lo, hi = (r, a) if r < a else (a, r)
        between = (mask >> lo) & ((1 << (hi - lo - 1)) - 1)
        if between.bit_count() & 1:
            sign = -sign
        mask = (mask & ~(1 << (a - 1))) | (1 << (r - 1))
    return sign


def matrix_element(d1, d2, ints) -> float:
    """<d1|H|d2> of two occupation tuples by the Slater-Condon rules, with e_core on the
    diagonal."""
    occ1, occ2 = set(d1), set(d2)
    if len(occ1) != len(occ2):
        raise ValueError("determinants have different particle number")
    diff1 = sorted(occ1 - occ2)
    diff2 = sorted(occ2 - occ1)
    n_diff = len(diff1)
    if n_diff > 2:
        return 0.0

    if n_diff == 0:
        val = ints.e_core
        occ = d1
        for P in occ:
            val += spin_h(ints, P, P)
        for a in range(len(occ)):
            for b in range(a + 1, len(occ)):
                val += antisymmetrized(ints, occ[a], occ[b], occ[a], occ[b])
        return val

    if n_diff == 1:
        (P,), (Q,) = diff1, diff2
        sign = _align_phase(d1, d2, [P], [Q])
        val = spin_h(ints, P, Q)
        for R in sorted(occ1 & occ2):
            val += antisymmetrized(ints, P, R, Q, R)
        return sign * val

    (P, Q), (R, S) = diff1, diff2
    sign = _align_phase(d1, d2, [P, Q], [R, S])
    return sign * antisymmetrized(ints, P, Q, R, S)


def epsilon(fock, mu) -> float:
    """eps_mu = sum(lambda_A) - sum(lambda_I) of one index, each sum left to right."""
    holes, particles = index_orbitals(mu)
    return float(
        sum(fock.lambdas[a - 1] for a in particles)
        - sum(fock.lambdas[i - 1] for i in holes)
    )


def dense_hamiltonian_fock(ints, n_modes: int) -> np.ndarray:
    """Second-quantized H on the full 2^K space (all particle sectors)."""
    dim = 1 << n_modes
    h2 = np.zeros((dim, dim))
    h1 = np.zeros((dim, dim))
    a_dag = [None] + [creation(n_modes, p) for p in range(1, n_modes + 1)]
    a = [None] + [annihilation(n_modes, p) for p in range(1, n_modes + 1)]
    for p in range(1, n_modes + 1):
        for q in range(1, n_modes + 1):
            v = spin_h(ints, p, q)
            if v:
                h1 += v * (a_dag[p] @ a[q])
    for p in range(1, n_modes + 1):
        for q in range(1, n_modes + 1):
            for r in range(1, n_modes + 1):
                for s in range(1, n_modes + 1):
                    v = phys(ints, p, q, r, s)
                    if v:
                        h2 += 0.5 * v * (a_dag[p] @ a_dag[q] @ a[s] @ a[r])
    return h1 + h2 + ints.e_core * np.eye(dim)


def project_sector(n_modes: int, n_particles: int) -> list[int]:
    """Fock-space indices of the fixed particle-number sector, ascending."""
    return [s for s in range(1 << n_modes) if bin(s).count("1") == n_particles]


def state_from_ci(coefficients, determinants, n_modes: int) -> np.ndarray:
    v = np.zeros(1 << n_modes)
    for c, d in zip(coefficients, determinants):
        v += c * determinant_state(d, n_modes)
    return v


def two_mode_rdm(psi_full: np.ndarray, i: int, j: int, n_modes: int) -> np.ndarray:
    """Explicit partial trace onto modes (i, j); local basis |n_i n_j>."""
    t = psi_full.reshape([2] * n_modes)  # axis a holds mode n_modes - a
    t = np.moveaxis(t, [n_modes - i, n_modes - j], [0, 1])
    m = t.reshape(4, -1)
    return m @ m.T


def one_mode_rdm(psi_full: np.ndarray, i: int, n_modes: int) -> np.ndarray:
    t = psi_full.reshape([2] * n_modes)
    t = np.moveaxis(t, n_modes - i, 0)
    m = t.reshape(2, -1)
    return m @ m.T


def power_iteration_norm(m: np.ndarray, iterations: int = 500, seed: int = 7) -> float:
    """Largest singular value via power iteration on m^T m."""
    if m.size == 0:
        return 0.0
    g = m.T @ m
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(g.shape[0])
    v /= np.linalg.norm(v)
    val = 0.0
    for _ in range(iterations):
        w = g @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        val = nw
    return float(np.sqrt(val))


def finite_difference_jacobian(func, x0: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of a vector-valued function."""
    n = len(x0)
    f0 = func(x0)
    jac = np.empty((len(f0), n))
    for col in range(n):
        xp = x0.copy()
        xm = x0.copy()
        xp[col] += h
        xm[col] -= h
        jac[:, col] = (func(xp) - func(xm)) / (2.0 * h)
    return jac


def diis_extrapolate(trials, errors) -> np.ndarray:
    """Pulay's DIIS combination of the trials, with all m^2 products e_i @ e_j computed anew:
    the loop reference the solver's kept Gram matrix is held to."""
    m = len(trials)
    b = np.full((m + 1, m + 1), -1.0)
    b[:m, :m] = np.array([[float(e1 @ e2) for e2 in errors] for e1 in errors])
    b[m, m] = 0.0
    rhs = np.zeros(m + 1)
    rhs[m] = -1.0
    coef, *_ = np.linalg.lstsq(b, rhs, rcond=None)
    return sum(c * t for c, t in zip(coef[:m], trials))


@dataclass
class FockNormCheck:
    deviation: float       # | ||t||_V - ||T phi0||_F |
    t_vext_norm: float
    t_phi0_fock_norm: float
    operator_norm: float   # Fock-norm-induced norm of T
    rho: float             # operator_norm / ||t||_V


def fock_norm_identity_check(t, fock, basis) -> FockNormCheck:
    """Check ||t||_V = sqrt(<T phi0, (F - Lambda0) T phi0>) with explicit F.

    Also reports the operator-norm ratio rho(t) = ||T||_op / ||t||_V.
    The operator norm uses the Fock seminorm sqrt(<w,(F-Lambda0)w>) on
    the excited determinants and unit weight on the reference component
    (the reference has zero Fock seminorm), realized as the spectral
    norm of the weighted matrix D^{1/2} A Dtilde^{-1/2}. A single-entry
    t has rho = 1 when no other determinant couples, and rho >= 1
    always since the reference column alone realizes ||t||_V.
    """
    if t.space not in (SPACE_EXT, SPACE_TRUNCATED):
        raise InputError(f"||t||_V needs an external vector, got {t.space!r}")
    space = support_space(t, basis)
    t_vec = space.embed(t)
    refpos = space.reference
    diag = fock_diagonal_vector(fock, basis) - fock.lambda0

    t_norm = float(np.sqrt((_weights(space, fock) * t_vec**2).sum()))
    t_phi0 = space.apply(t_vec, space.dets.reference_state())
    fock_norm = float(np.sqrt(max(0.0, t_phi0 @ (diag * t_phi0))))
    deviation = abs(t_norm - fock_norm)

    # weighted operator matrix: domain = reference (+) excited, codomain = excited
    exc = np.delete(np.arange(space.dim), refpos)
    cols = np.concatenate(([refpos], exc))
    a = space.apply(t_vec, np.eye(space.dim)[:, cols])[exc, :]
    d_out = np.sqrt(np.maximum(diag[exc], 0.0))
    d_in = np.concatenate(([1.0], d_out))
    with np.errstate(divide="ignore", invalid="ignore"):
        m = (d_out[:, None] * a) / d_in[None, :]
    m[~np.isfinite(m)] = 0.0
    op_norm = float(np.linalg.norm(m, 2)) if m.size else 0.0
    rho = op_norm / t_norm if t_norm > 0 else np.inf
    return FockNormCheck(deviation, t_norm, fock_norm, op_norm, float(rho))
