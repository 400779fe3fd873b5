"""Independent dense oracles on the full 2^K occupation-tensor space.

Everything here is built from first principles -- explicit creation/
annihilation matrices with the standard phase string, dense many-body
operators, explicit partial traces -- and deliberately shares no code
with the package beyond the integral and determinant containers. Used to
pin signs, matrix elements, reduced density matrices and operator norms.

The scalar integral lookups and the Slater-Condon matrix_element are the
loop references the package's vectorised Hamiltonian build is held to.
"""

from __future__ import annotations

import numpy as np


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


def _align_phase(d1, d2, removed: list[int], added: list[int]) -> int:
    """Parity of bringing d2 into maximal coincidence with d1.

    Standard position-parity bookkeeping: each (removed, added) pair
    contributes (-1)^(occupied orbitals strictly between them in d2,
    after earlier substitutions).
    """
    mask = d2.mask
    sign = 1
    for r, a in zip(removed, added):
        lo, hi = (r, a) if r < a else (a, r)
        between = (mask >> lo) & ((1 << (hi - lo - 1)) - 1)
        if between.bit_count() & 1:
            sign = -sign
        mask = (mask & ~(1 << (a - 1))) | (1 << (r - 1))
    return sign


def matrix_element(d1, d2, ints) -> float:
    """<d1|H|d2> by the Slater-Condon rules, including e_core on the diagonal."""
    occ1, occ2 = set(d1.occ), set(d2.occ)
    if len(occ1) != len(occ2):
        raise ValueError("determinants have different particle number")
    diff1 = sorted(occ1 - occ2)
    diff2 = sorted(occ2 - occ1)
    n_diff = len(diff1)
    if n_diff > 2:
        return 0.0

    if n_diff == 0:
        val = ints.e_core
        occ = d1.occ
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
        v += c * determinant_state(d.occ, n_modes)
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
