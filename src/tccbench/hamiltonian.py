"""Second-quantized Hamiltonians on the determinant space.

Covers the integral set (read and written as FCIDUMP by
tccbench.fcidump), two built-in model generators, the Fock/fluctuation
splitting H = F + W, and the dense Slater-Condon Hamiltonian build.

Spin convention: spatial orbital p in 1..n_spatial expands to
spin-orbitals 2p-1 (up) and 2p (down). The integrals stay spatial, the
two-electron ones in chemists' notation (pq|rs): the Fock matrix and the H
build read h_PQ and <PQ||RS> from them, never from a K^4 spin-orbital tensor.

The Fock operator used throughout is the *diagonal* of the spin-orbital
Fock matrix built at the reference; all off-diagonal pieces are
absorbed into W so that H = F_diag + W holds exactly and the identity
F phi_mu = (Lambda0 + eps_mu) phi_mu is exact rather than approximate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

import numpy as np

from .determinants import MAX_SPIN_ORBITALS, ExcitationIndex, OrbitalBasis, _excite
from .errors import DimensionMismatchError, NonFiniteIntegralError, SizeLimitError

SYMMETRY_8FOLD = "8-fold"
SYMMETRY_4FOLD = "4-fold"


class NonCanonicalOrbitalsWarning(UserWarning):
    """The reference orbitals do not diagonalize the Fock matrix."""


@dataclass(frozen=True)
class IntegralSet:
    """Spatial-orbital integrals h_pq, (pq|rs) and a scalar core energy."""

    n_spatial: int
    h: np.ndarray
    g: np.ndarray
    e_core: float = 0.0
    n_electrons: Optional[int] = None
    symmetry: str = SYMMETRY_8FOLD
    _dense_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        n = self.n_spatial
        # frozen, with private read-only copies: no edit may leave _dense_cache stale
        object.__setattr__(self, "h", np.array(self.h, dtype=float))
        object.__setattr__(self, "g", np.array(self.g, dtype=float))
        self.h.flags.writeable = self.g.flags.writeable = False
        if self.h.shape != (n, n):
            raise DimensionMismatchError(f"h must be {n}x{n}, got {self.h.shape}")
        if self.g.shape != (n, n, n, n):
            raise DimensionMismatchError(f"g must be {(n,) * 4}, got {self.g.shape}")
        if not all(np.isfinite(x).all() for x in (self.h, self.g, self.e_core)):
            raise NonFiniteIntegralError("integrals or core energy hold NaN or inf")

    @property
    def n_spin_orbitals(self) -> int:
        return 2 * self.n_spatial


def _spin_integrals(ints: IntegralSet, P, Q, R=None, S=None) -> np.ndarray:
    """h_PQ, or <PQ||RS> given R and S, for 0-based spin-orbital index arrays, read from h and
    (pq|rs): P is orbital P >> 1, spin P & 1; <PQ|RS> = (pr|qs) if P, R and Q, S share a spin."""
    if R is None:
        return np.where((P ^ Q) & 1 == 0, ints.h[P >> 1, Q >> 1], 0.0)
    p, q, r, s = P >> 1, Q >> 1, R >> 1, S >> 1
    direct = np.where(((P ^ R) | (Q ^ S)) & 1 == 0, ints.g[p, r, q, s], 0.0)
    return direct - np.where(((P ^ S) | (Q ^ R)) & 1 == 0, ints.g[p, s, q, r], 0.0)


# ---------------------------------------------------------------------------
# Built-in models
# ---------------------------------------------------------------------------

def check_orbital_count(norb: int) -> None:
    """Refuse more spatial orbitals than an OrbitalBasis takes, before any norb^4 array exists."""
    if 2 * norb > MAX_SPIN_ORBITALS:
        raise SizeLimitError(f"NORB={norb} exceeds the hard limit of {MAX_SPIN_ORBITALS // 2}")


def hubbard_model(n_sites: int, t_hop: float, u: float, n_electrons: Optional[int] = None) -> IntegralSet:
    """Open-boundary 1D Hubbard chain in the site basis.

    h has -t_hop on nearest-neighbour bonds; (pp|pp) = u gives the
    on-site repulsion U n_up n_down per site.
    """
    check_orbital_count(n_sites)
    h = np.zeros((n_sites, n_sites))
    for p in range(n_sites - 1):
        h[p, p + 1] = h[p + 1, p] = -t_hop
    g = np.zeros((n_sites,) * 4)
    for p in range(n_sites):
        g[p, p, p, p] = u
    if n_electrons is None:
        n_electrons = n_sites  # half filling
    return IntegralSet(n_sites, h, g, 0.0, n_electrons=n_electrons)


def pairing_model(n_levels: int, g_pair: float, spacing: float = 1.0,
                  n_electrons: Optional[int] = None) -> IntegralSet:
    """Picket-fence pairing (reduced BCS) model.

    Levels at spacing*(p-1), each doubly degenerate in spin, with the
    pair-hopping interaction -g_pair * sum_{pq} P+_p P_q where
    P+_p = a+_{p,up} a+_{p,down}. In chemists' notation this is
    (pq|rs) = -g_pair * delta_{pr} delta_{qs}, which carries only the
    particle-exchange 4-fold symmetry, not the real-orbital 8-fold one.
    """
    check_orbital_count(n_levels)
    h = np.diag([spacing * p for p in range(n_levels)]).astype(float)
    g = np.zeros((n_levels,) * 4)
    for p in range(n_levels):
        for q in range(n_levels):
            g[p, q, p, q] = -g_pair
    if n_electrons is None:
        n_electrons = n_levels  # half filling in spin-orbitals
    sym = SYMMETRY_8FOLD if g_pair == 0.0 else SYMMETRY_4FOLD
    return IntegralSet(n_levels, h, g, 0.0, n_electrons=n_electrons, symmetry=sym)


def rotate_orbitals(ints: IntegralSet, c: np.ndarray) -> IntegralSet:
    """Transform integrals by an orthogonal spatial-orbital rotation C.

    New orbital q is sum_p C[p, q] * old orbital p.
    """
    c = np.asarray(c, dtype=float)
    if c.shape != (ints.n_spatial, ints.n_spatial):
        raise DimensionMismatchError("rotation matrix has wrong shape")
    if not np.allclose(c.T @ c, np.eye(ints.n_spatial), atol=1e-10):
        raise DimensionMismatchError("rotation matrix is not orthogonal")
    h = c.T @ ints.h @ c
    g = np.einsum("pqrs,pa,qb,rc,sd->abcd", ints.g, c, c, c, c, optimize=True)
    return IntegralSet(ints.n_spatial, h, g, ints.e_core,
                       n_electrons=ints.n_electrons, symmetry=ints.symmetry)


def canonicalize_core(ints: IntegralSet) -> tuple[IntegralSet, np.ndarray]:
    """Rotate to the eigenbasis of the one-electron (core) Hamiltonian.

    A single diagonalization, no self-consistency loop. Returns the
    rotated integrals and the rotation matrix. Useful for site-basis
    models whose bare h is off-diagonal (e.g. Hubbard chains), where the
    reference determinant should occupy the lowest core orbitals.
    """
    _, c = np.linalg.eigh(ints.h)
    # fix signs for determinism: largest-magnitude entry of each column positive
    for j in range(c.shape[1]):
        i = int(np.argmax(np.abs(c[:, j])))
        if c[i, j] < 0:
            c[:, j] = -c[:, j]
    return rotate_orbitals(ints, c), c


# ---------------------------------------------------------------------------
# Fock splitting
# ---------------------------------------------------------------------------

@dataclass
class FockSpectrum:
    """Spin-orbital Fock data at the reference determinant."""

    lambdas: np.ndarray
    lambda0: float
    off_diag_norm: float

    def epsilon_of(self, mu: ExcitationIndex) -> float:
        """eps_mu = sum(lambda_A) - sum(lambda_I)."""
        return float(
            sum(self.lambdas[a - 1] for a in mu.particles)
            - sum(self.lambdas[i - 1] for i in mu.holes)
        )


def fock_matrix(ints: IntegralSet, basis: OrbitalBasis) -> FockSpectrum:
    """Build the spin-orbital Fock matrix f_PQ = h_PQ + sum_I <PI||QI>.

    I runs over the reference occupation 1..N. lambda_P = f_PP; the
    off-diagonal Frobenius norm is recorded, and a warning is emitted
    when it is non-negligible since the diagonal-action identity then
    only holds for the retained diagonal part.
    """
    K = ints.n_spin_orbitals
    if basis.n_orbitals != K:
        raise DimensionMismatchError(
            f"basis has K={basis.n_orbitals}, integrals give K={K}"
        )
    P, Q = np.arange(K)[:, None], np.arange(K)
    f = _spin_integrals(ints, P, Q)
    for i in range(basis.n_electrons):
        f += _spin_integrals(ints, P, i, Q, i)
    f = np.triu(f) + np.triu(f, 1).T   # the upper triangle, mirrored
    lambdas = np.diag(f).copy()
    off = f - np.diag(lambdas)
    off_norm = float(np.linalg.norm(off))
    if off_norm > 1e-8:
        warnings.warn(
            f"reference orbitals are not canonical (off-diagonal Fock norm {off_norm:.3e}); "
            "the diagonal Fock action is exact only for the retained diagonal",
            NonCanonicalOrbitalsWarning,
            stacklevel=2,
        )
    return FockSpectrum(lambdas, float(lambdas[: basis.n_electrons].sum()), off_norm)


# ---------------------------------------------------------------------------
# Dense build
# ---------------------------------------------------------------------------

def _lowest_orbitals(masks: np.ndarray, n: int) -> list[np.ndarray]:
    """0-based indices of the n lowest set bits of each mask, ascending."""
    out = []
    for _ in range(n):
        low = masks & (~masks + np.uint64(1))
        out.append(np.bitwise_count(low - np.uint64(1)).astype(np.uint64))
        masks = masks ^ low
    return out


def build_dense_hamiltonian(ints: IntegralSet, basis: OrbitalBasis) -> np.ndarray:
    """Dense symmetric H over the basis's DeterminantSpace, in its order (cached).

    The Slater-Condon rules on the space's bit masks, a block of rows of one
    of its S_z sectors at a time: popcount(m_a ^ m_b) sorts each pair
    b > a into a single (2), a double (4) or a zero. Pairs from different
    sectors are never visited; their entries are +0.0. The phase is
    _excite's, taking m_b to m_a; every sum follows the order of the scalar
    Slater-Condon reference in the tests (tests/oracle.py: matrix_element),
    so entry (a, b) for a <= b equals it exactly.
    """
    key = (basis.n_orbitals, basis.n_electrons)
    cached = ints._dense_cache.get(key)
    if cached is not None:
        return cached
    K, dets = basis.n_orbitals, basis.determinants
    masks, occ, dim = dets.masks, dets.occupations, len(dets.masks)
    Q = np.arange(K)
    P = Q[:, None]
    h_diag, pair = _spin_integrals(ints, Q, Q), _spin_integrals(ints, P, Q, P, Q)
    exchange = _spin_integrals(ints, P[..., None], Q, Q[:, None], Q)   # [p, q, r] = <pr||qr>
    diag = np.full(dim, float(ints.e_core))
    for p in range(K):
        diag += np.where(occ[:, p], h_diag[p], 0.0)
    for p, q in combinations(range(K), 2):
        diag += np.where(occ[:, p] & occ[:, q], pair[p, q], 0.0)
    ham = np.diag(diag)
    for sector in dets.sectors:
        step = max(1, (1 << 16) // len(sector))   # ~2^16 pairs a block: < 1 MB of temporaries
        for start in range(0, len(sector), step):
            n_diff = np.bitwise_count(masks[sector[start:start + step, None]]
                                      ^ masks[sector[None, start:]])
            for n_moved in (1, 2):
                a, b = np.nonzero(np.triu(n_diff == 2 * n_moved, 1))
                if not len(a):
                    continue
                a, b = sector[a + start], sector[b + start]
                # orbitals occupied in only one determinant of the pair, ascending
                only_a = _lowest_orbitals(masks[a] & ~masks[b], n_moved)
                only_b = _lowest_orbitals(masks[b] & ~masks[a], n_moved)
                _, sign = _excite(masks[b], only_b, only_a)   # pair j: only_b[j] -> only_a[j]
                pqrs = [x.astype(np.intp) for x in only_a + only_b]
                val = _spin_integrals(ints, *pqrs)
                if n_moved == 1:   # h_pq + sum over the common orbitals r of <pr||qr>
                    common, exch = occ[a] & occ[b], exchange[pqrs[0], pqrs[1]]
                    for r in range(K):
                        val += np.where(common[:, r], exch[:, r], 0.0)
                ham[a, b] = ham[b, a] = sign * val
    ham.flags.writeable = False   # shared by every caller through the cache
    ints._dense_cache[key] = ham
    return ham


def fock_diagonal_vector(fock: FockSpectrum, basis: OrbitalBasis) -> np.ndarray:
    """Diagonal of F in determinant order: Lambda0 + eps_mu per determinant."""
    occ = basis.determinants.occupations
    diag = np.zeros(len(occ))
    for p, lam in enumerate(fock.lambdas):
        diag += np.where(occ[:, p], lam, 0.0)
    return diag
