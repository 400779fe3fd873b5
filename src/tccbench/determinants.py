"""Fermionic occupation algebra on a finite spin-orbital basis.

Spin-orbitals are labelled 1..K. The reference determinant occupies
1..N. Determinants are stored as bit masks (bit p-1 <-> orbital p),
which caps K at 64 -- plenty for desk scale and enforced as a hard
limit.

Sign convention: an excitation index mu = (I_1..I_r -> A_1..A_r) is
realized as the ordered operator string

    a+_{A_1} a_{I_1} ... a+_{A_r} a_{I_r}

applied right to left with the standard creation/annihilation phase
(-1)^(number of occupied orbitals below the affected one). The
convention is not trusted by construction; the test suite checks it
against a dense 2^K occupation-tensor oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonFiniteAmplitudeError,
    NonPositiveWeightError,
    SpaceMismatchError,
)

MAX_SPIN_ORBITALS = 64


@dataclass(frozen=True)
class OrbitalBasis:
    """K spin-orbitals, N electrons; orbitals 1..N define the reference."""

    n_orbitals: int
    n_electrons: int

    def __post_init__(self):
        k, n = self.n_orbitals, self.n_electrons
        if not 0 < n < k:
            raise ValueError(f"need 0 < N < K, got N={n}, K={k}")
        if k > MAX_SPIN_ORBITALS:
            raise ValueError(f"K={k} exceeds the hard limit of {MAX_SPIN_ORBITALS}")

    @property
    def reference(self) -> "Determinant":
        return Determinant(tuple(range(1, self.n_electrons + 1)))


@dataclass(frozen=True)
class BasisSplit:
    """CAS boundary: orbitals 1..k are CAS, k+1..K are external."""

    basis: OrbitalBasis
    k: int

    def __post_init__(self):
        if not self.basis.n_electrons <= self.k <= self.basis.n_orbitals:
            raise ValueError(
                f"need N <= k <= K, got k={self.k}, N={self.basis.n_electrons}, "
                f"K={self.basis.n_orbitals}"
            )

    def cas_determinants(self) -> np.ndarray:
        """Whether each determinant, in enumeration order, lies inside the CAS."""
        return determinant_masks(self.basis.n_orbitals, self.basis.n_electrons) < (1 << self.k)


@dataclass(frozen=True)
class Determinant:
    """Canonically ordered occupied spin-orbital indices."""

    occ: tuple[int, ...]

    def __post_init__(self):
        if any(a >= b for a, b in zip(self.occ, self.occ[1:])):
            raise ValueError(f"occupation not strictly increasing: {self.occ}")
        if self.occ and self.occ[0] < 1:
            raise ValueError("orbital indices are 1-based")

    @property
    def mask(self) -> int:
        m = 0
        for p in self.occ:
            m |= 1 << (p - 1)
        return m

    @classmethod
    def from_mask(cls, mask: int) -> "Determinant":
        occ = []
        p = 1
        while mask:
            if mask & 1:
                occ.append(p)
            mask >>= 1
            p += 1
        return cls(tuple(occ))

    def __len__(self) -> int:
        return len(self.occ)


@dataclass(frozen=True, order=True)
class ExcitationIndex:
    """Multi-index mu = (I_1..I_r -> A_1..A_r), canonically ordered."""

    holes: tuple[int, ...]
    particles: tuple[int, ...]

    def __post_init__(self):
        if len(self.holes) != len(self.particles) or not self.holes:
            raise ValueError("holes and particles must be equally long and nonempty")
        for seq in (self.holes, self.particles):
            if any(a >= b for a, b in zip(seq, seq[1:])) or seq[0] < 1:
                raise ValueError(f"indices must be strictly increasing and 1-based: {seq}")
        if set(self.holes) & set(self.particles):
            raise ValueError("holes and particles must be disjoint")

    @property
    def rank(self) -> int:
        return len(self.holes)

    def __str__(self) -> str:
        h = ",".join(map(str, self.holes))
        p = ",".join(map(str, self.particles))
        return f"{h}->{p}"

    @classmethod
    def from_string(cls, text: str) -> "ExcitationIndex":
        h, p = text.split("->")
        return cls(
            tuple(int(x) for x in h.split(",")),
            tuple(int(x) for x in p.split(",")),
        )


def _count_below(mask: int, orbital: int) -> int:
    return (mask & ((1 << (orbital - 1)) - 1)).bit_count()


def _annihilate(mask: int, orbital: int) -> Optional[tuple[int, int]]:
    bit = 1 << (orbital - 1)
    if not mask & bit:
        return None
    sign = -1 if _count_below(mask, orbital) & 1 else 1
    return mask & ~bit, sign


def _create(mask: int, orbital: int) -> Optional[tuple[int, int]]:
    bit = 1 << (orbital - 1)
    if mask & bit:
        return None
    sign = -1 if _count_below(mask, orbital) & 1 else 1
    return mask | bit, sign


def apply_excitation(
    mu: ExcitationIndex, det: Determinant
) -> Optional[tuple[Determinant, int]]:
    """Apply X_mu to a determinant; None when annihilated.

    Returns the canonical resulting determinant and the fermionic phase.
    """
    mask = det.mask
    sign = 1
    # rightmost pair of the operator string acts first
    for hole, particle in reversed(list(zip(mu.holes, mu.particles))):
        step = _annihilate(mask, hole)
        if step is None:
            return None
        mask, s = step
        sign *= s
        step = _create(mask, particle)
        if step is None:
            return None
        mask, s = step
        sign *= s
    return Determinant.from_mask(mask), sign


def excitation_from_reference(
    det: Determinant, basis: OrbitalBasis
) -> Optional[tuple[ExcitationIndex, int]]:
    """Unique mu and sign with X_mu phi_0 = sign * phi_det; None for phi_0."""
    ref = set(range(1, basis.n_electrons + 1))
    occ = set(det.occ)
    holes = tuple(sorted(ref - occ))
    particles = tuple(sorted(occ - ref))
    if not holes:
        return None
    mu = ExcitationIndex(holes, particles)
    applied = apply_excitation(mu, basis.reference)
    assert applied is not None and applied[0] == det
    return mu, applied[1]


def classify_excitation(mu: ExcitationIndex, split: BasisSplit) -> str:
    """'cas' when all particles are <= k, otherwise 'ext' (incl. mixed)."""
    return "cas" if mu.particles[-1] <= split.k else "ext"


def enumerate_determinants(
    basis: OrbitalBasis, split: Optional[BasisSplit] = None
) -> list[Determinant]:
    """All N-electron determinants in lexicographic order.

    With a split, only determinants fully inside the CAS orbitals 1..k.
    """
    top = split.k if split is not None else basis.n_orbitals
    return [
        Determinant(occ)
        for occ in combinations(range(1, top + 1), basis.n_electrons)
    ]


@lru_cache(maxsize=32)
def enumerate_excitations(basis: OrbitalBasis) -> tuple[ExcitationIndex, ...]:
    """All excitation indices, ordered by (rank, holes, particles); cached."""
    n, k = basis.n_electrons, basis.n_orbitals
    out = []
    for r in range(1, min(n, k - n) + 1):
        for holes in combinations(range(1, n + 1), r):
            for particles in combinations(range(n + 1, k + 1), r):
                out.append(ExcitationIndex(holes, particles))
    return tuple(out)


SPACE_FULL = "full"
SPACE_CAS = "cas"
SPACE_EXT = "ext"
SPACE_TRUNCATED = "truncated"


@dataclass
class AmplitudeVector:
    """Sparse map from excitation indices to real coefficients.

    `space` tags the index set the vector lives on; `scheme` names the
    truncation when space == 'truncated'. Iteration is sorted by the
    canonical index order so serialized output is reproducible. Explicit
    zeros are dropped on construction; NaN and inf are rejected.
    """

    space: str
    entries: dict[ExcitationIndex, float] = field(default_factory=dict)
    scheme: Optional[str] = None

    def __post_init__(self):
        if self.space not in (SPACE_FULL, SPACE_CAS, SPACE_EXT, SPACE_TRUNCATED):
            raise ValueError(f"unknown space tag {self.space!r}")
        for mu, v in self.entries.items():
            if not math.isfinite(v):
                raise NonFiniteAmplitudeError(f"amplitude of {mu} is {v}")
        self.entries = {m: v for m, v in self.entries.items() if v != 0.0}

    def sorted_items(self) -> list[tuple[ExcitationIndex, float]]:
        return sorted(self.entries.items(), key=lambda kv: kv[0])

    def get(self, mu: ExcitationIndex) -> float:
        return self.entries.get(mu, 0.0)

    def check_space(self, split: BasisSplit) -> None:
        """Verify every key's CAS/ext classification matches the tag."""
        if self.space == SPACE_FULL:
            return
        want = SPACE_CAS if self.space == SPACE_CAS else SPACE_EXT
        for mu in self.entries:
            if classify_excitation(mu, split) != want:
                raise SpaceMismatchError(
                    f"index {mu} is not {want} under split k={split.k}"
                )

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[ExcitationIndex]:
        return iter(sorted(self.entries))


def v_ext_norm(t: AmplitudeVector, fock) -> float:
    """Weighted l2 norm sqrt(sum eps_mu t_mu^2).

    Raises NonPositiveWeightError when some eps_mu <= 0, which signals a
    violated CAS-ext gap for the indices carried by t.
    """
    if t.space not in (SPACE_EXT, SPACE_TRUNCATED):
        raise SpaceMismatchError(f"v_ext_norm needs an external vector, got {t.space!r}")
    acc = 0.0
    for mu, val in t.entries.items():
        eps = fock.epsilon_of(mu)
        if eps <= 0.0:
            raise NonPositiveWeightError(f"eps_mu <= 0 for {mu}: {eps}")
        acc += eps * val * val
    return acc ** 0.5


# ---------------------------------------------------------------------------
# Excitation tables
# ---------------------------------------------------------------------------

# Largest (indices x determinants) block tested at once while building a table;
# it bounds the build's temporary memory to a few hundred kB.
_TABLE_BLOCK = 1 << 14


@lru_cache(maxsize=64)
def determinant_masks(n_orbitals: int, n_electrons: int) -> np.ndarray:
    """Bit masks of the N-electron determinants, in enumerate_determinants order."""
    occ = np.array(list(combinations(range(n_orbitals), n_electrons)), dtype=np.uint64)
    masks = np.bitwise_or.reduce(np.left_shift(np.uint64(1), occ), axis=1)
    masks.flags.writeable = False
    return masks


@lru_cache(maxsize=64)
def spin_sectors(n_orbitals: int, n_electrons: int) -> tuple[np.ndarray, ...]:
    """Ascending determinant positions per up-spin count (orbitals 2p-1), lowest count first."""
    masks = determinant_masks(n_orbitals, n_electrons)
    up = np.bitwise_count(masks & np.uint64(0x5555_5555_5555_5555))   # even bits: spin up
    sectors = tuple(np.flatnonzero(up == u) for u in range(int(up.min()), int(up.max()) + 1))
    for idx in sectors:
        idx.flags.writeable = False
    return sectors


def occupations(masks: np.ndarray, n_orbitals: int) -> np.ndarray:
    """(len(masks), K) bools: whether 0-based spin-orbital p is in each mask."""
    return ((masks[:, None] >> np.arange(n_orbitals, dtype=np.uint64)) & np.uint64(1)).astype(bool)


def _bits(orbitals: np.ndarray) -> np.ndarray:
    return np.left_shift(np.uint64(1), orbitals.astype(np.uint64) - np.uint64(1))


def _excite(masks: np.ndarray, holes: np.ndarray, particles: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise X_mu on determinant masks: the resulting masks and phases.

    Row i applies the index with 1-based `holes[i]` -> `particles[i]`, rightmost
    pair first, as apply_excitation does; every hole must be occupied and
    every particle empty in masks[i].
    """
    sign = np.ones(len(masks))
    for q in reversed(range(holes.shape[1])):
        for orbital, create in ((holes[:, q], False), (particles[:, q], True)):
            bit = _bits(orbital)
            odd = (np.bitwise_count(masks & (bit - np.uint64(1))) & 1).astype(bool)
            sign[odd] = -sign[odd]
            masks = masks | bit if create else masks & ~bit
    return masks, sign


class ExcitationSpace:
    """An ordered set of excitation indices acting on the N-electron determinants.

    Holds the determinant masks, the position of X_mu phi_0 and its sign for
    every index, and -- built on first use -- the excitation table
    (src, dst, sign, mu): X_{indices[mu]} phi_src = sign * phi_dst, one row
    per nonzero action, grouped by rank, then ordered by index and source
    determinant. Amplitude vectors on the space are ndarrays in index
    order; with them T @ v is a single bincount over the table.
    """

    def __init__(self, basis: OrbitalBasis, indices: Sequence[ExcitationIndex]):
        self.basis = basis
        self.indices = tuple(indices)
        self.masks = determinant_masks(basis.n_orbitals, basis.n_electrons)
        # the masks are distinct, so any sort gives this order; the merge sort
        # touches far less of numpy's code than the default SIMD quicksort
        self._order = np.argsort(self.masks, kind="stable")
        self._sorted = self.masks[self._order]
        self._slot = {mu: a for a, mu in enumerate(self.indices)}
        by_rank: dict[int, list[int]] = {}
        for a, mu in enumerate(self.indices):
            by_rank.setdefault(mu.rank, []).append(a)
        # (ids, holes, particles) per rank, orbitals 1-based
        self._groups = [
            (np.array(ids),
             np.array([self.indices[a].holes for a in ids]),
             np.array([self.indices[a].particles for a in ids]))
            for _, ids in sorted(by_rank.items())
        ]
        self.max_rank = max(by_rank, default=0)
        ref_mask = np.uint64((1 << basis.n_electrons) - 1)
        self.reference = int(self.position(np.array([ref_mask]))[0])
        _, dst, sign, mu = self._rows(np.array([self.reference]))
        if len(mu) != len(self):
            hit = set(mu.tolist())
            bad = next(m for a, m in enumerate(self.indices) if a not in hit)
            raise SpaceMismatchError(f"index {bad} does not excite the reference")
        self.ref_pos = np.empty(len(self), dtype=np.intp)
        self.ref_pos[mu] = dst
        self.ref_sign = np.empty(len(self))
        self.ref_sign[mu] = sign
        self._table: Optional[tuple[np.ndarray, ...]] = None

    def __len__(self) -> int:
        return len(self.indices)

    @property
    def dim(self) -> int:
        return len(self.masks)

    def position(self, masks: np.ndarray) -> np.ndarray:
        """Positions of N-electron determinant masks in the enumeration order."""
        return self._order[np.searchsorted(self._sorted, masks)]

    def reference_state(self) -> np.ndarray:
        """phi_0 as a coefficient vector."""
        v = np.zeros(self.dim)
        v[self.reference] = 1.0
        return v

    def _rows(self, sources: np.ndarray) -> tuple[np.ndarray, ...]:
        """(src, dst, sign, mu) of every nonzero X_mu phi_src with src in `sources`."""
        cols = [[np.empty(0, dtype=np.int32)] * 2 + [np.empty(0, dtype=np.int8)]
                + [np.empty(0, dtype=np.int32)]]
        masks = self.masks[sources]
        step = max(1, _TABLE_BLOCK // len(sources))
        for ids, holes, particles in self._groups:
            hole_masks = np.bitwise_or.reduce(_bits(holes), axis=1)
            part_masks = np.bitwise_or.reduce(_bits(particles), axis=1)
            for lo in range(0, len(ids), step):
                h = hole_masks[lo:lo + step, None]
                p = part_masks[lo:lo + step, None]
                a, j = np.nonzero(((masks & h) == h) & ((masks & p) == 0))
                a += lo
                dst, sign = _excite(masks[j], holes[a], particles[a])
                cols.append([sources[j].astype(np.int32), self.position(dst).astype(np.int32),
                             sign.astype(np.int8), ids[a].astype(np.int32)])
        return tuple(np.concatenate(col) for col in zip(*cols))

    @property
    def table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(src, dst, sign, mu) rows of every nonzero X_mu phi_src."""
        if self._table is None:
            self._table = self._rows(np.arange(self.dim))
        return self._table

    def block(self, rank: int) -> tuple[np.ndarray, tuple, np.ndarray]:
        """(rows, (src, dst), outside): the table rows with phi_dst at excitation
        level <= rank, their ends, and the determinants above that level.

        X_mu raises the level by |mu|, so these rows alone give T @ v on
        those determinants from v on them, summed in the same table order.
        """
        level = np.bitwise_count(self.masks >> np.uint64(self.basis.n_electrons))
        src, dst, _, _ = self.table
        rows = np.flatnonzero(level[dst] <= rank)
        return rows, (src[rows], dst[rows]), level > rank

    # -- amplitude vectors ---------------------------------------------------

    def embed(self, t: AmplitudeVector) -> np.ndarray:
        """The entries of t as an ndarray in index order."""
        vec = np.zeros(len(self))
        for mu, val in t.entries.items():
            a = self._slot.get(mu)
            if a is None:
                raise SpaceMismatchError(f"index {mu} is not in the excitation space")
            vec[a] = val
        return vec

    def amplitudes(self, vec: np.ndarray, space: str,
                   scheme: Optional[str] = None) -> AmplitudeVector:
        return AmplitudeVector(space, {mu: float(x) for mu, x in zip(self.indices, vec)},
                               scheme=scheme)

    def epsilon(self, fock) -> np.ndarray:
        """The Fock weights eps_mu in index order."""
        return np.array([fock.epsilon_of(mu) for mu in self.indices])

    def project(self, v: np.ndarray) -> np.ndarray:
        """Components <X_mu phi_0, v> per index; v is (dim,) or (dim, m)."""
        w = v[self.ref_pos]
        return w * (self.ref_sign if w.ndim == 1 else self.ref_sign[:, None])

    # -- the cluster kernel --------------------------------------------------

    def coefficients(self, t: np.ndarray) -> np.ndarray:
        """t[mu] * sign per table row, for a finite amplitude vector t."""
        t = np.asarray(t, dtype=float)
        if t.shape != (len(self),):
            raise DimensionMismatchError(
                f"amplitude vector shape {t.shape}, space has {len(self)} indices")
        if not np.isfinite(t).all():
            raise NonFiniteAmplitudeError("amplitude vector has NaN or inf entries")
        _, _, sign, mu = self.table
        return t[mu] * sign

    def _apply(self, coef: np.ndarray, v: np.ndarray, ends: tuple) -> np.ndarray:
        src, dst = ends[:2]
        if v.ndim == 1:
            return np.bincount(dst, weights=coef * v[src], minlength=self.dim)
        out = np.empty_like(v)
        for j in range(v.shape[1]):
            out[:, j] = np.bincount(dst, weights=coef * v[src, j], minlength=self.dim)
        return out

    def apply(self, t: np.ndarray, v: np.ndarray) -> np.ndarray:
        """T @ v for T = sum_a t[a] X_{indices[a]}; v is (dim,) or (dim, m)."""
        return self._apply(self.coefficients(t), np.asarray(v, dtype=float), self.table)

    def exp_apply(self, t: np.ndarray, v: np.ndarray, sign: int = +1) -> np.ndarray:
        """e^{sign*T} @ v by the finite nilpotent series."""
        return self.exp_series(self.coefficients(t), v, sign, self.table)

    def exp_series(self, coef: np.ndarray, v: np.ndarray, sign: int, ends: tuple) -> np.ndarray:
        """e^{sign*T} @ v through the table rows with columns ends = (src, dst, ...)."""
        acc = np.array(v, dtype=float)
        term = acc.copy()
        for m in range(1, self.basis.n_electrons + 1):
            term = (sign / m) * self._apply(coef, term, ends)
            if not term.any():
                break
            acc += term
        return acc

    def excitation_columns(self, u: np.ndarray) -> np.ndarray:
        """The dim x n matrix whose column a is X_{indices[a]} u."""
        src, dst, sign, mu = self.table
        out = np.zeros((self.dim, len(self)))
        out[dst, mu] = sign * u[src]   # X_mu maps distinct sources to distinct targets
        return out


@lru_cache(maxsize=32)
def excitation_space(basis: OrbitalBasis, indices: tuple[ExcitationIndex, ...]) -> ExcitationSpace:
    """Shared ExcitationSpace of the indices, in the given order."""
    return ExcitationSpace(basis, indices)


def support_space(t: AmplitudeVector, basis: OrbitalBasis) -> ExcitationSpace:
    """The shared ExcitationSpace of the indices t carries, in canonical order."""
    return excitation_space(basis, tuple(sorted(t.entries)))
