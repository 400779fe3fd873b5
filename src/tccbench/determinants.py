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
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import InputError, SizeLimitError

MAX_SPIN_ORBITALS = 64
MAX_DENSE_DIM = 20_000


@dataclass(frozen=True)
class OrbitalBasis:
    """K spin-orbitals, N electrons; orbitals 1..N define the reference."""

    n_orbitals: int
    n_electrons: int

    def __post_init__(self):
        k, n = self.n_orbitals, self.n_electrons
        if not 0 < n < k:
            raise InputError(f"need 0 < N < K, got N={n}, K={k}")
        if k > MAX_SPIN_ORBITALS:
            raise InputError(f"K={k} exceeds the hard limit of {MAX_SPIN_ORBITALS}")
        # checked before any layer enumerates the determinants or their indices
        dim = math.comb(k, n)
        if dim > MAX_DENSE_DIM:
            raise SizeLimitError(f"determinant space dim {dim} exceeds {MAX_DENSE_DIM}")

    @cached_property
    def determinants(self) -> "DeterminantSpace":
        """The N-electron determinant space, built once per basis."""
        return DeterminantSpace(self)


@dataclass(frozen=True)
class BasisSplit:
    """CAS boundary: orbitals 1..k are CAS, k+1..K are external."""

    basis: OrbitalBasis
    k: int

    def __post_init__(self):
        if not self.basis.n_electrons <= self.k <= self.basis.n_orbitals:
            raise InputError(
                f"need N <= k <= K, got k={self.k}, N={self.basis.n_electrons}, "
                f"K={self.basis.n_orbitals}"
            )

    def cas_determinants(self) -> np.ndarray:
        """Whether each determinant, in enumeration order, lies inside the CAS."""
        return self.basis.determinants.masks < (1 << self.k)


@dataclass(frozen=True, order=True)
class ExcitationIndex:
    """Multi-index mu = (I_1..I_r -> A_1..A_r), canonically ordered."""

    holes: tuple[int, ...]
    particles: tuple[int, ...]

    def __post_init__(self):
        if len(self.holes) != len(self.particles) or not self.holes:
            raise InputError("holes and particles must be equally long and nonempty")
        for seq in (self.holes, self.particles):
            if any(a >= b for a, b in zip(seq, seq[1:])) or seq[0] < 1:
                raise InputError(f"indices must be strictly increasing and 1-based: {seq}")
        if set(self.holes) & set(self.particles):
            raise InputError("holes and particles must be disjoint")

    @property
    def rank(self) -> int:
        return len(self.holes)

    def __str__(self) -> str:
        h = ",".join(map(str, self.holes))
        p = ",".join(map(str, self.particles))
        return f"{h}->{p}"


def classify_excitation(mu: ExcitationIndex, split: BasisSplit) -> str:
    """'cas' when all particles are <= k, otherwise 'ext' (incl. mixed)."""
    return "cas" if mu.particles[-1] <= split.k else "ext"


def enumerate_determinants(basis: OrbitalBasis) -> list[tuple[int, ...]]:
    """The 1-based occupations of all N-electron determinants, in lexicographic order."""
    return list(combinations(range(1, basis.n_orbitals + 1), basis.n_electrons))


@lru_cache(maxsize=32)
def enumerate_excitations(basis: OrbitalBasis) -> tuple[ExcitationIndex, ...]:
    """All excitation indices, ordered by (rank, holes, particles); cached."""
    n, k = basis.n_electrons, basis.n_orbitals
    return tuple(ExcitationIndex(holes, particles) for r in range(1, min(n, k - n) + 1)
                 for holes in combinations(range(1, n + 1), r)
                 for particles in combinations(range(n + 1, k + 1), r))


SPACE_FULL = "full"
SPACE_CAS = "cas"
SPACE_EXT = "ext"
SPACE_TRUNCATED = "truncated"


@dataclass
class AmplitudeVector:
    """Sparse map from excitation indices to real coefficients.

    `space` tags the index set the vector lives on; `scheme` names the
    truncation when space == 'truncated'. `sorted_items()` follows the
    canonical index order, so sums, seeded draws and cache keys over it are
    reproducible. Explicit zeros are dropped on construction; NaN and inf are rejected.
    """

    space: str
    entries: dict[ExcitationIndex, float] = field(default_factory=dict)
    scheme: Optional[str] = None

    def __post_init__(self):
        if self.space not in (SPACE_FULL, SPACE_CAS, SPACE_EXT, SPACE_TRUNCATED):
            raise InputError(f"unknown space tag {self.space!r}")
        for mu, v in self.entries.items():
            if not math.isfinite(v):
                raise InputError(f"amplitude of {mu} is {v}")
        self.entries = {m: v for m, v in self.entries.items() if v != 0.0}

    def sorted_items(self) -> list[tuple[ExcitationIndex, float]]:
        return sorted(self.entries.items(), key=lambda kv: kv[0])

    def get(self, mu: ExcitationIndex) -> float:
        return self.entries.get(mu, 0.0)

    def __len__(self) -> int:
        return len(self.entries)


# ---------------------------------------------------------------------------
# Excitation tables
# ---------------------------------------------------------------------------

# Largest (indices x determinants) block tested at once while building a table;
# it bounds the build's temporary memory to a few hundred kB.
_TABLE_BLOCK = 1 << 14


class DeterminantSpace:
    """The N-electron determinants of a basis (OrbitalBasis.determinants), in
    enumerate_determinants order; every layer reads them from here.

    Holds the bit masks, their sorted lookup behind `position`, each
    determinant's excitation level (its electrons above orbital N) and the
    reference's position. The occupation table and the S_z sectors are built
    on first use. Every array is read-only.
    """

    reference = 0   # combinations() starts with orbitals 1..N

    def __init__(self, basis: OrbitalBasis):
        self.basis = basis
        occ = np.array(list(combinations(range(basis.n_orbitals), basis.n_electrons)),
                       dtype=np.uint64)
        self.masks = _frozen(np.bitwise_or.reduce(np.left_shift(np.uint64(1), occ), axis=1))
        # the masks are distinct, so any sort gives this order; the merge sort
        # touches far less of numpy's code than the default SIMD quicksort
        self._order = _frozen(np.argsort(self.masks, kind="stable"))
        self._sorted = _frozen(self.masks[self._order])
        self.levels = _frozen(np.bitwise_count(self.masks >> np.uint64(basis.n_electrons)))

    def position(self, masks: np.ndarray) -> np.ndarray:
        """Positions of N-electron determinant masks in the enumeration order."""
        return self._order[np.searchsorted(self._sorted, masks)]

    def reference_state(self) -> np.ndarray:
        """phi_0 as a coefficient vector."""
        v = np.zeros(len(self.masks))
        v[self.reference] = 1.0
        return v

    def excitation(self, mask: int) -> Optional[ExcitationIndex]:
        """The mu with X_mu phi_0 = +-phi_mask for an N-electron mask; None for phi_0."""
        ref = int(self.masks[self.reference])
        if mask == ref:
            return None
        return ExcitationIndex(*(tuple(p + 1 for p in range(m.bit_length()) if m >> p & 1)
                                 for m in (ref & ~mask, mask & ~ref)))

    @cached_property
    def occupations(self) -> np.ndarray:
        """(dim, K) bools: whether 0-based spin-orbital p is in each determinant."""
        bits = np.arange(self.basis.n_orbitals, dtype=np.uint64)
        return _frozen(((self.masks[:, None] >> bits) & np.uint64(1)).astype(bool))

    @cached_property
    def sectors(self) -> tuple[np.ndarray, ...]:
        """Ascending determinant positions per up-spin count (orbitals 2p-1), lowest count first."""
        up = np.bitwise_count(self.masks & np.uint64(0x5555_5555_5555_5555))   # even bits: spin up
        return tuple(_frozen(np.flatnonzero(up == u))
                     for u in range(int(up.min()), int(up.max()) + 1))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _orbitals(indices: Sequence[tuple[int, ...]]) -> np.ndarray:
    """n equally long 1-based tuples as _excite's (r, n) 0-based uint64 array."""
    return np.array(indices, dtype=np.uint64).T - np.uint64(1)


def _excite(masks: np.ndarray, holes: np.ndarray, particles: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise X_mu on determinant masks: the resulting masks and phases.

    The package's one fermionic phase rule. holes[q], particles[q] hold pair
    q's 0-based uint64 orbitals, one per mask; mask i gets the pairs
    a+_{particles[q][i]} a_{holes[q][i]} of the module docstring's operator
    string, rightmost first, each flipping the sign once per occupied orbital
    strictly between its hole and particle. Holes must be occupied, particles empty.
    """
    one = np.uint64(1)
    sign = np.ones(len(masks))
    for q in reversed(range(len(holes))):
        hole, particle = holes[q], particles[q]
        lo, hi = np.minimum(hole, particle), np.maximum(hole, particle)
        between = (one << hi) - (one << (lo + one))   # orbitals lo+1 .. hi-1
        sign = sign * (1.0 - 2.0 * (np.bitwise_count(masks & between) & 1))
        masks = masks ^ (one << hole) ^ (one << particle)
    return masks, sign


class ExcitationSpace:
    """An ordered set of excitation indices acting on the N-electron determinants of the
    basis's shared DeterminantSpace (`dets`).

    Holds the position of X_mu phi_0 and its sign for every index, and -- built by `block`
    only as deep as it is read -- the excitation `table` (src, dst, sign, mu):
    X_{indices[mu]} phi_src = sign * phi_dst, one row per nonzero action, stably sorted by
    the excitation level of phi_dst (built by rank, then index and source). Amplitude
    vectors on the space are ndarrays in index order; T @ v is one bincount over the table.
    """

    def __init__(self, basis: OrbitalBasis, indices: Sequence[ExcitationIndex]):
        self.basis = basis
        self.dets = basis.determinants
        self.indices = tuple(indices)
        self._slot = {mu: a for a, mu in enumerate(self.indices)}
        self.ranks = np.array([mu.rank for mu in self.indices], dtype=np.intp)
        # (ids, holes, particles) per rank, orbitals 0-based as _excite takes them
        self._groups = [
            (ids, _orbitals([self.indices[a].holes for a in ids]),
             _orbitals([self.indices[a].particles for a in ids]))
            for ids in (np.flatnonzero(self.ranks == r) for r in sorted(set(self.ranks.tolist())))
        ]
        for ids, holes, particles in self._groups:   # no orbital past K: one past 64 wraps in a shift
            if max(holes.max(), particles.max()) >= basis.n_orbitals:
                bad = self.indices[ids[np.maximum(holes, particles).max(axis=0).argmax()]]
                raise InputError(f"index {bad} has an orbital above K={basis.n_orbitals}")
        self.reference = self.dets.reference
        self.dim = len(self.dets.masks)
        self._top = int(self.dets.levels.max())   # the deepest level a row can reach
        self.table, self._ends = (), ()   # _ends: per level, the table rows up to it
        _, dst, sign, mu = self._rows(np.array([self.reference]), self._top)
        if len(mu) != len(self):
            bad = self.indices[np.flatnonzero(np.bincount(mu, minlength=len(self)) == 0)[0]]
            raise InputError(f"index {bad} does not excite the reference")
        order = np.argsort(mu)   # the rows come by rank, the indices in any order
        self.ref_pos, self.ref_sign = dst[order].astype(np.intp), sign[order].astype(float)

    def __len__(self) -> int:
        return len(self.indices)

    def _rows(self, sources: np.ndarray, level: int) -> tuple[np.ndarray, ...]:
        """(src, dst, sign, mu) of each nonzero X_mu phi_src, src in `sources`, up to `level`."""
        cols = [[np.empty(0, dtype) for dtype in (np.int32, np.int32, np.int8, np.int32)]]
        for ids, holes, particles in self._groups:
            src = sources[self.dets.levels[sources] <= level - len(holes)]
            masks = self.dets.masks[src]
            step = max(1, _TABLE_BLOCK // max(1, len(src)))
            hole_masks = np.bitwise_or.reduce(np.uint64(1) << holes, axis=0)
            part_masks = np.bitwise_or.reduce(np.uint64(1) << particles, axis=0)
            for lo in range(0, len(ids), step):
                h = hole_masks[lo:lo + step, None]
                p = part_masks[lo:lo + step, None]
                a, j = np.nonzero(((masks & h) == h) & ((masks & p) == 0))
                a += lo
                dst, sign = _excite(masks[j], holes[:, a], particles[:, a])
                cols.append([src[j].astype(np.int32), self.dets.position(dst).astype(np.int32),
                             sign.astype(np.int8), ids[a].astype(np.int32)])
        return tuple(np.concatenate(col) for col in zip(*cols))

    def block(self, level: int) -> int:
        """The number of leading table rows, those with phi_dst at level <= `level`.

        X_mu raises the level by |mu|, so these rows alone give T @ v on those determinants
        from v on them, in the same row order. The table is built that deep on request;
        a deeper one replaces it and holds its rows as a prefix."""
        level = min(level, self._top)
        if level >= len(self._ends):
            rows = self._rows(np.arange(self.dim), level)
            levels = self.dets.levels[rows[1]]
            order = np.argsort(levels, kind="stable")
            self.table = tuple(np.take(col, order, out=col) for col in rows)
            self._ends = np.cumsum(np.bincount(levels, minlength=level + 1))
        return int(self._ends[level])

    # -- amplitude vectors ---------------------------------------------------

    def positions(self, indices: Iterable[ExcitationIndex]) -> np.ndarray:
        """The positions of the indices in the space, in their order."""
        try:
            return np.array([self._slot[mu] for mu in indices], dtype=np.intp)
        except KeyError as e:
            raise InputError(f"index {e.args[0]} is not in the excitation space") from None

    def embed(self, t: AmplitudeVector) -> np.ndarray:
        """The entries of t as an ndarray in index order."""
        vec = np.zeros(len(self))
        vec[self.positions(t.entries)] = list(t.entries.values())
        return vec

    def amplitudes(self, vec: np.ndarray, space: str, scheme: Optional[str] = None,
                   cols: Optional[np.ndarray] = None) -> AmplitudeVector:
        """vec on the indices at positions `cols` (default: all of them) as amplitudes."""
        indices = self.indices if cols is None else [self.indices[a] for a in cols]
        return AmplitudeVector(space, {mu: float(x) for mu, x in zip(indices, vec)}, scheme=scheme)

    def epsilon(self, fock) -> np.ndarray:
        """The weights sum(lambda_A) - sum(lambda_I) in index order, each sum left to right."""
        eps = np.empty(len(self))
        for ids, holes, particles in self._groups:
            eps[ids] = sum(fock.lambdas[particles]) - sum(fock.lambdas[holes])
        return eps

    def project(self, v: np.ndarray) -> np.ndarray:
        """Components <X_mu phi_0, v> per index; v is (dim,) or (dim, m)."""
        w = v[self.ref_pos]
        return w * (self.ref_sign if w.ndim == 1 else self.ref_sign[:, None])

    # -- the cluster kernel --------------------------------------------------

    def coefficients(self, t: np.ndarray, rows: Optional[int] = None) -> np.ndarray:
        """t[mu] * sign for the first `rows` table rows (default: all), for a finite t."""
        t = np.asarray(t, dtype=float)
        if t.shape != (len(self),):
            raise InputError(f"amplitude vector shape {t.shape}, space has {len(self)} indices")
        if not np.isfinite(t).all():
            raise InputError("amplitude vector has NaN or inf entries")
        rows = self.block(self._top) if rows is None else rows
        _, _, sign, mu = self.table
        return t[mu[:rows]] * sign[:rows]

    def _apply(self, coef: np.ndarray, v: np.ndarray) -> np.ndarray:
        src, dst = self.table[0][:len(coef)], self.table[1][:len(coef)]
        if v.ndim == 1:
            return np.bincount(dst, weights=coef * v[src], minlength=self.dim)
        out = np.empty_like(v)
        for j in range(v.shape[1]):
            out[:, j] = np.bincount(dst, weights=coef * v[src, j], minlength=self.dim)
        return out

    def apply(self, t: np.ndarray, v: np.ndarray) -> np.ndarray:
        """T @ v for T = sum_a t[a] X_{indices[a]}; v is (dim,) or (dim, m)."""
        return self._apply(self.coefficients(t), np.asarray(v, dtype=float))

    def exp_apply(self, t: np.ndarray, v: np.ndarray, sign: int = +1) -> np.ndarray:
        """e^{sign*T} @ v by the finite nilpotent series."""
        return self.exp_series(self.coefficients(t), v, sign)

    def exp_series(self, coef: np.ndarray, v: np.ndarray, sign: int) -> np.ndarray:
        """e^{sign*T} @ v through the first len(coef) table rows, whose coefficients coef holds."""
        acc = np.array(v, dtype=float)
        term = acc.copy()
        for m in range(1, self.basis.n_electrons + 1):
            term = (sign / m) * self._apply(coef, term)
            if not term.any():
                break
            acc += term
        return acc

    def excitation_columns(self, u: np.ndarray, cols: np.ndarray, rows: int) -> np.ndarray:
        """The dim x len(cols) matrix whose column c is X_{indices[cols[c]]} u, by `rows` rows."""
        src, dst, sign, mu = (col[:rows] for col in self.table)
        column = np.full(len(self), len(cols))   # the other indices write to a dropped column
        column[cols] = np.arange(len(cols))
        out = np.zeros((self.dim, len(cols) + 1))
        out[dst, column[mu]] = sign * u[src]   # X_mu maps distinct sources to distinct targets
        return out[:, :-1]


@lru_cache(maxsize=32)
def excitation_space(basis: OrbitalBasis, indices: tuple[ExcitationIndex, ...]) -> ExcitationSpace:
    """Shared ExcitationSpace of the indices, in the given order."""
    return ExcitationSpace(basis, indices)


def support_space(t: AmplitudeVector | Iterable[ExcitationIndex],
                  basis: OrbitalBasis) -> ExcitationSpace:
    """The shared ExcitationSpace of t's indices, in enumerate_excitations order."""
    indices = t.entries if isinstance(t, AmplitudeVector) else t
    return excitation_space(basis, tuple(sorted(indices, key=lambda mu: (mu.rank, mu))))
