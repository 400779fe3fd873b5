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

An excitation index is the int mask of the determinant X_mu phi_0 reaches: its
holes are the orbitals 1..N the mask lacks, its particles those above N it holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Iterable, Optional

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


def enumerate_determinants(basis: OrbitalBasis) -> list[tuple[int, ...]]:
    """The 1-based occupations of all N-electron determinants, in lexicographic order."""
    return list(combinations(range(1, basis.n_orbitals + 1), basis.n_electrons))


def index_orbitals(mu: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The 1-based (holes, particles) of the index whose determinant mask is mu."""
    mu = int(mu)
    ref = (1 << mu.bit_count()) - 1
    return tuple(tuple(p + 1 for p in range(m.bit_length()) if m >> p & 1)
                 for m in (ref & ~mu, mu & ~ref))


def index_label(mu: int) -> str:
    """The index as documents and messages write it, e.g. '1,2->5,6'; another key as its repr."""
    if not isinstance(mu, (int, np.integer)) or mu < 0:
        return repr(mu)
    return "->".join(",".join(map(str, orbitals)) for orbitals in index_orbitals(mu))


def _lowest_orbitals(masks: np.ndarray, n: int) -> np.ndarray:
    """(n, len(masks)) uint64: row q, each mask's (q+1)-th lowest set bit (0-based), 64 if none."""
    out = np.empty((n, len(masks)), dtype=np.uint64)
    for q in range(n):
        low = masks & (~masks + np.uint64(1))
        out[q] = np.bitwise_count(low - np.uint64(1))
        masks = masks ^ low
    return out


SPACE_FULL = "full"
SPACE_CAS = "cas"
SPACE_EXT = "ext"
SPACE_TRUNCATED = "truncated"


@dataclass
class AmplitudeVector:
    """Sparse map from excitation indices (determinant masks) to real coefficients.

    `space` tags the index set the vector lives on; `scheme` names the
    truncation when space == 'truncated'. `sorted_items()` orders the indices
    by their 1-based (holes, particles), so sums, seeded draws and cache keys over it are
    reproducible. Explicit zeros are dropped on construction; NaN and inf are rejected.
    """

    space: str
    entries: dict[int, float] = field(default_factory=dict)
    scheme: Optional[str] = None

    def __post_init__(self):
        if self.space not in (SPACE_FULL, SPACE_CAS, SPACE_EXT, SPACE_TRUNCATED):
            raise InputError(f"unknown space tag {self.space!r}")
        for mu, v in self.entries.items():
            if not math.isfinite(v):
                raise InputError(f"amplitude of {index_label(mu)} is {v}")
        self.entries = {m: v for m, v in self.entries.items() if v != 0.0}

    def sorted_items(self) -> list[tuple[int, float]]:
        return sorted(self.entries.items(), key=lambda kv: index_orbitals(kv[0]))

    def get(self, mu: int) -> float:
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

    reference = 0   # enumerate_determinants starts with orbitals 1..N

    def __init__(self, basis: OrbitalBasis):
        self.basis = basis
        occ = np.array(enumerate_determinants(basis), dtype=np.uint64) - np.uint64(1)
        self.masks = _frozen(np.bitwise_or.reduce(np.left_shift(np.uint64(1), occ), axis=1))
        # the masks are distinct, so any sort gives this order; the merge sort
        # touches far less of numpy's code than the default SIMD quicksort
        self._order = _frozen(np.argsort(self.masks, kind="stable"))
        self._sorted = _frozen(self.masks[self._order])
        self.levels = _frozen(np.bitwise_count(self.masks >> np.uint64(basis.n_electrons)))

    def position(self, masks: np.ndarray) -> np.ndarray:
        """Positions of N-electron determinant masks in the enumeration order; others get any."""
        return self._order[np.minimum(np.searchsorted(self._sorted, masks), len(self._sorted) - 1)]

    def index_positions(self, indices: list) -> np.ndarray:
        """Positions of the determinants the indices reach; InputError names the first key that
        is no excited determinant's mask (not an int, negative, phi_0's, a bit >= K, not N bits)."""
        masks = np.array([mu if isinstance(mu, (int, np.integer)) and 0 <= mu < 1 << 64 else 0
                          for mu in indices], dtype=np.uint64)   # mask 0 holds no determinant
        pos = self.position(masks)
        bad = np.flatnonzero((self.masks[pos] != masks) | (pos == self.reference))
        if len(bad):
            raise InputError(f"{indices[bad[0]]!r} is not the mask of an excited determinant "
                             f"of N={self.basis.n_electrons} in K={self.basis.n_orbitals}")
        return pos

    @cached_property
    def indices(self) -> np.ndarray:
        """Every excitation index, by (rank, holes, particles): all masks but phi_0's, which
        sorts first. Every index set of the package is a selection of this order."""
        n, masks = self.basis.n_electrons, self.masks
        ref = np.uint64((1 << n) - 1)
        holes, particles = _lowest_orbitals(ref & ~masks, n), _lowest_orbitals(masks & ~ref, n)
        order = np.lexsort([*particles[::-1], *holes[::-1], self.levels])
        return _frozen(masks[order[1:]])

    def reference_state(self) -> np.ndarray:
        """phi_0 as a coefficient vector."""
        v = np.zeros(len(self.masks))
        v[self.reference] = 1.0
        return v

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
    """An ordered set of excitation indices (`indices`, a read-only uint64 array of masks)
    acting on the N-electron determinants of the basis's shared DeterminantSpace (`dets`).

    Holds the position of X_mu phi_0 and its sign for every index, and -- built by `block`
    only as deep as it is read -- the excitation `table` (src, dst, sign, mu):
    X_{indices[mu]} phi_src = sign * phi_dst, one row per nonzero action, stably sorted by
    the excitation level of phi_dst (built by rank, then index and source). Amplitude
    vectors on the space are ndarrays in index order; T @ v is one bincount over the table.
    """

    def __init__(self, basis: OrbitalBasis, indices: Iterable[int]):
        self.basis = basis
        self.dets = dets = basis.determinants
        self.ref_pos = dets.index_positions(list(indices))
        masks, ref = dets.masks[self.ref_pos], dets.masks[dets.reference]
        self.indices = _frozen(masks)
        self.ranks = dets.levels[self.ref_pos].astype(np.intp)
        self._holes, self._particles = ref & ~masks, masks & ~ref   # per index, as masks
        self._groups = []   # per rank: ids, and their (r, n) 0-based holes and particles
        self.ref_sign = np.empty(len(self))   # X_mu phi_0 = ref_sign * phi_{ref_pos}
        for r in sorted(set(self.ranks.tolist())):
            ids = np.flatnonzero(self.ranks == r)
            group = (ids, *(_lowest_orbitals(m[ids], r) for m in (self._holes, self._particles)))
            self._groups.append(group)
            self.ref_sign[ids] = _excite(np.full(len(ids), ref), *group[1:])[1]
        self._slot = np.full(len(dets.masks), -1)   # per determinant, its index's position
        self._slot[self.ref_pos] = np.arange(len(self))
        self.reference = dets.reference
        self.dim = len(dets.masks)
        self._top = int(dets.levels.max())   # the deepest level a row can reach
        self.table, self._ends = (), ()   # _ends: per level, the table rows up to it

    def __len__(self) -> int:
        return len(self.indices)

    def _rows(self, sources: np.ndarray, level: int) -> tuple[np.ndarray, ...]:
        """(src, dst, sign, mu) of each nonzero X_mu phi_src, src in `sources`, up to `level`."""
        cols = [[np.empty(0, dtype) for dtype in (np.int32, np.int32, np.int8, np.int32)]]
        for ids, holes, particles in self._groups:
            src = sources[self.dets.levels[sources] <= level - len(holes)]
            masks = self.dets.masks[src]
            step = max(1, _TABLE_BLOCK // max(1, len(src)))
            hole_masks, part_masks = self._holes[ids], self._particles[ids]
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

    def positions(self, indices: Iterable[int]) -> np.ndarray:
        """The positions of the indices in the space, in their order."""
        indices = list(indices)
        slots = self._slot[self.dets.index_positions(indices)]
        if (slots < 0).any():
            missing = indices[int(np.argmax(slots < 0))]
            raise InputError(f"index {index_label(missing)} is not in the excitation space")
        return slots

    def embed(self, t: AmplitudeVector) -> np.ndarray:
        """The entries of t as an ndarray in index order."""
        vec = np.zeros(len(self))
        vec[self.positions(t.entries)] = list(t.entries.values())
        return vec

    def amplitudes(self, vec: np.ndarray, space: str, scheme: Optional[str] = None,
                   cols: Optional[np.ndarray] = None) -> AmplitudeVector:
        """vec on the indices at positions `cols` (default: all of them) as amplitudes."""
        indices = (self.indices if cols is None else self.indices[cols]).tolist()
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
def excitation_space(basis: OrbitalBasis, indices: tuple[int, ...]) -> ExcitationSpace:
    """Shared ExcitationSpace of the indices, in the given order."""
    return ExcitationSpace(basis, indices)


def support_space(t: AmplitudeVector | Iterable[int], basis: OrbitalBasis) -> ExcitationSpace:
    """The shared ExcitationSpace of t's indices, in DeterminantSpace.indices order."""
    dets = basis.determinants
    keys = t.entries if isinstance(t, AmplitudeVector) else t
    masks = dets.masks[dets.index_positions(list(keys))]
    return excitation_space(basis, tuple(dets.indices[np.isin(dets.indices, masks)].tolist()))
