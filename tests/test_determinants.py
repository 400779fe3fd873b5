import math
import re
from itertools import combinations

import numpy as np
import pytest

import oracle
from tccbench import (
    AmplitudeVector,
    BasisSplit,
    ExcitationSpace,
    OrbitalBasis,
    cluster_to_ci,
    enumerate_determinants,
    split_amplitudes,
)
from tccbench.determinants import (
    SPACE_CAS,
    SPACE_EXT,
    SPACE_FULL,
    excitation_space,
    index_label,
    index_orbitals,
    support_space,
)
from tccbench.errors import InputError, SizeLimitError


def _oracle_action(op, state):
    """(result mask, sign) of the dense oracle's X_mu, `op`, on a determinant's `state`."""
    out = op @ state
    nz = np.nonzero(out)[0]
    if len(nz) == 0:
        return None
    assert len(nz) == 1
    mask = int(nz[0])
    return mask, float(out[mask])


@pytest.mark.parametrize("k,n", [(4, 2), (6, 3), (8, 4)])
def test_excitation_signs_match_dense_oracle(k, n):
    basis = OrbitalBasis(k, n)
    dets = enumerate_determinants(basis)
    pos = {oracle.occ_mask(d): i for i, d in enumerate(dets)}
    # the excitation table must hold exactly the oracle's nonzero actions
    indices = basis.determinants.indices.tolist()
    space = excitation_space(basis, tuple(indices))
    assert space.indices.tolist() == indices
    space.block(n)   # the whole table: no determinant lies above level N
    src, dst, sign, mu_id = space.table
    rows = {(int(a), int(i)): (int(j), float(s))
            for i, j, s, a in zip(src, dst, sign, mu_id)}
    assert len(rows) == len(src)
    states = [oracle.determinant_state(det, k) for det in dets]
    for a, mu in enumerate(indices):
        op = oracle.excitation_operator(*index_orbitals(mu), k)   # one 2^K operator per index
        for i, state in enumerate(states):
            want = _oracle_action(op, state)
            row = rows.pop((a, i), None)
            if want is None:
                assert row is None
            else:
                assert row == (pos[want[0]], want[1])
    assert not rows


@pytest.mark.parametrize("k,n", [(6, 3), (8, 4)])
def test_table_is_level_ordered_so_blocks_are_prefixes(k, n):
    """The table holds the built rows stably sorted by the level of phi_dst:
    levels never fall, each destination keeps its rows in build order (so every
    bincount sums them as before), and block(r) is the prefix at level <= r."""
    basis = OrbitalBasis(k, n)
    space = ExcitationSpace(basis, basis.determinants.indices)
    built = space._rows(np.arange(space.dim), n)
    space.block(n)   # the whole table: no determinant lies above level N
    level = basis.determinants.levels[space.table[1]].astype(int)
    assert np.all(np.diff(level) >= 0)
    for d in range(space.dim):
        for col, built_col in zip(space.table, built):
            assert np.array_equal(col[space.table[1] == d], built_col[built[1] == d])
    for r in range(int(level.max()) + 1):
        rows = space.block(r)
        assert rows == np.count_nonzero(basis.determinants.levels[built[1]] <= r)
        assert (level[:rows] <= r).all() and (level[rows:] > r).all()


@pytest.mark.parametrize("system", ["hubbard2_site", "hubbard2_mo", "hubbard3_mo", "hubbard4_mo",
                                    "pairing4", "pairing4_g0", "pairing3_2e"])
def test_space_epsilon_is_epsilon_of_bit_for_bit(system, request):
    # every index of the basis, so every CAS and external index of any split
    system = request.getfixturevalue(system)
    space = ExcitationSpace(system.basis, system.basis.determinants.indices)
    want = np.array([oracle.epsilon(system.fock, mu) for mu in space.indices])
    assert space.epsilon(system.fock).tobytes() == want.tobytes()


@pytest.mark.parametrize("k,n", [(6, 3), (8, 4)])
def test_excitation_operators_commute(k, n):
    basis = OrbitalBasis(k, n)
    mus = basis.determinants.indices.tolist()
    for a in range(len(mus)):
        for b in range(a + 1, min(a + 6, len(mus))):
            m1 = oracle.excitation_operator(*index_orbitals(mus[a]), k)
            m2 = oracle.excitation_operator(*index_orbitals(mus[b]), k)
            assert np.max(np.abs(m1 @ m2 - m2 @ m1)) <= 1e-12


@pytest.mark.parametrize("k,n", [(4, 2), (6, 3)])
def test_excitations_are_nilpotent(k, n):
    basis = OrbitalBasis(k, n)
    for mu in basis.determinants.indices.tolist():
        m = oracle.excitation_operator(*index_orbitals(mu), k)
        assert np.max(np.abs(m @ m)) <= 1e-12
    # and on the package side: applying twice annihilates, so no table row acts on
    # what a row of the same index made
    space = ExcitationSpace(basis, basis.determinants.indices)
    space.block(n)   # the whole table: no determinant lies above level N
    src, dst, _, ids = (col.tolist() for col in space.table)
    assert not set(zip(ids, src)) & set(zip(ids, dst))


def test_reference_bijection_round_trip():
    basis = OrbitalBasis(6, 3)
    space = ExcitationSpace(basis, basis.determinants.indices)
    reference = (1, 2, 3)
    dets = enumerate_determinants(basis)
    seen = set()
    for det in dets:
        mu = oracle.occ_mask(det)   # the index that reaches det
        if det == reference:
            assert mu not in space.indices
            continue
        a = space.positions([mu])[0]
        assert space.ref_sign[a] in (-1, 1)
        assert mu not in seen
        seen.add(mu)
        assert dets[space.ref_pos[a]] == det
    # every excitation index is hit exactly once
    assert seen == set(space.indices)


def test_excitation_reads_orbitals_up_to_bit_63():
    """index_orbitals at the orbital bound: for every determinant of K = 64, the
    reference flipped at the holes and particles read off its mask is the mask, and
    X_mu phi_0 lands on the determinant's position."""
    basis = OrbitalBasis(64, 2)
    dets = basis.determinants
    space = ExcitationSpace(basis, dets.indices)
    for pos, mask in enumerate(dets.masks.tolist()):
        if pos == dets.reference:
            assert index_orbitals(mask) == ((), ())
            continue
        assert oracle.index_mask(2, *index_orbitals(mask)) == mask
        assert space.ref_pos[space.positions([mask])[0]] == pos
    assert max(dets.masks.tolist()) >> 63 == 1   # orbital 64 was reached


@pytest.mark.parametrize("k,n", [(4, 2), (6, 2), (6, 3), (8, 4)])
def test_counting_identity(k, n):
    basis = OrbitalBasis(k, n)
    n_dets = len(enumerate_determinants(basis))
    assert n_dets == math.comb(k, n)
    assert len(basis.determinants.indices) == n_dets - 1


def test_a_basis_enumerates_its_determinants_once(monkeypatch):
    # DeterminantSpace ran a second combinations() of its own, so enumerate_determinants
    # never ran inside a command
    from tccbench import determinants

    calls = []

    def counted(basis):
        calls.append(basis)
        return enumerate_determinants(basis)

    monkeypatch.setattr(determinants, "enumerate_determinants", counted)
    basis = OrbitalBasis(8, 4)
    space = basis.determinants
    ExcitationSpace(basis, basis.determinants.indices)
    support_space(space.indices[::5], basis)
    assert calls == [basis] and basis.determinants is space
    assert space.masks.tolist() == [oracle.occ_mask(d) for d in enumerate_determinants(basis)]


@pytest.mark.parametrize("k,n", [(4, 1), (6, 3), (8, 4), (10, 3), (12, 4), (7, 3)])
def test_spin_sectors_partition_the_determinants_in_order(k, n, rng):
    """The DeterminantSpace against the slow enumeration: masks in order, the position
    lookup, the reference, excitation levels, occupations, and one ascending block per
    up-spin count (odd orbitals 2p-1)."""
    basis = OrbitalBasis(k, n)
    dets = enumerate_determinants(basis)
    space = basis.determinants
    assert space.masks.tolist() == [oracle.occ_mask(d) for d in dets]
    perm = rng.permutation(len(dets))
    assert space.position(space.masks[perm]).tolist() == perm.tolist()
    reference = tuple(range(1, n + 1))
    assert dets[space.reference] == reference
    assert space.reference_state().tolist() == [float(d == reference) for d in dets]
    assert space.levels.tolist() == [sum(p > n for p in d) for d in dets]
    assert space.occupations.tolist() == [[p in d for p in range(1, k + 1)] for d in dets]
    up = [sum(p % 2 for p in d) for d in dets]
    sectors = space.sectors
    assert sorted(np.concatenate(sectors).tolist()) == list(range(len(dets)))
    for count, idx in zip(range(min(up), max(up) + 1), sectors, strict=True):
        assert idx.tolist() == [a for a, u in enumerate(up) if u == count]


def test_enumeration_is_lexicographic_and_deterministic():
    basis = OrbitalBasis(6, 2)
    dets = enumerate_determinants(basis)
    assert dets[0] == (1, 2)
    assert dets == sorted(dets)
    assert dets == enumerate_determinants(basis)


def test_cas_restricted_enumeration():
    basis = OrbitalBasis(6, 2)
    split = BasisSplit(basis, 4)
    inside = split.cas_determinants()
    assert inside.tolist() == [d[-1] <= 4 for d in enumerate_determinants(basis)]
    assert inside.sum() == math.comb(4, 2)


def test_classification_boundary():
    from tccbench.tcc import cas_space, external_space

    split = BasisSplit(OrbitalBasis(8, 4), 6)
    assert oracle.index_mask(4, (1,), (5,)) in cas_space(split).indices
    assert oracle.index_mask(4, (1,), (7,)) in external_space(split).indices
    # mixed: one particle inside, one outside -> external
    assert oracle.index_mask(4, (1, 2), (5, 7)) in external_space(split).indices


@pytest.mark.parametrize("k,n", [(k, n) for k in range(2, 17) for n in range(1, k)
                                 if math.comb(k, n) <= 20_000]
                         + [(64, 1), (64, 2), (63, 2), (33, 3), (64, 62), (64, 63)])
def test_indices_follow_the_rank_holes_particles_order(k, n):
    # the order of the combinations enumeration, read back through index_orbitals
    want = [(holes, particles) for r in range(1, min(n, k - n) + 1)
            for holes in combinations(range(1, n + 1), r)
            for particles in combinations(range(n + 1, k + 1), r)]
    indices = OrbitalBasis(k, n).determinants.indices
    assert not indices.flags.writeable
    assert [index_orbitals(mu) for mu in indices.tolist()] == want


@pytest.mark.parametrize("system", ["hubbard2_site", "hubbard4_mo", "pairing4", "pairing3_2e"])
def test_every_space_reaches_the_determinants_of_its_masks(system, request):
    from tccbench.tcc import cas_space, external_space

    system = request.getfixturevalue(system)
    dets = system.basis.determinants
    every = ExcitationSpace(system.basis, dets.indices)
    spaces = [every, external_space(system.split), cas_space(system.split),
              support_space(every.indices[::3], system.basis)]
    for space in spaces:
        assert space.ref_pos.tolist() == [dets.masks.tolist().index(mu)
                                          for mu in space.indices.tolist()]
    assert sorted(spaces[1].indices.tolist() + spaces[2].indices.tolist()) == sorted(
        every.indices.tolist())


@pytest.mark.parametrize("n, holes, particles, label", [
    (2, (1,), (3,), "1->3"),
    (2, (1, 2), (5, 6), "1,2->5,6"),
    (4, (1, 2), (5, 7), "1,2->5,7"),
    (3, (2,), (10,), "2->10"),
    (2, (1,), (64,), "1->64"),
    (62, (61, 62), (63, 64), "61,62->63,64"),
])
def test_index_label_writes_holes_then_particles(n, holes, particles, label):
    # the text documents and messages have always written
    assert index_label(oracle.index_mask(n, holes, particles)) == label


def test_basis_validation():
    with pytest.raises(ValueError):
        OrbitalBasis(4, 0)
    with pytest.raises(ValueError):
        OrbitalBasis(4, 4)
    with pytest.raises(ValueError):
        OrbitalBasis(70, 2)
    # the dense-dimension guard runs where the basis is made, before any enumeration
    OrbitalBasis(18, 6)                      # dim 18564
    with pytest.raises(SizeLimitError, match="dim 2704156 exceeds 20000"):
        OrbitalBasis(24, 12)
    with pytest.raises(ValueError):
        BasisSplit(OrbitalBasis(6, 3), 2)


def test_amplitude_vector_pruning_and_order():
    mu1 = oracle.index_mask(2, (1,), (5,))
    mu2 = oracle.index_mask(2, (1,), (3,))
    t = AmplitudeVector(SPACE_FULL, {mu1: 0.5, mu2: 0.0})
    assert len(t) == 1 and t.get(mu2) == 0.0
    t = AmplitudeVector(SPACE_FULL, {mu1: 0.5, mu2: -0.25})
    assert [m for m, _ in t.sorted_items()] == [mu2, mu1]
    # by (holes, particles), not by mask: 2->3 has the smaller mask, 1,2->3,4 the larger
    mu3, mu4 = oracle.index_mask(2, (2,), (3,)), oracle.index_mask(2, (1, 2), (3, 4))
    t = AmplitudeVector(SPACE_FULL, {mu3: 1.0, mu4: 2.0, mu2: 3.0, mu1: 4.0})
    assert [m for m, _ in t.sorted_items()] == [mu2, mu1, mu4, mu3]
    assert mu3 < mu2 < mu4 < mu1   # the masks' own order


def test_space_check(pairing4):
    # the tailored evaluations embed t in the external space and t^CAS in the
    # CAS space; each rejects an index from the other
    from tccbench import TruncationScheme, tcc_energy, tcc_residual

    mu_cas, mu_ext = oracle.index_mask(4, (1,), (5,)), oracle.index_mask(4, (1,), (7,))
    for t, t_cas in ((AmplitudeVector(SPACE_EXT, {mu_cas: 0.1}), AmplitudeVector(SPACE_CAS)),
                     (AmplitudeVector(SPACE_EXT), AmplitudeVector(SPACE_CAS, {mu_ext: 0.1}))):
        bad = index_label(next(iter(t.entries or t_cas.entries)))
        with pytest.raises(InputError, match=f"^index {bad} is not in the excitation space$"):
            tcc_energy(t, t_cas, pairing4.ints, pairing4.split)
        with pytest.raises(InputError, match=f"^index {bad} is not in the excitation space$"):
            tcc_residual(t, t_cas, pairing4.ints, pairing4.split, TruncationScheme("full"))


@pytest.mark.parametrize("holes, particles", [((1,), (9,)), ((1,), (70,)), ((66,), (5,))],
                         ids=["particle 9", "particle 70", "hole 66"])
def test_an_index_with_an_orbital_above_k_is_refused(holes, particles):
    # orbital 9 of K = 8 once raised an IndexError, and 70 wrapped to bit 5 in a uint64
    # shift, so cluster_to_ci gave 0.905 phi_0, not even intermediate-normalized
    mu = oracle.index_mask(4, holes, particles)
    with pytest.raises(InputError, match=f"^{mu} is not the mask of an excited determinant "
                                         f"of N=4 in K=8$"):
        cluster_to_ci(AmplitudeVector(SPACE_FULL, {mu: 0.1}), OrbitalBasis(8, 4))


def test_an_index_that_does_not_excite_the_reference_is_refused():
    # N = 2 occupies orbitals 1 and 2: orbital 3 holds no electron to move, so
    # 3 -> 4 reaches the four-electron mask 0b1111
    mu = oracle.index_mask(2, (3,), (4,))
    assert mu == 0b1111
    with pytest.raises(InputError, match="^15 is not the mask of an excited determinant "
                                         "of N=2 in K=4$"):
        excitation_space(OrbitalBasis(4, 2), (mu,))


_NOT_INDICES = {   # keys that reach no excited determinant of K = 8, N = 4
    "the reference": 0b1111,
    "five electrons": 0b11111,
    "bit 8": oracle.index_mask(4, (1,), (9,)),
    "bit 69": oracle.index_mask(4, (1,), (70,)),
    "negative": -0b11110,
    "float": 30.0,
    "str": "30",
}


@pytest.mark.parametrize("entry", ["excitation_space", "support_space", "embed",
                                   "split_amplitudes"])
@pytest.mark.parametrize("key", _NOT_INDICES.values(), ids=_NOT_INDICES)
def test_a_key_that_is_no_index_is_refused(key, entry):
    basis, valid = OrbitalBasis(8, 4), oracle.index_mask(4, (1,), (6,))
    call = {
        "excitation_space": lambda: excitation_space(basis, (valid, key)),
        "support_space": lambda: support_space([valid, key], basis),
        "embed": lambda: ExcitationSpace(basis, basis.determinants.indices).embed(
            AmplitudeVector(SPACE_FULL, {valid: 0.1, key: 0.2})),
        "split_amplitudes": lambda: split_amplitudes(   # a str or float key raised TypeError
            AmplitudeVector(SPACE_FULL, {valid: 0.1, key: 0.2}), BasisSplit(basis, 6)),
    }[entry]
    with pytest.raises(InputError, match=f"^{re.escape(repr(key))} is not the mask of an "
                                         f"excited determinant of N=4 in K=8$"):
        call()


@pytest.mark.parametrize("shape", [(6,), (5, 2)], ids=["one too many", "two columns"])
def test_an_amplitude_array_of_another_shape_is_refused(shape):
    space = ExcitationSpace(OrbitalBasis(4, 2), OrbitalBasis(4, 2).determinants.indices)
    assert len(space) == 5
    with pytest.raises(InputError,
                       match=re.escape(f"amplitude vector shape {shape}, space has 5 indices")):
        space.coefficients(np.zeros(shape))
