import math

import numpy as np
import pytest

import oracle
from tccbench import (
    AmplitudeVector,
    BasisSplit,
    Determinant,
    ExcitationIndex,
    OrbitalBasis,
    apply_excitation,
    classify_excitation,
    enumerate_determinants,
    enumerate_excitations,
    v_ext_norm,
)
from tccbench.determinants import (
    SPACE_CAS,
    SPACE_EXT,
    SPACE_FULL,
    excitation_space,
)
from tccbench.errors import DimensionLimitError, NonPositiveWeightError, SpaceMismatchError


def _oracle_action(mu, det, n_modes):
    """(result determinant, sign) of X_mu on det via the dense oracle."""
    op = oracle.excitation_operator(mu.holes, mu.particles, n_modes)
    out = op @ oracle.determinant_state(det.occ, n_modes)
    nz = np.nonzero(out)[0]
    if len(nz) == 0:
        return None
    assert len(nz) == 1
    mask = int(nz[0])
    return Determinant.from_mask(mask), float(out[mask])


@pytest.mark.parametrize("k,n", [(4, 2), (6, 3), (8, 4)])
def test_excitation_signs_match_dense_oracle(k, n):
    basis = OrbitalBasis(k, n)
    dets = enumerate_determinants(basis)
    pos = {d.occ: i for i, d in enumerate(dets)}
    # the excitation table must hold exactly the oracle's nonzero actions
    space = excitation_space(basis, tuple(enumerate_excitations(basis)))
    assert space.indices == tuple(enumerate_excitations(basis))
    space.block(n)   # the whole table: no determinant lies above level N
    src, dst, sign, mu_id = space.table
    rows = {(int(a), int(i)): (int(j), float(s))
            for i, j, s, a in zip(src, dst, sign, mu_id)}
    assert len(rows) == len(src)
    for a, mu in enumerate(enumerate_excitations(basis)):
        for i, det in enumerate(dets):
            got = apply_excitation(mu, det)
            want = _oracle_action(mu, det, k)
            row = rows.pop((a, i), None)
            if want is None:
                assert got is None
                assert row is None
            else:
                assert got is not None
                assert got[0] == want[0]
                assert abs(got[1] - want[1]) <= 1e-12
                assert row == (pos[want[0].occ], want[1])
    assert not rows


@pytest.mark.parametrize("k,n", [(6, 3), (8, 4)])
def test_table_is_level_ordered_so_blocks_are_prefixes(k, n):
    """The table holds the built rows stably sorted by the level of phi_dst:
    levels never fall, each destination keeps its rows in build order (so every
    bincount sums them as before), and block(r) is the prefix at level <= r."""
    basis = OrbitalBasis(k, n)
    space = excitation_space(basis, tuple(enumerate_excitations(basis)))
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
    space = excitation_space(system.basis, tuple(enumerate_excitations(system.basis)))
    want = np.array([system.fock.epsilon_of(mu) for mu in space.indices])
    assert space.epsilon(system.fock).tobytes() == want.tobytes()


@pytest.mark.parametrize("k,n", [(6, 3), (8, 4)])
def test_excitation_operators_commute(k, n):
    basis = OrbitalBasis(k, n)
    mus = enumerate_excitations(basis)
    for a in range(len(mus)):
        for b in range(a + 1, min(a + 6, len(mus))):
            m1 = oracle.excitation_operator(mus[a].holes, mus[a].particles, k)
            m2 = oracle.excitation_operator(mus[b].holes, mus[b].particles, k)
            assert np.max(np.abs(m1 @ m2 - m2 @ m1)) <= 1e-12


@pytest.mark.parametrize("k,n", [(4, 2), (6, 3)])
def test_excitations_are_nilpotent(k, n):
    basis = OrbitalBasis(k, n)
    for mu in enumerate_excitations(basis):
        m = oracle.excitation_operator(mu.holes, mu.particles, k)
        assert np.max(np.abs(m @ m)) <= 1e-12
        # and on the package side: applying twice annihilates
        for det in enumerate_determinants(basis):
            hit = apply_excitation(mu, det)
            if hit is not None:
                assert apply_excitation(mu, hit[0]) is None


def test_reference_bijection_round_trip():
    basis = OrbitalBasis(6, 3)
    reference = Determinant((1, 2, 3))
    seen = set()
    for det in enumerate_determinants(basis):
        mu = basis.determinants.excitation(det.mask)
        if det == reference:
            assert mu is None
            continue
        back, sign = apply_excitation(mu, reference)
        assert sign in (-1, 1)
        assert mu not in seen
        seen.add(mu)
        assert back == det
    # every excitation index is hit exactly once
    assert seen == set(enumerate_excitations(basis))


@pytest.mark.parametrize("k,n", [(4, 2), (6, 2), (6, 3), (8, 4)])
def test_counting_identity(k, n):
    basis = OrbitalBasis(k, n)
    n_dets = len(enumerate_determinants(basis))
    assert n_dets == math.comb(k, n)
    assert len(enumerate_excitations(basis)) == n_dets - 1


@pytest.mark.parametrize("k,n", [(4, 1), (6, 3), (8, 4), (10, 3), (12, 4), (7, 3)])
def test_spin_sectors_partition_the_determinants_in_order(k, n, rng):
    """The DeterminantSpace against the slow enumeration: masks in order, the position
    lookup, the reference, excitation levels, occupations, and one ascending block per
    up-spin count (odd orbitals 2p-1)."""
    basis = OrbitalBasis(k, n)
    dets = enumerate_determinants(basis)
    space = basis.determinants
    assert space.masks.tolist() == [d.mask for d in dets]
    perm = rng.permutation(len(dets))
    assert space.position(space.masks[perm]).tolist() == perm.tolist()
    reference = Determinant(tuple(range(1, n + 1)))
    assert dets[space.reference] == reference
    assert space.reference_state().tolist() == [float(d == reference) for d in dets]
    assert space.levels.tolist() == [sum(p > n for p in d.occ) for d in dets]
    assert space.occupations.tolist() == [[p in d.occ for p in range(1, k + 1)] for d in dets]
    up = [sum(p % 2 for p in d.occ) for d in dets]
    sectors = space.sectors
    assert sorted(np.concatenate(sectors).tolist()) == list(range(len(dets)))
    for count, idx in zip(range(min(up), max(up) + 1), sectors, strict=True):
        assert idx.tolist() == [a for a, u in enumerate(up) if u == count]


def test_enumeration_is_lexicographic_and_deterministic():
    basis = OrbitalBasis(6, 2)
    dets = enumerate_determinants(basis)
    assert dets[0] == Determinant((1, 2))
    assert dets == sorted(dets, key=lambda d: d.occ)
    assert dets == enumerate_determinants(basis)


def test_cas_restricted_enumeration():
    basis = OrbitalBasis(6, 2)
    split = BasisSplit(basis, 4)
    inside = split.cas_determinants()
    assert inside.tolist() == [d.occ[-1] <= 4 for d in enumerate_determinants(basis)]
    assert inside.sum() == math.comb(4, 2)


def test_classification_boundary():
    basis = OrbitalBasis(8, 4)
    split = BasisSplit(basis, 6)
    assert classify_excitation(ExcitationIndex((1,), (5,)), split) == "cas"
    assert classify_excitation(ExcitationIndex((1,), (7,)), split) == "ext"
    # mixed: one particle inside, one outside -> external
    assert classify_excitation(ExcitationIndex((1, 2), (5, 7)), split) == "ext"


def test_excitation_index_validation():
    with pytest.raises(ValueError):
        ExcitationIndex((2, 1), (5, 6))
    with pytest.raises(ValueError):
        ExcitationIndex((1,), (5, 6))
    with pytest.raises(ValueError):
        ExcitationIndex((1, 5), (5, 7))
    mu = ExcitationIndex((1, 2), (5, 7))
    assert str(mu) == "1,2->5,7"


def test_basis_validation():
    with pytest.raises(ValueError):
        OrbitalBasis(4, 0)
    with pytest.raises(ValueError):
        OrbitalBasis(4, 4)
    with pytest.raises(ValueError):
        OrbitalBasis(70, 2)
    # the dense-dimension guard runs where the basis is made, before any enumeration
    OrbitalBasis(18, 6)                      # dim 18564
    with pytest.raises(DimensionLimitError, match="dim 2704156 exceeds 20000"):
        OrbitalBasis(24, 12)
    with pytest.raises(ValueError):
        BasisSplit(OrbitalBasis(6, 3), 2)


def test_amplitude_vector_pruning_and_order():
    mu1 = ExcitationIndex((1,), (5,))
    mu2 = ExcitationIndex((1,), (3,))
    t = AmplitudeVector(SPACE_FULL, {mu1: 0.5, mu2: 0.0})
    assert len(t) == 1 and t.get(mu2) == 0.0
    t = AmplitudeVector(SPACE_FULL, {mu1: 0.5, mu2: -0.25})
    assert [m for m, _ in t.sorted_items()] == [mu2, mu1]


def test_space_check(pairing4):
    # the tailored evaluations embed t in the external space and t^CAS in the
    # CAS space; each rejects an index from the other
    from tccbench import TruncationScheme, tcc_energy, tcc_residual

    mu_cas, mu_ext = ExcitationIndex((1,), (5,)), ExcitationIndex((1,), (7,))
    for t, t_cas in ((AmplitudeVector(SPACE_EXT, {mu_cas: 0.1}), AmplitudeVector(SPACE_CAS)),
                     (AmplitudeVector(SPACE_EXT), AmplitudeVector(SPACE_CAS, {mu_ext: 0.1}))):
        with pytest.raises(SpaceMismatchError):
            tcc_energy(t, t_cas, pairing4.ints, pairing4.split)
        with pytest.raises(SpaceMismatchError):
            tcc_residual(t, t_cas, pairing4.ints, pairing4.split, TruncationScheme("full"))


def test_v_ext_norm_matches_weights(pairing4):
    fock = pairing4.fock
    mu1 = ExcitationIndex((1,), (7,))
    mu2 = ExcitationIndex((1, 2), (7, 8))
    t = AmplitudeVector(SPACE_EXT, {mu1: 0.3, mu2: -0.2})
    want = np.sqrt(fock.epsilon_of(mu1) * 0.09 + fock.epsilon_of(mu2) * 0.04)
    assert abs(v_ext_norm(t, fock) - want) <= 1e-14


def test_v_ext_norm_rejects_nonpositive_weight(pairing4):
    class Flat:
        def epsilon_of(self, mu):
            return 0.0

    t = AmplitudeVector(SPACE_EXT, {ExcitationIndex((1,), (7,)): 0.1})
    with pytest.raises(NonPositiveWeightError):
        v_ext_norm(t, Flat())
    with pytest.raises(SpaceMismatchError):
        v_ext_norm(AmplitudeVector(SPACE_FULL, {}), pairing4.fock)
