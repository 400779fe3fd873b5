import numpy as np
import pytest

import oracle
from tccbench import (
    CiVector,
    OrbitalBasis,
    fci_solve,
    hubbard_model,
    mutual_information,
    one_orbital_rdm,
    permute_spatial_orbitals,
    select_cas,
    two_orbital_rdm,
)
from tccbench.determinants import enumerate_determinants
from tccbench.hamiltonian import canonicalize_core
from tccbench.entropy import (
    MODE_JUMP,
    MODE_THRESHOLD,
    OrbitalEntropyProfile,
    WeakProfileWarning,
)
from tccbench.errors import (
    IndexOutOfRangeError,
    NotNormalizedError,
    SameOrbitalError,
)

LN2 = np.log(2.0)


def _random_state(basis, rng):
    c = rng.standard_normal(len(enumerate_determinants(basis)))
    return CiVector(basis, c / np.linalg.norm(c))


@pytest.mark.parametrize("k,n", [(4, 2), (6, 3), (6, 2), (8, 4)])
def test_rdms_match_dense_partial_trace(k, n, rng):
    basis = OrbitalBasis(k, n)
    dets = enumerate_determinants(basis)
    for _ in range(5):
        psi = _random_state(basis, rng)
        full = oracle.state_from_ci(psi.coefficients, dets, k)
        for i in range(1, k + 1):
            want1 = oracle.one_mode_rdm(full, i, k)
            assert np.max(np.abs(one_orbital_rdm(psi, i) - want1)) <= 1e-12
            for j in range(1, k + 1):
                if i == j:
                    continue
                want2 = oracle.two_mode_rdm(full, i, j, k)
                got2 = two_orbital_rdm(psi, i, j)
                assert np.max(np.abs(got2 - want2)) <= 1e-12


def test_rdm_properties(pairing4, rng):
    psi = _random_state(pairing4.basis, rng)
    for i, j in [(1, 2), (3, 7), (5, 6)]:
        rho = two_orbital_rdm(psi, i, j)
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert np.min(np.linalg.eigvalsh(rho)) >= -1e-12
        assert np.max(np.abs(rho - rho.T)) == 0.0


def test_rdm_input_guards(pairing4):
    dim = len(enumerate_determinants(pairing4.basis))
    bad = CiVector(pairing4.basis, np.full(dim, 0.5))
    with pytest.raises(NotNormalizedError):
        one_orbital_rdm(bad, 1)
    good = CiVector(pairing4.basis, np.eye(dim)[0])
    with pytest.raises(SameOrbitalError):
        two_orbital_rdm(good, 3, 3)


def _oracle_entropy(rho):
    evals = np.linalg.eigvalsh(rho)
    evals = evals[evals > 1e-300]
    return float(-(evals * np.log(evals)).sum())


def _hubbard_ground_state():
    ints, _ = canonicalize_core(hubbard_model(4, 1.0, 2.0))
    _, states = fci_solve(ints, OrbitalBasis(8, 4))
    return states[0]


@pytest.mark.parametrize("k,n", [(4, 2), (6, 3), (8, 4), (8, 3)])
def test_entropies_match_dense_partial_trace(k, n, rng):
    basis = OrbitalBasis(k, n)
    dets = enumerate_determinants(basis)
    states = [_random_state(basis, rng) for _ in range(3)]
    if (k, n) == (8, 4):
        states.append(_hubbard_ground_state())
    for psi in states:
        full = oracle.state_from_ci(psi.coefficients, dets, k)
        profile = mutual_information(psi)
        for i in range(1, k + 1):
            want = _oracle_entropy(oracle.one_mode_rdm(full, i, k))
            assert abs(profile.s1[i - 1] - want) <= 1e-12
            for j in range(i + 1, k + 1):
                want = _oracle_entropy(oracle.two_mode_rdm(full, i, j, k))
                assert abs(profile.s2[i - 1, j - 1] - want) <= 1e-12
                assert profile.s2[j - 1, i - 1] == profile.s2[i - 1, j - 1]


def test_rdm_orbitals_outside_the_basis_are_rejected(pairing4):
    dim = len(enumerate_determinants(pairing4.basis))
    good = CiVector(pairing4.basis, np.eye(dim)[0])
    for i in (0, 9, -1):
        with pytest.raises(IndexOutOfRangeError):
            one_orbital_rdm(good, i)
        with pytest.raises(IndexOutOfRangeError):
            two_orbital_rdm(good, i, 2)
        with pytest.raises(IndexOutOfRangeError):
            two_orbital_rdm(good, 2, i)


def test_non_finite_ci_vectors_are_rejected(pairing4):
    dim = len(enumerate_determinants(pairing4.basis))
    for bad in (np.nan, np.inf):
        c = np.eye(dim)[0]
        c[3] = bad
        with pytest.raises(NotNormalizedError):
            mutual_information(CiVector(pairing4.basis, c))
        with pytest.raises(NotNormalizedError):
            one_orbital_rdm(CiVector(pairing4.basis, c), 1)


def test_single_determinant_profile_is_zero():
    basis = OrbitalBasis(6, 3)
    dim = len(enumerate_determinants(basis))
    psi = CiVector(basis, np.eye(dim)[4])
    profile = mutual_information(psi)
    assert np.max(np.abs(profile.s1)) <= 1e-12
    assert np.max(np.abs(profile.mi)) <= 1e-12


def test_bell_pair_entropies():
    """(|10> + |01>)/sqrt(2): s(1) = s(2) = ln 2, I(1,2) = 2 ln 2."""
    basis = OrbitalBasis(2, 1)
    psi = CiVector(basis, np.array([1.0, 1.0]) / np.sqrt(2.0))
    profile = mutual_information(psi)
    assert abs(profile.s1[0] - LN2) <= 1e-12
    assert abs(profile.s1[1] - LN2) <= 1e-12
    assert abs(profile.s2[0, 1]) <= 1e-12
    assert abs(profile.mi[0, 1] - 2.0 * LN2) <= 1e-12


def test_entropy_bounds(pairing4, rng):
    psi = _random_state(pairing4.basis, rng)
    profile = mutual_information(psi)
    assert np.all(profile.s1 >= -1e-12) and np.all(profile.s1 <= LN2 + 1e-12)
    assert np.all(profile.s2 <= 2.0 * LN2 + 1e-12)
    assert np.all(profile.mi >= -1e-10)
    assert np.all(profile.mi <= 2.0 * LN2 + 1e-12)


def test_relabeling_equivariance(rng):
    """Permuting spatial orbitals permutes the entropy profile accordingly."""
    ints = hubbard_model(3, 1.0, 2.0, 2)
    basis = OrbitalBasis(6, 2)
    _, states = fci_solve(ints, basis)
    profile = mutual_information(states[0])

    perm = (2, 3, 1)
    permuted = permute_spatial_orbitals(ints, perm)
    _, pstates = fci_solve(permuted, basis)
    pprofile = mutual_information(pstates[0])

    spin_perm = [s for p in perm for s in (2 * p - 1, 2 * p)]  # new -> old
    idx = np.array(spin_perm) - 1
    assert np.max(np.abs(pprofile.s1 - profile.s1[idx])) <= 1e-10
    assert np.max(np.abs(pprofile.mi - profile.mi[np.ix_(idx, idx)])) <= 1e-10


def test_permutation_validation():
    ints = hubbard_model(3, 1.0, 2.0)
    with pytest.raises(ValueError):
        permute_spatial_orbitals(ints, (1, 1, 2))


# ---------------------------------------------------------------------------
# CAS selection
# ---------------------------------------------------------------------------

def _profile(s1, mi):
    s1 = np.asarray(s1, dtype=float)
    mi = np.asarray(mi, dtype=float)
    return OrbitalEntropyProfile(s1, np.zeros_like(mi), mi)


def test_threshold_selection_and_spin_closure():
    # only orbital 5 is hot; its spin partner 6 must come along
    s1 = [0.0, 0.0, 0.0, 0.0, 0.9, 0.0]
    profile = _profile(s1, np.zeros((6, 6)))
    sel = select_cas(profile, n_electrons=2, s_threshold=0.5)
    assert sel.orbitals == (1, 2, 5, 6)
    assert sel.k == 4
    assert sel.spatial_permutation == (1, 3, 2)
    assert sel.spin_permutation == (1, 2, 5, 6, 3, 4)


def test_threshold_mi_pairs_are_included():
    mi = np.zeros((6, 6))
    mi[2, 5] = mi[5, 2] = 0.4
    profile = _profile(np.zeros(6), mi)
    sel = select_cas(profile, n_electrons=2, mi_threshold=0.1)
    # orbitals 3 and 6 plus their spin partners 4 and 5, plus the reference
    assert sel.orbitals == (1, 2, 3, 4, 5, 6)


def test_weak_profile_falls_back_to_reference():
    profile = _profile(np.zeros(6), np.zeros((6, 6)))
    with pytest.warns(WeakProfileWarning):
        sel = select_cas(profile, n_electrons=2, s_threshold=0.5)
    assert sel.orbitals == (1, 2)
    assert sel.k == 2


def test_jump_selection_cuts_at_largest_ratio():
    mi = np.full((8, 8), 0.004)  # weak background correlation
    np.fill_diagonal(mi, 0.0)

    def put(i, j, v):
        mi[i - 1, j - 1] = mi[j - 1, i - 1] = v

    put(1, 3, 1.0)
    put(2, 4, 0.8)
    put(5, 7, 0.01)   # largest ratio gap: 0.8 / 0.01 = 80
    put(6, 8, 0.005)
    sel = select_cas(_profile(np.zeros(8), mi), n_electrons=2, mode=MODE_JUMP)
    assert sel.orbitals == (1, 2, 3, 4)
    assert sel.jump_ratio == pytest.approx(80.0)
    assert sel.jump_ties == 0


def test_jump_selection_on_hubbard_dimer():
    """Strong-U dimer in the site basis: same-site pairs dominate I."""
    ints = hubbard_model(2, 1.0, 8.0)
    basis = OrbitalBasis(4, 2)
    _, states = fci_solve(ints, basis)
    profile = mutual_information(states[0])
    sel = select_cas(profile, n_electrons=2, mode=MODE_JUMP)
    assert sel.orbitals == (1, 2, 3, 4)
    assert sel.jump_ratio is not None and sel.jump_ratio > 1.0


def test_selection_validation():
    profile = _profile(np.zeros(4), np.zeros((4, 4)))
    with pytest.raises(ValueError):
        select_cas(profile, 2, s_threshold=-0.1)
    with pytest.raises(ValueError):
        select_cas(profile, 2, mi_threshold=np.nan)
    with pytest.raises(ValueError):
        select_cas(profile, 2, mode="GUESS")


def test_selection_rejects_an_odd_number_of_spin_orbitals():
    # closing orbital 5 under spin partners would add orbital 6, outside K = 5
    profile = _profile([0.0, 0.0, 0.0, 0.0, 0.9], np.zeros((5, 5)))
    with pytest.raises(ValueError, match="K = 5"):
        select_cas(profile, n_electrons=2, s_threshold=0.1)
