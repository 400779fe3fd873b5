import warnings

import numpy as np
import pytest

import oracle
from test_hamiltonian import _random_4fold
from tccbench import (
    AmplitudeVector,
    BasisSplit,
    OrbitalBasis,
    build_dense_hamiltonian,
    canonicalize_core,
    cas_fci_solve,
    ci_to_cluster,
    cluster_to_ci,
    fci_solve,
    hubbard_model,
    pairing_model,
)
from tccbench.determinants import (
    SPACE_FULL,
    enumerate_determinants,
    index_orbitals,
    support_space,
)
from tccbench.errors import InputError
from tccbench.exact import CiVector, DegenerateGroundStateWarning


def test_fci_matches_hubbard_dimer_analytic():
    ints = hubbard_model(2, 1.0, 4.0)
    basis = OrbitalBasis(4, 2)
    summary, states = fci_solve(ints, basis)
    assert abs(summary.ground_energy - (2.0 - np.sqrt(8.0))) <= 1e-12
    c = states[0].coefficients
    assert abs(np.linalg.norm(c) - 1.0) <= 1e-12
    # sign fix: the dominant coefficient is positive
    assert c[int(np.argmax(np.abs(c)))] > 0


def test_fci_trace_identity(pairing4):
    """Sum of eigenvalues equals the trace of H over the determinant space."""
    summary, _ = fci_solve(pairing4.ints, pairing4.basis, n_states=1)
    ham = build_dense_hamiltonian(pairing4.ints, pairing4.basis)
    assert abs(summary.eigenvalues.sum() - np.trace(ham)) <= 1e-9


@pytest.mark.parametrize("make", [
    lambda: canonicalize_core(hubbard_model(4, 1.0, 2.0))[0],
    lambda: pairing_model(4, 0.5, 1.0),   # a 4-fold degenerate excited level
    lambda: pairing_model(5, 0.5, 1.0, 3),
    lambda: _random_4fold(5, 4, 4),
], ids=["hubbard4", "pairing4", "pairing5-n3", "random-4fold"])
def test_fci_blocks_match_the_dense_spectrum(make):
    """The per-S_z-sector eigensolve against one eigvalsh of the whole H."""
    ints = make()
    basis = OrbitalBasis(ints.n_spin_orbitals, ints.n_electrons)
    ham = build_dense_hamiltonian(ints, basis)
    summary, states = fci_solve(ints, basis, n_states=len(ham))
    assert np.max(np.abs(summary.eigenvalues - np.linalg.eigvalsh(ham))) <= 1e-12
    assert len(states) == len(ham)
    for energy, state in zip(summary.eigenvalues, states):
        c = state.coefficients
        assert abs(np.linalg.norm(c) - 1.0) <= 1e-12
        assert np.max(np.abs(ham @ c - energy * c)) <= 1e-10


@pytest.mark.parametrize("model", [(3, 1.0, 2.0), (5, 1.0, 2.0, 5)],
                         ids=["hubbard3", "hubbard5-n5"])
def test_odd_electron_ground_state_lies_in_the_reference_sector(model):
    """A degenerate M_s = +-1/2 ground level gives its reference-sector member.

    A dense eigh of the whole H returned a mix with no reference weight, which
    ci_to_cluster rejected as a reference overlap too small to normalize.
    """
    ints, _ = canonicalize_core(hubbard_model(*model))
    basis = OrbitalBasis(ints.n_spin_orbitals, ints.n_electrons)
    summary, states = fci_solve(ints, basis)
    assert summary.gap < 1e-10
    sector = next(idx for idx in basis.determinants.sectors
                  if basis.determinants.reference in idx)
    c = states[0].coefficients
    assert np.all(np.delete(c, sector) == 0.0)
    assert abs(summary.ground_energy - summary.eigenvalues.min()) <= 1e-10
    t = ci_to_cluster(states[0])
    assert len(t) > 0
    again = fci_solve(canonicalize_core(hubbard_model(*model))[0], basis)[1][0]
    assert np.array_equal(again.coefficients, c)


def test_cas_fci_matches_explicit_projection(pairing4):
    """CAS-FCI equals diagonalizing P H P restricted by hand."""
    basis, split = pairing4.basis, pairing4.split
    ham = build_dense_hamiltonian(pairing4.ints, basis)
    dets = enumerate_determinants(basis)
    idx = [a for a, d in enumerate(dets) if d[-1] <= split.k]
    want = np.linalg.eigvalsh(ham[np.ix_(idx, idx)])[0]
    summary, states = cas_fci_solve(pairing4.ints, split)
    assert abs(summary.ground_energy - want) <= 1e-12
    # embedded state has exactly zero external coefficients
    outside = np.delete(states[0].coefficients, idx)
    assert np.all(outside == 0.0)


def test_cas_fci_at_k_equals_full_fci(hubbard2_mo):
    basis = hubbard2_mo.basis
    split = BasisSplit(basis, basis.n_orbitals)
    s_full, _ = fci_solve(hubbard2_mo.ints, basis)
    s_cas, _ = cas_fci_solve(hubbard2_mo.ints, split)
    assert abs(s_full.ground_energy - s_cas.ground_energy) <= 1e-13


@pytest.mark.parametrize("n_electrons", [3, 5])
def test_cas_fci_refuses_a_split_of_another_basis(n_electrons):
    # the CAS determinants of (8, 3) or (8, 5) indexed the (8, 4) H: -0.7320508075688774 and 0.0
    # came back for hubbard:4's CAS-FCI energy, -0.27945231576860674; the basis is now the
    # split's, and a second one is not taken
    ints, basis = hubbard_model(4, 1.0, 2.0), OrbitalBasis(8, 4)
    split = BasisSplit(OrbitalBasis(8, n_electrons), 6)
    with pytest.raises(TypeError, match="takes 2 positional arguments but 3 were given"):
        cas_fci_solve(ints, basis, split)
    assert not ints._dense_cache   # refused before the build
    energy = cas_fci_solve(ints, BasisSplit(basis, 6))[0].ground_energy
    assert abs(energy - -0.27945231576860674) <= 1e-12


def test_a_ci_vector_of_another_length_is_refused():
    with pytest.raises(InputError, match=r"^expected 6 coefficients, got \(5,\)$"):
        CiVector(OrbitalBasis(4, 2), np.zeros(5))


def test_odd_electron_cas_ground_state_lies_in_the_reference_sector():
    """hubbard:4,1.0,2.0,3 --mo at k = 6: the one-block CAS eigh gave the doublet's
    M_s = -1/2 member, reference overlap 1.291e-16, which ci_to_cluster refused."""
    ints, _ = canonicalize_core(hubbard_model(4, 1.0, 2.0, 3))
    basis = OrbitalBasis(8, 3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        summary, states = cas_fci_solve(ints, BasisSplit(basis, 6), n_states=2)
    assert [w.category for w in caught] == [DegenerateGroundStateWarning]   # one, not one per solve
    assert summary.gap < 1e-10
    sector = next(idx for idx in basis.determinants.sectors
                  if basis.determinants.reference in idx)
    c = states[0].coefficients
    assert np.all(np.delete(c, sector) == 0.0)
    assert len(ci_to_cluster(states[0])) > 0
    assert np.all(states[1].coefficients[sector] == 0.0)   # the M_s = -1/2 member follows


def test_variational_ordering(pairing4):
    """Smaller CAS can only raise the ground energy."""
    basis = pairing4.basis
    energies = []
    for k in (4, 6, 8):
        s, _ = cas_fci_solve(pairing4.ints, BasisSplit(basis, k))
        energies.append(s.ground_energy)
    assert energies[0] >= energies[1] >= energies[2]


def test_apply_cluster_matches_oracle(rng):
    # (K, N, CAS boundary): random full-space picks, then every CAS index
    # (ranks 1 and 2) at k = 6; each on one vector and on a (dim, 3) block
    for k, n, cas_k in ((6, 3, None), (8, 4, None), (8, 4, 6)):
        basis = OrbitalBasis(k, n)
        dets = enumerate_determinants(basis)
        mus = basis.determinants.indices.tolist()
        if cas_k is None:
            pick = [mus[i] for i in rng.choice(len(mus), size=5, replace=False)]
        else:
            pick = [mu for mu in mus if mu >> cas_k == 0]
            assert {len(index_orbitals(mu)[0]) for mu in pick} == {1, 2}
        t = AmplitudeVector(SPACE_FULL, {mu: float(rng.standard_normal())
                                         for mu in pick})
        block = rng.standard_normal((len(dets), 3))
        space = support_space(t, basis)
        got_block = space.apply(space.embed(t), block)

        op = np.zeros((1 << k, 1 << k))
        for mu, amp in t.entries.items():
            op += amp * oracle.excitation_operator(*index_orbitals(mu), k)
        for j in range(block.shape[1]):
            v = block[:, j]
            got = space.apply(space.embed(t), v)
            full = op @ oracle.state_from_ci(v, dets, k)
            want = np.array([full @ oracle.determinant_state(d, k) for d in dets])
            assert np.max(np.abs(got - want)) <= 1e-12
            assert np.max(np.abs(got_block[:, j] - want)) <= 1e-12


@pytest.mark.parametrize("k,n", [(8, 4), (12, 3), (64, 2)])
def test_a_support_space_is_the_subsequence_of_its_keys(k, n, rng):
    """Built from shuffled keys or from an AmplitudeVector, a support space holds the
    indices of DeterminantSpace.indices that are its keys, in that order."""
    basis = OrbitalBasis(k, n)
    every = basis.determinants.indices.tolist()
    keys = [mu for mu in every if rng.random() < 0.3]
    shuffled = [keys[a] for a in rng.permutation(len(keys))]
    want = [mu for mu in every if mu in set(keys)]
    for t in (shuffled, AmplitudeVector(SPACE_FULL, {mu: 0.1 for mu in shuffled})):
        space = support_space(t, basis)
        assert space.indices.tolist() == want
        assert space.indices.dtype == np.uint64 and not space.indices.flags.writeable


def test_support_spaces_follow_the_enumeration_order():
    # support_space once sorted by (holes, particles), which interleaves the ranks
    basis = OrbitalBasis(8, 4)
    mus = tuple(basis.determinants.indices.tolist())
    t = AmplitudeVector(SPACE_FULL, {mu: 0.1 for mu in reversed(mus[::7])})
    assert support_space(t, basis).indices.tolist() == list(mus[::7])
    assert support_space(reversed(mus[::7]), basis).indices.tolist() == list(mus[::7])
    back = ci_to_cluster(cluster_to_ci(t, basis))
    assert list(back.entries) == [mu for mu in mus if mu in back.entries]


def test_exp_cluster_inverse(rng):
    basis = OrbitalBasis(6, 3)
    dets = enumerate_determinants(basis)
    mus = basis.determinants.indices.tolist()
    t = AmplitudeVector(SPACE_FULL, {mus[i]: float(rng.standard_normal()) * 0.3
                                     for i in range(0, len(mus), 3)})
    v = rng.standard_normal(len(dets))
    space = support_space(t, basis)
    w = space.exp_apply(space.embed(t), v, +1)
    back = space.exp_apply(space.embed(t), w, -1)
    assert np.max(np.abs(back - v)) <= 1e-12


def test_single_excitation_cluster_map():
    """e^T phi_0 for one single amplitude is phi_0 + t X_mu phi_0."""
    basis = OrbitalBasis(4, 2)
    mu = oracle.index_mask(2, (2,), (3,))
    t = AmplitudeVector(SPACE_FULL, {mu: 0.7})
    psi = cluster_to_ci(t, basis)
    dets = enumerate_determinants(basis)
    pos = {d: a for a, d in enumerate(dets)}
    want = np.zeros(len(dets))
    want[pos[(1, 2)]] = 1.0
    want[pos[(1, 3)]] = 0.7  # X_{2->3} {1,2} = +{1,3}
    assert np.max(np.abs(psi.coefficients - want)) <= 1e-15
    # two commuting singles generate a connected double product term
    nu = oracle.index_mask(2, (1,), (4,))
    t2 = AmplitudeVector(SPACE_FULL, {mu: 0.7, nu: 0.5})
    psi2 = cluster_to_ci(t2, basis)
    # X_{1->4} {1,2} = -{2,4}; product term X_nu X_mu {1,2} = -{3,4} * ... sign
    assert abs(psi2.coefficients[pos[(2, 4)]] - (-0.5)) <= 1e-15
    assert abs(psi2.coefficients[pos[(3, 4)]] - (-0.35)) <= 1e-15


@pytest.mark.parametrize("fixture", ["hubbard2_mo", "hubbard3_mo", "pairing4"])
def test_exp_log_round_trip(fixture, request, rng):
    system = request.getfixturevalue(fixture)
    basis = system.basis
    dim = len(enumerate_determinants(basis))
    refpos = basis.determinants.reference
    for _ in range(50):
        c = 0.5 * rng.standard_normal(dim)
        c[refpos] = 1.0
        psi = CiVector(basis, c / np.linalg.norm(c)).intermediate_normalized()
        t = ci_to_cluster(psi)
        back = cluster_to_ci(t, basis)
        assert np.max(np.abs(back.coefficients - psi.coefficients)) <= 1e-12


def test_log_of_exp_recovers_amplitudes(rng):
    basis = OrbitalBasis(6, 3)
    mus = basis.determinants.indices.tolist()
    t = AmplitudeVector(SPACE_FULL, {mu: float(rng.standard_normal()) * 0.2
                                     for mu in mus})
    t_back = ci_to_cluster(cluster_to_ci(t, basis))
    for mu in mus:
        assert abs(t_back.get(mu) - t.get(mu)) <= 1e-12


def test_intermediate_normalization_guard(pairing4):
    dim = len(enumerate_determinants(pairing4.basis))
    c = np.zeros(dim)
    c[-1] = 1.0
    with pytest.raises(InputError, match=r"^reference overlap 0\.000e\+00 too small for "
                                         "intermediate normalization$"):
        CiVector(pairing4.basis, c).intermediate_normalized()


def test_similarity_transform_reproduces_eigenvalue(pairing4):
    """e^{-T} H e^{T} phi_0 = E phi_0 when T comes from the FCI ground state."""
    summary, states = fci_solve(pairing4.ints, pairing4.basis)
    t = ci_to_cluster(states[0])
    basis = pairing4.basis
    dim = len(enumerate_determinants(basis))
    ref = np.zeros(dim)
    ref[basis.determinants.reference] = 1.0
    ham = build_dense_hamiltonian(pairing4.ints, basis)
    space = support_space(t, basis)
    t_vec = space.embed(t)
    out = space.exp_apply(t_vec, ham @ space.exp_apply(t_vec, ref, +1), -1)
    assert np.max(np.abs(out - summary.ground_energy * ref)) <= 1e-9
