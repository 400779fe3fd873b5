import io
import tracemalloc

import numpy as np
import pytest

import oracle
from tccbench import (
    IntegralSet,
    OrbitalBasis,
    apply_excitation,
    build_dense_hamiltonian,
    canonicalize_core,
    fock_matrix,
    hubbard_model,
    pairing_model,
    parse_fcidump,
    rotate_orbitals,
    write_fcidump,
)
from tccbench.determinants import enumerate_determinants
from tccbench.errors import (
    DimensionLimitError,
    DimensionMismatchError,
    DuplicateCanonicalEntryError,
    IndexOutOfRangeError,
    MalformedHeaderError,
    NonFiniteIntegralError,
    SizeLimitError,
)
from tccbench.hamiltonian import (
    NonCanonicalOrbitalsWarning,
    _spin_integrals,
    fock_diagonal_vector,
)


def _oracle_elements(system, n_samples, rng):
    """Compare random <d1|H|d2> against the dense second-quantized oracle."""
    k = system.basis.n_orbitals
    dets = enumerate_determinants(system.basis)
    ham = oracle.dense_hamiltonian_fock(system.ints, k)
    states = [oracle.determinant_state(d.occ, k) for d in dets]
    worst = 0.0
    for _ in range(n_samples):
        a, b = rng.integers(0, len(dets), size=2)
        want = float(states[a] @ (ham @ states[b]))
        got = oracle.matrix_element(dets[a], dets[b], system.ints)
        worst = max(worst, abs(got - want))
    return worst


def test_slater_condon_matches_oracle(hubbard2_site, hubbard3_mo, pairing4, rng):
    for system in (hubbard2_site, hubbard3_mo, pairing4):
        assert _oracle_elements(system, 80, rng) <= 1e-12


def _random_4fold(seed, n_spatial, n_electrons):
    """Dense non-canonical integrals with only the 4-fold (pq|rs) symmetry."""
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((n_spatial, n_spatial))
    g = rng.standard_normal((n_spatial,) * 4)
    g = g + g.transpose(1, 0, 3, 2)
    g = g + g.transpose(2, 3, 0, 1)
    return IntegralSet(n_spatial, h + h.T, g, 0.25, n_electrons=n_electrons,
                       symmetry="4-fold")


def test_dense_hamiltonian_matches_oracle_sector(hubbard2_site, hubbard3_mo, pairing4):
    """Every entry of the dense H against the N-sector of the 2^K oracle."""
    random8 = _random_4fold(11, 4, 4)
    for ints in (hubbard2_site.ints, hubbard3_mo.ints, pairing4.ints, random8):
        k, n = ints.n_spin_orbitals, ints.n_electrons
        basis = OrbitalBasis(k, n)
        idx = [d.mask for d in enumerate_determinants(basis)]
        assert sorted(idx) == oracle.project_sector(k, n)
        want = oracle.dense_hamiltonian_fock(ints, k)[np.ix_(idx, idx)]
        assert np.max(np.abs(build_dense_hamiltonian(ints, basis) - want)) <= 1e-12


def _exact_systems():
    """Integrals the package must read exactly as the oracle's scalar lookups do:
    8-fold and 4-fold, canonical and not, even and odd N."""
    return [_random_4fold(12, 6, 4), hubbard_model(4, 1.0, 2.0), pairing_model(5, 0.5, 1.0),
            _random_4fold(7, 5, 5)]


def test_spin_integrals_equal_the_oracle_lookups():
    """Every h_PQ and <PQ||RS> of a K = 8 set, against the 1-based scalar lookups."""
    ints = _random_4fold(5, 4, 3)
    pq, pqrs = np.indices((8,) * 2), np.indices((8,) * 4)
    spin_h = np.vectorize(lambda p, q: oracle.spin_h(ints, p + 1, q + 1))
    anti = np.vectorize(lambda p, q, r, s: oracle.antisymmetrized(ints, p + 1, q + 1, r + 1, s + 1))
    assert np.array_equal(_spin_integrals(ints, *pq), spin_h(*pq))
    assert np.array_equal(_spin_integrals(ints, *pqrs), anti(*pqrs))


def test_dense_hamiltonian_equals_matrix_elements():
    """The vectorised build sums in matrix_element's order: equal entries."""
    for ints in _exact_systems():
        basis = OrbitalBasis(ints.n_spin_orbitals, ints.n_electrons)
        dets = enumerate_determinants(basis)
        ham = build_dense_hamiltonian(ints, basis)
        want = np.array([[oracle.matrix_element(d1, d2, ints) if a <= b else 0.0
                          for b, d2 in enumerate(dets)] for a, d1 in enumerate(dets)])
        want = np.triu(want) + np.triu(want, 1).T
        assert np.array_equal(ham, want)


def test_fock_matrix_equals_the_oracle_sum():
    """lambda_P and the off-diagonal norm from f_PQ = h_PQ + sum_I <PI||QI>, summed in I order."""
    for ints in [*_exact_systems(), canonicalize_core(hubbard_model(3, 1.0, 2.0, 2))[0]]:
        k, n = ints.n_spin_orbitals, ints.n_electrons
        f = np.zeros((k, k))
        for p in range(1, k + 1):
            for q in range(p, k + 1):
                val = oracle.spin_h(ints, p, q)
                for i in range(1, n + 1):
                    val += oracle.antisymmetrized(ints, p, i, q, i)
                f[p - 1, q - 1] = f[q - 1, p - 1] = val
        fock = fock_matrix(ints, OrbitalBasis(k, n))
        assert np.array_equal(fock.lambdas, np.diag(f))
        assert fock.off_diag_norm == float(np.linalg.norm(f - np.diag(np.diag(f))))
        assert fock.lambda0 == float(np.diag(f)[:n].sum())


def test_fock_and_h_build_no_spin_orbital_tensor():
    # at NORB = 32 (dim 64) the K^4 = 64^4 float64 tensors <PQ|RS> and <PQ||RS> took 256 MB
    ints = hubbard_model(32, 1.0, 2.0, 1)
    basis = OrbitalBasis(64, 1)
    tracemalloc.start()
    try:
        fock_matrix(ints, basis)
        build_dense_hamiltonian(ints, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20   # one K^4 tensor is 128 MB


def test_non_finite_integrals_are_rejected():
    with pytest.raises(NonFiniteIntegralError):
        hubbard_model(2, 1.0, np.inf)
    with pytest.raises(NonFiniteIntegralError):
        IntegralSet(1, [[np.nan]], np.zeros((1, 1, 1, 1)))
    with pytest.raises(NonFiniteIntegralError):
        IntegralSet(1, [[0.0]], np.zeros((1, 1, 1, 1)), e_core=-np.inf)


def test_integrals_are_private_read_only_copies():
    """An edit after a build can reach neither the integrals nor the cached H."""
    h = np.array([[0.0, -1.0], [-1.0, 0.0]])
    g = np.zeros((2, 2, 2, 2))
    g[0, 0, 0, 0] = g[1, 1, 1, 1] = 4.0
    ints = IntegralSet(2, h, g, n_electrons=2)
    basis = OrbitalBasis(4, 2)
    before = build_dense_hamiltonian(ints, basis).copy()
    h[0, 0] += 5.0
    g[0, 0, 0, 0] += 5.0
    with pytest.raises(ValueError):
        ints.h[0, 0] += 5.0
    with pytest.raises(ValueError):
        ints.g[0, 0, 0, 0] += 5.0
    with pytest.raises(AttributeError):
        ints.h = h
    assert ints.h[0, 0] == 0.0 and ints.g[0, 0, 0, 0] == 4.0
    assert np.array_equal(build_dense_hamiltonian(ints, basis), before)
    with pytest.raises(ValueError):
        build_dense_hamiltonian(ints, basis)[0, 0] += 5.0


def test_dense_hamiltonian_is_symmetric(pairing4):
    ham = build_dense_hamiltonian(pairing4.ints, pairing4.basis)
    assert np.max(np.abs(ham - ham.T)) == 0.0


def test_hubbard_dimer_analytic_ground_energy():
    # 2-site Hubbard at half filling: E0 = U/2 - sqrt((U/2)^2 + 4 t^2)
    t, u = 1.0, 4.0
    ints = hubbard_model(2, t, u)
    basis = OrbitalBasis(4, 2)
    ham = build_dense_hamiltonian(ints, basis)
    e0 = float(np.linalg.eigvalsh(ham)[0])
    want = u / 2.0 - np.sqrt((u / 2.0) ** 2 + 4.0 * t * t)
    assert abs(e0 - want) <= 1e-12


def test_rotation_preserves_spectrum(rng):
    ints = hubbard_model(3, 1.0, 2.0)
    basis = OrbitalBasis(6, 3)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    rotated = rotate_orbitals(ints, q)
    e1 = np.linalg.eigvalsh(build_dense_hamiltonian(ints, basis))
    e2 = np.linalg.eigvalsh(build_dense_hamiltonian(rotated, basis))
    assert np.max(np.abs(e1 - e2)) <= 1e-10
    with pytest.raises(DimensionMismatchError):
        rotate_orbitals(ints, np.ones((3, 3)))


def test_canonicalize_core_diagonalizes_h_deterministically():
    ints = hubbard_model(3, 1.0, 2.0)
    rotated, c = canonicalize_core(ints)
    off = rotated.h - np.diag(np.diag(rotated.h))
    assert np.max(np.abs(off)) <= 1e-12
    assert np.all(np.diff(np.diag(rotated.h)) >= -1e-12)
    _, c2 = canonicalize_core(ints)
    assert np.array_equal(c, c2)


def test_fock_identity_on_determinants(pairing4):
    """F phi_mu = (Lambda0 + eps_mu) phi_mu with the diagonal Fock."""
    fock = pairing4.fock
    assert fock.off_diag_norm <= 1e-12
    diag = fock_diagonal_vector(fock, pairing4.basis)
    dets = enumerate_determinants(pairing4.basis)
    reference = dets[0]

    for d, val in zip(dets, diag):
        mu = pairing4.basis.determinants.excitation(d.mask)
        if mu is not None:   # X_mu phi_0 is phi_d
            assert apply_excitation(mu, reference)[0] == d
        eps = fock.epsilon_of(mu) if mu else 0.0
        assert abs(val - (fock.lambda0 + eps)) <= 1e-12


def test_noncanonical_fock_warns(hubbard2_site):
    with pytest.warns(NonCanonicalOrbitalsWarning):
        fock_matrix(hubbard2_site.ints, hubbard2_site.basis)


def test_fluctuation_is_exact_complement(pairing4, rng):
    ham = build_dense_hamiltonian(pairing4.ints, pairing4.basis)
    v = rng.standard_normal(ham.shape[0])
    hv = ham @ v
    fv = fock_diagonal_vector(pairing4.fock, pairing4.basis) * v
    wv = (ham - np.diag(fock_diagonal_vector(pairing4.fock, pairing4.basis))) @ v
    assert np.max(np.abs(hv - fv - wv)) <= 1e-12


def test_model_size_limits():
    # the builders take the FCIDUMP header's bound, 2n <= 64 spin-orbitals, before any n^4 array
    for build in (hubbard_model, pairing_model):
        for n in (33, 10**6):
            with pytest.raises(SizeLimitError, match=f"NORB={n} exceeds the hard limit of 32"):
                build(n, 1.0, 1.0)
    # 11 sites build; their half-filled determinant space is what the dense path refuses
    assert hubbard_model(11, 1.0, 1.0).n_spatial == 11
    with pytest.raises(DimensionLimitError):
        OrbitalBasis(22, 11)


# ---------------------------------------------------------------------------
# FCIDUMP interchange
# ---------------------------------------------------------------------------

def test_fcidump_round_trip_is_exact():
    ints = hubbard_model(3, 1.0, 2.0)
    buf = io.StringIO()
    write_fcidump(ints, buf)
    back = parse_fcidump(buf.getvalue())
    assert back.n_spatial == ints.n_spatial
    assert back.n_electrons == ints.n_electrons
    assert np.array_equal(back.h, ints.h)
    assert np.array_equal(back.g, ints.g)
    assert back.e_core == ints.e_core


def test_fcidump_write_is_byte_stable():
    ints = hubbard_model(2, 1.0, 4.0)
    a, b = io.StringIO(), io.StringIO()
    write_fcidump(ints, a)
    write_fcidump(parse_fcidump(a.getvalue()), b)
    assert a.getvalue() == b.getvalue()


def test_fcidump_states_the_references_spin():
    # MS2=0 was written for any electron count, which 3 electrons cannot have
    ints = pairing_model(6, 0.0, 1.0, 3)
    buf = io.StringIO()
    write_fcidump(ints, buf)
    assert buf.getvalue().startswith("&FCI NORB=6,NELEC=3,MS2=1,\n")
    back = parse_fcidump(buf.getvalue())
    assert back.n_electrons == 3
    assert np.array_equal(back.h, ints.h) and np.array_equal(back.g, ints.g)
    again = io.StringIO()
    write_fcidump(back, again)
    assert again.getvalue() == buf.getvalue()


def test_fcidump_accepts_fortran_d_exponents():
    text = "&FCI NORB=1,NELEC=1,MS2=1,\n&END\n 1.5D-01 1 1 0 0\n 0.0 0 0 0 0\n"
    ints = parse_fcidump(text)
    assert ints.h[0, 0] == 0.15


def test_fcidump_folds_eightfold_symmetry():
    text = ("&FCI NORB=2,NELEC=2,MS2=0,\n&END\n"
            " 0.7 1 2 1 1\n 0.0 0 0 0 0\n")
    g = parse_fcidump(text).g
    for idx in [(0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)]:
        assert g[idx] == 0.7


def test_fcidump_header_errors():
    with pytest.raises(MalformedHeaderError):
        parse_fcidump("no header here\n")
    with pytest.raises(MalformedHeaderError):
        parse_fcidump("&FCI NELEC=2,\n&END\n")
    with pytest.raises(MalformedHeaderError):
        parse_fcidump("&FCI NORB=x,NELEC=2,\n&END\n")
    with pytest.raises(MalformedHeaderError):
        parse_fcidump("&FCI NORB=2,NELEC=2,ORBSYM=1,1,1,\n&END\n")
    # an MS2 the reference (orbitals 1..NELEC, MS2 = NELEC mod 2) cannot have, or no integer
    for norb, nelec, ms2 in [(2, 2, 2), (2, 2, 1), (2, 3, 0), (2, 1, -1), (2, 2, "0.5"),
                             (2, 2, "x"), (2, 2, ""), (32, 2, 2)]:
        tracemalloc.start()
        try:
            with pytest.raises(MalformedHeaderError, match="MS2|non-integer"):
                parse_fcidump(f"&FCI NORB={norb},NELEC={nelec},MS2={ms2},\n&END\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20   # before the n^4 arrays: (pq|rs) alone is 8 MB at NORB = 32


@pytest.mark.parametrize("norb", [32, 33, 10**6])
def test_fcidump_norb_is_bounded_before_the_integrals_are_allocated(norb):
    text = f"&FCI NORB={norb},NELEC=2,\n&END\n"
    if norb == 32:   # K = 64, the limit itself
        assert parse_fcidump(text).n_spin_orbitals == 64
    else:
        with pytest.raises(SizeLimitError, match=f"NORB={norb} exceeds the hard limit of 32"):
            parse_fcidump(text)


def test_fcidump_record_errors():
    head = "&FCI NORB=2,NELEC=2,\n&END\n"
    with pytest.raises(IndexOutOfRangeError):
        parse_fcidump(head + " 1.0 3 1 0 0\n")
    with pytest.raises(IndexOutOfRangeError):
        parse_fcidump(head + " 1.0 1 0 0 0\n")
    with pytest.raises(IndexOutOfRangeError):
        parse_fcidump(head + " 1.0 1 1 1 0\n")
    with pytest.raises(MalformedHeaderError):
        parse_fcidump(head + " 1.0 1 1\n")
    with pytest.raises(DuplicateCanonicalEntryError):
        parse_fcidump(head + " 1.0 1 2 1 1\n 2.0 2 1 1 1\n")
    # consistent duplicates are fine
    ints = parse_fcidump(head + " 1.0 1 2 1 1\n 1.0 2 1 1 1\n")
    assert ints.g[0, 1, 0, 0] == 1.0


def test_fcidump_write_requires_eightfold_symmetry():
    ints = pairing_model(3, 0.5)
    with pytest.raises(DimensionMismatchError):
        write_fcidump(ints, io.StringIO())
