import io
import re
import tracemalloc
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

import oracle
from tccbench import (
    BasisSplit,
    IntegralSet,
    OrbitalBasis,
    build_dense_hamiltonian,
    canonicalize_core,
    fock_matrix,
    hubbard_model,
    pairing_model,
    parse_fcidump,
    rotate_orbitals,
    write_fcidump,
)
from tccbench.determinants import ExcitationSpace, enumerate_determinants
from tccbench.errors import InputError, SizeLimitError
from tccbench.exact import DegenerateGroundStateWarning, cas_fci_solve, fci_solve
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
    states = [oracle.determinant_state(d, k) for d in dets]
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
    return IntegralSet(n_spatial, h + h.T, g, 0.25, n_electrons=n_electrons)


def test_dense_hamiltonian_matches_oracle_sector(hubbard2_site, hubbard3_mo, pairing4):
    """Every entry of the dense H against the N-sector of the 2^K oracle."""
    random8 = _random_4fold(11, 4, 4)
    for ints in (hubbard2_site.ints, hubbard3_mo.ints, pairing4.ints, random8):
        k, n = ints.n_spin_orbitals, ints.n_electrons
        basis = OrbitalBasis(k, n)
        idx = [oracle.occ_mask(d) for d in enumerate_determinants(basis)]
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
    message = "^integrals or core energy hold NaN or inf$"
    with pytest.raises(InputError, match=message):
        hubbard_model(2, 1.0, np.inf)
    with pytest.raises(InputError, match=message):
        IntegralSet(1, [[np.nan]], np.zeros((1, 1, 1, 1)))
    with pytest.raises(InputError, match=message):
        IntegralSet(1, [[0.0]], np.zeros((1, 1, 1, 1)), e_core=-np.inf)


@pytest.mark.parametrize("h, g, message", [
    (np.zeros((2, 3)), np.zeros((2,) * 4), "h must be 2x2, got (2, 3)"),
    (np.zeros((2, 2)), np.zeros((2,) * 3), "g must be (2, 2, 2, 2), got (2, 2, 2)"),
], ids=["h", "g"])
def test_integrals_of_another_shape_are_refused(h, g, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        IntegralSet(2, h, g)


def test_a_rotation_of_another_shape_is_refused():
    with pytest.raises(InputError, match="^rotation matrix has wrong shape$"):
        rotate_orbitals(hubbard_model(3, 1.0, 2.0), np.eye(2))


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


def test_a_replaced_set_gets_its_own_hamiltonian():
    """replace() copied the source's H cache, so the U = 2 energy came back for U = 6."""
    ints = hubbard_model(3, 1.0, 2.0)
    basis = OrbitalBasis(6, 3)
    build_dense_hamiltonian(ints, basis)
    tripled = replace(ints, g=3 * ints.g)
    fresh = IntegralSet(3, ints.h, 3 * ints.g, 0.0, n_electrons=3)
    assert np.array_equal(build_dense_hamiltonian(tripled, basis),
                          build_dense_hamiltonian(fresh, basis))
    with pytest.warns(DegenerateGroundStateWarning):   # the M_s = +-1/2 pair of odd N
        energy = fci_solve(tripled, basis)[0].ground_energy
    assert abs(energy - -0.90673) < 1e-5


def test_integrals_without_the_symmetry_the_builds_read_are_refused(request):
    """h = h^T, (pq|rs) = (qp|sr) and (pq|rs) = (rs|pq), each broken alone; every test
    system, the rotated ones with their ~1e-16 rounding included, has all three."""
    for name in ("hubbard2_site", "hubbard2_mo", "hubbard3_mo", "hubbard4_mo",
                 "pairing4", "pairing6", "pairing4_g0", "pairing3_2e"):
        replace(request.getfixturevalue(name).ints)
    unit = _random_4fold(5, 4, 4)
    for scale in (1.0, 1e4):   # the bound is relative to the largest |h| or |g|
        ints = IntegralSet(4, scale * unit.h, scale * unit.g, n_electrons=4)
        for delta, ok in ((1e-13 * scale, True), (1e-10 * scale, False)):
            h = ints.h.copy()
            h[0, 1] += delta   # h[1, 0] keeps its value
            no_qpsr = ints.g.copy()   # (pq|rs) = (rs|pq) kept
            no_qpsr[0, 1, 2, 3] += delta
            no_qpsr[2, 3, 0, 1] += delta
            no_rspq = ints.g.copy()   # (pq|rs) = (qp|sr) kept
            no_rspq[0, 1, 2, 3] += delta
            no_rspq[1, 0, 3, 2] += delta
            for changed in ({"h": h}, {"g": no_qpsr}, {"g": no_rspq}):
                if ok:
                    replace(ints, **changed)
                else:
                    with pytest.raises(InputError, match="symmetric|qp|sr"):
                        replace(ints, **changed)
    h = hubbard_model(3, 1.0, 2.0).h.copy()
    h[0, 1] = -5.0   # FCI read h[0, 1] alone and reported -9.21506
    with pytest.raises(InputError, match="h is not symmetric"):
        IntegralSet(3, h, hubbard_model(3, 1.0, 2.0).g, n_electrons=3)


def test_rotated_integrals_of_any_scale_are_accepted():
    """canonicalize_core leaves asymmetries of about 1e-16 of the largest |h| and |g|: 1.29e-12
    in h at t = 1e4 and 3.64e-12 in g at U = 1e5, which an absolute 1e-12 refused."""
    canonicalize_core(hubbard_model(4, 1.0, 1e5))
    site = hubbard_model(6, 1e4, 2.0)
    basis = OrbitalBasis(12, 6)
    e_site, e_mo = (fci_solve(ints, basis)[0].ground_energy
                    for ints in (site, canonicalize_core(site)[0]))
    assert abs(e_mo - e_site) <= 1e-12 * abs(e_site)   # both about -69876.184205213


@pytest.mark.parametrize("k, n", [(6, 2), (10, 4)])
def test_the_h_build_refuses_a_basis_of_another_k(k, n):
    # K = 6 gave the H of hubbard:4's first three sites, and cached it; K = 10 an IndexError
    ints, basis = hubbard_model(4, 1.0, 2.0), OrbitalBasis(k, n)
    for solve in (build_dense_hamiltonian, fci_solve,
                  lambda ints, basis: cas_fci_solve(ints, BasisSplit(basis, n))):
        with pytest.raises(InputError, match=f"basis has K={k}, integrals give K=8"):
            solve(ints, basis)
    assert not ints._dense_cache


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
    with pytest.raises(InputError, match="^rotation matrix is not orthogonal$"):
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
    space = ExcitationSpace(pairing4.basis, pairing4.basis.determinants.indices)

    for d, val in zip(dets, diag):
        mu = oracle.occ_mask(d)   # the index that reaches phi_d, unless phi_d is phi_0
        reference = d == tuple(range(1, len(d) + 1))
        if not reference:   # X_mu phi_0 is phi_d
            assert dets[space.ref_pos[space.positions([mu])[0]]] == d
        eps = 0.0 if reference else oracle.epsilon(fock, mu)
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
    with pytest.raises(SizeLimitError, match="^determinant space dim 705432 exceeds 20000$"):
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


# the eight images of (32|21), each of them a record of the same orbit
_ORBIT_3221 = [(3, 2, 2, 1), (2, 3, 2, 1), (3, 2, 1, 2), (2, 3, 1, 2),
               (2, 1, 3, 2), (1, 2, 3, 2), (2, 1, 2, 3), (1, 2, 2, 3)]


@pytest.mark.parametrize("records, message", [
    ([(0.5, 0, 0, 0, 0), (0.5, 0, 0, 0, 0)], None),
    ([(-1.0, 2, 1, 0, 0), (-1.0, 1, 2, 0, 0)], None),
    ([(0.7, *image) for image in _ORBIT_3221], None),
    ([(0.5, 0, 0, 0, 0), (0.6, 0, 0, 0, 0)], "conflicting core-energy records"),
    ([(-1.0, 2, 1, 0, 0), (-1.5, 1, 2, 0, 0)], "conflicting h(1,2) records"),
    ([(0.7, 3, 2, 2, 1), (0.8, 1, 2, 2, 3)], "conflicting (ij|kl) records at (1,2,2,3)"),
], ids=["core twice", "h both ways", "(ij|kl) 8 ways", "core conflict", "h conflict",
        "(ij|kl) conflict"])
def test_fcidump_reads_each_orbit_once(records, message):
    """Every record of an orbit gives its one value; another value through any image is refused."""
    def dump(records):
        return "&FCI NORB=3,NELEC=2,\n&END\n" + "".join(" {} {} {} {} {}\n".format(*r)
                                                        for r in records)
    if message is None:   # the values the orbit's first record gives alone
        ints, first = parse_fcidump(dump(records)), parse_fcidump(dump(records[:1]))
        assert ints.e_core == first.e_core
        assert np.array_equal(ints.h, first.h) and np.array_equal(ints.g, first.g)
    else:
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            parse_fcidump(dump(records))


def test_fcidump_header_errors():
    with pytest.raises(InputError, match=r"^no &FCI \.\.\. &END/ header found$"):
        parse_fcidump("no header here\n")
    with pytest.raises(InputError, match="^missing header field 'NORB'$"):
        parse_fcidump("&FCI NELEC=2,\n&END\n")
    with pytest.raises(InputError, match=re.escape(
            "non-integer header field: invalid literal for int() with base 10: 'x'")):
        parse_fcidump("&FCI NORB=x,NELEC=2,\n&END\n")
    with pytest.raises(InputError, match="^ORBSYM lists 3 entries for NORB=2$"):
        parse_fcidump("&FCI NORB=2,NELEC=2,ORBSYM=1,1,1,\n&END\n")
    # an MS2 the reference (orbitals 1..NELEC, MS2 = NELEC mod 2) cannot have, or no integer
    for norb, nelec, ms2 in [(2, 2, 2), (2, 2, 1), (2, 3, 0), (2, 1, -1), (2, 2, "0.5"),
                             (2, 2, "x"), (2, 2, ""), (32, 2, 2)]:
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match="MS2|non-integer"):
                parse_fcidump(f"&FCI NORB={norb},NELEC={nelec},MS2={ms2},\n&END\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20   # before the n^4 arrays: (pq|rs) alone is 8 MB at NORB = 32


@pytest.mark.parametrize("counts", ["NORB=0,NELEC=2", "NORB=2,NELEC=-1"])
def test_fcidump_refuses_no_orbitals_and_a_negative_electron_count(counts):
    norb, nelec = (field.split("=")[1] for field in counts.split(","))
    with pytest.raises(InputError, match=f"^bad NORB/NELEC: {norb}/{nelec}$"):
        parse_fcidump(f"&FCI {counts},\n&END\n")


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
    with pytest.raises(InputError, match=r"^record line 3: index 3 is not in 0\.\.NORB=2$"):
        parse_fcidump(head + " 1.0 3 1 0 0\n")
    with pytest.raises(InputError, match=r"^record line 3: unsupported record shape \(1,0,0,0\)$"):
        parse_fcidump(head + " 1.0 1 0 0 0\n")
    with pytest.raises(InputError, match=r"^record line 3: unsupported record shape \(1,1,1,0\)$"):
        parse_fcidump(head + " 1.0 1 1 1 0\n")
    with pytest.raises(InputError, match="^record line 3: expected 5 fields, got 3$"):
        parse_fcidump(head + " 1.0 1 1\n")
    with pytest.raises(InputError, match=r"^conflicting \(ij\|kl\) records at \(2,1,1,1\)$"):
        parse_fcidump(head + " 1.0 1 2 1 1\n 2.0 2 1 1 1\n")
    # consistent duplicates are fine
    ints = parse_fcidump(head + " 1.0 1 2 1 1\n 1.0 2 1 1 1\n")
    assert ints.g[0, 1, 0, 0] == 1.0


@pytest.mark.parametrize("record, error, message", [
    (" 1.0 -1 1 0 0", InputError, "index -1 is not in 0..NORB=2"),
    (" 1.0 3 1 0 0", InputError, "index 3 is not in 0..NORB=2"),
    (" 1.0 1 1 0", InputError, "expected 5 fields, got 4"),
    (" 1.0 1 x 0 0", InputError, "invalid literal for int() with base 10: 'x'"),
    (" nan 1 2 0 0", InputError, "value nan is not finite"),
    (" inf 1 1 2 2", InputError, "value inf is not finite"),
], ids=["negative index", "index above NORB", "short record", "non-integer index", "NaN", "inf"])
def test_fcidump_record_errors_name_the_file_line(record, error, message):
    # header on lines 1-4, a good record on 5, a blank line 6: the bad record is line 7,
    # where the count used to start at the &END line as 1 and name line 4
    text = "&FCI NORB=2,NELEC=2,\n  ORBSYM=1,1,\n  ISYM=1,\n&END\n 4.0 1 1 1 1\n\n" + record + "\n"
    with pytest.raises(error, match=f"^record line 7: {re.escape(message)}$"):
        parse_fcidump(text)


@pytest.mark.parametrize("records", [
    " nan 1 2 0 0\n -1.0 1 2 0 0\n", " inf 1 1 2 2\n 0.5 2 2 1 1\n", " nan 0 0 0 0\n 0.0 0 0 0 0\n",
], ids=["h12", "(11|22)", "core energy"])
def test_a_non_finite_record_is_refused_before_a_finite_one_of_its_orbit(records):
    # the finite record replaced it: NaN and inf never differed from another value
    with pytest.raises(InputError, match="^record line 3: value (nan|inf) is not finite$"):
        parse_fcidump("&FCI NORB=2,NELEC=2,\n&END\n" + records)


def test_fcidump_writer_refuses_a_set_with_no_electron_count():
    # it wrote NELEC=0, a file every command then refused as N=0
    ints = hubbard_model(2, 1.0, 4.0)
    buf = io.StringIO()
    with pytest.raises(InputError, match="no electron count"):
        write_fcidump(IntegralSet(2, ints.h, ints.g), buf)
    assert buf.getvalue() == ""
    write_fcidump(IntegralSet(2, ints.h, ints.g, n_electrons=2), buf)
    back = parse_fcidump(buf.getvalue())
    assert back.n_electrons == 2
    assert np.array_equal(back.h, ints.h) and np.array_equal(back.g, ints.g)


def test_fcidump_write_pins_its_records():
    """The writer's walk over canonical orbits gives the bytes of the compound-index loop."""
    buf = io.StringIO()
    write_fcidump(hubbard_model(3, 1.0, 2.0), buf)
    assert buf.getvalue() == (
        "&FCI NORB=3,NELEC=3,MS2=1,\n  ORBSYM=1,1,1,\n  ISYM=1,\n&END\n"
        "  2.0000000000000000E+00    1    1    1    1\n"
        "  2.0000000000000000E+00    2    2    2    2\n"
        "  2.0000000000000000E+00    3    3    3    3\n"
        " -1.0000000000000000E+00    2    1    0    0\n"
        " -1.0000000000000000E+00    3    2    0    0\n"
        "  0.0000000000000000E+00    0    0    0    0\n")
    ints = canonicalize_core(hubbard_model(4, 1.0, 2.0))[0]
    buf = io.StringIO()
    write_fcidump(ints, buf)
    want = []   # i >= j, k >= l and (ij) >= (kl) by compound index, nonzero values only
    for i, j, k, l in product(range(1, 5), repeat=4):
        canonical = i >= j and k >= l and i * (i + 1) // 2 + j >= k * (k + 1) // 2 + l
        if canonical and ints.g[i - 1, j - 1, k - 1, l - 1] != 0.0:
            want.append(f" {ints.g[i - 1, j - 1, k - 1, l - 1]: .16E} {i:4d} {j:4d} {k:4d} {l:4d}\n")
    records = buf.getvalue().split("&END\n")[1].splitlines(keepends=True)
    assert len(want) == 55 and records[:55] == want


def test_fcidump_write_requires_eightfold_symmetry():
    ints = pairing_model(3, 0.5)
    with pytest.raises(InputError, match=re.escape(
            "FCIDUMP stores a single value per 8-fold orbit; (pq|rs) is not (qp|rs) at p=1")):
        write_fcidump(ints, io.StringIO())


def test_fcidump_write_tests_the_integrals_not_a_declaration():
    """A 4-fold set built with no declaration was written as 8-fold and read back changed."""
    with pytest.raises(InputError, match="8-fold"):
        write_fcidump(_random_4fold(3, 3, 2), io.StringIO())


def test_fcidump_round_trips_rotated_integrals():
    """Rotated integrals' (pq|rs) and (rs|pq) differ by ~1e-16: no check may ask for equality."""
    ints = canonicalize_core(hubbard_model(4, 1.0, 2.0))[0]
    buf = io.StringIO()
    write_fcidump(ints, buf)
    back = parse_fcidump(buf.getvalue())
    basis = OrbitalBasis(8, 4)
    diff = build_dense_hamiltonian(back, basis) - build_dense_hamiltonian(ints, basis)
    assert np.max(np.abs(diff)) <= 1e-12
