"""End-to-end acceptance checks.

Each test covers one headline guarantee of the workbench and prints a
single PASS line when its assertions hold. Tolerances are part of the
contract and are stated inline.
"""

import io
import json

import numpy as np
import pytest

import oracle
from tccbench import (
    AmplitudeVector,
    BasisSplit,
    CiVector,
    OrbitalBasis,
    Study,
    TccConfig,
    TruncationScheme,
    apply_excitation,
    cas_fci_solve,
    ci_to_cluster,
    cluster_to_ci,
    enumerate_determinants,
    enumerate_excitations,
    enumerate_truncated_space,
    error_decomposition,
    error_representation_check,
    fci_solve,
    fock_norm_identity_check,
    hubbard_model,
    linear_limit_scaling_study,
    monotonicity_probe,
    mutual_information,
    one_orbital_rdm,
    parse_fcidump,
    quadratic_scaling_study,
    solve_dual,
    solve_tcc,
    split_amplitudes,
    tcc_energy,
    tcc_jacobian,
    tcc_residual,
    two_orbital_rdm,
    write_fcidump,
)
from tccbench.cli import main as cli_main
from tccbench.determinants import SPACE_CAS, SPACE_TRUNCATED
from tccbench.tcc import MODE_FULL, MODE_RANK, TailoredHamiltonian

LN2 = np.log(2.0)


def _to_amplitudes(vec, indices):
    return AmplitudeVector(SPACE_TRUNCATED,
                           {mu: float(x) for mu, x in zip(indices, vec)}, scheme="full")


def _cas_amplitudes(system):
    _, states = cas_fci_solve(system.ints, system.basis, system.split)
    t = ci_to_cluster(states[0])
    return AmplitudeVector(SPACE_CAS, dict(t.entries))


def _solve(system, t_cas, scheme=None):
    config = TccConfig(max_iterations=400, tolerance=1e-11, diis=8,
                       truncation=scheme or TruncationScheme(MODE_FULL))
    result = solve_tcc(t_cas, system.ints, system.split, system.fock, config)
    assert result.converged
    return result


def test_acceptance_01_operator_algebra_vs_dense_oracle():
    """Signs, commutativity and nilpotency agree with the 2^K oracle."""
    for k, n in [(4, 2), (6, 3), (8, 4)]:
        basis = OrbitalBasis(k, n)
        dets = enumerate_determinants(basis)
        mus = enumerate_excitations(basis)
        ops = {mu: oracle.excitation_operator(mu.holes, mu.particles, k)
               for mu in mus}
        states = [oracle.determinant_state(d.occ, k) for d in dets]
        for mu in mus:
            op = ops[mu]
            assert np.max(np.abs(op @ op)) <= 1e-12  # nilpotency
            for det, state in zip(dets, states):
                got = apply_excitation(mu, det)
                out = op @ state
                nz = np.nonzero(out)[0]
                if len(nz) == 0:
                    assert got is None
                else:
                    d, sign = got
                    assert d.mask == int(nz[0])
                    assert abs(sign - out[nz[0]]) <= 1e-12
        # commutativity on a deterministic subsample of operator pairs
        for a in range(0, len(mus), max(1, len(mus) // 12)):
            for b in range(a + 1, min(a + 4, len(mus))):
                comm = ops[mus[a]] @ ops[mus[b]] - ops[mus[b]] @ ops[mus[a]]
                assert np.max(np.abs(comm)) <= 1e-12
    print("PASS 1: operator algebra matches the dense occupation-tensor "
          "oracle on K <= 8 (<= 1e-12)")


def test_acceptance_02_slater_condon(hubbard2_site, hubbard3_mo, pairing4):
    """200 random matrix elements match the dense second-quantized oracle."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for system in (hubbard2_site, hubbard3_mo, pairing4):
        k = system.basis.n_orbitals
        dets = enumerate_determinants(system.basis)
        ham = oracle.dense_hamiltonian_fock(system.ints, k)
        states = [oracle.determinant_state(d.occ, k) for d in dets]
        for _ in range(67):
            a, b = rng.integers(0, len(dets), size=2)
            want = float(states[a] @ (ham @ states[b]))
            got = oracle.matrix_element(dets[a], dets[b], system.ints)
            worst = max(worst, abs(got - want))
    assert worst <= 1e-12
    print(f"PASS 2: Slater-Condon vs dense oracle, 201 random elements, "
          f"max deviation {worst:.2e} (<= 1e-12)")


def test_acceptance_03_exp_log_round_trip(hubbard2_mo, hubbard3_mo, pairing4):
    """Amplitude-to-CI and back is the identity on random states."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for system in (hubbard2_mo, hubbard3_mo, pairing4):
        basis = system.basis
        dim = len(enumerate_determinants(basis))
        refpos = basis.determinants.reference
        for _ in range(50):
            c = 0.5 * rng.standard_normal(dim)
            c[refpos] = 1.0
            psi = CiVector(basis, c / np.linalg.norm(c)).intermediate_normalized()
            back = cluster_to_ci(ci_to_cluster(psi), basis)
            worst = max(worst, float(np.max(np.abs(back.coefficients
                                                   - psi.coefficients))))
    assert worst <= 1e-12
    print(f"PASS 3: exp/log round trip on 150 random states, "
          f"max deviation {worst:.2e} (<= 1e-12)")


def test_acceptance_04_fci_split_solves_tcc(hubbard2_mo, hubbard3_mo, pairing4):
    """FCI-split amplitudes zero the amplitude equations at the FCI energy."""
    for system in (hubbard2_mo, hubbard3_mo, pairing4):
        summary, states = fci_solve(system.ints, system.basis)
        t_cas, t_ext = split_amplitudes(ci_to_cluster(states[0]), system.split)
        r = tcc_residual(t_ext, t_cas, system.ints, system.split,
                         TruncationScheme(MODE_FULL))
        assert max((abs(v) for v in r.entries.values()), default=0.0) <= 1e-10
        e = tcc_energy(t_ext, t_cas, system.ints, system.split)
        assert abs(e - summary.ground_energy) <= 1e-10
    print("PASS 4: FCI-split amplitudes give residual <= 1e-10 and the FCI "
          "energy +- 1e-10 on all fixtures")


def test_acceptance_05_collapse_limits(hubbard2_mo, pairing3_2e, pairing4):
    """k = N reproduces untruncated CC (= FCI at 2 electrons); k = K is CAS-FCI."""
    for system in (hubbard2_mo, pairing3_2e):
        basis = system.basis
        split = BasisSplit(basis, basis.n_electrons)
        summary, _ = fci_solve(system.ints, basis)
        result = solve_tcc(AmplitudeVector(SPACE_CAS, {}), system.ints, split,
                           system.fock,
                           TccConfig(max_iterations=400, tolerance=1e-12, diis=6))
        assert result.converged
        assert abs(result.energy - summary.ground_energy) <= 1e-9

    basis = pairing4.basis
    split = BasisSplit(basis, basis.n_orbitals)
    summary, states = cas_fci_solve(pairing4.ints, basis, split)
    t_cas = AmplitudeVector(SPACE_CAS, dict(ci_to_cluster(states[0]).entries))
    result = solve_tcc(t_cas, pairing4.ints, split, pairing4.fock)
    assert abs(result.energy - summary.ground_energy) <= 1e-12
    print("PASS 5: k=N full-external TCC = FCI +- 1e-9 (2-electron fixtures); "
          "k=K TCC = CAS-FCI (<= 1e-12)")


def test_acceptance_06_fock_norm_identity(hubbard2_mo, pairing3_2e, pairing4):
    """Weighted amplitude norm equals the Fock seminorm of T phi_0."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for system in (hubbard2_mo, pairing3_2e, pairing4):
        indices = enumerate_truncated_space(system.split,
                                            TruncationScheme(MODE_FULL))
        for _ in range(100):
            t = _to_amplitudes(0.5 * rng.standard_normal(len(indices)), indices)
            check = fock_norm_identity_check(t, system.fock, system.basis)
            worst = max(worst, check.deviation)
    assert worst <= 1e-12
    print(f"PASS 6: Fock-norm identity on 300 random amplitude vectors, "
          f"max deviation {worst:.2e} (<= 1e-12)")


def test_acceptance_07_entropy_suite():
    """RDM/entropy properties and dense partial-trace agreement at K <= 6."""
    rng = np.random.default_rng(5)
    # single determinant: profile identically zero
    basis = OrbitalBasis(6, 3)
    dim = len(enumerate_determinants(basis))
    profile0 = mutual_information(CiVector(basis, np.eye(dim)[3]))
    assert np.max(np.abs(profile0.s1)) <= 1e-12
    assert np.max(np.abs(profile0.mi)) <= 1e-12

    worst = 0.0
    for k, n in [(4, 2), (6, 3)]:
        basis = OrbitalBasis(k, n)
        dets = enumerate_determinants(basis)
        for _ in range(3):
            c = rng.standard_normal(len(dets))
            psi = CiVector(basis, c / np.linalg.norm(c))
            full = oracle.state_from_ci(psi.coefficients, dets, k)
            for i in range(1, k + 1):
                got1 = one_orbital_rdm(psi, i)
                worst = max(worst, float(np.max(np.abs(
                    got1 - oracle.one_mode_rdm(full, i, k)))))
                assert np.min(np.linalg.eigvalsh(got1)) >= -1e-12
                for j in range(i + 1, k + 1):
                    got2 = two_orbital_rdm(psi, i, j)
                    worst = max(worst, float(np.max(np.abs(
                        got2 - oracle.two_mode_rdm(full, i, j, k)))))
                    assert np.min(np.linalg.eigvalsh(got2)) >= -1e-12
            profile = mutual_information(psi)
            assert np.all(profile.mi >= -1e-10)
            assert np.all(profile.mi <= 2.0 * LN2 + 1e-12)
    assert worst <= 1e-12
    print(f"PASS 7: entropy suite (zero single-determinant profile, bounds, "
          f"dense-oracle RDMs, max deviation {worst:.2e} <= 1e-12)")


def test_acceptance_08_linear_limit_monotonicity(pairing4_g0):
    """W = 0: sampled monotonicity constant hits min eps and slope is 2."""
    system = pairing4_g0
    t_cas = AmplitudeVector(SPACE_CAS, {})
    t_star = _solve(system, t_cas).t
    probe = monotonicity_probe(t_star, t_cas, system.ints, system.split,
                               system.fock, delta=0.1, samples=20, seed=0)
    indices = enumerate_truncated_space(system.split, TruncationScheme(MODE_FULL))
    min_eps = min(system.fock.epsilon_of(mu) for mu in indices)
    assert probe.gamma_hat_l2 == min_eps
    study = linear_limit_scaling_study(system.fock, system.split, seed=0)
    assert abs(study.slope - 2.0) <= 1e-6
    print(f"PASS 8: W=0 monotonicity constant = min eps_mu = {min_eps} "
          f"exactly; quadratic slope {study.slope:.12f} = 2 +- 1e-6")


def test_acceptance_09_quadratic_error_scaling(pairing4):
    """Energy error scales quadratically in the amplitude distance."""
    family = [TruncationScheme(MODE_RANK, n) for n in (1, 2, 3)]
    family.append(TruncationScheme(MODE_FULL))
    study = quadratic_scaling_study(Study(pairing4.ints, pairing4.split, pairing4.fock),
                                    family)
    assert 1.7 <= study.slope <= 2.3
    print(f"PASS 9: log-log slope over the rank-1/2/3/full family is "
          f"{study.slope:.4f}, inside [1.7, 2.3]")


def test_acceptance_10_error_decomposition(pairing4):
    """Triangle decomposition holds; exact-CAS full solves leave no slack terms."""
    slacks = []
    study = Study(pairing4.ints, pairing4.split, pairing4.fock)
    full = error_decomposition(study, TruncationScheme(MODE_FULL))
    assert full.d_eps <= 1e-10
    assert full.dE_cas <= 1e-10
    slacks.append(full.triangle_slack)
    for dec in (
        error_decomposition(study, TruncationScheme(MODE_RANK, 2)),
        error_decomposition(study, TruncationScheme(MODE_RANK, 1),
                            t_cas_source="PERTURBED", noise=1e-3, seed=9),
    ):
        slacks.append(dec.triangle_slack)
    assert all(s >= -1e-10 for s in slacks)
    print(f"PASS 10: triangle slack >= -1e-10 on all runs (min "
          f"{min(slacks):.2e}); exact-CAS full solve has d_eps, dE_cas <= 1e-10")


def test_acceptance_11_dual_machinery(hubbard2_mo, pairing4, pairing4_g0):
    """Jacobian vs finite differences; remainder behavior of the error identity."""
    # exact Jacobian against central differences
    system = hubbard2_mo
    t_cas = _cas_amplitudes(system)
    indices = enumerate_truncated_space(system.split, TruncationScheme(MODE_FULL))
    t0 = np.array([_solve(system, t_cas).t.get(mu) for mu in indices])
    jac, _, _ = tcc_jacobian(_to_amplitudes(t0, indices), t_cas, system.ints,
                             system.split, indices)

    op = TailoredHamiltonian(t_cas, system.ints, system.split)   # its space holds `indices`
    assert op.space.indices == tuple(indices)

    def residual(vec):
        return op.residual(vec)

    fd = oracle.finite_difference_jacobian(residual, t0, h=1e-6)
    rel = float(np.linalg.norm(jac - fd) / np.linalg.norm(jac))
    assert rel <= 1e-6

    # linear limit: the representation remainder vanishes
    rng = np.random.default_rng(13)
    lin = pairing4_g0
    t_cas0 = AmplitudeVector(SPACE_CAS, {})
    full = TruncationScheme(MODE_FULL)
    t_star0 = _solve(lin, t_cas0).t
    z_star0 = solve_dual(t_star0, t_cas0, lin.ints, lin.split, full)
    idx0 = enumerate_truncated_space(lin.split, full)
    t_d0 = _to_amplitudes(0.05 * rng.standard_normal(len(idx0)), idx0)
    z_d0 = solve_dual(t_d0, t_cas0, lin.ints, lin.split, full)
    lin_check = error_representation_check(t_d0, z_d0, t_star0, z_star0,
                                           t_cas0, lin.ints, lin.split, lin.fock)
    assert abs(lin_check.remainder) <= 1e-10

    # cubic quotient stays bounded over the nested truncation sweep
    t_cas4 = _cas_amplitudes(pairing4)
    t_star = _solve(pairing4, t_cas4).t
    z_star = solve_dual(t_star, t_cas4, pairing4.ints, pairing4.split, full)
    ratios = []
    for n in (1, 2, 3):
        scheme = TruncationScheme(MODE_RANK, n)
        t_d = _solve(pairing4, t_cas4, scheme).t
        z_d = solve_dual(t_d, t_cas4, pairing4.ints, pairing4.split, scheme)
        check = error_representation_check(t_d, z_d, t_star, z_star, t_cas4,
                                           pairing4.ints, pairing4.split,
                                           pairing4.fock)
        if check.cubic_ratio is not None:
            ratios.append(check.cubic_ratio)
    assert len(ratios) >= 2 and all(np.isfinite(r) for r in ratios)
    assert max(ratios) <= 100.0 * max(ratios[0], 1e-6)
    print(f"PASS 11: Jacobian vs finite differences rel. dev. {rel:.2e} "
          f"(<= 1e-6); linear-limit remainder {lin_check.remainder:.2e} "
          f"(<= 1e-10); cubic quotient bounded (max {max(ratios):.3g})")


def test_acceptance_12_determinism(tmp_path, capsys):
    """Fixed-seed reruns are byte-identical; FCIDUMP survives a round trip."""
    args = ["verify", "--model", "pairing:4,0.5,1.0", "--k", "6",
            "--trunc", "rank:2", "--samples", "5", "--seed", "3"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli_main(args + ["--out", str(a)]) == 0
    assert cli_main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    for name in ("verify.json", "scaling.tsv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    json.loads((a / "verify.json").read_text())  # well-formed document

    ints = hubbard_model(3, 0.9, 2.5)
    buf = io.StringIO()
    write_fcidump(ints, buf)
    back = parse_fcidump(buf.getvalue())
    assert np.array_equal(back.h, ints.h)
    assert np.array_equal(back.g, ints.g)
    assert back.e_core == ints.e_core and back.n_electrons == ints.n_electrons
    print("PASS 12: byte-identical reruns with fixed seed; exact FCIDUMP "
          "round trip")
