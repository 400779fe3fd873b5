import math
import random
from dataclasses import replace

import numpy as np
import pytest

import oracle
from tccbench import diagnostics
from tccbench import (
    AmplitudeVector,
    BasisSplit,
    OrbitalBasis,
    Study,
    TccConfig,
    TruncationScheme,
    assumption_b_report,
    cas_fci_solve,
    ci_to_cluster,
    enumerate_truncated_space,
    error_decomposition,
    error_representation_check,
    fock_norm_identity_check,
    gap_report,
    linear_limit_scaling_study,
    monotonicity_probe,
    quadratic_scaling_study,
    solve_dual,
    solve_tcc,
    tcc_jacobian,
)
from tccbench.determinants import SPACE_CAS, SPACE_TRUNCATED, ExcitationIndex
from tccbench.diagnostics import STUDY_CONFIG, ScalingRow, _fit_slope
from tccbench.errors import (
    InputError, InsufficientPointsError, MissingReferenceError, SingularJacobianError)
from tccbench.hamiltonian import FockSpectrum, build_dense_hamiltonian, fock_diagonal_vector
from tccbench.tcc import (
    MODE_FULL,
    MODE_RANK,
    TailoredHamiltonian,
    cas_space,
    external_space,
    tcc_energy,
    truncation_positions,
)


def _to_amplitudes(vec, indices):
    return AmplitudeVector(SPACE_TRUNCATED,
                           {mu: float(x) for mu, x in zip(indices, vec)}, scheme="full")


def _cas_amplitudes(system):
    _, states = cas_fci_solve(system.ints, system.basis, system.split)
    t = ci_to_cluster(states[0])
    return AmplitudeVector(SPACE_CAS, dict(t.entries))


def _solve_full(system, t_cas):
    config = TccConfig(max_iterations=400, tolerance=1e-11, diis=8)
    result = solve_tcc(t_cas, system.ints, system.split, system.fock, config)
    assert result.converged
    return result


# ---------------------------------------------------------------------------
# Gap report
# ---------------------------------------------------------------------------

def test_gap_report_on_synthetic_spectrum():
    lam = np.array([-1.0, -0.5, 0.3, 0.8])
    fock = FockSpectrum(lam, float(lam[0]), 0.0)
    basis = OrbitalBasis(4, 1)
    report = gap_report(fock, BasisSplit(basis, 2))
    assert report.eps0 == pytest.approx(0.8)        # lam3 - lam2
    assert report.eps0_ext == pytest.approx(1.3)    # lam3 - lam1
    assert report.homo_lumo == pytest.approx(0.5)   # lam2 - lam1
    assert report.min_eps_ext == pytest.approx(1.3)  # 1 -> 3
    assert report.all_external_positive


def test_gap_report_negative_gap_is_reported_not_raised():
    lam = np.array([1.0, 2.0, 0.5, 3.0])
    fock = FockSpectrum(lam, 1.0, 0.0)
    basis = OrbitalBasis(4, 1)
    report = gap_report(fock, BasisSplit(basis, 2))
    assert report.eps0 == pytest.approx(-1.5)
    assert report.min_eps_ext == pytest.approx(-0.5)  # 1 -> 3 below the HOMO
    assert not report.all_external_positive


def test_gap_report_at_k_equals_big_k(pairing4):
    basis = pairing4.basis
    report = gap_report(pairing4.fock, BasisSplit(basis, basis.n_orbitals))
    assert np.isinf(report.eps0) and np.isinf(report.min_eps_ext)


# ---------------------------------------------------------------------------
# Monotonicity probe / assumption report
# ---------------------------------------------------------------------------

def test_monotonicity_probe_linear_limit(pairing4_g0):
    """W = 0: the residual is exactly D t, so the probe constants are exact."""
    system = pairing4_g0
    t_cas = AmplitudeVector(SPACE_CAS, {})
    t_star = _solve_full(system, t_cas).t
    probe = monotonicity_probe(t_star, t_cas, system.ints, system.split,
                               system.fock, delta=0.1, samples=10, seed=3)
    indices = enumerate_truncated_space(system.split, TruncationScheme(MODE_FULL))
    min_eps = min(system.fock.epsilon_of(mu) for mu in indices)
    assert probe.gamma_hat_l2 == min_eps
    assert abs(probe.gamma_hat - 1.0) <= 1e-12
    assert abs(probe.l_hat - 1.0) <= 1e-12


def test_monotonicity_probe_interacting(pairing4):
    t_cas = _cas_amplitudes(pairing4)
    t_star = _solve_full(pairing4, t_cas).t
    probe = monotonicity_probe(t_star, t_cas, pairing4.ints, pairing4.split,
                               pairing4.fock, delta=0.05, samples=10, seed=0)
    assert np.isfinite(probe.gamma_hat) and np.isfinite(probe.l_hat)
    # the V-denominator quotient is always bounded by the dual-norm ratio
    assert probe.gamma_hat <= probe.l_hat + 1e-12
    # same seed, same answer
    again = monotonicity_probe(t_star, t_cas, pairing4.ints, pairing4.split,
                               pairing4.fock, delta=0.05, samples=10, seed=0)
    assert again == probe


def test_monotonicity_probe_requires_converged_reference(pairing4):
    t_cas = _cas_amplitudes(pairing4)
    with pytest.raises(MissingReferenceError):
        monotonicity_probe(None, t_cas, pairing4.ints, pairing4.split,
                           pairing4.fock)
    bogus = AmplitudeVector(SPACE_TRUNCATED, {}, scheme="full")
    with pytest.raises(MissingReferenceError):
        monotonicity_probe(bogus, t_cas, pairing4.ints, pairing4.split,
                           pairing4.fock)


def test_assumption_report_linear_limit(pairing4_g0):
    """W = 0 and empty CAS amplitudes: every fluctuation scalar vanishes."""
    system = pairing4_g0
    t_cas = AmplitudeVector(SPACE_CAS, {})
    t_star = _solve_full(system, t_cas).t
    report = assumption_b_report(t_star, t_cas, system.ints, system.split,
                                 system.fock, samples=5, seed=1)
    assert report.omega0 == 0.0
    assert report.omega_cas == 0.0
    assert report.lipschitz_star <= 1e-13
    assert report.margin == pytest.approx(report.gap.eps0)
    assert report.gap.eps0 == pytest.approx(1.0)  # lambda_7 - lambda_6


def test_assumption_report_interacting(pairing4):
    t_cas = _cas_amplitudes(pairing4)
    t_star = _solve_full(pairing4, t_cas).t
    report = assumption_b_report(t_star, t_cas, pairing4.ints, pairing4.split,
                                 pairing4.fock, samples=10, seed=0)
    assert report.omega_cas > 0.0
    assert report.lipschitz_star > 0.0
    assert report.margin == pytest.approx(
        report.gap.eps0 - report.omega0 - report.omega_cas - report.lipschitz_star)


def _dense_smallness(system, t_star, t_cas, samples, seed):
    """omega0 and L_* of assumption_b_report from a dense W_CAS = e^{-T^CAS} W e^{T^CAS}
    and A = W_CAS - P W_CAS P, built from the identity."""
    space = external_space(system.split)
    op = TailoredHamiltonian(t_cas, system.ints, system.split)
    w = op.ham - np.diag(fock_diagonal_vector(system.fock, system.basis))
    eye = np.eye(space.dim)
    w_cas = op.cas.exp_apply(op.t_cas, eye, -1) @ w @ op.cas.exp_apply(op.t_cas, eye, +1)
    p = system.split.cas_determinants().astype(float)
    a = w_cas - (p[:, None] * w_cas) * p[None, :]
    ref = space.reference_state()

    def o_map(vec):
        return space.exp_apply(vec, a @ space.exp_apply(vec, ref, +1), -1) - a @ ref

    pairs = diagnostics._ball_pairs(space.embed(t_star), space.epsilon(system.fock),
                                    0.1, samples, seed)
    l_star = max(np.linalg.norm(o_map(t1) - o_map(t2)) / np.linalg.norm(t1 - t2)
                 for t1, t2 in pairs)
    return float(ref @ w_cas @ ref), float(l_star)


@pytest.mark.parametrize("model", ["pairing4", "hubbard4_mo"])
def test_assumption_report_matches_the_dense_w_cas(model, request):
    system = request.getfixturevalue(model)
    t_cas = _cas_amplitudes(system)
    t_star = _solve_full(system, t_cas).t
    report = assumption_b_report(t_star, t_cas, system.ints, system.split, system.fock,
                                 samples=4, seed=3)
    omega0, l_star = _dense_smallness(system, t_star, t_cas, samples=4, seed=3)
    assert omega0 != 0.0 and l_star > 0.0
    assert abs(report.omega0 - omega0) <= 1e-12 * abs(omega0)
    assert abs(report.lipschitz_star - l_star) <= 1e-12 * l_star


@pytest.fixture(scope="module")
def pairing4_root(pairing4):
    t_cas = _cas_amplitudes(pairing4)
    return _solve_full(pairing4, t_cas).t, t_cas


def test_assumption_report_builds_one_operator(pairing4, pairing4_root, monkeypatch):
    built, residuals = [], []

    class Counted(TailoredHamiltonian):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

        def residual(self, t):
            residuals.append(t)
            return super().residual(t)

    monkeypatch.setattr(diagnostics, "TailoredHamiltonian", Counted)
    t_star, t_cas = pairing4_root
    samples = 3
    assumption_b_report(t_star, t_cas, pairing4.ints, pairing4.split, pairing4.fock,
                        samples=samples, seed=0)
    # the reference check, two per sampled pair and one per coordinate probe
    assert len(built) == 1
    assert len(residuals) == 1 + 2 * samples + len(external_space(pairing4.split))


@pytest.mark.parametrize("delta,samples", [
    (0.0, 5), (-0.1, 5), (float("nan"), 5), (float("inf"), 5), (0.1, 0), (0.1, -2),
])
def test_sampling_ball_is_checked_by_the_library(pairing4, pairing4_root, delta, samples):
    # delta=0 divided by zero in assumption_b_report; samples=0 reported an
    # L_* of 0 from no samples
    t_star, t_cas = pairing4_root
    for probe in (monotonicity_probe, assumption_b_report):
        with pytest.raises(InputError):
            probe(t_star, t_cas, pairing4.ints, pairing4.split, pairing4.fock,
                  delta=delta, samples=samples, seed=0)


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_seed_is_checked_by_the_library(pairing4, pairing4_root, seed):
    # numpy's default_rng raised on both; random.Random(-1) gives seed 1's stream
    t_star, t_cas = pairing4_root
    with pytest.raises(ValueError, match="seed"):
        assumption_b_report(t_star, t_cas, pairing4.ints, pairing4.split, pairing4.fock,
                            samples=2, seed=seed)
    with pytest.raises(ValueError, match="seed"):
        linear_limit_scaling_study(pairing4.fock, pairing4.split, seed=seed)


@pytest.mark.parametrize("delta", [0.1, 3.0])
def test_ball_pairs_lie_in_the_ball(pairing4, pairing4_root, delta):
    space = external_space(pairing4.split)
    center, eps = space.embed(pairing4_root[0]), space.epsilon(pairing4.fock)
    pairs = diagnostics._ball_pairs(center, eps, delta, 50, seed=7)
    assert len(pairs) == 50
    for p in (p for pair in pairs for p in pair):
        assert np.sqrt((eps * (p - center) ** 2).sum()) <= delta * (1 + 1e-12)


def test_ball_pairs_follow_the_seed():
    center, eps = np.zeros(5), np.linspace(0.5, 2.5, 5)
    first, again, other = (diagnostics._ball_pairs(center, eps, 0.1, 4, seed)
                           for seed in (3, 3, 4))
    assert all(np.array_equal(a, b) for pa, pb in zip(first, again) for a, b in zip(pa, pb))
    assert not any(np.array_equal(a, b) for pa, pb in zip(first, other)
                   for a, b in zip(pa, pb))


@pytest.mark.parametrize("seed", [0, 5, np.int64(5), 2**70], ids=["0", "5", "int64", "2**70"])
def test_normals_are_box_muller_on_random(seed):
    rng = random.Random(int(seed))
    scalar = [math.sqrt(-2.0 * math.log(1.0 - rng.random())) * math.cos(2.0 * math.pi * rng.random())
              for _ in range(64)]
    assert diagnostics._Stream(seed).normals(64).tolist() == scalar


def test_normals_are_standard():
    z = diagnostics._Stream(11).normals(20_000)
    assert abs(z.mean()) <= 0.05 and abs(z.var() - 1.0) <= 0.05


# ---------------------------------------------------------------------------
# Fock-norm identity
# ---------------------------------------------------------------------------

def test_fock_norm_identity_random_vectors(pairing4, hubbard2_mo, rng):
    for system in (pairing4, hubbard2_mo):
        indices = enumerate_truncated_space(system.split,
                                            TruncationScheme(MODE_FULL))
        for _ in range(50):
            vec = 0.5 * rng.standard_normal(len(indices))
            t = _to_amplitudes(vec, indices)
            check = fock_norm_identity_check(t, system.fock, system.basis)
            assert check.deviation <= 1e-12
            assert check.rho >= 1.0 - 1e-12


def test_fock_norm_single_entry_has_unit_ratio(pairing4):
    """One amplitude, no chaining: the operator norm equals the V-norm."""
    mu = ExcitationIndex((1, 2), (7, 8))
    t = AmplitudeVector(SPACE_TRUNCATED, {mu: 0.4}, scheme="full")
    check = fock_norm_identity_check(t, pairing4.fock, pairing4.basis)
    assert check.deviation <= 1e-13
    assert check.rho == pytest.approx(1.0, abs=1e-12)


def test_fock_norm_operator_norm_matches_power_iteration(pairing4, rng):
    indices = enumerate_truncated_space(pairing4.split, TruncationScheme(MODE_FULL))
    vec = 0.3 * rng.standard_normal(len(indices))
    t = _to_amplitudes(vec, indices)
    check = fock_norm_identity_check(t, pairing4.fock, pairing4.basis)

    # rebuild the weighted operator matrix independently and power-iterate
    from tccbench.determinants import enumerate_determinants
    from tccbench.determinants import support_space

    basis = pairing4.basis
    dets = enumerate_determinants(basis)
    refpos = basis.determinants.reference
    diag = np.array([sum(pairing4.fock.lambdas[p - 1] for p in d.occ)
                     for d in dets]) - pairing4.fock.lambda0
    dim = len(dets)
    cols = [refpos] + [i for i in range(dim) if i != refpos]
    a = np.zeros((dim, len(cols)))
    space = support_space(t, basis)
    for jcol, j in enumerate(cols):
        e = np.zeros(dim)
        e[j] = 1.0
        a[:, jcol] = space.apply(space.embed(t), e)
    exc = [i for i in range(dim) if i != refpos]
    d_out = np.sqrt(diag[exc])
    d_in = np.concatenate(([1.0], d_out))
    m = (d_out[:, None] * a[exc, :]) / d_in[None, :]
    assert abs(check.operator_norm - oracle.power_iteration_norm(m)) <= 1e-8


# ---------------------------------------------------------------------------
# Jacobian and dual solves
# ---------------------------------------------------------------------------

def test_jacobian_matches_finite_differences(hubbard2_mo, pairing4):
    from tccbench import tcc_energy

    for system, scheme in ((hubbard2_mo, TruncationScheme(MODE_FULL)),
                           (pairing4, TruncationScheme(MODE_RANK, 2))):
        t_cas = _cas_amplitudes(system)
        indices = enumerate_truncated_space(system.split, scheme)
        result = solve_tcc(t_cas, system.ints, system.split, system.fock,
                           TccConfig(max_iterations=400, tolerance=1e-11, diis=8,
                                     truncation=scheme))
        assert result.converged
        t0 = np.array([result.t.get(mu) for mu in indices])

        jac, grad, res = tcc_jacobian(_to_amplitudes(t0, indices), t_cas,
                                      system.ints, system.split, indices)
        op = TailoredHamiltonian(t_cas, system.ints, system.split)
        kept = truncation_positions(system.split, scheme)

        def residual(vec):
            full = np.zeros(len(op.space))
            full[kept] = vec
            return op.residual(full)[kept]

        fd = oracle.finite_difference_jacobian(residual, t0, h=1e-6)
        assert np.linalg.norm(jac - fd) / np.linalg.norm(jac) <= 1e-6
        assert np.linalg.norm(res) <= 1e-10

        # gradient column: finite differences of the energy
        def energy(vec):
            return tcc_energy(_to_amplitudes(vec, indices), t_cas,
                              system.ints, system.split)

        for col in range(len(indices)):
            e = np.zeros(len(indices))
            e[col] = 1e-6
            fd_g = (energy(t0 + e) - energy(t0 - e)) / 2e-6
            assert abs(grad[col] - fd_g) <= 1e-6 * max(1.0, abs(grad[col]))


def test_dual_solve_adjoint_consistency(pairing4, rng):
    t_cas = _cas_amplitudes(pairing4)
    scheme = TruncationScheme(MODE_RANK, 2)
    result = solve_tcc(t_cas, pairing4.ints, pairing4.split, pairing4.fock,
                       TccConfig(max_iterations=400, tolerance=1e-11, diis=8,
                                 truncation=scheme))
    assert result.converged
    z = solve_dual(result.t, t_cas, pairing4.ints, pairing4.split, scheme)
    indices = enumerate_truncated_space(pairing4.split, scheme)
    jac, grad, _ = tcc_jacobian(result.t, t_cas, pairing4.ints, pairing4.split,
                                indices)
    zv = np.array([z.get(mu) for mu in indices])
    # <Df(t) u, z> = E'(t)(u) for 20 random directions u
    for _ in range(20):
        u = rng.standard_normal(len(indices))
        assert abs(grad @ u - (jac @ u) @ zv) <= 1e-9 * max(1.0, np.linalg.norm(u))


def test_dual_solve_raises_on_a_singular_adjoint(hubbard2_mo):
    """The rank:1 root of hubbard:2,1.0,4.0 --mo --k 2: its 4 x 4 Jacobian is singular."""
    system = hubbard2_mo
    scheme = TruncationScheme(MODE_RANK, 1)
    study = _study(system)
    root = study.root(TccConfig(truncation=scheme))
    jac, _, _ = tcc_jacobian(root.t, study.t_cas, system.ints, system.split,
                             enumerate_truncated_space(system.split, scheme))
    assert jac.shape == (4, 4)
    with pytest.raises(SingularJacobianError, match="adjoint system singular"):
        solve_dual(root.t, study.t_cas, system.ints, system.split, scheme)


def test_dual_solve_linear_limit_is_zero(pairing4_g0):
    """W = 0: the energy is flat, so the adjoint solution vanishes."""
    system = pairing4_g0
    t_cas = AmplitudeVector(SPACE_CAS, {})
    t_star = _solve_full(system, t_cas).t
    z = solve_dual(t_star, t_cas, system.ints, system.split,
                   TruncationScheme(MODE_FULL))
    assert all(abs(v) <= 1e-12 for v in z.entries.values())


def test_dual_solve_empty_space(pairing4):
    basis = pairing4.basis
    split = BasisSplit(basis, basis.n_orbitals)
    z = solve_dual(AmplitudeVector(SPACE_TRUNCATED, {}, scheme="full"),
                   AmplitudeVector(SPACE_CAS, {}), pairing4.ints, split,
                   TruncationScheme(MODE_FULL))
    assert len(z) == 0


# ---------------------------------------------------------------------------
# Error decomposition
# ---------------------------------------------------------------------------

def _study(system):
    return Study(system.ints, system.split, system.fock)


def test_error_decomposition_full_external(pairing4):
    """Untruncated solve with CAS-FCI amplitudes: only the CAS-root term is left."""
    dec = error_decomposition(_study(pairing4), TruncationScheme(MODE_FULL))
    assert dec.d_eps <= 1e-10
    assert dec.d_eps_cas <= 1e-10
    assert dec.dE_cas <= 1e-10
    assert dec.triangle_slack >= -1e-10
    assert abs(dec.dE - dec.d_eps_cas_star) <= 1e-9


def test_error_decomposition_truncated(pairing4):
    dec = error_decomposition(_study(pairing4), TruncationScheme(MODE_RANK, 2))
    assert dec.d_eps > 1e-8            # real truncation error
    assert dec.d_eps_cas <= 1e-10      # t_cas is the CAS-FCI root
    assert dec.dE_cas <= 1e-10
    assert dec.triangle_slack >= -1e-10
    assert dec.dE <= dec.d_eps + dec.d_eps_cas + dec.d_eps_cas_star + 1e-10


@pytest.mark.parametrize("scheme", [TruncationScheme(MODE_RANK, 1),
                                    TruncationScheme(MODE_RANK, 2),
                                    TruncationScheme(MODE_FULL)], ids=lambda s: s.describe())
@pytest.mark.parametrize("model", ["pairing4", "hubbard4_mo"])
def test_root_energy_is_the_energy_of_its_amplitudes(model, scheme, request):
    # the decomposition and the scaling study read their energies off the roots
    system = request.getfixturevalue(model)
    study = _study(system)
    root = study.root(replace(STUDY_CONFIG, truncation=scheme))
    assert root.energy == tcc_energy(root.t, study.t_cas, system.ints, system.split)


def _php_energy(system, t_cas):
    """<phi_0, P H P e^{T^CAS} phi_0> with the dense CAS projector P."""
    ham = build_dense_hamiltonian(system.ints, system.basis)
    p = system.split.cas_determinants().astype(float)
    php = (p[:, None] * ham) * p[None, :]
    cas = cas_space(system.split)
    v = php @ cas.exp_apply(cas.embed(t_cas), cas.reference_state(), +1)
    return float(v[cas.reference])


def test_error_decomposition_perturbed_cas(pairing4):
    study = _study(pairing4)
    dec = error_decomposition(study, TruncationScheme(MODE_FULL),
                              t_cas_source="PERTURBED", noise=1e-3, seed=5)
    assert dec.dE_cas > 1e-8           # perturbed CAS amplitudes cost energy
    draws = diagnostics._Stream(5).normals(len(study.t_cas))   # the perturbation drawn
    perturbed = AmplitudeVector(SPACE_CAS, {mu: val + 1e-3 * z for (mu, val), z
                                            in zip(study.t_cas.sorted_items(), draws)})
    dense = abs(_php_energy(pairing4, perturbed) - _php_energy(pairing4, study.t_cas))
    assert abs(dec.dE_cas - dense) <= 1e-14
    assert dec.d_eps_cas > 1e-8
    assert dec.triangle_slack >= -1e-10
    with pytest.raises(ValueError):
        error_decomposition(study, TruncationScheme(MODE_FULL), t_cas_source="WHAT")


# ---------------------------------------------------------------------------
# Error representation
# ---------------------------------------------------------------------------

def test_representation_remainder_linear_limit(pairing4_g0, rng):
    """W = 0 makes the energy constant: the identity closes to round-off."""
    system = pairing4_g0
    t_cas = AmplitudeVector(SPACE_CAS, {})
    full = TruncationScheme(MODE_FULL)
    t_star = _solve_full(system, t_cas).t
    z_star = solve_dual(t_star, t_cas, system.ints, system.split, full)
    indices = enumerate_truncated_space(system.split, full)
    t_d = _to_amplitudes(0.05 * rng.standard_normal(len(indices)), indices)
    z_d = solve_dual(t_d, t_cas, system.ints, system.split, full)
    check = error_representation_check(t_d, z_d, t_star, z_star, t_cas,
                                       system.ints, system.split, system.fock)
    assert abs(check.remainder) <= 1e-10
    assert check.distance > 0.0


def test_representation_zero_distance(pairing4):
    t_cas = _cas_amplitudes(pairing4)
    full = TruncationScheme(MODE_FULL)
    t_star = _solve_full(pairing4, t_cas).t
    z_star = solve_dual(t_star, t_cas, pairing4.ints, pairing4.split, full)
    check = error_representation_check(t_star, z_star, t_star, z_star, t_cas,
                                       pairing4.ints, pairing4.split,
                                       pairing4.fock)
    assert check.distance <= 1e-12
    assert check.cubic_ratio is None
    assert abs(check.remainder) <= 1e-10


@pytest.mark.parametrize("model", ["pairing4", "hubbard4_mo"])
def test_representation_matches_the_full_jacobian(model, request):
    """rho* read off one Jacobian column equals rho* from the whole Jacobian."""
    system = request.getfixturevalue(model)
    study = _study(system)
    truncated = replace(STUDY_CONFIG, truncation=TruncationScheme(MODE_RANK, 2))
    t_d, z_d = study.root(truncated).t, study.dual(truncated)
    t_star, z_star = study.root(STUDY_CONFIG).t, study.dual(STUDY_CONFIG)
    args = (study.t_cas, system.ints, system.split)
    check = error_representation_check(t_d, z_d, t_star, z_star, *args, system.fock)

    space = external_space(system.split)
    td, zd, ts, zs = (space.embed(x) for x in (t_d, z_d, t_star, z_star))
    jac, grad, f_d = tcc_jacobian(t_d, *args, space.indices)
    rho_primal = -(f_d @ (zs - zd))
    rho_dual = grad @ (ts - td) - (jac.T @ zd) @ (ts - td)
    want = 2.0 * (tcc_energy(t_star, *args) - tcc_energy(t_d, *args)) - rho_primal - rho_dual
    assert check.distance > 0.0 and want != 0.0
    assert abs(check.remainder - want) <= 1e-14


def test_representation_cubic_ratio_bounded_over_sweep(pairing4):
    t_cas = _cas_amplitudes(pairing4)
    full = TruncationScheme(MODE_FULL)
    t_star = _solve_full(pairing4, t_cas).t
    z_star = solve_dual(t_star, t_cas, pairing4.ints, pairing4.split, full)
    ratios = []
    for n in (1, 2, 3):
        scheme = TruncationScheme(MODE_RANK, n)
        result = solve_tcc(t_cas, pairing4.ints, pairing4.split, pairing4.fock,
                           TccConfig(max_iterations=400, tolerance=1e-11,
                                     diis=8, truncation=scheme))
        assert result.converged
        z_d = solve_dual(result.t, t_cas, pairing4.ints, pairing4.split, scheme)
        check = error_representation_check(result.t, z_d, t_star, z_star, t_cas,
                                           pairing4.ints, pairing4.split,
                                           pairing4.fock)
        if check.cubic_ratio is not None:
            ratios.append(check.cubic_ratio)
    assert len(ratios) >= 2
    assert all(np.isfinite(r) for r in ratios)
    # coarse-to-fine: the cubic quotient must not blow up as t_d -> t_*
    assert max(ratios) <= 100.0 * max(ratios[0], 1e-6)


# ---------------------------------------------------------------------------
# Scaling studies
# ---------------------------------------------------------------------------

def test_quadratic_scaling_slope(pairing4):
    family = [TruncationScheme(MODE_RANK, n) for n in (1, 2, 3)]
    family.append(TruncationScheme(MODE_FULL))
    study = quadratic_scaling_study(_study(pairing4), family)
    assert 1.7 <= study.slope <= 2.3
    rows = {r.descriptor: r for r in study.rows}
    assert rows["full"].distance <= 1e-12 and not rows["full"].used_in_fit
    assert rows["rank:1"].distance >= rows["rank:2"].distance


def test_linear_limit_scaling_slope(pairing4_g0):
    study = linear_limit_scaling_study(pairing4_g0.fock, pairing4_g0.split, seed=0)
    assert abs(study.slope - 2.0) <= 1e-6
    for row in study.rows:
        if row.used_in_fit:
            assert row.energy_error == pytest.approx(row.distance**2, rel=1e-12)


def test_fit_requires_three_points():
    rows = [ScalingRow("a", 0.1, 0.01, 0.0), ScalingRow("b", 0.2, 0.04, 0.0),
            ScalingRow("c", 0.0, 0.0, 0.0, used_in_fit=False)]
    with pytest.raises(InsufficientPointsError):
        _fit_slope(rows)
