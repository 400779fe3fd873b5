import math
import random
import re
import tracemalloc
from dataclasses import asdict, fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

import oracle
from tccbench import diagnostics, tcc
from tccbench import (
    AmplitudeVector,
    AssumptionReport,
    BasisSplit,
    OrbitalBasis,
    Study,
    TccConfig,
    TruncationScheme,
    assumption_b_report,
    canonicalize_core,
    cas_fci_solve,
    ci_to_cluster,
    enumerate_truncated_space,
    error_decomposition,
    error_representation_check,
    fci_solve,
    fock_matrix,
    gap_report,
    hubbard_model,
    linear_limit_scaling_study,
    monotonicity_probe,
    pairing_model,
    quadratic_scaling_study,
    solve_dual,
    solve_tcc,
    split_amplitudes,
    tcc_jacobian,
)
from tccbench.determinants import (
    SPACE_CAS, SPACE_EXT, SPACE_FULL, SPACE_TRUNCATED)
from tccbench.diagnostics import STUDY_CONFIG, MonotonicityProbe, ScalingRow, _fit_slope
from tccbench.errors import InputError, SolverError
from tccbench.hamiltonian import (
    FockSpectrum, NonCanonicalOrbitalsWarning, build_dense_hamiltonian, fock_diagonal_vector)
from tccbench.tcc import (
    MODE_FOI,
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
    _, states = cas_fci_solve(system.ints, system.split)
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


@pytest.fixture(scope="module")
def hubbard4_site():
    """The 4-site chain in the site basis at k = 6, where 55 external eps_mu are <= 0, down
    to -8.0; t_* and t^CAS are the FCI split, so t_* passes the ball's residual check."""
    ints, basis = hubbard_model(4, 1.0, 2.0), OrbitalBasis(8, 4)
    split = BasisSplit(basis, 6)
    _, states = fci_solve(ints, basis)
    t_cas, t_star = split_amplitudes(ci_to_cluster(states[0]), split)
    with pytest.warns(NonCanonicalOrbitalsWarning):
        study = Study(ints, split, t_cas=t_cas)
    return SimpleNamespace(split=split, fock=study.fock, study=study, t_star=t_star)


_ZERO = AmplitudeVector(SPACE_EXT)
WEIGHTED_CALLS = {
    "monotonicity_probe": lambda s: monotonicity_probe(s.study, s.t_star),
    "assumption_b_report": lambda s: assumption_b_report(s.study, s.t_star),
    "error_representation_check": lambda s: error_representation_check(
        s.study, _ZERO, _ZERO, s.t_star, _ZERO),
    "linear_limit_scaling_study": lambda s: linear_limit_scaling_study(s.study),
    "fock_norm_identity_check": lambda s: oracle.fock_norm_identity_check(s.t_star, s.fock,
                                                                          s.split.basis),
    "quadratic_scaling_study": lambda s: quadratic_scaling_study(
        s.study, [TruncationScheme(MODE_RANK, 1)]),
}


@pytest.mark.parametrize("call", WEIGHTED_CALLS.values(), ids=WEIGHTED_CALLS)
def test_non_positive_weights_are_refused_by_name(call, hubbard4_site):
    # sqrt(eps) made the sampled points NaN (an amplitude refusal), the representation
    # check returned distance nan, and the scaling study found no usable row
    with pytest.raises(SolverError,
                       match=r"^eps_mu <= 0 for 1,2,3,4->5,6,7,8: -8\.0$"):
        call(hubbard4_site)


# ---------------------------------------------------------------------------
# Monotonicity probe / assumption report
# ---------------------------------------------------------------------------

def test_monotonicity_probe_linear_limit(pairing4_g0):
    """W = 0: the residual is exactly D t, so the probe constants are exact."""
    system = pairing4_g0
    t_cas = AmplitudeVector(SPACE_CAS, {})
    t_star = _solve_full(system, t_cas).t
    probe = monotonicity_probe(_study(system, t_cas), t_star, delta=0.1, samples=10, seed=3)
    indices = enumerate_truncated_space(system.split, TruncationScheme(MODE_FULL))
    min_eps = min(oracle.epsilon(system.fock, mu) for mu in indices)
    assert probe.gamma_hat_l2 == min_eps
    assert abs(probe.gamma_hat - 1.0) <= 1e-12
    assert abs(probe.l_hat - 1.0) <= 1e-12


def test_monotonicity_probe_interacting(pairing4):
    t_cas = _cas_amplitudes(pairing4)
    t_star = _solve_full(pairing4, t_cas).t
    probe = monotonicity_probe(_study(pairing4, t_cas), t_star, delta=0.05, samples=10, seed=0)
    assert np.isfinite(probe.gamma_hat) and np.isfinite(probe.l_hat)
    # the V-denominator quotient is always bounded by the dual-norm ratio
    assert probe.gamma_hat <= probe.l_hat + 1e-12
    # same seed, same answer
    again = monotonicity_probe(_study(pairing4, t_cas), t_star, delta=0.05, samples=10, seed=0)
    assert again == probe


def test_monotonicity_probe_requires_converged_reference(pairing4):
    t_cas = _cas_amplitudes(pairing4)
    with pytest.raises(InputError, match="^a converged reference amplitude vector is required$"):
        monotonicity_probe(_study(pairing4, t_cas), None)
    bogus = AmplitudeVector(SPACE_TRUNCATED, {}, scheme="full")
    with pytest.raises(InputError, match=r"^reference residual \S+ exceeds 1e-08$"):
        monotonicity_probe(_study(pairing4, t_cas), bogus)


BALL_CALLS = {"monotonicity_probe": monotonicity_probe, "assumption_b_report": assumption_b_report}


@pytest.mark.parametrize("report", BALL_CALLS.values(), ids=BALL_CALLS)
def test_the_ball_is_checked_before_the_operator_is_built(report, pairing4, hubbard4_site,
                                                          monkeypatch):
    # the operator, dense H included, came first: monotonicity_probe(None, ...) on
    # pairing:6 at k = 8 built the dim-924 H before it refused the missing reference
    def refuse(*args, **kwargs):
        raise AssertionError("the tailored operator was built before the ball was checked")

    monkeypatch.setattr(diagnostics, "TailoredHamiltonian", refuse)
    zero, no_cas = AmplitudeVector(SPACE_EXT), AmplitudeVector(SPACE_CAS)
    s = _study(pairing4, no_cas)
    with pytest.raises(InputError, match="converged reference"):
        report(s, None)
    for delta, samples in ((0.0, 20), (0.1, 0)):
        with pytest.raises(InputError, match="need finite delta > 0 and samples >= 1"):
            report(s, zero, delta=delta, samples=samples)
    with pytest.raises(InputError, match="k = K leaves the external space empty"):
        basis = pairing4.basis
        report(Study(pairing4.ints, BasisSplit(basis, basis.n_orbitals), t_cas=no_cas), zero)
    h = hubbard4_site
    with pytest.raises(SolverError, match=r"^eps_mu <= 0 for 1,2,3,4->5,6,7,8"):
        report(h.study, h.t_star)


def test_the_reports_take_no_fock_spectrum(pairing4, pairing4_root):
    # each took ints, split and a Fock spectrum apart: pairing:4,0.5,2.0's spectrum
    # weighted the pairing:4,0.5,1.0 root, and gap.eps0 read 2.0 for 1.0
    t_star, t_cas = pairing4_root
    s, other = pairing4, fock_matrix(pairing_model(4, 0.5, 2.0), pairing4.basis)
    calls = (lambda: monotonicity_probe(t_star, t_cas, s.ints, s.split, other, samples=1),
             lambda: assumption_b_report(t_star, t_cas, s.ints, s.split, other, samples=1),
             lambda: error_representation_check(t_star, _ZERO, t_star, _ZERO, t_cas, s.ints,
                                                s.split, other),
             lambda: monotonicity_probe(_study(s), t_star, other),
             lambda: assumption_b_report(_study(s), t_star, fock=other),
             lambda: error_representation_check(_study(s), t_star, _ZERO, t_star, _ZERO, other))
    for call in calls:
        with pytest.raises(TypeError):
            call()


def test_t_cas_enters_only_through_the_study(pairing4, pairing4_root):
    # each took t_cas= beside the Study, so a dual of one t^CAS could meet a root of another
    t_star, t_cas = pairing4_root
    study = _study(pairing4, t_cas)
    calls = (lambda: study.root(STUDY_CONFIG, t_cas),
             lambda: study.root(STUDY_CONFIG, t_cas=t_cas),
             lambda: error_decomposition(study, TruncationScheme(MODE_FULL), t_cas=t_cas),
             lambda: monotonicity_probe(study, t_star, t_cas=t_cas),
             lambda: assumption_b_report(study, t_star, t_cas=t_cas),
             lambda: error_representation_check(study, t_star, _ZERO, t_star, _ZERO, t_cas=t_cas),
             lambda: diagnostics._ball(study, t_star, t_cas, 0.1, 1, 0))
    for call in calls:
        with pytest.raises(TypeError):
            call()


def test_the_assumption_report_gap_is_that_of_the_studys_integrals(pairing4, pairing4_root):
    report = assumption_b_report(_study(pairing4), pairing4_root[0], samples=1)
    assert report.gap == gap_report(fock_matrix(pairing4.ints, pairing4.basis), pairing4.split)
    assert report.gap.eps0 == 1.0


def test_omega_cas_sums_the_sorted_cas_amplitudes():
    # hubbard:5,1.0,2.0,4 --mo at k = 8 (67 CAS amplitudes): a numpy sum, or one in the
    # CAS space's order, gives other bits than the sum in sorted_items order
    ints, _ = canonicalize_core(hubbard_model(5, 1.0, 2.0, 4))
    basis = OrbitalBasis(ints.n_spin_orbitals, ints.n_electrons)
    split = BasisSplit(basis, 8)
    study = Study(ints, split)
    star, t_cas, fock = study.root(TccConfig(max_iterations=500, diis=8)), study.t_cas, study.fock
    assert len(t_cas) == 67
    report = assumption_b_report(study, star.t, samples=1)
    assert report.omega_cas == sum(abs(v * oracle.epsilon(fock, s))
                                   for s, v in t_cas.sorted_items())


def test_assumption_report_linear_limit(pairing4_g0):
    """W = 0 and empty CAS amplitudes: every fluctuation scalar vanishes."""
    system = pairing4_g0
    t_cas = AmplitudeVector(SPACE_CAS, {})
    t_star = _solve_full(system, t_cas).t
    report = assumption_b_report(_study(system, t_cas), t_star, samples=5, seed=1)
    assert report.omega0 == 0.0
    assert report.omega_cas == 0.0
    assert report.lipschitz_star <= 1e-13
    assert report.margin == pytest.approx(report.gap.eps0)
    assert report.gap.eps0 == pytest.approx(1.0)  # lambda_7 - lambda_6


def test_assumption_report_interacting(pairing4):
    t_cas = _cas_amplitudes(pairing4)
    t_star = _solve_full(pairing4, t_cas).t
    report = assumption_b_report(_study(pairing4, t_cas), t_star, samples=10, seed=0)
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
    ref = space.dets.reference_state()

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
    report = assumption_b_report(_study(system, t_cas), t_star, samples=4, seed=3)
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
    assumption_b_report(_study(pairing4, t_cas), t_star, samples=samples, seed=0)
    # the reference check, two per sampled pair and one per coordinate probe
    assert len(built) == 1
    assert len(residuals) == 1 + 2 * samples + len(external_space(pairing4.split))


def test_assumption_report_adds_five_smallness_fields_to_the_probe():
    assert issubclass(AssumptionReport, MonotonicityProbe)
    assert [f.name for f in fields(AssumptionReport)] == [
        *(f.name for f in fields(MonotonicityProbe)),
        "gap", "omega0", "omega_cas", "lipschitz_star", "margin"]


@pytest.mark.parametrize("model", ["pairing4", "hubbard4_mo"])
def test_assumption_report_carries_the_probe_of_its_ball(model, request):
    system = request.getfixturevalue(model)
    t_cas = _cas_amplitudes(system)
    args = (_study(system, t_cas), _solve_full(system, t_cas).t)
    report = assumption_b_report(*args, delta=0.05, samples=4, seed=7)
    probe = monotonicity_probe(*args, delta=0.05, samples=4, seed=7)
    assert {f.name: getattr(report, f.name) for f in fields(MonotonicityProbe)} == asdict(probe)


def test_coordinate_probes_are_made_one_at_a_time(pairing6):
    # the n x n diag of steps and the list of n probe vectors took 2 n^2 8 bytes
    system = pairing6
    op = TailoredHamiltonian(_cas_amplitudes(system), system.ints, system.split)
    n = len(op.space)
    assert n == 896
    t_vec = np.full(n, 1e-3)
    r = op.residual(t_vec)   # builds the tables every probe reads
    eps = op.space.epsilon(system.fock)
    tracemalloc.start()
    try:
        diagnostics._probe(op, t_vec, r, eps, [], 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8


@pytest.mark.parametrize("delta", [1e80, 1e-320])
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_non_finite_samples_are_refused(pairing4, pairing4_root, delta):
    # 1e80: overflowed samples were skipped by min and max; 1e-320: points that
    # coincide divided by zero
    t_star, t_cas = pairing4_root
    for probe in (monotonicity_probe, assumption_b_report):
        with pytest.raises(InputError, match=re.escape(f"delta={delta} ball gave a non-finite")):
            probe(_study(pairing4, t_cas), t_star, delta=delta, samples=3, seed=0)


@pytest.mark.parametrize("delta,samples", [
    (0.0, 5), (-0.1, 5), (float("nan"), 5), (float("inf"), 5), (0.1, 0), (0.1, -2),
])
def test_sampling_ball_is_checked_by_the_library(pairing4, pairing4_root, delta, samples):
    # delta=0 divided by zero in assumption_b_report; samples=0 reported an
    # L_* of 0 from no samples
    t_star, t_cas = pairing4_root
    for probe in (monotonicity_probe, assumption_b_report):
        with pytest.raises(InputError):
            probe(_study(pairing4, t_cas), t_star, delta=delta, samples=samples, seed=0)


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_seed_is_checked_by_the_library(pairing4, pairing4_root, seed):
    # numpy's default_rng raised on both; random.Random(-1) gives seed 1's stream
    t_star, t_cas = pairing4_root
    with pytest.raises(ValueError, match="seed"):
        assumption_b_report(_study(pairing4, t_cas), t_star, samples=2, seed=seed)
    with pytest.raises(ValueError, match="seed"):
        linear_limit_scaling_study(_study(pairing4), seed=seed)


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
            check = oracle.fock_norm_identity_check(t, system.fock, system.basis)
            assert check.deviation <= 1e-12
            assert check.rho >= 1.0 - 1e-12


def test_fock_norm_single_entry_has_unit_ratio(pairing4):
    """One amplitude, no chaining: the operator norm equals the V-norm."""
    mu = oracle.index_mask(4, (1, 2), (7, 8))
    t = AmplitudeVector(SPACE_TRUNCATED, {mu: 0.4}, scheme="full")
    check = oracle.fock_norm_identity_check(t, pairing4.fock, pairing4.basis)
    assert check.deviation <= 1e-13
    assert check.rho == pytest.approx(1.0, abs=1e-12)


def test_fock_norm_vext_norm_matches_the_weights(pairing4):
    fock = pairing4.fock
    mu1 = oracle.index_mask(4, (1,), (7,))
    mu2 = oracle.index_mask(4, (1, 2), (7, 8))
    t = AmplitudeVector(SPACE_EXT, {mu1: 0.3, mu2: -0.2})
    want = np.sqrt(oracle.epsilon(fock, mu1) * 0.09 + oracle.epsilon(fock, mu2) * 0.04)
    assert abs(oracle.fock_norm_identity_check(t, fock, pairing4.basis).t_vext_norm - want) <= 1e-14


def test_fock_norm_refuses_a_nonpositive_weight_and_a_full_or_cas_vector(pairing4):
    flat = FockSpectrum(np.zeros(pairing4.basis.n_orbitals), 0.0, 0.0)
    t = AmplitudeVector(SPACE_EXT, {oracle.index_mask(4, (1,), (7,)): 0.1})
    with pytest.raises(SolverError, match=r"^eps_mu <= 0 for 1->7: 0\.0$"):
        oracle.fock_norm_identity_check(t, flat, pairing4.basis)
    for tag in (SPACE_FULL, SPACE_CAS):
        with pytest.raises(InputError, match=f"needs an external vector, got '{tag}'"):
            oracle.fock_norm_identity_check(AmplitudeVector(tag), pairing4.fock, pairing4.basis)


def test_fock_norm_operator_norm_matches_power_iteration(pairing4, rng):
    indices = enumerate_truncated_space(pairing4.split, TruncationScheme(MODE_FULL))
    vec = 0.3 * rng.standard_normal(len(indices))
    t = _to_amplitudes(vec, indices)
    check = oracle.fock_norm_identity_check(t, pairing4.fock, pairing4.basis)

    # rebuild the weighted operator matrix independently and power-iterate
    from tccbench.determinants import enumerate_determinants
    from tccbench.determinants import support_space

    basis = pairing4.basis
    dets = enumerate_determinants(basis)
    refpos = basis.determinants.reference
    diag = np.array([sum(pairing4.fock.lambdas[p - 1] for p in d)
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
                                      system.ints, system.split, scheme)
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


@pytest.mark.parametrize("model", ["pairing4", "hubbard4_mo"])
def test_a_truncations_jacobian_is_a_block_of_the_full_one(model, request):
    """tcc_jacobian over a scheme: the full Jacobian's rows and columns at the scheme's
    truncation_positions, with the gradient and residual entries there."""
    system = request.getfixturevalue(model)
    study = _study(system)
    t_d = study.root(replace(STUDY_CONFIG, truncation=TruncationScheme(MODE_RANK, 2))).t
    args = (t_d, study.t_cas, system.ints, system.split)
    full = tcc_jacobian(*args, TruncationScheme(MODE_FULL))
    for scheme in (TruncationScheme(MODE_RANK, 1), TruncationScheme(MODE_RANK, 2),
                   TruncationScheme(MODE_FOI, 1)):
        kept = truncation_positions(system.split, scheme)
        jac, grad, res = tcc_jacobian(*args, scheme)
        assert jac.shape == (len(kept), len(kept)) and len(kept)
        assert np.abs(jac - full[0][np.ix_(kept, kept)]).max() <= 1e-12
        assert np.abs(grad - full[1][kept]).max() <= 1e-12
        assert np.abs(res - full[2][kept]).max() <= 1e-12


def test_dual_solve_adjoint_consistency(pairing4, rng):
    t_cas = _cas_amplitudes(pairing4)
    scheme = TruncationScheme(MODE_RANK, 2)
    result = solve_tcc(t_cas, pairing4.ints, pairing4.split, pairing4.fock,
                       TccConfig(max_iterations=400, tolerance=1e-11, diis=8,
                                 truncation=scheme))
    assert result.converged
    z = solve_dual(result.t, t_cas, pairing4.ints, pairing4.split, scheme)
    indices = enumerate_truncated_space(pairing4.split, scheme)
    jac, grad, _ = tcc_jacobian(result.t, t_cas, pairing4.ints, pairing4.split, scheme)
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
    jac, _, _ = tcc_jacobian(root.t, study.t_cas, system.ints, system.split, scheme)
    assert jac.shape == (4, 4)
    with pytest.raises(SolverError, match="adjoint system singular"):
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

def _study(system, t_cas=None):
    return Study(system.ints, system.split, t_cas=t_cas)


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
    v = php @ cas.exp_apply(cas.embed(t_cas), cas.dets.reference_state(), +1)
    return float(v[cas.reference])


def _perturbed(t_cas, seed):
    """t^CAS + 1e-3 x seeded normals, in sorted index order."""
    draws = diagnostics._Stream(seed).normals(len(t_cas))
    return AmplitudeVector(SPACE_CAS, {mu: val + 1e-3 * z
                                       for (mu, val), z in zip(t_cas.sorted_items(), draws)})


def test_error_decomposition_perturbed_cas(pairing4):
    study = _study(pairing4)
    perturbed = _perturbed(study.t_cas, 5)
    dec = error_decomposition(_study(pairing4, perturbed), TruncationScheme(MODE_FULL))
    # the figures of the former t_cas_source="PERTURBED", noise=1e-3, seed=5
    assert dec.dE_cas == pytest.approx(0.0007968191926439605, rel=0, abs=1e-12)
    assert dec.d_eps_cas == pytest.approx(0.0008857528717387542, rel=0, abs=1e-12)
    assert dec.dE == pytest.approx(0.023990250974415095, rel=0, abs=1e-12)
    dense = abs(_php_energy(pairing4, perturbed) - _php_energy(pairing4, study.t_cas))
    assert abs(dec.dE_cas - dense) <= 1e-14
    assert dec.triangle_slack >= -1e-10


@pytest.mark.parametrize("scheme", [TruncationScheme(MODE_RANK, 2), TruncationScheme(MODE_FULL)],
                         ids=lambda s: s.describe())
def test_error_decomposition_tailors_on_study_t_cas_by_default(pairing4, scheme):
    exact = _study(pairing4)
    assert (error_decomposition(_study(pairing4, exact.t_cas), scheme)
            == error_decomposition(exact, scheme))


@pytest.mark.parametrize("tagged", ["empty", "cas entries"])
def test_error_decomposition_refuses_a_foreign_t_cas_before_the_fci(pairing4, tagged,
                                                                    monkeypatch):
    # the mis-tagged copy shares the CAS-FCI entries: only its tag is foreign
    entries = {} if tagged == "empty" else dict(_study(pairing4).t_cas.entries)
    for module, name in ((diagnostics, "fci_solve"), (tcc, "cas_fci_solve")):
        monkeypatch.setattr(module, name, lambda *a, name=name, **k: pytest.fail(f"{name} ran"))
    study = _study(pairing4, AmplitudeVector(SPACE_EXT, entries))
    for call in (lambda: study.root(STUDY_CONFIG),
                 lambda: error_decomposition(study, TruncationScheme(MODE_FULL))):
        with pytest.raises(InputError, match="CAS amplitudes tagged 'ext'"):
            call()


def test_error_decomposition_on_a_given_t_cas_solves_three_roots(pairing4, monkeypatch):
    # t_* and t_d on the study's t^CAS, and the CAS-FCI root of the exact sibling
    solves, solve_tcc = [], tcc.solve_tcc

    def counted(t_cas, ints, split, fock, config):
        solves.append((t_cas, config))
        return solve_tcc(t_cas, ints, split, fock, config)

    monkeypatch.setattr(tcc, "solve_tcc", counted)
    exact_t_cas = _study(pairing4).t_cas
    study = _study(pairing4, _perturbed(exact_t_cas, 9))
    error_decomposition(study, TruncationScheme(MODE_RANK, 1))
    assert [config.truncation.describe() for _, config in solves] == ["full", "rank:1", "full"]
    assert solves[0][0] is solves[1][0] is study.t_cas
    assert solves[2][0].sorted_items() == exact_t_cas.sorted_items()


@pytest.fixture(scope="module")
def pairing4_perturbed(pairing4):
    """The exact pairing4 Study, the perturbed t^CAS of test_acceptance_10 and its Study."""
    exact = _study(pairing4)
    perturbed = _perturbed(exact.t_cas, 9)
    return exact, perturbed, _study(pairing4, perturbed)


def test_a_study_on_a_given_t_cas_solves_its_dual_there(pairing4, pairing4_perturbed):
    exact, perturbed, study = pairing4_perturbed
    config = replace(STUDY_CONFIG, truncation=TruncationScheme(MODE_RANK, 2))
    space = external_space(pairing4.split)
    got = space.embed(study.dual(config))
    want = solve_dual(study.root(config).t, perturbed, pairing4.ints, pairing4.split,
                      config.truncation)
    assert np.array_equal(got, space.embed(want))
    assert not np.array_equal(got, space.embed(exact.dual(config)))


def test_a_study_on_a_given_t_cas_scales_on_its_own_roots(pairing4_perturbed):
    exact, _, study = pairing4_perturbed
    family = [*(TruncationScheme(MODE_RANK, n) for n in (1, 2, 3)), TruncationScheme(MODE_FULL)]
    got, base = quadratic_scaling_study(study, family), quadratic_scaling_study(exact, family)
    assert got.slope == pytest.approx(1.89582, rel=0, abs=1e-5)   # the exact study's: 1.89635
    assert got.slope != base.slope
    for row, other in zip(got.rows, base.rows):
        assert np.isfinite([row.distance, row.energy_error, row.dual_distance]).all()
        if row.used_in_fit:
            assert (row.distance, row.energy_error, row.dual_distance) != (
                other.distance, other.energy_error, other.dual_distance)


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
    check = error_representation_check(_study(system, t_cas), t_d, z_d, t_star, z_star)
    assert abs(check.remainder) <= 1e-10
    assert check.distance > 0.0


def test_representation_zero_distance(pairing4):
    t_cas = _cas_amplitudes(pairing4)
    full = TruncationScheme(MODE_FULL)
    t_star = _solve_full(pairing4, t_cas).t
    z_star = solve_dual(t_star, t_cas, pairing4.ints, pairing4.split, full)
    check = error_representation_check(_study(pairing4, t_cas), t_star, z_star, t_star, z_star)
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
    check = error_representation_check(study, t_d, z_d, t_star, z_star)

    space = external_space(system.split)
    td, zd, ts, zs = (space.embed(x) for x in (t_d, z_d, t_star, z_star))
    jac, grad, f_d = tcc_jacobian(t_d, *args, STUDY_CONFIG.truncation)
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
        check = error_representation_check(_study(pairing4, t_cas), result.t, z_d, t_star,
                                           z_star)
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
    study = linear_limit_scaling_study(_study(pairing4_g0), seed=0)
    assert abs(study.slope - 2.0) <= 1e-6
    for row in study.rows:
        if row.used_in_fit:
            assert row.energy_error == pytest.approx(row.distance**2, rel=1e-12)


def test_fit_requires_three_points():
    rows = [ScalingRow("a", 0.1, 0.01, 0.0), ScalingRow("b", 0.2, 0.04, 0.0),
            ScalingRow("c", 0.0, 0.0, 0.0, used_in_fit=False)]
    with pytest.raises(InputError, match="^need at least 3 usable rows for a slope fit, have 2$"):
        _fit_slope(rows)
