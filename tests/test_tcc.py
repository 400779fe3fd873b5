import math
from types import SimpleNamespace

import numpy as np
import pytest

from tccbench import (
    AmplitudeVector,
    BasisSplit,
    OrbitalBasis,
    TailoredHamiltonian,
    TccConfig,
    TruncationScheme,
    ci_to_cluster,
    enumerate_truncated_space,
    fci_solve,
    canonicalize_core,
    cas_fci_solve,
    hubbard_model,
    solve_tcc,
    split_amplitudes,
    tcc_energy,
    tcc_residual,
)
from tccbench import tcc
from tccbench.determinants import (
    SPACE_CAS,
    SPACE_EXT,
    SPACE_FULL,
    Determinant,
    ExcitationSpace,
    classify_excitation,
    enumerate_excitations,
    excitation_space,
)
from tccbench.errors import (
    GapViolationError,
    NonFiniteAmplitudeError,
    SpaceMismatchError,
)
from tccbench.hamiltonian import FockSpectrum
from tccbench.tcc import (
    MODE_FOI, MODE_FULL, MODE_RANK, Study, cas_space, external_space, truncation_positions)


def _cas_amplitudes(system):
    _, states = cas_fci_solve(system.ints, system.basis, system.split)
    t = ci_to_cluster(states[0])
    return AmplitudeVector(SPACE_CAS, dict(t.entries))


def _empty_ext(scheme="full"):
    return AmplitudeVector(SPACE_EXT if scheme is None else "truncated", {},
                           scheme=scheme)


# ---------------------------------------------------------------------------
# Truncated index sets
# ---------------------------------------------------------------------------

def test_truncated_space_counts_by_brute_force(pairing4):
    split = pairing4.split
    basis = split.basis
    all_ext = [mu for mu in enumerate_excitations(basis)
               if classify_excitation(mu, split) == "ext"]
    full = enumerate_truncated_space(split, TruncationScheme(MODE_FULL))
    assert full == sorted(all_ext, key=lambda m: (m.rank, m.holes, m.particles))
    for n in (1, 2, 3):
        rank = enumerate_truncated_space(split, TruncationScheme(MODE_RANK, n))
        assert rank == [mu for mu in full if mu.rank <= n]
        foi = enumerate_truncated_space(split, TruncationScheme(MODE_FOI, n))
        want = [mu for mu in full
                if sum(1 for a in mu.particles if a > split.k) <= n]
        assert foi == want
    # nesting
    r1 = set(enumerate_truncated_space(split, TruncationScheme(MODE_RANK, 1)))
    r2 = set(enumerate_truncated_space(split, TruncationScheme(MODE_RANK, 2)))
    assert r1 <= r2 <= set(full)


def test_truncation_scheme_validation():
    with pytest.raises(ValueError):
        TruncationScheme("rank")
    with pytest.raises(ValueError):
        TruncationScheme("banana", 2)
    assert TruncationScheme(MODE_FULL).describe() == "full"
    assert TruncationScheme(MODE_RANK, 2).describe() == "rank:2"


# ---------------------------------------------------------------------------
# Residual and energy
# ---------------------------------------------------------------------------

def test_fci_split_is_a_residual_root(hubbard2_mo, hubbard3_mo, pairing4):
    """Amplitudes from the FCI ground state zero out the projected equations."""
    for system in (hubbard2_mo, hubbard3_mo, pairing4):
        summary, states = fci_solve(system.ints, system.basis)
        t_full = ci_to_cluster(states[0])
        t_cas, t_ext = split_amplitudes(t_full, system.split)
        r = tcc_residual(t_ext, t_cas, system.ints, system.split,
                         TruncationScheme(MODE_FULL))
        worst = max((abs(v) for v in r.entries.values()), default=0.0)
        assert worst <= 1e-10
        e = tcc_energy(t_ext, t_cas, system.ints, system.split)
        assert abs(e - summary.ground_energy) <= 1e-10


def test_space_tags_are_enforced(pairing4):
    t_cas = _cas_amplitudes(pairing4)
    bad_ext = AmplitudeVector(SPACE_FULL, {})
    with pytest.raises(SpaceMismatchError):
        tcc_energy(bad_ext, t_cas, pairing4.ints, pairing4.split)
    bad_cas = AmplitudeVector(SPACE_EXT, {})
    with pytest.raises(SpaceMismatchError):
        tcc_energy(_empty_ext(), bad_cas, pairing4.ints, pairing4.split)


def _conjugate_on(space, op, t, w, rank):
    """e^{-T^CAS} e^{-T} H e^{T} w with T on any `space`: e^{T} through its whole
    table, e^{-T} and e^{-T^CAS} through the rows landing at level <= rank."""
    coef = space.coefficients(t)
    w = op.ham @ space.exp_series(coef, w, +1)
    w[space.dets.levels > rank] = 0.0
    w = space.exp_series(coef[:space.block(rank)], w, -1)
    return op.cas.exp_series(op.cas.coefficients(op.t_cas, op.cas.block(rank)), w, -1)


def _on_support(t, t_cas, system, scheme):
    """Energy and truncated residual with T on the space of t's own indices, in canonical order."""
    space = excitation_space(system.basis, tuple(sorted(t.entries)))
    target, kept = external_space(system.split), truncation_positions(system.split, scheme)
    op = TailoredHamiltonian(t_cas, system.ints, system.split)
    t_vec = space.embed(t)
    energy = _conjugate_on(space, op, t_vec, op.u0, 0)[space.reference]
    residual = _conjugate_on(space, op, t_vec, op.u0, target.ranks[kept].max())
    return float(energy), target.project(residual)[kept]


@pytest.mark.parametrize("trunc", ["rank:1", "rank:2", "full", "fci pair"])
@pytest.mark.parametrize("model", ["pairing4", "hubbard4_mo"])
def test_external_space_evaluation_equals_the_support_space(model, trunc, request):
    """t enters external_space(split) with zeros off its support: the same bits."""
    system = request.getfixturevalue(model)
    if trunc == "fci pair":
        scheme = TruncationScheme(MODE_FULL)
        _, states = fci_solve(system.ints, system.basis)
        t_cas, t = split_amplitudes(ci_to_cluster(states[0]), system.split)
    else:
        mode, _, n = trunc.partition(":")
        scheme = TruncationScheme(mode, int(n) if n else None)
        study = Study(system.ints, system.split, system.fock)
        t_cas = study.t_cas
        t = study.root(TccConfig(max_iterations=500, tolerance=1e-11, diis=8,
                                 truncation=scheme)).t
    energy, residual = _on_support(t, t_cas, system, scheme)
    assert tcc_energy(t, t_cas, system.ints, system.split) == energy
    got = tcc_residual(t, t_cas, system.ints, system.split, scheme)
    kept = truncation_positions(system.split, scheme)
    assert np.array_equal(external_space(system.split).embed(got)[kept], residual)


def test_zero_amplitude_energy_is_reference_expectation(pairing4):
    """With t = t_cas = 0 the energy is <phi0|H|phi0>."""
    from oracle import matrix_element

    t_cas = AmplitudeVector(SPACE_CAS, {})
    ref = Determinant((1, 2, 3, 4))
    want = matrix_element(ref, ref, pairing4.ints)
    got = tcc_energy(_empty_ext(), t_cas, pairing4.ints, pairing4.split)
    assert abs(got - want) <= 1e-13


# ---------------------------------------------------------------------------
# Quasi-Newton solve
# ---------------------------------------------------------------------------

def test_solver_reaches_fci_split_root(pairing4):
    t_cas = _cas_amplitudes(pairing4)
    config = TccConfig(max_iterations=300, tolerance=1e-11, diis=8)
    result = solve_tcc(t_cas, pairing4.ints, pairing4.split, pairing4.fock, config)
    assert result.converged and not result.diverged
    r = tcc_residual(result.t, t_cas, pairing4.ints, pairing4.split,
                     TruncationScheme(MODE_FULL))
    assert max((abs(v) for v in r.entries.values()), default=0.0) <= 1e-10
    # history is (iteration, l2, dual-norm, energy) and the final l2 converged
    assert result.history[-1][1] <= 1e-11
    assert result.history[0][0] == 1


def test_solver_evaluates_each_iterate_once(pairing4, monkeypatch):
    calls = []
    call = tcc.TailoredHamiltonian.__call__
    monkeypatch.setattr(tcc.TailoredHamiltonian, "__call__",
                        lambda op, t: calls.append(1) or call(op, t))
    result = solve_tcc(_cas_amplitudes(pairing4), pairing4.ints, pairing4.split,
                       pairing4.fock, TccConfig(diis=8))
    assert result.converged
    # the converged iterate's energy is read off the loop's last evaluation
    assert len(calls) == result.iterations
    calls.clear()
    result = solve_tcc(_cas_amplitudes(pairing4), pairing4.ints, pairing4.split,
                       pairing4.fock, TccConfig(max_iterations=3))
    assert not result.converged and len(calls) == 4


def test_collapse_k_equals_n_reproduces_cc_equals_fci(hubbard2_mo, pairing3_2e):
    """2-electron systems: untruncated CC at k = N recovers FCI."""
    for system in (hubbard2_mo, pairing3_2e):
        basis = system.basis
        split = BasisSplit(basis, basis.n_electrons)
        summary, _ = fci_solve(system.ints, basis)
        t_cas = AmplitudeVector(SPACE_CAS, {})
        result = solve_tcc(t_cas, system.ints, split, system.fock,
                           TccConfig(max_iterations=300, tolerance=1e-12, diis=6))
        assert result.converged
        assert abs(result.energy - summary.ground_energy) <= 1e-9


def test_collapse_k_equals_big_k_reproduces_cas_fci(pairing4):
    basis = pairing4.basis
    split = BasisSplit(basis, basis.n_orbitals)
    summary, states = cas_fci_solve(pairing4.ints, basis, split)
    t = ci_to_cluster(states[0])
    t_cas = AmplitudeVector(SPACE_CAS, dict(t.entries))
    result = solve_tcc(t_cas, pairing4.ints, split, pairing4.fock)
    assert result.converged and result.iterations == 0
    assert len(result.t) == 0
    assert abs(result.energy - summary.ground_energy) <= 1e-12


def test_gap_violation_is_raised():
    """A Fock diagonal with a non-positive external difference aborts."""
    import tccbench

    ints = tccbench.pairing_model(3, 0.2, 1.0)
    basis = tccbench.OrbitalBasis(6, 3)
    split = BasisSplit(basis, 3)
    good = tccbench.fock_matrix(ints, basis)
    lam = good.lambdas.copy()
    lam[3] = lam[2] - 1.0  # lambda_4 below lambda_3: eps_{3->4} < 0
    bad = FockSpectrum(lam, good.lambda0, good.off_diag_norm)
    with pytest.raises(GapViolationError):
        solve_tcc(AmplitudeVector(SPACE_CAS, {}), ints, split, bad)


def test_divergence_guard(pairing4):
    """An absurd damping/tolerance combination must flag, not loop."""
    t_cas = _cas_amplitudes(pairing4)
    fock = pairing4.fock
    tiny = FockSpectrum(fock.lambdas * 1e-6, fock.lambda0 * 1e-6, fock.off_diag_norm)
    result = solve_tcc(t_cas, pairing4.ints, pairing4.split, tiny,
                       TccConfig(max_iterations=50, tolerance=1e-12))
    assert result.diverged and not result.converged


def test_divergence_guard_sees_non_finite_residual(hubbard3_mo):
    """A residual that overflows to NaN flags divergence at once, not after
    max_iterations with diverged=False."""
    t_cas = _cas_amplitudes(hubbard3_mo)
    huge = AmplitudeVector(SPACE_CAS, {mu: 1e300 * v for mu, v in t_cas.entries.items()})
    with np.errstate(all="ignore"):
        result = solve_tcc(huge, hubbard3_mo.ints, hubbard3_mo.split, hubbard3_mo.fock,
                           TccConfig(max_iterations=20, tolerance=1e-12))
    assert math.isnan(result.history[0][1])
    assert result.diverged and not result.converged
    assert result.iterations == 1


def test_non_finite_amplitudes_are_rejected(pairing4):
    """NaN or inf never passes for a zero amplitude."""
    t_cas = _cas_amplitudes(pairing4)
    mu = next(iter(t_cas.entries))
    for bad in (math.nan, math.inf):
        with pytest.raises(NonFiniteAmplitudeError):
            AmplitudeVector(SPACE_CAS, {mu: bad})
    # a NaN put into the entries afterwards is caught where the kernel takes t
    t_cas.entries[mu] = math.nan
    with pytest.raises(NonFiniteAmplitudeError):
        solve_tcc(t_cas, pairing4.ints, pairing4.split, pairing4.fock)
    space = external_space(pairing4.split)
    t = np.zeros(len(space))
    t[0] = math.inf
    with pytest.raises(NonFiniteAmplitudeError):
        space.exp_apply(t, space.reference_state())


def test_config_validation():
    with pytest.raises(ValueError):
        TccConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        TccConfig(damping=1.5)
    with pytest.raises(ValueError, match="max_iterations"):
        TccConfig(max_iterations=0)


def test_galerkin_property_of_truncated_solution(pairing4):
    """The truncated root zeroes exactly the retained components."""
    t_cas = _cas_amplitudes(pairing4)
    scheme = TruncationScheme(MODE_RANK, 2)
    result = solve_tcc(t_cas, pairing4.ints, pairing4.split, pairing4.fock,
                       TccConfig(max_iterations=300, tolerance=1e-11, diis=8,
                                 truncation=scheme))
    assert result.converged
    kept = set(enumerate_truncated_space(pairing4.split, scheme))
    assert set(result.t.entries) <= kept
    r = tcc_residual(result.t, t_cas, pairing4.ints, pairing4.split, scheme)
    assert max((abs(v) for v in r.entries.values()), default=0.0) <= 1e-10
    # the full residual at the truncated root is generally nonzero
    r_full = tcc_residual(result.t, t_cas, pairing4.ints, pairing4.split,
                          TruncationScheme(MODE_FULL))
    dropped = [abs(v) for mu, v in r_full.entries.items() if mu not in kept]
    assert max(dropped) > 1e-8


def test_config_rejects_a_negative_diis_history():
    with pytest.raises(ValueError, match="diis"):
        TccConfig(diis=-3)
    assert TccConfig(diis=0).diis == 0     # 0 and None both mean no DIIS


# ---------------------------------------------------------------------------
# The block back-transform against the full-table path it replaces
# ---------------------------------------------------------------------------

def test_spaces_share_one_enumeration(pairing4):
    """cas_space and external_space draw their indices from one shared tuple."""
    everything = enumerate_excitations(pairing4.basis)
    assert enumerate_excitations(pairing4.basis) is everything
    order = {mu: a for a, mu in enumerate(everything)}
    cas = cas_space(pairing4.split).indices
    ext = external_space(pairing4.split).indices
    assert sorted(cas + ext, key=order.get) == list(everything)
    for part in (cas, ext):
        assert [order[mu] for mu in part] == sorted(order[mu] for mu in part)
        assert all(mu is everything[order[mu]] for mu in part)


def _split_of(model, *flags):
    from tccbench import cli
    return cli._load_split(cli.build_parser().parse_args(["tcc", "--model", model, *flags]))


@pytest.mark.parametrize("model,flags,level", [
    ("pairing:6,0.5,1.0", ["--k", "8"], 3),
    ("pairing:6,0.5,1.0", ["--k", "8"], 4),
    ("hubbard:4,1.0,2.0", ["--mo", "--k", "6"], 1),
    ("hubbard:4,1.0,2.0", ["--mo", "--k", "6"], 3),
])
def test_a_table_built_to_a_level_is_the_whole_tables_prefix(model, flags, level):
    _, basis, split = _split_of(model, *flags)
    indices = external_space(split).indices
    shallow, whole = ExcitationSpace(basis, indices), ExcitationSpace(basis, indices)
    rows = shallow.block(level)
    top = basis.n_electrons   # no determinant lies above level N: every row
    assert whole.block(top) == len(whole.table[0]) > rows == len(shallow.table[0])
    assert len(shallow._ends) == level + 1
    for part, col in zip(shallow.table, whole.table):
        assert part.dtype == col.dtype and np.array_equal(part, col[:rows])
    # a deeper request rebuilds it: the same rows as a table built whole at once
    shallow.block(top)
    for col, want in zip(shallow.table, whole.table):
        assert np.array_equal(col, want)


def _full_table_conjugate(op, t, w):
    """e^{-T^CAS} e^{-T} H e^{T} w with every table row in both back-transforms."""
    w = op.ham @ op.space.exp_apply(t, w, +1)
    return op.cas.exp_apply(op.t_cas, op.space.exp_apply(t, w, -1), -1)


def _hubbard4():
    ints, _ = canonicalize_core(hubbard_model(4, 1.0, 2.0))
    basis = OrbitalBasis(ints.n_spin_orbitals, ints.n_electrons)
    return SimpleNamespace(ints=ints, basis=basis, split=BasisSplit(basis, 6))


@pytest.mark.parametrize("trunc", ["rank:1", "rank:2", "foi:1", "full"])
@pytest.mark.parametrize("model", ["hubbard4", "pairing4"])
def test_block_conjugation_equals_the_full_table_path(model, trunc, pairing4, rng):
    system = _hubbard4() if model == "hubbard4" else pairing4
    split = system.split
    mode, _, n = trunc.partition(":")
    kept = truncation_positions(split, TruncationScheme(mode, int(n) if n else None))
    space = external_space(split)
    rank = space.ranks[kept].max()
    op = TailoredHamiltonian(_cas_amplitudes(system), system.ints, split, rank)
    t = np.zeros(len(space))
    t[kept] = 0.1 * rng.standard_normal(len(kept))     # a generic point, not a root
    read = np.concatenate(([space.reference], space.ref_pos[kept]))
    above = split.basis.determinants.levels > rank
    # a vector and a (dim, m) block of whole columns, every level filled
    for w in (op.u0, space.excitation_columns(op.u0, kept, space.block(split.basis.n_electrons))):
        fast, slow = op.conjugate(t, w), _full_table_conjugate(op, t, w)
        assert np.array_equal(fast[read], slow[read])
        assert not fast[above].any()


def test_residual_block_follows_the_target_rank(pairing4, rng):
    """A full-space residual of rank-1 amplitudes reads levels above the support."""
    t_cas = _cas_amplitudes(pairing4)
    space = external_space(pairing4.split)
    support = truncation_positions(pairing4.split, TruncationScheme(MODE_RANK, 1))
    t_vec = np.zeros(len(space))
    t_vec[support] = 0.1 * rng.standard_normal(len(support))
    t = space.amplitudes(t_vec, "truncated", "rank:1")
    assert space.ranks.max() > 1
    op = TailoredHamiltonian(t_cas, pairing4.ints, pairing4.split, 1)
    want = space.project(_full_table_conjugate(op, t_vec, op.u0))
    got = tcc_residual(t, t_cas, pairing4.ints, pairing4.split, TruncationScheme(MODE_FULL))
    assert np.array_equal(space.embed(got), want)
    # a block sized from the support alone misses the target's higher ranks
    assert not np.array_equal(space.project(op(t_vec)), want)
