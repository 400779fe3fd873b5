import importlib
import io
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import tccbench
from tccbench import cli, hubbard_model, tcc, write_fcidump
from tccbench.cli import main
from tccbench.serialize import config_hash, dumps, format_float


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# Serialization primitives
# ---------------------------------------------------------------------------

def test_float_format_round_trips():
    for x in (0.0, 1.0, -1.0 / 3.0, 1e-300, np.pi, 2.0 - np.sqrt(8.0)):
        assert float(format_float(x)) == x
    assert format_float(float("nan")) == "NaN"
    assert format_float(float("inf")) == "Infinity"


def test_dumps_is_sorted_and_stable():
    doc = {"b": 1, "a": [1.5, {"z": True, "y": None}]}
    out = dumps(doc)
    assert out == dumps(doc)
    assert out.index('"a"') < out.index('"b"')
    assert json.loads(out) == {"b": 1, "a": [1.5, {"z": True, "y": None}]}


def test_config_hash_changes_with_content():
    assert config_hash({"k": 2}) != config_hash({"k": 3})
    assert config_hash({"k": 2}) == config_hash({"k": 2})


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def test_fci_subcommand_stdout(capsys):
    code, out, _ = run(["fci", "--model", "hubbard:2,1.0,4.0"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"version", "config", "config_sha256", "payload"}
    e0 = doc["payload"]["summary"]["ground_energy"]
    assert abs(e0 - (2.0 - np.sqrt(8.0))) <= 1e-12


def test_cas_fci_requires_k(capsys):
    code, _, err = run(["cas-fci", "--model", "hubbard:2,1.0,4.0"], capsys)
    assert code == 1 and "--k" in err


def test_tcc_subcommand_writes_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    code, _, _ = run(["tcc", "--model", "hubbard:2,1.0,4.0", "--mo",
                      "--k", "2", "--trunc", "full", "--out", str(out)], capsys)
    assert code == 0
    doc = json.loads((out / "tcc.json").read_text())
    assert doc["payload"]["converged"] is True
    assert abs(doc["payload"]["energy"] - (2.0 - np.sqrt(8.0))) <= 1e-9
    history = (out / "history.tsv").read_text().splitlines()
    assert history[0].split("\t") == ["iteration", "residual_l2",
                                      "residual_vext_dual", "energy"]
    assert len(history) > 2


def test_select_cas_subcommand(tmp_path, capsys):
    out = tmp_path / "sel"
    code, _, _ = run(["select-cas", "--model", "hubbard:2,1.0,8.0",
                      "--jump", "--out", str(out)], capsys)
    assert code == 0
    doc = json.loads((out / "select_cas.json").read_text())
    assert doc["payload"]["selection"]["orbitals"] == [1, 2, 3, 4]
    assert (out / "profile.tsv").exists()


def test_verify_subcommand_full_report(tmp_path, capsys):
    out = tmp_path / "ver"
    code, _, _ = run(["verify", "--model", "pairing:4,0.5,1.0", "--k", "6",
                      "--trunc", "rank:2", "--samples", "5",
                      "--out", str(out)], capsys)
    assert code == 0
    doc = json.loads((out / "verify.json").read_text())
    payload = doc["payload"]
    assert {"gap", "assumptions", "decomposition", "representation",
            "scaling", "linear_limit_scaling"} <= set(payload)
    assert payload["decomposition"]["triangle_slack"] >= -1e-10
    scaling = (out / "scaling.tsv").read_text()
    assert scaling.startswith("truncation\t")
    assert "# slope" in scaling


def test_verify_single_section(capsys):
    code, out, _ = run(["verify", "--model", "pairing:4,0.5,1.0", "--k", "6",
                        "--assumptions", "--samples", "3"], capsys)
    assert code == 0
    payload = json.loads(out)["payload"]
    assert "assumptions" in payload and "decomposition" not in payload


def test_fcidump_input_and_round_trip(tmp_path, capsys):
    path = tmp_path / "dump.fcidump"
    with open(path, "w") as fh:
        write_fcidump(hubbard_model(2, 1.0, 4.0), fh)
    code, out, _ = run(["fci", "--fcidump", str(path)], capsys)
    assert code == 0
    e0 = json.loads(out)["payload"]["summary"]["ground_energy"]
    assert abs(e0 - (2.0 - np.sqrt(8.0))) <= 1e-12


def test_bad_fcidump_contents_are_input_errors(tmp_path, capsys):
    path = tmp_path / "bad.fcidump"
    head = b"&FCI NORB=2,NELEC=2,MS2=0,\n&END\n"
    for body in (b" nan 1 1 1 1\n -1.0 2 1 0 0\n 0.0 0 0 0 0\n",   # NaN integral
                 b" 1.0 1 1 0 0\n 0.0 0 0 0 0\n\xff\n"):            # not UTF-8
        path.write_bytes(head + body)
        code, _, err = run(["fci", "--fcidump", str(path)], capsys)
        assert code == 1 and err.startswith("error:")


def test_config_hash_covers_fcidump_contents(tmp_path, capsys):
    path = tmp_path / "dump.fcidump"
    hashes = []
    for u in (4.0, 5.0):
        with open(path, "w") as fh:
            write_fcidump(hubbard_model(2, 1.0, u), fh)
        code, out, _ = run(["fci", "--fcidump", str(path)], capsys)
        assert code == 0
        hashes.append(json.loads(out)["config_sha256"])
    assert hashes[0] != hashes[1]


def test_verify_config_hash_covers_sections_and_iterations(capsys):
    base = ["verify", "--model", "pairing:4,0.5,1.0", "--k", "6", "--samples", "2"]
    hashes = set()
    for extra in (["--assumptions"], ["--decomposition"], ["--error-scaling"],
                  ["--assumptions", "--max-iterations", "400"]):
        code, out, _ = run(base + extra, capsys)
        assert code == 0
        hashes.add(json.loads(out)["config_sha256"])
    assert len(hashes) == 4


def test_config_file_defaults_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k=2\ntrunc=full\n# comment\nmo=true\n")
    code, out, _ = run(["tcc", "--model", "hubbard:2,1.0,4.0",
                        "--config", str(cfg)], capsys)
    assert code == 0
    assert json.loads(out)["payload"]["k"] == 2
    # explicit flag beats the file value
    code, out, _ = run(["tcc", "--model", "hubbard:2,1.0,4.0",
                        "--k", "3", "--config", str(cfg)], capsys)
    assert code == 0
    assert json.loads(out)["payload"]["k"] == 3
    # keys that do not apply to the subcommand are rejected
    code, _, err = run(["cas-fci", "--model", "hubbard:2,1.0,4.0", "--mo",
                        "--k", "3", "--config", str(cfg)], capsys)
    assert code == 1 and "trunc" in err
    # so are the parser's own entries, which are not options
    for key in ("func", "command"):
        cfg.write_text(f"{key}=x\n")
        code, _, err = run(["fci", "--model", "hubbard:2,1.0,4.0", "--config", str(cfg)], capsys)
        assert code == 1 and key in err
    # values take the type of their flag: a float, and a store_true flag
    cfg.write_text("s_threshold=0.25\njump=yes\n")
    code, out, _ = run(["select-cas", "--model", "hubbard:2,1.0,4.0",
                        "--config", str(cfg)], capsys)
    assert code == 0
    assert json.loads(out)["config"]["s_threshold"] == 0.25
    assert json.loads(out)["config"]["jump"] is True


def test_config_file_loses_to_flags_given_at_their_default(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trunc=rank:1\nseed=5\n")
    code, out, _ = run(["tcc", "--model", "pairing:4,0.5,1.0", "--k", "6",
                        "--trunc", "full", "--seed=0", "--config", str(cfg)], capsys)
    assert code == 0
    assert json.loads(out)["config"]["trunc"] == "full"
    assert json.loads(out)["config"]["seed"] == 0
    # an abbreviated flag counts as given too; keys no flag sets still apply
    code, out, _ = run(["tcc", "--model", "pairing:4,0.5,1.0", "--k", "6",
                        "--tr", "full", "--config", str(cfg)], capsys)
    assert code == 0
    assert json.loads(out)["config"]["trunc"] == "full"
    assert json.loads(out)["config"]["seed"] == 5


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------

def test_exit_input_errors(capsys):
    assert run(["fci"], capsys)[0] == 1                       # no source
    assert run(["fci", "--fcidump", "/no/such/file"], capsys)[0] == 1
    assert run(["fci", "--model", "banana:1"], capsys)[0] == 1
    assert run(["fci", "--model", "hubbard:2"], capsys)[0] == 1
    assert run(["tcc", "--model", "hubbard:2,1.0,4.0", "--k", "2",
                "--trunc", "weird"], capsys)[0] == 1


@pytest.mark.parametrize("flags", [
    ["--tol", "0"], ["--damping", "0"], ["--max-iterations", "0"], ["--diis", "-3"],
    ["--k", "9"], ["--k", "2"], ["--trunc", "rank:0"], ["--tol", "nan"], ["--tol", "inf"],
], ids=lambda flags: " ".join(flags))
def test_bad_solver_settings_are_input_errors(flags, capsys):
    # each used to end in a ValueError traceback, or (--diis -3) to pass silently;
    # --tol nan ran every iteration and failed as not converged, --tol inf took the first iterate
    code, _, err = run(["tcc", "--model", "pairing:4,0.5,1.0", "--k", "6", *flags], capsys)
    assert code == 1 and err.startswith("error:")


@pytest.mark.parametrize("flags", [["--samples", "0"], ["--delta", "0"], ["--delta", "-1"]],
                         ids=lambda flags: " ".join(flags))
def test_bad_sampling_settings_are_input_errors(flags, capsys):
    # --samples 0 reported a margin from no samples; --delta 0 divided by zero
    code, _, err = run(["verify", "--model", "pairing:4,0.5,1.0", "--k", "6", *flags], capsys)
    assert code == 1 and err.startswith("error:")


@pytest.mark.parametrize("args", [
    ["fci", "--n-states", "-1"], ["fci", "--n-states", "0"], ["fci", "--n-states", "7"],
    ["cas-fci", "--k", "3", "--n-states", "4"],
], ids=lambda args: " ".join(args))
def test_state_counts_outside_the_space_are_input_errors(args, capsys):
    # hubbard:2 has 6 determinants, 3 inside k = 3; -1 used to write 5 states,
    # 0 none and 7 all 6
    code, out, err = run([*args, "--model", "hubbard:2,1.0,4.0"], capsys)
    assert code == 1 and err.startswith("error:") and "n_states" in err and not out


@pytest.mark.parametrize("args", [
    ["select-cas", "--model", "hubbard:2,1.0,4.0", "--mi-threshold", "-1"],
    ["select-cas", "--model", "hubbard:2,1.0,4.0", "--s-threshold", "nan"],
    ["fci", "--model", "hubbard:2,1.0,4.0,9"],
    ["fci", "--model", "pairing:2,0.5,1.0,-2"],
    ["fci", "--model", "hubbard:0,1.0,4.0"],
], ids=lambda args: " ".join(args[2:]))
def test_bad_thresholds_and_electron_counts_are_input_errors(args, capsys):
    # a ValueError traceback each, or (--s-threshold nan) accepted silently
    code, _, err = run(args, capsys)
    assert code == 1 and err.startswith("error:")


def _refuse(what):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{what} ran before the settings were checked")
    return refuse


def test_negative_seed_is_an_input_error_before_any_solve(monkeypatch, capsys):
    # np.random.default_rng raised a ValueError traceback, and only after every solve
    monkeypatch.setattr(tcc, "solve_tcc", _refuse("solve_tcc"))
    code, out, err = run(["verify", "--model", "pairing:4,0.5,1.0", "--k", "6",
                          "--samples", "2", "--seed", "-1"], capsys)
    assert code == 1 and err.startswith("error:") and "seed" in err and not out


@pytest.mark.parametrize("flag", ["--mi-threshold", "--s-threshold"])
def test_bad_thresholds_are_rejected_before_the_eigensolve(flag, monkeypatch, capsys):
    # select_cas checked them only after the FCI ground state and the entropy profile
    monkeypatch.setattr(cli, "fci_solve", _refuse("fci_solve"))
    code, out, err = run(["select-cas", "--model", "hubbard:2,1.0,4.0", flag, "-1"], capsys)
    assert code == 1 and err.startswith("error:") and not out


def test_exit_solver_failure(capsys):
    code, _, err = run(["tcc", "--model", "hubbard:2,1.0,4.0", "--mo",
                        "--k", "2", "--max-iterations", "1",
                        "--tol", "1e-14"], capsys)
    assert code == 2 and "solver" in err


def test_verify_with_an_empty_external_space(capsys):
    # k = K: nothing to sample around t_*, but the decomposition is defined
    base = ["verify", "--model", "pairing:4,0.5,1.0", "--k", "8", "--samples", "2"]
    code, _, err = run(base, capsys)
    assert code == 1 and err.startswith("error:") and "k = K" in err
    assert run(base + ["--decomposition"], capsys)[0] == 0


def test_exit_size_limit(capsys):
    code, _, _ = run(["fci", "--model", "hubbard:11,1.0,1.0"], capsys)
    assert code == 3


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

def test_repeated_runs_are_byte_identical(tmp_path, capsys):
    args = ["verify", "--model", "pairing:4,0.5,1.0", "--k", "6",
            "--trunc", "rank:2", "--samples", "5", "--seed", "7"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(args + ["--out", str(a)], capsys)[0] == 0
    assert run(args + ["--out", str(b)], capsys)[0] == 0
    for name in ("verify.json", "scaling.tsv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


# ---------------------------------------------------------------------------
# Solve cache
# ---------------------------------------------------------------------------

def test_verify_solves_each_distinct_problem_once(monkeypatch, capsys):
    primal, dual = [], []
    solve_tcc, solve_dual = tcc.solve_tcc, tcc.solve_dual

    def counted_solve(t_cas, ints, split, fock, config):
        primal.append(config)
        return solve_tcc(t_cas, ints, split, fock, config)

    def counted_dual(t_d, t_cas, ints, split, scheme):
        dual.append(scheme)
        return solve_dual(t_d, t_cas, ints, split, scheme)

    # Study lives beside the solver and looks both up in tcc
    monkeypatch.setattr(tcc, "solve_tcc", counted_solve)
    monkeypatch.setattr(tcc, "solve_dual", counted_dual)
    code, _, _ = run(["verify", "--model", "pairing:4,0.5,1.0", "--k", "6",
                      "--trunc", "rank:2", "--diis", "8"], capsys)
    assert code == 0
    # the flag-driven full and rank:2 roots, and the rank:1/2/3/full roots
    # at the fixed sub-solve settings; one dual at each
    assert len(primal) == 6
    assert len(set(primal)) == 6      # a config carries its truncation
    assert len(dual) == 6


# ---------------------------------------------------------------------------
# Cold start
# ---------------------------------------------------------------------------

def _cold_start(code: str, *args: str) -> list[str]:
    """Run `code` with `args` in a fresh interpreter; its stdout, split."""
    env = {**os.environ, "PYTHONPATH": str(Path(tccbench.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-W", "ignore", "-c", code, *args],
                          env=env, capture_output=True, text=True, check=True)
    return done.stdout.split()


def _cold_command(args, out) -> tuple[int, set[str]]:
    """A CLI command's exit status and the modules loaded when it is done."""
    status, *modules = _cold_start("import sys; from tccbench.cli import main; "
                                   "status = main(sys.argv[1:]); print(status, *sys.modules)",
                                   *args, "--out", str(out))
    return int(status), set(modules)


@pytest.mark.parametrize("args", [
    ["select-cas", "--model", "hubbard:6,1.0,2.0,4", "--mo"],
    ["tcc", "--model", "hubbard:4,1.0,2.0", "--mo", "--k", "6", "--trunc", "rank:2"],
], ids=["select-cas", "tcc"])
def test_commands_do_not_import_numpy_ma(args, tmp_path):
    # numpy.ma costs 15-23 ms to import in a fresh interpreter; np.unique is
    # one call that pulls it in
    status, modules = _cold_command(args, tmp_path)
    assert status == 0 and "numpy.ma" not in modules


# the layers every command loads; each command adds its own
COMMON_LAYERS = {"cli", "determinants", "errors", "exact", "hamiltonian", "serialize"}


@pytest.mark.parametrize("args, layers", [
    (["fci", "--model", "hubbard:2,1.0,4.0"], set()),
    (["cas-fci", "--model", "hubbard:2,1.0,4.0", "--k", "3"], set()),
    (["select-cas", "--model", "hubbard:2,1.0,4.0"], {"entropy"}),
    (["tcc", "--model", "pairing:4,0.5,1.0", "--k", "6"], {"tcc"}),
    (["verify", "--model", "pairing:4,0.5,1.0", "--k", "6", "--samples", "2"],
     {"tcc", "diagnostics"}),
], ids=["fci", "cas-fci", "select-cas", "tcc", "verify"])
def test_commands_load_only_the_layers_they_run(args, layers, tmp_path):
    # compiling a module costs a fresh interpreter milliseconds; the eager
    # package loaded all of them for every command
    status, modules = _cold_command(args, tmp_path)
    assert status == 0
    assert {m for m in modules if m.startswith("tccbench.")} == {
        f"tccbench.{layer}" for layer in COMMON_LAYERS | layers}


def test_bare_package_import_loads_no_submodule():
    loaded = _cold_start("import sys, tccbench; "
                         "print(*(m for m in sys.modules if m.startswith('tccbench')))")
    assert loaded == ["tccbench"]


# ---------------------------------------------------------------------------
# Package namespace
# ---------------------------------------------------------------------------

# the names the package exported when it imported every submodule eagerly,
# less matrix_element, which moved to the tests' oracle
PACKAGE_NAMES = [
    "AmplitudeVector", "AssumptionReport", "BasisSplit", "CasSelection", "CiVector",
    "Determinant", "ErrorDecomposition", "ExcitationIndex", "ExcitationSpace",
    "FockSpectrum", "GapReport", "IntegralSet", "OrbitalBasis", "OrbitalEntropyProfile",
    "ScalingStudy", "SpectralSummary", "Study", "TailoredHamiltonian", "TccConfig",
    "TccResult", "TruncationScheme", "apply_excitation", "assumption_b_report",
    "build_dense_hamiltonian", "canonicalize_core", "cas_fci_solve", "ci_to_cluster",
    "classify_excitation", "cluster_to_ci", "determinants", "diagnostics", "entropy",
    "enumerate_determinants", "enumerate_excitations", "enumerate_truncated_space",
    "error_decomposition", "error_representation_check", "errors", "exact",
    "excitation_from_reference", "excitation_space", "fci_solve", "fock_matrix",
    "fock_norm_identity_check", "gap_report", "hamiltonian", "hubbard_model",
    "linear_limit_scaling_study", "monotonicity_probe", "mutual_information",
    "one_orbital_rdm", "pairing_model", "parse_fcidump", "permute_spatial_orbitals",
    "quadratic_scaling_study", "rotate_orbitals", "select_cas", "solve_dual", "solve_tcc",
    "split_amplitudes", "tcc", "tcc_energy", "tcc_jacobian", "tcc_residual",
    "truncated_space", "two_orbital_rdm", "v_ext_norm", "write_fcidump",
]


def test_package_names_resolve_to_their_modules_objects(monkeypatch):
    assert tccbench.__all__ == PACKAGE_NAMES
    for name in PACKAGE_NAMES:
        value = getattr(tccbench, name)
        if isinstance(value, types.ModuleType):
            assert value is importlib.import_module(f"tccbench.{name}")
        else:
            assert value is getattr(importlib.import_module(value.__module__), name)
            assert name not in vars(tccbench)   # looked up anew on every access
    # the diagnostics layer re-exports what moved beside the solver
    for name in ("Study", "solve_dual", "tcc_jacobian"):
        assert getattr(tccbench.diagnostics, name) is getattr(tcc, name)
    for name in ("matrix_element", "no_such_name"):
        with pytest.raises(AttributeError, match=name):
            getattr(tccbench, name)
    # a tracer or a test that rebinds a module's function rebinds it for the package too
    monkeypatch.setattr(tcc, "solve_tcc", lambda *args: None)
    assert tccbench.solve_tcc is tcc.solve_tcc
