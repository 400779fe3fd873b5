import functools
import hashlib
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


def test_dumps_escapes_control_characters():
    # only backslash and quote were escaped: a tab or newline went out raw
    text = 'tab\there\nnew line \x01 "quoted" back\\slash'
    assert json.loads(dumps(text)) == text
    assert dumps("plain, Ψ₀") == '"plain, Ψ₀"\n'


def test_config_hash_changes_with_content():
    assert config_hash({"k": 2}) != config_hash({"k": 3})
    assert config_hash({"k": 2}) == config_hash({"k": 2})


# the digest of {"model": "pairing:4,0.5,1.0", "k": 6}, taken through hashlib
PINNED_DIGEST = "caba59829ab76fb6ff6e9720cb184f88f5a05e0fdd568369455b6550165d0169"


@pytest.mark.parametrize("config", [
    {},
    {"model": "pairing:4,0.5,1.0", "note": "Ψ₀ – tailored"},
    {f"key_{i}": [i / 7, "x" * i] for i in range(20)},    # 1134 bytes: 18 blocks
], ids=["empty", "non-ascii", "multi-block"])
def test_config_hash_is_the_hashlib_sha256_of_the_dump(config):
    assert config_hash(config) == hashlib.sha256(dumps(config).encode()).hexdigest()


def test_config_hash_pins_one_digest():
    assert config_hash({"model": "pairing:4,0.5,1.0", "k": 6}) == PINNED_DIGEST


def test_config_hash_falls_back_to_hashlib_without_builtin_hashes():
    # a None entry in sys.modules makes the import fail, as on a build
    # without the built-in SHA-256
    out = _cold_start('import sys; sys.modules["_sha2"] = sys.modules["_sha256"] = None; '
                      "import hashlib; from tccbench import serialize; "
                      "print(serialize.sha256 is hashlib.sha256, "
                      'serialize.config_hash({"model": "pairing:4,0.5,1.0", "k": 6}))')
    assert out == ["True", PINNED_DIGEST]


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


def test_a_tab_in_the_model_spec_gives_a_parseable_document(capsys):
    # float("\t4.0") parses, so the spec is accepted and echoed in the config
    spec = "hubbard:2,1.0,\t4.0"
    code, out, _ = run(["fci", "--model", spec], capsys)
    assert code == 0
    assert json.loads(out)["config"]["model"] == spec


@pytest.mark.parametrize("argv", [
    ["fci", "--n-states", "2"],
    ["cas-fci", "--model", "pairing:4,0.5,1.0", "--k", "6"],
    ["select-cas", "--model", "hubbard:2,1.0,4.0", "--jump"],
    ["tcc", "--model", "hubbard:2,1.0,4.0", "--mo", "--k", "3", "--diis", "3"],
    ["verify", "--model", "pairing:4,0.5,1.0", "--k", "6", "--samples", "2",
     "--decomposition"],
], ids=lambda argv: argv[0])
def test_the_config_holds_every_flag_of_the_subcommand(argv, tmp_path, capsys):
    if argv[0] == "fci":   # one command reads an FCIDUMP file, whose digest joins the config
        path = tmp_path / "h2.fcidump"
        with open(path, "w") as fh:
            write_fcidump(hubbard_model(2, 1.0, 4.0), fh)
        argv = [*argv, "--fcidump", str(path)]
    parser = cli.build_parser()
    args = parser.parse_args(argv)
    dests = {a.dest for a in parser.commands[argv[0]]._actions} - {"help", "out", "config"}
    want = {d for d in dests if getattr(args, d) is not None}
    code, out, _ = run(argv, capsys)
    assert code == 0
    config = json.loads(out)["config"]
    assert set(config) == want | ({"fcidump_sha256"} if args.fcidump else set())
    assert all(config[d] == getattr(args, d) for d in want)


def test_a_config_file_run_builds_one_parser(tmp_path, monkeypatch, capsys):
    # the flags argv gave were found with a second, probing parser
    built = []
    monkeypatch.setattr(cli, "build_parser",
                        lambda build=cli.build_parser: built.append(1) or build())
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_states=2\n")
    code, out, _ = run(["fci", "--model", "hubbard:2,1.0,4.0", "--config", str(cfg)], capsys)
    assert code == 0 and json.loads(out)["config"]["n_states"] == 2
    assert len(built) == 1


def test_a_config_line_naming_another_config_file_is_an_error(tmp_path, capsys):
    # it was accepted and ignored: argv's own --config always won
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"config={tmp_path / 'other.cfg'}\n")
    code, out, err = run(["fci", "--model", "hubbard:2,1.0,4.0", "--config", str(cfg)], capsys)
    assert code == 1 and "unknown config key 'config'" in err and not out


def test_an_out_line_sets_the_output_directory_and_argv_wins(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"out={tmp_path / 'from_file'}\n")
    argv = ["fci", "--model", "hubbard:2,1.0,4.0", "--config", str(cfg)]
    code, out, _ = run(argv, capsys)
    assert code == 0 and not out
    doc = json.loads((tmp_path / "from_file" / "fci.json").read_text())
    assert "out" not in doc["config"]
    code, out, _ = run([*argv, "--out", str(tmp_path / "from_argv")], capsys)
    assert code == 0 and not out
    assert json.loads((tmp_path / "from_argv" / "fci.json").read_text()) == doc
    assert sorted(p.name for p in tmp_path.iterdir()) == ["from_argv", "from_file", "run.cfg"]


def test_a_bad_config_value_is_an_error_even_where_a_flag_wins(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k=abc\n")
    code, out, err = run(["tcc", "--model", "hubbard:2,1.0,4.0", "--k", "2",
                          "--config", str(cfg)], capsys)
    assert code == 1 and "bad config value" in err and not out


@pytest.mark.parametrize("text,why", [
    ("mo=maybe", "bad config value"),   # both ran without --mo
    ("mo=ture", "bad config value"),
    ("k=abc", "bad config value"),
    ("k", "bad config line"),
])
def test_bad_config_values_are_input_errors(text, why, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{text}\n")
    code, out, err = run(["tcc", "--model", "hubbard:2,1.0,4.0", "--config", str(cfg)], capsys)
    assert code == 1 and err.startswith("error:") and why in err and not out


@pytest.mark.parametrize("value,mo", [("TRUE", True), ("No", False)])
def test_boolean_config_values_ignore_case(value, mo, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"mo={value}\n")
    code, out, _ = run(["fci", "--model", "hubbard:2,1.0,4.0", "--config", str(cfg)], capsys)
    assert code == 0
    assert json.loads(out)["config"].get("mo", False) is mo


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


@pytest.mark.parametrize("args", [
    ["tcc", "--model", "pairing:4,0.5,1.0", "--k", "abc"],
    ["fci", "--model", "hubbard:2,1.0,4.0", "--no-such-flag"],
    [],
], ids=["bad value", "unknown flag", "no subcommand"])
def test_usage_errors_are_input_errors(args, capsys):
    # argparse exits 2, the code the CLI documents for a solver failure
    code, out, err = run(args, capsys)
    assert code == 1 and out == "" and "error:" in err


def test_help_exits_zero(capsys):
    code, out, _ = run(["fci", "--help"], capsys)
    assert code == 0 and "--model" in out


@pytest.mark.parametrize("spec", ["pairing:4,0.5,,6", "hubbard:2,1.0,4.0,2,99"])
def test_model_specs_with_empty_or_extra_fields_are_input_errors(spec, capsys):
    # the empty field was dropped, so pairing:4,0.5,,6 ran spacing 6 with N = 4;
    # hubbard ignored its fifth field
    code, out, err = run(["fci", "--model", spec], capsys)
    assert code == 1 and out == "" and err.startswith("error: bad model spec")


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


@pytest.mark.parametrize("args", [
    ["--model", "hubbard:3,1.0,2.0", "--mo", "--k", "4"],
    ["--model", "hubbard:3,1.0,2.0", "--mo", "--k", "4", "--error-scaling"],
    ["--model", "hubbard:2,1.0,4.0", "--mo", "--k", "2"],
    ["--model", "pairing:4,0.5,1.0", "--k", "8"],
    ["--model", "pairing:4,0.5,1.0", "--k", "8", "--error-scaling"],
])
def test_verify_rejects_an_unfittable_scaling_study_before_any_solve(args, monkeypatch, capsys):
    # m = min(N, K-N) < 4 leaves fewer than 3 fitted rows: hubbard:3 ran every solve
    # and then exited 1 from the slope fit, hubbard:2 exited 2 on a singular adjoint.
    # k = K (pairing:4 at --k 8) leaves no ball to sample and no row to fit: it
    # exited 1 after CAS-FCI and the reference root, or after every scaling solve
    monkeypatch.setattr(tcc, "solve_tcc", _refuse("solve_tcc"))
    code, out, err = run(["verify", *args], capsys)
    why = "k = K" if "pairing:4,0.5,1.0" in args else "m = "
    assert code == 1 and err.startswith("error:") and why in err and not out


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


@pytest.fixture(scope="module")
def dim_184756_fcidump(tmp_path_factory):
    """NORB=10, NELEC=10: K=20, N=10 and 184756 determinants."""
    path = tmp_path_factory.mktemp("big") / "hubbard10.fcidump"
    with open(path, "w") as fh:
        write_fcidump(hubbard_model(10, 1.0, 2.0), fh)
    return path


@pytest.mark.parametrize("command", [["fci"], ["tcc", "--k", "12"],
                                     ["verify", "--k", "12", "--samples", "2"]],
                         ids=lambda command: command[0])
def test_size_limit_is_checked_before_enumeration(command, dim_184756_fcidump, capsys):
    # the guard ran only in the dense H build, after every determinant (and, under
    # verify, every excitation index) had been enumerated
    code, out, err = run([*command, "--fcidump", str(dim_184756_fcidump)], capsys)
    assert code == 3 and not out
    assert err == "limit exceeded: determinant space dim 184756 exceeds 20000\n"


@pytest.mark.parametrize("norb", [33, 10**6])
def test_fcidump_orbital_limit_is_checked_in_the_header(norb, tmp_path, capsys):
    # NORB=33 allocated the NORB^4 integral arrays, then exited 1 as a bad electron count
    path = tmp_path / "big.fcidump"
    path.write_text(f"&FCI NORB={norb},NELEC=2,\n&END\n 1.0 1 1 0 0\n")
    code, out, err = run(["fci", "--fcidump", str(path)], capsys)
    assert code == 3 and not out
    assert err == f"limit exceeded: NORB={norb} exceeds the hard limit of 32\n"


@pytest.mark.parametrize("flag", ["--config", "--fcidump"])
def test_unreadable_paths_are_input_errors(flag, tmp_path, capsys):
    # a directory ended in an IsADirectoryError traceback
    args = ["fci", "--model", "hubbard:2,1.0,4.0"] if flag == "--config" else ["fci"]
    code, out, err = run([*args, flag, str(tmp_path)], capsys)
    assert code == 1 and not out
    assert err.startswith("error:") and "Is a directory" in err


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


def _count_builds(monkeypatch) -> dict[str, int]:
    """Constructions of the spaces and operators, and builds of the determinant
    space's tables made on first use, counted from cold caches as in one command."""
    from tccbench import determinants

    built = dict.fromkeys(["dets", "spaces", "operators", "occupations", "sectors"], 0)

    def counted(cls, key):
        init = cls.__init__

        def counted_init(self, *args, **kwargs):
            built[key] += 1
            init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted_init)

    def counted_array(name):
        build = determinants.DeterminantSpace.__dict__[name].func

        def counted_build(self):
            built[name] += 1
            return build(self)
        prop = functools.cached_property(counted_build)
        prop.__set_name__(determinants.DeterminantSpace, name)
        monkeypatch.setattr(determinants.DeterminantSpace, name, prop)

    counted(determinants.DeterminantSpace, "dets")
    counted(determinants.ExcitationSpace, "spaces")
    counted(tcc.TailoredHamiltonian, "operators")
    for name in ("occupations", "sectors"):
        counted_array(name)
    for cached in (determinants.excitation_space, tcc.external_space, tcc.cas_space,
                   tcc.truncation_positions):
        cached.cache_clear()
    return built


def test_verify_builds_each_space_and_operator_it_needs(monkeypatch, capsys):
    built = _count_builds(monkeypatch)
    code, _, _ = run(["verify", "--model", "pairing:4,0.5,1.0", "--k", "6",
                      "--trunc", "rank:2", "--diis", "8"], capsys)
    assert code == 0
    # the CAS space, the one external space (every truncation is a set of positions
    # in it) and one space per cluster amplitude support
    assert built["spaces"] <= 5
    assert built["operators"] <= 17
    # one determinant space, so one mask sort, one level array and one occupation table
    assert built["dets"] == built["occupations"] == built["sectors"] == 1


def test_tcc_builds_one_external_space_as_deep_as_it_reads(monkeypatch, capsys):
    from tccbench import determinants

    _count_builds(monkeypatch)   # empties the space caches
    built = []
    init = determinants.ExcitationSpace.__init__
    monkeypatch.setattr(determinants.ExcitationSpace, "__init__",
                        lambda self, *args: built.append(self) or init(self, *args))
    argv = ["tcc", "--model", "pairing:6,0.5,1.0", "--k", "8", "--trunc", "rank:2", "--diis", "8"]
    code, _, _ = run(argv, capsys)
    assert code == 0
    _, _, split = cli._load_split(cli.build_parser().parse_args(argv))
    external = [space for space in built if any(
        determinants.classify_excitation(mu, split) == "ext" for mu in space.indices)]
    assert external == [tcc.external_space(split)]
    # rank:2 is read at levels <= 2, which H couples to levels <= 4, where e^T must reach;
    # the whole table would reach level 6 in 30,171 rows
    assert len(external[0]._ends) == 5 and len(external[0].table[0]) == 20_779


def test_select_cas_builds_one_determinant_space(monkeypatch, capsys):
    built = _count_builds(monkeypatch)
    code, _, _ = run(["select-cas", "--model", "hubbard:6,1.0,2.0,4", "--mo"], capsys)
    assert code == 0
    # the H build and the orbital RDMs share one occupation table
    assert built["dets"] == built["occupations"] == built["sectors"] == 1
    assert built["spaces"] == 0


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
    ["fci", "--model", "hubbard:2,1.0,4.0"],
    ["cas-fci", "--model", "hubbard:2,1.0,4.0", "--k", "3"],
    ["select-cas", "--model", "hubbard:6,1.0,2.0,4", "--mo"],
    ["tcc", "--model", "hubbard:4,1.0,2.0", "--mo", "--k", "6", "--trunc", "rank:2"],
    ["verify", "--model", "pairing:4,0.5,1.0", "--k", "6", "--trunc", "rank:2",
     "--samples", "2"],
], ids=["fci", "cas-fci", "select-cas", "tcc", "verify"])
def test_commands_do_not_import_numpy_ma(args, tmp_path):
    # numpy.ma costs 15-23 ms to import in a fresh interpreter; np.unique is
    # one call that pulls it in. OpenSSL (_hashlib) costs about 3.5 MB and
    # 4 ms; the config digest needs only the built-in SHA-256, and verify's
    # sampling only `random`: numpy.random loads OpenSSL through secrets
    status, modules = _cold_command(args, tmp_path)
    assert status == 0
    assert not {"numpy.ma", "numpy.random", "secrets", "hashlib", "_hashlib"} & modules


# the layers every command loads; each command adds its own
COMMON_LAYERS = {"cli", "determinants", "errors", "exact", "hamiltonian", "serialize"}


@pytest.mark.parametrize("args, layers", [
    (["fci", "--model", "hubbard:2,1.0,4.0"], set()),
    (["fci", "--fcidump", "{tmp}/hubbard2.fcidump"], {"fcidump"}),
    (["cas-fci", "--model", "hubbard:2,1.0,4.0", "--k", "3"], set()),
    (["select-cas", "--model", "hubbard:2,1.0,4.0"], {"entropy"}),
    (["tcc", "--model", "pairing:4,0.5,1.0", "--k", "6"], {"tcc"}),
    (["verify", "--model", "pairing:4,0.5,1.0", "--k", "6", "--samples", "2"],
     {"tcc", "diagnostics"}),
], ids=["fci", "fci-fcidump", "cas-fci", "select-cas", "tcc", "verify"])
def test_commands_load_only_the_layers_they_run(args, layers, tmp_path):
    # compiling a module costs a fresh interpreter milliseconds; the eager
    # package loaded all of them for every command
    with open(tmp_path / "hubbard2.fcidump", "w") as fh:
        write_fcidump(hubbard_model(2, 1.0, 4.0), fh)
    args = [a.format(tmp=tmp_path) for a in args]
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
# less matrix_element, which moved to the tests' oracle, and
# excitation_from_reference, which had no caller; plus the fcidump module
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
    "excitation_space", "fci_solve", "fcidump", "fock_matrix",
    "fock_norm_identity_check", "gap_report", "hamiltonian", "hubbard_model",
    "linear_limit_scaling_study", "monotonicity_probe", "mutual_information",
    "one_orbital_rdm", "pairing_model", "parse_fcidump", "permute_spatial_orbitals",
    "quadratic_scaling_study", "rotate_orbitals", "select_cas", "solve_dual", "solve_tcc",
    "split_amplitudes", "tcc", "tcc_energy", "tcc_jacobian", "tcc_residual",
    "two_orbital_rdm", "v_ext_norm", "write_fcidump",
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
