import ast
import dataclasses
import functools
import gc
import hashlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracle
import tccbench
from tccbench import (
    cli,
    determinants,
    diagnostics,
    entropy,
    errors,
    hubbard_model,
    serialize,
    tcc,
    write_fcidump,
)
from tccbench.cli import main
from tccbench.determinants import (
    AmplitudeVector,
    BasisSplit,
    OrbitalBasis,
)
from tccbench.exact import CiVector, DegenerateGroundStateWarning, SpectralSummary
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


def test_dumps_escapes_dict_keys():
    # keys went out raw while string values were escaped: a tab in a key was invalid JSON
    doc = {"tab\there": 1, 'a "quoted" key': [2], "back\\slash": {"new\nline": None}}
    assert json.loads(dumps(doc)) == doc


@dataclasses.dataclass
class _Amplitudes:
    label: str
    t: AmplitudeVector


def _every_branch():
    """A payload that reaches every branch of the emitter."""
    return {
        "ci": CiVector(OrbitalBasis(4, 2), [0.5, -0.5, 0.5, 0.5, 0.0, 1 / 3]),
        "spectrum": SpectralSummary(np.array([-1.25, 0.5]), 1.75),
        "amplitudes": _Amplitudes("ext", AmplitudeVector("ext", {   # 2->3 and 1,2->3,4 of N = 2
            oracle.index_mask(2, (2,), (3,)): 0.25, oracle.index_mask(2, (1, 2), (3, 4)): -0.1})),
        "numpy": [np.int64(7), np.bool_(False), np.float64(0.1), np.arange(6).reshape(2, 3) / 4],
        "tuple": (1, "two", True),
        "special": [None, float("nan"), float("inf"), float("-inf")],
        "empty": [{}, []],
        "text": "tab\there \x01 Ψ₀ é",
        "a": 1, "a!": 2, 10: "ten", "9": "nine",
    }


# the bytes the two-pass emitter (to_jsonable, then _emit) wrote, so any byte the one walk
# changes fails; keys sort by str(key): "a" precedes "a!" though '"a!": ' sorts first
EVERY_BRANCH_JSON = r"""{
  "10": "ten",
  "9": "nine",
  "a": 1,
  "a!": 2,
  "amplitudes": {
    "label": "ext",
    "t": {
      "entries": {
        "1,2->3,4": -0.10000000000000001,
        "2->3": 0.25
      },
      "scheme": null,
      "space": "ext"
    }
  },
  "ci": {
    "coefficients": [
      0.5,
      -0.5,
      0.5,
      0.5,
      0,
      0.33333333333333331
    ],
    "n_electrons": 2,
    "n_orbitals": 4,
    "normalization": "L2"
  },
  "empty": [
    {},
    []
  ],
  "numpy": [
    7,
    false,
    0.10000000000000001,
    [
      [
        0,
        0.25,
        0.5
      ],
      [
        0.75,
        1,
        1.25
      ]
    ]
  ],
  "special": [
    null,
    "NaN",
    "Infinity",
    -Infinity
  ],
  "spectrum": {
    "eigenvalues": [
      -1.25,
      0.5
    ],
    "gap": 1.75,
    "ground_energy": -1.25,
    "state_index": 0
  },
  "text": "tab\u0009here \u0001 Ψ₀ é",
  "tuple": [
    1,
    "two",
    true
  ]
}
"""


def test_dumps_writes_the_pinned_bytes_for_every_branch():
    assert dumps(_every_branch()) == EVERY_BRANCH_JSON


@pytest.mark.parametrize("obj", [object(), {1.5j}], ids=["object", "set"])
def test_dumps_refuses_a_type_it_does_not_write(obj):
    with pytest.raises(TypeError, match=f"^cannot serialize {type(obj).__name__}$"):
        dumps(obj)


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
    # float("\t4.0") parses, so the spec is accepted; the config records it as parsed
    code, out, _ = run(["fci", "--model", "hubbard:2,1.0,\t4.0"], capsys)
    assert code == 0
    assert json.loads(out)["config"]["model"] == "hubbard:2,1.0,4.0"


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


@pytest.mark.parametrize("spec, field", [("hubbard:x,1.0,2.0", "x"), ("pairing:4.5,0.5", "4.5")])
def test_a_model_field_that_does_not_parse_is_an_input_error(spec, field, capsys):
    assert run(["fci", "--model", spec], capsys) == (
        1, "", f"error: bad model spec {spec!r}: invalid literal for int() with base 10: "
               f"{field!r}\n")


def test_trunc_sd_is_rank_2(capsys):
    argv = ["tcc", "--model", "pairing:4,0.5,1.0", "--k", "6", "--trunc"]
    (code, sd, _), (_, rank2, _) = (run([*argv, spec], capsys) for spec in ("sd", "rank:2"))
    assert code == 0 and json.loads(sd)["payload"] == json.loads(rank2)["payload"]
    assert json.loads(sd)["payload"]["t"]["scheme"] == "rank:2"


@pytest.mark.parametrize("field, bad", [("ISYM=1,", "ISYM=abc,"),
                                        ("ORBSYM=1,1,1,1,", "ORBSYM=x,y,z,w,")],
                         ids=["ISYM", "ORBSYM"])
def test_fcidump_symmetry_labels_must_be_integers(field, bad, tmp_path, capsys):
    # the docstring said ORBSYM/ISYM are validated; only ORBSYM's count was, so both ran
    text = (Path(__file__).resolve().parents[1] / "tools" / "hubbard4.fcidump").read_text()
    good, path = tmp_path / "good.fcidump", tmp_path / "bad.fcidump"
    good.write_text(text)
    path.write_text(text.replace(field, bad))
    label = bad.split("=")[1].split(",")[0]
    assert run(["fci", "--fcidump", str(path)], capsys) == (
        1, "", f"error: non-integer header field: invalid literal for int() with base 10: "
               f"{label!r}\n")
    code, out, err = run(["fci", "--fcidump", str(good)], capsys)
    model = json.loads(run(["fci", "--model", "hubbard:4,1.0,2.0"], capsys)[1])
    assert (code, err) == (0, "") and json.loads(out)["payload"] == model["payload"]


def test_one_problem_gets_one_config_hash(tmp_path, capsys):
    # the config recorded --trunc and --diis as typed: rank:2, rank:02 and sd, and no --diis,
    # --diis 0 and --diis 1 (a window that never extrapolates) gave one problem five hashes
    argv = ["tcc", "--model", "pairing:4,0.5,1.0", "--k", "6"]
    spellings = [{"trunc": "rank:2"}, {"trunc": "rank:02"}, {"trunc": "sd"},
                 {"trunc": "rank:2", "diis": "0"}, {"trunc": "rank:2", "diis": "1"}]
    outputs = set()
    for i, flags in enumerate(spellings):
        cfg = tmp_path / f"{i}.cfg"
        cfg.write_text("".join(f"{key}={val}\n" for key, val in flags.items()))
        by_flag = [arg for key, val in flags.items() for arg in (f"--{key}", val)]
        for j, route in enumerate((by_flag, ["--config", str(cfg)])):
            out = tmp_path / f"{i}-{j}"
            assert run([*argv, *route, "--out", str(out)], capsys) == (0, "", "")
            outputs.add(((out / "tcc.json").read_bytes(), (out / "history.tsv").read_bytes()))
    assert len(outputs) == 1
    doc = json.loads(outputs.pop()[0])
    assert doc["config"]["trunc"] == doc["payload"]["t"]["scheme"] == "rank:2"
    assert "diis" not in doc["config"]


def test_one_model_gets_one_config_hash(tmp_path, capsys):
    # the config recorded --model as typed: these three spellings gave one problem three
    # hashes; the spec already written as parsed keeps the hash it had
    outputs = set()
    for i, spec in enumerate(["pairing:4,0.5,1.0", "pairing:4,0.5,1", "PAIRING:4,0.50,1.0"]):
        cfg = tmp_path / f"{i}.cfg"
        cfg.write_text(f"model={spec}\n")
        for j, route in enumerate((["--model", spec], ["--config", str(cfg)])):
            out = tmp_path / f"{i}-{j}"
            argv = ["tcc", *route, "--k", "6", "--trunc", "rank:2", "--out", str(out)]
            assert run(argv, capsys) == (0, "", "")
            outputs.add(((out / "tcc.json").read_bytes(), (out / "history.tsv").read_bytes()))
    assert len(outputs) == 1
    doc = json.loads(outputs.pop()[0])
    assert doc["config"]["model"] == "pairing:4,0.5,1.0"
    assert doc["config_sha256"].startswith("3e5d85e4")


@pytest.mark.parametrize("spec", ["rank:\u00b2", "rank:\u0663"], ids=["superscript", "arabic"])
def test_a_trunc_cap_takes_only_ascii_digits(spec, tmp_path, capsys):
    # str.isdigit took both: int() raised a ValueError traceback on the superscript two,
    # and read the Arabic-Indic three as rank 3 under a config hash of its own
    argv = ["tcc", "--model", "pairing:4,0.5,1.0", "--k", "6"]
    want = (1, "", f"error: bad truncation spec {spec!r} (want sd|rank:N|foi:N|full)\n")
    assert run([*argv, "--trunc", spec], capsys) == want
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"trunc={spec}\n", encoding="utf-8")
    assert run([*argv, "--config", str(cfg)], capsys) == want


def test_the_solver_defaults_are_the_tcc_commands():
    # TccConfig stopped at 200 iterations, the tcc and verify commands at 500
    assert cli._solver_config(cli.build_parser().parse_args(["tcc"])) == tcc.TccConfig()


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


@pytest.mark.parametrize("args", [
    "tcc --model hubbard:4,1.0,2.0,3 --mo --k 6",
    "tcc --model hubbard:4,1.0,2.0,3 --mo --k 8",
    "tcc --model pairing:5,0.5,1.0 --k 10",
    "tcc --model hubbard:5,1.0,2.0,5 --mo --k 8",
    "tcc --model hubbard:5,1.0,2.0,5 --mo --k 10",
    "verify --model hubbard:5,1.0,2.0,5 --mo --k 8 --trunc rank:2 --diis 8 --samples 3",
])
def test_odd_electron_commands_tailor_on_the_reference_sector(args, tmp_path, capsys):
    # each exited 1: "reference overlap ... too small for intermediate normalization"
    code, _, err = run(args.split() + ["--out", str(tmp_path)], capsys)
    assert code == 0, err


def test_verify_with_an_empty_external_space(capsys):
    # k = K: nothing to sample around t_*, but the decomposition is defined
    base = ["verify", "--model", "pairing:4,0.5,1.0", "--k", "8", "--samples", "2"]
    code, _, err = run(base, capsys)
    assert code == 1 and err.startswith("error:") and "k = K" in err
    assert run(base + ["--decomposition"], capsys)[0] == 0


def test_exit_size_limit(capsys):
    code, _, _ = run(["fci", "--model", "hubbard:11,1.0,1.0"], capsys)
    assert code == 3


def test_models_share_the_fcidump_orbital_bound(capsys):
    # a 10-level cap refused pairing:12 (dim 276), which ran as an FCIDUMP file
    code, out, err = run(["fci", "--model", "pairing:12,0.5,1.0,2"], capsys)
    assert code == 0 and not err
    assert len(json.loads(out)["payload"]["summary"]["eigenvalues"]) == 276
    code, out, err = run(["fci", "--model", "hubbard:33,1.0,2.0,1"], capsys)
    assert code == 3 and not out
    assert err == "limit exceeded: NORB=33 exceeds the hard limit of 32\n"


def _parent_category(cls):
    """The exit code and prefix that main assigned each error class by an except list."""
    if issubclass(cls, errors.SolverError):
        return 2, "solver error"
    if issubclass(cls, errors.SizeLimitError):
        return 3, "limit exceeded"
    return 1, "error"


@pytest.mark.parametrize("cls", [c for c in vars(errors).values()
                                 if isinstance(c, type) and issubclass(c, errors.TccBenchError)],
                         ids=lambda c: c.__name__)
def test_each_error_class_carries_its_exit_code_and_prefix(cls, monkeypatch, capsys):
    def fail(args):
        raise cls("boom")

    monkeypatch.setattr(cli, "cmd_fci", fail)
    code, prefix = _parent_category(cls)
    assert (cls.exit_code, cls.prefix) == (code, prefix)
    assert run(["fci", "--model", "hubbard:2,1.0,4.0"], capsys) == (code, "", f"{prefix}: boom\n")


def test_the_error_classes_are_the_exit_codes_and_src_raises_only_those():
    # errors held 21 classes, and no except told 17 of them apart: a new class needs a caller
    src = Path(tccbench.__file__).parent
    classes = [node.name for node in ast.parse((src / "errors.py").read_text()).body
               if isinstance(node, ast.ClassDef)]
    assert classes == ["TccBenchError", "InputError", "SolverError", "SizeLimitError"]
    others = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}   # each raise -> its innermost function: ast.walk visits outer ones first
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, func.name) for node in ast.walk(func)
                             if isinstance(node, ast.Raise))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = exc.id if isinstance(exc, ast.Name) else ast.dump(exc) if exc else None
                if name not in ("InputError", "SolverError", "SizeLimitError"):
                    others.add((path.stem, owner.get(node), name))
    assert others == {("serialize", "_emit", "TypeError"),
                      ("__init__", "__getattr__", "AttributeError")}


def _profile(n_orbitals):
    return entropy.OrbitalEntropyProfile(np.zeros(n_orbitals), np.zeros((n_orbitals,) * 2),
                                         np.zeros((n_orbitals,) * 2))


# one call per argument check of the library, each given a value outside the analysis's range
ARGUMENT_CHECKS = {
    "OrbitalBasis N": lambda s: OrbitalBasis(8, 8),
    "OrbitalBasis K": lambda s: OrbitalBasis(66, 2),
    "BasisSplit": lambda s: BasisSplit(s.basis, 9),
    "TruncationScheme mode": lambda s: tcc.TruncationScheme("guess"),
    "TruncationScheme rank": lambda s: tcc.TruncationScheme(tcc.MODE_RANK, 0),
    "TruncationScheme full cap": lambda s: tcc.TruncationScheme(tcc.MODE_FULL, 3),
    "TccConfig max_iterations": lambda s: tcc.TccConfig(max_iterations=0),
    "TccConfig tolerance": lambda s: tcc.TccConfig(tolerance=-1.0),
    "TccConfig damping": lambda s: tcc.TccConfig(damping=1.5),
    "TccConfig diis": lambda s: tcc.TccConfig(diis=-1),
    # each was accepted: rank:1.5 solved rank 1, and the others died in solve_tcc
    "TruncationScheme rank 1.5": lambda s: tcc.TruncationScheme(tcc.MODE_RANK, 1.5),
    "TruncationScheme rank True": lambda s: tcc.TruncationScheme(tcc.MODE_RANK, True),
    "TccConfig max_iterations 2.5": lambda s: tcc.TccConfig(max_iterations=2.5),
    "TccConfig max_iterations True": lambda s: tcc.TccConfig(max_iterations=True),
    "TccConfig diis 2.5": lambda s: tcc.TccConfig(diis=2.5),
    "TccConfig diis True": lambda s: tcc.TccConfig(diis=True),
    "check_thresholds": lambda s: entropy.check_thresholds(0.0, -1.0),
    "select_cas mode": lambda s: entropy.select_cas(_profile(4), 2, mode="GUESS"),
    "select_cas odd K": lambda s: entropy.select_cas(_profile(5), 2),
    "permute_spatial_orbitals": lambda s: entropy.permute_spatial_orbitals(s.ints, (1, 1, 2, 3)),
    "_Stream": lambda s: diagnostics._Stream(-1),
    "AmplitudeVector tag": lambda s: AmplitudeVector("guess"),
    "excitation_space reference": lambda s: determinants.excitation_space(s.basis, (0b1111,)),
    "support_space popcount": lambda s: determinants.support_space([0b11111], s.basis),
    "ExcitationSpace.embed key type": lambda s: tcc.external_space(s.split).embed(
        AmplitudeVector("ext", {30.0: 0.1})),
    "fock_matrix basis": lambda s: tccbench.fock_matrix(s.ints, OrbitalBasis(6, 4)),
    "CiVector length": lambda s: CiVector(s.basis, np.zeros(5)),
    "rotate_orbitals shape": lambda s: tccbench.rotate_orbitals(s.ints, np.eye(2)),
    "ExcitationSpace.coefficients shape":
        lambda s: tcc.external_space(s.split).coefficients(np.zeros(3)),
    "AmplitudeVector NaN":
        lambda s: AmplitudeVector("cas", {oracle.index_mask(4, (1,), (5,)): np.nan}),
    "AmplitudeVector NaN, a key that is no mask":   # index_label raised a bare ValueError
        lambda s: AmplitudeVector("cas", {"x": np.nan}),
    "TailoredHamiltonian t_cas tag":
        lambda s: tcc.TailoredHamiltonian(AmplitudeVector("ext"), s.ints, s.split),
    "ExcitationSpace.embed index": lambda s: tcc.external_space(s.split).embed(
        AmplitudeVector("ext", {oracle.index_mask(4, (1,), (5,)): 0.1})),
    "mutual_information norm":
        lambda s: entropy.mutual_information(CiVector(s.basis, np.full(70, 0.5))),
    "intermediate_normalized overlap":
        lambda s: CiVector(s.basis, np.eye(70)[-1]).intermediate_normalized(),
    "monotonicity_probe t_star": lambda s: diagnostics.monotonicity_probe(
        tcc.Study(s.ints, s.split), None),
    "write_fcidump 4-fold":
        lambda s: write_fcidump(tccbench.pairing_model(3, 0.5), io.StringIO()),
}


@pytest.mark.parametrize("check", ARGUMENT_CHECKS.values(), ids=ARGUMENT_CHECKS)
def test_every_argument_check_raises_an_input_error(check, pairing4):
    # each raised a bare ValueError, which the CLI translated block by block
    with pytest.raises(errors.InputError) as info:
        check(pairing4)
    assert isinstance(info.value, ValueError) and info.value.exit_code == 1


@pytest.mark.parametrize("command, message", [
    ("tcc --model pairing:4,0.5,1.0 --k 9", "need N <= k <= K, got k=9, N=4, K=8"),
    ("fci --model pairing:4,0.5,1.0,9", "need 0 < N < K, got N=9, K=8"),
    ("select-cas --model hubbard:2,1.0,4.0 --mi-threshold -1",
     "thresholds must be nonnegative, got 0.0, -1.0"),
    ("tcc --model pairing:4,0.5,1.0 --k 6 --tol -1", "tolerance must be positive and finite"),
], ids=["--k 9", "N=9", "--mi-threshold -1", "--tol -1"])
def test_a_bad_argument_prints_the_librarys_message(command, message, capsys):
    # the CLI put "bad --k: ", "bad electron count: ", "bad selection settings: " or
    # "bad solver settings: " before each
    assert run(command.split(), capsys) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("command", [
    "verify --model hubbard:4,1.0,2.0 --mo --k 6 --trunc rank:2 --samples 2 --delta 1e300 "
    "--assumptions",
    "verify --model pairing:4,0.5,1.0 --k 6 --trunc rank:2 --diis 8 --assumptions --samples 3 "
    "--delta 1e80",
], ids=["hubbard4-1e300", "pairing4-1e80"])
@pytest.mark.filterwarnings("error")   # numpy warned of each overflow before the error line
def test_non_finite_samples_are_input_errors(command, capsys):
    # overflowed samples were skipped: exit 0 with gamma_hat Infinity and a positive margin
    delta = command.split("--delta ")[1].split()[0]
    code, out, err = run(command.split(), capsys)
    assert code == 1 and not out
    assert err == f"error: a sample of the delta={float(delta)} ball gave a non-finite quotient\n"


def test_an_overflowing_ball_prints_one_error_line(tmp_path):
    # the program printed four numpy RuntimeWarnings, eight lines with file paths, first
    done = subprocess.run(
        [sys.executable, "-m", "tccbench.cli", "verify", "--model", "hubbard:4,1.0,2.0", "--mo",
         "--k", "6", "--trunc", "rank:2", "--samples", "2", "--delta", "1e300", "--assumptions",
         "--out", str(tmp_path)],
        env=_program_env(), capture_output=True, text=True)
    assert done.returncode == 1 and not done.stdout
    assert done.stderr == "error: a sample of the delta=1e+300 ball gave a non-finite quotient\n"
    assert not any(tmp_path.iterdir())


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
    _, split = cli._load_split(cli.build_parser().parse_args(argv))
    external = [space for space in built if any(
        mu >> split.k for mu in space.indices)]
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

def _program_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports this checkout's tccbench."""
    return {**os.environ, "PYTHONPATH": str(Path(tccbench.__file__).resolve().parents[1])}


def _cold_start(code: str, *args: str) -> list[str]:
    """Run `code` with `args` in a fresh interpreter; its stdout, split."""
    done = subprocess.run([sys.executable, "-W", "ignore", "-c", code, *args],
                          env=_program_env(), capture_output=True, text=True, check=True)
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
# Program entries
# ---------------------------------------------------------------------------

# How each program entry reaches cli.main(): `python -m tccbench.cli` runs the
# module as __main__, and the console script of pyproject.toml calls main().
PROGRAM_ENTRIES = {
    "python -m": "try:\n"
                 "    runpy.run_module('tccbench.cli', run_name='__main__')\n"
                 "except SystemExit as exc:\n"
                 "    status = exc.code\n",
    "console script": "from tccbench.cli import main\nstatus = main()\n",
}


@pytest.mark.parametrize("entry", PROGRAM_ENTRIES)
def test_program_entries_freeze_the_imported_heap_once(entry, tmp_path):
    # the imported heap lives until exit, so no collection needs to scan it, shutdown's included
    code = ("import gc, runpy, sys\n"
            "freezes = []\n"
            "freeze = gc.freeze\n"
            "gc.freeze = lambda: freezes.append(1) or freeze()\n"
            "sys.argv = ['tccbench', *sys.argv[1:]]\n"
            + PROGRAM_ENTRIES[entry] +
            "print(status, len(freezes), gc.get_freeze_count())\n")
    status, freezes, frozen = _cold_start(code, "tcc", "--model", "pairing:4,0.5,1.0", "--k", "6",
                                          "--trunc", "rank:2", "--out", str(tmp_path))
    assert (status, freezes) == ("0", "1") and int(frozen) > 0
    assert json.loads((tmp_path / "tcc.json").read_text())["payload"]["converged"] is True


def test_a_call_with_argv_leaves_the_collector_alone(monkeypatch, capsys):
    # a library caller's heap is its own: freezing it would pin every later test's garbage
    def refuse():
        raise AssertionError("a call with an argument list froze the heap")

    frozen = gc.get_freeze_count()
    monkeypatch.setattr(gc, "freeze", refuse)
    assert run(["tcc", "--model", "pairing:4,0.5,1.0", "--k", "6"], capsys)[0] == 0
    assert run(["fci", "--model", "bad"], capsys)[0] == 1
    assert gc.get_freeze_count() == frozen


def test_a_program_run_writes_the_documents_of_a_call(tmp_path, capsys):
    args = ["verify", "--model", "pairing:4,0.5,1.0", "--k", "6",
            "--trunc", "rank:2", "--samples", "5", "--seed", "7"]
    program, call = tmp_path / "program", tmp_path / "call"
    subprocess.run([sys.executable, "-m", "tccbench.cli", *args, "--out", str(program)],
                   env=_program_env(), check=True)
    assert run(args + ["--out", str(call)], capsys)[0] == 0
    for name in ("verify.json", "scaling.tsv"):
        assert (program / name).read_bytes() == (call / name).read_bytes()


@pytest.mark.parametrize("args, messages", [
    (["fci", "--model", "pairing:5,0.5,1.0", "--n-states", "2"],
     ["near-degenerate ground state; sign fix by lowest determinant index"]),
    (["tcc", "--model", "hubbard:3,1.0,2.0", "--mo", "--k", "4"],
     ["reference orbitals are not canonical (off-diagonal Fock norm 5.000e-01); "
      "the diagonal Fock action is exact only for the retained diagonal",
      "near-degenerate CAS ground state; sign fix by lowest determinant index"]),
], ids=["fci odd N", "tcc non-canonical odd N"])
def test_a_program_run_prints_each_warning_as_one_line(args, messages, tmp_path, capsys):
    # each warning printed two lines: the package's file path and line number, then the source line
    program, call = tmp_path / "program", tmp_path / "call"
    done = subprocess.run([sys.executable, "-m", "tccbench.cli", *args, "--out", str(program)],
                          env=_program_env(), capture_output=True, text=True)
    assert done.returncode == 0 and not done.stdout
    assert done.stderr == "".join(f"warning: {m}\n" for m in messages)
    assert run(args + ["--out", str(call)], capsys)[0] == 0
    names = sorted(p.name for p in call.iterdir())
    assert names and sorted(p.name for p in program.iterdir()) == names
    for name in names:
        assert (program / name).read_bytes() == (call / name).read_bytes()


def test_a_call_with_argv_leaves_the_warning_display_alone(capsys):
    # the caller's display still receives the warning: a replaced one would print it instead
    with pytest.warns(DegenerateGroundStateWarning):
        shown = warnings.showwarning
        assert run(["fci", "--model", "pairing:5,0.5,1.0", "--n-states", "2"], capsys)[0] == 0
        assert warnings.showwarning is shown


# ---------------------------------------------------------------------------
# Package namespace
# ---------------------------------------------------------------------------

# the names the package exported when it imported every submodule eagerly,
# less matrix_element and fock_norm_identity_check, which moved to the tests' oracle,
# excitation_from_reference, which had no caller, v_ext_norm, whose one caller
# reads the space's weights, and apply_excitation, one_orbital_rdm and two_orbital_rdm,
# scalar views of the excitation table and of the RDM stack that no command read, and
# Determinant, a second representation of the bit masks every layer reads, and the
# excitation-index class with its enumeration and classification functions, a second
# representation of the excitation indices, which are those masks; plus the fcidump module
PACKAGE_NAMES = [
    "AmplitudeVector", "AssumptionReport", "BasisSplit", "CasSelection", "CiVector",
    "ErrorDecomposition", "ExcitationSpace",
    "FockSpectrum", "GapReport", "IntegralSet", "OrbitalBasis", "OrbitalEntropyProfile",
    "ScalingStudy", "SpectralSummary", "Study", "TailoredHamiltonian", "TccConfig",
    "TccResult", "TruncationScheme", "assumption_b_report",
    "build_dense_hamiltonian", "canonicalize_core", "cas_fci_solve", "ci_to_cluster",
    "cluster_to_ci", "determinants", "diagnostics", "entropy",
    "enumerate_determinants", "enumerate_truncated_space",
    "error_decomposition", "error_representation_check", "errors", "exact",
    "excitation_space", "fci_solve", "fcidump", "fock_matrix",
    "gap_report", "hamiltonian", "hubbard_model",
    "linear_limit_scaling_study", "monotonicity_probe", "mutual_information",
    "pairing_model", "parse_fcidump", "permute_spatial_orbitals",
    "quadratic_scaling_study", "rotate_orbitals", "select_cas", "solve_dual", "solve_tcc",
    "split_amplitudes", "tcc", "tcc_energy", "tcc_jacobian", "tcc_residual",
    "write_fcidump",
]


def test_one_version_string_matches_pyproject():
    # the package and serialize each held their own copy of "0.1.0"
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    project = pyproject.split("[project]", 1)[1].split("\n[", 1)[0]
    version = re.search(r'^version = "([^"]+)"$', project, re.MULTILINE)[1]
    assert version == tccbench.__version__ == serialize.VERSION


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
    for name in ("matrix_element", "fock_norm_identity_check", "apply_excitation",
                 "one_orbital_rdm", "two_orbital_rdm", "Determinant", "no_such_name"):
        with pytest.raises(AttributeError, match=name):
            getattr(tccbench, name)
    # a tracer or a test that rebinds a module's function rebinds it for the package too
    monkeypatch.setattr(tcc, "solve_tcc", lambda *args: None)
    assert tccbench.solve_tcc is tcc.solve_tcc
