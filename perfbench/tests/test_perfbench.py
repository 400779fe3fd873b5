"""Self-checks of the benchmark: span self times, the output gate and the
pinned problem dimensions.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from tccbench import cli  # noqa: E402


def _span(sid, parent, name, start, end):
    return {"id": sid, "name": name, "parent": parent, "start": start, "end": end,
            "workload": "synthetic", "run": "0"}


def test_self_time_of_synthetic_span_tree():
    tree = [
        _span(0, None, "cli.verify", 0.0, 10.0),
        _span(1, 0, "tcc.solve", 1.0, 4.0),
        _span(2, 1, "exact.ci_to_cluster", 2.0, 3.0),
        _span(3, 0, "diagnostics.dual", 5.0, 9.0),
        _span(4, 3, "diagnostics.jacobian", 5.5, 6.0),
        _span(5, 3, "diagnostics.jacobian", 7.0, 8.0),
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 2.5, 4: 0.5, 5: 1.0})
    assert sum(own.values()) == pytest.approx(10.0)
    summary = spans.summarize(tree)
    assert summary["diagnostics.self_s"] == pytest.approx(4.0)
    assert summary["diagnostics.dual_s"] == pytest.approx(4.0)
    assert summary["diagnostics.jacobian_s"] == pytest.approx(1.5)
    assert summary["diagnostics.jacobian.calls"] == 2
    assert summary["cli.self_s"] == pytest.approx(3.0)


def test_tracer_records_parents_of_instrumented_calls(monkeypatch):
    import tccbench
    from tccbench import exact, hamiltonian
    originals = [exact.fci_solve, hamiltonian.build_dense_hamiltonian]
    # Register every binding the tracer will patch, so the patches are undone.
    for name, module in list(sys.modules.items()):
        if name == "tccbench" or name.startswith("tccbench."):
            for attr, value in list(vars(module).items()):
                if any(value is f for f in originals):
                    monkeypatch.setattr(module, attr, value)

    tracer = spans.Tracer("synthetic", "0")
    tracer.instrument("exact.fci_solve", exact.fci_solve)
    tracer.instrument("hamiltonian.build_dense", hamiltonian.build_dense_hamiltonian,
                      lambda ham, *args: {"dim": ham.shape[0]})
    ints = hamiltonian.hubbard_model(2, 1.0, 4.0)
    basis = tccbench.OrbitalBasis(ints.n_spin_orbitals, ints.n_electrons)
    with tracer.span("cli.test"):
        tccbench.fci_solve(ints, basis)
    names = [(s["name"], s["parent"]) for s in tracer.spans]
    assert names == [("cli.test", None), ("exact.fci_solve", 0),
                     ("hamiltonian.build_dense", 1)]
    assert tracer.spans[2]["dim"] == 6
    assert all(s["end"] >= s["start"] for s in tracer.spans)


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """Result documents of the two dim-70 workloads, made by the CLI itself."""
    docs = {}
    for name in ("tcc-hubbard4", "verify-pairing4"):
        wl = WORKLOADS[name]
        out = tmp_path_factory.mktemp(name)
        assert cli.main([*wl.cli_args(seed=5), "--out", str(out)]) == 0
        docs[name] = json.loads((out / f"{wl.command}.json").read_text())
    return docs


@pytest.mark.parametrize("name", ["tcc-hubbard4", "verify-pairing4"])
def test_gate_accepts_program_output(documents, name):
    assert gate.check(name, documents[name], seed=5) == []


@pytest.mark.parametrize("name, path, delta", [
    ("tcc-hubbard4", ("energy",), 1e-9),
    ("verify-pairing4", ("decomposition", "e_fci"), 1e-9),
    ("verify-pairing4", ("scaling", "rows", 1, "distance"), 1e-9),
    ("verify-pairing4", ("assumptions", "omega0"), 1e-9),
])
def test_gate_flags_perturbed_pinned_value(documents, monkeypatch, name, path, delta):
    pinned = copy.deepcopy(gate.PINNED)
    node = pinned[name]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] += delta
    monkeypatch.setattr(gate, "PINNED", pinned)
    problems = gate.check(name, documents[name], seed=5)
    assert len(problems) == 1 and problems[0].startswith(path[0])


@pytest.mark.parametrize("path, delta", [
    (("linear_limit_scaling", "slope"), 1e-7),
    (("assumptions", "margin"), 1e-9),
    (("assumptions", "seed"), 1),
])
def test_gate_flags_broken_seed_invariant(documents, path, delta):
    doc = copy.deepcopy(documents["verify-pairing4"])
    doc["payload"][path[0]][path[1]] += delta
    problems = gate.check("verify-pairing4", doc, seed=5)
    assert len(problems) == 1 and problems[0].startswith(".".join(path))


EXPECTED_DIMS = {  # hamiltonian.dim, tcc.n_ext, tcc.n_tcas
    "tcc-hubbard4": (70, 38, 14),
    "tcc-pairing6": (924, 234, 7),
    "verify-pairing4": (70, 38, 3),
    "select-cas-hubbard6-n4": (495, 0, 0),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_pinned_dimensions(name, tmp_path):
    """A traced pass of the command reports the pinned dimensions."""
    out = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"))
    subprocess.run([sys.executable, str(BENCH / "child.py"), "trace", name, "5", "0",
                    str(out)], cwd=BENCH.parent, env=env, check=True)
    result = json.loads(out.read_text())
    counts = {k: result["counts"][k] for k in ("hamiltonian.dim", "tcc.n_ext", "tcc.n_tcas")}
    assert tuple(counts.values()) == EXPECTED_DIMS[name]
    assert gate.check_dims(name, counts) == []
    assert gate.check(name, json.loads(result["document"]), seed=5) == []


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, run.unit(name)) for name in run.LAYER_METRICS]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: run.unit(name) for name in ("wall_s", "setup_s", "peak_rss_mb")}
