"""Fresh-interpreter child processes of the benchmark.

    python3 perfbench/child.py setup WORKLOAD
        Imports tccbench and builds the workload's integrals, basis,
        determinant list and Fock spectrum, untraced. Its wall time is setup_s.

    python3 perfbench/child.py trace WORKLOAD SEED RUN OUT
        Runs the workload's command through tccbench.cli.main in-process,
        with a span around every call of the instrumented layer functions,
        then the kernel probes, and writes the spans, the problem dimensions
        and the result document to the JSON file OUT.

Both run from the root of a checkout with its `src` on PYTHONPATH.
"""

from __future__ import annotations

import json
import shutil
import sys
import warnings
from pathlib import Path

import tccbench
from tccbench import cli, determinants, diagnostics, entropy, exact, hamiltonian, serialize, tcc
from tccbench.determinants import SPACE_FULL, AmplitudeVector

from spans import Tracer
from workloads import WORKLOADS

# Span name and function of every instrumented layer function. The CLI calls
# them wherever it does; tcc_residual and cluster_to_ci run only in the probes.
LAYER_FUNCTIONS = [
    ("hamiltonian.load", hamiltonian.hubbard_model),
    ("hamiltonian.load", hamiltonian.pairing_model),
    ("hamiltonian.load", hamiltonian.canonicalize_core),
    ("hamiltonian.fock", hamiltonian.fock_matrix),
    ("hamiltonian.build_dense", hamiltonian.build_dense_hamiltonian),
    ("determinants.enumerate", determinants.enumerate_determinants),
    ("exact.fci_solve", exact.fci_solve),
    ("exact.cas_fci", exact.cas_fci_solve),
    ("exact.ci_to_cluster", exact.ci_to_cluster),
    ("exact.cluster_to_ci", exact.cluster_to_ci),
    ("tcc.solve", tcc.solve_tcc),
    ("tcc.residual", tcc.tcc_residual),
    ("diagnostics.gap", diagnostics.gap_report),
    ("diagnostics.assumptions", diagnostics.assumption_b_report),
    ("diagnostics.monotonicity", diagnostics.monotonicity_probe),
    ("diagnostics.decomposition", diagnostics.error_decomposition),
    ("diagnostics.dual", diagnostics.solve_dual),
    ("diagnostics.jacobian", diagnostics.tcc_jacobian),
    ("diagnostics.representation", diagnostics.error_representation_check),
    ("diagnostics.scaling", diagnostics.quadratic_scaling_study),
    ("diagnostics.linear_scaling", diagnostics.linear_limit_scaling_study),
    ("entropy.mutual_information", entropy.mutual_information),
    ("entropy.select", entropy.select_cas),
    ("serialize.dump", serialize.dump_document),
    ("serialize.dump", serialize.write_history_tsv),
    ("serialize.dump", serialize.write_scaling_tsv),
    ("serialize.dump", serialize.write_profile_tsv),
]


def setup(wl) -> None:
    args = cli.build_parser().parse_args(wl.cli_args(seed=0))
    ints, basis = cli._load_integrals(args)
    determinants.enumerate_determinants(basis)
    hamiltonian.fock_matrix(ints, basis)


def trace(wl, seed: int, run: str, docs: Path) -> tuple[int, dict]:
    """Run the command under the tracer, writing its documents to `docs`."""
    tracer = Tracer(wl.name, run)
    solves = []

    def record_solve(result, t_cas, ints, split, fock, config):
        solves.append((t_cas, ints, split, config, result))
        return {"iterations": result.iterations}

    records = {
        tcc.solve_tcc: record_solve,
        hamiltonian.build_dense_hamiltonian: lambda ham, *args: {"dim": ham.shape[0]},
    }
    for name, func in LAYER_FUNCTIONS:
        tracer.instrument(name, func, records.get(func))
    with tracer.span(f"cli.{wl.command}"):
        status = cli.main([*wl.cli_args(seed), "--out", str(docs)])
    if status != 0:
        return status, {}

    n_ext = n_tcas = 0
    if solves:
        # The kernel probes, at the first solve the command made: the one
        # of `tcc`, the full-space reference solve of `verify`.
        t_cas, ints, split, config, result = solves[0]
        with tracer.span("probe"):
            tcc.tcc_residual(result.t, t_cas, ints, split, config.truncation)
            exact.cluster_to_ci(
                AmplitudeVector(SPACE_FULL, {**t_cas.entries, **result.t.entries}),
                split.basis)
        n_tcas = len(t_cas.entries)
        trunc = cli.build_parser().parse_args(wl.cli_args(seed)).trunc
        n_ext = len(tcc.enumerate_truncated_space(split, cli._parse_trunc(trunc)))
    doc = docs / f"{wl.command.replace('-', '_')}.json"
    return 0, {
        "spans": tracer.spans,
        "document": doc.read_text(),
        "counts": {
            "hamiltonian.dim": max(s.get("dim", 0) for s in tracer.spans),
            "tcc.n_ext": n_ext,
            "tcc.n_tcas": n_tcas,
            "serialize.bytes": sum(f.stat().st_size for f in docs.iterdir()),
        },
    }


def main(argv: list[str]) -> int:
    src = (Path.cwd() / "src").resolve()
    if src not in Path(tccbench.__file__).resolve().parents:
        print(f"tccbench imported from {tccbench.__file__}, not from {src}", file=sys.stderr)
        return 3
    warnings.simplefilter("ignore")
    mode, wl = argv[0], WORKLOADS[argv[1]]
    if mode == "setup":
        setup(wl)
        return 0
    seed, run, out = int(argv[2]), argv[3], Path(argv[4])
    docs = out.with_name(f"{out.stem}-docs")
    try:
        status, result = trace(wl, seed, run, docs)
    finally:
        shutil.rmtree(docs, ignore_errors=True)
    if status == 0:
        out.write_text(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
