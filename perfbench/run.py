"""tccbench benchmark: closed-loop CLI timings and a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a tccbench checkout; the program is imported from
the checkout's `src`. One client runs one command at a time, each in a fresh
interpreter, the next starting when the previous one has exited, for S
seconds. Every command's result document is checked against pinned values
(gate.py); a failed check or a nonzero exit counts as a failed command.

Times are in reference seconds. The speed of a shared machine drifts by tens
of percent within a minute, so runs of a fixed reference task (reference.py)
bracket every timed child, and its wall time is reported as REF_SECONDS *
(its wall time / the mean wall time of the two references around it). The
raw wall times are kept in the results file.

--trace 0 reports the end-to-end metrics: wall_s (median over the commands),
setup_s (median over fresh interpreters that import tccbench and build the
workload's integrals, basis and Fock spectrum) and peak_rss_mb (median of
each command's own peak RSS, from wait4).

--trace 1 alternates untraced commands with traced passes (child.py trace),
which repeat the command's calls in-process with a span around each, and
reports per-layer medians in plain seconds. End-to-end metrics come only
from --trace 0.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Provenance, samples and spans go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import gate
import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
# One client on one core: with single-threaded BLAS the closed loop never
# needs more than one of the machine's cores.
BLAS_THREADS = 1
SETUP_REPEATS = 5
# Nominal wall time of reference.py; about its median on the 2-core machine
# the benchmark was pinned on, so reference seconds are close to seconds there.
REF_SECONDS = 0.5
MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 60.0
# Start no new command after this many seconds, so a run ends well within 180 s.
DEADLINE_S = 120.0

LAYERS = ["determinants", "hamiltonian", "exact", "tcc", "entropy",
          "diagnostics", "serialize", "cli"]
LAYER_METRICS = [
    "determinants.enumerate_s", "hamiltonian.load_s", "hamiltonian.fock_s",
    "hamiltonian.build_dense_s", "exact.fci_solve_s", "exact.cas_fci_s",
    "exact.ci_to_cluster_s", "exact.cluster_to_ci_s",
    "tcc.solve_s", "tcc.iterations", "tcc.iteration_s", "tcc.residual_s",
    "diagnostics.assumptions_s", "diagnostics.decomposition_s", "diagnostics.dual_s",
    "diagnostics.jacobian_s", "diagnostics.representation_s", "diagnostics.scaling_s",
    "entropy.mutual_information_s", "entropy.select_s",
    "serialize.dump_s", "serialize.bytes",
    "cli.cpu_s", "cli.glue_s", "cli.wall_s", "cli.command_s",
    "hamiltonian.dim", "tcc.n_ext", "tcc.n_tcas",
    "tcc.solve.calls", "diagnostics.dual.calls", "diagnostics.jacobian.calls",
] + [f"{layer}.self_s" for layer in LAYERS]


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    return "bytes" if metric.endswith(".bytes") else "count"


@dataclass
class Sample:
    wall: float
    cpu: float
    rss_mb: float
    status: int


class Runner:
    """Starts children one at a time from the checkout root and reaps each."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def spawn(self, argv: list[str]) -> Sample:
        """Run one child to exit; CPU time and peak RSS are its own (wait4)."""
        start = time.perf_counter()
        with open(self.work / "stderr.txt", "wb") as err:
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Sample(time.perf_counter() - start, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024, proc.returncode)

    def record(self, what: str, sample: Sample, check) -> bool:
        """Count one operation; `check()` lists its output mismatches."""
        self.attempted += 1
        if sample.status != 0:
            err = (self.work / "stderr.txt").read_text(errors="replace").strip()
            problems = [f"exit {sample.status}: {err[-400:]}"]
        else:
            problems = check()
        self.problems += [f"{what}: {p}" for p in problems]
        self.failed += bool(problems)
        return not problems

    def reference(self) -> Sample:
        s = self.spawn([sys.executable, str(HERE / "reference.py")])
        if s.status != 0:
            raise RuntimeError(f"reference task failed with exit {s.status}")
        return s

    def setup(self, wl) -> Sample:
        s = self.spawn([sys.executable, str(HERE / "child.py"), "setup", wl.name])
        self.record("setup", s, list)
        return s

    def command(self, wl, seed: int) -> Sample:
        out = self.work / "cli"
        doc = out / f"{wl.command.replace('-', '_')}.json"
        doc.unlink(missing_ok=True)
        s = self.spawn([sys.executable, "-m", "tccbench.cli", *wl.cli_args(seed),
                        "--out", str(out)])
        self.record("command", s, lambda: gate.check(wl.name, json.loads(doc.read_text()), seed))
        return s

    def traced(self, wl, seed: int, run: str) -> dict | None:
        out = self.work / f"trace-{run}.json"
        s = self.spawn([sys.executable, str(HERE / "child.py"), "trace", wl.name,
                        str(seed), run, str(out)])
        result = {}

        def check():
            result.update(json.loads(out.read_text()))
            return (gate.check(wl.name, json.loads(result["document"]), seed)
                    + gate.check_dims(wl.name, result["counts"]))
        return result if self.record("traced", s, check) else None


def closed_loop(seconds: float, deadline: float, step) -> list:
    """Call `step()` back to back for about `seconds`, at least MIN_SAMPLES times."""
    out, took = [], []
    start = time.perf_counter()
    while time.perf_counter() < deadline:
        elapsed = time.perf_counter() - start
        if len(out) >= MIN_SAMPLES and elapsed + statistics.median(took) > seconds:
            break
        t = time.perf_counter()
        out.append(step())
        took.append(time.perf_counter() - t)
    return out


def ratios(first: Sample, pairs: list[tuple[Sample, Sample]]) -> list[float]:
    """Each child's wall time over the mean of the references before and after it."""
    refs = [first] + [r for _, r in pairs]
    return [s.wall / ((a.wall + b.wall) / 2) for (s, _), a, b in zip(pairs, refs, refs[1:])]


def layer_metrics(passes: list[dict], commands: list[Sample]) -> dict[str, float]:
    """Per-layer medians over traced passes, plus the untraced commands' CPU and glue."""
    rows = []
    for p in passes:
        row = dict.fromkeys(LAYER_METRICS, 0.0)
        summary = spans.summarize(p["spans"])
        row.update({k: v for k, v in summary.items() if k in row})
        row.update(p["counts"])
        row["tcc.iterations"] = sum(s.get("iterations", 0) for s in p["spans"])
        if row["tcc.iterations"]:
            row["tcc.iteration_s"] = row["tcc.solve_s"] / row["tcc.iterations"]
        root = next(s for s in p["spans"] if s["parent"] is None)
        row["cli.command_s"] = root["end"] - root["start"]
        rows.append(row)
    out = {k: statistics.median(r[k] for r in rows) for k in LAYER_METRICS}
    out["cli.cpu_s"] = statistics.median(c.cpu for c in commands)
    out["cli.wall_s"] = statistics.median(c.wall for c in commands)
    out["cli.glue_s"] = out["cli.wall_s"] - out["cli.command_s"]
    return out


def provenance(root: Path, args) -> dict:
    import numpy
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "commit": commit, "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas, "blas_threads": BLAS_THREADS,
            "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0))}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "tccbench" / "cli.py").is_file():
        print(f"no tccbench sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    prov = provenance(root, args)
    results = root / ".perfbench_out"
    work = results / f"work-{os.getpid()}"
    (work / "cli").mkdir(parents=True, exist_ok=True)
    runner = Runner(root, work)
    deadline = time.perf_counter() + DEADLINE_S
    try:
        if args.trace == 0:
            first = runner.reference()
            setups = [(runner.setup(wl), runner.reference()) for _ in range(SETUP_REPEATS)]
            pairs = closed_loop(args.seconds, deadline, lambda: (
                runner.command(wl, args.seed), runner.reference()))
            commands = [c for c, _ in pairs]
            metrics = {
                "wall_s": REF_SECONDS * statistics.median(ratios(setups[-1][1], pairs)),
                "setup_s": REF_SECONDS * statistics.median(ratios(first, setups)),
                "peak_rss_mb": statistics.median(c.rss_mb for c in commands),
            }
            detail = {"reference_s": [first.wall] + [r.wall for _, r in setups + pairs],
                      "setup_s": [s.wall for s, _ in setups],
                      "wall_s": [c.wall for c in commands]}
            note = (f", raw median wall {statistics.median(detail['wall_s']):.4g} s,"
                    f" reference {statistics.median(detail['reference_s']):.4g} s")
        else:
            pairs = closed_loop(args.seconds, deadline, lambda: (
                runner.command(wl, args.seed),
                runner.traced(wl, args.seed, f"{args.seed}-{runner.attempted}")))
            commands = [c for c, _ in pairs]
            passes = [p for _, p in pairs if p is not None]
            metrics = layer_metrics(passes, commands) if passes else {}
            detail = {"spans": [s for p in passes for s in p["spans"]]}
            note = ""
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = runner.failed
    correct = failed == 0 and bool(metrics)
    (results / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(
        {"provenance": prov, "metrics": metrics, "problems": runner.problems, **detail}))
    for p in runner.problems:
        print(f"FAILED {p}", file=sys.stderr)
    print(json.dumps({"provenance": prov}))
    print(f"{wl.name}: {len(commands)} commands, error_rate {failed / runner.attempted:g}"
          f" ({failed}/{runner.attempted}){note}")
    print(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": unit(k)}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
