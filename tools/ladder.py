"""Time a ladder of tccbench commands on two checkouts and print the BENCH document.

    python3 tools/ladder.py BEFORE AFTER RUNGS > BENCH_<pr>.json

BEFORE and AFTER are checkouts (each with a `src` directory). RUNGS, a UTF-8
file, holds one rung per line, `name pairs command...`, the command without
the leading `tccbench` and `--out`; blank lines and `#` comments are skipped,
and relative input paths are relative to the directory of RUNGS.

Per rung, each checkout runs the command once as a discarded warm-up (the
first run of a command can be much slower). Then come `pairs` pairs,
alternating which checkout runs first, and one bare `python -c "import
numpy"` per pair: the startup floor beside each figure. Every run is a fresh
interpreter in the environment of same_numbers.py, except that Python may
write its bytecode cache. Wall time is from perf_counter around the child,
peak RSS from its wait4. Each run's output files, stdout, stderr and exit
code are compared with those of the BEFORE warm-up, as same_numbers.py
compares them; a rung is SAME when none differs.

The document holds the raw samples, their medians and inclusive quartiles
per side, each rung's verdict, and the provenance: both checkouts' commits,
Python, numpy, OPENBLAS_NUM_THREADS and nproc. One line per rung goes to
stderr. The exit status is 1 if any rung differs, else 0. Standard library only.
"""

from __future__ import annotations

import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from same_numbers import _ENTRY, child_env, collect, read_commands  # noqa: E402

_FLOOR = [sys.executable, "-c", "import numpy"]


def spawn(argv: list[str], env: dict[str, str], cwd: Path) -> tuple[float, float, dict]:
    """Wall seconds, peak RSS in MB and collected outputs of one child run with --out DIR."""
    with tempfile.TemporaryDirectory() as out, tempfile.TemporaryFile() as stdout, \
            tempfile.TemporaryFile() as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen([*argv, "--out", out], cwd=cwd, env=env,
                                stdout=stdout, stderr=stderr)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout.seek(0)
        stderr.seek(0)
        return wall, usage.ru_maxrss / 1024, collect(out, stdout.read(), stderr.read(),
                                                     proc.returncode)


def summary(samples: list[float]) -> dict:
    quartiles = (statistics.quantiles(samples, n=4, method="inclusive")
                 if len(samples) > 1 else samples * 3)
    return {"median": statistics.median(samples), "quartiles": quartiles}


def measure(checkouts: dict[str, Path], command: str, pairs: int, cwd: Path) -> dict:
    """One rung: the warm-ups, then the alternating pairs, each with one floor run."""
    argv = [sys.executable, "-c", _ENTRY, *shlex.split(command)]
    env = {side: {k: v for k, v in child_env(path).items() if k != "PYTHONDONTWRITEBYTECODE"}
           for side, path in checkouts.items()}
    env["floor"] = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    reference = spawn(argv, env["before"], cwd)[2]
    runs = [spawn(argv, env["after"], cwd)[2]]
    samples = {side: {"wall_s": [], "peak_rss_mb": []} for side in env}
    for i in range(pairs):
        for side in (["before", "after"] if i % 2 == 0 else ["after", "before"]) + ["floor"]:
            wall, rss, outputs = spawn(_FLOOR if side == "floor" else argv, env[side], cwd)
            samples[side]["wall_s"].append(wall)
            samples[side]["peak_rss_mb"].append(rss)
            if side != "floor":
                runs.append(outputs)
    differ = sorted({k for out in runs for k in {*out, *reference} if out.get(k) != reference.get(k)})
    return {"command": command, "pairs": pairs, "verdict": "DIFF" if differ else "SAME",
            "differ": differ, "samples": samples,
            "summary": {side: {metric: summary(values) for metric, values in by_metric.items()}
                        for side, by_metric in samples.items()}}


def commit(checkout: Path) -> dict:
    """The checkout's git commit and whether its tree differs from it (None outside git)."""
    def git(*args: str) -> str | None:
        proc = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None
    head = git("rev-parse", "HEAD")
    return {"commit": head,
            "dirty": None if head is None else bool(git("status", "--porcelain", "--", "src"))}


def provenance(checkouts: dict[str, Path]) -> dict:
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True).stdout.strip()
    return {**{side: commit(path) for side, path in checkouts.items()},
            "python": platform.python_version(), "numpy": numpy,
            "OPENBLAS_NUM_THREADS": "1", "nproc": os.cpu_count()}


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print("usage: ladder.py BEFORE AFTER RUNGS", file=sys.stderr)
        return 2
    checkouts = {"before": Path(argv[0]), "after": Path(argv[1])}
    rungs = Path(argv[2])
    doc = {"provenance": provenance(checkouts), "rungs": {}}
    for line in read_commands(rungs):
        name, pairs, command = line.split(maxsplit=2)
        rung = doc["rungs"][name] = measure(checkouts, command, int(pairs), rungs.resolve().parent)
        medians = "  ".join(f"{side} {rung['summary'][side]['wall_s']['median']:.3f} s"
                            for side in rung["summary"])
        print(f"{rung['verdict']}  {name}  {medians}", file=sys.stderr, flush=True)
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 1 if any(rung["differ"] for rung in doc["rungs"].values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
