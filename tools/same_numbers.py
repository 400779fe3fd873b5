"""Compare what two checkouts of tccbench emit for the same commands.

    python3 tools/same_numbers.py BEFORE AFTER COMMANDS

BEFORE and AFTER are checkouts (each with a `src` directory). COMMANDS, a
UTF-8 file, holds one tccbench command line per line, without the leading `tccbench`;
blank lines and `#` comments are skipped. Each command runs in a fresh
interpreter per checkout, with PYTHONPATH=<checkout>/src,
OPENBLAS_NUM_THREADS=1, the directory of COMMANDS as its working directory
(so relative input paths name the same file for both sides) and `--out`
set to a new temporary directory. Warnings print as `Category: message`,
without the file and line that raised them, which differ between checkouts.

One line per command reports SAME or DIFF over the output files, stdout,
stderr and exit code; a DIFF names the parts that differ. The exit status
is 1 if any command differs, else 0. Standard library only.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path


# tccbench's entry point, with warnings stripped of their source location
_ENTRY = ("import sys, warnings\n"
          "warnings.formatwarning = lambda m, c, *_, **__: f'{c.__name__}: {m}\\n'\n"
          "from tccbench.cli import main\n"
          "sys.exit(main(sys.argv[1:]))\n")


def read_commands(path: Path) -> list[str]:
    text = path.read_text(encoding="utf-8")
    lines = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
    return [line for line in lines if line]


def child_env(checkout: Path) -> dict[str, str]:
    """The environment a command of the checkout runs in."""
    return dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"),
                OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")


def collect(out: str, stdout: bytes, stderr: bytes, code: int) -> dict[str, bytes]:
    """The files a command wrote under `out`, its stdout, stderr and exit code, by name."""
    seen = {f"file {p.relative_to(out)}": p.read_bytes()
            for p in sorted(Path(out).rglob("*")) if p.is_file()}
    return {**seen, "stdout": stdout, "stderr": stderr, "exit code": str(code).encode()}


def run(checkout: Path, command: str, cwd: Path) -> dict[str, bytes]:
    """The output files, stdout, stderr and exit code of one command."""
    with tempfile.TemporaryDirectory() as out:
        proc = subprocess.run(
            [sys.executable, "-c", _ENTRY, *shlex.split(command), "--out", out],
            cwd=cwd, env=child_env(checkout), capture_output=True)
        return collect(out, proc.stdout, proc.stderr, proc.returncode)


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print("usage: same_numbers.py BEFORE AFTER COMMANDS", file=sys.stderr)
        return 2
    before, after, commands = (Path(a) for a in argv)
    cwd = commands.resolve().parent
    differ = 0
    for command in read_commands(commands):
        a, b = run(before, command, cwd), run(after, command, cwd)
        parts = [k for k in sorted({*a, *b}) if a.get(k) != b.get(k)]
        differ += bool(parts)
        print(f"DIFF  {command}  [{', '.join(parts)}]" if parts else f"SAME  {command}",
              flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
