import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _same_numbers(before: Path, after: Path, commands: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(ROOT / "tools" / "same_numbers.py"),
                           str(before), str(after), str(commands)],
                          capture_output=True, text=True)


def _commands(tmp_path: Path) -> Path:
    path = tmp_path / "commands.txt"
    path.write_text("# two fast commands and one input error\n"
                    "fci --model hubbard:2,1.0,4.0\n"
                    "\n"
                    "cas-fci --model pairing:4,0.5,1.0 --k 6   # a trailing comment\n"
                    "fci --model nope:1\n")
    return path


def test_same_numbers_finds_a_checkout_the_same_as_itself(tmp_path):
    proc = _same_numbers(ROOT, ROOT, _commands(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "SAME  fci --model hubbard:2,1.0,4.0",
        "SAME  cas-fci --model pairing:4,0.5,1.0 --k 6",
        "SAME  fci --model nope:1",
    ]


def test_same_numbers_names_what_differs(tmp_path):
    # a checkout whose CLI only prints and exits 1
    package = tmp_path / "other" / "src" / "tccbench"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("def main(argv):\n    print('other')\n    return 1\n")
    proc = _same_numbers(ROOT, tmp_path / "other", _commands(tmp_path))
    assert proc.returncode == 1
    assert proc.stdout.splitlines() == [
        "DIFF  fci --model hubbard:2,1.0,4.0  [exit code, file fci.json, stdout]",
        "DIFF  cas-fci --model pairing:4,0.5,1.0 --k 6  [exit code, file cas_fci.json, stdout]",
        "DIFF  fci --model nope:1  [stderr, stdout]",
    ]
