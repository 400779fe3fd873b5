import json
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


def test_ladder_times_two_rungs_of_a_checkout_against_itself(tmp_path):
    rungs = tmp_path / "rungs.txt"
    rungs.write_text("# two dim-70 rungs\n"
                     "tcc-hubbard4 1 tcc --model hubbard:4,1.0,2.0 --mo --k 6 --trunc rank:2\n"
                     "\n"
                     "cas-fci-pairing4 1 cas-fci --model pairing:4,0.5,1.0 --k 6   # a comment\n")
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "ladder.py"),
                           str(ROOT), str(ROOT), str(rungs)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert [line.split()[:2] for line in proc.stderr.splitlines()] == [
        ["SAME", "tcc-hubbard4"], ["SAME", "cas-fci-pairing4"]]
    doc = json.loads(proc.stdout)
    assert set(doc) == {"provenance", "rungs"}
    assert set(doc["provenance"]) == {"before", "after", "python", "numpy",
                                      "OPENBLAS_NUM_THREADS", "nproc"}
    assert doc["provenance"]["before"] == doc["provenance"]["after"]
    assert set(doc["provenance"]["before"]) == {"commit", "dirty"}
    assert list(doc["rungs"]) == ["cas-fci-pairing4", "tcc-hubbard4"]   # sorted keys
    rung = doc["rungs"]["cas-fci-pairing4"]
    assert rung["command"] == "cas-fci --model pairing:4,0.5,1.0 --k 6"
    assert (rung["pairs"], rung["verdict"], rung["differ"]) == (1, "SAME", [])
    for side in ("before", "after", "floor"):
        for metric in ("wall_s", "peak_rss_mb"):
            [sample] = rung["samples"][side][metric]
            assert sample > 0
            assert rung["summary"][side][metric] == {"median": sample, "quartiles": [sample] * 3}
