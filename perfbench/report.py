"""Print every metric, with its unit, and the error rate of each workload.

    python3 perfbench/report.py --seed N --seconds S [--trace 0|1]

Runs perfbench/run.py for each workload in turn, from the current directory,
which must be the root of a tccbench checkout.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{name}: run.py exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        status |= not res["correct"]
        print(f"{name}: correct {res['correct']}, error_rate "
              f"{res['failed'] / res['attempted']:g} ({res['failed']}/{res['attempted']})")
        for metric, m in res["metrics"].items():
            print(f"  {metric:<30} {m['value']:.6g} {m['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
