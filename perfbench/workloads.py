"""The benchmark's workloads: one tccbench CLI command each.

Why each was chosen is recorded in BENCHMARK.json at the repository root.

Every solver workload uses the rank-2 external space with an 8-vector
DIIS, as in the CLI examples. Only `verify` consumes the workload seed.
"""

from __future__ import annotations

from dataclasses import dataclass

TRUNC_RANK = 2
DIIS = 8
# Sampled ball pairs of `verify`'s assumption report. The CLI default of 20
# spends about 80% of verify-pairing4 in sampling; 5 leaves the solves,
# duals and Jacobians a comparable share.
SAMPLES = 5


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # tcc | verify | select-cas
    model: str            # hubbard | pairing
    params: tuple         # the arguments of the --model spec
    mo: bool
    k: int | None

    @property
    def model_spec(self) -> str:
        return f"{self.model}:" + ",".join(str(p) for p in self.params)

    def cli_args(self, seed: int) -> list[str]:
        """Arguments after `tccbench`; the seed reaches only `verify`."""
        args = [self.command, "--model", self.model_spec]
        if self.mo:
            args.append("--mo")
        if self.k is not None:
            args += ["--k", str(self.k), "--trunc", f"rank:{TRUNC_RANK}",
                     "--diis", str(DIIS)]
        if self.command == "verify":
            args += ["--samples", str(SAMPLES), "--seed", str(seed)]
        return args


WORKLOADS = {w.name: w for w in [
    Workload("tcc-hubbard4", "tcc", "hubbard", (4, 1.0, 2.0), True, 6),
    Workload("tcc-pairing6", "tcc", "pairing", (6, 0.5, 1.0), False, 8),
    Workload("verify-pairing4", "verify", "pairing", (4, 0.5, 1.0), False, 6),
    Workload("select-cas-hubbard6-n4", "select-cas", "hubbard", (6, 1.0, 2.0, 4), True, None),
]}
