"""Output checks against values pinned from tccbench 0.1.0 (pinned.json).

Seed-independent results are compared with the pinned values; the
seed-dependent parts of `verify` are checked by invariants that hold for
every seed. A check returns a list of mismatches; empty means correct.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

TOL = 1e-10
SLOPE_TOL = 1e-8

PINNED = json.loads((Path(__file__).parent / "pinned.json").read_text())


def compare(path: str, got, want, tol: float = TOL) -> list[str]:
    """Structural equality, with numbers equal within `tol`."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: {got!r} does not have the keys {sorted(want)}"]
        return [m for k in want for m in compare(f"{path}.{k}", got[k], want[k], tol)]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in compare(f"{path}[{i}]", g, w, tol)]
    if isinstance(want, (int, float)) and not isinstance(want, bool):
        if (isinstance(got, (int, float)) and not isinstance(got, bool)
                and abs(got - want) <= tol):
            return []
        return [f"{path}: {got!r} != {want!r} within {tol:g}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def _verify_invariants(payload: dict, seed: int) -> list[str]:
    out = []
    a = payload["assumptions"]
    out += compare("assumptions.seed", a["seed"], seed)
    margin = a["gap"]["eps0"] - a["omega0"] - a["omega_cas"] - a["lipschitz_star"]
    out += compare("assumptions.margin", a["margin"], margin)
    for key in ("lipschitz_star", "gamma_hat", "gamma_hat_l2", "l_hat"):
        if not (isinstance(a[key], (int, float)) and math.isfinite(a[key]) and a[key] >= 0):
            out.append(f"assumptions.{key}: {a[key]!r} is not a finite non-negative number")
    lin = payload["linear_limit_scaling"]
    out += compare("linear_limit_scaling.slope", lin["slope"], 2.0, SLOPE_TOL)
    for i, row in enumerate(lin["rows"]):
        want = row["distance"] ** 2
        out += compare(f"linear_limit_scaling.rows[{i}].energy_error",
                       row["energy_error"], want, TOL * max(1.0, want))
    return out


def check(name: str, doc: dict, seed: int) -> list[str]:
    """Mismatches between a `tccbench` result document and the pinned values."""
    pinned = PINNED[name]
    payload = doc["payload"]
    command = pinned["command"]
    if command == "tcc":
        return (compare("converged", payload["converged"], True)
                + compare("energy", payload["energy"], pinned["energy"]))
    if command == "select-cas":
        return (compare("selection.orbitals", payload["selection"]["orbitals"],
                        pinned["orbitals"])
                + compare("profile.s1", payload["profile"]["s1"], pinned["s1"]))
    out = []
    for key in ("gap", "decomposition", "representation", "scaling"):
        out += compare(key, payload[key], pinned[key])
    a = payload["assumptions"]
    for key, want in pinned["assumptions"].items():
        out += compare(f"assumptions.{key}", a[key], want)
    out += compare("linear_limit_scaling.descriptors",
                   [r["descriptor"] for r in payload["linear_limit_scaling"]["rows"]],
                   pinned["linear_descriptors"])
    return out + _verify_invariants(payload, seed)


def check_dims(name: str, counts: dict) -> list[str]:
    """The problem dimensions must repeat exactly."""
    return [f"{k}: {counts.get(k)!r} != {v!r}"
            for k, v in PINNED[name]["dims"].items() if counts.get(k) != v]
