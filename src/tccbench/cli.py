"""Batch command-line entry point.

Subcommands: fci, cas-fci, select-cas, tcc, verify. A Hamiltonian comes
either from an FCIDUMP file (--fcidump) or a built-in model
(--model KIND:ARGS, e.g. hubbard:2,1.0,4.0 or pairing:4,0.5,1.0). The
CAS boundary comes from --k or from entropy-based selection. Outputs
are deterministic JSON/TSV documents stamped with the tool version and
a configuration hash.

Exit codes: 1 input error, 2 solver failure, 3 size limit exceeded.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING

# Only the layers every command runs load here; each command imports the
# rest itself, so `tcc` never compiles diagnostics or entropy, and only
# --fcidump runs compile the FCIDUMP reader.
from . import serialize
from .determinants import BasisSplit, OrbitalBasis
from .errors import (
    GapViolationError,
    InputError,
    SingularJacobianError,
    SizeLimitError,
    SolverFailureError,
    TccBenchError,
)
from .exact import cas_fci_solve, fci_solve
from .hamiltonian import canonicalize_core, fock_matrix, hubbard_model, pairing_model

if TYPE_CHECKING:
    from .tcc import TccConfig, TruncationScheme

EXIT_INPUT = 1
EXIT_SOLVER = 2
EXIT_LIMIT = 3

# the fields a --model KIND takes after its colon: (fewest, most)
_MODEL_FIELDS = {"hubbard": (3, 4), "pairing": (2, 4)}


def _load_integrals(args):
    if bool(args.fcidump) == bool(args.model):
        raise InputError("exactly one of --fcidump and --model is required")
    if args.fcidump:
        from .fcidump import parse_fcidump

        path = Path(args.fcidump)
        if not path.exists():
            raise InputError(f"no such file: {path}")
        data = path.read_bytes()
        args.fcidump_sha256 = serialize.sha256(data).hexdigest()
        ints = parse_fcidump(data.decode())
    else:
        kind, _, argstr = args.model.partition(":")
        if kind.lower() not in _MODEL_FIELDS:
            raise InputError(f"unknown model kind {kind!r}")
        parts = argstr.split(",")   # no fields at all reads as one empty field
        fewest, most = _MODEL_FIELDS[kind.lower()]
        if not fewest <= len(parts) <= most or "" in parts:
            raise InputError(f"bad model spec {args.model!r}: {kind} takes "
                             f"{fewest} to {most} nonempty comma-separated fields")
        try:
            nelec = int(parts[3]) if len(parts) > 3 else None
            if kind.lower() == "hubbard":
                ints = hubbard_model(int(parts[0]), float(parts[1]), float(parts[2]), nelec)
            else:
                sp = float(parts[2]) if len(parts) > 2 else 1.0
                ints = pairing_model(int(parts[0]), float(parts[1]), sp, nelec)
        except ValueError as exc:
            raise InputError(f"bad model spec {args.model!r}: {exc}") from exc
    if getattr(args, "mo", False):
        ints, _ = canonicalize_core(ints)
    try:
        return ints, OrbitalBasis(ints.n_spin_orbitals, ints.n_electrons)
    except ValueError as exc:
        raise InputError(f"bad electron count: {exc}") from exc


def _load_split(args):
    """_load_integrals plus the CAS split of a command that requires --k."""
    ints, basis = _load_integrals(args)
    if args.k is None:
        raise InputError(f"{args.command} requires --k")
    try:
        return ints, basis, BasisSplit(basis, args.k)
    except ValueError as exc:
        raise InputError(f"bad --k: {exc}") from exc


def _parse_trunc(spec: str) -> TruncationScheme:
    from .tcc import MODE_FOI, MODE_FULL, MODE_RANK, TruncationScheme

    if spec == "full":
        return TruncationScheme(MODE_FULL)
    if spec == "sd":
        return TruncationScheme(MODE_RANK, 2)
    mode, _, n = spec.partition(":")
    if mode in (MODE_RANK, MODE_FOI) and n.isdigit():
        return TruncationScheme(mode, int(n))
    raise InputError(f"bad truncation spec {spec!r} (want sd|rank:N|foi:N|full)")


def _emit(args, name: str, payload, tsv=None):
    """Write the document, whose config is the subcommand's set flags and the FCIDUMP digest."""
    config = {k: getattr(args, k) for k in [*args.config_keys, "fcidump_sha256"]
              if getattr(args, k, None) is not None}
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        with open(outdir / f"{name}.json", "w") as fh:
            serialize.dump_document(payload, config, fh)
        if tsv is not None:
            tsv_name, writer, obj = tsv
            with open(outdir / tsv_name, "w") as fh:
                writer(obj, fh)
    else:
        serialize.dump_document(payload, config, sys.stdout)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_fci(args) -> int:
    ints, basis = _load_integrals(args)
    summary, states = fci_solve(ints, basis, n_states=args.n_states)
    payload = {"summary": summary, "states": states}
    _emit(args, "fci", payload)
    return 0


def cmd_cas_fci(args) -> int:
    ints, basis, split = _load_split(args)
    summary, states = cas_fci_solve(ints, basis, split, n_states=args.n_states)
    payload = {"summary": summary, "states": states, "k": args.k}
    _emit(args, "cas_fci", payload)
    return 0


def cmd_select_cas(args) -> int:
    from .entropy import MODE_JUMP, MODE_THRESHOLD, check_thresholds, mutual_information, select_cas

    try:   # before the eigensolve, which is the command's whole cost
        check_thresholds(args.s_threshold, args.mi_threshold)
    except ValueError as exc:
        raise InputError(f"bad selection settings: {exc}") from exc
    ints, basis = _load_integrals(args)
    _, states = fci_solve(ints, basis)
    psi = states[0]
    profile = mutual_information(psi)
    mode = MODE_JUMP if args.jump else MODE_THRESHOLD
    selection = select_cas(profile, basis.n_electrons,
                           s_threshold=args.s_threshold,
                           mi_threshold=args.mi_threshold, mode=mode)
    payload = {
        "selection": selection,
        "profile": {"s1": profile.s1, "mi": profile.mi},
    }
    _emit(args, "select_cas", payload,
          tsv=("profile.tsv", serialize.write_profile_tsv, profile))
    return 0


def _solver_config(args) -> TccConfig:
    from .tcc import TccConfig

    try:
        return TccConfig(max_iterations=args.max_iterations, tolerance=args.tol,
                         damping=args.damping, diis=args.diis, truncation=_parse_trunc(args.trunc))
    except ValueError as exc:
        raise InputError(f"bad solver settings: {exc}") from exc


def cmd_tcc(args) -> int:
    from .tcc import Study

    ints, basis, split = _load_split(args)
    result = Study(ints, split, fock_matrix(ints, basis)).root(_solver_config(args))
    payload = {
        "energy": result.energy,
        "converged": result.converged,
        "iterations": result.iterations,
        "t": result.t,
        "k": args.k,
    }
    _emit(args, "tcc", payload,
          tsv=("history.tsv", serialize.write_history_tsv, result.history))
    return 0


def cmd_verify(args) -> int:
    from .diagnostics import (
        assumption_b_report,
        check_ball,
        error_decomposition,
        error_representation_check,
        gap_report,
        linear_limit_scaling_study,
        quadratic_scaling_study,
    )
    from .tcc import MODE_FULL, MODE_RANK, Study, TruncationScheme

    check_ball(args.delta, args.samples)
    if args.seed < 0:
        raise InputError(f"need --seed >= 0, got {args.seed}")
    ints, basis, split = _load_split(args)
    run_all = not (args.assumptions or args.error_scaling or args.decomposition)
    m = min(basis.n_electrons, basis.n_orbitals - basis.n_electrons)
    if (run_all or args.error_scaling) and m < 4:
        raise InputError(f"the scaling fit needs m = min(N, K-N) >= 4 (rank:1..m-1 are fitted), "
                         f"got m = {m}; run --assumptions or --decomposition instead")
    if (run_all or args.assumptions or args.error_scaling) and args.k == basis.n_orbitals:
        raise InputError("k = K leaves the external space empty: no ball to sample and no "
                         "scaling rows to fit; run --decomposition instead")
    fock = fock_matrix(ints, basis)
    payload: dict = {"gap": gap_report(fock, split)}

    # the solver flags drive the reference and truncated roots; the
    # decomposition and scaling sub-solves run at diagnostics.STUDY_CONFIG
    truncated = _solver_config(args)
    full = replace(truncated, truncation=TruncationScheme(MODE_FULL))
    study = Study(ints, split, fock)
    star = study.root(full)

    if run_all or args.assumptions:
        payload["assumptions"] = assumption_b_report(
            star.t, study.t_cas, ints, split, fock,
            delta=args.delta, samples=args.samples, seed=args.seed)
    if run_all or args.decomposition:
        payload["decomposition"] = error_decomposition(study, truncated.truncation)
        payload["representation"] = error_representation_check(
            study.root(truncated).t, study.dual(truncated), star.t, study.dual(full),
            study.t_cas, ints, split, fock)
    scaling = None
    if run_all or args.error_scaling:
        family = [TruncationScheme(MODE_RANK, r) for r in range(1, m)]
        family.append(TruncationScheme(MODE_FULL))
        scaling = quadratic_scaling_study(study, family)
        payload["scaling"] = scaling
        payload["linear_limit_scaling"] = linear_limit_scaling_study(
            fock, split, seed=args.seed)
    _emit(args, "verify", payload,
          tsv=("scaling.tsv", serialize.write_scaling_tsv, scaling) if scaling else None)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _read_config_file(path: str) -> dict:
    """KEY=VALUE lines; '#' comments. Flags given on the command line win."""
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"bad config line: {raw!r}")
        key, val = line.split("=", 1)
        out[key.strip().replace("-", "_")] = val.strip()
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tccbench")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices   # subcommand name -> its parser

    def common(p):
        p.add_argument("--fcidump", help="integral file path")
        p.add_argument("--model", help="built-in model KIND:ARGS")
        p.add_argument("--mo", action="store_true",
                       help="rotate to the core-Hamiltonian eigenbasis first")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="output directory (default: JSON to stdout)")
        p.add_argument("--config", help="key=value configuration file (flags win)")

    p = sub.add_parser("fci", help="exact diagonalization on the full space")
    common(p)
    p.add_argument("--n-states", type=int, default=1)
    p.set_defaults(func=cmd_fci)

    p = sub.add_parser("cas-fci", help="exact diagonalization restricted to the CAS")
    common(p)
    p.add_argument("--k", type=int)
    p.add_argument("--n-states", type=int, default=1)
    p.set_defaults(func=cmd_cas_fci)

    p = sub.add_parser("select-cas", help="entropy-based active-space proposal")
    common(p)
    p.add_argument("--s-threshold", type=float, default=0.0)
    p.add_argument("--mi-threshold", type=float, default=0.0)
    p.add_argument("--jump", action="store_true")
    p.set_defaults(func=cmd_select_cas)

    def solver_flags(p):
        p.add_argument("--k", type=int)
        p.add_argument("--trunc", default="full", help="sd|rank:N|foi:N|full")
        p.add_argument("--damping", type=float, default=1.0)
        p.add_argument("--diis", type=int, default=None)
        p.add_argument("--tol", type=float, default=1e-10)
        p.add_argument("--max-iterations", type=int, default=500)

    p = sub.add_parser("tcc", help="solve the tailored amplitude equations")
    common(p)
    solver_flags(p)
    p.set_defaults(func=cmd_tcc)

    p = sub.add_parser("verify", help="diagnostic reports")
    common(p)
    solver_flags(p)
    p.add_argument("--assumptions", action="store_true")
    p.add_argument("--error-scaling", action="store_true")
    p.add_argument("--decomposition", action="store_true")
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--samples", type=int, default=20)
    p.set_defaults(func=cmd_verify)
    for p in sub.choices.values():   # a document's config: every flag but --out and --config
        p.set_defaults(config_keys=[a.dest for a in p._actions
                                    if a.dest not in ("help", "out", "config")])
    return parser


def _apply_config_file(parser, args, argv):
    """args, or argv parsed again with the --config file's values as defaults: argv wins."""
    if not args.config:
        return args
    command = parser.commands[args.command]
    actions = {a.dest: a for a in command._actions if a.dest in (*args.config_keys, "out")}
    defaults = {}
    for key, val in _read_config_file(args.config).items():
        if key not in actions:
            raise InputError(f"unknown config key {key!r}")
        try:
            if actions[key].nargs == 0:   # a store_true flag: 0/false/no or 1/true/yes
                defaults[key] = ("0", "false", "no", "1", "true", "yes").index(val.lower()) > 2
            else:
                defaults[key] = (actions[key].type or str)(val)
        except ValueError as exc:
            raise InputError(f"bad config value {key}={val!r}") from exc
    command.set_defaults(**defaults)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:   # argparse exits 2 on a usage error, 0 after --help
        return EXIT_INPUT if exc.code else 0
    try:
        args = _apply_config_file(parser, args, argv)
        return args.func(args)
    except (InputError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (SolverFailureError, GapViolationError, SingularJacobianError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except SizeLimitError as exc:
        print(f"limit exceeded: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except TccBenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
