"""Command-line front end: compute inverses, verify catalog identities on
supplied instances, run seeded fuzz campaigns, reproduce the fixed worked
instance.  JSON in, JSON report out (stdout); diagnostics go to stderr.

Exit codes partition outcomes:
  0 pass, 1 conclusion failed / not certified, 2 input or parameter error,
  3 requested inverse kind does not exist for the input,
  4 hypotheses not met, 5 generator integrity failure during fuzzing.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
import time

from . import __version__
from .linalg import (DEFAULT_POLICY, TolerancePolicy, _relative, frobenius,
                     rel_residual)
from .inverses import (
    InverseNotDefinedError,
    core_inverse,
    drazin,
    group_inverse,
    index,
    is_star_dmp,
    moore_penrose,
    one_three,
    pseudo_core,
    spectral_idempotent,
)
from .theorems import THEOREM_SYMBOLS, reproduce_example_3_3, run_check
from .generators import fuzz_dims, instance_for, trial_seed
from .matrixio import dumps_report, load_json, parse_instance, parse_matrix

_INVERSE_FNS = {
    "moore_penrose": moore_penrose,
    "one_three": one_three,
    "group": group_inverse,
    "drazin": drazin,
    "core": core_inverse,
    "pseudo_core": pseudo_core,
}

_KIND_ALIASES = {
    "mp": "moore_penrose",
    "pinv": "moore_penrose",
    "one3": "one_three",
    "pcore": "pseudo_core",
}

_COMPUTE_KINDS = tuple(_INVERSE_FNS) + ("index", "spectral_idempotent", "star_dmp")


def _policy_args(parser):
    parser.add_argument("--rank-tol", type=float, default=None,
                        help="relative singular-value cutoff for rank")
    parser.add_argument("--eq-tol", type=float, default=None,
                        help="relative Frobenius threshold for equality")
    parser.add_argument("--res-tol", type=float, default=None,
                        help="certificate acceptance threshold")


def _policy_from(args) -> TolerancePolicy:
    """The policy the options give; the shared default when none is given."""
    given = {"rank_rel_tol": args.rank_tol, "eq_rel_tol": args.eq_tol,
             "residual_tol": args.res_tol}
    given = {k: v for k, v in given.items() if v is not None}
    return TolerancePolicy(**given) if given else DEFAULT_POLICY


_POLICY_FIELDS = tuple(f.name for f in dataclasses.fields(TolerancePolicy))


def _policy_obj(tol) -> dict:
    """The policy's fields in declaration order, as reports print them."""
    return {name: getattr(tol, name) for name in _POLICY_FIELDS}


def _checks_obj(report) -> dict:
    """The report's hypothesis and conclusion checks, as reports print them."""
    return {kind: [{"label": c.label, "value": c.value, "pass": c.passed}
                   for c in getattr(report, kind)]
            for kind in ("hypothesis_checks", "conclusion_checks")}


def _report_obj(report) -> dict:
    return {"theorem_id": report.theorem_id, "verdict": report.verdict,
            **_checks_obj(report), "witnesses": report.witnesses}


def _emit(report: dict) -> None:
    sys.stdout.write(dumps_report(report) + "\n")


def _fail(message: str, code: int = 2) -> int:
    sys.stderr.write(f"error: {message}\n")
    return code


def _parse_dims(args):
    """The --dims or --dim value as a tuple, or None if neither is given."""
    if args.dims is None:
        return None if args.dim is None else (args.dim,)
    if args.dim is not None:
        raise ValueError("give --dim or --dims, not both")
    try:
        return tuple(int(p) for p in args.dims.split(","))
    except ValueError:
        raise ValueError(f"--dims must be integers, got {args.dims!r}")


# ---------------------------------------------------------------------------
# compute


def cmd_compute(args, tol: TolerancePolicy) -> int:
    kind = _KIND_ALIASES.get(args.kind, args.kind)
    if kind not in _COMPUTE_KINDS:
        return _fail(f"unknown kind {args.kind!r}; choose from "
                     f"{sorted(_COMPUTE_KINDS + tuple(_KIND_ALIASES))}")
    try:
        A = parse_matrix(load_json(args.input))
    except (OSError, ValueError) as exc:
        return _fail(str(exc))

    report = {
        "command": "compute",
        "version": __version__,
        "kind": kind,
        "policy": _policy_obj(tol),
        "input": args.input,
    }
    try:
        if kind == "index":
            report["result"] = index(A, tol)
            _emit(report)
            return 0
        if kind == "star_dmp":
            flag, witness = is_star_dmp(A, tol)
            report["result"] = {"is_star_dmp": flag, "witness_exponent": witness}
            _emit(report)
            return 0
        if kind == "spectral_idempotent":
            P = spectral_idempotent(A, tol)
            residuals = {
                "idempotent": rel_residual(P @ P, P),
                "commutes": _relative(frobenius(P @ A - A @ P),
                                      frobenius(P) * frobenius(A)),
            }
            report["result"] = P
            report["residuals"] = residuals
            certified = max(residuals.values()) <= tol.residual_tol
            report["certified"] = certified
            _emit(report)
            return 0 if certified else 1
        result = _INVERSE_FNS[kind](A, tol)
    except InverseNotDefinedError as exc:
        sys.stderr.write(f"error: {exc}\n")
        report["error"] = str(exc)
        _emit(report)
        return 3
    except ValueError as exc:
        return _fail(str(exc))
    report["result"] = result.inverse
    report["residuals"] = result.residuals
    report["index_used"] = result.index_used
    report["certified"] = result.certified(tol)
    _emit(report)
    return 0 if result.certified(tol) else 1


# ---------------------------------------------------------------------------
# verify


_VERDICT_EXIT = {"pass": 0, "fail": 1, "hypotheses_not_met": 4}


def cmd_verify(args, tol: TolerancePolicy) -> int:
    theorem = args.theorem
    if theorem not in THEOREM_SYMBOLS:
        return _fail(f"unknown theorem id {theorem!r}; known: "
                     f"{sorted(THEOREM_SYMBOLS)}")
    symbols = THEOREM_SYMBOLS[theorem]
    instance = {}
    if not symbols and args.input is not None:
        return _fail(f"{theorem} takes no symbols; drop --input")
    if symbols:
        if not args.input:
            return _fail(f"{theorem} requires --input with symbols {list(symbols)}")
        try:
            instance = parse_instance(load_json(args.input), symbols)
        except (OSError, ValueError) as exc:
            return _fail(str(exc))
    try:
        report = run_check(theorem, instance, tol)
    except (ValueError, KeyError) as exc:
        return _fail(str(exc))
    out = {
        "command": "verify",
        "version": __version__,
        "theorem": theorem,
        "policy": _policy_obj(tol),
        "input": args.input,
        "report": _report_obj(report),
    }
    _emit(out)
    return _VERDICT_EXIT[report.verdict]


# ---------------------------------------------------------------------------
# fuzz


def cmd_fuzz(args, tol: TolerancePolicy) -> int:
    theorem = args.theorem
    if theorem not in THEOREM_SYMBOLS:
        return _fail(f"unknown theorem id {theorem!r}; known: "
                     f"{sorted(THEOREM_SYMBOLS)}")
    if args.trials < 1:
        return _fail(f"--trials must be >= 1, got {args.trials}")
    if args.seed < 0:
        return _fail(f"--seed must be >= 0, got {args.seed}")
    try:
        dims = _parse_dims(args)
        if dims is not None and not THEOREM_SYMBOLS[theorem]:
            return _fail(f"{theorem} takes no dims; drop --dim/--dims")
        dims = fuzz_dims(theorem, dims)
    except ValueError as exc:
        return _fail(str(exc))

    started = time.perf_counter()
    results = []
    summary = {"pass": 0, "fail": 0, "hypotheses_not_met": 0, "degenerate": 0}
    for trial in range(args.trials):
        seed = trial_seed(args.seed, trial)
        try:
            instance = instance_for(theorem, dims, seed)
            report = run_check(theorem, instance.matrices, tol)
        except ValueError as exc:
            return _fail(f"trial {trial}: {exc}")
        summary[report.verdict] += 1
        if instance.degenerate:
            summary["degenerate"] += 1
        results.append({
            "trial": trial,
            "verdict": report.verdict,
            "degenerate": instance.degenerate,
            **_checks_obj(report),
        })
    elapsed = time.perf_counter() - started

    out = {
        "command": "fuzz",
        "version": __version__,
        "theorem": theorem,
        "policy": _policy_obj(tol),
        "dims": list(dims),
        "trials": args.trials,
        "seed": args.seed,
        "results": results,
        "summary": summary,
    }
    _emit(out)
    sys.stderr.write(f"fuzz {theorem}: {summary} in {elapsed:.2f}s\n")
    if summary["hypotheses_not_met"]:
        return 5
    if summary["fail"]:
        return 1
    return 0


# ---------------------------------------------------------------------------
# example33


def cmd_example33(args, tol: TolerancePolicy) -> int:
    report = reproduce_example_3_3(tol)
    out = {
        "command": "example33",
        "version": __version__,
        "policy": _policy_obj(tol),
        "report": _report_obj(report),
    }
    _emit(out)
    for check in report.conclusion_checks:
        marker = "ok" if check.passed else "FAIL"
        sys.stderr.write(f"  [{marker}] {check.label}: {check.value}\n")
    sys.stderr.write(f"note: {report.witnesses['note']}\n")
    return 0 if report.verdict == "pass" else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``geninv`` argument parser, built once per process.

    The first call builds it and every later call returns the same object, so
    repeated :func:`main` calls in one process parse with one parser.
    ``parse_args`` returns a fresh namespace each time, so no option value
    carries over from one call to the next.
    """
    parser = argparse.ArgumentParser(
        prog="geninv",
        description="Generalized inverses of dense complex matrices with "
                    "certificates, plus a verifier for a catalog of additive "
                    "and block-matrix pseudo-core identities.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute one inverse kind (or index, "
                                       "spectral idempotent, star-DMP test)")
    p.add_argument("--kind", required=True)
    p.add_argument("--input", required=True, help="matrix JSON file")
    _policy_args(p)
    p.set_defaults(fn=cmd_compute)

    p = sub.add_parser("verify", help="verify one catalog identity on a "
                                      "supplied instance")
    p.add_argument("--theorem", required=True)
    p.add_argument("--input", help="instance JSON file keyed by symbol names")
    _policy_args(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("fuzz", help="run a seeded campaign of generated "
                                    "instances through one identity")
    p.add_argument("--theorem", required=True)
    p.add_argument("--dim", type=int, help="dimension for single-matrix results")
    p.add_argument("--dims", help="comma-separated block dimensions, e.g. 3,2")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    _policy_args(p)
    p.set_defaults(fn=cmd_fuzz)

    p = sub.add_parser("example33", help="reproduce the fixed 2x2 worked "
                                         "instance and its discrepancy notes")
    _policy_args(p)
    p.set_defaults(fn=cmd_example33)
    return parser


def main(argv=None) -> int:
    # The top-level parser succeeds only by handing the rest of argv to one
    # subparser, so when argv[0] names a subcommand that parser (argparse
    # keeps it in the choices of the subparsers action) is called directly;
    # leftovers get the error the top-level parser would give.  Every other
    # argv (empty, -h, --version, unknown command, leading option) goes
    # through the full parser.
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    subparsers = parser._subparsers._group_actions[0].choices
    sub = subparsers.get(argv[0]) if argv else None
    if sub is None:
        args = parser.parse_args(argv)
    else:
        args, extras = sub.parse_known_args(argv[1:])
        if extras:
            parser.error("unrecognized arguments: " + " ".join(extras))
        args.command = argv[0]
    try:
        tol = _policy_from(args)
    except ValueError as exc:
        return _fail(str(exc))
    try:
        return args.fn(args, tol)
    except BrokenPipeError:
        return 2


if __name__ == "__main__":
    sys.exit(main())
