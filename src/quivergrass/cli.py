"""Command line front end.

Subcommands map one-to-one onto library operations; inputs are JSON files
(quivers, representations) or inline JSON (dimension vectors); all reports
are deterministic given the input.

Exit codes: 0 when the command succeeds and any check it ran holds; 2 when a
check ran and failed (for example a violated submodule condition); 1 for
input errors, including malformed JSON and exceeded enumeration budgets.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

# Every command reads JSON, so the readers load here; each handler imports
# the library code it calls, so a command loads only the modules it runs.
from .quiverrep import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    dimvec_from_json,
    quiver_from_json,
    representation_from_json,
    representation_to_json,
)


class InputError(ValueError):
    """User-facing problem with the provided arguments or files."""


def _parse_field(text: str) -> FieldSpec:
    from .exactlinalg import FieldSpec
    if text == "rational":
        return FieldSpec.rational()
    if text.startswith("p="):
        try:
            p = int(text[2:])
        except ValueError:
            raise InputError(f"bad prime in field spec {text!r}")
        return FieldSpec.prime(p)
    raise InputError(f"field must be 'p=<prime>' or 'rational', got {text!r}")


def _load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"JSON error in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}")


def _parse_inline_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"JSON error in {what} at line {exc.lineno} column {exc.colno}: {exc.msg}")


def _load_representation(path: str):
    return representation_from_json(_load_json_file(path))


def _load_quiver(path: str):
    return quiver_from_json(_load_json_file(path))


def _parse_dimvec(text: str, quiver):
    data = _parse_inline_json(text, "dimension vector")
    return dimvec_from_json(quiver, data, "dimension vector")


def _render_text(data, indent: int = 0) -> str:
    pad = "  " * indent
    lines = []
    if isinstance(data, dict):
        for key in sorted(data):
            val = data[key]
            if isinstance(val, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.append(_render_text(val, indent + 1))
            else:
                lines.append(f"{pad}{key}: {val}")
    elif isinstance(data, list):
        for i, val in enumerate(data):
            if isinstance(val, (dict, list)):
                lines.append(f"{pad}[{i}]:")
                lines.append(_render_text(val, indent + 1))
            else:
                lines.append(f"{pad}[{i}]: {val}")
    else:
        lines.append(f"{pad}{data}")
    return "\n".join(lines)


def _emit(data: dict, output: str) -> None:
    if output == "json":
        print(json.dumps(data, sort_keys=True, indent=2))
    else:
        print(_render_text(data))


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors: one `error:` line and exit 1, as exit 2
    means a failed check.  A flag is taken only when spelled in full; the
    subparsers are of this class too."""

    def __init__(self, **kwargs) -> None:
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    # each command takes only the flags it reads: --budget where it
    # enumerates, --count-only where its report lists points
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="enumeration work budget")
    count_only = argparse.ArgumentParser(add_help=False)
    count_only.add_argument("--count-only", action="store_true",
                            help="omit point lists from reports")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", choices=("json", "text"), default="json")

    parser = _Parser(
        prog="quivergrass",
        description="exact quiver representation computations over small fields")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[output],
                       help="representation type of a quiver")
    p.add_argument("--quiver", required=True)

    p = sub.add_parser("hom", parents=[output], help="dimension of Hom(rep1, rep2)")
    p.add_argument("--rep1", required=True)
    p.add_argument("--rep2", required=True)

    p = sub.add_parser("ext1", parents=[output], help="dimension of Ext1(rep1, rep2)")
    p.add_argument("--rep1", required=True)
    p.add_argument("--rep2", required=True)

    p = sub.add_parser("euler", parents=[output],
                       help="Euler form of two dimension vectors")
    p.add_argument("--quiver", required=True)
    p.add_argument("--d", required=True, help="first dimension vector, inline JSON")
    p.add_argument("--e", required=True, help="second dimension vector, inline JSON")

    p = sub.add_parser("brick", parents=[output], help="is the module a brick")
    p.add_argument("--rep", required=True)

    p = sub.add_parser("grassmannian", parents=[budget, count_only, output],
                       help="submodules of a fixed dimension vector")
    p.add_argument("mode", choices=("list", "count"))
    p.add_argument("--rep", required=True)
    p.add_argument("--dimvec", required=True, help="inline JSON object")

    p = sub.add_parser("eta", parents=[output],
                       help="the extension-category construction")
    p.add_argument("mode", choices=("build",))
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--nrep", required=True)

    p = sub.add_parser("check-c", parents=[budget, count_only, output],
                       help="submodule condition on a built middle term")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--nrep", required=True)

    p = sub.add_parser("check-lemma1", parents=[budget, count_only, output],
                       help="submodules of X^a with the dimension vector of X")
    p.add_argument("--x", required=True)
    p.add_argument("--a", type=int, required=True)

    p = sub.add_parser("check-lemma2", parents=[budget, count_only, output],
                       help="square-dimension submodules of X^a")
    p.add_argument("--x", required=True)
    p.add_argument("--a", type=int, required=True)

    p = sub.add_parser("bijection", parents=[budget, output],
                       help="bristle count versus image submodule count")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--nrep", required=True)

    p = sub.add_parser("demo", parents=[budget, count_only, output],
                       help="built-in instances of the constructions")
    p.add_argument("which", choices=("case2", "case1", "remark"))
    p.add_argument("--field", default="p=3", help="p=<prime> or rational")
    p.add_argument("--n", type=int, default=None,
                   help="number of Kronecker arrows (case2)")
    p.add_argument("--lambdas", default=None,
                   help="comma-separated eigenvalues (case2)")
    p.add_argument("--b", type=int, default=None,
                   help="source dimension of the counterexample N (remark)")
    return parser


def _cmd_classify(args) -> int:
    from .reptype import classify
    q = _load_quiver(args.quiver)
    res = classify(q)
    _emit({"kind": res.kind, "witness": res.witness}, args.output)
    return 0


def _cmd_hom(args) -> int:
    from .homext import hom_ext_dims
    m1 = _load_representation(args.rep1)
    m2 = _load_representation(args.rep2)
    _emit({"dim": hom_ext_dims(m1, m2)[0]}, args.output)
    return 0


def _cmd_ext1(args) -> int:
    from .homext import hom_ext_dims
    m1 = _load_representation(args.rep1)
    m2 = _load_representation(args.rep2)
    _emit({"dim": hom_ext_dims(m1, m2)[1]}, args.output)
    return 0


def _cmd_euler(args) -> int:
    from .homext import euler_form
    q = _load_quiver(args.quiver)
    d = _parse_dimvec(args.d, q)
    e = _parse_dimvec(args.e, q)
    _emit({"value": euler_form(q, d, e)}, args.output)
    return 0


def _cmd_brick(args) -> int:
    from .homext import is_brick
    m = _load_representation(args.rep)
    _emit({"is_brick": is_brick(m)}, args.output)
    return 0


def _cmd_grassmannian(args) -> int:
    from .grassmann import count_submodules, enumerate_submodules
    m = _load_representation(args.rep)
    d = _parse_dimvec(args.dimvec, m.quiver)
    if args.mode == "list" and not args.count_only:
        _emit(enumerate_submodules(m, d, budget=args.budget).to_json(), args.output)
    else:
        # a count charges what a list does, so a list without points is one
        count = count_submodules(m, d, budget=args.budget)
        _emit({"count": count, "dimvec": dict(sorted(d.items()))}, args.output)
    return 0


def _context_from_files(args):
    from .construct import make_eta_context
    x = _load_representation(args.x)
    y = _load_representation(args.y)
    return make_eta_context(x, y)


def _cmd_eta(args) -> int:
    from .construct import build_eta
    ctx = _context_from_files(args)
    n_rep = _load_representation(args.nrep)
    witness = build_eta(ctx, n_rep)
    _emit({"a": witness.a, "b": witness.b,
           "m": representation_to_json(witness.m)}, args.output)
    return 0


def _cmd_check_c(args) -> int:
    from .construct import build_eta, check_condition_C
    ctx = _context_from_files(args)
    n_rep = _load_representation(args.nrep)
    witness = build_eta(ctx, n_rep)
    report = check_condition_C(ctx, witness, budget=args.budget)
    _emit(report.to_json(count_only=args.count_only), args.output)
    return 0 if report.holds else 2


def _cmd_check_lemma1(args) -> int:
    from .construct import check_lemma1
    if args.a < 1:
        raise InputError(f"--a must be at least 1, got {args.a}")
    x = _load_representation(args.x)
    report = check_lemma1(x, args.a, budget=args.budget)
    _emit(report.to_json(count_only=args.count_only), args.output)
    return 0 if report.holds else 2


def _cmd_check_lemma2(args) -> int:
    from .construct import check_lemma2
    if args.a < 1:
        raise InputError(f"--a must be at least 1, got {args.a}")
    x = _load_representation(args.x)
    report = check_lemma2(x, args.a, budget=args.budget)
    _emit(report.to_json(count_only=args.count_only), args.output)
    return 0 if report.holds else 2


def _cmd_bijection(args) -> int:
    from .construct import check_bijection
    ctx = _context_from_files(args)
    n_rep = _load_representation(args.nrep)
    report = check_bijection(ctx, n_rep, budget=args.budget)
    _emit(report.to_json(), args.output)
    return 0 if report.equal else 2


def _parse_lambdas(text: Optional[str], n: int):
    if text is None:
        return None
    try:
        lambdas = [int(s) for s in text.split(",")]
    except ValueError:
        raise InputError(f"--lambdas must be comma-separated integers, got {text!r}")
    if len(lambdas) != n:
        raise InputError(f"--lambdas needs {n} values (--n), got {len(lambdas)}")
    return lambdas


def _demo_eta(ctx, n_rep, args) -> int:
    """Build eta(n_rep), then check condition (C) and the bijection on it."""
    from .construct import BijectionReport, _bristle_count, build_eta, check_condition_C
    witness = build_eta(ctx, n_rep)
    creport = check_condition_C(ctx, witness, budget=args.budget)
    # condition (C) has listed the x+y submodules that check_bijection counts
    lhs = _bristle_count(n_rep, args.budget)
    breport = BijectionReport(lhs, creport.checked, lhs == creport.checked)
    _emit({"n": ctx.n,
           "condition_c": creport.to_json(count_only=args.count_only),
           "bijection": breport.to_json()}, args.output)
    return 0 if creport.holds and breport.equal else 2


def _cmd_demo(args) -> int:
    from .construct import (case1_instance, case2_instance, coordinate_inclusion_N,
                            regular_N, remark_counterexample_demo)
    for flag, value, case in (("--n", args.n, "case2"), ("--lambdas", args.lambdas, "case2"),
                              ("--b", args.b, "remark")):
        if value is not None and args.which != case:
            raise InputError(f"{flag} applies only to demo {case}, not {args.which}")
    field = _parse_field(args.field)
    if args.which == "case2":
        n = 2 if args.n is None else args.n
        if n < 2:
            raise InputError(f"--n must be at least 2, got {n}")
        ctx = case2_instance(field, n=n, lambdas=_parse_lambdas(args.lambdas, n))
        return _demo_eta(ctx, coordinate_inclusion_N(field, ctx.n), args)
    if args.which == "case1":
        return _demo_eta(case1_instance(field), regular_N(field), args)
    b = 1 if args.b is None else args.b
    if b not in (1, 2, 3):
        raise InputError(f"--b must be 1, 2 or 3, got {b}")
    report = remark_counterexample_demo(field, b=b, budget=args.budget)
    _emit(report.to_json(count_only=args.count_only), args.output)
    # the interesting outcome is a failing condition (C): report it as a
    # failed check so scripts can distinguish it from "nothing found"
    return 2 if report.counterexample_found else 0


_HANDLERS = {
    "classify": _cmd_classify,
    "hom": _cmd_hom,
    "ext1": _cmd_ext1,
    "euler": _cmd_euler,
    "brick": _cmd_brick,
    "grassmannian": _cmd_grassmannian,
    "eta": _cmd_eta,
    "check-c": _cmd_check_c,
    "check-lemma1": _cmd_check_lemma1,
    "check-lemma2": _cmd_check_lemma2,
    "bijection": _cmd_bijection,
    "demo": _cmd_demo,
}


def main(argv: Optional[list] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if "budget" in args and args.budget < 1:
            raise InputError(f"--budget must be at least 1, got {args.budget}")
        return _HANDLERS[args.command](args)
    except SystemExit:
        return 0  # --help; usage errors raise InputError instead of exiting
    except (InputError, ValueError, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TypeError, ZeroDivisionError, AssertionError, KeyError) as exc:
        # a fault no input check caught still ends as one line, not a traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
