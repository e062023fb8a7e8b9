"""Command-line surface: eval, diff, subst, check, derive, solve, roundtrip.

Every verb is a thin shell over the library; no arithmetic happens here.
`check NAME` runs the suite of that name in :data:`checks.SUITES`, passing
the flags given; a flag the suite does not read is a usage error, as is a
flag of `subst` or `derive` that its kind or op does not read.
Exit codes: 0 all checks pass, 1 a check failed, 2 an error in the input
(command line, expression or file) or in reading it, 3 internal error (its
traceback goes to stderr; a bare ValueError is one).
`logcalc --profile VERB ...` runs the verb under cProfile and writes its self
time (tottime) by `logcalc` module to stderr; stdout is the verb's own.
"""

from __future__ import annotations

import argparse
import cProfile
import inspect
import json
import re
import sys
import traceback
from fractions import Fraction
from pathlib import Path

from . import checks
from .intertwiner import (
    AXIOM_KINDS,
    CONSTRAINTS,
    AxiomError,
    IntertwinerTable,
    VertexTable,
    WorkBudgetError,
    a_r,
    omega_r,
    shift_s1s2s3,
    solve_fusion_space,
    x_t,
)
from .jsonio import SchemaError, dump_object, load_text, read_path, table_to_json
from .mobius import MobiusModule
from .parser import ParseError, parse_expr, parse_exponent
from .printer import series_str
from .reports import Report, canonical_json
from .scalars import LatticeViolation, pi_scalar
from .series import LogSeries, UndefinedProduct, VariableCollision
from .substitution import (
    subst_scaled_exp,
    subst_x_exp_y,
    subst_x_inverse,
    subst_x_plus_y,
    subst_xy,
)


def _emit_report(report: Report, fmt: str) -> int:
    print(report.to_json() if fmt == "json" else report.to_text())
    return 0 if report.passed else 1


def _emit_series(f, fmt: str) -> int:
    if fmt == "json":
        print(json.dumps({"series": series_str(f)}))
    else:
        print(series_str(f))
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    return _emit_series(parse_expr(args.expr), args.format)


def cmd_diff(args: argparse.Namespace) -> int:
    f = parse_expr(args.expr)
    for _ in range(args.order):
        f = f.d_dx(args.var)
    return _emit_series(f, args.format)


class UsageError(ValueError):
    """A command line that its verb cannot run."""


def _reject(args: argparse.Namespace, what: str, *unread: str) -> None:
    """A usage error naming each flag in ``unread`` that was given: ``what`` does not read it."""
    given = ["--" + k.replace("_", "-") for k in unread if getattr(args, k) is not None]
    if given:
        raise UsageError(f"{what} does not read {', '.join(given)}")


def cmd_subst(args: argparse.Namespace) -> int:
    f = parse_expr(args.expr)
    kind, what = args.kind, f"subst --kind {args.kind}"
    y = "y" if args.with_var is None else args.with_var
    order = 6 if args.order is None else args.order
    if kind == "shift":
        _reject(args, what, "q")
        out = subst_x_plus_y(f, args.var, y, order)
    elif kind == "exp":
        _reject(args, what, "q")
        out = subst_x_exp_y(f, args.var, y, order)
    elif kind == "product":
        _reject(args, what, "order", "q")
        out = subst_xy(f, args.var, y)
    elif kind == "inverse":
        _reject(args, what, "with_var", "order", "q")
        out = subst_x_inverse(f, args.var)
    elif kind == "scale":
        _reject(args, what, "with_var", "order")
        out = subst_scaled_exp(f, args.var, pi_scalar(Fraction(2) if args.q is None else args.q))
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(kind)
    return _emit_series(out, args.format)


# the keys of a parsed `check` command line that are not flags read by a suite
_NOT_FLAGS = ("verb", "fn", "what", "format", "profile")


def cmd_check(args: argparse.Namespace) -> int:
    fn = checks.SUITES[args.what][0]
    params = inspect.signature(fn).parameters
    given = {k: v for k, v in vars(args).items() if k not in _NOT_FLAGS and v is not None}
    unread = [_flag(k) for k in given if k not in params]
    missing = [_flag(k) for k, p in params.items() if p.default is p.empty and k not in given]
    for problem, flags in (("does not read", unread), ("needs", missing)):
        if flags:
            print(f"check {args.what} {problem} {', '.join(flags)}", file=sys.stderr)
            return 2
    return _emit_report(fn(**given), args.format)


def _flag(param: str) -> str:
    return "FILE" if param == "file" else f"--{param}"


def _read_by(param: str) -> str:
    """The suites that read a `check` flag, as NAME=DEFAULT."""
    names = []
    for name, (fn, _) in checks.SUITES.items():
        p = inspect.signature(fn).parameters.get(param)
        if p is not None:
            names.append(name if p.default is p.empty else f"{name}={p.default}")
    return "read by " + ", ".join(names)


def cmd_derive(args: argparse.Namespace) -> int:
    table = load_text(read_path(args.file))
    if not isinstance(table, IntertwinerTable):
        print("derive needs an intertwiner table file", file=sys.stderr)
        return 2
    what, shifts = f"derive {args.op}", ("s1", "s2", "s3")
    if args.op == "omega":
        _reject(args, what, "t", *shifts)
        out = omega_r(table, args.r or 0)
    elif args.op == "ar":
        _reject(args, what, "t", *shifts)
        out = a_r(table, args.r or 0)
    elif args.op == "xt":
        _reject(args, what, "r", *shifts)
        out = x_t(table, args.t or 0)
    elif args.op == "shift":
        _reject(args, what, "r", "t")
        out = shift_s1s2s3(table, args.s1 or 0, args.s2 or 0, args.s3 or 0)
    else:  # pragma: no cover
        raise ValueError(args.op)
    sys.stdout.write(dump_object(out))
    return 0


def _vertex_for(args: argparse.Namespace, constraints: tuple[str, ...], mods: list) -> VertexTable | None:
    """The vertex table of `--vertex`, which `jacobi` needs and no other constraint reads."""
    if "jacobi" not in constraints:
        _reject(args, f"solve fusion --axioms {args.axioms}", "vertex")
        return None
    if args.vertex is None:
        raise UsageError("solve fusion --axioms with jacobi needs --vertex FILE")
    vt = load_text(read_path(args.vertex))
    if not isinstance(vt, VertexTable):
        raise UsageError("--vertex needs a vertex table file")
    differ = [f"W{s}" for s, m in zip((1, 2, 3), mods) if dump_object(vt.modules[s]) != dump_object(m)]
    if differ:
        raise UsageError(f"the --vertex file's {', '.join(differ)} differ from those of --modules")
    return vt


def cmd_solve(args: argparse.Namespace) -> int:
    mods = [load_text(read_path(p)) for p in args.modules]
    if not all(isinstance(m, MobiusModule) for m in mods):
        raise UsageError("solve fusion --modules needs three module files")
    constraints = tuple(args.axioms.split(","))
    vertex = _vertex_for(args, constraints, mods)
    window = None
    if args.window is not None:
        window = [parse_exponent(part) for part in args.window.split(",")]
    tables = solve_fusion_space(
        mods[0], mods[1], mods[2], constraints=constraints, max_log=args.max_log, window=window, vertex=vertex
    )
    if args.format == "json":
        print(canonical_json({"dimension": len(tables), "basis": [table_to_json(t) for t in tables]}))
    else:
        print(f"window-relative solution dimension: {len(tables)}")
        for idx, t in enumerate(tables):
            print(f"-- basis table {idx}:")
            for (i, j, n, k), vec in t.canonical_items():
                print(f"   mode(i={i}, j={j}, n={n!r}, k={k}) = {vec!r}")
    return 0


def cmd_roundtrip(args: argparse.Namespace) -> int:
    text = read_path(args.file)
    obj = load_text(text)
    again = dump_object(obj)
    rep = Report("file-roundtrip")
    rep.add(f"byte-identical({args.file})", text == again)
    return _emit_report(rep, args.format)


# Every numeric flag has a sign and an upper cap that bounds the work of one
# command (a check at its cap finishes in minutes, not hours); every default,
# and every value that `check all` uses, lies inside its range.
SEED_MAX = 2**32 - 1
Q_MAX = 10**6
_Q_LITERAL = re.compile(r"-?[0-9]{1,12}(?:/[0-9]{1,12}|\.[0-9]{1,12})?")


def _int_in(lo: int, hi: int):
    """argparse type: an integer in [lo, hi]."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if not lo <= n <= hi:
            raise argparse.ArgumentTypeError(f"{n} is outside {lo}..{hi}")
        return n

    return parse


def _scale_q(text: str) -> Fraction:
    """argparse type: a rational p, p/d or decimal with |q| <= Q_MAX."""
    if not _Q_LITERAL.fullmatch(text):
        raise argparse.ArgumentTypeError(f"{text!r} is not a rational p, p/d or decimal")
    try:
        q = Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"{text!r} has a zero denominator") from None
    if abs(q) > Q_MAX:
        raise argparse.ArgumentTypeError(f"{text} is outside -{Q_MAX}..{Q_MAX}")
    return q


def _variable(text: str) -> str:
    """argparse type: a name that the expression parser reads as that one variable."""
    try:
        if parse_expr(text) == LogSeries.variable(text):
            return text
    except (ParseError, LatticeViolation, UndefinedProduct, VariableCollision):  # not an expression
        pass
    raise argparse.ArgumentTypeError(f"{text!r} is not a variable name")


def _int_flag(p: argparse.ArgumentParser, flag: str, default: int | None, lo: int, hi: int, what: str) -> None:
    p.add_argument(
        flag, type=_int_in(lo, hi), default=default, metavar="N", help=f"{lo} <= N <= {hi}; {what}"
    )


class _Parser(argparse.ArgumentParser):
    """Reads '-' and a digit as a value (`--q -1/3`, `--window -1,-2`): no option starts with a digit."""

    def _parse_optional(self, arg_string):
        return None if re.match("-[0-9]", arg_string) else argparse.ArgumentParser._parse_optional(self, arg_string)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="logcalc",
        description="Exact logarithmic formal calculus and intertwining-operator checks.",
    )
    ap.add_argument("--format", choices=("text", "json"), default="text")
    ap.add_argument("--profile", action="store_true", help="write self time by logcalc module to stderr")
    # every verb also takes --format after it; unset there, the value above stands
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default=argparse.SUPPRESS)
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("eval", parents=[fmt], help="parse an expression and print its canonical form")
    p.add_argument("expr")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("diff", parents=[fmt], help="formal derivative of an expression")
    p.add_argument("expr")
    p.add_argument("--var", type=_variable, default="x")
    _int_flag(p, "--order", 1, 0, 256, "number of derivatives (default 1)")
    p.set_defaults(fn=cmd_diff)

    p = sub.add_parser("subst", parents=[fmt], help="substitution conventions")
    p.add_argument("expr")
    p.add_argument("--kind", choices=("shift", "exp", "product", "inverse", "scale"), required=True)
    p.add_argument("--var", type=_variable, default="x")
    p.add_argument("--with-var", type=_variable, help="shift, exp and product: the new variable (default y)")
    _int_flag(p, "--order", None, 0, 64, "shift and exp: truncation order in the new variable (default 6)")
    p.add_argument("--q", type=_scale_q, help=f"scale: zeta = q*Pi, q rational, |q| <= {Q_MAX} (default 2)")
    p.set_defaults(fn=cmd_subst)

    note = "Each flag names the suites that read it, as NAME=DEFAULT; any other suite exits 2 on it."
    p = sub.add_parser("check", parents=[fmt], help="run a named identity suite", description=note)
    p.add_argument("what", choices=tuple(checks.SUITES))
    p.add_argument("file", nargs="?", help=f"intertwiner table file, or - for stdin; {_read_by('file')}")
    for flag, lo, hi, what in (
        ("--order", 0, 64, "truncation order"),
        ("--samples", 1, 10_000, "random samples"),
        ("--seed", 0, SEED_MAX, "random seed"),
        ("--kmax", 0, 16, "largest k"),
        ("--nmax", 1, 8, "largest N"),
        ("--jmax", 1, 6, "largest j"),
        ("--count", 1, 100, "modules"),
    ):
        _int_flag(p, flag, None, lo, hi, f"{what}, {_read_by(flag[2:])}")
    p.add_argument("--axioms", help=f"one of {', '.join(('all', *AXIOM_KINDS))}; {_read_by('axioms')}")
    p.add_argument("--quick", action="store_true", default=None, help=f"smaller sample counts; {_read_by('quick')}")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("derive", parents=[fmt], help="derive a new table from an intertwiner file")
    p.add_argument("op", choices=("omega", "ar", "xt", "shift"))
    p.add_argument("file", help="intertwiner JSON file, or - for stdin")
    _int_flag(p, "--r", None, -10**6, 10**6, "omega and ar: r (default 0)")
    _int_flag(p, "--t", None, 0, 10**6, "xt: log powers lowered (default 0)")
    for flag in ("--s1", "--s2", "--s3"):
        _int_flag(p, flag, None, -10**6, 10**6, "shift: e^(2 pi i s L(0)) on one slot (default 0)")
    p.set_defaults(fn=cmd_derive)

    p = sub.add_parser("solve", parents=[fmt], help="solve for a basis of the constrained table space")
    p.add_argument("what", choices=("fusion",))
    p.add_argument("--modules", nargs=3, required=True, metavar=("W1", "W2", "W3"))
    p.add_argument("--axioms", default="euler", help=f"comma-separated, from {', '.join(CONSTRAINTS)} (default euler)")
    _int_flag(p, "--max-log", None, 1, 16, "number of log powers solved for, 0..N-1 (default: from the "
              "nilpotency indices when the constraints imply euler, else from the dimensions)")
    p.add_argument("--window", default=None, help="comma-separated exponents n to solve over")
    p.add_argument("--vertex", metavar="FILE", help="jacobi: vertex table file whose modules are those of --modules")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("roundtrip", parents=[fmt], help="byte round-trip a data file")
    p.add_argument("file", help="module, table or vertex JSON file, or - for stdin")
    p.set_defaults(fn=cmd_roundtrip)

    return ap


_PACKAGE = Path(__file__).parent  # the code objects of its modules carry the same directory


def _module_times(prof: cProfile.Profile) -> str:
    """Self time and calls by module, largest time first: `logcalc.NAME` for the package's modules,
    `other` for the rest (the standard library and builtins).  Summed per code object, as pstats
    keys entries by (file, line, name), under which two comprehensions on one line share one."""
    rows: dict[str, list] = {}
    for entry in prof.getstats():
        path = None if isinstance(entry.code, str) else Path(entry.code.co_filename)  # a str names a builtin
        row = rows.setdefault(f"logcalc.{path.stem}" if path and path.parent == _PACKAGE else "other", [0.0, 0])
        row[0] += entry.inlinetime
        row[1] += entry.callcount
    total = sum(t for t, _ in rows.values())
    lines = ["# self time (cProfile tottime) by module"]
    for name, (t, calls) in sorted(rows.items(), key=lambda kv: -kv[1][0]):
        lines.append(f"{name:<22} {t:9.3f} s {100 * t / (total or 1):6.1f}% {calls:>11} calls")
    lines.append(f"{'total':<22} {total:9.3f} s")
    return "\n".join(lines)


def _profiled(args: argparse.Namespace) -> int:
    prof = cProfile.Profile()
    try:
        return prof.runcall(args.fn, args)
    finally:
        print(_module_times(prof), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return _profiled(args) if args.profile else args.fn(args)
    except BrokenPipeError:
        # downstream consumer (head, less) closed the pipe: not an error
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0
    except (ParseError, SchemaError, LatticeViolation, UndefinedProduct, VariableCollision, AxiomError,
            WorkBudgetError, UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # a fault of the program, not a failed check
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
