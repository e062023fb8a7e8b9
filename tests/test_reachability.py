"""Every function defined in ``src/logcalc`` is reached by a verb.

A verb is `check all --quick` or a command of the CLI.  The scan runs in two
subprocesses, one for `check all --quick` and one for every other command,
that set a trace function before ``import logcalc``, so code that runs at
import counts as reached.  Between them they drive every subcommand, every
``--kind``, op and suite choice of :func:`logcalc.cli.build_parser`, in text
and JSON, and the error paths a user can reach.  A function that no verb
reaches is dead code, even when a test calls it; :data:`ALLOWED` names the
few that stay for a stated reason, keyed by qualified name (``Class.method``
for a method, dunders included).

Run as a script with the argument ``"check all"`` or ``rest``, this file is
one part of the scan: it prints the code that part reached as JSON.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "logcalc"

ALLOWED = {
    "conj_formulas_check": "the conjugation formulas p1, p2, p3 and aL0 join `check all` in a change "
    "of their own, since new rows change its output",
    "_p3_rhs": "reached only from conj_formulas_check",
    "subst_mobius_arg": "reached only from _p3_rhs",
    "kth_derivative_closed_form": "demo 01 shows it",
    **{f"{cls}.__hash__": "keeps a type that defines __eq__ hashable"
       for cls in ("ExactScalar", "CoeffSpace", "CoeffVector")},
    **{f"{cls}.__repr__": "for debugging"
       for cls in ("CoeffSpace", "LogSeries", "ExactMatrix", "GradingGroup", "MobiusModule")},
}


def _both(*argv: str) -> list[list[str]]:
    return [[*argv, "--format", fmt] for fmt in ("text", "json")]


def _commands(tmp: Path) -> dict[str, list[list[str]]]:
    """The command lines that drive each verb choice, keyed "verb" or "verb choice"."""
    from logcalc.catalog import jordan_module, trivial_module
    from logcalc.checks import epsilon_instance, jordan_fixture_tables
    from logcalc.jsonio import dump_object

    files = {
        "table": jordan_fixture_tables()[1],
        "vertex": epsilon_instance()[1],
        "A": epsilon_instance()[1].modules[1],
        "W1": trivial_module("W1"),
        "W2": trivial_module("W2"),
        "W3": jordan_module("W3", 0, size=2),
    }
    path = {name: str(tmp / f"{name}.json") for name in files}
    for name, obj in files.items():
        Path(path[name]).write_text(dump_object(obj))
    bad = tmp / "bad.json"
    bad.write_text("{")
    table, modules = path["table"], [path["W1"], path["W2"], path["W3"]]
    jacobi = ["solve", "fusion", "--axioms", "lminus1,jacobi", "--max-log", "1"]
    expr = "x^(1/2)*lg(x) + e(1/3)*Pi*x^(-1)"
    return {
        "eval": _both("eval", expr) + [["eval", "x +"], ["--profile", "eval", "x/(x-x)"]],
        "diff": _both("diff", expr, "--order", "2"),
        "subst shift": _both("subst", expr, "--kind", "shift", "--order", "2"),
        "subst exp": _both("subst", expr, "--kind", "exp", "--order", "2"),
        "subst product": _both("subst", expr, "--kind", "product"),
        "subst inverse": _both("subst", expr, "--kind", "inverse"),
        "subst scale": _both("subst", expr, "--kind", "scale", "--q", "1/3")
        + [["subst", "x^(i)", "--kind", "scale"], ["subst", "x", "--kind", "scale", "--q", "1/0"]],
        "check scalars": _both("check", "scalars"),
        "check series": _both("check", "series"),
        "check taylor": _both("check", "taylor", "--samples", "1"),
        "check scaling": _both("check", "scaling", "--samples", "1"),
        "check taylor-negative": _both("check", "taylor-negative"),
        "check comb": _both("check", "comb", "--kmax", "2"),
        "check lubell": _both("check", "lubell", "--nmax", "2", "--jmax", "1"),
        "check matrices": _both("check", "matrices"),
        "check multinomial": _both("check", "multinomial"),
        "check ode": _both("check", "ode", "--samples", "1"),
        "check sl2": _both("check", "sl2", "--count", "1"),
        "check fusion": _both("check", "fusion"),
        "check jacobi": _both("check", "jacobi"),
        "check fuzz": _both("check", "fuzz", "--samples", "1"),
        "check file-roundtrip": _both("check", "file-roundtrip"),
        "check intertwiner": _both("check", "intertwiner", table) + [["check", "intertwiner", "--axioms", "all"]],
        # `check all --quick` is check_all(0, quick=True), the costliest run:
        # once, in JSON; its text rendering is every other check's
        "check all": [["check", "all", "--quick", "--format", "json"]],
        "derive omega": _both("derive", "omega", table, "--r", "-1"),
        "derive ar": _both("derive", "ar", table),
        "derive xt": _both("derive", "xt", table, "--t", "1"),
        "derive shift": _both("derive", "shift", table, "--s1", "1", "--s3", "-1"),
        "solve fusion": _both("solve", "fusion", "--modules", *modules)
        + [["solve", "fusion", "--modules", *modules, "--axioms", "lminus1,euler", "--max-log", "1",
            "--window", "0,-1"]]
        + _both(*jacobi, "--modules", *[path["A"]] * 3, "--vertex", path["vertex"])
        + [[*jacobi, "--modules", *modules], [*jacobi, "--modules", *modules, "--vertex", table],
           [*jacobi, "--modules", *modules, "--vertex", path["vertex"]],
           ["solve", "fusion", "--modules", *modules, "--vertex", path["vertex"]]],
        "roundtrip": [
            argv for p in (table, path["vertex"], path["W3"]) for argv in _both("roundtrip", p)
        ] + [["roundtrip", str(bad)]],
    }


def _choices() -> set[str]:
    """Every verb of the CLI, and every choice of a verb's --kind, op or suite."""
    import argparse

    from logcalc.cli import build_parser

    (verbs,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    out = set()
    for verb, p in verbs.choices.items():
        picks = [a.choices for a in p._actions if a.choices is not None and a.dest != "format"]
        out |= {f"{verb} {c}" for cs in picks for c in cs} if picks else {verb}
    return out


def _scan(part: str) -> list[tuple[str, int, str]]:
    """Drive the commands of one part, `check all` or every other one, and
    list the code of src/logcalc that ran as (file name, first line, name)."""
    reached = set()

    def record(frame, event, arg, add=reached.add):
        add(frame.f_code)

    sys.settrace(record)
    from logcalc import cli

    with tempfile.TemporaryDirectory() as tmp:
        commands = _commands(Path(tmp))
        sink = io.StringIO()
        lines = [argv for key, argvs in commands.items() if (key == "check all") == (part == "check all")
                 for argv in argvs]
        for argv in lines:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    cli.main(argv)
                except SystemExit:  # argparse rejects the command line
                    pass
    sys.settrace(None)
    return sorted(
        {(Path(c.co_filename).name, c.co_firstlineno, c.co_name) for c in reached
         if Path(c.co_filename).resolve().parent == SRC}
    )


def _definitions() -> dict[tuple[str, int, str], tuple[str, ...]]:
    """Every function of src/logcalc, dunder methods too, keyed as its code
    object is (file name, first line, name), with the names of the
    definitions that hold it, its own last."""
    out = {}

    def visit(node: ast.AST, path: Path, outer: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, path, outer)
                continue
            names = (*outer, child.name)
            if not isinstance(child, ast.ClassDef):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])  # as co_firstlineno
                out[(path.name, first, child.name)] = names
            visit(child, path, names)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path, ())
    return out


def test_every_verb_choice_is_driven(tmp_path):
    """A new verb, kind, op or suite fails here until the scan drives it."""
    assert set(_commands(tmp_path)) == _choices()


def test_every_definition_is_reached_by_a_verb():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH")))))
    start = time.perf_counter()
    # `check all --quick` takes about as long as every other command together,
    # so the two parts run side by side
    runs = [
        subprocess.Popen([sys.executable, __file__, part], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, env=env)
        for part in ("check all", "rest")
    ]
    reached = set()
    for run in runs:
        out, err = run.communicate(timeout=300)
        assert run.returncode == 0, err
        reached |= {tuple(key) for key in json.loads(out)}
    elapsed = time.perf_counter() - start
    definitions = _definitions()
    unreached = {key: names for key, names in definitions.items() if key not in reached}
    defined = {".".join(names) for names in definitions.values()}
    stale = sorted(f"{name}: {'reached by a verb' if name in defined else 'no longer defined'}"
                   for name in set(ALLOWED) - {".".join(names) for names in unreached.values()})
    assert stale == [], stale
    # a definition inside an allowed one is allowed with it
    dead = sorted(f"{file}:{line} {'.'.join(names)}" for (file, line, _), names in unreached.items()
                  if not any(".".join(names[:i]) in ALLOWED for i in range(1, len(names) + 1)))
    assert dead == [], dead
    # the scan takes about 12 s on 2 cores; the bound leaves room for a slow stretch
    assert elapsed < 60, f"the scan took {elapsed:.1f} s"


if __name__ == "__main__":
    json.dump(_scan(sys.argv[1]), sys.stdout)
