import cProfile
import functools
import inspect
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from logcalc import catalog, checks, cli
from logcalc.cli import main
from logcalc.jsonio import MAX_LOG_POWER, dump_object
from logcalc.reports import Report

# the suites that `check all` runs
ALL_SUITES = [name for name, (_, quick) in checks.SUITES.items() if quick is not None]


def record_suites(monkeypatch, names) -> dict[str, list[dict]]:
    """Replace each named suite in the registry by a recorder of the arguments
    it is called with, its defaults applied; the recorder reports nothing."""
    seen = {}
    for name in names:
        fn, quick = checks.SUITES[name]
        seen[name] = []
        monkeypatch.setitem(checks.SUITES, name, (_recorder(fn, seen[name]), quick))
    return seen


def _recorder(fn, calls: list):
    sig = inspect.signature(fn)

    @functools.wraps(fn)  # keeps the signature, so the same flags are read
    def record(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(dict(bound.arguments))
        return Report(fn.__name__)

    return record


def run_cli(*argv, stdin: str | None = None):
    proc = subprocess.run(
        [sys.executable, "-m", "logcalc.cli", *argv],
        input=stdin,
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestExpressionVerbs:
    def test_eval_canonicalizes(self):
        assert main(["eval", "2*x + lg(x)"]) == 0

    def test_eval_roundtrip_subprocess(self):
        code, out, _ = run_cli("eval", "x^(1/2)*lg(x)^2 + 1/2")
        assert code == 0
        assert out.strip() == "(1/2) + x^(1/2)*lg(x)^2"

    def test_diff(self):
        code, out, _ = run_cli("diff", "lg(x)", "--var", "x")
        assert code == 0 and out.strip() == "x^(-1)"

    def test_subst_shift(self):
        code, out, _ = run_cli("subst", "lg(x)", "--kind", "shift", "--order", "2")
        assert code == 0
        assert "lg(x)" in out and "y" in out

    @pytest.mark.parametrize(
        "argv, out",
        [
            (("subst", "x^2", "--kind", "shift"), "2*x*y + x^(2) + y^(2)\n"),
            (("subst", "x", "--kind", "exp", "--order", "2", "--with-var", "t"), "t*x + (1/2)*t^(2)*x + x\n"),
            (("subst", "x^(1/2)", "--kind", "scale"), "-x^(1/2)\n"),
        ],
    )
    def test_subst_defaults_print_as_before(self, argv, out):
        assert run_cli(*argv) == (0, out, "")

    def test_parse_error_exits_2(self):
        code, _, err = run_cli("eval", "x^(1/7)")
        assert code == 2 and "denominator" in err

    def test_zero_denominator_exits_2(self):
        for text in ("e(1/0)", "x^(1/0)"):
            code, _, err = run_cli("eval", text)
            assert code == 2 and "zero denominator" in err and "Traceback" not in err

    @pytest.mark.parametrize("text, column", [("1/0", 3), ("x/(x-x)", 3)])
    def test_division_by_zero_exits_2(self, text, column):
        code, out, err = run_cli("eval", text)
        assert code == 2 and not out
        assert err == f"error: division by zero at column {column}: {text!r}\n"

    @pytest.mark.parametrize(
        "argv, module", [(("check", "taylor", "--samples", "2"), "series"), (("eval", "x/(x-x)"), "parser")]
    )
    def test_profile_leaves_stdout_and_exit_code_alone(self, argv, module):
        code, out, err = run_cli(*argv)
        pcode, pout, perr = run_cli("--profile", *argv)
        assert (pcode, pout) == (code, out) and perr.endswith(err)
        table = perr[: len(perr) - len(err)].splitlines()
        assert table[0] == "# self time (cProfile tottime) by module" and table[-1].startswith("total ")
        assert any(line.startswith(f"logcalc.{module} ") for line in table[1:-1])

    def test_profile_counts_two_functions_of_one_line_apart(self, monkeypatch):
        """pstats keys an entry by (file, line, name) and keeps one of two lambdas on one line;
        the table sums every code object, so this file's row counts 1 + 2 + 3 calls."""

        def calls_two_lambdas_of_one_line():
            first, second = (lambda: 1), (lambda: 2)
            return first() + first() + second() + second() + second()

        monkeypatch.setattr(cli, "_PACKAGE", Path(__file__).parent)
        prof = cProfile.Profile()
        prof.runcall(calls_two_lambdas_of_one_line)
        rows = [line.split() for line in cli._module_times(prof).splitlines()]
        assert [row[-2] for row in rows if row[0] == "logcalc.test_cli"] == ["6"]

    def test_json_format(self):
        code, out, _ = run_cli("--format", "json", "eval", "x")
        assert code == 0 and json.loads(out) == {"series": "x"}

    def test_power_bound_exits_2(self):
        code, out, err = run_cli("eval", "(x+1)^100000")
        assert code == 2 and not out
        assert "exceeds the bound" in err and "column 7" in err and "Traceback" not in err


    def test_bad_power_error_names_the_exponent_column(self):
        for text in ("x + lg(x)^-2", "x + (x+1)^-2"):
            code, out, err = run_cli("eval", text)
            assert code == 2 and not out
            assert "at column 11" in err and "Traceback" not in err

    def test_negative_power_of_a_non_invertible_constant_exits_2(self):
        code, out, err = run_cli("eval", "(1+Pi)^-1")
        assert code == 2 and not out
        assert "cannot invert" in err and "at column 8" in err and "Traceback" not in err


class TestHostileFlags:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("diff", "x", "--order", "-2"), "--order"),
            (("check", "comb", "--kmax", "-3"), "--kmax"),
            (("check", "ode", "--samples", "-1"), "--samples"),
            (("check", "fuzz", "--samples", "10001"), "--samples"),
            (("check", "taylor", "--samples", "2", "--order", "100000"), "--order"),
            (("subst", "x", "--kind", "scale", "--q", "1e99999999"), "--q"),
        ],
    )
    def test_out_of_range_flag_exits_2_fast(self, argv, flag):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "logcalc.cli", *argv], capture_output=True, text=True, timeout=10
        )
        assert time.perf_counter() - start < 5
        assert proc.returncode == 2 and not proc.stdout
        assert f"argument {flag}" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("check", "comb", "--seed", "3"), "--seed"),
            (("check", "taylor", "--quick"), "--quick"),
            (("check", "matrices", "--kmax", "3"), "--kmax"),
            (("check", "series", "--samples", "3"), "--samples"),
        ],
    )
    def test_unread_flag_exits_2_fast(self, argv, flag):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "logcalc.cli", *argv], capture_output=True, text=True, timeout=10
        )
        assert time.perf_counter() - start < 5
        assert proc.returncode == 2 and not proc.stdout
        assert f"does not read {flag}" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("name", ["1", "a b", "Pi", "i", "e", "lg"])
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("diff", "x^2", "--var"), "--var"),
            (("subst", "x^2", "--kind", "shift", "--var"), "--var"),
            (("subst", "x^2", "--kind", "shift", "--order", "2", "--with-var"), "--with-var"),
        ],
    )
    def test_non_variable_name_exits_2(self, capsys, argv, flag, name):
        """A name the parser does not read as that one variable would print a
        canonical form that does not read back."""
        with pytest.raises(SystemExit) as exc:
            main([*argv, name])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and not out
        assert f"argument {flag}: {name!r} is not a variable name" in err

    @pytest.mark.parametrize(
        "argv, flags",
        [
            (("subst", "x", "--kind", "product", "--order", "3", "--q", "5"), "--order, --q"),
            (("subst", "x", "--kind", "shift", "--q", "2"), "--q"),
            (("subst", "x", "--kind", "inverse", "--with-var", "y"), "--with-var"),
            (("subst", "x", "--kind", "scale", "--with-var", "z", "--order", "6"), "--with-var, --order"),
        ],
    )
    def test_subst_unread_flag_exits_2(self, argv, flags):
        code, out, err = run_cli(*argv)
        assert code == 2 and not out
        assert f"subst --kind {argv[3]} does not read {flags}" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "op, flag",
        [("omega", "--t"), ("ar", "--s1"), ("xt", "--r"), ("shift", "--t")],
    )
    def test_derive_unread_flag_exits_2(self, tmp_path, jordan_tables, op, flag):
        path = tmp_path / "table.json"
        path.write_text(dump_object(jordan_tables[0]))
        code, out, err = run_cli("derive", op, str(path), flag, "0")
        assert code == 2 and not out
        assert f"derive {op} does not read {flag}" in err and "Traceback" not in err

    def test_max_log_zero_exits_2_with_the_range(self):
        # --max-log N solves for log powers 0..N-1, so N = 0 would solve for none
        code, out, err = run_cli("solve", "fusion", "--max-log", "0")
        assert code == 2 and not out
        assert "argument --max-log: 0 is outside 1..16" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, same",
        [
            (("subst", "x", "--kind", "scale", "--q", "-1/3"), ("subst", "x", "--kind", "scale", "--q=-1/3")),
            (("solve", "fusion", "--window", "-1,-2"), ("solve", "fusion", "--window=-1,-2")),
            (("solve", "fusion", "--window", "-1/2"), ("solve", "fusion", "--window=-1/2")),
        ],
    )
    def test_a_value_starting_with_minus_and_a_digit_is_a_value(self, tmp_path, capsys, argv, same):
        path = tmp_path / "V.json"
        path.write_text(dump_object(catalog.trivial_module("V")))
        modules = ["--modules", *[str(path)] * 3] if argv[0] == "solve" else []
        outputs = []
        for args in (argv, same):
            assert main([*args, *modules]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] and outputs[0].out and not outputs[0].err

    def test_axioms_help_lists_exactly_the_names_each_verb_accepts(self, tmp_path, capsys, honest_table):
        table, module = tmp_path / "t.json", tmp_path / "V.json"
        table.write_text(dump_object(honest_table))
        module.write_text(dump_object(catalog.trivial_module("V")))
        verbs = {
            "check": (r"one of ([\w, ]+);", ["check", "intertwiner", str(table)]),
            "solve": (r"comma-separated, from ([\w, ]+) \(", ["solve", "fusion", "--modules", *[str(module)] * 3]),
        }
        listed = {}
        for verb, (pattern, _) in verbs.items():
            with pytest.raises(SystemExit):
                main([verb, "--help"])
            text = " ".join(capsys.readouterr().out.split())
            listed[verb] = re.search(r"--axioms AXIOMS " + pattern, text).group(1).split(", ")
        assert {"all", "sl2", "grading"} <= set(listed["check"]) and {"sl2_0", "jacobi"} <= set(listed["solve"])
        for verb, (_, argv) in verbs.items():
            accepted = []
            for name in sorted({*listed["check"], *listed["solve"], "bogus"}):
                main([*argv, "--axioms", name])
                accepted += [name] if "unknown" not in capsys.readouterr().err else []
            assert accepted == sorted(listed[verb]), verb

    def test_help_states_each_range(self):
        code, out, _ = run_cli("check", "--help")
        assert code == 0
        assert "0 <= N <= 16" in out and "1 <= N <= 10000" in out

class TestCheckVerbs:
    def test_check_comb(self):
        code, out, _ = run_cli("check", "comb", "--kmax", "6")
        assert code == 0 and "PASS" in out

    def test_check_taylor_seeded(self):
        code, out, _ = run_cli("check", "taylor", "--order", "4", "--samples", "10", "--seed", "7")
        assert code == 0 and "PASS" in out

    def test_check_lubell(self):
        code, out, _ = run_cli("check", "lubell", "--nmax", "4", "--jmax", "3")
        assert code == 0

    def test_check_json_format(self):
        code, out, _ = run_cli("--format", "json", "check", "comb", "--kmax", "3")
        data = json.loads(out)
        assert code == 0 and data["passed"] is True

    @pytest.mark.parametrize(
        "verb",
        [("check", "jacobi"), ("eval", "x^(1/2)*lg(x) + Pi"), ("diff", "lg(x)^2", "--order", "2")],
    )
    def test_format_before_or_after_verb(self, verb):
        before = run_cli("--format", "json", *verb)
        after = run_cli(*verb, "--format", "json")
        assert before[0] == 0 and json.loads(before[1])
        assert after == before
        assert run_cli("--format", "json", *verb, "--format", "text") == run_cli(*verb)

    @pytest.mark.parametrize("argv, order", [((), 10), (("--order", "4"), 4)])
    def test_check_sl2_order_defaults_to_that_of_check_all(self, monkeypatch, argv, order):
        # the reports at orders 8 and 10 are byte-identical: record the order instead
        seen = record_suites(monkeypatch, ["sl2"])
        assert main(["check", "sl2", "--count", "1", *argv]) == 0
        assert [call["order"] for call in seen["sl2"]] == [order]

    @pytest.mark.parametrize("name", ALL_SUITES)
    def test_check_name_calls_its_suite_as_check_all_does(self, monkeypatch, name):
        seen = record_suites(monkeypatch, ALL_SUITES)
        assert main(["check", "all"]) == 0
        assert all(len(calls) == 1 for calls in seen.values())
        assert main(["check", name]) == 0
        assert seen[name][1] == seen[name][0]

    @pytest.mark.parametrize("name", ["multinomial", "taylor-negative", "file-roundtrip"])
    def test_suite_of_check_all_runs_alone(self, name):
        code, out, _ = run_cli("check", name)
        assert code == 0 and "PASS" in out

    def test_check_fuzz(self):
        code, out, _ = run_cli("check", "fuzz", "--samples", "200", "--seed", "3")
        assert code == 0 and "PASS" in out

    def test_intertwiner_file_with_bad_modes_exits_2(self, tmp_path, honest_table):
        data = json.loads(dump_object(honest_table))
        data["modes"] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run_cli("check", "intertwiner", str(path))
        assert code == 2 and not out
        assert "(at /modes)" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [("check", "intertwiner"), ("roundtrip",), ("derive", "omega")])
    def test_intertwiner_file_with_a_repeated_mode_exits_2(self, tmp_path, honest_table, argv):
        # the repeated mode differs from the first: keeping the last would
        # check a table the file does not state
        data = json.loads(dump_object(honest_table))
        again = dict(data["modes"][0], value=["1"] * len(data["modes"][0]["value"]))
        data["modes"].append(again)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run_cli(*argv, str(path))
        assert code == 2 and not out
        assert f"(at /modes/{len(data['modes']) - 1})" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [("check", "intertwiner"), ("roundtrip",), ("derive", "omega")])
    def test_intertwiner_file_above_the_log_power_budget_exits_2(self, tmp_path, honest_table, argv):
        # a derived table expands lg(x)^k into k + 1 terms: the loader bounds k
        data = json.loads(dump_object(honest_table))
        data["modes"][0]["k"] = MAX_LOG_POWER + 1
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run_cli(*argv, str(path))
        assert code == 2 and not out
        assert "(at /modes/0/k)" in err and "Traceback" not in err

    def test_verb_is_thin_shell_over_library(self):
        # the CLI report must be exactly the library's report
        from logcalc.checks import check_comb

        code, out, _ = run_cli("--format", "json", "check", "comb", "--kmax", "5")
        assert code == 0
        assert json.loads(out) == json.loads(check_comb(5).to_json())

    def test_check_intertwiner_file(self, tmp_path, honest_table):
        path = tmp_path / "t.json"
        path.write_text(dump_object(honest_table))
        code, out, _ = run_cli("check", "intertwiner", str(path), "--axioms", "all")
        assert code == 0 and "PASS" in out

    def test_failing_check_exits_1(self, tmp_path, honest_table):
        from logcalc.intertwiner import IntertwinerTable
        from logcalc.scalars import Exponent

        t = honest_table
        modes = dict(t.modes)
        modes[(0, 0, Exponent(-5), 0)] = t.w3.basis_vector(0)
        bad = IntertwinerTable(t.w1, t.w2, t.w3, modes)
        path = tmp_path / "bad.json"
        path.write_text(dump_object(bad))
        code, out, _ = run_cli("check", "intertwiner", str(path), "--axioms", "lminus1")
        assert code == 1

    def test_internal_error_exits_3_with_traceback(self, monkeypatch, capsys):
        def broken():
            raise RuntimeError("planted fault")

        monkeypatch.setitem(checks.SUITES, "comb", (broken, {}))
        assert main(["check", "comb"]) == 3
        out, err = capsys.readouterr()
        assert not out and "Traceback" in err and "RuntimeError: planted fault" in err

    def test_a_bare_value_error_is_internal_and_exits_3(self, monkeypatch, capsys):
        def broken():
            raise ValueError("planted fault")

        monkeypatch.setitem(checks.SUITES, "comb", (broken, {}))
        assert main(["check", "comb"]) == 3
        out, err = capsys.readouterr()
        assert not out and "Traceback" in err and "ValueError: planted fault" in err

    def test_unknown_axioms_and_wrong_files_exit_2(self, tmp_path, honest_table, jordan2):
        from logcalc.intertwiner import IntertwinerTable
        from logcalc.mobius import GradingGroup, MobiusModule
        from logcalc.scalars import Exponent

        w = catalog.trivial_module("W")
        graded = MobiusModule("G", w.weights, w.L(-1), w.L(0), w.L(1), [(1,)], GradingGroup(1, []))
        table, module, mixed = tmp_path / "t.json", tmp_path / "m.json", tmp_path / "mixed.json"
        table.write_text(dump_object(honest_table))
        module.write_text(dump_object(jordan2))
        mixed.write_text(dump_object(IntertwinerTable(graded, w, w, {(0, 0, Exponent(-1), 0): w.basis_vector(0)})))
        for argv, message in (
            (["derive", "ar", str(mixed)], "a_r needs a grading-compatible table"),
            (["check", "intertwiner", str(table), "--axioms", "bogus"], "unknown axiom 'bogus'"),
            (["check", "intertwiner", str(module)], "does not hold an intertwiner table"),
            (["solve", "fusion", "--modules", *[str(module)] * 3, "--axioms", "euler,bogus"], "unknown constraint"),
            (["solve", "fusion", "--modules", *[str(module)] * 3, "--window", "1/2", "--axioms", "bogus"],
             "unknown constraint 'bogus'"),
            (["solve", "fusion", "--modules", str(module), str(table), str(module)], "needs three module files"),
        ):
            code, out, err = run_cli(*argv)
            assert code == 2 and not out and message in err and "Traceback" not in err


    def test_retired_bracket_names_exit_2_naming_the_accepted_ones(self, tmp_path, capsys, honest_table, jordan2):
        table, module = tmp_path / "t.json", tmp_path / "m.json"
        table.write_text(dump_object(honest_table))
        module.write_text(dump_object(jordan2))
        for argv, message in (
            (["solve", "fusion", "--modules", *[str(module)] * 3, "--axioms", "lminus1,sl2_alt_m1,sl2_alt_0,sl2_alt_1"],
             "unknown constraint 'sl2_alt_m1'; accepted: lminus1, sl2_m1, sl2_0, sl2_1, euler, jacobi, grading, weights"),
            (["check", "intertwiner", str(table), "--axioms", "sl2_alt"],
             "unknown axiom 'sl2_alt'; accepted: all, lminus1, sl2, euler, grading, weights"),
        ):
            start = time.perf_counter()
            code = main(argv)
            assert time.perf_counter() - start < 1
            out, err = capsys.readouterr()
            assert code == 2 and not out and err == f"error: {message}\n"

class TestDeriveAndSolve:
    def test_omega_pipeline_restores_input(self, tmp_path, jordan_tables):
        path = tmp_path / "table.json"
        path.write_text(dump_object(jordan_tables[0]))
        code, once, _ = run_cli("derive", "omega", "--r", "0", str(path))
        assert code == 0
        code, twice, _ = run_cli("derive", "omega", "--r", "-1", "-", stdin=once)
        assert code == 0
        assert twice == path.read_text()

    def test_xt_derivation(self, tmp_path, jordan_tables):
        path = tmp_path / "table.json"
        path.write_text(dump_object(jordan_tables[1]))
        code, out, _ = run_cli("derive", "xt", "--t", "1", str(path))
        assert code == 0 and '"kind": "intertwiner"' in out

    def test_solve_fusion(self, tmp_path):
        names = []
        for name, mod in (
            ("W1", catalog.trivial_module("W1")),
            ("W2", catalog.trivial_module("W2")),
            ("W3", catalog.jordan_module("W3", 0, size=2)),
        ):
            p = tmp_path / f"{name}.json"
            p.write_text(dump_object(mod))
            names.append(str(p))
        code, out, _ = run_cli("solve", "fusion", "--modules", *names)
        assert code == 0 and "dimension: 2" in out

    def test_solve_with_window(self, tmp_path):
        names = []
        for name, mod in (
            ("W1", catalog.trivial_module("W1")),
            ("W2", catalog.trivial_module("W2")),
            ("W3", catalog.jordan_module("W3", 0, size=2)),
        ):
            p = tmp_path / f"{name}.json"
            p.write_text(dump_object(mod))
            names.append(str(p))
        code, out, _ = run_cli("solve", "fusion", "--modules", *names, "--window", "5")
        assert code == 0 and "dimension: 0" in out


class TestJacobiSolveFromFiles:
    @pytest.fixture
    def files(self, tmp_path):
        mult, vt = checks.epsilon_instance()
        paths = {}
        for name, obj in (("A", vt.modules[1]), ("V", vt), ("J", catalog.jordan_module("A", 0, size=2))):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(dump_object(obj))
        return mult, vt, {k: str(v) for k, v in paths.items()}

    def test_solves_the_epsilon_instance_like_the_library(self, files, capsys):
        from logcalc.intertwiner import solve_fusion_space
        from logcalc.jsonio import table_to_json

        mult, vt, path = files
        want = solve_fusion_space(mult.w1, mult.w2, mult.w3, constraints=("lminus1", "jacobi"), vertex=vt, max_log=1)
        argv = ["solve", "fusion", "--modules", *[path["A"]] * 3, "--axioms", "lminus1,jacobi", "--vertex", path["V"],
                "--max-log", "1", "--format", "json"]
        assert main(argv) == 0
        got = json.loads(capsys.readouterr().out)
        assert got == {"dimension": 2, "basis": [table_to_json(t) for t in want]} and len(want) == 2

    @pytest.mark.parametrize("axioms, vertex, message", [
        ("lminus1,jacobi", None, "needs --vertex FILE"),
        ("lminus1", "V", "does not read --vertex"),
        ("jacobi", "A", "needs a vertex table file"),
    ])
    def test_a_vertex_flag_that_does_not_fit_exits_2(self, files, axioms, vertex, message):
        _, _, path = files
        extra = [] if vertex is None else ["--vertex", path[vertex]]
        code, out, err = run_cli("solve", "fusion", "--modules", *[path["A"]] * 3, "--axioms", axioms, *extra)
        assert code == 2 and not out and message in err

    def test_a_vertex_file_over_other_modules_exits_2(self, files):
        _, _, path = files
        code, out, err = run_cli("solve", "fusion", "--modules", path["A"], path["J"], path["A"],
                                 "--axioms", "jacobi", "--vertex", path["V"])
        assert code == 2 and not out and "W2 differ from those of --modules" in err


class TestRoundtripVerb:
    def test_file_roundtrip(self, tmp_path, jordan2):
        path = tmp_path / "m.json"
        path.write_text(dump_object(jordan2))
        code, out, _ = run_cli("roundtrip", str(path))
        assert code == 0 and "PASS" in out
