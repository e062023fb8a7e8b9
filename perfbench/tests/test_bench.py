"""Tests of the benchmark itself (not of logcalc):

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import speedref
import workloads
from tracer import Tracer

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric(name, trace):
    proc = _bench("--workload", name, "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {m["name"]: m["unit"] for m in spec} == {k: v["unit"] for k, v in result["metrics"].items()}
    for m in spec:  # every metric also printed by name with its unit
        assert any(line.startswith(f"{m['name']} ") and line.endswith(f" {m['unit']}") for line in lines)
    assert "failed_frac 0 ratio" in lines


def test_no_package_means_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "theorems", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _first_item(name: str, cls: str):
    wl = workloads.WORKLOADS[name]
    idx = next(i for c, i in workloads.schedule(wl, 0, len(wl.pattern)) if c == cls)
    return wl, idx, workloads.make_item(wl, cls, idx)


def test_wrong_golden_digest_counts_as_failed(capsys):
    wl, idx, data = _first_item("roundtrip", "expr")
    goldens = run.load_goldens("roundtrip")
    verifier = run.Verifier(wl, goldens, speedref.Timer())
    verifier.run("expr", idx, data)
    assert verifier.failed == 0
    verifier.goldens = {**goldens, ("expr", idx): "0" * 16}
    verifier.run("expr", idx, data)
    assert (verifier.attempted, verifier.failed) == (2, 1)
    run.finish(verifier, {}, {})
    assert "failed_frac 0.5 ratio" in capsys.readouterr().out.splitlines()


def test_planted_wrong_verdicts_count_as_failed(monkeypatch):
    # a Taylor route that is off by one coefficient: the positive item's verdict flips
    wl, idx, data = _first_item("theorems", "taylor")
    verifier = run.Verifier(wl, run.load_goldens("theorems"), speedref.Timer())
    real = workloads.substitution.subst_x_plus_y
    monkeypatch.setattr(
        workloads.substitution, "subst_x_plus_y",
        lambda *a: real(*a) + workloads.series.LogSeries.variable("x", 7),
    )
    verifier.run("taylor", idx, data)
    assert verifier.failed == 1 and "wrong verdict" in verifier.failures[0]
    monkeypatch.undo()

    # an axiom checker that passes everything misses the planted perturbation
    wl, idx, data = _first_item("fusion", "honest")
    verifier = run.Verifier(wl, run.load_goldens("fusion"), speedref.Timer())
    monkeypatch.setattr(workloads.intertwiner, "axiom_check", lambda t, which="all": workloads.Report("stub"))
    verifier.run("honest", idx, data)
    assert verifier.failed == 1


def test_unexpected_exception_is_a_failed_item(monkeypatch):
    wl, idx, data = _first_item("roundtrip", "expr_bad")
    verifier = run.Verifier(wl, run.load_goldens("roundtrip"), speedref.Timer())

    def broken(text):
        raise RuntimeError("internal error")

    monkeypatch.setattr(workloads.parser, "parse_expr", broken)
    verifier.run("expr_bad", idx, data)
    assert verifier.failed == 1 and "RuntimeError" in verifier.failures[0]


def test_schedule_is_seeded_and_balanced():
    wl = workloads.WORKLOADS["fusion"]
    a = workloads.schedule(wl, 5, 64)
    assert a == workloads.schedule(wl, 5, 64) != workloads.schedule(wl, 6, 64)
    assert [c for c, _ in a] == [wl.pattern[j % len(wl.pattern)] for j in range(64)]
    size = wl.sizes["jacobi"]  # the class occurs once per pattern
    jacobi = [i for c, i in workloads.schedule(wl, 5, len(wl.pattern) * size) if c == "jacobi"]
    assert sorted(jacobi) == list(range(size))  # a class repeats only after its whole universe


def _traced_counts(name: str):
    wl = workloads.WORKLOADS[name]
    plan = workloads.schedule(wl, 1, len(wl.pattern))
    tracer = Tracer()
    tracer.install()
    try:
        for cls, idx in plan:
            assert wl.run(cls, workloads.make_item(wl, cls, idx)).ok
    finally:
        tracer.uninstall()
    return tracer


def test_tracer_counts_repeat_and_install_is_undone():
    from logcalc import intertwiner, matrix, scalars

    nullspace, mul = matrix.nullspace, scalars.ExactScalar.__mul__
    first = _traced_counts("fusion")
    second = _traced_counts("fusion")
    assert first.counts == second.counts
    assert first.counts["matrix.nullspace_calls"] > 0  # reached through intertwiner's own binding
    assert first.counts["scalars.rational_mul_calls"] <= first.counts["scalars.mul_calls"]
    assert all(v >= 0 for v in first.self_s.values())
    assert matrix.nullspace is nullspace and intertwiner.nullspace is nullspace
    assert scalars.ExactScalar.__mul__ is mul
