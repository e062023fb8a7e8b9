"""Benchmark of the logcalc exact verifier.

Usage (from the repository root)::

    python3 perfbench/run.py --workload theorems|fusion|roundtrip|all \\
        --seed N --seconds S --trace 0|1

One client in one process and one thread runs a closed loop: it sends the
next item only after the previous verdict is back.  Every verdict is
checked against the item's known answer and every canonical output against
its golden digest (`perfbench/golden/`); an item that disagrees or raises
counts as failed.  The last line of standard output is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics: `setup_s` (median of five
set-ups: import, input generation and warm-up, four of them in fresh
processes), `items_per_s` (items per second of item time), `item_ms_p50`,
`item_ms_tail` (the workload's fixed tail percentile) and `peak_rss_mb`.
Times are in reference units (see `speedref.py`); the times as measured
are in the `# meta` line.

`--trace 1` reports the per-layer metrics: micro-op probes, then a fixed
list of items run once untraced and once with every layer's public
functions wrapped (see `tracer.py`).  Its counts repeat exactly for a seed.
Spans are written to `perfbench/out/`.

The package is imported from `src/` of the checkout this file sits in.
The script runs itself again under a fixed PYTHONHASHSEED.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speedref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("theorems", "fusion", "roundtrip")
SETUPS = 5  # set-ups per untraced run; setup_s is their median
MAX_REPORTED_FAILURES = 5
HASH_SEED = "0"


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def load_goldens(name: str) -> dict[tuple[str, int], str]:
    """Golden digests, one `class index digest` line per universe item."""
    out = {}
    with open(HERE / "golden" / f"{name}.txt", encoding="utf-8") as fh:
        for line in fh:
            if line.strip() and not line.startswith("#"):
                cls, index, digest = line.split()
                out[(cls, int(index))] = digest
    return out


class Verifier:
    """Runs items and counts every wrong verdict, exception or digest mismatch."""

    def __init__(self, wl, goldens, timer: speedref.Timer):
        self.wl = wl
        self.goldens = goldens
        self.timer = timer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, cls: str, index: int, data) -> None:
        """Run one item as one step of the timer, then check it."""
        self.attempted += 1
        try:
            outcome = self.timer.time(self.wl.run, cls, data)
        except Exception as exc:  # a crash is a failed item, not a failed run
            self._fail(cls, index, f"raised {type(exc).__name__}: {exc}")
            return
        if not outcome.ok:
            self._fail(cls, index, f"wrong verdict: {outcome.detail}")
        elif self.goldens.get((cls, index)) != outcome.digest():
            self._fail(cls, index, f"output digest {outcome.digest()} != golden {self.goldens.get((cls, index))}")

    def _fail(self, cls: str, index: int, why: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_REPORTED_FAILURES:
            self.failures.append(f"{self.wl.name}/{cls}/{index}: {why}"[:500])


def set_up(name: str, seed: int, goldens, count: int | None = None):
    """Import the package, generate `count` inputs (the workload's pool by
    default, never fewer than its warm-up) and run the warm-up items.
    Returns (workloads module, items, verifier, seconds, normalized seconds)."""
    timer = speedref.Timer()
    workloads = timer.time(importlib.import_module, "workloads")  # imports logcalc
    package = Path(sys.modules["logcalc"].__file__).resolve()
    if not package.is_relative_to(SRC):
        raise SystemExit(f"error: imported logcalc from {package}, not from {SRC}")
    wl = workloads.WORKLOADS[name]
    count = wl.pool if count is None else max(count, wl.warmup)
    items = [
        (cls, idx, timer.time(workloads.make_item, wl, cls, idx))
        for cls, idx in workloads.schedule(wl, seed, count)
    ]
    verifier = Verifier(wl, goldens, timer)
    for cls, idx, data in items[: wl.warmup]:
        verifier.run(cls, idx, data)
    elapsed, normalized = sum(timer.measured()), sum(timer.normalized())
    # keep the input pool out of the collector's scans in the timed loop
    gc.collect()
    gc.freeze()
    return workloads, items, verifier, elapsed, normalized


def fresh_setup_seconds(args) -> tuple[float, float]:
    """Set-up time, measured and normalized, in a new interpreter, so the
    import is cold."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["setup_s"], result["setup_s_normalized"]


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


def metadata(args, **extra) -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            commit = ref
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((SRC / "logcalc").glob("*.py")))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(), "commit": commit,
        "src_lines": src_lines, **extra,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(args) -> dict:
    goldens = load_goldens(args.workload)
    _, items, verifier, setup_raw, setup_s = set_up(args.workload, args.seed, goldens)
    if args.setup_only:
        return {"setup_s": setup_raw, "setup_s_normalized": setup_s}
    wl = verifier.wl
    setups = [(setup_raw, setup_s)] + [fresh_setup_seconds(args) for _ in range(SETUPS - 1)]
    timer = verifier.timer = speedref.Timer()
    j = wl.warmup
    start = perf_counter()
    while perf_counter() - start < args.seconds:
        cls, idx, data = items[j % len(items)]
        verifier.run(cls, idx, data)
        j += 1
    wall = perf_counter() - start
    times, raw = timer.normalized(), timer.measured()
    ordered = sorted(times)
    n = len(times)
    tail = percentile(ordered, wl.tail_pct)
    metrics = {
        "setup_s": metric(statistics.median(norm for _, norm in setups), "s"),
        "items_per_s": metric(n / sum(times), "1/s"),
        "item_ms_p50": metric(1e3 * statistics.median(ordered), "ms"),
        "item_ms_tail": metric(1e3 * tail, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    meta = metadata(
        args, tail_percentile=wl.tail_pct, timed_items=n, beyond_tail=sum(1 for t in ordered if t > tail),
        pool=len(items), pool_passes=j / len(items),
        measured={
            "setups_s": [raw_s for raw_s, _ in setups], "items_per_wall_s": n / wall,
            "item_ms_p50": 1e3 * statistics.median(raw),
            "item_ms_tail": 1e3 * percentile(sorted(raw), wl.tail_pct),
        },
        reference_s={"nominal": speedref.NOMINAL_S, "min": min(timer.samples),
                     "median": statistics.median(timer.samples), "max": max(timer.samples)},
    )
    return finish(verifier, metrics, meta)


def run_traced(args) -> dict:
    import probes
    from tracer import LAYERS, Tracer

    goldens = load_goldens(args.workload)
    workloads, _, verifier, _, _ = set_up(args.workload, args.seed, goldens, count=0)
    wl = verifier.wl
    metrics = probes.run_probes()
    plan = workloads.schedule(wl, args.seed, wl.trace_items)
    items = [(cls, idx, workloads.make_item(wl, cls, idx)) for cls, idx in plan]
    untraced = timed_pass(verifier, items)

    tracer = Tracer()
    tracer.install()
    try:
        items = [(cls, idx, workloads.make_item(wl, cls, idx)) for cls, idx in plan]
        traced = timed_pass(verifier, items, tracer)
    finally:
        tracer.uninstall()
    # layer times in reference units, like every other timing
    scale = traced[1] / traced[0]

    counts = tracer.counts
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = metric(scale * tracer.self_s[layer], "s")
        metrics[f"{layer}.calls"] = metric(counts[f"{layer}.calls"], "count")

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    for key in ("scalars.mul_calls", "scalars.add_calls", "series.mul_calls", "series.d_dx_calls",
                "matrix.nullspace_calls", "matrix.nullspace_rows", "matrix.nullspace_cols",
                "matrix.nullspace_rank", "intertwiner.solve_calls", "intertwiner.jacobi_coeff_calls"):
        metrics[key] = metric(counts[key], "count")
    metrics["scalars.rational_mul_frac"] = metric(ratio(counts["scalars.rational_mul_calls"], counts["scalars.mul_calls"]), "ratio")
    metrics["matrix.nullspace_s"] = metric(scale * tracer.nullspace_s, "s")
    metrics["intertwiner.jacobi_useful_ratio"] = metric(
        ratio(counts["intertwiner.jacobi_useful_calls"], counts["intertwiner.jacobi_coeff_calls"]), "ratio")
    metrics["parser.chars_per_s"] = metric(ratio(counts["parser.chars"], scale * tracer.incl_s["parser"]), "char/s")
    metrics["printer.chars_per_s"] = metric(ratio(counts["printer.chars"], scale * tracer.incl_s["printer"]), "char/s")
    metrics["jsonio.bytes"] = metric(counts["jsonio.chars"], "B")
    metrics["trace.overhead_ratio"] = metric(traced[1] / untraced[1], "ratio")

    meta = metadata(
        args, trace_items=len(plan), untraced_s=untraced[0], traced_s=traced[0],
        spans=len(tracer.span_start), hook_s=tracer.hook_s,
    )
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    tracer.write_spans(spans_path, meta)
    meta["spans_file"] = str(spans_path.relative_to(ROOT))
    return finish(verifier, metrics, meta)


def timed_pass(verifier: Verifier, items, tracer=None) -> tuple[float, float]:
    """Run every item once; return the items' time, measured and normalized."""
    timer = verifier.timer = speedref.Timer()
    for pos, (cls, idx, data) in enumerate(items):
        if tracer is not None:
            tracer.item = pos
        verifier.run(cls, idx, data)
    return sum(timer.measured()), sum(timer.normalized())


def finish(verifier: Verifier, metrics: dict, meta: dict) -> dict:
    for line in verifier.failures:
        print(f"FAILED {line}", file=sys.stderr)
    meta["failed_frac"] = verifier.failed / verifier.attempted
    print(f"# meta {json.dumps(meta, sort_keys=True)}")
    print(f"failed_frac {meta['failed_frac']:.6g} ratio")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    return {
        "correct": verifier.failed == 0,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": metrics,
    }


def run_all(args) -> dict:
    """Each workload in its own process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited with code {proc.returncode}")
        print(f"## {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = m
    return total


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "logcalc" / "__init__.py").is_file():
        print(f"error: no logcalc package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        result = run_all(args)
    elif args.trace:
        result = run_traced(args)
    else:
        result = run_untraced(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashes decide dict probe sequences, and so how often keys
        # are compared; a fixed seed makes the traced call counts repeat.
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.exit(main())
