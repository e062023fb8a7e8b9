"""The benchmark's golden digests, recomputed for a fixed stride of its items.

`perfbench/golden/<workload>.txt` holds the sha256 prefix of the canonical
output of every universe item of the three benchmark workloads.  An output
that drifts by one byte changes its digest, so this catches the drift in the
test suite too, not only in a benchmark run.  Every STRIDE-th item of each
class is recomputed: an eighth of the universe, about 8 s on 2 cores.
Nothing under `perfbench/` is written.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
STRIDE = 8


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


def _golden(name: str) -> list[tuple[str, int, str]]:
    out = []
    for line in (PERFBENCH / "golden" / f"{name}.txt").read_text(encoding="utf-8").splitlines():
        if not line.startswith("#"):
            cls, idx, digest = line.split()
            out.append((cls, int(idx), digest))
    return out


@pytest.mark.parametrize("name", ["theorems", "fusion", "roundtrip"])
def test_strided_items_reproduce_their_golden_digests(name):
    wl = workloads.WORKLOADS[name]
    items = [item for item in _golden(name) if item[1] % STRIDE == 0]
    assert {cls for cls, _, _ in items} == set(wl.sizes)
    wrong = []
    for cls, idx, digest in items:
        outcome = wl.run(cls, workloads.make_item(wl, cls, idx))
        if not outcome.ok or outcome.digest() != digest:
            wrong.append((cls, idx, outcome.detail))
    assert not wrong, f"{len(wrong)}/{len(items)} items differ, first: {wrong[:3]}"
