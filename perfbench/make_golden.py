"""Record the golden output digest of every universe item of a workload.

    python3 perfbench/make_golden.py theorems fusion roundtrip

Run it only at a commit whose outputs are the reference: the benchmark then
counts any item whose output differs by one byte as failed.  An item whose
verdict disagrees with its known answer stops the recording.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (needs the path above)


def record(name: str) -> None:
    wl = workloads.WORKLOADS[name]
    lines = [f"# {name}: class, universe index, sha256 prefix of the canonical output"]
    for cls, size in wl.sizes.items():
        for idx in range(size):
            outcome = wl.run(cls, workloads.make_item(wl, cls, idx))
            if not outcome.ok:
                raise SystemExit(f"{name}/{cls}/{idx}: wrong verdict: {outcome.detail}")
            lines.append(f"{cls} {idx} {outcome.digest()}")
    (HERE / "golden" / f"{name}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    names = sys.argv[1:] or sorted(workloads.WORKLOADS)
    for name in names:
        record(name)
