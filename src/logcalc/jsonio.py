"""Canonical JSON serialization for modules, intertwiner tables, vertex tables.

Every file carries the schema version header ``"schema": "logcalc/1"``.
Dumps are canonical (sorted keys, fixed indentation, trailing newline), so a
load -> save round trip is byte-identical on canonical files.  Loaders
validate eagerly and report failures with a JSON-pointer-style path.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

from .matrix import ExactMatrix
from .mobius import GradingGroup, MobiusModule, module_valid, validate_sl2
from .parser import parse_exponent, parse_scalar
from .printer import exponent_str, scalar_str
from .reports import canonical_json
from .scalars import ExactScalar, Exponent
from .series import CoeffVector
from .intertwiner import IntertwinerTable, VertexTable

SCHEMA = "logcalc/1"
# a table file's largest log power k: derived tables expand lg(x)^k into k + 1 terms
MAX_LOG_POWER = 256


class SchemaError(ValueError):
    def __init__(self, message: str, pointer: str):
        super().__init__(f"{message} (at {pointer})")
        self.pointer = pointer


def _expect(cond: bool, message: str, pointer: str) -> None:
    if not cond:
        raise SchemaError(message, pointer)


def canonical_dumps(obj: Any) -> str:
    return canonical_json(obj) + "\n"


# ---------------------------------------------------------------------------
# matrices

def matrix_to_json(m: ExactMatrix) -> list[list[str]]:
    return [[scalar_str(e) for e in row] for row in m.entries]


def matrix_from_json(data: Any, pointer: str) -> ExactMatrix:
    _expect(isinstance(data, list) and data, "matrix must be a nonempty array", pointer)
    rows = []
    for i, row in enumerate(data):
        _expect(isinstance(row, list), "matrix row must be an array", f"{pointer}/{i}")
        _expect(len(row) == len(data[0]), "matrix rows must have equal lengths", f"{pointer}/{i}")
        rows.append([_scalar_from(cell, f"{pointer}/{i}/{j}") for j, cell in enumerate(row)])
    return ExactMatrix._trusted(rows)


def _int(x: Any) -> bool:
    """A JSON integer: true and false are not, though Python's bool is an int."""
    return isinstance(x, int) and not isinstance(x, bool)


def _array(data: Any, pointer: str, item: type = object) -> list:
    ok = isinstance(data, list) and all(_int(x) if item is int else isinstance(x, item) for x in data)
    _expect(ok, "must be an array" + ("" if item is object else f" of {item.__name__}s"), pointer)
    return data


def _scalar_from(cell: Any, pointer: str) -> ExactScalar:
    _expect(isinstance(cell, str), "scalar entries are strings", pointer)
    try:
        return parse_scalar(cell)
    except Exception as exc:
        raise SchemaError(f"bad scalar {cell!r}: {exc}", pointer) from exc


def _exponent_from(cell: Any, pointer: str) -> Exponent:
    _expect(isinstance(cell, str), "exponents are strings", pointer)
    try:
        return parse_exponent(cell)
    except Exception as exc:
        raise SchemaError(f"bad exponent {cell!r}: {exc}", pointer) from exc


# ---------------------------------------------------------------------------
# modules

def module_to_json(m: MobiusModule) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "module",
        "name": m.name,
        "dim": m.dim,
        "group": {"free_rank": m.group.free_rank, "torsion": list(m.group.torsion)},
        "weights": [exponent_str(w) for w in m.weights],
        "degrees": [list(d) for d in m.degrees],
        "Lm1": matrix_to_json(m.L(-1)),
        "L0": matrix_to_json(m.L(0)),
        "L1": matrix_to_json(m.L(1)),
    }


def module_from_json(data: Any, pointer: str = "") -> MobiusModule:
    _expect(isinstance(data, dict), "module must be an object", pointer or "/")
    _expect(data.get("schema") == SCHEMA, f"schema must be {SCHEMA!r}", f"{pointer}/schema")
    _expect(data.get("kind") == "module", "kind must be 'module'", f"{pointer}/kind")
    name = data.get("name")
    _expect(isinstance(name, str) and name, "name must be a nonempty string", f"{pointer}/name")
    gdata = data.get("group", {})
    _expect(isinstance(gdata, dict), "group must be an object", f"{pointer}/group")
    free_rank = gdata.get("free_rank", 0)
    # the default degree is a zero tuple of free_rank coordinates: bound it
    ok = _int(free_rank) and 0 <= free_rank <= 64
    _expect(ok, "free_rank must be an integer in 0..64", f"{pointer}/group/free_rank")
    torsion = _array(gdata.get("torsion", []), f"{pointer}/group/torsion", int)
    weights = [
        _exponent_from(w, f"{pointer}/weights/{i}")
        for i, w in enumerate(_array(data.get("weights", []), f"{pointer}/weights"))
    ]
    dim = data.get("dim")
    _expect(_int(dim) and dim == len(weights), "dim must match the number of weights", f"{pointer}/dim")
    degrees = data.get("degrees")
    for i, d in enumerate([] if degrees is None else _array(degrees, f"{pointer}/degrees")):
        _array(d, f"{pointer}/degrees/{i}", int)
    matrices = [matrix_from_json(data.get(key), f"{pointer}/{key}") for key in ("Lm1", "L0", "L1")]
    try:
        module = MobiusModule(name, weights, *matrices, degrees, GradingGroup(free_rank, torsion))
    except ValueError as exc:
        raise SchemaError(str(exc), pointer or "/") from exc
    report = validate_sl2(module)
    if not module_valid(report):
        failed = ", ".join(c.check_id for c in report.failures)
        raise SchemaError(f"module fails structural validation: {failed}", pointer or "/")
    return module


# ---------------------------------------------------------------------------
# intertwiner tables

def table_to_json(t: IntertwinerTable) -> dict:
    modes = []
    for (i, j, n, k), vec in t.canonical_items():
        modes.append(
            {
                "i": i,
                "j": j,
                "n": exponent_str(n),
                "k": k,
                "value": [scalar_str(vec.get(b)) for b in range(t.w3.dim)],
            }
        )
    return {
        "schema": SCHEMA,
        "kind": "intertwiner",
        "type": {
            "w1": module_to_json(t.w1),
            "w2": module_to_json(t.w2),
            "w3": module_to_json(t.w3),
        },
        "modes": modes,
    }


def table_from_json(data: Any) -> IntertwinerTable:
    _expect(isinstance(data, dict), "table must be an object", "/")
    _expect(data.get("schema") == SCHEMA, f"schema must be {SCHEMA!r}", "/schema")
    _expect(data.get("kind") == "intertwiner", "kind must be 'intertwiner'", "/kind")
    tdata = data.get("type")
    _expect(isinstance(tdata, dict), "type must hold the three modules", "/type")
    w1 = module_from_json(tdata.get("w1"), "/type/w1")
    w2 = module_from_json(tdata.get("w2"), "/type/w2")
    w3 = module_from_json(tdata.get("w3"), "/type/w3")
    modes: dict = {}
    for idx, m in enumerate(_array(data.get("modes", []), "/modes")):
        p = f"/modes/{idx}"
        _expect(isinstance(m, dict), "mode must be an object", p)
        i, j, k = m.get("i"), m.get("j"), m.get("k")
        _expect(_int(i) and 0 <= i < w1.dim, "bad first index", f"{p}/i")
        _expect(_int(j) and 0 <= j < w2.dim, "bad second index", f"{p}/j")
        _expect(_int(k) and k >= 0, "log power must be a natural number", f"{p}/k")
        _expect(k <= MAX_LOG_POWER, f"log power exceeds the bound k <= {MAX_LOG_POWER}", f"{p}/k")
        n = _exponent_from(m.get("n"), f"{p}/n")
        _expect((i, j, n, k) not in modes, "repeats the (i, j, n, k) of an earlier mode", p)
        value = m.get("value")
        _expect(isinstance(value, list) and len(value) == w3.dim, "value must list all components", f"{p}/value")
        modes[(i, j, n, k)] = CoeffVector(
            w3.coeff_space,
            {b: _scalar_from(cell, f"{p}/value/{b}") for b, cell in enumerate(value)},
        )
    return IntertwinerTable(w1, w2, w3, modes)  # drops the zero modes


# ---------------------------------------------------------------------------
# vertex tables

def vertex_to_json(vt: VertexTable) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "vertex",
        "modules": {
            "w1": module_to_json(vt.modules[1]),
            "w2": module_to_json(vt.modules[2]),
            "w3": module_to_json(vt.modules[3]),
        },
        "vector_weights": [exponent_str(w) for w in vt.vector_weights],
        "modes": [
            {"slot": slot, "v": v, "n": n, "matrix": matrix_to_json(mat)}
            for (slot, v, n), mat in sorted(vt.modes.items())
        ],
    }


def vertex_from_json(data: Any) -> VertexTable:
    _expect(isinstance(data, dict), "vertex table must be an object", "/")
    _expect(data.get("schema") == SCHEMA, f"schema must be {SCHEMA!r}", "/schema")
    _expect(data.get("kind") == "vertex", "kind must be 'vertex'", "/kind")
    mods = data.get("modules")
    _expect(isinstance(mods, dict), "modules must be an object", "/modules")
    w1 = module_from_json(mods.get("w1"), "/modules/w1")
    w2 = module_from_json(mods.get("w2"), "/modules/w2")
    w3 = module_from_json(mods.get("w3"), "/modules/w3")
    weights = [
        _exponent_from(w, f"/vector_weights/{i}")
        for i, w in enumerate(_array(data.get("vector_weights", []), "/vector_weights"))
    ]
    modes: dict = {}
    for idx, m in enumerate(_array(data.get("modes", []), "/modes")):
        p = f"/modes/{idx}"
        _expect(isinstance(m, dict), "mode must be an object", p)
        slot, v, n = m.get("slot"), m.get("v"), m.get("n")
        _expect(_int(slot) and slot in (1, 2, 3), "slot must be 1, 2 or 3", f"{p}/slot")
        _expect(_int(v) and 0 <= v < len(weights), "bad vector index", f"{p}/v")
        _expect(_int(n), "vertex modes have integral n", f"{p}/n")
        _expect((slot, v, n) not in modes, "repeats the (slot, v, n) of an earlier mode", p)
        mat = matrix_from_json(m.get("matrix"), f"{p}/matrix")
        dim = (w1, w2, w3)[slot - 1].dim
        _expect((mat.rows, mat.cols) == (dim, dim), f"matrix must be {dim}x{dim}, the slot's dimension", f"{p}/matrix")
        modes[(slot, v, n)] = mat
    return VertexTable(w1, w2, w3, weights, modes)


# ---------------------------------------------------------------------------
# top-level file helpers

_KIND_LOADERS = {
    "module": module_from_json,
    "intertwiner": table_from_json,
    "vertex": vertex_from_json,
}


def load_text(text: str):
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError(f"malformed JSON: {exc}", "/") from exc
    _expect(isinstance(data, dict), "top level must be an object", "/")
    kind = data.get("kind")
    _expect(isinstance(kind, str) and kind in _KIND_LOADERS, f"unknown kind {kind!r}", "/kind")
    return _KIND_LOADERS[kind](data)


def read_path(path: str) -> str:
    """The text of the file at ``path``, or of stdin for ``-``."""
    return sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")


def dump_object(obj) -> str:
    if isinstance(obj, MobiusModule):
        return canonical_dumps(module_to_json(obj))
    if isinstance(obj, IntertwinerTable):
        return canonical_dumps(table_to_json(obj))
    if isinstance(obj, VertexTable):
        return canonical_dumps(vertex_to_json(obj))
    raise TypeError(f"cannot serialize {type(obj).__name__}")
