"""Layer tracing from outside the package.

`Tracer.install()` replaces the public functions and methods of each layer
module of ``logcalc`` with thin wrappers, including every other module's
binding of the same object (``from .matrix import nullspace`` makes
``intertwiner.nullspace`` a second name for ``matrix.nullspace``).
`Tracer.uninstall()` puts the originals back.

A wrapper opens a span only when the call crosses a layer boundary, that is
when the calling code runs in another layer (or in the benchmark's own code).
Calls inside one layer run the original function with no timing.  A span's
self time is its duration minus the durations of its child spans.  Spans
are kept in memory and written out by `write_spans`.

Counters hang off individual functions as hooks (see `LAYER_HOOKS`).  A hook
runs inside the callee's layer, so the library calls it makes open no spans,
and its own time is charged to no layer.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import types
from array import array
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

# The `src/logcalc` modules that do arithmetic or I/O.  `checks`, `reports`
# and `cli` only orchestrate the layers and are not timed as layers.
LAYERS = (
    "scalars",
    "series",
    "substitution",
    "matrix",
    "mobius",
    "intertwiner",
    "combinatorics",
    "parser",
    "printer",
    "jsonio",
    "catalog",
)

# Dunder methods that do a layer's work; the rest (repr, slots plumbing) are
# left alone.
WRAPPED_DUNDERS = frozenset({
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__matmul__", "__neg__", "__pow__", "__eq__", "__lt__", "__hash__", "__getitem__",
})


class Tracer:
    def __init__(self) -> None:
        self.layer: str | None = None  # layer of the running code; None is the benchmark
        self.frames: list[list[float]] = []  # child-time accumulator per open span
        self.open_ids: list[int] = []
        self.item = -1
        # span columns: layer index, parent span (-1 at top level), item, start, end
        self.span_layer = array("b")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.hook_s = 0.0
        self.nullspace_s = 0.0  # time inside boundary calls of matrix.nullspace
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, layer: str, fn, hook):
        tracer = self
        layer_id = LAYERS.index(layer)
        calls_key = f"{layer}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.layer == layer:
                if hook is None:
                    return fn(*args, **kwargs)
                result = fn(*args, **kwargs)
                h0 = perf_counter()
                hook(tracer, args, kwargs, result, None)
                spent = perf_counter() - h0
                tracer.hook_s += spent
                if tracer.frames:
                    tracer.frames[-1][0] += spent
                return result
            prev = tracer.layer
            frames = tracer.frames
            frame = [0.0]
            span = len(tracer.span_start)
            tracer.span_layer.append(layer_id)
            tracer.span_parent.append(tracer.open_ids[-1] if tracer.open_ids else -1)
            tracer.span_item.append(tracer.item)
            tracer.span_end.append(0.0)
            tracer.open_ids.append(span)
            frames.append(frame)
            tracer.layer = layer
            t0 = perf_counter()
            tracer.span_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.layer = prev
                raise
            finally:
                t1 = perf_counter()
                dur = t1 - t0
                tracer.span_end[span] = t1
                frames.pop()
                tracer.open_ids.pop()
                tracer.counts[calls_key] += 1
                tracer.incl_s[layer] += dur
                tracer.self_s[layer] += dur - frame[0]
                if frames:
                    frames[-1][0] += dur
            if hook is not None:
                hook(tracer, args, kwargs, result, dur)
                spent = perf_counter() - t1
                tracer.hook_s += spent
                if frames:
                    frames[-1][0] += spent
            tracer.layer = prev
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer's public functions and methods, and rebind every
        module-level name in the package that refers to one of them."""
        package = importlib.import_module("logcalc")
        modules = {name: importlib.import_module(f"logcalc.{name}") for name in LAYERS}
        replaced: dict[int, object] = {}
        for layer, mod in modules.items():
            hooks = LAYER_HOOKS.get(layer, {})
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    if issubclass(obj, BaseException):
                        continue
                    self._wrap_class(layer, obj, hooks)
                elif callable(obj):
                    wrapped = self._wrap(layer, obj, hooks.get(name))
                    replaced[id(obj)] = (obj, wrapped)
        # rebind module globals (and dict-valued tables of functions) everywhere
        targets = [package] + [
            importlib.import_module(f"logcalc.{n}")
            for n in LAYERS + ("checks", "reports", "cli")
        ]
        for mod in targets:
            for name, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, name, hit[1])
                elif isinstance(value, dict) and not name.startswith("__"):
                    for key, fn in list(value.items()):
                        hit = replaced.get(id(fn))
                        if hit is not None and hit[0] is fn:
                            self._patches.append((value, key, fn))
                            value[key] = hit[1]

    def _wrap_class(self, layer: str, cls: type, hooks) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in WRAPPED_DUNDERS:
                continue
            hook = hooks.get(f"{cls.__name__}.{name}")
            if isinstance(attr, staticmethod):
                self._patch(cls, name, staticmethod(self._wrap(layer, attr.__func__, hook)))
            elif isinstance(attr, classmethod):
                self._patch(cls, name, classmethod(self._wrap(layer, attr.__func__, hook)))
            elif isinstance(attr, types.FunctionType):
                self._patch(cls, name, self._wrap(layer, attr, hook))

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def write_spans(self, path, meta: dict) -> None:
        """Write the spans as gzip-compressed CSV under a JSON header line."""
        rows = zip(self.span_layer, self.span_parent, self.span_item, self.span_start, self.span_end)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write(json.dumps({"meta": meta, "layers": list(LAYERS)}) + "\n")
            out.write("span,layer,parent,item,start_s,end_s\n")
            out.write("".join(
                f"{idx},{LAYERS[layer]},{parent},{item},{start:.9f},{end:.9f}\n"
                for idx, (layer, parent, item, start, end) in enumerate(rows)
            ))


# ---------------------------------------------------------------------------
# counters taken from wrapped arguments and return values


def _count(key: str):
    def hook(tracer, args, kwargs, result, dur):
        tracer.counts[key] += 1
    return hook


def _is_rational(value) -> bool:
    if isinstance(value, (int, Fraction)):
        return True
    check = getattr(value, "is_rational", None)
    return bool(check()) if check is not None else False


def _scalar_mul(tracer, args, kwargs, result, dur):
    tracer.counts["scalars.mul_calls"] += 1
    if _is_rational(args[0]) and _is_rational(args[1]):
        tracer.counts["scalars.rational_mul_calls"] += 1


def _nullspace(tracer, args, kwargs, result, dur):
    rows = args[0] if args else kwargs["rows"]
    ncols = args[1] if len(args) > 1 else kwargs["ncols"]
    tracer.counts["matrix.nullspace_calls"] += 1
    tracer.counts["matrix.nullspace_rows"] += len(rows)
    tracer.counts["matrix.nullspace_cols"] += ncols
    tracer.counts["matrix.nullspace_rank"] += ncols - len(result)
    if dur is not None:
        tracer.nullspace_s += dur


def _jacobi_coefficient(tracer, args, kwargs, result, dur):
    tracer.counts["intertwiner.jacobi_coeff_calls"] += 1
    if any(not term.is_zero() for term in result):
        tracer.counts["intertwiner.jacobi_useful_calls"] += 1


def _chars_in(layer: str):
    """Characters read by a boundary call (nested calls would count twice)."""
    def hook(tracer, args, kwargs, result, dur):
        if dur is not None:
            tracer.counts[f"{layer}.chars"] += len(args[0])
    return hook


def _chars_out(layer: str):
    def hook(tracer, args, kwargs, result, dur):
        if dur is not None:
            tracer.counts[f"{layer}.chars"] += len(result)
    return hook


# hooks keyed by layer, then by function name or `Class.method`
LAYER_HOOKS = {
    "scalars": {
        "ExactScalar.__mul__": _scalar_mul,
        "ExactScalar.__rmul__": _scalar_mul,
        "ExactScalar.__add__": _count("scalars.add_calls"),
        "ExactScalar.__radd__": _count("scalars.add_calls"),
    },
    "series": {
        "LogSeries.__mul__": _count("series.mul_calls"),
        "LogSeries.d_dx": _count("series.d_dx_calls"),
    },
    "matrix": {"nullspace": _nullspace},
    "intertwiner": {
        "solve_fusion_space": _count("intertwiner.solve_calls"),
        "jacobi_coefficient": _jacobi_coefficient,
    },
    "parser": {name: _chars_in("parser") for name in ("parse_expr", "parse_scalar", "parse_exponent")},
    "printer": {
        name: _chars_out("printer")
        for name in ("series_str", "scalar_str", "exponent_str", "monomial_str", "rational_str")
    },
    "jsonio": {"load_text": _chars_in("jsonio"), "dump_object": _chars_out("jsonio")},
}
