"""Source hygiene: no unused imports, no orphaned top-level definitions, no
unread parameters, no defaults that no caller sets and no function-local
import that a module-level one could replace in ``src/logcalc``, found by
scanning the syntax trees of the repository's code; no check suite
outside the registry, no `check` flag that no suite reads, and no indented
`json.dumps` beside the one canonical writer."""

import ast
import inspect
from pathlib import Path

from logcalc import checks, cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "logcalc").glob("*.py"))
ALL_CODE = sorted(p for d in ("src", "tests", "demos", "perfbench") for p in (ROOT / d).rglob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _used_names(node: ast.AST) -> set[str]:
    """Names read in the code, including those inside string annotations."""
    out: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        for ann in (getattr(sub, "annotation", None), getattr(sub, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                out |= _used_names(ast.parse(ann.value, mode="eval"))
    return out


def test_no_unused_imports():
    unused = []
    for path in PACKAGE:
        if path.name == "__init__.py":  # re-exports
            continue
        tree = _tree(path)
        used = _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, unused


def _logcalc_imports(node: ast.AST) -> list[str]:
    """The ``logcalc`` modules that a relative import statement names, by file stem."""
    if isinstance(node, ast.ImportFrom) and node.level == 1:
        return [node.module] if node.module else [alias.name for alias in node.names]
    return []


def test_local_imports_close_a_cycle():
    """A function-local import of a ``logcalc`` module is allowed only where a
    module-level import would close an import cycle: where the imported module
    already reaches the importing one through module-level imports."""
    graph: dict[str, set[str]] = {}
    local = []
    for path in PACKAGE:
        tree = _tree(path)
        graph[path.stem] = {m for node in tree.body for m in _logcalc_imports(node)}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local += [(path.stem, m, node.lineno) for node in ast.walk(fn) for m in _logcalc_imports(node)]

    def reaches(start: str, goal: str) -> bool:
        seen, todo = set(), [start]
        while todo:
            mod = todo.pop()
            if mod == goal:
                return True
            if mod not in seen:
                seen.add(mod)
                todo += graph.get(mod, ())
        return False

    movable = sorted({f"{mod}.py:{line} imports {target}" for mod, target, line in local if not reaches(target, mod)})
    assert not movable, movable


def test_every_top_level_definition_is_referenced():
    defined = {}
    for path in PACKAGE:
        for node in _tree(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = f"{path.name}:{node.lineno}"
    referenced: set[str] = set()
    for path in ALL_CODE:
        for node in _tree(path).body:
            names = _used_names(node)
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {alias.name for alias in node.names}
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.discard(node.name)  # recursion is not a use
            referenced |= names
    orphans = sorted(where + " " + name for name, where in defined.items() if name not in referenced)
    assert not orphans, orphans


def test_every_parameter_is_read():
    """A parameter that the body of its function or lambda never reads is an
    option no caller can use."""
    unread = []
    for path in PACKAGE:
        for node in ast.walk(_tree(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = [p for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p]
                body = node.body if isinstance(node.body, list) else [node.body]
                read = {sub.id for stmt in body for sub in ast.walk(stmt) if isinstance(sub, ast.Name)}
                name = getattr(node, "name", "lambda")
                unread += [f"{path.name}:{node.lineno} {name}({p.arg})" for p in params if p.arg not in read]
    assert not unread, unread


def test_every_method_is_read():
    """A non-dunder method of a ``src/logcalc`` class whose name is never read
    as an attribute in src, tests, demos or perfbench is dead code.

    The scan matches names only, not receivers: a method named like an
    attribute of another object (``row``, ``map`` or ``apply``, say) counts as
    read wherever that name is read, so it escapes this test."""
    read = {
        node.attr
        for path in ALL_CODE
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    orphans = []
    for path in PACKAGE:
        for cls in ast.walk(_tree(path)):
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("__") and node.name not in read:
                        orphans.append(f"{path.name}:{node.lineno} {cls.name}.{node.name}")
    assert not orphans, orphans


def test_every_check_function_is_a_suite():
    """A public ``check_*`` function of checks.py that no entry of
    ``checks.SUITES`` holds has no `check` verb and `check all` skips it."""
    tree = _tree(ROOT / "src" / "logcalc" / "checks.py")
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef) and node.name.startswith("check_")}
    reachable = {fn.__name__ for fn, _ in checks.SUITES.values()}
    assert defined - reachable == set()


def test_every_check_flag_is_read_by_a_suite():
    args = cli.build_parser().parse_args(["check", "all"])
    flags = set(vars(args)) - set(cli._NOT_FLAGS)
    read = set().union(*(inspect.signature(fn).parameters for fn, _ in checks.SUITES.values()))
    assert "seed" in flags and flags - read == set()


def test_one_pretty_json_writer():
    """No `json.dump`/`json.dumps` call in ``src/logcalc`` passes ``indent``:
    ``reports.canonical_json`` is the one writer of indented JSON."""
    indented = [
        f"{path.name}:{node.lineno}"
        for path in PACKAGE
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Call) and _called_name(node) in ("dump", "dumps")
        and any(kw.arg == "indent" for kw in node.keywords)
    ]
    assert not indented, indented


def _called_name(call: ast.Call) -> str | None:
    f = call.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def test_every_default_is_passed():
    """A defaulted parameter of a ``src/logcalc`` function that no call in src,
    tests, demos or perfbench passes, by keyword or by position, is an option
    no caller uses.  Calls are matched by name (a constructor by its class
    name); a call with ``*args`` or ``**kwargs`` counts as passing everything.
    The ``checks.SUITES`` functions are exempt: their parameters are `check`
    flags, passed by name from the command line."""
    suites = {fn.__name__ for fn, _ in checks.SUITES.values()}
    calls: dict[str, list[ast.Call]] = {}
    for path in ALL_CODE:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Call) and _called_name(node):
                calls.setdefault(_called_name(node), []).append(node)

    def passed(name: str, param: str, position: int | None) -> bool:
        for call in calls.get(name, []):
            if any(kw.arg in (param, None) for kw in call.keywords):
                return True
            if position is not None and (len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)):
                return True
        return False

    unpassed = []
    for path in PACKAGE:
        for owner in ast.walk(_tree(path)):
            for node in owner.body if isinstance(owner, (ast.Module, ast.ClassDef, ast.FunctionDef)) else []:
                if not isinstance(node, ast.FunctionDef) or (path.name == "checks.py" and node.name in suites):
                    continue
                is_method = isinstance(owner, ast.ClassDef) and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list
                )
                name = owner.name if is_method and node.name == "__init__" else node.name
                a = node.args
                positional = [*a.posonlyargs, *a.args]
                first = len(positional) - len(a.defaults)
                defaulted = [(p, i - is_method) for i, p in enumerate(positional) if i >= first]
                defaulted += [(p, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                unpassed += [f"{path.name}:{node.lineno} {name}({p.arg})" for p, pos in defaulted
                             if not passed(name, p.arg, pos)]
    assert not unpassed, unpassed


_SCALAR_FIELDS = {"num", "den"}
_DICT_MUTATORS = {"clear", "pop", "popitem", "setdefault", "update", "__setitem__", "__delitem__", "__ior__"}


def _scopes(tree: ast.Module) -> list[list[ast.AST]]:
    """The nodes of the module body and of each function, each node in its innermost scope."""
    out = []
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.Lambda)))]:
        own, todo = [], list(ast.iter_child_nodes(scope))
        while todo:
            node = todo.pop()
            own.append(node)
            if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                todo.extend(ast.iter_child_nodes(node))
        out.append(own)
    return out


def _scalar_field_writes(tree: ast.Module) -> list[int]:
    """Lines that rebind, augment or delete an attribute ``num`` or ``den``, store into
    or mutate a ``num`` dict (read straight off ``.num`` or through a name of the same
    function bound to it), or ``setattr`` either field; ``ExactScalar.__init__`` is exempt."""
    exempt: set[ast.AST] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "ExactScalar":
            exempt |= {sub for f in node.body if isinstance(f, ast.FunctionDef) and f.name == "__init__" for sub in ast.walk(f)}

    def targets(node: ast.AST) -> list[ast.expr]:
        if isinstance(node, ast.Assign):
            return [t for target in node.targets for t in (target.elts if isinstance(target, ast.Tuple) else [target])]
        if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            return [node.target]
        return list(node.targets) if isinstance(node, ast.Delete) else []

    lines = []
    for own in _scopes(tree):
        aliases: set[str] = set()
        for node in own:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    pairs = zip(target.elts, node.value.elts) if (
                        isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                    ) else [(target, node.value)]
                    aliases |= {t.id for t, v in pairs if isinstance(t, ast.Name) and _is_num(v, set())}
        for node in own:
            if node in exempt:
                continue
            for t in targets(node):
                if isinstance(t, ast.Attribute) and t.attr in _SCALAR_FIELDS:
                    lines.append(node.lineno)
                elif isinstance(t, ast.Subscript) and _is_num(t.value, aliases):
                    lines.append(node.lineno)
            if isinstance(node, ast.Call):
                f = node.func
                if isinstance(f, ast.Attribute) and f.attr in _DICT_MUTATORS and _is_num(f.value, aliases):
                    lines.append(node.lineno)
                elif _called_name(node) == "setattr" and any(
                    isinstance(a, ast.Constant) and a.value in _SCALAR_FIELDS for a in node.args
                ):
                    lines.append(node.lineno)
    return sorted(lines)


def _is_num(node: ast.AST, aliases: set[str]) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "num") or (isinstance(node, ast.Name) and node.id in aliases)


def test_scalars_are_never_mutated():
    """No code but ``ExactScalar``'s constructor writes a scalar's ``num`` or ``den``: scalars
    share their ``num`` dicts, and the parser hands out one shared ``1``, ``Pi`` and ``i``."""
    writes = [f"{path.relative_to(ROOT)}:{line}" for path in ALL_CODE for line in _scalar_field_writes(_tree(path))]
    assert not writes, writes


def test_the_mutation_scan_sees_each_kind_of_write():
    code = """
class ExactScalar:
    def __init__(self, num, den):
        self.num = num
        self.den = den

def f(s, t):
    s.num = {}
    s.den += 1
    del t.num
    s.num[(0, 0)] = 1
    a, b = s.num, t.den
    a[(1, 0)] += 2
    del a[(0, 0)]
    t.num.update({})
    a.pop((0, 0))
    setattr(s, "den", 2)
    c = dict(s.num)
    c[(0, 0)] = 1
"""
    assert _scalar_field_writes(ast.parse(code)) == [8, 9, 10, 11, 13, 14, 15, 16, 17]
