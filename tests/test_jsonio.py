import copy
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logcalc import catalog
from logcalc.intertwiner import IntertwinerTable
from logcalc.jsonio import (
    MAX_LOG_POWER,
    SchemaError,
    canonical_dumps,
    dump_object,
    load_text,
    module_from_json,
    module_to_json,
    table_from_json,
    table_to_json,
    vertex_from_json,
    vertex_to_json,
)


class TestModuleFiles:
    def test_roundtrip_byte_identity(self, jordan2, irreducible3):
        for mod in (jordan2, irreducible3, catalog.seeded_semisimple_module("IO", 4)):
            text = dump_object(mod)
            back = load_text(text)
            assert dump_object(back) == text

    def test_loader_runs_validation(self):
        mod = catalog.jordan_module("B", 0, size=2)
        data = module_to_json(mod)
        data["L0"][0][1] = "1"
        data["L0"][1][0] = "1"  # now mixes with a non-nilpotent part
        data["weights"] = ["0", "1"]
        with pytest.raises(SchemaError) as err:
            module_from_json(data)
        assert "nilpotent-part" in str(err.value) or "weight-shift" in str(err.value)

    def test_bad_scalar_pointer(self):
        mod = catalog.trivial_module("P")
        data = module_to_json(mod)
        data["L0"][0][0] = "1//"
        with pytest.raises(SchemaError) as err:
            module_from_json(data)
        assert "/L0/0/0" in str(err.value)

    def test_malformed_json_is_a_schema_error(self):
        with pytest.raises(SchemaError) as err:
            load_text('{"format": ')
        assert err.value.pointer == "/" and "line 1 column 12" in str(err.value)

    def test_missing_schema_rejected(self):
        with pytest.raises(SchemaError):
            load_text(json.dumps({"kind": "module"}))


class TestTableFiles:
    def test_roundtrip(self, jordan_tables, honest_table):
        for t in (*jordan_tables, honest_table):
            text = dump_object(t)
            back = load_text(text)
            assert dump_object(back) == text
            assert back == t

    def test_log_power_budget(self, honest_table):
        data = table_to_json(honest_table)
        data["modes"][0]["k"] = MAX_LOG_POWER
        assert table_from_json(data).max_log_power() == MAX_LOG_POWER
        data["modes"][0]["k"] = MAX_LOG_POWER + 1
        with pytest.raises(SchemaError, match=f"k <= {MAX_LOG_POWER}") as err:
            table_from_json(data)
        assert err.value.pointer == "/modes/0/k"

    def test_mode_index_guard(self, honest_table):
        data = table_to_json(honest_table)
        data["modes"][0]["i"] = 99
        with pytest.raises(SchemaError) as err:
            table_from_json(data)
        assert "/modes/0/i" in str(err.value)


class TestVertexFiles:
    def test_roundtrip(self, epsilon_pair):
        _, vt = epsilon_pair
        text = dump_object(vt)
        back = load_text(text)
        assert dump_object(back) == text

    def test_slot_guard(self, epsilon_pair):
        _, vt = epsilon_pair
        data = vertex_to_json(vt)
        data["modes"][0]["slot"] = 7
        with pytest.raises(SchemaError) as err:
            vertex_from_json(data)
        assert "slot" in str(err.value)

    def test_matrix_shape_guard(self, epsilon_pair):
        _, vt = epsilon_pair
        data = vertex_to_json(vt)
        data["modes"][0]["matrix"] = [["1"]]
        with pytest.raises(SchemaError) as err:
            load_text(canonical_dumps(data))
        assert err.value.pointer == "/modes/0/matrix"


class TestIntegerFields:
    """JSON's true and false are not integers, and a mode key appears once."""

    @pytest.mark.parametrize(
        "kind, edit, pointer",
        [
            ("table", lambda d: d["modes"][0].update(i=False), "/modes/0/i"),
            ("table", lambda d: d["modes"][0].update(j=False), "/modes/0/j"),
            ("table", lambda d: d["modes"][0].update(k=True), "/modes/0/k"),
            ("vertex", lambda d: d["modes"][0].update(slot=True), "/modes/0/slot"),
            ("vertex", lambda d: d["modes"][0].update(v=False), "/modes/0/v"),
            ("vertex", lambda d: d["modes"][0].update(n=False), "/modes/0/n"),
            ("module", lambda d: d.update(dim=True), "/dim"),
            ("module", lambda d: d.update(dim=1.0), "/dim"),
            ("module", lambda d: d["group"].update(free_rank=False), "/group/free_rank"),
            ("module", lambda d: d["group"].update(torsion=[True]), "/group/torsion"),
            ("module", lambda d: d.update(group={"free_rank": 1}, degrees=[[True]]), "/degrees/0"),
        ],
        ids=["i", "j", "k", "slot", "v", "n", "dim", "dim-float", "free_rank", "torsion", "degrees"],
    )
    def test_integer_fields_take_only_integers(self, kind, edit, pointer, honest_table, epsilon_pair):
        doc = {
            "module": module_to_json(catalog.trivial_module("P")),
            "table": table_to_json(honest_table),
            "vertex": vertex_to_json(epsilon_pair[1]),
        }[kind]
        edit(doc)
        with pytest.raises(SchemaError) as err:
            load_text(json.dumps(doc))
        assert err.value.pointer == pointer

    def test_repeated_table_mode_is_rejected(self, honest_table):
        data = table_to_json(honest_table)
        first = copy.deepcopy(data["modes"][0])
        first["value"] = ["0"] * len(first["value"])  # same key, another value
        data["modes"].append(first)
        with pytest.raises(SchemaError, match="repeats the") as err:
            table_from_json(data)
        assert err.value.pointer == f"/modes/{len(data['modes']) - 1}"

    def test_repeated_exponent_spelling_is_the_same_key(self, honest_table):
        data = table_to_json(honest_table)
        again = copy.deepcopy(data["modes"][0])
        assert again["n"] == "-2"
        again["n"] = "-4/2"
        data["modes"].insert(1, again)
        with pytest.raises(SchemaError) as err:
            table_from_json(data)
        assert err.value.pointer == "/modes/1"

    def test_repeated_vertex_mode_is_rejected(self, epsilon_pair):
        data = vertex_to_json(epsilon_pair[1])
        data["modes"].insert(2, copy.deepcopy(data["modes"][0]))
        with pytest.raises(SchemaError, match="repeats the") as err:
            vertex_from_json(data)
        assert err.value.pointer == "/modes/2"


def test_canonical_dump_is_sorted_and_newline_terminated():
    text = canonical_dumps({"b": 1, "a": 2})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')


# values that a mutation puts in place of a node of a valid document
HOSTILE_VALUES = (None, True, 0, 1, -1, 7, 10**30, 2.5, "", "x", "1/0", "1/2", [], [0], [[]], [["1"]], {}, {"k": 1})


def mutate(doc, rng: random.Random):
    """One random edit at a random node of a JSON document: replace it with a
    hostile value, delete it, wrap it in an array or object, or duplicate it."""
    path = []
    node = doc
    while isinstance(node, (dict, list)) and node and rng.random() < 0.85:
        key = rng.choice(sorted(node) if isinstance(node, dict) else range(len(node)))
        path.append((node, key))
        node = node[key]
    if not path:
        return copy.deepcopy(rng.choice(HOSTILE_VALUES))
    parent, key = path[-1]
    op = rng.randrange(4)
    if op == 0:
        parent[key] = copy.deepcopy(rng.choice(HOSTILE_VALUES))
    elif op == 1:
        del parent[key]
    elif op == 2:
        parent[key] = rng.choice(([node], {"k": node}))
    elif isinstance(parent, list):
        parent.insert(key, copy.deepcopy(node))
    else:
        parent[key + "_"] = copy.deepcopy(node)
    return doc


def valid_documents() -> list[dict]:
    from logcalc.checks import epsilon_instance

    v = catalog.trivial_module("V")
    w = catalog.jordan_module("W", 0, size=2, blocks=1)
    table = IntertwinerTable(v, w, w, {(0, j, 0, 0): w.basis_vector(j) for j in range(2)})
    return [
        module_to_json(catalog.sl2_irreducible("U", 2)),
        module_to_json(w),
        table_to_json(table),
        vertex_to_json(epsilon_instance()[1]),
    ]


class TestHostileDocuments:
    DOCUMENTS = valid_documents()

    @given(seed=st.integers(0, 2**32), edits=st.integers(1, 3))
    @settings(max_examples=300, deadline=None)
    def test_mutations_raise_only_schema_errors_with_a_pointer(self, seed, edits):
        rng = random.Random(seed)
        doc = copy.deepcopy(rng.choice(self.DOCUMENTS))
        for _ in range(edits):
            doc = mutate(doc, rng)
        try:
            load_text(json.dumps(doc))
        except SchemaError as exc:
            assert exc.pointer.startswith("/") and str(exc).endswith(f"(at {exc.pointer})")

    @pytest.mark.parametrize(
        "edit, pointer",
        [
            (lambda d: d.update(modes=1), "/modes"),
            (lambda d: d.update(kind=["intertwiner"]), "/kind"),
            (lambda d: d["type"]["w3"]["L0"][1].pop(), "/type/w3/L0/1"),
            (lambda d: d["type"]["w2"].update(Lm1=[["0"]]), "/type/w2"),
            (lambda d: d["type"]["w2"].update(degrees=[[0]]), "/type/w2"),
            (lambda d: d["type"]["w1"].update(group=[]), "/type/w1/group"),
            (lambda d: d["type"]["w1"]["group"].update(torsion=[1]), "/type/w1"),
            (lambda d: d["type"]["w1"]["group"].update(free_rank=10**9), "/type/w1/group/free_rank"),
        ],
    )
    def test_constructor_errors_name_the_object(self, edit, pointer):
        doc = copy.deepcopy(self.DOCUMENTS[2])
        edit(doc)
        with pytest.raises(SchemaError) as err:
            load_text(json.dumps(doc))
        assert err.value.pointer == pointer

    def test_deep_nesting_is_a_schema_error(self):
        with pytest.raises(SchemaError):
            load_text("[" * 100_000 + "]" * 100_000)
