import json

import pytest

from logcalc import catalog
from logcalc.jsonio import (
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


def test_canonical_dump_is_sorted_and_newline_terminated():
    text = canonical_dumps({"b": 1, "a": 2})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
