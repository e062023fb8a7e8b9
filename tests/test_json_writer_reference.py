"""The one canonical JSON writer against ``json.dumps(v, indent=2, sort_keys=True)``.

Reports, data files and `solve fusion --format json` print through
:func:`logcalc.reports.canonical_json`.  On every JSON value built of dicts
with str keys, lists, strs, ints, bools and None its text must be the
standard library's, byte for byte; any other type raises TypeError.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logcalc.reports import canonical_json

SPECIAL = '"\\/\n\r\t\x00\x1f\x7f\x80é€ \U0001f600'
text = st.text(st.sampled_from(SPECIAL) | st.characters(), max_size=6)
leaves = (
    st.none()
    | st.booleans()
    | st.integers(-(10**6), 10**6)
    | st.integers(-(10**80), 10**80)
    | text
)
values = st.recursive(
    leaves, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(text, inner, max_size=4), max_leaves=40
)


def reference(v) -> str:
    return json.dumps(v, indent=2, sort_keys=True)


@settings(max_examples=500, deadline=None)
@given(values)
@example({})
@example([])
@example({"": [], "a": {}, "b": [{}, [[]]], "é": {"k": [None, True, False, -0, 2**200]}})
def test_writer_matches_json_dumps(v):
    assert canonical_json(v) == reference(v)


@pytest.mark.parametrize(
    "v", [1.5, (1, 2), [0.0], {"a": (1,)}, {1: "x"}, {"a": Fraction(1, 2)}, b"x", {"a"}], ids=repr
)
def test_other_types_raise_type_error(v):
    with pytest.raises(TypeError):
        canonical_json(v)
