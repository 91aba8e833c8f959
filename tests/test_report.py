from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from emckit.report import to_json

# all of Unicode: control characters, DEL, lone surrogates, astral planes
TEXT = st.text(st.characters(exclude_categories=()))
SCALARS = st.none() | st.booleans() | st.integers(-(10**30), 10**30) | TEXT
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=20,
)


@given(VALUES)
@example([{"claim_id": "c:x", "params": {}, "witness": [], "note": "\"\\/\x7f\x00\b\f\n\r\t"}])
@example({"é": ["\ud800", "\udfff", "\U0001f600", "￿", -(10**30)]})
def test_to_json_is_json_dumps(value):
    assert to_json(value, indent=2) == json.dumps(value, indent=2)
    assert to_json(value) == json.dumps(value)


@pytest.mark.parametrize("value", [1.5, Fraction(1, 2), {1, 2}, [0, 2.0], {"a": {3}}, {1: 2}])
def test_to_json_refuses_what_a_report_does_not_hold(value):
    with pytest.raises(TypeError):
        to_json(value)
    with pytest.raises(TypeError):
        to_json(value, indent=2)
