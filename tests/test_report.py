from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from emckit.exact import Rational
from emckit.report import make_report, to_json, to_json_items

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


@given(st.lists(VALUES, max_size=5))
@example([])
@example([{}, [], ""])
def test_to_json_items_pieces_join_to_to_json(items):
    for indent in (None, 2):
        pieces = list(to_json_items(iter(items), indent))
        assert "".join(pieces) == to_json(items, indent=indent)
        assert len(pieces) == max(len(items), 1) + bool(items)  # one per item, and the close


@pytest.mark.parametrize("value", [1.5, Fraction(1, 2), {1, 2}, [0, 2.0], {"a": {3}}, {1: 2}])
def test_to_json_refuses_what_a_report_does_not_hold(value):
    with pytest.raises(TypeError):
        to_json(value)
    with pytest.raises(TypeError):
        to_json(value, indent=2)


# strings on both sides of the no-escape fast path: printable ASCII with no
# quote or backslash is copied; everything else is escaped character by character
@pytest.mark.parametrize(
    "text",
    ["", "claim3:count_bound", " !#$%&'()*+,-./09:;<=>?@AZ[]^_`az{|}~", 'a "quote"', "back\\slash",
     "tab\there", "del\x7f", "line\nbreak", "\x00", "naïve", "\u2028", "\U0001f600", "\ud800"],
)
def test_to_json_quotes_strings_as_json_dumps(text):
    value = {text: [text, {"note": text}]}
    assert to_json(text) == json.dumps(text)
    assert to_json(value) == json.dumps(value)
    assert to_json(value, indent=2) == json.dumps(value, indent=2)


@pytest.mark.parametrize("side", [0.5, 1.0, float("nan"), complex(1, 0), "1/2", None, [1]])
def test_make_report_refuses_a_side_that_is_not_exact(side):
    with pytest.raises(TypeError):
        make_report("x", {}, side, 1, "<=")
    with pytest.raises(TypeError):
        make_report("x", {}, 1, side, ">=")


@pytest.mark.parametrize("side", [0, -3, True, Rational(1, 2), Fraction(-7, 3), 10**30])
def test_make_report_takes_ints_and_exact_rationals(side):
    report = make_report("x", {}, side, side, "==")
    assert report.passed and report.recheck()
