"""The verdict record every check emits.

An :class:`AuditReport` keeps exact left and right sides and the comparison
between them, so its verdict can be recomputed from the record alone.  This
module imports no ``fractions``: a record with integer sides, such as the
one ``verify`` writes, loads no rational arithmetic.

:func:`to_json` writes the JSON text of a report: the same bytes as
``json.dumps`` with its default ``ensure_ascii``, without loading ``json``.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .core import ExactScalar

_CMP = {
    "<=": lambda a, b: a <= b,
    "<": lambda a, b: a < b,
    "==": lambda a, b: a == b,
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
}


class AuditReport(NamedTuple):
    claim_id: str
    params: dict
    lhs: ExactScalar
    rhs: ExactScalar
    cmp: str
    passed: bool
    witness: Optional[tuple] = None
    note: str = ""

    def recheck(self) -> bool:
        """Recompute the verdict from lhs/rhs/cmp alone."""
        return _CMP[self.cmp](self.lhs, self.rhs)


def make_report(claim_id, params, lhs, rhs, cmp, witness=None, note="") -> AuditReport:
    passed = _CMP[cmp](lhs, rhs)
    return AuditReport(claim_id, dict(params), lhs, rhs, cmp, passed, witness, note)


_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t", "\b": "\\b",
            "\f": "\\f"}


def _escape(ch: str) -> str:
    code = ord(ch)
    if code > 0xFFFF:  # a UTF-16 surrogate pair
        code -= 0x10000
        return f"\\u{0xD800 | code >> 10:04x}\\u{0xDC00 | code & 0x3FF:04x}"
    return _ESCAPES.get(ch) or f"\\u{code:04x}"


def _quote(text: str) -> str:
    body = "".join(ch if " " <= ch <= "~" and ch not in '"\\' else _escape(ch) for ch in text)
    return f'"{body}"'


def _json(value, step: Optional[str], pad: str) -> str:
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = pad if step is None else pad + step
    if isinstance(value, dict):
        if not value:
            return "{}"
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, not {type(key).__name__}")
        items = [f"{_quote(key)}: {_json(item, step, inner)}" for key, item in value.items()]
        opening, closing = "{", "}"
    elif isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_json(item, step, inner) for item in value]
        opening, closing = "[", "]"
    else:
        raise TypeError(f"cannot write {type(value).__name__} to a report")
    if step is None:
        return opening + ", ".join(items) + closing
    return f"{opening}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{closing}"


def to_json(value, indent: Optional[int] = None) -> str:
    """``json.dumps(value, indent=indent)`` for what a report holds: dicts
    with ``str`` keys, lists, tuples, ``str``, ``int``, ``bool`` and ``None``.

    Anything else, a float, a ``Fraction`` or a set among them, raises
    ``TypeError``, so no inexact value reaches a report.
    """
    return _json(value, None if indent is None else " " * indent, "")
