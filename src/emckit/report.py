"""The verdict record every check emits.

An :class:`AuditReport` keeps exact left and right sides and the comparison
between them, so its verdict can be recomputed from the record alone.  This
module imports no ``fractions``: a record with integer sides, such as the
one ``verify`` writes, loads no rational arithmetic.
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
