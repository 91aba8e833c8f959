"""The record classes: immutable, positional and keyword construction in a
fixed field order, value equality, and pickling (``--jobs`` ships reports
between processes)."""

from __future__ import annotations

import pickle
from fractions import Fraction

import pytest

from emckit.audit import AuditReport
from emckit.core import KSet
from emckit.matching import MatchingCertificate
from emckit.transversals import BadPairStats, CyclicShift, ShapeProfile, Transversal

RECORDS = [
    (MatchingCertificate, ("sets",), ((KSet(4, 0b0011), KSet(4, 0b1100)),)),
    (
        AuditReport,
        ("claim_id", "params", "lhs", "rhs", "cmp", "passed", "witness", "note"),
        ("c:x", {"k": 5}, Fraction(1, 2), 1, "<=", True, (1, 2), "envelope"),
    ),
    (CyclicShift, ("base", "offset"), ((2, 5, 9), 1)),
    (Transversal, ("set", "kind", "profile", "weight"), (KSet(6, 0b101), "full", (0, 1, 1), Fraction(1, 3))),
    (
        BadPairStats,
        ("per_t", "per_mask_max", "per_mask_bound", "num_t", "num_bad_masks", "doubling_ok"),
        (36, 9, Fraction(24), 120, 480, True),
    ),
    (ShapeProfile, ("a0", "a", "mus"), (1, (2, 1), (1, 1, 2))),
]


@pytest.mark.parametrize("cls,fields,values", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_class(cls, fields, values):
    rec = cls(*values)
    assert rec == cls(**dict(zip(fields, values)))
    assert [getattr(rec, f) for f in fields] == list(values)
    assert pickle.loads(pickle.dumps(rec)) == rec
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(rec, f, None)


def test_record_defaults():
    t = Transversal(KSet(6, 0b101), "full", (0, 1, 1))
    assert t.weight == 1 and isinstance(t.weight, Fraction)
    r = AuditReport("c:x", {}, 1, 2, "<", True)
    assert (r.witness, r.note) == (None, "")


def test_shape_profile_p_and_shift_apply():
    assert ShapeProfile(1, (2, 1), (1, 1, 2)).p == 3
    assert CyclicShift(base=(2, 5, 9), offset=2).apply(5) == 2
    with pytest.raises(ValueError, match=r"offset outside \[0, len\(base\)\)"):
        CyclicShift(base=(1, 2), offset=-1)
