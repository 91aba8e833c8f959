from __future__ import annotations

import pytest

from emckit.constructions import build_B, extremal_sizes
from emckit.core import Family, KSet
from emckit.matching import BudgetExceeded, matching_number
from emckit.search import (
    erdos_gallai_max,
    find_G0,
    max_family_size,
    max_family_size as mfs,
    verify_conjecture,
)


def test_methods_agree_small():
    for (n, k, s) in [(4, 2, 1), (5, 2, 1), (6, 2, 2), (6, 3, 1)]:
        mx_e, wit_e = max_family_size(n, k, s, method="exhaustive")
        mx_b, wit_b = max_family_size(n, k, s, method="bnb")
        assert mx_e == mx_b
        assert wit_e == wit_b  # identical colex-least witnesses
        assert matching_number(wit_b)[0] <= s


def test_downset_search_matches_unrestricted():
    # compression preserves the maximum, so downsets suffice
    for (n, k, s) in [(4, 2, 1), (6, 2, 2), (6, 3, 1)]:
        assert mfs(n, k, s, method="shifted_only")[0] == mfs(n, k, s, method="bnb")[0]


def test_maximum_equals_closed_form_pair_case():
    for (n, k, s) in [(4, 2, 1), (6, 2, 2), (7, 2, 2), (8, 2, 2)]:
        mx, _ = max_family_size(n, k, s)
        assert mx == max(extremal_sizes(n, k, s))
        assert mx == erdos_gallai_max(n, s)


def test_verify_below_prefix_compares_against_all_ksets():
    # n < (s+1)k - 1: every k-set is allowed and the prefix family is all of
    # them; with s >= n the star family is all of them too
    for n, k, s, total in [(4, 2, 2, 6), (3, 2, 5, 3)]:
        for method in ("bnb", "exhaustive"):
            r = verify_conjecture(n, k, s, method=method)
            assert r.passed
            assert r.lhs == r.rhs == total


def test_erdos_gallai_guard():
    with pytest.raises(ValueError):
        erdos_gallai_max(5, 2)


def test_witness_is_valid_family():
    mx, wit = max_family_size(6, 2, 2)
    assert len(wit) == mx
    assert wit.k == 2 and wit.n == 6


def test_caps_and_method_validation():
    with pytest.raises(ValueError):
        max_family_size(30, 3, 2, method="exhaustive")
    with pytest.raises(ValueError):
        max_family_size(30, 3, 2, method="bnb")
    with pytest.raises(ValueError):
        max_family_size(6, 2, 2, method="annealing")
    with pytest.raises(ValueError):
        max_family_size(2, 3, 1)


def test_node_budget_raises():
    with pytest.raises(BudgetExceeded):
        max_family_size(8, 2, 2, method="bnb", node_budget=5)


def test_verify_conjecture_report():
    r = verify_conjecture(6, 2, 2)
    assert r.passed
    assert r.claim_id == "conjecture:extremal_bound"
    assert r.lhs == r.rhs == 10
    assert r.witness is None


def test_find_g0_on_star_family():
    fam = build_B(9, 2, 3)
    g0 = find_G0(fam, 2, 3)
    assert g0 is not None
    assert g0.size == 1
    # colex-least admissible candidate: the first non-trace singleton
    assert g0.elements == (4,)


def test_find_g0_none_when_everything_traced():
    # k = 1: the only candidate is the empty set, and it is a trace member
    # as soon as some member lies entirely beyond the prefix
    fam = Family(7, 1, [KSet.from_elements(7, [e]) for e in range(1, 8)])
    assert find_G0(fam, 1, 3) is None


def test_find_g0_requires_prefix():
    fam = build_B(6, 2, 2)
    with pytest.raises(ValueError):
        find_G0(fam, 2, 3)
