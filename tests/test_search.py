from __future__ import annotations

from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from emckit.constructions import build_B, extremal_sizes
from emckit.core import Family, binom, enumerate_ksets, mask_of
from emckit.matching import BudgetExceeded, matching_number
from emckit.search import (
    _blocking_unions,
    _bnb_max,
    _joinable,
    find_G0,
    max_family_size,
    max_family_size as mfs,
    verify_conjecture,
)


def _has_matching(masks: list[int], t: int, forbidden_overlap: int = 0) -> bool:
    """Oracle: does the list contain t pairwise disjoint sets (avoiding the
    given bits)?  A plain DFS over the sets."""
    if t == 0:
        return True
    pool = [m for m in masks if not m & forbidden_overlap]

    def rec(idx: int, used: int, need: int) -> bool:
        if need == 0:
            return True
        if len(pool) - idx < need:
            return False
        for i in range(idx, len(pool)):
            if pool[i] & used:
                continue
            if rec(i + 1, used | pool[i], need - 1):
                return True
        return False

    return rec(0, 0, t)


def erdos_gallai_max(n: int, s: int) -> int:
    """Literature closed form for k = 2: max(C(2s+1, 2), C(s,2) + s(n-s))."""
    if n < 2 * (s + 1):
        raise ValueError("need n >= 2(s+1)")
    return max(binom(2 * s + 1, 2), binom(s, 2) + s * (n - s))


def downset_max(all_masks: list[int], s: int) -> tuple[int, int]:
    """Oracle for ``shifted_only``: a plain include-first DFS over precedence
    downsets, with no pruning of the undecided pool.

    A downset is closed under single-element decrements; the colex list is a
    linear extension, so parents are always decided before their children.
    """
    rank = {m: i for i, m in enumerate(all_masks)}
    parents = []
    for m in all_masks:
        elems = [e for e in range(1, m.bit_length() + 1) if m >> (e - 1) & 1]
        parents.append(
            [
                rank[m ^ 1 << (x - 1) | 1 << (y - 1)]
                for x in elems
                for y in range(1, x)
                if y not in elems
            ]
        )
    best_size = -1
    best_incl = 0

    def rec(idx: int, included: int, cur: list[int]):
        nonlocal best_size, best_incl
        if len(cur) > best_size:
            best_size = len(cur)
            best_incl = included
        if idx == len(all_masks):
            return
        if len(cur) + (len(all_masks) - idx) <= best_size:
            return
        m = all_masks[idx]
        can_include = all(included >> p & 1 for p in parents[idx]) and not _has_matching(
            cur, s, forbidden_overlap=m
        )
        if can_include:
            rec(idx + 1, included | (1 << idx), cur + [m])
        rec(idx + 1, included, cur)

    rec(0, 0, [])
    return best_size, best_incl


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


def test_shifted_only_matches_downset_oracle():
    # same maximum and the same colex-least witness as the unpruned DFS
    cases = 0
    for n in range(1, 11):
        for k in range(1, min(n, 3) + 1):
            if comb(n, k) > 45:
                continue
            masks = list(enumerate_ksets(n, k))
            for s in range(1, 4):
                size, incl = downset_max(masks, s)
                mx, wit = max_family_size(n, k, s, method="shifted_only")
                assert mx == size, (n, k, s)
                assert wit.members == tuple(m for i, m in enumerate(masks) if incl >> i & 1)
                cases += 1
    assert cases == 3 * 24


def test_bnb_max_respects_parents():
    # A = {1,2}, B = {3,4}, C = {2,3}; with s = 1 only intersecting families
    # qualify.  If C needs B and B needs A, the downsets are {}, {A}, {A,B}
    # and {A,B,C}, and only the first two qualify.
    masks = [0b0011, 0b1100, 0b0110]
    assert _bnb_max(masks, 1, None) == (2, 0b101)
    assert _bnb_max(masks, 1, None, [0, 0b001, 0b010]) == (1, 0b001)


@st.composite
def prune_cases(draw):
    """(s, cur, cand, pool): k-sets over [n] with n <= 9, where cur has
    matching number <= s and cand and every pooled set are feasible next to
    cur, as the branch-and-bound keeps them."""
    n = draw(st.integers(1, 9))
    k = draw(st.integers(1, min(n, 3)))
    s = draw(st.integers(1, 3))
    order = draw(st.permutations(list(enumerate_ksets(n, k))))
    cur = []
    for m in order[: draw(st.integers(0, len(order)))]:
        if not _has_matching(cur, s, forbidden_overlap=m):
            cur.append(m)
    feasible = [
        m for m in order if m not in cur and not _has_matching(cur, s, forbidden_overlap=m)
    ]
    if not feasible:
        return s, cur, None, []
    cand = draw(st.sampled_from(feasible))
    pool = draw(st.lists(st.sampled_from(feasible), unique=True).map(sorted))
    return s, cur, cand, [m for m in pool if m != cand]


@settings(max_examples=300, deadline=None)
@given(prune_cases())
# s = 1: the only union is 0, so the set {3,4}, disjoint from cand, leaves
@example((1, [0b0101], 0b0011, [0b0110, 0b1100, 0b1001]))
def test_incremental_prune_matches_matching_oracle(case):
    # after the include of cand, the prune keeps exactly the pooled sets
    # that are still feasible next to the grown family
    s, cur, cand, pool = case
    if cand is None:
        return
    unions = _blocking_unions(cur, cand, s)
    avoiding = [x for x in cur if not x & cand]
    assert unions == {
        sum(c)  # the sum of pairwise disjoint masks is their union
        for c in combinations(avoiding, s - 1)
        if all(not a & b for a, b in combinations(c, 2))
    }
    kept = _joinable(list(enumerate(pool)), 0, [0] * len(pool), cand, unions)
    grown = cur + [cand]
    assert [m for _, m in kept] == [
        m for m in pool if not _has_matching(grown, s, forbidden_overlap=m)
    ]


def test_node_counts_pinned():
    # the smallest node budget that finishes; a change here changes what a
    # --node-budget buys, so it must be deliberate
    for n, k, s, method, nodes, expected in [
        (8, 2, 3, "bnb", 38_973, 21),
        (10, 3, 2, "shifted_only", 561, 64),
    ]:
        mx, _ = max_family_size(n, k, s, method=method, node_budget=nodes)
        assert mx == expected
        with pytest.raises(BudgetExceeded):
            max_family_size(n, k, s, method=method, node_budget=nodes - 1)


def test_shifted_only_reaches_12_3_3():
    mx, wit = max_family_size(12, 3, 3, method="shifted_only", node_budget=2_500)
    assert mx == 165 == max(extremal_sizes(12, 3, 3))
    assert matching_number(wit)[0] <= 3


def test_shifted_only_reaches_three_uniform():
    # after every decision the undecided pool drops sets that can no longer
    # join: infeasible ones, and ones with a parent excluded or dropped.  The
    # search takes 561 and 733 nodes here; it needs 3 734 and 5 655 when an
    # exclude leaves the excluded set's up-set in the pool, over 50 000 without
    # the parent rule and over 300 000 without the infeasibility rule.  The
    # node budget replaces the C(n,k) cap, which refuses 120 and 165 sets.
    for n, expected in [(10, 64), (11, 81)]:
        with pytest.raises(ValueError, match="without a node budget"):
            max_family_size(n, 3, 2, method="shifted_only")
        mx, _ = max_family_size(n, 3, 2, method="shifted_only", node_budget=1_000)
        assert mx == expected == max(extremal_sizes(n, 3, 2))
    # more sets than the recursion can decide are refused up front
    with pytest.raises(ValueError, match="recursion needs"):
        max_family_size(20, 3, 2, method="bnb", node_budget=10)


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
    fam = Family(7, 1, [mask_of(7, [e]) for e in range(1, 8)])
    assert find_G0(fam, 1, 3) is None


def test_find_g0_requires_prefix():
    fam = build_B(6, 2, 2)
    with pytest.raises(ValueError):
        find_G0(fam, 2, 3)
