from __future__ import annotations

import re
from itertools import combinations
from math import comb
from typing import Collection, Optional

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from emckit.constructions import build_B, extremal_sizes
from emckit.core import Family, binom, enumerate_ksets, mask_of
from emckit.matching import BudgetExceeded, _disjointness, matching_number
from emckit.shifting import _decrements
from emckit import search
from emckit.search import (
    _bnb_max,
    _clique_cover,
    _disjoint_tuples,
    _include,
    _matching_count,
    _swap_pairs,
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


def _blocking_unions(cur: list[int], cand: int, s: int) -> set[int]:
    """Distinct unions of the (s-1)-matchings of ``cur`` that avoid ``cand``.

    Built level by level, so the work is bounded by the number of distinct
    unions times |cur|, not by the number of matchings.
    """
    pool = [x for x in cur if not x & cand]
    level = {0}
    for _ in range(s - 1):
        level = {u | x for u in level for x in pool if not u & x}
    return level


def _joinable(
    rest: list[tuple[int, int]],
    alive: int,
    parents: list[int],
    cand: int = 0,
    unions: Collection[int] = (),
) -> list[tuple[int, int]]:
    """The sets of ``rest`` that can still join, in one forward pass.

    Parents precede children in ``rest``, so a set whose parent was dropped
    earlier in the pass is dropped too.  After the include of ``cand``, a set
    disjoint from it and from one of the ``unions`` of
    :func:`_blocking_unions` would close an (s+1)-matching, so it is dropped.
    """
    kept = []
    for j, m in rest:
        if parents[j] & ~alive:
            continue
        if not m & cand and any(not m & u for u in unions):
            continue
        kept.append((j, m))
        alive |= 1 << j
    return kept


def list_pool_bnb_max(
    all_masks: list[int],
    s: int,
    node_budget: Optional[int],
    parents: Optional[list[int]] = None,
) -> tuple[int, int]:
    """Oracle for ``_bnb_max``: the same branch-and-bound with the undecided
    pool as a list and no bound beyond ``len(cur) + len(undecided)``.

    ``parents[i]`` is a bitmask over list positions of the sets that must be
    included before set i (none when omitted); the list order must decide
    every parent before its child.  Include-first DFS makes the first
    maximizer found the colex-least one.  After every decision, sets that can
    no longer join the current branch -- infeasible next to it, or with a
    parent excluded or dropped -- leave the undecided pool, which tightens
    the size bound.

    Invariant: no pooled set has a parent excluded or dropped, and every
    pooled set is feasible next to the current members (adding it keeps the
    matching number <= s).  So the head of the pool, whose parents are all
    decided, can always be included without a test.  After the include of
    ``cand``, any new (s+1)-matching uses ``cand``, so a pooled set m becomes
    infeasible iff m misses ``cand`` and some (s-1)-matching of the current
    members that avoids ``cand``.  The prune tests exactly that, against the
    distinct unions of those matchings, computed once per include.
    """
    if parents is None:
        parents = [0] * len(all_masks)
    is_parent = 0
    for p in parents:
        is_parent |= p
    best_size = -1
    best_incl = 0
    nodes = 0

    def rec(undecided: list[tuple[int, int]], cur: list[int], incl: int):
        nonlocal best_size, best_incl, nodes
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            raise BudgetExceeded(f"max_family_size: node budget {node_budget} exhausted")
        if len(cur) > best_size:
            best_size = len(cur)
            best_incl = incl
        if not undecided or len(cur) + len(undecided) <= best_size:
            return
        i, cand = undecided[0]
        rest = undecided[1:]
        added = incl | 1 << i
        unions = _blocking_unions(cur, cand, s)
        rec(_joinable(rest, added, parents, cand, unions), cur + [cand], added)
        # excluding a set that is nobody's parent orphans nothing
        rec(_joinable(rest, incl, parents) if is_parent >> i & 1 else rest, cur, incl)

    rec(list(enumerate(all_masks)), [], 0)
    return best_size, best_incl


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


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 0b111111), max_size=12), st.integers(0, 4))
@example([0b11, 0b11, 0, 0b1100, 0b110], 2)
def test_disjoint_tuples_matches_combinations(masks, t):
    def pairwise_disjoint(combo):
        seen = 0
        for j in combo:
            if seen & masks[j]:
                return False
            seen |= masks[j]
        return True

    expected = [
        sum(1 << j for j in combo)
        for combo in combinations(range(len(masks)), t)
        if pairwise_disjoint(combo)
    ]
    assert _disjoint_tuples(_disjointness(masks), t) == expected


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


def _positions(bits: int) -> list[int]:
    return [j for j in range(bits.bit_length()) if bits >> j & 1]


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
    grown = cur + [cand]
    feasible = [m for m in pool if not _has_matching(grown, s, forbidden_overlap=m)]
    unions = _blocking_unions(cur, cand, s)
    avoiding = [x for x in cur if not x & cand]
    assert unions == {
        sum(c)  # the sum of pairwise disjoint masks is their union
        for c in combinations(avoiding, s - 1)
        if all(not a & b for a, b in combinations(c, 2))
    }
    kept = _joinable(list(enumerate(pool)), 0, [0] * len(pool), cand, unions)
    assert [m for _, m in kept] == feasible
    # the bitset prune of the package: positions 0.. hold cur, then cand,
    # then the pool
    masks = grown + pool
    c = len(cur)
    pool_bits = (1 << len(masks)) - (1 << c + 1)
    kept_bits, _ = _include(c, (1 << c) - 1, pool_bits, [0] * len(masks), s, masks, _disjointness(masks))
    assert [masks[j] for j in _positions(kept_bits)] == feasible


@st.composite
def bound_cases(draw):
    """(s, masks, cur, sub): all k-sets over [n] with n <= 9, the positions
    of members with matching number <= s in the order they join, and at
    most ten positions of sets feasible next to them."""
    n = draw(st.integers(1, 9))
    k = draw(st.integers(1, min(n, 3)))
    s = draw(st.integers(1, 3))
    masks = list(enumerate_ksets(n, k))
    order = draw(st.permutations(range(len(masks))))
    cur = []
    for j in order[: draw(st.integers(0, len(order)))]:
        if not _has_matching([masks[i] for i in cur], s, forbidden_overlap=masks[j]):
            cur.append(j)
    members = [masks[i] for i in cur]
    feasible = [
        j
        for j in range(len(masks))
        if j not in cur and not _has_matching(members, s, forbidden_overlap=masks[j])
    ]
    sub = draw(st.lists(st.sampled_from(feasible), unique=True, max_size=10)) if feasible else []
    return s, masks, cur, sub


@settings(max_examples=200, deadline=None)
@given(bound_cases())
# s = 2 with one member {1,2}: {3,4} and {5,6} conflict, {3,4} and {3,5} do not
@example((2, [0b11, 0b1100, 0b10100, 0b110000], [0], [1, 2, 3]))
def test_clique_cover_bounds_joinable_sets(case):
    # grow the pool and the conflicts as the branch-and-bound does, one
    # include at a time from the empty family
    s, masks, cur, sub = case
    disj = _disjointness(masks)
    incl, pool = 0, (1 << len(masks)) - 1
    conf = disj if s == 1 else [0] * len(masks)
    for c in cur:
        assert pool >> c & 1
        pool, conf = _include(c, incl, pool & ~(1 << c), conf, s, masks, disj)
        incl |= 1 << c
    members = [masks[c] for c in cur]
    # the pool is exactly the feasible sets
    assert _positions(pool) == [
        j
        for j in range(len(masks))
        if j not in cur and not _has_matching(members, s, forbidden_overlap=masks[j])
    ]
    # X and Y conflict iff disjoint and some (s-1)-matching of cur avoids both
    for x in _positions(pool):
        assert _positions(conf[x] & pool) == [
            y
            for y in _positions(pool)
            if not masks[x] & masks[y]
            and _has_matching(members, s - 1, forbidden_overlap=masks[x] | masks[y])
        ]
    # at most one set per clique can join, so the cover bounds the largest
    # subset of the pool that keeps the matching number <= s
    most = max(
        r
        for r in range(len(sub) + 1)
        for chosen in combinations([masks[j] for j in sub], r)
        if not _has_matching(members + list(chosen), s + 1)
    )
    sub_bits = sum(1 << j for j in sub)
    cliques = _clique_cover(sub_bits, conf, len(sub))
    assert cliques >= most
    # counting stops once it passes the limit
    for limit in range(cliques + 1):
        assert _clique_cover(sub_bits, conf, limit) == min(cliques, limit + 1)


BNB_GRID = [(n, k) for n in range(1, 11) for k in range(1, min(n, 4) + 1) if comb(n, k) <= 45]


@st.composite
def bnb_cases(draw):
    """(masks, s, parents): k-sets over [n] in colex order with n <= 10,
    k <= 4 and C(n,k) <= 45, all of them or a random part, with no parents,
    the single-element decrements, or random earlier sets as parents."""
    n, k = draw(st.sampled_from(BNB_GRID))
    s = draw(st.integers(1, 4))
    masks = list(enumerate_ksets(n, k))
    if draw(st.booleans()):
        masks = [m for m in masks if draw(st.integers(0, 3))]
    kind = draw(st.sampled_from(["none", "decrements", "random"]))
    if kind == "none":
        return masks, s, None
    if kind == "decrements":
        # the largest downset inside the drawn sets; colex order lists every
        # decrement before the set
        rank: dict[int, int] = {}
        for m in masks:
            if all(p in rank for p in _decrements(m)):
                rank[m] = len(rank)
        parents = [sum(1 << rank[p] for p in _decrements(m)) for m in rank]
        return list(rank), s, parents
    parents = [
        sum(1 << p for p in draw(st.lists(st.integers(0, i - 1), max_size=2, unique=True))) if i else 0
        for i in range(len(masks))
    ]
    return masks, s, parents


@settings(max_examples=150, deadline=None)
@given(bnb_cases())
@example((list(enumerate_ksets(8, 2)), 3, None))
def test_bnb_max_matches_list_pool_oracle(case):
    # same maximum and same colex-least witness as the list-pool search
    masks, s, parents = case
    try:
        expected = list_pool_bnb_max(masks, s, 20_000, parents)
    except BudgetExceeded:
        assume(False)  # the oracle alone would take seconds
    assert _bnb_max(masks, s, None, parents) == expected


@pytest.mark.parametrize("n,k", BNB_GRID)
def test_swap_pairs(n, k):
    # every set holding a but not a+1 is paired once, with its image, in
    # colex order
    masks = list(enumerate_ksets(n, k))
    pairs = _swap_pairs(n, masks)
    assert len(pairs) == n - 1
    for e, at_a in enumerate(pairs):
        assert [p for p, _ in at_a] == sorted(
            p for p, m in enumerate(masks) if m >> e & 1 and not m >> e + 1 & 1
        )
        for p, q in at_a:
            assert p < q and masks[p] ^ masks[q] == 3 << e


@pytest.mark.parametrize("n,k", BNB_GRID)
def test_swap_cut_matches_search_without_it(n, k):
    # the lex-leader cut keeps the maximum and the colex-least witness
    masks = list(enumerate_ksets(n, k))
    swaps = _swap_pairs(n, masks)
    for s in range(1, 5):
        assert _bnb_max(masks, s, None, swaps=swaps) == _bnb_max(masks, s, None), s


def test_node_counts_without_clique_bound(monkeypatch):
    # with a cover that never prunes and no swap cut, the bitset pool takes
    # exactly the decisions of the list pool it replaced
    monkeypatch.setattr(search, "_clique_cover", lambda pool, conf, limit: limit + 1)
    monkeypatch.setattr(search, "_swap_pairs", lambda n, all_masks: [])
    for n, k, s, method, nodes, expected in [
        (8, 2, 3, "bnb", 38_973, 21),
        (8, 3, 1, "bnb", 12_473, 21),
        (10, 3, 2, "shifted_only", 561, 64),
    ]:
        mx, _ = max_family_size(n, k, s, method=method, node_budget=nodes)
        assert mx == expected
        with pytest.raises(BudgetExceeded):
            max_family_size(n, k, s, method=method, node_budget=nodes - 1)


def test_node_counts_pinned():
    # the smallest node budget that finishes; a change here changes what a
    # --node-budget buys, so it must be deliberate
    for n, k, s, method, nodes, expected in [
        (8, 2, 3, "bnb", 203, 21),
        (8, 3, 1, "bnb", 195, 21),  # s = 1: every disjoint pair conflicts
        (9, 2, 3, "bnb", 849, 21),
        (10, 3, 2, "shifted_only", 299, 64),
        (20, 3, 2, "shifted_only", 3_003, 324),  # C(20,3) = 1 140 sets deep
        # k = 1: s + 1 singletons are disjoint, so after s includes each of
        # the s pending excludes is cut (311 nodes at (80,1,3) without that)
        (80, 1, 3, "bnb", 7, 3),
        (4096, 1, 2, "bnb", 5, 2),  # C(4096,1) is the bitset ceiling
        (5, 1, 8, "bnb", 11, 5),  # fewer singletons than s: all of them
    ]:
        mx, _ = max_family_size(n, k, s, method=method, node_budget=nodes)
        assert mx == expected
        with pytest.raises(BudgetExceeded):
            max_family_size(n, k, s, method=method, node_budget=nodes - 1)


def test_clique_bound_reach():
    # 849 and 1 037 nodes; without the clique-cover bound `bnb` (9,2,3)
    # takes 5 377 (27 641 with the bound but no swap cut, 847 691 with
    # neither) and `shifted_only` (12,4,2) 291 365
    for n, k, s, method, nodes, expected in [
        (9, 2, 3, "bnb", 30_000, 21),
        (12, 4, 2, "shifted_only", 2_000, 330),
    ]:
        mx, wit = max_family_size(n, k, s, method=method, node_budget=nodes)
        assert mx == expected == max(extremal_sizes(n, k, s))
        assert matching_number(wit)[0] <= s


def test_swap_cut_reach():
    # 21 507 nodes with the lex-leader swap cut, past the k-set lists of
    # the oracle grid
    mx, wit = max_family_size(9, 3, 2, method="bnb", node_budget=22_000)
    assert mx == 56 == max(extremal_sizes(9, 3, 2))
    assert matching_number(wit)[0] <= 2


def test_shifted_only_reaches_12_3_3():
    mx, wit = max_family_size(12, 3, 3, method="shifted_only", node_budget=2_500)
    assert mx == 165 == max(extremal_sizes(12, 3, 3))
    assert matching_number(wit)[0] <= 3


def test_shifted_only_reaches_three_uniform():
    # after every decision the undecided pool drops sets that can no longer
    # join: infeasible ones, and ones with a parent excluded or dropped.  The
    # search takes 299 and 461 nodes here, and 561 and 733 without the
    # clique-cover bound.  Without that bound it needs 3 734 and 5 655 when
    # an exclude leaves the excluded set's up-set in the pool, over 50 000
    # without the parent rule and over 300 000 without the infeasibility
    # rule.  The node budget replaces the C(n,k) cap, which refuses 120 and
    # 165 sets.
    for n, expected in [(10, 64), (11, 81)]:
        with pytest.raises(ValueError, match="without a node budget"):
            max_family_size(n, 3, 2, method="shifted_only")
        mx, _ = max_family_size(n, 3, 2, method="shifted_only", node_budget=1_000)
        assert mx == expected == max(extremal_sizes(n, 3, 2))
    # more sets than the pool bitsets cover are refused up front, budget or not
    with pytest.raises(ValueError, match="with any budget"):
        max_family_size(30, 4, 2, method="bnb", node_budget=10)


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


def test_size_gates_checked_before_enumeration(monkeypatch):
    def refuse(n, k):
        raise AssertionError("k-sets enumerated before the size gates")

    monkeypatch.setattr(search, "enumerate_ksets", refuse)
    for n, k, method, budget, message in [
        (60, 5, "exhaustive", None, "exhaustive search needs C(n,k) <= 24, got 5461512"),
        # 2^16 subfamilies against 560 forbidden triples of singletons
        (16, 1, "exhaustive", None, "(number of (s+1)-matchings + 1) <= 2^24, got 2^16 * 561"),
        (60, 5, "bnb", None, "branch-and-bound needs C(n,k) <= 60 without a node budget"),
        (60, 5, "shifted_only", 10, "downset search needs C(n,k) <= 4096 with any budget, got 5461512"),
        (100, 5, "annealing", None, "unknown method 'annealing'"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            max_family_size(n, k, 2, method=method, node_budget=budget)


@pytest.mark.parametrize("n,k", [(6, 1), (6, 2), (7, 2), (8, 2), (7, 3), (9, 3), (8, 4)])
def test_matching_count_closed_form(n, k):
    masks = list(enumerate_ksets(n, k))
    disj = _disjointness(masks)
    for r in range(1, n // k + 2):
        assert _matching_count(n, k, r) == len(_disjoint_tuples(disj, r)), r


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
