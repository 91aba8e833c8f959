from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from emckit.core import Family, KSet, enumerate_ksets, mask_of
from emckit.matching import DEFAULT_NODE_BUDGET, BudgetExceeded, MatchingCertificate, matching_number

ROOT = Path(__file__).resolve().parents[1]


def is_pairwise_disjoint(sets) -> bool:
    """True iff all pairwise intersections are empty (vacuously for <= 1 set)."""
    seen = 0
    for s in sets:
        if seen & s.mask:
            return False
        seen |= s.mask
    return True


def brute_force_matching_number(fam: Family) -> int:
    """Independent oracle: exhaustive maximum over all subfamilies.

    Exponential; for test instances only.
    """
    masks = list(fam.members)
    best = 0
    for t in range(1, len(masks) + 1):
        found = False
        for combo in combinations(masks, t):
            seen = 0
            ok = True
            for m in combo:
                if seen & m:
                    ok = False
                    break
                seen |= m
            if ok:
                found = True
                break
        if not found:
            break
        best = t
    return best


def _greedy_hitting_size(masks: list[int]) -> int:
    """Size of a greedily built hitting set of the given sets.

    Any hitting set upper-bounds the matching number.
    """
    remaining = list(masks)
    cover = 0
    while remaining:
        counts: dict[int, int] = {}
        for m in remaining:
            mm = m
            while mm:
                low = mm & -mm
                counts[low] = counts.get(low, 0) + 1
                mm ^= low
        # deterministic tie-break: lowest bit among the most frequent
        best_bit = min(b for b, c in counts.items() if c == max(counts.values()))
        remaining = [m for m in remaining if not m & best_bit]
        cover += 1
    return cover


def _upper_bound(pool: list[int], sizes: dict[int, int], need: int) -> int:
    """An exact upper bound on the matching number of ``pool``.

    ``need`` is the bound at which the caller stops caring; the cheaper
    bounds short-circuit the greedy hitting set when they already decide.
    """
    b = len(pool)
    if b < need:
        return b
    union = 0
    min_size = None
    for m in pool:
        union |= m
        sz = sizes[m]
        if min_size is None or sz < min_size:
            min_size = sz
    b = min(b, union.bit_count() // min_size)
    if b < need:
        return b
    return min(b, _greedy_hitting_size(pool))


def list_pool_matching_number(
    fam: Family, budget: int | None = DEFAULT_NODE_BUDGET
) -> tuple[int, MatchingCertificate]:
    """Oracle: the matching number by a DFS over lists of masks, with a witness.

    The certificate is deterministic: the lexicographically least sequence of
    colex ranks among maximum matchings.  Raises :class:`BudgetExceeded` when
    the node budget runs out; never returns a silently wrong answer.
    """
    masks = sorted(fam.members)
    base: list[int] = []
    if masks and masks[0] == 0:
        # the empty set is disjoint from everything and colex-least
        base = [0]
        masks = masks[1:]
    sizes = {m: m.bit_count() for m in masks}

    best: list[int] = []
    nodes = 0

    def dfs(pool: list[int], current: list[int]) -> None:
        nonlocal best, nodes
        nodes += 1
        if budget is not None and nodes > budget:
            raise BudgetExceeded(f"matching_number: node budget {budget} exhausted")
        if len(current) > len(best):
            best = list(current)
        if not pool:
            return
        if len(current) + _upper_bound(pool, sizes, len(best) - len(current) + 1) <= len(best):
            return
        pivot = pool[0]
        dfs([m for m in pool[1:] if not m & pivot], current + [pivot])
        dfs(pool[1:], current)

    dfs(masks, [])
    chosen = base + best
    cert = MatchingCertificate(tuple(KSet(fam.n, m) for m in sorted(chosen)))
    return len(chosen), cert


def fam_of(n, k, *element_lists):
    return Family(n, k, [mask_of(n, e) for e in element_lists])


def test_pairwise_disjoint():
    assert is_pairwise_disjoint([])
    assert is_pairwise_disjoint([KSet.from_elements(4, [1, 2])])
    a, b = KSet.from_elements(4, [1, 2]), KSet.from_elements(4, [3, 4])
    assert is_pairwise_disjoint([a, b])
    assert not is_pairwise_disjoint([a, KSet.from_elements(4, [2, 3])])


def test_matching_number_simple():
    fam = fam_of(6, 2, [1, 2], [3, 4], [1, 3], [5, 6])
    nu, cert = matching_number(fam)
    assert nu == 3
    assert is_pairwise_disjoint(cert.sets)
    assert len(cert.sets) == 3


def test_empty_family_and_empty_member():
    assert matching_number(Family(5, 2, []))[0] == 0
    # an empty set is disjoint from everything
    fam = Family(5, None, [0, mask_of(5, [1, 2])])
    nu, cert = matching_number(fam)
    assert nu == 2
    assert KSet(5, 0) in cert.sets


def test_matching_number_matches_brute_force():
    rng = random.Random(7)
    for trial in range(40):
        n = rng.randrange(5, 10)
        k = rng.randrange(2, 4)
        pool = list(enumerate_ksets(n, k))
        members = rng.sample(pool, min(len(pool), rng.randrange(1, 12)))
        fam = Family(n, k, members)
        assert matching_number(fam)[0] == brute_force_matching_number(fam)


def test_certificate_is_deterministic():
    fam = fam_of(8, 2, [1, 2], [3, 4], [5, 6], [7, 8], [1, 3], [2, 4])
    _, c1 = matching_number(fam)
    _, c2 = matching_number(fam)
    assert c1 == c2
    # colex-least maximum matching: the first members in colex order
    assert [t.elements for t in c1.sets] == [(1, 2), (3, 4), (5, 6), (7, 8)]


def test_budget_exhaustion_raises():
    fam = Family(12, 2, enumerate_ksets(12, 2))
    with pytest.raises(BudgetExceeded):
        matching_number(fam, budget=3)


def test_budget_none_disables_cap():
    fam = fam_of(4, 2, [1, 2], [3, 4])
    assert matching_number(fam, budget=None)[0] == 2


def test_deep_search_on_many_disjoint_sets():
    # one decided member per search level: 1 001 levels, deeper than the
    # interpreter's default recursion limit
    fam = Family(2002, 2, [0b11 << 2 * i for i in range(1001)])
    nu, cert = matching_number(fam)
    assert nu == 1001
    assert [t.elements for t in cert.sets] == [(2 * i + 1, 2 * i + 2) for i in range(1001)]


def smallest_finishing_budget(solve, fam: Family) -> int:
    """The least node budget under which ``solve(fam, budget)`` finishes."""
    hi = 1
    while True:
        try:
            solve(fam, hi)
            break
        except BudgetExceeded:
            hi *= 2
    lo = hi // 2  # exceeded, or 0, which always is
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            solve(fam, mid)
            hi = mid
        except BudgetExceeded:
            lo = mid
    return hi


@st.composite
def matching_families(draw):
    """A uniform or mixed-size family on [n], n <= 9, possibly with the empty set."""
    n = draw(st.integers(min_value=1, max_value=9))
    if draw(st.booleans()):
        k = draw(st.integers(min_value=1, max_value=min(n, 4)))
        pool = list(enumerate_ksets(n, k))
        members = draw(st.lists(st.sampled_from(pool), max_size=24, unique=True))
    else:
        k = None
        members = draw(st.lists(st.integers(1, (1 << n) - 1), max_size=24, unique=True))
        if draw(st.booleans()):
            members.append(0)
    return Family(n, k, members)


@settings(max_examples=300, deadline=None)
@given(matching_families())
@example(Family(5, None, [0]))
@example(Family(8, 2, enumerate_ksets(8, 2)))
@example(Family(9, None, [0b111, 0b111000, 0b111000000, 0b1001001, 0b10010010, 0b100100100, 0b11]))
def test_matching_number_matches_list_pool_oracle(fam):
    assert matching_number(fam) == list_pool_matching_number(fam)
    budget = smallest_finishing_budget(list_pool_matching_number, fam)
    assert matching_number(fam, budget) == list_pool_matching_number(fam)
    with pytest.raises(BudgetExceeded):
        matching_number(fam, budget - 1)


def test_bench_nu_script(tmp_path):
    fam = Family(7, 2, [mask_of(7, e) for e in ([1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 7], [1, 7])])
    src = tmp_path / "cycle.txt"
    src.write_text(fam.to_text())
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "nu.py"), str(src)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    # a 7-cycle has matching number 3
    assert out["nu"] == 3 == len(out["certificate"])
    cert = [KSet.from_elements(7, e) for e in out["certificate"]]
    assert all(t.mask in fam.mask_set for t in cert)
    assert is_pairwise_disjoint(cert)
