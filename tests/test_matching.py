from __future__ import annotations

import random
from itertools import combinations

import pytest

from emckit.core import Family, KSet, enumerate_ksets, mask_of
from emckit.matching import BudgetExceeded, matching_number


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
