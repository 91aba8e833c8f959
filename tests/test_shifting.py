from __future__ import annotations

import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from emckit.core import Family, KSet, enumerate_ksets, mask_of
from emckit.matching import matching_number
from emckit.shifting import _movers, compress_ij, is_shifted, shift_to_fixpoint
from test_core import precedes


def rebuilding_compress_ij(fam: Family, i: int, j: int) -> Family:
    """Oracle: the (i,j)-compression member by member, as a new Family."""
    bi, bj = 1 << (i - 1), 1 << (j - 1)
    present = fam.mask_set
    out = []
    for m in fam.members:
        if m & bj and not m & bi:
            repl = (m & ~bj) | bi
            out.append(m if repl in present else repl)
        else:
            out.append(m)
    return Family.from_masks(fam.n, fam.k, out)


def rebuilding_shift_to_fixpoint(fam: Family) -> Family:
    """Oracle: the restart-after-change sweep, one Family per compression."""
    current = fam
    changed = True
    while changed:
        changed = False
        for j in range(2, fam.n + 1):
            for i in range(1, j):
                nxt = rebuilding_compress_ij(current, i, j)
                if nxt.mask_set != current.mask_set:
                    current = nxt
                    changed = True
                    break
            if changed:
                break
    return current


def restart_sweep_shift_to_fixpoint(fam: Family) -> Family:
    """Oracle: the restart sweep on a plain set of masks, back to (1,2) after each change.

    Sweep order is fixed: j ascending, then i ascending, restarting after any
    change, so the normal form is deterministic.  The sweep rewrites a plain
    set of masks in place and builds a single ``Family`` at the end.
    """
    present = set(fam.mask_set)
    changed = True
    while changed:
        changed = False
        for j in range(2, fam.n + 1):
            for i in range(1, j):
                movers = _movers(present, present, i, j)
                if movers:
                    bij = 1 << (i - 1) | 1 << (j - 1)
                    present.difference_update(movers)
                    present.update(m ^ bij for m in movers)
                    changed = True
                    break
            if changed:
                break
    return Family.from_masks(fam.n, fam.k, present)


def precedence_downset_closure(fam: Family) -> Family:
    """Oracle: BFS closure of a uniform family under the precedence order."""
    if fam.k is None:
        raise ValueError("closure requires a uniform family")
    seen = set(fam.members)
    queue = deque(fam.members)
    while queue:
        m = queue.popleft()
        mm = m
        while mm:
            low = mm & -mm
            mm ^= low
            x = low.bit_length()
            for y in range(1, x):
                by = 1 << (y - 1)
                if m & by:
                    continue
                nxt = (m & ~low) | by
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return Family.from_masks(fam.n, fam.k, seen)


def is_precedence_closed(fam: Family) -> bool:
    """Oracle: full closure check against all preceding k-sets (quadratic)."""
    if fam.k is None:
        raise ValueError("requires a uniform family")
    for g in fam.members:
        for f in enumerate_ksets(fam.n, fam.k):
            if precedes(KSet(fam.n, f), KSet(fam.n, g)) and f not in fam.mask_set:
                return False
    return True


@st.composite
def sampled_families(draw, max_n=14, max_k=5, max_size=150, uniform=True):
    """Families of 0..max_size sets drawn at random from all k-sets of [n]
    (uniform) or from all subsets of [n] (k = None, some holding the empty set)."""
    n = draw(st.integers(0, max_n))
    if uniform:
        k = draw(st.integers(0, min(max_k, n)))
        pool = list(enumerate_ksets(n, k))
    else:
        k, pool = None, range(1 << n)
    rnd = draw(st.randoms(use_true_random=False))
    masks = set(rnd.sample(pool, rnd.randint(0, min(len(pool), max_size))))
    if k is None and draw(st.booleans()):
        masks.add(0)
    return Family(n, k, masks)


def random_family(rng, n, k, max_size=12):
    pool = list(enumerate_ksets(n, k))
    return Family(n, k, rng.sample(pool, min(len(pool), rng.randrange(1, max_size))))


def test_compress_basic():
    fam = Family(4, 2, [mask_of(4, e) for e in ([2, 4], [1, 3])])
    out = compress_ij(fam, 1, 4)
    assert {KSet(4, m).elements for m in out.members} == {(1, 2), (1, 3)}


def test_compress_collision_keeps_original():
    fam = Family(4, 2, [mask_of(4, e) for e in ([1, 2], [2, 4])])
    out = compress_ij(fam, 1, 4)
    # {2,4} -> {1,2} collides, so {2,4} stays
    assert out == fam


def test_compress_validates_indices():
    fam = Family(4, 2, [mask_of(4, [1, 2])])
    with pytest.raises(ValueError):
        compress_ij(fam, 2, 2)
    with pytest.raises(ValueError):
        compress_ij(fam, 0, 1)


def test_compress_preserves_size_and_uniformity():
    rng = random.Random(3)
    for _ in range(25):
        fam = random_family(rng, 7, 3)
        out = compress_ij(fam, rng.randrange(1, 7), 7)
        assert len(out) == len(fam)
        assert out.k == fam.k


def test_fixpoint_is_shifted_and_same_size():
    rng = random.Random(11)
    for _ in range(25):
        fam = random_family(rng, 7, 3)
        fixed = shift_to_fixpoint(fam)
        assert len(fixed) == len(fam)
        assert is_shifted(fixed)
        # idempotent
        assert shift_to_fixpoint(fixed) == fixed


def test_compression_never_increases_matching_number():
    rng = random.Random(5)
    for _ in range(20):
        fam = random_family(rng, 8, 2)
        nu = matching_number(fam)[0]
        assert matching_number(shift_to_fixpoint(fam))[0] <= nu


def test_decrement_criterion_matches_precedence_closure():
    rng = random.Random(17)
    for _ in range(30):
        fam = random_family(rng, 7, 3)
        closed = precedence_downset_closure(fam)
        assert is_shifted(closed)
        assert is_precedence_closed(closed)
        assert is_shifted(fam) == is_precedence_closed(fam)


def test_closure_is_superset_and_minimal():
    fam = Family(5, 2, [mask_of(5, [3, 5])])
    closed = precedence_downset_closure(fam)
    assert fam.mask_set <= closed.mask_set
    # {3,5} dominates exactly the pairs (a,b) with a<=3, b<=5
    assert len(closed) == 9


def test_is_shifted_rejects_mixed():
    fam = Family(5, None, [mask_of(5, [1]), mask_of(5, [1, 2])])
    with pytest.raises(ValueError):
        is_shifted(fam)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_fixpoint_members_precede_or_equal_originals_in_bulk(data):
    n, k = 6, 2
    pool = list(enumerate_ksets(n, k))
    idx = data.draw(st.sets(st.integers(0, len(pool) - 1), min_size=1, max_size=8))
    fam = Family(n, k, [pool[i] for i in idx])
    fixed = shift_to_fixpoint(fam)
    # total colex weight never increases under compression
    assert sum(fixed.members) <= sum(fam.members)


@settings(max_examples=150, deadline=None)
@given(sampled_families(max_n=10, max_k=4, max_size=40))
def test_mask_sweep_matches_rebuilding_oracle(fam):
    fixed = shift_to_fixpoint(fam)
    expected = rebuilding_shift_to_fixpoint(fam)
    assert fixed == expected
    assert fixed.to_text() == expected.to_text()


@settings(max_examples=60, deadline=None)
@given(sampled_families(max_n=10, max_k=4, max_size=40))
def test_compress_ij_matches_rebuilding_oracle(fam):
    for j in range(2, fam.n + 1):
        for i in range(1, j):
            assert compress_ij(fam, i, j) == rebuilding_compress_ij(fam, i, j)


def assert_same_fixpoint(fam):
    fixed = shift_to_fixpoint(fam)
    expected = restart_sweep_shift_to_fixpoint(fam)
    assert fixed == expected
    assert fixed.to_text() == expected.to_text()


@settings(max_examples=100, deadline=None)
@given(sampled_families())
def test_one_pass_sweep_matches_restart_sweep(fam):
    assert_same_fixpoint(fam)


@settings(max_examples=100, deadline=None)
@given(sampled_families(max_n=10, max_size=60, uniform=False))
def test_one_pass_sweep_matches_restart_sweep_on_mixed_families(fam):
    assert_same_fixpoint(fam)


@settings(max_examples=60, deadline=None)
@given(sampled_families(max_n=8, max_size=40) | sampled_families(max_n=6, max_size=40, uniform=False))
def test_compression_leaves_earlier_pairs_without_movers(fam):
    pairs = [(i, j) for j in range(2, fam.n + 1) for i in range(1, j)]
    for t, (i, j) in enumerate(pairs):
        fam = compress_ij(fam, i, j)
        for a, b in pairs[: t + 1]:
            assert not _movers(fam.mask_set, fam.mask_set, a, b)


def test_one_pass_sweep_matches_restart_sweep_at_18_3_300():
    rng = random.Random(2024)
    fam = Family(18, 3, rng.sample(list(enumerate_ksets(18, 3)), 300))
    assert_same_fixpoint(fam)
