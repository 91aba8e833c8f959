from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product
from typing import Iterator, Optional, Sequence

import pytest

from emckit import transversals
from emckit.core import KSet, mask_of
from emckit.transversals import (
    BAD_PAIR_MAX_K,
    BadPairStats,
    CyclicShift,
    Transversal,
    _local_layout,
    _part_masks,
    _profile,
    all_cyclic_collections,
    all_shift_collections,
    bad_pair_stats,
    cyclic_collection,
    full_transversals,
    product_inequality_check,
    q_family,
    shape_profile,
    shifts_of,
)
from emckit.weights import WeightFrame


def small_frame(k):
    return WeightFrame((k + 1) * k, k, k)


def identity_shift(elements: Sequence[int]) -> CyclicShift:
    return CyclicShift(tuple(sorted(elements)), 0)


def almost_full_transversals(frame: WeightFrame) -> Iterator[Transversal]:
    """All k-subsets of the local universe with width k-1.

    Either one block is doubled and one untouched, or one element sits in the
    distinguished set and one block is untouched.  Weight 1/(s-k+1).
    """
    g0, blocks = _local_layout(frame)
    k, s = frame.k, frame.s
    w = Fraction(1, s - k + 1)
    parts = _part_masks(frame)
    ground = frame.prefix
    universe = sorted(g0 + tuple(e for b in blocks for e in b))
    block_of = {}
    for i, b in enumerate(blocks, start=1):
        for e in b:
            block_of[e] = i
    for e in g0:
        block_of[e] = 0
    for combo in combinations(universe, k):
        v = len({block_of[e] for e in combo} - {0})
        if v == k - 1:
            ks = KSet.from_elements(ground, combo)
            yield Transversal(ks, "almost_full", _profile(ks.mask, parts), w)


# the pair-by-pair enumeration that bad_pair_stats replaced, kept as its oracle
def enumerated_bad_pair_stats(frame: WeightFrame, k: int) -> BadPairStats:
    """Exhaustive mask/bad-pair statistics over the local universe.

    Defect sets have size k-1, width k-2, avoid the distinguished set: they
    double one block and miss two.  A mask is a distinguished-set-avoiding
    almost-full transversal missing the doubled block and doubling one of the
    two missed ones; a bad pair additionally requires disjointness and that
    the mask's element in the other missed block is not that block's minimum.
    """
    if frame.k != k:
        raise ValueError("frame and k disagree")
    if k < 3:
        raise ValueError("need k >= 3")
    if k > BAD_PAIR_MAX_K:
        raise RuntimeError(f"bad-pair enumeration infeasible for k={k}")
    _, blocks = _local_layout(frame)
    bmasks = [mask_of(frame.prefix, b) for b in blocks]
    bmins = [min(b) for b in blocks]

    # masks grouped by (missed block, doubled block); each entry carries the
    # bitmask and, per singleton block, whether its element is the block min
    masks_by_type: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    all_masks: list[int] = []
    mask_id = 0
    for miss in range(k):
        for dbl in range(k):
            if dbl == miss:
                continue
            singles = [i for i in range(k) if i not in (miss, dbl)]
            bucket = []
            for pair in combinations(blocks[dbl], 2):
                for choice in product(*(blocks[i] for i in singles)):
                    qmask = mask_of(frame.prefix, pair + choice)
                    minflags = 0
                    for i, e in zip(singles, choice):
                        if e == bmins[i]:
                            minflags |= 1 << i
                    bucket.append((mask_id, qmask, minflags))
                    all_masks.append(qmask)
                    mask_id += 1
            masks_by_type[(miss, dbl)] = bucket

    pair_counts = [0] * mask_id
    per_t: Optional[int] = None
    num_t = 0
    for dbl_t in range(k):  # block doubled by the defect set
        others = [i for i in range(k) if i != dbl_t]
        for missed in combinations(others, 2):
            singles = [i for i in others if i not in missed]
            for pair in combinations(blocks[dbl_t], 2):
                for choice in product(*(blocks[i] for i in singles)):
                    tmask = mask_of(frame.prefix, pair + choice)
                    num_t += 1
                    cnt = 0
                    for f, other in ((missed[0], missed[1]), (missed[1], missed[0])):
                        for qid, qmask, minflags in masks_by_type[(dbl_t, f)]:
                            if qmask & tmask:
                                continue
                            if minflags >> other & 1:
                                continue
                            cnt += 1
                            pair_counts[qid] += 1
                    if per_t is None:
                        per_t = cnt
                    elif per_t != cnt:
                        raise AssertionError(
                            f"per-defect-set mask count is not uniform: {per_t} vs {cnt}"
                        )
    per_mask_max = max(pair_counts) if pair_counts else 0
    num_bad = sum(1 for c in pair_counts if c)
    bound = Fraction(k * (k - 1) ** (k - 2) * (k - 2), 2)
    return BadPairStats(
        per_t=per_t or 0,
        per_mask_max=per_mask_max,
        per_mask_bound=bound,
        num_t=num_t,
        num_bad_masks=num_bad,
        doubling_ok=2 * num_t <= num_bad,
    )


def test_cyclic_shift_apply():
    sg = CyclicShift((2, 5, 9), 1)
    assert sg.apply(2) == 5
    assert sg.apply(9) == 2
    assert identity_shift([9, 5, 2]).apply(5) == 5
    with pytest.raises(ValueError):
        CyclicShift((1, 2), 2)


def test_shifts_of_count():
    assert len(shifts_of([3, 1, 7])) == 3
    assert len(shifts_of([])) == 1


@pytest.mark.parametrize("k", [2, 3, 4])
def test_full_transversal_count_and_profile(k):
    fr = small_frame(k)
    ts = list(full_transversals(fr))
    assert len(ts) == k**k
    assert len({t.set.mask for t in ts}) == k**k
    for t in ts:
        assert t.profile == (0,) + (1,) * k
        assert t.weight == 1


@pytest.mark.parametrize("k", [2, 3])
def test_almost_full_transversals(k):
    fr = small_frame(k)
    ts = list(almost_full_transversals(fr))
    for t in ts:
        assert t.set.size == k
        assert sum(1 for x in t.profile[1:] if x) == k - 1
        assert t.weight == Fraction(1, fr.s - k + 1)
    # doubled-block shape plus distinguished-element shape
    expected = k * (k - 1) * (k * (k - 1) // 2) * k ** (k - 2) + (k - 1) * k * k ** (
        k - 1
    )
    assert len(ts) == expected


def test_cyclic_collection_structure():
    k = 3
    fr = small_frame(k)
    blocks = fr.b_blocks()
    t = KSet.from_elements(fr.prefix, [blocks[0][1], blocks[1][0]])
    colls = list(all_cyclic_collections(t, fr))
    assert len(colls) == (k - 1) ** (k - 1)
    min_missed = min(blocks[2])
    seen = set()
    for coll in colls:
        assert len(coll) == k - 1
        union = 0
        for q in coll:
            assert q.size == k
            assert not q.mask & t.mask
            assert union & q.mask == 0
            union |= q.mask
            assert min_missed not in q
            assert q.mask not in seen  # no transversal shared across collections
            seen.add(q.mask)


def test_cyclic_collection_validates_input():
    k = 3
    fr = small_frame(k)
    blocks = fr.b_blocks()
    good = KSet.from_elements(fr.prefix, [blocks[0][0], blocks[1][0]])
    sigmas = [identity_shift([e for e in b if e not in good]) for b in blocks[:2]]
    cyclic_collection(good, sigmas, fr)
    bad_width = KSet.from_elements(fr.prefix, [blocks[0][0], blocks[0][1]])
    with pytest.raises(ValueError):
        cyclic_collection(bad_width, sigmas, fr)
    g0 = fr.g0_elements()
    touches_g0 = KSet.from_elements(fr.prefix, [blocks[0][0], g0[0]])
    with pytest.raises(ValueError):
        cyclic_collection(touches_g0, sigmas, fr)


@pytest.mark.parametrize("k", [3, 4])
def test_bad_pair_stats_small(k):
    fr = small_frame(k)
    st = bad_pair_stats(fr, k)
    assert st.per_t == k * (k - 1) ** (k - 1)
    assert st.per_mask_max <= st.per_mask_bound
    assert st.doubling_ok


@pytest.mark.parametrize("k", [3, 4, 5])
def test_bad_pair_stats_matches_enumeration(k):
    fr = small_frame(k)
    assert bad_pair_stats(fr, k) == enumerated_bad_pair_stats(fr, k)


def test_bad_pair_stats_divisibility_guard(monkeypatch):
    # wrong defect-class weights leave some mask-class total that its class
    # size does not divide; the count must refuse rather than round
    monkeypatch.setattr(transversals, "_defect_class_size", lambda k, nonmin: 1)
    with pytest.raises(AssertionError, match="not divisible"):
        bad_pair_stats(small_frame(4), 4)


def test_bad_pair_stats_guards():
    with pytest.raises(ValueError):
        bad_pair_stats(small_frame(2), 2)
    with pytest.raises(ValueError):
        bad_pair_stats(small_frame(7), 7)


def test_shape_profile():
    k = 4
    fr = small_frame(k)
    blocks = fr.b_blocks()
    g0 = fr.g0_elements()
    t = KSet.from_elements(fr.prefix, [blocks[0][0], blocks[0][1], g0[0]])
    prof = shape_profile(t, fr)
    assert prof.a == (2,)
    assert prof.a0 == 2
    assert prof.p == 2
    assert prof.mus == (1, 1)


def test_q_family_counts_and_disjointness():
    k = 3
    fr = small_frame(k)
    blocks = fr.b_blocks()
    g0 = fr.g0_elements()
    t = KSet.from_elements(fr.prefix, [blocks[0][0], g0[0]])
    prof = shape_profile(t, fr)
    colls = list(all_shift_collections(t, fr))
    expected = (k - prof.a0) * (k - prof.a[0]) * k ** (k - 1)
    assert len(colls) == expected
    for pis in colls:
        qs = q_family(t, pis, fr)
        assert len(qs) == k
        union = t.mask
        for q in qs:
            assert q.size == k
            assert union & q.mask == 0
            union |= q.mask


def test_q_family_multiplicity_bound():
    # each transversal appears in at most a_mu (k - a_mu) * k^(k-1) collections
    k = 3
    fr = small_frame(k)
    blocks = fr.b_blocks()
    g0 = fr.g0_elements()
    t = KSet.from_elements(fr.prefix, [blocks[0][0], g0[0]])
    prof = shape_profile(t, fr)
    counts: dict[int, int] = {}
    for pis in all_shift_collections(t, fr):
        for q in q_family(t, pis, fr):
            counts[q.mask] = counts.get(q.mask, 0) + 1
    bound = max(a * (k - a) for a in (prof.a0,) + prof.a) * k ** (k - 1)
    assert max(counts.values()) <= bound


def test_q_family_random_defect_sets():
    rng = random.Random(9)
    k = 4
    fr = small_frame(k)
    blocks = fr.b_blocks()
    g0 = fr.g0_elements()
    universe = [e for b in blocks for e in b] + list(g0)
    tried = 0
    while tried < 10:
        elems = rng.sample(universe, k - 1)
        t = KSet.from_elements(fr.prefix, elems)
        try:
            prof = shape_profile(t, fr)
        except ValueError:
            continue
        tried += 1
        colls = list(all_shift_collections(t, fr))
        if prof.p == 0:  # no touched block, no free distinguished element
            expected = k**k
        else:
            expected = k - prof.a0
            for a in prof.a:
                expected *= k - a
            expected *= k ** (k - len(prof.a))
        assert len(colls) == expected
        for pis in rng.sample(colls, min(5, len(colls))):
            q_family(t, pis, fr)


@pytest.mark.parametrize("k", list(range(2, 11)))
def test_product_inequality(k):
    assert product_inequality_check(k) == (0, None)
