from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from typing import Iterator, Optional, Sequence

import pytest

from emckit import transversals
from emckit.audit import product_inequality_check
from emckit.constructions import prefix_size
from emckit.core import KSet, mask_of
from emckit.transversals import (
    BadPairStats,
    CyclicShift,
    _cyclic_blocks,
    _local_layout,
    _part_masks,
    _split_blocks,
    bad_pair_stats,
    blocks_missing_last,
    cyclic_collection_masks,
    full_transversal_masks,
    q_family,
    q_family_check,
    shape_profile,
    transversal_reports,
)
from emckit.weights import weight_value


def ground(k: int) -> int:
    """Size of the prefix [(k+1)k-1] that holds the local universe."""
    return prefix_size(k, k)


def identity_shift(elements: Sequence[int]) -> CyclicShift:
    return CyclicShift(tuple(sorted(elements)), 0)


def shifts_of(elements: Sequence[int]) -> list[CyclicShift]:
    """All cyclic shifts on a set, canonical increasing numeration."""
    base = tuple(sorted(elements))
    if not base:
        return [CyclicShift((), 0)]
    return [CyclicShift(base, j) for j in range(len(base))]


def profile(mask: int, k: int) -> tuple[int, ...]:
    """Intersection sizes of a local-universe set with G0, B_1, ..., B_k."""
    return tuple((mask & part).bit_count() for part in _part_masks(k))


def almost_full_transversals(k: int) -> Iterator[KSet]:
    """All k-subsets of the local universe with width k-1.

    Either one block is doubled and one untouched, or one element sits in the
    distinguished set and one block is untouched.
    """
    g0, blocks = _local_layout(k)
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
            yield KSet.from_elements(ground(k), combo)


def cyclic_collection(t: KSet, sigmas: Sequence[CyclicShift], k: int) -> list[KSet]:
    """Oracle of ``cyclic_collection_masks``: the k-1 pairwise disjoint full
    transversals generated from a defect set by explicit shifts.

    ``t`` must have size k-1, width k-1, avoid the distinguished set, and
    miss exactly one block (reordered to be last).  ``sigmas`` are k-1 cyclic
    shifts acting on the residuals of the touched blocks (canonical
    increasing numeration).  The minimal element of the missed block is the
    distinguished last numeration slot and never appears in the output.
    """
    blocks = _cyclic_blocks(t, k)
    if len(sigmas) != k - 1:
        raise ValueError("need k-1 cyclic shifts")

    # numeration: slots 1..k-1 of each touched block hold its residual in
    # increasing order; slot k holds t's element.  In the missed block the
    # minimal element takes slot k.
    numer: list[tuple[int, ...]] = []
    for b in blocks[:-1]:
        t_elt = next(e for e in b if e in t)
        residual = tuple(e for e in b if e != t_elt)
        numer.append(residual + (t_elt,))
    last = blocks[-1]
    lo = min(last)
    numer.append(tuple(e for e in last if e != lo) + (lo,))

    for j, (sg, b) in enumerate(zip(sigmas, blocks[:-1])):
        if set(sg.base) != set(numer[j][:-1]):
            raise ValueError(f"shift {j} does not act on the residual of block {j}")

    out = []
    for i in range(1, k):
        elems = [sigmas[j].apply(numer[j][i - 1]) for j in range(k - 1)]
        elems.append(numer[k - 1][i - 1])
        out.append(KSet.from_elements(ground(k), elems))
    union = 0
    for q in out:
        if union & q.mask:
            raise AssertionError("collection members must be pairwise disjoint")
        union |= q.mask
    return out


# the pair-by-pair enumeration that bad_pair_stats replaced, kept as its oracle
def enumerated_bad_pair_stats(k: int) -> BadPairStats:
    """Exhaustive mask/bad-pair statistics over the local universe.

    Defect sets have size k-1, width k-2, avoid the distinguished set: they
    double one block and miss two.  A mask is a distinguished-set-avoiding
    almost-full transversal missing the doubled block and doubling one of the
    two missed ones; a bad pair additionally requires disjointness and that
    the mask's element in the other missed block is not that block's minimum.
    """
    if k < 3:
        raise ValueError("need k >= 3")
    if k > 6:
        raise RuntimeError(f"bad-pair enumeration infeasible for k={k}")
    _, blocks = _local_layout(k)
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
                    qmask = mask_of(ground(k), pair + choice)
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
                    tmask = mask_of(ground(k), pair + choice)
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
    masks = full_transversal_masks(k)
    assert len(masks) == len(set(masks)) == k**k
    for m in masks:
        assert profile(m, k) == (0,) + (1,) * k
    # width k and size k in the frame ((k+1)k, k, k), where n_bar = 1
    assert weight_value(k, k, 1, k, k) == 1


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_full_transversal_masks_are_the_product_of_the_blocks(k):
    _, blocks = _local_layout(k)
    expected = [mask_of(ground(k), choice) for choice in product(*blocks)]
    assert full_transversal_masks(k) == expected


@pytest.mark.parametrize("k", [2, 3])
def test_almost_full_transversals(k):
    ts = list(almost_full_transversals(k))
    for t in ts:
        assert t.size == k
        assert sum(1 for x in profile(t.mask, k)[1:] if x) == k - 1
    # weight C(n_bar, 0) / C(s-k+1, 1) = 1/(s-k+1), which is 1 in the local frame's s = k
    assert weight_value(k, k, 1, k - 1, k) == 1
    # doubled-block shape plus distinguished-element shape
    expected = k * (k - 1) * (k * (k - 1) // 2) * k ** (k - 2) + (k - 1) * k * k ** (
        k - 1
    )
    assert len(ts) == expected


def test_cyclic_collection_structure():
    k = 3
    _, blocks = _local_layout(k)
    t = KSet.from_elements(ground(k), [blocks[0][1], blocks[1][0]])
    colls = list(cyclic_collection_masks(t, k))
    assert len(colls) == (k - 1) ** (k - 1)
    min_missed = 1 << (min(blocks[2]) - 1)
    seen = set()
    for coll in colls:
        assert len(coll) == k - 1
        union = 0
        for q in coll:
            assert profile(q, k) == (0,) + (1,) * k  # a full transversal
            assert not q & t.mask
            assert union & q == 0
            union |= q
            assert not q & min_missed
            assert q not in seen  # no transversal shared across collections
            seen.add(q)


def cyclic_defect_sets(k: int) -> Iterator[KSet]:
    """Every defect set of the cyclic-shift construction: one element from
    each of k-1 blocks, no distinguished element."""
    _, blocks = _local_layout(k)
    for missed in range(k):
        touched = [b for i, b in enumerate(blocks) if i != missed]
        for choice in product(*touched):
            yield KSet.from_elements(ground(k), choice)


@pytest.mark.parametrize("k, step", [(2, 1), (3, 1), (4, 1), (5, 5**4)])
def test_cyclic_collection_masks_match_the_oracle(k, step):
    # every shift tuple, in product order, for every step-th defect set: all
    # of them up to k = 4, the first one per missed block at k = 5
    seen = 0
    for t in list(cyclic_defect_sets(k))[::step]:
        blocks = blocks_missing_last(k, t)
        pools = [shifts_of([e for e in b if e not in t]) for b in blocks[:-1]]
        expected = [
            [q.mask for q in cyclic_collection(t, list(sigmas), k)] for sigmas in product(*pools)
        ]
        assert len(expected) == (k - 1) ** (k - 1)
        assert list(cyclic_collection_masks(t, k)) == expected
        seen += 1
    assert seen == k**k // step


def test_cyclic_collection_validates_input():
    k = 3
    g0, blocks = _local_layout(k)
    good = KSet.from_elements(ground(k), [blocks[0][0], blocks[1][0]])
    sigmas = [identity_shift([e for e in b if e not in good]) for b in blocks[:2]]
    first = [q.mask for q in cyclic_collection(good, sigmas, k)]
    assert next(cyclic_collection_masks(good, k)) == first  # offsets 0 come first
    bad_width = KSet.from_elements(ground(k), [blocks[0][0], blocks[0][1]])
    with pytest.raises(ValueError):
        cyclic_collection(bad_width, sigmas, k)
    touches_g0 = KSet.from_elements(ground(k), [blocks[0][0], g0[0]])
    with pytest.raises(ValueError):
        cyclic_collection(touches_g0, sigmas, k)
    for bad in (bad_width, touches_g0):
        with pytest.raises(ValueError):
            next(cyclic_collection_masks(bad, k))


@pytest.mark.parametrize("k", [3, 4])
def test_bad_pair_stats_small(k):
    st = bad_pair_stats(k)
    assert st.per_t == k * (k - 1) ** (k - 1)
    assert st.per_mask_max <= st.per_mask_bound
    assert 2 * st.num_t <= st.num_bad_masks


@pytest.mark.parametrize("k", [3, 4, 5])
def test_bad_pair_stats_matches_enumeration(k):
    assert bad_pair_stats(k) == enumerated_bad_pair_stats(k)


def test_bad_pair_stats_divisibility_guard(monkeypatch):
    # wrong defect-class weights leave some mask-class total that its class
    # size does not divide; the count must refuse rather than round
    monkeypatch.setattr(transversals, "_defect_class_size", lambda k, nonmin: 1)
    with pytest.raises(AssertionError, match="not divisible"):
        bad_pair_stats(4)


def test_bad_pair_stats_guards():
    with pytest.raises(ValueError):
        bad_pair_stats(2)
    with pytest.raises(ValueError):
        bad_pair_stats(8)


def test_transversal_reports_refuse_before_any_row(monkeypatch):
    def no_row(k):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(transversals, "full_transversal_masks", no_row)
    for k, check, message in (
        (8, "all", "--check badpairs supports k <= 7, got k=8"),
        (8, "badpairs", "--check badpairs supports k <= 7, got k=8"),
        (1, "all", "--check cyclic needs k >= 2, got k=1"),
        (1, "cyclic", "--check cyclic needs k >= 2, got k=1"),
        (3, "count", "unknown transversal check 'count'"),
    ):
        with pytest.raises(ValueError) as info:
            transversal_reports(k, check)
        assert str(info.value) == message


def test_shape_profile():
    k = 4
    g0, blocks = _local_layout(k)
    t = KSet.from_elements(ground(k), [blocks[0][0], blocks[0][1], g0[0]])
    prof = shape_profile(t, k)
    assert prof.a == (2,)
    assert prof.a0 == 2
    assert prof.p == 2
    assert prof.mus == (1, 1)


def all_shift_collections(t: KSet, k: int) -> Iterator[list[CyclicShift]]:
    """All admissible shift tuples for ``q_family``.

    There are (k - a0)(k - a1)...(k - a_c) * k^(k-c) of them, with the
    factor k - a0 = p, the shifts of the free distinguished elements, read
    as 1 at p = 0.
    """
    g0, _ = _local_layout(k)
    touched, untouched = _split_blocks(k, t)
    pools = [shifts_of([e for e in g0 if e not in t])]
    for b in touched + untouched:
        pools.append(shifts_of([e for e in b if e not in t]))
    for combo in product(*pools):
        yield list(combo)


def test_q_family_counts_and_disjointness():
    k = 3
    g0, blocks = _local_layout(k)
    t = KSet.from_elements(ground(k), [blocks[0][0], g0[0]])
    prof = shape_profile(t, k)
    colls = list(all_shift_collections(t, k))
    expected = (k - prof.a0) * (k - prof.a[0]) * k ** (k - 1)
    assert len(colls) == expected
    for pis in colls:
        qs = q_family(t, pis, k)
        assert len(qs) == k
        union = t.mask
        for q in qs:
            assert q.size == k
            assert union & q.mask == 0
            union |= q.mask


def test_q_family_multiplicity_bound():
    # each transversal appears in at most a_mu (k - a_mu) * k^(k-1) collections
    k = 3
    g0, blocks = _local_layout(k)
    t = KSet.from_elements(ground(k), [blocks[0][0], g0[0]])
    prof = shape_profile(t, k)
    counts: dict[int, int] = {}
    for pis in all_shift_collections(t, k):
        for q in q_family(t, pis, k):
            counts[q.mask] = counts.get(q.mask, 0) + 1
    bound = max(a * (k - a) for a in (prof.a0,) + prof.a) * k ** (k - 1)
    assert max(counts.values()) <= bound


def expected_shift_count(t: KSet, k: int) -> int:
    """(k - a0)(k - a1)...(k - a_c) k^(k-c), with k - a0 = p read as 1 at p = 0."""
    prof = shape_profile(t, k)
    if prof.p == 0:  # no touched block, no free distinguished element
        return k**k
    count = k - prof.a0
    for a in prof.a:
        count *= k - a
    return count * k ** (k - len(prof.a))


def defect_sets(k: int) -> Iterator[KSet]:
    """Every size-(k-1) subset of the local universe."""
    g0, blocks = _local_layout(k)
    universe = sorted([e for b in blocks for e in b] + list(g0))
    for elems in combinations(universe, k - 1):
        yield KSet.from_elements(ground(k), elems)


def assert_disjoint_cover(t: KSet, pis, k: int) -> None:
    qs = q_family(t, pis, k)
    assert len(qs) == k
    union = t.mask
    for q in qs:
        assert q.size == k and not union & q.mask
        union |= q.mask


@pytest.mark.parametrize("k, calls", [(1, 1), (2, 12), (3, 1161)])
def test_q_family_every_defect_set_and_shift_tuple(k, calls):
    # the full enumeration is the oracle of the per-profile check
    seen = 0
    for t in defect_sets(k):
        colls = list(all_shift_collections(t, k))
        assert len(colls) == expected_shift_count(t, k)
        for pis in colls:
            assert_disjoint_cover(t, pis, k)
        seen += len(colls)
    assert seen == calls
    assert q_family_check(k) == (0, None)


def test_q_family_k4_every_defect_set_and_every_tuple_per_profile():
    k = 4
    representatives: dict[tuple[int, ...], KSet] = {}
    sets = 0
    for t in defect_sets(k):
        assert_disjoint_cover(t, next(all_shift_collections(t, k)), k)
        prof = shape_profile(t, k)
        representatives.setdefault((prof.a0,) + prof.a, t)
        sets += 1
    assert sets == 969
    assert len(representatives) == 2 ** (k - 1)
    calls = 0
    for t in representatives.values():
        colls = list(all_shift_collections(t, k))
        assert len(colls) == expected_shift_count(t, k)
        for pis in colls:
            assert_disjoint_cover(t, pis, k)
        calls += len(colls)
    assert calls == 2084
    assert q_family_check(k) == (0, None)


@pytest.mark.parametrize("k", list(range(1, 8)))
def test_q_family_check_visits_every_profile_once(k, monkeypatch):
    seen = []

    def failing(t, pis, k):
        prof = shape_profile(t, k)
        seen.append((prof.a0,) + prof.a)
        raise AssertionError("injected")

    monkeypatch.setattr(transversals, "q_family", failing)
    assert q_family_check(k) == (2 ** (k - 1), (k,))
    assert len(set(seen)) == len(seen) == 2 ** (k - 1)
    assert all(sum(prof) == k and min(prof) >= 1 for prof in seen)


def test_q_family_check_counts_a_short_cover_as_a_failure(monkeypatch):
    original = transversals.q_family
    monkeypatch.setattr(transversals, "q_family", lambda t, pis, k: original(t, pis, k)[1:])
    assert q_family_check(3) == (4, (3,))
    with pytest.raises(ValueError):
        q_family_check(0)


@pytest.mark.parametrize("k", list(range(2, 11)))
def test_product_inequality(k):
    assert product_inequality_check(k) == (0, None)
