from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial, prod
from typing import Iterator, NamedTuple, Optional, Sequence

import pytest

from emckit import audit, transversals
from emckit.audit import product_inequality_check
from emckit.constructions import prefix_size
from emckit.core import KSet, mask_of
from emckit.report import AuditReport, make_report
from emckit.transversals import (
    BadPairStats,
    CyclicShift,
    _cyclic_check,
    _local_layout,
    _split_blocks,
    bad_pair_stats,
    q_family,
    q_family_check,
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


# The enumerators that the per-block counts, cyclic and bad-pair rows
# replaced, kept verbatim as their oracles.


def _part_masks(k: int) -> list[int]:
    """Masks of the distinguished set and the blocks, in that order."""
    g0, blocks = _local_layout(k)
    return [mask_of(prefix_size(k, k), part) for part in (g0, *blocks)]


def full_transversal_masks(k: int) -> list[int]:
    """The masks of the k^k sets taking exactly one element from each block,
    in ``itertools.product`` order over the blocks.

    The product of the block bits is built one block at a time.
    """
    _, blocks = _local_layout(k)
    masks = [0]
    for b in blocks:
        bits = [1 << (e - 1) for e in b]
        masks = [m | bit for m in masks for bit in bits]
    return masks


def _cyclic_blocks(t: KSet, k: int) -> list[tuple[int, ...]]:
    """The blocks, those t touches first and the one it misses last, after
    checking that t is a defect set of the cyclic-shift construction: size
    k-1, width k-1, no distinguished element."""
    g0, _ = _local_layout(k)
    ground = prefix_size(k, k)
    if t.size != k - 1:
        raise ValueError("need |t| = k-1")
    if t.mask & mask_of(ground, g0):
        raise ValueError("t must avoid the distinguished set")
    touched, missed = _split_blocks(k, t)
    if len(missed) != 1:
        raise ValueError("set must miss exactly one block")
    for b in touched:
        if (t.mask & mask_of(ground, b)).bit_count() != 1:
            raise ValueError("t must meet each touched block exactly once")
    return touched + missed


def cyclic_collection_masks(t: KSet, k: int) -> Iterator[list[int]]:
    """The masks of the (k-1)^(k-1) collections of k-1 pairwise disjoint
    full transversals generated from the defect set t, one per tuple of
    cyclic shifts of the touched blocks' residuals (offsets 0..k-2 on each),
    in ``itertools.product`` order.

    ``t`` must have size k-1, width k-1, avoid the distinguished set, and
    miss exactly one block; the generator checks this on its first ``next``.
    Slot i of a collection takes residual element i + offset (mod k-1) of
    each touched block and the i-th non-minimal element of the missed block,
    whose minimum never appears.  The tests build each collection from
    explicit shifts and numerations as the oracle of this one.
    Each block's bit per slot is computed once per offset, and a collection
    ORs the bits of its offset tuple.
    """
    *touched, missed = _cyclic_blocks(t, k)
    # rotations[j][o][i]: the bit in slot i of touched block j at offset o
    rotations = []
    for b in touched:
        residual = [1 << (e - 1) for e in b if e not in t]
        rotations.append([residual[o:] + residual[:o] for o in range(k - 1)])
    last = [1 << (e - 1) for e in missed[1:]]  # blocks are sorted: minimum first
    for rotation in product(*rotations):
        coll = last
        for bits in rotation:
            coll = [q | bit for q, bit in zip(coll, bits)]
        union = 0
        for q in coll:
            if union & q:
                raise AssertionError("collection members must be pairwise disjoint")
            union |= q
        yield coll


# the largest k the class counter below was run at
BAD_PAIR_MAX_K = 9


def _defect_class_size(k: int, nonmin_singles: int) -> int:
    """Number of defect sets with a given doubled block, missed pair and
    minimum flags of the singles: C(k, 2) doubled pairs, and k-1 choices for
    each single that is not its block's minimum."""
    return k * (k - 1) // 2 * (k - 1) ** nonmin_singles


def class_bad_pair_stats(k: int) -> BadPairStats:
    """Mask/bad-pair statistics over the local universe, by class representatives.

    Defect sets have size k-1, width k-2, avoid the distinguished set: they
    double one block and miss two.  A mask is a distinguished-set-avoiding
    almost-full transversal missing the doubled block and doubling one of the
    two missed ones; a bad pair additionally requires disjointness and that
    the mask's element in the other missed block is not that block's minimum.

    The group G = prod_i Sym(B_i - {min B_i}) keeps every block and every
    block minimum, so it preserves disjointness, both set types and every
    minimum flag.  Moreover a defect set never meets the block its masks
    double, nor a mask the block the defect set doubles, so swapping the
    doubled pair of either for another pair of the same block changes no bad
    pair.  Hence every count is constant on a class: defect sets with the
    same doubled block, missed pair and minimum flags of the singles, and
    masks with the same missed and doubled blocks and minimum flags.  One
    representative per defect-set class is counted against every mask class
    of its two types, each bad pair found adds the defect class's size to the
    mask class's total, and double counting gives the per-mask count as that
    total over the mask class's size, which must divide it exactly.

    A mask class is every pair of its doubled block joined with every single
    choice of its class, and the defect set misses that block, so it
    meets no pair: the class's bad pairs with a defect set are its pairs
    times its single choices disjoint from the defect set.  Those choices
    are a product over the class's single blocks: a block at its minimum
    gives 1 if the defect set misses that minimum, else 0, and any other
    block gives k-1 less the number of its non-minimum elements in the
    defect set.
    """
    if k < 3:
        raise ValueError("need k >= 3")
    if k > BAD_PAIR_MAX_K:
        raise ValueError(f"bad-pair statistics need k <= {BAD_PAIR_MAX_K}, got k={k}")
    _, blocks = _local_layout(k)
    bits = [[1 << (e - 1) for e in b] for b in blocks]  # blocks sorted: min first
    block_masks = [sum(b) for b in bits]
    pairs = k * (k - 1) // 2  # pairs of a mask's doubled block

    # mask classes by type (missed block, doubled block): (class id, the
    # single blocks, their minimum flags as a bitmask over block indices)
    mask_classes: dict[tuple[int, int], list[tuple[int, list[int], int]]] = {}
    class_sizes: list[int] = []
    for miss in range(k):
        for dbl in range(k):
            if dbl == miss:
                continue
            singles = [i for i in range(k) if i not in (miss, dbl)]
            bucket = []
            for at_min in product((True, False), repeat=len(singles)):
                flags = sum(1 << i for i, m in zip(singles, at_min) if m)
                bucket.append((len(class_sizes), singles, flags))
                class_sizes.append(pairs * (k - 1) ** at_min.count(False))
            mask_classes[(miss, dbl)] = bucket

    totals = [0] * len(class_sizes)  # bad pairs per mask class
    per_t: Optional[int] = None
    num_t = 0
    for dbl_t in range(k):  # block doubled by the defect set
        others = [i for i in range(k) if i != dbl_t]
        pmask = bits[dbl_t][0] | bits[dbl_t][1]
        for missed in combinations(others, 2):
            singles = [i for i in others if i not in missed]
            for at_min in product((True, False), repeat=len(singles)):
                tmask = pmask
                for i, m in zip(singles, at_min):
                    tmask |= bits[i][0 if m else 1]
                # the single choices of block i that miss the defect set,
                # at the minimum and off it
                at_min_free = [0 if bits[i][0] & tmask else 1 for i in range(k)]
                off_min_free = [
                    k - 1 - (tmask & m & ~b[0]).bit_count() for m, b in zip(block_masks, bits)
                ]
                size = _defect_class_size(k, at_min.count(False))
                num_t += size
                cnt = 0
                for f, other in ((missed[0], missed[1]), (missed[1], missed[0])):
                    if block_masks[f] & tmask:
                        raise AssertionError("a defect set meets the block its masks double")
                    for cid, mask_singles, flags in mask_classes[(dbl_t, f)]:
                        if flags >> other & 1:
                            continue
                        hits = pairs
                        for i in mask_singles:
                            hits *= at_min_free[i] if flags >> i & 1 else off_min_free[i]
                        cnt += hits
                        totals[cid] += size * hits
                if per_t is None:
                    per_t = cnt
                elif per_t != cnt:
                    raise AssertionError(
                        f"per-defect-set mask count is not uniform: {per_t} vs {cnt}"
                    )
    per_mask = []
    for total, size in zip(totals, class_sizes):
        if total % size:
            raise AssertionError(
                f"bad pairs of a mask class ({total}) not divisible by its size ({size})"
            )
        per_mask.append(total // size)
    num_bad = sum(size for c, size in zip(per_mask, class_sizes) if c)
    bound = Fraction(k * (k - 1) ** (k - 2) * (k - 2), 2)
    return BadPairStats(
        per_t=per_t or 0,
        per_mask_max=max(per_mask, default=0),
        per_mask_bound=bound,
        num_t=num_t,
        num_bad_masks=num_bad,
    )


def profile(mask: int, k: int) -> tuple[int, ...]:
    """Intersection sizes of a local-universe set with G0, B_1, ..., B_k."""
    return tuple((mask & part).bit_count() for part in _part_masks(k))


def shape(t: KSet, k: int) -> tuple[int, ...]:
    """The profile (a0, a1, ..., a_c) of a size-(k-1) defect set: its
    positive block intersections a_i in block order, after a0 = k - sum a_i."""
    a = [x for x in profile(t.mask, k)[1:] if x]
    return (k - sum(a), *a)


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
    if k > 5:
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
        blocks = _cyclic_blocks(t, k)
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


@pytest.mark.parametrize(
    "k,expected",
    [
        (6, (18750, 7500, 194400, 582750)),
        (7, (326592, 136080, 5294205, 14822892)),
        (8, (6588344, 2823576, 154140672, 411040224)),
        (9, (150994944, 66060288, 4821232752, 12397453056)),
    ],
)
def test_bad_pair_stats_beyond_enumeration(k, expected):
    # (per_t, per_mask_max, num_t, num_bad_masks) where the oracle cannot run
    st = bad_pair_stats(k)
    assert (st.per_t, st.per_mask_max, st.num_t, st.num_bad_masks) == expected
    assert st.per_t == k * (k - 1) ** (k - 1)
    assert st.per_mask_max <= st.per_mask_bound


def test_bad_pair_stats_double_counting_guard(monkeypatch):
    # a wrong class multiplicity breaks the double count of the bad pairs,
    # and the statistics are refused rather than reported
    original = transversals._class_size

    def one_class_off(k, layouts, singles, at_min):
        return original(k, layouts, singles, at_min) + (at_min == 1)

    monkeypatch.setattr(transversals, "_class_size", one_class_off)
    with pytest.raises(AssertionError, match="by mask class .* and by defect set .* differ"):
        bad_pair_stats(4)


def test_bad_pair_stats_guards():
    with pytest.raises(ValueError):
        bad_pair_stats(2)
    # no upper gate: k = 10 is counted like any other k
    st = bad_pair_stats(10)
    assert st.per_t == 10 * 9**9
    assert st.per_mask_max == st.per_mask_bound


@pytest.mark.parametrize("k", range(3, 9))
def test_bad_pair_stats_equals_the_class_counter(k):
    assert bad_pair_stats(k) == class_bad_pair_stats(k)


@pytest.mark.parametrize("k", [3, 4, 5, 8, 13, 21, 40])
def test_bad_pair_stats_closed_forms(k):
    # cross-checks of the counted statistics; the rows never use these
    c2 = comb(k, 2)
    st = bad_pair_stats(k)
    assert st.num_t == k * comb(k - 1, 2) * c2 * k ** (k - 3)
    assert st.per_t == k * (k - 1) ** (k - 1)
    assert st.per_mask_max == c2 * (k - 2) * (k - 1) ** (k - 3)
    assert st.num_bad_masks == k * (k - 1) * c2 * (k ** (k - 2) - 1)


def enumerated_rows(k: int, check: str) -> list[AuditReport]:
    """The counts or the cyclic rows derived from the enumerators: the
    distinct full-profile sets among the k^k full transversals, and the
    collections of the canonical defect set, whose members must be full
    transversals avoiding t and the missed block's minimum, none shared."""
    params = {"k": k}
    parts = _part_masks(k)
    full = [0] + [1] * k
    if check == "counts":
        distinct = {
            m for m in full_transversal_masks(k) if [(m & p).bit_count() for p in parts] == full
        }
        wrong_weight = 0 if weight_value(k, k, 1, k, k) == 1 else 1
        return [
            make_report("transversal:full_count", params, len(distinct), k**k, "=="),
            make_report("transversal:full_weight", params, wrong_weight, 0, "=="),
        ]
    _, blocks = _local_layout(k)
    t = KSet.from_elements(ground(k), [b[0] for b in blocks[:-1]])
    avoid = t.mask | 1 << blocks[-1][0] - 1
    seen: set[int] = set()
    count = shared = 0
    for coll in cyclic_collection_masks(t, k):
        count += 1
        for q in coll:
            if q & avoid or q in seen or [(q & p).bit_count() for p in parts] != full:
                shared = 1
            seen.add(q)
    return [
        make_report("transversal:cyclic_collections", params, count, (k - 1) ** (k - 1), "=="),
        make_report("transversal:cyclic_no_shared", params, shared, 0, "=="),
    ]


@pytest.mark.parametrize(
    "k, check", [(k, "counts") for k in range(1, 8)] + [(k, "cyclic") for k in range(2, 8)]
)
def test_block_rows_equal_the_enumerated_rows(k, check):
    assert transversal_reports(k, check) == enumerated_rows(k, check)


def all_tables_cyclic_check(k: int) -> tuple[int, bool]:
    """``_cyclic_check`` with every rotation table held at once, O(k^3)
    memory: the version the one-table-at-a-time check replaced, kept as
    its oracle."""
    g0, blocks = _local_layout(k)
    *touched, missed = blocks
    t = [b[0] for b in touched]
    residuals = [[e for e in b if e not in t] for b in touched]
    tables = [transversals._rotation_table(r) for r in residuals]
    parts = [g0, t, *residuals, missed[1:]]  # blocks are sorted: minimum first
    elements = [e for part in parts for e in part]
    latin = all(
        len(line) == len(set(line)) == k - 1 and set(line) <= set(r)
        for r, table in zip(residuals, tables)
        for line in (*table, *zip(*table))
    )
    return prod(map(len, tables)), latin and len(set(elements)) == len(elements)


def test_cyclic_check_equals_the_all_tables_check():
    for k in range(2, 71):
        assert _cyclic_check(k) == all_tables_cyclic_check(k) == ((k - 1) ** (k - 1), True)


@pytest.mark.parametrize(
    "fault",
    [
        lambda table: [table[0]] + table[:-1],  # a repeated row
        lambda table: table[:-1],  # a missing row
        lambda table: [[table[0][-1]] + table[0][1:]] + table[1:],  # a repeated element
        lambda table: [[1] + table[0][1:]] + table[1:],  # t's element of block 1
    ],
    ids=["repeated-row", "missing-row", "repeated-element", "t-element"],
)
@pytest.mark.parametrize("k", [3, 4, 7])
def test_cyclic_check_equals_the_all_tables_check_on_faulty_tables(monkeypatch, k, fault):
    original = transversals._rotation_table
    monkeypatch.setattr(transversals, "_rotation_table", lambda r: fault(original(r)))
    streamed = transversals._cyclic_check(k)
    assert streamed == all_tables_cyclic_check(k)
    assert streamed[1] is False


def test_cyclic_check_holds_one_table_at_a_time():
    # all k-1 tables of k = 120 at once take 15 MiB; one takes well under 1
    tracemalloc.start()
    try:
        assert _cyclic_check(120) == (119**119, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_transversal_reports_refuse_before_any_row(monkeypatch):
    def no_row(*args):
        raise AssertionError("a row was computed")

    for name in ("_full_count", "_cyclic_check", "bad_pair_stats", "q_family_check"):
        monkeypatch.setattr(transversals, name, no_row)
    monkeypatch.setattr("emckit.audit.product_inequality_report", no_row)
    for k, check, message in (
        (1, "all", "--check cyclic needs k >= 2, got k=1"),
        (1, "cyclic", "--check cyclic needs k >= 2, got k=1"),
        (2, "all", "--check badpairs needs k >= 3, got k=2"),
        (2, "badpairs", "--check badpairs needs k >= 3, got k=2"),
        (1, "product", "--check product needs k >= 2, got k=1"),
        (0, "q", "--check q needs k >= 1, got k=0"),
        (0, "counts", "--check counts needs k >= 1, got k=0"),
        (3, "count", "unknown transversal check 'count'"),
    ):
        with pytest.raises(ValueError) as info:
            transversal_reports(k, check)
        assert str(info.value) == message


# the construction that q_family replaced, kept verbatim as its oracle: it
# reads the slots of t and the skipped block mu_i from prefix sums of the
# profile
class ShapeProfile(NamedTuple):
    """Intersection shape of a size-(k-1) defect set, padding convention.

    ``a`` lists (a_1, ..., a_c) block intersections (positive, touched blocks
    first); ``a0 = k - sum(a)`` is at least 1 by the padding convention (the
    set has k - 1 - sum(a) distinguished elements).  ``mus[i-1]`` is the
    block index mu_i = min{j : p_j >= i} for i = 1..p.
    """

    a0: int
    a: tuple[int, ...]
    mus: tuple[int, ...]

    @property
    def p(self) -> int:
        return sum(self.a)


def shape_profile(t: KSet, k: int) -> ShapeProfile:
    if t.size != k - 1:
        raise ValueError("need |t| = k-1")
    touched, _ = _split_blocks(k, t)
    a = tuple((t.mask & mask_of(prefix_size(k, k), b)).bit_count() for b in touched)
    p = sum(a)
    a0 = k - p
    if a0 < 1:
        raise ValueError("profile requires a0 >= 1")
    prefix_sums = [0]
    for ai in a:
        prefix_sums.append(prefix_sums[-1] + ai)
    mus = tuple(
        next(j for j in range(1, len(a) + 1) if prefix_sums[j] >= i)
        for i in range(1, p + 1)
    )
    return ShapeProfile(a0, a, mus)


def q_family_by_profile(t: KSet, pis: Sequence[CyclicShift], k: int) -> list[KSet]:
    """k pairwise disjoint transversals covering around a size-(k-1) defect set.

    Blocks are reordered so the touched ones come first.  The first p = sum(a)
    outputs are almost-full transversals (each borrows one free distinguished
    element and skips one touched block); the rest are full transversals.
    ``pis`` holds k+1 cyclic shifts: one on the free distinguished elements,
    then one per block residual, canonical increasing numeration.
    """
    g0, _ = _local_layout(k)
    prof = shape_profile(t, k)  # validates size and a0 >= 1
    touched, untouched = _split_blocks(k, t)
    ordered = touched + untouched
    c = len(touched)
    a = prof.a
    p = prof.p

    prefix_sums = [0]
    for ai in a:
        prefix_sums.append(prefix_sums[-1] + ai)

    # per-block numeration: touched block i keeps t's elements in slots
    # p_{i-1}+1..p_i, residual fills the remaining slots in increasing order
    numer: list[list[int]] = []
    for i, b in enumerate(ordered, start=1):
        slots: list[Optional[int]] = [None] * k
        if i <= c:
            t_elts = sorted(e for e in b if e in t)
            lo, hi = prefix_sums[i - 1], prefix_sums[i]
            for idx, e in enumerate(t_elts):
                slots[lo + idx] = e
            residual = sorted(e for e in b if e not in t)
        else:
            residual = sorted(b)
        it = iter(residual)
        for j in range(k):
            if slots[j] is None:
                slots[j] = next(it)
        numer.append(slots)  # type: ignore[arg-type]

    g0_t = sorted(e for e in g0 if e in t)
    g0_free = sorted(e for e in g0 if e not in t)
    g_numer = g0_free + g0_t  # free slots 1..p, t's slots p+1..k-1

    if len(pis) != k + 1:
        raise ValueError("need k+1 cyclic shifts")
    if set(pis[0].base) != set(g0_free):
        raise ValueError("shift 0 must act on the free distinguished elements")
    for j in range(1, k + 1):
        residual = [e for e in ordered[j - 1] if e not in t]
        if set(pis[j].base) != set(residual):
            raise ValueError(f"shift {j} must act on the residual of block {j}")

    ground = prefix_size(k, k)
    out = []
    for i in range(1, k + 1):
        if i <= p:
            mu = prof.mus[i - 1]
            elems = [
                pis[j].apply(numer[j - 1][i - 1]) for j in range(1, k + 1) if j != mu
            ]
            elems.append(pis[0].apply(g_numer[i - 1]))
        else:
            elems = [pis[j].apply(numer[j - 1][i - 1]) for j in range(1, k + 1)]
        out.append(KSet.from_elements(ground, elems))

    union = t.mask
    for q in out:
        if union & q.mask:
            raise AssertionError("outputs must be disjoint from each other and from t")
        union |= q.mask
    return out


def test_shape_profile():
    k = 4
    g0, blocks = _local_layout(k)
    t = KSet.from_elements(ground(k), [blocks[0][0], blocks[0][1], g0[0]])
    prof = shape_profile(t, k)
    assert prof.a == (2,)
    assert prof.a0 == 2
    assert prof.p == 2
    assert shape(t, k) == (2, 2)


def shift_pools(t: KSet, k: int) -> list[list[CyclicShift]]:
    """The shifts ``q_family`` admits for each of its k+1 parts: the free
    distinguished elements, then the block residuals, touched blocks first."""
    g0, _ = _local_layout(k)
    touched, untouched = _split_blocks(k, t)
    pools = [shifts_of([e for e in g0 if e not in t])]
    for b in touched + untouched:
        pools.append(shifts_of([e for e in b if e not in t]))
    return pools


def all_shift_collections(t: KSet, k: int) -> Iterator[list[CyclicShift]]:
    """All admissible shift tuples for ``q_family``.

    There are (k - a0)(k - a1)...(k - a_c) * k^(k-c) of them, with the
    factor k - a0 = p, the shifts of the free distinguished elements, read
    as 1 at p = 0.
    """
    for combo in product(*shift_pools(t, k)):
        yield list(combo)


def test_q_family_counts_and_disjointness():
    k = 3
    g0, blocks = _local_layout(k)
    t = KSet.from_elements(ground(k), [blocks[0][0], g0[0]])
    a0, a1 = shape(t, k)
    colls = list(all_shift_collections(t, k))
    expected = (k - a0) * (k - a1) * k ** (k - 1)
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
    counts: dict[int, int] = {}
    for pis in all_shift_collections(t, k):
        for q in q_family(t, pis, k):
            counts[q.mask] = counts.get(q.mask, 0) + 1
    bound = max(a * (k - a) for a in shape(t, k)) * k ** (k - 1)
    assert max(counts.values()) <= bound


def expected_shift_count(t: KSet, k: int) -> int:
    """(k - a0)(k - a1)...(k - a_c) k^(k-c), with k - a0 = p read as 1 at p = 0."""
    a0, *a = shape(t, k)
    if a0 == k:  # no touched block, no free distinguished element
        return k**k
    count = k - a0
    for ai in a:
        count *= k - ai
    return count * k ** (k - len(a))


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
        representatives.setdefault(shape(t, k), t)
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


def test_q_family_equals_the_profile_construction():
    # every (defect set, shift tuple) pair at k <= 3
    calls = 0
    for k in (1, 2, 3):
        for t in defect_sets(k):
            for pis in all_shift_collections(t, k):
                assert q_family(t, pis, k) == q_family_by_profile(t, pis, k)
                calls += 1
    assert calls == 1174
    # every defect set at k = 4, with the identity tuple and two seeded ones
    k = 4
    rng = random.Random(4)
    sets = 0
    for t in defect_sets(k):
        pools = shift_pools(t, k)
        tuples = [[pool[0] for pool in pools]]
        tuples += [[rng.choice(pool) for pool in pools] for _ in range(2)]
        for pis in tuples:
            assert q_family(t, pis, k) == q_family_by_profile(t, pis, k)
        sets += 1
    assert sets == 969


def test_q_family_refuses_bad_input():
    k = 3
    g0, blocks = _local_layout(k)
    # t touches only the last block, so it comes first in the shift tuple
    t = KSet.from_elements(ground(k), [blocks[2][0], g0[0]])
    pis = next(all_shift_collections(t, k))
    in_block_order = [pis[0], identity_shift(blocks[0]), identity_shift(blocks[1]), pis[1]]
    for t_, pis_, message in (
        (KSet.from_elements(ground(k), [blocks[2][0]]), pis, "need |t| = k-1"),
        (t, pis[:-1], "need k+1 cyclic shifts"),
        (
            t,
            [identity_shift(g0)] + pis[1:],
            "shift 0 must act on the free distinguished elements",
        ),
        (t, pis[:2] + [pis[3], pis[2]], "shift 2 must act on the residual of block 2"),
        (t, in_block_order, "shift 1 must act on the residual of block 1"),
    ):
        with pytest.raises(ValueError) as info:
            q_family(t_, pis_, k)
        assert str(info.value) == message


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """The compositions of ``total`` into ``parts`` positive parts, in
    lexicographic order; only the empty one for ``total = parts = 0``."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


# the profile walk that the row types of q_family_check replaced, kept
# verbatim as its oracle, but for reading q_family from the module
def q_family_check_by_profile(k: int) -> tuple[int, Optional[tuple[int, ...]]]:
    """The failing profiles of ``q_family`` and the first one, with one
    representative per profile and the identity shift tuple."""
    g0, blocks = _local_layout(k)
    failures = 0
    first_failure = None
    for p in range(k):
        for c in range(p + 1):
            for comp in _compositions(p, c):
                elems = list(g0[: k - 1 - p])
                for b, ai in zip(blocks, comp):
                    elems.extend(b[:ai])
                t = KSet.from_elements(prefix_size(k, k), elems)
                # q_family puts the touched blocks first; t touches blocks
                # 1..c, so its shifts come in block order
                identity = [
                    CyclicShift(tuple(e for e in part if e not in t), 0)
                    for part in (g0, *blocks)
                ]
                try:
                    qs = transversals.q_family(t, identity, k)
                except AssertionError:
                    qs = []
                cover = [e for q in qs for e in q.elements] + elems
                if len(qs) != k or any(q.size != k for q in qs) or len(set(cover)) != len(cover):
                    failures += 1
                    if first_failure is None:
                        first_failure = (k - p,) + comp
    return failures, first_failure


@pytest.mark.parametrize("k", list(range(1, 8)))
def test_q_family_check_visits_every_profile_once(k, monkeypatch):
    # the walk meets each of the 2^(k-1) profiles once, and with every row
    # bad the row types count each of them as failing
    seen = []

    def failing(t, pis, k):
        seen.append(shape(t, k))
        raise AssertionError("injected")

    monkeypatch.setattr(transversals, "q_family", failing)
    assert q_family_check_by_profile(k) == (2 ** (k - 1), (k,))
    assert len(set(seen)) == len(seen) == 2 ** (k - 1)
    assert all(sum(prof) == k and min(prof) >= 1 for prof in seen)
    monkeypatch.setattr(transversals, "_slot_row", lambda block, in_t, p: [0] * len(block))
    assert q_family_check(k) == (2 ** (k - 1), (k,))


def test_q_family_check_counts_a_short_cover_as_a_failure(monkeypatch):
    # a touched block that repeats t's element in its last slot leaves a
    # residual element out, and the last output one short
    original = transversals._slot_row

    def short(block, in_t, p):
        row = original(block, in_t, p)
        return row[:-1] + [row[p]] if in_t.intersection(block) else row

    monkeypatch.setattr(transversals, "_slot_row", short)
    assert q_family_check(3) == q_family_check_by_profile(3) == (3, (2, 1))
    with pytest.raises(ValueError):
        q_family_check(0)


def test_q_family_check_equals_the_walk_on_injected_row_faults(monkeypatch):
    # each trial breaks the rows of one type (p, a), inside the block: two
    # slots swapped, or one slot copied over another (which may repeat an
    # element of t and still give a disjoint cover)
    original = transversals._slot_row

    def inject(fault_type, i, j, copy):
        def faulty(block, in_t, p):
            row = original(block, in_t, p)
            if (p, len(in_t.intersection(block))) == fault_type:
                row[j], row[i] = row[i], row[i] if copy else row[j]
            return row

        return faulty

    rng = random.Random(28)
    outcomes = []
    for _ in range(150):
        k = rng.randint(1, 9)
        p = rng.randrange(k)
        fault_type = (p, rng.randrange(k - p))
        i, j = rng.randrange(k), rng.randrange(k)
        monkeypatch.setattr(transversals, "_slot_row", inject(fault_type, i, j, rng.random() < 0.5))
        walked = q_family_check_by_profile(k)
        assert q_family_check(k) == walked, (k, fault_type, i, j)
        outcomes.append(len(walked[1] or ()))
    # 58 trials fail, with first failures of two parts and of three
    assert sum(map(bool, outcomes)) == 58 and {2, 3} <= set(outcomes)


@pytest.mark.parametrize("k", list(range(2, 11)))
def test_product_inequality(k):
    assert product_inequality_check(k) == (0, None)


# the composition walk that the partition walk of product_inequality_check
# replaced, kept as its oracle; it reads the inequality from
# audit._claim8_holds, so both walks can be run on a perturbed one
def product_inequality_by_composition(k: int) -> tuple[int, Optional[tuple[int, ...]]]:
    """The violating profiles (a0, a1, ..., a_c) and the first one, over
    every composition of k into at least two parts."""
    if k < 2:
        raise ValueError("need k >= 2")
    violations = 0
    first_violation = None
    for a0 in range(1, k):
        rem = k - a0
        for c in range(1, rem + 1):
            for comp in _compositions(rem, c):
                product = k - a0
                for ai in comp:
                    product *= k - ai
                worst = max(ai * (k - ai) for ai in (a0,) + comp)
                if not audit._claim8_holds(k, product, worst, c):
                    violations += 1
                    if first_violation is None:
                        first_violation = (a0,) + comp
    return violations, first_violation


# the partition walk that product_inequality_check now cuts short, kept as
# its oracle: it tests every partition of k into at least two parts
def product_inequality_by_partition(k: int) -> tuple[int, Optional[tuple[int, ...]]]:
    """The violating profiles and the first one, from each partition of k
    into at least two parts, tested once and counted with its orderings."""
    if k < 2:
        raise ValueError("need k >= 2")
    violations = 0
    first = None
    stack = [((), 1, 0, k)]
    while stack:
        parts, product, worst, rest = stack.pop()
        if parts and not audit._claim8_holds(
            k, product * (k - rest), max(worst, rest * (k - rest)), len(parts)
        ):
            full = parts + (rest,)
            repeats = prod(factorial(full.count(a)) for a in set(full))
            violations += factorial(len(full)) // repeats
            key = (full[0], len(full), full)
            first = min(first, key) if first else key
        for a in range(parts[-1] if parts else 1, rest // 2 + 1):
            stack.append((parts + (a,), product * (k - a), max(worst, a * (k - a)), rest - a))
    return violations, first[2] if first else None


def test_claim8_holds_is_the_unreduced_inequality():
    for k in range(2, 7):
        for c in range(1, k):
            for product in range(60):
                for worst in range(60):
                    unreduced = product * k ** (k - c) >= worst * k ** (k - 1)
                    assert audit._claim8_holds(k, product, worst, c) == unreduced


def test_product_inequality_partitions_equal_the_compositions_when_perturbed(monkeypatch):
    # the right side scaled, and two residue tests of the class invariants
    # that move the first violation off (1, k-1)
    original = audit._claim8_holds

    def scaled(scale):
        return lambda k, product, worst, c: original(k, product, scale * worst, c)

    perturbed = [scaled(scale) for scale in (1, 2, 3, 10)]
    perturbed.append(lambda k, product, worst, c: (7 * product + worst) % 5 != 1)
    perturbed.append(lambda k, product, worst, c: product % 4 != 0)
    results = []
    for rule, holds in enumerate(perturbed):
        monkeypatch.setattr(audit, "_claim8_holds", holds)
        for k in range(2, 14):
            walked = product_inequality_by_composition(k)
            assert product_inequality_by_partition(k) == walked, (rule, k)
            # the package walk cuts by the product bound, which only the
            # scaled rules keep
            if rule < 4:
                assert product_inequality_check(k) == walked, (rule, k)
            results.append(walked)
    assert results[:12] == [(0, None)] * 12
    assert (1814, (1, 11)) in results and (1, (2, 2, 2)) in results and (9, (2, 2, 7)) in results


@pytest.mark.parametrize("k", list(range(2, 21)))
def test_product_inequality_orderings_cover_every_profile(k, monkeypatch):
    # every class violates, so nothing is cut and the orderings sum to the
    # compositions of k into at least two parts
    monkeypatch.setattr(audit, "_claim8_holds", lambda k, product, worst, c: False)
    walked = product_inequality_by_composition(k)
    assert product_inequality_check(k) == walked == (2 ** (k - 1) - 1, (1, k - 1))


@pytest.mark.parametrize("k", [*range(2, 41), 50, 63])
def test_product_inequality_equals_the_partition_walk(k):
    assert product_inequality_check(k) == product_inequality_by_partition(k) == (0, None)


def test_product_inequality_tests_half_of_k_partitions(monkeypatch):
    # the walk tests (a, k - a) for a <= k/2; each holds, and the proof
    # closes every partition below it
    original, tested = audit._claim8_holds, []
    monkeypatch.setattr(audit, "_claim8_holds", lambda *args: tested.append(args) or original(*args))
    for k in range(2, 64):
        tested.clear()
        assert product_inequality_check(k) == (0, None)
        assert len(tested) == k // 2, k
