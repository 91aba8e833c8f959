"""Full transversals of the local universe, cyclic-shift
collections, mask/bad-pair statistics, and the disjoint-cover construction
for defect sets, together with its multiplicity bounds.

All constructions live inside the local universe of a frame: the
distinguished (k-1)-set plus the k selected blocks B_1..B_k.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from typing import Iterator, NamedTuple, Optional, Sequence

from .core import KSet, mask_of
from .weights import WeightFrame

# largest k whose bad-pair statistics are counted; k = 7 needs about 2.4e9 pair tests
BAD_PAIR_MAX_K = 6


class _Rotation(NamedTuple):
    base: tuple[int, ...]
    offset: int


# a NamedTuple cannot override __new__, so the offset check lives in a subclass
class CyclicShift(_Rotation):
    """A rotation of a listed set: element at position i maps to position i+offset."""

    __slots__ = ()

    def __new__(cls, base: tuple[int, ...], offset: int):
        if base and not 0 <= offset < len(base):
            raise ValueError("offset outside [0, len(base))")
        return super().__new__(cls, base, offset)

    def apply(self, x: int) -> int:
        i = self.base.index(x)
        return self.base[(i + self.offset) % len(self.base)]


def shifts_of(elements: Sequence[int]) -> list[CyclicShift]:
    """All cyclic shifts on a set, canonical increasing numeration."""
    base = tuple(sorted(elements))
    if not base:
        return [CyclicShift((), 0)]
    return [CyclicShift(base, j) for j in range(len(base))]


class Transversal(NamedTuple):
    set: KSet
    kind: str  # "full" | "almost_full"
    profile: tuple[int, ...]  # intersection sizes with G0, B_1, ..., B_k
    weight: Fraction = Fraction(1)


def _local_layout(frame: WeightFrame):
    blocks = [tuple(sorted(b)) for b in frame.b_blocks()]
    g0 = tuple(sorted(frame.g0_elements()))
    return g0, blocks


def _part_masks(frame: WeightFrame) -> list[int]:
    """Masks of the distinguished set and the selected blocks, in that order."""
    g0, blocks = _local_layout(frame)
    return [mask_of(frame.prefix, part) for part in (g0, *blocks)]


def _profile(mask: int, parts: list[int]) -> tuple[int, ...]:
    return tuple((mask & part).bit_count() for part in parts)


def full_transversals(frame: WeightFrame) -> Iterator[Transversal]:
    """All k^k sets taking exactly one element from each selected block."""
    _, blocks = _local_layout(frame)
    parts = _part_masks(frame)
    ground = frame.prefix
    for choice in product(*blocks):
        ks = KSet.from_elements(ground, choice)
        yield Transversal(ks, "full", _profile(ks.mask, parts), Fraction(1))


def _split_blocks(frame: WeightFrame, t: KSet) -> tuple[list, list]:
    """The selected blocks that t meets, then those it misses, in M order."""
    _, blocks = _local_layout(frame)
    met: list[tuple[int, ...]] = []
    missed: list[tuple[int, ...]] = []
    for b in blocks:
        (met if t.mask & mask_of(frame.prefix, b) else missed).append(b)
    return met, missed


def blocks_missing_last(frame: WeightFrame, t: KSet) -> list[tuple[int, ...]]:
    """Selected blocks reordered so that the single block missed by t is last.

    Relabeling utility for the cyclic-shift construction, which distinguishes
    the missed block.
    """
    touched, missed = _split_blocks(frame, t)
    if len(missed) != 1:
        raise ValueError("set must miss exactly one selected block")
    return touched + missed


def cyclic_collection(
    t: KSet, sigmas: Sequence[CyclicShift], frame: WeightFrame
) -> list[KSet]:
    """The k-1 pairwise disjoint full transversals generated from a defect set.

    ``t`` must have size k-1, width k-1, avoid the distinguished set, and
    miss exactly one block (reordered to be last).  ``sigmas`` are k-1 cyclic
    shifts acting on the residuals of the touched blocks (canonical
    increasing numeration).  The minimal element of the missed block is the
    distinguished last numeration slot and never appears in the output.
    """
    k = frame.k
    g0, _ = _local_layout(frame)
    if t.size != k - 1:
        raise ValueError("need |t| = k-1")
    if t.mask & mask_of(frame.prefix, g0):
        raise ValueError("t must avoid the distinguished set")
    blocks = blocks_missing_last(frame, t)
    for b in blocks[:-1]:
        if (t.mask & mask_of(frame.prefix, b)).bit_count() != 1:
            raise ValueError("t must meet each touched block exactly once")
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

    ground = frame.prefix
    out = []
    for i in range(1, k):
        elems = [sigmas[j].apply(numer[j][i - 1]) for j in range(k - 1)]
        elems.append(numer[k - 1][i - 1])
        out.append(KSet.from_elements(ground, elems))
    union = 0
    for q in out:
        if union & q.mask:
            raise AssertionError("collection members must be pairwise disjoint")
        union |= q.mask
    return out


def all_cyclic_collections(t: KSet, frame: WeightFrame) -> Iterator[list[KSet]]:
    """All (k-1)^(k-1) cyclic-shift collections for a given defect set."""
    blocks = blocks_missing_last(frame, t)
    residuals = []
    for b in blocks[:-1]:
        t_elt = next(e for e in b if e in t)
        residuals.append([e for e in b if e != t_elt])
    for sigmas in product(*(shifts_of(r) for r in residuals)):
        yield cyclic_collection(t, list(sigmas), frame)


class BadPairStats(NamedTuple):
    per_t: int  # masks in a bad pair with any fixed defect set (uniform)
    per_mask_max: int  # maximum defect sets paired with one mask
    per_mask_bound: Fraction  # k(k-1)^(k-2)(k-2)/2
    num_t: int
    num_bad_masks: int
    doubling_ok: bool  # 2 * num_t <= num_bad_masks


def _defect_class_size(k: int, nonmin_singles: int) -> int:
    """Number of defect sets with a given doubled block, missed pair and
    minimum flags of the singles: C(k, 2) doubled pairs, and k-1 choices for
    each single that is not its block's minimum."""
    return k * (k - 1) // 2 * (k - 1) ** nonmin_singles


def bad_pair_stats(frame: WeightFrame, k: int) -> BadPairStats:
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
    representative per defect-set class is tested against every mask of its
    two types, each bad pair found adds the defect class's size to the mask
    class's total, and double counting gives the per-mask count as that
    total over the mask class's size, which must divide it exactly.
    """
    if frame.k != k:
        raise ValueError("frame and k disagree")
    if k < 3:
        raise ValueError("need k >= 3")
    if k > BAD_PAIR_MAX_K:
        raise ValueError(f"bad-pair statistics need k <= {BAD_PAIR_MAX_K}, got k={k}")
    _, blocks = _local_layout(frame)
    bits = [[1 << (e - 1) for e in b] for b in blocks]  # blocks sorted: min first

    # mask classes by type (missed block, doubled block): (class id, minimum
    # flags of the singles as a bitmask over block indices, its masks)
    mask_classes: dict[tuple[int, int], list[tuple[int, int, list[int]]]] = {}
    class_sizes: list[int] = []
    for miss in range(k):
        for dbl in range(k):
            if dbl == miss:
                continue
            singles = [i for i in range(k) if i not in (miss, dbl)]
            by_flags: dict[int, list[int]] = {}  # single choices by minimum flags
            for pos in product(range(k), repeat=len(singles)):  # 0 = block minimum
                flags = sum(1 << i for i, j in zip(singles, pos) if j == 0)
                by_flags.setdefault(flags, []).append(
                    sum(bits[i][j] for i, j in zip(singles, pos))
                )
            pmasks = [a | b for a, b in combinations(bits[dbl], 2)]
            bucket = []
            for flags, ms in sorted(by_flags.items()):
                masks = [pm | m for pm in pmasks for m in ms]
                bucket.append((len(class_sizes), flags, masks))
                class_sizes.append(len(masks))
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
                size = _defect_class_size(k, at_min.count(False))
                num_t += size
                cnt = 0
                for f, other in ((missed[0], missed[1]), (missed[1], missed[0])):
                    for cid, flags, masks in mask_classes[(dbl_t, f)]:
                        if flags >> other & 1:
                            continue
                        hits = sum(1 for q in masks if not q & tmask)
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
        doubling_ok=2 * num_t <= num_bad,
    )


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


def shape_profile(t: KSet, frame: WeightFrame) -> ShapeProfile:
    k = frame.k
    if t.size != k - 1:
        raise ValueError("need |t| = k-1")
    touched, _ = _split_blocks(frame, t)
    a = tuple((t.mask & mask_of(frame.prefix, b)).bit_count() for b in touched)
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


def q_family(
    t: KSet, pis: Sequence[CyclicShift], frame: WeightFrame
) -> list[KSet]:
    """k pairwise disjoint transversals covering around a size-(k-1) defect set.

    Blocks are reordered so the touched ones come first.  The first p = sum(a)
    outputs are almost-full transversals (each borrows one free distinguished
    element and skips one touched block); the rest are full transversals.
    ``pis`` holds k+1 cyclic shifts: one on the free distinguished elements,
    then one per block residual, canonical increasing numeration.
    """
    g0, _ = _local_layout(frame)
    k = frame.k
    prof = shape_profile(t, frame)  # validates size and a0 >= 1
    touched, untouched = _split_blocks(frame, t)
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

    ground = frame.prefix
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


def all_shift_collections(t: KSet, frame: WeightFrame) -> Iterator[list[CyclicShift]]:
    """All admissible shift tuples for ``q_family``.

    There are (k - a0)(k - a1)...(k - a_c) * k^(k-c) of them.
    """
    g0, _ = _local_layout(frame)
    touched, untouched = _split_blocks(frame, t)
    ordered = touched + untouched
    g0_free = [e for e in g0 if e not in t]
    pools = [shifts_of(g0_free)]
    for b in ordered:
        pools.append(shifts_of([e for e in b if e not in t]))
    for combo in product(*pools):
        yield list(combo)


def product_inequality_check(k: int) -> tuple[int, Optional[tuple[int, ...]]]:
    """Shift-count inequality over every admissible intersection profile.

    For a0 >= 1, a_i >= 1 with a0 + a1 + ... + a_c = k, checks
    (k-a0)...(k-a_c) k^(k-c) >= max_i a_i (k-a_i) * k^(k-1) exhaustively
    over integer compositions.  Returns the number of violating profiles and
    the first one, (a0, a1, ..., a_c), or None when there is none.
    """
    if k < 2:
        raise ValueError("need k >= 2")

    def compositions(total: int, parts: int):
        if parts == 1:
            yield (total,)
            return
        for first in range(1, total - parts + 2):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    violations = 0
    first_violation = None
    for a0 in range(1, k):
        rem = k - a0
        for c in range(1, rem + 1):
            for comp in compositions(rem, c):
                lhs = k - a0
                for ai in comp:
                    lhs *= k - ai
                lhs *= k ** (k - c)
                rhs = max(ai * (k - ai) for ai in (a0,) + comp) * k ** (k - 1)
                if lhs < rhs:
                    violations += 1
                    if first_violation is None:
                        first_violation = (a0,) + comp
    return violations, first_violation
