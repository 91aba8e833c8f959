"""Full transversals of the local universe, cyclic-shift
collections, mask/bad-pair statistics, and the disjoint-cover construction
for defect sets, together with its multiplicity bounds; and the report rows
of these checks (``transversal_reports``).

All constructions live inside the local universe: the distinguished
(k-1)-set plus the k blocks B_1..B_k, laid out canonically in the prefix
[(k+1)k-1] (see ``_local_layout``).  Each function takes k alone.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from typing import Iterator, NamedTuple, Optional, Sequence

from .constructions import prefix_size
from .core import KSet, _compositions, mask_of
from .report import AuditReport, make_report
from .weights import weight_value

# largest k whose bad-pair statistics are counted (about 2 s at k = 9)
BAD_PAIR_MAX_K = 9

# the rows of ``transversal_reports``, in the order "all" runs them
TRANSVERSAL_CHECKS = ("counts", "cyclic", "badpairs", "q", "product")
# (least k, largest k or None) of each check: cyclic needs a defect set
# touching k-1 blocks, badpairs one doubling a block and missing two, and
# product a profile with a0 < k; counts lists the k^k full transversals,
# cyclic the (k-1)^(k-1) collections (about 9 s and 21 MB at k = 8)
CHECK_K_RANGE = {
    "counts": (1, 7),
    "cyclic": (2, 8),
    "badpairs": (3, BAD_PAIR_MAX_K),
    "q": (1, None),
    "product": (2, None),
}


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


def _local_layout(k: int) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """The distinguished set and the blocks B_1..B_k of the local universe.

    This is the canonical layout of the frame (n, k, s) = ((k+1)k, k, k):
    block i is {(i-1)k+1, ..., ik}, the distinguished set is
    {k^2+1, ..., k^2+k-1}, and sets live on the prefix [(k+1)k-1].
    """
    if k < 1:
        raise ValueError("need k >= 1")
    blocks = [tuple(range(i * k + 1, (i + 1) * k + 1)) for i in range(k)]
    return tuple(range(k * k + 1, k * (k + 1))), blocks


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


def _split_blocks(k: int, t: KSet) -> tuple[list, list]:
    """The blocks that t meets, then those it misses, in block order."""
    _, blocks = _local_layout(k)
    met: list[tuple[int, ...]] = []
    missed: list[tuple[int, ...]] = []
    for b in blocks:
        (met if t.mask & mask_of(prefix_size(k, k), b) else missed).append(b)
    return met, missed


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


class BadPairStats(NamedTuple):
    per_t: int  # masks in a bad pair with any fixed defect set (uniform)
    per_mask_max: int  # maximum defect sets paired with one mask
    per_mask_bound: Fraction  # k(k-1)^(k-2)(k-2)/2
    num_t: int
    num_bad_masks: int


def _defect_class_size(k: int, nonmin_singles: int) -> int:
    """Number of defect sets with a given doubled block, missed pair and
    minimum flags of the singles: C(k, 2) doubled pairs, and k-1 choices for
    each single that is not its block's minimum."""
    return k * (k - 1) // 2 * (k - 1) ** nonmin_singles


def bad_pair_stats(k: int) -> BadPairStats:
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


def q_family(t: KSet, pis: Sequence[CyclicShift], k: int) -> list[KSet]:
    """k pairwise disjoint k-sets avoiding a size-(k-1) defect set t.

    The construction reads one slot table.  The blocks are walked with those
    t touches first, each group in block order, and each block gets slots
    1..k: t's elements in the block take the next slots of a running
    counter, and the block's residual fills the other slots in increasing
    order.  So t's p elements in the blocks hold slots 1..p, one block each,
    and its other k-1-p elements leave p distinguished elements free.
    Output i takes slot i of every block whose slot i does not hold an
    element of t; when i <= p that skips exactly one block, and the output
    takes the i-th free distinguished element instead.  So the first p
    outputs are almost-full transversals and the rest full ones.  ``pis``
    holds k+1 cyclic shifts: one on the free distinguished elements, then
    one per block residual in the walk's order, canonical increasing
    numeration; each element an output takes is mapped by its part's shift.
    """
    g0, _ = _local_layout(k)
    if t.size != k - 1:
        raise ValueError("need |t| = k-1")
    touched, untouched = _split_blocks(k, t)
    ordered = touched + untouched
    in_t = set(t.elements)
    table = []
    p = 0
    for b in ordered:
        held = [e for e in b if e in in_t]
        residual = [e for e in b if e not in in_t]
        table.append(residual[:p] + held + residual[p:])
        p += len(held)
    g0_free = [e for e in g0 if e not in in_t]  # p of them, since |t| = k-1

    if len(pis) != k + 1:
        raise ValueError("need k+1 cyclic shifts")
    if set(pis[0].base) != set(g0_free):
        raise ValueError("shift 0 must act on the free distinguished elements")
    for j, b in enumerate(ordered, start=1):
        if set(pis[j].base) != {e for e in b if e not in in_t}:
            raise ValueError(f"shift {j} must act on the residual of block {j}")

    ground = prefix_size(k, k)
    out = []
    for i in range(k):
        elems = [pi.apply(row[i]) for pi, row in zip(pis[1:], table) if row[i] not in in_t]
        if i < p:
            elems.append(pis[0].apply(g0_free[i]))
        out.append(KSet.from_elements(ground, elems))

    union = t.mask
    for q in out:
        if union & q.mask:
            raise AssertionError("outputs must be disjoint from each other and from t")
        union |= q.mask
    return out


def q_family_check(k: int) -> tuple[int, Optional[tuple[int, ...]]]:
    """Disjointness of ``q_family`` for every size-(k-1) defect set and every
    shift tuple, decided on one defect set per intersection profile.

    ``q_family`` sees t only through its profile (a0; a1, ..., a_c): relabel
    the blocks keeping the order within the touched and within the untouched
    ones, and inside each block and inside the distinguished set map t's part
    and the residual each in increasing order.  The relabelling carries t's
    slot table slot by slot onto that of any defect set with the same
    profile, and each canonical cyclic shift onto one, so the construction
    commutes with it.  Every size-(k-1) set has a0 = k - p >= 1 with
    p = a1 + ... + a_c, so the profiles are the compositions of p = 0..k-1:
    exactly 2^(k-1) of them.

    Disjointness does not depend on the shift tuple.  Output i takes slot i
    of each block, skipping, when i <= p, the block whose slot i holds t's
    element, so every slot it takes holds a residual element: t's elements
    in the blocks hold slots 1..p, one block per slot.  Distinct i use
    distinct slots, and a shift permutes the residual, so the outputs meet
    each block in distinct residual elements.  The distinguished part of output i <= p is the free
    element in slot i, again permuted among the p free ones.  So any tuple
    of permutations of the residuals, cyclic or not, gives k pairwise
    disjoint k-sets that avoid t.

    Hence one representative per profile, with the identity tuple, decides
    every (t, tuple) pair.  The representative takes the least a_i elements
    of blocks 1..c and the least k-1-p distinguished elements.  A profile
    fails when ``q_family`` raises ``AssertionError`` or its output is not k
    pairwise disjoint k-sets avoiding t.  Returns the number of failing
    profiles and the first one, (a0, a1, ..., a_c), or None when there is none.
    """
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
                    qs = q_family(t, identity, k)
                except AssertionError:
                    qs = []
                cover = [e for q in qs for e in q.elements] + elems
                if len(qs) != k or any(q.size != k for q in qs) or len(set(cover)) != len(cover):
                    failures += 1
                    if first_failure is None:
                        first_failure = (k - p,) + comp
    return failures, first_failure


def _digit_table(digits: list[list[tuple[int, int]]]) -> dict[int, int]:
    """The union of one bit from each list, mapped to the sum of their digits."""
    table = {0: 0}
    for choices in digits:
        table = {m | bit: v + d for m, v in table.items() for bit, d in choices}
    return table


def transversal_reports(k: int, check: str = "all") -> list[AuditReport]:
    """The rows of one check of ``TRANSVERSAL_CHECKS``, or of all of them in
    that order.

    A check whose k lies outside its ``CHECK_K_RANGE`` is refused before
    any row is computed, the first such check in that order.
    """
    if check != "all" and check not in TRANSVERSAL_CHECKS:
        raise ValueError(f"unknown transversal check {check!r}")
    checks = TRANSVERSAL_CHECKS if check == "all" else (check,)
    for name in checks:
        lo, hi = CHECK_K_RANGE[name]
        if k < lo:
            raise ValueError(f"--check {name} needs k >= {lo}, got k={k}")
        if hi is not None and k > hi:
            raise ValueError(f"--check {name} supports k <= {hi}, got k={k}")
    params = {"k": k}
    reports = []
    if "counts" in checks:
        parts = _part_masks(k)
        full = [0] + [1] * k  # per-part popcounts: no distinguished element, one per block
        distinct = {
            m for m in full_transversal_masks(k) if [(m & p).bit_count() for p in parts] == full
        }
        reports.append(make_report("transversal:full_count", params, len(distinct), k**k, "=="))
        # every full transversal has width k and size k, so one weight serves
        # all; in the frame ((k+1)k, k, k) it is C(n_bar, 0) / C(0, 0) = 1
        wrong_weight = 0 if weight_value(k, k, 1, k, k) == 1 else 1
        reports.append(make_report("transversal:full_weight", params, wrong_weight, 0, "=="))
    if "cyclic" in checks:
        # defect set touching blocks 1..k-1 once, canonical choice
        _, blocks = _local_layout(k)
        t = KSet.from_elements(prefix_size(k, k), [b[0] for b in blocks[:-1]])
        # a collection's mask takes one non-minimum element of the missed
        # block, its slot, and one residual element of each touched block:
        # base-(k-1) digits of an index below (k-1)^k that names every
        # element, so two masks share an index only when they are equal.  The
        # digits of the lower and the upper half of the blocks are looked up
        # in one table each; a mask missing from a table does not decode.
        digits = [
            [(1 << e - 1, r * (k - 1) ** (j + 1)) for r, e in enumerate(b[1:])]
            for j, b in enumerate(blocks[:-1])  # t holds each touched block's minimum
        ]
        digits.append([(1 << e - 1, i) for i, e in enumerate(blocks[-1][1:])])
        half = k // 2
        lower, upper = _digit_table(digits[:half]), _digit_table(digits[half:])
        lower_bits = (1 << half * k) - 1
        marked = bytearray((k - 1) ** k)
        ok = True
        count = 0
        for coll in cyclic_collection_masks(t, k):
            count += 1
            for q in coll:
                low = q & lower_bits
                lo, hi = lower.get(low), upper.get(q ^ low)
                if lo is None or hi is None or marked[lo + hi]:
                    ok = False
                else:
                    marked[lo + hi] = 1
        reports.append(
            make_report("transversal:cyclic_collections", params, count, (k - 1) ** (k - 1), "==")
        )
        reports.append(make_report("transversal:cyclic_no_shared", params, 0 if ok else 1, 0, "=="))
    if "badpairs" in checks:
        stats = bad_pair_stats(k)
        reports.append(
            make_report(
                "transversal:bad_pair_per_set", params, stats.per_t, k * (k - 1) ** (k - 1), "=="
            )
        )
        reports.append(
            make_report(
                "transversal:bad_pair_per_mask",
                params,
                stats.per_mask_max,
                stats.per_mask_bound,
                "<=",
            )
        )
        reports.append(
            make_report(
                "transversal:bad_pair_doubling", params, 2 * stats.num_t, stats.num_bad_masks, "<="
            )
        )
    if "q" in checks:
        failures, first = q_family_check(k)
        reports.append(
            make_report("transversal:q_family_disjoint", params, failures, 0, "==", witness=first)
        )
    if "product" in checks:
        from .audit import product_inequality_report  # the claim-8 row is an audit

        reports.append(product_inequality_report(k))
    return reports
