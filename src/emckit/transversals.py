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

# largest k whose bad-pair statistics are counted; k = 8 needs about 2.5e9
# mask tests against 15 million stored single-choice masks
BAD_PAIR_MAX_K = 7

# the rows of ``transversal_reports``, in the order "all" runs them
TRANSVERSAL_CHECKS = ("counts", "cyclic", "badpairs", "q", "product")


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


def blocks_missing_last(k: int, t: KSet) -> list[tuple[int, ...]]:
    """Blocks reordered so that the single block missed by t is last.

    Relabeling utility for the cyclic-shift construction, which distinguishes
    the missed block.
    """
    touched, missed = _split_blocks(k, t)
    if len(missed) != 1:
        raise ValueError("set must miss exactly one block")
    return touched + missed


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
    blocks = blocks_missing_last(k, t)
    for b in blocks[:-1]:
        if (t.mask & mask_of(ground, b)).bit_count() != 1:
            raise ValueError("t must meet each touched block exactly once")
    return blocks


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
    representative per defect-set class is tested against every mask of its
    two types, each bad pair found adds the defect class's size to the mask
    class's total, and double counting gives the per-mask count as that
    total over the mask class's size, which must divide it exactly.

    A mask class is every pair of its doubled block joined with every single
    choice of its class, and the defect set misses that block, so it
    meets no pair: the class's bad pairs with a defect set are its pairs
    times its single choices disjoint from the defect set.
    """
    if k < 3:
        raise ValueError("need k >= 3")
    if k > BAD_PAIR_MAX_K:
        raise ValueError(f"bad-pair statistics need k <= {BAD_PAIR_MAX_K}, got k={k}")
    _, blocks = _local_layout(k)
    bits = [[1 << (e - 1) for e in b] for b in blocks]  # blocks sorted: min first

    # mask classes by type (missed block, doubled block): (class id, minimum
    # flags of the singles as a bitmask over block indices, the pair masks of
    # the doubled block, the single-choice masks)
    mask_classes: dict[tuple[int, int], list[tuple[int, int, list[int], list[int]]]] = {}
    class_sizes: list[int] = []
    for miss in range(k):
        for dbl in range(k):
            if dbl == miss:
                continue
            pairs = [a | b for a, b in combinations(bits[dbl], 2)]
            by_flags = {0: [0]}  # single choices by minimum flags, block by block
            for i in range(k):
                if i in (miss, dbl):
                    continue
                grown: dict[int, list[int]] = {}
                for flags, ms in by_flags.items():
                    grown[flags | 1 << i] = [m | bits[i][0] for m in ms]
                    grown[flags] = [m | b for m in ms for b in bits[i][1:]]
                by_flags = grown
            bucket = []
            for flags, ms in sorted(by_flags.items()):
                bucket.append((len(class_sizes), flags, pairs, ms))
                class_sizes.append(len(pairs) * len(ms))
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
                    for cid, flags, pairs, ms in mask_classes[(dbl_t, f)]:
                        if flags >> other & 1:
                            continue
                        if any(p & tmask for p in pairs):
                            raise AssertionError("a defect set meets the block its masks double")
                        hits = len(pairs) * len([m for m in ms if not m & tmask])
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


def q_family(t: KSet, pis: Sequence[CyclicShift], k: int) -> list[KSet]:
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


def q_family_check(k: int) -> tuple[int, Optional[tuple[int, ...]]]:
    """Disjointness of ``q_family`` for every size-(k-1) defect set and every
    shift tuple, decided on one defect set per intersection profile.

    ``q_family`` sees t only through its profile (a0; a1, ..., a_c): relabel
    the blocks keeping the order within the touched and within the untouched
    ones, and inside each block and inside the distinguished set map t's part
    and the residual each in increasing order.  The relabelling carries t's
    numeration slot by slot onto that of any defect set with the same
    profile, and each canonical cyclic shift onto one, so the construction
    commutes with it.  Every size-(k-1) set has a0 = k - p >= 1 with
    p = a1 + ... + a_c, so the profiles are the compositions of p = 0..k-1:
    exactly 2^(k-1) of them.

    Disjointness does not depend on the shift tuple.  Output i takes slot i
    of each block j, skipping block mu_i when i <= p, and that slot holds a
    residual element: t's slots of block j are p_(j-1)+1..p_j, and mu_i is
    the one block whose range holds i.  Distinct i use distinct slots, and a
    shift permutes the residual, so the outputs meet each block in distinct
    residual elements.  The distinguished part of output i <= p is the free
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


def transversal_reports(k: int, check: str = "all") -> list[AuditReport]:
    """The rows of one check of ``TRANSVERSAL_CHECKS``, or of all of them in
    that order.

    A check that cannot run at this k is refused before any row is
    computed: bad pairs above ``BAD_PAIR_MAX_K``, cyclic collections below
    k = 2 (there is no defect set).
    """
    if check != "all" and check not in TRANSVERSAL_CHECKS:
        raise ValueError(f"unknown transversal check {check!r}")
    checks = TRANSVERSAL_CHECKS if check == "all" else (check,)
    if "badpairs" in checks and k > BAD_PAIR_MAX_K:
        raise ValueError(f"--check badpairs supports k <= {BAD_PAIR_MAX_K}, got k={k}")
    if "cyclic" in checks and k < 2:
        raise ValueError(f"--check cyclic needs k >= 2, got k={k}")
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
        seen = {}  # mask -> the first collection holding it
        ok = True
        count = 0
        for coll in cyclic_collection_masks(t, k):
            count += 1
            for q in coll:
                if seen.setdefault(q, count) != count:
                    ok = False
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
