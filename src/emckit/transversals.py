"""Full transversals of the local universe, cyclic-shift collections,
mask/bad-pair statistics, and the disjoint-cover construction for defect
sets; and the report rows of these checks (``transversal_reports``).

All constructions live inside the local universe: the distinguished
(k-1)-set plus the k blocks B_1..B_k, laid out canonically in the prefix
[(k+1)k-1] (see ``_local_layout``).  Each function takes k alone.  The
counts, cyclic and bad-pair rows are decided one block at a time, with no
enumeration of transversals, collections or pairs; those enumerations are
the oracles in ``tests/``.
"""

from __future__ import annotations

from collections import Counter
from math import comb, prod
from typing import NamedTuple, Optional, Sequence

from .constructions import prefix_size
from .core import KSet
from .exact import Rational
from .report import AuditReport, make_report
from .weights import weight_value

# the rows of ``transversal_reports``, in the order "all" runs them
TRANSVERSAL_CHECKS = ("counts", "cyclic", "badpairs", "q", "product")
# least k of each check: cyclic needs a defect set touching k-1 blocks,
# badpairs one doubling a block and missing two, and product a profile
# with a0 < k
CHECK_MIN_K = {"counts": 1, "cyclic": 2, "badpairs": 3, "q": 1, "product": 2}


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


def _split_blocks(k: int, t: KSet) -> tuple[list, list]:
    """The blocks that t meets, then those it misses, in block order."""
    _, blocks = _local_layout(k)
    in_t = set(t.elements)
    met = [b for b in blocks if in_t.intersection(b)]
    return met, [b for b in blocks if not in_t.intersection(b)]


class BadPairStats(NamedTuple):
    per_t: int  # masks in a bad pair with any fixed defect set (uniform)
    per_mask_max: int  # maximum defect sets paired with one mask
    per_mask_bound: Rational  # k(k-1)^(k-2)(k-2)/2
    num_t: int
    num_bad_masks: int


def _class_size(k: int, layouts: int, singles: int, at_min: int) -> int:
    """The number of sets in one class: ``layouts`` choices of the doubled
    and the missed blocks, C(k, 2) pairs of the doubled block,
    C(singles, at_min) choices of the singles at their block minimum, and
    k-1 choices for each other single."""
    return layouts * comb(k, 2) * comb(singles, at_min) * (k - 1) ** (singles - at_min)


def bad_pair_stats(k: int) -> BadPairStats:
    """Mask/bad-pair statistics over the local universe, one representative
    per class.

    Defect sets have size k-1, width k-2, avoid the distinguished set: they
    double one block and miss two.  A mask is a distinguished-set-avoiding
    almost-full transversal missing the doubled block and doubling one of the
    two missed ones; a bad pair additionally requires disjointness and that
    the mask's element in the other missed block is not that block's minimum.

    Relabelling the blocks, and the non-minimum elements inside each block,
    keeps every block minimum, so it preserves disjointness, both set types
    and the bad-pair condition.  The partners of a defect set or a mask all
    miss the block it doubles, so its doubled pair never matters.  Hence
    every count depends only on j, the number of singles at their block
    minimum, and one representative per j decides it: it takes the least
    pair of its doubled block, the minimum of its first j singles and the
    second least element of the others.  Its partners are counted as a product over the
    blocks of the choices the representative leaves free, and the classes
    weigh in with ``_class_size``.  Both sides count the same bad pairs, so
    per_t times the number of defect sets must equal the sum over the mask
    classes of count times size, or the statistics are refused.
    """
    if k < 3:
        raise ValueError("need k >= 3")
    _, blocks = _local_layout(k)  # blocks are sorted: minimum first

    def representative(dbl: int, singles: range, j: int) -> set[int]:
        taken = {blocks[dbl][0], blocks[dbl][1]}
        taken.update(blocks[i][0 if n < j else 1] for n, i in enumerate(singles))
        return taken

    def free(taken: set[int], start: int = 0) -> list[int]:
        """Per block, its elements from position ``start`` on outside ``taken``."""
        return [sum(e not in taken for e in b[start:]) for b in blocks]

    # defect sets double block 0 and miss blocks 1 and 2; a mask paired with
    # one misses block 0, doubles f and takes a non-minimum element of g
    per_t = None
    num_t = 0
    for j in range(k - 2):
        t = representative(0, range(3, k), j)
        free_t, off_min = free(t), free(t, 1)
        singles = prod(free_t[3:])
        count = sum(comb(free_t[f], 2) * off_min[g] * singles for f, g in ((1, 2), (2, 1)))
        if per_t is None:
            per_t = count
        elif per_t != count:
            raise AssertionError(f"per-defect-set mask count is not uniform: {per_t} vs {count}")
        num_t += _class_size(k, k * comb(k - 1, 2), k - 3, j)

    # masks miss block 0 and double block 1; a defect set paired with one
    # doubles block 0 and misses block 1 and a single g where the mask's
    # element is not g's minimum
    per_mask_max = num_bad = pairs = 0
    for j in range(k - 1):
        q = representative(1, range(2, k), j)
        free_q = free(q)
        count = sum(
            comb(free_q[0], 2) * prod(free_q[2:g] + free_q[g + 1 :])
            for g in range(2, k)
            if blocks[g][0] not in q
        )
        size = _class_size(k, k * (k - 1), k - 2, j)
        per_mask_max = max(per_mask_max, count)
        num_bad += size if count else 0
        pairs += count * size
    if pairs != per_t * num_t:
        raise AssertionError(
            f"bad pairs counted by mask class ({pairs}) and by defect set ({per_t * num_t}) differ"
        )
    return BadPairStats(
        per_t=per_t,
        per_mask_max=per_mask_max,
        per_mask_bound=Rational(k * (k - 1) ** (k - 2) * (k - 2), 2),
        num_t=num_t,
        num_bad_masks=num_bad,
    )


def _slot_row(block: Sequence[int], in_t: set[int], p: int) -> list[int]:
    """Slots 1..k of one block in ``q_family``'s table: the block's residual
    in increasing order, with t's elements in the block at slots p+1..p+a."""
    held = [e for e in block if e in in_t]
    residual = [e for e in block if e not in in_t]
    return residual[:p] + held + residual[p:]


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
        table.append(_slot_row(b, in_t, p))
        p += len(in_t.intersection(b))
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
    shift tuple, decided one slot-table row type at a time.

    A defect set has the profile (a0; a1, ..., a_c): a_i >= 1 elements in
    its i-th touched block, P = a1 + ... + a_c, and a0 = k - P >= 1, since
    k-1-P elements are distinguished.  The profiles are the compositions of
    P = 0..k-1, 2^(k-1) of them.  ``q_family``'s table has one
    ``_slot_row`` per block, touched blocks first, and a row depends only
    on its type (p, a): t's elements in the blocks before it, and in it; an
    untouched block has type (P, 0).  An order-keeping relabelling carries
    one block of a type onto any other, so one block decides each type.  A
    row is good when slots p+1..p+a hold t's elements and the other slots
    the block's residual, each once.

    When every row is good, t's block elements hold slots 1..P, one block
    per slot.  Output i takes slot i of every block not holding t there,
    plus the i-th free distinguished element when i <= P: k elements
    outside t, and distinct i use distinct slots.  A shift only permutes a
    residual or the free distinguished elements, so every shift tuple gives
    k pairwise disjoint k-sets avoiding t.  A profile with a bad row fails.

    So the failures number the sum over P of 2^(P-1) (1 at P = 0) minus
    ok[P], which is 0 when (P, 0) is bad and else counts the compositions
    of P with all touched rows good, forward over the O(k^2) types.  In the
    order of P, c, then lexicographic, the first failure has the least
    failing P.  It is (k-P, P), or (k,), when (P, 0) or (0, P) is bad.
    Else every (q, a) with q + a < P is good, so a failing profile ends in
    a bad (q, P-q), and the first is (k-P, q, P-q) for the least such
    q >= 1.  Returns the number of failing profiles and the first one, or
    None when there is none.
    """
    block = _local_layout(k)[1][0]

    def row_is_good(p: int, a: int) -> bool:
        held = block[:a]
        row = _slot_row(block, set(held), p)
        in_place = [e in held for e in row] == [p <= i < p + a for i in range(k)]
        return in_place and sorted(e for e in row if e not in held) == list(block[a:])

    good = {(p, a): row_is_good(p, a) for p in range(k) for a in range(k - p)}
    ways = [1] + [0] * (k - 1)  # compositions of p whose touched rows are good
    for (p, a), is_good in good.items():  # p increasing, so ways[p] is final
        if a and is_good:
            ways[p + a] += ways[p]
    failures = 0
    first_failure = None
    for total in range(k):
        failing = (2 ** (total - 1) if total else 1) - (ways[total] if good[total, 0] else 0)
        failures += failing
        if failing and first_failure is None:
            ends_bad = (q for q in range(1, total) if not good[q, total - q])
            q = next(ends_bad) if good[total, 0] and good[0, total] else 0
            first_failure = tuple(x for x in (k - total, q, total - q) if x)
    return failures, first_failure


def _full_count(k: int) -> int:
    """The number of full transversals that take from each block an element
    of no other part (the distinguished set or another block): the product
    over the blocks of the block's such elements.

    Such an element names its block, so distinct choices give distinct sets,
    each with profile (0, 1, ..., 1).  With blocks of k elements, the k^k
    transversals are all distinct with that profile iff every factor is k.
    """
    g0, blocks = _local_layout(k)
    parts = [set(part) for part in (g0, *blocks)]
    seen = Counter(e for part in parts for e in part)
    return prod(sum(seen[e] == 1 for e in part) for part in parts[1:])


def _rotation_table(residual: list[int]) -> list[list[int]]:
    """R[o][i] = residual[(i + o) mod len]: the element of slot i at offset o."""
    return [residual[o:] + residual[:o] for o in range(len(residual))]


def _cyclic_check(k: int) -> tuple[int, bool]:
    """The number of collections of the canonical defect set, and whether
    their full transversals are distinct, within a collection and across
    collections.

    The defect set t takes the minimum of blocks 1..k-1 and misses block k.
    A collection picks an offset o_j for each touched block j, and its
    member i takes R_j[o_j][i] from each touched block's rotation table and
    the i-th non-minimum element of block k, its slot element.  So there
    are as many collections as the product of the tables' row counts.  The
    members are pairwise disjoint full transversals avoiding t, and no
    member lies in two collections, when every row and every column of
    every table is k-1 distinct residual elements and the parts (the
    distinguished set, t, the residuals and the slot elements) are pairwise
    disjoint: a member's slot element names i, and the injective column i
    then names each offset.  Each table is built, checked and dropped in
    turn, so that is O(k^3) work in O(k^2) memory, with no collection listed.
    """
    g0, blocks = _local_layout(k)
    *touched, missed = blocks
    t = [b[0] for b in touched]
    in_t = set(t)
    elements = [*g0, *t, *missed[1:]]  # blocks are sorted: minimum first
    count, latin = 1, True
    for b in touched:
        residual = [e for e in b if e not in in_t]
        table = _rotation_table(residual)
        count *= len(table)
        latin = latin and all(
            len(line) == len(set(line)) == k - 1 and set(line) <= set(residual)
            for line in (*table, *zip(*table))
        )
        elements += residual
    return count, latin and len(set(elements)) == len(elements)


def transversal_reports(k: int, check: str = "all") -> list[AuditReport]:
    """The rows of one check of ``TRANSVERSAL_CHECKS``, or of all of them in
    that order.

    Before any row is computed, k below a check's ``CHECK_MIN_K`` is
    refused, naming the first such check in that order.  No check has an
    upper k.
    """
    if check != "all" and check not in TRANSVERSAL_CHECKS:
        raise ValueError(f"unknown transversal check {check!r}")
    checks = TRANSVERSAL_CHECKS if check == "all" else (check,)
    for name in checks:
        if k < CHECK_MIN_K[name]:
            raise ValueError(f"--check {name} needs k >= {CHECK_MIN_K[name]}, got k={k}")
    params = {"k": k}
    reports = []
    if "counts" in checks:
        reports.append(make_report("transversal:full_count", params, _full_count(k), k**k, "=="))
        # every full transversal has width k and size k, so one weight serves
        # all; in the frame ((k+1)k, k, k) it is C(n_bar, 0) / C(0, 0) = 1
        wrong_weight = 0 if weight_value(k, k, 1, k, k) == 1 else 1
        reports.append(make_report("transversal:full_weight", params, wrong_weight, 0, "=="))
    if "cyclic" in checks:
        count, distinct = _cyclic_check(k)
        reports.append(
            make_report("transversal:cyclic_collections", params, count, (k - 1) ** (k - 1), "==")
        )
        reports.append(
            make_report("transversal:cyclic_no_shared", params, 0 if distinct else 1, 0, "==")
        )
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
