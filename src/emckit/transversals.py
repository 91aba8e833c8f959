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
from fractions import Fraction
from math import comb, isqrt, prod
from typing import NamedTuple, Optional, Sequence

from .constructions import prefix_size
from .core import _MAX_GROUND, KSet, _compositions, mask_of
from .report import AuditReport, make_report
from .weights import weight_value

# the rows of ``transversal_reports``, in the order "all" runs them
TRANSVERSAL_CHECKS = ("counts", "cyclic", "badpairs", "q", "product")
# least k of each check: cyclic needs a defect set touching k-1 blocks,
# badpairs one doubling a block and missing two, and product a profile
# with a0 < k
CHECK_MIN_K = {"counts": 1, "cyclic": 2, "badpairs": 3, "q": 1, "product": 2}
# largest k of every check: the local universe [(k+1)k-1] fits in the ground set
MAX_K = (isqrt(4 * _MAX_GROUND + 5) - 1) // 2


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
    met: list[tuple[int, ...]] = []
    missed: list[tuple[int, ...]] = []
    for b in blocks:
        (met if t.mask & mask_of(prefix_size(k, k), b) else missed).append(b)
    return met, missed


class BadPairStats(NamedTuple):
    per_t: int  # masks in a bad pair with any fixed defect set (uniform)
    per_mask_max: int  # maximum defect sets paired with one mask
    per_mask_bound: Fraction  # k(k-1)^(k-2)(k-2)/2
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
        per_mask_bound=Fraction(k * (k - 1) ** (k - 2) * (k - 2), 2),
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
    then names each offset.  That is O(k^3) work, with no collection listed.
    """
    g0, blocks = _local_layout(k)
    *touched, missed = blocks
    t = [b[0] for b in touched]
    residuals = [[e for e in b if e not in t] for b in touched]
    tables = [_rotation_table(r) for r in residuals]
    parts = [g0, t, *residuals, missed[1:]]  # blocks are sorted: minimum first
    elements = [e for part in parts for e in part]
    latin = all(
        len(line) == len(set(line)) == k - 1 and set(line) <= set(r)
        for r, table in zip(residuals, tables)
        for line in (*table, *zip(*table))
    )
    return prod(map(len, tables)), latin and len(set(elements)) == len(elements)


def transversal_reports(k: int, check: str = "all") -> list[AuditReport]:
    """The rows of one check of ``TRANSVERSAL_CHECKS``, or of all of them in
    that order.

    Before any row is computed, k above ``MAX_K`` is refused, and so is k
    below a check's ``CHECK_MIN_K``, naming the first such check in that
    order.
    """
    if check != "all" and check not in TRANSVERSAL_CHECKS:
        raise ValueError(f"unknown transversal check {check!r}")
    if k > MAX_K:
        raise ValueError(
            f"--check {check} needs k <= {MAX_K}, got k={k}: "
            f"the local universe [(k+1)k-1] must fit in [{_MAX_GROUND}]"
        )
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
