"""The (i,j)-compression operator and shiftedness checks."""

from __future__ import annotations

from typing import Iterator

from .core import Family


def _decrements(m: int) -> Iterator[int]:
    """The single-element decrements of m: m - x + y for x in m, y < x, y not in m."""
    rest = m
    while rest:
        low = rest & -rest
        rest ^= low
        for y in range(low.bit_length() - 1):
            by = 1 << y
            if not m & by:
                yield m ^ low | by


def _movers(present, i: int, j: int) -> list[int]:
    """Members that the (i,j)-compression rewrites: j in m, i not in m, and
    m - j + i not already present.  Rewriting m is m ^ (bit i | bit j)."""
    bj = 1 << (j - 1)
    bij = 1 << (i - 1) | bj
    return [m for m in present if m & bij == bj and m ^ bij not in present]


def compress_ij(fam: Family, i: int, j: int) -> Family:
    """Replace j by i (i < j) in every member where the result is new.

    A member containing j but not i is rewritten unless the rewritten set is
    already present, in which case it is kept.  Cardinality is preserved.
    """
    if not 1 <= i < j <= fam.n:
        raise ValueError(f"need 1 <= i < j <= n, got i={i}, j={j}, n={fam.n}")
    present = fam.mask_set
    movers = _movers(present, i, j)
    bij = 1 << (i - 1) | 1 << (j - 1)
    return Family.from_masks(
        fam.n, fam.k, present.difference(movers).union(m ^ bij for m in movers)
    )


def shift_to_fixpoint(fam: Family) -> Family:
    """Apply compressions over all i < j until nothing changes.

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
                movers = _movers(present, i, j)
                if movers:
                    bij = 1 << (i - 1) | 1 << (j - 1)
                    present.difference_update(movers)
                    present.update(m ^ bij for m in movers)
                    changed = True
                    break
            if changed:
                break
    return Family.from_masks(fam.n, fam.k, present)


def is_shifted(fam: Family) -> bool:
    """True iff every single-element decrement of a member is a member.

    Checks the decrement criterion, which is equivalent to closure under the
    precedence order but far cheaper than pairwise comparisons.
    """
    if fam.k is None:
        raise ValueError("is_shifted requires a uniform family")
    present = fam.mask_set
    return all(d in present for m in fam.members for d in _decrements(m))
