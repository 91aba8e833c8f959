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


def _movers(candidates, present, i: int, j: int) -> list[int]:
    """The candidates that the (i,j)-compression rewrites: j in m, i not in m,
    and m - j + i not already present.  Rewriting m is m ^ (bit i | bit j)."""
    bj = 1 << (j - 1)
    bij = 1 << (i - 1) | bj
    return [m for m in candidates if m & bij == bj and m ^ bij not in present]


def compress_ij(fam: Family, i: int, j: int) -> Family:
    """Replace j by i (i < j) in every member where the result is new.

    A member containing j but not i is rewritten unless the rewritten set is
    already present, in which case it is kept.  Cardinality is preserved.
    """
    if not 1 <= i < j <= fam.n:
        raise ValueError(f"need 1 <= i < j <= n, got i={i}, j={j}, n={fam.n}")
    present = fam.mask_set
    movers = _movers(present, present, i, j)
    bij = 1 << (i - 1) | 1 << (j - 1)
    return Family.from_masks(
        fam.n, fam.k, present.difference(movers).union(m ^ bij for m in movers)
    )


def shift_to_fixpoint(fam: Family) -> Family:
    """Apply compressions over all i < j until nothing changes.

    The result is the normal form of the restart sweep: scan the pairs j
    ascending, then i ascending, compress at the first pair that has a mover,
    and start again from (1,2).  After a compression at (i,j), the pair (i,j)
    has no mover, and neither has any earlier pair (a,b) if none had before:

    - a new member x = m - j + i with b in x, a not in x has x - b + a
      present.  For b = i it is m - j + a, present since (a,j) had no mover.
      Otherwise y = m - b + a was present since (a,b) had no mover, and
      x - b + a = y - j + i is y's image, or the member that blocked y.
    - a removed member r unblocks y = r - a + b only if y stays, which needs
      z = y - j + i present (b != i) or y itself present (b = i).  Then z at
      (a,b), or y at (a,j), had a mover before, as its image r - j + i was
      absent.

    So the restart sweep never compresses an earlier pair again, and one pass
    over the pairs in that order applies exactly its sequence of compressions.
    Within each j the candidates for ``_movers`` are the members holding j.
    The sweep rewrites a plain set of masks and builds a single ``Family`` at
    the end.
    """
    present = set(fam.members)
    for j in range(2, fam.n + 1):
        bj = 1 << (j - 1)
        holding_j = {m for m in present if m & bj}
        for i in range(1, j):
            movers = _movers(holding_j, present, i, j)
            if movers:
                bij = 1 << (i - 1) | bj
                holding_j.difference_update(movers)
                present.difference_update(movers)
                present.update(m ^ bij for m in movers)
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
