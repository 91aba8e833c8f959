"""The extremal candidate families, their sizes, and traces.

Two candidates compete: all k-sets inside the prefix [(s+1)k-1], and all
k-sets meeting [s].  The trace of a family on the prefix feeds the weight
identities in ``weights``.
"""

from __future__ import annotations

import sys
from collections import Counter
from itertools import groupby
from typing import Iterable, Iterator

from .core import Family, _adjacent_repeat, binom, enumerate_ksets


def prefix_size(k: int, s: int) -> int:
    return (s + 1) * k - 1


def prefix_ksets(n: int, k: int, s: int) -> Iterator[int]:
    """The masks of all k-subsets of the prefix [(s+1)k-1], in colex order.
    The parameters are refused here, at the call, not when iteration starts."""
    if k < 1 or s < 1:
        raise ValueError("need k >= 1 and s >= 1")
    p = prefix_size(k, s)
    if n < p:
        raise ValueError(f"need n >= (s+1)k-1 = {p}, got n={n}")
    return enumerate_ksets(p, k)


def star_ksets(n: int, k: int, s: int) -> Iterator[int]:
    """The masks of all k-subsets of [n] meeting [s], in colex order.
    The parameters are refused here, at the call, not when iteration starts."""
    if n < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")
    if s > n or s < 1:
        raise ValueError(f"need 1 <= s <= n, got s={s}")
    head = (1 << s) - 1
    return filter(head.__and__, enumerate_ksets(n, k))


def build_A(n: int, k: int, s: int) -> Family:
    """All k-subsets of the prefix [(s+1)k-1], over ground set [n]."""
    return Family(n, k, prefix_ksets(n, k, s))


def build_B(n: int, k: int, s: int) -> Family:
    """All k-subsets of [n] meeting [s]."""
    return Family(n, k, star_ksets(n, k, s))


def extremal_sizes(n: int, k: int, s: int) -> tuple[int, int]:
    """Closed-form sizes of the two candidates:
    (C(min(n, (s+1)k-1), k), C(n,k) - C(max(n-s, 0), k)).

    Below n = (s+1)k-1 the prefix family is all of C([n], k); for s >= n every
    k-set meets [s], so the star family is all of C([n], k) too.
    """
    size_a = binom(min(n, prefix_size(k, s)), k)
    size_b = binom(n, k) - binom(max(n - s, 0), k)
    return size_a, size_b


def crossover_n(k: int, s: int) -> int:
    """The minimal n >= (s+1)k at which the [s]-star family overtakes the prefix family.

    The star size is strictly increasing in n while the prefix size is
    constant, so "the star is ahead at n" is monotone in n: doubling steps
    find an n where it is, and bisection the least one.
    """
    if not (s >= k >= 2):
        raise ValueError("need s >= k >= 2")

    def star_ahead(n: int) -> bool:
        size_a, size_b = extremal_sizes(n, k, s)
        return size_b > size_a

    behind, step = (s + 1) * k - 1, 1  # the star is behind at every n in [(s+1)k, behind]
    while not star_ahead(behind + step):
        behind += step
        step *= 2
    ahead = behind + step
    while ahead - behind > 1:
        mid = (behind + ahead) // 2
        if star_ahead(mid):
            ahead = mid
        else:
            behind = mid
    return ahead


def _prefix_head(n: int, k: int, s: int) -> int:
    """The mask of the prefix [(s+1)k-1] within the ground set [n]: a
    member's trace is the member and this mask."""
    p = prefix_size(k, s)
    if n < p:
        raise ValueError(f"family ground set {n} smaller than prefix {p}")
    return (1 << p) - 1


def _warn_empty_trace() -> None:
    """An empty trace member (a member entirely beyond the prefix) is kept;
    it only makes counting sense when n_bar >= k, so it is flagged on stderr."""
    sys.stderr.write("trace contains the empty set (member beyond the prefix)\n")


def trace_masks(fam: Family, k: int, s: int) -> list[int]:
    """The distinct intersections of members with the prefix, as masks in
    ascending order.

    The intersections are sorted, so repeats sit next to each other and are
    dropped without a hash set; a member inside the prefix is its own trace.
    An empty trace member is kept, with a warning on stderr.
    """
    head = _prefix_head(fam.n, k, s)
    masks = sorted(m if m <= head else m & head for m in fam.members)
    if _adjacent_repeat(masks):
        masks = [t for t, _ in groupby(masks)]
    if masks and masks[0] == 0:
        _warn_empty_trace()
    return masks


def trace_sizes(members: Iterable[int], n: int, k: int, s: int) -> tuple[Counter, int]:
    """The number of distinct trace members of each size, and the number of
    members, in one pass over the distinct member masks of a family over [n].

    A member inside the prefix is its own trace, so it is counted by its size
    alone; only the distinct traces of members that reach beyond the prefix
    are held.  Such a trace is smaller than its member, so the members must
    come largest first (any order, for a uniform family): a trace equal to a
    member inside the prefix is then held before that member comes, and
    counts once.  An empty trace member is kept, with a warning on stderr,
    as in :func:`trace_masks`.
    """
    head = _prefix_head(n, k, s)
    sizes, beyond, count = Counter(), set(), 0
    for count, m in enumerate(members, start=1):
        if m > head:
            beyond.add(m & head)
        elif m not in beyond:
            sizes[m.bit_count()] += 1
    sizes.update(map(int.bit_count, beyond))
    if sizes[0]:
        _warn_empty_trace()
    return sizes, count
