"""The extremal candidate families, their sizes, and traces.

Two candidates compete: all k-sets inside the prefix [(s+1)k-1], and all
k-sets meeting [s].  The trace of a family on the prefix feeds the weight
identities in ``weights``.
"""

from __future__ import annotations

import sys
from itertools import groupby

from .core import Family, _adjacent_repeat, binom, enumerate_ksets


def prefix_size(k: int, s: int) -> int:
    return (s + 1) * k - 1


def build_A(n: int, k: int, s: int) -> Family:
    """All k-subsets of the prefix [(s+1)k-1], over ground set [n]."""
    if k < 1 or s < 1:
        raise ValueError("need k >= 1 and s >= 1")
    p = prefix_size(k, s)
    if n < p:
        raise ValueError(f"need n >= (s+1)k-1 = {p}, got n={n}")
    return Family(n, k, enumerate_ksets(p, k))


def build_B(n: int, k: int, s: int) -> Family:
    """All k-subsets of [n] meeting [s]."""
    if n < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")
    if s > n or s < 1:
        raise ValueError(f"need 1 <= s <= n, got s={s}")
    head = (1 << s) - 1
    return Family(n, k, filter(head.__and__, enumerate_ksets(n, k)))


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


def trace_masks(fam: Family, k: int, s: int) -> list[int]:
    """The distinct intersections of members with the prefix, as masks in
    ascending order.

    The intersections are sorted, so repeats sit next to each other and are
    dropped without a hash set; a member inside the prefix is its own trace.
    An empty trace member (a member entirely beyond the prefix) is retained
    and flagged by a warning on stderr; it only makes counting sense when n_bar >= k.
    """
    p = prefix_size(k, s)
    if fam.n < p:
        raise ValueError(f"family ground set {fam.n} smaller than prefix {p}")
    head = (1 << p) - 1
    masks = sorted(m if m <= head else m & head for m in fam.members)
    if _adjacent_repeat(masks):
        masks = [t for t, _ in groupby(masks)]
    if masks and masks[0] == 0:
        sys.stderr.write("trace contains the empty set (member beyond the prefix)\n")
    return masks
