"""The extremal candidate families, their sizes, and traces.

Two candidates compete: all k-sets inside the prefix [(s+1)k-1], and all
k-sets meeting [s].  The trace of a family on the prefix feeds the weight
identities in ``weights``.
"""

from __future__ import annotations

import sys

from .core import Family, binom, enumerate_ksets


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
    return Family(n, k, [m for m in enumerate_ksets(n, k) if m & head])


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
    constant, so a linear scan with early exit is exact.
    """
    if not (s >= k >= 2):
        raise ValueError("need s >= k >= 2")
    n = (s + 1) * k
    while True:
        size_a, size_b = extremal_sizes(n, k, s)
        if size_b > size_a:
            return n
        n += 1


def trace_masks(fam: Family, k: int, s: int) -> set[int]:
    """The distinct intersections of members with the prefix, as masks.

    An empty trace member (a member entirely beyond the prefix) is retained
    and flagged by a warning on stderr; it only makes counting sense when n_bar >= k.
    """
    p = prefix_size(k, s)
    if fam.n < p:
        raise ValueError(f"family ground set {fam.n} smaller than prefix {p}")
    head = (1 << p) - 1
    masks = {m & head for m in fam.members}
    if 0 in masks:
        sys.stderr.write("trace contains the empty set (member beyond the prefix)\n")
    return masks


def trace_of(fam: Family, k: int, s: int) -> Family:
    """The family of intersections of members with the prefix, duplicates
    removed (see :func:`trace_masks`)."""
    return Family.from_masks(prefix_size(k, s), None, trace_masks(fam, k, s))
