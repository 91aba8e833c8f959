"""Exact matching numbers with disjoint-set certificates.

The solver is a branch-and-bound over the disjointness structure: branch on
the colex-least member still available, prune with cheap exact upper bounds
(pool size, free-element count, and a greedy hitting set -- any explicit
hitting set bounds the matching number, since disjoint members consume
distinct hitting elements).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Family, KSet

DEFAULT_NODE_BUDGET = 10**7


class BudgetExceeded(RuntimeError):
    """Raised when a search exhausts its node budget: the answer is unknown."""


@dataclass(frozen=True)
class MatchingCertificate:
    sets: tuple[KSet, ...]


def _greedy_hitting_size(masks: list[int]) -> int:
    """Size of a greedily built hitting set of the given sets.

    Any hitting set upper-bounds the matching number.
    """
    remaining = list(masks)
    cover = 0
    while remaining:
        counts: dict[int, int] = {}
        for m in remaining:
            mm = m
            while mm:
                low = mm & -mm
                counts[low] = counts.get(low, 0) + 1
                mm ^= low
        # deterministic tie-break: lowest bit among the most frequent
        best_bit = min(b for b, c in counts.items() if c == max(counts.values()))
        remaining = [m for m in remaining if not m & best_bit]
        cover += 1
    return cover


def _upper_bound(pool: list[int], sizes: dict[int, int], need: int) -> int:
    """An exact upper bound on the matching number of ``pool``.

    ``need`` is the bound at which the caller stops caring; the cheaper
    bounds short-circuit the greedy hitting set when they already decide.
    """
    b = len(pool)
    if b < need:
        return b
    union = 0
    min_size = None
    for m in pool:
        union |= m
        sz = sizes[m]
        if min_size is None or sz < min_size:
            min_size = sz
    b = min(b, union.bit_count() // min_size)
    if b < need:
        return b
    return min(b, _greedy_hitting_size(pool))


def matching_number(
    fam: Family, budget: int | None = DEFAULT_NODE_BUDGET
) -> tuple[int, MatchingCertificate]:
    """Exact maximum number of pairwise disjoint members, with a witness.

    The certificate is deterministic: the lexicographically least sequence of
    colex ranks among maximum matchings.  Raises :class:`BudgetExceeded` when
    the node budget runs out; never returns a silently wrong answer.
    """
    masks = sorted(fam.members)
    base: list[int] = []
    if masks and masks[0] == 0:
        # the empty set is disjoint from everything and colex-least
        base = [0]
        masks = masks[1:]
    sizes = {m: m.bit_count() for m in masks}

    best: list[int] = []
    nodes = 0

    def dfs(pool: list[int], current: list[int]) -> None:
        nonlocal best, nodes
        nodes += 1
        if budget is not None and nodes > budget:
            raise BudgetExceeded(f"matching_number: node budget {budget} exhausted")
        if len(current) > len(best):
            best = list(current)
        if not pool:
            return
        if len(current) + _upper_bound(pool, sizes, len(best) - len(current) + 1) <= len(best):
            return
        pivot = pool[0]
        dfs([m for m in pool[1:] if not m & pivot], current + [pivot])
        dfs(pool[1:], current)

    dfs(masks, [])
    chosen = base + best
    cert = MatchingCertificate(tuple(KSet(fam.n, m) for m in sorted(chosen)))
    return len(chosen), cert
