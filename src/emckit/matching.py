"""Exact matching numbers with disjoint-set certificates.

This module owns disjointness over list positions (:func:`_holders`,
:func:`_disjointness`), which the search module shares.  The solver is a
branch-and-bound on these bitsets: branch on the colex-least member still
available, prune with cheap exact upper bounds (pool size, covered-element
count, and a greedy hitting set -- any explicit hitting set bounds the
matching number, since disjoint members consume distinct hitting elements).
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .core import BudgetExceeded, Family, KSet

DEFAULT_NODE_BUDGET = 10**7


class MatchingCertificate(NamedTuple):
    sets: tuple[KSet, ...]


def _bits(x: int) -> Iterator[int]:
    """Positions of the set bits of ``x``, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _holders(all_masks: list[int]) -> list[int]:
    """``holders[e]``: bitset over list positions of the sets holding element bit e."""
    holders = [0] * max(all_masks, default=0).bit_length()
    for j, x in enumerate(all_masks):
        for e in _bits(x):
            holders[e] |= 1 << j
    return holders


def _disjointness(all_masks: list[int], holders: list[int]) -> list[int]:
    """``disj[j]``: bitset over list positions of the sets disjoint from set j,
    given ``holders = _holders(all_masks)``."""
    full = (1 << len(all_masks)) - 1
    disj = []
    for x in all_masks:
        hit = 0
        for e in _bits(x):
            hit |= holders[e]
        disj.append(full & ~hit)
    return disj


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
    holders = _holders(masks)
    disj = _disjointness(masks, holders)
    by_size: dict[int, int] = {}  # member size -> positions of the members of that size
    for j, x in enumerate(masks):
        by_size[x.bit_count()] = by_size.get(x.bit_count(), 0) | 1 << j

    best = 0
    best_size = 0
    nodes = 0

    def pruned(pool: int, slack: int) -> bool:
        """True when ``pool`` surely holds no matching of more than ``slack`` sets."""
        if pool.bit_count() <= slack:
            return True
        covered = sum(1 for h in holders if h & pool)
        least = min(size for size, at in by_size.items() if at & pool)
        if covered // least <= slack:
            return True
        for _ in range(slack):
            count, hit = 0, 0
            for h in holders:
                c = (h & pool).bit_count()
                if c > count:
                    count, hit = c, h
            pool &= ~hit
            if not pool:
                return True
        return False

    # the include child is pushed last, so it is searched first
    stack = [((1 << len(masks)) - 1, 0, 0)]
    while stack:
        pool, current, size = stack.pop()
        nodes += 1
        if budget is not None and nodes > budget:
            raise BudgetExceeded(f"matching_number: node budget {budget} exhausted")
        if size > best_size:
            best, best_size = current, size
        if not pool or pruned(pool, best_size - size):
            continue
        low = pool & -pool
        stack.append((pool ^ low, current, size))
        stack.append((pool & disj[low.bit_length() - 1], current | low, size + 1))
    chosen = base + [masks[j] for j in _bits(best)]
    cert = MatchingCertificate(tuple(KSet(fam.n, m) for m in chosen))
    return len(chosen), cert
