"""Desk-scale exact verification of the extremal inequality and the search
for the distinguished pivot set.

The maximization is over families of k-sets with matching number at most s.
Two engines: plain exhaustive enumeration over all subfamilies, and a
branch-and-bound over inclusion decisions.  Method ``shifted_only`` is the
same branch-and-bound restricted to precedence downsets: a set may join only
after all its single-element decrements.  The restriction is exact because
shifting keeps |F| and never raises the matching number.

The branch-and-bound keeps only sets that can still join in its undecided
pool, and updates that pool incrementally: after an include, a new
(s+1)-matching must use the added set, so a pooled set leaves iff it misses
the added set and some union of s-1 disjoint members that also miss it.
"""

from __future__ import annotations

import sys
from typing import Collection, Optional

from .audit import AuditReport, make_report
from .constructions import extremal_sizes, prefix_size, trace_of
from .core import Family, KSet, enumerate_ksets
from .matching import BudgetExceeded
from .shifting import _decrements

DEFAULT_EXHAUSTIVE_CAP = 24
DEFAULT_BNB_CAP = 60
_STACK_HEADROOM = 150  # interpreter frames left for the callers of _bnb_max


def _family_mask_better(a: int, b: int) -> bool:
    """True if inclusion mask a denotes a colex-smaller family than b (equal sizes)."""
    diff = a ^ b
    if not diff:
        return False
    low = diff & -diff
    return bool(a & low)


def _disjoint_tuples(masks: list[int], t: int) -> list[int]:
    """Inclusion masks (over list positions) of all t-tuples of pairwise
    disjoint sets."""
    out = []

    def rec(start: int, used: int, chosen: int, depth: int):
        if depth == t:
            out.append(chosen)
            return
        for i in range(start, len(masks) - (t - depth) + 1):
            if masks[i] & used:
                continue
            rec(i + 1, used | masks[i], chosen | (1 << i), depth + 1)

    rec(0, 0, 0, 0)
    return out


def _exhaustive_max(all_masks: list[int], s: int) -> tuple[int, int]:
    """Scan all 2^m subfamilies; returns (max size, best inclusion mask)."""
    m = len(all_masks)
    forbidden = _disjoint_tuples(all_masks, s + 1)
    best_size = -1
    best_incl = 0
    for incl in range(1 << m):
        size = incl.bit_count()
        if size < best_size:
            continue
        if any(incl & f == f for f in forbidden):
            continue
        if size > best_size or _family_mask_better(incl, best_incl):
            best_size = size
            best_incl = incl
    return best_size, best_incl


def _blocking_unions(cur: list[int], cand: int, s: int) -> set[int]:
    """Distinct unions of the (s-1)-matchings of ``cur`` that avoid ``cand``.

    Built level by level, so the work is bounded by the number of distinct
    unions times |cur|, not by the number of matchings.
    """
    pool = [x for x in cur if not x & cand]
    level = {0}
    for _ in range(s - 1):
        level = {u | x for u in level for x in pool if not u & x}
    return level


def _joinable(
    rest: list[tuple[int, int]],
    alive: int,
    parents: list[int],
    cand: int = 0,
    unions: Collection[int] = (),
) -> list[tuple[int, int]]:
    """The sets of ``rest`` that can still join, in one forward pass.

    Parents precede children in ``rest``, so a set whose parent was dropped
    earlier in the pass is dropped too.  After the include of ``cand``, a set
    disjoint from it and from one of the ``unions`` of
    :func:`_blocking_unions` would close an (s+1)-matching, so it is dropped.
    """
    kept = []
    for j, m in rest:
        if parents[j] & ~alive:
            continue
        if not m & cand and any(not m & u for u in unions):
            continue
        kept.append((j, m))
        alive |= 1 << j
    return kept


def _bnb_max(
    all_masks: list[int],
    s: int,
    node_budget: Optional[int],
    parents: Optional[list[int]] = None,
) -> tuple[int, int]:
    """Branch-and-bound over inclusion decisions in colex order.

    ``parents[i]`` is a bitmask over list positions of the sets that must be
    included before set i (none when omitted); the list order must decide
    every parent before its child.  Include-first DFS makes the first
    maximizer found the colex-least one.  After every decision, sets that can
    no longer join the current branch -- infeasible next to it, or with a
    parent excluded or dropped -- leave the undecided pool, which tightens
    the size bound.

    Invariant: no pooled set has a parent excluded or dropped, and every
    pooled set is feasible next to the current members (adding it keeps the
    matching number <= s).  So the head of the pool, whose parents are all
    decided, can always be included without a test.  After the include of
    ``cand``, any new (s+1)-matching uses ``cand``, so a pooled set m becomes
    infeasible iff m misses ``cand`` and some (s-1)-matching of the current
    members that avoids ``cand``.  The prune tests exactly that, against the
    distinct unions of those matchings, computed once per include.
    """
    if parents is None:
        parents = [0] * len(all_masks)
    is_parent = 0
    for p in parents:
        is_parent |= p
    best_size = -1
    best_incl = 0
    nodes = 0

    def rec(undecided: list[tuple[int, int]], cur: list[int], incl: int):
        nonlocal best_size, best_incl, nodes
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            raise BudgetExceeded(f"max_family_size: node budget {node_budget} exhausted")
        if len(cur) > best_size:
            best_size = len(cur)
            best_incl = incl
        if not undecided or len(cur) + len(undecided) <= best_size:
            return
        i, cand = undecided[0]
        rest = undecided[1:]
        added = incl | 1 << i
        unions = _blocking_unions(cur, cand, s)
        rec(_joinable(rest, added, parents, cand, unions), cur + [cand], added)
        # excluding a set that is nobody's parent orphans nothing
        rec(_joinable(rest, incl, parents) if is_parent >> i & 1 else rest, cur, incl)

    rec(list(enumerate(all_masks)), [], 0)
    return best_size, best_incl


def max_family_size(
    n: int,
    k: int,
    s: int,
    method: str = "bnb",
    exhaustive_cap: int = DEFAULT_EXHAUSTIVE_CAP,
    bnb_cap: int = DEFAULT_BNB_CAP,
    node_budget: Optional[int] = None,
) -> tuple[int, Family]:
    """Exact maximum size of a k-uniform family on [n] with matching number <= s.

    Returns the maximum together with a deterministic witness (colex-least
    among maximizers).  Raises :class:`BudgetExceeded` when a node budget is
    given and exhausted -- an explicit unknown, never a wrong answer.
    ``bnb_cap`` bounds C(n,k) for ``bnb`` and ``shifted_only`` only when no
    node budget is given; a given budget bounds the work instead.
    """
    if not (n >= k >= 1 and s >= 1):
        raise ValueError("need n >= k >= 1 and s >= 1")
    all_masks = list(enumerate_ksets(n, k))
    m = len(all_masks)
    if method == "exhaustive":
        if m > exhaustive_cap:
            raise ValueError(
                f"exhaustive search needs C(n,k) <= {exhaustive_cap}, got {m}"
            )
        best_size, best_incl = _exhaustive_max(all_masks, s)
    elif method in ("bnb", "shifted_only"):
        name = "branch-and-bound" if method == "bnb" else "downset search"
        if node_budget is None and m > bnb_cap:
            raise ValueError(
                f"{name} needs C(n,k) <= {bnb_cap} without a node budget, got {m}"
            )
        # one recursion level per decided set, plus the caller's frames
        depth = sys.getrecursionlimit() - _STACK_HEADROOM
        if m > depth:
            raise ValueError(f"{name} recursion needs C(n,k) <= {depth}, got {m}")
        parents = None
        if method == "shifted_only":
            rank = {mm: i for i, mm in enumerate(all_masks)}
            parents = [sum(1 << rank[p] for p in _decrements(mm)) for mm in all_masks]
        best_size, best_incl = _bnb_max(all_masks, s, node_budget, parents)
    else:
        raise ValueError(f"unknown method {method!r}")
    witness = Family.from_masks(
        n, k, [mm for i, mm in enumerate(all_masks) if best_incl >> i & 1]
    )
    return best_size, witness


def verify_conjecture(
    n: int, k: int, s: int, method: str = "bnb", node_budget: Optional[int] = None
) -> AuditReport:
    """Check that the exact maximum equals the larger of the two candidates."""
    maximum, witness = max_family_size(n, k, s, method=method, node_budget=node_budget)
    size_a, size_b = extremal_sizes(n, k, s)
    bound = max(size_a, size_b)
    return make_report(
        "conjecture:extremal_bound",
        {"n": n, "k": k, "s": s, "method": method, "size_a": size_a, "size_b": size_b},
        maximum,
        bound,
        "==",
        witness=None if maximum == bound else tuple(KSet(n, m).elements for m in witness.members),
    )


def find_G0(fam: Family, k: int, s: int) -> Optional[KSet]:
    """Colex-least (k-1)-subset of the prefix, outside the trace, with the
    pivot property: for every member disjoint from it, adjoining the member's
    minimal element gives a member.  Returns None if no such set exists."""
    p = prefix_size(k, s)
    if fam.n < p:
        raise ValueError("family ground set smaller than prefix")
    tr_masks = trace_of(fam, k, s).mask_set if len(fam) else frozenset()
    fam_masks = fam.mask_set
    for cmask in enumerate_ksets(p, k - 1):
        if cmask in tr_masks:
            continue
        ok = True
        for m in fam.members:
            if m & cmask:
                continue
            b = (m & -m).bit_length()
            if (cmask | (1 << (b - 1))) not in fam_masks:
                ok = False
                break
        if ok:
            return KSet(fam.n, cmask)
    return None
