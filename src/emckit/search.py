"""Desk-scale exact verification of the extremal inequality and the search
for the distinguished pivot set.

The maximization is over families of k-sets with matching number at most s,
by one branch-and-bound over inclusion decisions.  Method ``exhaustive`` is
another name for ``bnb``, kept for old command lines.  Method
``shifted_only`` is the same branch-and-bound restricted to precedence
downsets: a set may join only after all its single-element decrements.  The
restriction is exact because shifting keeps |F| and never raises the
matching number.

The branch-and-bound keeps only sets that can still join in its undecided
pool, a bitset over colex positions, and updates that pool incrementally:
after an include, a new (s+1)-matching must use the added set, so a pooled
set leaves iff it misses the added set and some union of s-1 disjoint
members that also miss it.  Two pooled sets conflict iff they are disjoint
and s-1 disjoint members miss both, so they cannot both join; a greedy
clique cover of these conflicts bounds how many pooled sets can.

Method ``bnb`` searches every k-set of [n], a space that each permutation
of [n] maps onto itself, and it breaks that symmetry with lex-leader cuts
(Crawford, Ginsberg, Luks and Roy 1996) for the adjacent transpositions
tau_a = (a a+1).  tau_a swaps the pairs (p, q) where set p holds a but not
a+1 and set q is p with a replaced by a+1, so p < q in colex order, and
fixes every other set.  A family F and tau_a(F) first differ at the least p
of a pair that F splits, and F is the colex-smaller one iff it holds that p.
tau_a keeps |F| and the matching number, so the colex-least maximizer F*
satisfies F* <= tau_a(F*) for every a.  A node where, for some a, the first
pair that is not decided equal is decided with q in and p out has only
completions F with tau_a(F) < F, none of them F*; it is cut.  Include-first
DFS still meets F* before any other maximizer, so maxima and witnesses are
those of the search without the cut.  The cut needs the whole k-set list:
on part of it, or on downsets (``shifted_only``), tau_a(F*) may lie outside
the search space.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .constructions import extremal_sizes, prefix_size, trace_masks
from .core import _MAX_GROUND, BudgetExceeded, Family, KSet, binom, enumerate_ksets
from .matching import _bits, _disjointness, _holders
from .shifting import _decrements

if TYPE_CHECKING:
    from .report import AuditReport

DEFAULT_BNB_CAP = 60


def _include(
    c: int, incl: int, pool: int, conf: list[int], s: int, all_masks: list[int], disj: list[int]
) -> tuple[int, list[int]]:
    """The pool and the conflicts once set c joins the members ``incl``.

    ``pool`` holds the other undecided sets, each feasible next to ``incl``.
    A new (s+1)-matching must use c, so a pooled set leaves iff it is
    disjoint from c and from the union of some (s-1)-matching of the members
    that avoids c.  Likewise the new conflicts are the disjoint pairs of
    pooled sets that miss c and the union u of some (s-2)-matching that
    avoids c.  The unions u are built level by level, each with D(c | u),
    the pooled sets disjoint from c and u, so the work is bounded by the
    number of distinct unions times |incl|, not by the number of matchings.
    ``conf`` is copied before it is changed.
    """
    dc = disj[c]
    if s == 1:
        return pool & ~dc, conf
    avoiding = [(all_masks[j], disj[j]) for j in _bits(incl & dc)]
    level = {0: pool & dc}
    for _ in range(s - 2):
        level = {u | x: d & dx for u, d in level.items() for x, dx in avoiding if not u & x}
    drop = 0
    for u, d in level.items():
        blocked = 0
        for x, dx in avoiding:
            if not u & x:
                blocked |= dx
        drop |= d & blocked
    pool &= ~drop
    inherited = conf
    for d in level.values():
        t = rest = d & pool
        while rest:
            low = rest & -rest
            rest ^= low
            j = low.bit_length() - 1
            new = disj[j] & t
            if new & ~conf[j]:
                if conf is inherited:
                    conf = conf[:]
                conf[j] |= new
    return pool, conf


def _without_orphans(pool: int, alive: int, parents: list[int]) -> int:
    """``pool`` less the sets with a parent neither in ``alive`` nor kept.

    One in-order pass: parents precede their children, so a set whose parent
    was dropped earlier in the pass is dropped too.
    """
    alive |= pool
    for j in _bits(pool):
        if parents[j] & ~alive:
            alive ^= 1 << j
    return pool & alive


def _clique_cover(pool: int, conf: list[int], limit: int) -> int:
    """Number of cliques of a greedy cover of ``pool`` in the conflict graph.

    Each clique starts at the lowest uncovered set and grows by the lowest
    set that conflicts with all of it.  At most one set per clique can join,
    so the count bounds how many pooled sets can.  Counting stops once it
    exceeds ``limit``.
    """
    count = 0
    while pool and count <= limit:
        count += 1
        low = pool & -pool
        clique = low
        rest = pool & conf[low.bit_length() - 1]
        while rest:
            low = rest & -rest
            clique |= low
            rest &= conf[low.bit_length() - 1]
        pool &= ~clique
    return count


def _swap_pairs(n: int, all_masks: list[int]) -> list[list[tuple[int, int]]]:
    """``pairs[a-1]``: the pairs (p, q) of list positions that the adjacent
    transposition (a a+1) swaps, sorted by p.

    Set p holds a but not a+1, and set q is set p with a replaced by a+1, so
    q follows p in colex order.  Each mask is walked once over its elements.
    """
    rank = {m: i for i, m in enumerate(all_masks)}
    pairs: list[list[tuple[int, int]]] = [[] for _ in range(n - 1)]
    below_top = (1 << n - 1) - 1
    for p, m in enumerate(all_masks):
        for e in _bits(m & ~(m >> 1) & below_top):
            pairs[e].append((p, rank[m ^ 3 << e]))
    return pairs


def _swap_cut(pairs: list[tuple[int, int]], incl: int, pool: int) -> bool:
    """True if the transposition of ``pairs`` maps every completion of the
    node to a colex-smaller family.

    The first pair that is not decided equal (both members, or both out of
    ``incl`` and ``pool``) decides: it cuts iff both are decided, q joined
    and p did not.
    """
    for p, q in pairs:
        if (pool >> p | pool >> q) & 1:
            return False
        joined = incl >> p & 1
        if joined != incl >> q & 1:
            return not joined
    return False


def _bnb_max(
    all_masks: list[int],
    s: int,
    node_budget: Optional[int],
    parents: Optional[list[int]] = None,
    swaps: Optional[list[list[tuple[int, int]]]] = None,
) -> tuple[int, int]:
    """Branch-and-bound over inclusion decisions in colex order.

    ``parents[i]`` is a bitmask over list positions of the sets that must be
    included before set i (none when omitted); the list order must decide
    every parent before its child.  The undecided pool is a bitset over list
    positions, and include-first DFS on its lowest set makes the first
    maximizer found the colex-least one.  After every decision, sets that
    can no longer join the current branch -- infeasible next to it, or with
    a parent excluded or dropped -- leave the pool.

    Invariant: no pooled set has a parent excluded or dropped, and every
    pooled set is feasible next to the current members (adding it keeps the
    matching number <= s).  So the head of the pool, whose parents are all
    decided, can always be included without a test.

    Bounds: a node is cut when the members plus the pool cannot beat the
    best family, or, if every set is a singleton, s sets cannot (s + 1
    singletons are pairwise disjoint), and otherwise when the members plus
    the cliques of a greedy cover of the pool cannot.  Two pooled sets
    conflict iff they are disjoint and some (s-1)-matching of the members
    avoids both, so no two sets of a clique can join together.  Conflicts
    only grow with the members: a child inherits its parent's and adds
    those through the new member (see :func:`_include`).

    ``swaps`` (from :func:`_swap_pairs`) adds the lex-leader cut of the
    module docstring; pass it only when ``all_masks`` is every k-set of [n]
    and there are no parents.  A set is decided once it is a member or has
    left the pool, and it stays decided below the node, so a node rechecks
    only the transpositions that move a set its last decision decided: the
    others gave the parent no cut and give none now.  The cut never removes
    the colex-least maximizer, and the bounds cut a node only when a family
    at least as large was found earlier in include-first order, so the
    first maximizer found is still the colex-least one.
    """
    if parents is None:
        parents = [0] * len(all_masks)
    is_parent = 0
    for p in parents:
        is_parent |= p
    disj = _disjointness(all_masks, _holders(all_masks))
    most = s if all(m.bit_count() == 1 for m in all_masks) else len(all_masks)
    best_size = 0  # the empty family
    best_incl = 0
    nodes = 0
    # entries: pool, members, size, conflicts and the sets the last decision
    # decided; the include child is pushed last, so it is searched first
    stack = [((1 << len(all_masks)) - 1, 0, 0, disj if s == 1 else [0] * len(all_masks), 0)]
    transpositions = (1 << len(swaps or ())) - 1
    while stack:
        pool, incl, size, conf, fresh = stack.pop()
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            raise BudgetExceeded(
                f"max_family_size: node budget {node_budget} exhausted; "
                f"largest family found has {best_size} sets"
            )
        if size > best_size:
            best_size = size
            best_incl = incl
        slack = best_size - size
        if min(pool.bit_count(), most - size) <= slack:
            continue
        if swaps:
            touched = 0
            for j in _bits(fresh):
                touched |= all_masks[j] ^ all_masks[j] >> 1
            if any(_swap_cut(swaps[e], incl, pool) for e in _bits(touched & transpositions)):
                continue
        if _clique_cover(pool, conf, slack) <= slack:
            continue
        low = pool & -pool
        rest = pool ^ low
        # excluding a set that is nobody's parent orphans nothing
        excluded = _without_orphans(rest, incl, parents) if is_parent & low else rest
        stack.append((excluded, incl, size, conf, pool ^ excluded))
        grown, grown_conf = _include(low.bit_length() - 1, incl, rest, conf, s, all_masks, disj)
        if is_parent & rest & ~grown:
            grown = _without_orphans(grown, incl | low, parents)
        stack.append((grown, incl | low, size + 1, grown_conf, pool ^ grown))
    return best_size, best_incl


def max_family_size(
    n: int,
    k: int,
    s: int,
    method: str = "bnb",
    node_budget: Optional[int] = None,
) -> tuple[int, Family]:
    """Exact maximum size of a k-uniform family on [n] with matching number <= s.

    Returns the maximum together with a deterministic witness (colex-least
    among maximizers).  Raises :class:`BudgetExceeded` when a node budget is
    given and exhausted -- an explicit unknown, never a wrong answer.
    ``DEFAULT_BNB_CAP`` bounds C(n,k) only when no node budget is given; a
    budget bounds the work instead, up to C(n,k) <= ``_MAX_GROUND``.  A
    budget must be at least 1.  No k-set is built before these gates pass.
    Method ``exhaustive`` is ``bnb`` under its old name.
    """
    if not (n >= k >= 1 and s >= 1):
        raise ValueError("need n >= k >= 1 and s >= 1")
    if node_budget is not None and node_budget < 1:
        raise ValueError(f"node budget must be at least 1, got {node_budget}")
    if method not in ("bnb", "exhaustive", "shifted_only"):
        raise ValueError(f"unknown method {method!r}")
    name = "downset search" if method == "shifted_only" else "branch-and-bound"
    m = binom(n, k)
    if node_budget is None and m > DEFAULT_BNB_CAP:
        raise ValueError(
            f"{name} needs C(n,k) <= {DEFAULT_BNB_CAP} without a node budget, got {m}"
        )
    # the pool and conflict bitsets range over C(n,k) positions
    if m > _MAX_GROUND:
        raise ValueError(f"{name} needs C(n,k) <= {_MAX_GROUND} with any budget, got {m}")
    all_masks = list(enumerate_ksets(n, k))
    if method == "shifted_only":
        rank = {mm: i for i, mm in enumerate(all_masks)}
        parents = [sum(1 << rank[p] for p in _decrements(mm)) for mm in all_masks]
        best_size, best_incl = _bnb_max(all_masks, s, node_budget, parents)
    else:
        best_size, best_incl = _bnb_max(all_masks, s, node_budget, swaps=_swap_pairs(n, all_masks))
    witness = Family.from_masks(
        n, k, [mm for i, mm in enumerate(all_masks) if best_incl >> i & 1]
    )
    return best_size, witness


def verify_conjecture(
    n: int, k: int, s: int, method: str = "bnb", node_budget: Optional[int] = None
) -> AuditReport:
    """Check that the exact maximum equals the larger of the two candidates."""
    from .report import make_report  # so find_G0 alone loads no report record

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
    tr_masks = set(trace_masks(fam, k, s))
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
