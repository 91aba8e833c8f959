"""Independent truth for every output the benchmark checks.

Nothing here imports emckit.  Expected values come from the definitions,
computed with ``math.comb`` and ``Fraction`` on plain bitmasks, so a defect in
the library cannot hide inside its own check.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

CMP = {
    "<=": operator.le,
    "<": operator.lt,
    "==": operator.eq,
    ">=": operator.ge,
    ">": operator.gt,
}


def mask(elements) -> int:
    m = 0
    for e in elements:
        m |= 1 << (e - 1)
    return m


def elements(m: int) -> list[int]:
    return [i + 1 for i in range(m.bit_length()) if m >> i & 1]


def family_text(n: int, k: int, masks) -> str:
    """The shared family text format, members in colex order."""
    return f"{n} {k}\n" + "".join(
        ",".join(map(str, elements(m))) + "\n" for m in sorted(masks)
    )


def parse_family(text: str) -> tuple[int, int, list[int]]:
    """(n, k, masks) of a family file; raises ValueError on a malformed one."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    n, k = map(int, lines[0].split())
    masks = []
    for ln in lines[1:]:
        elems = [int(tok) for tok in ln.split(",")]
        if len(elems) != k or elems != sorted(set(elems)) or not 1 <= elems[0] <= elems[-1] <= n:
            raise ValueError(f"bad member {ln!r}")
        masks.append(mask(elems))
    if len(set(masks)) != len(masks):
        raise ValueError("duplicate member")
    return n, k, masks


def ksets(n: int, k: int) -> list[int]:
    """All k-subsets of [n] as masks, in colex (numeric) order."""
    return sorted(mask(c) for c in combinations(range(1, n + 1), k))


# -- extremal sizes and the desk-scale maximum --------------------------------


def prefix_size(k: int, s: int) -> int:
    return (s + 1) * k - 1


def emc_maximum(n: int, k: int, s: int) -> int:
    """The largest k-uniform family on [n] with matching number <= s.

    Below n = (s+1)k no s+1 disjoint k-sets fit, so every k-set is allowed.
    Above it the maximum is max(|A|, |B|): Erdos-Gallai (1959) for k = 2,
    Frankl (2017) for k = 3.  Larger k is not a theorem, so it is refused.
    """
    if k > 3:
        raise ValueError("EMC is proved only for k <= 3")
    if n < (s + 1) * k:
        return comb(n, k)
    return max(comb(prefix_size(k, s), k), comb(n, k) - comb(n - s, k))


def crossover(k: int, s: int) -> int:
    n = (s + 1) * k
    while comb(n, k) - comb(n - s, k) <= comb(prefix_size(k, s), k):
        n += 1
    return n


def window(k: int, s: int) -> tuple[int, int]:
    """Both endpoints of (s+1)k <= n < (s+1)(k + 1/100k)."""
    return (s + 1) * k, ((s + 1) * (100 * k * k + 1) - 1) // (100 * k)


# -- width/weight calculus in closed form -------------------------------------


def _touching(k: int, c: int, m: int) -> int:
    """m-subsets of c blocks of size k (c chosen of k) meeting every chosen block."""
    inner = sum((-1) ** i * comb(c, i) * comb((c - i) * k, m) for i in range(c + 1))
    return comb(k, c) * inner


def local_count(k: int, c: int, d: int) -> int:
    """d-subsets of width c in the local universe: k blocks of size k plus
    the distinguished (k-1)-set, which has no width."""
    return sum(comb(k - 1, j) * _touching(k, c, d - j) for j in range(min(k - 1, d) + 1))


def weight(k: int, s: int, n_bar: int, c: int, d: int) -> Fraction:
    return Fraction(comb(n_bar, k - d), comb(s - c, k - c))


def expected_row(row: dict):
    """(lhs, rhs) a report row must carry, or None for a claim with no closed
    form here (its verdict is still rechecked from the stored sides)."""
    cid, p = row["claim_id"], row["params"]
    k = p.get("k")
    if cid == "claim2:weight_bound":
        s, n, c, d = p["s"], p["n"], p["c"], p["d"]
        eps = Fraction(1, 100 * k)
        rhs = (
            Fraction(k + 1, k) * eps ** (k - d) / s ** (d - c)
            * Fraction(factorial(k - c), factorial(k - d))
        )
        return weight(k, s, n - (s + 1) * k + 1, c, d), rhs
    if cid == "claim3:count_bound":
        c, d = p["c"], p["d"]
        return local_count(k, c, d), Fraction(comb(k, c) * k ** (2 * d - c), factorial(d - c))
    if cid == "claim4:wg_envelope":
        s, n, g = p["s"], p["n"], p["g"]
        n_bar = n - (s + 1) * k + 1
        lhs = sum(
            (weight(k, s, n_bar, c, d) * local_count(k, c, d)
             for c in range(1, k - g) for d in range(c + g, k)),
            Fraction(0),
        )
        rhs = Fraction(k + 2, k) * k ** (k + 2 * g) * Fraction(1, 100 * k) / (s**g * factorial(g))
        return lhs, rhs
    if cid == "lemma:r_count_envelope":
        lhs = sum(comb(k - 1, j) * _touching(k, k - 2, k - 1 - j) for j in range(1, k))
        return lhs, Fraction((k - 1) ** 2 * k ** (k - 1), 2)
    if cid == "transversal:full_count":
        return k**k, k**k
    if cid == "transversal:cyclic_collections":
        return (k - 1) ** (k - 1), (k - 1) ** (k - 1)
    if cid == "transversal:bad_pair_per_set":
        return k * (k - 1) ** (k - 1), k * (k - 1) ** (k - 1)
    if cid in (
        "transversal:full_weight",
        "transversal:cyclic_no_shared",
        "transversal:q_family_disjoint",
        "claim8:product_inequality",
    ):
        return 0, 0
    return None


def row_ok(row: dict) -> bool:
    """The row passes, its verdict follows from its own p/q sides, and the
    sides match the closed form where one is known."""
    lhs, rhs = Fraction(row["lhs"]), Fraction(row["rhs"])
    if row["pass"] is not True or not CMP[row["cmp"]](lhs, rhs):
        return False
    expected = expected_row(row)
    return expected is None or (lhs, rhs) == tuple(map(Fraction, expected))


# -- shifting, matchings, pivot sets -----------------------------------------


def _compress(fam: set[int], i: int, j: int) -> set[int] | None:
    """The (i,j)-compression of fam, or None when it changes nothing."""
    bi, bj = 1 << (i - 1), 1 << (j - 1)
    if all(not m & bj or m & bi or (m & ~bj | bi) in fam for m in fam):
        return None
    return {
        (m & ~bj | bi) if m & bj and not m & bi and (m & ~bj | bi) not in fam else m
        for m in fam
    }


def shift_fixpoint(masks, n: int) -> set[int]:
    """Compressions over (i,j), j outer and i inner, restarting after any change."""
    fam = set(masks)
    changed = True
    while changed:
        changed = False
        for j in range(2, n + 1):
            for i in range(1, j):
                nxt = _compress(fam, i, j)
                if nxt is not None:
                    fam, changed = nxt, True
                    break
            if changed:
                break
    return fam


def is_shifted(fam: set[int]) -> bool:
    """Every single-element decrement of every member is a member."""
    for m in fam:
        for x in elements(m):
            for y in range(1, x):
                if not m >> (y - 1) & 1 and (m & ~(1 << (x - 1)) | 1 << (y - 1)) not in fam:
                    return False
    return True


def is_compression_stable(fam: set[int], n: int) -> bool:
    return all(_compress(fam, i, j) is None for j in range(2, n + 1) for i in range(1, j))


def matching_number(masks, n: int) -> int:
    """Exact maximum number of pairwise disjoint members.

    Dynamic programme over the least uncovered element x: leave it
    uncovered, or cover it with a member whose least element it is.  Only
    the covered elements above x matter, which keeps the state space small.
    """
    by_min: dict[int, list[int]] = {}
    for m in masks:
        by_min.setdefault((m & -m).bit_length(), []).append(m)
    memo: dict[int, int] = {}

    def best(x: int, used: int) -> int:
        while x <= n and used >> (x - 1) & 1:
            x += 1
        if x > n:
            return 0
        key = used << 6 | x
        if key not in memo:
            memo[key] = max(
                [best(x + 1, used)]
                + [1 + best(x + 1, used | m) for m in by_min.get(x, ()) if not m & used]
            )
        return memo[key]

    return best(1, 0)


def find_g0(masks, k: int, s: int):
    """Colex-least (k-1)-subset of the prefix, not a trace member, such that
    every member disjoint from it plus that member's least element is a member."""
    p = prefix_size(k, s)
    fam = set(masks)
    trace = {m & ((1 << p) - 1) for m in fam}
    for cand in ksets(p, k - 1):
        if cand in trace:
            continue
        if all(m & cand or (cand | (m & -m)) in fam for m in fam):
            return cand
    return None


def generated_family(trace, n: int, k: int) -> list[int]:
    """All k-subsets of [n] containing at least one trace member."""
    return [m for m in ksets(n, k) if any(m & t == t for t in trace)]
