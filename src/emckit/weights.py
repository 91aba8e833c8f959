"""Width/weight calculus over the canonical prefix partition.

A frame fixes the proof context: parameters (n, k, s) and the canonical
partition of the prefix [(s+1)k-1] into s blocks of size k, block i being
{(i-1)k+1, ..., ik}, and the distinguished (k-1)-set {sk+1, ..., (s+1)k-1}.
The width of a prefix subset is the number of blocks it meets; weights are
the exact rationals C(n_bar, k-d) / C(s-c, k-c) of width-c, size-d sets.
The family weight identity reads only the sizes of the trace members: the
width cancels from each of its terms, so it reads no partition at all.

The proof anchors its partition to the family; nothing here does, and one
layout is enough.  A permutation pi of the prefix carries the canonical
partition onto any other, and a family F read against pi's partition has
the same trace, widths and sizes as the relabelled family pi^-1(F) read
against the canonical one.  So an identity checked on the canonical
partition for every family holds for every partition.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .core import Family, binom
from .constructions import extremal_sizes, trace_masks
from .report import AuditReport, make_report


def epsilon_of(k: int) -> Fraction:
    return Fraction(1, 100 * k)


class WeightFrame:
    """Parameters (n, k, s) on the canonical prefix partition.

    Block i is {(i-1)k+1, ..., ik} and the distinguished set is the tail
    {sk+1, ..., (s+1)k-1}.  The layout is evaluated arithmetically, so
    frames with astronomically large s never materialize bit-vectors.
    """

    __slots__ = ("n", "k", "s")

    def __init__(self, n: int, k: int, s: int):
        if k < 1 or s < k:
            raise ValueError("need 1 <= k <= s")
        if n < (s + 1) * k - 1:
            raise ValueError("need n >= (s+1)k - 1")
        self.n = n
        self.k = k
        self.s = s

    @property
    def n_bar(self) -> int:
        return self.n - (self.s + 1) * self.k + 1

    def __repr__(self) -> str:
        return f"WeightFrame(n={self.n}, k={self.k}, s={self.s})"


def weight_value(k: int, s: int, n_bar: int, c: int, d: int) -> Fraction:
    """The exact weight C(n_bar, k-d) / C(s-c, k-c) of a width-c, size-d set."""
    if not 1 <= c <= d <= k:
        raise ValueError("need 1 <= c <= d <= k")
    if s - c < k - c:
        raise ValueError("need s >= k")
    return Fraction(binom(n_bar, k - d), binom(s - c, k - c))


def family_weight_identity(fam: Family, frame: WeightFrame) -> tuple[int, int, bool]:
    """Double-counting identity: total weighted trace mass equals the family size.

    The reduced sum weighs each trace member by the number of index sets M
    (k-subsets of [s]) whose local universe G_M, the distinguished set plus
    the blocks indexed by M, contains it.  A member of width v and size d
    lies in exactly the C(s-v, k-v) universes whose M holds its v blocks,
    and weighs C(n_bar, k-d) / C(s-v, k-v) in each, so its term is
    C(n_bar, k-d) whatever its width: the sum is, over sizes d, the number
    of trace members of size d times C(n_bar, k-d), and reads no partition.
    A member larger than k has no weight and is refused.  The
    member-by-member direct sum over M is the oracle in ``tests/``.
    """
    k = frame.k
    sizes = Counter(map(int.bit_count, trace_masks(fam, k, frame.s)))
    if max(sizes, default=0) > k:
        raise ValueError(f"trace member larger than k = {k}")
    lhs = sum(count * binom(frame.n_bar, k - d) for d, count in sizes.items())
    rhs = len(fam)
    return lhs, rhs, lhs == rhs


def identity_reports(fam: Family, s: int, family: str) -> list[AuditReport]:
    """The two rows of the ``identities`` command in the frame (fam.n, fam.k, s):
    the weight identity of ``fam``, whose name ``family`` goes into the row's
    params, and C(s, k) * wA_of_M against the size of the prefix family."""
    n, k = fam.n, fam.k
    frame = WeightFrame(n, k, s)
    lhs, rhs, _ = family_weight_identity(fam, frame)
    prefix_weight = binom(s, k) * wA_of_M(frame)
    size_a = extremal_sizes(n, k, s)[0]
    return [
        make_report(
            "identity:family_weight", {"n": n, "k": k, "s": s, "family": family}, lhs, rhs, "=="
        ),
        make_report(
            "identity:prefix_weight", {"n": n, "k": k, "s": s}, prefix_weight, size_a, "=="
        ),
    ]


def wA_of_M(frame: WeightFrame) -> Fraction:
    """Weighted count of all k-subsets of the local universe.

    Every local universe G_M is k blocks of size k plus the distinguished
    (k-1)-set, so the value is the same for each index set M, and C(s, k)
    times it is the size of the prefix candidate family.  The count of
    width-c k-subsets is :func:`candidate_count`; width 0 is impossible at
    size k.
    """
    k, s, n_bar = frame.k, frame.s, frame.n_bar
    counts = _count_table(k)
    return sum(weight_value(k, s, n_bar, c, k) * counts[c, k] for c in range(1, k + 1))


def block_subset_count(k: int, c: int, m: int) -> int:
    """Number of m-subsets of the k selected blocks that meet exactly c of them.

    Choose the c blocks, then count the m-subsets of their union that meet
    each of them by inclusion-exclusion over the blocks left empty.
    """
    return binom(k, c) * sum(
        (-1) ** i * binom(c, i) * binom((c - i) * k, m) for i in range(c + 1)
    )


def candidate_count(c: int, d: int, k: int) -> int:
    """Number of local-universe subsets with width c and size d, in closed form.

    The local universe is k blocks of size k plus the distinguished
    (k-1)-set, which adds no width: a subset takes j elements from the
    distinguished set and d-j from the blocks, so the count is
    sum_j C(k-1, j) * block_subset_count(k, c, d-j).  This is an upper
    envelope for the corresponding per-family counts.
    """
    if k < 1 or not 0 <= c <= d <= k:
        raise ValueError("need k >= 1 and 0 <= c <= d <= k")
    return sum(
        binom(k - 1, j) * block_subset_count(k, c, d - j) for j in range(min(k - 1, d) + 1)
    )


@lru_cache(maxsize=1)
def _count_table(k: int) -> dict[tuple[int, int], int]:
    """candidate_count(c, d, k) for every 1 <= c <= d <= k, keyed (c, d).

    The claim-3 rows, the claim-4 envelope at every g and wA_of_M read their
    counts here, so an audit computes each count once per k.
    """
    return {(c, d): candidate_count(c, d, k) for c in range(1, k + 1) for d in range(c, k + 1)}


def claim3_bound(c: int, d: int, k: int) -> Fraction:
    """The counting bound C(k,c) * k^(2d-c) / (d-c)!."""
    if not 1 <= c <= d <= k:
        raise ValueError("need 1 <= c <= d <= k")
    return Fraction(binom(k, c) * k ** (2 * d - c), factorial(d - c))


def wg_envelope(frame: WeightFrame, g: int) -> tuple[Fraction, Fraction, bool]:
    """Family-independent envelope for the weighted mass of defect >= g.

    lhs sums weight * candidate count over widths c and sizes d < k with
    d - c >= g; rhs is the exponential-decay bound
    (1 + 2/k) * k^(k+2g) * eps / (s^g * g!).  Exact rationals throughout.
    """
    k, s, n_bar = frame.k, frame.s, frame.n_bar
    if not 0 <= g <= k - 2:
        raise ValueError("need 0 <= g <= k-2")
    counts = _count_table(k)
    lhs = Fraction(0)
    for c in range(1, k - g):
        for d in range(c + g, k):
            cnt = counts[c, d]
            if cnt:
                lhs += weight_value(k, s, n_bar, c, d) * cnt
    rhs = (
        Fraction(k + 2, k)
        * k ** (k + 2 * g)
        * epsilon_of(k)
        / (s**g * factorial(g))
    )
    return lhs, rhs, lhs <= rhs
