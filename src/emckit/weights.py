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

from functools import lru_cache
from math import factorial
from typing import Iterable

from .core import Family, binom
from .constructions import extremal_sizes, trace_sizes
from .exact import Rational
from .report import AuditReport, make_report


def epsilon_of(k: int) -> Rational:
    return Rational(1, 100 * k)


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


def weight_value(k: int, s: int, n_bar: int, c: int, d: int) -> Rational:
    """The exact weight C(n_bar, k-d) / C(s-c, k-c) of a width-c, size-d set."""
    if not 1 <= c <= d <= k:
        raise ValueError("need 1 <= c <= d <= k")
    if s - c < k - c:
        raise ValueError("need s >= k")
    return Rational(binom(n_bar, k - d), binom(s - c, k - c))


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
    # members largest first, as trace_sizes needs for a mixed family
    return _weight_identity(reversed(fam.members), fam.n, frame)


def _weight_identity(members: Iterable[int], n: int, frame: WeightFrame) -> tuple[int, int, bool]:
    """:func:`family_weight_identity` in one pass over the member masks of a
    family over [n], given as :func:`trace_sizes` takes them."""
    k = frame.k
    sizes, rhs = trace_sizes(members, n, k, frame.s)
    if max(sizes, default=0) > k:
        raise ValueError(f"trace member larger than k = {k}")
    lhs = sum(count * binom(frame.n_bar, k - d) for d, count in sizes.items())
    return lhs, rhs, lhs == rhs


def identity_reports(
    members: Iterable[int], n: int, k: int, s: int, family: str
) -> list[AuditReport]:
    """The two rows of the ``identities`` command in the frame (n, k, s): the
    weight identity of the k-uniform family over [n] whose distinct member
    masks ``members`` yields once, in any order, and whose name ``family``
    goes into the row's params; and C(s, k) * wA_of_M against the size of
    the prefix family.  The members are counted as they come, never held."""
    frame = WeightFrame(n, k, s)
    lhs, rhs, _ = _weight_identity(members, n, frame)
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


def wA_of_M(frame: WeightFrame) -> Rational:
    """Weighted count of all k-subsets of the local universe.

    Every local universe G_M is k blocks of size k plus the distinguished
    (k-1)-set, so the value is the same for each index set M, and C(s, k)
    times it is the size of the prefix candidate family.  The count of
    width-c k-subsets is read from :func:`_count_table`; width 0 is
    impossible at size k.
    """
    k, s, n_bar = frame.k, frame.s, frame.n_bar
    every = _count_table(k)[0]
    return sum(weight_value(k, s, n_bar, c, k) * every[c][k] for c in range(1, k + 1))


def candidate_count(c: int, d: int, k: int) -> int:
    """Number of local-universe subsets with width c and size d, read from
    :func:`_count_table`.  This is an upper envelope for the corresponding
    per-family counts."""
    if k < 1 or not 0 <= c <= d <= k:
        raise ValueError("need k >= 1 and 0 <= c <= d <= k")
    return _count_table(k)[0][c][d]


@lru_cache(maxsize=1)
def _count_table(k: int) -> tuple[list[list[int]], list[list[int]]]:
    """Local-universe subset counts ``every[c][d]`` and ``inside[c][d]`` by
    width c and size d, for every 0 <= c, d <= k.

    A width-c, size-d subset takes any part of the distinguished (k-1)-set
    and a non-empty part of each of c chosen blocks of size k, so
    every[c][d] = C(k, c) * [x^d] (1+x)^(k-1) * ((1+x)^k - 1)^c, and
    inside[c][d], the subsets inside the blocks, drops the factor
    (1+x)^(k-1).  Row c is row c-1 times (1+x)^k - 1, truncated at degree
    k: O(k^3) integer products.  The audits read their counts here, so one
    k is kept.
    """
    blocks = [0] + [binom(k, j) for j in range(1, k + 1)]  # (1+x)^k - 1
    every, inside = [[binom(k - 1, d) for d in range(k + 1)]], [[1] + [0] * k]
    for rows in (every, inside):
        for _ in range(k):
            # blocks[0] is 0, so the term i = d drops out
            rows.append([sum(rows[-1][i] * blocks[d - i] for i in range(d)) for d in range(k + 1)])
        rows[:] = [[binom(k, c) * count for count in row] for c, row in enumerate(rows)]
    return every, inside


def claim3_bound(c: int, d: int, k: int) -> Rational:
    """The counting bound C(k,c) * k^(2d-c) / (d-c)!."""
    if not 1 <= c <= d <= k:
        raise ValueError("need 1 <= c <= d <= k")
    return Rational(binom(k, c) * k ** (2 * d - c), factorial(d - c))


def wg_envelopes(frame: WeightFrame) -> list[tuple[Rational, Rational, bool]]:
    """Family-independent envelopes (lhs, rhs, lhs <= rhs) for the weighted
    mass of defect >= g, for g = 0, ..., k-2.

    The mass of defect g sums weight * candidate count over widths c >= 1
    and sizes d = c + g < k; lhs(g) sums the masses of the defects >= g, so
    each term is computed once.  rhs(g) is the exponential-decay bound
    (1 + 2/k) * k^(k+2g) * eps / (s^g * g!).  Exact rationals throughout.
    """
    k, s, n_bar = frame.k, frame.s, frame.n_bar
    every = _count_table(k)[0]
    envelopes = []
    lhs = Rational(0)
    for g in range(k - 2, -1, -1):
        lhs += sum(weight_value(k, s, n_bar, c, c + g) * every[c][c + g] for c in range(1, k - g))
        rhs = Rational(k + 2, k) * k ** (k + 2 * g) * epsilon_of(k) / (s**g * factorial(g))
        envelopes.append((lhs, rhs, lhs <= rhs))
    return envelopes[::-1]
