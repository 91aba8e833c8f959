"""Width/weight calculus over the canonical prefix partition.

A frame fixes the proof context: parameters (n, k, s) and the canonical
partition of the prefix [(s+1)k-1] into s blocks of size k, block i being
{(i-1)k+1, ..., ik}, and the distinguished (k-1)-set {sk+1, ..., (s+1)k-1}.
The width of a prefix subset is the number of blocks it meets; weights are
the exact rationals C(n_bar, k-d) / C(s-c, k-c) of width-c, size-d sets.

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
from itertools import repeat
from math import factorial
from operator import or_, rshift
from typing import Collection

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


def weight_cd(c: int, d: int, frame: WeightFrame) -> Fraction:
    return weight_value(frame.k, frame.s, frame.n_bar, c, d)


def _width_zero_weight(frame: WeightFrame, d: int) -> Fraction:
    # sets inside the distinguished set: multiplier C(s,k), weight C(n_bar,k-d)/C(s,k)
    return Fraction(binom(frame.n_bar, frame.k - d), binom(frame.s, frame.k))


def width_size_counts(masks: Collection[int], k: int, s: int) -> Counter:
    """Count subsets of the prefix, given as masks, by (width, size).

    Block i holds bits (i-1)k .. ik-1 and the tail bits sk and up.  Bit
    (i-1)k of the fold m | m>>1 | ... | m>>(k-1) is the OR of bits
    (i-1)k .. (i-1)k+k-1 of m, all of them in block i: a shift of at most
    k-1 never carries a bit of another block, or of the tail, onto a block
    start.  So the fold meets ``starts``, the bits 0, k, ..., (s-1)k, in one
    bit per block that m meets, and the width is the count of those bits.

    The shifts are lazy maps over ``masks`` zipped in step, so no list of
    folds is held; ``masks`` must iterate in the same order every time, as
    an unchanged set or list does.
    """
    starts = sum(1 << i * k for i in range(s))
    folds = masks
    for j in range(1, k):
        folds = map(or_, folds, map(rshift, masks, repeat(j)))
    widths = map(int.bit_count, map(starts.__and__, folds))
    return Counter(zip(widths, map(int.bit_count, masks)))


def family_weight_identity(fam: Family, frame: WeightFrame) -> tuple[Fraction, int, bool]:
    """Double-counting identity: total weighted trace mass equals the family size.

    The reduced sum weighs each trace member by the number of index sets M
    (k-subsets of [s]) whose local universe G_M, the distinguished set plus
    the blocks indexed by M, contains it.  Width and weight depend on the
    member alone, never on M, so one pass over the trace counts its members
    by (width, size) (:func:`width_size_counts`), and the sum is, over
    classes, C(s-v, k-v) * count * weight for width v.  The partition is the
    canonical one; the identity under any other partition is this one for
    the relabelled family (see the module docstring).

    The direct sum over every M is not computed again: a member meeting v
    blocks lies in exactly the C(s-v, k-v) universes whose M holds those
    blocks, which is the multiplier above, so the two sums agree term by
    term.  And C(s-v, k-v) * w(v, d) = C(n_bar, k-d), so each term is
    count * C(n_bar, k-d) and the row does not depend on the widths.  The
    member-by-member direct sum is the oracle in ``tests/``.
    """
    k, s = frame.k, frame.s
    lhs = Fraction(0)
    for (v, d), count in width_size_counts(trace_masks(fam, k, s), k, s).items():
        weight = weight_cd(v, d, frame) if v else _width_zero_weight(frame, d)
        lhs += binom(s - v, k - v) * count * weight
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
    return sum(
        weight_value(k, s, n_bar, c, k) * candidate_count(c, k, k) for c in range(1, k + 1)
    )


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
    lhs = Fraction(0)
    for c in range(1, k - g):
        for d in range(c + g, k):
            cnt = candidate_count(c, d, k)
            if cnt:
                lhs += weight_value(k, s, n_bar, c, d) * cnt
    rhs = (
        Fraction(k + 2, k)
        * k ** (k + 2 * g)
        * epsilon_of(k)
        / (s**g * factorial(g))
    )
    return lhs, rhs, lhs <= rhs
