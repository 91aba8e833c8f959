"""Width/weight calculus over a fixed prefix partition.

A frame fixes the proof context: parameters (n, k, s), a partition of the
prefix [(s+1)k-1] into a distinguished (k-1)-set and s blocks of size k, and
a selected k-subset M of block indices.  The width of a prefix subset is the
number of blocks it meets; weights are the exact rationals
C(n_bar, k-d) / C(s-c, k-c) of width-c, size-d sets.  Any partition of the
prefix suffices for the bookkeeping identities.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial
from typing import Iterable, Optional

from .core import Family, binom, mask_of
from .constructions import prefix_size, trace_of

_DIRECT_SUM_LIMIT = 400  # most index sets M the weight identity cross-checks one by one


class WeightFrame:
    """Parameters plus a prefix partition and a selected index set M.

    With no explicit partition the canonical layout is used: block i is
    {(i-1)k+1, ..., ik} and the distinguished set is the tail
    {sk+1, ..., (s+1)k-1}.  The canonical layout is evaluated arithmetically,
    so frames with astronomically large s never materialize bit-vectors.
    """

    __slots__ = ("n", "k", "s", "m_indices", "_g0", "_blocks")

    def __init__(
        self,
        n: int,
        k: int,
        s: int,
        m_indices: Optional[Iterable[int]] = None,
        g0: Optional[tuple[int, ...]] = None,
        blocks: Optional[tuple[tuple[int, ...], ...]] = None,
    ):
        if k < 1 or s < k:
            raise ValueError("need 1 <= k <= s")
        if n < (s + 1) * k - 1:
            raise ValueError("need n >= (s+1)k - 1")
        self.n = n
        self.k = k
        self.s = s
        m = tuple(sorted(m_indices)) if m_indices is not None else tuple(range(1, k + 1))
        if len(m) != k or len(set(m)) != k or not all(1 <= i <= s for i in m):
            raise ValueError("M must be a k-subset of [s]")
        self.m_indices = m
        if (g0 is None) != (blocks is None):
            raise ValueError("give both g0 and blocks, or neither")
        if g0 is not None:
            g0 = tuple(sorted(g0))
            blocks = tuple(tuple(sorted(b)) for b in blocks)
            self._validate_partition(g0, blocks)
        self._g0 = g0
        self._blocks = blocks

    def _validate_partition(self, g0, blocks):
        p = prefix_size(self.k, self.s)
        if len(g0) != self.k - 1:
            raise ValueError("distinguished set must have size k-1")
        if len(blocks) != self.s or any(len(b) != self.k for b in blocks):
            raise ValueError(f"need {self.s} blocks of size {self.k}")
        all_elems = list(g0) + [e for b in blocks for e in b]
        if sorted(all_elems) != list(range(1, p + 1)):
            raise ValueError("distinguished set and blocks must partition the prefix")

    # -- layout ----------------------------------------------------------

    @property
    def epsilon(self) -> Fraction:
        return Fraction(1, 100 * self.k)

    @property
    def n_bar(self) -> int:
        return self.n - (self.s + 1) * self.k + 1

    @property
    def prefix(self) -> int:
        return prefix_size(self.k, self.s)

    def block_index(self, e: int) -> int:
        """Index in [s] of the block containing element e; 0 for the distinguished set."""
        if not 1 <= e <= self.prefix:
            raise ValueError(f"element {e} outside prefix [1, {self.prefix}]")
        if self._blocks is None:
            return 0 if e > self.s * self.k else (e - 1) // self.k + 1
        for i, b in enumerate(self._blocks, start=1):
            if e in b:
                return i
        return 0

    def g0_elements(self) -> tuple[int, ...]:
        if self._g0 is not None:
            return self._g0
        return tuple(range(self.s * self.k + 1, self.prefix + 1))

    def block_elements(self, i: int) -> tuple[int, ...]:
        if not 1 <= i <= self.s:
            raise ValueError("block index outside [1, s]")
        if self._blocks is not None:
            return self._blocks[i - 1]
        return tuple(range((i - 1) * self.k + 1, i * self.k + 1))

    def b_blocks(self) -> list[tuple[int, ...]]:
        """The selected blocks B_1..B_k, in M order."""
        return [self.block_elements(i) for i in self.m_indices]

    def gm_elements(self) -> tuple[int, ...]:
        """The local universe: distinguished set plus the k selected blocks."""
        elems = list(self.g0_elements())
        for b in self.b_blocks():
            elems.extend(b)
        return tuple(sorted(elems))

    def with_m(self, m_indices: Iterable[int]) -> "WeightFrame":
        return WeightFrame(self.n, self.k, self.s, m_indices, self._g0, self._blocks)

    def __repr__(self) -> str:
        return f"WeightFrame(n={self.n}, k={self.k}, s={self.s}, M={self.m_indices})"


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


def family_weight_identity(fam: Family, frame: WeightFrame) -> tuple[Fraction, int, bool]:
    """Double-counting identity: total weighted trace mass equals the family size.

    The reduced sum weighs each trace member by the number of index sets M
    whose local universe contains it.  When C(s, k) <= ``_DIRECT_SUM_LIMIT`` the
    direct sum over all M is evaluated as well and must agree exactly.

    Width and weight depend on the member and the partition, never on M, so
    one pass over the trace counts its members by (the blocks they meet, as
    a bitset over block indices; size).  A member lies in a local universe
    iff every block it meets lies wholly inside it, so the direct sum adds,
    per M, the classes whose blocks lie inside M's universe, and the reduced
    sum is sum over classes of C(s-v, k-v) * count * weight for width v.
    """
    k, s = frame.k, frame.s
    p = frame.prefix
    block_bit = [0] * (p + 1)  # element -> bit of the block holding it
    for i in range(1, s + 1):
        for e in frame.block_elements(i):
            block_bit[e] = 1 << (i - 1)
    counts: dict[tuple[int, int], int] = {}
    for mask in trace_of(fam, k, s).members:
        met, rest = 0, mask
        while rest:
            low = rest & -rest
            met |= block_bit[low.bit_length()]
            rest ^= low
        key = (met, mask.bit_count())
        counts[key] = counts.get(key, 0) + 1
    weight = {
        (met, d): weight_cd(met.bit_count(), d, frame) if met else _width_zero_weight(frame, d)
        for met, d in counts
    }
    lhs = Fraction(0)
    for (met, d), count in counts.items():
        v = met.bit_count()
        lhs += binom(s - v, k - v) * count * weight[met, d]
    rhs = len(fam)
    if binom(s, k) <= _DIRECT_SUM_LIMIT:
        blocks = [mask_of(p, frame.block_elements(i)) for i in range(1, s + 1)]
        insides = []  # per M, the blocks lying wholly inside its local universe
        for m_combo in combinations(range(1, s + 1), k):
            outside = ~mask_of(p, frame.with_m(m_combo).gm_elements())
            insides.append(sum(1 << i for i, b in enumerate(blocks) if not b & outside))
        direct = Fraction(0)
        for (met, d), count in counts.items():
            hits = sum(1 for inside in insides if not met & ~inside)
            direct += hits * count * weight[met, d]
        if direct != lhs:
            raise RuntimeError(
                f"direct M-sum {direct} disagrees with reduced sum {lhs}"
            )
    return lhs, rhs, lhs == rhs


def wA_of_M(frame: WeightFrame) -> Fraction:
    """Weighted count of all k-subsets of the local universe.

    By symmetry over M, C(s, k) times this value is the size of the prefix
    candidate family.  Every partition gives the local universe k blocks of
    size k plus a (k-1)-set, so the count of width-c k-subsets is
    :func:`candidate_count`; width 0 is impossible at size k.
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
        * frame.epsilon
        / (s**g * factorial(g))
    )
    return lhs, rhs, lhs <= rhs
