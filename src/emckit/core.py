"""Ground-set subsets, families, the precedence order, and exact primitives.

Everything downstream works over subsets of [n] = {1, ..., n}.  Subsets are
stored as bit-vectors (Python ints), families as canonically sorted tuples of
subsets.  All arithmetic that feeds an identity or inequality is exact:
integers stay integers, ratios are ``fractions.Fraction``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Union

ExactScalar = Union[int, Fraction]

# Bit-vector ground sets are capped; huge-parameter audits work through
# closed-form counts and never materialize sets this large.
_MAX_GROUND = 4096


class KSet:
    """An immutable subset of [n], elements 1..n, stored as a bitmask."""

    __slots__ = ("n", "mask", "size")

    def __init__(self, n: int, mask: int = 0):
        if n < 0 or n > _MAX_GROUND:
            raise ValueError(f"ground set size {n} outside [0, {_MAX_GROUND}]")
        if mask < 0 or mask >> n:
            raise ValueError("set bits outside ground set")
        self.n = n
        self.mask = mask
        self.size = mask.bit_count()

    @classmethod
    def from_elements(cls, n: int, elements: Iterable[int]) -> "KSet":
        mask = 0
        for e in elements:
            if not 1 <= e <= n:
                raise ValueError(f"element {e} outside [1, {n}]")
            mask |= 1 << (e - 1)
        return cls(n, mask)

    @property
    def elements(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in range(self.n) if self.mask >> i & 1)

    def __contains__(self, e: int) -> bool:
        return 1 <= e <= self.n and bool(self.mask >> (e - 1) & 1)

    def isdisjoint(self, other: "KSet") -> bool:
        return not self.mask & other.mask

    def issubset(self, other: "KSet") -> bool:
        return self.mask & ~other.mask == 0

    def min_element(self) -> int:
        if not self.mask:
            raise ValueError("empty set has no minimum")
        return (self.mask & -self.mask).bit_length()

    def union(self, other: "KSet") -> "KSet":
        return KSet(max(self.n, other.n), self.mask | other.mask)

    def intersection(self, other: "KSet") -> "KSet":
        return KSet(max(self.n, other.n), self.mask & other.mask)

    def difference(self, other: "KSet") -> "KSet":
        return KSet(self.n, self.mask & ~other.mask)

    def with_ground(self, n: int) -> "KSet":
        """The same set over a different ground size (must still fit)."""
        return KSet(n, self.mask)

    __or__ = union
    __and__ = intersection
    __sub__ = difference

    def __eq__(self, other) -> bool:
        return isinstance(other, KSet) and self.mask == other.mask and self.n == other.n

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    def __lt__(self, other: "KSet") -> bool:
        # (size, colex) order; colex on equal-size sets is numeric mask order
        return (self.size, self.mask) < (other.size, other.mask)

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __repr__(self) -> str:
        return "{" + ",".join(map(str, self.elements)) + "}"


class Family:
    """A duplicate-free collection of KSets over a common ground set.

    ``k`` is the uniformity: every member has size k, or ``None`` for mixed
    families (traces).  Members are kept sorted by (size, colex), which makes
    equality and diffing canonical.
    """

    __slots__ = ("n", "k", "members", "_mask_set")

    def __init__(self, n: int, k: Optional[int], members: Iterable[KSet]):
        members = sorted(members)
        masks = set()
        for m in members:
            if m.n != n:
                raise ValueError("member ground set differs from family ground set")
            if k is not None and m.size != k:
                raise ValueError(f"member {m!r} violates uniformity k={k}")
            if m.mask in masks:
                raise ValueError(f"duplicate member {m!r}")
            masks.add(m.mask)
        self.n = n
        self.k = k
        self.members = tuple(members)
        self._mask_set = frozenset(masks)

    @classmethod
    def from_masks(cls, n: int, k: Optional[int], masks: Iterable[int]) -> "Family":
        return cls(n, k, (KSet(n, m) for m in masks))

    @property
    def masks(self) -> tuple[int, ...]:
        return tuple(m.mask for m in self.members)

    def mask_set(self) -> frozenset:
        return self._mask_set

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[KSet]:
        return iter(self.members)

    def __contains__(self, item) -> bool:
        if isinstance(item, KSet):
            return item.mask in self._mask_set
        return False

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Family)
            and self.n == other.n
            and self.k == other.k
            and self.members == other.members
        )

    def __hash__(self) -> int:
        return hash((self.n, self.k, self.members))

    def __repr__(self) -> str:
        return f"Family(n={self.n}, k={self.k}, size={len(self)})"

    def to_text(self) -> str:
        """Serialize in the shared family text format."""
        k_field = "*" if self.k is None else str(self.k)
        lines = [f"{self.n} {k_field}"]
        for m in self.members:
            lines.append(",".join(map(str, m.elements)))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Family":
        """Parse the shared family text format.

        Line 1 is "n k" (k may be "*"), each further non-blank, non-comment
        line is a strictly increasing comma-separated list of elements.
        """
        header = None
        members = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if header is None:
                parts = line.split()
                if len(parts) != 2:
                    raise ValueError(f"line {lineno}: header must be 'n k'")
                n = int(parts[0])
                k = None if parts[1] == "*" else int(parts[1])
                header = (n, k)
                continue
            elems = [int(tok) for tok in line.split(",") if tok.strip() != ""]
            if any(a >= b for a, b in zip(elems, elems[1:])):
                raise ValueError(f"line {lineno}: elements must be strictly increasing")
            members.append(KSet.from_elements(header[0], elems))
        if header is None:
            raise ValueError("missing header line")
        return cls(header[0], header[1], members)


def binom(a: int, b: int) -> int:
    """C(a, b), with the convention that out-of-range b gives 0."""
    if a < 0:
        raise ValueError("upper index must be non-negative")
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def precedes(f: KSet, g: KSet) -> bool:
    """Coordinatewise order on sorted elements: f_i <= g_i for every i."""
    if f.size != g.size:
        raise ValueError("precedes is only defined for equal-size sets")
    return all(a <= b for a, b in zip(f.elements, g.elements))


def _colex_masks(n: int, k: int) -> Iterator[int]:
    if k == 0:
        yield 0
        return
    for top in range(k, n + 1):
        high = 1 << (top - 1)
        for rest in _colex_masks(top - 1, k - 1):
            yield rest | high


def enumerate_ksets(n: int, k: int) -> Iterator[KSet]:
    """All k-subsets of [n] in colexicographic order."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    for mask in _colex_masks(n, k):
        yield KSet(n, mask)


def complete_family(n: int, k: int) -> Family:
    """The family of all k-subsets of [n]."""
    return Family(n, k, enumerate_ksets(n, k))
