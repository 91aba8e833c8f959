"""Ground-set subsets, families, colex enumeration, and exact primitives,
with ``BudgetExceeded``, the explicit unknown every budgeted search raises.

Everything downstream works over subsets of [n] = {1, ..., n}, stored as
bit-vectors (Python ints): element e is bit e-1.  A ``Family`` is a
validated, canonically sorted tuple of such masks; ``KSet`` is the small
single-set value type used at the edges (matching certificates, the pivot
set, transversal constructions).  All arithmetic that feeds an identity or
inequality is exact: integers stay integers, ratios are
``emckit.exact.Rational`` (``exact_parts`` reads either).
"""

from __future__ import annotations

import math
from itertools import islice
from operator import eq
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Union

if TYPE_CHECKING:
    from .exact import Rational

ExactScalar = Union[int, "Rational"]

# Bit-vector ground sets are capped; huge-parameter audits work through
# closed-form counts and never materialize sets this large.
_MAX_GROUND = 4096


class BudgetExceeded(RuntimeError):
    """Raised when a search exhausts its node budget: the answer is unknown."""


def _check_ground(n: int) -> None:
    if not 0 <= n <= _MAX_GROUND:
        raise ValueError(f"ground set size {n} outside [0, {_MAX_GROUND}]")


def _check_header(n: int, k: Optional[int]) -> None:
    """Refuse a ground set or a uniformity that no family over [n] can have."""
    _check_ground(n)
    if k is not None and not 0 <= k <= n:
        raise ValueError(f"uniformity k={k} outside [0, {n}]")


def mask_of(n: int, elements: Iterable[int]) -> int:
    """The bitmask of a set of elements of [n]."""
    mask = 0
    for e in elements:
        if not 1 <= e <= n:
            raise ValueError(f"element {e} outside [1, {n}]")
        mask |= 1 << (e - 1)
    return mask


def _elements(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


class KSet:
    """An immutable subset of [n], elements 1..n, stored as a bitmask."""

    __slots__ = ("n", "mask", "size")

    def __init__(self, n: int, mask: int = 0):
        _check_ground(n)
        if mask < 0 or mask >> n:
            raise ValueError("set bits outside ground set")
        self.n = n
        self.mask = mask
        self.size = mask.bit_count()

    @classmethod
    def from_elements(cls, n: int, elements: Iterable[int]) -> "KSet":
        return cls(n, mask_of(n, elements))

    @property
    def elements(self) -> tuple[int, ...]:
        return _elements(self.mask)

    def __contains__(self, e: int) -> bool:
        return 1 <= e <= self.n and bool(self.mask >> (e - 1) & 1)

    def __eq__(self, other) -> bool:
        return isinstance(other, KSet) and self.mask == other.mask and self.n == other.n

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    def __repr__(self) -> str:
        return "{" + ",".join(map(str, self.elements)) + "}"


def _adjacent_repeat(masks: list[int]) -> bool:
    """True iff two neighbours of ``masks`` are equal: a repeat in a sorted list."""
    return any(map(eq, masks, islice(masks, 1, None)))


def _refuse_member(n: int, k: Optional[int], members: list[int]) -> None:
    """Raise for the first member, in canonical order, that breaks uniformity
    or repeats an earlier one; a repeat sits next to the member it repeats."""
    prev = None
    for m in members:
        if k is not None and m.bit_count() != k:
            raise ValueError(f"member {KSet(n, m)!r} violates uniformity k={k}")
        if m == prev:
            raise ValueError(f"duplicate member {KSet(n, m)!r}")
        prev = m


class Family:
    """A duplicate-free collection of subsets of [n], as bitmasks.

    ``k`` is the uniformity: every member has size k, or ``None`` for mixed
    families (traces).  ``members`` holds the masks sorted by (size, colex),
    which makes equality and diffing canonical; it is the one container a
    family keeps.  ``mask_set``, the members as a frozenset for membership
    tests, is built on first use and then kept.
    """

    __slots__ = ("n", "k", "members", "_mask_set")

    def __init__(self, n: int, k: Optional[int], masks: Iterable[int]):
        _check_header(n, k)
        # colex on equal-size sets is numeric mask order; both sorts are
        # stable, so equal masks stay next to each other
        members = sorted(masks)
        if members and (members[0] < 0 or members[-1] >> n):
            raise ValueError("set bits outside ground set")
        sizes = set(map(int.bit_count, members))
        if len(sizes) > 1:
            members.sort(key=int.bit_count)
        if _adjacent_repeat(members) or (k is not None and not sizes <= {k}):
            _refuse_member(n, k, members)
        self.n = n
        self.k = k
        self.members = tuple(members)
        self._mask_set = None

    @property
    def mask_set(self) -> frozenset[int]:
        """The members as a frozenset, built on first use."""
        if self._mask_set is None:
            self._mask_set = frozenset(self.members)
        return self._mask_set

    @classmethod
    def from_masks(cls, n: int, k: Optional[int], masks: Iterable[int]) -> "Family":
        """Alias of the constructor."""
        return cls(n, k, masks)

    def __len__(self) -> int:
        return len(self.members)

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
        lines.extend(",".join(map(str, _elements(m))) or "-" for m in self.members)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Family":
        """Parse the shared family text format.

        Line 1 is "n k" (k may be "*"), each further non-blank, non-comment
        line is a strictly increasing comma-separated list of elements, or
        "-" for the empty set.
        """
        header = None
        masks = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if header is None:
                try:
                    n_field, k_field = line.split()
                    n, k = int(n_field), None if k_field == "*" else int(k_field)
                except ValueError:
                    raise ValueError(f"line {lineno}: header must be 'n k'") from None
                _check_ground(n)
                header = (n, k)
                continue
            try:
                elems = [] if line == "-" else [int(tok) for tok in line.split(",")]
            except ValueError:
                raise ValueError(f"line {lineno}: members are '-' or integers joined by ','") from None
            if any(a >= b for a, b in zip(elems, elems[1:])):
                raise ValueError(f"line {lineno}: elements must be strictly increasing")
            masks.append(mask_of(header[0], elems))
        if header is None:
            raise ValueError("missing header line")
        return cls(header[0], header[1], masks)


def exact_parts(value) -> Optional[tuple[int, int]]:
    """The numerator and denominator of an int or an exact rational: a
    ``Rational``, or anything else with int ``numerator`` and
    ``denominator`` in lowest terms, such as a ``fractions.Fraction``.
    None for anything else, a float among them."""
    if isinstance(value, int):
        return int(value), 1
    numerator = getattr(value, "numerator", None)
    denominator = getattr(value, "denominator", None)
    if type(numerator) is int and type(denominator) is int:
        return numerator, denominator
    return None


def binom(a: int, b: int) -> int:
    """C(a, b), with the convention that out-of-range b gives 0."""
    if a < 0:
        raise ValueError("upper index must be non-negative")
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def enumerate_ksets(n: int, k: int) -> Iterator[int]:
    """The masks of all k-subsets of [n] in colexicographic order.

    Colex order on equal-size sets is numeric mask order; each mask is the
    next larger integer with k bits set (Gosper's step).
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if k == 0:
        yield 0
        return
    mask, limit = (1 << k) - 1, 1 << n
    while mask < limit:
        yield mask
        low = mask & -mask
        ripple = mask + low
        mask = ((ripple ^ mask) >> 2) // low | ripple
