from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from emckit.core import _MAX_GROUND, Family, KSet, binom, enumerate_ksets, mask_of


def precedes(f: KSet, g: KSet) -> bool:
    """Coordinatewise order on sorted elements: f_i <= g_i for every i."""
    if f.size != g.size:
        raise ValueError("precedes is only defined for equal-size sets")
    return all(a <= b for a, b in zip(f.elements, g.elements))


def complete_family(n: int, k: int) -> Family:
    """The family of all k-subsets of [n]."""
    return Family(n, k, enumerate_ksets(n, k))


def oracle_members(masks) -> tuple[int, ...]:
    """Oracle: the canonical order of the object representation, (size, mask)
    as ``KSet.__lt__`` compared members."""
    return tuple(sorted(masks, key=lambda m: (bin(m).count("1"), m)))


def oracle_to_text(n: int, k, masks) -> str:
    """Oracle: the element-wise rendering, element e for each set bit e-1,
    and "-" for the empty set."""
    lines = [f"{n} {'*' if k is None else k}"]
    for m in oracle_members(masks):
        lines.append(",".join(str(i + 1) for i in range(n) if m >> i & 1) or "-")
    return "\n".join(lines) + "\n"


def test_kset_basics():
    t = KSet.from_elements(7, [2, 5, 7])
    assert t.size == 3
    assert t.elements == (2, 5, 7)
    assert 5 in t and 3 not in t
    assert t.mask == 0b1010010


def test_kset_rejects_out_of_range():
    with pytest.raises(ValueError):
        KSet.from_elements(5, [6])
    with pytest.raises(ValueError):
        KSet(5, 1 << 5)


def test_mask_of():
    assert mask_of(7, [2, 5, 7]) == 0b1010010
    assert mask_of(3, []) == 0
    for bad in ([0], [4], [-1]):
        with pytest.raises(ValueError):
            mask_of(3, bad)


def test_family_canonical_order_and_dedup():
    members = [mask_of(5, e) for e in ([3, 4], [1, 2], [1, 5])]
    fam = Family(5, 2, members)
    assert [KSet(5, m).elements for m in fam.members] == [(1, 2), (3, 4), (1, 5)]
    with pytest.raises(ValueError):
        Family(5, 2, members + [mask_of(5, [1, 2])])
    with pytest.raises(ValueError):
        Family(5, 2, [mask_of(5, [1, 2, 3])])


def test_family_text_roundtrip():
    fam = Family(6, 2, [mask_of(6, e) for e in ([1, 2], [2, 6])])
    text = fam.to_text()
    assert text.splitlines()[0] == "6 2"
    assert Family.from_text(text) == fam


def test_family_text_mixed_and_comments():
    text = "5 *  # header\n# a comment line\n1,2\n\n3\n"
    fam = Family.from_text(text)
    assert fam.k is None
    assert [KSet(5, m).elements for m in fam.members] == [(3,), (1, 2)]
    assert Family.from_text(fam.to_text()) == fam


def test_family_text_keeps_empty_set():
    for fam in (Family(3, None, [0, 0b101]), Family(2, 0, [0])):
        text = fam.to_text()
        assert "\n-\n" in text
        assert Family.from_text(text) == fam


def test_family_text_rejects_unsorted():
    with pytest.raises(ValueError):
        Family.from_text("5 2\n2,1\n")


def test_family_text_rejects_out_of_range_and_bad_header():
    bad = ("5 2\n1,6\n", "5 2\n0,1\n", "4097 2\n1,2\n", "4097 *\n", "-1 *\n", "5 6\n", "1,2\n")
    bad += ("5 2\n1,,2\n", "5 2\n1,2,\n", "5 *\n,\n", "5 *\n-,1\n", "5 *\n--\n")
    for text in bad:
        with pytest.raises(ValueError):
            Family.from_text(text)


def test_family_text_names_the_line_of_a_bad_header():
    for header in ("x 2", "5 y", "x *", "5", "5 2 3", "5 2.0"):
        with pytest.raises(ValueError) as info:
            Family.from_text(f"{header}\n1,2\n")
        assert str(info.value) == "line 1: header must be 'n k'"


@st.composite
def mask_lists(draw):
    """(n, k, masks): a duplicate-free list over [n], n <= 12, uniform
    (k given) or mixed (k None), in random order."""
    n = draw(st.integers(0, 12))
    if draw(st.booleans()):
        k = draw(st.integers(0, n))
        pool = list(enumerate_ksets(n, k))
    else:
        k = None
        pool = list(range(1 << n))
    masks = draw(st.lists(st.sampled_from(pool), unique=True, max_size=40))
    return n, k, masks


@settings(max_examples=200, deadline=None)
@given(mask_lists(), st.randoms(use_true_random=False))
def test_family_matches_object_oracle(case, rng):
    n, k, masks = case
    fam = Family(n, k, masks)
    assert fam.members == oracle_members(masks)
    assert fam.mask_set == frozenset(masks)
    text = fam.to_text()
    assert text.encode() == oracle_to_text(n, k, masks).encode()
    assert Family.from_text(text) == fam
    shuffled = list(masks)
    rng.shuffle(shuffled)
    assert Family(n, k, shuffled) == fam
    assert Family.from_masks(n, k, iter(shuffled)) == fam
    if masks:
        fewer = Family(n, k, masks[1:])
        assert (fewer == fam) == (oracle_members(masks[1:]) == oracle_members(masks))
        assert fewer != fam


@settings(max_examples=200, deadline=None)
@given(mask_lists(), st.data())
def test_family_refuses_invalid_masks(case, data):
    n, k, masks = case
    if masks:
        dup = data.draw(st.sampled_from(masks))
        with pytest.raises(ValueError, match="duplicate"):
            Family(n, k, masks + [dup])
    beyond = data.draw(st.integers(n, n + 8))
    with pytest.raises(ValueError):
        Family(n, k, masks + [1 << beyond])
    with pytest.raises(ValueError):
        Family(n, k, masks + [-data.draw(st.integers(1, 1 << 13))])
    if k is not None and n:
        wrong = data.draw(st.integers(0, (1 << n) - 1).filter(lambda m: m.bit_count() != k))
        with pytest.raises(ValueError, match="uniformity"):
            Family(n, k, masks + [wrong])
    for bad_k in (-1, n + 1):
        with pytest.raises(ValueError, match="uniformity"):
            Family(n, bad_k, [])
    with pytest.raises(ValueError):
        Family(4097, k, masks)
    with pytest.raises(ValueError):
        Family.from_text(f"4097 {'*' if k is None else k}\n")


def eager_family(n: int, k, masks) -> tuple[tuple[int, ...], frozenset[int]]:
    """Oracle: the constructor that built ``mask_set`` up front and found
    duplicates by the frozenset's size; returns (members, mask_set)."""
    if not 0 <= n <= _MAX_GROUND:
        raise ValueError(f"ground set size {n} outside [0, {_MAX_GROUND}]")
    if k is not None and not 0 <= k <= n:
        raise ValueError(f"uniformity k={k} outside [0, {n}]")
    members = sorted(masks)
    if members and (members[0] < 0 or members[-1] >> n):
        raise ValueError("set bits outside ground set")
    members.sort(key=int.bit_count)
    mask_set = frozenset(members)
    if len(mask_set) != len(members) or (
        k is not None and members and not members[0].bit_count() == k == members[-1].bit_count()
    ):
        seen = set()
        for m in members:
            if k is not None and m.bit_count() != k:
                raise ValueError(f"member {KSet(n, m)!r} violates uniformity k={k}")
            if m in seen:
                raise ValueError(f"duplicate member {KSet(n, m)!r}")
            seen.add(m)
    return tuple(members), mask_set


@st.composite
def family_inputs(draw):
    """(n, k, masks): uniform or mixed-size masks over [n], n <= 10, with k
    None or in [-1, n+1], possibly with repeats and out-of-range masks, in
    random order."""
    n = draw(st.integers(0, 10))
    k = draw(st.none() | st.integers(-1, n + 1))
    if k is not None and 0 <= k <= n and draw(st.booleans()):
        pool = st.sampled_from(list(enumerate_ksets(n, k)))
    else:
        pool = st.integers(0, (1 << n) - 1)
    masks = draw(st.lists(pool, max_size=30))
    if masks and draw(st.booleans()):
        masks += draw(st.lists(st.sampled_from(masks), min_size=1, max_size=3))
    if draw(st.integers(0, 3)) == 0:
        masks.append(draw(st.integers(-8, -1) | st.integers(1 << n, 1 << (n + 3))))
    return n, k, draw(st.permutations(masks))


def outcome(build):
    try:
        return build()
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(family_inputs())
def test_family_matches_the_eager_constructor(case):
    n, k, masks = case

    def lazy():
        fam = Family(n, k, masks)
        assert fam.mask_set is fam.mask_set  # built once, then kept
        return fam.members, fam.mask_set

    assert outcome(lazy) == outcome(lambda: eager_family(n, k, masks))


def test_binom_conventions():
    assert binom(5, 2) == 10
    assert binom(3, 5) == 0
    assert binom(3, -1) == 0
    with pytest.raises(ValueError):
        binom(-1, 0)


def test_colex_enumeration_order():
    got = [KSet(4, m).elements for m in enumerate_ksets(4, 2)]
    assert got == [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]
    # colex on equal-size sets coincides with numeric mask order
    masks = list(enumerate_ksets(6, 3))
    assert masks == sorted(masks)


@given(st.integers(1, 9), st.integers(0, 9))
def test_enumeration_count(n, k):
    if k > n:
        with pytest.raises(ValueError):
            list(enumerate_ksets(n, k))
    else:
        got = list(enumerate_ksets(n, k))
        assert len(got) == math.comb(n, k)
        assert got == sorted(m for m in range(1 << n) if m.bit_count() == k)


def test_precedes():
    a = KSet.from_elements(6, [1, 3])
    b = KSet.from_elements(6, [2, 5])
    assert precedes(a, b)
    assert not precedes(b, a)
    assert precedes(a, a)
    with pytest.raises(ValueError):
        precedes(a, KSet.from_elements(6, [1, 2, 3]))


@given(st.integers(2, 7))
def test_precedence_has_colex_as_linear_extension(n):
    sets = [KSet(n, m) for m in enumerate_ksets(n, 2)]
    for i, f in enumerate(sets):
        for g in sets[i + 1 :]:
            assert not (precedes(g, f) and f != g)


def test_complete_family():
    fam = complete_family(5, 2)
    assert len(fam) == 10
    assert fam.k == 2
