from __future__ import annotations

import random

import pytest

from emckit.constructions import (
    build_A,
    build_B,
    crossover_n,
    extremal_sizes,
    prefix_size,
    trace_masks,
)
from emckit.core import Family, KSet, binom, enumerate_ksets, mask_of
from emckit.matching import matching_number


class TraceCountMismatch(RuntimeError):
    """The trace counting identity disagreed with the materialized family."""


def trace_family(fam: Family, k: int, s: int) -> Family:
    """The trace as a family on the prefix, for the oracles that take one."""
    return Family.from_masks(prefix_size(k, s), None, trace_masks(fam, k, s))


def generate_from_trace(tr: Family, n: int, k: int) -> Family:
    """All k-subsets of [n] containing at least one trace member."""
    tr_masks = sorted(tr.members)
    return Family(
        n, k, [m for m in enumerate_ksets(n, k) if any(m & tm == tm for tm in tr_masks)]
    )


def size_via_trace(tr: Family, n: int, k: int, s: int, check: bool = False) -> int:
    """Counting identity: sum over trace sizes d of count_d * C(n_bar, k-d).

    Expects the complete trace (all prefix intersections) of a saturated
    family; each member of the generated family then contributes through
    exactly one trace set.  With ``check=True`` the value is compared against
    the materialized family and a mismatch raises :class:`TraceCountMismatch`.
    """
    n_bar = n - (s + 1) * k + 1
    if n_bar < 0:
        raise ValueError("need n >= (s+1)k - 1")
    counts: dict[int, int] = {}
    for t in tr.members:
        d = t.bit_count()
        if d == 0 and n_bar < k:
            raise ValueError("empty trace member needs n_bar >= k")
        counts[d] = counts.get(d, 0) + 1
    total = sum(c * binom(n_bar, k - d) for d, c in counts.items())
    if check:
        materialized = len(generate_from_trace(tr, n, k))
        if materialized != total:
            raise TraceCountMismatch(
                f"trace count {total} != materialized size {materialized}; "
                "input is not the complete trace of a saturated family"
            )
    return total


def test_prefix_size():
    assert prefix_size(2, 3) == 7
    assert prefix_size(3, 2) == 8


def test_build_sizes_match_closed_forms():
    for (n, k, s) in [(7, 2, 3), (9, 2, 3), (8, 3, 2), (10, 2, 2)]:
        A, B = build_A(n, k, s), build_B(n, k, s)
        size_a, size_b = extremal_sizes(n, k, s)
        assert len(A) == size_a == binom(prefix_size(k, s), k)
        assert len(B) == size_b == binom(n, k) - binom(n - s, k)


def test_build_validation():
    with pytest.raises(ValueError):
        build_A(6, 2, 3)  # n below the prefix
    with pytest.raises(ValueError):
        build_B(4, 2, 5)


def test_candidates_have_matching_number_s():
    for k in (2, 3):
        for s in (1, 2, 3):
            n = (s + 1) * k + 1
            assert matching_number(build_A(n, k, s))[0] == s
            assert matching_number(build_B(n, k, s))[0] == s


def test_crossover_definition():
    for k in (2, 3):
        for s in range(k, 8):
            n = crossover_n(k, s)
            a1, b1 = extremal_sizes(n, k, s)
            a0, b0 = extremal_sizes(n - 1, k, s)
            assert b1 > a1
            assert b0 <= a0


def linear_crossover_n(k: int, s: int) -> int:
    """Oracle of ``crossover_n``: the first n >= (s+1)k where the star is ahead."""
    n = (s + 1) * k
    while True:
        size_a, size_b = extremal_sizes(n, k, s)
        if size_b > size_a:
            return n
        n += 1


def test_crossover_matches_the_linear_scan():
    for k in range(2, 7):
        for s in [*range(k, 301), 1000, 5000]:
            assert crossover_n(k, s) == linear_crossover_n(k, s), (k, s)


def test_trace_masks_of_B():
    masks = trace_masks(build_B(9, 2, 3), 2, 3)
    # pairs meeting [3] inside the prefix, plus singleton stubs {1},{2},{3}
    sizes = sorted(t.bit_count() for t in masks)
    assert sizes.count(1) == 3
    assert all((t & -t).bit_length() <= 3 for t in masks)


def test_trace_requires_prefix():
    # the prefix of (k, s) = (2, 3) is [7]
    with pytest.raises(ValueError):
        trace_masks(Family(6, 2, []), 2, 3)
    assert trace_masks(Family(7, 2, []), 2, 3) == []


def test_trace_masks_warn_on_member_beyond_prefix(capsys):
    # prefix [5] for k = 2, s = 2; {6, 7} leaves the empty set in the trace
    fam = Family(7, 2, [mask_of(7, [1, 2]), mask_of(7, [6, 7])])
    assert 0 in trace_masks(fam, 2, 2)
    captured = capsys.readouterr()
    assert captured.err == "trace contains the empty set (member beyond the prefix)\n"
    assert captured.out == ""
    trace_masks(build_B(9, 2, 3), 2, 3)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "fam,k,s",
    [
        (build_B(9, 2, 3), 2, 3),
        (build_A(13, 3, 3), 3, 3),
        (Family(7, 2, [mask_of(7, [1, 2]), mask_of(7, [6, 7])]), 2, 2),  # {6,7} traces to {}
        (Family(6, 2, []), 2, 2),
    ],
    ids=["B", "A", "beyond-prefix", "empty"],
)
def test_trace_masks_are_the_members_of_the_trace(capsys, fam, k, s):
    masks = trace_masks(fam, k, s)
    masks_err = capsys.readouterr().err
    p = prefix_size(k, s)
    trace = {
        mask_of(p, [e for e in KSet(fam.n, m).elements if e <= p]) for m in fam.members
    }
    assert masks == sorted(trace)
    assert (masks_err != "") is (0 in masks)


def test_trace_masks_refuse_like_the_trace():
    with pytest.raises(ValueError, match="^family ground set 6 smaller than prefix 7$"):
        trace_masks(build_B(6, 2, 2), 2, 3)


def test_generate_from_trace_round_trip():
    B = build_B(9, 2, 3)
    tr = trace_family(B, 2, 3)
    assert generate_from_trace(tr, 9, 2) == B


def test_size_via_trace_on_candidates():
    for (n, k, s) in [(9, 2, 3), (10, 2, 3), (8, 3, 2), (9, 3, 2)]:
        for fam in (build_A(n, k, s), build_B(n, k, s)):
            tr = trace_family(fam, k, s)
            assert size_via_trace(tr, n, k, s, check=True) == len(fam)


def test_size_via_trace_detects_unsaturated_input():
    # a bare trace that misses supersets inside the prefix overcounts
    p = prefix_size(2, 3)
    tr = Family(p, None, [mask_of(p, [1])])
    with pytest.raises(TraceCountMismatch):
        size_via_trace(tr, 9, 2, 3, check=True)


def test_random_saturated_families_satisfy_identity():
    rng = random.Random(2)
    n, k, s = 9, 2, 3
    p = prefix_size(k, s)
    for _ in range(20):
        seeds = Family(p, None, rng.sample(list(enumerate_ksets(p, k)), 4))
        fam = generate_from_trace(seeds, n, k)
        tr = trace_family(fam, k, s)
        assert size_via_trace(tr, n, k, s, check=True) == len(fam)
