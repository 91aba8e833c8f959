from __future__ import annotations

import io
import random
import sys
import tracemalloc
from collections import Counter
from contextlib import redirect_stderr
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial
from typing import NamedTuple, Optional, Sequence

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emckit.cli import main
from emckit.constructions import build_A, build_B, prefix_size, trace_masks
from emckit.core import Family, KSet, binom, enumerate_ksets, mask_of
from emckit.audit import max_window_n, min_window_n
from emckit.exact import Rational
from emckit.weights import (
    WeightFrame,
    _count_table,
    candidate_count,
    claim3_bound,
    epsilon_of,
    family_weight_identity,
    identity_reports,
    wA_of_M,
    weight_value,
    wg_envelopes,
)
from test_constructions import generate_from_trace, trace_family


# the canonical layout of a frame (n, k, s), computed from k and s alone


def prefix(frame: WeightFrame) -> int:
    """Size of the prefix [(s+1)k-1]."""
    return prefix_size(frame.k, frame.s)


def g0_elements(frame: WeightFrame) -> tuple[int, ...]:
    """The distinguished set, the tail {sk+1, ..., (s+1)k-1} of the prefix."""
    return tuple(range(frame.s * frame.k + 1, prefix(frame) + 1))


def block_elements(frame: WeightFrame, i: int) -> tuple[int, ...]:
    """Block i, {(i-1)k+1, ..., ik}."""
    if not 1 <= i <= frame.s:
        raise ValueError("block index outside [1, s]")
    return tuple(range((i - 1) * frame.k + 1, i * frame.k + 1))


def block_index(frame: WeightFrame, e: int) -> int:
    """Index in [s] of the canonical block holding prefix element e; 0 for
    the distinguished set.  Arithmetic, so it works at any s."""
    if not 1 <= e <= prefix(frame):
        raise ValueError(f"element {e} outside prefix [1, {prefix(frame)}]")
    return 0 if e > frame.s * frame.k else (e - 1) // frame.k + 1


def gm_elements(frame: WeightFrame, m_indices: Optional[Sequence[int]] = None) -> tuple[int, ...]:
    """The local universe G_M: the distinguished set plus the blocks indexed
    by M, a k-subset of [s] (blocks 1..k by default)."""
    m = range(1, frame.k + 1) if m_indices is None else m_indices
    elems = list(g0_elements(frame))
    for i in m:
        elems.extend(block_elements(frame, i))
    return tuple(sorted(elems))


def relabel(fam: Family, perm: Sequence[int]) -> Family:
    """The family pi^-1(F) for the permutation pi(i) = perm[i-1] of the
    prefix [len(perm)]; elements beyond the prefix stay where they are.

    F read against the partition pi(canonical) has the trace, widths and
    sizes that pi^-1(F) has against the canonical partition.
    """
    back = {e: i for i, e in enumerate(perm, start=1)}
    return Family(
        fam.n,
        fam.k,
        [mask_of(fam.n, [back.get(e, e) for e in KSet(fam.n, m).elements]) for m in fam.members],
    )


def check_invariants(frame: WeightFrame) -> None:
    assert len(gm_elements(frame)) == frame.k * frame.k + frame.k - 1
    assert frame.n_bar >= 0


def width(t: int, frame: WeightFrame) -> int:
    """Number of blocks (indices in [s]) met by a prefix subset, given as a mask."""
    elements = KSet(prefix(frame), t).elements  # refuses bits beyond the prefix
    return len({block_index(frame, e) for e in elements} - {0})


def anchor(
    fam: Family, k: int, s: int, g0: tuple[int, ...], blocks: tuple[tuple[int, ...], ...]
) -> None:
    """Verify a prefix partition (g0, blocks) against a family, or raise ValueError.

    Requires a partition of the prefix into a (k-1)-set and s blocks of size
    k, every block to be a trace member, and the distinguished set to be
    outside the trace with the pivot property: for every member disjoint
    from it, adjoining the member's minimum gives a member.
    """
    p = prefix_size(k, s)
    sizes = [len(g0)] + [len(b) for b in blocks]
    elements = sorted(g0 + tuple(e for b in blocks for e in b))
    if sizes != [k - 1] + [k] * s or elements != list(range(1, p + 1)):
        raise ValueError("need a (k-1)-set and s blocks of size k partitioning the prefix")
    tr_masks = trace_masks(fam, k, s)
    for i, b in enumerate(blocks, start=1):
        if mask_of(p, b) not in tr_masks:
            raise ValueError(f"block {i} is not a trace member")
    g0_mask = mask_of(p, g0)
    if g0_mask in tr_masks:
        raise ValueError("distinguished set must not be a trace member")
    for m in fam.members:
        if m & g0_mask:
            continue
        b = (m & -m).bit_length()
        if (g0_mask | (1 << (b - 1))) not in fam.mask_set:
            raise ValueError("pivot property fails for the distinguished set")


class RxCounts(NamedTuple):
    """Counts of defect-one trace members inside the local universe.

    ``r[d]``: size d, width d-1, meeting the distinguished set;
    ``x[d]``: size d, width d-1, avoiding it.  ``chain_ok`` records whether
    the incidence chain k(k-d+1) r_d <= d r_{d+1} holds for d = 2..k-2.
    """

    r: dict[int, int]
    x: dict[int, int]
    chain_ok: bool


def rx_counts(fam: Family, frame: WeightFrame) -> RxCounts:
    k = frame.k
    gm = mask_of(prefix(frame), gm_elements(frame))
    g0 = mask_of(prefix(frame), g0_elements(frame))
    r = {d: 0 for d in range(2, k)}
    x = {d: 0 for d in range(2, k)}
    for t in trace_masks(fam, k, frame.s):
        if t & ~gm:
            continue
        d = t.bit_count()
        if d < 2 or d > k - 1:
            continue
        if width(t, frame) != d - 1:
            continue
        if t & g0:
            r[d] += 1
        else:
            x[d] += 1
    chain_ok = all(k * (k - d + 1) * r[d] <= d * r[d + 1] for d in range(2, k - 1))
    return RxCounts(r, x, chain_ok)


def test_frame_canonical_layout():
    fr = WeightFrame(12, 3, 3)
    assert prefix(fr) == 11
    assert fr.n_bar == 1
    assert block_elements(fr, 1) == (1, 2, 3)
    assert block_elements(fr, 3) == (7, 8, 9)
    assert g0_elements(fr) == (10, 11)
    assert [block_elements(fr, i) for i in range(1, 4)] == [(1, 2, 3), (4, 5, 6), (7, 8, 9)]
    with pytest.raises(ValueError, match="block index outside"):
        block_elements(fr, 4)
    assert block_index(fr, 5) == 2
    assert block_index(fr, 10) == 0
    check_invariants(fr)


def test_frame_huge_s_is_lazy():
    # far beyond any bit-vector cap; only arithmetic is allowed to happen
    s = 10**12
    fr = WeightFrame((s + 1) * 5, 5, s)
    assert block_elements(fr, s) == tuple(range((s - 1) * 5 + 1, s * 5 + 1))
    assert block_index(fr, s * 5 + 2) == 0
    assert fr.n_bar == 1


def test_width():
    fr = WeightFrame(12, 3, 3)
    t = mask_of(prefix(fr), [1, 4, 10])
    assert width(t, fr) == 2
    assert width(0, fr) == 0


def test_weight_values():
    # C(n_bar, k-d) / C(s-c, k-c)
    assert weight_value(2, 3, 2, 1, 2) == Fraction(1, 2)
    assert weight_value(2, 3, 2, 1, 1) == Fraction(2, 2)
    with pytest.raises(ValueError):
        weight_value(2, 3, 2, 2, 1)


def test_family_weight_identity_on_candidates():
    for k in (2, 3):
        for s in (k, k + 1):
            n = (s + 1) * k + 1
            fr = WeightFrame(n, k, s)
            for fam in (build_A(n, k, s), build_B(n, k, s)):
                lhs, rhs, ok = family_weight_identity(fam, fr)
                assert ok and lhs == len(fam)


def test_family_weight_identity_on_random_saturated():
    rng = random.Random(4)
    n, k, s = 9, 2, 3
    p = prefix_size(k, s)
    fr = WeightFrame(n, k, s)
    for _ in range(10):
        seeds = rng.sample(list(enumerate_ksets(p, k)), 3)
        fam = generate_from_trace(Family(p, None, seeds), n, k)
        lhs, rhs, ok = family_weight_identity(fam, fr)
        assert ok and lhs == len(fam)


def direct_sum_weight_identity(fam: Family, frame: WeightFrame) -> tuple[Fraction, int, bool]:
    """Oracle: the weight identity with width and weight recomputed for
    every trace member t, and for every pair (M, t) in the direct M-sum,
    each G_M built from the canonical blocks."""
    k, s = frame.k, frame.s
    tr = trace_family(fam, k, s)

    def weight(t):
        v = width(t, frame)
        if v == 0:
            return Fraction(binom(frame.n_bar, k - t.bit_count()), binom(s, k))
        return weight_value(k, s, frame.n_bar, v, t.bit_count())

    lhs = Fraction(0)
    for t in tr.members:
        v = width(t, frame)
        lhs += binom(s - v, k - v) * weight(t)
    direct = Fraction(0)
    for m_combo in combinations(range(1, s + 1), k):
        gm = mask_of(prefix(frame), gm_elements(frame, m_combo))
        for t in tr.members:
            if t & ~gm == 0:
                direct += weight(t)
    assert direct == lhs
    return lhs, len(fam), lhs == len(fam)


@st.composite
def weight_identity_cases(draw):
    """(family, frame) with C(s, k) <= 400: a candidate, a family generated
    from a random trace, or a random k-uniform family, as drawn or relabelled
    by a random permutation of the prefix.  The relabelled family read
    against the canonical partition stands for the drawn one read against a
    shuffled partition."""
    k = draw(st.integers(2, 3))
    s = draw(st.integers(k, 8 if k == 2 else 5))
    p = prefix_size(k, s)
    n = draw(st.integers(p, p + k))
    kind = draw(st.sampled_from(["A", "B", "trace", "random"]))
    if kind == "A":
        fam = build_A(n, k, s)
    elif kind == "B":
        fam = build_B(n, k, s)
    elif kind == "trace":
        pool = [t for d in range(1, k + 1) for t in enumerate_ksets(p, d)]
        idx = draw(st.sets(st.integers(0, len(pool) - 1), min_size=1, max_size=4))
        fam = generate_from_trace(Family(p, None, [pool[i] for i in idx]), n, k)
    else:
        pool = list(enumerate_ksets(n, k))
        idx = draw(st.sets(st.integers(0, len(pool) - 1), min_size=1, max_size=30))
        fam = Family(n, k, [pool[i] for i in idx])
    if not draw(st.booleans()):
        fam = relabel(fam, draw(st.permutations(range(1, p + 1))))
    return fam, WeightFrame(n, k, s)


@settings(max_examples=60, deadline=None)
@given(weight_identity_cases())
# {7,8} lies beyond the prefix [5]: its trace member is empty, of width 0
@example((Family.from_masks(8, 2, [0b11, 0b11000000]), WeightFrame(8, 2, 2)))
def test_family_weight_identity_matches_direct_sum_oracle(case):
    fam, fr = case
    assert binom(fr.s, fr.k) <= 400
    assert family_weight_identity(fam, fr) == direct_sum_weight_identity(fam, fr)


def test_family_weight_identity_refuses_a_trace_member_larger_than_k():
    # {1,2,3} lies inside the prefix [7] of the frame (9,2,3) and has no weight there
    fr = WeightFrame(9, 2, 3)
    for fam in (Family(9, 3, [0b111]), Family(9, None, [0b1, 0b111])):
        with pytest.raises(ValueError, match="^trace member larger than k = 2$"):
            family_weight_identity(fam, fr)


def trace_masks_weight_identity(fam: Family, frame: WeightFrame) -> tuple[int, int, bool]:
    """Oracle: the weight identity from the sorted distinct trace masks,
    counted by size."""
    k = frame.k
    sizes = Counter(map(int.bit_count, trace_masks(fam, k, frame.s)))
    if max(sizes, default=0) > k:
        raise ValueError(f"trace member larger than k = {k}")
    lhs = sum(count * binom(frame.n_bar, k - d) for d, count in sizes.items())
    return lhs, len(fam), lhs == len(fam)


@st.composite
def mixed_identity_cases(draw):
    """(mixed family, frame): members of any size up to k (k+1 when drawn),
    each inside the prefix, across it or wholly beyond it, and some beyond
    members' traces added as members inside the prefix."""
    k = draw(st.integers(1, 3))
    s = draw(st.integers(k, {1: 6, 2: 6, 3: 4}[k]))
    p = prefix_size(k, s)
    n = draw(st.integers(p, p + k + 1))
    top = k + draw(st.sampled_from([0, 0, 0, 1]))
    masks = set()
    for _ in range(draw(st.integers(0, 12))):
        inside = draw(st.sets(st.integers(1, p), max_size=top))
        beyond = draw(st.sets(st.integers(p + 1, n), max_size=top - len(inside))) if n > p else set()
        mask = mask_of(n, inside | beyond)
        masks.add(mask)
        if beyond and draw(st.booleans()):
            masks.add(mask & ((1 << p) - 1))  # the member's trace is a member too
    return Family(n, None, masks), WeightFrame(n, k, s)


def weight_identity_and_stderr(identity, fam: Family, fr: WeightFrame):
    """The identity's value, or the message of its refusal, and its stderr."""
    err = io.StringIO()
    with redirect_stderr(err):
        try:
            value = identity(fam, fr)
        except ValueError as exc:
            value = str(exc)
    return value, err.getvalue()


EMPTY_TRACE = "trace contains the empty set (member beyond the prefix)\n"


@settings(max_examples=150, deadline=None)
@given(st.one_of(weight_identity_cases(), mixed_identity_cases()))
# {1,2} inside the prefix [5], {3,6} across it, {6,7} wholly beyond it
@example((Family(8, 2, [0b11, 0b100100, 0b1100000]), WeightFrame(8, 2, 2)))
# the trace {2} of {2,7} is also a member, so it counts once
@example((Family(8, None, [0b10, 0b1000010, 0b11]), WeightFrame(8, 2, 2)))
# {1,2,3} inside the prefix [5] is larger than k = 2
@example((Family(8, None, [0b1, 0b111]), WeightFrame(8, 2, 2)))
# the trace {1,2,3} of {1,2,3,6} is larger than k = 2
@example((Family(8, 4, [0b100111]), WeightFrame(8, 2, 2)))
def test_single_pass_identity_equals_the_trace_masks_sum(case):
    fam, fr = case
    value, err = weight_identity_and_stderr(family_weight_identity, fam, fr)
    expected, expected_err = weight_identity_and_stderr(trace_masks_weight_identity, fam, fr)
    assert (value, err) == (expected, expected_err)
    assert err in ("", EMPTY_TRACE)  # the warning prints once
    if isinstance(value, str):
        assert value == f"trace member larger than k = {fr.k}"
    else:
        assert value == direct_sum_weight_identity(fam, fr)


def test_single_pass_identity_counts_each_trace_once(capsys):
    # frame (8,2,2), prefix [5]: {1,2} inside, {1,6} across with trace {1},
    # {2,7} across with trace {2}, which is also a member, and {6,7}, {7,8}
    # wholly beyond with the one empty trace
    fam = Family(8, None, [0b11, 0b100001, 0b1000010, 0b10, 0b1100000, 0b11000000])
    fr = WeightFrame(8, 2, 2)  # n_bar = 3
    # traces {1,2}, {1}, {2} and the empty set: 1 + 2 * C(3,1) + C(3,2)
    assert family_weight_identity(fam, fr) == (10, 6, False)
    assert capsys.readouterr().err == EMPTY_TRACE


def test_streamed_identity_allocates_far_below_the_family():
    # B(30,4,6) has 16 779 members; only the 1 742 distinct traces of the
    # members that reach beyond the prefix [27] are held
    fam = build_B(30, 4, 6)
    family_bytes = sys.getsizeof(fam.members) + sum(map(sys.getsizeof, fam.members))
    del fam
    main(["identities", "--family", "B", "--n", "9", "--k", "2", "--s", "3", "--out", "-"])
    tracemalloc.start()
    try:
        code = main(["identities", "--family", "B", "--n", "30", "--k", "4", "--s", "6", "--out", "-"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < family_bytes // 2


def test_identity_reports_allocate_little_beyond_the_family():
    # 17 550 members, all inside the prefix [27]: each is its own trace,
    # counted by its size, so nothing beside the family is held
    fam = build_A(30, 4, 6)
    identity_reports(build_A(13, 3, 3).members, 13, 3, 3, "A")  # first-use allocations
    tracemalloc.start()
    try:
        identity_reports(fam.members, 30, 4, 6, "A")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 600_000


def test_wA_symmetry_recovers_prefix_family_size():
    for k, s in [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4)]:
        n = (s + 1) * k
        fr = WeightFrame(n, k, s)
        assert binom(s, k) * wA_of_M(fr) == binom(prefix_size(k, s), k)


def enumerated_wA_of_M(frame: WeightFrame, m_indices: Sequence[int]) -> Fraction:
    """Oracle: weighted count of the k-subsets of the local universe G_M, one by one."""
    k = frame.k
    elems = gm_elements(frame, m_indices)
    block_of = {e: block_index(frame, e) for e in elems}
    widths = Counter(len({block_of[e] for e in combo} - {0}) for combo in combinations(elems, k))
    return sum(weight_value(k, frame.s, frame.n_bar, v, k) * count for v, count in widths.items())


@st.composite
def wA_cases(draw):
    """A frame with k <= 5 and any index set M."""
    k = draw(st.integers(min_value=1, max_value=5))
    s = draw(st.integers(min_value=k, max_value=k + 2))
    p = prefix_size(k, s)
    n = draw(st.integers(min_value=p, max_value=p + 4))
    m_indices = draw(st.lists(st.integers(1, s), min_size=k, max_size=k, unique=True))
    return WeightFrame(n, k, s), m_indices


@settings(max_examples=40, deadline=None)
@given(wA_cases())
@example((WeightFrame(30, 4, 6), [1, 2, 3, 4]))
@example((WeightFrame(20, 3, 5), [1, 2, 3]))
@example((WeightFrame(9, 2, 3), [1, 2]))
def test_wA_of_M_matches_enumeration(case):
    frame, m_indices = case
    assert wA_of_M(frame) == enumerated_wA_of_M(frame, m_indices)


def test_anchor_accepts_B():
    n, k, s = 9, 2, 3
    anchor(build_B(n, k, s), k, s, (4,), ((1, 5), (2, 6), (3, 7)))  # raises on a misfit


def test_anchor_rejects_missing_block_and_trace_member_g0():
    n, k, s = 9, 2, 3
    blocks = ((1, 5), (2, 6), (3, 7))
    # only one block present in the trace
    small = Family(n, 2, [mask_of(n, [1, 5])])
    with pytest.raises(ValueError, match="block 2 is not a trace member"):
        anchor(small, k, s, (4,), blocks)
    # distinguished set inside the trace ({1,8} leaves the stub {1})
    fam = Family(n, 2, [mask_of(n, e) for e in ([2, 5], [3, 6], [4, 7], [1, 8])])
    with pytest.raises(ValueError, match="distinguished set must not be a trace member"):
        anchor(fam, k, s, (1,), ((2, 5), (3, 6), (4, 7)))
    # not a partition of the prefix [7]
    with pytest.raises(ValueError, match="partitioning the prefix"):
        anchor(fam, k, s, (1,), ((2, 5), (3, 6), (4, 8)))


def test_candidate_counts_total():
    for k in (2, 3):
        u = k * k + k - 1
        for d in range(1, k + 1):
            total = sum(candidate_count(c, d, k) for c in range(0, d + 1))
            assert total == binom(u, d)


def _local_labels(k: int) -> list[int]:
    """Block label of each local-universe element; 0 marks the distinguished set."""
    return [i // k + 1 for i in range(k * k)] + [0] * (k - 1)


@lru_cache(maxsize=None)
def enumerated_counts(k: int, d: int) -> dict[int, int]:
    """Oracle: counts, by width c, of all size-d local-universe subsets, by
    enumerating every one of them."""
    labels = _local_labels(k)
    counts: dict[int, int] = {}
    for combo in combinations(range(len(labels)), d):
        c = len({labels[i] for i in combo} - {0})
        counts[c] = counts.get(c, 0) + 1
    return counts


def enumerated_r_shape_count(k: int) -> int:
    """Oracle: size-(k-1), width-(k-2) local subsets meeting the distinguished
    set, by enumeration."""
    labels = _local_labels(k)
    count = 0
    for combo in combinations(range(len(labels)), k - 1):
        labs = [labels[i] for i in combo]
        if 0 in labs and len(set(labs) - {0}) == k - 2:
            count += 1
    return count


# the per-(c, d) inclusion-exclusion sums that the count table replaced,
# kept as its oracle


@lru_cache(maxsize=None)
def block_subset_count(k: int, c: int, m: int) -> int:
    """Number of m-subsets of the k selected blocks that meet exactly c of them.

    Choose the c blocks, then count the m-subsets of their union that meet
    each of them by inclusion-exclusion over the blocks left empty.
    """
    return binom(k, c) * sum(
        (-1) ** i * binom(c, i) * binom((c - i) * k, m) for i in range(c + 1)
    )


def candidate_count_by_sum(c: int, d: int, k: int) -> int:
    """Number of local-universe subsets with width c and size d: j elements
    from the distinguished (k-1)-set and d-j from the blocks, so
    sum_j C(k-1, j) * block_subset_count(k, c, d-j)."""
    return sum(
        binom(k - 1, j) * block_subset_count(k, c, d - j) for j in range(min(k - 1, d) + 1)
    )


@pytest.mark.parametrize("k", list(range(1, 41)))
def test_count_table_matches_the_inclusion_exclusion_sums(k):
    every, inside = _count_table(k)
    assert len(every) == len(inside) == k + 1
    for c in range(k + 1):
        assert len(every[c]) == len(inside[c]) == k + 1
        for d in range(k + 1):
            assert every[c][d] == candidate_count_by_sum(c, d, k), (c, d)
            assert inside[c][d] == block_subset_count(k, c, d), (c, d)


@settings(deadline=None)
@given(st.integers(min_value=2, max_value=5))
def test_candidate_count_matches_enumeration(k):
    for d in range(k + 1):
        counts = enumerated_counts(k, d)
        for c in range(d + 1):
            assert candidate_count(c, d, k) == counts.get(c, 0)
    if k >= 3:
        # the lemma:r_count_envelope count: all of the shape minus the block-only part
        every, inside = _count_table(k)
        assert every[k - 2][k - 1] - inside[k - 2][k - 1] == enumerated_r_shape_count(k)


def test_candidate_count_closed_form_at_large_k():
    # C(3659, 30) subsets: far beyond any enumeration
    assert sum(candidate_count(c, 30, 60) for c in range(31)) == binom(3659, 30)


def test_claim3_bound_values():
    assert claim3_bound(1, 1, 3) == 3 * 3
    assert claim3_bound(2, 3, 3) == Fraction(binom(3, 2) * 3**4, 1)
    with pytest.raises(ValueError):
        claim3_bound(0, 1, 3)


def test_wg_envelope_small():
    frame = WeightFrame(20, 4, 4)
    envelopes = wg_envelopes(frame)
    assert len(envelopes) == 3  # g = 0, 1, 2: defects of sizes below k
    lhs, rhs, ok = envelopes[0]
    k, s, n_bar = frame.k, frame.s, frame.n_bar
    oracle = sum(
        Fraction(binom(n_bar, k - d), binom(s - c, k - c)) * candidate_count(c, d, k)
        for c in range(1, k)
        for d in range(c, k)
    )
    assert lhs > 0 and isinstance(lhs, Rational) and lhs == oracle


def wg_envelope_by_g(frame: WeightFrame, g: int) -> tuple[Fraction, Fraction, bool]:
    """The per-g double sum that defect masses replaced, kept as their oracle:
    weight * candidate count over widths c and sizes d < k with d - c >= g,
    against (1 + 2/k) * k^(k+2g) * eps / (s^g * g!)."""
    k, s, n_bar = frame.k, frame.s, frame.n_bar
    lhs = Fraction(0)
    for c in range(1, k - g):
        for d in range(c + g, k):
            lhs += weight_value(k, s, n_bar, c, d) * candidate_count_by_sum(c, d, k)
    rhs = Fraction(k + 2, k) * k ** (k + 2 * g) * epsilon_of(k) / (s**g * factorial(g))
    return lhs, rhs, lhs <= rhs


@pytest.mark.parametrize("k", list(range(5, 21)))
def test_wg_envelopes_equal_the_per_g_sums(k):
    s = 101 * k**3 + 1
    for n in (min_window_n(k, s), max_window_n(k, s)):
        frame = WeightFrame(n, k, s)
        assert wg_envelopes(frame) == [wg_envelope_by_g(frame, g) for g in range(k - 1)]


def test_rx_counts_on_B():
    n, k, s = 16, 3, 3
    fr = WeightFrame(n, k, s)
    fam = build_B(n, k, s)
    rx = rx_counts(fam, fr)
    assert set(rx.r) == {2} and set(rx.x) == {2}
    # every defect-one local pair lies in the trace of B iff it meets [3]
    assert rx.r[2] + rx.x[2] > 0
    assert rx.chain_ok  # vacuous for k = 3

