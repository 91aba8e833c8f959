"""Exact-rational audits of every inequality in the proof chain.

Each audit yields :class:`AuditReport` records (from ``report``) one at a
time, whose verdicts are recomputable from the stored exact left/right sides
and comparison direction.  Nothing is evaluated in floating point.  The claim
audits check their parameters when iteration starts; :func:`audit_all` checks
them at the call.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional

from .exact import Rational
from .report import AuditReport, make_report
from .weights import (
    WeightFrame,
    _count_table,
    claim3_bound,
    epsilon_of,
    weight_value,
    wg_envelopes,
)


class ParameterWindowError(ValueError):
    """Parameters fall outside the audited regime."""


def min_window_n(k: int, s: int) -> int:
    return (s + 1) * k


def max_window_n(k: int, s: int) -> int:
    """Largest n with n < (s+1)(k + 1/100k)."""
    num = (s + 1) * (100 * k * k + 1)
    den = 100 * k
    return (num - 1) // den  # largest integer strictly below num/den


def require_window(k: int, s: int, n: Optional[int] = None) -> None:
    if k < 5:
        raise ParameterWindowError(f"audited regime needs k >= 5, got k={k}")
    if s <= 101 * k**3:
        raise ParameterWindowError(
            f"audited regime needs s > 101k^3 = {101 * k ** 3}, got s={s}"
        )
    if n is not None and not min_window_n(k, s) <= n <= max_window_n(k, s):
        raise ParameterWindowError(
            f"n={n} outside window [{min_window_n(k, s)}, {max_window_n(k, s)}]"
        )


def audit_claim2(k: int, s: int, n: int) -> Iterator[AuditReport]:
    """Weight bound w_{c,d} <= (1+1/k) eps^(k-d) / s^(d-c) * (k-c)!/(k-d)!.

    Includes the auxiliary chain inequality that closes the bound's proof.
    """
    require_window(k, s, n)
    eps = epsilon_of(k)
    n_bar = n - (s + 1) * k + 1
    for c in range(1, k + 1):
        for d in range(c, k + 1):
            lhs = weight_value(k, s, n_bar, c, d)
            rhs = (
                Rational(k + 1, k)
                * eps ** (k - d)
                / s ** (d - c)
                * Rational(math.factorial(k - c), math.factorial(k - d))
            )
            yield make_report(
                "claim2:weight_bound", {"k": k, "s": s, "n": n, "c": c, "d": d}, lhs, rhs, "<="
            )
    aux_lhs = (1 - Rational(k - 1, s)) ** (k - 1) / (
        1 + (eps + 1) / (eps * s)
    ) ** (k - 1)
    yield make_report("claim2:aux_chain", {"k": k, "s": s}, aux_lhs, Rational(k, k + 1), ">=")


def audit_claim3(k: int) -> Iterator[AuditReport]:
    """Candidate counts against C(k,c) k^(2d-c)/(d-c)!, in closed form."""
    counts = _count_table(k)[0]
    for c in range(1, k + 1):
        for d in range(c, k + 1):
            yield make_report(
                "claim3:count_bound",
                {"k": k, "c": c, "d": d},
                counts[c][d],
                claim3_bound(c, d, k),
                "<=",
            )


def audit_claim4(k: int, s: int, n: int) -> Iterator[AuditReport]:
    """Envelope of weighted defect mass per defect level, plus the closing lemma."""
    require_window(k, s, n)
    frame = WeightFrame(n, k, s)
    for g, (lhs, rhs, _) in enumerate(wg_envelopes(frame)):
        yield make_report(
            "claim4:wg_envelope", {"k": k, "s": s, "n": n, "g": g}, lhs, rhs, "<=", note="envelope"
        )
    eps = epsilon_of(k)
    closing_lhs = (
        Rational(k + 1, k) / (1 - eps) / (1 - Rational(k * k, s))
    )
    yield make_report(
        "claim4:closing_lemma", {"k": k, "s": s}, closing_lhs, Rational(k + 2, k), "<"
    )


def audit_numeric_lemmas(k: int, s: int) -> Iterator[AuditReport]:
    """The interstitial exact-rational lemmas of the proof chain."""
    require_window(k, s)
    eps = epsilon_of(k)

    # defect-one weight sum: (1+1/k) sum_{d=2}^{k-1} eps^(k-d-1) (k-d+1) <= 2(1+2/k)
    rx_lhs = Rational(k + 1, k) * sum(
        eps ** (k - d - 1) * (k - d + 1) for d in range(2, k)
    )
    yield make_report("lemma:rx_weight_sum", {"k": k}, rx_lhs, 2 * Rational(k + 2, k), "<=")

    # missing full transversals stay below (k-1)^(k-1)
    yield make_report(
        "lemma:full_missing_threshold",
        {"k": k},
        Rational(k + 2, k) * k**k * eps,
        (k - 1) ** (k - 1),
        "<",
    )

    # defect-one mass threshold below (k-2)^(k-1)
    yield make_report(
        "lemma:w1_threshold",
        {"k": k, "s": s},
        Rational(k + 2, k) * k ** (k + 2) * eps / s,
        (k - 2) ** (k - 1),
        "<",
    )

    # rearrangement constant behind x_{k-1} <= (1+3/k) eps k^(k+1)
    rearrange_lhs = Rational(k + 2, k) / (1 - eps * Rational(k + 2, k))
    yield make_report(
        "lemma:x_rearrangement",
        {"k": k},
        rearrange_lhs,
        Rational(k + 3, k),
        "<=",
    )

    # shift-count inequality: (1-1/k)^((k^2-k)/(k-3)) k^(k+1) > 3k (1+3/k) 2 eps k^(k+1)
    exp_frac = Rational(k * k - k, k - 3)
    exponent = math.ceil(exp_frac)
    note = "" if exp_frac.denominator == 1 else "fractional exponent rounded up (conservative)"
    shift_lhs = Rational(k - 1, k) ** exponent * k ** (k + 1)
    shift_rhs = 3 * k * Rational(k + 3, k) * 2 * eps * k ** (k + 1)
    yield make_report("lemma:shift_count", {"k": k, "s": s}, shift_lhs, shift_rhs, ">", note=note)

    # envelope for r_{k-1}: size-(k-1), width-(k-2) local subsets meeting the
    # distinguished set (all of them minus those inside the blocks) vs
    # (k-1)^2 k^(k-1) / 2
    every, inside = _count_table(k)
    r_count = every[k - 2][k - 1] - inside[k - 2][k - 1]
    yield make_report(
        "lemma:r_count_envelope",
        {"k": k},
        r_count,
        Rational((k - 1) ** 2 * k ** (k - 1), 2),
        "<=",
        note="envelope",
    )

    # final threshold: (1+2/k) k^(k+6) eps / (6 s^2) < k^(k-1)
    yield make_report(
        "lemma:final_threshold",
        {"k": k, "s": s},
        Rational(k + 2, k) * k ** (k + 6) * eps / (6 * s**2),
        k ** (k - 1),
        "<",
    )


def audit_all(k: int, s: int, n: int) -> Iterator[AuditReport]:
    """Every claim audit at one parameter point, plus the product inequality,
    one row at a time.  The parameters are refused here, at the call, not when
    iteration starts."""
    require_window(k, s, n)
    return _audit_rows(k, s, n)


def _audit_rows(k: int, s: int, n: int) -> Iterator[AuditReport]:
    yield from audit_claim2(k, s, n)
    yield from audit_claim3(k)
    yield from audit_claim4(k, s, n)
    yield from audit_numeric_lemmas(k, s)
    yield product_inequality_report(k)


def _claim8_holds(k: int, product: int, worst: int, c: int) -> bool:
    """(k-a0)...(k-a_c) k^(k-c) >= max_i a_i (k-a_i) k^(k-1), divided by
    k^(k-c), from the product of the k - a_i and their largest a_i (k-a_i)."""
    return product >= worst * k ** (c - 1)


def product_inequality_check(k: int) -> tuple[int, Optional[tuple[int, ...]]]:
    """Shift-count inequality over every admissible intersection profile.

    For a0 >= 1, a_i >= 1 with a0 + a1 + ... + a_c = k, checks
    (k-a0)...(k-a_c) k^(k-c) >= max_i a_i (k-a_i) * k^(k-1).  Both sides
    are symmetric in all parts, a0 included, so each partition of k into at
    least two parts is tested once and a violating one counts its
    (c+1)!/prod(mult!) orderings.  In the order of a0, then c, then
    lexicographic, a partition's first ordering is its parts in increasing
    order, so the first violating profile has the least key (least part,
    c, the parts).  Returns the number of violating profiles and the first
    one, (a0, a1, ..., a_c), or None when there is none.

    The walk stops where the inequality's proof does.  Take a node with
    parts a_1..a_L, P = prod (k-a_i), W = max a_i (k-a_i), and the rest
    r < k that closes it.  Parts b_1 + ... + b_m = r below it multiply their
    k - b_j to at least k^(m-1) (k-r), as (k-x)(k-y) >= k(k-x-y).  If the
    closed partition holds, P (k-r) >= max(W, r(k-r)) k^(L-1), then each
    one below holds: against W, P k^(m-1) (k-r) >= W k^(L+m-2); against a new
    part b (m >= 2), P (k-b) k^(m-2) (k-r+b) >= b (k-b) k^(L+m-2), as
    P (k-r+b) >= b k^L is linear in b and holds at b = 0 and, by
    P >= r k^(L-1), at b = r.  So such a node is not expanded, and the
    result is the full walk's.  Every node of depth 1 holds with equality,
    so the walk tests floor(k/2) partitions.
    """
    if k < 2:
        raise ValueError("need k >= 2")
    violations = 0
    first = None  # the least key of a violating partition
    # the parts so far, increasing, the product of their k - a, their
    # largest a (k - a), and the rest of k, which closes the partition
    stack = [((a,), k - a, a * (k - a), k - a) for a in range(1, k // 2 + 1)]
    while stack:
        parts, product, worst, rest = stack.pop()
        if _claim8_holds(k, product * (k - rest), max(worst, rest * (k - rest)), len(parts)):
            continue  # and so does every partition below this node
        full = parts + (rest,)
        repeats = math.prod(math.factorial(full.count(a)) for a in set(full))
        violations += math.factorial(len(full)) // repeats
        key = (full[0], len(full), full)
        first = min(first, key) if first else key
        for a in range(parts[-1], rest // 2 + 1):
            stack.append((parts + (a,), product * (k - a), max(worst, a * (k - a)), rest - a))
    return violations, first[2] if first else None


def product_inequality_report(k: int) -> AuditReport:
    """The claim-8 row: how many intersection profiles violate the
    shift-count product inequality, with the first one as the witness."""
    violations, first = product_inequality_check(k)
    return make_report(
        "claim8:product_inequality",
        {"k": k},
        violations,
        0,
        "==",
        witness=first,
        note="0 = number of violating profiles",
    )
