from __future__ import annotations

from fractions import Fraction

import pytest

from emckit.audit import (
    AuditReport,
    ParameterWindowError,
    audit_all,
    audit_claim2,
    audit_claim3,
    audit_claim4,
    audit_numeric_lemmas,
    epsilon_of,
    make_report,
    max_window_n,
    min_window_n,
    require_window,
)
from emckit.core import binom
from emckit.exact import Rational

K5_S = 101 * 5**3 + 1
K6_S = 101 * 6**3 + 1


def test_make_report_and_recheck():
    r = make_report("x", {"k": 5}, Fraction(1, 3), Fraction(1, 2), "<=")
    assert r.passed and r.recheck()
    r2 = make_report("x", {}, 2, 1, "<")
    assert not r2.passed and not r2.recheck()
    assert make_report("x", {}, 1, 1, "==").passed
    with pytest.raises(KeyError):
        make_report("x", {}, 1, 1, "!=").recheck()


def test_window_endpoints():
    k, s = 5, K5_S
    lo, hi = min_window_n(k, s), max_window_n(k, s)
    assert lo == (s + 1) * k
    # hi is the largest integer strictly below (s+1)(k + eps)
    eps = epsilon_of(k)
    assert Fraction(hi) < (s + 1) * (k + eps)
    assert Fraction(hi + 1) >= (s + 1) * (k + eps)
    require_window(k, s, lo)
    require_window(k, s, hi)
    with pytest.raises(ParameterWindowError):
        require_window(k, s, lo - 1)
    with pytest.raises(ParameterWindowError):
        require_window(k, s, hi + 1)


def test_window_parameter_guards():
    with pytest.raises(ParameterWindowError):
        require_window(4, 10**7)
    with pytest.raises(ParameterWindowError):
        require_window(5, 101 * 125)  # needs strict inequality


def test_claim2_reports_exact_and_pass():
    reports = list(audit_claim2(5, K5_S, min_window_n(5, K5_S)))
    assert all(r.passed for r in reports)
    weight_reports = [r for r in reports if r.claim_id == "claim2:weight_bound"]
    assert len(weight_reports) == sum(1 for c in range(1, 6) for d in range(c, 6))
    n_bar = min_window_n(5, K5_S) - (K5_S + 1) * 5 + 1
    for r in weight_reports:
        c, d = r.params["c"], r.params["d"]
        assert isinstance(r.lhs, Rational)
        assert r.lhs == Fraction(binom(n_bar, 5 - d), binom(K5_S - c, 5 - c))
        assert r.recheck()
    assert any(r.claim_id == "claim2:aux_chain" for r in reports)


@pytest.mark.parametrize("k", [3, 4])
def test_claim3_enumerated_counts_pass(k):
    reports = list(audit_claim3(k))
    assert all(r.passed for r in reports)
    assert len(reports) == sum(1 for c in range(1, k + 1) for d in range(c, k + 1))


def test_claim3_beyond_enumeration():
    for k in (6, 7):
        reports = list(audit_claim3(k))
        assert all(r.passed for r in reports)
        assert len(reports) == k * (k + 1) // 2


def test_claim4_pass():
    reports = list(audit_claim4(5, K5_S, max_window_n(5, K5_S)))
    assert all(r.passed for r in reports)
    envs = [r for r in reports if r.claim_id == "claim4:wg_envelope"]
    assert [r.params["g"] for r in envs] == list(range(0, 4))


def test_numeric_lemmas_pass():
    for k, s in [(5, K5_S), (6, K6_S), (7, 101 * 7**3 + 1)]:
        reports = list(audit_numeric_lemmas(k, s))
        assert all(r.passed for r in reports)
        ids = {r.claim_id for r in reports}
        assert "lemma:shift_count" in ids
        assert "lemma:final_threshold" in ids
        assert "lemma:r_count_envelope" in ids


def test_audit_all_shape():
    k, s = 5, K5_S
    reports = list(audit_all(k, s, min_window_n(k, s)))
    assert all(r.passed for r in reports)
    claim8 = reports[-1]
    assert claim8.claim_id == "claim8:product_inequality"
    assert (claim8.lhs, claim8.witness) == (0, None)  # no violating profile
    # verdicts are recomputable from the stored exact sides
    assert all(r.recheck() == r.passed for r in reports)


def test_audit_computes_each_candidate_count_once_per_k():
    from emckit import weights

    weights._count_table.cache_clear()
    k, s = 8, 101 * 8**3 + 1
    for n in (min_window_n(k, s), max_window_n(k, s)):
        list(audit_all(k, s, n))
    info = weights._count_table.cache_info()
    weights._count_table.cache_clear()
    # claim 3, the claim-4 envelopes, the r-count lemma and both window ends
    # read one table
    assert (info.misses, info.currsize) == (1, 1)


def test_audit_all_rejects_out_of_window():
    # at the call, before any row is asked for
    with pytest.raises(ParameterWindowError):
        audit_all(5, K5_S, min_window_n(5, K5_S) - 1)


def test_report_is_frozen():
    r = make_report("x", {}, 1, 2, "<")
    with pytest.raises(AttributeError):
        r.lhs = 5  # type: ignore[misc]
    assert isinstance(r, AuditReport)
