"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Each test enforces its own wall-clock budget; timings are measured with a
monotonic clock around the substantive work only.
"""

from __future__ import annotations

import json
import random
import time

from emckit.audit import (
    audit_all,
    max_window_n,
    min_window_n,
    product_inequality_check,
)
from emckit.cli import main as cli_main
from emckit.constructions import build_A, build_B, crossover_n, extremal_sizes, prefix_size
from emckit.core import Family, binom, enumerate_ksets
from emckit.matching import matching_number
from emckit.search import max_family_size
from emckit.shifting import compress_ij, is_shifted, shift_to_fixpoint
from emckit.transversals import bad_pair_stats, transversal_reports
from emckit.weights import (
    WeightFrame,
    candidate_count,
    claim3_bound,
    family_weight_identity,
    wA_of_M,
)
from test_shifting import is_precedence_closed


def report(tag: str, ok: bool, elapsed: float, budget: float) -> None:
    in_time = elapsed < budget
    verdict = "PASS" if ok and in_time else "FAIL"
    print(f"{tag}: {verdict} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, f"{tag} failed"
    assert in_time, f"{tag} exceeded {budget}s budget ({elapsed:.2f}s)"


def test_ac1_exhaustive_boundary_case():
    t0 = time.monotonic()
    mx, _ = max_family_size(6, 2, 2, method="exhaustive")
    ok = mx == 10 == binom(5, 2)
    report("AC1 exhaustive max (n,k,s)=(6,2,2)", ok, time.monotonic() - t0, 5)


def test_ac2_star_regime_maxima():
    t0 = time.monotonic()
    ok = True
    for (n, k, s, want) in [(5, 2, 1, 4), (7, 2, 2, 11)]:
        mx, _ = max_family_size(n, k, s, method="bnb")
        ok &= mx == want == max(extremal_sizes(n, k, s))
    report("AC2 branch-and-bound maxima", ok, time.monotonic() - t0, 60)


def test_ac3_candidate_matching_numbers():
    t0 = time.monotonic()
    ok = True
    for k in (2, 3):
        for s in range(1, 5):
            base = (s + 1) * k
            for n in range(base, base + 5):
                ok &= matching_number(build_A(n, k, s))[0] == s
                ok &= matching_number(build_B(n, k, s))[0] == s
    report("AC3 matching numbers of both candidates", ok, time.monotonic() - t0, 30)


def test_ac4_weight_identities():
    t0 = time.monotonic()
    ok = True
    for k in (2, 3):
        for s in (2, 3, 4):
            if s < k:  # the index set M needs a k-subset of [s]
                continue
            n = (s + 1) * k
            fr = WeightFrame(n, k, s)
            for fam in (build_A(n, k, s), build_B(n, k, s)):
                lhs, rhs, good = family_weight_identity(fam, fr)
                ok &= good and lhs == len(fam)
            ok &= binom(s, k) * wA_of_M(fr) == binom(prefix_size(k, s), k)
    # hand-checkable instance: 3 * 7 = 21 = C(7,2)
    fr = WeightFrame(9, 2, 3)
    ok &= wA_of_M(fr) == 7 and 3 * wA_of_M(fr) == 21 == binom(7, 2)
    report("AC4 weight identities and local-universe mass", ok, time.monotonic() - t0, 60)


def test_ac5_candidate_count_bounds():
    t0 = time.monotonic()
    ok = True
    for k in (3, 4, 5, 6):
        for c in range(1, k + 1):
            for d in range(c, k + 1):
                ok &= candidate_count(c, d, k) <= claim3_bound(c, d, k)
    report("AC5 local subset counts vs counting bound", ok, time.monotonic() - t0, 120)


def test_ac6_audit_grid():
    t0 = time.monotonic()
    ok = True
    worst = 0.0
    for k in (5, 6, 7, 8):
        for s in (101 * k**3 + 1, 101 * k**3 + 1000):
            for n in (min_window_n(k, s), max_window_n(k, s)):
                p0 = time.monotonic()
                ok &= all(r.passed for r in audit_all(k, s, n))
                worst = max(worst, time.monotonic() - p0)
    ok &= worst < 120
    report("AC6 exact-rational audit grid", ok, time.monotonic() - t0, 8 * 120)


def test_ac7_transversal_counts():
    t0 = time.monotonic()
    ok = True
    for k in (3, 4):
        rows = {r.claim_id: r for r in transversal_reports(k, "all")}
        ok &= all(r.passed and r.recheck() for r in rows.values())
        ok &= rows["transversal:full_count"].lhs == k**k
        # the cyclic collections of the canonical defect set, none sharing a
        # transversal with another
        ok &= rows["transversal:cyclic_collections"].lhs == (k - 1) ** (k - 1)
        ok &= rows["transversal:cyclic_no_shared"].lhs == 0
    for k in (3, 4, 5, 6):
        st = bad_pair_stats(k)
        ok &= st.per_t == k * (k - 1) ** (k - 1)
        ok &= st.per_mask_max <= st.per_mask_bound
    # the last k, 6, exactly: per_mask_max meets the bound 7 500
    ok &= (st.per_t, st.per_mask_max, st.num_t, st.num_bad_masks) == (
        18_750,
        7_500,
        194_400,
        582_750,
    )
    report("AC7 transversal and bad-pair counts", ok, time.monotonic() - t0, 300)


def test_ac8_product_inequality():
    t0 = time.monotonic()
    ok = all(product_inequality_check(k) == (0, None) for k in range(2, 11))
    report("AC8 shift-count product inequality", ok, time.monotonic() - t0, 10)


def test_ac9_shifting_suite():
    t0 = time.monotonic()
    rng = random.Random(20240824)
    ok = True
    for _ in range(1000):
        n = rng.randrange(4, 11)
        k = rng.randrange(1, 4)
        pool = list(enumerate_ksets(n, k))
        fam = Family(n, k, rng.sample(pool, min(len(pool), rng.randrange(1, 9))))
        nu = matching_number(fam)[0]
        j = rng.randrange(2, n + 1)
        i = rng.randrange(1, j)
        squeezed = compress_ij(fam, i, j)
        ok &= len(squeezed) == len(fam)
        ok &= matching_number(squeezed)[0] <= nu
        ok &= is_shifted(shift_to_fixpoint(fam))
    # decrement criterion vs full precedence closure, exhaustively tiny
    for n, k in [(4, 2), (5, 2)]:
        pool = list(enumerate_ksets(n, k))
        for bits in range(1 << len(pool)):
            fam = Family(n, k, [pool[i] for i in range(len(pool)) if bits >> i & 1])
            ok &= is_shifted(fam) == is_precedence_closed(fam)
    report("AC9 shifting invariants on random families", ok, time.monotonic() - t0, 120)


def test_ac10_crossover_bound():
    t0 = time.monotonic()
    ok = True
    for k in range(2, 7):
        for s in range(k + 1, 41):
            bound = ((s + 1) * (2 * k + 1) + 1) // 2  # ceil((s+1)(k+1/2))
            ok &= crossover_n(k, s) <= bound
    report("AC10 crossover below (s+1)(k+1/2)", ok, time.monotonic() - t0, 5)


def test_ac11_deterministic_reports(tmp_path):
    t0 = time.monotonic()
    s5 = 101 * 5**3 + 1
    outs = []
    for tag, jobs in (("a", "1"), ("b", "8"), ("c", "1")):
        f = tmp_path / f"audit_{tag}.json"
        code = cli_main(
            ["audit", "--k", "5", "--s", str(s5), "--n", "auto", "--jobs", jobs, "--out", str(f)]
        )
        assert code == 0
        outs.append(f.read_bytes())
    ok = outs[0] == outs[1] == outs[2]
    for tag in ("a", "b"):
        f = tmp_path / f"tr_{tag}.json"
        code = cli_main(["transversal", "--k", "3", "--check", "all", "--seed", "7", "--out", str(f)])
        assert code == 0
    ok &= (tmp_path / "tr_a.json").read_bytes() == (tmp_path / "tr_b.json").read_bytes()
    for tag in ("a", "b"):
        f = tmp_path / f"v_{tag}.json"
        assert cli_main(["verify", "--n", "6", "--k", "2", "--s", "2", "--out", str(f)]) == 0
    ok &= (tmp_path / "v_a.json").read_bytes() == (tmp_path / "v_b.json").read_bytes()
    # reports parse and agree on verdicts
    data = json.loads(outs[0])
    ok &= all(r["pass"] for r in data)
    report("AC11 byte-identical reports across job counts", ok, time.monotonic() - t0, 120)
