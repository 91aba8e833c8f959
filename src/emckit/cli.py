"""Command-line front door: parameter parsing, grid orchestration, report
serialization.

Exit codes: 0 all requested checks pass, 1 any check failed (reports still
written) or a budget ran out, 2 usage or parameter error.

Each command imports what it runs inside its handler, so it loads only those
modules: ``shift`` never loads the audits, the weights or ``fractions``.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Optional, Sequence

from .core import Family, KSet, binom
from .matching import BudgetExceeded

if TYPE_CHECKING:
    from .audit import AuditReport


def fmt_exact(v) -> str:
    """Exact rendering: integers bare, non-integers as p/q (never decimals)."""
    if isinstance(v, int):
        return str(int(v))
    from fractions import Fraction

    f = Fraction(v)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def report_to_dict(r: AuditReport) -> dict:
    d = {
        "claim_id": r.claim_id,
        "params": {key: r.params[key] for key in sorted(r.params)},
        "lhs": fmt_exact(r.lhs),
        "rhs": fmt_exact(r.rhs),
        "cmp": r.cmp,
        "pass": r.passed,
    }
    if r.witness is not None:
        d["witness"] = list(r.witness)
    if r.note:
        d["note"] = r.note
    return d


def render_reports(reports: list[AuditReport], fmt: str) -> str:
    import json

    if fmt == "json":
        return json.dumps([report_to_dict(r) for r in reports], indent=2) + "\n"
    if fmt == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["claim_id", "params", "lhs", "rhs", "cmp", "pass", "witness", "note"])
        for r in reports:
            params = ";".join(f"{key}={r.params[key]}" for key in sorted(r.params))
            writer.writerow(
                [
                    r.claim_id,
                    params,
                    fmt_exact(r.lhs),
                    fmt_exact(r.rhs),
                    r.cmp,
                    str(r.passed).lower(),
                    "" if r.witness is None else json.dumps(list(r.witness)),
                    r.note,
                ]
            )
        return buf.getvalue()
    raise ValueError(f"unknown format {fmt!r}")


def _emit(text: str, out: Optional[str]) -> None:
    """Write text to stdout (no --out, or "-") or to the named file."""
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def write_reports(reports: list[AuditReport], out: Optional[str], fmt: str) -> None:
    _emit(render_reports(reports, fmt), out)


def _parse_range(spec: str) -> list[int]:
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        lo_i, hi_i = int(lo), int(hi)
        if hi_i < lo_i:
            raise ValueError("empty range")
        return list(range(lo_i, hi_i + 1))
    return [int(spec)]


def _cmd_audit(args) -> int:
    from .audit import audit_all, max_window_n, min_window_n

    if args.n == "auto":
        n_values = [min_window_n(args.k, args.s), max_window_n(args.k, args.s)]
    else:
        n_values = _parse_range(args.n)
    reports = [r for n in n_values for r in audit_all(args.k, args.s, n)]
    write_reports(reports, args.out, args.format)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_verify(args) -> int:
    from .search import verify_conjecture

    report = verify_conjecture(
        args.n, args.k, args.s, method=args.method, node_budget=args.node_budget
    )
    write_reports([report], args.out, args.format)
    return 0 if report.passed else 1


def _cmd_crossover(args) -> int:
    from .constructions import crossover_n

    rows = ["k,s,crossover_n,bound,ok"]
    for k in _parse_range(args.k):
        for s in range(k + 1, args.s_max + 1):
            cx = crossover_n(k, s)
            bound = ((s + 1) * (2 * k + 1) + 1) // 2  # ceil((s+1)(2k+1)/2)
            rows.append(f"{k},{s},{cx},{bound},{str(cx <= bound).lower()}")
    _emit("\n".join(rows) + "\n", args.out)
    ok = all(row.endswith("true") for row in rows[1:])
    return 0 if ok else 1


def _transversal_reports(k: int, checks: list[str]) -> list[AuditReport]:
    from .audit import make_report, product_inequality_report
    from .transversals import (
        all_cyclic_collections,
        bad_pair_stats,
        full_transversals,
        q_family_check,
    )
    from .weights import WeightFrame

    frame = WeightFrame((k + 1) * k, k, k)
    reports = []
    if "counts" in checks:
        fulls = list(full_transversals(frame))
        distinct = {t.set.mask for t in fulls if t.profile == (0,) + (1,) * k}
        reports.append(
            make_report("transversal:full_count", {"k": k}, len(distinct), k**k, "==")
        )
        all_weight_one = all(t.weight == 1 for t in fulls)
        reports.append(
            make_report(
                "transversal:full_weight",
                {"k": k},
                0 if all_weight_one else 1,
                0,
                "==",
            )
        )
    if "cyclic" in checks and k >= 2:
        # defect set touching blocks 1..k-1 once, canonical choice
        blocks = frame.b_blocks()
        t = KSet.from_elements(frame.prefix, [b[0] for b in blocks[:-1]])
        seen = {}
        ok = True
        count = 0
        for coll in all_cyclic_collections(t, frame):
            count += 1
            for q in coll:
                if q.mask in seen and seen[q.mask] != count:
                    ok = False
                seen[q.mask] = count
        reports.append(
            make_report(
                "transversal:cyclic_collections",
                {"k": k},
                count,
                (k - 1) ** (k - 1),
                "==",
            )
        )
        reports.append(
            make_report(
                "transversal:cyclic_no_shared",
                {"k": k},
                0 if ok else 1,
                0,
                "==",
            )
        )
    if "badpairs" in checks:
        stats = bad_pair_stats(frame, k)
        reports.append(
            make_report(
                "transversal:bad_pair_per_set",
                {"k": k},
                stats.per_t,
                k * (k - 1) ** (k - 1),
                "==",
            )
        )
        reports.append(
            make_report(
                "transversal:bad_pair_per_mask",
                {"k": k},
                stats.per_mask_max,
                stats.per_mask_bound,
                "<=",
            )
        )
        reports.append(
            make_report(
                "transversal:bad_pair_doubling",
                {"k": k},
                2 * stats.num_t,
                stats.num_bad_masks,
                "<=",
            )
        )
    if "q" in checks:
        failures, first = q_family_check(k)
        reports.append(
            make_report("transversal:q_family_disjoint", {"k": k}, failures, 0, "==", witness=first)
        )
    if "product" in checks:
        reports.append(product_inequality_report(k))
    return reports


def _cmd_transversal(args) -> int:
    from .transversals import BAD_PAIR_MAX_K

    checks = (
        ["counts", "cyclic", "badpairs", "q", "product"]
        if args.check == "all"
        else [args.check]
    )
    if "badpairs" in checks and args.k > BAD_PAIR_MAX_K:
        raise ValueError(f"--check badpairs supports k <= {BAD_PAIR_MAX_K}, got k={args.k}")
    reports = _transversal_reports(args.k, checks)
    write_reports(reports, args.out, args.format)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_identities(args) -> int:
    from .audit import make_report
    from .constructions import build_A, build_B, extremal_sizes
    from .weights import WeightFrame, family_weight_identity, wA_of_M

    if args.family == "A":
        fam = build_A(args.n, args.k, args.s)
    elif args.family == "B":
        fam = build_B(args.n, args.k, args.s)
    else:
        with open(args.family, encoding="utf-8") as fh:
            fam = Family.from_text(fh.read())
        if (fam.n, fam.k) != (args.n, args.k):
            raise ValueError(
                f"family file has n={fam.n}, k={fam.k}; expected n={args.n}, k={args.k}"
            )
    frame = WeightFrame(args.n, args.k, args.s)
    lhs, rhs, ok = family_weight_identity(fam, frame)
    wa = wA_of_M(frame)
    size_a = extremal_sizes(args.n, args.k, args.s)[0]
    reports = [
        make_report(
            "identity:family_weight",
            {"n": args.n, "k": args.k, "s": args.s, "family": args.family},
            lhs,
            rhs,
            "==",
        ),
        make_report(
            "identity:prefix_weight",
            {"n": args.n, "k": args.k, "s": args.s},
            binom(args.s, args.k) * wa,
            size_a,
            "==",
        ),
    ]
    write_reports(reports, args.out, args.format)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_shift(args) -> int:
    from .shifting import shift_to_fixpoint

    with open(args.infile, encoding="utf-8") as fh:
        fam = Family.from_text(fh.read())
    _emit(shift_to_fixpoint(fam).to_text(), args.out)
    return 0


def _cmd_find_g0(args) -> int:
    from .search import find_G0

    if args.k < 2 or args.s < 1:
        raise ValueError(f"need k >= 2 and s >= 1, got k={args.k}, s={args.s}")
    with open(args.infile, encoding="utf-8") as fh:
        fam = Family.from_text(fh.read())
    if fam.k != args.k:
        raise ValueError(f"family file has k={fam.k}; expected k={args.k}")
    g0 = find_G0(fam, args.k, args.s)
    if g0 is None:
        print("none")
        return 1
    print(",".join(map(str, g0.elements)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emckit",
        description="Exact verification workbench for almost-perfect-matching bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("audit", help="run the exact-rational claim audits")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n", default="auto", help="int, range a..b, or 'auto' (both window endpoints)")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--jobs", type=int, default=1, help="no effect: the points run in one process")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("verify", help="desk-scale extremal verification")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--method", choices=["exhaustive", "bnb", "shifted_only"], default="bnb")
    p.add_argument(
        "--node-budget",
        type=int,
        default=None,
        help="most search nodes for bnb and shifted_only (at least 1); exhaustive takes none",
    )
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("crossover", help="crossover points as CSV")
    p.add_argument("--k", required=True, help="int or range a..b")
    p.add_argument("--s-max", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_crossover)

    p = sub.add_parser("transversal", help="transversal counting checks")
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--check",
        choices=["counts", "cyclic", "badpairs", "q", "product", "all"],
        default="all",
    )
    p.add_argument("--seed", type=int, default=0, help="ignored; kept for old command lines")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_transversal)

    p = sub.add_parser("identities", help="weight identity checks")
    p.add_argument("--family", required=True, help="A, B, or a family file path")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_identities)

    p = sub.add_parser("shift", help="compress a family to its shifted fixpoint")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_shift)

    p = sub.add_parser("find-g0", help="search for the distinguished pivot set")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.set_defaults(func=_cmd_find_g0)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ValueError as exc:  # ParameterWindowError too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"unknown: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
