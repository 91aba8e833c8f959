from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from emckit import cli
from emckit.cli import (
    _cmd_audit,
    _cmd_crossover,
    _cmd_find_g0,
    _cmd_identities,
    _cmd_shift,
    _cmd_transversal,
    _cmd_verify,
    fmt_exact,
    main,
    render_reports,
)
from emckit.audit import make_report
from emckit.exact import Rational

K5_S = 101 * 5**3 + 1

SRC = Path(__file__).resolve().parent.parent / "src"
README = SRC.parent / "README.md"
# CI runs this test under -W error; modules that site or .pth files load are not counted
IMPORT_GUARD = (
    "import sys; before = set(sys.modules); import emckit.cli; "
    "heavy = {'argparse', 'gettext', 'locale', 'dataclasses', 'inspect', 'logging', 'random', "
    "'fractions', 'decimal', 'json', 'csv', 'concurrent.futures', "
    "'emckit.constructions', 'emckit.shifting', 'emckit.weights', "
    "'emckit.transversals', 'emckit.audit', 'emckit.search', 'emckit.matching', 'emckit.report', "
    "'emckit.exact'} "
    "& (set(sys.modules) - before); "
    "assert not heavy, sorted(heavy)"
)


# the argparse parser that cli.parse_args replaced, kept as its oracle
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
    p.add_argument(
        "--method",
        choices=["exhaustive", "bnb", "shifted_only"],
        default="bnb",
        help="shifted_only searches downsets; exhaustive is bnb, kept for old command lines",
    )
    p.add_argument(
        "--node-budget",
        type=int,
        default=None,
        help="most search nodes (at least 1); without one, C(n,k) <= 60",
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


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_import_skips_heavy_stdlib_modules():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", IMPORT_GUARD],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")


def loaded_by(code: str) -> set[str]:
    """The modules a fresh interpreter loads while it runs ``code``."""
    probe = f"import sys; before = set(sys.modules)\n{code}\nprint(*set(sys.modules) - before)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", probe],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.mark.parametrize(
    "command,module",
    [(["shift"], "emckit.shifting"), (["find-g0", "--k", "2", "--s", "1"], "emckit.search")],
)
def test_family_commands_load_no_reports_weights_or_fractions(tmp_path, command, module):
    src = tmp_path / "f.txt"
    src.write_text("5 2\n2,3\n3,5\n")
    argv = [*command, "--in", str(src)]
    loaded = loaded_by(f"from emckit.cli import main; main({argv!r})")
    assert module in loaded
    unused = {"fractions", "json", "csv", "emckit.weights", "emckit.audit", "emckit.report"}
    assert not unused & loaded


@pytest.mark.parametrize(
    "argv,loads_transversals",
    [
        (["audit", "--k", "5", "--s", "12626", "--n", "auto"], False),
        (["verify", "--n", "7", "--k", "2", "--s", "2"], False),
        (["identities", "--family", "B", "--n", "9", "--k", "2", "--s", "3"], False),
        (["transversal", "--k", "3", "--check", "product"], True),
        (["transversal", "--k", "3", "--check", "all"], True),
    ],
    ids=["audit", "verify", "identities", "transversal", "transversal-all"],
)
def test_only_transversal_loads_the_transversal_layer(argv, loads_transversals):
    # emckit.report writes the report in either format, without json
    for fmt in ("csv", "json"):
        loaded = loaded_by(
            f"import contextlib, io\nfrom emckit.cli import main\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({[*argv, '--format', fmt]!r}) == 0"
        )
        assert "emckit.report" in loaded
        assert "json" not in loaded
        # rationals are emckit.exact's, with no stdlib rational or decimal type
        assert not {"fractions", "decimal", "numbers"} & loaded
        assert ("emckit.exact" in loaded) is (argv[0] != "verify")
        assert ("csv" in loaded) is (fmt == "csv")
        if argv[0] == "verify":
            # the verdict has integer sides: no audit, weights or rational arithmetic
            assert "emckit.search" in loaded
            assert not {"emckit.audit", "emckit.weights", "fractions", "decimal"} & loaded
        elif argv[0] == "identities":
            # weights builds the rows itself; no audit is run
            assert "emckit.weights" in loaded
            assert "emckit.audit" not in loaded
        else:
            assert "emckit.audit" in loaded
        assert ("emckit.transversals" in loaded) is loads_transversals


def test_bench_nu_imports_load_no_search_or_fractions():
    bench = SRC.parent / "bench"
    loaded = loaded_by(f"sys.path.insert(0, {str(bench)!r}); import nu")
    assert {"emckit.core", "emckit.matching"} <= loaded
    assert not {"fractions", "emckit.search"} & loaded


def test_fmt_exact():
    assert fmt_exact(3) == "3"
    assert fmt_exact(True) == "1"
    assert fmt_exact(Fraction(6, 3)) == "2"
    assert fmt_exact(Fraction(-1, 3)) == "-1/3"
    assert fmt_exact(Rational(-1, 3)) == "-1/3"
    assert fmt_exact(Rational(10**30, 5)) == str(2 * 10**29)


@pytest.mark.parametrize("value", [0.1, 2.0, float("inf"), complex(1, 0), "3"])
def test_fmt_exact_refuses_what_is_not_exact(value):
    with pytest.raises(TypeError):
        fmt_exact(value)


def test_render_json_fields_and_order():
    r = make_report("c:x", {"k": 5, "a": 1}, Fraction(1, 2), 1, "<=")
    text = render_reports([r], "json")
    data = json.loads(text)
    assert data == [
        {
            "claim_id": "c:x",
            "params": {"a": 1, "k": 5},
            "lhs": "1/2",
            "rhs": "1",
            "cmp": "<=",
            "pass": True,
        }
    ]
    assert text.endswith("\n")


def test_render_csv():
    r = make_report("c:x", {"k": 5}, 2, 1, "<", witness=(1, 2))
    nested = make_report("c:y", {"k": 5}, 2, 1, "<", witness=((1, 2), (3,)), note="a, \"b\"")
    rows = list(csv.reader(io.StringIO(render_reports([r, nested], "csv"))))
    assert rows[0][0] == "claim_id"
    assert rows[1][:6] == ["c:x", "k=5", "2", "1", "<", "false"]
    # the witness column is compact JSON
    assert rows[1][6] == "[1, 2]"
    assert rows[2][6:] == ["[[1, 2], [3]]", 'a, "b"']


def render_whole(reports, fmt: str) -> str:
    """Oracle: every row as a dict, then the whole text at once."""
    from emckit.report import to_json

    if fmt == "json":
        return to_json([cli.report_to_dict(r) for r in reports], indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["claim_id", "params", "lhs", "rhs", "cmp", "pass", "witness", "note"])
    for r in reports:
        params = ";".join(f"{key}={r.params[key]}" for key in sorted(r.params))
        witness = "" if r.witness is None else to_json(r.witness)
        row = [r.claim_id, params, fmt_exact(r.lhs), fmt_exact(r.rhs), r.cmp,
               str(r.passed).lower(), witness, r.note]
        writer.writerow(row)
    return buf.getvalue()


def report_sets():
    from emckit.audit import audit_all
    from emckit.transversals import transversal_reports

    nested = make_report("c:y", {"k": 5}, 2, 1, "<", witness=((1, 2), (3,)), note='a, "b"\né')
    return {
        "none": [],
        "one": [make_report("c:x", {"k": 5, "a": 1}, Fraction(1, 2), 1, "<=")],
        "nested": [nested, nested],
        "audit-k5": list(audit_all(5, K5_S, 63135)),
        "transversal-k4": transversal_reports(4, "all"),
    }


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_report_pieces_are_the_whole_text_row_by_row(fmt, tmp_path, capsys):
    for name, reports in report_sets().items():
        expected = render_whole(reports, fmt)
        pieces = list(cli.report_pieces(iter(reports), fmt))
        assert "".join(pieces) == expected, name
        # a piece per row, then the JSON close and its newline, or the CSV header
        assert len(pieces) == len(reports) + (2 if fmt == "json" else 1)
        cli.write_reports(reports, None, fmt)
        out = tmp_path / f"{name}.{fmt}"
        cli.write_reports(reports, str(out), fmt)
        assert capsys.readouterr().out == expected
        assert out.read_text(encoding="utf-8") == expected


def test_writing_a_report_allocates_little_beyond_one_row(tmp_path):
    import tracemalloc

    from emckit.audit import audit_all, max_window_n, min_window_n

    k, s = 20, 808001
    reports = [r for n in (min_window_n(k, s), max_window_n(k, s)) for r in audit_all(k, s, n)]
    text = render_whole(reports, "json")
    out = tmp_path / "r.json"
    cli.write_reports(reports[:2], str(out), "json")  # first-use allocations
    tracemalloc.start()
    try:
        cli.write_reports(reports, str(out), "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.read_text(encoding="utf-8") == text
    # 256 078 bytes of JSON: about 25 KB rendering row by row, 1.4 MB rendering it whole
    assert peak < len(text) // 4


def test_audit_auto_runs_both_endpoints(tmp_path, capsys):
    out = tmp_path / "r.json"
    code, _ = run(capsys, "audit", "--k", "5", "--s", str(K5_S), "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    ns = {r["params"]["n"] for r in data if "n" in r["params"]}
    assert len(ns) == 2


def test_audit_jobs_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, "audit", "--k", "5", "--s", str(K5_S), "--jobs", "1", "--out", str(a))[0] == 0
    assert run(capsys, "audit", "--k", "5", "--s", str(K5_S), "--jobs", "8", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_audit_auto_tests_half_of_k_claim8_partitions_per_walk(capsys, monkeypatch):
    from emckit import audit

    tested = []
    original = audit._claim8_holds
    monkeypatch.setattr(audit, "_claim8_holds", lambda *args: tested.append(args) or original(*args))
    code, out = run(capsys, "audit", "--k", "5", "--s", str(K5_S), "--n", "auto")
    assert code == 0
    rows = [r for r in json.loads(out) if r["claim_id"] == "claim8:product_inequality"]
    assert len(rows) == 2 and rows[0] == rows[1]
    # one walk per window end, each testing only (1, 4) and (2, 3): both hold,
    # and the proof closes everything below them
    assert len(tested) == 2 * (5 // 2)


def test_audit_out_of_window_exits_2(capsys):
    code, _ = run(capsys, "audit", "--k", "4", "--s", "999999")
    assert code == 2


@pytest.mark.parametrize(
    "argv,message",
    [
        (["audit", "--k", "5", "--s", "12626", "--n", f"1..{10**30}"],
         "n=1 outside window [63135, 63160]"),
        (["audit", "--k", "5", "--s", "12626", "--n", f"63135..{10**30}"],
         f"n={10**30} outside window [63135, 63160]"),
        (["crossover", "--k", f"2..{10**30}", "--s-max", "40"],
         "k = 40 has no s in 41..40: needs --s-max > 40"),
        (["crossover", "--k", f"50..{10**30}", "--s-max", "40"],
         "k = 50 has no s in 51..40: needs --s-max > 50"),
    ],
    ids=["audit-low-end", "audit-high-end", "crossover", "crossover-low-end"],
)
def test_a_huge_range_is_refused_from_its_ends(capsys, argv, message):
    # a list of these ranges would not fit in memory, nor its length in an index
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "extra",
    [
        ["--k", "4", "--s", "999999"],
        ["--k", "5", "--s", "12625"],
        ["--k", "5", "--s", "12626", "--n", "63134"],
        ["--k", "5", "--s", "12626", "--n", "63135..63161"],
        ["--k", "5", "--s", "12626", "--n", "63136..63135"],
    ],
    ids=["k", "s", "n", "range-end", "empty-range"],
)
def test_audit_refusals_open_no_out_file(tmp_path, capsys, extra):
    # the rows are written as they are made, so every refusal comes before --out opens
    out = tmp_path / "r.json"
    assert main(["audit", *extra, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert not out.exists()


def test_audit_k0_is_refused_before_the_window_ends(capsys):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "emckit.cli", "audit", "--k", "0", "--s", "1"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: audited regime needs k >= 5, got k=0\n"
    for extra in (["--n", "auto"], ["--n", "5"]):
        assert main(["audit", "--k", "0", "--s", "1", *extra]) == 2
        assert capsys.readouterr().err == "error: audited regime needs k >= 5, got k=0\n"


def test_usage_error_exits_2(capsys):
    assert main(["audit"]) == 2
    assert main(["no-such-command"]) == 2


def _valid_values(opt) -> tuple[str, str]:
    """Two values the option accepts; the second one also checks "-" and a
    negative number as values."""
    if opt.kind is int:
        return "3", "-5"
    if isinstance(opt.kind, tuple):
        return opt.kind[-1], opt.kind[0]
    return "A", "-"


def _argvs(name: str) -> list[list[str]]:
    """Command lines for one command, generated from its option table: valid
    ones and one refusal of each kind.  None of them has -h or --help, which
    argparse handles on its own, nor an abbreviated option name, which only
    argparse reads."""
    rng = random.Random(name)
    options = cli.COMMANDS[name].options
    first = [[opt.flag, _valid_values(opt)[0]] for opt in options]
    second = [[opt.flag, _valid_values(opt)[1]] for opt in options]
    required = [pair for pair, opt in zip(first, options) if opt.required]

    def flat(pairs):
        return [name] + [token for pair in pairs for token in pair]

    def shuffled(pairs):
        pairs = list(pairs)
        rng.shuffle(pairs)
        return pairs

    argvs = [
        flat(required),
        flat(first),
        flat(shuffled(first)),
        flat(shuffled(second)),
        [name] + [f"{flag}={value}" for flag, value in shuffled(second)],
        flat(shuffled(first) + shuffled(second)),  # repeated: the last value wins
        flat(required) + ["--bogus", "1"],
        flat(required) + ["stray"],
        [name],
    ]
    for i, opt in enumerate(options):
        if opt.required:
            argvs.append(flat(required[:i] + required[i + 1:]))  # one required option missing
        argvs.append(flat(required) + [opt.flag])  # no value
        argvs.append(flat(required) + [opt.flag, "--bogus"])  # an option where the value goes
        argvs.append(flat(required) + [opt.flag, "--out", "x"])
        if opt.kind is int:
            argvs += [flat(required) + [opt.flag, bad] for bad in ("x", "1.5", "")]
            argvs.append(flat(required) + [f"{opt.flag}=x"])
        if isinstance(opt.kind, tuple):
            argvs.append(flat(required) + [opt.flag, "nope"])
            argvs.append(flat(required) + [f"{opt.flag}={opt.kind[0].upper()}"])
    return argvs


def _oracle_parse(argv):
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:
        assert exc.code == 2
        return None
    values = dict(vars(ns))
    return values.pop("command"), values.pop("func").__name__, values


def _table_parse(argv):
    try:
        command, args = cli.parse_args(argv)
    except cli.UsageError:
        return None
    return command, cli.COMMANDS[command].handler, vars(args)


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_parser_agrees_with_argparse(name, capsys):
    accepted = refused = 0
    for argv in [*_argvs(name), ["no-such-command"], []]:
        expected = _oracle_parse(argv)
        assert _table_parse(argv) == expected, argv
        if expected is None:
            # a usage error: exit 2, usage and an error line on stderr, no stdout
            capsys.readouterr()
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == "", argv
            usage, error = captured.err.splitlines()
            assert usage.startswith("usage: emckit") and ": error: " in error, argv
            refused += 1
        else:
            accepted += 1
    assert accepted >= 6 and refused >= 5


def test_abbreviated_options_are_refused(capsys):
    # argparse reads a prefix of an option name as the option; the table
    # parser takes full names only
    for argv in (
        ["crossover", "--k", "2", "--s", "40"],
        ["verify", "--n", "6", "--k", "2", "--s", "2", "--node", "9"],
        ["verify", "--n", "6", "--k", "2", "--s", "2", "--meth=bnb"],
    ):
        assert _oracle_parse(argv) is not None
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error: unrecognized arguments: --" in captured.err


@pytest.mark.parametrize("command", [None, *cli.COMMANDS])
def test_help_exits_0_with_usage_on_stdout(command, capsys):
    prefix = [] if command is None else [command]
    outputs = set()
    for flag in ("-h", "--help"):
        assert main([*prefix, flag]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.startswith("usage: emckit")
        outputs.add(captured.out)
    (text,) = outputs
    if command is None:
        assert all(f"  {name} " in text for name in cli.COMMANDS)
    else:
        assert all(f"  {opt.flag} {opt.metavar}" in text for opt in cli.COMMANDS[command].options)
        assert cli.COMMANDS[command].help in text
    # help comes before anything after it is read
    assert main([*prefix, "--help", "--bogus"]) == 0
    capsys.readouterr()


def test_verify_pass_and_fail_exit_codes(capsys):
    code, out = run(capsys, "verify", "--n", "6", "--k", "2", "--s", "2")
    assert code == 0
    assert json.loads(out)[0]["pass"] is True
    # s >= n: C(n - s, k) would have a negative upper index
    code, out = run(capsys, "verify", "--n", "3", "--k", "2", "--s", "5")
    assert code == 0
    row = json.loads(out)[0]
    assert row["pass"] is True and row["lhs"] == row["rhs"] == "3"


def test_verify_node_budget_lifts_cap(capsys):
    argv = ["verify", "--n", "10", "--k", "3", "--s", "2", "--method", "shifted_only"]
    assert main(argv) == 2  # C(10,3) = 120 > the default cap of 60
    assert capsys.readouterr().err.startswith("error:")
    code, out = run(capsys, *argv, "--node-budget", "1000")
    assert code == 0
    row = json.loads(out)[0]
    assert row["pass"] is True and row["lhs"] == row["rhs"] == "64"
    # C(20,3) = 1 140 k-sets: a small budget ends unknown, a large one decides
    big = ["verify", "--n", "20", "--k", "3", "--s", "2"]
    assert main([*big, "--node-budget", "1000"]) == 1
    assert "largest family found has 113 sets" in capsys.readouterr().err
    code, out = run(capsys, *big, "--method", "shifted_only", "--node-budget", "100000")
    assert code == 0
    row = json.loads(out)[0]
    assert row["pass"] is True and row["lhs"] == row["rhs"] == "324"
    # C(30,4) = 27 405 k-sets: above the bitset ceiling, refused with any budget
    huge = ["verify", "--n", "30", "--k", "4", "--s", "2", "--node-budget", "1000"]
    assert main(huge) == 2
    assert "needs C(n,k) <= 4096 with any budget" in capsys.readouterr().err


def test_verify_refuses_meaningless_node_budget(capsys):
    argv = ["verify", "--n", "6", "--k", "2", "--s", "2"]
    for extra, message in [
        (["--node-budget", "0"], "node budget must be at least 1, got 0"),
        (["--node-budget", "-5"], "node budget must be at least 1, got -5"),
    ]:
        assert main([*argv, *extra]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
    # exhaustive is bnb under its old name: it takes a budget, counts bnb's
    # nodes, runs past 24 k-sets and gives bnb's row apart from params.method
    past_24 = ["verify", "--n", "9", "--k", "2", "--s", "3"]
    for instance, budget, code in [(argv, "10", 1), (argv, "1000", 0), (past_24, "1000", 0)]:
        runs = []
        for method in ("exhaustive", "bnb"):
            code_m = main([*instance, "--method", method, "--node-budget", budget])
            runs.append((code_m, capsys.readouterr()))
        (code_e, out_e), (code_b, out_b) = runs
        assert code_e == code_b == code
        assert out_e.err == out_b.err
        assert out_e.out == out_b.out.replace('"method": "bnb"', '"method": "exhaustive"')


def test_verify_budgeted_9_2_3_passes(capsys):
    argv = ["verify", "--n", "9", "--k", "2", "--s", "3", "--method", "bnb"]
    code, out = run(capsys, *argv, "--node-budget", "30000")
    assert code == 0
    row = json.loads(out)[0]
    assert row["pass"] is True and row["lhs"] == row["rhs"] == "21"


def test_verify_9_2_3_smallest_budget(capsys):
    # bnb with the swap cut finishes in 849 nodes; one node fewer is unknown
    argv = ["verify", "--n", "9", "--k", "2", "--s", "3", "--method", "bnb"]
    code, out = run(capsys, *argv, "--node-budget", "849")
    assert code == 0
    row = json.loads(out)[0]
    assert row["pass"] is True and row["lhs"] == row["rhs"] == "21"
    assert main([*argv, "--node-budget", "848"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("unknown: max_family_size: node budget 848 exhausted")
    assert captured.out == ""


def test_verify_swap_cut_stays_cheap_at_bitset_ceiling(monkeypatch, capsys):
    # k = 1, n = 4096: C(n,k) is the bitset ceiling and there are 4 095
    # transpositions, one pair each
    from emckit import search

    built, checked = [], []
    swap_pairs, swap_cut = search._swap_pairs, search._swap_cut

    def counted_pairs(n, all_masks):
        built.append(swap_pairs(n, all_masks))
        return built[-1]

    def counted_cut(pairs, incl, pool):
        checked.append(len(pairs))
        return swap_cut(pairs, incl, pool)

    monkeypatch.setattr(search, "_swap_pairs", counted_pairs)
    monkeypatch.setattr(search, "_swap_cut", counted_cut)
    # the search stops at s = 2 singletons after 2s + 1 = 5 nodes
    argv = ["verify", "--n", "4096", "--k", "1", "--s", "2", "--node-budget", "5"]
    code, out = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)[0]["lhs"] == "2"
    [pairs] = built
    assert [len(at_a) for at_a in pairs] == [1] * 4095
    # a node rechecks only the transpositions that move the singleton its
    # decision decided, not all 4 095
    assert len(checked) <= 2 * 5


def test_exhausted_budget_names_largest_family_found(tmp_path, capsys):
    # the size found so far is a lower bound on stderr; no report is written
    out = tmp_path / "r.json"
    argv = ["verify", "--n", "9", "--k", "2", "--s", "3", "--node-budget", "10"]
    assert main([*argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "unknown: max_family_size: node budget 10 exhausted; largest family found has 9 sets\n"
    )
    assert captured.out == ""
    assert not out.exists()


def test_program_faults_keep_their_traceback(monkeypatch):
    from emckit import cli

    def deep(args):
        raise RecursionError("maximum recursion depth exceeded")

    # a fault of the program is not reported as a usage error
    monkeypatch.setattr(cli, "_cmd_crossover", deep)
    with pytest.raises(RecursionError):
        main(["crossover", "--k", "2", "--s-max", "4"])


def test_crossover_csv(capsys):
    code, out = run(capsys, "crossover", "--k", "2..3", "--s-max", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,s,crossover_n,bound,ok"
    assert all(line.endswith("true") for line in lines[1:])


@pytest.mark.parametrize(
    "k,s_max,bare", [("2..6", "5", 5), ("2", "1", 2), ("3..9", "4", 4), ("7", "7", 7)]
)
def test_crossover_refuses_a_k_without_rows(capsys, k, s_max, bare):
    # s runs over k+1..s_max, so a k >= s_max would have no row: refused
    # before any row, naming the first such k
    code = main(["crossover", "--k", k, "--s-max", s_max])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: k = {bare} has no s in {bare + 1}..{s_max}: needs --s-max > {bare}\n"


def test_transversal_all_k3(capsys):
    code, out = run(capsys, "transversal", "--k", "3", "--check", "all")
    assert code == 0
    data = json.loads(out)
    assert all(r["pass"] for r in data)
    ids = [r["claim_id"] for r in data]
    assert "transversal:full_count" in ids
    assert "claim8:product_inequality" in ids
    claim8 = data[ids.index("claim8:product_inequality")]
    assert claim8["lhs"] == "0" and "witness" not in claim8
    assert claim8["note"] == "0 = number of violating profiles"


def test_transversal_full_weight_fails_on_a_wrong_weight(capsys, monkeypatch):
    import emckit.transversals as transversals

    code, out = run(capsys, "transversal", "--k", "3", "--check", "counts")
    rows = {r["claim_id"]: r for r in json.loads(out)}
    assert code == 0 and rows["transversal:full_weight"]["pass"] is True

    monkeypatch.setattr(transversals, "weight_value", lambda k, s, n_bar, c, d: Fraction(2))
    code, out = run(capsys, "transversal", "--k", "3", "--check", "counts")
    rows = {r["claim_id"]: r for r in json.loads(out)}
    assert code == 1
    row = rows["transversal:full_weight"]
    assert (row["lhs"], row["rhs"], row["pass"]) == ("1", "0", False)
    assert rows["transversal:full_count"]["pass"] is True


def _fault_in_block(monkeypatch, i, j, element):
    """Put ``element`` at position j of block i of the local layout."""
    import emckit.transversals as transversals

    original = transversals._local_layout

    def faulty(k):
        g0, blocks = original(k)
        block = list(blocks[i])
        block[j] = element
        return g0, blocks[:i] + [tuple(block)] + blocks[i + 1 :]

    monkeypatch.setattr(transversals, "_local_layout", faulty)


def test_transversal_full_count_fails_on_a_repeated_set(capsys, monkeypatch):
    # block 1 lists 2 twice, so two choices give the same set: 2 * 3 * 3 distinct
    _fault_in_block(monkeypatch, 0, 2, 2)
    code, out = run(capsys, "transversal", "--k", "3", "--check", "counts")
    rows = {r["claim_id"]: r for r in json.loads(out)}
    assert code == 1
    row = rows["transversal:full_count"]
    assert (row["lhs"], row["rhs"], row["pass"]) == ("18", "27", False)


@pytest.mark.parametrize(
    "i, element, lhs",
    [(1, 3, "12"), (2, 10, "18")],  # block 2 shares 3 with block 1; block 3 holds distinguished 10
    ids=["another-block", "distinguished"],
)
def test_transversal_full_count_fails_on_a_shared_element(capsys, monkeypatch, i, element, lhs):
    _fault_in_block(monkeypatch, i, 0, element)
    code, out = run(capsys, "transversal", "--k", "3", "--check", "counts")
    rows = {r["claim_id"]: r for r in json.loads(out)}
    assert code == 1
    row = rows["transversal:full_count"]
    assert (row["lhs"], row["rhs"], row["pass"]) == (lhs, "27", False)


def _fault_in_tables(fault):
    """Apply ``fault`` to every rotation table the cyclic check builds."""

    def install(monkeypatch):
        import emckit.transversals as transversals

        original = transversals._rotation_table
        monkeypatch.setattr(transversals, "_rotation_table", lambda r: fault(original(r)))

    return install


@pytest.mark.parametrize(
    "install",
    [
        # still k-1 offsets, two give one collection
        _fault_in_tables(lambda table: [table[0]] + table[:-1]),
        _fault_in_tables(lambda table: [[1] + table[0][1:]] + table[1:]),  # t's element of block 1
        _fault_in_tables(lambda table: [[10] + table[0][1:]] + table[1:]),  # distinguished 10
        # the missed block's slot element 8 becomes 2, a residual element of block 1
        lambda monkeypatch: _fault_in_block(monkeypatch, 2, 1, 2),
    ],
    ids=["repeated-collection", "block-bit-undecodable", "tail-bit-undecodable", "shared-slot"],
)
def test_transversal_cyclic_no_shared_fails(capsys, monkeypatch, install):
    install(monkeypatch)
    code, out = run(capsys, "transversal", "--k", "3", "--check", "cyclic")
    rows = {r["claim_id"]: r for r in json.loads(out)}
    assert code == 1
    row = rows["transversal:cyclic_no_shared"]
    assert (row["lhs"], row["rhs"], row["pass"]) == ("1", "0", False)
    assert rows["transversal:cyclic_collections"]["pass"] is True


def test_transversal_q_row_names_the_failing_profile(capsys, monkeypatch):
    import emckit.transversals as transversals

    code, out = run(capsys, "transversal", "--k", "3", "--check", "q")
    (row,) = json.loads(out)
    assert code == 0
    assert row["params"] == {"k": 3} and row["lhs"] == "0" and "witness" not in row

    original = transversals._slot_row

    def swapped_at_0_1(block, in_t, p):
        # a first touched block with one element of t puts it in slot 2,
        # which fails the profiles (2, 1) and (1, 1, 1)
        row = original(block, in_t, p)
        if (p, len(in_t.intersection(block))) == (0, 1):
            row[0], row[1] = row[1], row[0]
        return row

    monkeypatch.setattr(transversals, "_slot_row", swapped_at_0_1)
    code, out = run(capsys, "transversal", "--k", "3", "--check", "q")
    (row,) = json.loads(out)
    assert code == 1
    assert (row["lhs"], row["rhs"], row["pass"]) == ("2", "0", False)
    assert row["witness"] == [2, 1]


@pytest.mark.parametrize("k", [3, 4, 5])
def test_transversal_all_is_the_single_checks_in_order(capsys, k):
    checks = ["counts", "cyclic", "badpairs", "q", "product"]
    code, out = run(capsys, "transversal", "--k", str(k), "--check", "all")
    assert code == 0
    rows = []
    for check in checks:
        code, single = run(capsys, "transversal", "--k", str(k), "--check", check)
        assert code == 0
        rows.extend(json.loads(single))
    assert out == json.dumps(rows, indent=2) + "\n"


def test_transversal_seed_has_no_effect(capsys):
    code0, out0 = run(capsys, "transversal", "--k", "4", "--seed", "0")
    code7, out7 = run(capsys, "transversal", "--k", "4", "--seed", "7")
    assert code0 == code7 == 0
    assert out0 == out7


def test_transversal_q_exit_codes(capsys):
    for k, q_code, all_code in ((0, 2, 2), (1, 0, 2), (2, 0, 2), (8, 0, 0), (64, 0, 0)):
        assert main(["transversal", "--k", str(k), "--check", "q"]) == q_code
        assert main(["transversal", "--k", str(k), "--check", "all"]) == all_code
        capsys.readouterr()
    # a check that cannot run at this k is refused, never left out of the report
    for k, check in ((0, "counts"), (0, "q"), (0, "cyclic"), (1, "cyclic")):
        assert main(["transversal", "--k", str(k), "--check", check]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""


def readme_cli_lines() -> list[str]:
    """The ``emckit ...`` lines of the README's CLI code block."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("emckit ")]


def test_readme_cli_examples_exit_0(tmp_path, monkeypatch, capsys):
    # every example that reads no input file; the report files land in tmp_path
    lines = [line for line in readme_cli_lines() if "--in" not in line.split()]
    assert len(lines) == 6
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
        capsys.readouterr()


def test_transversal_at_k_64_passes_every_check(capsys):
    # the local universe [(k+1)k-1] no longer fits in [4096]; no row needs it to
    for check in ("counts", "cyclic", "badpairs", "q", "product", "all"):
        code = main(["transversal", "--k", "64", "--check", check])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        assert all(r["pass"] for r in json.loads(captured.out))


@pytest.mark.parametrize("k", [10, 20, 40, 63, 64, 100])
@pytest.mark.parametrize("check", ["counts", "cyclic", "badpairs", "all"])
def test_transversal_block_checks_pass_up_to_max_k(capsys, k, check):
    code, out = run(capsys, "transversal", "--k", str(k), "--check", check)
    rows = json.loads(out)
    assert code == 0
    assert len(rows) == {"counts": 2, "cyclic": 2, "badpairs": 3, "all": 9}[check]
    assert all(r["pass"] for r in rows)


@pytest.mark.parametrize(
    "argv",
    [
        ["transversal", "--k", "5"],
        ["audit", "--k", "5", "--s", str(K5_S)],
        ["verify", "--n", "7", "--k", "2", "--s", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_out_of_memory_is_an_unknown(capsys, monkeypatch, argv):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, cli.COMMANDS[argv[0]].handler, exhausted)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "unknown: out of memory\n"
    assert captured.out == ""


def test_transversal_badpairs_at_k8_passes(capsys):
    code, out = run(capsys, "transversal", "--k", "8", "--check", "badpairs")
    rows = json.loads(out)
    assert code == 0
    assert [r["claim_id"] for r in rows] == [
        "transversal:bad_pair_per_set",
        "transversal:bad_pair_per_mask",
        "transversal:bad_pair_doubling",
    ]
    assert all(r["pass"] for r in rows)


def test_identities_builtin_families(capsys):
    code, out = run(capsys, "identities", "--family", "B", "--n", "9", "--k", "2", "--s", "3")
    assert code == 0
    rows = {r["claim_id"]: r for r in json.loads(out)}
    assert set(rows) == {"identity:family_weight", "identity:prefix_weight"}
    fw = rows["identity:family_weight"]
    assert (fw["lhs"], fw["cmp"], fw["rhs"], fw["pass"]) == ("21", "==", "21", True)
    assert rows["identity:prefix_weight"]["pass"] is True


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("n, k, s", [(9, 2, 3), (30, 4, 6), (36, 5, 6)])
@pytest.mark.parametrize("family", ["A", "B"])
def test_identities_candidates_equal_the_built_family(family, n, k, s, fmt, capsys):
    from emckit.constructions import build_A, build_B
    from emckit.weights import identity_reports

    fam = (build_A if family == "A" else build_B)(n, k, s)
    expected = render_reports(identity_reports(fam.members, n, k, s, family), fmt)
    argv = ["identities", "--family", family, "--n", str(n), "--k", str(k), "--s", str(s)]
    assert main(argv + ["--format", fmt]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (expected, "")


def built_family_refusal(family: str, n: int, k: int, s: int) -> str:
    """The message of the first refusal on the way through the built family:
    building it, then the weight frame."""
    from emckit.constructions import build_A, build_B
    from emckit.weights import WeightFrame

    try:
        (build_A if family == "A" else build_B)(n, k, s)
        WeightFrame(n, k, s)
    except ValueError as exc:
        return str(exc)
    raise AssertionError("not refused")


@pytest.mark.parametrize(
    "family, n, k, s, message",
    [
        ("A", 9, 0, 3, "need k >= 1 and s >= 1"),
        ("A", 5000, 0, 3, "need k >= 1 and s >= 1"),
        ("A", 6, 2, 3, "need n >= (s+1)k-1 = 7, got n=6"),
        ("A", 5000, 2, 3, "ground set size 5000 outside [0, 4096]"),
        ("A", 4097, 5, 3, "ground set size 4097 outside [0, 4096]"),
        ("A", 10, 2, 1, "need 1 <= k <= s"),
        ("B", 2, 3, 1, "need n >= k, got n=2, k=3"),
        ("B", 5000, 5001, 0, "need n >= k, got n=5000, k=5001"),
        ("B", 9, 2, 0, "need 1 <= s <= n, got s=0"),
        ("B", 5000, 2, 5001, "need 1 <= s <= n, got s=5001"),
        ("B", 5000, 2, 1, "ground set size 5000 outside [0, 4096]"),
        ("B", 5000, -1, 3, "ground set size 5000 outside [0, 4096]"),
        ("B", 9, -1, 3, "uniformity k=-1 outside [0, 9]"),
        ("B", 9, 2, 1, "need 1 <= k <= s"),
        ("B", 10, 0, 3, "need 1 <= k <= s"),
        ("B", 6, 2, 3, "need n >= (s+1)k - 1"),
    ],
)
def test_identities_candidates_refuse_as_the_built_family(family, n, k, s, message, capsys):
    assert built_family_refusal(family, n, k, s) == message
    argv = ["identities", "--family", family, "--n", str(n), "--k", str(k), "--s", str(s)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_shift_and_find_g0_roundtrip(tmp_path, capsys):
    fam_file = tmp_path / "fam.txt"
    fam_file.write_text("9 2\n2,4\n5,7\n")
    code, out = run(capsys, "shift", "--in", str(fam_file))
    assert code == 0
    assert out.splitlines()[0] == "9 2"
    assert out.count(",") == 2

    full = tmp_path / "b.txt"
    from emckit.constructions import build_B

    full.write_text(build_B(9, 2, 3).to_text())
    code, out = run(capsys, "find-g0", "--in", str(full), "--k", "2", "--s", "3")
    assert code == 0
    assert out.strip() == "4"


@pytest.mark.parametrize(
    "text",
    [
        "0 0\n",  # n = 0: no pair (i,j)
        "1 1\n1\n",  # n = 1: no pair (i,j)
        "5 2\n",  # an empty family
        "0 0\n-\n",  # only the empty set
    ],
)
def test_shift_edge_cases_write_the_family_back(tmp_path, capsys, text):
    fam_file = tmp_path / "fam.txt"
    fam_file.write_text(text)
    code, out = run(capsys, "shift", "--in", str(fam_file))
    assert code == 0
    assert out == text


def test_shift_of_shifted_family_makes_no_compression(tmp_path, capsys, monkeypatch):
    import emckit.shifting as shifting
    from emckit.constructions import build_B

    calls = []

    def counting_movers(*args):
        movers = real_movers(*args)
        calls.append(len(movers))
        return movers

    real_movers = shifting._movers
    monkeypatch.setattr(shifting, "_movers", counting_movers)
    text = build_B(24, 3, 6).to_text()
    src, dst = tmp_path / "b.txt", tmp_path / "shifted.txt"
    src.write_text(text)
    code, out = run(capsys, "shift", "--in", str(src), "--out", str(dst))
    assert code == 0 and out == ""
    assert len(text.splitlines()) == 1 + 1208
    assert dst.read_bytes() == src.read_bytes()
    assert len(calls) == 24 * 23 // 2 and not any(calls)


def test_missing_file_fails(capsys):
    code = main(["shift", "--in", "/nonexistent/f.txt"])
    assert code == 1


def _star_file(tmp_path):
    from emckit.constructions import build_B

    fam_file = tmp_path / "fam.txt"
    fam_file.write_text(build_B(20, 3, 5).to_text())
    return fam_file


def test_identities_refuses_mismatched_family_file(tmp_path, capsys):
    fam_file = _star_file(tmp_path)
    for n, k, s in (("30", "3", "5"), ("20", "4", "4")):
        code = main(["identities", "--family", str(fam_file), "--n", n, "--k", k, "--s", s])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: family file has n=20, k=3")
        assert captured.out == ""


def test_find_g0_refuses_out_of_domain(tmp_path, capsys):
    fam_file = _star_file(tmp_path)
    singletons = tmp_path / "k1.txt"
    singletons.write_text("7 1\n" + "".join(f"{e}\n" for e in range(1, 8)))
    for path, k, s in ((fam_file, "3", "0"), (fam_file, "4", "3"), (singletons, "1", "3")):
        code = main(["find-g0", "--in", str(path), "--k", k, "--s", s])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert captured.out == ""
    assert run(capsys, "find-g0", "--in", str(fam_file), "--k", "3", "--s", "5") == (0, "6,7\n")


def test_family_header_that_is_not_two_integers_exits_2_naming_its_line(tmp_path, capsys):
    for header in ("x 2", "5 y", "5", "5 2 3"):
        fam_file = tmp_path / "fam.txt"
        fam_file.write_text(f"# a family\n{header}\n1,2\n")
        code = main(["shift", "--in", str(fam_file)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: line 2: header must be 'n k'\n"
        assert captured.out == ""


def test_family_header_out_of_domain_exits_2(tmp_path, capsys):
    for header in ("5 6", "5 -1", "4097 *"):
        fam_file = tmp_path / "fam.txt"
        fam_file.write_text(header + "\n")
        code = main(["shift", "--in", str(fam_file)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert captured.out == ""


def cli_process(
    *argv: str, redirect: str = "", unbuffered: bool = False
) -> subprocess.CompletedProcess:
    """``python -W error -m emckit.cli ARGV`` in a fresh process, as a user runs
    it, with stdout and stderr piped; ``redirect`` is a shell redirection
    applied on top, such as ``>&-``.  stdout is block-buffered, so a small
    report fails only when ``entrypoint`` flushes it, unless ``unbuffered``."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1" if unbuffered else "")
    cmd = [sys.executable, "-W", "error", "-m", "emckit.cli", *argv]
    if redirect:
        cmd = ["sh", "-c", f'exec "$@" {redirect}', "sh", *cmd]
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)


@pytest.fixture
def family_1_8(tmp_path):
    fam_file = tmp_path / "f.txt"
    fam_file.write_text("9 2\n1,8\n")
    return str(fam_file)


@pytest.mark.parametrize(
    "argv,code",
    [
        (["transversal", "--k", "5", "--check", "all"], 0),
        (["--help"], 0),
        (["identities", "--family", "FAMILY", "--n", "9", "--k", "2", "--s", "3"], 1),
        (["verify", "--n", "9", "--k", "2", "--s", "3", "--node-budget", "1"], 1),
        (["verify", "--n", "x", "--k", "2", "--s", "3"], 2),
        (["audit", "--k", "4", "--s", "999999"], 2),
    ],
    ids=["pass", "help", "fail", "unknown", "usage", "parameter"],
)
def test_process_exit_matches_main(argv, code, family_1_8, capsys):
    argv = [family_1_8 if a == "FAMILY" else a for a in argv]
    assert main(argv) == code
    captured = capsys.readouterr()
    proc = cli_process(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)


def test_process_pipes_a_report_larger_than_the_pipe_buffer():
    from emckit.audit import audit_all, max_window_n, min_window_n

    k, s = 12, 174529
    reports = [r for n in (min_window_n(k, s), max_window_n(k, s)) for r in audit_all(k, s, n)]
    expected = render_reports(reports, "json")
    assert len(expected) > 65536
    proc = cli_process("audit", "--k", str(k), "--s", str(s), "--n", "auto")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == expected


needs_sh_and_dev_full = pytest.mark.skipif(
    not os.path.exists("/dev/full"), reason="needs a POSIX shell and /dev/full"
)


@needs_sh_and_dev_full
def test_closed_stdout_is_a_write_failure_and_closed_stderr_is_silent():
    proc = cli_process("transversal", "--k", "5", "--check", "all", redirect=">&-")
    assert (proc.returncode, proc.stderr) == (1, "error: stdout is closed\n")
    # with stderr closed too there is nowhere to say so: exit 1 alone
    proc = cli_process("transversal", "--k", "5", "--check", "all", redirect=">&- 2>&-")
    assert (proc.returncode, proc.stdout) == (1, "")
    # an error line never falls back to stdout
    proc = cli_process("find-g0", "--in", os.devnull, "--k", "2", "--s", "1", redirect="2>&-")
    assert (proc.returncode, proc.stdout) == (2, "")


@needs_sh_and_dev_full
@pytest.mark.parametrize(
    "argv,code",
    [
        (["--help"], 1),
        (["crossover", "--k", "2", "--s-max", "4"], 1),
        (["transversal", "--k", "5", "--check", "all"], 1),
        (["identities", "--family", "FAMILY", "--n", "9", "--k", "2", "--s", "3"], 1),
        (["verify", "--n", "x", "--k", "2", "--s", "3"], 2),
    ],
    ids=["help", "pass-small", "pass-large", "fail", "usage"],
)
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_full_stdout_is_a_write_failure(argv, code, unbuffered, family_1_8):
    argv = [family_1_8 if a == "FAMILY" else a for a in argv]
    proc = cli_process(*argv, redirect="> /dev/full", unbuffered=unbuffered)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    if code == 1:  # exit 0 becomes 1; a usage error writes nothing to stdout
        assert proc.stderr.endswith("error: [Errno 28] No space left on device\n")


@needs_sh_and_dev_full
def test_full_stderr_keeps_the_exit_code():
    for argv, code in (
        (["verify", "--n", "9", "--k", "2", "--s", "3", "--node-budget", "1"], 1),
        (["verify", "--n", "x", "--k", "2", "--s", "3"], 2),
    ):
        proc = cli_process(*argv, redirect="2> /dev/full")
        assert (proc.returncode, proc.stdout) == (code, "")


def test_main_reports_a_missing_or_failing_stdout(tmp_path, capsys, monkeypatch):
    class FullStdout:
        def write(self, text):
            raise OSError(28, "No space left on device")

    fam_file = str(_star_file(tmp_path))
    full = (FullStdout(), "[Errno 28] No space left on device")
    for stdout, message in ((None, "stdout is closed"), full):
        with monkeypatch.context() as m:
            m.setattr(sys, "stdout", stdout)
            assert main(["--help"]) == 1
            assert main(["find-g0", "--in", fam_file, "--k", "3", "--s", "5"]) == 1
            assert main(["crossover", "--k", "2", "--s-max", "4", "--out", "-"]) == 1
            # a report written to a file does not touch stdout
            out = str(tmp_path / "x.csv")
            assert main(["crossover", "--k", "2", "--s-max", "4", "--out", out]) == 0
        assert capsys.readouterr().err == f"error: {message}\n" * 3
