"""Command-line front door: the option table, parameter parsing, family
loading, dispatch to the layer that builds each command's report rows, and
report serialization.

``COMMANDS`` is the one place a command's options live: the name of its
handler, its help line, and each option's type or choices, default and
whether it is required.  ``--help``, parsing and dispatch all read it.  An
option is given as ``--opt value`` or ``--opt=value``, by its full name
only; a repeated option keeps its last value.

Exit codes: 0 all requested checks pass, 1 any check failed (reports still
written), a budget or memory ran out, or a file could not be read or
written (``OSError``, or a closed stdout), 2 usage or parameter error.

Each command imports what it runs inside its handler, so it loads only those
modules: ``shift`` never loads the audits, the weights or the rationals of
``exact``, and no command loads ``fractions`` or ``decimal``.

``entrypoint`` flushes stdout and stderr and leaves by ``os._exit``, so a
command does not pay the interpreter's teardown of its modules (about 10 ms
a command).  Nothing needs that teardown: every file the package writes is
closed by a ``with`` block, and it starts no thread, child process or
``atexit`` handler.  ``main`` returns normally, for tests and library callers.
"""

from __future__ import annotations

import os
import sys
from itertools import chain
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence, Union

from .core import BudgetExceeded, Family, _check_header, exact_parts

if TYPE_CHECKING:
    from .report import AuditReport


def fmt_exact(v) -> str:
    """Exact rendering: integers bare, non-integers as p/q (never decimals).
    Anything but an int or an exact rational, a float among them, raises
    ``TypeError``."""
    parts = exact_parts(v)
    if parts is None:
        raise TypeError(f"cannot write {type(v).__name__} as an exact number")
    numerator, denominator = parts
    return str(numerator) if denominator == 1 else f"{numerator}/{denominator}"


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


def report_pieces(reports: Iterable[AuditReport], fmt: str) -> Iterator[str]:
    """The text of the reports in ``fmt``, one row at a time: the pieces
    joined are :func:`render_reports`.  Only one row's dict and text are
    held, so writing a large report takes little beyond the rows."""
    if fmt == "json":
        from .report import to_json_items

        rows = to_json_items((report_to_dict(r) for r in reports), indent=2)
        return chain(rows, ("\n",))
    if fmt == "csv":
        return _csv_rows(reports)
    raise ValueError(f"unknown format {fmt!r}")


def _csv_rows(reports: Iterable[AuditReport]) -> Iterator[str]:
    import csv
    import io

    from .report import to_json

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["claim_id", "params", "lhs", "rhs", "cmp", "pass", "witness", "note"])
    yield buf.getvalue()
    for r in reports:
        buf.seek(0)
        buf.truncate()
        params = ";".join(f"{key}={r.params[key]}" for key in sorted(r.params))
        writer.writerow(
            [
                r.claim_id,
                params,
                fmt_exact(r.lhs),
                fmt_exact(r.rhs),
                r.cmp,
                str(r.passed).lower(),
                "" if r.witness is None else to_json(r.witness),
                r.note,
            ]
        )
        yield buf.getvalue()


def render_reports(reports: Iterable[AuditReport], fmt: str) -> str:
    return "".join(report_pieces(reports, fmt))


def _emit(text: str, out: Optional[str]) -> None:
    _emit_pieces((text,), out)


def _emit_pieces(pieces: Iterable[str], out: Optional[str]) -> None:
    """Write the pieces of a text in turn to stdout (no --out, or "-") or to
    the named file.

    A stdout that was closed when the process started (``sys.stdout`` is
    None) is a write failure, like a full disk."""
    if out is None or out == "-":
        if sys.stdout is None:
            raise OSError("stdout is closed")
        write = sys.stdout.write
        for piece in pieces:
            write(piece)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)


def write_reports(reports: Iterable[AuditReport], out: Optional[str], fmt: str) -> int:
    """Write the reports as they come and return the exit code: 0 if every
    one passed, 1 otherwise."""
    failed = False

    def noted() -> Iterator[AuditReport]:
        nonlocal failed
        for r in reports:
            failed = failed or not r.passed
            yield r

    _emit_pieces(report_pieces(noted(), fmt), out)
    return 1 if failed else 0


def _parse_range(spec: str) -> range:
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        lo_i, hi_i = int(lo), int(hi)
        if hi_i < lo_i:
            raise ValueError("empty range")
        return range(lo_i, hi_i + 1)
    value = int(spec)
    return range(value, value + 1)


def _cmd_audit(args) -> int:
    from .audit import audit_all, max_window_n, min_window_n, require_window

    if args.n == "auto":
        require_window(args.k, args.s)  # the window ends divide by k
        n_values = (min_window_n(args.k, args.s), max_window_n(args.k, args.s))
    else:
        n_values = _parse_range(args.n)
        # the window is an interval: if both ends lie in it, every n between does
        require_window(args.k, args.s, n_values[0])
        require_window(args.k, args.s, n_values[-1])
    reports = chain.from_iterable(audit_all(args.k, args.s, n) for n in n_values)
    return write_reports(reports, args.out, args.format)


def _cmd_verify(args) -> int:
    from .search import verify_conjecture

    report = verify_conjecture(
        args.n, args.k, args.s, method=args.method, node_budget=args.node_budget
    )
    return write_reports((report,), args.out, args.format)


def _cmd_crossover(args) -> int:
    from .constructions import crossover_n

    ks = _parse_range(args.k)
    if ks[-1] >= args.s_max:  # s runs over k+1..s_max, so such a k would have no row
        bare = max(ks[0], args.s_max)
        raise ValueError(f"k = {bare} has no s in {bare + 1}..{args.s_max}: needs --s-max > {bare}")
    rows = ["k,s,crossover_n,bound,ok"]
    for k in ks:
        for s in range(k + 1, args.s_max + 1):
            cx = crossover_n(k, s)
            bound = ((s + 1) * (2 * k + 1) + 1) // 2  # ceil((s+1)(2k+1)/2)
            rows.append(f"{k},{s},{cx},{bound},{str(cx <= bound).lower()}")
    _emit("\n".join(rows) + "\n", args.out)
    ok = all(row.endswith("true") for row in rows[1:])
    return 0 if ok else 1


def _cmd_transversal(args) -> int:
    from .transversals import transversal_reports

    return write_reports(transversal_reports(args.k, args.check), args.out, args.format)


def _cmd_identities(args) -> int:
    from .weights import identity_reports

    if args.family in ("A", "B"):
        # the candidate's masks are counted as they are made: the family is never built
        from .constructions import prefix_ksets, star_ksets

        members = (prefix_ksets if args.family == "A" else star_ksets)(args.n, args.k, args.s)
        _check_header(args.n, args.k)  # what building the family would refuse next
    else:
        with open(args.family, encoding="utf-8") as fh:
            fam = Family.from_text(fh.read())
        if (fam.n, fam.k) != (args.n, args.k):
            raise ValueError(
                f"family file has n={fam.n}, k={fam.k}; expected n={args.n}, k={args.k}"
            )
        members = fam.members
    reports = identity_reports(members, args.n, args.k, args.s, args.family)
    return write_reports(reports, args.out, args.format)


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
        _emit("none\n", None)
        return 1
    _emit(",".join(map(str, g0.elements)) + "\n", None)
    return 0


class Option:
    """One option of a command: its flag, ``int``, ``str`` or a tuple of the
    values it accepts, its default, whether it must be given, and the
    attribute it sets (the flag without "--", "-" read as "_", unless
    ``dest`` names another)."""

    __slots__ = ("flag", "kind", "default", "required", "help", "name")

    def __init__(
        self,
        flag: str,
        kind: Union[type, tuple[str, ...]] = str,
        default: object = None,
        *,
        required: bool = False,
        help: str = "",
        dest: str = "",
    ):
        self.flag, self.kind, self.default = flag, kind, default
        self.required, self.help = required, help
        self.name = dest or flag[2:].replace("-", "_")

    @property
    def metavar(self) -> str:
        if isinstance(self.kind, tuple):
            return "{" + ",".join(self.kind) + "}"
        return self.name.upper()


class Command:
    """A command: the name of its handler, a function of this module looked
    up at each call, its help line and its options."""

    __slots__ = ("handler", "help", "options")

    def __init__(self, handler: str, help: str, options: tuple[Option, ...]):
        self.handler, self.help, self.options = handler, help, options


HELP_FLAGS = ("-h", "--help")
_OUT = Option("--out", help="file to write, or - for stdout (the default)")
_FORMAT = Option("--format", ("json", "csv"), "json")

COMMANDS = {
    "audit": Command("_cmd_audit", "run the exact-rational claim audits", (
        Option("--k", int, required=True),
        Option("--s", int, required=True),
        Option("--n", default="auto", help="int, range a..b, or 'auto' (both window endpoints)"),
        _OUT,
        _FORMAT,
        Option("--jobs", int, 1, help="no effect: the points run in one process"),
    )),
    "verify": Command("_cmd_verify", "desk-scale extremal verification", (
        Option("--n", int, required=True),
        Option("--k", int, required=True),
        Option("--s", int, required=True),
        Option(
            "--method", ("exhaustive", "bnb", "shifted_only"), "bnb",
            help="shifted_only searches downsets; exhaustive is bnb, kept for old command lines",
        ),
        Option(
            "--node-budget", int,
            help="most search nodes (at least 1); without one, C(n,k) <= 60",
        ),
        _OUT,
        _FORMAT,
    )),
    "crossover": Command("_cmd_crossover", "crossover points as CSV", (
        Option("--k", required=True, help="int or range a..b"),
        Option("--s-max", int, required=True),
        _OUT,
    )),
    "transversal": Command("_cmd_transversal", "transversal counting checks", (
        Option("--k", int, required=True),
        Option("--check", ("counts", "cyclic", "badpairs", "q", "product", "all"), "all"),
        Option("--seed", int, 0, help="ignored; kept for old command lines"),
        _OUT,
        _FORMAT,
    )),
    "identities": Command("_cmd_identities", "weight identity checks", (
        Option("--family", required=True, help="A, B, or a family file path"),
        Option("--n", int, required=True),
        Option("--k", int, required=True),
        Option("--s", int, required=True),
        _OUT,
        _FORMAT,
    )),
    "shift": Command("_cmd_shift", "compress a family to its shifted fixpoint", (
        Option("--in", required=True, dest="infile"),
        _OUT,
    )),
    "find-g0": Command("_cmd_find_g0", "search for the distinguished pivot set", (
        Option("--in", required=True, dest="infile"),
        Option("--k", int, required=True),
        Option("--s", int, required=True),
    )),
}


class UsageError(Exception):
    """A command line that the option table refuses (exit 2)."""

    def __init__(self, message: str, command: Optional[str] = None):
        super().__init__(message)
        self.command = command


def _is_value(token: str) -> bool:
    """Whether the token after an option is its value rather than another
    option: "-", a negative number and a token with a space are values."""
    if not token.startswith("-") or token == "-" or " " in token:
        return True
    whole, dot, frac = token[1:].partition(".")
    if dot:
        return (not whole or whole.isdecimal()) and frac.isdecimal()
    return whole.isdecimal()


def _convert(opt: Option, value: str, command: str):
    if opt.kind is int:
        try:
            return int(value)
        except ValueError:
            raise UsageError(f"argument {opt.flag}: invalid int value: {value!r}", command) from None
    if isinstance(opt.kind, tuple) and value not in opt.kind:
        choices = ", ".join(map(repr, opt.kind))
        raise UsageError(
            f"argument {opt.flag}: invalid choice: {value!r} (choose from {choices})", command
        )
    return value


def parse_args(argv: Sequence[str]) -> tuple[Optional[str], Optional[SimpleNamespace]]:
    """The command named by argv and its options' values, read from ``COMMANDS``.

    Returns ``(command, None)`` when help is asked for, with command None at
    the top level.  Raises ``UsageError`` for a command line the table refuses.
    """
    if not argv:
        raise UsageError("the following arguments are required: command")
    command, *rest = argv
    if command in HELP_FLAGS:
        return None, None
    if command not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        raise UsageError(f"argument command: invalid choice: {command!r} (choose from {choices})")
    options = {opt.flag: opt for opt in COMMANDS[command].options}
    values = {}
    tokens = iter(rest)
    for token in tokens:
        if token in HELP_FLAGS:
            return command, None
        flag, eq, value = token.partition("=")
        opt = options.get(flag) if token.startswith("--") else None
        if opt is None:
            raise UsageError(f"unrecognized arguments: {token}", command)
        if not eq:
            value = next(tokens, None)
            if value is None or not _is_value(value):
                raise UsageError(f"argument {flag}: expected one argument", command)
        values[flag] = _convert(opt, value, command)
    missing = [flag for flag, opt in options.items() if opt.required and flag not in values]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}", command)
    return command, SimpleNamespace(
        **{opt.name: values.get(flag, opt.default) for flag, opt in options.items()}
    )


def usage(command: Optional[str] = None) -> str:
    if command is None:
        return f"usage: emckit {{{','.join(COMMANDS)}}} [options]"
    parts = [f"usage: emckit {command}"]
    for opt in COMMANDS[command].options:
        part = f"{opt.flag} {opt.metavar}"
        parts.append(part if opt.required else f"[{part}]")
    return " ".join(parts)


def help_text(command: Optional[str] = None) -> str:
    if command is None:
        lines = [usage(), "", "Exact verification workbench for almost-perfect-matching bounds"]
        lines += ["", "commands:"] + [f"  {name:<12} {cmd.help}" for name, cmd in COMMANDS.items()]
        lines += ["", "Options are --opt value or --opt=value, full names only;",
                  "emckit COMMAND --help lists a command's options."]
    else:
        cmd = COMMANDS[command]
        lines = [usage(command), "", cmd.help, "", "options:"]
        for opt in cmd.options:
            notes = [opt.help] if opt.help else []
            if opt.required:
                notes.append("required")
            elif opt.default is not None:
                notes.append(f"default {opt.default}")
            lines.append(f"  {opt.flag} {opt.metavar}  " + "; ".join(notes))
    return "\n".join(line.rstrip() for line in lines) + "\n"


def _report_error(line: str) -> None:
    """Write one line to stderr; a closed or failing stderr drops it."""
    if sys.stderr is not None:
        try:
            sys.stderr.write(line + "\n")
        except OSError:
            pass


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        command, args = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        prog = f"emckit {exc.command}" if exc.command else "emckit"
        _report_error(f"{usage(exc.command)}\n{prog}: error: {exc}")
        return 2
    try:
        if args is None:
            _emit(help_text(command), None)
            return 0
        return globals()[COMMANDS[command].handler](args)
    except ValueError as exc:  # ParameterWindowError too
        _report_error(f"error: {exc}")
        return 2
    except BudgetExceeded as exc:
        _report_error(f"unknown: {exc}")
        return 1
    except OSError as exc:
        _report_error(f"error: {exc}")
        return 1
    except MemoryError:
        pass  # reported below, once the frames that held the memory are gone
    _report_error("unknown: out of memory")
    return 1


def entrypoint() -> None:
    """Run ``main``, flush stdout then stderr, and exit without teardown.

    A failed stdout flush is a write failure: it is reported as ``error:``
    and turns exit 0 into 1.  A failed stderr flush is ignored.  An uncaught
    exception leaves ``main`` through the usual traceback.
    """
    code = main()
    if sys.stdout is not None:
        try:
            sys.stdout.flush()
        except OSError as exc:
            _report_error(f"error: {exc}")
            code = code or 1
    if sys.stderr is not None:
        try:
            sys.stderr.flush()
        except OSError:
            pass
    os._exit(code)


if __name__ == "__main__":
    entrypoint()
