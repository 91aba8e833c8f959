"""The benchmark's workloads: seeded inputs, a fixed command list, and a
check of every command's output against independent truth (``truth.py``).

emckit only ever sees the generated files and the arguments; the seed stays
inside the benchmark.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable

import truth


@dataclass
class Output:
    """What one execution of a command left behind."""

    rc: int
    stdout: bytes
    stderr: bytes
    files: dict[str, bytes | None]


@dataclass
class Command:
    name: str
    argv: list[str]
    check: Callable[[Output], bool]
    program: str = "cli"  # "cli": python3 -m emckit.cli; "nu": bench/nu.py
    outputs: tuple[str, ...] = ()  # files written into the work directory
    # Outcome classes of a known defect at the commit that defined the
    # benchmark.  They still count as failed; any other non-ok outcome of
    # this command, or any non-ok outcome elsewhere, makes the run incorrect.
    tolerated: tuple[str, ...] = ()


def _rows(out: Output, name: str) -> list[dict]:
    return json.loads(out.files[name])


def _audit(k: int, s: int, out_file: str, same_as: Path | None = None) -> Callable[[Output], bool]:
    cd = {(c, d) for c in range(1, k + 1) for d in range(c, k + 1)}

    def check(out: Output) -> bool:
        rows = _rows(out, out_file)
        for n in truth.window(k, s):
            at_n = [r["params"] for r in rows if r["params"].get("n") == n]
            claim2 = {(p["c"], p["d"]) for p in at_n if "c" in p}
            claim4 = {p["g"] for p in at_n if "g" in p}
            if claim2 != cd or claim4 != set(range(k - 1)):
                return False
        if same_as is not None and out.files[out_file] != same_as.read_bytes():
            return False  # reports must not depend on --jobs
        return out.rc == 0 and all(
            r["params"]["k"] == k and r["params"].get("s", s) == s and truth.row_ok(r)
            for r in rows
        )

    return check


TRANSVERSAL_IDS = {
    "transversal:full_count",
    "transversal:full_weight",
    "transversal:cyclic_collections",
    "transversal:cyclic_no_shared",
    "transversal:bad_pair_per_set",
    "transversal:bad_pair_per_mask",
    "transversal:bad_pair_doubling",
    "transversal:q_family_disjoint",
    "claim8:product_inequality",
}


def _transversal(k: int, out_file: str) -> Callable[[Output], bool]:
    def check(out: Output) -> bool:
        rows = _rows(out, out_file)
        return (
            out.rc == 0
            and {r["claim_id"] for r in rows} == TRANSVERSAL_IDS
            and all(r["params"]["k"] == k and truth.row_ok(r) for r in rows)
        )

    return check


def _crossover(out: Output) -> bool:
    rows = list(csv.reader(io.StringIO(out.files["crossover.csv"].decode())))
    expected = [["k", "s", "crossover_n", "bound", "ok"]]
    for k in range(2, 7):
        for s in range(k + 1, 41):
            cx, bound = truth.crossover(k, s), ((s + 1) * (2 * k + 1) + 1) // 2
            expected.append([str(k), str(s), str(cx), str(bound), str(cx <= bound).lower()])
    return out.rc == 0 and rows == expected


def proof_chain(seed: int, work: Path) -> list[Command]:
    rng = random.Random(seed)
    s = {k: 101 * k**3 + 1 + rng.randrange(100_000) for k in (5, 6, 7)}
    cmds = []
    for k in (5, 6, 7):
        out = f"audit-k{k}.json"
        cmds.append(
            Command(
                f"audit-k{k}",
                ["audit", "--k", str(k), "--s", str(s[k]), "--n", "auto", "--out", out],
                _audit(k, s[k], out),
                outputs=(out,),
                # k=7 enumerates C(55,6) subsets past the cap and dies with an
                # EnumerationInfeasible traceback
                tolerated=("crashed", "refused") if k == 7 else (),
            )
        )
    out = "audit-k5-jobs2.json"
    cmds.append(
        Command(
            "audit-k5-jobs2",
            ["audit", "--k", "5", "--s", str(s[5]), "--n", "auto", "--jobs", "2", "--out", out],
            _audit(5, s[5], out, same_as=work / "audit-k5.json"),
            outputs=(out,),
        )
    )
    for k, extra in ((4, []), (5, ["--check", "all", "--seed", str(seed)])):
        out = f"transversal-k{k}.json"
        cmds.append(
            Command(
                f"transversal-k{k}",
                ["transversal", "--k", str(k), *extra, "--out", out],
                _transversal(k, out),
                outputs=(out,),
            )
        )
    cmds.append(
        Command(
            "crossover",
            ["crossover", "--k", "2..6", "--s-max", "40", "--out", "crossover.csv"],
            _crossover,
            outputs=("crossover.csv",),
        )
    )
    return cmds


# (n, k, s, method, node budget, tolerated outcome classes); all C(n,k) <= 60
VERIFY_INSTANCES = [
    (8, 2, 3, "bnb", None, ()),
    (10, 2, 2, "bnb", None, ()),
    (8, 3, 1, "bnb", None, ()),
    (11, 2, 3, "shifted_only", None, ()),
    (11, 2, 4, "shifted_only", None, ()),
    (8, 3, 2, "shifted_only", None, ()),
    (6, 2, 2, "exhaustive", None, ()),
    # runs out of nodes and reports unknown
    (9, 2, 3, "bnb", 30000, ("unknown",)),
    # n < (s+1)k - 1: reported as an EMC failure (6 vs 10) instead of refused
    (4, 2, 2, "bnb", None, ("wrong", "refused")),
]


def _verify(n: int, k: int, s: int, out_file: str) -> Callable[[Output], bool]:
    maximum = truth.emc_maximum(n, k, s)

    def check(out: Output) -> bool:
        [row] = _rows(out, out_file)
        return (
            out.rc == 0
            and row["claim_id"] == "conjecture:extremal_bound"
            and Fraction(row["lhs"]) == maximum
            and Fraction(row["rhs"]) == maximum
            and truth.row_ok(row)
        )

    return check


def desk_verify(seed: int, work: Path) -> list[Command]:
    cmds = []
    for n, k, s, method, budget, tolerated in VERIFY_INSTANCES:
        name = f"verify-{n}-{k}-{s}-{method}" + (f"-budget{budget}" if budget else "")
        argv = ["verify", "--n", str(n), "--k", str(k), "--s", str(s), "--method", method]
        if budget:
            argv += ["--node-budget", str(budget)]
        out = f"{name}.json"
        cmds.append(
            Command(name, argv + ["--out", out], _verify(n, k, s, out), outputs=(out,), tolerated=tolerated)
        )
    random.Random(seed).shuffle(cmds)
    return cmds


def _shift(out_file: str, n: int, k: int, size: int, expected: set[int]) -> Callable[[Output], bool]:
    def check(out: Output) -> bool:
        out_n, out_k, masks = truth.parse_family(out.files[out_file].decode())
        return out.rc == 0 and (out_n, out_k, len(masks)) == (n, k, size) and set(masks) == expected

    return check


def _nu(family: list[int], nu: int) -> Callable[[Output], bool]:
    members = set(family)

    def check(out: Output) -> bool:
        result = json.loads(out.stdout)
        cert = [truth.mask(c) for c in result["certificate"]]
        union = 0
        for m in cert:
            union |= m
        disjoint = sum(m.bit_count() for m in cert) == union.bit_count()
        return (
            out.rc == 0
            and result["nu"] == nu == len(cert)
            and disjoint
            and all(m in members for m in cert)
        )

    return check


def _identities(out_file: str, family_size: int, prefix_family_size: int) -> Callable[[Output], bool]:
    def check(out: Output) -> bool:
        rows = {r["claim_id"]: r for r in _rows(out, out_file)}
        return (
            out.rc == 0
            and set(rows) == {"identity:family_weight", "identity:prefix_weight"}
            and Fraction(rows["identity:family_weight"]["rhs"]) == family_size
            and Fraction(rows["identity:prefix_weight"]["rhs"]) == prefix_family_size
            and all(truth.row_ok(r) for r in rows.values())
        )

    return check


def _find_g0(expected: int | None) -> Callable[[Output], bool]:
    line = "none" if expected is None else ",".join(map(str, truth.elements(expected)))
    rc = 1 if expected is None else 0

    def check(out: Output) -> bool:
        return out.rc == rc and out.stdout.decode().strip() == line

    return check


# (n, k, |F|) of the random families handed to `emckit shift`
RANDOM_FAMILIES = [(14, 3, 200), (16, 4, 300), (18, 3, 300)]


def family_ops(seed: int, work: Path) -> list[Command]:
    rng = random.Random(seed)
    cmds = []

    def write(name: str, n: int, k: int, masks) -> str:
        (work / name).write_text(truth.family_text(n, k, masks), encoding="utf-8")
        return name

    shifted = {}
    for n, k, size in RANDOM_FAMILIES:
        fam = rng.sample(truth.ksets(n, k), size)
        shifted[n] = truth.shift_fixpoint(fam, n)
        if not (truth.is_shifted(shifted[n]) and truth.is_compression_stable(shifted[n], n)):
            raise RuntimeError(f"reference shift of the n={n} family is not a fixpoint")
        src, out = write(f"random-{n}-{k}-{size}.txt", n, k, fam), f"shift-{n}.txt"
        cmds.append(
            Command(f"shift-{n}", ["shift", "--in", src, "--out", out],
                    _shift(out, n, k, size, shifted[n]), outputs=(out,))
        )

    # the candidates at n=24, k=3, s=6; B is already shifted
    star = [m for m in truth.ksets(24, 3) if m & 0b111111]
    prefix = truth.ksets(truth.prefix_size(3, 6), 3)
    b_file, a_file = write("B-24-3-6.txt", 24, 3, star), write("A-24-3-6.txt", 24, 3, prefix)
    cmds.append(
        Command("shift-B24", ["shift", "--in", b_file, "--out", "shift-B24.txt"],
                _shift("shift-B24.txt", 24, 3, len(star), set(star)), outputs=("shift-B24.txt",))
    )

    s18 = sorted(shifted[18])
    s18_file = write("shifted-18-3-300.txt", 18, 3, s18)
    for name, path, fam, nu in (
        ("nu-shifted18", s18_file, s18, truth.matching_number(s18, 18)),
        ("nu-B24", b_file, star, 6),
        ("nu-A24", a_file, prefix, 6),
    ):
        cmds.append(Command(name, [path], _nu(fam, nu), program="nu"))

    # a family determined by a random trace on the prefix [17] of (n,k,s) = (20,3,5)
    trace = rng.sample(truth.ksets(17, 2), 4) + rng.sample(truth.ksets(17, 3), 4)
    generated = truth.generated_family(trace, 20, 3)
    trace_file = write("trace-20-3-5.txt", 20, 3, generated)
    for fam, n, k, s, size in (
        ("A", 30, 4, 6, comb(27, 4)),
        ("B", 30, 4, 6, comb(30, 4) - comb(24, 4)),
        (trace_file, 20, 3, 5, len(generated)),
    ):
        label = fam if fam in ("A", "B") else "trace"
        out = f"identities-{label}.json"
        argv = ["identities", "--family", fam, "--n", str(n), "--k", str(k), "--s", str(s), "--out", out]
        cmds.append(
            Command(f"identities-{label}", argv,
                    _identities(out, size, comb(truth.prefix_size(k, s), k)), outputs=(out,))
        )

    cmds.append(
        Command("find-g0", ["find-g0", "--in", s18_file, "--k", "3", "--s", "5"],
                _find_g0(truth.find_g0(s18, 3, 5)))
    )
    return cmds


WORKLOADS = {"proof-chain": proof_chain, "desk-verify": desk_verify, "family-ops": family_ops}
