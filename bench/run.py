"""emckit benchmark: CLI workloads end to end, per-layer spans when traced.

    python3 bench/run.py --workload proof-chain --seed 1 --seconds 36 --trace 0

Each workload is a fixed list of commands.  A pass runs them one after
another, each in a fresh interpreter, as a user would, so every command pays
its imports and starts with cold caches.  Passes repeat while the next one
fits in --seconds (at least MIN_PASSES, unless DEADLINE_S would pass).
Every output is checked against independent truth (truth.py) and must be
byte-identical across passes.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
passes with passes in which every command runs under tracer.py, and prints
the per-layer metrics.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS, Command, Output  # noqa: E402

MIN_PASSES = 3
# Calibration burst time (launch.py) that the reported times are scaled to:
# its time on an idle core of a 2.2 GHz Xeon vCPU.  A time T measured while
# bursts took C seconds on average is reported as T * CAL_REF_S / C.
CAL_REF_S = 0.0075
# No pass starts that would end after this many seconds of measuring, so a
# run ends well inside the 180 s a run may take even if the program slows.
DEADLINE_S = 120
COMMAND_TIMEOUT_S = 60
# setup_s pairs each import of emckit.cli with an import of a fixed set of
# standard-library modules, all of which emckit.cli imports too, in a fresh
# interpreter right after it on the same CPU.  The reference import is the
# same kind of work (unmarshalling and running module bodies), so its time
# follows the machine's speed closely, while a change in what emckit imports
# or does at import time moves only the first.  A pair whose probes took E
# and R seconds counts as E * SETUP_REF_S / R; SETUP_REF_S is the reference
# import's time on an idle core of a 2.2 GHz Xeon vCPU.
SETUP_REF_S = 0.030
REFERENCE_MODULES = (
    "argparse, csv, dataclasses, fractions, functools, io, itertools, json, "
    "logging, math, random, typing"
)
IMPORT_PROBE = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"

# Per-layer metrics, by the tracer figure each one reads
SELF_TIME_LAYERS = (
    "core", "shifting", "matching", "constructions", "weights",
    "transversals", "audit", "search", "cli",
)
CALL_COUNTS = {
    "shifting.compress_ij.calls": "shifting.compress_ij",
    "matching.matching_number.calls": "matching.matching_number",
    "constructions.trace_of.calls": "constructions.trace_of",
    "weights.candidate_count.calls": "weights.candidate_count",
    "search.max_family_size.calls": "search.max_family_size",
    "audit.reports": "audit.make_report",
}
INCLUSIVE_TIMES = {
    "transversals.bad_pair_stats.s": "transversals.bad_pair_stats",
    "audit.audit_claim2.s": "audit.audit_claim2",
    "audit.audit_claim3.s": "audit.audit_claim3",
    "audit.audit_claim4.s": "audit.audit_claim4",
    "audit.audit_numeric_lemmas.s": "audit.audit_numeric_lemmas",
    "search.find_G0.s": "search.find_G0",
}
COUNTS = (
    "core.family_builds",
    "core.family_members",
    "weights.enumeration_infeasible",
    "search.budget_exceeded",
)


@dataclass
class Sample:
    """One execution of one command."""

    name: str
    outcome: str  # ok / wrong / unknown / refused / crashed
    wall_s: float
    cpu_s: float
    max_rss_mb: float
    cal_s: list[float]
    out: Output
    spans: dict = field(default_factory=dict)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def classify(cmd: Command, out: Output, timed_out: bool) -> str:
    if timed_out or out.rc < 0 or b"Traceback (most recent call last)" in out.stderr:
        return "crashed"
    if out.rc == 2:
        return "refused"
    if any(line.startswith(b"unknown:") for line in out.stderr.splitlines()):
        return "unknown"
    try:
        return "ok" if cmd.check(out) else "wrong"
    except (ValueError, KeyError, IndexError, TypeError, AttributeError):
        return "wrong"  # malformed or missing output


class Launcher:
    """The small helper process (launch.py) that forks every timed command."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launch.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )

    def run(self, **request) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher exited")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def run_command(cmd: Command, work: Path, launcher: Launcher, spans_dir: Path | None) -> Sample:
    for name in cmd.outputs:
        (work / name).unlink(missing_ok=True)
    if cmd.program == "cli":
        target = ["cli", *cmd.argv] if spans_dir else ["-m", "emckit.cli", *cmd.argv]
    else:
        target = ["nu", *cmd.argv] if spans_dir else [str(BENCH / "nu.py"), *cmd.argv]
    if spans_dir:
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir(parents=True)
        target = [str(BENCH / "tracer.py"), str(spans_dir / "spans.json"), *target]
    stdout_path, stderr_path = work / "stdout.txt", work / "stderr.txt"
    res = launcher.run(
        argv=[sys.executable, *target], cwd=str(work), stdout=str(stdout_path),
        stderr=str(stderr_path), timeout=COMMAND_TIMEOUT_S, all_cpus="--jobs" in cmd.argv,
    )
    out = Output(
        rc=res["rc"],
        stdout=stdout_path.read_bytes(),
        stderr=stderr_path.read_bytes(),
        files={n: (work / n).read_bytes() if (work / n).exists() else None for n in cmd.outputs},
    )
    sample = Sample(
        cmd.name, classify(cmd, out, res["timed_out"]), res["wall_s"], res["cpu_s"], res["max_rss_mb"],
        res["cal_s"], out,
    )
    if spans_dir:
        sample.spans = merge_spans(spans_dir)
    return sample


def merge_spans(spans_dir: Path) -> dict:
    """Sum the tracer's figures over the command and its forked workers."""
    total = {"self_s": {}, "calls": {}, "inclusive_s": {}, "counts": {}}
    for path in sorted(spans_dir.glob("spans.json*")):
        data = json.loads(path.read_text(encoding="utf-8"))
        for key, figures in total.items():
            for name, value in data[key].items():
                figures[name] = figures.get(name, 0) + value
    return total


def run_pass(
    cmds: list[Command], work: Path, launcher: Launcher, first: dict, traced: bool, setup: list | None
) -> list[Sample]:
    """Run the command list once; with a setup list, probe the import time
    after every other command, so that the probes spread over the whole run."""
    samples = []
    for i, cmd in enumerate(cmds):
        s = run_command(cmd, work, launcher, work / "spans" if traced else None)
        produced = (s.out.stdout, s.out.files)
        if s.outcome == "ok" and first.setdefault(cmd.name, produced) != produced:
            s.outcome = "wrong"  # outputs must be byte-identical across passes
        samples.append(s)
        if setup is not None and i % 2 == 0:
            setup.append((probe_import(work, launcher, "emckit.cli"),
                          probe_import(work, launcher, REFERENCE_MODULES)))
    return samples


def probe_import(work: Path, launcher: Launcher, modules: str) -> float:
    """Seconds a fresh interpreter takes to import the given modules."""
    out, err = work / "setup.out", work / "setup.err"
    res = launcher.run(
        argv=[sys.executable, "-c", IMPORT_PROBE.format(modules)], cwd=str(work),
        stdout=str(out), stderr=str(err), timeout=COMMAND_TIMEOUT_S, calibrate=False,
    )
    if res["rc"] != 0:
        raise RuntimeError(f"import probe failed: {err.read_text(encoding='utf-8')}")
    return float(out.read_text(encoding="utf-8"))


def tail_percentile(values: list[float]) -> tuple[str, float] | None:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 11:
        return None
    q = (n - 10) / n
    return f"p{100 * q:.0f}", sorted(values)[n - 11]


def pass_totals(samples: list[Sample]) -> dict:
    """A pass's figures; norm_* scale each command by its own bursts."""
    scales = [CAL_REF_S / statistics.fmean(s.cal_s) for s in samples]
    return {
        "wall_s": sum(s.wall_s for s in samples),
        "cpu_s": sum(s.cpu_s for s in samples),
        "norm_wall_s": sum(s.wall_s * k for s, k in zip(samples, scales)),
        "norm_cpu_s": sum(s.cpu_s * k for s, k in zip(samples, scales)),
        "peak_rss_mb": max(s.max_rss_mb for s in samples),
    }


def layer_metrics(samples: list[Sample]) -> dict:
    """Per-layer figures of one traced pass, summed over its commands."""
    calls, incl, self_s, counts = {}, {}, {}, {}
    for s in samples:
        for src, dst in ((s.spans["calls"], calls), (s.spans["inclusive_s"], incl),
                         (s.spans["self_s"], self_s), (s.spans["counts"], counts)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
    m = {}
    for layer in SELF_TIME_LAYERS:
        m[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    for metric, fn in CALL_COUNTS.items():
        m[metric] = (calls.get(fn, 0), "count")
    for metric, fn in INCLUSIVE_TIMES.items():
        m[metric] = (incl.get(fn, 0.0), "s")
    for metric in COUNTS:
        m[metric] = (counts.get(metric, 0), "count")
    m["cli.report_bytes"] = (
        sum(len(s.out.stdout) + sum(len(b or b"") for b in s.out.files.values()) for s in samples),
        "bytes",
    )
    return m


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "emckit" / "cli.py").is_file():
        print(f"error: no emckit sources under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)

    work = BENCH / "work" / f"{args.workload}-{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmds = WORKLOADS[args.workload](args.seed, work)

    first: dict = {}
    untraced: list[list[Sample]] = []
    traced: list[list[Sample]] = []
    launcher = Launcher(child_env())
    setup: list[tuple[float, float]] = []
    try:
        started = time.perf_counter()
        while True:
            untraced.append(run_pass(cmds, work, launcher, first, False, None if args.trace else setup))
            if args.trace:
                traced.append(run_pass(cmds, work, launcher, first, True, None))
            elapsed = time.perf_counter() - started
            next_end = elapsed + elapsed / len(untraced)
            enough = len(untraced) >= (1 if args.trace else MIN_PASSES)
            if next_end > args.seconds and (enough or next_end > DEADLINE_S):
                break
    finally:
        launcher.close()

    samples = [s for p in untraced + traced for s in p]
    by_name = {c.name: c for c in cmds}
    failed = [s for s in samples if s.outcome != "ok"]
    correct = all(s.outcome in by_name[s.name].tolerated for s in failed)
    totals = [pass_totals(p) for p in untraced]
    med = {key: statistics.median(t[key] for t in totals) for key in totals[0]}

    print(f"workload {args.workload}  seed {args.seed}  passes {len(untraced)} untraced"
          + (f", {len(traced)} traced" if args.trace else ""))
    print(f"{'command':36} {'outcome':8} {'wall_s':>8} {'cpu_s':>8} {'rss_mb':>7}")
    for cmd in cmds:
        mine = [s for p in untraced for s in p if s.name == cmd.name]
        outcomes = sorted({s.outcome for p in untraced + traced for s in p if s.name == cmd.name})
        print(f"{cmd.name:36} {'/'.join(outcomes):8} "
              f"{statistics.median(s.wall_s for s in mine):8.3f} "
              f"{statistics.median(s.cpu_s for s in mine):8.3f} "
              f"{max(s.max_rss_mb for s in mine):7.1f}")
    classes = {c: sum(s.outcome == c for s in samples) for c in ("ok", "wrong", "unknown", "refused", "crashed")}
    print(f"failed_ratio {len(failed)}/{len(samples)} = {len(failed) / len(samples):.4f}  {classes}")
    walls = [t["wall_s"] for t in totals]
    tail = tail_percentile(walls)
    print(f"wall_s per pass: median {med['wall_s']:.3f} s over {len(walls)} passes; "
          + (f"{tail[0]} {tail[1]:.3f} s" if tail else "no percentile has 10 samples beyond it"))
    print(f"cpu_s per pass: median {med['cpu_s']:.3f} s; machine speed: calibration bursts "
          f"{statistics.median(c for p in untraced for s in p for c in s.cal_s) / CAL_REF_S:.3f}"
          " x the reference (median)")
    if setup:
        print(f"import probes: emckit.cli median {statistics.median(e for e, _ in setup):.4f} s, "
              f"reference modules median {statistics.median(r for _, r in setup):.4f} s, "
              f"{len(setup)} pairs")

    if args.trace:
        layers = [layer_metrics(p) for p in traced]
        for other in layers[1:]:
            for name, (value, unit) in other.items():
                if unit != "s" and value != layers[0][name][0]:
                    print(f"warning: {name} differs between traced passes", file=sys.stderr)
        metrics = {
            name: {"value": statistics.median(lm[name][0] for lm in layers), "unit": unit}
            for name, (_, unit) in layers[0].items()
        }
        traced_wall = statistics.median(pass_totals(p)["norm_wall_s"] for p in traced)
        metrics["trace.overhead_ratio"] = {"value": traced_wall / med["norm_wall_s"], "unit": "ratio"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(e * SETUP_REF_S / r for e, r in setup), "unit": "s"},
            "norm_wall_s": {"value": med["norm_wall_s"], "unit": "s"},
            "norm_cpu_s": {"value": med["norm_cpu_s"], "unit": "s"},
            "peak_rss_mb": {"value": med["peak_rss_mb"], "unit": "MB"},
            "ok_ratio": {"value": (len(samples) - len(failed)) / len(samples), "unit": "ratio"},
        }
    for name, m in metrics.items():
        print(f"  {name:34} {m['value']:.6g} {m['unit']}")

    (work / "result.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "setup_s": setup, "metrics": metrics,
        "samples": [{"pass": i, "traced": i >= len(untraced), "name": s.name,
                     "outcome": s.outcome, "wall_s": s.wall_s, "cpu_s": s.cpu_s,
                     "max_rss_mb": s.max_rss_mb, "cal_s": s.cal_s}
                    for i, p in enumerate(untraced + traced) for s in p],
    }, indent=1), encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": len(samples), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
