"""The benchmark's layer tracer still finds what it wraps in emckit.

``bench/tracer.py`` patches module globals and ``Family`` methods by name,
so it runs in a subprocess of its own, never in the test process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from emckit.constructions import build_A

ROOT = Path(__file__).resolve().parents[1]


def traced_identities(tmp_path, family: str) -> dict:
    """The tracer's spans file for ``identities --family FAMILY`` at (30,4,6),
    whose rows must all pass."""
    spans, out = tmp_path / "spans.json", tmp_path / "identities.json"
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    argv = ["identities", "--family", family, "--n", "30", "--k", "4", "--s", "6", "--out", str(out)]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tracer.py"), str(spans), "cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert all(row["pass"] for row in json.loads(out.read_text()))
    return json.loads(spans.read_text())


def test_tracer_counts_family_builds(tmp_path):
    # A(30,4,6) read from a file: C(27,4) = 17 550 members, one family; its
    # trace on the prefix [27] is counted from masks, without a family of its own
    fam_file = tmp_path / "A-30-4-6.txt"
    fam_file.write_text(build_A(30, 4, 6).to_text(), encoding="utf-8")
    data = traced_identities(tmp_path, str(fam_file))
    assert data["counts"]["core.family_builds"] == 1
    assert data["counts"]["core.family_members"] == 17_550
    assert data["calls"]["constructions.trace_sizes"] == 1
    # the built-in A is counted as its members are made: no family at all
    data = traced_identities(tmp_path, "A")
    assert data["counts"]["core.family_builds"] == 0
    assert data["counts"]["core.family_members"] == 0
    assert data["calls"]["constructions.prefix_ksets"] == 1
    assert "constructions.build_A" not in data["calls"]
