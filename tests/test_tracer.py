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

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_counts_family_builds(tmp_path):
    spans, out = tmp_path / "spans.json", tmp_path / "identities-A.json"
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    argv = ["identities", "--family", "A", "--n", "30", "--k", "4", "--s", "6", "--out", str(out)]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tracer.py"), str(spans), "cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(spans.read_text())
    # A(30,4,6): C(27,4) = 17 550 members; its trace on the prefix [27] is
    # counted from masks, without a family of its own
    assert data["counts"]["core.family_builds"] == 1
    assert data["counts"]["core.family_members"] == 17_550
    assert data["calls"]["constructions.build_A"] == 1
    assert all(row["pass"] for row in json.loads(out.read_text()))
