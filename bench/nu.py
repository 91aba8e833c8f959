"""Matching number of a family file, in a process of its own.

    python3 bench/nu.py FAMILY_FILE

No CLI command computes the matching number, so the benchmark runs this the
way it runs a CLI command: one fresh interpreter per call.  Prints
{"nu": ..., "certificate": [[...], ...]} as JSON.
"""

from __future__ import annotations

import json
import sys

from emckit.core import Family
from emckit.matching import matching_number


def main(argv: list[str]) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        fam = Family.from_text(fh.read())
    nu, cert = matching_number(fam)
    json.dump({"nu": nu, "certificate": [list(t.elements) for t in cert.sets]}, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
