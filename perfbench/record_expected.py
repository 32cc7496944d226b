"""Write expected.json from a run of the paper's sweep at the current commit.

Run once, at the commit whose answers are the reference:

    PYTHONPATH=src python3 perfbench/record_expected.py

Later commits must reproduce these answers byte for byte (elapsed_seconds
aside), so re-recording is a deliberate change to the benchmark.
"""
from __future__ import annotations

import json
import subprocess

import checks
import gen
from coxanc import verifier


def main():
    reports = verifier.sweep(gen.PAPER_SPECS, workers=1)
    expected = {
        "commit": subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        ).stdout.strip(),
        "json_digest": checks.report_digest(verifier.reports_to_json(reports)),
        "groups": {
            r.spec: {"group_order": r.group_order, "rank": r.rank, "max_ilen": r.max_ilen}
            for r in reports
        },
    }
    checks.EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n")


if __name__ == "__main__":
    main()
