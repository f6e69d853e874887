#!/usr/bin/env python3
"""Record the verdicts the benchmark checks against (``expected.json``).

Run from the root of the repository after a deliberate change to the
reports::

    python3 perfbench/record_expected.py

For every workload at ``SEED`` it runs each command once and stores the
names of its checks and the digest of its report (without
``elapsed_seconds``).  Check names are compared on every seed; digests
only on ``SEED``.
"""

from __future__ import annotations

import json
import os
import sys

import run
from workloads import WORKLOADS, build, validation_commands

SEED = 1


def main() -> int:
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.SRC))
    from liepair import cli

    recorded = {}
    for workload in WORKLOADS:
        workdir = run.WORK / f"{workload}-seed{SEED}"
        charts, commands = build(workload, SEED, workdir)
        entries = {}
        for cmd in validation_commands(charts, workdir) + commands:
            rc = run.call(cli, cmd)
            payload = json.loads(open(cmd.report, encoding="utf-8").read())
            if rc != cmd.expect_exit or not payload["passed"]:
                print(f"error: {cmd.label} did not pass (exit {rc})", file=sys.stderr)
                return 1
            entries[cmd.label] = {
                "checks": [c["name"] for c in payload["checks"]],
                "digest": run.report_digest(payload),
            }
        recorded[workload] = entries
    run.EXPECTED.write_text(
        json.dumps({"seed": SEED, "workloads": recorded}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {run.EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
