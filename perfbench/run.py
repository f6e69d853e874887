#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the liepair command line.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload lift --seed 1 --seconds 35 --trace 0

The load is a closed loop: one client, one ``liepair.cli.main([...])``
call at a time, in this single process.  The workload's command list is
issued in order, over and over, until ``--seconds`` have gone by (the
first pass always completes).  Every call writes its JSON report to a
file, and every verdict is checked: exit status, every named check, the
recorded list of check names, and the report digest (the report without
``elapsed_seconds``).  Digests must repeat across calls, and for the seed
they were recorded with (``expected.json``) they must equal the recorded
ones.  ``attempted`` and ``failed`` in the result count checked calls.

Times for the whole command list are the sum over its commands of each
command's median, which keeps a burst of machine noise inside one call
from moving the figure.  ``--trace 0`` prints the end-to-end metrics:
wall and CPU seconds for the list, peak resident memory, and the median
wall time of a fresh ``python -I -c "import liepair.cli"``, and writes
every per-command sample to ``samples.json`` in the work directory
``perfbench/.work/<workload>-seed<seed>/``.  ``--trace 1``
runs each command untraced and then traced, and prints the per-layer
metrics from ``spans.py`` for the whole list: calls and exact counts
(which must repeat on every traced call of a command) and median
inclusive and self seconds, plus the tracing overhead.  It also writes
the spans and a per-input size record to ``trace.json`` there.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import COUNT_NAMES, SPAN_NAMES, Tracer
from workloads import WORKLOADS, build, validation_commands

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = Path("perfbench") / ".work"
EXPECTED = HERE / "expected.json"
SETUP_RUNS = 15
# The per-input size record of the traced run.
SIZE_COUNTS = tuple(
    n for n in COUNT_NAMES if n.startswith(("graded.truncate.", "fedosov.x_field."))
)


def report_digest(payload: dict) -> str:
    """Digest of a report without its timing field."""
    stable = {k: v for k, v in payload.items() if k != "elapsed_seconds"}
    return hashlib.sha256(json.dumps(stable, sort_keys=True).encode()).hexdigest()


class Checker:
    """Checks each command's verdict; counts attempted and failed commands."""

    def __init__(self, expected: dict, check_digests: bool):
        self.expected = expected
        self.check_digests = check_digests
        self.first_digest = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def verify(self, cmd, rc, problems=()) -> None:
        """Count one call; it fails on any of ``problems`` or a wrong verdict."""
        self.attempted += 1
        problems = list(problems)
        if rc != cmd.expect_exit:
            problems.append(f"exit status {rc}, expected {cmd.expect_exit}")
        try:
            payload = json.loads(Path(cmd.report).read_text(encoding="utf-8"))
            names = [c["name"] for c in payload["checks"]]
            failing = [c["name"] for c in payload["checks"] if not c["passed"]]
            passed = payload["passed"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            payload = None
            problems.append(f"no readable report: {exc!r}")
        if payload is not None:
            want_pass = cmd.expect_exit == 0
            if passed != want_pass or (want_pass and failing):
                problems.append(f"verdict passed={passed}, failing checks {failing}")
            digest = report_digest(payload)
            if self.first_digest.setdefault(cmd.label, digest) != digest:
                problems.append("report differs from the first call")
            want = self.expected.get(cmd.label)
            if want is None:
                problems.append("no recorded verdict for this command")
            else:
                if names != want["checks"]:
                    problems.append(f"checks {names}, recorded {want['checks']}")
                if self.check_digests and digest != want["digest"]:
                    problems.append("report differs from the recorded one")
        if problems:
            self.failed += 1
            self.problems.append(f"{cmd.label}: " + "; ".join(problems))


def call(cli, cmd) -> int:
    """One CLI call; the exit status, including argparse's SystemExit."""
    try:
        return cli.main(list(cmd.argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


def timed_call(cli, cmd):
    """One CLI call: exit status, wall and CPU seconds spent inside it."""
    Path(cmd.report).unlink(missing_ok=True)
    w0, c0 = time.perf_counter(), time.process_time()
    rc = call(cli, cmd)
    return rc, time.perf_counter() - w0, time.process_time() - c0


def run_pass(cli, commands, checker):
    for cmd in commands:
        checker.verify(cmd, timed_call(cli, cmd)[0])


def closed_loop(commands, seconds, step):
    """Issue the commands in list order, one at a time, until ``seconds`` pass.

    The first pass always completes, so every command has a sample.
    """
    start = time.perf_counter()
    issued = 0
    while issued < len(commands) or time.perf_counter() - start < seconds:
        step(commands[issued % len(commands)])
        issued += 1


def _sum_of_medians(samples):
    """Whole command list: the sum over commands of each one's median."""
    return sum(statistics.median(values) for values in samples.values())


def measure_setup(runs: int) -> float:
    """Median wall seconds of a fresh interpreter importing liepair.cli."""
    argv = [sys.executable, "-I", "-c", "import sys; sys.path.insert(0, 'src'); import liepair.cli"]
    # The first import writes the bytecode cache; users pay that once.
    subprocess.run(argv, cwd=ROOT, check=True)
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def untraced_run(cli, commands, checker, seconds, workdir):
    setup_s = measure_setup(SETUP_RUNS)
    walls = {c.label: [] for c in commands}
    cpus = {c.label: [] for c in commands}

    def step(cmd):
        rc, wall, cpu = timed_call(cli, cmd)
        checker.verify(cmd, rc)
        walls[cmd.label].append(wall)
        cpus[cmd.label].append(cpu)

    closed_loop(commands, seconds, step)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print("samples per command: " + json.dumps({k: len(v) for k, v in walls.items()}))
    out = workdir / "samples.json"
    out.write_text(json.dumps({"wall_s": walls, "cpu_s": cpus}, indent=1) + "\n", encoding="utf-8")
    return {
        "wall_s": {"value": _sum_of_medians(walls), "unit": "s"},
        "cpu_s": {"value": _sum_of_medians(cpus), "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def traced_run(cli, commands, checker, seconds, workdir):
    """Each command runs untraced, then traced; the exact counts must repeat."""
    tracer = Tracer()
    labels = [c.label for c in commands]
    untraced = {label: [] for label in labels}
    traced = {label: [] for label in labels}
    layers = {label: [] for label in labels}
    exact = {}

    def step(cmd):
        rc, wall, _ = timed_call(cli, cmd)
        checker.verify(cmd, rc)
        untraced[cmd.label].append(wall)
        totals0, counts0 = tracer.snapshot()
        with tracer:
            rc, wall, _ = timed_call(cli, cmd)
        totals1, counts1 = tracer.snapshot()
        traced[cmd.label].append(wall)
        delta = {n: [b - a for a, b in zip(totals0[n], totals1[n])] for n in SPAN_NAMES}
        layers[cmd.label].append(delta)
        seen = ({n: v[0] for n, v in delta.items()},
                {n: counts1[n] - counts0[n] for n in COUNT_NAMES})
        same = exact.setdefault(cmd.label, seen) == seen
        checker.verify(cmd, rc, () if same else ["traced counts differ between repeats"])

    closed_loop(commands, seconds, step)

    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = {
            "value": sum(exact[label][0][name] for label in labels), "unit": "count"}
        for field, pos in (("s", 1), ("self_s", 2)):
            metrics[f"{name}.{field}"] = {"value": _sum_of_medians(
                {label: [d[name][pos] for d in layers[label]] for label in labels}), "unit": "s"}
    for name in COUNT_NAMES:
        metrics[name] = {"value": sum(exact[label][1][name] for label in labels), "unit": "count"}
    traced_s, untraced_s = _sum_of_medians(traced), _sum_of_medians(untraced)
    metrics["trace.untraced_wall_s"] = {"value": untraced_s, "unit": "s"}
    metrics["trace.traced_wall_s"] = {"value": traced_s, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_s - untraced_s, "unit": "s"}

    heaviest = {}
    for root in ("cli.main",) + tuple(n for n in SPAN_NAMES if n.startswith("suites.")):
        child = tracer.heaviest_child(root)
        if child is not None:
            heaviest[root] = {"stage": child[0], "s": child[1]}
            print(f"heaviest stage under {root}: {child[0]} ({child[1]:.3f} s)")
    sizes = {
        label: {n: exact[label][1][n] for n in SIZE_COUNTS} for label in labels
    }
    for label, row in sizes.items():
        print(f"size {label}: " + ", ".join(f"{n}={v}" for n, v in sorted(row.items()) if v))
    out = workdir / "trace.json"
    out.write_text(json.dumps({
        "samples": {"untraced_wall_s": untraced, "traced_wall_s": traced},
        "heaviest_stage": heaviest,
        "sizes": sizes,
        "spans": tracer.edge_rows(),
    }, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"spans written to {out.as_posix()}")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "liepair" / "cli.py").is_file():
        print(f"error: no liepair sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    from liepair import cli

    expected_all = json.loads(EXPECTED.read_text(encoding="utf-8"))
    checker = Checker(
        expected_all["workloads"][args.workload],
        check_digests=args.seed == expected_all["seed"],
    )
    workdir = WORK / f"{args.workload}-seed{args.seed}"
    charts, commands = build(args.workload, args.seed, workdir)
    # Every input must validate before anything is timed.
    run_pass(cli, validation_commands(charts, workdir), checker)

    if args.trace:
        metrics = traced_run(cli, commands, checker, args.seconds, workdir)
    else:
        metrics = untraced_run(cli, commands, checker, args.seconds, workdir)
    for problem in checker.problems:
        print(f"FAILED {problem}")
    print(f"fail_ratio {checker.failed}/{checker.attempted}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
