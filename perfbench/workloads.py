"""The benchmark's workloads: seeded inputs and the CLI commands run on them.

Each workload is a fixed list of ``liepair`` command lines.  The seed
only reaches the program through the generated chart files and the
``--gamma-param`` flag.  Why each input is here:

* ``lift``: ``verify --suite fedosov`` on the shipped ``tangent_only``
  (polynomial coefficients) and ``aff_pair`` (constant coefficients).
  Most of the time is the Hom-valued horizontal lift ``mu_lift``; the
  flatness check is a small share.  ``--max-b-degree 3`` keeps one pass
  near 4 s, so a run holds several passes (at the default 4 the suite
  takes 16 s on ``tangent_only``).
* ``flatness``: ``fedosov`` on seeded torsion-free tangent connections.
  The full ``[D, D]`` and its window truncation dominate, no lift runs,
  and the ``Poly`` products are multi-term.  The sparsity patterns are
  fixed here and the seed draws only the coefficients, which left
  every exact count unchanged between the seeds tried: rank-3 degree-1 patterns with three to
  six entries took from 0.3 s to 81 s at ``--max-b-degree 5``.
* ``cocycle``: the Gauss matched pair of gl_3 (nine odd generators,
  one-term constant coefficients) through ``atiyah`` and the atiyah,
  ddg and homotopy suites, plus ``atiyah`` and its suite on ``aff_pair``
  and ``two_action``.  This loads Koszul-sign ``graded`` work,
  ``hom_bracket`` and ``atiyah_dg``; ``Poly`` cost is per-call overhead.
  ``--max-b-degree 3`` again keeps the pass short (the gl_3 atiyah suite
  takes 5.3 s at 4, 3.4 s at 3).  gl_4 is left out: its atiyah suite ran
  for more than 6 minutes.

Predicted links between per-layer and end-to-end metrics, written down
before any optimisation is measured:

* ``fedosov.mu_lift``, ``fedosov.split_fedosov``, ``homotopy.kappa`` and
  ``sections.q_act`` move ``wall_s``/``cpu_s`` on ``lift`` and not on
  ``flatness`` or ``cocycle``.
* ``fedosov.flatness_defects``, ``graded.commutator`` and
  ``graded.truncate`` move ``wall_s`` and ``peak_rss_mb`` on ``flatness``
  and barely move ``cocycle``.
* ``poly.mul.term_products`` moves ``flatness`` and ``lift``;
  ``poly.mul.calls`` and per-call ``poly.mul.self_s`` move all three.
* ``graded.mul``/``graded.apply``, ``sections.hom_bracket``, ``atiyah.*``
  and ``ddg.*`` move ``cocycle``.
* ``loader``, ``expressions`` and ``report`` are a small share of
  ``wall_s`` everywhere.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from charts import gauss_pair_chart, tangent_chart

WORKLOADS = ("lift", "flatness", "cocycle")

# Fixed sparsity of the flatness charts: (i, j, k) -> monomials of Gamma_ij^k.
RANK3_DEG1 = {(1, 1, 2): [(0,)], (2, 3, 1): [(2,)], (3, 3, 3): [(1,)]}
RANK2_DEG2 = {(1, 1, 2): [(0, 0)], (2, 2, 1): [(1, 1)]}

_GAMMAS = ("1/2", "2/3", "3/4", "4/3", "3/2", "5/3", "2", "5/2")


@dataclass(frozen=True)
class Command:
    """One CLI call and the verdict it must give."""

    label: str
    argv: tuple
    report: str
    expect_exit: int = 0


def _gamma(seed: int) -> str:
    return random.Random(f"gamma:{seed}").choice(_GAMMAS)


def _write_chart(chart: dict, path: Path) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chart, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path.as_posix()


def _cmd(label, command, chart, report_dir, *flags):
    report = f"{report_dir}/{label}.json"
    argv = (command, *flags, "--input", chart, "--format", "json", "--output", report)
    return Command(label, argv, report)


def build(workload: str, seed: int, workdir: Path):
    """Write the seeded inputs under ``workdir`` (a relative path).

    Returns (charts, commands): the chart files that must pass
    ``liepair validate`` before timing, and the timed command list.
    """
    reports = (workdir / "reports").as_posix()
    charts = []
    commands = []
    if workload == "lift":
        g = _gamma(seed)
        for name in ("tangent_only", "aff_pair"):
            chart = f"fixtures/{name}.json"
            charts.append(chart)
            commands.append(_cmd(f"{name}.verify_fedosov", "verify", chart, reports,
                                 "--suite", "fedosov", "--max-b-degree", "3",
                                 "--gamma-param", g))
    elif workload == "flatness":
        rank3 = _write_chart(tangent_chart("tangent_r3_d1", 3, RANK3_DEG1, seed),
                             workdir / "tangent_r3_d1.json")
        rank2 = _write_chart(tangent_chart("tangent_r2_d2", 2, RANK2_DEG2, seed),
                             workdir / "tangent_r2_d2.json")
        charts += [rank3, rank2]
        for chart, name, bound in ((rank3, "r3_d1", 4), (rank3, "r3_d1", 5), (rank2, "r2_d2", 6)):
            commands.append(_cmd(f"{name}.fedosov_b{bound}", "fedosov", chart, reports,
                                 "--max-b-degree", str(bound)))
    elif workload == "cocycle":
        gl3 = _write_chart(gauss_pair_chart(3), workdir / "gauss_gl3.json")
        charts.append(gl3)
        commands.append(_cmd("gl3.atiyah", "atiyah", gl3, reports, "--max-b-degree", "3"))
        for suite in ("atiyah", "ddg", "homotopy"):
            commands.append(_cmd(f"gl3.verify_{suite}", "verify", gl3, reports,
                                 "--suite", suite, "--max-b-degree", "3"))
        g = _gamma(seed)
        for name in ("aff_pair", "two_action"):
            chart = f"fixtures/{name}.json"
            charts.append(chart)
            commands.append(_cmd(f"{name}.atiyah", "atiyah", chart, reports,
                                 "--max-b-degree", "3", "--gamma-param", g))
            commands.append(_cmd(f"{name}.verify_atiyah", "verify", chart, reports,
                                 "--suite", "atiyah", "--max-b-degree", "3",
                                 "--gamma-param", g))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    Path(reports).mkdir(parents=True, exist_ok=True)
    return charts, commands


def validation_commands(charts, workdir: Path):
    reports = (workdir / "reports").as_posix()
    return [
        _cmd(f"validate.{Path(c).stem}", "validate", c, reports) for c in charts
    ]
