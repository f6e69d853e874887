"""Spans and exact counts around liepair's public functions.

The tracer wraps functions from outside the package: it replaces a class
attribute, or a module-level function in every ``liepair`` module that
holds it under any name (``suites`` imports ``mu_lift`` and others by
name, so patching the defining module alone would miss those calls).
``uninstall`` puts every original object back.

Spans nest through a stack; for each (parent, name) edge the tracer
keeps calls, inclusive and self seconds in memory, and the caller writes
them out once at the end.  A span's self time is its duration minus the
time covered by its traced children.  Inclusive time per name counts only
the outermost span of that name, so recursion is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

# (metric prefix, module, attribute path); class attributes are "Class.attr".
TRACED = (
    ("cli.main", "cli", "main"),
    ("poly.mul", "poly", "Poly.__mul__"),
    ("poly.mul", "poly", "Poly.__rmul__"),
    ("graded.mul", "graded", "GradedElement.__mul__"),
    ("graded.apply", "graded", "Derivation.apply"),
    ("graded.commutator", "graded", "Derivation.commutator"),
    ("graded.truncate", "graded", "GradedElement.truncate"),
    ("homotopy.delta", "homotopy", "delta"),
    ("homotopy.kappa", "homotopy", "kappa"),
    ("homotopy.iota_star", "homotopy", "iota_star"),
    ("sections.bracket_with", "sections", "bracket_with"),
    ("sections.hom_bracket", "sections", "hom_bracket"),
    ("sections.q_act", "sections", "q_act"),
    ("algebroid.validate_structure", "algebroid", "validate_structure"),
    ("algebroid.curvature", "algebroid", "curvature"),
    ("algebroid.nabla_derivation", "algebroid", "nabla_derivation"),
    ("fedosov.build_fedosov", "fedosov", "build_fedosov"),
    ("fedosov.fedosov_x", "fedosov", "fedosov_x"),
    ("fedosov.flatness_defects", "fedosov", "flatness_defects"),
    ("fedosov.split_fedosov", "fedosov", "split_fedosov"),
    ("fedosov.mu_lift", "fedosov", "mu_lift"),
    ("atiyah.atiyah_dg", "atiyah", "atiyah_dg"),
    ("atiyah.d_hom", "atiyah", "d_hom"),
    ("atiyah.check_atiyah_comparison", "atiyah", "check_atiyah_comparison"),
    ("atiyah.transgression_residual", "atiyah", "transgression_residual"),
    ("ddg.split_dL", "ddg", "split_dL"),
    ("ddg.ModuleCurvature.apply", "ddg", "ModuleCurvature.apply"),
    ("suites.homotopy_suite", "suites", "homotopy_suite"),
    ("suites.fedosov_suite", "suites", "fedosov_suite"),
    ("suites.atiyah_suite", "suites", "atiyah_suite"),
    ("suites.ddg_suite", "suites", "ddg_suite"),
    ("loader.load_chart", "loader", "load_chart"),
    ("expressions.parse_poly", "expressions", "parse_poly"),
    ("report.render_json", "report", "render_json"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TRACED))
# Fiber degrees reported for the correction field; the workloads stop at 6.
FIBER_DEGREES = (2, 3, 4, 5, 6)
COUNT_NAMES = (
    "poly.mul.term_products",
    "poly.mul.terms_kept",
    "poly.mul.zero_operand_calls",
    "graded.mul.term_products",
    "graded.mul.terms_kept",
    "graded.truncate.terms_in",
    "graded.truncate.terms_out",
    "fedosov.mu_lift.iterations",
) + tuple(f"fedosov.x_field.terms_by_fiber_degree.{r}" for r in FIBER_DEGREES)


def _count_poly_mul(counts, args, result):
    left, right = args
    width = len(right.terms) if isinstance(right, type(left)) else 1
    counts["poly.mul.term_products"] += len(left.terms) * width
    counts["poly.mul.terms_kept"] += len(result.terms)
    if not (left.terms and width):
        counts["poly.mul.zero_operand_calls"] += 1


def _count_graded_mul(counts, args, result):
    left, right = args
    width = len(right.terms) if isinstance(right, type(left)) else 1
    counts["graded.mul.term_products"] += len(left.terms) * width
    counts["graded.mul.terms_kept"] += len(result.terms)


def _count_truncate(counts, args, result):
    counts["graded.truncate.terms_in"] += len(args[0].terms)
    counts["graded.truncate.terms_out"] += len(result.terms)


def _count_x_field(counts, args, result):
    for comp in result.x_field.comps.values():
        for mon in comp.terms:
            counts[f"fedosov.x_field.terms_by_fiber_degree.{mon.bdeg}"] += 1


COUNTERS = {
    "poly.mul": _count_poly_mul,
    "graded.mul": _count_graded_mul,
    "graded.truncate": _count_truncate,
    "fedosov.build_fedosov": _count_x_field,
}


def _resolve(module, path):
    owner = module
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Installs span wrappers; holds per-edge totals and exact counts."""

    def __init__(self):
        self._patches = []
        self._stack = []
        self._active = Counter()
        self.edges = {}
        self.totals = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        self.counts = Counter({name: 0 for name in COUNT_NAMES})

    # -- spans -----------------------------------------------------------
    def _wrap(self, name, fn):
        stack, active, edges, totals = self._stack, self._active, self.edges, self.totals
        counter = COUNTERS.get(name)
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "homotopy.kappa" and active["fedosov.mu_lift"]:
                counts["fedosov.mu_lift.iterations"] += 1
            frame = [name, 0.0]
            stack.append(frame)
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                active[name] -= 1
                parent = stack[-1][0] if stack else None
                if stack:
                    stack[-1][1] += dur
                self_s = dur - frame[1]
                edge = edges.get((parent, name))
                if edge is None:
                    edge = edges[(parent, name)] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += dur
                edge[2] += self_s
                total = totals[name]
                total[0] += 1
                total[2] += self_s
                if not active[name]:
                    total[1] += dur
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------
    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = [
            (name, importlib.import_module(f"liepair.{mod_name}"), path)
            for name, mod_name, path in TRACED
        ]
        modules = [
            mod
            for mod_name, mod in sorted(sys.modules.items())
            if mod is not None and (mod_name == "liepair" or mod_name.startswith("liepair."))
        ]
        for name, module, path in targets:
            owner, attr = _resolve(module, path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -----------------------------------------------------------
    def snapshot(self):
        """Copy of the totals and counts, for per-call differences."""
        return (
            {name: list(v) for name, v in self.totals.items()},
            dict(self.counts),
        )

    def edge_rows(self):
        return [
            {"parent": parent, "name": name, "calls": c, "s": s, "self_s": self_s}
            for (parent, name), (c, s, self_s) in sorted(
                self.edges.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])
            )
        ]

    def heaviest_child(self, parent):
        """(name, inclusive seconds) of the largest direct child span of parent."""
        best = None
        for (par, name), (_, s, _) in self.edges.items():
            if par == parent and name != parent and (best is None or s > best[1]):
                best = (name, s)
        return best
