"""Named checks, and the plain-text and JSON rendering of their reports.

Every check is built here: _Check(checks, name) joins checks when it
opens, and _results turns that list into CheckResults, keeping 8
residuals per check; _describe cuts a residual's value to 200 characters.
"""

from __future__ import annotations

import json
from collections import namedtuple

from .expressions import dsection_str, element_str, homsection_str
from .graded import GradedElement
from .sections import DSection, HomSection

# one named check of a report; residuals are strings, filled only on failure
CheckResult = namedtuple("CheckResult", "name passed residuals")

_PRINTERS = {GradedElement: element_str, DSection: dsection_str, HomSection: homsection_str}


def _describe(obj) -> str:
    s = _PRINTERS.get(type(obj), str)(obj)
    return s if len(s) <= 200 else s[:197] + "..."


class _Check:
    """Accumulates failures for one named check; joins checks when opened."""

    def __init__(self, checks, name):
        self.name = name
        self.failures = []
        checks.append(self)

    def expect_zero(self, label, residual):
        if residual:
            self.failures.append(f"{label}: {_describe(residual)}")

    def expect(self, label, ok):
        if not ok:
            self.failures.append(label)


def _results(checks) -> list:
    return [CheckResult(c.name, not c.failures, c.failures[:8]) for c in checks]


def build_payload(command, source, checks, extra=None) -> dict:
    """Assemble the common report dictionary for one CLI run."""
    payload = {
        "command": command,
        "input": str(source),
        "checks": [c._asdict() for c in checks],
        "passed": all(c.passed for c in checks),
    }
    if extra:
        payload.update(extra)
    return payload


def render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def render_text(payload: dict) -> str:
    lines = []
    head = [payload.get("command", "report")]
    if payload.get("input"):
        head.append(payload["input"])
    lines.append(" ".join(head))
    for key in sorted(payload):
        if key in ("command", "input", "checks", "passed"):
            continue
        lines.append(f"  {key}: {_scalar(payload[key])}")
    for check in payload.get("checks", ()):
        if check["passed"]:
            lines.append(f"PASS {check['name']}")
        else:
            lines.append(f"FAIL {check['name']}")
            for residual in check.get("residuals", ()):
                lines.append(f"     {residual}")
    lines.append("result: " + ("ok" if payload.get("passed") else "failed"))
    return "\n".join(lines) + "\n"


def _scalar(value) -> str:
    if isinstance(value, dict):
        items = ", ".join(f"{k}={v}" for k, v in sorted(value.items()))
        return "{" + items + "}"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
