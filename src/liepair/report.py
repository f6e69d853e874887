"""Plain-text and JSON rendering of check reports."""

from __future__ import annotations

import json
from collections import namedtuple

# one named check of a report; residuals are strings, filled only on failure
CheckResult = namedtuple("CheckResult", "name passed residuals")


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
