"""Render a :class:`~repro.lint.runner.LintResult` as text or JSON."""

from __future__ import annotations

import json

from repro.lint.runner import LintResult


def render_text(result: LintResult, strict: bool = False) -> str:
    """The human report: one ``path:line:col CODE message`` per finding."""
    lines = []
    for path, error in result.parse_errors:
        lines.append(f"{path}: parse error: {error}")
    for v in result.violations:
        lines.append(f"{v.path}:{v.line}:{v.col} {v.code} {v.message}")
    if strict:
        for path, sup in result.unjustified_suppressions:
            lines.append(
                f"{path}:{sup.comment_line}:0 R000 suppression of "
                f"{','.join(sup.codes)} has no justification; append "
                f"'-- <why>'"
            )
        for path, sup, code in result.stale_suppressions:
            lines.append(
                f"{path}:{sup.comment_line}:0 R000 stale suppression: "
                f"{code} no longer fires on line {sup.target_line}; "
                f"delete the waiver"
            )
    summary = f"{result.files} file(s): {len(result.violations)} violation(s)"
    if strict:
        summary += (
            f", {len(result.unjustified_suppressions)} unjustified "
            f"suppression(s), {len(result.stale_suppressions)} stale "
            f"suppression(s)"
        )
    lines.append(summary)
    return "\n".join(lines)


def render_json(result: LintResult, strict: bool = False) -> str:
    """Machine-readable report (stable key order)."""
    payload = {
        "files": result.files,
        "ok": result.ok(strict=strict),
        "violations": [v.to_json() for v in result.violations],
        "parse_errors": [
            {"path": path, "error": error}
            for path, error in result.parse_errors
        ],
        "unjustified_suppressions": [
            {"path": path, "line": sup.comment_line, "codes": list(sup.codes)}
            for path, sup in result.unjustified_suppressions
        ],
        "stale_suppressions": [
            {
                "path": path,
                "line": sup.comment_line,
                "code": code,
                "target_line": sup.target_line,
            }
            for path, sup, code in result.stale_suppressions
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
