"""The unit of linter output: one rule violation at one source location."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict


@dataclass(frozen=True, order=True)
class Violation:
    """One invariant breach found by a rule.

    Ordering is by location first so reports read top-to-bottom per file.
    """

    #: Posix path of the file, relative to the lint root (``repro/...``).
    path: str
    #: 1-based source line of the offending node.
    line: int
    #: 0-based column of the offending node.
    col: int
    #: Rule code (``R001`` ... ``R014``).
    code: str
    #: Human-readable description of the breach.
    message: str
    #: The stripped source line, for display and SARIF fingerprints.
    line_text: str = ""

    def to_json(self) -> Dict[str, Any]:
        """JSON-reporter form."""
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "line_text": self.line_text,
        }
