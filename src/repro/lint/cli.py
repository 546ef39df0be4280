"""The ``repro lint`` / ``python -m repro.lint`` command.

Exit codes: 0 clean, 1 violations (or strict-mode findings), 2 usage
errors — matching the main CLI's convention.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.registry import all_rules, get_rule, select_rules
from repro.lint.sarif import render_sarif


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the lint options (shared with the ``repro`` subcommand)."""
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="lint roots (default: ./src if it exists, else .)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="also fail on stale suppressions and suppressions without "
             "a justification",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        dest="output_format", help="report format",
    )
    parser.add_argument(
        "--select", default=None, metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--explain", default=None, metavar="RXXX",
        help="print one rule's full documentation and exit",
    )
    parser.add_argument(
        "--sarif", type=Path, default=None, metavar="PATH",
        help="also write the findings as a SARIF 2.1.0 document to PATH",
    )


def _default_paths() -> List[Path]:
    src = Path("src")
    return [src if src.is_dir() else Path(".")]


def _print_rules() -> None:
    for r in all_rules():
        print(f"{r.code}  {r.name}: {r.summary}")
        print(f"      invariant: {r.invariant}")


def _print_explanation(code: str) -> int:
    try:
        r = get_rule(code)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    print(f"{r.code} — {r.name} [{r.scope}-scope]")
    print(f"  summary:   {r.summary}")
    print(f"  invariant: {r.invariant}")
    print(f"  suppress:  # reprolint: disable={r.code} -- <justification>")
    return 0


def run_lint(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; returns the exit code."""
    try:
        return _run_lint(args)
    except BrokenPipeError:
        # The reader went away (e.g. `repro lint ... | head`); swap in
        # devnull so the interpreter's exit-time flush doesn't raise too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _run_lint(args: argparse.Namespace) -> int:
    # The analyzer loads here, not at import: `repro` imports this
    # module for every command to build the lint subparser.
    from repro.lint.report import render_json, render_text
    from repro.lint.runner import lint_paths

    if args.list_rules:
        _print_rules()
        return 0
    if args.explain:
        return _print_explanation(args.explain)
    select = None
    if args.select:
        select = [code.strip() for code in args.select.split(",") if code.strip()]
    paths = list(args.paths) or _default_paths()
    for path in paths:
        if not path.exists():
            print(f"error: no such path {path}", file=sys.stderr)
            return 2
    try:
        result = lint_paths(paths, select=select)
    except KeyError as exc:
        # select_rules' message lists the known codes.
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    if args.sarif is not None:
        rules = select_rules(select) if select else all_rules()
        args.sarif.parent.mkdir(parents=True, exist_ok=True)
        args.sarif.write_text(
            render_sarif(result.violations, rules), encoding="utf-8"
        )

    render = render_json if args.output_format == "json" else render_text
    print(render(result, strict=args.strict))
    return 0 if result.ok(strict=args.strict) else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST-based invariant linter for the determinism and "
                    "budget contracts (see docs/static-analysis.md).",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
