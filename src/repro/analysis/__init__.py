"""``repro-lint``: AST-based invariant checker for the sliced representation.

Run as ``python -m repro.analysis [paths...]`` (default: ``src``) or via
the ``repro-lint`` console script.  See :mod:`repro.analysis.rules` for
the rule catalogue (MOD001–MOD004, MOD006–MOD009) and
:mod:`repro.analysis.core` for the suppression policy.
:mod:`repro.analysis.dynlock` is the runtime half of the concurrency
rules: a lock-order witness armed by ``REPRO_DYNLOCK=1`` that fails the
test suite on lock-order inversions.
"""

from __future__ import annotations

from repro.analysis.core import (
    Violation,
    collect_files,
    lint_paths,
    render_report,
)
from repro.analysis.rules import KNOWN_CODES, RULES

__all__ = [
    "KNOWN_CODES",
    "RULES",
    "Violation",
    "collect_files",
    "lint_paths",
    "main",
    "render_report",
]


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns the process exit code (1 on findings)."""
    import argparse
    from pathlib import Path

    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="paper-specific invariant checker (stdlib ast only)",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select", default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            doc = (rule.__doc__ or "").strip().splitlines()[0]
            print(f"{rule.code}  {rule.name:18s} {doc}")
        return 0

    select = (
        [c.strip() for c in args.select.split(",") if c.strip()]
        if args.select
        else None
    )
    violations = lint_paths([Path(p) for p in args.paths], select=select)
    print(render_report(violations))
    return 1 if violations else 0
