"""CLI plumbing for the linter — shared by ``repro lint`` and
``python -m repro.lint``.

Exit codes: 0 clean, 1 findings, 2 usage/configuration errors — the
same convention as the rest of the ``repro`` CLI.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

#: Default baseline filename, looked up relative to ``--root``.
BASELINE_NAME = "lint-baseline.json"


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``repro lint`` flags to ``parser``."""
    parser.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: src, tools, "
        "benchmarks, tests under --root)",
    )
    parser.add_argument(
        "--root",
        default=".",
        help="repository root for relative paths, docs rules and the "
        "baseline (default: current directory)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default text)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help=f"baseline file (default: <root>/{BASELINE_NAME})",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="record current findings into the baseline file and exit 0",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule IDs to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        default=None,
        help="comma-separated rule IDs to skip",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )


class UsageError(ValueError):
    """Bad flag values (unknown rule IDs, …) — exit 2."""


def _selected_rules(args) -> list:
    from repro.lint.engine import all_rules

    rules = list(all_rules())
    known = {rule.rule_id for rule in rules}
    for flag in ("select", "ignore"):
        value = getattr(args, flag)
        if value is None:
            continue
        requested = {part.strip() for part in value.split(",") if part.strip()}
        unknown = requested - known
        if unknown:
            raise UsageError(
                f"--{flag} names unknown rule(s): "
                + ", ".join(sorted(unknown))
            )
        if flag == "select":
            rules = [rule for rule in rules if rule.rule_id in requested]
        else:
            rules = [rule for rule in rules if rule.rule_id not in requested]
    return rules


def run_from_args(args) -> int:
    """Execute one lint run described by parsed ``args``."""
    # The linter loads here, not with this module: ``repro`` builds
    # its ``lint`` subparser from add_lint_arguments on every command.
    from repro.lint.engine import BaselineError, all_rules, run_lint, write_baseline
    from repro.lint.report import render_json, render_text

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id:14s} [{rule.severity}] {rule.summary}")
        return 0

    root = Path(args.root).resolve()
    if not root.is_dir():
        print(f"error: --root {args.root} is not a directory", file=sys.stderr)
        return 2
    targets = [Path(p) for p in args.paths] or None
    baseline_path = (
        Path(args.baseline) if args.baseline else root / BASELINE_NAME
    )

    try:
        result = run_lint(
            root,
            targets=targets,
            rules=_selected_rules(args),
            baseline_path=None if args.write_baseline else baseline_path,
        )
    except (FileNotFoundError, BaselineError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        write_baseline(baseline_path, result.findings)
        print(
            f"wrote {len(result.findings)} finding(s) to {baseline_path}"
        )
        return 0

    output = (
        render_json(result) if args.format == "json" else render_text(result)
    )
    print(output)
    return 0 if result.ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="AST-based invariant linter (determinism, "
        "executor safety, registry/docs sync)",
    )
    add_lint_arguments(parser)
    return run_from_args(parser.parse_args(argv))
