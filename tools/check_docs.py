#!/usr/bin/env python
"""Docs sanity checker — a thin wrapper over the lint engine.

The checks that used to live here (module references, markdown
links, CLI snippets, the ``docs/cli.md`` ↔ argparse sync, the BENCH
schema coverage, the named-profile coverage) are now first-class
rules in :mod:`repro.lint` — ``S-DOC-REF``, ``S-CLI-DOC``,
``S-BENCH-DOC`` and ``S-PROFILE-DOC`` — so there is one analyzer,
one report format, one exit code.  This wrapper keeps the historical
entry point (and the CI docs job) working by running exactly that
docs-sync subset.

Run from the repo root with ``PYTHONPATH=src python tools/check_docs.py``.
Exits non-zero listing every broken reference.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.lint.engine import doc_rules, run_lint  # noqa: E402


def main() -> int:
    result = run_lint(ROOT, targets=[], rules=doc_rules())
    if result.findings:
        print(f"{len(result.findings)} doc problem(s):", file=sys.stderr)
        for finding in result.findings:
            print(
                f"  {finding.path}:{finding.line}: "
                f"[{finding.rule}] {finding.message}",
                file=sys.stderr,
            )
        return 1
    checked = len(list((ROOT / "docs").glob("*.md"))) + 1  # + README.md
    print(f"docs ok: {checked} file(s) checked by {len(doc_rules())} S rules")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
