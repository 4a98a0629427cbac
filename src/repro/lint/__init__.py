"""``repro.lint`` — AST-based invariant linter for this repository.

Statically enforces the guarantees the reproduction's tests only
probe at runtime: determinism (D rules), executor/IPC safety
(X rules), and registry/docs sync (S rules).  Run it as
``python -m repro.lint`` or ``repro lint``; see ``docs/cli.md`` for
flags and ``docs/architecture.md`` for the rule catalog.
"""
