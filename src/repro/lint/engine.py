"""Core of the invariant linter: rule model, suppressions, baseline.

The linter walks the repository's Python sources once, parses each
file to an AST shared by every rule, and runs two kinds of rules:

* :class:`AstRule` — per-file ``ast`` checks (determinism, executor
  safety).  Each rule declares a stable ID, a severity, and a fix
  hint, and yields :class:`Finding` objects anchored to a line.
* :class:`ProjectRule` — whole-repository checks (docs/CLI/schema
  sync) that look at the tree and the docs rather than at one file.

Two escape hatches keep the signal honest:

* inline suppressions — ``# repro-lint: disable=RULE — reason`` on
  (or directly above) the offending line.  The reason is mandatory;
  a suppression without one, or one that matches no finding, is
  itself an error (``L-SUPPRESS`` / ``L-UNUSED``), so dead
  suppressions cannot accumulate.
* a baseline file — known findings recorded as (rule, path, message)
  triples that report but do not fail.  The committed baseline is
  empty and must stay empty; it exists so a future emergency has a
  paper trail instead of a disabled linter.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, Iterable, Iterator, Sequence

from repro.fsutil import atomic_write_text

BASELINE_VERSION = 1

#: Rules report at one of these severities; every severity fails the
#: run (exit 1) — the distinction is informational, separating "this
#: is a bug" (error) from "this deserves a look" (warning).
SEVERITIES = ("error", "warning")

# Engine meta-rule IDs (not suppressible — they police the
# suppression mechanism itself).
RULE_SUPPRESS = "L-SUPPRESS"
RULE_UNUSED = "L-UNUSED"
RULE_PARSE = "L-PARSE"


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation, anchored to a file position."""

    rule: str
    path: str  # repository-relative POSIX path
    line: int
    col: int
    message: str
    severity: str = "error"
    hint: str = ""

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule)

    def baseline_key(self) -> tuple[str, str, str]:
        """Line-insensitive identity: surrounding edits must not churn
        the baseline, so the line number is deliberately excluded."""
        return (self.rule, self.path, self.message)


@dataclass(slots=True)
class ModuleSource:
    """One parsed Python file, shared by every AST rule."""

    path: Path  # absolute
    rel: str  # repository-relative POSIX path
    text: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)

    @classmethod
    def load(cls, path: Path, root: Path) -> "ModuleSource":
        text = path.read_text(encoding="utf-8")
        rel = path.resolve().relative_to(root.resolve()).as_posix()
        tree = ast.parse(text, filename=str(path))
        return cls(path=path, rel=rel, text=text, tree=tree,
                   lines=text.splitlines())


@dataclass(slots=True)
class Project:
    """What a :class:`ProjectRule` sees: the repo root and its docs."""

    root: Path

    def doc_files(self) -> list[Path]:
        docs = [self.root / "README.md"]
        docs_dir = self.root / "docs"
        if docs_dir.is_dir():
            docs.extend(sorted(docs_dir.glob("*.md")))
        return [path for path in docs if path.exists()]

    def rel(self, path: Path) -> str:
        return path.resolve().relative_to(self.root.resolve()).as_posix()


class Rule:
    """Common surface every rule exposes to the CLI and the catalog."""

    rule_id: ClassVar[str]
    severity: ClassVar[str] = "error"
    summary: ClassVar[str] = ""
    hint: ClassVar[str] = ""

    def finding(self, rel: str, line: int, col: int, message: str) -> Finding:
        return Finding(
            rule=self.rule_id,
            path=rel,
            line=line,
            col=col,
            message=message,
            severity=self.severity,
            hint=self.hint,
        )


class AstRule(Rule):
    """A per-file rule over one parsed module."""

    def applies_to(self, module: ModuleSource) -> bool:
        return True

    def check(self, module: ModuleSource) -> Iterator[Finding]:  # pragma: no cover
        raise NotImplementedError


class ProjectRule(Rule):
    """A whole-repository rule (docs/CLI/schema sync)."""

    def check(self, project: Project) -> Iterator[Finding]:  # pragma: no cover
        raise NotImplementedError


# ----------------------------------------------------------------------
# Inline suppressions
# ----------------------------------------------------------------------

#: Anything that *looks* like a suppression marker — parsed strictly
#: below so a malformed marker is an error, never silently inert.
_MARKER = re.compile(r"#\s*repro-lint:\s*(.*)$")
#: Strict form: ``disable=RULE[,RULE…] — reason`` (``--`` also accepted
#: as the separator; the reason is mandatory).
_DISABLE = re.compile(
    r"disable=([A-Za-z0-9_\-]+(?:\s*,\s*[A-Za-z0-9_\-]+)*)\s+(?:—|--)\s+(\S.*)$"
)


@dataclass(slots=True)
class Suppression:
    """One parsed ``# repro-lint: disable=…`` comment."""

    rel: str
    line: int  # line the comment sits on
    rules: tuple[str, ...]
    reason: str
    standalone: bool  # comment-only line → applies to the next line
    used: bool = False

    def covers(self, finding: Finding) -> bool:
        if finding.rule not in self.rules:
            return False
        target = self.line + 1 if self.standalone else self.line
        return finding.line == target or finding.line == self.line


def _comment_tokens(text: str) -> Iterator[tuple[int, int, str]]:
    """Real COMMENT tokens only — a ``# repro-lint:`` inside a string
    literal or docstring is documentation, not a suppression."""
    import io
    import tokenize

    tokens = tokenize.generate_tokens(io.StringIO(text).readline)
    for token in tokens:
        if token.type == tokenize.COMMENT:
            yield token.start[0], token.start[1] + 1, token.string


def scan_suppressions(
    module: ModuleSource, known_rules: Iterable[str]
) -> tuple[list[Suppression], list[Finding]]:
    """Parse every suppression comment; malformed ones become findings."""
    known = set(known_rules)
    suppressions: list[Suppression] = []
    problems: list[Finding] = []
    for lineno, col, comment in _comment_tokens(module.text):
        marker = _MARKER.search(comment)
        if marker is None:
            continue
        line = module.lines[lineno - 1]
        parsed = _DISABLE.match(marker.group(1).strip())
        if parsed is None:
            problems.append(
                Finding(
                    rule=RULE_SUPPRESS,
                    path=module.rel,
                    line=lineno,
                    col=col,
                    message=(
                        "malformed suppression: expected "
                        "'# repro-lint: disable=RULE — reason' "
                        "(the reason is mandatory)"
                    ),
                )
            )
            continue
        rules = tuple(
            part.strip() for part in parsed.group(1).split(",") if part.strip()
        )
        unknown = [rule for rule in rules if rule not in known]
        if unknown:
            problems.append(
                Finding(
                    rule=RULE_SUPPRESS,
                    path=module.rel,
                    line=lineno,
                    col=col,
                    message=(
                        "suppression names unknown rule(s): "
                        + ", ".join(sorted(unknown))
                    ),
                )
            )
            continue
        suppressions.append(
            Suppression(
                rel=module.rel,
                line=lineno,
                rules=rules,
                reason=parsed.group(2).strip(),
                standalone=line.strip().startswith("#"),
            )
        )
    return suppressions, problems


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------


class BaselineError(ValueError):
    """The baseline file exists but cannot be used."""


def load_baseline(path: Path) -> list[dict]:
    """Read a baseline file; absent file means an empty baseline."""
    if not path.exists():
        return []
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise BaselineError(f"baseline {path} is not valid JSON: {exc}") from exc
    if (
        not isinstance(document, dict)
        or document.get("version") != BASELINE_VERSION
        or not isinstance(document.get("findings"), list)
    ):
        raise BaselineError(
            f"baseline {path} must be "
            f'{{"version": {BASELINE_VERSION}, "findings": [...]}}'
        )
    for entry in document["findings"]:
        if not isinstance(entry, dict) or not {
            "rule",
            "path",
            "message",
        } <= set(entry):
            raise BaselineError(
                f"baseline {path}: every finding needs rule/path/message"
            )
    return document["findings"]


def write_baseline(path: Path, findings: Sequence[Finding]) -> None:
    document = {
        "version": BASELINE_VERSION,
        "findings": [
            {"rule": f.rule, "path": f.path, "message": f.message}
            for f in sorted(findings, key=Finding.sort_key)
        ],
    }
    atomic_write_text(path, json.dumps(document, indent=2) + "\n")


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------

#: Directories never scanned, wherever they appear.
_SKIP_DIRS = {".git", "__pycache__", ".hypothesis", "results", "artifacts"}


def discover_files(root: Path, targets: Sequence[Path]) -> list[Path]:
    """Every ``.py`` file under the targets, deterministically ordered."""
    files: set[Path] = set()
    for target in targets:
        if target.is_file() and target.suffix == ".py":
            files.add(target.resolve())
            continue
        if not target.is_dir():
            raise FileNotFoundError(f"lint target {target} does not exist")
        files |= {
            path.resolve()
            for path in target.rglob("*.py")
            if not _SKIP_DIRS.intersection(path.parts)
        }
    return sorted(files)


@dataclass(slots=True)
class LintResult:
    """Everything one lint run produced."""

    findings: list[Finding]  # live findings (fail the run)
    baselined: list[Finding]  # matched a baseline entry (reported, pass)
    stale_baseline: list[tuple[str, str, str]]  # entries matching nothing
    files_scanned: int

    @property
    def ok(self) -> bool:
        return not self.findings


def all_rules() -> tuple[Rule, ...]:
    """Every registered rule, D then X then S."""
    # Local: the rule modules import this one.
    from repro.lint import determinism, executor, sync

    return determinism.ALL + executor.ALL + sync.ALL


def doc_rules() -> tuple[Rule, ...]:
    """The docs-sync subset ``tools/check_docs.py`` runs."""
    from repro.lint import sync

    return sync.DOC_RULES


def run_lint(
    root: Path,
    targets: Sequence[Path] | None = None,
    rules: Sequence[Rule] | None = None,
    baseline_path: Path | None = None,
) -> LintResult:
    """Run ``rules`` (default: all registered) over ``targets``.

    ``targets`` defaults to the repository's source roots that exist
    under ``root``; project rules run once regardless of targets.
    """
    root = Path(root).resolve()
    active: list[Rule] = list(rules) if rules is not None else list(all_rules())
    ast_rules = [rule for rule in active if isinstance(rule, AstRule)]
    project_rules = [rule for rule in active if isinstance(rule, ProjectRule)]
    enabled_ids = {rule.rule_id for rule in active}
    # Suppressions may legitimately name any registered rule, not just
    # the ones enabled for this run — a `--select D-NOW` pass must not
    # report every X-BARE-EXCEPT suppression as "unknown".
    known_ids = {rule.rule_id for rule in all_rules()} | enabled_ids

    if targets is None:
        targets = [
            root / name
            for name in ("src", "tools", "benchmarks", "tests")
            if (root / name).is_dir()
        ]

    findings: list[Finding] = []
    suppressions: list[Suppression] = []
    files = discover_files(root, list(targets)) if ast_rules else []
    for path in files:
        try:
            module = ModuleSource.load(path, root)
        except SyntaxError as exc:
            findings.append(
                Finding(
                    rule=RULE_PARSE,
                    path=path.resolve().relative_to(root).as_posix(),
                    line=exc.lineno or 1,
                    col=exc.offset or 1,
                    message=f"file does not parse: {exc.msg}",
                )
            )
            continue
        module_suppressions, problems = scan_suppressions(module, known_ids)
        suppressions.extend(module_suppressions)
        findings.extend(problems)
        for rule in ast_rules:
            if rule.applies_to(module):
                findings.extend(rule.check(module))

    project = Project(root=root)
    for rule in project_rules:
        findings.extend(rule.check(project))

    # Apply suppressions (inline comments only ever cover Python files).
    kept: list[Finding] = []
    for finding in findings:
        covering = next(
            (
                s
                for s in suppressions
                if s.rel == finding.path and s.covers(finding)
            ),
            None,
        )
        if covering is None:
            kept.append(finding)
        else:
            covering.used = True
    for suppression in suppressions:
        # Unused-ness is only decidable when every rule the comment
        # names actually ran; under `--select` a suppression for a
        # disabled rule is neither used nor dead.
        if not suppression.used and set(suppression.rules) <= enabled_ids:
            kept.append(
                Finding(
                    rule=RULE_UNUSED,
                    path=suppression.rel,
                    line=suppression.line,
                    col=1,
                    message=(
                        "suppression for "
                        + ",".join(suppression.rules)
                        + " matched no finding — delete it"
                    ),
                )
            )

    # Apply the baseline.
    baseline = load_baseline(baseline_path) if baseline_path else []
    allowed = {(e["rule"], e["path"], e["message"]) for e in baseline}
    live: list[Finding] = []
    baselined: list[Finding] = []
    matched: set[tuple[str, str, str]] = set()
    for finding in kept:
        key = finding.baseline_key()
        if key in allowed:
            matched.add(key)
            baselined.append(finding)
        else:
            live.append(finding)
    stale = sorted(allowed - matched)

    live.sort(key=Finding.sort_key)
    baselined.sort(key=Finding.sort_key)
    return LintResult(
        findings=live,
        baselined=baselined,
        stale_baseline=stale,
        files_scanned=len(files),
    )
