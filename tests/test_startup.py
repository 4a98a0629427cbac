"""Start-up guards: a ``repro`` process loads only what its command runs.

Every check runs in a fresh interpreter, so modules other tests have
already imported cannot hide an eager import.  The forbidden set is
the code an audit never executes: the linter's rules, the stream
session/sources/decoder, the metrics HTTP server, the capture
front-ends, the alternative classifiers, the traffic generator, the
table/figure renderers, the policy-text and contextual-integrity
analyses, and (at ``--jobs 1``) the process-pool machinery.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.pipeline.engine import generate_corpus_artifacts
from repro.services.config import CorpusConfig

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"

NEVER_AT_START = (
    "repro.lint.determinism",
    "repro.lint.engine",
    "repro.lint.executor",
    "repro.lint.sync",
    "repro.stream.incremental",
    "repro.stream.session",
    "repro.stream.sources",
    "repro.obs.http",
    "http.server",
    "repro.capture.devtools",
    "repro.capture.frida",
    "repro.capture.pcapdroid",
    "repro.capture.proxyman",
    "repro.datatypes.bertsim",
    "repro.datatypes.fewshot",
    "repro.datatypes.tfidf",
    "repro.datatypes.validation",
    "repro.datatypes.zeroshot",
    "repro.services.generator",
    "repro.services.payloads",
    "repro.services.sessions",
    "repro.reporting.figures",
    "repro.reporting.tables",
    "repro.audit.contextual",
    "repro.audit.policytext",
    "concurrent.futures.process",
)

# Prints the sorted module table after running ``CODE`` (given as the
# first argument) in this fresh interpreter.
_PROBE = """
import json, sys
exec(sys.argv[1])
print(json.dumps(sorted(sys.modules)))
"""


def _fresh_modules(code: str) -> set[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", _PROBE, code],
        env=env,
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return set(json.loads(completed.stdout.splitlines()[-1]))


@pytest.fixture(scope="module")
def golden_mobile_units(tmp_path_factory) -> Path:
    """The golden corpus's mobile units (PCAP + key log) alone."""
    full = tmp_path_factory.mktemp("golden")
    generate_corpus_artifacts(
        CorpusConfig(seed=11, scale=0.002, profile="light", services=("tiktok", "youtube")),
        full,
    )
    mobile = tmp_path_factory.mktemp("golden-mobile")
    for path in sorted(full.glob("*-mobile-*")):
        shutil.copy(path, mobile / path.name)
    return mobile


def test_cli_import_loads_no_command_subsystem():
    loaded = _fresh_modules("import repro.cli")
    assert sorted(loaded.intersection(NEVER_AT_START)) == []
    assert not any(name.startswith("repro.stream") for name in loaded)


def test_replay_audit_loads_no_unused_subsystem(golden_mobile_units, tmp_path):
    report = tmp_path / "report.json"
    argv = [
        "audit", "--jobs", "1", "--from-artifacts", str(golden_mobile_units),
        "--json", "--output", str(report),
    ]
    loaded = _fresh_modules(
        "from repro.cli import main\n"
        f"assert main({argv!r}) == 0"
    )
    assert report.exists()
    assert sorted(loaded.intersection(NEVER_AT_START)) == []


def test_readme_quickstart_import_is_lazy():
    loaded = _fresh_modules("import repro")
    assert "repro.pipeline.diffaudit" not in loaded
    loaded = _fresh_modules(
        "from repro import DiffAudit, CorpusConfig\n"
        "from repro.pipeline.diffaudit import DiffAudit as defined\n"
        "assert DiffAudit is defined and CorpusConfig().seed == 2023"
    )
    assert "repro.pipeline.diffaudit" in loaded


def test_every_package_all_name_resolves():
    _fresh_modules(
        "import importlib, pkgutil, repro\n"
        "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    if not info.ispkg:\n"
        "        continue\n"
        "    package = importlib.import_module(info.name)\n"
        "    for name in getattr(package, '__all__', ()):\n"
        "        getattr(package, name)\n"
        "for name in repro.__all__:\n"
        "    getattr(repro, name)\n"
    )
