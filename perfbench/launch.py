"""Run one benchmark step in this (fresh) process.

    python3 perfbench/launch.py [--spawned-at T] [--done FILE]
        [--trace FILE] repro <repro arguments>
    python3 perfbench/launch.py [...] corpus <corpus.py arguments>

``repro`` runs the program's CLI exactly as ``python -m repro`` does;
``corpus`` runs :mod:`corpus`.  When the command returns, the
``CLOCK_MONOTONIC`` reading (``time.perf_counter`` on Linux) is written
to ``--done``: the report has been written by then, and interpreter
teardown is not part of the operation.

With ``--trace``, the program's entry points are wrapped before the
command runs (see :mod:`tracing`) and the spans are written to FILE
after it returns.  Interpreter start-up and imports become one
``startup`` span, measured from ``--spawned-at`` (the caller's clock
reading just before it started this process).
"""

from __future__ import annotations

import sys
import time
from pathlib import Path


def main() -> int:
    argv = sys.argv[1:]
    options: dict[str, str] = {}
    while argv and argv[0].startswith("--"):
        options[argv[0]] = argv[1]
        argv = argv[2:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    recorder = None
    if "--trace" in options:
        import tracing

        # install() imports every traced module before wrapping it, so
        # the start-up span covers the program's imports.
        recorder = tracing.install(options["--trace"])
        installed = time.perf_counter()
        recorder.record(
            tracing.ROOT_SPAN, float(options.get("--spawned-at", installed)), installed
        )
    target, args = argv[0], argv[1:]
    if target == "repro":
        from repro.cli import main as command
    elif target == "corpus":
        from corpus import main as command
    else:
        raise SystemExit(f"unknown target {target!r} (expected repro or corpus)")
    status = command(args)
    done = time.perf_counter()
    if "--done" in options:
        Path(options["--done"]).write_text(repr(done))
    if recorder is not None:
        recorder.dump()
    return status


if __name__ == "__main__":
    raise SystemExit(main())
