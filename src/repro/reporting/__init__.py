"""Rendering of audit results.

* :mod:`repro.reporting.tables` — the paper's tables as text;
* :mod:`repro.reporting.figures` — its figures and the destination
  census as text;
* :mod:`repro.reporting.export` — CSV/JSON exports of flows and
  findings (what ``audit --json`` writes).

Benchmarks print the renderers' output so a run's output reads like
the paper's results section.
"""
