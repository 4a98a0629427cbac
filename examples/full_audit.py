#!/usr/bin/env python3
"""Full paper reproduction: all six services, every table and figure.

Runs the complete DiffAudit pipeline over Duolingo, Minecraft, Quizlet,
Roblox, TikTok, and YouTube/YouTube Kids, then prints the paper's
result artifacts: Table 1 (dataset), Table 4 (data-flow grid),
Figures 3/4 (linkability), Figure 5 (top ATS organizations), the §4.2
census, and the per-service audit summaries.

Usage::

    python examples/full_audit.py [scale]
"""

import sys
import time

from repro import CorpusConfig, DiffAudit
from repro.linkability.analysis import linkability_matrix
from repro.reporting.figures import (
    render_census,
    render_fig3,
    render_fig4,
    render_fig5,
)
from repro.reporting.tables import render_table1, render_table4


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.02
    print(f"Running the full six-service audit at scale {scale} ...")
    started = time.time()
    result = DiffAudit(CorpusConfig(scale=scale)).run()
    print(f"pipeline finished in {time.time() - started:.1f}s\n")

    print(render_table1(result.dataset))
    print()
    print(render_table4(result.flows))
    print()
    matrix = linkability_matrix(result.flows)
    print(render_fig3(matrix))
    print()
    print(render_fig4(matrix))
    print()
    print(render_fig5(result.alluvial))
    print()
    print(render_census(result.census))
    print()
    print(
        "Most common linkable set: "
        + ", ".join(sorted(t.value for t in result.common_linkable_set))
    )
    print(f"Unique data types: {result.unique_data_types:,} (paper: 3,968)")
    print(f"Unique data flows: {len(result.flows.unique_flows()):,} (paper: 5,508)")
    print()
    for service in sorted(result.audits):
        for line in result.audits[service].summary_lines():
            print(line)
        print()


if __name__ == "__main__":
    main()
