"""Table 4 — the data-flow grid by age category and platform.

The paper's central result: for every service × level-2 category ×
audit column × flow cell, on which platforms the flow was observed.
Our pipeline reproduces the grid cell-for-cell.
"""

from repro.model import ALL_COLUMNS
from repro.reporting.tables import render_table4
from repro.services.profiles import FLOW_CELLS, LEVEL2_ROWS, all_profiles


def compute_grid(result):
    grids = {}
    for service in result.flows.services():
        grids[service] = result.flows.grid_for(service)
    return grids


def test_table4_grid(benchmark, result, save_artifact):
    grids = benchmark(compute_grid, result)
    save_artifact("table4.txt", render_table4(result.flows))

    total = agreements = 0
    mismatches = []
    for service, profile in all_profiles().items():
        for level2 in LEVEL2_ROWS:
            for column in ALL_COLUMNS:
                for cell in FLOW_CELLS:
                    want = profile.presence(level2, column, cell)
                    got = grids[service][(level2, column, cell)]
                    total += 1
                    if want == got:
                        agreements += 1
                    else:
                        mismatches.append((service, level2, column, cell, want, got))
    save_artifact(
        "table4_agreement.txt",
        f"Table 4 cell agreement vs paper: {agreements}/{total} "
        f"({agreements / total:.1%})\n"
        + "\n".join(str(m) for m in mismatches),
    )
    assert agreements == total, mismatches
