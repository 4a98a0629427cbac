"""Figure 3 — counts of third parties sent linkable data."""

from repro.linkability.analysis import linkability_matrix
from repro.model import ALL_COLUMNS
from repro.reporting.figures import render_fig3

PAPER = {
    "duolingo": (19, 58, 51, 14),
    "minecraft": (31, 31, 18, 17),
    "quizlet": (31, 219, 234, 160),
    "roblox": (15, 20, 20, 4),
    "tiktok": (2, 6, 5, 3),
    "youtube": (0, 0, 0, 0),
}


def test_fig3_linkable_third_parties(benchmark, result, save_artifact):
    matrix = benchmark(linkability_matrix, result.flows)
    rendered = render_fig3(matrix)
    paper_lines = "\n".join(
        f"  paper {service}: child={a} adolescent={b} adult={c} logged_out={d}"
        for service, (a, b, c, d) in PAPER.items()
    )
    save_artifact("fig3.txt", rendered + "\n\nPaper reference:\n" + paper_lines)

    for service, expected in PAPER.items():
        measured = tuple(
            matrix[(service, column)].linkable_third_parties for column in ALL_COLUMNS
        )
        assert measured == expected, (service, measured, expected)
