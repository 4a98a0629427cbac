"""Figure 4 — sizes of the largest linkable data type sets."""

from repro.linkability.analysis import linkability_matrix, most_common_linkable_set
from repro.model import ALL_COLUMNS, TraceColumn
from repro.reporting.figures import render_fig4

PAPER = {
    "duolingo": (11, 11, 11, 11),
    "minecraft": (9, 10, 11, 8),
    "quizlet": (10, 12, 13, 12),
    "roblox": (8, 9, 8, 8),
    "tiktok": (5, 7, 10, 5),
    "youtube": (0, 0, 0, 0),
}


def test_fig4_largest_linkable_sets(benchmark, result, save_artifact):
    matrix = benchmark(linkability_matrix, result.flows)
    common_set, common_count = most_common_linkable_set(result.flows)
    rendered = render_fig4(matrix)
    save_artifact(
        "fig4.txt",
        rendered
        + "\n\nmost common linkable set "
        + f"({common_count} occurrences): "
        + ", ".join(sorted(level3.value for level3 in common_set))
        + "\n(paper: network connection information, language, service "
        "information, app or service usage, device information)",
    )

    for service, expected in PAPER.items():
        measured = tuple(
            matrix[(service, column)].largest_set_size for column in ALL_COLUMNS
        )
        assert measured == expected, (service, measured, expected)
    # §4.2: largest overall set is Quizlet/adult with 13 types.
    assert matrix[("quizlet", TraceColumn.ADULT)].largest_set_size == 13
    assert len(common_set) == 5  # the paper's most common set size
