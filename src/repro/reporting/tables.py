"""Text renderers for the paper's tables."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.flows.dataflow import FlowTable
from repro.model import ALL_COLUMNS, FlowCell, Presence
from repro.ontology import ONTOLOGY
from repro.ontology.coppa_ccpa import OBSERVED_LEVEL3
from repro.ontology.nodes import Level1, Level2
from repro.pipeline.dataset import DatasetSummary
from repro.services.profiles import FLOW_CELLS, LEVEL2_ROWS

if TYPE_CHECKING:  # pragma: no cover
    from repro.datatypes.validation import ValidationReport


def render_table(headers: list[str], rows: list[list[str]], title: str = "") -> str:
    """Generic monospace table."""
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(str(cell)))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(c).ljust(widths[i]) for i, c in enumerate(row)))
    return "\n".join(lines)


def render_table1(dataset: DatasetSummary, title: str = "Table 1: Dataset Summary") -> str:
    rows = [
        [service, str(domains), str(eslds), f"{packets:,}", f"{flows:,}"]
        for service, domains, eslds, packets, flows in dataset.rows()
    ]
    rows.append(
        [
            "Total (unique)",
            str(dataset.total_domains),
            str(dataset.total_eslds),
            f"{dataset.total_packets:,}",
            f"{dataset.total_tcp_flows:,}",
        ]
    )
    return render_table(
        ["Service", "Domains", "eSLDs", "Packets", "TCP Flows"], rows, title
    )


def render_table2(flows: FlowTable, title: str = "Table 2: Observed Data Type Categories") -> str:
    observed = flows.observed_level3()
    rows = []
    for node in ONTOLOGY:
        star = "*" if node.level3 in observed else " "
        paper_star = "*" if node.level3 in OBSERVED_LEVEL3 else " "
        rows.append(
            [node.level1.value, node.level3.value, star, paper_star]
        )
    return render_table(
        ["Level 1", "Category", "Observed", "Paper"], rows, title
    )


def render_table3(
    reports: list[ValidationReport],
    title: str = "Table 3: Classifier Validation",
) -> str:
    rows = []
    for report in reports:
        row = [report.classifier, f"{report.accuracy:.2f}"]
        for threshold in report.thresholds:
            row.append(f"{threshold.accuracy:.2f}")
            row.append(str(threshold.labeled))
        rows.append(row)
    headers = ["Model", "Accuracy"]
    if reports:
        for threshold in reports[0].thresholds:
            headers.append(f"Acc@{threshold.threshold}")
            headers.append(f"N@{threshold.threshold}")
    return render_table(headers, rows, title)


_PRESENCE_SYMBOL = {
    Presence.BOTH: "●",
    Presence.WEB_ONLY: "W",
    Presence.MOBILE_ONLY: "M",
    Presence.NONE: "—",
}


def render_table4(
    flows: FlowTable,
    services: list[str] | None = None,
    title: str = "Table 4: Data Flows by Age Category and Platform",
) -> str:
    """The paper's big grid: ● both, W web-only, M mobile-only, — none."""
    services = services or flows.services()
    headers = ["Service", "Data Type Category"]
    for column in ALL_COLUMNS:
        for cell in FLOW_CELLS:
            short = {
                FlowCell.COLLECT_1ST: "C1",
                FlowCell.COLLECT_1ST_ATS: "C1A",
                FlowCell.SHARE_3RD: "S3",
                FlowCell.SHARE_3RD_ATS: "S3A",
            }[cell]
            headers.append(f"{column.value[:5]}:{short}")
    rows = []
    for service in services:
        for level2 in LEVEL2_ROWS:
            row = [service, level2.value]
            for column in ALL_COLUMNS:
                for cell in FLOW_CELLS:
                    row.append(
                        _PRESENCE_SYMBOL[flows.presence(service, level2, column, cell)]
                    )
            rows.append(row)
    return render_table(headers, rows, title)


def render_table5(title: str = "Table 5: Data Type Ontology (COPPA/CCPA)") -> str:
    rows = []
    for node in ONTOLOGY:
        examples = ", ".join(node.examples[:5])
        if len(node.examples) > 5:
            examples += ", …"
        rows.append(
            [node.level1.value, node.level2.value, node.level3.value, examples]
        )
    return render_table(["Level 1", "Level 2", "Level 3", "Level 4 (examples)"], rows, title)


def ontology_statistics() -> dict:
    """Structural facts about the ontology used by Table 5 checks."""
    return {
        "level1": len(Level1),
        "level2": len(Level2),
        "level3": len(ONTOLOGY),
        "level4_examples": sum(len(node.examples) for node in ONTOLOGY),
        "observed_level3": len(OBSERVED_LEVEL3),
    }
