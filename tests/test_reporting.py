"""Unit tests for the table/figure renderers and exporters."""

import csv
import io
import json

import pytest

from repro.destinations.party import PartyLabel
from repro.flows.dataflow import FlowObservation, FlowTable
from repro.linkability.analysis import linkability_matrix
from repro.model import Platform, TraceColumn
from repro.ontology.nodes import Level3
from repro.reporting.export import FLOW_FIELDS, flows_to_csv
from repro.reporting.figures import render_fig3, render_fig4
from repro.reporting.tables import (
    ontology_statistics,
    render_table,
    render_table2,
    render_table4,
    render_table5,
)


def small_table() -> FlowTable:
    table = FlowTable()
    table.add(
        FlowObservation(
            service="svc",
            column=TraceColumn.CHILD,
            platform=Platform.WEB,
            level3=Level3.ALIASES,
            fqdn="ads.x.example",
            esld="x.example",
            party=PartyLabel.THIRD_PARTY_ATS,
            raw_key="uid",
        )
    )
    table.add(
        FlowObservation(
            service="svc",
            column=TraceColumn.CHILD,
            platform=Platform.MOBILE,
            level3=Level3.LANGUAGE,
            fqdn="ads.x.example",
            esld="x.example",
            party=PartyLabel.THIRD_PARTY_ATS,
            raw_key="lang",
        )
    )
    return table


class TestGenericTable:
    def test_renders_headers_and_rows(self):
        text = render_table(["A", "Bee"], [["1", "2"], ["33", "4"]], "Title")
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert "A" in lines[1] and "Bee" in lines[1]
        assert lines[2].startswith("-")
        assert len(lines) == 5

    def test_column_widths_accommodate_data(self):
        text = render_table(["X"], [["very-long-cell"]])
        assert "very-long-cell" in text


class TestTableRenderers:
    def test_table2_marks_observed(self):
        text = render_table2(small_table())
        lines = [l for l in text.splitlines() if "Aliases" in l]
        assert lines and "*" in lines[0]

    def test_table4_symbols(self):
        text = render_table4(small_table())
        assert "W" in text  # Aliases web-only
        assert "M" in text  # Language mobile-only
        assert "—" in text  # everything else absent

    def test_table5_full_ontology(self):
        text = render_table5()
        for label in ("Aliases", "Sensor Data", "Inferences", "Coarse Geolocation"):
            assert label in text

    def test_ontology_statistics(self):
        stats = ontology_statistics()
        assert stats["level3"] == 35
        assert stats["observed_level3"] == 19


class TestFigureRenderers:
    def test_fig3_bars(self):
        matrix = linkability_matrix(small_table())
        text = render_fig3(matrix)
        assert "svc:" in text
        assert "child" in text
        assert "█" in text  # the linkable partner bar

    def test_fig4_sizes(self):
        matrix = linkability_matrix(small_table())
        text = render_fig4(matrix)
        assert "child" in text and "2" in text


class TestExports:
    def test_flows_csv_schema(self):
        text = flows_to_csv(small_table())
        rows = list(csv.reader(io.StringIO(text)))
        assert tuple(rows[0]) == FLOW_FIELDS
        assert len(rows) == 3  # header + 2 observations
        by_field = dict(zip(rows[0], rows[1]))
        assert by_field["service"] == "svc"
        assert by_field["party"] == "third party ATS"
        assert by_field["level1"] == "Identifiers"

    def test_result_json_schema(self, two_service_result):
        from repro.reporting.export import result_to_json

        document = json.loads(result_to_json(two_service_result))
        assert set(document["dataset"]) == {"tiktok", "youtube"}
        assert document["census"]["organizations"] > 0
        assert "child" in document["linkability"]["tiktok"]
        assert document["linkability"]["tiktok"]["adult"]["largest_set_size"] == 10
        assert isinstance(document["findings"]["tiktok"], list)

    def test_findings_csv(self, two_service_result):
        from repro.reporting.export import findings_to_csv

        text = findings_to_csv(two_service_result)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0][0] == "service"
        assert any(row[0] == "tiktok" for row in rows[1:])
