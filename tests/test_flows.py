"""Unit tests for data flow construction and the flow table."""

import json

import pytest

from repro.datatypes.extract import extract_from_request
from repro.destinations.party import DestinationLabeler, PartyLabel
from repro.flows import FlowBuilder, FlowObservation, FlowTable, GroundTruthClassifier
from repro.flows.dataflow import cell_for
from repro.model import AgeGroup, FlowCell, Platform, Presence, TraceColumn, TraceKind
from repro.net.http import Header, HttpRequest
from repro.net.url import parse_url
from repro.ontology.nodes import Level2, Level3
from repro.services.catalog import service


def observation(
    level3=Level3.ALIASES,
    fqdn="ads.tracker.example",
    party=PartyLabel.THIRD_PARTY_ATS,
    column=TraceColumn.CHILD,
    platform=Platform.WEB,
    service_name="testsvc",
) -> FlowObservation:
    return FlowObservation(
        service=service_name,
        column=column,
        platform=platform,
        level3=level3,
        fqdn=fqdn,
        esld="tracker.example",
        party=party,
        raw_key="k",
    )


class TestCellMapping:
    @pytest.mark.parametrize(
        "party,cell",
        [
            (PartyLabel.FIRST_PARTY, FlowCell.COLLECT_1ST),
            (PartyLabel.FIRST_PARTY_ATS, FlowCell.COLLECT_1ST_ATS),
            (PartyLabel.THIRD_PARTY, FlowCell.SHARE_3RD),
            (PartyLabel.THIRD_PARTY_ATS, FlowCell.SHARE_3RD_ATS),
        ],
    )
    def test_party_to_cell(self, party, cell):
        assert cell_for(party) is cell


class TestFlowObservation:
    def test_level2_rollup(self):
        assert observation(Level3.COARSE_GEOLOCATION).level2 is Level2.GEOLOCATION

    def test_flow_pair_identity(self):
        pair = observation().flow_pair
        assert pair == (Level3.ALIASES, "ads.tracker.example")


class TestFlowTable:
    def test_presence_aggregation(self):
        table = FlowTable()
        table.add(observation(platform=Platform.WEB))
        assert (
            table.presence("testsvc", Level2.PERSONAL_IDENTIFIERS, TraceColumn.CHILD, FlowCell.SHARE_3RD_ATS)
            is Presence.WEB_ONLY
        )
        table.add(observation(platform=Platform.MOBILE))
        assert (
            table.presence("testsvc", Level2.PERSONAL_IDENTIFIERS, TraceColumn.CHILD, FlowCell.SHARE_3RD_ATS)
            is Presence.BOTH
        )

    def test_desktop_merges_into_web(self):
        table = FlowTable()
        table.add(observation(platform=Platform.DESKTOP))
        assert (
            table.presence("testsvc", Level2.PERSONAL_IDENTIFIERS, TraceColumn.CHILD, FlowCell.SHARE_3RD_ATS)
            is Presence.WEB_ONLY
        )

    def test_absent_cell_is_none(self):
        assert (
            FlowTable().presence("x", Level2.SENSORS, TraceColumn.ADULT, FlowCell.COLLECT_1ST)
            is Presence.NONE
        )

    def test_unique_flows(self):
        table = FlowTable()
        table.add(observation())
        table.add(observation())  # duplicate pair
        table.add(observation(level3=Level3.LANGUAGE))
        assert len(table.unique_flows()) == 2

    def test_third_party_type_sets(self):
        table = FlowTable()
        table.add(observation(level3=Level3.ALIASES))
        table.add(observation(level3=Level3.LANGUAGE))
        table.add(
            observation(
                level3=Level3.NAME,
                fqdn="api.testsvc.example",
                party=PartyLabel.FIRST_PARTY,
            )
        )
        sets = table.third_party_type_sets("testsvc", TraceColumn.CHILD)
        assert sets == {"ads.tracker.example": {Level3.ALIASES, Level3.LANGUAGE}}

    def test_observed_level_sets(self):
        table = FlowTable()
        table.add(observation(level3=Level3.AGE))
        assert table.observed_level3() == {Level3.AGE}
        assert table.observed_level2() == {Level2.PERSONAL_CHARACTERISTICS}

    def test_services_listing(self):
        table = FlowTable()
        table.add(observation(service_name="b"))
        table.add(observation(service_name="a"))
        assert table.services() == ["a", "b"]


class TestGroundTruthClassifier:
    def test_known_key(self):
        oracle = GroundTruthClassifier(truth={"email": Level3.CONTACT_INFORMATION})
        verdict = oracle.classify("email")
        assert verdict.label is Level3.CONTACT_INFORMATION
        assert verdict.confidence == 1.0

    def test_unknown_key(self):
        oracle = GroundTruthClassifier(truth={})
        assert oracle.classify("mystery").label is None


class TestFlowBuilder:
    @pytest.fixture()
    def builder(self):
        truth = {
            "email": Level3.CONTACT_INFORMATION,
            "gaid": Level3.DEVICE_SOFTWARE_IDENTIFIERS,
            "lang": Level3.LANGUAGE,
        }
        return FlowBuilder(classifier=GroundTruthClassifier(truth=truth))

    @pytest.fixture()
    def labeler(self):
        spec = service("roblox")
        return DestinationLabeler(
            service_names=spec.first_party_names,
            first_party_owner=spec.first_party_owner,
        )

    def _request(self, host, body):
        return HttpRequest(
            method="POST",
            url=parse_url(f"https://{host}/x"),
            headers=[Header("Content-Type", "application/json")],
            body=json.dumps(body).encode(),
        )

    @staticmethod
    def _flows(builder, request, labeler, service, platform, kind, age):
        """All flows ``request`` produces: its keys extracted, as the
        engine's shard fold does, then built for its destination, each
        row read back as an observation."""
        rows = builder.flows_for_destination(
            request.url.fqdn,
            labeler,
            service=service,
            platform=platform,
            kind=kind,
            age=age,
            keys=[item.key for item in extract_from_request(request)],
        )
        return [FlowObservation(*row) for row in rows]

    def test_flows_constructed(self, builder, labeler):
        request = self._request("ad.doubleclick.net", {"email": "a@b.c", "lang": "en"})
        flows = self._flows(
            builder,
            request,
            labeler,
            service="roblox",
            platform=Platform.WEB,
            kind=TraceKind.LOGGED_IN,
            age=AgeGroup.CHILD,
        )
        assert {f.level3 for f in flows} == {
            Level3.CONTACT_INFORMATION,
            Level3.LANGUAGE,
        }
        assert all(f.party is PartyLabel.THIRD_PARTY_ATS for f in flows)
        assert all(f.column is TraceColumn.CHILD for f in flows)

    def test_unknown_keys_dropped(self, builder, labeler):
        request = self._request("www.roblox.com", {"internal_junk": 1})
        flows = self._flows(
            builder, request, labeler, "roblox", Platform.WEB, TraceKind.LOGGED_IN, AgeGroup.ADULT
        )
        assert flows == []

    def test_duplicate_types_collapse_per_request(self, builder, labeler):
        request = self._request("www.roblox.com", {"email": "x", "gaid": "y"})
        request.url = parse_url("https://www.roblox.com/x?email=z")
        flows = self._flows(
            builder, request, labeler, "roblox", Platform.WEB, TraceKind.LOGGED_IN, AgeGroup.ADULT
        )
        contact = [f for f in flows if f.level3 is Level3.CONTACT_INFORMATION]
        assert len(contact) == 1

    def test_threshold_filters(self, labeler):
        class HalfConfident:
            name = "half"

            def classify(self, text):
                from repro.datatypes.base import Classification

                return Classification(text=text, label=Level3.AGE, confidence=0.5)

        builder = FlowBuilder(classifier=HalfConfident(), confidence_threshold=0.8)
        request = self._request("www.roblox.com", {"age": 9})
        assert (
            self._flows(
                builder, request, labeler, "roblox", Platform.WEB, TraceKind.LOGGED_IN, AgeGroup.CHILD
            )
            == []
        )

    def test_classification_memoized(self, builder, labeler):
        request = self._request("www.roblox.com", {"email": "x"})
        self._flows(
            builder, request, labeler, "roblox", Platform.WEB, TraceKind.LOGGED_IN, AgeGroup.ADULT
        )
        assert builder.classified_keys == 1
        self._flows(
            builder, request, labeler, "roblox", Platform.WEB, TraceKind.LOGGED_IN, AgeGroup.ADULT
        )
        assert builder.classified_keys == 1
