"""Unit and property tests for the traffic generator.

The central invariant: *every* data flow the generator emits must be
allowed by the service's Table 4 grid for that column/platform/cell —
grid exactness downstream depends on it.
"""

import pytest

from repro.datatypes.extract import extract_from_request
from repro.model import AgeGroup, FlowCell, Platform, TraceColumn, TraceKind
from repro.services.config import CorpusConfig
from repro.services.generator import TrafficGenerator
from repro.services.catalog import SERVICES, service
from repro.services.generator import _LEVEL2_OF, ip_for
from repro.services.profiles import profile_for

CONFIG = CorpusConfig(scale=0.005)


@pytest.fixture(scope="module")
def generator():
    return TrafficGenerator(CONFIG)


class TestUnits:
    def test_unit_count_per_platform(self, generator):
        """3 ages × 2 kinds + 1 logged-out = 7 units per platform."""
        spec = service("tiktok")
        units = generator.trace_units(spec)
        assert len(units) == 7 * len(spec.platforms)

    def test_desktop_platforms_only_for_gaming(self):
        assert Platform.DESKTOP in service("roblox").platforms
        assert Platform.DESKTOP in service("minecraft").platforms
        assert Platform.DESKTOP not in service("tiktok").platforms

    def test_determinism(self):
        a = TrafficGenerator(CorpusConfig(scale=0.005))
        b = TrafficGenerator(CorpusConfig(scale=0.005))
        spec = service("tiktok")
        unit_a = a.generate_unit(spec, Platform.WEB, TraceKind.LOGGED_IN, AgeGroup.CHILD)
        unit_b = b.generate_unit(spec, Platform.WEB, TraceKind.LOGGED_IN, AgeGroup.CHILD)
        assert len(unit_a.requests) == len(unit_b.requests)
        for x, y in zip(unit_a.requests, unit_b.requests):
            assert x.request.to_bytes() == y.request.to_bytes()
            assert x.connection == y.connection


class TestGridCompliance:
    """The generator may never emit a flow the grid forbids."""

    @pytest.mark.parametrize("service_key", ["tiktok", "youtube", "minecraft"])
    @pytest.mark.parametrize("platform", [Platform.WEB, Platform.MOBILE])
    @pytest.mark.parametrize("age", [AgeGroup.CHILD, AgeGroup.ADULT])
    def test_logged_in_units_respect_grid(self, generator, service_key, platform, age):
        spec = service(service_key)
        if platform not in spec.platforms:
            pytest.skip("platform not offered")
        profile = spec.profile
        column = TraceColumn(age.value)
        unit = generator.generate_unit(spec, platform, TraceKind.LOGGED_IN, age)
        truth = generator.payloads.registry.truth
        ats_first = set(spec.first_party_ats_pool)
        ats_third = set(spec.third_party_ats_pool)
        first_party = set(spec.first_party_pool) | ats_first
        for traced in unit.requests:
            host = traced.request.url.host
            if host in first_party:
                cell = (
                    FlowCell.COLLECT_1ST_ATS
                    if host in ats_first
                    else FlowCell.COLLECT_1ST
                )
            else:
                cell = (
                    FlowCell.SHARE_3RD_ATS if host in ats_third else FlowCell.SHARE_3RD
                )
            for item in extract_from_request(traced.request):
                label = truth.get(item.key)
                if label is None or label not in _LEVEL2_OF:
                    continue
                level2 = _LEVEL2_OF[label]
                assert profile.presence(level2, column, cell).on(platform), (
                    host,
                    item.key,
                    label,
                    level2,
                    cell,
                )

    def test_logged_out_never_sends_age_or_gender(self, generator):
        spec = service("quizlet")
        truth = generator.payloads.registry.truth
        for platform in (Platform.WEB, Platform.MOBILE):
            unit = generator.generate_unit(spec, platform, TraceKind.LOGGED_OUT, None)
            for traced in unit.requests:
                for item in extract_from_request(traced.request):
                    label = truth.get(item.key)
                    assert label is None or label.value not in ("Age", "Gender/Sex")


class TestLinkabilityShaping:
    def test_partner_counts_match_figure3(self, generator):
        for spec in SERVICES():
            for column in TraceColumn:
                partners = generator._partners(spec, column)
                assert len(partners) == spec.profile.linkable_third_parties[column]

    def test_partners_are_prefix_stable(self, generator):
        """Child partners ⊆ adolescent partners — 'similar destination
        domains, without much differentiation' (paper §4.2)."""
        spec = service("quizlet")
        child = generator._partners(spec, TraceColumn.CHILD)
        adult = generator._partners(spec, TraceColumn.ADULT)
        assert child == adult[: len(child)]

    def test_partner_pool_mixes_ats_and_non_ats(self):
        spec = service("quizlet")
        pool = spec.third_party_pool_interleaved()[:20]
        ats = set(spec.third_party_ats_pool)
        assert any(p in ats for p in pool)
        assert any(p not in ats for p in pool)

    def test_beacons_single_sided(self, generator):
        """Beacon targets receive PI-side types only (never linkable)."""
        from repro.ontology import ONTOLOGY

        spec = service("quizlet")
        profile = spec.profile
        import random

        beacons = generator._beacon_requests(
            spec, profile, TraceColumn.ADULT, Platform.WEB, random.Random(0)
        )
        truth = generator.payloads.registry.truth
        for request, _, _ in beacons:
            for item in extract_from_request(request):
                label = truth.get(item.key)
                if label is not None:
                    assert not ONTOLOGY.is_identifier(label)


class TestVolumeAndConnections:
    def test_filler_fills_toward_packet_target(self, generator):
        spec = service("tiktok")
        small = generator.generate_unit(
            spec, Platform.WEB, TraceKind.LOGGED_IN, AgeGroup.ADULT, packet_target=0
        )
        big = generator.generate_unit(
            spec,
            Platform.WEB,
            TraceKind.LOGGED_IN,
            AgeGroup.ADULT,
            packet_target=len(small.requests) + 500,
        )
        assert len(big.requests) >= len(small.requests) + 400

    def test_mobile_filler_is_pinned(self, generator):
        spec = service("tiktok")
        unit = generator.generate_unit(
            spec, Platform.MOBILE, TraceKind.LOGGED_IN, AgeGroup.ADULT, packet_target=900
        )
        pinned = [t for t in unit.requests if t.pinned]
        assert pinned
        assert all(t.connection.startswith("filler:") for t in pinned)

    def test_flow_target_splits_connections(self, generator):
        spec = service("tiktok")
        base = generator.generate_unit(
            spec, Platform.MOBILE, TraceKind.LOGGED_IN, AgeGroup.ADULT,
            packet_target=600, flow_target=0,
        )
        split = generator.generate_unit(
            spec, Platform.MOBILE, TraceKind.LOGGED_IN, AgeGroup.ADULT,
            packet_target=600, flow_target=150,
        )
        connections_base = {t.connection for t in base.requests}
        connections_split = {t.connection for t in split.requests}
        assert len(connections_split) > len(connections_base)

    def test_timestamps_monotonic(self, generator):
        spec = service("duolingo")
        unit = generator.generate_unit(spec, Platform.WEB, TraceKind.LOGGED_IN, AgeGroup.ADULT)
        stamps = [t.request.timestamp for t in unit.requests]
        assert all(b >= a for a, b in zip(stamps, stamps[1:]))


class TestAccountCreation:
    def test_child_signup_includes_parent_consent_on_gated_services(self, generator):
        spec = service("roblox")  # requires_parent_email
        unit = generator.generate_unit(
            spec, Platform.WEB, TraceKind.ACCOUNT_CREATION, AgeGroup.CHILD
        )
        paths = {t.request.url.path for t in unit.requests}
        assert "/api/v1/signup/parent-consent" in paths

    def test_adult_signup_has_no_parent_step(self, generator):
        spec = service("roblox")
        unit = generator.generate_unit(
            spec, Platform.WEB, TraceKind.ACCOUNT_CREATION, AgeGroup.ADULT
        )
        paths = {t.request.url.path for t in unit.requests}
        assert "/api/v1/signup/parent-consent" not in paths

    def test_logged_out_has_no_signup(self, generator):
        spec = service("roblox")
        unit = generator.generate_unit(spec, Platform.WEB, TraceKind.LOGGED_OUT, None)
        paths = {t.request.url.path for t in unit.requests}
        assert not any(p.startswith("/api/v1/signup") for p in paths)


class TestIpFor:
    def test_deterministic(self):
        assert ip_for("x.example.com") == ip_for("x.example.com")

    def test_distinct_hosts_usually_differ(self):
        assert ip_for("a.example.com") != ip_for("b.example.com")

    def test_plausible_public_address(self):
        first_octet = int(ip_for("host.example").split(".")[0])
        assert 34 <= first_octet <= 133
