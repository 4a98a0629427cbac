"""Unit tests for the audit engine: policies, laws, differentials.

Synthetic flow tables isolate each rule; the full-corpus behaviour is
covered by the integration tests.
"""

import pytest

from repro.audit.differential import (
    compare_age_groups,
    compare_columns,
    logged_out_flows,
    platform_differences,
)
from repro.audit.findings import FindingKind, Severity
from repro.audit.laws import LawAuditor
from repro.audit.policy import policy_for
from repro.audit.report import audit_service
from repro.destinations.party import PartyLabel
from repro.flows.dataflow import FlowObservation, FlowTable
from repro.model import FlowCell, Platform, TraceColumn
from repro.ontology.nodes import Level2, Level3


def add_flow(
    table: FlowTable,
    service="duolingo",
    level3=Level3.ALIASES,
    party=PartyLabel.THIRD_PARTY_ATS,
    column=TraceColumn.CHILD,
    platform=Platform.WEB,
    fqdn="ads.tracker.example",
):
    table.add(
        FlowObservation(
            service=service,
            column=column,
            platform=platform,
            level3=level3,
            fqdn=fqdn,
            esld="tracker.example",
            party=party,
            raw_key="k",
        )
    )
    return table


class TestPolicyModels:
    def test_all_six_services_have_policies(self):
        for key in ("duolingo", "minecraft", "quizlet", "roblox", "tiktok", "youtube"):
            assert policy_for(key).service == key

    def test_unknown_service_raises(self):
        with pytest.raises(KeyError):
            policy_for("myspace")

    def test_nothing_disclosed_pre_consent(self):
        policy = policy_for("quizlet")
        for level2 in Level2:
            for cell in FlowCell:
                assert not policy.disclosed(TraceColumn.LOGGED_OUT, level2, cell)

    def test_baseline_first_party_collection_disclosed(self):
        policy = policy_for("duolingo")
        assert policy.disclosed(
            TraceColumn.ADULT, Level2.DEVICE_IDENTIFIERS, FlowCell.COLLECT_1ST
        )

    def test_duolingo_prohibits_child_ats_sharing(self):
        """Duolingo: 'third-party behavioral tracking is disabled' <16."""
        policy = policy_for("duolingo")
        assert policy.prohibited(
            TraceColumn.CHILD, Level2.GEOLOCATION, FlowCell.SHARE_3RD_ATS
        )
        assert not policy.prohibited(
            TraceColumn.ADULT, Level2.GEOLOCATION, FlowCell.SHARE_3RD_ATS
        )

    def test_tiktok_prohibits_child_ats_only(self):
        policy = policy_for("tiktok")
        assert policy.prohibited(
            TraceColumn.CHILD, Level2.DEVICE_IDENTIFIERS, FlowCell.SHARE_3RD_ATS
        )
        assert not policy.prohibited(
            TraceColumn.ADOLESCENT, Level2.DEVICE_IDENTIFIERS, FlowCell.SHARE_3RD_ATS
        )

    def test_roblox_prohibits_identifying_shares_for_minors(self):
        policy = policy_for("roblox")
        assert policy.prohibited(
            TraceColumn.CHILD, Level2.PERSONAL_IDENTIFIERS, FlowCell.SHARE_3RD
        )
        # but discloses non-identifying shares
        assert policy.disclosed(
            TraceColumn.CHILD,
            Level2.USER_INTERESTS_AND_BEHAVIORS,
            FlowCell.SHARE_3RD,
        )

    def test_youtube_disclosures_cover_first_party_ats(self):
        """The paper found YouTube's policy consistent with behaviour."""
        policy = policy_for("youtube")
        for level2 in Level2:
            assert policy.disclosed(
                TraceColumn.CHILD, level2, FlowCell.COLLECT_1ST_ATS
            )

    def test_prohibition_overrides_disclosure(self):
        policy = policy_for("duolingo")
        assert not policy.disclosed(
            TraceColumn.CHILD, Level2.USER_INTERESTS_AND_BEHAVIORS, FlowCell.SHARE_3RD_ATS
        )


class TestPreConsentRule:
    def test_logged_out_collection_flagged(self):
        table = add_flow(
            FlowTable(),
            column=TraceColumn.LOGGED_OUT,
            party=PartyLabel.FIRST_PARTY,
        )
        findings = LawAuditor("duolingo").pre_consent_findings(table)
        assert len(findings) == 1
        assert findings[0].kind is FindingKind.PRE_CONSENT_COLLECTION
        assert findings[0].severity is Severity.CONCERN

    def test_logged_out_ats_sharing_is_high_severity(self):
        table = add_flow(
            FlowTable(),
            column=TraceColumn.LOGGED_OUT,
            party=PartyLabel.THIRD_PARTY_ATS,
        )
        findings = LawAuditor("duolingo").pre_consent_findings(table)
        assert findings[0].kind is FindingKind.PRE_CONSENT_SHARING
        assert findings[0].severity is Severity.HIGH

    def test_logged_in_flows_not_flagged_here(self):
        table = add_flow(FlowTable(), column=TraceColumn.ADULT)
        assert LawAuditor("duolingo").pre_consent_findings(table) == []


class TestProtectedAgeRule:
    def test_child_ats_sharing_flagged(self):
        table = add_flow(FlowTable(), column=TraceColumn.CHILD)
        findings = LawAuditor("duolingo").protected_age_findings(table)
        assert len(findings) == 1
        assert findings[0].kind is FindingKind.PROTECTED_AGE_ATS_SHARING
        assert findings[0].law == "COPPA/CCPA"

    def test_adolescent_flagged_under_ccpa(self):
        table = add_flow(FlowTable(), column=TraceColumn.ADOLESCENT)
        findings = LawAuditor("duolingo").protected_age_findings(table)
        assert findings[0].law == "CCPA"

    def test_adult_ats_sharing_not_flagged(self):
        table = add_flow(FlowTable(), column=TraceColumn.ADULT)
        assert LawAuditor("duolingo").protected_age_findings(table) == []

    def test_non_ats_sharing_not_flagged_by_this_rule(self):
        table = add_flow(FlowTable(), column=TraceColumn.CHILD, party=PartyLabel.THIRD_PARTY)
        assert LawAuditor("duolingo").protected_age_findings(table) == []


class TestPolicyRule:
    def test_prohibited_flow_is_inconsistency(self):
        table = add_flow(FlowTable(), column=TraceColumn.CHILD)  # ATS share
        findings = LawAuditor("duolingo").policy_findings(table)
        kinds = {f.kind for f in findings}
        assert FindingKind.POLICY_INCONSISTENCY in kinds

    def test_undisclosed_flow_flagged(self):
        table = add_flow(
            FlowTable(),
            column=TraceColumn.ADULT,
            party=PartyLabel.THIRD_PARTY,
            level3=Level3.COARSE_GEOLOCATION,
        )
        findings = LawAuditor("duolingo").policy_findings(table)
        assert any(f.kind is FindingKind.UNDISCLOSED_FLOW for f in findings)

    def test_disclosed_flow_not_flagged(self):
        table = add_flow(
            FlowTable(),
            column=TraceColumn.ADULT,
            party=PartyLabel.FIRST_PARTY,
            level3=Level3.APP_OR_SERVICE_USAGE,
        )
        assert LawAuditor("duolingo").policy_findings(table) == []


class TestDifferentials:
    def test_identical_columns(self):
        table = FlowTable()
        for column in (TraceColumn.CHILD, TraceColumn.ADULT):
            add_flow(table, column=column)
        result = compare_columns(table, "duolingo", TraceColumn.CHILD, TraceColumn.ADULT)
        assert result.identical
        assert result.similarity == 1.0

    def test_differing_columns(self):
        table = add_flow(FlowTable(), column=TraceColumn.ADULT)
        result = compare_columns(table, "duolingo", TraceColumn.CHILD, TraceColumn.ADULT)
        assert not result.identical
        assert result.similarity == pytest.approx(31 / 32)  # 8 level-2 × 4 cells
        assert len(result.differences) == 1

    def test_compare_age_groups_returns_two(self):
        results = compare_age_groups(FlowTable(), "duolingo")
        assert [(r.left, r.right) for r in results] == [
            (TraceColumn.CHILD, TraceColumn.ADULT),
            (TraceColumn.ADOLESCENT, TraceColumn.ADULT),
        ]

    def test_logged_out_flows_listing(self):
        table = add_flow(FlowTable(), column=TraceColumn.LOGGED_OUT)
        flows = logged_out_flows(table, "duolingo")
        assert len(flows) == 1
        level2, cell, presence = flows[0]
        assert cell is FlowCell.SHARE_3RD_ATS

    def test_platform_differences(self):
        table = FlowTable()
        add_flow(table, platform=Platform.WEB, level3=Level3.LANGUAGE, party=PartyLabel.FIRST_PARTY)
        add_flow(table, platform=Platform.MOBILE, level3=Level3.ALIASES)
        result = platform_differences(table, "duolingo")
        assert len(result.web_only) == 1
        assert len(result.mobile_only) == 1
        assert result.mobile_only_all_third_party  # the ALIASES share


class TestServiceAuditReport:
    def test_full_audit_assembles(self):
        table = FlowTable()
        add_flow(table, column=TraceColumn.LOGGED_OUT)
        add_flow(table, column=TraceColumn.CHILD)
        report = audit_service(table, "duolingo")
        assert report.processed_before_consent
        assert report.shared_with_ats_before_consent
        assert report.has_policy_inconsistency
        assert report.high_severity()
        assert any("duolingo" in line for line in report.summary_lines())

    def test_no_age_differentiation_finding(self):
        table = FlowTable()
        for column in TraceColumn:
            add_flow(table, column=column)
        report = audit_service(table, "duolingo")
        assert any(
            f.kind is FindingKind.NO_AGE_DIFFERENTIATION for f in report.findings
        )

    def test_finding_one_line_format(self):
        table = add_flow(FlowTable(), column=TraceColumn.CHILD)
        report = audit_service(table, "duolingo")
        line = report.findings[0].one_line()
        assert "duolingo/child" in line
