#!/usr/bin/env python3
"""Audit a *custom* general-audience service with DiffAudit.

The paper envisions DiffAudit being applied to new services as they
appear (§5.3).  This example defines a fictional gaming service,
"BlockCraft", from scratch — its behaviour profile (what it collects
and shares per age group), its privacy-policy disclosure model, and
its destination pools — then runs the full methodology against it.

BlockCraft is configured as a *well-behaved* service for children
(no third-party sharing at all for under-13 users, nothing while
logged out) but an aggressive one for adults, so the differential
audit has a real difference to surface — unlike the paper's six
services, whose age columns were nearly identical.
"""

from repro.audit.policy import PolicyModel, PolicyStatement
from repro.audit.report import audit_service
from repro.datatypes.extract import extract_from_request
from repro.destinations.dataset import default_universe
from repro.destinations.party import DestinationLabeler
from repro.flows.builder import FlowBuilder
from repro.flows.dataflow import FlowTable
from repro.datatypes.majority import MajorityVoteClassifier
from repro.model import AGE_COLUMNS, FlowCell, Platform, TraceColumn
from repro.ontology.nodes import Level2
from repro.pipeline.corpus import CorpusProcessor
from repro.services.config import CorpusConfig
from repro.services.generator import TrafficGenerator
from repro.services.catalog import ServiceSpec
from repro.services.profiles import ServiceProfile, VolumeTargets, _parse_grid


def build_blockcraft() -> tuple[ServiceSpec, PolicyModel]:
    """A new service: collect-everything, but child-protective."""
    grid = _parse_grid(
        {
            # child: first-party only | adolescent: some ATS sharing |
            # adult: everything | logged out: nothing at all
            Level2.PERSONAL_IDENTIFIERS: "B--- B--B B-BB ----",
            Level2.DEVICE_IDENTIFIERS: "B--- B--B B-BB ----",
            Level2.PERSONAL_CHARACTERISTICS: "B--- B--- B-BB ----",
            Level2.GEOLOCATION: "---- ---- B--B ----",
            Level2.USER_COMMUNICATIONS: "B--- B--B B-BB ----",
            Level2.USER_INTERESTS_AND_BEHAVIORS: "B--- B--B B-BB ----",
        }
    )
    profile = ServiceProfile(
        service="blockcraft",
        grid=grid,
        linkable_third_parties={
            TraceColumn.CHILD: 0,
            TraceColumn.ADOLESCENT: 6,
            TraceColumn.ADULT: 25,
            TraceColumn.LOGGED_OUT: 0,
        },
        largest_linkable_set={
            TraceColumn.CHILD: 0,
            TraceColumn.ADOLESCENT: 5,
            TraceColumn.ADULT: 9,
            TraceColumn.LOGGED_OUT: 0,
        },
        volume=VolumeTargets(domains=60, eslds=30, packets=20_000, tcp_flows=600),
        partner_orgs=("PubMatic, Inc.", "Braze, Inc.", "AppsFlyer"),
    )

    universe = default_universe()
    ats_pool = tuple(universe.ats_fqdns()[:40])
    non_ats_pool = tuple(universe.non_ats_third_party_fqdns()[:10])
    spec = ServiceSpec(
        key="blockcraft",
        display_name="BlockCraft",
        category="gaming",
        platforms=(Platform.WEB, Platform.MOBILE),
        first_party_names=("blockcraft",),
        first_party_owner="BlockCraft Studios",
        requires_parent_email=True,
        profile=profile,
        first_party_pool=(
            "api.blockcraft.example",
            "www.blockcraft.example",
            "cdn.blockcraft.example",
            "assets.blockcraft.example",
        ),
        first_party_ats_pool=(),
        third_party_ats_pool=ats_pool,
        third_party_non_ats_pool=non_ats_pool,
    )

    policy = PolicyModel(
        service="blockcraft",
        statements=(
            PolicyStatement(
                quote="We never share children's data with anyone.",
                audiences=(TraceColumn.CHILD,),
                prohibits=tuple(
                    (level2, cell)
                    for level2 in Level2
                    for cell in (FlowCell.SHARE_3RD, FlowCell.SHARE_3RD_ATS)
                ),
            ),
            PolicyStatement(
                quote="We share usage and device data with partners for teens and adults.",
                audiences=(TraceColumn.ADOLESCENT, TraceColumn.ADULT),
                discloses=tuple(
                    (level2, cell)
                    for level2 in Level2
                    for cell in (FlowCell.SHARE_3RD, FlowCell.SHARE_3RD_ATS)
                ),
            ),
        ),
    )
    return spec, policy


def main() -> None:
    spec, policy = build_blockcraft()
    config = CorpusConfig(scale=0.01)
    generator = TrafficGenerator(config)
    processor = CorpusProcessor(config=config)
    labeler = DestinationLabeler(
        service_names=spec.first_party_names,
        first_party_owner=spec.first_party_owner,
    )
    builder = FlowBuilder(classifier=MajorityVoteClassifier(confidence_mode="avg"))

    print("Generating and auditing BlockCraft traffic ...")
    flows = FlowTable()
    for trace in generator.generate_service(spec):
        parsed = processor.process_trace(trace)
        for request in parsed.requests:
            flows.extend(
                builder.flows_for_destination(
                    request.url.fqdn,
                    labeler,
                    service=spec.key,
                    platform=parsed.meta.platform,
                    kind=parsed.meta.kind,
                    age=parsed.meta.age,
                    keys=[item.key for item in extract_from_request(request)],
                )
            )

    report = audit_service(flows, spec.key, policy=policy)
    print()
    for line in report.summary_lines():
        print(line)

    print("\nDifferential audit (the interesting part for BlockCraft):")
    for differential in report.age_differentials:
        print(
            f"  {differential.left.value} vs {differential.right.value}: "
            f"{differential.similarity:.0%} identical, "
            f"{len(differential.differences)} differing cells"
        )
    print(
        "\nBlockCraft — unlike the paper's six services — actually "
        "differentiates ages: no child flows leave the first party, no "
        "logged-out processing, and its policy matches its behaviour:"
    )
    print(f"  pre-consent processing: {report.processed_before_consent}")
    print(f"  policy inconsistencies: {report.has_policy_inconsistency}")


if __name__ == "__main__":
    main()
