"""Linkable-data analysis over a flow table (Figures 3 & 4, §4.2)."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.destinations.party import PartyLabel
from repro.flows.dataflow import FlowTable
from repro.model import ALL_COLUMNS, TraceColumn
from repro.ontology import ONTOLOGY
from repro.ontology.nodes import Level3


_IDENTIFIER_TYPES = frozenset(
    label for label in Level3 if ONTOLOGY.is_identifier(label)
)


def is_linkable(types: set[Level3]) -> bool:
    """≥1 identifier and ≥1 personal-information type (paper §4.2)."""
    return not (
        _IDENTIFIER_TYPES.isdisjoint(types) or _IDENTIFIER_TYPES.issuperset(types)
    )


@dataclass
class LinkabilityResult:
    """Linkability numbers for one (service, column)."""

    service: str
    column: TraceColumn
    linkable_third_parties: int  # Figure 3 bar
    largest_set_size: int  # Figure 4 bar
    largest_set: frozenset[Level3] = frozenset()
    largest_set_fqdn: str = ""
    linkable_fqdns: tuple[str, ...] = ()


def analyze_linkability(
    flows: FlowTable, service: str, column: TraceColumn
) -> LinkabilityResult:
    """Figure 3/4 numbers for one service and trace category."""
    type_sets = flows.third_party_type_sets(service, column)
    linkable = {
        fqdn: types for fqdn, types in type_sets.items() if is_linkable(types)
    }
    largest_fqdn = ""
    largest: set[Level3] = set()
    for fqdn, types in sorted(linkable.items()):
        if len(types) > len(largest):
            largest, largest_fqdn = types, fqdn
    return LinkabilityResult(
        service=service,
        column=column,
        linkable_third_parties=len(linkable),
        largest_set_size=len(largest),
        largest_set=frozenset(largest),
        largest_set_fqdn=largest_fqdn,
        linkable_fqdns=tuple(sorted(linkable)),
    )


def linkability_matrix(
    flows: FlowTable, services: list[str] | None = None
) -> dict[tuple[str, TraceColumn], LinkabilityResult]:
    """The full Figure 3/4 matrix."""
    services = services or flows.services()
    return {
        (service, column): analyze_linkability(flows, service, column)
        for service in services
        for column in ALL_COLUMNS
    }


def most_common_linkable_set(
    flows: FlowTable, services: list[str] | None = None
) -> tuple[frozenset[Level3], int]:
    """The most frequent linkable type set across the dataset (§4.2).

    The paper reports a 5-type set (network connection information,
    language, service information, app or service usage, device
    information).
    """
    counter: Counter[frozenset[Level3]] = Counter()
    services = services or flows.services()
    for service in services:
        for column in ALL_COLUMNS:
            for types in flows.third_party_type_sets(service, column).values():
                if is_linkable(types):
                    counter[frozenset(types)] += 1
    if not counter:
        return frozenset(), 0
    winner, count = counter.most_common(1)[0]
    return winner, count


@dataclass
class DestinationCensus:
    """§4.2 destination totals across the whole dataset.

    Party labels are service-relative, so the same domain may be a
    first party for one service and third party for another — counts
    are unions of per-service labels (which is why the paper's four
    categories sum to slightly more than its unique-domain total).
    """

    first_party: int = 0
    first_party_ats: int = 0
    third_party: int = 0
    third_party_ats: int = 0
    organizations: int = 0
    unknown_owner_domains: int = 0
    per_label_fqdns: dict[PartyLabel, set] = field(default_factory=dict)


def destination_census(
    flows: FlowTable,
    contacted: dict[str, set[str]],
    owner_of,
) -> DestinationCensus:
    """Count destinations per party class and resolve owners.

    ``contacted`` maps service → every FQDN contacted (including
    opaque/undecryptable flows); ``owner_of(service, fqdn)`` resolves
    organization names (None when unknown).
    """
    census = DestinationCensus()
    per_label: dict[PartyLabel, set[str]] = {label: set() for label in PartyLabel}
    owners: set[str] = set()
    unknown: set[str] = set()
    for service, fqdns in contacted.items():
        for fqdn in fqdns:
            party = flows.party_of(service, fqdn)
            if party is not None:
                per_label[party].add(fqdn)
            owner = owner_of(service, fqdn)
            if owner:
                owners.add(owner)
            else:
                unknown.add(fqdn)
    census.first_party = len(per_label[PartyLabel.FIRST_PARTY])
    census.first_party_ats = len(per_label[PartyLabel.FIRST_PARTY_ATS])
    census.third_party = len(per_label[PartyLabel.THIRD_PARTY])
    census.third_party_ats = len(per_label[PartyLabel.THIRD_PARTY_ATS])
    census.organizations = len(owners)
    census.unknown_owner_domains = len(unknown)
    census.per_label_fqdns = per_label
    return census
