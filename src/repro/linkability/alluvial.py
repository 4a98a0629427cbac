"""Figure 5: top third-party ATS organizations sent linkable data.

The paper's alluvial diagram maps trace category → service → owning
organization for the top-10 most contacted third-party ATS domains
that received linkable data.  We compute the same edges: for each
(service, column), the linkable third-party ATS destinations ranked by
contact frequency, rolled up to their organizations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.flows.dataflow import FlowTable
from repro.linkability.analysis import is_linkable
from repro.model import ALL_COLUMNS, TraceColumn


@dataclass(frozen=True)
class AlluvialEdge:
    """One ribbon of the alluvial diagram."""

    column: TraceColumn
    service: str
    organization: str
    weight: int  # linkable flow contact frequency


def alluvial_edges(
    flows: FlowTable,
    owner_of,
    top_n: int = 10,
    services: list[str] | None = None,
) -> list[AlluvialEdge]:
    """The Figure 5 edge list.

    ``owner_of(service, fqdn)`` resolves organizations; unknown owners
    are grouped under ``"(unknown)"`` as the paper could not resolve
    every domain.
    """
    edges: list[AlluvialEdge] = []
    services = services or flows.services()
    for service in services:
        for column in ALL_COLUMNS:
            type_sets = flows.third_party_type_sets(service, column)
            # Contacts come in first-seen order, which is most_common's
            # tie-break.
            frequency = Counter(
                {
                    fqdn: count
                    for fqdn, count in flows.third_party_ats_contacts(
                        service, column
                    ).items()
                    if is_linkable(type_sets[fqdn])
                }
            )
            for fqdn, weight in frequency.most_common(top_n):
                organization = owner_of(service, fqdn) or "(unknown)"
                edges.append(
                    AlluvialEdge(
                        column=column,
                        service=service,
                        organization=organization,
                        weight=weight,
                    )
                )
    return edges


def top_ats_organizations(edges: list[AlluvialEdge]) -> list[tuple[str, int]]:
    """Organizations ranked by total linkable-contact weight."""
    totals: Counter[str] = Counter()
    for edge in edges:
        totals[edge.organization] += edge.weight
    return totals.most_common()
