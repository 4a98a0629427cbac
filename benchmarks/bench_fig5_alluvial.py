"""Figure 5 — top third-party ATS organizations sent linkable data."""

from repro.linkability.alluvial import alluvial_edges, top_ats_organizations
from repro.reporting.figures import render_fig5

# Organizations named in the paper's Figure 5 that must rank highly.
PAPER_HEAD_ORGS = (
    "Google LLC",
    "PubMatic, Inc.",
    "Amazon Technologies",
    "Adobe Inc.",
)


def compute_edges(result):
    # Recompute from the flow table (the benchmark target); owner
    # resolution uses the entity DB captured in the result's census.
    owner_cache = {}
    for label_set in result.census.per_label_fqdns.values():
        for fqdn in label_set:
            owner_cache.setdefault(fqdn, None)

    def owner_of(service, fqdn):
        from repro.destinations.entities import default_entity_db

        return default_entity_db().owner_of(fqdn)

    return alluvial_edges(result.flows, owner_of)


def test_fig5_alluvial(benchmark, result, save_artifact):
    edges = benchmark.pedantic(compute_edges, args=(result,), rounds=1, iterations=1)
    save_artifact("fig5.txt", render_fig5(edges))

    ranking = [organization for organization, _ in top_ats_organizations(edges)]
    for expected in PAPER_HEAD_ORGS:
        assert expected in ranking[:8], (expected, ranking[:12])
    # YouTube contacts no third parties → contributes no edges.
    assert "youtube" not in {edge.service for edge in edges}
    # Quizlet contacts the most ATS with linkable data (bar width).
    from collections import Counter

    weight_by_service = Counter()
    for edge in edges:
        weight_by_service[edge.service] += edge.weight
    assert weight_by_service.most_common(1)[0][0] == "quizlet"
