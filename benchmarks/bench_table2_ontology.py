"""Table 2 — observed data type categories (19 of 35 starred)."""

from collections import Counter

from repro.ontology.coppa_ccpa import OBSERVED_LEVEL3
from repro.reporting.tables import render_table2


def observed_categories(result, min_support: int = 20):
    support = Counter()
    for observation in result.flows.observations():
        support[observation.level3] += 1
    return {label for label, count in support.items() if count >= min_support}


def test_table2_observed_categories(benchmark, result, save_artifact):
    observed = benchmark(observed_categories, result)
    save_artifact(
        "table2.txt",
        render_table2(result.flows)
        + f"\n\nwell-supported observed categories: {len(observed)} (paper: 19)",
    )
    assert observed == set(OBSERVED_LEVEL3)
