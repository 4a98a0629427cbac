"""Table 5 — the COPPA/CCPA data type ontology itself."""

from repro.reporting.tables import render_table5
from repro.reporting.tables import ontology_statistics


def test_table5_ontology(benchmark, save_artifact):
    rendered = benchmark(render_table5)
    statistics = ontology_statistics()
    save_artifact(
        "table5.txt",
        rendered
        + "\n\nstructure: "
        + ", ".join(f"{k}={v}" for k, v in statistics.items()),
    )
    assert statistics["level1"] == 2
    assert statistics["level2"] == 8
    assert statistics["level3"] == 35
    assert statistics["observed_level3"] == 19
    assert statistics["level4_examples"] >= 300
