"""Ablation benchmarks for four design choices of the pipeline.

1. ATS decision rule: any-list (paper) vs majority-of-lists.
2. Classification confidence threshold: accuracy/coverage trade-off.
3. Oracle classifier (manual-labeling upper bound) vs the default
   majority-vote pipeline.
4. Entity database coverage: how unknown-owner rates grow as the
   Tracker-Radar stand-in loses tail coverage.
"""

import pytest

from repro import CorpusConfig, DiffAudit
from repro.datatypes.majority import MajorityVoteClassifier
from repro.datatypes.validation import draw_sample
from repro.destinations.blocklists import default_blocklists
from repro.destinations.dataset import default_universe
from repro.destinations.entities import EntityDatabase
from repro.flows.builder import GroundTruthClassifier
from repro.model import ALL_COLUMNS
from repro.reporting.tables import render_table
from repro.services.payloads import PayloadFactory


def test_ablation_blocklist_rule(benchmark, save_artifact):
    """Any-list vs majority rule over every universe ATS host."""
    universe = default_universe()
    collection = default_blocklists()
    hosts = universe.all_blocklisted_hosts()

    def classify_all():
        any_rule = sum(1 for host in hosts if collection.is_ats(host))
        majority_rule = sum(1 for host in hosts if collection.is_ats_majority(host))
        return any_rule, majority_rule

    any_rule, majority_rule = benchmark(classify_all)
    save_artifact(
        "ablation_blocklist.txt",
        render_table(
            ["Rule", "ATS hosts flagged", "of"],
            [
                ["any list (paper)", str(any_rule), str(len(hosts))],
                ["majority of lists", str(majority_rule), str(len(hosts))],
            ],
            "Ablation: ATS decision rule",
        ),
    )
    assert any_rule == len(hosts)  # union is complete
    assert majority_rule < any_rule  # majority misses list-tail trackers


def test_ablation_confidence_threshold(benchmark, save_artifact):
    """Accuracy/coverage across thresholds (paper picked 0.8)."""
    factory = PayloadFactory()
    sample = draw_sample(factory.registry.truth)
    classifier = MajorityVoteClassifier(confidence_mode="avg")

    def sweep():
        predictions = classifier.classify_batch(sorted(sample))
        rows = []
        for threshold in (0.5, 0.6, 0.7, 0.8, 0.9, 0.95):
            kept = [p for p in predictions if p.confidence >= threshold]
            correct = sum(1 for p in kept if p.label == sample[p.text])
            rows.append(
                (
                    threshold,
                    correct / len(kept) if kept else 0.0,
                    len(kept) / len(predictions),
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    save_artifact(
        "ablation_threshold.txt",
        render_table(
            ["Threshold", "Accuracy", "Coverage"],
            [[f"{t:.2f}", f"{a:.3f}", f"{c:.3f}"] for t, a, c in rows],
            "Ablation: confidence threshold trade-off",
        ),
    )
    accuracies = [a for _, a, _ in rows]
    coverages = [c for _, _, c in rows]
    assert accuracies == sorted(accuracies)  # monotone up
    assert coverages == sorted(coverages, reverse=True)  # monotone down


@pytest.mark.slow
def test_ablation_oracle_classifier(benchmark, corpus_config, save_artifact):
    """Manual-labeling upper bound: the oracle classifier reproduces
    the linkability matrix at least as exactly as the default model."""
    small = CorpusConfig(
        scale=0.005, services=("tiktok", "duolingo"), seed=corpus_config.seed
    )

    def run_oracle():
        truth = PayloadFactory(seed=small.seed).registry.truth
        oracle = GroundTruthClassifier(truth=truth)
        return DiffAudit(small, classifier=oracle, confidence_threshold=0.5).run()

    oracle_result = benchmark.pedantic(run_oracle, rounds=1, iterations=1)
    default_result = DiffAudit(small).run()

    rows = []
    for service in ("tiktok", "duolingo"):
        for column in ALL_COLUMNS:
            oracle_link = oracle_result.linkability[(service, column)]
            default_link = default_result.linkability[(service, column)]
            rows.append(
                [
                    f"{service}/{column.value}",
                    str(oracle_link.linkable_third_parties),
                    str(default_link.linkable_third_parties),
                ]
            )
    save_artifact(
        "ablation_oracle.txt",
        render_table(
            ["Trace", "Oracle linkable 3Ps", "Default linkable 3Ps"],
            rows,
            "Ablation: oracle vs majority-vote classifier",
        ),
    )
    # The stable-key design makes the default pipeline match the
    # oracle on linkable partner counts.
    for oracle_row in rows:
        assert oracle_row[1] == oracle_row[2], oracle_row


def test_ablation_entity_coverage(benchmark, save_artifact):
    """Unknown-owner rates as Tracker-Radar coverage degrades."""
    universe = default_universe()
    fqdns = universe.ats_fqdns()[:400]

    def sweep():
        rows = []
        for coverage in (1.0, 0.9, 0.5, 0.1):
            db = EntityDatabase(universe, coverage=coverage, seed=3)
            unknown = sum(1 for f in fqdns if db.owner_of(f) is None)
            rows.append((coverage, unknown / len(fqdns)))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    save_artifact(
        "ablation_entity_coverage.txt",
        render_table(
            ["Tracker Radar coverage", "Unknown-owner fraction"],
            [[f"{c:.1f}", f"{u:.3f}"] for c, u in rows],
            "Ablation: entity database coverage",
        ),
    )
    unknown_rates = [u for _, u in rows]
    assert unknown_rates == sorted(unknown_rates)  # degrade monotonically
    assert unknown_rates[0] == 0.0
