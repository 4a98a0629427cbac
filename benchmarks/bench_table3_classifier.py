"""Table 3 — GPT-4 classification validation.

Regenerates the paper's per-temperature and majority-vote rows:
accuracy plus accuracy/coverage at confidence 0.7/0.8/0.9 on the
manually-labeled 10% sample.
"""

import pytest

from repro.datatypes.gpt4 import temperature_sweep
from repro.datatypes.majority import MajorityVoteClassifier
from repro.datatypes.validation import draw_sample, validate_classifier
from repro.reporting.tables import render_table3
from repro.services.payloads import PayloadFactory

PAPER = {
    "gpt4-t0": 0.72,
    "gpt4-t0.25": 0.74,
    "gpt4-t0.5": 0.69,
    "gpt4-t0.75": 0.66,
    "gpt4-t1": 0.65,
    "gpt4-majority-max": 0.75,
    "gpt4-majority-avg": 0.75,
}


@pytest.fixture(scope="module")
def sample():
    return draw_sample(PayloadFactory().registry.truth)


def run_sweep(sample):
    reports = [validate_classifier(model, sample) for model in temperature_sweep()]
    for mode in ("max", "avg"):
        reports.append(
            validate_classifier(MajorityVoteClassifier(confidence_mode=mode), sample)
        )
    return reports


def test_table3_gpt4_sweep(benchmark, sample, save_artifact):
    reports = benchmark.pedantic(run_sweep, args=(sample,), rounds=1, iterations=1)
    paper_lines = "\n".join(f"  paper {k}: {v:.2f}" for k, v in PAPER.items())
    save_artifact(
        "table3.txt",
        render_table3(reports) + f"\n\nsample n={len(sample)} (paper: 397)\n" + paper_lines,
    )

    by_name = {report.classifier: report for report in reports}
    # Accuracy within ±0.06 of the paper for every row.
    for name, paper_accuracy in PAPER.items():
        assert abs(by_name[name].accuracy - paper_accuracy) <= 0.06, name
    # Temperature decay and majority gain.
    assert by_name["gpt4-t0"].accuracy > by_name["gpt4-t1"].accuracy
    assert by_name["gpt4-majority-avg"].accuracy >= by_name["gpt4-t1"].accuracy
    # Threshold behaviour: accuracy up, coverage down.
    majority = by_name["gpt4-majority-avg"]
    assert majority.at(0.9).accuracy >= majority.at(0.7).accuracy
    assert majority.at(0.9).labeled <= majority.at(0.7).labeled
