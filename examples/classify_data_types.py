#!/usr/bin/env python3
"""Standalone data type classification (paper §3.2.2).

Classifies raw traffic keys against the COPPA/CCPA ontology using the
full classifier stack: the five-temperature GPT-4 substitute sweep,
the majority-vote ensemble, and the alternative baselines the paper
compared against.

Usage::

    python examples/classify_data_types.py [key ...]

Without arguments, a demonstrative set of real-traffic-style keys is
used (plain words, abbreviations, camel-case compounds, opaque junk).
"""

import sys

from repro.datatypes.bertsim import BertFuzzyClassifier
from repro.datatypes.gpt4 import temperature_sweep
from repro.datatypes.majority import MajorityVoteClassifier
from repro.datatypes.tfidf import TfidfFuzzyClassifier
from repro.datatypes.zeroshot import ZeroShotClassifier

DEMO_KEYS = [
    "email",
    "advertising_id",
    "IsOptOutEmailShown",
    "pers_ad_show_third_part_measurement",
    "rtt",
    "dob",
    "usr_lang",
    "screen_resolution",
    "bffp3",  # opaque: internal meaning only
    "latitude",
    "interest_segment",
]


def main() -> None:
    keys = sys.argv[1:] or DEMO_KEYS

    print("=== GPT-4 substitute: temperature sweep ===")
    for model in temperature_sweep():
        print(f"\n-- {model.name} --")
        for verdict in model.classify_batch(keys):
            print("  " + verdict.formatted())

    print("\n=== Majority vote (the paper's final labeling scheme) ===")
    majority = MajorityVoteClassifier(confidence_mode="avg")
    for verdict in majority.classify_batch(keys):
        kept = "KEEP" if verdict.confidence >= 0.8 else "drop"
        print(f"  [{kept}@0.8] {verdict.formatted()}")

    print("\n=== Baselines (paper: far less accurate) ===")
    for baseline in (TfidfFuzzyClassifier(), BertFuzzyClassifier(), ZeroShotClassifier()):
        print(f"\n-- {baseline.name} --")
        for verdict in baseline.classify_batch(keys):
            label = verdict.label.value if verdict.label else "(no match)"
            print(f"  {verdict.text:<40} -> {label} ({verdict.confidence:.2f})")


if __name__ == "__main__":
    main()
