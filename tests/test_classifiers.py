"""Unit tests for the classifiers and the Table 3 validation harness.

The band assertions here are the reproduction contract for Table 3:
accuracy ordering and rough magnitudes must match the paper.
"""

import pytest

from repro.datatypes.base import Classification
from repro.datatypes.bertsim import BertFuzzyClassifier
from repro.datatypes.fewshot import FewShotClassifier
from repro.datatypes.gpt4 import (
    GPT4_PROMPT,
    TEMPERATURES,
    Gpt4Classifier,
    temperature_sweep,
)
from repro.datatypes.majority import MajorityVoteClassifier
from repro.datatypes.tfidf import TfidfFuzzyClassifier
from repro.datatypes.validation import (
    CONFIDENCE_THRESHOLDS,
    draw_sample,
    score,
    validate_classifier,
)
from repro.datatypes.zeroshot import ZeroShotClassifier
from repro.ontology.nodes import Level3


@pytest.fixture(scope="module")
def sample(payload_factory):
    return draw_sample(payload_factory.registry.truth)


class TestGpt4Classifier:
    def test_deterministic(self):
        model = Gpt4Classifier(temperature=0.5)
        assert model.classify("email") == model.classify("email")

    def test_temperature_bounds(self):
        with pytest.raises(ValueError):
            Gpt4Classifier(temperature=1.5)  # paper: >1 hallucinates
        with pytest.raises(ValueError):
            Gpt4Classifier(temperature=-0.1)

    def test_confidence_in_range(self):
        model = Gpt4Classifier()
        for key in ("email", "zxq9", "IsOptOutEmailShown", "rtt", ""):
            verdict = model.classify(key)
            assert 0.0 <= verdict.confidence <= 1.0

    def test_clear_key_classified_confidently(self):
        verdict = Gpt4Classifier().classify("advertising_id")
        assert verdict.label is Level3.DEVICE_SOFTWARE_IDENTIFIERS
        assert verdict.confidence >= 0.9

    def test_opaque_key_low_confidence(self):
        verdict = Gpt4Classifier().classify("zzqx9k")
        assert verdict.confidence < 0.7

    def test_abbreviation_world_knowledge(self):
        """'idfa' shares no surface text with 'advertising identifier';
        only abbreviation knowledge solves it."""
        verdict = Gpt4Classifier().classify("idfa")
        assert verdict.label is Level3.DEVICE_SOFTWARE_IDENTIFIERS
        assert Gpt4Classifier().classify("rtt").label is (
            Level3.NETWORK_CONNECTION_INFORMATION
        )

    def test_correlated_noise_is_shared_across_temperatures(self):
        """Keys the model misreads are misread the same way at every
        temperature ('dob' is one) — this is what caps the majority
        vote's gain in Table 3."""
        labels = {m.classify("dob").label for m in temperature_sweep()}
        assert len(labels) == 1  # consistent (wrong or right) everywhere

    def test_decorator_stripping(self):
        verdict = Gpt4Classifier().classify("ga_email")
        assert verdict.label is Level3.CONTACT_INFORMATION

    def test_prompt_contains_required_format(self):
        assert "<input text> // <category> // <score> // <explanation>" in GPT4_PROMPT

    def test_prompt_messages_carry_ontology(self):
        messages = Gpt4Classifier().prompt_messages()
        assert messages[0]["role"] == "system"
        assert "Aliases" in messages[1]["content"]

    def test_formatted_output_shape(self):
        verdict = Gpt4Classifier().classify("email")
        formatted = verdict.formatted()
        assert formatted.count(" // ") == 3

    def test_sweep_has_five_models(self):
        sweep = temperature_sweep()
        assert [m.temperature for m in sweep] == list(TEMPERATURES)


class TestMajorityVote:
    def test_requires_models(self):
        with pytest.raises(ValueError):
            MajorityVoteClassifier(models=[])

    def test_mode_validated(self):
        with pytest.raises(ValueError):
            MajorityVoteClassifier(confidence_mode="median")

    def test_max_geq_avg_confidence(self):
        avg = MajorityVoteClassifier(confidence_mode="avg")
        maximum = MajorityVoteClassifier(confidence_mode="max")
        for key in ("email", "session_id", "country_code", "rtt"):
            assert maximum.classify(key).confidence >= avg.classify(key).confidence

    def test_majority_label_wins(self):
        class Fixed:
            name = "fixed"

            def __init__(self, label, confidence):
                self._label, self._confidence = label, confidence

            def classify(self, text):
                return Classification(text=text, label=self._label, confidence=self._confidence)

        voters = [
            Fixed(Level3.AGE, 0.9),
            Fixed(Level3.AGE, 0.7),
            Fixed(Level3.NAME, 0.99),
        ]
        ensemble = MajorityVoteClassifier(models=voters, confidence_mode="avg")
        verdict = ensemble.classify("x")
        assert verdict.label is Level3.AGE
        assert verdict.confidence == pytest.approx(0.8)


class TestTable3Bands:
    """Accuracy bands pinned to the paper's Table 3 (±0.06)."""

    def test_temperature_zero_accuracy(self, sample):
        report = validate_classifier(Gpt4Classifier(temperature=0.0, seed=11), sample)
        assert 0.66 <= report.accuracy <= 0.78  # paper: 0.72

    def test_temperature_one_accuracy(self, sample):
        model = temperature_sweep()[-1]
        report = validate_classifier(model, sample)
        assert 0.59 <= report.accuracy <= 0.71  # paper: 0.65

    def test_accuracy_decays_with_temperature(self, sample):
        accuracies = [
            validate_classifier(model, sample).accuracy
            for model in temperature_sweep()
        ]
        assert accuracies[0] > accuracies[-1]

    def test_majority_beats_high_temperature_singles(self, sample):
        majority = validate_classifier(
            MajorityVoteClassifier(confidence_mode="avg"), sample
        )
        worst_single = validate_classifier(temperature_sweep()[-1], sample)
        assert majority.accuracy > worst_single.accuracy
        assert 0.69 <= majority.accuracy <= 0.81  # paper: 0.75

    def test_confidence_threshold_raises_accuracy(self, sample):
        report = validate_classifier(
            MajorityVoteClassifier(confidence_mode="avg"), sample
        )
        assert report.at(0.8).accuracy >= report.accuracy
        assert report.at(0.9).accuracy >= report.at(0.7).accuracy

    def test_coverage_decreases_with_threshold(self, sample):
        report = validate_classifier(
            MajorityVoteClassifier(confidence_mode="avg"), sample
        )
        labeled = [report.at(t).labeled for t in CONFIDENCE_THRESHOLDS]
        assert labeled[0] >= labeled[1] >= labeled[2]
        assert labeled[0] <= report.sample_size

    def test_baseline_ordering_matches_paper(self, sample):
        """Paper: GPT-4 ≫ TF-IDF (.31) > BERT (.18) ≈ SetFit (.16) ≫
        zero-shot (.04)."""
        majority = validate_classifier(
            MajorityVoteClassifier(confidence_mode="avg"), sample
        ).accuracy
        tfidf = validate_classifier(TfidfFuzzyClassifier(), sample).accuracy
        bert = validate_classifier(BertFuzzyClassifier(), sample).accuracy
        few = validate_classifier(FewShotClassifier(), sample).accuracy
        zero = validate_classifier(ZeroShotClassifier(), sample).accuracy
        assert majority > tfidf + 0.2
        assert tfidf > bert
        assert bert >= few - 0.05
        assert few > zero
        assert 0.2 <= tfidf <= 0.45  # paper: 0.31
        assert zero <= 0.15  # paper: 0.04


class TestValidationHarness:
    def test_sample_fraction(self, payload_factory):
        sample = draw_sample(payload_factory.registry.truth, fraction=0.10)
        expected = round(len(payload_factory.registry.truth) * 0.10)
        assert abs(len(sample) - expected) <= 1

    def test_sample_deterministic(self, payload_factory):
        a = draw_sample(payload_factory.registry.truth, seed=1)
        b = draw_sample(payload_factory.registry.truth, seed=1)
        assert a == b

    def test_bad_fraction_rejected(self, payload_factory):
        with pytest.raises(ValueError):
            draw_sample(payload_factory.registry.truth, fraction=0.0)

    def test_score_empty_rejected(self):
        with pytest.raises(ValueError):
            score([], {})

    def test_report_at_unknown_threshold(self, sample):
        report = validate_classifier(Gpt4Classifier(), sample)
        with pytest.raises(KeyError):
            report.at(0.5)


# ----------------------------------------------------------------------
# Property tests: classify_batch ≡ map(classify)
# ----------------------------------------------------------------------

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.datatypes.cache import CachingClassifier  # noqa: E402
from repro.datatypes.store import (  # noqa: E402
    PersistentClassifier,
    store_path_for,
)

# Keys as they appear in traffic: short, lowercase, digits and
# underscores.  Duplicates and the empty string are deliberately in
# range — batching must tolerate multisets, not just key sets.
_KEY = st.text(alphabet="abcdef_0123456789", max_size=12)
_KEYS = st.lists(_KEY, max_size=20)


class TestBatchPointwiseProperty:
    """For every classifier layer the engine stacks, ``classify_batch``
    over ANY multiset of keys must equal the per-item ``classify`` map
    — order kept, duplicates answered consistently.  This is the
    property all the batching/memoization optimizations lean on."""

    TFIDF = TfidfFuzzyClassifier()
    BERT = BertFuzzyClassifier()

    @settings(max_examples=25, deadline=None)
    @given(keys=_KEYS)
    def test_tfidf_batch_matches_per_item(self, keys):
        assert self.TFIDF.classify_batch(keys) == [
            self.TFIDF.classify(key) for key in keys
        ]

    @settings(max_examples=25, deadline=None)
    @given(keys=_KEYS)
    def test_bertsim_batch_matches_per_item(self, keys):
        assert self.BERT.classify_batch(keys) == [
            self.BERT.classify(key) for key in keys
        ]

    @settings(max_examples=25, deadline=None)
    @given(keys=_KEYS)
    def test_fresh_cache_batch_matches_per_item(self, keys):
        cache = CachingClassifier(TfidfFuzzyClassifier())
        assert cache.classify_batch(keys) == [
            self.TFIDF.classify(key) for key in keys
        ]

    @settings(max_examples=25, deadline=None)
    @given(keys=_KEYS, primed=_KEYS)
    def test_primed_cache_batch_matches_per_item(self, keys, primed):
        # A cache warmed with an arbitrary other multiset must answer
        # identically to the bare classifier — hits and misses mixed.
        cache = CachingClassifier(TfidfFuzzyClassifier())
        cache.classify_batch(primed)
        assert cache.classify_batch(keys) == [
            self.TFIDF.classify(key) for key in keys
        ]


class TestStoreBatchProperty:
    """The persistent-store layer under the same property: the store
    starts absent and warms across examples, so early draws exercise
    the miss path and later draws the primed round-trip path."""

    @pytest.fixture(scope="class")
    def store_classifier(self, tmp_path_factory):
        path = store_path_for(tmp_path_factory.mktemp("prop-store"))
        return PersistentClassifier.wrap(TfidfFuzzyClassifier(), path)

    @settings(max_examples=25, deadline=None)
    @given(keys=_KEYS)
    def test_store_batch_matches_per_item(self, store_classifier, keys):
        plain = TfidfFuzzyClassifier()
        assert store_classifier.classify_batch(keys) == [
            plain.classify(key) for key in keys
        ]
