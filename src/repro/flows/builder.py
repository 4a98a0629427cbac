"""Flow construction from parsed traces (paper §3.2).

The builder joins three analyses per request:

1. **extraction** — raw data types from body/query/cookies, which the
   caller runs (:func:`repro.datatypes.extract.extract_from_request`)
   and passes in as keys;
2. **classification** — raw type → level-3 ontology category via the
   configured classifier, kept only above the confidence threshold
   (the paper uses Majority-Avg @ 0.8);
3. **destination labeling** — FQDN → first/third party × ATS.

Classification is memoized per unique key, which is what makes
whole-corpus processing cheap (the paper classified its 3,968 unique
data types once, not its 440K packets).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.datatypes.base import Classification, Classifier
from repro.datatypes.cache import CachingClassifier
from repro.destinations.party import DestinationLabeler
from repro.model import AgeGroup, Platform, TraceColumn, TraceKind
from repro.net.psl import esld as esld_of
from repro.ontology.nodes import Level3


@dataclass
class GroundTruthClassifier:
    """Oracle classifier: the human-annotator upper bound.

    Uses a known key → category map (the generator's registry stands in
    for the paper's manual labeling).  Exists for ablations — measuring
    how much classifier noise moves each result — not for the default
    pipeline.
    """

    truth: dict[str, Level3]
    name: str = "ground-truth"

    def classify(self, text: str) -> Classification:
        label = self.truth.get(text)
        return Classification(
            text=text,
            label=label,
            confidence=1.0 if label else 0.0,
            explanation="annotated",
        )

    def classify_batch(self, texts: list[str]) -> list[Classification]:
        return [self.classify(text) for text in texts]


@dataclass
class FlowBuilder:
    """Stateful flow construction over a whole corpus."""

    classifier: Classifier
    confidence_threshold: float = 0.8
    _cache: CachingClassifier = field(init=False, repr=False)
    # Thresholded label per key — the per-request lookup table, and the
    # keys this builder classified (per builder even when the cache
    # layer is shared or pre-warmed).  The classifier stack is
    # descended once per new key; repeat keys resolve here without
    # even a cache-layer round-trip.
    _labels: dict[str, Level3 | None] = field(init=False, repr=False)
    #: Keys resolved straight from the label table — the lookups that
    #: were cache-layer hits before the table existed.  Cache hit/miss
    #: accounting stays comparable across versions by adding these to
    #: the cache layer's own hits.
    lookup_hits: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self._cache = CachingClassifier.wrap(self.classifier)
        self._labels = {}
        self.lookup_hits = 0

    def _thresholded(self, verdict: Classification) -> Level3 | None:
        return (
            verdict.label
            if verdict.label is not None
            and verdict.confidence >= self.confidence_threshold
            else None
        )

    def labels_for_keys(self, keys: list[str]) -> list[Level3 | None]:
        """Classify raw keys in one batch (memoized, threshold applied)."""
        labels = self._labels
        missing = [key for key in keys if key not in labels]
        self.lookup_hits += len(keys) - len(missing)
        if missing:
            for verdict in self._cache.classify_batch(missing):
                labels[verdict.text] = self._thresholded(verdict)
        return [labels[key] for key in keys]

    def prime_sequence(self, key_lists: Iterable[list[str]]) -> None:
        """Classify many traces' keys in ONE batched call, ahead of
        per-request flow building.

        Each list is deduplicated first-occurrence-first and the lists
        then concatenated, so the cache layer's hit/miss arithmetic is
        the same however a run groups its traces into calls — one call
        per trace or one per shard — key for key.  One call costs one
        classifier-stack descent: one persistent-store round-trip and
        one inner batch; the per-request lookups after it are all
        in-memory hits.
        """
        keys = [key for key_list in key_lists for key in dict.fromkeys(key_list)]
        if keys:
            for verdict in self._cache.classify_batch(keys):
                self._labels[verdict.text] = self._thresholded(verdict)

    def flows_for_destination(
        self,
        fqdn: str,
        labeler: DestinationLabeler,
        service: str,
        platform: Platform,
        kind: TraceKind,
        age: AgeGroup | None,
        keys: list[str],
    ) -> list[tuple]:
        """All data flows one outgoing request to ``fqdn`` produces.

        ``keys`` are the request's extracted raw keys
        (:func:`repro.datatypes.extract.extract_from_request`): the
        engine extracts them first, so request bodies can be dropped
        before classification, then builds flows from ``(fqdn, keys)``
        pairs here.  At most one flow per level-3 category.  Each flow
        is a row for :meth:`repro.flows.dataflow.FlowTable.extend`:
        the values of a :class:`repro.flows.dataflow.FlowObservation`'s
        fields in declaration order, which the table packs as it
        appends them (``FlowObservation(*row)`` builds the object).
        """
        column = TraceColumn.for_trace(kind, age)
        destination = labeler.label(fqdn)
        rows: list[tuple] = []
        seen: set[Level3] = set()
        labels = self.labels_for_keys(keys)
        for key, label in zip(keys, labels):
            if label is None or label in seen:
                continue
            seen.add(label)
            rows.append(
                (
                    service,
                    column,
                    platform,
                    label,
                    destination.fqdn,
                    destination.esld or esld_of(destination.fqdn),
                    destination.party,
                    key,
                )
            )
        return rows

    @property
    def classified_keys(self) -> int:
        return len(self._labels)
