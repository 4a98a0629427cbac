"""Golden-corpus parity: the guard rail around the decode rewrite.

The corpus is *pinned, not stored*: generation is fully deterministic
for a config, so instead of committing ~2 MB of binary artifacts the
repo checks in ``tests/data/golden_corpus.sha256`` — the SHA-256 of
every artifact the golden config produces.  The fixture regenerates
the corpus and the first test proves the bytes still match the pinned
digests; the remaining tests then hold every decode API to identical
results on those exact bytes:

* eager (:class:`PcapFile`), streaming (raw bytes through
  :class:`PcapReader`), and mmap (file path) decoding must produce
  byte-identical :class:`ParsedTrace` output per artifact;
* replaying the corpus through the engine sequentially and with
  ``--jobs 2`` (which exercises sub-shard splitting) must serialize to
  the same JSON document as the in-memory audit of the same config;
* batch decryption of every mobile unit, clean and ``reorder-dup``
  impaired, each with its full key log and with every second secret
  withheld (the golden corpus has no pinned-certificate flows, so this
  is what makes opaque contacts), must hash to
  :data:`DECODE_FINGERPRINT`.  Parity between decode paths cannot
  catch a change made to all of them at once, and fields such as
  ``OpaqueContact.frame_count`` never reach the report;
* every unit's stored result from a cold incremental run must hash to
  :data:`UNIT_RESULT_FINGERPRINT`, so a change to the stored form —
  say, a pool interned in another order — cannot slip past parity
  tests that compare paths within one commit.

Regenerate the digest file only for an *intentional* generator change:
``PYTHONPATH=src python -m repro generate --output D --scale 0.002
--profile light --seed 11 --services tiktok youtube`` then
``(cd D && sha256sum $(ls | sort)) > tests/data/golden_corpus.sha256``.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro import CorpusConfig, DiffAudit
from repro.capture.decrypt import decrypt_mobile_artifact
from repro.cli import main
from repro.flows.dataflow import FlowObservation
from repro.net.pcap import PcapFile
from repro.pipeline.corpus import parsed_trace_from_mobile
from repro.pipeline.engine import generate_corpus_artifacts
from repro.pipeline.replay import ReplayCorpus
from repro.reporting.export import result_to_json
from repro.services.config import impairment_profile
from repro.stream.impair import impair_pcap, trace_impair_seed

GOLDEN_CONFIG = CorpusConfig(
    seed=11, scale=0.002, profile="light", services=("tiktok", "youtube")
)
DIGEST_FILE = Path(__file__).parent / "data" / "golden_corpus.sha256"
# SHA-256 over decryption_fingerprint() of each mobile unit (sorted by
# name): clean then reorder-dup impaired, each with the full then the
# halved key log.  Change it only for an intentional change to decode
# output.
DECODE_FINGERPRINT = "7f07760394f66d1e7d7a5e09a65c19181b7a2922740482cf5db3a9956c99d264"
# SHA-256 over every unit's stored result (sorted by unit name) after a
# cold incremental audit under PYTHONHASHSEED=0: pool repr, rows,
# parties, contacted hosts, raw keys, owners and dataset row.  Change
# it only for an intentional change to the stored form; existing
# stores then need UNIT_RESULT_SCHEMA raised.
UNIT_RESULT_FINGERPRINT = (
    "ecb0ae63f4e8a15874d0ddd1495a18895d8071ccc6f0f1727d7e8e8bbb93ae35"
)


@pytest.fixture(scope="module")
def golden_corpus(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("golden-corpus")
    generate_corpus_artifacts(GOLDEN_CONFIG, directory)
    return directory


def _pinned_digests() -> dict[str, str]:
    digests = {}
    for line in DIGEST_FILE.read_text(encoding="utf-8").splitlines():
        digest, _, name = line.strip().partition("  ")
        digests[name] = digest
    return digests


def _assert_pinned(directory: Path) -> None:
    expected = _pinned_digests()
    actual = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in directory.iterdir()
        if path.is_file()
    }
    assert set(actual) == set(expected), "artifact file set changed"
    mismatched = sorted(
        name for name, digest in actual.items() if expected[name] != digest
    )
    assert not mismatched, f"artifact bytes drifted: {mismatched}"


class TestPinnedBytes:
    def test_corpus_matches_checked_in_digests(self, golden_corpus):
        """Every artifact byte is pinned; drift fails loudly here."""
        _assert_pinned(golden_corpus)

    def test_generation_parses_nothing_back(self, tmp_path, monkeypatch):
        """``repro generate`` stops after capture: with the PCAP decoder
        and the HAR reader refusing every call, it still writes every
        pinned byte."""

        def refuse(*args, **kwargs):
            raise AssertionError("generation parsed an artifact back")

        for module in ("repro.capture.decrypt", "repro.pipeline.corpus"):
            monkeypatch.setattr(f"{module}.decrypt_mobile_artifact", refuse)
        for module in ("repro.net.har", "repro.pipeline.corpus"):
            monkeypatch.setattr(f"{module}.har_from_json", refuse)
        generate_corpus_artifacts(GOLDEN_CONFIG, tmp_path, jobs=1)
        _assert_pinned(tmp_path)


class TestDecodeApiParity:
    def test_eager_streaming_and_mmap_decode_identically(self, golden_corpus):
        corpus = ReplayCorpus.scan(golden_corpus)
        pcap_units = [unit for unit in corpus.units if unit.pcap is not None]
        assert pcap_units, "golden corpus must contain mobile traces"
        for unit in pcap_units:
            keylog_text = (
                unit.keylog.read_text(encoding="utf-8") if unit.keylog else ""
            )
            raw = unit.pcap.read_bytes()
            eager = parsed_trace_from_mobile(
                unit.meta, PcapFile.from_bytes(raw), keylog_text
            )
            streaming = parsed_trace_from_mobile(unit.meta, raw, keylog_text)
            mmapped = parsed_trace_from_mobile(unit.meta, unit.pcap, keylog_text)
            assert streaming == eager, f"streaming decode diverged for {unit.meta.name}"
            assert mmapped == eager, f"mmap decode diverged for {unit.meta.name}"

    def test_streaming_decode_recovers_requests(self, golden_corpus):
        corpus = ReplayCorpus.scan(golden_corpus)
        recovered = 0
        for unit in corpus.units:
            if unit.pcap is None:
                continue
            keylog_text = (
                unit.keylog.read_text(encoding="utf-8") if unit.keylog else ""
            )
            decryption = decrypt_mobile_artifact(
                unit.pcap.read_bytes(), keylog_text
            )
            assert decryption.packet_count > 0
            recovered += len(decryption.requests)
        assert recovered > 0, "no plaintext recovered from the golden corpus"


def decryption_fingerprint(decryption) -> tuple:
    """What :data:`DECODE_FINGERPRINT` hashes; changing it means re-pinning."""
    return (
        [(r.flow, r.request.timestamp, r.request.to_bytes()) for r in decryption.requests],
        [(o.host, o.first_timestamp, o.frame_count) for o in decryption.opaque],
        decryption.packet_count,
        decryption.flow_count,
        decryption.undecryptable_flows,
    )


class TestPinnedDecode:
    def test_batch_decode_matches_pinned_fingerprint(self, golden_corpus):
        corpus = ReplayCorpus.scan(golden_corpus)
        units = sorted(
            (unit for unit in corpus.units if unit.pcap is not None),
            key=lambda unit: unit.meta.name,
        )
        assert units, "golden corpus must contain mobile traces"
        digest = hashlib.sha256()
        opaque = 0
        for unit in units:
            keylog_text = (
                unit.keylog.read_text(encoding="utf-8") if unit.keylog else ""
            )
            halved = "\n".join(keylog_text.splitlines()[::2])
            raw = unit.pcap.read_bytes()
            impaired = impair_pcap(
                PcapFile.from_bytes(raw),
                impairment_profile("reorder-dup"),
                trace_impair_seed(GOLDEN_CONFIG.seed, unit.meta.name),
            ).to_bytes()
            for capture in (raw, impaired):
                for keylog in (keylog_text, halved):
                    decryption = decrypt_mobile_artifact(capture, keylog)
                    opaque += len(decryption.opaque)
                    fingerprint = repr(decryption_fingerprint(decryption))
                    digest.update(fingerprint.encode())
        assert opaque > 0, "golden corpus must contain opaque contacts"
        assert digest.hexdigest() == DECODE_FINGERPRINT


# Run in a fresh interpreter with a fixed hash seed: hosts and keys
# are interned in set order, so the stored bytes depend on it.
_UNIT_RESULT_PROBE = """
import hashlib, json, pickle, sys, tempfile
from repro import CorpusConfig, DiffAudit
from repro.pipeline.engine import AuditEngine
from repro.pipeline.replay import ReplayCorpus, unit_digest

corpus, config = sys.argv[1], CorpusConfig(**json.loads(sys.argv[2]))
with tempfile.TemporaryDirectory() as cache:
    DiffAudit(config, replay=corpus, cache_dir=cache).run()
    engine = AuditEngine(config=config, replay=corpus, cache_dir=cache)
    store, epoch = engine._unit_result_scope()
    units = sorted(ReplayCorpus.scan(corpus).units, key=lambda unit: unit.meta.name)
    digests = [unit_digest(unit) for unit in units]
    payloads = store.get_unit_results(epoch, digests)
    fingerprint = hashlib.sha256()
    for digest in digests:
        packed = pickle.loads(payloads[digest])
        for part in (
            repr(packed.pool).encode(),
            packed.observations,
            packed.parties,
            packed.contacted,
            packed.raw_keys,
            packed.owners,
            repr(packed.dataset).encode(),
        ):
            fingerprint.update(part)
    print(fingerprint.hexdigest())
"""


class TestPinnedUnitResults:
    def test_stored_unit_results_match_pinned_fingerprint(self, golden_corpus):
        config = json.dumps(
            {
                "seed": GOLDEN_CONFIG.seed,
                "scale": GOLDEN_CONFIG.scale,
                "profile": GOLDEN_CONFIG.profile,
                "services": list(GOLDEN_CONFIG.services),
            }
        )
        src = Path(__file__).resolve().parent.parent / "src"
        completed = subprocess.run(
            [sys.executable, "-c", _UNIT_RESULT_PROBE, str(golden_corpus), config],
            env=dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0"),
            capture_output=True,
            text=True,
            check=True,
        )
        assert completed.stdout.strip() == UNIT_RESULT_FINGERPRINT


@pytest.fixture(scope="module")
def golden_mobile_units(golden_corpus, tmp_path_factory) -> Path:
    """The golden corpus's PCAP+keylog units alone, without a manifest."""
    directory = tmp_path_factory.mktemp("golden-mobile")
    for path in sorted(golden_corpus.iterdir()):
        if path.suffix in (".pcap", ".keylog"):
            shutil.copy(path, directory)
    return directory


class TestFlowRowsBornPacked:
    @pytest.mark.parametrize("command", [["audit", "--jobs", "1"], ["stream"]])
    def test_json_report_builds_no_observation_objects(
        self, golden_mobile_units, tmp_path, monkeypatch, command
    ):
        """Flow rows go from the builder into the shard table packed,
        and the report reads roll-ups derived from the rows."""
        built = []
        init = FlowObservation.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args or kwargs)
            init(self, *args, **kwargs)

        monkeypatch.setattr(FlowObservation, "__init__", counting_init)
        report = tmp_path / "report.json"
        argv = [*command, "--from-artifacts", str(golden_mobile_units)]
        assert main([*argv, "--json", "--output", str(report)]) == 0
        assert json.loads(report.read_text())["unique_flows"] > 0
        assert built == []
        FlowObservation(*"abcdefgh")  # the count does see a build
        assert len(built) == 1


class TestEngineParityOnGoldenCorpus:
    def test_replay_sequential_parallel_and_in_memory_agree(self, golden_corpus):
        """The whole pipeline, all three ways, to one JSON document.

        ``jobs=2`` exercises the size-balanced scheduler's sub-shard
        splitting and unordered submission; output must stay
        byte-identical to the sequential replay *and* to the in-memory
        audit that never touched the artifacts.
        """
        sequential = result_to_json(
            DiffAudit(GOLDEN_CONFIG, replay=golden_corpus, jobs=1).run()
        )
        parallel = result_to_json(
            DiffAudit(GOLDEN_CONFIG, replay=golden_corpus, jobs=2).run()
        )
        in_memory = result_to_json(DiffAudit(GOLDEN_CONFIG).run())
        assert sequential == in_memory
        assert parallel == in_memory


class TestIncrementalParityOnGoldenCorpus:
    """Cold == fully-warm == delta, byte for byte, on the pinned corpus.

    The golden corpus is module-scoped and read-only; every test keeps
    its unit-result cache in its own ``tmp_path`` and the growth test
    generates a corpus of its own.
    """

    def _run(self, corpus, cache, config=GOLDEN_CONFIG, **kwargs):
        result, profile = DiffAudit(
            config, replay=corpus, cache_dir=cache, **kwargs
        ).run_profiled()
        return result_to_json(result), profile["engine"]

    def test_cold_and_warm_match_in_memory_across_executors(
        self, golden_corpus, tmp_path
    ):
        baseline = result_to_json(DiffAudit(GOLDEN_CONFIG).run())
        cache = tmp_path / "cache"
        cold, cold_engine = self._run(golden_corpus, cache)
        assert cold == baseline
        assert cold_engine["unit_hits"] == 0
        total = cold_engine["unit_misses"]
        assert total > 0
        # Fully-warm re-audits: in-process and on the worker pool,
        # every unit is reused and still serializes to the same bytes.
        for kwargs in ({"jobs": 1}, {"jobs": 2}):
            warm, engine = self._run(golden_corpus, cache, **kwargs)
            assert warm == baseline, f"warm run diverged for {kwargs}"
            assert engine["unit_hits"] == total, f"partial reuse for {kwargs}"
            assert engine["unit_misses"] == 0, f"recompute under {kwargs}"

    def test_delta_run_recomputes_only_grown_units(self, tmp_path):
        """Grow the corpus by one service; only its units recompute."""
        corpus = tmp_path / "corpus"
        cache = tmp_path / "cache"
        tiktok_only = CorpusConfig(
            seed=11, scale=0.002, profile="light", services=("tiktok",)
        )
        generate_corpus_artifacts(tiktok_only, corpus)
        first, first_engine = self._run(corpus, cache, config=tiktok_only, jobs=2)
        del first

        generate_corpus_artifacts(
            CorpusConfig(
                seed=11, scale=0.002, profile="light", services=("youtube",)
            ),
            corpus,
        )
        grown = ReplayCorpus.scan(corpus)
        new_units = len(grown.units_for("youtube"))
        assert new_units > 0
        delta, delta_engine = self._run(corpus, cache)
        assert delta_engine["unit_hits"] == first_engine["unit_misses"]
        assert delta_engine["unit_misses"] == new_units
        # Byte parity with a from-scratch audit of the grown corpus.
        fresh = result_to_json(DiffAudit(GOLDEN_CONFIG, replay=corpus).run())
        assert delta == fresh
