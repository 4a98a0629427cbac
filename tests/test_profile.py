"""Unit tests for the audit-path profiling layer."""

import json

import pytest

from repro import CorpusConfig, DiffAudit
from repro.pipeline.profile import (
    ENGINE_PROFILE_FIELDS,
    PROFILE_VERSION,
    SHARD_STAGES,
    StageTimer,
    profile_document,
    validate_profile,
    write_profile,
)


def _engine_section(**overrides) -> dict:
    section = {
        "executor": "sequential",
        "jobs": 1,
        "tasks": 2,
        "shard_setup_s": 0.01,
        "execute_s": 1.5,
        "unpack_s": 0.0,
        "merge_s": 0.02,
        "stages": {"generate": 1.2, "classify": 0.2},
    }
    section.update(overrides)
    return section


def _document(**overrides) -> dict:
    document = profile_document("audit", 1.6, _engine_section(), 0.1)
    document.update(overrides)
    return document


class TestStageTimer:
    def test_stage_accumulates_wall_time(self):
        timer = StageTimer()
        with timer.stage("generate"):
            pass
        with timer.stage("generate"):
            pass
        assert timer.get("generate") >= 0.0
        assert set(timer.times) == {"generate"}

    def test_stage_records_on_exception(self):
        timer = StageTimer()
        with pytest.raises(RuntimeError):
            with timer.stage("classify"):
                raise RuntimeError("boom")
        assert "classify" in timer.times

    def test_add_and_get(self):
        timer = StageTimer()
        timer.add("decode", 0.5)
        timer.add("decode", 0.25)
        assert timer.get("decode") == pytest.approx(0.75)
        assert timer.get("absent") == 0.0

    def test_merge_folds_stage_tables(self):
        left, right = StageTimer(), StageTimer()
        left.add("extract", 1.0)
        right.add("extract", 0.5)
        right.add("label", 0.1)
        left.merge(right.times)
        assert left.get("extract") == pytest.approx(1.5)
        assert left.get("label") == pytest.approx(0.1)

    def test_as_dict_is_sorted_and_rounded(self):
        timer = StageTimer()
        timer.add("label", 0.123456789)
        timer.add("decode", 1.0)
        table = timer.as_dict()
        assert list(table) == ["decode", "label"]
        assert table["label"] == 0.123457


class TestProfileDocument:
    def test_document_shape(self):
        document = _document()
        assert document["version"] == PROFILE_VERSION
        assert document["workload"] == "audit"
        assert document["wall_time_s"] == 1.6
        assert document["downstream_s"] == 0.1
        assert document["engine"]["executor"] == "sequential"

    def test_valid_document_passes(self):
        validate_profile(_document())

    def test_non_mapping_rejected(self):
        with pytest.raises(ValueError, match="must be a mapping"):
            validate_profile(["not", "a", "profile"])

    @pytest.mark.parametrize(
        "field", ["version", "workload", "wall_time_s", "engine", "downstream_s"]
    )
    def test_each_top_level_field_required(self, field):
        document = _document()
        del document[field]
        with pytest.raises(ValueError, match="missing fields"):
            validate_profile(document)

    def test_wrong_version_rejected(self):
        with pytest.raises(ValueError, match="unsupported profile version"):
            validate_profile(_document(version=99))

    @pytest.mark.parametrize("field", ENGINE_PROFILE_FIELDS)
    def test_each_engine_field_required(self, field):
        engine = _engine_section()
        del engine[field]
        with pytest.raises(ValueError, match="engine section missing"):
            validate_profile(_document(engine=engine))

    def test_unknown_stage_rejected(self):
        engine = _engine_section(stages={"generate": 1.0, "teleport": 0.5})
        with pytest.raises(ValueError, match="unknown stages"):
            validate_profile(_document(engine=engine))

    def test_negative_stage_time_rejected(self):
        engine = _engine_section(stages={"generate": -0.1})
        with pytest.raises(ValueError, match="non-negative"):
            validate_profile(_document(engine=engine))

    def test_non_numeric_wall_time_rejected(self):
        with pytest.raises(ValueError, match="must be a number"):
            validate_profile(_document(wall_time_s="fast"))

    def test_known_stage_names_validate(self):
        engine = _engine_section(
            stages={stage: 0.0 for stage in SHARD_STAGES}
        )
        validate_profile(_document(engine=engine))


class TestWriteProfile:
    def test_writes_json_and_creates_parents(self, tmp_path):
        target = tmp_path / "nested" / "profile.json"
        written = write_profile(target, _document())
        assert written == target
        validate_profile(json.loads(target.read_text()))

    def test_invalid_document_never_written(self, tmp_path):
        target = tmp_path / "profile.json"
        with pytest.raises(ValueError):
            write_profile(target, {"version": PROFILE_VERSION})
        assert not target.exists()


class TestRealRunProfile:
    def test_run_profiled_produces_valid_document(self):
        config = CorpusConfig(scale=0.002, seed=3, services=("youtube",))
        result, profile = DiffAudit(config).run_profiled()
        validate_profile(profile)
        assert profile["workload"] == "audit"
        assert result.flows is not None
        engine = profile["engine"]
        assert engine["executor"] == "sequential"
        assert engine["jobs"] == 1
        assert engine["tasks"] == 1
        # A generated corpus spends its time generating, classifying
        # and flow-building — and the attribution must account for a
        # real share of the wall clock.
        stages = engine["stages"]
        for stage in ("setup", "generate", "extract", "classify", "flow_build"):
            assert stage in stages
        assert "decode" not in stages  # nothing replayed from disk
        assert sum(stages.values()) <= profile["wall_time_s"]
        assert profile["wall_time_s"] > 0
