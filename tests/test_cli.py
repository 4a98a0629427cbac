"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_service_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["audit", "--services", "myspace"])

    def test_defaults(self):
        # Parser defaults are None ("not specified") so replay can fill
        # omitted flags from a manifest; _config resolves the effective
        # defaults for in-memory runs.
        from repro.cli import _config

        args = build_parser().parse_args(["audit"])
        assert args.services is None
        assert args.jobs == 1
        config = _config(args)
        assert config.scale == 0.02
        assert config.seed == 2023
        assert config.services is None
        assert config.profile == "standard"

    def test_jobs_flag(self):
        args = build_parser().parse_args(["audit", "--jobs", "4"])
        assert args.jobs == 4

    def test_profile_flag(self):
        args = build_parser().parse_args(["audit", "--profile", "heavy"])
        assert args.profile == "heavy"

    def test_unknown_profile_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["audit", "--profile", "ludicrous"])

    def test_non_positive_jobs_rejected(self):
        for bad in ("0", "-2"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["audit", "--jobs", bad])

    def test_generate_accepts_jobs_and_profile(self):
        args = build_parser().parse_args(
            ["generate", "--jobs", "2", "--profile", "light"]
        )
        assert args.jobs == 2
        assert args.profile == "light"

    def test_services_choices_derive_from_catalog(self):
        # The CLI must accept exactly the catalog's services — a
        # hardcoded copy drifted once.  The parser and the catalog both
        # read SERVICE_KEYS; this pins that they agree.
        from repro.services.catalog import SERVICES
        from repro.services.config import SERVICE_KEYS

        assert SERVICE_KEYS == tuple(spec.key for spec in SERVICES())
        for key in SERVICE_KEYS:
            args = build_parser().parse_args(["audit", "--services", key])
            assert args.services == [key]

    def test_audit_and_report_accept_from_artifacts(self):
        args = build_parser().parse_args(["audit", "--from-artifacts", "d"])
        assert args.from_artifacts == "d"
        args = build_parser().parse_args(["report", "table5", "--from-artifacts", "d"])
        assert args.from_artifacts == "d"


class TestClassifyCommand:
    def test_classify_keys(self, capsys):
        assert main(["classify", "email", "advertising_id"]) == 0
        output = capsys.readouterr().out
        assert "Contact Information" in output
        assert "Device Software Identifiers" in output

    def test_output_format(self, capsys):
        main(["classify", "email"])
        line = capsys.readouterr().out.strip()
        assert line.count(" // ") == 3

    def test_no_keys_on_a_tty_prints_hint_instead_of_hanging(
        self, capsys, monkeypatch
    ):
        import sys as _sys

        monkeypatch.setattr(_sys.stdin, "isatty", lambda: True, raising=False)
        assert main(["classify"]) == 2
        err = capsys.readouterr().err
        assert "stdin is a terminal" in err

    def test_piped_stdin_still_reads_keys(self, capsys, monkeypatch):
        import io
        import sys as _sys

        stdin = io.StringIO("email\n\nage\n")
        stdin.isatty = lambda: False
        monkeypatch.setattr(_sys, "stdin", stdin)
        assert main(["classify"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2


class TestAuditCommand:
    def test_summary_output(self, capsys):
        code = main(
            ["audit", "--services", "youtube", "--scale", "0.003", "--seed", "7"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "=== youtube ===" in output
        assert "pre-consent processing: True" in output

    def test_json_output(self, capsys):
        main(["audit", "--services", "youtube", "--scale", "0.003", "--json"])
        document = json.loads(capsys.readouterr().out)
        assert "youtube" in document["dataset"]

    def test_parallel_jobs_match_sequential(self, capsys):
        # Two services, so --jobs 2 really exercises the process pool.
        base = ["audit", "--services", "youtube", "tiktok", "--scale", "0.003", "--seed", "7"]
        main(base)
        sequential = capsys.readouterr().out
        main([*base, "--jobs", "2"])
        assert capsys.readouterr().out == sequential

    def test_csv_export(self, tmp_path, capsys):
        main(
            [
                "audit",
                "--services",
                "youtube",
                "--scale",
                "0.003",
                "--output",
                str(tmp_path),
            ]
        )
        assert (tmp_path / "flows.csv").exists()
        assert (tmp_path / "findings.csv").exists()

    def test_json_path_without_json_flag_errors_early(self, capsys):
        assert main(["audit", "--output", "results.json"]) == 2
        err = capsys.readouterr().err
        assert "--json" in err and "directory" in err

    def test_json_flag_with_directory_output_errors_early(self, tmp_path, capsys):
        assert main(["audit", "--json", "--output", str(tmp_path)]) == 2
        assert "existing directory" in capsys.readouterr().err

    def test_json_output_into_missing_directory_errors_early(self, tmp_path, capsys):
        target = tmp_path / "missing" / "results.json"
        assert main(["audit", "--json", "--output", str(target)]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_csv_output_to_existing_file_errors_early(self, tmp_path, capsys):
        target = tmp_path / "occupied"
        target.write_text("x")
        assert main(["audit", "--output", str(target)]) == 2
        assert "existing file" in capsys.readouterr().err

    def test_with_provenance_requires_replay_and_json(self, capsys):
        assert main(["audit", "--with-provenance"]) == 2
        assert "--with-provenance" in capsys.readouterr().err


class TestReplayCommands:
    def test_generate_then_replay_is_byte_identical(self, tmp_path, capsys):
        base = ["--services", "youtube", "--scale", "0.003", "--seed", "7"]
        main(["generate", *base, "--output", str(tmp_path)])
        capsys.readouterr()
        assert main(["audit", *base, "--json"]) == 0
        direct = capsys.readouterr().out
        # Corpus flags intentionally omitted: the manifest supplies them.
        assert main(["audit", "--from-artifacts", str(tmp_path), "--json"]) == 0
        assert capsys.readouterr().out == direct

    def test_replay_with_provenance(self, tmp_path, capsys):
        main(
            [
                "generate",
                "--services",
                "youtube",
                "--scale",
                "0.003",
                "--output",
                str(tmp_path),
            ]
        )
        capsys.readouterr()
        main(["audit", "--from-artifacts", str(tmp_path), "--json", "--with-provenance"])
        document = json.loads(capsys.readouterr().out)
        assert document["provenance"]["source"] == "artifacts"
        assert document["provenance"]["manifest"] is True
        assert document["provenance"]["services"] == ["youtube"]

    def test_explicit_flag_beats_manifest(self, tmp_path, capsys):
        main(
            [
                "generate",
                "--services",
                "youtube",
                "--scale",
                "0.003",
                "--seed",
                "7",
                "--output",
                str(tmp_path),
            ]
        )
        capsys.readouterr()
        # Explicitly typing the default seed must override manifest seed 7.
        main(
            ["audit", "--from-artifacts", str(tmp_path), "--seed", "2023", "--json"]
        )
        captured = capsys.readouterr()
        document = json.loads(captured.out)
        assert document["config"]["seed"] == 2023
        # ...with a warning that only the reported config changes.
        assert "overrides the corpus manifest" in captured.err

    def test_parallel_replay_runs_worker_processes(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        base = ["--services", "youtube", "tiktok", "--scale", "0.003", "--seed", "7"]
        main(["generate", *base, "--output", str(corpus)])
        reports = {}
        for jobs in ("1", "2"):
            report = tmp_path / f"report-{jobs}.json"
            profile = tmp_path / f"profile-{jobs}.json"
            argv = ["audit", "--from-artifacts", str(corpus), "--jobs", jobs]
            argv += ["--json", "--output", str(report), "--profile-out", str(profile)]
            assert main(argv) == 0
            reports[jobs] = report.read_bytes()
        engine = json.loads((tmp_path / "profile-2.json").read_text())["engine"]
        assert engine["executor"] == "process"
        assert reports["2"] == reports["1"]

    def test_replay_missing_directory_errors(self, tmp_path, capsys):
        assert main(["audit", "--from-artifacts", str(tmp_path / "nope")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_replay_missing_service_errors(self, tmp_path, capsys):
        main(
            [
                "generate",
                "--services",
                "youtube",
                "--scale",
                "0.003",
                "--output",
                str(tmp_path),
            ]
        )
        capsys.readouterr()
        code = main(
            ["audit", "--from-artifacts", str(tmp_path), "--services", "tiktok"]
        )
        assert code == 2
        assert "no artifacts for configured" in capsys.readouterr().err

    def test_report_from_artifacts(self, tmp_path, capsys):
        base = ["--services", "youtube", "--scale", "0.003", "--seed", "7"]
        main(["generate", *base, "--output", str(tmp_path)])
        capsys.readouterr()
        assert main(["report", "table1", "--from-artifacts", str(tmp_path)]) == 0
        assert "youtube" in capsys.readouterr().out


class TestGenerateCommand:
    def test_writes_artifacts(self, tmp_path, capsys):
        code = main(
            [
                "generate",
                "--services",
                "youtube",
                "--scale",
                "0.002",
                "--output",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert list(tmp_path.glob("*.har"))
        assert list(tmp_path.glob("*.pcap"))


class TestReportCommand:
    def test_table5_static(self, capsys):
        code = main(
            ["report", "table5", "--services", "youtube", "--scale", "0.002"]
        )
        assert code == 0
        assert "Data Type Ontology" in capsys.readouterr().out

    def test_fig3(self, capsys):
        main(["report", "fig3", "--services", "youtube", "--scale", "0.002"])
        assert "youtube" in capsys.readouterr().out


class TestCacheDirFlag:
    def test_audit_report_classify_accept_cache_dir(self):
        args = build_parser().parse_args(["audit", "--cache-dir", "c"])
        assert args.cache_dir == "c"
        args = build_parser().parse_args(["report", "table5", "--cache-dir", "c"])
        assert args.cache_dir == "c"
        args = build_parser().parse_args(["classify", "k", "--cache-dir", "c"])
        assert args.cache_dir == "c"

    def test_audit_with_cache_dir_matches_plain(self, tmp_path, capsys):
        base = ["audit", "--services", "youtube", "--scale", "0.003", "--json"]
        main(base)
        plain = capsys.readouterr().out
        cache = str(tmp_path / "cache")
        main([*base, "--cache-dir", cache])  # cold
        assert capsys.readouterr().out == plain
        main([*base, "--cache-dir", cache])  # warm
        assert capsys.readouterr().out == plain
        main([*base, "--cache-dir", cache, "--jobs", "2"])  # warm, parallel
        assert capsys.readouterr().out == plain

    def test_classify_verbose_reports_warm_hits(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["classify", "email", "--cache-dir", cache, "--verbose"]) == 0
        cold = capsys.readouterr()
        assert "1 classified" in cold.err
        assert main(["classify", "email", "--cache-dir", cache, "--verbose"]) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out  # same verdict, cold or warm
        assert "1 store hits" in warm.err
        assert "hit rate 100.0%" in warm.err

    def test_classify_verbose_without_cache_dir(self, capsys):
        assert main(["classify", "email", "email", "--verbose"]) == 0
        err = capsys.readouterr().err
        assert "2 lookups" in err and "1 memory hits" in err

    def test_classify_warms_the_audit_store(self, tmp_path, capsys):
        # Interactive classification and full audits share one store.
        from repro.datatypes.store import ClassificationStore, store_path_for

        cache = str(tmp_path / "cache")
        main(["classify", "email", "--cache-dir", cache])
        capsys.readouterr()
        with ClassificationStore(store_path_for(cache)) as store:
            assert store.get("gpt4-majority-avg", "email") is not None


class TestCacheCommand:
    def _warm(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        main(["classify", "email", "age", "--cache-dir", cache])
        capsys.readouterr()
        return cache

    def test_stats(self, tmp_path, capsys):
        cache = self._warm(tmp_path, capsys)
        assert main(["cache", "stats", "--cache-dir", cache]) == 0
        output = capsys.readouterr().out
        assert "entries: 2" in output
        assert "gpt4-majority-avg: 2" in output
        assert "runs recorded: 1" in output

    def test_stats_missing_store_errors(self, tmp_path, capsys):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 2
        assert "no classification store" in capsys.readouterr().err

    def test_export_json_lines(self, tmp_path, capsys):
        cache = self._warm(tmp_path, capsys)
        assert main(["cache", "export", "--cache-dir", cache]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        entries = [json.loads(line) for line in lines]
        assert {entry["text"] for entry in entries} == {"email", "age"}
        assert all(entry["classifier"] == "gpt4-majority-avg" for entry in entries)

    def test_export_to_file(self, tmp_path, capsys):
        cache = self._warm(tmp_path, capsys)
        target = tmp_path / "dump.jsonl"
        assert main(
            ["cache", "export", "--cache-dir", cache, "--output", str(target)]
        ) == 0
        assert len(target.read_text().strip().splitlines()) == 2

    def test_prune_requires_criterion(self, tmp_path, capsys):
        cache = self._warm(tmp_path, capsys)
        assert main(["cache", "prune", "--cache-dir", cache]) == 2
        assert "cache clear" in capsys.readouterr().err

    def test_prune_by_classifier(self, tmp_path, capsys):
        cache = self._warm(tmp_path, capsys)
        code = main(
            ["cache", "prune", "--cache-dir", cache, "--classifier", "gpt4-majority-avg"]
        )
        assert code == 0
        assert "pruned 2 entries" in capsys.readouterr().out

    def test_clear(self, tmp_path, capsys):
        cache = self._warm(tmp_path, capsys)
        assert main(["cache", "clear", "--cache-dir", cache]) == 0
        assert "cleared 2 entries" in capsys.readouterr().out
        main(["cache", "stats", "--cache-dir", cache])
        assert "entries: 0" in capsys.readouterr().out

    def test_cache_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache"])

    def test_stats_reports_unit_results(self, tmp_path, capsys):
        from repro.datatypes.store import ClassificationStore, store_path_for

        cache = self._warm(tmp_path, capsys)
        with ClassificationStore(store_path_for(cache)) as store:
            store.put_unit_results("clf@0.8", [("d1", "youtube", b"p")])
            store.put_unit_results(
                "clf@0.8", [("d0", "youtube", b"old")], schema_version=0
            )
        assert main(["cache", "stats", "--cache-dir", cache]) == 0
        output = capsys.readouterr().out
        assert "unit results: 1" in output
        assert "youtube: 1" in output
        assert "stale (older result schema): 1" in output
        assert "cache prune --unit-results" in output

    def test_prune_unit_results_is_a_criterion_on_its_own(
        self, tmp_path, capsys
    ):
        from repro.datatypes.store import ClassificationStore, store_path_for

        cache = self._warm(tmp_path, capsys)
        with ClassificationStore(store_path_for(cache)) as store:
            store.put_unit_results(
                "clf@0.8", [("d0", "youtube", b"old")], schema_version=0
            )
        code = main(["cache", "prune", "--cache-dir", cache, "--unit-results"])
        assert code == 0
        assert (
            "pruned 0 entries and 1 stale unit results"
            in capsys.readouterr().out
        )
        with ClassificationStore(store_path_for(cache)) as store:
            assert store.stats().stale_unit_results == 0
            assert store.stats().total_entries == 2  # verdicts untouched

    def test_corrupt_store_is_reported_not_quarantined(self, tmp_path, capsys):
        # Inspection commands must never destroy the evidence they were
        # asked to report on: a corrupt store exits 2 and stays on disk.
        from repro.datatypes.store import store_path_for

        path = store_path_for(tmp_path)
        garbage = b"not an sqlite database" * 40
        path.write_bytes(garbage)
        for command in ("stats", "export", "prune", "clear"):
            argv = ["cache", command, "--cache-dir", str(tmp_path)]
            if command == "prune":
                argv += ["--below", "0.5"]
            assert main(argv) == 2, command
            assert "corrupt" in capsys.readouterr().err
            assert path.read_bytes() == garbage
            assert not path.with_suffix(".sqlite.corrupt").exists()

    def test_classify_mid_run_store_failure_still_succeeds(
        self, tmp_path, capsys, monkeypatch
    ):
        # Verdicts come from the (pure) classifier; a store that dies
        # mid-run degrades with a warning, never a failure exit.
        from repro.datatypes.store import ClassificationStore, StoreError

        def explode(self, *args, **kwargs):
            raise StoreError("disk full")

        monkeypatch.setattr(ClassificationStore, "put_many", explode)
        code = main(
            ["classify", "email", "--cache-dir", str(tmp_path / "c"), "--verbose"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "Contact Information" in captured.out
        assert "disabled for this process" in captured.err


class TestIncrementalFlags:
    BASE = ["--services", "youtube", "--scale", "0.003", "--seed", "7"]

    def test_audit_and_report_accept_no_incremental(self):
        args = build_parser().parse_args(["audit", "--no-incremental"])
        assert args.no_incremental is True
        args = build_parser().parse_args(["report", "fig3", "--no-incremental"])
        assert args.no_incremental is True
        args = build_parser().parse_args(["audit"])
        assert args.no_incremental is False

    def test_audit_verbose_reports_hits_and_dirty_counts(
        self, tmp_path, capsys
    ):
        corpus = str(tmp_path / "corpus")
        cache = str(tmp_path / "cache")
        main(["generate", *self.BASE, "--output", corpus])
        capsys.readouterr()
        replayed = ["audit", "--from-artifacts", corpus, "--cache-dir", cache,
                    "--json", "--verbose"]
        assert main(replayed) == 0
        cold = capsys.readouterr()
        assert "0 unit hits" in cold.err
        assert "dirty units recomputed" in cold.err
        assert main(replayed) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out  # byte-identical report
        assert "0 dirty units recomputed" in warm.err
        assert main([*replayed, "--no-incremental"]) == 0
        off = capsys.readouterr()
        assert off.out == cold.out
        assert "incremental replay: inactive" in off.err

    def test_audit_verbose_without_replay_reports_inactive(self, capsys):
        assert main(["audit", *self.BASE, "--verbose", "--json"]) == 0
        err = capsys.readouterr().err
        assert "incremental replay: inactive" in err
        assert "--from-artifacts" in err


class TestVersionFlag:
    def test_version_exits_zero_and_prints(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        output = capsys.readouterr().out
        import repro

        assert output.strip() == f"repro {repro.__version__}"

    def test_version_prefers_package_metadata(self, monkeypatch):
        from repro import cli

        monkeypatch.setattr(
            "importlib.metadata.version", lambda name: "9.9.9-test"
        )
        assert cli._package_version() == "9.9.9-test"


class TestImpairFlag:
    def test_audit_generate_report_accept_impair(self):
        for argv in (
            ["audit", "--impair", "reorder"],
            ["generate", "--impair", "reorder-dup"],
            ["report", "table5", "--impair", "duplicate"],
        ):
            assert build_parser().parse_args(argv).impair == argv[-1]

    def test_unknown_impair_profile_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["audit", "--impair", "apocalyptic"])

    def test_generate_impair_replays_byte_identical(self, tmp_path, capsys):
        base = ["--services", "youtube", "--scale", "0.003", "--seed", "7",
                "--impair", "reorder-dup"]
        main(["generate", *base, "--output", str(tmp_path)])
        capsys.readouterr()
        assert main(["audit", *base, "--json"]) == 0
        direct = capsys.readouterr().out
        # The manifest carries the impair profile; replay fills it in.
        assert main(["audit", "--from-artifacts", str(tmp_path), "--json"]) == 0
        assert capsys.readouterr().out == direct


class TestStreamCommand:
    def _generate(self, tmp_path, capsys):
        base = ["--services", "youtube", "--scale", "0.003", "--seed", "7"]
        main(["generate", *base, "--output", str(tmp_path)])
        capsys.readouterr()
        return base

    def test_requires_exactly_one_source(self, capsys):
        assert main(["stream"]) == 2
        assert "exactly one source" in capsys.readouterr().err
        assert main(["stream", "--live", "--pcap", "x.pcap"]) == 2
        assert "exactly one source" in capsys.readouterr().err

    def test_follow_requires_pcap(self, capsys):
        assert main(["stream", "--live", "--follow"]) == 2
        assert "--follow requires --pcap" in capsys.readouterr().err

    def test_stream_artifacts_matches_batch_audit(self, tmp_path, capsys):
        base = self._generate(tmp_path, capsys)
        assert main(["audit", *base, "--json"]) == 0
        batch = capsys.readouterr().out
        assert main(["stream", "--from-artifacts", str(tmp_path), "--json"]) == 0
        assert capsys.readouterr().out == batch

    def test_stream_live_matches_batch_audit(self, capsys):
        base = ["--services", "youtube", "--scale", "0.003", "--seed", "7"]
        assert main(["audit", *base, "--json"]) == 0
        batch = capsys.readouterr().out
        assert main(["stream", "--live", *base, "--json"]) == 0
        assert capsys.readouterr().out == batch

    def test_snapshots_written(self, tmp_path, capsys):
        base = self._generate(tmp_path, capsys)
        snaps = tmp_path / "snaps"
        code = main(
            [
                "stream",
                "--from-artifacts",
                str(tmp_path),
                "--snapshot-every",
                "3",
                "--snapshot-dir",
                str(snaps),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "snapshot 1:" in captured.err
        numbered = sorted(snaps.glob("snapshot_0*.json"))
        assert numbered
        first = json.loads(numbered[0].read_text())
        assert first["traces"] == 3
        final = json.loads((snaps / "snapshot_final.json").read_text())
        assert final["traces"] >= first["traces"]

    def test_single_pcap_stream(self, tmp_path, capsys):
        self._generate(tmp_path, capsys)
        pcap = sorted(tmp_path.glob("*.pcap"))[0]
        keylog = pcap.with_suffix(".keylog")
        code = main(
            [
                "stream",
                "--pcap",
                str(pcap),
                "--keylog",
                str(keylog),
                "--scale",
                "0.003",
                "--seed",
                "7",
                "--json",
            ]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["config"]["services"] == ["youtube"]

    def test_missing_artifacts_directory_errors(self, tmp_path, capsys):
        assert main(["stream", "--from-artifacts", str(tmp_path / "nope")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_unstemmable_pcap_name_errors(self, tmp_path, capsys):
        pcap = tmp_path / "capture.pcap"
        pcap.write_bytes(b"")
        assert main(["stream", "--pcap", str(pcap)]) == 2
        assert "cannot derive trace metadata" in capsys.readouterr().err

    def test_interrupt_flushes_final_snapshot(self, tmp_path, capsys, monkeypatch):
        base = self._generate(tmp_path, capsys)
        snaps = tmp_path / "snaps"
        import repro.stream.sources as sources_module

        original = sources_module.ArtifactStreamSource

        class InterruptingSource(original):
            def events(self):
                iterator = super().events()
                yield next(iterator)
                yield next(iterator)
                raise KeyboardInterrupt

        monkeypatch.setattr(sources_module, "ArtifactStreamSource", InterruptingSource)
        code = main(
            [
                "stream",
                "--from-artifacts",
                str(tmp_path),
                "--snapshot-dir",
                str(snaps),
            ]
        )
        captured = capsys.readouterr()
        assert code == 130
        assert "interrupted after 2 traces" in captured.err
        final = json.loads((snaps / "snapshot_final.json").read_text())
        assert final["traces"] == 2


class TestGracefulInterrupt:
    def test_main_translates_keyboard_interrupt_to_130(self, capsys, monkeypatch):
        from repro import cli

        def explode(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "cmd_distill", explode)
        parser_args = ["distill"]
        assert main(parser_args) == 130
        assert "interrupted" in capsys.readouterr().err

    def test_pool_executor_tears_down_on_worker_interrupt(self):
        from repro.pipeline.engine import ProcessPoolShardExecutor

        executor = ProcessPoolShardExecutor(jobs=2)
        with pytest.raises(KeyboardInterrupt):
            executor.map_shards(list(range(4)), work=_interrupt_in_worker)


def _interrupt_in_worker(task):
    if task == 0:
        raise KeyboardInterrupt
    import time

    time.sleep(0.2)
    return task
