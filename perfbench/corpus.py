"""Benchmark input corpora, built with the repo's own generate, capture
and impair code.

``repro generate`` writes every platform of every service; the mobile
workloads need only the PCAP + key-log units, and the delta workload
needs a handful of units regenerated from a second seed.  Both are
built here from the same public pieces the CLI uses:
``TrafficGenerator.generate_corpus`` (one contiguous slice of each
service's trace units, which is byte-identical to that slice of a full
run), ``CorpusProcessor.capture_mobile`` / ``process_web`` and the
atomic artifact writers.

Run through ``launch.py``::

    python3 perfbench/launch.py corpus mobile --output DIR --seed N \
        --scale 0.2 --profile heavy [--impair reorder-dup]
    python3 perfbench/launch.py corpus variant --output DIR --seed N \
        --units NAME [NAME ...]
    python3 perfbench/launch.py corpus usable SEED,SEED,... [SEED,SEED,...]
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.fsutil import atomic_write_bytes, atomic_write_text
from repro.model import Platform
from repro.pipeline.corpus import CorpusProcessor
from repro.pipeline.replay import ReplayCorpus, trace_record, write_manifest
from repro.services.generator import CorpusConfig, TrafficGenerator, service_trace_units


def _unit_range(config: CorpusConfig, platform: Platform) -> tuple[int, int]:
    """The ``[start, stop)`` slice holding one platform's units.

    ``generate_corpus`` applies one slice to every service, so the
    platform must sit at the same indexes in all of them.
    """
    ranges = set()
    for spec in config.service_specs():
        indexes = [
            index
            for index, (unit_platform, _, _) in enumerate(service_trace_units(spec))
            if unit_platform is platform
        ]
        if indexes != list(range(indexes[0], indexes[-1] + 1)):
            raise SystemExit(f"{spec.key}: {platform.value} units are not contiguous")
        ranges.add((indexes[0], indexes[-1] + 1))
    if len(ranges) != 1:
        raise SystemExit(f"{platform.value} units differ in position across services")
    return ranges.pop()


def _write_mobile(processor: CorpusProcessor, trace, directory: Path):
    meta, pcap, keylog_text = processor.capture_mobile(trace)
    atomic_write_bytes(directory / f"{meta.name}.pcap", pcap.to_bytes())
    atomic_write_text(directory / f"{meta.name}.keylog", keylog_text)
    return meta


def mobile_corpus(
    directory: Path, seed: int, scale: float, profile: str, impair: str | None
) -> int:
    """Write every service's mobile units plus a manifest; returns the
    unit count."""
    config = CorpusConfig(seed=seed, scale=scale, profile=profile, impair=impair)
    directory.mkdir(parents=True, exist_ok=True)
    processor = CorpusProcessor(config=config)
    records = [
        trace_record(_write_mobile(processor, trace, directory))
        for trace in processor.generator.generate_corpus(
            unit_range=_unit_range(config, Platform.MOBILE)
        )
    ]
    write_manifest(directory, config, records)
    return len(records)


def replace_units(directory: Path, seed: int, names: list[str]) -> None:
    """Overwrite the named units' files with captures of ``seed``.

    The corpus keeps its manifest, names and config; only the bytes of
    the chosen units change, the way a re-captured session would.
    """
    corpus = ReplayCorpus.scan(directory)
    config_block = corpus.manifest["config"]
    by_name = {unit.meta.name: unit for unit in corpus.units}
    for name in names:
        meta = by_name[name].meta
        config = CorpusConfig(
            seed=seed,
            scale=config_block["scale"],
            profile=config_block["profile"],
            impair=config_block.get("impair"),
            services=(meta.service,),
        )
        (spec,) = config.service_specs()
        index = [
            (platform, kind, age) for platform, kind, age in service_trace_units(spec)
        ].index((meta.platform, meta.kind, meta.age))
        processor = CorpusProcessor(config=config, artifacts_dir=directory)
        (trace,) = processor.generator.generate_corpus(unit_range=(index, index + 1))
        if trace.platform is Platform.MOBILE:
            _write_mobile(processor, trace, directory)
        else:
            processor.process_web(trace)


def usable_seed(candidates: list[int]) -> int:
    """The first candidate seed the traffic generator accepts.

    Some seeds make the payload registry draw one key for two data
    types, and the generator refuses them; the benchmark's inputs must
    not depend on that, so a run derives a few candidates and uses the
    first that works.
    """
    for seed in candidates:
        try:
            TrafficGenerator(CorpusConfig(seed=seed))
        except ValueError:
            continue
        return seed
    raise SystemExit(f"no usable seed among {candidates}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="corpus")
    sub = parser.add_subparsers(dest="kind", required=True)
    mobile = sub.add_parser("mobile")
    mobile.add_argument("--output", type=Path, required=True)
    mobile.add_argument("--seed", type=int, required=True)
    mobile.add_argument("--scale", type=float, required=True)
    mobile.add_argument("--profile", default="standard")
    mobile.add_argument("--impair", default=None)
    variant = sub.add_parser("variant")
    variant.add_argument("--output", type=Path, required=True)
    variant.add_argument("--seed", type=int, required=True)
    variant.add_argument("--units", nargs="+", required=True)
    usable = sub.add_parser("usable")
    usable.add_argument("groups", nargs="+", help="comma-separated candidate seeds")
    args = parser.parse_args(argv)
    if args.kind == "usable":
        chosen = [usable_seed([int(seed) for seed in group.split(",")]) for group in args.groups]
        print(" ".join(map(str, chosen)))
    elif args.kind == "mobile":
        mobile_corpus(args.output, args.seed, args.scale, args.profile, args.impair)
    else:
        replace_units(args.output, args.seed, args.units)
    return 0

