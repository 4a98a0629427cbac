"""Artifact replay: audit captured HAR/PCAP corpora from disk.

``generate`` archives each trace unit the way the study archived its
raw data — ``{name}.har`` for web/desktop sessions, ``{name}.pcap`` +
``{name}.keylog`` for mobile — plus a ``manifest.json`` recording the
corpus config and per-trace metadata in generation order.  This module
closes the loop: it scans an artifacts directory, groups the files
into :class:`TraceUnit` records, reconstructs :class:`ParsedTrace`
objects (HAR → requests directly; PCAP + key log → TCP reassembly →
TLS decryption → HTTP parsing, via :mod:`repro.net`), and hands them
to the sharded engine so classify → flow-build → audit → report run
unchanged on replayed input.

Parity guarantee: replaying a ``generate`` output directory yields the
same :class:`repro.pipeline.diffaudit.DiffAuditResult` — byte-identical
JSON export — as a direct in-memory audit of the same config, because
the in-memory path round-trips every trace through exactly the same
serialized forms (HAR JSON, binary PCAP, NSS key-log text) that the
artifacts hold, and the manifest preserves generation order.

Externally captured corpora work too: without a manifest, trace
metadata is derived from ``{service}-{platform}-{kind}-{age}`` file
stems, units are replayed in sorted-stem order, and a missing key log
simply leaves every TLS flow opaque (destination-only accounting).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import mmap
import os
from dataclasses import dataclass
from pathlib import Path

from repro.capture.base import TraceMeta
from repro.fsutil import atomic_write_text
from repro.model import AgeGroup, Platform, TraceKind
from repro.net.har import read_har
from repro.pipeline.corpus import (
    ParsedTrace,
    parsed_trace_from_har,
    parsed_trace_from_mobile,
)
from repro.services.config import CorpusConfig

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1


class ReplayError(ValueError):
    """Raised when an artifacts directory cannot be replayed."""


# ----------------------------------------------------------------------
# Trace units
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TraceUnit:
    """One replayable trace: identity plus the files that hold it.

    Exactly one of ``har`` / ``pcap`` is set.  ``keylog`` is optional
    alongside ``pcap``; without it every TLS flow stays opaque.
    The unit is picklable, so shard workers load file contents
    themselves instead of shipping parsed traces across processes.
    """

    meta: TraceMeta
    har: Path | None = None
    pcap: Path | None = None
    keylog: Path | None = None

    def __post_init__(self) -> None:
        if (self.har is None) == (self.pcap is None):
            raise ReplayError(
                f"trace {self.meta.name!r} needs exactly one of a .har or a .pcap file"
            )


def load_parsed_trace(unit: TraceUnit) -> ParsedTrace:
    """Read one unit's artifact files back into a :class:`ParsedTrace`.

    Malformed or unreadable artifacts (truncated HAR JSON, bad PCAP
    magic, vanished files — external corpora are the advertised input)
    surface as :class:`ReplayError` naming the file, the exception the
    CLI turns into a clean exit; raw parser tracebacks from inside a
    pool worker would be undebuggable."""
    source = unit.har if unit.har is not None else unit.pcap
    try:
        if unit.har is not None:
            return parsed_trace_from_har(unit.meta, read_har(unit.har))
        keylog_text = (
            unit.keylog.read_text(encoding="utf-8") if unit.keylog is not None else ""
        )
        # The pcap path (not its bytes) goes down to the decoder, which
        # memory-maps it and walks records zero-copy.
        return parsed_trace_from_mobile(unit.meta, unit.pcap, keylog_text)
    except ReplayError:
        raise
    except (ValueError, OSError) as exc:
        # ValueError covers HarError, PcapError and JSONDecodeError.
        raise ReplayError(
            f"cannot replay trace {unit.meta.name!r} from {source}: {exc}"
        ) from exc


# ----------------------------------------------------------------------
# Content addressing
# ----------------------------------------------------------------------

# Bumped whenever the digest *encoding* changes (not when results
# change — that is the store's result schema, see
# repro.datatypes.store.UNIT_RESULT_SCHEMA).
UNIT_DIGEST_VERSION = 1

_DIGEST_CHUNK = 1 << 20

# Fixed role order for digesting a unit's member files.  The digest
# must never depend on how the corpus was enumerated, only on what
# the unit *is*.
_DIGEST_ROLES = ("har", "pcap", "keylog")


def _digest_file(hasher: "hashlib._Hash", path: Path, eager: bool) -> None:
    """Feed one member file's bytes into ``hasher``.

    The default path memory-maps the file (artifacts can be large and
    are already mmapped by the decoder, so pages are likely resident);
    filesystems that refuse to map fall back to chunked reads.  With
    ``eager=True`` the file is read whole instead — both paths hash
    exactly the same byte sequence, which the property tests pin.
    """
    with open(path, "rb") as handle:
        if eager:
            hasher.update(handle.read())
            return
        size = os.fstat(handle.fileno()).st_size
        if size == 0:
            return
        try:
            view = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError):
            while chunk := handle.read(_DIGEST_CHUNK):
                hasher.update(chunk)
            return
        with view:
            hasher.update(view)


def unit_digest(unit: TraceUnit, *, eager: bool = False) -> str:
    """The content address of one trace unit (SHA-256 hex digest).

    Hashes the unit's identity (every :class:`TraceMeta` field) and
    the raw bytes of each member file in fixed role order — har, pcap,
    keylog — with explicit length framing, so the digest is a pure
    function of (metadata, file contents):

    * enumeration order of the corpus never enters it;
    * any single-byte change to any member file changes it;
    * adding or removing a key log changes it (the framing records
      which roles are present and how long each is).

    Unreadable files surface as :class:`ReplayError`, the same
    contract as :func:`load_parsed_trace`.
    """
    meta = unit.meta
    hasher = hashlib.sha256()
    hasher.update(
        (
            f"repro-unit/{UNIT_DIGEST_VERSION}\n"
            f"{meta.service}\n{meta.platform.value}\n{meta.kind.value}\n"
            f"{meta.age.value if meta.age else 'none'}\n"
        ).encode("utf-8")
    )
    try:
        for role in _DIGEST_ROLES:
            path: Path | None = getattr(unit, role)
            if path is None:
                hasher.update(f"{role}:absent\n".encode("utf-8"))
                continue
            hasher.update(f"{role}:{path.stat().st_size}\n".encode("utf-8"))
            _digest_file(hasher, path, eager)
    except OSError as exc:
        raise ReplayError(
            f"cannot digest trace {meta.name!r}: {exc}"
        ) from exc
    return hasher.hexdigest()


def unit_digest_or_placeholder(unit: TraceUnit) -> str:
    """A unit's content digest, or ``"unavailable"``.

    Error paths want the digest for the record (degraded-unit entries,
    strict failure messages) but must never let digesting a *broken*
    unit — vanished file, permission error — mask the original
    failure."""
    try:
        return unit_digest(unit)
    except ReplayError:
        return "unavailable"


def strict_unit_error(unit: TraceUnit, exc: Exception) -> ReplayError:
    """Fail-fast decode error, enriched for the operator.

    A corrupt artifact used to exit 2 with only the parser's complaint;
    recovering meant bisecting the corpus by hand.  The strict-mode
    error always names the offending unit, its artifact path and its
    content digest, and points at ``--keep-going`` as the quarantine
    alternative."""
    source = unit.har if unit.har is not None else unit.pcap
    return ReplayError(
        f"{exc} [unit {unit.meta.name!r}, artifact {source}, "
        f"digest {unit_digest_or_placeholder(unit)}; "
        "use --keep-going to quarantine this unit and continue]"
    )


def meta_from_name(name: str) -> TraceMeta:
    """Parse ``{service}-{platform}-{kind}-{age}`` artifact stems.

    The fallback for corpora without a manifest.  The service part may
    itself contain hyphens, so the three trailing tokens are consumed
    from the right.
    """
    parts = name.split("-")
    if len(parts) < 4:
        raise ReplayError(
            f"cannot derive trace metadata from {name!r}: expected "
            "{service}-{platform}-{kind}-{age} (write a manifest.json instead)"
        )
    age_token, kind_token, platform_token = parts[-1], parts[-2], parts[-3]
    service = "-".join(parts[:-3])
    try:
        platform = Platform(platform_token)
        kind = TraceKind(kind_token)
        age = None if age_token == "none" else AgeGroup(age_token)
    except ValueError as exc:
        raise ReplayError(f"cannot derive trace metadata from {name!r}: {exc}") from exc
    return TraceMeta(service=service, platform=platform, kind=kind, age=age)


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------


def trace_record(meta: TraceMeta) -> dict:
    """The manifest entry for one generated trace."""
    return {
        "name": meta.name,
        "service": meta.service,
        "platform": meta.platform.value,
        "kind": meta.kind.value,
        "age": meta.age.value if meta.age else None,
    }


def _meta_from_record(record: dict) -> TraceMeta:
    try:
        return TraceMeta(
            service=record["service"],
            platform=Platform(record["platform"]),
            kind=TraceKind(record["kind"]),
            age=AgeGroup(record["age"]) if record.get("age") else None,
        )
    except (KeyError, ValueError) as exc:
        raise ReplayError(f"malformed manifest trace record {record!r}: {exc}") from exc


def write_manifest(
    directory: str | Path, config: CorpusConfig, records: list[dict]
) -> Path:
    """Write ``manifest.json`` next to the artifacts it describes.

    The services list is derived from the trace records themselves
    (first-appearance order), so a manifest merged across incremental
    ``generate`` runs stays truthful about what is on disk.
    """
    directory = Path(directory)
    services = list(dict.fromkeys(record["service"] for record in records))
    config_block = {
        "seed": config.seed,
        "scale": config.scale,
        "profile": config.profile,
        "services": services,
    }
    if config.impair is not None:
        # Recorded only when set, so clean corpora keep their manifest
        # bytes — an impaired corpus must say so or replay would
        # silently mislabel it as clean traffic.
        config_block["impair"] = config.impair
    document = {
        "version": MANIFEST_VERSION,
        "config": config_block,
        "traces": records,
    }
    path = directory / MANIFEST_NAME
    # Atomic: an interrupted generate must leave the previous manifest
    # intact, not a torn JSON file that poisons every later replay.
    atomic_write_text(path, json.dumps(document, indent=1))
    return path


def merge_manifest_traces(
    existing: dict, config: CorpusConfig, records: list[dict]
) -> list[dict]:
    """Fold a new ``generate`` run's records into an existing manifest.

    Incremental generation (``generate --services youtube --output D``
    then ``--services tiktok --output D``) must not silently drop the
    first run's traces from manifest-driven replay.  Regenerated
    services replace their old records; other services are kept.  The
    corpus knobs must match — mixing seeds, scales or profiles in one
    directory would produce a corpus no single config describes.
    """
    old_config = existing.get("config", {})
    for field_name in ("seed", "scale", "profile"):
        new_value = getattr(config, field_name)
        if field_name in old_config and old_config[field_name] != new_value:
            raise ReplayError(
                f"cannot extend this artifacts directory: its manifest records "
                f"{field_name}={old_config[field_name]!r} but this run uses "
                f"{new_value!r}; use a fresh --output directory"
            )
    # ``impair`` is absent from clean manifests, so compare through the
    # None default — mixing impaired and clean captures in one corpus
    # directory would be a corpus no single config describes.
    if old_config.get("impair") != config.impair:
        raise ReplayError(
            f"cannot extend this artifacts directory: its manifest records "
            f"impair={old_config.get('impair')!r} but this run uses "
            f"{config.impair!r}; use a fresh --output directory"
        )
    regenerated = {record["service"] for record in records}
    kept = [
        record
        for record in existing.get("traces", [])
        if record.get("service") not in regenerated
    ]
    return kept + records


def read_manifest(directory: str | Path) -> dict | None:
    """Load ``manifest.json`` if present; None for manifest-less corpora."""
    path = Path(directory) / MANIFEST_NAME
    if not path.exists():
        return None
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ReplayError(f"unreadable {path}: {exc}") from exc
    if not isinstance(document, dict) or "traces" not in document:
        raise ReplayError(f"{path} is not a replay manifest (no 'traces' key)")
    version = document.get("version")
    if version != MANIFEST_VERSION:
        raise ReplayError(
            f"unsupported manifest version {version!r} in {path} "
            f"(this build reads version {MANIFEST_VERSION})"
        )
    return document


# ----------------------------------------------------------------------
# Corpus scanning
# ----------------------------------------------------------------------


@dataclass
class ReplayCorpus:
    """An artifacts directory resolved into ordered trace units."""

    directory: Path
    units: list[TraceUnit]
    manifest: dict | None = None

    @classmethod
    def scan(cls, directory: str | Path) -> "ReplayCorpus":
        """Group a directory's artifact files into trace units.

        With a manifest, units follow its (generation) order — the
        order the parity guarantee relies on.  Without one, units are
        built from ``*.har`` / ``*.pcap`` files in sorted-stem order
        with metadata parsed from the stems.
        """
        directory = Path(directory)
        if not directory.is_dir():
            raise ReplayError(f"artifacts directory {directory} does not exist")
        manifest = read_manifest(directory)
        if manifest is not None:
            units = [
                cls._unit_for(directory, _meta_from_record(record))
                for record in manifest["traces"]
            ]
        else:
            # A set, not a list: a stem present as both .har and .pcap
            # must yield one unit (har preferred, below), not two.
            stems = sorted(
                {
                    path.stem
                    for path in directory.iterdir()
                    if path.suffix in (".har", ".pcap")
                }
            )
            if not stems:
                raise ReplayError(f"no .har or .pcap artifacts found in {directory}")
            units = [
                cls._unit_for(directory, meta_from_name(stem)) for stem in stems
            ]
        return cls(directory=directory, units=units, manifest=manifest)

    @staticmethod
    def _unit_for(directory: Path, meta: TraceMeta) -> TraceUnit:
        har = directory / f"{meta.name}.har"
        pcap = directory / f"{meta.name}.pcap"
        keylog = directory / f"{meta.name}.keylog"
        if har.exists():
            return TraceUnit(meta=meta, har=har)
        if pcap.exists():
            return TraceUnit(
                meta=meta, pcap=pcap, keylog=keylog if keylog.exists() else None
            )
        raise ReplayError(
            f"trace {meta.name!r} has neither {har.name} nor {pcap.name}"
        )

    def services(self) -> list[str]:
        """Distinct services in first-appearance (generation) order."""
        seen: dict[str, None] = {}
        for unit in self.units:
            seen.setdefault(unit.meta.service, None)
        return list(seen)

    def units_for(self, service: str) -> list[TraceUnit]:
        """One service's trace units, preserving corpus order."""
        return [unit for unit in self.units if unit.meta.service == service]

    def provenance(self) -> "ReplayProvenance":
        return ReplayProvenance(
            directory=str(self.directory),
            manifest=self.manifest is not None,
            traces=len(self.units),
            har_traces=sum(1 for unit in self.units if unit.har is not None),
            pcap_traces=sum(1 for unit in self.units if unit.pcap is not None),
            services=tuple(self.services()),
        )


@dataclass(frozen=True)
class ReplayProvenance:
    """Where a replayed result's input came from (JSON-export payload)."""

    directory: str
    manifest: bool
    traces: int
    har_traces: int
    pcap_traces: int
    services: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "source": "artifacts",
            "directory": self.directory,
            "manifest": self.manifest,
            "traces": self.traces,
            "har_traces": self.har_traces,
            "pcap_traces": self.pcap_traces,
            "services": list(self.services),
        }


def replay_config(
    corpus: ReplayCorpus,
    *,
    seed: int | None = None,
    scale: float | None = None,
    profile: str | None = None,
    impair: str | None = None,
    services: tuple[str, ...] | None = None,
    fallback: CorpusConfig | None = None,
) -> CorpusConfig:
    """The effective config for auditing a replayed corpus.

    ``None`` means *unspecified*: the manifest supplies the value
    (replay never regenerates traffic, so seed/scale/profile only
    describe the corpus and the manifest is authoritative for them),
    then ``fallback`` — e.g. the CLI's defaults.  Explicit values
    always win, even when they happen to equal a default.  Without a
    manifest, unspecified services come from the scanned artifacts.
    """
    fallback = fallback if fallback is not None else CorpusConfig()
    manifest_config = (corpus.manifest or {}).get("config", {})

    def pick(field: str, explicit):
        if explicit is not None:
            return explicit
        if field in manifest_config:
            return manifest_config[field]
        return getattr(fallback, field)

    if services is None:
        recorded = manifest_config.get("services")
        services = tuple(recorded) if recorded else tuple(corpus.services())
    try:
        return dataclasses.replace(
            fallback,
            seed=pick("seed", seed),
            scale=pick("scale", scale),
            profile=pick("profile", profile),
            impair=pick("impair", impair),
            services=tuple(services),
        )
    except (TypeError, ValueError) as exc:
        # Manifests are hand-writable; a bad value (e.g. an unknown
        # profile) must surface as a replay error, not a traceback.
        raise ReplayError(
            f"invalid corpus config in {corpus.directory / MANIFEST_NAME}: {exc}"
        ) from exc
