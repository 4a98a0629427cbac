"""Dataset summary accumulation — regenerates Table 1."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.net.psl import esld as esld_of
from repro.pipeline.corpus import ParsedTrace


@dataclass
class ServiceDatasetStats:
    """One row of Table 1 (mobile + website merged)."""

    service: str
    fqdns: set[str] = field(default_factory=set)
    eslds: set[str] = field(default_factory=set)
    packets: int = 0
    tcp_flows: int = 0

    @property
    def domain_count(self) -> int:
        return len(self.fqdns)

    @property
    def esld_count(self) -> int:
        return len(self.eslds)


@dataclass
class DatasetSummary:
    """Table 1: per-service rows plus unique totals."""

    per_service: dict[str, ServiceDatasetStats] = field(default_factory=dict)

    def add_trace(self, trace: ParsedTrace) -> None:
        stats = self.per_service.setdefault(
            trace.meta.service, ServiceDatasetStats(service=trace.meta.service)
        )
        hosts = trace.contacted_hosts()
        stats.fqdns.update(hosts)
        stats.eslds.update(filter(None, (esld_of(host) for host in hosts)))
        stats.packets += trace.packet_count
        stats.tcp_flows += trace.flow_count

    def add_counts(
        self,
        service: str,
        fqdns: Iterable[str],
        eslds: Iterable[str],
        packets: int,
        tcp_flows: int,
    ) -> None:
        """Fold one service's slice in, given as its parts (a packed
        shard result ships them without a summary object)."""
        stats = self.per_service.setdefault(
            service, ServiceDatasetStats(service=service)
        )
        stats.fqdns.update(fqdns)
        stats.eslds.update(eslds)
        stats.packets += packets
        stats.tcp_flows += tcp_flows

    # -- totals (unique across services, as Table 1 footnotes) -----------

    @property
    def total_domains(self) -> int:
        union: set[str] = set()
        for stats in self.per_service.values():
            union.update(stats.fqdns)
        return len(union)

    @property
    def total_eslds(self) -> int:
        union: set[str] = set()
        for stats in self.per_service.values():
            union.update(stats.eslds)
        return len(union)

    @property
    def total_packets(self) -> int:
        return sum(stats.packets for stats in self.per_service.values())

    @property
    def total_tcp_flows(self) -> int:
        return sum(stats.tcp_flows for stats in self.per_service.values())

    def rows(self) -> list[tuple[str, int, int, int, int]]:
        out = []
        for service in sorted(self.per_service):
            stats = self.per_service[service]
            out.append(
                (
                    service,
                    stats.domain_count,
                    stats.esld_count,
                    stats.packets,
                    stats.tcp_flows,
                )
            )
        return out
