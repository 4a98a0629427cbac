"""Entity database — the DuckDuckGo Tracker Radar substitute.

Tracker Radar maps commonly contacted third-party domains to their
owning organizations with category and fingerprinting metadata.  Our
:class:`EntityDatabase` offers the same lookups over the simulated
universe; like the real dataset it is *incomplete* — a configurable
fraction of long-tail domains is deliberately absent so the pipeline's
"owner unknown" path is exercised (the paper could not determine the
owner of some domains, §4.2).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from repro.destinations.dataset import DomainUniverse, Organization, default_universe
from repro.net.psl import esld as esld_of


@dataclass(frozen=True)
class EntityRecord:
    """What Tracker Radar knows about one eSLD."""

    domain: str
    owner_name: str
    categories: tuple[str, ...]
    fingerprinting: int


class EntityDatabase:
    """eSLD → organization lookups with deliberate long-tail gaps."""

    def __init__(
        self,
        universe: DomainUniverse | None = None,
        coverage: float = 0.9,
        seed: int = 7,
    ) -> None:
        if not 0.0 <= coverage <= 1.0:
            raise ValueError("coverage must be within [0, 1]")
        self._universe = universe or default_universe()
        rng = random.Random(seed)
        self._records: dict[str, EntityRecord] = {}
        for domain in self._universe.eslds():
            org = self._universe.org_of_esld(domain)
            if org is None:
                continue
            # Named orgs are always covered; only the synthesized tail
            # can be missing, mirroring Tracker Radar's head-heavy
            # coverage.
            if self._universe.is_tail_ats(org) and rng.random() > coverage:
                continue
            self._records[domain] = EntityRecord(
                domain=domain,
                owner_name=org.name,
                categories=org.categories,
                fingerprinting=org.fingerprinting,
            )

    def __len__(self) -> int:
        return len(self._records)

    def lookup_esld(self, domain: str) -> EntityRecord | None:
        return self._records.get(domain)

    def lookup_fqdn(self, fqdn: str) -> EntityRecord | None:
        return self.lookup_esld(esld_of(fqdn))

    def owner_of(self, fqdn: str) -> str | None:
        record = self.lookup_fqdn(fqdn)
        return record.owner_name if record else None

    def organizations(self) -> set[str]:
        return {record.owner_name for record in self._records.values()}


@lru_cache(maxsize=1)
def default_entity_db() -> EntityDatabase:
    return EntityDatabase()


def resolve_owner(
    fqdn: str,
    entity_db: EntityDatabase,
    whois_client: "WhoisClient | None" = None,
) -> str | None:
    """Paper §3.2.3 resolution order: Tracker Radar first, whois second."""
    owner = entity_db.owner_of(fqdn)
    if owner is not None:
        return owner
    if whois_client is not None:
        return whois_client.registrant(esld_of(fqdn))
    return None


# Imported late to avoid a cycle in type checkers; whois only needs the
# universe, not the entity DB.
from repro.destinations.whois import WhoisClient  # noqa: E402

__all__ = [
    "EntityDatabase",
    "EntityRecord",
    "default_entity_db",
    "resolve_owner",
    "WhoisClient",
]
