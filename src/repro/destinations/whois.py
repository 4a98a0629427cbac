"""Simulated whois lookups.

The paper falls back to ``whois`` when Tracker Radar has no entry for
an eSLD (§3.2.3).  Real whois is rate-limited, flaky, and frequently
privacy-redacted; the simulation reproduces those behaviours so the
resolution pipeline handles them: a per-domain deterministic outcome of
*answer*, *redacted*, or *timeout*.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.destinations.dataset import DomainUniverse, default_universe


class WhoisTimeout(TimeoutError):
    """Raised when the simulated registry does not answer."""


@dataclass
class WhoisRecord:
    """Parsed registrant fields of a whois response."""

    domain: str
    registrant_org: str | None
    registrar: str
    redacted: bool


_REGISTRARS = (
    "MarkMonitor Inc.",
    "CSC Corporate Domains",
    "GoDaddy.com, LLC",
    "Namecheap, Inc.",
    "Gandi SAS",
)


@dataclass
class WhoisClient:
    """Deterministic whois: the same domain always behaves the same.

    ``redaction_rate`` and ``timeout_rate`` partition the hash space of
    domain names; large, named organizations always answer (they use
    corporate registrars that publish registrant organizations).
    """

    universe: DomainUniverse = field(default_factory=default_universe)
    redaction_rate: float = 0.25
    timeout_rate: float = 0.05

    def _bucket(self, domain: str) -> float:
        digest = hashlib.sha256(b"whois|" + domain.encode("ascii")).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def query(self, domain: str) -> WhoisRecord:
        """Look a single eSLD up; may raise :class:`WhoisTimeout`."""
        org = self.universe.org_of_esld(domain)
        bucket = self._bucket(domain)
        if org is None:
            raise WhoisTimeout(f"no route to registry for {domain!r}")
        is_tail = self.universe.is_tail_ats(org)
        if is_tail and bucket < self.timeout_rate:
            raise WhoisTimeout(f"whois query for {domain!r} timed out")
        redacted = is_tail and bucket < self.timeout_rate + self.redaction_rate
        registrar = _REGISTRARS[
            int(self._bucket("registrar|" + domain) * len(_REGISTRARS))
        ]
        return WhoisRecord(
            domain=domain,
            registrant_org=None if redacted else org.name,
            registrar=registrar,
            redacted=redacted,
        )

    def registrant(self, domain: str) -> str | None:
        """Best-effort registrant organization (None on redaction or
        timeout) — the shape the resolution pipeline consumes."""
        try:
            return self.query(domain).registrant_org
        except WhoisTimeout:
            return None
