"""Traffic generator — turns behaviour profiles into request traces.

For each service, platform and trace unit (account creation / logged-in
per age group, plus one logged-out trace, §3.1) the generator emits an
ordered list of HTTP requests that:

* covers **every cell of the Table 4 grid** allowed on that platform at
  least once, and *never* emits a data flow the grid forbids;
* sends **linkable bundles** (≥1 identifier + ≥1 personal-information
  type) to exactly the number of third parties Figure 3 reports for the
  trace column, with the column's top partner receiving the Figure 4
  largest-set types;
* contacts the remaining third-party pool with **non-linkable beacons**
  (single-side data) so the per-service domain counts land near
  Table 1;
* pads each unit with **filler traffic** (static fetches on web,
  certificate-pinned encrypted requests on mobile — the Frida-bypass
  failures of §3.1.1) so packet volumes track Table 1 at the configured
  scale.

The generator is fully deterministic for a given :class:`CorpusConfig`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Iterator

from repro.model import AgeGroup, FlowCell, Platform, Presence, TraceColumn, TraceKind
from repro.net.http import Header, HttpRequest
from repro.net.url import Url, encode_query
from repro.ontology.nodes import Level2, Level3
from repro.net.psl import esld as esld_of
from repro.services.catalog import _SHARED_HEAD_ESLDS, ServiceSpec
from repro.services.config import CorpusConfig
# Defined with CorpusConfig, so replay never imports this module;
# re-exported here for existing callers.
from repro.services.config import LOAD_PROFILES as LOAD_PROFILES
from repro.services.config import LoadProfile as LoadProfile
from repro.services.payloads import PayloadFactory
from repro.services.profiles import (
    FLOW_CELLS,
    LEVEL2_ROWS,
    LEVEL3_BY_LEVEL2,
    ServiceProfile,
)
from repro.services.sessions import Interaction, script_for

_USER_AGENTS = {
    Platform.WEB: (
        "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 (KHTML, like Gecko) "
        "Chrome/118.0.0.0 Safari/537.36"
    ),
    Platform.MOBILE: (
        "Mozilla/5.0 (Linux; Android 13; Pixel 6) AppleWebKit/537.36 (KHTML, like Gecko) "
        "Chrome/118.0.0.0 Mobile Safari/537.36"
    ),
    Platform.DESKTOP: "repro-desktop-client/1.0 (Windows NT 10.0; Win64; x64)",
}

# Types a user has not disclosed while logged out (no account ⇒ no age,
# no gender on file).
_UNDISCLOSED_WHEN_LOGGED_OUT = frozenset({Level3.AGE, Level3.GENDER_SEX})

# Durations per trace kind (paper: ≥5 min for account/logged-in traces,
# shorter logged-out traces).
_DURATIONS = {
    TraceKind.ACCOUNT_CREATION: 330.0,
    TraceKind.LOGGED_IN: 420.0,
    TraceKind.LOGGED_OUT: 150.0,
}

_PACKET_WEIGHTS = {
    TraceKind.ACCOUNT_CREATION: 1.0,
    TraceKind.LOGGED_IN: 2.0,
    TraceKind.LOGGED_OUT: 0.5,
}


@dataclass
class TracedRequest:
    """One generated request plus capture directives."""

    request: HttpRequest
    connection: str  # connection id, one TCP flow per id on mobile
    pinned: bool = False  # certificate-pinned: never decryptable


@dataclass
class RawTrace:
    """One trace unit: (service, platform, kind, age)."""

    service: str
    platform: Platform
    kind: TraceKind
    age: AgeGroup | None
    requests: list[TracedRequest] = field(default_factory=list)

    @property
    def column(self) -> TraceColumn:
        return TraceColumn.for_trace(self.kind, self.age)

    @property
    def name(self) -> str:
        age = self.age.value if self.age else "none"
        return f"{self.service}-{self.platform.value}-{self.kind.value}-{age}"


def _stable_seed(*parts) -> int:
    text = "|".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def service_trace_units(
    spec: ServiceSpec,
) -> list[tuple[Platform, TraceKind, AgeGroup | None]]:
    """The ordered trace units one service generates (paper §3.1)."""
    units: list[tuple[Platform, TraceKind, AgeGroup | None]] = []
    for platform in spec.platforms:
        for age in AgeGroup:
            units.append((platform, TraceKind.ACCOUNT_CREATION, age))
            units.append((platform, TraceKind.LOGGED_IN, age))
        units.append((platform, TraceKind.LOGGED_OUT, None))
    return units


# Scale-independent per-unit work (session script, grid coverage,
# capture round-trip) in the same relative currency as packet volume.
_BASE_UNIT_COST = 50.0


def estimate_unit_costs(config: CorpusConfig, spec: ServiceSpec) -> list[float]:
    """Relative processing-cost estimate per trace unit of a service.

    The dominant per-unit cost is packet volume, which the generator
    apportions by :data:`_PACKET_WEIGHTS`; a flat structural term
    covers the scale-independent work.  The engine's scheduler only
    needs *relative* accuracy — these numbers decide how service
    shards split and in what order sub-shards hit the worker pool.
    """
    units = service_trace_units(spec)
    weights = [_PACKET_WEIGHTS[kind] for (_, kind, _) in units]
    total_weight = sum(weights) or 1.0
    packets = spec.profile.volume.packets * config.effective_scale
    return [
        _BASE_UNIT_COST + packets * weight / total_weight for weight in weights
    ]


def ip_for(fqdn: str) -> str:
    """Deterministic public-looking IPv4 for a hostname (DNS stand-in)."""
    digest = hashlib.sha256(b"dns|" + fqdn.encode()).digest()
    return f"{34 + digest[0] % 100}.{digest[1]}.{digest[2]}.{1 + digest[3] % 253}"


class TrafficGenerator:
    """Generates the full corpus, one :class:`RawTrace` at a time."""

    def __init__(self, config: CorpusConfig | None = None) -> None:
        self.config = config or CorpusConfig()
        self.payloads = PayloadFactory(seed=self.config.seed)
        # Round-robin cursor for beacon spreading, per service.
        self._beacon_cursor: dict[str, int] = {}
        # The long-tail key population (§3.2.2's 3,968 unique raw data
        # types): every registry key of the 19 observed categories,
        # shuffled and partitioned across services.  Emitted in the
        # adult/web logged-in unit, where the Table 4 grid allows every
        # category for every service, so the mess cannot corrupt the
        # grid.
        from repro.ontology.coppa_ccpa import OBSERVED_LEVEL3

        tail = sorted(self.payloads.keys_for_categories(OBSERVED_LEVEL3))
        random.Random(self.config.seed).shuffle(tail)
        self._noise_keys = tail

    # ------------------------------------------------------------------
    # Corpus iteration
    # ------------------------------------------------------------------

    def trace_units(self, spec: ServiceSpec) -> list[tuple[Platform, TraceKind, AgeGroup | None]]:
        return service_trace_units(spec)

    def generate_corpus(
        self, unit_range: tuple[int, int] | None = None
    ) -> Iterator[RawTrace]:
        """Yield every trace unit of every configured service.

        ``unit_range`` restricts each service to a contiguous
        ``[start, stop)`` slice of its trace units — the engine's
        sub-shard unit.  Skipped units are not generated, but any
        cross-unit generator state they would have advanced (the
        beacon cursor) is advanced identically, so a unit's traffic is
        byte-for-byte the same whether its service is generated whole
        or in slices.
        """
        for spec in self.config.service_specs():
            yield from self.generate_service(spec, unit_range=unit_range)

    def generate_service(
        self, spec: ServiceSpec, unit_range: tuple[int, int] | None = None
    ) -> Iterator[RawTrace]:
        self._beacon_cursor[spec.key] = 0
        units = self.trace_units(spec)
        weights = [_PACKET_WEIGHTS[kind] for (_, kind, _) in units]
        total_weight = sum(weights)
        start, stop = unit_range if unit_range is not None else (0, len(units))
        for index, (platform, kind, age) in enumerate(units):
            if not start <= index < stop:
                # Outside this slice: replay only the unit's effect on
                # cross-unit state, in O(1) instead of generating it.
                if kind is not TraceKind.ACCOUNT_CREATION:
                    self._advance_beacon_cursor(spec, TraceColumn.for_trace(kind, age))
                continue
            packet_share = (
                spec.profile.volume.packets
                * self.config.effective_scale
                * weights[index]
                / total_weight
            )
            flow_share = (
                spec.profile.volume.tcp_flows
                * self.config.effective_scale
                * weights[index]
                / total_weight
            )
            yield self.generate_unit(
                spec,
                platform,
                kind,
                age,
                unit_index=index,
                packet_target=int(packet_share),
                flow_target=int(flow_share),
            )

    # ------------------------------------------------------------------
    # Grid helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _allowed(
        profile: ServiceProfile,
        level2: Level2,
        column: TraceColumn,
        cell: FlowCell,
        platform: Platform,
    ) -> bool:
        return profile.presence(level2, column, cell).on(platform)

    def _filter_types(
        self,
        types: list[Level3],
        profile: ServiceProfile,
        column: TraceColumn,
        cell: FlowCell,
        platform: Platform,
    ) -> list[Level3]:
        """Keep only types the grid allows for this cell and platform."""
        out = []
        for level3 in types:
            if column is TraceColumn.LOGGED_OUT and level3 in _UNDISCLOSED_WHEN_LOGGED_OUT:
                continue
            level2 = _LEVEL2_OF[level3]
            if self._allowed(profile, level2, column, cell, platform):
                out.append(level3)
        return out

    # ------------------------------------------------------------------
    # Request assembly
    # ------------------------------------------------------------------

    def _body_for(
        self,
        types: list[Level3],
        rng: random.Random,
        keys_per_type: int | None = None,
        avoid_opaque: bool = False,
        canonical: bool = False,
    ) -> bytes:
        payload: dict = {}
        for level3 in types:
            count = keys_per_type if keys_per_type is not None else rng.randint(1, 2)
            for key in self.payloads.pick_keys(
                level3,
                rng,
                count=count,
                avoid_opaque=avoid_opaque,
                canonical=canonical,
            ):
                payload[key] = self.payloads.make_value(level3, rng)
        return json.dumps(payload).encode()

    def _request(
        self,
        host: str,
        path: str,
        types: list[Level3],
        rng: random.Random,
        platform: Platform,
        method: str = "POST",
        timestamp: float = 0.0,
        session_cookie: str | None = None,
        as_query: bool = False,
        keys_per_type: int | None = None,
        avoid_opaque: bool = False,
        canonical: bool = False,
    ) -> HttpRequest:
        headers = [
            Header("User-Agent", _USER_AGENTS[platform]),
            Header("Accept", "*/*"),
        ]
        if session_cookie:
            headers.append(Header("Cookie", f"session={session_cookie}"))
        body = b""
        query = ""
        if types and (as_query or method == "GET"):
            pairs = []
            for level3 in types:
                count = keys_per_type if keys_per_type is not None else 1
                for key in self.payloads.pick_keys(
                    level3,
                    rng,
                    count=count,
                    avoid_opaque=avoid_opaque,
                    canonical=canonical,
                ):
                    pairs.append((key, str(self.payloads.make_value(level3, rng))))
            query = encode_query(pairs)
        elif types:
            body = self._body_for(
                types,
                rng,
                keys_per_type=keys_per_type,
                avoid_opaque=avoid_opaque,
                canonical=canonical,
            )
            headers.append(Header("Content-Type", "application/json"))
        url = Url(scheme="https", host=host, port=443, path=path, query=query)
        return HttpRequest(
            method=method,
            url=url,
            headers=headers,
            body=body,
            timestamp=timestamp,
        )

    # ------------------------------------------------------------------
    # Unit generation
    # ------------------------------------------------------------------

    def generate_unit(
        self,
        spec: ServiceSpec,
        platform: Platform,
        kind: TraceKind,
        age: AgeGroup | None,
        unit_index: int = 0,
        packet_target: int = 0,
        flow_target: int = 0,
    ) -> RawTrace:
        """Build one trace unit (see module docstring for the plan)."""
        profile = spec.profile
        column = TraceColumn.for_trace(kind, age)
        rng = random.Random(
            _stable_seed(self.config.seed, spec.key, platform.value, kind.value, age)
        )
        trace = RawTrace(service=spec.key, platform=platform, kind=kind, age=age)
        requests: list[tuple[HttpRequest, str, bool]] = []  # (req, dest-group, pinned)

        api_host = self._api_host(spec)
        session_cookie = (
            None if kind is TraceKind.LOGGED_OUT else f"sess-{_stable_seed(spec.key, age):x}"
        )
        # The cookie *name* ("session") is itself an extractable data
        # type (App or Service Usage); only attach it where the grid
        # allows that category to reach first parties on this platform.
        if session_cookie is not None and not self._allowed(
            profile,
            Level2.USER_INTERESTS_AND_BEHAVIORS,
            column,
            FlowCell.COLLECT_1ST,
            platform,
        ):
            session_cookie = None

        # 1. Session script against the first-party API.
        for interaction in script_for(
            spec.category, kind, age, spec.requires_parent_email
        ):
            types = self._interaction_types(interaction, profile, column, platform, kind)
            requests.append(
                (
                    self._request(
                        api_host,
                        interaction.path,
                        types,
                        rng,
                        platform,
                        method=interaction.method,
                        session_cookie=session_cookie,
                        canonical=True,
                    ),
                    api_host,
                    False,
                )
            )

        # 2. Grid coverage — only the logged-in (or logged-out) unit of
        #    a column does full coverage; account-creation units stick
        #    to the signup funnel plus first-party collection.
        if kind is not TraceKind.ACCOUNT_CREATION:
            requests.extend(
                self._collect_requests(spec, profile, column, platform, rng, session_cookie)
            )
            requests.extend(
                self._share_requests(spec, profile, column, platform, rng)
            )
            requests.extend(self._beacon_requests(spec, profile, column, platform, rng))
        else:
            requests.extend(
                self._collect_requests(
                    spec, profile, column, platform, rng, session_cookie, light=True
                )
            )

        # 3. Long-tail telemetry (adult/web logged-in only — see
        #    __init__ for why this placement is grid-safe).
        if (
            kind is TraceKind.LOGGED_IN
            and platform is Platform.WEB
            and age is AgeGroup.ADULT
        ):
            requests.extend(self._noise_requests(spec, rng, api_host, session_cookie))

        # 4. First-party asset sweep (scale-independent domain fan-out).
        requests.extend(
            self._asset_requests(spec, platform, rng, unit_index, profile, column)
        )

        # 5. Filler volume.
        requests.extend(
            self._filler_requests(
                spec, platform, rng, packet_target, len(requests), unit_index
            )
        )

        # 4. Connection assignment + timestamps.
        trace.requests = self._finalize(
            requests, kind, unit_index, flow_target, rng
        )
        return trace

    def _api_host(self, spec: ServiceSpec) -> str:
        for host in spec.first_party_pool:
            if host.startswith("api."):
                return host
        return spec.first_party_pool[0]

    def _interaction_types(
        self,
        interaction: Interaction,
        profile: ServiceProfile,
        column: TraceColumn,
        platform: Platform,
        kind: TraceKind,
    ) -> list[Level3]:
        intended = _INTERACTION_TYPES.get(interaction.name, _DEFAULT_INTERACTION_TYPES)
        return self._filter_types(
            list(intended), profile, column, FlowCell.COLLECT_1ST, platform
        )

    # -- collect flows (first party) -----------------------------------

    def _collect_requests(
        self,
        spec: ServiceSpec,
        profile: ServiceProfile,
        column: TraceColumn,
        platform: Platform,
        rng: random.Random,
        session_cookie: str | None,
        light: bool = False,
    ) -> list[tuple[HttpRequest, str, bool]]:
        out: list[tuple[HttpRequest, str, bool]] = []
        hosts = list(spec.first_party_pool)
        for level2 in LEVEL2_ROWS:
            types = self._filter_types(
                list(LEVEL3_BY_LEVEL2[level2]),
                profile,
                column,
                FlowCell.COLLECT_1ST,
                platform,
            )
            if types:
                count = 1 if light else min(5, len(hosts))
                for index in range(count):
                    host = hosts[(_stable_seed(level2.value) + index) % len(hosts)]
                    out.append(
                        (
                            self._request(
                                host,
                                f"/api/v1/collect/{level2.value.lower().replace(' ', '-')}",
                                types,
                                rng,
                                platform,
                                session_cookie=session_cookie,
                                canonical=True,
                                keys_per_type=2,
                            ),
                            host,
                            False,
                        )
                    )
            if light:
                continue
            ats_types = self._filter_types(
                list(LEVEL3_BY_LEVEL2[level2]),
                profile,
                column,
                FlowCell.COLLECT_1ST_ATS,
                platform,
            )
            if ats_types and spec.first_party_ats_pool:
                host = spec.first_party_ats_pool[
                    _stable_seed(level2.value, column.value, platform.value)
                    % len(spec.first_party_ats_pool)
                ]
                out.append(
                    (
                        self._request(
                            host,
                            "/v1/telemetry",
                            ats_types,
                            rng,
                            platform,
                            canonical=True,
                            keys_per_type=2,
                        ),
                        host,
                        False,
                    )
                )
        return out

    # -- share flows (third parties, linkability-shaped) ----------------

    def _partners(self, spec: ServiceSpec, column: TraceColumn) -> list[str]:
        """The column's linkable partner FQDNs (Figure 3 count)."""
        fanout = spec.profile.linkable_third_parties[column]
        if fanout:
            fanout = max(
                fanout, int(round(fanout * self.config.fanout_overshoot))
            )
        pool = spec.third_party_pool_interleaved()
        return pool[:fanout]

    def _share_requests(
        self,
        spec: ServiceSpec,
        profile: ServiceProfile,
        column: TraceColumn,
        platform: Platform,
        rng: random.Random,
    ) -> list[tuple[HttpRequest, str, bool]]:
        partners = self._partners(spec, column)
        if not partners:
            return []
        ats_pool = set(spec.third_party_ats_pool)
        linkable_set = profile.linkable_set(column)
        target = len(linkable_set)
        base_size = min(5, target)

        # Assign bundles: partners 0 and 1 (one ATS, one non-ATS by
        # pool interleaving) get the full largest set — each flow cell
        # filters it differently, and the measured largest set is the
        # per-partner union across platforms; everyone else gets the
        # base bundle.  Leftover grid cells not covered by the top
        # partners' sets are spread over the rest (capped at the
        # column's largest-set size so Figure 4 stays exact).
        bundles: list[list[Level3]] = []
        for index, partner in enumerate(partners):
            bundle = list(linkable_set) if index < 2 else list(linkable_set[:base_size])
            bundles.append(bundle)

        # Coverage repair: every share cell the grid allows must reach a
        # matching partner at least once.
        covered: set[tuple[Level2, FlowCell]] = set()
        for index, partner in enumerate(partners):
            cell = FlowCell.SHARE_3RD_ATS if partner in ats_pool else FlowCell.SHARE_3RD
            for level3 in bundles[index]:
                if profile.presence(_LEVEL2_OF[level3], column, cell) is not Presence.NONE:
                    covered.add((_LEVEL2_OF[level3], cell))
        for level2 in LEVEL2_ROWS:
            for cell in (FlowCell.SHARE_3RD, FlowCell.SHARE_3RD_ATS):
                if profile.presence(level2, column, cell) is Presence.NONE:
                    continue
                if (level2, cell) in covered:
                    continue
                added = False
                for index, partner in enumerate(partners):
                    partner_cell = (
                        FlowCell.SHARE_3RD_ATS
                        if partner in ats_pool
                        else FlowCell.SHARE_3RD
                    )
                    if partner_cell is not cell or len(bundles[index]) >= target:
                        continue
                    extra = next(
                        (
                            t
                            for t in LEVEL3_BY_LEVEL2[level2]
                            if t not in bundles[index]
                            and not (
                                column is TraceColumn.LOGGED_OUT
                                and t in _UNDISCLOSED_WHEN_LOGGED_OUT
                            )
                        ),
                        None,
                    )
                    if extra is None:
                        continue
                    bundles[index].append(extra)
                    covered.add((level2, cell))
                    added = True
                    break
                if not added:
                    # No partner of the right ATS-ness has room; covered
                    # by a dedicated single-flow partner if one exists
                    # beyond the fanout — otherwise the cell stays
                    # uncovered (recorded by the audit as a deviation).
                    pass

        out: list[tuple[HttpRequest, str, bool]] = []
        # Services running wide header-bidding auctions (Quizlet's
        # hundreds of partners) ping their top exchanges on every
        # interaction — contact frequency scales with partner breadth.
        breadth_copies = 1 + min(3, len(partners) // 60)
        for index, partner in enumerate(partners):
            cell = FlowCell.SHARE_3RD_ATS if partner in ats_pool else FlowCell.SHARE_3RD
            types = self._filter_types(bundles[index], profile, column, cell, platform)
            if not types:
                continue
            path = "/pixel" if cell is FlowCell.SHARE_3RD_ATS else "/v1/data"
            # One deterministic key per (partner, type): real trackers
            # use fixed parameter names, and this keeps the measured
            # linkable-set sizes stable under classifier noise (a
            # misread substitutes a type instead of adding one).
            pairs: list[tuple[str, str]] = []
            for level3 in types:
                key_rng = random.Random(
                    _stable_seed("bundle", spec.key, partner, level3.value)
                )
                key = self.payloads.pick_keys(level3, key_rng, canonical=True)[0]
                pairs.append((key, str(self.payloads.make_value(level3, rng))))
            headers = [
                Header("User-Agent", _USER_AGENTS[platform]),
                Header("Accept", "*/*"),
            ]
            if index % 3 == 0:
                url = Url(
                    scheme="https",
                    host=partner,
                    port=443,
                    path=path,
                    query=encode_query(pairs),
                )
                request = HttpRequest(method="GET", url=url, headers=headers)
            else:
                body = json.dumps(dict(pairs)).encode()
                headers.append(Header("Content-Type", "application/json"))
                url = Url(scheme="https", host=partner, port=443, path=path)
                request = HttpRequest(
                    method="POST", url=url, headers=headers, body=body
                )
            copies = 1
            # The shared-head trackers (GA, DoubleClick, Amazon, Adobe,
            # Meta…) fire on every interaction, not once per session —
            # double their contact frequency so Figure 5's organization
            # ranking reflects it.
            if esld_of(partner) in _SHARED_HEAD_ESLDS:
                copies *= 2
            if index < 12:
                copies *= breadth_copies
            out.extend([(request, partner, False)] * copies)
        return out

    # -- non-linkable beacons -------------------------------------------

    _BEACON_TYPES = (
        Level3.NETWORK_CONNECTION_INFORMATION,
        Level3.SERVICE_INFORMATION,
        Level3.APP_OR_SERVICE_USAGE,
    )

    def _beacon_remaining(self, spec: ServiceSpec, column: TraceColumn) -> list[str]:
        """The non-linkable beacon pool for one unit (pool − partners)."""
        partners = set(self._partners(spec, column))
        return [
            fqdn
            for fqdn in spec.third_party_pool_interleaved()
            if fqdn not in partners
        ]

    def _advance_beacon_cursor(self, spec: ServiceSpec, column: TraceColumn) -> int:
        """Move the per-service beacon cursor exactly one unit forward.

        Shared by beacon emission and the skipped-unit fast path in
        :meth:`generate_service`, so slicing a service into sub-shards
        cannot drift the cursor.  Returns the cursor value the unit
        started from.
        """
        remaining = self._beacon_remaining(spec, column)
        cursor = self._beacon_cursor.get(spec.key, 0)
        self._beacon_cursor[spec.key] = cursor + max(1, len(remaining) // 4)
        return cursor

    def _beacon_requests(
        self,
        spec: ServiceSpec,
        profile: ServiceProfile,
        column: TraceColumn,
        platform: Platform,
        rng: random.Random,
    ) -> list[tuple[HttpRequest, str, bool]]:
        """Contact the rest of the pool with single-side (PI-only) data."""
        ats_pool = set(spec.third_party_ats_pool)
        remaining = self._beacon_remaining(spec, column)
        out: list[tuple[HttpRequest, str, bool]] = []
        cursor = self._advance_beacon_cursor(spec, column)
        # Walk the remaining pool from a moving cursor so each unit
        # spreads contacts and the corpus eventually touches everything.
        chunk = remaining[cursor % max(1, len(remaining)) :] + remaining[: cursor % max(1, len(remaining))]
        for fqdn in chunk:
            cell = FlowCell.SHARE_3RD_ATS if fqdn in ats_pool else FlowCell.SHARE_3RD
            beacon_type = next(
                (
                    t
                    for t in self._BEACON_TYPES
                    if self._allowed(profile, _LEVEL2_OF[t], column, cell, platform)
                ),
                None,
            )
            if beacon_type is None:
                continue
            # Keys chosen deterministically per destination, so a
            # beacon target always transmits the same 1-3 data types
            # across platforms and traces.  All beacon types are on the
            # personal-information side of the ontology, so beacon
            # targets can never measure as linkable.
            beacon_rng = random.Random(_stable_seed("beacon", spec.key, fqdn))
            allowed_types = [
                t
                for t in self._BEACON_TYPES
                if self._allowed(profile, _LEVEL2_OF[t], column, cell, platform)
            ]
            n_types = min(
                len(allowed_types), 2 + _stable_seed("beacon-breadth", fqdn) % 2
            )
            pairs = []
            for extra_type in allowed_types[:n_types]:
                key = self.payloads.pick_keys(extra_type, beacon_rng, canonical=True)[0]
                pairs.append(
                    (key, str(self.payloads.make_value(extra_type, beacon_rng)))
                )
            url = Url(
                scheme="https",
                host=fqdn,
                port=443,
                path="/b/collect",
                query=encode_query(pairs),
            )
            request = HttpRequest(
                method="GET",
                url=url,
                headers=[Header("User-Agent", _USER_AGENTS[platform]), Header("Accept", "*/*")],
            )
            out.append((request, fqdn, False))
        return out

    # -- long-tail noise stream -------------------------------------------

    def _noise_requests(
        self,
        spec: ServiceSpec,
        rng: random.Random,
        api_host: str,
        session_cookie: str | None,
    ) -> list[tuple[HttpRequest, str, bool]]:
        """Verbose first-party telemetry carrying the key long tail."""
        services = list(_SERVICE_ORDER)
        # Custom (non-catalog) services hash into a slot so the noise
        # stream still works for user-defined audits.
        index = (
            services.index(spec.key)
            if spec.key in services
            else _stable_seed(spec.key) % len(services)
        )
        chunk_size = (len(self._noise_keys) + len(services) - 1) // len(services)
        keys = self._noise_keys[index * chunk_size : (index + 1) * chunk_size]
        out: list[tuple[HttpRequest, str, bool]] = []
        batch = 8
        for start in range(0, len(keys), batch):
            payload = {
                key: self.payloads.make_value(self.payloads.registry.truth[key], rng)
                for key in keys[start : start + batch]
            }
            headers = [
                Header("User-Agent", _USER_AGENTS[Platform.WEB]),
                Header("Accept", "*/*"),
                Header("Content-Type", "application/json"),
            ]
            if session_cookie:
                headers.append(Header("Cookie", f"session={session_cookie}"))
            url = Url(
                scheme="https",
                host=api_host,
                port=443,
                path="/api/v1/telemetry/verbose",
            )
            out.append(
                (
                    HttpRequest(
                        method="POST",
                        url=url,
                        headers=headers,
                        body=json.dumps(payload, default=str).encode(),
                    ),
                    api_host,
                    False,
                )
            )
        return out

    # -- filler -----------------------------------------------------------

    def _filler_requests(
        self,
        spec: ServiceSpec,
        platform: Platform,
        rng: random.Random,
        packet_target: int,
        structural_count: int,
        unit_index: int = 0,
    ) -> list[tuple[HttpRequest, str, bool]]:
        if platform is Platform.MOBILE:
            # ~3 frames per filler request on mobile.
            structural_packets = structural_count * 3
            deficit = max(0, packet_target - structural_packets)
            count = deficit // 3
        else:
            deficit = max(0, packet_target - structural_count)
            count = deficit
        out: list[tuple[HttpRequest, str, bool]] = []
        hosts = list(spec.first_party_pool)
        offset = unit_index * 13  # stagger so units cover the pool
        for index in range(count):
            host = hosts[(offset + index) % len(hosts)]
            pinned = platform is Platform.MOBILE and rng.random() < self.config.mobile_pin_rate
            out.append(
                (
                    self._request(
                        host,
                        f"/static/chunk_{index % 97}.js",
                        [],
                        rng,
                        platform,
                        method="GET",
                    ),
                    f"filler:{host}",
                    pinned,
                )
            )
        return out

    def _asset_requests(
        self,
        spec: ServiceSpec,
        platform: Platform,
        rng: random.Random,
        unit_index: int,
        profile: ServiceProfile,
        column: TraceColumn,
    ) -> list[tuple[HttpRequest, str, bool]]:
        """Static-asset sweep over the first-party estate.

        Real sessions hit dozens of first-party hosts (CDN shards,
        thumbnails, API microservices) regardless of session length;
        this keeps the Table 1 per-service domain counts independent
        of the volume scale.  Each asset fetch also carries one
        deterministic PI-side query key (cache/version telemetry) when
        the grid allows it, which is what spreads ``<data type,
        destination>`` pairs across the first-party estate.
        """
        hosts = list(spec.first_party_pool) + list(spec.first_party_ats_pool)
        ats_hosts = set(spec.first_party_ats_pool)
        per_unit = max(1, len(hosts) // 3)
        start = (unit_index * per_unit) % len(hosts)
        slice_hosts = [hosts[(start + i) % len(hosts)] for i in range(per_unit)]
        out: list[tuple[HttpRequest, str, bool]] = []
        for index, host in enumerate(slice_hosts):
            cell = (
                FlowCell.COLLECT_1ST_ATS if host in ats_hosts else FlowCell.COLLECT_1ST
            )
            asset_type = next(
                (
                    t
                    for t in self._BEACON_TYPES
                    if self._allowed(profile, _LEVEL2_OF[t], column, cell, platform)
                ),
                None,
            )
            query = ""
            if asset_type is not None:
                key_rng = random.Random(_stable_seed("asset", spec.key, host))
                key = self.payloads.pick_keys(asset_type, key_rng, canonical=True)[0]
                query = encode_query(
                    [(key, str(self.payloads.make_value(asset_type, key_rng)))]
                )
            url = Url(
                scheme="https",
                host=host,
                port=443,
                path=f"/assets/a{index % 23}.bin",
                query=query,
            )
            out.append(
                (
                    HttpRequest(
                        method="GET",
                        url=url,
                        headers=[Header("User-Agent", _USER_AGENTS[platform])],
                    ),
                    host,
                    False,
                )
            )
        return out

    # -- finalization -------------------------------------------------------

    def _finalize(
        self,
        requests: list[tuple[HttpRequest, str, bool]],
        kind: TraceKind,
        unit_index: int,
        flow_target: int,
        rng: random.Random,
    ) -> list[TracedRequest]:
        """Assign timestamps and connection ids (TCP flow shaping)."""
        # Load profiles with a higher request rate compress the same
        # session into less wall-clock time (denser timestamps).
        duration = _DURATIONS[kind] / self.config.load_profile.rate_multiplier
        start = self.config.start_epoch + unit_index * 3_600.0
        count = max(1, len(requests))

        # Per-destination request indexes for connection splitting.
        by_dest: dict[str, int] = {}
        for _, dest, _ in requests:
            by_dest[dest] = by_dest.get(dest, 0) + 1
        extra_flows = max(0, flow_target - len(by_dest))
        # Split the busiest destinations into several connections.
        splits: dict[str, int] = {dest: 1 for dest in by_dest}
        if extra_flows:
            busiest = sorted(by_dest, key=by_dest.get, reverse=True)
            for index in range(extra_flows):
                dest = busiest[index % len(busiest)]
                if splits[dest] < by_dest[dest]:
                    splits[dest] += 1

        seen: dict[str, int] = {}
        finalized: list[TracedRequest] = []
        for order, (request, dest, pinned) in enumerate(requests):
            position = seen.get(dest, 0)
            seen[dest] = position + 1
            parts = splits[dest]
            per_part = max(1, by_dest[dest] // parts)
            connection = f"{dest}#{min(position // per_part, parts - 1)}"
            request.timestamp = start + duration * order / count + rng.random() * 0.05
            finalized.append(
                TracedRequest(request=request, connection=connection, pinned=pinned)
            )
        return finalized


_LEVEL2_OF: dict[Level3, Level2] = {
    level3: level2
    for level2, members in LEVEL3_BY_LEVEL2.items()
    for level3 in members
}

# Canonical service order for partitioning corpus-wide resources.
_SERVICE_ORDER = ("duolingo", "minecraft", "quizlet", "roblox", "tiktok", "youtube")

_DEFAULT_INTERACTION_TYPES: tuple[Level3, ...] = (
    Level3.APP_OR_SERVICE_USAGE,
    Level3.SERVICE_INFORMATION,
    Level3.NETWORK_CONNECTION_INFORMATION,
)

_INTERACTION_TYPES: dict[str, tuple[Level3, ...]] = {
    "app_launch": (
        Level3.DEVICE_INFORMATION,
        Level3.SERVICE_INFORMATION,
        Level3.LANGUAGE,
        Level3.LOCATION_TIME,
    ),
    "feature_flags": (Level3.SERVICE_INFORMATION, Level3.ALIASES),
    "telemetry_boot": (
        Level3.DEVICE_INFORMATION,
        Level3.NETWORK_CONNECTION_INFORMATION,
        Level3.DEVICE_SOFTWARE_IDENTIFIERS,
    ),
    "age_gate": (Level3.AGE,),
    "create_account": (
        Level3.NAME,
        Level3.CONTACT_INFORMATION,
        Level3.LOGIN_INFORMATION,
        Level3.AGE,
    ),
    "parent_email": (Level3.CONTACT_INFORMATION, Level3.ACCOUNT_SETTINGS),
    "consent": (Level3.ACCOUNT_SETTINGS,),
    "profile_setup": (Level3.NAME, Level3.GENDER_SEX, Level3.LANGUAGE),
    "login": (Level3.LOGIN_INFORMATION, Level3.CONTACT_INFORMATION),
    "session_refresh": (Level3.LOGIN_INFORMATION, Level3.ALIASES),
    "chat_send": (Level3.APP_OR_SERVICE_USAGE, Level3.ALIASES),
    "comment_post": (Level3.APP_OR_SERVICE_USAGE, Level3.ALIASES),
    "search": (Level3.APP_OR_SERVICE_USAGE,),
    "search_public": (Level3.APP_OR_SERVICE_USAGE,),
    "update_settings": (Level3.ACCOUNT_SETTINGS,),
    "notification_prefs": (Level3.ACCOUNT_SETTINGS,),
    "open_settings": (Level3.ACCOUNT_SETTINGS,),
    "video_watch": (
        Level3.APP_OR_SERVICE_USAGE,
        Level3.DEVICE_INFORMATION,
        Level3.INFERENCES,
    ),
    "watch_telemetry": (
        Level3.APP_OR_SERVICE_USAGE,
        Level3.NETWORK_CONNECTION_INFORMATION,
        Level3.DEVICE_INFORMATION,
    ),
    "match_telemetry": (
        Level3.APP_OR_SERVICE_USAGE,
        Level3.NETWORK_CONNECTION_INFORMATION,
    ),
    "telemetry_anon": (
        Level3.DEVICE_INFORMATION,
        Level3.NETWORK_CONNECTION_INFORMATION,
    ),
    "avatar_update": (Level3.APP_OR_SERVICE_USAGE, Level3.ALIASES),
    "progress_sync": (Level3.APP_OR_SERVICE_USAGE, Level3.ALIASES),
    "feed_scroll": (Level3.APP_OR_SERVICE_USAGE, Level3.INFERENCES),
    "landing_page": (Level3.SERVICE_INFORMATION, Level3.LANGUAGE),
    "browse_public": (Level3.SERVICE_INFORMATION, Level3.APP_OR_SERVICE_USAGE),
}
