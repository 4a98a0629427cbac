"""Flow records and aggregation.

A *data flow* is a ``<data type category, destination>`` pair observed
in a trace (paper §3.2.1).  :class:`FlowObservation` carries the full
audit context (service, column, platform, party label);
:class:`FlowTable` aggregates observations into the structures the
results section consumes: the Table 4 grid, unique-flow counts, and
per-destination data type sets for the linkability analysis.
"""

from __future__ import annotations

import struct
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Sequence

from repro.destinations.party import PartyLabel
from repro.model import FlowCell, Platform, Presence, TraceColumn
from repro.ontology import ONTOLOGY
from repro.ontology.nodes import Level2, Level3


_CELL_FOR = {
    PartyLabel.FIRST_PARTY: FlowCell.COLLECT_1ST,
    PartyLabel.FIRST_PARTY_ATS: FlowCell.COLLECT_1ST_ATS,
    PartyLabel.THIRD_PARTY: FlowCell.SHARE_3RD,
    PartyLabel.THIRD_PARTY_ATS: FlowCell.SHARE_3RD_ATS,
}


def cell_for(party: PartyLabel) -> FlowCell:
    """Map a destination's party label to its Table 4 flow cell."""
    return _CELL_FOR[party]


@dataclass(frozen=True)
class FlowObservation:
    """One observed data flow with its audit context."""

    service: str
    column: TraceColumn
    platform: Platform
    level3: Level3
    fqdn: str
    esld: str
    party: PartyLabel
    raw_key: str = ""

    @property
    def level2(self) -> Level2:
        return ONTOLOGY.level2_of(self.level3)

    @property
    def cell(self) -> FlowCell:
        return cell_for(self.party)

    @property
    def flow_pair(self) -> tuple[Level3, str]:
        """The paper's unique-flow identity <data type, destination>."""
        return (self.level3, self.fqdn)


#: One packed observation: :class:`FlowObservation`'s fields, in
#: declaration order, as little-endian uint32 indexes into the pool of
#: the segment that holds it.  A packed segment's rows are one
#: ``bytes`` of these records.
PACKED_ROW = struct.Struct("<8I")


def pack_indexes(indexes: Sequence[int]) -> bytes:
    """Pool indexes as one ``bytes`` of little-endian uint32s — the
    encoding of every packed index set (pairs and triples run flat)."""
    return struct.pack(f"<{len(indexes)}I", *indexes)


def unpack_indexes(data: bytes) -> tuple[int, ...]:
    """The pool indexes :func:`pack_indexes` encoded."""
    return struct.unpack(f"<{len(data) // 4}I", data)


# A packed row's fields, by position.
_SERVICE, _COLUMN, _PLATFORM, _LEVEL3, _FQDN, _ESLD, _PARTY, _RAW_KEY = range(8)


def _columns(rows: bytes, *fields: int) -> list[tuple[int, ...]]:
    """The given fields of packed ``rows``, one index column each.

    The rows are unpacked once, into one flat tuple; each column is a
    slice of it.  A fold's passes then zip the columns they read
    instead of projecting a tuple out of every row.
    """
    flat = unpack_indexes(rows)
    return [flat[field::8] for field in fields]


def _count(counts: dict, service: str, column: TraceColumn, fqdn: str, n: int) -> None:
    per_cell = counts.setdefault((service, column), {})
    per_cell[fqdn] = per_cell.get(fqdn, 0) + n


class FlowTable:
    """All flow observations of a corpus, with audit-ready roll-ups.

    Observations are kept in segments, in observation order: lists of
    :class:`FlowObservation` (filled by :meth:`add` and :meth:`merge`)
    and packed segments — a shard's ``(pool, rows)`` exactly as
    ``repro.pipeline.engine.pack_shard_result`` encoded them (rows as
    :data:`PACKED_ROW` records), folded in by :meth:`merge_packed`
    without building an object per row.  A packed segment stays in
    that encoding; :meth:`observations` builds objects only when
    asked.

    The Table 4 grid, per-destination type sets and party labels are
    kept up to date on every fold.  The roll-ups only the downstream
    analyses read — third-party ATS contact counts and the
    per-(service, column) type-set index — are derived once, on first
    use, and again only after observations were added.
    """

    def __init__(self) -> None:
        # The open list segment: add() appends here.  It is always the
        # last entry of _segments.
        self._observations: list[FlowObservation] = []
        self._segments: list[list[FlowObservation] | tuple[tuple, bytes]] = [
            self._observations
        ]
        self._sealed = 0  # observations in the segments before the open one
        # (service, level2, column, cell) -> {platforms observed}
        self._grid: dict[tuple, set[Platform]] = defaultdict(set)
        # (service, column, fqdn) -> {level3 types} for third parties
        self._per_destination: dict[tuple, set[Level3]] = defaultdict(set)
        self._party_by_fqdn: dict[tuple[str, str], PartyLabel] = {}
        # (observation count, (contacts, type-set index))
        self._derived: tuple[int, tuple] | None = None

    def add(self, observation: FlowObservation) -> None:
        self._observations.append(observation)
        self._grid[
            (
                observation.service,
                observation.level2,
                observation.column,
                observation.cell,
            )
        ].add(observation.platform)
        if observation.party.is_third_party:
            self._per_destination[
                (observation.service, observation.column, observation.fqdn)
            ].add(observation.level3)
        self._party_by_fqdn[(observation.service, observation.fqdn)] = observation.party

    def extend(self, observations: list[FlowObservation]) -> None:
        for observation in observations:
            self.add(observation)

    def register_party(self, service: str, fqdn: str, party: PartyLabel) -> None:
        """Record a destination's party label without a flow observation.

        Opaque (undecryptable) contacts never produce flows but still
        count for the destination census; registration never overrides
        a label that an observed flow already set.
        """
        self._party_by_fqdn.setdefault((service, fqdn), party)

    def merge(self, other: "FlowTable") -> None:
        """Fold another table (e.g. one shard's result) into this one.

        Equivalent to replaying ``other``'s observations through
        :meth:`add` and then registering its party labels — the
        roll-ups are merged structurally instead (set unions per grid
        cell and destination), which skips re-deriving each
        observation's level-2 category and flow cell.  Party labels
        keep :meth:`add`'s semantics: labels set by ``other``'s
        observations override, registered-only labels do not.
        """
        parties = self._party_by_fqdn
        for segment in other._segments:
            if isinstance(segment, list):
                self._observations.extend(segment)
                for observation in segment:
                    parties[(observation.service, observation.fqdn)] = observation.party
            else:
                pool, rows = segment
                self._append_packed(segment)
                # ``other``'s label for a key it observed is the one its
                # last observation of that key set.
                for s, fqdn in dict.fromkeys(zip(*_columns(rows, _SERVICE, _FQDN))):
                    key = (pool[s], pool[fqdn])
                    parties[key] = other._party_by_fqdn[key]
        for key, platforms in other._grid.items():
            self._grid[key].update(platforms)
        for key, types in other._per_destination.items():
            self._per_destination[key].update(types)
        for key, party in other._party_by_fqdn.items():
            parties.setdefault(key, party)

    def merge_packed(self, pool: tuple, rows: bytes, parties: bytes) -> None:
        """Fold one packed shard table into this one.

        ``rows`` are observations as :data:`PACKED_ROW` records of
        ``pool`` indexes; ``parties`` are ``(service, fqdn, party)``
        index triples (:func:`pack_indexes`), the shard table's party
        labels.  Equivalent to :meth:`merge` of the table that adding
        every row and then registering every party builds.  The table
        keeps the rows as they are; they are unpacked once here, into
        the index columns every pass reads.  The per-row work is keyed
        on pool indexes: each roll-up key is translated to values — and
        its enums hashed — once per distinct index combination, not
        once per row.
        """
        if rows:
            self._append_packed((pool, rows))
        services, columns, platforms, level3s, fqdns, row_parties = _columns(
            rows, _SERVICE, _COLUMN, _PLATFORM, _LEVEL3, _FQDN, _PARTY
        )
        level2_of = ONTOLOGY.level2_of
        for s, column, platform, level3, party in dict.fromkeys(
            zip(services, columns, platforms, level3s, row_parties)
        ):
            self._grid[
                (pool[s], level2_of(pool[level3]), pool[column], cell_for(pool[party]))
            ].add(pool[platform])
        third = {p for p in set(row_parties) if pool[p].is_third_party}
        for s, column, fqdn, level3, party in dict.fromkeys(
            zip(services, columns, fqdns, level3s, row_parties)
        ):
            if party in third:
                self._per_destination[(pool[s], pool[column], pool[fqdn])].add(
                    pool[level3]
                )
        # As add(): each observed key takes the label of its last row,
        # in first-seen order; then registrations fill in the rest.
        labels = self._party_by_fqdn
        for (s, fqdn), party in dict(zip(zip(services, fqdns), row_parties)).items():
            labels[(pool[s], pool[fqdn])] = pool[party]
        triples = unpack_indexes(parties)
        for s, fqdn, party in zip(triples[::3], triples[1::3], triples[2::3]):
            labels.setdefault((pool[s], pool[fqdn]), pool[party])

    def _append_packed(self, segment: tuple[tuple, bytes]) -> None:
        """Close the open list segment behind ``segment`` and open a new one."""
        if self._observations:
            self._sealed += len(self._observations)
        else:
            self._segments.pop()
        self._sealed += len(segment[1]) // PACKED_ROW.size
        self._observations = []
        self._segments += (segment, self._observations)

    def __len__(self) -> int:
        return self._sealed + len(self._observations)

    def observations(self) -> list[FlowObservation]:
        out: list[FlowObservation] = []
        for segment in self._segments:
            if isinstance(segment, list):
                out.extend(segment)
            else:
                pool, rows = segment
                out.extend(
                    FlowObservation(*map(pool.__getitem__, row))
                    for row in PACKED_ROW.iter_unpack(rows)
                )
        return out

    def _rollups(self) -> tuple:
        """``(contacts, type_sets)`` over every observation.

        * ``contacts``: (service, column) → {fqdn: third-party ATS
          observation count}, fqdns in first-seen order;
        * ``type_sets``: (service, column) → {fqdn: level3 set} for
          third parties, in ``_per_destination`` order.

        Derived in one walk and kept until the table grows: every
        mutation that could change them adds observations.
        """
        count = len(self)
        if self._derived is not None and self._derived[0] == count:
            return self._derived[1]
        third_ats = PartyLabel.THIRD_PARTY_ATS
        contacts: dict[tuple, dict[str, int]] = {}
        for segment in self._segments:
            if isinstance(segment, list):
                for o in segment:
                    if o.party is third_ats:
                        _count(contacts, o.service, o.column, o.fqdn, 1)
                continue
            pool, rows = segment
            for (s, column, fqdn, party), n in Counter(
                zip(*_columns(rows, _SERVICE, _COLUMN, _FQDN, _PARTY))
            ).items():
                if pool[party] is third_ats:
                    _count(contacts, pool[s], pool[column], pool[fqdn], n)
        type_sets: dict[tuple, dict[str, set[Level3]]] = {}
        for (service, column, fqdn), types in self._per_destination.items():
            type_sets.setdefault((service, column), {})[fqdn] = types
        rollups = (contacts, type_sets)
        self._derived = (count, rollups)
        return rollups

    # -- paper-facing aggregates ---------------------------------------

    def unique_flows(self) -> set[tuple[Level3, str]]:
        """Unique <data type, destination> pairs (paper: 5,508)."""
        pairs: set[tuple[Level3, str]] = set()
        for segment in self._segments:
            if isinstance(segment, list):
                pairs.update(observation.flow_pair for observation in segment)
            else:
                pool, rows = segment
                pairs.update(
                    (pool[level3], pool[fqdn])
                    for level3, fqdn in dict.fromkeys(
                        zip(*_columns(rows, _LEVEL3, _FQDN))
                    )
                )
        return pairs

    def unique_data_types(self) -> set[str]:
        """Unique raw data types observed in flows."""
        return {o.raw_key for o in self.observations() if o.raw_key}

    def services(self) -> list[str]:
        # Every observation, and nothing else, opens a grid cell.
        return sorted({key[0] for key in self._grid})

    def presence(
        self,
        service: str,
        level2: Level2,
        column: TraceColumn,
        cell: FlowCell,
    ) -> Presence:
        """The Table 4 symbol for one grid cell.

        Desktop observations merge into the web side, as the paper
        merges desktop-app traces with the website platform.
        """
        platforms = self._grid.get((service, level2, column, cell), set())
        web = bool({Platform.WEB, Platform.DESKTOP} & platforms)
        mobile = Platform.MOBILE in platforms
        return Presence.from_platforms(web=web, mobile=mobile)

    def grid_for(self, service: str) -> dict[tuple[Level2, TraceColumn, FlowCell], Presence]:
        """The full Table 4 row block for one service."""
        from repro.model import ALL_COLUMNS

        out = {}
        for level2 in Level2:
            for column in ALL_COLUMNS:
                for cell in FlowCell:
                    out[(level2, column, cell)] = self.presence(
                        service, level2, column, cell
                    )
        return out

    def observed_level2(self, service: str | None = None) -> set[Level2]:
        return {
            o.level2
            for o in self.observations()
            if service is None or o.service == service
        }

    def observed_level3(self, service: str | None = None) -> set[Level3]:
        return {
            o.level3
            for o in self.observations()
            if service is None or o.service == service
        }

    # -- linkability inputs ---------------------------------------------

    def third_party_type_sets(
        self, service: str, column: TraceColumn
    ) -> dict[str, set[Level3]]:
        """Per-third-party data type sets for one service and column."""
        cell = self._rollups()[1].get((service, column), {})
        return {fqdn: set(types) for fqdn, types in cell.items()}

    def third_party_ats_contacts(
        self, service: str, column: TraceColumn
    ) -> dict[str, int]:
        """Observation count per third-party ATS destination of one
        service and column, destinations in first-seen order."""
        return dict(self._rollups()[0].get((service, column), {}))

    def party_of(self, service: str, fqdn: str) -> PartyLabel | None:
        return self._party_by_fqdn.get((service, fqdn))
