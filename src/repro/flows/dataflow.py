"""Flow records and aggregation.

A *data flow* is a ``<data type category, destination>`` pair observed
in a trace (paper §3.2.1).  :class:`FlowObservation` carries the full
audit context (service, column, platform, party label);
:class:`FlowTable` keeps every observation as one packed row and
derives from its rows the structures the results section consumes:
the Table 4 grid, unique-flow counts, and per-destination data type
sets for the linkability analysis.
"""

from __future__ import annotations

import struct
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

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

    def __iter__(self):
        """The field values in declaration order: the row
        :meth:`FlowTable.extend` packs."""
        return iter((self.service, self.column, self.platform, self.level3,
                     self.fqdn, self.esld, self.party, self.raw_key))


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


def _observed_parties(
    pool: tuple,
    services: Sequence[int],
    fqdns: Sequence[int],
    parties: Sequence[int],
    labels: dict,
) -> None:
    """Label each destination a segment's rows observe with the party
    of its last row, destinations in first-seen order."""
    for (s, fqdn), party in dict(zip(zip(services, fqdns), parties)).items():
        labels[(pool[s], pool[fqdn])] = pool[party]


def _count(counts: dict, service: str, column: TraceColumn, fqdn: str, n: int) -> None:
    per_cell = counts.setdefault((service, column), {})
    per_cell[fqdn] = per_cell.get(fqdn, 0) + n


class FlowTable:
    """All flow observations of a corpus, with audit-ready roll-ups.

    Every observation is one :data:`PACKED_ROW` record of indexes into
    a pool of field values, kept in segments in observation order:

    * merged segments — a shard's ``(pool, rows)`` exactly as
      ``repro.pipeline.engine.pack_shard_result`` encoded them, folded
      in by :meth:`merge_packed` (or another table's, by
      :meth:`merge`) and kept as they are.  The corpus table is these;
    * the table's own segment after them: :meth:`extend` interns each
      row's values into the table's own pool, in observation order,
      and appends the row.  A shard's table is only this, and
      :meth:`packed` hands its pool and rows on as they are.

    Nothing is rolled up as rows arrive.  The Table 4 grid, the
    per-destination type sets, the party map and the third-party ATS
    contact counts are derived from the rows in one walk on first
    read, and again only after the table changed: a shard's table
    never builds them, the corpus table builds them once.
    :meth:`observations` builds :class:`FlowObservation` objects only
    when asked.
    """

    def __init__(self) -> None:
        self._segments: list[tuple[tuple, bytes]] = []
        # The own segment: each pool value's index, in pool order.
        self._index: dict = {}
        self._rows = bytearray()
        # Labels registered without a flow, the first one per key.  An
        # observed destination's label comes from its rows instead.
        self._registered: dict[tuple[str, str], PartyLabel] = {}
        # (grid, type sets, party map, contacts), see _rollups().
        self._derived: tuple | None = None

    def add(self, observation: Iterable) -> None:
        self.extend([observation])

    def extend(self, observations: Iterable[Iterable]) -> None:
        """Append observations: :class:`FlowObservation` objects, or
        rows of their eight field values in declaration order."""
        index = self._index
        rows = self._rows
        pack = PACKED_ROW.pack
        for row in observations:
            rows += pack(*[index.setdefault(value, len(index)) for value in row])
        self._derived = None

    def register_party(self, service: str, fqdn: str, party: PartyLabel) -> None:
        """Record a destination's party label without a flow observation.

        Opaque (undecryptable) contacts never produce flows but still
        count for the destination census; registration never overrides
        a label that an observed flow sets, before or after it.
        """
        self._registered.setdefault((service, fqdn), party)
        self._derived = None

    def merge(self, other: "FlowTable") -> None:
        """Fold another table (e.g. one shard's) into this one.

        Equivalent to adding ``other``'s rows and then registering its
        registered labels; its segments are kept as they are.
        """
        for pool, rows in other._walk():
            self._append_segment(pool, bytes(rows))
        for key, party in other._registered.items():
            self._registered.setdefault(key, party)
        self._derived = None

    def merge_packed(self, pool: tuple, rows: bytes, parties: bytes) -> None:
        """Fold one packed shard table into this one.

        ``rows`` are observations as :data:`PACKED_ROW` records of
        ``pool`` indexes; ``parties`` are ``(service, fqdn, party)``
        index triples (:func:`pack_indexes`), the shard table's party
        map.  Equivalent to :meth:`merge` of the table that adding
        every row and then registering every party builds.  The rows
        are kept as they are; only the triples are read here.
        """
        self._append_segment(pool, rows)
        triples = unpack_indexes(parties)
        for s, fqdn, party in zip(triples[::3], triples[1::3], triples[2::3]):
            self._registered.setdefault((pool[s], pool[fqdn]), pool[party])
        self._derived = None

    def _append_segment(self, pool: tuple, rows: bytes) -> None:
        """Append a merged segment after every row so far: the own
        segment's rows become a merged segment first, so that rows
        added later follow the new one."""
        if self._rows:
            self._segments.append((tuple(self._index), bytes(self._rows)))
            self._index, self._rows = {}, bytearray()
        if rows:
            self._segments.append((pool, rows))

    def _walk(self) -> list[tuple[tuple, bytes | bytearray]]:
        """Every segment's ``(pool, rows)``, in observation order."""
        if not self._rows:
            return self._segments
        return [*self._segments, (tuple(self._index), self._rows)]

    def packed(self) -> tuple[dict, bytes, dict[tuple[str, str], PartyLabel]]:
        """The own segment as ``(indexes, rows, parties)``.

        ``indexes`` maps each pool value to its index, in pool order (a
        copy, so the caller may intern more values after them); ``rows``
        are the segment's rows; ``parties`` is the table's party map,
        observed destinations first, in first-seen order, then the
        registered-only ones, in registration order.  A table that
        merged segments has no single pool to pack.
        """
        if self._segments:
            raise ValueError("a table with merged segments cannot be packed")
        parties: dict[tuple[str, str], PartyLabel] = {}
        _observed_parties(
            tuple(self._index), *_columns(self._rows, _SERVICE, _FQDN, _PARTY), parties
        )
        for key, party in self._registered.items():
            parties.setdefault(key, party)
        return dict(self._index), bytes(self._rows), parties

    def __len__(self) -> int:
        merged = sum(len(rows) for _, rows in self._segments)
        return (merged + len(self._rows)) // PACKED_ROW.size

    def observations(self) -> list[FlowObservation]:
        return [
            FlowObservation(*map(pool.__getitem__, row))
            for pool, rows in self._walk()
            for row in PACKED_ROW.iter_unpack(rows)
        ]

    def _rollups(self) -> tuple:
        """``(grid, type_sets, parties, contacts)`` over every row.

        * ``grid``: (service, level2, column, cell) → {platforms};
        * ``type_sets``: (service, column) → {fqdn: level3 set} for
          third parties, fqdns in first-seen order;
        * ``parties``: (service, fqdn) → party label — an observed
          destination's is the one its last row carries, registrations
          fill in the rest;
        * ``contacts``: (service, column) → {fqdn: third-party ATS
          observation count}, fqdns in first-seen order.

        Derived in one walk and kept until the table changes.  A
        segment's rows are unpacked once, into the index columns every
        pass reads, and each roll-up key is translated to values — and
        its enums hashed — once per distinct index combination, not
        once per row.
        """
        if self._derived is not None:
            return self._derived
        grid: dict[tuple, set[Platform]] = defaultdict(set)
        type_sets: dict[tuple, dict[str, set[Level3]]] = {}
        parties: dict[tuple[str, str], PartyLabel] = {}
        contacts: dict[tuple, dict[str, int]] = {}
        level2_of = ONTOLOGY.level2_of
        third_ats = PartyLabel.THIRD_PARTY_ATS
        for pool, rows in self._walk():
            services, columns, platforms, level3s, fqdns, row_parties = _columns(
                rows, _SERVICE, _COLUMN, _PLATFORM, _LEVEL3, _FQDN, _PARTY
            )
            for s, column, platform, level3, party in dict.fromkeys(
                zip(services, columns, platforms, level3s, row_parties)
            ):
                grid[
                    (pool[s], level2_of(pool[level3]), pool[column], cell_for(pool[party]))
                ].add(pool[platform])
            third = {p for p in set(row_parties) if pool[p].is_third_party}
            for s, column, fqdn, level3, party in dict.fromkeys(
                zip(services, columns, fqdns, level3s, row_parties)
            ):
                if party in third:
                    type_sets.setdefault((pool[s], pool[column]), {}).setdefault(
                        pool[fqdn], set()
                    ).add(pool[level3])
            for (s, column, fqdn, party), n in Counter(
                zip(services, columns, fqdns, row_parties)
            ).items():
                if pool[party] is third_ats:
                    _count(contacts, pool[s], pool[column], pool[fqdn], n)
            _observed_parties(pool, services, fqdns, row_parties, parties)
        for key, party in self._registered.items():
            parties.setdefault(key, party)
        self._derived = (grid, type_sets, parties, contacts)
        return self._derived

    def _distinct(self, *fields: int) -> set[tuple]:
        """The distinct value combinations of the given row fields."""
        out: set[tuple] = set()
        for pool, rows in self._walk():
            out.update(
                tuple(pool[i] for i in combination)
                for combination in dict.fromkeys(zip(*_columns(rows, *fields)))
            )
        return out

    # -- paper-facing aggregates ---------------------------------------

    def unique_flows(self) -> set[tuple[Level3, str]]:
        """Unique <data type, destination> pairs (paper: 5,508)."""
        return self._distinct(_LEVEL3, _FQDN)

    def services(self) -> list[str]:
        # Every observation, and nothing else, opens a grid cell.
        return sorted({key[0] for key in self._rollups()[0]})

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
        platforms = self._rollups()[0].get((service, level2, column, cell), set())
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
        return {ONTOLOGY.level2_of(level3) for level3 in self.observed_level3(service)}

    def observed_level3(self, service: str | None = None) -> set[Level3]:
        return {
            level3
            for s, level3 in self._distinct(_SERVICE, _LEVEL3)
            if service is None or s == service
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
        return dict(self._rollups()[3].get((service, column), {}))

    def party_of(self, service: str, fqdn: str) -> PartyLabel | None:
        return self._rollups()[2].get((service, fqdn))
