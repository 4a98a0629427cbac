"""Ground-truth behaviour profiles transcribed from the paper.

Each service's profile encodes:

* **the Table 4 grid** — for each level-2 data type category and each
  audit column (child / adolescent / adult / logged-out), on which
  platforms each of the four flow cells (collect 1st, collect 1st ATS,
  share 3rd, share 3rd ATS) was observed;
* **Figure 3 calibration** — how many third-party domains receive
  linkable data per column;
* **Figure 4 calibration** — the size of the largest linkable data
  type set per column;
* **Table 1 calibration** — packet and TCP-flow volume targets and the
  number of distinct domains/eSLDs contacted.

Grid cells are written as compact 4-character strings per column in
cell order ``[collect 1st, collect 1st ATS, share 3rd, share 3rd ATS]``
using ``B`` (both platforms), ``W`` (web only), ``M`` (mobile only),
and ``-`` (not observed), exactly mirroring Table 4's symbols.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.model import (
    ALL_COLUMNS,
    FlowCell,
    Presence,
    TraceColumn,
)
from repro.ontology.nodes import Level2, Level3

_SYMBOL = {
    "B": Presence.BOTH,
    "W": Presence.WEB_ONLY,
    "M": Presence.MOBILE_ONLY,
    "-": Presence.NONE,
}

_CELLS = (
    FlowCell.COLLECT_1ST,
    FlowCell.COLLECT_1ST_ATS,
    FlowCell.SHARE_3RD,
    FlowCell.SHARE_3RD_ATS,
)

_LEVEL2_ROWS = (
    Level2.PERSONAL_IDENTIFIERS,
    Level2.DEVICE_IDENTIFIERS,
    Level2.PERSONAL_CHARACTERISTICS,
    Level2.GEOLOCATION,
    Level2.USER_COMMUNICATIONS,
    Level2.USER_INTERESTS_AND_BEHAVIORS,
)

GridKey = tuple[Level2, TraceColumn, FlowCell]


def _parse_grid(rows: dict[Level2, str]) -> dict[GridKey, Presence]:
    """Expand the compact row strings into a full grid mapping.

    Each row string holds 16 symbols: four audit columns × four cells,
    column order child, adolescent, adult, logged-out.
    """
    grid: dict[GridKey, Presence] = {}
    for level2, text in rows.items():
        symbols = text.replace(" ", "")
        if len(symbols) != 16:
            raise ValueError(f"{level2}: expected 16 symbols, got {len(symbols)}")
        for column_index, column in enumerate(ALL_COLUMNS):
            for cell_index, cell in enumerate(_CELLS):
                symbol = symbols[column_index * 4 + cell_index]
                grid[(level2, column, cell)] = _SYMBOL[symbol]
    return grid


# The level-3 data types each level-2 row contributes, in the canonical
# linkable-set priority order used for Figure 4 (see LINKABLE_PRIORITY).
# Only the paper's 19 observed categories appear (Table 2 stars).
LEVEL3_BY_LEVEL2: dict[Level2, tuple[Level3, ...]] = {
    Level2.PERSONAL_IDENTIFIERS: (
        Level3.ALIASES,
        Level3.NAME,
        Level3.LOGIN_INFORMATION,
        Level3.REASONABLY_LINKABLE_PERSONAL_IDENTIFIERS,
        Level3.CONTACT_INFORMATION,
    ),
    Level2.DEVICE_IDENTIFIERS: (
        Level3.DEVICE_INFORMATION,
        Level3.DEVICE_SOFTWARE_IDENTIFIERS,
        Level3.DEVICE_HARDWARE_IDENTIFIERS,
    ),
    Level2.PERSONAL_CHARACTERISTICS: (
        Level3.LANGUAGE,
        Level3.AGE,
        Level3.GENDER_SEX,
    ),
    Level2.GEOLOCATION: (
        Level3.LOCATION_TIME,
        Level3.COARSE_GEOLOCATION,
    ),
    Level2.USER_COMMUNICATIONS: (Level3.NETWORK_CONNECTION_INFORMATION,),
    Level2.USER_INTERESTS_AND_BEHAVIORS: (
        Level3.SERVICE_INFORMATION,
        Level3.APP_OR_SERVICE_USAGE,
        Level3.PRODUCTS_AND_ADVERTISING,
        Level3.ACCOUNT_SETTINGS,
        Level3.INFERENCES,
    ),
}

# Canonical priority order for composing linkable sets.  The first five
# entries reproduce the paper's "most common linkable set" (§4.2:
# network connection information, language, service information, app or
# service usage, device information); the first thirteen reproduce the
# largest observed set (Quizlet, adult trace).
LINKABLE_PRIORITY: tuple[Level3, ...] = (
    Level3.NETWORK_CONNECTION_INFORMATION,
    Level3.LANGUAGE,
    Level3.SERVICE_INFORMATION,
    Level3.APP_OR_SERVICE_USAGE,
    Level3.DEVICE_INFORMATION,
    Level3.DEVICE_SOFTWARE_IDENTIFIERS,
    Level3.PRODUCTS_AND_ADVERTISING,
    Level3.ACCOUNT_SETTINGS,
    Level3.ALIASES,
    Level3.NAME,
    Level3.LOGIN_INFORMATION,
    Level3.LOCATION_TIME,
    Level3.REASONABLY_LINKABLE_PERSONAL_IDENTIFIERS,
    Level3.COARSE_GEOLOCATION,
    Level3.DEVICE_HARDWARE_IDENTIFIERS,
    Level3.AGE,
    Level3.GENDER_SEX,
    Level3.CONTACT_INFORMATION,
    Level3.INFERENCES,
)


@dataclass(frozen=True)
class VolumeTargets:
    """Table 1 calibration (per service, platforms merged)."""

    domains: int
    eslds: int
    packets: int
    tcp_flows: int


@dataclass(frozen=True)
class ServiceProfile:
    """Everything the generator needs to emit one service's traffic."""

    service: str
    grid: dict[GridKey, Presence]
    linkable_third_parties: dict[TraceColumn, int]  # Figure 3
    largest_linkable_set: dict[TraceColumn, int]  # Figure 4
    volume: VolumeTargets  # Table 1
    partner_orgs: tuple[str, ...]  # Figure 5 head of the ATS pool

    def presence(self, level2: Level2, column: TraceColumn, cell: FlowCell) -> Presence:
        return self.grid[(level2, column, cell)]

    def shared_level2(self, column: TraceColumn) -> list[Level2]:
        """Level-2 categories shared with any third party in a column."""
        return [
            level2
            for level2 in _LEVEL2_ROWS
            if self.presence(level2, column, FlowCell.SHARE_3RD) is not Presence.NONE
            or self.presence(level2, column, FlowCell.SHARE_3RD_ATS) is not Presence.NONE
        ]

    def linkable_set(self, column: TraceColumn) -> list[Level3]:
        """The level-3 set sent to the column's top linkable partner.

        Composed by walking LINKABLE_PRIORITY, keeping types whose
        level-2 parent is shared with third parties in this column,
        truncated to the Figure 4 target (which may exceed availability
        — e.g. TikTok child — in which case availability wins).
        """
        allowed = set(self.shared_level2(column))
        target = self.largest_linkable_set[column]
        chosen: list[Level3] = []
        for level3 in LINKABLE_PRIORITY:
            parent = _LEVEL2_OF[level3]
            if parent in allowed:
                chosen.append(level3)
            if len(chosen) == target:
                break
        return chosen


_LEVEL2_OF: dict[Level3, Level2] = {
    level3: level2
    for level2, members in LEVEL3_BY_LEVEL2.items()
    for level3 in members
}


def _columns(child: int, adolescent: int, adult: int, logged_out: int) -> dict[TraceColumn, int]:
    return {
        TraceColumn.CHILD: child,
        TraceColumn.ADOLESCENT: adolescent,
        TraceColumn.ADULT: adult,
        TraceColumn.LOGGED_OUT: logged_out,
    }


# ---------------------------------------------------------------------
# Table 4 transcription.  Row order within each string:
#   child | adolescent | adult | logged-out, each as [C1, C1A, S3, S3A].
# ---------------------------------------------------------------------

_PROFILES: dict[str, ServiceProfile] = {
    "duolingo": ServiceProfile(
        service="duolingo",
        grid=_parse_grid(
            {
                Level2.PERSONAL_IDENTIFIERS: "B-WB B-WB B-WB B--M",
                Level2.DEVICE_IDENTIFIERS: "B-BB B-BB B-BB B-BB",
                Level2.PERSONAL_CHARACTERISTICS: "B-WB B-WB B-WB B-WB",
                Level2.GEOLOCATION: "B--B B--B B--B B--M",
                Level2.USER_COMMUNICATIONS: "B-BB B-BB B-BB B-BB",
                Level2.USER_INTERESTS_AND_BEHAVIORS: "B-BB B-BB B-BB B-BB",
            }
        ),
        linkable_third_parties=_columns(19, 58, 51, 14),
        largest_linkable_set=_columns(11, 11, 11, 11),
        volume=VolumeTargets(domains=122, eslds=69, packets=60_909, tcp_flows=1_466),
        partner_orgs=(
            "Google LLC",
            "Braze, Inc.",
            "Adjust GmbH",
            "AppsFlyer",
            "Functional Software",
            "Amazon Technologies",
            "Apptimize, Inc.",
            "ProfitWell",
            "OneTrust",
            "Snowplow Analytics",
        ),
    ),
    "minecraft": ServiceProfile(
        service="minecraft",
        grid=_parse_grid(
            {
                Level2.PERSONAL_IDENTIFIERS: "BBM- BBM- BBMM MW--",
                Level2.DEVICE_IDENTIFIERS: "BBBB BBBB BBBB BBWB",
                Level2.PERSONAL_CHARACTERISTICS: "BBBB BBBB BBBB BWWB",
                Level2.GEOLOCATION: "BWWM WWWM BWWM MW-M",
                Level2.USER_COMMUNICATIONS: "BBBB BBBB BBBB BBWB",
                Level2.USER_INTERESTS_AND_BEHAVIORS: "BBWB BBBB BBWB BBWB",
            }
        ),
        linkable_third_parties=_columns(31, 31, 18, 17),
        largest_linkable_set=_columns(9, 10, 11, 8),
        volume=VolumeTargets(domains=136, eslds=56, packets=134_852, tcp_flows=2_004),
        partner_orgs=(
            "Akamai Technologies",
            "Adobe Inc.",
            "Google LLC",
            "Amazon Technologies",
            "Integral Ad Science",
            "Index Exchange",
            "NSONE Inc",
            "Crownpeak Technology",
            "OneTrust",
            "DoubleVerify",
        ),
    ),
    "quizlet": ServiceProfile(
        service="quizlet",
        grid=_parse_grid(
            {
                Level2.PERSONAL_IDENTIFIERS: "B-BW B-BB B-BB W-BB",
                Level2.DEVICE_IDENTIFIERS: "B-BB B-BB B-BB B-BB",
                Level2.PERSONAL_CHARACTERISTICS: "B-BB B-BB B-BB B-BB",
                Level2.GEOLOCATION: "W-BB W-BB W-BB W-BB",
                Level2.USER_COMMUNICATIONS: "B-BB B-BB B-BB B-BB",
                Level2.USER_INTERESTS_AND_BEHAVIORS: "B-BB B-BB B-BB B-BB",
            }
        ),
        linkable_third_parties=_columns(31, 219, 234, 160),
        largest_linkable_set=_columns(10, 12, 13, 12),
        volume=VolumeTargets(domains=532, eslds=257, packets=88_102, tcp_flows=6_158),
        partner_orgs=(
            "Google LLC",
            "PubMatic, Inc.",
            "Amazon Technologies",
            "Adobe Inc.",
            "MediaMath, Inc.",
            "OpenX Technologies",
            "Index Exchange",
            "Magnite, Inc.",
            "TripleLift",
            "Sharethrough, Inc.",
            "Media.net Advertising",
            "Adform A/S",
            "Tapad, Inc.",
            "Exponential Interactive",
            "Ad Lightning, Inc.",
            "Integral Ad Science",
            "Snap Inc.",
            "OneSoon Ltd",
            "ClickTale",
            "Snowplow Analytics",
        ),
    ),
    "roblox": ServiceProfile(
        service="roblox",
        grid=_parse_grid(
            {
                Level2.PERSONAL_IDENTIFIERS: "BBMW BBMW BBMW WW-W",
                Level2.DEVICE_IDENTIFIERS: "BBBB BBBB BBBB BBWW",
                Level2.PERSONAL_CHARACTERISTICS: "BBBB BBBB BBBB BBWW",
                Level2.GEOLOCATION: "W--W W--B W--W ---W",
                Level2.USER_COMMUNICATIONS: "BBBB BBBB BBBB BBWW",
                Level2.USER_INTERESTS_AND_BEHAVIORS: "BBBB BBBB BBBB BWWW",
            }
        ),
        linkable_third_parties=_columns(15, 20, 20, 4),
        largest_linkable_set=_columns(8, 9, 8, 8),
        volume=VolumeTargets(domains=152, eslds=24, packets=103_642, tcp_flows=2_302),
        partner_orgs=(
            "Google LLC",
            "Amazon Technologies",
            "Adobe Inc.",
            "PubMatic, Inc.",
            "Akamai Technologies",
            "NSONE Inc",
            "Functional Software",
            "OneTrust",
            "Index Exchange",
            "AppsFlyer",
        ),
    ),
    "tiktok": ServiceProfile(
        service="tiktok",
        grid=_parse_grid(
            {
                Level2.PERSONAL_IDENTIFIERS: "WW-- WWW- WWWM WW--",
                Level2.DEVICE_IDENTIFIERS: "BBWM BBWM BBWM BWWM",
                Level2.PERSONAL_CHARACTERISTICS: "WWW- WWW- WWWM WWW-",
                Level2.GEOLOCATION: "WW-- WW-- WW-M WW--",
                Level2.USER_COMMUNICATIONS: "BBWM BBWM BBWM BWWM",
                Level2.USER_INTERESTS_AND_BEHAVIORS: "WWW- WWWM WWWM BWW-",
            }
        ),
        linkable_third_parties=_columns(2, 6, 5, 3),
        largest_linkable_set=_columns(5, 7, 10, 5),
        volume=VolumeTargets(domains=80, eslds=14, packets=32_234, tcp_flows=2_412),
        partner_orgs=(
            "Lemon Inc",
            "Apptimize, Inc.",
            "Adjust GmbH",
            "AppsFlyer",
            "Akamai Technologies",
            "Google LLC",
        ),
    ),
    "youtube": ServiceProfile(
        service="youtube",
        grid=_parse_grid(
            {
                Level2.PERSONAL_IDENTIFIERS: "W--- BW-- WW-- W---",
                Level2.DEVICE_IDENTIFIERS: "WW-- BW-- BW-- WW--",
                Level2.PERSONAL_CHARACTERISTICS: "WW-- WW-- WW-- WW--",
                Level2.GEOLOCATION: "W--- BW-- WW-- WW--",
                Level2.USER_COMMUNICATIONS: "WW-- BW-- BW-- WW--",
                Level2.USER_INTERESTS_AND_BEHAVIORS: "WW-- BW-- BW-- WW--",
            }
        ),
        linkable_third_parties=_columns(0, 0, 0, 0),
        largest_linkable_set=_columns(0, 0, 0, 0),
        volume=VolumeTargets(domains=76, eslds=15, packets=20_774, tcp_flows=226),
        partner_orgs=(),
    ),
}


def profile_for(service: str) -> ServiceProfile:
    """The ground-truth profile for one of the six services."""
    try:
        return _PROFILES[service]
    except KeyError:
        raise KeyError(
            f"unknown service {service!r}; expected one of {sorted(_PROFILES)}"
        ) from None


@lru_cache(maxsize=1)
def all_profiles() -> dict[str, ServiceProfile]:
    return dict(_PROFILES)


LEVEL2_ROWS = _LEVEL2_ROWS
FLOW_CELLS = _CELLS
