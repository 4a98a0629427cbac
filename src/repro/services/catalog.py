"""The six audited services and their destination pools.

Maps each service to its first-party infrastructure and carves its
third-party contact pools out of the shared domain universe.  Pool
slicing is deterministic and eSLD-driven so the per-service domain and
eSLD counts land near Table 1:

1. every service first gets the *shared head* — the big-name trackers
   everyone embeds (Google Analytics, DoubleClick, Amazon, Adobe) —
   which produces the cross-service overlap in Table 1 (per-service
   domain counts sum to 1,098 but only 964 are unique);
2. then the eSLDs of its Figure-5 partner organizations;
3. then a slice of the long tail starting at a per-service offset, so
   tails overlap as little as the universe size allows;
4. non-ATS third parties (CDNs, APIs) are appended the same way.

The slicer then takes eSLDs until the service's Table-1 eSLD target is
met, drawing FQDNs under them until the FQDN target is met.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.destinations.dataset import DomainUniverse, default_universe
from repro.model import Platform
from repro.net.psl import esld as esld_of
from repro.services.config import SERVICE_KEYS
from repro.services.profiles import ServiceProfile, all_profiles


@dataclass(frozen=True)
class ServiceSpec:
    """Static facts about one audited service."""

    key: str
    display_name: str
    category: str  # gaming / social media / education
    platforms: tuple[Platform, ...]
    first_party_names: tuple[str, ...]  # name fragments for party matching
    first_party_owner: str
    requires_parent_email: bool  # active parental consent for <13
    profile: ServiceProfile
    # Destination pools (FQDN lists, stable order):
    first_party_pool: tuple[str, ...]
    first_party_ats_pool: tuple[str, ...]
    third_party_ats_pool: tuple[str, ...]
    third_party_non_ats_pool: tuple[str, ...]

    def all_contactable(self) -> list[str]:
        return (
            list(self.first_party_pool)
            + list(self.first_party_ats_pool)
            + list(self.third_party_ats_pool)
            + list(self.third_party_non_ats_pool)
        )

    def third_party_pool_interleaved(self) -> list[str]:
        """ATS and non-ATS third parties interleaved roughly 3:1 — the
        order linkable partners are drawn in (the observed third-party
        ATS / non-ATS census is ~485:150, §4.2)."""
        ats = list(self.third_party_ats_pool)
        non_ats = list(self.third_party_non_ats_pool)
        out: list[str] = []
        ats_index = non_ats_index = 0
        position = 0
        while ats_index < len(ats) or non_ats_index < len(non_ats):
            # Non-ATS at positions 1, 5, 9, … — early enough that even
            # a two-partner column (TikTok child) has one of each kind,
            # which the Table 4 grid's separate share-3rd and
            # share-3rd-ATS cells require.
            take_non_ats = position % 4 == 1
            if take_non_ats and non_ats_index < len(non_ats):
                out.append(non_ats[non_ats_index])
                non_ats_index += 1
            elif ats_index < len(ats):
                out.append(ats[ats_index])
                ats_index += 1
            elif non_ats_index < len(non_ats):
                out.append(non_ats[non_ats_index])
                non_ats_index += 1
            position += 1
        return out


# The trackers everybody embeds — the overlap head shared by services.
_SHARED_HEAD_ESLDS = (
    "google-analytics.com",
    "doubleclick.net",
    "googletagmanager.com",
    "googlesyndication.com",
    "amazon-adsystem.com",
    "demdex.net",
    "omtrdc.net",
    "facebook.net",
    "scorecardresearch.com",
    "onetrust.com",
    "cookielaw.org",
)

_SHARED_NON_ATS_ESLDS = (
    "cloudfront.net",
    "googleapis.com",
    "amazonaws.com",
    "jsdelivr.net",
    "cdnjs.com",
    "fastly.net",
)

# Third-party contact targets derived from Table 1 minus the service's
# first-party fan-out: (fqdns, eslds, non_ats_fqdns).
_THIRD_TARGETS: dict[str, tuple[int, int, int]] = {
    "duolingo": (101, 67, 20),
    "minecraft": (86, 49, 28),
    "quizlet": (507, 255, 70),
    "roblox": (69, 21, 18),
    "tiktok": (44, 8, 6),
    "youtube": (0, 0, 0),  # YouTube never leaves Google's estate
}

# Order in which services claim their long-tail slice (Quizlet last —
# its 255-eSLD slice would otherwise swallow everyone else's range).
_TAIL_ORDER = ("duolingo", "minecraft", "roblox", "tiktok", "youtube", "quizlet")

_META: dict[str, tuple[str, str, tuple[Platform, ...], bool]] = {
    "duolingo": ("Duolingo", "education", (Platform.WEB, Platform.MOBILE), False),
    "minecraft": (
        "Minecraft",
        "gaming",
        (Platform.WEB, Platform.MOBILE, Platform.DESKTOP),
        True,
    ),
    "quizlet": ("Quizlet", "education", (Platform.WEB, Platform.MOBILE), False),
    "roblox": (
        "Roblox",
        "gaming",
        (Platform.WEB, Platform.MOBILE, Platform.DESKTOP),
        True,
    ),
    "tiktok": ("TikTok", "social media", (Platform.WEB, Platform.MOBILE), False),
    "youtube": ("YouTube", "social media", (Platform.WEB, Platform.MOBILE), True),
}

_FIRST_PARTY_NAMES: dict[str, tuple[str, ...]] = {
    "duolingo": ("duolingo",),
    "minecraft": (
        "minecraft",
        "mojang",
        "microsoft",
        "xboxlive",
        "clarity",
        "msftconnecttest",
    ),
    "quizlet": ("quizlet", "qzlt"),
    "roblox": ("roblox", "rbxcdn", "robloxlabs"),
    "tiktok": ("tiktok", "tiktokv", "tiktokcdn", "musical", "byteoversea", "ibytedtos"),
    "youtube": (
        "youtube",
        "youtubekids",
        "ytimg",
        "googlevideo",
        "google",
        "gstatic",
        "googleapis",
        "googleusercontent",
        "ggpht",
        "gvt1",
        "google-analytics",
        "doubleclick",
        "googletagmanager",
        "googlesyndication",
        "googleadservices",
        "admob",
    ),
}


def _group_by_esld(fqdns: list[str]) -> dict[str, list[str]]:
    groups: dict[str, list[str]] = {}
    for fqdn in fqdns:
        groups.setdefault(esld_of(fqdn), []).append(fqdn)
    return groups


def _slice_pool(
    esld_order: list[str],
    fqdns_by_esld: dict[str, list[str]],
    esld_target: int,
    fqdn_target: int,
) -> list[str]:
    """Pick FQDNs spanning ~``esld_target`` eSLDs, ~``fqdn_target`` FQDNs.

    First pass takes one FQDN per eSLD (maximizing eSLD coverage), then
    rounds fill remaining FQDN budget breadth-first.
    """
    chosen_eslds = [e for e in esld_order if fqdns_by_esld.get(e)][:esld_target]
    picked: list[str] = []
    depth = 0
    while len(picked) < fqdn_target:
        advanced = False
        for domain in chosen_eslds:
            bucket = fqdns_by_esld[domain]
            if depth < len(bucket):
                picked.append(bucket[depth])
                advanced = True
                if len(picked) >= fqdn_target:
                    break
        if not advanced:
            break
        depth += 1
    return picked


def _build_spec(key: str, universe: DomainUniverse) -> ServiceSpec:
    profile = all_profiles()[key]
    display, category, platforms, parent_email = _META[key]
    infra = universe.first_party_infra[key]
    owner = infra.organization.name

    fp_all = universe.first_party_fqdns(key)
    fp_ats = set(universe.first_party_ats_hosts(key))
    first_party_pool = tuple(f for f in fp_all if f not in fp_ats)
    first_party_ats_pool = tuple(f for f in fp_all if f in fp_ats)

    own_eslds = set(infra.organization.eslds)
    fqdn_target, esld_target, non_ats_target = _THIRD_TARGETS[key]
    non_ats_esld_target = max(1, non_ats_target // 3) if non_ats_target else 0
    ats_esld_target = max(0, esld_target - non_ats_esld_target)

    # -- ATS pool ------------------------------------------------------
    ats_fqdns = [f for f in universe.ats_fqdns() if esld_of(f) not in own_eslds]
    # Google's shared trackers live under its first-party infra; expose
    # them to everyone else as third parties.
    if key != "youtube":
        ats_fqdns = [
            host
            for host in universe.first_party_ats_hosts("youtube")
            if esld_of(host) in _SHARED_HEAD_ESLDS
        ] + ats_fqdns
    groups = _group_by_esld(ats_fqdns)

    partner_names = set(profile.partner_orgs)
    partner_eslds: list[str] = []
    for org in (*universe.named_ats_orgs, *universe.tail_ats_orgs):
        if org.name in partner_names:
            partner_eslds.extend(d for d in org.eslds if d not in own_eslds)

    tail_eslds = [
        domain
        for org in universe.tail_ats_orgs
        for domain in org.eslds
        if org.name not in partner_names
    ]
    other_named = [
        domain
        for org in universe.named_ats_orgs
        for domain in org.eslds
        if org.name not in partner_names
        and domain not in _SHARED_HEAD_ESLDS
        and domain not in own_eslds
    ]
    # Per-service offset into the long tail keeps tails mostly
    # disjoint; Quizlet goes last because its slice dwarfs the rest.
    offset = 0
    for other in _TAIL_ORDER:
        if other == key:
            break
        offset += max(0, _THIRD_TARGETS[other][1])
    rotated_tail = tail_eslds[offset % max(1, len(tail_eslds)) :] + tail_eslds[: offset % max(1, len(tail_eslds))]

    # Interleave the service's partner organizations (Figure 5's most
    # contacted trackers) with the shared head (the Google/Amazon/Adobe
    # trackers everyone embeds), then append the long tail — so a
    # service's most contacted ATS mixes both, as the paper observed.
    head = [d for d in _SHARED_HEAD_ESLDS if d not in own_eslds]
    interleaved: list[str] = []
    head_index = 0
    for index, partner in enumerate(partner_eslds):
        interleaved.append(partner)
        # One head tracker after every two partner domains (2:1 mix).
        if index % 2 == 1 and head_index < len(head):
            interleaved.append(head[head_index])
            head_index += 1
    interleaved.extend(head[head_index:])
    esld_order = list(dict.fromkeys(interleaved + rotated_tail + other_named))
    third_ats = tuple(
        _slice_pool(esld_order, groups, ats_esld_target, fqdn_target - non_ats_target)
    )

    # -- non-ATS pool ----------------------------------------------------
    non_ats_fqdns = [
        f
        for f in universe.non_ats_third_party_fqdns()
        if esld_of(f) not in own_eslds
    ]
    non_ats_groups = _group_by_esld(non_ats_fqdns)
    tail_non_ats = [d for d in non_ats_groups if d not in _SHARED_NON_ATS_ESLDS]
    non_ats_offset = offset // 3
    rotated = (
        tail_non_ats[non_ats_offset % max(1, len(tail_non_ats)) :]
        + tail_non_ats[: non_ats_offset % max(1, len(tail_non_ats))]
    )
    non_ats_order = list(
        dict.fromkeys(
            [d for d in _SHARED_NON_ATS_ESLDS if d not in own_eslds] + rotated
        )
    )
    third_non_ats = (
        tuple(
            _slice_pool(
                non_ats_order, non_ats_groups, non_ats_esld_target, non_ats_target
            )
        )
        if non_ats_target
        else ()
    )

    return ServiceSpec(
        key=key,
        display_name=display,
        category=category,
        platforms=platforms,
        first_party_names=_FIRST_PARTY_NAMES[key],
        first_party_owner=owner,
        requires_parent_email=parent_email,
        profile=profile,
        first_party_pool=first_party_pool,
        first_party_ats_pool=first_party_ats_pool,
        third_party_ats_pool=third_ats,
        third_party_non_ats_pool=third_non_ats,
    )


@lru_cache(maxsize=1)
def _catalog() -> dict[str, ServiceSpec]:
    universe = default_universe()
    return {key: _build_spec(key, universe) for key in SERVICE_KEYS}


def service(key: str) -> ServiceSpec:
    """Look one service up by key (``"roblox"``, ``"tiktok"``, …)."""
    catalog = _catalog()
    try:
        return catalog[key]
    except KeyError:
        raise KeyError(
            f"unknown service {key!r}; expected one of {sorted(catalog)}"
        ) from None


def SERVICES() -> list[ServiceSpec]:
    """All six services in canonical order."""
    return list(_catalog().values())
