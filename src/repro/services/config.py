"""Corpus configuration: the knobs of a generation run and their names.

:class:`CorpusConfig` travels everywhere — generation, replay, the
engine's shard tasks, streaming sessions — so this module stays free
of the traffic generator, the service catalog and the stream package:
a replayed audit and the CLI's flag definitions import it without
pulling in code they never run.

* :data:`SERVICE_KEYS` — the six audited services in canonical order
  (the catalog builds one spec per key);
* :data:`LOAD_PROFILES` — named traffic-intensity presets
  (``--profile``);
* :data:`IMPAIRMENT_PROFILES` — named network-impairment presets
  (``--impair``), applied by :mod:`repro.stream.impair`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.services.catalog import ServiceSpec

#: The audited services, in canonical (report) order.
SERVICE_KEYS: tuple[str, ...] = (
    "duolingo",
    "minecraft",
    "quizlet",
    "roblox",
    "tiktok",
    "youtube",
)


@dataclass(frozen=True)
class LoadProfile:
    """A named traffic-intensity preset (SNIPPETS-style load modes).

    Profiles scale the configured volume without touching the
    structural results: the Table 4 grid and the Figure 3/4 linkable
    shapes are scale-independent, so a profile only moves packet and
    flow volumes (and, for ``stress``, the request-rate density).
    """

    name: str
    scale_multiplier: float  # packet/flow volume vs the configured scale
    rate_multiplier: float = 1.0  # requests per wall-clock second
    description: str = ""


LOAD_PROFILES: dict[str, LoadProfile] = {
    "light": LoadProfile(
        "light", 0.25, description="quarter volume — smoke tests, CI"
    ),
    "standard": LoadProfile(
        "standard", 1.0, description="the configured scale, unchanged"
    ),
    "heavy": LoadProfile(
        "heavy", 4.0, 2.0, description="4x volume at double request rate"
    ),
    "stress": LoadProfile(
        "stress", 10.0, 5.0, description="10x volume at 5x request rate"
    ),
}


@dataclass(frozen=True)
class ImpairmentProfile:
    """One named set of impairment intensities.

    Probabilities are per-packet; ``reorder_depth`` is how many
    subsequent packets a displaced one is held behind (the injector
    draws 1..depth).  ``jitter_s`` is the half-width of a uniform
    timestamp perturbation in seconds.
    """

    name: str
    description: str = ""
    drop: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    reorder_depth: int = 4
    jitter_s: float = 0.0
    fragment: float = 0.0

    @property
    def recoverable(self) -> bool:
        """True when reassembly fully undoes this profile's damage."""
        return self.drop == 0.0 and self.jitter_s == 0.0 and self.fragment == 0.0


IMPAIRMENT_PROFILES: dict[str, ImpairmentProfile] = {
    "clean": ImpairmentProfile("clean", description="pass-through (no impairment)"),
    "reorder": ImpairmentProfile(
        "reorder",
        reorder=0.25,
        reorder_depth=4,
        description="25% of packets displaced up to 4 positions (recoverable)",
    ),
    "duplicate": ImpairmentProfile(
        "duplicate",
        duplicate=0.2,
        description="20% of packets duplicated bit-exact (recoverable)",
    ),
    "reorder-dup": ImpairmentProfile(
        "reorder-dup",
        reorder=0.2,
        reorder_depth=4,
        duplicate=0.15,
        description="reordering plus duplication combined (recoverable)",
    ),
    "lossy": ImpairmentProfile(
        "lossy",
        drop=0.03,
        reorder=0.1,
        reorder_depth=3,
        description="3% loss with mild reordering (holes expected)",
    ),
    "jittery": ImpairmentProfile(
        "jittery",
        jitter_s=0.02,
        description="±20 ms capture-clock jitter (timestamps move)",
    ),
    "fragmented": ImpairmentProfile(
        "fragmented",
        fragment=0.1,
        description="10% of packets split into IP fragments (decoder-lossy)",
    ),
    "chaos": ImpairmentProfile(
        "chaos",
        drop=0.02,
        duplicate=0.1,
        reorder=0.2,
        reorder_depth=6,
        jitter_s=0.01,
        fragment=0.05,
        description="everything at once — the worst plausible last mile",
    ),
}


def impairment_profile(name: str) -> ImpairmentProfile:
    """Look up a named profile; raise with the known names otherwise."""
    try:
        return IMPAIRMENT_PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(IMPAIRMENT_PROFILES))
        raise ValueError(
            f"unknown impairment profile {name!r} (known: {known})"
        ) from None


@dataclass
class CorpusConfig:
    """Knobs of the corpus generation run."""

    seed: int = 2023
    scale: float = 0.05  # volume multiplier vs the paper's Table 1
    start_epoch: float = 1_697_364_000.0  # 2023-10-15 10:00:00 UTC
    mobile_pin_rate: float = 1.0  # filler flows that stay TLS-opaque
    services: tuple[str, ...] | None = None  # None = all six
    # Extra linkable partners compensating for classifier attrition
    # (only relevant when bundles use non-standard keys; the default
    # stable-key bundles survive classification, so no overshoot).
    fanout_overshoot: float = 1.0
    profile: str = "standard"  # named load profile, see LOAD_PROFILES
    # Named network-impairment profile applied to every mobile capture
    # (see IMPAIRMENT_PROFILES); None = clean link.  Impairment is
    # seeded per trace, so generation stays deterministic.
    impair: str | None = None

    def __post_init__(self) -> None:
        if self.profile not in LOAD_PROFILES:
            known = ", ".join(sorted(LOAD_PROFILES))
            raise ValueError(f"unknown load profile {self.profile!r} (known: {known})")
        if self.impair is not None:
            impairment_profile(self.impair)  # fail fast on unknown names

    @property
    def load_profile(self) -> LoadProfile:
        return LOAD_PROFILES[self.profile]

    @property
    def effective_scale(self) -> float:
        """The volume multiplier after the load profile is applied."""
        return self.scale * self.load_profile.scale_multiplier

    def service_specs(self) -> list[ServiceSpec]:
        from repro.services.catalog import SERVICES

        specs = SERVICES()
        if self.services is None:
            return specs
        wanted = set(self.services)
        return [spec for spec in specs if spec.key in wanted]

    def for_service(self, service: str) -> "CorpusConfig":
        """This config restricted to one service (the engine's shard unit)."""
        return dataclasses.replace(self, services=(service,))
