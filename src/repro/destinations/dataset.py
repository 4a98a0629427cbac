"""The simulated domain universe — Tracker Radar / whois substitute data.

The paper resolves destination ownership with ``whois`` plus the
DuckDuckGo Tracker Radar dataset and labels ATS domains with the
Firebog block-list collection (§3.2.3).  Offline, we embed an
equivalent universe:

* six **first-party organizations** (the audited services) with their
  real-world eSLDs and realistic subdomain fan-out, including the
  blocklisted first-party analytics hosts the paper observed
  (``metrics.roblox.com``, ``clarity.ms``, ``doubleclick.net`` for
  YouTube, …);
* ~60 **named ATS organizations** taken from the paper's Figure 5
  alluvial diagram (PubMatic, MediaMath, Adform, Adjust, Braze, Tapad,
  Index Exchange, …) plus the canonical tracking domains its §4.2
  examples cite (``google-analytics.com``, ``doubleclick.net``,
  ``amazon-adsystem.com``);
* deterministically synthesized **long-tail ATS organizations** so the
  universe reaches the paper's scale (485 third-party ATS domains, 326
  eSLDs, 964 FQDNs across services — Table 1 / §4.2);
* **non-ATS third parties**: CDNs, API platforms, payment and support
  widgets (``cloudfront.net``, ``googleapis.com``, ``vimeocdn.com``…).

Everything is generated with a fixed seed at import, so the universe is
identical across runs and platforms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache

from repro.net.psl import esld as esld_of


@dataclass(frozen=True)
class Organization:
    """An owning entity, as Tracker Radar models it."""

    name: str
    eslds: tuple[str, ...]
    is_ats: bool = False
    categories: tuple[str, ...] = ()
    fingerprinting: int = 0  # 0-3, Tracker Radar's scale
    country: str = "US"


# --------------------------------------------------------------------
# First-party organizations (the six audited services).
# Subdomain lists model the services' real infrastructure shape; hosts
# listed in `ats_hosts` are the first-party ATS endpoints the paper's
# blocklists flag (Table 4 "Collect 1st ATS" column).
# --------------------------------------------------------------------


@dataclass(frozen=True)
class FirstPartyInfra:
    organization: Organization
    subdomains: dict[str, tuple[str, ...]]  # esld -> subdomain labels
    ats_hosts: tuple[str, ...] = ()  # fully qualified blocklisted hosts

    def fqdns(self) -> list[str]:
        out: list[str] = []
        for domain, labels in self.subdomains.items():
            for label in labels:
                out.append(f"{label}.{domain}" if label else domain)
        return out


_DUOLINGO = FirstPartyInfra(
    organization=Organization(
        name="Duolingo, Inc.", eslds=("duolingo.com", "duolingo.cn"), categories=("Education",)
    ),
    subdomains={
        "duolingo.com": (
            "",
            "www",
            "api",
            "accounts",
            "stories",
            "events",
            "forum",
            "schools",
            "podcast",
            "preview",
            "static",
            "d2",
            "invite",
            "birdbrain",
            "sessions",
            "goals",
            "leaderboards",
            "friends",
            "achievements",
            "notifications",
            "ab",
            "experiments",
            "images",
            "sounds",
            "tts",
        ),
        "duolingo.cn": ("", "www"),
    },
)

_MICROSOFT = FirstPartyInfra(
    organization=Organization(
        name="Microsoft Corporation",
        eslds=(
            "minecraft.net",
            "mojang.com",
            "microsoft.com",
            "xboxlive.com",
            "live.com",
            "clarity.ms",
            "msftconnecttest.com",
        ),
        categories=("Gaming", "Platform"),
    ),
    subdomains={
        "minecraft.net": (
            "",
            "www",
            "api",
            "launcher",
            "launchermeta",
            "session",
            "textures",
            "libraries",
            "resources",
            "education",
            "feedback",
            "bugs",
            "account",
            "profile",
            "realms",
            "pc",
            "marketplace",
            "store",
        ),
        "mojang.com": ("", "www", "api", "authserver", "sessionserver", "account", "skins"),
        "microsoft.com": (
            "www",
            "login",
            "account",
            "graph",
            "vortex.data",
            "browser.events.data",
            "self.events.data",
            "settings-win.data",
            "watson.telemetry",
            "activity.windows",
            "arc.msn",
        ),
        "xboxlive.com": ("", "user.auth", "xsts.auth", "profile", "presence", "achievements"),
        "live.com": ("login", "account", "outlook"),
        "clarity.ms": ("", "www", "c", "i"),
        "msftconnecttest.com": ("www",),
    },
    ats_hosts=(
        "vortex.data.microsoft.com",
        "browser.events.data.microsoft.com",
        "self.events.data.microsoft.com",
        "settings-win.data.microsoft.com",
        "watson.telemetry.microsoft.com",
        "clarity.ms",
        "www.clarity.ms",
        "c.clarity.ms",
        "i.clarity.ms",
    ),
)

_QUIZLET = FirstPartyInfra(
    organization=Organization(
        name="Quizlet, Inc.", eslds=("quizlet.com", "qzlt.io"), categories=("Education",)
    ),
    subdomains={
        "quizlet.com": (
            "",
            "www",
            "api",
            "assets",
            "images",
            "up",
            "sets",
            "folders",
            "classes",
            "live",
            "test",
            "match",
            "learn",
            "flashcards",
            "search",
            "profile",
            "notifications",
            "billing",
            "checkout",
            "events",
            "ab",
            "static",
        ),
        "qzlt.io": ("", "cdn", "api"),
    },
)

_ROBLOX = FirstPartyInfra(
    organization=Organization(
        name="Roblox Corporation",
        eslds=("roblox.com", "rbxcdn.com", "robloxlabs.com"),
        categories=("Gaming",),
    ),
    subdomains={
        "roblox.com": (
            "",
            "www",
            "web",
            "api",
            "apis",
            "auth",
            "accountsettings",
            "accountinformation",
            "avatar",
            "badges",
            "catalog",
            "chat",
            "contacts",
            "develop",
            "economy",
            "economycreatorstats",
            "engagementpayouts",
            "followings",
            "friends",
            "games",
            "gamejoin",
            "gameinternationalization",
            "groups",
            "groupsmoderation",
            "inventory",
            "itemconfiguration",
            "locale",
            "localizationtables",
            "metrics",
            "midas",
            "notifications",
            "points",
            "premiumfeatures",
            "presence",
            "privatemessages",
            "publish",
            "search",
            "share",
            "thumbnails",
            "thumbnailsresizer",
            "trades",
            "translationroles",
            "translations",
            "twostepverification",
            "usermoderation",
            "users",
            "voice",
            "assetdelivery",
            "clientsettings",
            "clientsettingscdn",
            "gamepersistence",
            "adconfiguration",
            "abtesting",
            "realtime",
            "textfilter",
            "teleport",
        ),
        "rbxcdn.com": (
            "c0",
            "c1",
            "c2",
            "c3",
            "c4",
            "c5",
            "c6",
            "c7",
            "t0",
            "t1",
            "t2",
            "t3",
            "t4",
            "t5",
            "tr",
            "images",
            "js",
            "css",
            "static",
            "setup",
            "setup-ak",
            "roblox-setup",
            "assets",
            "contentstore",
            "media",
        ),
        "robloxlabs.com": ("", "www", "api"),
    },
    ats_hosts=(
        "metrics.roblox.com",
        "abtesting.roblox.com",
        "adconfiguration.roblox.com",
        "realtime.roblox.com",
    ),
)

_TIKTOK = FirstPartyInfra(
    organization=Organization(
        name="TikTok Ltd.",
        eslds=(
            "tiktok.com",
            "tiktokv.com",
            "tiktokcdn.com",
            "musical.ly",
            "byteoversea.com",
            "ibytedtos.com",
        ),
        categories=("Social Media",),
        country="CN",
    ),
    subdomains={
        "tiktok.com": (
            "",
            "www",
            "m",
            "api",
            "api16-normal-c-useast1a",
            "api19-normal-useast1a",
            "webcast",
            "mon",
            "mon-va",
            "log",
            "log-va",
            "mcs",
            "ads",
            "analytics",
            "business-api",
            "seller",
            "effects",
            "sf16-website-login",
            "libraweb",
            "starling",
        ),
        "tiktokv.com": ("api16-normal-useast5", "api22-normal-useast2a", "log16-normal-useast5", "mon16-normal-useast5"),
        "tiktokcdn.com": ("p16-sign-va", "p19-sign-va", "v16m-default", "v19-default", "sf16-fe", "lf16-tiktok-web", "obj"),
        "musical.ly": ("", "www", "api2"),
        "byteoversea.com": ("log", "mon", "api", "sdk"),
        "ibytedtos.com": ("p16-tiktokcdn-com.akamaized", "lf16-cdn-tos", "sf16-scmcdn", "im-api"),
    },
    ats_hosts=(
        "mon.tiktok.com",
        "mon-va.tiktok.com",
        "log.tiktok.com",
        "log-va.tiktok.com",
        "mcs.tiktok.com",
        "ads.tiktok.com",
        "analytics.tiktok.com",
        "log.byteoversea.com",
        "mon.byteoversea.com",
        "log16-normal-useast5.tiktokv.com",
        "mon16-normal-useast5.tiktokv.com",
    ),
)

_GOOGLE = FirstPartyInfra(
    organization=Organization(
        name="Google LLC",
        eslds=(
            "youtube.com",
            "youtubekids.com",
            "ytimg.com",
            "googlevideo.com",
            "google.com",
            "gstatic.com",
            "googleapis.com",
            "googleusercontent.com",
            "ggpht.com",
            "gvt1.com",
            "google-analytics.com",
            "doubleclick.net",
            "googletagmanager.com",
            "googlesyndication.com",
            "googleadservices.com",
            "admob.com",
        ),
        categories=("Platform", "Advertising"),
    ),
    subdomains={
        "youtube.com": (
            "",
            "www",
            "m",
            "api",
            "youtubei",
            "accounts",
            "studio",
            "music",
            "tv",
            "kids",
            "consent",
            "feedback",
            "upload",
            "s",
        ),
        "youtubekids.com": ("", "www", "api"),
        "ytimg.com": ("i", "s", "i9", "yt3"),
        "googlevideo.com": (
            "r1---sn-vgqsknez",
            "r2---sn-vgqskne6",
            "r3---sn-vgqsrn76",
            "r4---sn-vgqsrnls",
            "manifest",
        ),
        "google.com": (
            "www",
            "accounts",
            "apis",
            "play",
            "clients1",
            "clients2",
            "clients4",
            "clients6",
            "safebrowsing",
            "update",
            "fonts",
            "id",
            "ogs",
            "lh3",
        ),
        "gstatic.com": ("www", "ssl", "fonts", "encrypted-tbn0"),
        "googleapis.com": (
            "www",
            "fonts",
            "storage",
            "youtubei",
            "oauth2",
            "content",
            "firebaseinstallations",
            "android",
        ),
        "googleusercontent.com": ("lh3", "lh4", "lh5", "yt3"),
        "ggpht.com": ("yt3", "lh3"),
        "gvt1.com": ("redirector", "edgedl"),
        "google-analytics.com": ("www", "ssl", "region1", "analytics"),
        "doubleclick.net": ("", "ad", "static", "stats", "cm", "googleads", "securepubads", "pubads"),
        "googletagmanager.com": ("www",),
        "googlesyndication.com": ("pagead2", "tpc", "googleads"),
        "googleadservices.com": ("www",),
        "admob.com": ("", "www", "e"),
    },
    ats_hosts=(
        "www.google-analytics.com",
        "ssl.google-analytics.com",
        "region1.google-analytics.com",
        "analytics.google-analytics.com",
        "doubleclick.net",
        "ad.doubleclick.net",
        "static.doubleclick.net",
        "stats.doubleclick.net",
        "cm.doubleclick.net",
        "googleads.doubleclick.net",
        "securepubads.doubleclick.net",
        "pubads.doubleclick.net",
        "www.googletagmanager.com",
        "pagead2.googlesyndication.com",
        "tpc.googlesyndication.com",
        "googleads.googlesyndication.com",
        "www.googleadservices.com",
        "e.admob.com",
        "www.admob.com",
        "admob.com",
    ),
)

FIRST_PARTY_INFRA: dict[str, FirstPartyInfra] = {
    "duolingo": _DUOLINGO,
    "minecraft": _MICROSOFT,
    "quizlet": _QUIZLET,
    "roblox": _ROBLOX,
    "tiktok": _TIKTOK,
    "youtube": _GOOGLE,
}

# --------------------------------------------------------------------
# Named third-party ATS organizations (Figure 5 + §4.2 examples).
# --------------------------------------------------------------------

_ATS_SUBDOMAINS = (
    "www",
    "ads",
    "pixel",
    "sync",
    "events",
    "track",
    "cdn",
    "api",
    "collect",
    "beacon",
    "tags",
    "metrics",
    "rtb",
    "bid",
    "match",
    "stats",
    "log",
    "telemetry",
    "ingest",
    "edge",
    "sdk",
    "id",
)

_NAMED_ATS: tuple[tuple[str, tuple[str, ...], tuple[str, ...], int], ...] = (
    # (org name, eslds, categories, fingerprinting)
    ("PubMatic, Inc.", ("pubmatic.com",), ("Ad Motivated Tracking",), 2),
    ("MediaMath, Inc.", ("mathtag.com",), ("Ad Motivated Tracking",), 2),
    ("Adform A/S", ("adform.net", "adformdsp.net"), ("Ad Motivated Tracking",), 2),
    ("Adjust GmbH", ("adjust.com", "adjust.io"), ("Analytics",), 1),
    ("Exponential Interactive", ("exponential.com", "tribalfusion.com"), ("Ad Motivated Tracking",), 1),
    ("Braze, Inc.", ("braze.com", "appboy.com"), ("Analytics",), 1),
    ("Tapad, Inc.", ("tapad.com",), ("Ad Motivated Tracking",), 3),
    ("ProfitWell", ("profitwell.com",), ("Analytics",), 0),
    ("Integral Ad Science", ("adsafeprotected.com", "iasds01.com"), ("Ad Verification",), 2),
    ("ClickTale", ("clicktale.net",), ("Session Replay",), 2),
    ("OpenX Technologies", ("openx.net",), ("Ad Motivated Tracking",), 2),
    ("Snap Inc.", ("snapchat.com", "sc-static.net"), ("Ad Motivated Tracking",), 1),
    ("Index Exchange", ("casalemedia.com", "indexww.com"), ("Ad Motivated Tracking",), 2),
    ("Crownpeak Technology", ("evidon.com", "betrad.com"), ("Consent Management",), 0),
    ("OneTrust", ("onetrust.com", "cookielaw.org"), ("Consent Management",), 0),
    ("NSONE Inc", ("nsone.net",), ("Infrastructure",), 0),
    ("Functional Software", ("sentry.io", "sentry-cdn.com"), ("Error Reporting",), 0),
    ("TripleLift", ("3lift.com", "triplelift.com"), ("Ad Motivated Tracking",), 2),
    ("Ad Lightning, Inc.", ("adlightning.com",), ("Ad Verification",), 1),
    ("AppsFlyer", ("appsflyer.com", "appsflyersdk.com"), ("Attribution",), 2),
    ("Akamai Technologies", ("akamai.net", "akstat.io", "go-mpulse.net"), ("CDN", "Analytics"), 1),
    ("Media.net Advertising", ("media.net",), ("Ad Motivated Tracking",), 2),
    ("Magnite, Inc.", ("rubiconproject.com", "magnite.com"), ("Ad Motivated Tracking",), 2),
    ("Sharethrough, Inc.", ("sharethrough.com", "btlr.com"), ("Ad Motivated Tracking",), 2),
    ("Snowplow Analytics", ("snowplowanalytics.com", "snplow.net"), ("Analytics",), 1),
    ("Apptimize, Inc.", ("apptimize.com",), ("A/B Testing",), 1),
    ("OneSoon Ltd", ("adkernel.com",), ("Ad Motivated Tracking",), 2),
    ("Lemon Inc", ("pangle.io", "pangleglobal.com"), ("Ad Motivated Tracking",), 2),
    ("Amazon Technologies", ("amazon-adsystem.com", "amazonpay.com"), ("Ad Motivated Tracking",), 2),
    ("Adobe Inc.", ("demdex.net", "omtrdc.net", "everesttech.net", "adobedtm.com"), ("Analytics", "Ad Motivated Tracking"), 2),
    ("Meta Platforms, Inc.", ("facebook.com", "facebook.net", "fbcdn.net"), ("Ad Motivated Tracking",), 3),
    ("Criteo SA", ("criteo.com", "criteo.net"), ("Ad Motivated Tracking",), 3),
    ("The Trade Desk", ("adsrvr.org",), ("Ad Motivated Tracking",), 3),
    ("LiveRamp", ("rlcdn.com", "pippio.com"), ("Identity Graph",), 3),
    ("Quantcast", ("quantserve.com", "quantcount.com"), ("Audience Measurement",), 2),
    ("Comscore", ("scorecardresearch.com", "zqtk.net"), ("Audience Measurement",), 2),
    ("Nielsen", ("imrworldwide.com",), ("Audience Measurement",), 2),
    ("Taboola", ("taboola.com",), ("Native Advertising",), 2),
    ("Outbrain", ("outbrain.com",), ("Native Advertising",), 2),
    ("AppLovin", ("applovin.com", "applvn.com"), ("Mobile Advertising",), 2),
    ("Unity Technologies", ("unity3d.com", "unityads.com"), ("Mobile Advertising",), 1),
    ("ironSource", ("ironsrc.com", "supersonicads.com"), ("Mobile Advertising",), 2),
    ("Vungle", ("vungle.com",), ("Mobile Advertising",), 1),
    ("Chartboost", ("chartboost.com",), ("Mobile Advertising",), 1),
    ("InMobi", ("inmobi.com", "inmobicdn.net"), ("Mobile Advertising",), 2),
    ("Smaato", ("smaato.net",), ("Mobile Advertising",), 2),
    ("Mixpanel", ("mixpanel.com", "mxpnl.com"), ("Analytics",), 1),
    ("Amplitude", ("amplitude.com",), ("Analytics",), 1),
    ("Segment.io", ("segment.io", "segment.com"), ("Analytics",), 1),
    ("Branch Metrics", ("branch.io", "app.link"), ("Attribution",), 2),
    ("Kochava", ("kochava.com",), ("Attribution",), 2),
    ("Singular Labs", ("singular.net",), ("Attribution",), 1),
    ("Bugsnag", ("bugsnag.com",), ("Error Reporting",), 0),
    ("New Relic", ("newrelic.com", "nr-data.net"), ("Performance Monitoring",), 1),
    ("Datadog", ("datadoghq.com", "datadoghq-browser-agent.com"), ("Performance Monitoring",), 0),
    ("Hotjar", ("hotjar.com", "hotjar.io"), ("Session Replay",), 2),
    ("FullStory", ("fullstory.com",), ("Session Replay",), 2),
    ("Heap", ("heap.io", "heapanalytics.com"), ("Analytics",), 1),
    ("Pendo", ("pendo.io",), ("Analytics",), 1),
    ("Optimizely", ("optimizely.com",), ("A/B Testing",), 1),
    ("LaunchDarkly", ("launchdarkly.com",), ("A/B Testing",), 0),
    ("Moat (Oracle)", ("moatads.com", "moatpixel.com"), ("Ad Verification",), 2),
    ("DoubleVerify", ("doubleverify.com", "dvtps.com"), ("Ad Verification",), 2),
    ("ID5", ("id5-sync.com",), ("Identity Graph",), 3),
    ("33Across", ("33across.com",), ("Ad Motivated Tracking",), 2),
    ("Lotame", ("crwdcntrl.net",), ("Ad Motivated Tracking",), 3),
    ("BlueKai (Oracle)", ("bluekai.com", "bkrtx.com"), ("Ad Motivated Tracking",), 3),
    ("Permutive", ("permutive.com", "permutive.app"), ("Audience Measurement",), 1),
    ("Parse.ly", ("parsely.com",), ("Analytics",), 1),
    ("Chartbeat", ("chartbeat.com", "chartbeat.net"), ("Analytics",), 1),
)

# --------------------------------------------------------------------
# Named non-ATS third parties (CDNs, APIs, widgets) — §4.2 examples.
# --------------------------------------------------------------------

_CDN_SUBDOMAINS = ("", "www", "cdn", "static", "assets", "edge", "img", "media")

_NAMED_NON_ATS: tuple[tuple[str, tuple[str, ...], tuple[str, ...]], ...] = (
    ("Amazon Web Services", ("cloudfront.net", "amazonaws.com"), ("CDN", "Cloud")),
    ("Vimeo, Inc.", ("vimeocdn.com", "vimeo.com"), ("Video CDN",)),
    ("Cloudflare, Inc.", ("cloudflare.com", "cdnjs.com", "jsdelivr.net"), ("CDN",)),
    ("Fastly, Inc.", ("fastly.net", "fastlylb.net"), ("CDN",)),
    ("jQuery Foundation", ("jquery.com",), ("CDN",)),
    ("Bootstrap", ("bootstrapcdn.com",), ("CDN",)),
    ("Fonticons, Inc.", ("fontawesome.com",), ("CDN",)),
    ("Stripe, Inc.", ("stripe.com", "stripe.network"), ("Payments",)),
    ("PayPal, Inc.", ("paypal.com", "paypalobjects.com"), ("Payments",)),
    ("Braintree", ("braintreegateway.com",), ("Payments",)),
    ("Zendesk", ("zendesk.com", "zdassets.com"), ("Support",)),
    ("Intercom", ("intercom.io", "intercomcdn.com"), ("Support",)),
    ("Twilio", ("twilio.com",), ("Messaging",)),
    ("SendGrid", ("sendgrid.net",), ("Messaging",)),
    ("hCaptcha", ("hcaptcha.com",), ("Security",)),
    ("GeeTest", ("geetest.com",), ("Security",)),
    ("Arkose Labs", ("arkoselabs.com", "funcaptcha.com"), ("Security",)),
    ("MaxMind", ("maxmind.com",), ("Geolocation API",)),
    ("ipify", ("ipify.org",), ("Geolocation API",)),
    ("JW Player", ("jwplayer.com", "jwpcdn.com"), ("Video",)),
    ("Brightcove", ("brightcove.com", "brightcove.net"), ("Video",)),
    ("Wistia", ("wistia.com", "wistia.net"), ("Video",)),
    ("Imgix", ("imgix.net",), ("Image CDN",)),
    ("Cloudinary", ("cloudinary.com",), ("Image CDN",)),
    ("Algolia", ("algolia.net", "algolianet.com"), ("Search API",)),
    ("Contentful", ("contentful.com", "ctfassets.net"), ("CMS",)),
    ("Firebase (Google)", ("firebaseio.com",), ("Cloud",)),
    ("GitHub, Inc.", ("githubusercontent.com", "github.io"), ("Hosting",)),
    ("Typekit (Adobe)", ("typekit.net",), ("Fonts",)),
    ("Unpkg", ("unpkg.com",), ("CDN",)),
    ("Gravatar (Automattic)", ("gravatar.com",), ("Avatars",)),
    ("Giphy", ("giphy.com",), ("Media API",)),
    ("Tenor (Google)", ("tenor.com",), ("Media API",)),
    ("OpenWeather", ("openweathermap.org",), ("API",)),
    ("RecurlyJS", ("recurly.com",), ("Payments",)),
    ("StatusPage", ("statuspage.io",), ("Status",)),
    ("PagerDuty", ("pagerduty.com",), ("Status",)),
    ("Let's Encrypt OCSP", ("lencr.org",), ("PKI",)),
    ("DigiCert OCSP", ("digicert.com",), ("PKI",)),
    ("Apple, Inc.", ("apple.com", "mzstatic.com"), ("Platform",)),
)

# Word lists for the deterministic long-tail ATS synthesizer.
_TAIL_PREFIXES = (
    "ad", "pix", "trk", "aud", "bid", "tag", "data", "sig", "metric", "conv",
    "reach", "spark", "pulse", "quant", "vector", "prism", "nova", "zephyr",
    "atlas", "orbit", "lumen", "cipher", "vertex", "matrix", "echo", "flux",
    "drift", "ember", "onyx", "argo", "helix", "krypto", "meteor", "quark",
    "raven", "sable", "tundra", "umbra", "vortex", "wisp", "xenon", "yonder",
    "zenith", "alpha", "beacon", "cobalt", "delta", "epsilon", "fathom",
)
_TAIL_SUFFIXES = (
    "metrics", "signal", "track", "audience", "exchange", "media", "ads",
    "pixel", "graph", "lift", "serve", "sync", "mind", "wise", "ology",
    "scope", "grid", "works", "labs", "dsp", "ssp", "tag", "data", "iq",
)
_TAIL_TLDS = ("com", "net", "io", "co", "ai", "tv", "me")
_TAIL_COMPANY_SUFFIXES = (" Inc.", " Ltd.", " GmbH", " LLC", ", Inc.", " SA", " Corp.")
_TAIL_CATEGORIES = (
    ("Ad Motivated Tracking",),
    ("Analytics",),
    ("Audience Measurement",),
    ("Mobile Advertising",),
    ("Attribution",),
    ("Session Replay",),
)

_UNIVERSE_SEED = 20231001  # fall 2023, when the paper collected data
_N_TAIL_ATS_ORGS = 280


def _synthesize_tail_ats(rng: random.Random) -> list[Organization]:
    """Deterministically build the long-tail ATS organizations."""
    organizations: list[Organization] = []
    seen_domains: set[str] = set()
    while len(organizations) < _N_TAIL_ATS_ORGS:
        prefix = rng.choice(_TAIL_PREFIXES)
        suffix = rng.choice(_TAIL_SUFFIXES)
        tld = rng.choice(_TAIL_TLDS)
        base = f"{prefix}{suffix}"
        domain = f"{base}.{tld}"
        if domain in seen_domains:
            continue
        seen_domains.add(domain)
        eslds = [domain]
        if rng.random() < 0.15:  # some orgs own a second, CDN-ish domain
            alt = f"{base}-cdn.{rng.choice(_TAIL_TLDS)}"
            if alt not in seen_domains:
                seen_domains.add(alt)
                eslds.append(alt)
        name = base.capitalize() + rng.choice(_TAIL_COMPANY_SUFFIXES)
        organizations.append(
            Organization(
                name=name,
                eslds=tuple(eslds),
                is_ats=True,
                categories=rng.choice(_TAIL_CATEGORIES),
                fingerprinting=rng.randint(0, 3),
            )
        )
    return organizations


class DomainUniverse:
    """All organizations, eSLDs and FQDNs in the simulated internet.

    Exposes the pools the traffic generator draws from and the ground
    truth the entity database / blocklists are derived from.
    """

    def __init__(self, seed: int = _UNIVERSE_SEED) -> None:
        rng = random.Random(seed)
        self.first_party_infra = dict(FIRST_PARTY_INFRA)

        self.named_ats_orgs = [
            Organization(name=name, eslds=eslds, is_ats=True, categories=cats, fingerprinting=fp)
            for name, eslds, cats, fp in _NAMED_ATS
        ]
        self.tail_ats_orgs = _synthesize_tail_ats(rng)
        # Organization is frozen, hence hashable; the entity DB and
        # whois test tail membership once per eSLD or lookup.
        self._tail_ats = frozenset(self.tail_ats_orgs)
        self.non_ats_orgs = [
            Organization(name=name, eslds=eslds, is_ats=False, categories=cats)
            for name, eslds, cats in _NAMED_NON_ATS
        ]

        self._org_by_esld: dict[str, Organization] = {}
        for infra in self.first_party_infra.values():
            for domain in infra.organization.eslds:
                self._org_by_esld[domain] = infra.organization
        for org in (*self.named_ats_orgs, *self.tail_ats_orgs, *self.non_ats_orgs):
            for domain in org.eslds:
                self._org_by_esld.setdefault(domain, org)

        # FQDN pools -------------------------------------------------
        self._ats_fqdns: list[str] = []
        for org in (*self.named_ats_orgs, *self.tail_ats_orgs):
            for domain in org.eslds:
                count = rng.randint(3, 6)
                labels = rng.sample(_ATS_SUBDOMAINS, count)
                self._ats_fqdns.extend(f"{label}.{domain}" for label in labels)
        self._non_ats_fqdns: list[str] = []
        for org in self.non_ats_orgs:
            for domain in org.eslds:
                count = rng.randint(2, 4)
                labels = rng.sample(_CDN_SUBDOMAINS, count)
                self._non_ats_fqdns.extend(
                    f"{label}.{domain}" if label else domain for label in labels
                )
        self._first_party_fqdns: dict[str, list[str]] = {
            service: infra.fqdns() for service, infra in self.first_party_infra.items()
        }
        self._first_party_ats_hosts: dict[str, tuple[str, ...]] = {
            service: infra.ats_hosts for service, infra in self.first_party_infra.items()
        }

    # -- organization lookups ----------------------------------------

    def organizations(self) -> list[Organization]:
        seen: dict[str, Organization] = {}
        for org in self._org_by_esld.values():
            seen.setdefault(org.name, org)
        return list(seen.values())

    def org_of_esld(self, domain: str) -> Organization | None:
        return self._org_by_esld.get(domain)

    def is_tail_ats(self, org: Organization) -> bool:
        """Is ``org`` one of the synthesized long-tail ATS organizations?"""
        return org in self._tail_ats

    def org_of_fqdn(self, fqdn: str) -> Organization | None:
        return self.org_of_esld(esld_of(fqdn))

    def eslds(self) -> list[str]:
        return list(self._org_by_esld)

    # -- FQDN pools ---------------------------------------------------

    def ats_fqdns(self) -> list[str]:
        """Third-party ATS FQDN pool (stable order)."""
        return list(self._ats_fqdns)

    def non_ats_third_party_fqdns(self) -> list[str]:
        return list(self._non_ats_fqdns)

    def first_party_fqdns(self, service: str) -> list[str]:
        return list(self._first_party_fqdns[service])

    def first_party_ats_hosts(self, service: str) -> tuple[str, ...]:
        """First-party hosts that the blocklists flag as ATS."""
        return self._first_party_ats_hosts[service]

    def all_blocklisted_hosts(self) -> list[str]:
        """Everything the block lists should flag: all third-party ATS
        FQDNs (and their eSLDs, as domain rules) plus first-party ATS
        hosts."""
        hosts: list[str] = list(self._ats_fqdns)
        for service in self._first_party_ats_hosts:
            hosts.extend(self._first_party_ats_hosts[service])
        return hosts

    def ats_eslds(self) -> list[str]:
        out: list[str] = []
        for org in (*self.named_ats_orgs, *self.tail_ats_orgs):
            out.extend(org.eslds)
        return out


@lru_cache(maxsize=1)
def default_universe() -> DomainUniverse:
    """The process-wide deterministic universe."""
    return DomainUniverse()
