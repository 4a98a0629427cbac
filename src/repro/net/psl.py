"""Public-suffix-list engine — the ``tldextract`` substitute.

The paper extracts the effective second-level domain (eSLD) of every
packet destination with ``tldextract`` (§3.2.3).  We implement the same
semantics over an embedded snapshot of the Mozilla Public Suffix List
covering the suffixes that occur in the simulated domain universe plus
the common multi-label and wildcard rules, so the algorithmic corner
cases (``*.ck``, ``!www.ck``, ``co.uk``) are exercised for real.

Algorithm (publicsuffix.org):

1. Match all rules against the domain; a rule matches when it is a
   suffix of the domain label-wise, with ``*`` matching exactly one
   label.
2. Exception rules (``!``) beat normal rules; otherwise the longest
   rule wins; if nothing matches, the suffix is the last label.
3. The registered domain (eSLD) is the suffix plus one preceding label.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.net.url import is_ip_literal

# Embedded PSL snapshot.  Deliberately small but structurally complete:
# plain TLDs, second-level public suffixes, wildcard and exception rules.
_PSL_SNAPSHOT = """
// ===BEGIN ICANN DOMAINS===
com
net
org
edu
gov
mil
int
io
co
ai
tv
me
ms
fm
gg
ly
gl
to
app
dev
cloud
online
site
store
tech
xyz
info
biz
mobi
name
pro
live
news
games
social
chat
video
music
design
agency
network
systems
digital
media
email
uk
co.uk
org.uk
ac.uk
gov.uk
au
com.au
net.au
org.au
edu.au
jp
co.jp
ne.jp
or.jp
ac.jp
cn
com.cn
net.cn
org.cn
kr
co.kr
br
com.br
net.br
in
co.in
net.in
de
fr
nl
se
no
fi
dk
es
it
pl
ru
com.ru
ca
us
eu
ch
at
be
ie
nz
co.nz
net.nz
sg
com.sg
hk
com.hk
tw
com.tw
mx
com.mx
ar
com.ar
za
co.za
*.ck
!www.ck
*.bd
// ===END ICANN DOMAINS===
// ===BEGIN PRIVATE DOMAINS===
cloudfront.net
amazonaws.com
s3.amazonaws.com
github.io
gitlab.io
netlify.app
vercel.app
herokuapp.com
azurewebsites.net
blogspot.com
firebaseapp.com
web.app
workers.dev
pages.dev
fastly.net
akamaized.net
akamaihd.net
edgekey.net
edgesuite.net
cdn77.org
b-cdn.net
// ===END PRIVATE DOMAINS===
"""


@dataclass(frozen=True)
class ExtractResult:
    """Mirror of ``tldextract.ExtractResult``."""

    subdomain: str
    domain: str
    suffix: str

    @property
    def registered_domain(self) -> str:
        """The eSLD, e.g. ``events.data.microsoft.com`` → ``microsoft.com``."""
        if self.domain and self.suffix:
            return f"{self.domain}.{self.suffix}"
        return ""

    @property
    def fqdn(self) -> str:
        parts = [p for p in (self.subdomain, self.domain, self.suffix) if p]
        return ".".join(parts)


@dataclass(frozen=True)
class _Rule:
    labels: tuple[str, ...]
    exception: bool

    def matches(self, domain_labels: tuple[str, ...]) -> bool:
        if len(domain_labels) < len(self.labels):
            return False
        for rule_label, domain_label in zip(
            reversed(self.labels), reversed(domain_labels)
        ):
            if rule_label != "*" and rule_label != domain_label:
                return False
        return True


class PublicSuffixList:
    """Parsed PSL with :meth:`extract` implementing the PSL algorithm.

    ``include_private`` mirrors ``tldextract``'s default of honouring
    the private-domain section (so ``foo.cloudfront.net`` has eSLD
    ``foo.cloudfront.net``); pass ``False`` for ICANN-only behaviour.
    """

    def __init__(self, text: str = _PSL_SNAPSHOT, include_private: bool = True) -> None:
        self._rules: dict[tuple[str, ...], _Rule] = {}
        section_private = False
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            if line.startswith("//"):
                if "BEGIN PRIVATE DOMAINS" in line:
                    section_private = True
                elif "END PRIVATE DOMAINS" in line:
                    section_private = False
                continue
            if section_private and not include_private:
                continue
            exception = line.startswith("!")
            if exception:
                line = line[1:]
            labels = tuple(line.lower().split("."))
            self._rules[labels] = _Rule(labels=labels, exception=exception)
        # A rule can only match a domain whose last label equals the
        # rule's last label (``*`` matches exactly one label, so a
        # trailing ``*`` is the one case that matches any TLD).
        # Bucketing by that label turns suffix_length from a scan of
        # every rule into a lookup of the handful sharing the TLD —
        # eSLD extraction is the audit hot path's single biggest cost.
        by_last: dict[str, list[_Rule]] = {}
        star_last: list[_Rule] = []
        for rule in self._rules.values():
            if rule.labels[-1] == "*":
                star_last.append(rule)
            else:
                by_last.setdefault(rule.labels[-1], []).append(rule)
        self._by_last = {label: tuple(rules) for label, rules in by_last.items()}
        self._star_last = tuple(star_last)

    def __len__(self) -> int:
        return len(self._rules)

    def suffix_length(self, domain_labels: tuple[str, ...]) -> int:
        """Number of labels in the public suffix of ``domain_labels``."""
        candidates = self._by_last.get(domain_labels[-1], ())
        if self._star_last:
            candidates = candidates + self._star_last
        best_exception: _Rule | None = None
        best_normal: _Rule | None = None
        for rule in candidates:
            if not rule.matches(domain_labels):
                continue
            if rule.exception:
                if best_exception is None or len(rule.labels) > len(best_exception.labels):
                    best_exception = rule
            elif best_normal is None or len(rule.labels) > len(best_normal.labels):
                best_normal = rule
        if best_exception is not None:
            # Exception rules mark the *registered* domain; the public
            # suffix is the exception rule minus its leftmost label.
            return len(best_exception.labels) - 1
        if best_normal is not None:
            return len(best_normal.labels)
        return 1  # unlisted TLD: "the prevailing rule is '*'" → 1 label

    def extract(self, host: str) -> ExtractResult:
        """Split a hostname into subdomain / domain / suffix."""
        host = host.lower().rstrip(".")
        if not host or is_ip_literal(host):
            return ExtractResult(subdomain="", domain=host, suffix="")
        labels = tuple(host.split("."))
        if len(labels) == 1:
            return ExtractResult(subdomain="", domain=labels[0], suffix="")
        n_suffix = self.suffix_length(labels)
        if n_suffix >= len(labels):
            # The whole name is a public suffix: no registered domain.
            return ExtractResult(subdomain="", domain="", suffix=host)
        suffix = ".".join(labels[-n_suffix:])
        domain = labels[-n_suffix - 1]
        subdomain = ".".join(labels[: -n_suffix - 1])
        return ExtractResult(subdomain=subdomain, domain=domain, suffix=suffix)


@lru_cache(maxsize=1)
def default_psl() -> PublicSuffixList:
    """The process-wide PSL instance built from the embedded snapshot."""
    return PublicSuffixList()


@lru_cache(maxsize=65536)
def extract(host: str) -> ExtractResult:
    """Module-level convenience mirroring ``tldextract.extract``.

    Memoized: the corpus re-extracts the same few hundred hostnames
    millions of times (every packet destination, every catalog build,
    every dataset roll-up), and extraction is a pure function of the
    host against the fixed embedded snapshot.  The result dataclass is
    frozen, so sharing one instance across callers is safe.
    """
    return default_psl().extract(host)


@lru_cache(maxsize=65536)
def esld(host: str) -> str:
    """The registered domain of ``host`` (empty for IPs/public suffixes).

    Memoized like :func:`extract`: building the service catalog alone
    asks for ~26K eSLDs of ~2.2K distinct hosts at every start-up.
    """
    return extract(host).registered_domain
