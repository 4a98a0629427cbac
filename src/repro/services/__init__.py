"""Synthetic general-audience service simulator.

The paper's raw input is network traffic collected by hand from six
real services (§3.1).  Offline, this package generates traffic with
the same statistical shape, driven by ground-truth behaviour profiles
transcribed from the paper's results:

* :mod:`repro.services.profiles` — the Table 4 data-flow grid, the
  Figure 3/4 linkability calibration, and the Table 1 volume targets;
* :mod:`repro.services.catalog` — the six service specs and their
  destination pools drawn from the domain universe;
* :mod:`repro.services.payloads` — realistic payload key/value
  synthesis per ontology category (the raw data types);
* :mod:`repro.services.sessions` — the interaction scripts (account
  creation, logged-in usage, logged-out browsing);
* :mod:`repro.services.generator` — turns profiles into ordered
  :class:`repro.net.http.HttpRequest` traces per platform;
* :mod:`repro.services.config` — :class:`CorpusConfig` and the named
  service, load and impairment presets, kept apart from the generator
  so a replayed audit never loads generation code.

The *analysis* pipeline never reads the profiles — only the serialized
HAR/PCAP artifacts produced by :mod:`repro.capture`.
"""
