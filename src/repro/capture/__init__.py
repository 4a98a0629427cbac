"""Capture tooling simulations (paper §3.1.1–§3.1.3).

Turns generated :class:`~repro.services.generator.RawTrace` objects
into the artifacts the real study collected:

* :mod:`repro.capture.pcapdroid` — mobile: a binary PCAP plus an NSS
  TLS key-log file; certificate-pinned flows are present but their
  secrets never reach the log (Frida bypass failure);
* :mod:`repro.capture.devtools` — website: a Chrome-DevTools-shaped
  HAR export;
* :mod:`repro.capture.proxyman` — desktop: a Proxyman-shaped HAR
  export (MITM proxy, so pinning does not apply);
* :mod:`repro.capture.frida` — the pinning-bypass policy deciding
  which mobile flows are decryptable;
* :mod:`repro.capture.decrypt` — the ``editcap``/Wireshark stand-in
  that merges a key log back into a PCAP's TCP payload streams.

The downstream pipeline consumes *only* these artifacts.
"""
