#!/usr/bin/env python3
"""Raw capture artifacts: write HAR/PCAP/keylog files and decrypt them.

Demonstrates the capture layer the way the paper's tooling worked:
PCAPdroid writes a binary PCAP plus an NSS key log for the mobile app
trace; Chrome DevTools exports a HAR for the website trace.  The
script then plays auditor: parses the artifacts back, decrypts what
the key log allows, and reports what stayed opaque (certificate-pinned
flows).

Usage::

    python examples/inspect_traffic.py [output_dir]
"""

import sys
from pathlib import Path

from repro.capture.decrypt import decrypt_mobile_artifact
from repro.datatypes.extract import extract_from_request
from repro.model import AgeGroup, Platform, TraceKind
from repro.net.har import read_har
from repro.net.pcap import PcapFile
from repro.net.tls import KeyLog
from repro.pipeline.corpus import CorpusProcessor
from repro.services.config import CorpusConfig


def main() -> None:
    output = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("./artifacts")
    config = CorpusConfig(scale=0.01, services=("roblox",))
    print(f"Capturing Roblox traces into {output}/ ...")
    processor = CorpusProcessor(config=config, artifacts_dir=output)
    for parsed in processor:
        pass  # capture side effect: artifacts land on disk

    har_path = next(output.glob("roblox-web-logged_in-child.har"))
    pcap_path = next(output.glob("roblox-mobile-logged_in-child.pcap"))
    keylog_path = pcap_path.with_suffix(".keylog")

    print(f"\n--- {har_path.name} ---")
    har = read_har(har_path)
    print(f"entries: {len(har.entries)}")
    sample = har.entries[5].request
    print(f"sample request: {sample.method} {sample.url}")
    for item in extract_from_request(sample)[:6]:
        print(f"  extracted data type: {item.key} = {item.value!r} [{item.source}]")

    print(f"\n--- {pcap_path.name} + keylog ---")
    pcap = PcapFile.read(pcap_path)
    keylog = KeyLog.read(keylog_path)
    print(f"frames: {len(pcap)}, TLS secrets in keylog: {len(keylog.secrets)}")
    decryption = decrypt_mobile_artifact(pcap, keylog)
    print(
        f"decrypted requests: {len(decryption.requests)}, "
        f"TCP flows: {decryption.flow_count}, "
        f"undecryptable (pinned): {decryption.undecryptable_flows}"
    )
    if decryption.opaque:
        hosts = sorted({contact.host for contact in decryption.opaque})
        print(f"opaque destinations (SNI only): {', '.join(hosts[:5])} ...")

    print("\n--- decryption without the key log ---")
    blind = decrypt_mobile_artifact(pcap, KeyLog())
    print(
        f"decrypted requests: {len(blind.requests)} "
        f"(all {blind.undecryptable_flows} flows opaque — the key log matters)"
    )


if __name__ == "__main__":
    main()
