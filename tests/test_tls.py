"""Unit and property tests for the TLS simulation and NSS key logs."""

import hashlib

import pytest
from hypothesis import given, strategies as st

from repro.net import tls
from repro.net.tls import (
    RECORD_TYPE_APPDATA,
    STREAM_HELLO,
    STREAM_PLAIN,
    STREAM_RECORDS,
    KeyLog,
    TlsError,
    TlsSession,
    decrypt_record,
    encrypt_stream,
    scan_hello,
    scan_records,
    sniff_stream,
    wrap_with_hello,
)

SESSION = TlsSession.derive(b"test-session")
OTHER = TlsSession.derive(b"other-session")


def decrypt(stream, session: TlsSession) -> bytes:
    """Decrypt a whole record stream, as the flow decoder does."""
    records, consumed = scan_records(stream)
    assert consumed == len(stream)
    return b"".join(
        decrypt_record(body, session, index)
        for index, (record_type, body) in enumerate(records)
        if record_type == RECORD_TYPE_APPDATA
    )


class TestSession:
    def test_derive_deterministic(self):
        assert TlsSession.derive(b"x") == TlsSession.derive(b"x")
        assert TlsSession.derive(b"x") != TlsSession.derive(b"y")

    def test_bad_key_sizes_rejected(self):
        with pytest.raises(TlsError):
            TlsSession(client_random=b"short", secret=b"s" * 32)


class TestRecords:
    def test_round_trip(self):
        plaintext = b"GET / HTTP/1.1\r\nHost: x\r\n\r\n"
        assert decrypt(encrypt_stream(plaintext, SESSION), SESSION) == plaintext

    def test_wrong_key_gives_garbage(self):
        plaintext = b"secret payload bytes"
        garbled = decrypt(encrypt_stream(plaintext, SESSION), OTHER)
        assert garbled != plaintext

    def test_large_payload_multiple_records(self):
        plaintext = b"A" * 40_000  # > MAX_RECORD_LEN
        stream = encrypt_stream(plaintext, SESSION)
        records, _ = scan_records(stream)
        assert len(records) == 3
        assert decrypt(stream, SESSION) == plaintext

    def test_truncated_record_waits(self):
        stream = encrypt_stream(b"hello", SESSION) + encrypt_stream(b"world", OTHER)
        # A truncated trailing record is an incomplete feed: the scan
        # stops before it (a flow that ends there is undecryptable).
        records, consumed = scan_records(stream[:-2])
        assert len(records) == 1
        assert consumed == len(encrypt_stream(b"hello", SESSION))
        assert scan_records(stream[:3]) == ([], 0)
        # A malformed header is corruption, however much follows it.
        corrupted = bytearray(stream)
        corrupted[consumed + 2] ^= 0x01  # second record's version
        with pytest.raises(TlsError):
            scan_records(bytes(corrupted))

    def test_empty_stream(self):
        assert scan_records(b"") == ([], 0)
        assert decrypt(b"", SESSION) == b""

    @given(st.binary(min_size=0, max_size=5000))
    def test_round_trip_property(self, plaintext):
        assert decrypt(encrypt_stream(plaintext, SESSION), SESSION) == plaintext

    @pytest.mark.parametrize(
        "length", [0, 1, 31, 32, 33, tls.MAX_RECORD_LEN - 1, tls.MAX_RECORD_LEN,
                   tls.MAX_RECORD_LEN + 1, 0xFFFF]
    )
    def test_keystream_matches_the_block_loop(self, length):
        # The derivation is frozen: block ``counter`` is SHA-256 of the
        # secret, the record's nonce and the 8-byte counter.  Lengths
        # past MAX_RECORD_LEN are record bodies only a foreign capture
        # holds.
        nonce = SESSION.client_random + b"\x00" * 8
        reference = b""
        counter = 0
        while len(reference) < length:
            reference += hashlib.sha256(
                SESSION.secret + nonce + counter.to_bytes(8, "big")
            ).digest()
            counter += 1
        assert tls._keystream(SESSION.secret, nonce, length) == reference[:length]

    def test_ciphertext_differs_from_plaintext(self):
        plaintext = b"hello world, this is sensitive"
        stream = encrypt_stream(plaintext, SESSION)
        assert plaintext not in stream


class TestHello:
    def test_wrap_unwrap(self):
        stream = encrypt_stream(b"payload", SESSION)
        wrapped = wrap_with_hello(stream, SESSION, sni="api.example.com")
        client_random, sni, consumed = scan_hello(wrapped)
        assert sni == "api.example.com"
        assert client_random == SESSION.client_random
        assert wrapped[consumed:] == stream

    def test_empty_sni(self):
        wrapped = wrap_with_hello(b"", SESSION, sni="")
        assert scan_hello(wrapped) == (SESSION.client_random, "", len(wrapped))

    def test_truncated_hello_waits(self):
        wrapped = wrap_with_hello(b"", SESSION, sni="api.example.com")
        for cut in range(len(wrapped)):
            assert scan_hello(wrapped[:cut]) is None

    def test_scan_hello_rejects_non_tls(self):
        with pytest.raises(TlsError):
            scan_hello(b"GET / HTTP/1.1\r\n")

    def test_non_idna_sni_rejected(self):
        wrapped = b"\x16\x03" + SESSION.client_random + b"\x00\x03\xff\xfe\xfd"
        with pytest.raises(TlsError):
            scan_hello(wrapped)

    def test_looks_like_tls(self):
        wrapped = wrap_with_hello(encrypt_stream(b"x", SESSION), SESSION, "h")
        assert sniff_stream(wrapped) == STREAM_HELLO
        assert sniff_stream(wrapped[:2]) == STREAM_HELLO
        assert sniff_stream(encrypt_stream(b"x", SESSION)) == STREAM_RECORDS
        assert sniff_stream(b"POST /api HTTP/1.1\r\n") == STREAM_PLAIN
        # Too short to tell a record header from plaintext yet.
        assert sniff_stream(encrypt_stream(b"x", SESSION)[:4]) is None
        assert sniff_stream(b"") is None


class TestKeyLog:
    def test_record_and_lookup(self):
        log = KeyLog()
        log.record(SESSION)
        found = log.lookup(SESSION.client_random)
        assert found == SESSION
        assert log.lookup(OTHER.client_random) is None

    def test_nss_format_round_trip(self):
        log = KeyLog()
        log.record(SESSION)
        log.record(OTHER)
        text = log.to_text()
        assert text.count("CLIENT_TRAFFIC_SECRET_0") == 2
        parsed = KeyLog.from_text(text)
        assert parsed.lookup(SESSION.client_random) == SESSION

    def test_comments_and_other_labels_ignored(self):
        text = (
            "# comment line\n"
            "SERVER_HANDSHAKE_TRAFFIC_SECRET aa bb\n"
            f"CLIENT_TRAFFIC_SECRET_0 {SESSION.client_random.hex()} {SESSION.secret.hex()}\n"
        )
        log = KeyLog.from_text(text)
        assert log.lookup(SESSION.client_random) == SESSION

    def test_malformed_line_raises(self):
        with pytest.raises(TlsError):
            KeyLog.from_text("CLIENT_TRAFFIC_SECRET_0 only-two-fields\n")

    def test_file_round_trip(self, tmp_path):
        log = KeyLog()
        log.record(SESSION)
        path = tmp_path / "keys.log"
        log.write(path)
        assert KeyLog.read(path).lookup(SESSION.client_random) == SESSION
