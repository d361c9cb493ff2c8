"""Fuzz-style robustness tests: decoders never crash unexpectedly.

Servers parse datagrams from anyone on the network; every parser must
fail *closed* — raising only the documented error types — for arbitrary
and mutated input.  Hypothesis drives random bytes, truncations, and
single-byte corruptions of valid messages through every decode path.
"""

import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.dnslib import (
    A,
    Message,
    Name,
    ResourceRecord,
    RRType,
    TsigError,
    WireFormatError,
    WireReader,
    make_cache_update,
    make_query,
    make_response,
    split_signed,
)
from repro.zone import MasterFileError, parse_records

ACCEPTABLE = (WireFormatError, ValueError)  # ValueError covers enum casts


def valid_messages():
    query = make_query("www.example.com", RRType.A, rrc=7)
    response = make_response(query, llt=300)
    response.answer.append(
        ResourceRecord("www.example.com", RRType.A, 60, A("1.2.3.4")))
    response.edns_payload_size = 4096
    update = make_cache_update(
        "www.example.com",
        [ResourceRecord("www.example.com", RRType.A, 60, A("9.9.9.9"))])
    return [query.to_wire(), response.to_wire(), update.to_wire()]


VALID_WIRES = valid_messages()


class TestMessageDecoderRobustness:
    @given(st.binary(min_size=0, max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_random_bytes_fail_closed(self, data):
        try:
            Message.from_wire(data)
        except ACCEPTABLE:
            pass

    @given(st.sampled_from(VALID_WIRES), st.integers(0, 10_000))
    @settings(max_examples=300, deadline=None)
    def test_truncations_fail_closed(self, wire, cut):
        data = wire[:cut % (len(wire) + 1)]
        try:
            Message.from_wire(data)
        except ACCEPTABLE:
            pass

    @given(st.sampled_from(VALID_WIRES), st.integers(0, 10_000),
           st.integers(1, 255))
    @settings(max_examples=500, deadline=None)
    def test_bitflips_fail_closed_or_decode(self, wire, position, flip):
        mutated = bytearray(wire)
        mutated[position % len(mutated)] ^= flip
        try:
            Message.from_wire(bytes(mutated))
        except ACCEPTABLE:
            pass

    @given(st.sampled_from(VALID_WIRES))
    @settings(max_examples=30, deadline=None)
    def test_valid_wires_always_decode(self, wire):
        message = Message.from_wire(wire)
        # And re-encode stably.
        assert Message.from_wire(message.to_wire()).id == message.id


GOLDEN = {name: bytes.fromhex(image) for name, image in json.loads(
    (pathlib.Path(__file__).parent / "fixtures" / "wire_golden.json")
    .read_text()).items()}
#: Exhaustive sweeps skip the one 18 kB vector (strided prefixes only).
SMALL_GOLDEN = sorted(name for name, wire in GOLDEN.items()
                      if len(wire) < 1024)
#: Byte values written over every position: each single-bit flip, the
#: inverse, and the codec's structural boundaries — 0x00 (root / empty),
#: 0x3F and 0x40 (longest label / first bad tag), 0xC0 (pointer), 0xFF.
CORRUPTIONS = [lambda b, bit=bit: b ^ (1 << bit) for bit in range(8)] + \
    [lambda b: b ^ 0xFF] + \
    [lambda b, v=v: v for v in (0x00, 0x3F, 0x40, 0xC0, 0xFF)]
#: Vectors on the notification and lease paths get all 255 other values.
FULL_SWEEP = ["cache_update_ack", "query_rrc_mixed_case", "response_rrc_llt"]


def decodes_or_fails_closed(data):
    try:
        Message.from_wire(data)
    except ACCEPTABLE:
        return False
    return True


class TestGoldenVectorMutations:
    """Deterministic counterpart of the Hypothesis mutations above, over
    the golden vectors (every rdata class, every pointer shape)."""

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_every_strict_prefix_is_rejected(self, name):
        wire = GOLDEN[name]
        step = 1 if name in SMALL_GOLDEN else 97
        for cut in range(0, len(wire), step):
            assert not decodes_or_fails_closed(wire[:cut]), (name, cut)

    @pytest.mark.parametrize("name", SMALL_GOLDEN)
    def test_every_byte_corrupted_fails_closed(self, name):
        mutated = bytearray(GOLDEN[name])
        for position, original in enumerate(mutated):
            values = (range(256) if name in FULL_SWEEP else
                      {corrupt(original) for corrupt in CORRUPTIONS})
            for value in values:
                mutated[position] = value
                decodes_or_fails_closed(bytes(mutated))
            mutated[position] = original


class TestNameDecoderRobustness:
    @given(st.binary(min_size=0, max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_random_name_bytes_fail_closed(self, data):
        try:
            WireReader(data).read_name()
        except ACCEPTABLE:
            pass

    @given(st.binary(min_size=2, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_pointer_storms_terminate(self, data):
        """Crafted pointer chains must terminate (no infinite loops)."""
        # Prefix with a pointer into the attacker-controlled region.
        crafted = b"\xc0\x02" + data
        try:
            WireReader(crafted).read_name()
        except ACCEPTABLE:
            pass


class TestTsigSplitRobustness:
    @given(st.binary(min_size=0, max_size=300))
    @settings(max_examples=300, deadline=None)
    def test_split_signed_fails_closed(self, data):
        try:
            split_signed(data)
        except (TsigError, *ACCEPTABLE):
            pass

    @given(st.binary(min_size=0, max_size=100))
    @settings(max_examples=200, deadline=None)
    def test_magic_plus_garbage(self, garbage):
        try:
            split_signed(b"some message" + b"TSIG2845" + garbage)
        except (TsigError, *ACCEPTABLE):
            pass


class TestMasterFileRobustness:
    @given(st.text(max_size=400))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_text_fails_closed(self, text):
        try:
            parse_records(text, origin=Name.from_text("x.com"),
                          default_ttl=60)
        except (MasterFileError, ValueError):
            pass


class TestServerNeverCrashesOnGarbage:
    @given(st.binary(min_size=0, max_size=128))
    @settings(max_examples=150, deadline=None)
    def test_authoritative_server_survives_garbage(self, data):
        from repro.net import Host, Network, Simulator
        from repro.server import AuthoritativeServer
        from repro.zone import load_zone
        simulator = Simulator()
        network = Network(simulator, seed=0)
        server = AuthoritativeServer(
            Host(network, "10.0.0.1"),
            [load_zone("$ORIGIN x.com.\n$TTL 60\n"
                       "@ IN SOA ns admin 1 2 3 4 5\n@ IN NS ns\n"
                       "ns IN A 10.0.0.1\n")])
        server._handle_datagram(data, ("10.0.0.9", 1234), ("10.0.0.1", 53))
        server._handle_stream(data, ("10.0.0.9", 1234), ("10.0.0.1", 53))
        simulator.run()
