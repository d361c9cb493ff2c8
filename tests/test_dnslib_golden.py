"""Golden wire vectors: the codec's bytes are pinned, not just its round trip.

``tests/fixtures/wire_golden.json`` holds the hex image of every message
:func:`golden_messages` builds, generated once from the commit *before*
the codec fast path (``python tests/test_dnslib_golden.py`` with that
commit's ``src`` on ``PYTHONPATH`` rewrites it).  The encoder must
reproduce each image exactly and the decoder must read it back to an
object that encodes to the same bytes, so a change to compression,
RDLENGTH handling or the DNScup RRC/LLT fields cannot hide behind a
symmetric encode/decode bug.
"""

import json
import pathlib

import pytest

from repro.dnslib import (
    A,
    AAAA,
    CNAME,
    MX,
    NS,
    PTR,
    SOA,
    SRV,
    TXT,
    EmptyRdata,
    Generic,
    Message,
    Name,
    Rcode,
    ResourceRecord,
    RRClass,
    RRType,
    make_cache_update,
    make_cache_update_ack,
    make_notify,
    make_query,
    make_response,
    make_update,
    truncate_response,
)

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "wire_golden.json"


def _rr(name, rrtype, ttl, rdata, rrclass=RRClass.IN):
    return ResourceRecord(name, rrtype, ttl, rdata, rrclass)


def golden_messages():
    """Name -> message, every ID pinned so the images are reproducible."""
    out = {}

    def keep(name, message, msg_id):
        message.id = msg_id
        out[name] = message
        return message

    keep("query_plain", make_query("www.example.com", RRType.A), 0x1234)
    keep("query_no_rd", make_query("example.com", RRType.NS,
                                   recursion_desired=False), 0x0001)
    keep("query_root", make_query(".", RRType.NS), 0xFFFF)
    rrc_query = keep("query_rrc_mixed_case",
                     make_query("WWW.Example.COM", RRType.A, rrc=7), 0x0102)

    # Plain response: owner repeats (whole-name pointers), siblings
    # (pointer after one label), a deeper name (pointer after two), a
    # name equal to an earlier *suffix*, and a different TLD (no pointer
    # but the root).  Rdata names are never compressed nor pointed at.
    response = make_response(out["query_plain"])
    response.authoritative = True
    response.recursion_available = True
    response.answer += [
        _rr("www.example.com", RRType.CNAME, 300, CNAME("web.cdn.example.com")),
        _rr("web.cdn.example.com", RRType.A, 60, A("192.0.2.1")),
        _rr("web.cdn.example.com", RRType.A, 60, A("192.0.2.254")),
    ]
    response.authority += [
        _rr("example.com", RRType.NS, 86400, NS("ns1.example.com")),
        _rr("example.com", RRType.NS, 86400, NS("ns2.example.net")),
    ]
    response.additional += [
        _rr("ns1.example.com", RRType.A, 3600, A("10.0.0.1")),
        _rr("ns1.example.com", RRType.AAAA, 3600, AAAA("2001:db8::1")),
        _rr("ns2.example.net", RRType.A, 3600, A("0.0.0.0")),
        _rr("a.b.ns2.example.net", RRType.A, 3600, A("255.255.255.255")),
    ]
    keep("response_plain", response, 0x1234)

    lease = make_response(rrc_query, llt=300)
    lease.authoritative = True
    lease.answer.append(_rr("www.example.com", RRType.A, 60, A("1.2.3.4")))
    keep("response_rrc_llt", lease, 0x0102)

    no_lease = make_response(rrc_query)
    no_lease.answer.append(_rr("wWw.eXaMpLe.cOm", RRType.A, 60, A("1.2.3.4")))
    keep("response_rrc_no_lease", no_lease, 0x0102)

    max_lease = make_response(make_query("x.org", RRType.A, rrc=0xFFFF),
                              llt=0xFFFF)
    keep("response_rrc_llt_max", max_lease, 0x7FFF)

    keep("response_nxdomain",
         make_response(out["query_plain"], rcode=Rcode.NXDOMAIN), 0x1234)
    keep("response_truncated", truncate_response(response), 0x1234)

    edns_query = make_query("www.example.com", RRType.A)
    edns_query.edns_payload_size = 4096
    keep("query_edns", edns_query, 0x0BAD)
    edns_response = make_response(rrc_query, llt=60)
    edns_response.answer.append(
        _rr("www.example.com", RRType.A, 60, A("1.2.3.4")))
    edns_response.additional.append(
        _rr("ns1.example.com", RRType.A, 3600, A("10.0.0.1")))
    edns_response.edns_payload_size = 1232
    keep("response_edns_rrc_llt", edns_response, 0x0102)

    every = make_response(make_query("all.example.com", RRType.ANY))
    every.answer += [
        _rr("all.example.com", RRType.A, 1, A("203.0.113.9")),
        _rr("all.example.com", RRType.AAAA, 2, AAAA("2001:DB8:0:1::ffff")),
        _rr("all.example.com", RRType.AAAA, 2, AAAA("::")),
        _rr("all.example.com", RRType.NS, 3, NS("NS.Example.com")),
        _rr("all.example.com", RRType.CNAME, 4, CNAME("target.example.org")),
        _rr("9.113.0.203.in-addr.arpa", RRType.PTR, 5, PTR("all.example.com")),
        _rr("example.com", RRType.SOA, 6,
            SOA("ns1.example.com", "admin.example.com", 2006070401, 7200,
                900, 604800, 300)),
        _rr("all.example.com", RRType.MX, 7, MX(10, "mail.example.com")),
        _rr("all.example.com", RRType.TXT, 8,
            TXT(["hello world", b"\x00\xff binary", ""])),
        _rr("_dns._udp.example.com", RRType.SRV, 9,
            SRV(0, 5, 53, "ns1.example.com")),
        _rr("all.example.com", RRType.OPT, 10,
            Generic(RRType.OPT, b"\x01\x02\x03")),
        _rr("all.example.com", RRType.ANY, 0x7FFFFFFF,
            Generic(RRType.ANY, b"\xc0\x0c")),
        _rr("all.example.com", RRType.A, 0, EmptyRdata(RRType.A),
            RRClass.CH),
    ]
    keep("response_every_rdata", every, 0x0E0E)

    update = make_update("example.com")
    update.prerequisite.extend([
        _rr("www.example.com", RRType.A, 0, EmptyRdata(RRType.A), RRClass.ANY),
        _rr("old.example.com", RRType.ANY, 0, EmptyRdata(RRType.ANY),
            RRClass.NONE),
    ])
    update.update.extend([
        _rr("www.example.com", RRType.A, 0, EmptyRdata(RRType.A), RRClass.ANY),
        _rr("www.example.com", RRType.A, 0, A("10.0.0.10"), RRClass.NONE),
        _rr("www.example.com", RRType.A, 60, A("10.9.9.9")),
    ])
    keep("update", update, 0x2136)
    keep("update_response", make_response(update, rcode=Rcode.NXRRSET), 0x2136)
    keep("notify", make_notify("Example.COM"), 0x1996)

    cache_update = make_cache_update("www.example.com", [
        _rr("www.example.com", RRType.A, 60, A("9.9.9.9")),
        _rr("www.example.com", RRType.A, 60, A("9.9.9.10")),
    ])
    keep("cache_update", cache_update, 0xC0C0)
    keep("cache_update_ack", make_cache_update_ack(cache_update), 0xC0C0)
    keep("cache_update_empty", make_cache_update("gone.example.com", []),
         0xC0C1)

    # 63-octet labels in a 255-octet name, then its suffixes.
    long_name = Name(["a" * 63, "b" * 63, "c" * 63, "d" * 61])
    limits = make_response(make_query(long_name, RRType.A))
    limits.answer += [
        _rr(long_name, RRType.A, 60, A("1.1.1.1")),
        _rr(Name(long_name.labels[2:]), RRType.NS, 60, NS(long_name)),
    ]
    keep("response_name_limits", limits, 0x00FF)

    # Past offset 0x3FFF names may no longer become pointer targets.
    big = make_response(make_query("big.example.com", RRType.TXT))
    for i in range(66):
        big.answer.append(_rr(f"t{i}.big.example.com", RRType.TXT, 60,
                              TXT([bytes([65 + i % 26]) * 255])))
    big.additional += [
        _rr("late.tail.example.org", RRType.A, 60, A("1.1.1.1")),
        _rr("late.tail.example.org", RRType.A, 60, A("1.1.1.2")),
        _rr("t0.big.example.com", RRType.A, 60, A("1.1.1.3")),
    ]
    keep("response_past_pointer_range", big, 0x3FFF)
    return out


MESSAGES = golden_messages()
VECTORS = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}


def test_fixture_covers_every_message():
    assert sorted(VECTORS) == sorted(MESSAGES)


@pytest.mark.parametrize("name", sorted(MESSAGES))
def test_encoding_matches_vector(name):
    assert MESSAGES[name].to_wire().hex() == VECTORS[name]


@pytest.mark.parametrize("name", sorted(MESSAGES))
def test_decoding_reencodes_to_vector(name):
    wire = bytes.fromhex(VECTORS[name])
    assert Message.from_wire(wire).to_wire() == wire


def test_vectors_use_every_pointer_shape():
    """The fixture is only a proof if compression actually happened."""
    wire = bytes.fromhex(VECTORS["response_plain"])
    assert wire.count(b"\xc0\x0c") >= 1          # whole-name pointer
    assert b"\x03web\x03cdn\xc0" in wire         # pointer after two labels
    assert b"\x03ns1\xc0" in wire                # pointer after one label
    assert b"\x03ns2\x07example\x03net\x00" in wire   # rdata: uncompressed
    big = bytes.fromhex(VECTORS["response_past_pointer_range"])
    assert len(big) > 0x3FFF
    assert big.count(b"\x04late\x04tail\x07example\x03org\x00") == 2


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(
        {name: message.to_wire().hex()
         for name, message in sorted(MESSAGES.items())}, indent=0) + "\n")
    print(f"wrote {len(MESSAGES)} vectors to {FIXTURE}")
