"""Tests for the authoritative server over the wire."""

import pytest

from repro.dnslib import (
    A,
    Message,
    Name,
    Opcode,
    Rcode,
    ResourceRecord,
    RRType,
    make_query,
    make_update,
)
from repro.server import AuthoritativeServer
from repro.zone import load_zone, update_add, update_delete_rrset, ZoneSlave, zones_equal
from tests.conftest import EXAMPLE_ZONE_TEXT


@pytest.fixture
def setup(make_host, simulator):
    server_host = make_host("10.0.0.1")
    client_host = make_host("10.0.0.9")
    zone = load_zone(EXAMPLE_ZONE_TEXT)
    server = AuthoritativeServer(server_host, [zone])
    client = client_host.socket()

    def ask(message: Message) -> Message:
        responses = []
        client.request(message.to_wire(), ("10.0.0.1", 53), message.id,
                       lambda p, s: responses.append(p))
        simulator.run()
        assert responses and responses[0] is not None
        return Message.from_wire(responses[0])

    return server, zone, ask


def _bare_zone(origin):
    return load_zone("@ 300 IN SOA ns1 admin 1 7200 900 604800 300\n"
                     "@ 300 IN NS ns1\n", origin=Name.from_text(origin))


class TestZoneFor:
    """Closest-enclosing-zone selection, found by walking the query
    name's suffixes rather than scanning every zone."""

    ORIGINS = ["example.com", "sub.example.com", "deep.sub.example.com",
               "example.org", "other.com"]

    def server(self, make_host, origins):
        return AuthoritativeServer(make_host("10.0.0.1"),
                                   [_bare_zone(o) for o in origins])

    @pytest.mark.parametrize("qname, origin", [
        ("example.com", "example.com."),
        ("www.example.com", "example.com."),
        ("WWW.Example.COM", "example.com."),
        ("sub.example.com", "sub.example.com."),
        ("a.b.sub.example.com", "sub.example.com."),
        ("x.deep.sub.example.com", "deep.sub.example.com."),
        ("subx.example.com", "example.com."),       # sibling label, not nested
        ("www.example.org", "example.org."),
        ("other.com", "other.com."),
        ("com", None),
        ("example.net", None),
        (".", None),
    ])
    def test_nested_and_sibling_zones(self, make_host, qname, origin):
        zone = self.server(make_host, self.ORIGINS).zone_for(
            Name.from_text(qname))
        assert (zone.origin.to_text() if zone else None) == origin

    def test_root_zone_encloses_everything_else(self, make_host):
        server = self.server(make_host, [".", "example.com"])
        assert server.zone_for(Name.from_text("www.example.com")) \
            .origin.to_text() == "example.com."
        for qname in (".", "com", "www.example.net"):
            assert server.zone_for(Name.from_text(qname)).origin.is_root()

    def test_matches_the_scan_it_replaced(self, make_host):
        server = self.server(make_host, self.ORIGINS + ["."])
        for text in ["", "com", "example.com", "a.example.com",
                     "a.sub.example.com", "deep.sub.example.com",
                     "z.deep.sub.example.com", "example.org", "a.other.com"]:
            name = Name.from_text(text)
            scan = max((z for z in server.zones
                        if name.is_subdomain_of(z.origin)),
                       key=lambda z: len(z.origin))
            assert server.zone_for(name) is scan


class TestQueries:
    def test_positive_answer_authoritative(self, setup):
        _, _, ask = setup
        response = ask(make_query("www.example.com", RRType.A))
        assert response.rcode == Rcode.NOERROR
        assert response.authoritative
        assert {r.rdata.address for r in response.answer} == \
            {"10.0.0.10", "10.0.0.11"}

    def test_nxdomain_carries_soa(self, setup):
        _, _, ask = setup
        response = ask(make_query("missing.example.com", RRType.A))
        assert response.rcode == Rcode.NXDOMAIN
        assert any(r.rrtype == RRType.SOA for r in response.authority)

    def test_nodata_noerror_with_soa(self, setup):
        _, _, ask = setup
        response = ask(make_query("www.example.com", RRType.MX))
        assert response.rcode == Rcode.NOERROR
        assert not response.answer
        assert any(r.rrtype == RRType.SOA for r in response.authority)

    def test_cname_followed_within_zone(self, setup):
        _, _, ask = setup
        response = ask(make_query("ftp.example.com", RRType.A))
        types = [r.rrtype for r in response.answer]
        assert RRType.CNAME in types and RRType.A in types

    def test_referral_for_delegated_subzone(self, setup):
        _, _, ask = setup
        response = ask(make_query("host.sub.example.com", RRType.A))
        assert not response.authoritative
        assert not response.answer
        ns = [r for r in response.authority if r.rrtype == RRType.NS]
        assert ns and ns[0].name == Name.from_text("sub.example.com")
        glue = [r for r in response.additional if r.rrtype == RRType.A]
        assert glue and glue[0].rdata.address == "10.0.1.1"

    def test_out_of_zone_refused(self, setup):
        _, _, ask = setup
        response = ask(make_query("www.other.org", RRType.A))
        assert response.rcode == Rcode.REFUSED

    def test_multi_question_formerr(self, setup):
        _, _, ask = setup
        query = make_query("www.example.com", RRType.A)
        query.question.append(query.question[0])
        assert ask(query).rcode == Rcode.FORMERR

    def test_unknown_opcode_notimp(self, setup):
        _, _, ask = setup
        query = make_query("www.example.com", RRType.A)
        query.opcode = Opcode.STATUS
        assert ask(query).rcode == Rcode.NOTIMP

    def test_malformed_datagram_ignored(self, setup, make_host, simulator):
        server, _, _ = setup
        rogue = make_host("10.0.0.7").socket()
        rogue.send(b"\x01", ("10.0.0.1", 53))
        simulator.run()
        assert server.stats.malformed == 1

    def test_stats_counters(self, setup):
        server, _, ask = setup
        ask(make_query("www.example.com", RRType.A))
        ask(make_query("missing.example.com", RRType.A))
        assert server.stats.queries == 2
        assert server.stats.answers == 1
        assert server.stats.nxdomains == 1


class TestQueryHooks:
    def test_hook_sees_query_and_response(self, setup):
        server, _, ask = setup
        seen = []
        server.query_hooks.append(lambda q, src, r: seen.append((q, src, r)))
        ask(make_query("www.example.com", RRType.A, rrc=7))
        assert len(seen) == 1
        query, src, response = seen[0]
        assert query.question[0].rrc == 7
        assert response.answer

    def test_hook_can_grant_lease(self, setup):
        server, _, ask = setup

        def grant(query, src, response):
            if query.cache_update_aware:
                response.llt = 123

        server.query_hooks.append(grant)
        response = ask(make_query("www.example.com", RRType.A, rrc=1))
        assert response.llt == 123


class TestUpdatesOverWire:
    def test_update_applies(self, setup):
        _, zone, ask = setup
        message = make_update("example.com")
        message.update.append(update_delete_rrset("www.example.com", RRType.A))
        message.update.append(update_add(
            ResourceRecord("www.example.com", RRType.A, 60, A("9.9.9.9"))))
        response = ask(message)
        assert response.rcode == Rcode.NOERROR
        assert zone.get_rrset("www.example.com", RRType.A).rdatas == (A("9.9.9.9"),)

    def test_update_refused_when_disabled(self, setup):
        server, _, ask = setup
        server.allow_updates = False
        response = ask(make_update("example.com"))
        assert response.rcode == Rcode.REFUSED

    def test_update_for_unknown_zone_notauth(self, setup):
        _, _, ask = setup
        assert ask(make_update("other.org")).rcode == Rcode.NOTAUTH


class TestNotifyFanout:
    def test_slave_notified_and_refreshes(self, make_host, simulator):
        master_host = make_host("10.0.1.1")
        slave_host = make_host("10.0.1.2")
        master_zone = load_zone(EXAMPLE_ZONE_TEXT)
        master_server = AuthoritativeServer(master_host, [master_zone])
        slave_zone = load_zone(EXAMPLE_ZONE_TEXT)
        slave_server = AuthoritativeServer(slave_host)
        slave_server.add_zone(slave_zone, master=False)
        replica = ZoneSlave(slave_zone)
        master_server.register_slave(master_zone.origin, ("10.0.1.2", 53),
                                     replica)
        slave_server.set_notify_refresher(
            lambda origin: replica.refresh_from(
                master_server.master_for(origin)))
        master_zone.replace_address("www.example.com", ["172.16.1.1"])
        simulator.run()
        assert master_server.stats.notifies_sent == 1
        assert zones_equal(master_zone, slave_zone, ignore_soa=False)
