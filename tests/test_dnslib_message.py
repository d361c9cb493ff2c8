"""Tests for DNS messages and the DNScup wire extensions."""

import pytest

from repro.dnslib import (
    A,
    MAX_UDP_PAYLOAD,
    Message,
    Opcode,
    Question,
    Rcode,
    ResourceRecord,
    RRClass,
    RRType,
    WireFormatError,
    make_cache_update,
    make_cache_update_ack,
    WireTemplate,
    make_notify,
    make_query,
    make_response,
    make_update,
)


class TestHeaderFlags:
    def test_opcode_roundtrips_all(self):
        for opcode in Opcode:
            message = Message()
            message.opcode = opcode
            decoded = Message.from_wire(message.to_wire())
            assert decoded.opcode == opcode

    def test_rcode_roundtrips_all(self):
        for rcode in Rcode:
            message = Message(rcode=rcode)
            assert Message.from_wire(message.to_wire()).rcode == rcode

    def test_flag_accessors(self):
        message = Message()
        for attr in ("is_response", "authoritative", "truncated",
                     "recursion_desired", "recursion_available",
                     "cache_update_aware"):
            assert getattr(message, attr) is False
            setattr(message, attr, True)
            assert getattr(message, attr) is True
            setattr(message, attr, False)
            assert getattr(message, attr) is False

    def test_ids_distinct(self):
        assert Message().id != Message().id


class TestUnknownCodePoints:
    """The decoders look codes up in tables; a miss must be the very
    error the enum call raises."""

    QUERY = make_query("www.example.com", RRType.A).to_wire()
    RECORD = make_cache_update("a.b", [
        ResourceRecord("a.b", RRType.A, 60, A("1.2.3.4"))]).to_wire()

    @staticmethod
    def patched(wire, offset, value):
        return wire[:offset] + value.to_bytes(2, "big") + wire[offset + 2:]

    @staticmethod
    def enum_error(enum_cls, value):
        with pytest.raises(ValueError) as caught:
            enum_cls(value)
        return type(caught.value), str(caught.value)

    @pytest.mark.parametrize("wire, offset, enum_cls", [
        (QUERY, len(QUERY) - 4, RRType), (QUERY, len(QUERY) - 2, RRClass),
        (RECORD, len(RECORD) - 14, RRType), (RECORD, len(RECORD) - 12, RRClass),
    ])
    def test_type_and_class_misses(self, wire, offset, enum_cls):
        Message.from_wire(self.patched(wire, offset, 1))     # offset is right
        with pytest.raises(ValueError) as caught:
            Message.from_wire(self.patched(wire, offset, 9999))
        assert (type(caught.value), str(caught.value)) == \
            self.enum_error(enum_cls, 9999)

    def test_rcode_miss(self):
        with pytest.raises(ValueError) as caught:
            Message.from_wire(self.patched(self.QUERY, 2, 0x010F))
        assert (type(caught.value), str(caught.value)) == \
            self.enum_error(Rcode, 15)

    def test_opcode_miss_surfaces_on_access(self):
        message = Message.from_wire(self.patched(self.QUERY, 2, 0x7900))
        with pytest.raises(ValueError) as caught:
            message.opcode
        assert (type(caught.value), str(caught.value)) == \
            self.enum_error(Opcode, 15)


class TestQueryResponse:
    def test_plain_query_roundtrip(self):
        query = make_query("www.example.com", RRType.A)
        decoded = Message.from_wire(query.to_wire())
        assert decoded.question[0].name.to_text() == "www.example.com."
        assert decoded.question[0].rrc is None
        assert not decoded.cache_update_aware

    def test_plain_query_is_byte_identical_without_cu(self):
        """Backward compatibility: no RRC/LLT bytes unless CU is set."""
        query = make_query("a.b", RRType.A)
        baseline = len(query.to_wire())
        cu_query = make_query("a.b", RRType.A, rrc=0)
        assert len(cu_query.to_wire()) == baseline + 2

    def test_rrc_roundtrip(self):
        query = make_query("www.example.com", RRType.A, rrc=1234)
        decoded = Message.from_wire(query.to_wire())
        assert decoded.cache_update_aware
        assert decoded.question[0].rrc == 1234

    def test_rrc_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Question("a.b", RRType.A, rrc=70000)

    def test_response_mirrors_query(self):
        query = make_query("www.example.com", RRType.A, rrc=1)
        response = make_response(query)
        assert response.id == query.id
        assert response.is_response
        assert response.cache_update_aware
        assert response.question == query.question

    def test_llt_roundtrip(self):
        query = make_query("www.example.com", RRType.A, rrc=5)
        response = make_response(query, llt=6000)
        response.answer.append(
            ResourceRecord("www.example.com", RRType.A, 60, A("1.2.3.4")))
        decoded = Message.from_wire(response.to_wire())
        assert decoded.llt == 6000
        assert decoded.answer[0].rdata == A("1.2.3.4")

    def test_llt_requires_cu_query(self):
        query = make_query("www.example.com", RRType.A)
        with pytest.raises(ValueError):
            make_response(query, llt=100)

    def test_llt_out_of_range(self):
        query = make_query("a.b", RRType.A, rrc=0)
        with pytest.raises(ValueError):
            make_response(query, llt=1 << 16)

    def test_multisection_roundtrip(self):
        query = make_query("www.example.com", RRType.A)
        response = make_response(query)
        response.answer.append(ResourceRecord("www.example.com", RRType.A,
                                              60, A("1.1.1.1")))
        response.authority.append(ResourceRecord("example.com", RRType.A,
                                                 60, A("2.2.2.2")))
        response.additional.append(ResourceRecord("ns.example.com", RRType.A,
                                                  60, A("3.3.3.3")))
        decoded = Message.from_wire(response.to_wire())
        assert len(decoded.answer) == 1
        assert len(decoded.authority) == 1
        assert len(decoded.additional) == 1

    def test_trailing_bytes_rejected(self):
        data = make_query("a.b", RRType.A).to_wire() + b"\x00"
        with pytest.raises(WireFormatError):
            Message.from_wire(data)


class TestUpdateVocabulary:
    def test_make_update_shape(self):
        message = make_update("example.com")
        assert message.opcode == Opcode.UPDATE
        assert message.zone[0].rrtype == RRType.SOA
        assert message.zone is message.question
        assert message.prerequisite is message.answer
        assert message.update is message.authority


class TestNotify:
    def test_make_notify(self):
        message = make_notify("example.com")
        assert message.opcode == Opcode.NOTIFY
        assert message.authoritative


class TestCacheUpdate:
    def test_cache_update_shape(self):
        records = [ResourceRecord("www.example.com", RRType.A, 60, A("9.9.9.9"))]
        message = make_cache_update("www.example.com", records)
        assert message.opcode == Opcode.CACHE_UPDATE
        assert message.cache_update_aware
        assert not message.is_response
        decoded = Message.from_wire(message.to_wire())
        assert decoded.opcode == Opcode.CACHE_UPDATE
        assert decoded.answer[0].rdata == A("9.9.9.9")

    def test_cache_update_ack_matches_id(self):
        records = [ResourceRecord("www.example.com", RRType.A, 60, A("9.9.9.9"))]
        update = make_cache_update("www.example.com", records)
        ack = make_cache_update_ack(update)
        assert ack.id == update.id
        assert ack.is_response
        assert ack.opcode == Opcode.CACHE_UPDATE
        Message.from_wire(ack.to_wire())  # must encode cleanly

    def test_cache_update_fits_udp(self):
        records = [ResourceRecord("www.example.com", RRType.A, 60,
                                  A(f"10.0.0.{i}")) for i in range(1, 20)]
        message = make_cache_update("www.example.com", records)
        assert message.fits_in_udp()
        assert message.wire_size() <= MAX_UDP_PAYLOAD


class TestWireTemplate:
    def test_patched_id_only_difference(self):
        records = [ResourceRecord("www.example.com", RRType.A, 60,
                                  A("10.0.0.1"))]
        message = make_cache_update("www.example.com", records)
        template = WireTemplate(message)
        first = template.with_id(0x1234)
        second = template.with_id(0x4321)
        assert first[:2] == b"\x12\x34" and second[:2] == b"\x43\x21"
        assert first[2:] == second[2:]
        assert len(template) == message.wire_size()

    def test_patched_copy_decodes_to_same_message(self):
        records = [ResourceRecord("www.example.com", RRType.A, 60,
                                  A("10.0.0.1"))]
        message = make_cache_update("www.example.com", records)
        decoded = Message.from_wire(WireTemplate(message).with_id(777))
        assert decoded.id == 777
        assert decoded.opcode == Opcode.CACHE_UPDATE
        assert decoded.question[0].name == message.question[0].name
        assert decoded.answer[0].rdata == A("10.0.0.1")

    def test_id_wraps_to_16_bits(self):
        template = WireTemplate(make_query("a.example.com", RRType.A))
        assert template.with_id(0x1_0002)[:2] == b"\x00\x02"

    def test_snapshots_are_independent(self):
        """with_id returns immutable snapshots, not views of the buffer."""
        template = WireTemplate(make_query("a.example.com", RRType.A))
        first = template.with_id(1)
        template.with_id(2)
        assert first[:2] == b"\x00\x01"


class TestSizes:
    def test_wire_size_matches_encoding(self):
        query = make_query("www.example.com", RRType.A)
        assert query.wire_size() == len(query.to_wire())

    def test_typical_query_small(self):
        assert make_query("www.example.com", RRType.A).wire_size() < 50
