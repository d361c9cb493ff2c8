"""Tests for master-file parsing and serialization."""

import pytest

from repro.dnslib import A, Name, RRType
from repro.zone import (
    MasterFileError,
    ZoneError,
    dump_zone,
    load_zone,
    parse_records,
    parse_ttl,
)
from tests.conftest import EXAMPLE_ZONE_TEXT


class TestParseTtl:
    @pytest.mark.parametrize("text,expected", [
        ("300", 300), ("5m", 300), ("1h", 3600), ("1h30m", 5400),
        ("2d", 172800), ("1w", 604800), ("0", 0),
    ])
    def test_valid(self, text, expected):
        assert parse_ttl(text) == expected

    @pytest.mark.parametrize("bad", ["", "m5", "5x", "1h30"])
    def test_invalid(self, bad):
        with pytest.raises(MasterFileError):
            parse_ttl(bad)


class TestParseRecords:
    def test_counts_and_types(self):
        records = parse_records(EXAMPLE_ZONE_TEXT)
        assert len(records) == 13
        assert sum(1 for r in records if r.rrtype == RRType.A) == 6

    def test_origin_applied_to_relative_names(self):
        records = parse_records("$ORIGIN x.org.\nwww 60 IN A 1.2.3.4\n")
        assert records[0].name == Name.from_text("www.x.org")

    def test_at_sign_is_origin(self):
        records = parse_records("$ORIGIN x.org.\n@ 60 IN A 1.2.3.4\n")
        assert records[0].name == Name.from_text("x.org")

    def test_absolute_name_ignores_origin(self):
        records = parse_records("$ORIGIN x.org.\nwww.y.net. 60 IN A 1.2.3.4\n")
        assert records[0].name == Name.from_text("www.y.net")

    def test_default_ttl_from_directive(self):
        records = parse_records("$ORIGIN x.org.\n$TTL 120\nwww IN A 1.2.3.4\n")
        assert records[0].ttl == 120

    def test_no_ttl_anywhere_fails(self):
        with pytest.raises(MasterFileError):
            parse_records("$ORIGIN x.org.\nwww IN A 1.2.3.4\n")

    def test_owner_inheritance_by_leading_whitespace(self):
        text = "$ORIGIN x.org.\n$TTL 60\nwww IN A 1.1.1.1\n    IN A 2.2.2.2\n"
        records = parse_records(text)
        assert records[1].name == records[0].name

    def test_inheritance_without_previous_owner_fails(self):
        with pytest.raises(MasterFileError):
            parse_records("    60 IN A 1.2.3.4\n")

    def test_parenthesized_soa(self):
        text = ("$ORIGIN x.org.\n@ 3600 IN SOA ns admin (\n"
                "    1 ; serial\n    7200\n    900\n    604800\n    300 )\n")
        records = parse_records(text)
        assert records[0].rrtype == RRType.SOA
        assert records[0].rdata.serial == 1

    def test_unbalanced_paren_fails(self):
        with pytest.raises(MasterFileError):
            parse_records("@ 60 IN SOA ns admin ( 1 2 3 4 5\n")

    def test_comments_stripped(self):
        records = parse_records(
            "$ORIGIN x.org.\nwww 60 IN A 1.2.3.4 ; comment here\n")
        assert len(records) == 1

    def test_quoted_txt_with_spaces(self):
        records = parse_records('$ORIGIN x.org.\nt 60 IN TXT "hello world"\n')
        assert records[0].rdata.strings == (b"hello world",)

    def test_unknown_type_fails(self):
        with pytest.raises(MasterFileError):
            parse_records("$ORIGIN x.\nw 60 IN BOGUS data\n")

    def test_bad_rdata_reports_line(self):
        with pytest.raises(MasterFileError) as info:
            parse_records("$ORIGIN x.\nw 60 IN A not-an-ip\n")
        assert info.value.line == 2

    def test_non_ascii_names_rejected(self):
        with pytest.raises(ValueError, match="non-ASCII"):
            parse_records("caf\u00e9 60 IN A 10.0.0.1\n",
                          origin=Name.from_text("example.com"))
        with pytest.raises(MasterFileError, match="non-ASCII"):
            parse_records("www 60 IN CNAME caf\u00e9\n",
                          origin=Name.from_text("example.com"))
        with pytest.raises(ValueError, match="non-ASCII"):
            parse_records("$ORIGIN ex\u00e4mple.com.\n")

    def test_class_before_ttl_order(self):
        records = parse_records("$ORIGIN x.org.\nwww IN 60 A 1.2.3.4\n")
        assert records[0].ttl == 60


class TestLoadZone:
    def test_loads_example(self, example_zone):
        assert example_zone.origin == Name.from_text("example.com")
        assert example_zone.serial == 1  # bulk load doesn't churn the serial

    def test_www_has_two_addresses(self, example_zone):
        rrset = example_zone.get_rrset("www.example.com", RRType.A)
        assert len(rrset) == 2

    def test_zone_without_soa_fails(self):
        with pytest.raises(ZoneError):
            load_zone("$ORIGIN x.org.\nwww 60 IN A 1.2.3.4\n")

    def test_zone_with_two_soas_fails(self):
        text = ("$ORIGIN x.org.\n@ 60 IN SOA a b 1 2 3 4 5\n"
                "@ 60 IN SOA c d 1 2 3 4 5\n")
        with pytest.raises(ZoneError):
            load_zone(text)


class TestDumpZone:
    def test_roundtrip_preserves_content(self, example_zone):
        text = dump_zone(example_zone)
        reloaded = load_zone(text)
        from repro.zone import zones_equal
        assert zones_equal(example_zone, reloaded, ignore_soa=False)

    def test_dump_starts_with_origin(self, example_zone):
        assert dump_zone(example_zone).startswith("$ORIGIN example.com.")
