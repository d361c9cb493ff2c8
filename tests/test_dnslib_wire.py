"""Tests for the wire reader/writer and name compression."""

import pytest

from repro.dnslib import Name, WireFormatError, WireReader, WireWriter, wire


class TestPrimitives:
    def test_u8_roundtrip(self):
        writer = WireWriter()
        writer.write_u8(0xAB)
        assert WireReader(writer.getvalue()).read_u8() == 0xAB

    def test_u16_roundtrip(self):
        writer = WireWriter()
        writer.write_u16(0xBEEF)
        assert WireReader(writer.getvalue()).read_u16() == 0xBEEF

    def test_u32_roundtrip(self):
        writer = WireWriter()
        writer.write_u32(0xDEADBEEF)
        assert WireReader(writer.getvalue()).read_u32() == 0xDEADBEEF

    def test_string_roundtrip(self):
        writer = WireWriter()
        writer.write_string(b"hello")
        assert WireReader(writer.getvalue()).read_string() == b"hello"

    def test_string_over_255_rejected(self):
        writer = WireWriter()
        with pytest.raises(WireFormatError):
            writer.write_string(b"x" * 256)

    def test_truncated_read_raises(self):
        reader = WireReader(b"\x00")
        with pytest.raises(WireFormatError):
            reader.read_u16()

    def test_remaining_and_seek(self):
        reader = WireReader(b"\x01\x02\x03")
        assert reader.remaining == 3
        reader.read_u8()
        assert reader.remaining == 2
        reader.seek(0)
        assert reader.remaining == 3

    def test_seek_out_of_range(self):
        with pytest.raises(WireFormatError):
            WireReader(b"ab").seek(5)


class TestNames:
    def roundtrip(self, *names, compress=True):
        writer = WireWriter(compress=compress)
        for name in names:
            writer.write_name(Name.from_text(name))
        data = writer.getvalue()
        reader = WireReader(data)
        decoded = [reader.read_name() for _ in names]
        assert [d.to_text() for d in decoded] == \
            [Name.from_text(n).to_text() for n in names]
        return data

    def test_root_roundtrip(self):
        writer = WireWriter()
        writer.write_name(Name.root())
        assert writer.getvalue() == b"\x00"

    def test_simple_roundtrip(self):
        self.roundtrip("www.example.com")

    def test_compression_reuses_suffix(self):
        data = self.roundtrip("www.example.com", "mail.example.com")
        # The second name should be 'mail' label (5) + 2-byte pointer = 7,
        # versus 18 uncompressed.
        uncompressed = self.roundtrip("www.example.com", "mail.example.com",
                                      compress=False)
        assert len(data) < len(uncompressed)
        assert len(data) == 17 + 5 + 2

    def test_full_name_pointer(self):
        data = self.roundtrip("example.com", "example.com")
        assert len(data) == 13 + 2  # second occurrence is one pointer

    def test_compression_case_insensitive(self):
        """Differently-cased suffixes share one pointer target.

        The decoded second name inherits the first occurrence's spelling
        (as real compressing servers do), so compare Name equality —
        which is case-insensitive — rather than text.
        """
        writer = WireWriter()
        writer.write_name(Name.from_text("www.EXAMPLE.com"))
        writer.write_name(Name.from_text("mail.example.COM"))
        data = writer.getvalue()
        assert len(data) < 2 * 17
        reader = WireReader(data)
        assert reader.read_name() == Name.from_text("www.example.com")
        assert reader.read_name() == Name.from_text("mail.example.com")

    def test_no_compression_when_disabled(self):
        data = self.roundtrip("a.b", "a.b", compress=False)
        assert len(data) == 2 * Name.from_text("a.b").wire_length()

    def test_pointer_loop_rejected(self):
        # A pointer pointing at itself.
        data = b"\xc0\x00"
        with pytest.raises(WireFormatError):
            WireReader(data).read_name()

    def test_forward_pointer_rejected(self):
        # Pointer to offset 2 from offset 0 (forward).
        data = b"\xc0\x02\x01a\x00"
        with pytest.raises(WireFormatError):
            WireReader(data).read_name()

    def test_bad_label_tag_rejected(self):
        with pytest.raises(WireFormatError):
            WireReader(b"\x80abc").read_name()

    def test_label_past_end_rejected(self):
        with pytest.raises(WireFormatError):
            WireReader(b"\x05ab").read_name()

    def test_reader_position_after_pointer(self):
        """After a compressed name the cursor must resume after the pointer."""
        writer = WireWriter()
        writer.write_name(Name.from_text("example.com"))
        writer.write_name(Name.from_text("example.com"))
        writer.write_u16(0x1234)
        reader = WireReader(writer.getvalue())
        reader.read_name()
        reader.read_name()
        assert reader.read_u16() == 0x1234

    def test_deep_chain_roundtrip(self):
        names = [f"h{i}.deep.example.org" for i in range(20)]
        self.roundtrip(*names)

    def test_non_ascii_label_rejected(self):
        with pytest.raises(WireFormatError, match="non-ascii"):
            WireReader(b"\x02\xc3\xa9\x03com\x00").read_name()


def _name_image(*labels):
    return b"".join(bytes([len(label)]) + label for label in labels) + b"\x00"


class TestNameInternTable:
    """read_name shares validated Name objects through a bounded table."""

    def test_hit_is_the_same_object(self):
        data = _name_image(b"shared", b"example", b"com")
        first = WireReader(data).read_name()
        assert WireReader(data).read_name() is first
        # Reached through a pointer, the image — and the object — is the same.
        assert WireReader(data + b"\xc0\x00", len(data)).read_name() is first

    def test_spelling_is_part_of_the_key(self):
        upper = WireReader(_name_image(b"WWW", b"Example", b"com")).read_name()
        lower = WireReader(_name_image(b"www", b"example", b"com")).read_name()
        assert upper == lower and hash(upper) == hash(lower)
        assert upper.to_text() == "WWW.Example.com."
        assert lower.to_text() == "www.example.com."

    def test_hostile_names_cannot_grow_it_past_the_cap(self):
        peak = 0
        for i in range(100_000):
            WireReader(_name_image(b"h%d" % i, b"flood", b"test")).read_name()
            peak = max(peak, len(wire._interned_names))
        assert peak <= wire.NAME_INTERN_CAP
        # Still a working cache afterwards.
        data = _name_image(b"after", b"flood", b"test")
        assert WireReader(data).read_name() is WireReader(data).read_name()

    def test_invalid_name_is_never_cached(self):
        too_long = _name_image(*[b"a" * 63] * 4)           # 257 octets
        non_ascii = _name_image(b"caf\xc3\xa9", b"test")
        for data in (too_long, non_ascii):
            for _ in range(2):
                with pytest.raises(WireFormatError):
                    WireReader(data).read_name()
            assert data[:-1] not in wire._interned_names
        assert all(name.wire_length() <= 255
                   for name in wire._interned_names.values())
