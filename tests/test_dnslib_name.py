"""Tests for repro.dnslib.name."""

import pytest

from repro.dnslib import Name, NameError_, as_name
from repro.dnslib import name as name_module


class TestConstruction:
    def test_from_text_basic(self):
        name = Name.from_text("www.example.com")
        assert name.labels == ("www", "example", "com")

    def test_trailing_dot_optional(self):
        assert Name.from_text("example.com.") == Name.from_text("example.com")

    def test_root_from_dot(self):
        assert Name.from_text(".").is_root()

    def test_root_from_empty(self):
        assert Name.from_text("").is_root()

    def test_empty_label_rejected(self):
        with pytest.raises(NameError_):
            Name.from_text("www..com")

    def test_label_too_long_rejected(self):
        with pytest.raises(NameError_):
            Name(["x" * 64, "com"])

    def test_label_63_accepted(self):
        Name(["x" * 63, "com"])

    def test_name_too_long_rejected(self):
        labels = ["a" * 60] * 5  # 5*61 + 1 = 306 > 255
        with pytest.raises(NameError_):
            Name(labels)

    @pytest.mark.parametrize("labels", [["é" * 100], ["caf\u00e9", "com"],
                                        ["x", "\u4f8b\u3048"]])
    def test_non_ascii_label_rejected(self, labels):
        """Was accepted (the length check ignored non-ASCII characters)
        and then died with UnicodeEncodeError in the first write_name."""
        with pytest.raises(NameError_, match="non-ASCII"):
            Name(labels)

    def test_non_ascii_text_rejected(self):
        with pytest.raises(NameError_, match="non-ASCII"):
            Name.from_text("www.ex\u00e4mple.com")
        with pytest.raises(NameError_):
            as_name("\u00fc.example")

    def test_as_name_passthrough(self):
        name = Name.from_text("a.b")
        assert as_name(name) is name

    def test_as_name_from_string(self):
        assert as_name("a.b") == Name.from_text("a.b")

    def test_as_name_memo_keeps_spelling_apart(self):
        lower, mixed = as_name("memo.example.com"), as_name("Memo.Example.COM")
        assert as_name("memo.example.com") is lower
        assert lower == mixed and lower is not mixed
        assert mixed.to_text() == "Memo.Example.COM."
        assert as_name("memo.example.com.") == lower

    def test_as_name_memo_is_capped(self):
        peak = 0
        for i in range(3 * name_module.NAME_MEMO_CAP):
            as_name(f"h{i}.flood.test")
            peak = max(peak, len(name_module._names_by_text))
        assert peak <= name_module.NAME_MEMO_CAP
        # Still a working memo afterwards.
        assert as_name("after.flood.test") is as_name("after.flood.test")

    def test_as_name_never_memoises_invalid_text(self):
        for text in ("a..b", "x" * 64 + ".test", "caf\u00e9.test"):
            for _ in range(2):
                with pytest.raises(NameError_):
                    as_name(text)
            assert text not in name_module._names_by_text


class TestCaseInsensitivity:
    def test_equality_ignores_case(self):
        assert Name.from_text("WWW.Example.COM") == Name.from_text("www.example.com")

    def test_hash_ignores_case(self):
        assert hash(Name.from_text("A.B")) == hash(Name.from_text("a.b"))

    def test_presentation_preserves_case(self):
        assert Name.from_text("WWW.example.com").to_text() == "WWW.example.com."

    def test_presentation_text_is_joined_once(self):
        name = Name.from_text("WwW.Example.COM")
        assert name.to_text() is name.to_text()
        # parent() builds through __new__: its text slot must exist too,
        # and keep the spelling.
        parent = name.parent()
        assert parent.to_text() == "Example.COM."
        assert parent.to_text() is parent.to_text()
        assert parent.parent().parent().to_text() == "."
        assert Name.root().to_text() == "."


class TestStructure:
    def test_parent(self):
        assert Name.from_text("www.example.com").parent() == Name.from_text("example.com")

    def test_parent_of_root_raises(self):
        with pytest.raises(NameError_):
            Name.root().parent()

    def test_child(self):
        assert Name.from_text("example.com").child("www") == Name.from_text("www.example.com")

    def test_concatenate(self):
        rel = Name.from_text("www")
        origin = Name.from_text("example.com")
        assert rel.concatenate(origin) == Name.from_text("www.example.com")

    def test_is_subdomain_of_self(self):
        name = Name.from_text("example.com")
        assert name.is_subdomain_of(name)

    def test_is_subdomain_of_parent(self):
        assert Name.from_text("www.example.com").is_subdomain_of(
            Name.from_text("example.com"))

    def test_not_subdomain_of_sibling(self):
        assert not Name.from_text("www.example.com").is_subdomain_of(
            Name.from_text("other.com"))

    def test_everything_under_root(self):
        assert Name.from_text("a.b.c").is_subdomain_of(Name.root())

    def test_partial_label_is_not_subdomain(self):
        # "ample.com" must not match "example.com" suffix-wise.
        assert not Name.from_text("ample.com").is_subdomain_of(
            Name.from_text("example.com"))

    def test_relativize(self):
        name = Name.from_text("www.sub.example.com")
        assert name.relativize(Name.from_text("example.com")) == ("www", "sub")

    def test_relativize_not_under_raises(self):
        with pytest.raises(NameError_):
            Name.from_text("a.org").relativize(Name.from_text("example.com"))

    def test_ancestors_walk_to_root(self):
        chain = list(Name.from_text("a.b.c").ancestors())
        assert [n.to_text() for n in chain] == ["a.b.c.", "b.c.", "c.", "."]

    def test_tld(self):
        assert Name.from_text("www.example.com").tld() == "com"
        assert Name.root().tld() == ""

    def test_wire_length(self):
        # www.example.com. = 1+3 + 1+7 + 1+3 + 1 = 17
        assert Name.from_text("www.example.com").wire_length() == 17
        assert Name.root().wire_length() == 1


class TestOrderingAndRepr:
    def test_canonical_ordering_by_reversed_labels(self):
        a = Name.from_text("a.example.com")
        z = Name.from_text("z.example.com")
        other = Name.from_text("a.example.net")
        assert a < z
        assert a < other  # com < net at the top level

    def test_repr_roundtrip_text(self):
        assert "www.example.com." in repr(Name.from_text("www.example.com"))

    def test_len_is_label_count(self):
        assert len(Name.from_text("a.b.c")) == 3
        assert len(Name.root()) == 0
