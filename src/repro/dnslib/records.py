"""Resource records and RRsets.

A :class:`ResourceRecord` is one (name, type, class, ttl, rdata) tuple; an
:class:`RRSet` groups the records sharing (name, type, class) — the unit a
zone stores and a cache caches.  TTLs live on the set, matching RFC 2181
§5.2's requirement that members of an RRset share a TTL.
"""

from __future__ import annotations

import struct
from typing import Iterable, Iterator, List, Tuple

from .enums import RRCLASS_BY_VALUE, RRTYPE_BY_VALUE, RRClass, RRType
from .name import Name, as_name
from .rdata import Rdata, rdata_from_wire
from .wire import WireReader, WireWriter

#: The fixed part of a record after its owner name (RFC 1035 §4.1.3):
#: TYPE, CLASS, TTL, RDLENGTH — and the same without the length, which
#: the writer back-patches.
_RR_FIXED = struct.Struct("!HHIH")
_PACK_TYPE_CLASS_TTL = struct.Struct("!HHI").pack


class ResourceRecord:
    """A single DNS resource record."""

    __slots__ = ("name", "rrtype", "rrclass", "ttl", "rdata")

    def __init__(self, name, rrtype: RRType, ttl: int, rdata: Rdata,
                 rrclass: RRClass = RRClass.IN):
        self.name: Name = name if type(name) is Name else as_name(name)
        self.rrtype = rrtype if type(rrtype) is RRType else RRType(rrtype)
        self.rrclass = (rrclass if type(rrclass) is RRClass
                        else RRClass(rrclass))
        if ttl < 0 or ttl > 0x7FFFFFFF:
            raise ValueError(f"TTL out of range: {ttl}")
        self.ttl = ttl
        self.rdata = rdata

    # -- wire --------------------------------------------------------------

    def to_wire(self, writer: WireWriter) -> None:
        """Serialize onto ``writer`` in RFC 1035 wire format."""
        writer.write_name(self.name)
        writer.write_bytes(
            _PACK_TYPE_CLASS_TTL(self.rrtype, self.rrclass, self.ttl))
        writer.write_rdata(self.rdata)

    @classmethod
    def from_wire(cls, reader: WireReader) -> "ResourceRecord":
        """Decode one instance from the reader's cursor."""
        name = reader.read_name()
        rrtype, rrclass, ttl, rdlength = reader.unpack(_RR_FIXED)
        rrtype = RRTYPE_BY_VALUE.get(rrtype) or RRType(rrtype)
        rrclass = RRCLASS_BY_VALUE.get(rrclass) or RRClass(rrclass)
        rdata = rdata_from_wire(rrtype, reader, rdlength)
        return cls(name, rrtype, ttl, rdata, rrclass)

    # -- text --------------------------------------------------------------

    def to_text(self) -> str:
        """Master-file (presentation) rendering."""
        return (f"{self.name.to_text()} {self.ttl} {self.rrclass.name} "
                f"{self.rrtype.name} {self.rdata.to_text()}")

    # -- value semantics ---------------------------------------------------

    def _key(self) -> Tuple:
        return (self.name, self.rrtype, self.rrclass, self.ttl, self.rdata)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ResourceRecord):
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"ResourceRecord({self.to_text()!r})"


class RRSet:
    """All records for one (name, type, class), sharing a TTL.

    Rdata order is preserved as inserted but equality is order-insensitive:
    an RRset is a set, and CDN-style rotation (paper §3.2, "logical
    changes") permutes the order without changing the set.
    """

    __slots__ = ("name", "rrtype", "rrclass", "ttl", "_rdatas")

    def __init__(self, name, rrtype: RRType, ttl: int,
                 rdatas: Iterable[Rdata] = (), rrclass: RRClass = RRClass.IN):
        self.name: Name = name if type(name) is Name else as_name(name)
        self.rrtype = rrtype if type(rrtype) is RRType else RRType(rrtype)
        self.rrclass = (rrclass if type(rrclass) is RRClass
                        else RRClass(rrclass))
        self.ttl = ttl
        self._rdatas: List[Rdata] = []
        for rdata in rdatas:
            self.add(rdata)

    # -- mutation ----------------------------------------------------------

    def add(self, rdata: Rdata) -> bool:
        """Add ``rdata`` unless already present; return True when added."""
        if rdata.rrtype != self.rrtype:
            raise ValueError(f"rdata type {rdata.rrtype!r} != set type {self.rrtype!r}")
        if rdata in self._rdatas:
            return False
        self._rdatas.append(rdata)
        return True

    def discard(self, rdata: Rdata) -> bool:
        """Remove ``rdata`` if present; return True when removed."""
        try:
            self._rdatas.remove(rdata)
            return True
        except ValueError:
            return False

    def replace(self, rdatas: Iterable[Rdata]) -> None:
        """Replace the rdata set wholesale."""
        self._rdatas = []
        for rdata in rdatas:
            self.add(rdata)

    def rotate(self, steps: int = 1) -> None:
        """Rotate rdata order — round-robin answer shuffling."""
        if len(self._rdatas) > 1:
            steps %= len(self._rdatas)
            self._rdatas = self._rdatas[steps:] + self._rdatas[:steps]

    # -- access ------------------------------------------------------------

    @property
    def rdatas(self) -> Tuple[Rdata, ...]:
        """The rdata tuple of this set."""
        return tuple(self._rdatas)

    def to_records(self) -> List[ResourceRecord]:
        """Expand into individual resource records."""
        return [ResourceRecord(self.name, self.rrtype, self.ttl, rdata, self.rrclass)
                for rdata in self._rdatas]

    def copy(self) -> "RRSet":
        """An independent copy."""
        return RRSet(self.name, self.rrtype, self.ttl, self._rdatas, self.rrclass)

    def key(self) -> Tuple[Name, RRType, RRClass]:
        """The lookup key for this object."""
        return (self.name, self.rrtype, self.rrclass)

    def same_rdatas(self, other: "RRSet") -> bool:
        """Order-insensitive rdata comparison (change *detection* input)."""
        return frozenset(self._rdatas) == frozenset(other._rdatas)

    def __len__(self) -> int:
        return len(self._rdatas)

    def __iter__(self) -> Iterator[Rdata]:
        return iter(self._rdatas)

    def __contains__(self, rdata: Rdata) -> bool:
        return rdata in self._rdatas

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RRSet):
            return (self.key() == other.key() and self.ttl == other.ttl
                    and self.same_rdatas(other))
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.key(), self.ttl, frozenset(self._rdatas)))

    def __repr__(self) -> str:
        return (f"RRSet({self.name.to_text()!r}, {self.rrtype.name}, ttl={self.ttl}, "
                f"{[r.to_text() for r in self._rdatas]})")


def records_to_rrsets(records: Iterable[ResourceRecord]) -> List[RRSet]:
    """Group records into RRsets, preserving first-seen order."""
    sets: List[RRSet] = []
    index = {}
    for record in records:
        key = (record.name, record.rrtype, record.rrclass)
        if key in index:
            index[key].add(record.rdata)
        else:
            rrset = RRSet(record.name, record.rrtype, record.ttl,
                          [record.rdata], record.rrclass)
            index[key] = rrset
            sets.append(rrset)
    return sets
