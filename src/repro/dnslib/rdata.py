"""Typed RDATA for the record types the reproduction needs.

Each class is an immutable value object with three representations:
text (master-file fields), wire (via :class:`~repro.dnslib.wire.WireWriter`
/ :class:`~repro.dnslib.wire.WireReader`), and Python attributes.  ``A``
records carry plain dotted-quad strings rather than ``ipaddress`` objects;
the simulator fabricates millions of them and string keys are cheap.
"""

from __future__ import annotations

import struct
from typing import ClassVar, Dict, List, Optional, Tuple, Type

from .enums import RRType
from .name import Name, as_name
from .wire import WireFormatError, WireReader, WireWriter

#: Fixed RDATA layouts, each packed or unpacked in one call.
_IPV6_GROUPS = struct.Struct("!8H")
_SOA_TIMERS = struct.Struct("!5I")
_SRV_FIXED = struct.Struct("!3H")


def _check_ipv4(text: str) -> str:
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"bad IPv4 address: {text!r}")
    for part in parts:
        if not part.isdigit() or not 0 <= int(part) <= 255 or (part != "0" and part[0] == "0"):
            raise ValueError(f"bad IPv4 address: {text!r}")
    return text


def _check_ipv6(text: str) -> str:
    # Minimal validation: hex groups with at most one "::" elision.
    if text.count("::") > 1:
        raise ValueError(f"bad IPv6 address: {text!r}")
    groups = [g for g in text.replace("::", ":x:").split(":") if g != ""]
    expanded = 8 if "::" not in text else len([g for g in groups if g != "x"])
    if "::" not in text and len(groups) != 8:
        raise ValueError(f"bad IPv6 address: {text!r}")
    if expanded > 8:
        raise ValueError(f"bad IPv6 address: {text!r}")
    for group in groups:
        if group == "x":
            continue
        if len(group) > 4 or any(c not in "0123456789abcdefABCDEF" for c in group):
            raise ValueError(f"bad IPv6 address: {text!r}")
    return text.lower()


def _ipv6_to_bytes(text: str) -> bytes:
    if "::" in text:
        head, _, tail = text.partition("::")
        head_groups = head.split(":") if head else []
        tail_groups = tail.split(":") if tail else []
        missing = 8 - len(head_groups) - len(tail_groups)
        groups = head_groups + ["0"] * missing + tail_groups
    else:
        groups = text.split(":")
    return _IPV6_GROUPS.pack(*(int(g, 16) for g in groups))


class Rdata:
    """Base class for typed record data."""

    rrtype: ClassVar[RRType]

    def to_wire(self, writer: WireWriter) -> None:
        """Serialize onto ``writer`` in RFC 1035 wire format."""
        raise NotImplementedError

    def to_text(self) -> str:
        """Master-file (presentation) rendering."""
        raise NotImplementedError

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "Rdata":
        """Decode one instance from the reader's cursor."""
        raise NotImplementedError

    @classmethod
    def from_text(cls, fields: List[str], origin: Name) -> "Rdata":
        """Parse from presentation text."""
        raise NotImplementedError

    # Value semantics come from each subclass's _key().

    def _key(self) -> Tuple:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Rdata):
            return self.rrtype == other.rrtype and self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.rrtype, self._key()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_text()!r})"


class A(Rdata):
    """An IPv4 address — the record type DNScup's study targets (§3)."""

    rrtype = RRType.A
    __slots__ = ("address", "_packed")

    def __init__(self, address: str):
        self.address = _check_ipv4(address)
        #: The four wire octets, computed on first use.
        self._packed: Optional[bytes] = None

    def to_wire(self, writer: WireWriter) -> None:
        """Serialize onto ``writer`` in RFC 1035 wire format."""
        packed = self._packed
        if packed is None:
            packed = self._packed = bytes(
                int(p) for p in self.address.split("."))
        writer.write_bytes(packed)

    def to_text(self) -> str:
        """Master-file (presentation) rendering."""
        return self.address

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "A":
        """Decode one instance from the reader's cursor."""
        if rdlength != 4:
            raise WireFormatError(f"A rdata must be 4 bytes, got {rdlength}")
        # Four octets always spell a valid dotted quad: skip the text
        # validation the constructor would redo and keep the octets.
        self = cls.__new__(cls)
        self._packed = reader.read_bytes(4)
        self.address = "%d.%d.%d.%d" % tuple(self._packed)
        return self

    @classmethod
    def from_text(cls, fields: List[str], origin: Name) -> "A":
        """Parse from presentation text."""
        (address,) = fields
        return cls(address)

    def _key(self) -> Tuple:
        return (self.address,)


class AAAA(Rdata):
    """An IPv6 address."""

    rrtype = RRType.AAAA
    __slots__ = ("address", "_packed")

    def __init__(self, address: str):
        self.address = _check_ipv6(address)
        #: The sixteen wire octets; also the value the address compares by.
        self._packed = _ipv6_to_bytes(self.address)

    def to_wire(self, writer: WireWriter) -> None:
        """Serialize onto ``writer`` in RFC 1035 wire format."""
        writer.write_bytes(self._packed)

    def to_text(self) -> str:
        """Master-file (presentation) rendering."""
        return self.address

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "AAAA":
        """Decode one instance from the reader's cursor."""
        if rdlength != 16:
            raise WireFormatError(f"AAAA rdata must be 16 bytes, got {rdlength}")
        return cls(":".join(
            f"{group:x}" for group in reader.unpack(_IPV6_GROUPS)))

    @classmethod
    def from_text(cls, fields: List[str], origin: Name) -> "AAAA":
        """Parse from presentation text."""
        (address,) = fields
        return cls(address)

    def _key(self) -> Tuple:
        return (self._packed,)


class _SingleName(Rdata):
    """Shared implementation for NS/CNAME/PTR — one domain name."""

    __slots__ = ("target",)

    def __init__(self, target):
        self.target: Name = as_name(target)

    def to_wire(self, writer: WireWriter) -> None:
        """Serialize onto ``writer`` in RFC 1035 wire format."""
        writer.write_name(self.target)

    def to_text(self) -> str:
        """Master-file (presentation) rendering."""
        return self.target.to_text()

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int):
        """Decode one instance from the reader's cursor."""
        return cls(reader.read_name())

    @classmethod
    def from_text(cls, fields: List[str], origin: Name):
        """Parse from presentation text."""
        (target,) = fields
        return cls(_absolutize(target, origin))

    def _key(self) -> Tuple:
        return (self.target,)


class NS(_SingleName):
    """A delegation to a nameserver."""

    rrtype = RRType.NS


class CNAME(_SingleName):
    """A canonical-name alias."""

    rrtype = RRType.CNAME


class PTR(_SingleName):
    """A reverse-mapping pointer."""

    rrtype = RRType.PTR


class SOA(Rdata):
    """Start of authority: zone serial and timers (RFC 1035 §3.3.13)."""

    rrtype = RRType.SOA
    __slots__ = ("mname", "rname", "serial", "refresh", "retry", "expire", "minimum")

    def __init__(self, mname, rname, serial: int, refresh: int, retry: int,
                 expire: int, minimum: int):
        self.mname: Name = as_name(mname)
        self.rname: Name = as_name(rname)
        self.serial = serial & 0xFFFFFFFF
        self.refresh = refresh
        self.retry = retry
        self.expire = expire
        self.minimum = minimum

    def to_wire(self, writer: WireWriter) -> None:
        """Serialize onto ``writer`` in RFC 1035 wire format."""
        writer.write_name(self.mname)
        writer.write_name(self.rname)
        writer.write_bytes(_SOA_TIMERS.pack(
            self.serial, self.refresh, self.retry, self.expire, self.minimum))

    def to_text(self) -> str:
        """Master-file (presentation) rendering."""
        return (f"{self.mname.to_text()} {self.rname.to_text()} {self.serial} "
                f"{self.refresh} {self.retry} {self.expire} {self.minimum}")

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "SOA":
        """Decode one instance from the reader's cursor."""
        mname = reader.read_name()
        rname = reader.read_name()
        return cls(mname, rname, *reader.unpack(_SOA_TIMERS))

    @classmethod
    def from_text(cls, fields: List[str], origin: Name) -> "SOA":
        """Parse from presentation text."""
        mname, rname, serial, refresh, retry, expire, minimum = fields
        return cls(_absolutize(mname, origin), _absolutize(rname, origin),
                   int(serial), int(refresh), int(retry), int(expire), int(minimum))

    def _key(self) -> Tuple:
        return (self.mname, self.rname, self.serial, self.refresh,
                self.retry, self.expire, self.minimum)


class MX(Rdata):
    """A mail exchanger with preference."""

    rrtype = RRType.MX
    __slots__ = ("preference", "exchange")

    def __init__(self, preference: int, exchange):
        self.preference = preference
        self.exchange: Name = as_name(exchange)

    def to_wire(self, writer: WireWriter) -> None:
        """Serialize onto ``writer`` in RFC 1035 wire format."""
        writer.write_u16(self.preference)
        writer.write_name(self.exchange)

    def to_text(self) -> str:
        """Master-file (presentation) rendering."""
        return f"{self.preference} {self.exchange.to_text()}"

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "MX":
        """Decode one instance from the reader's cursor."""
        return cls(reader.read_u16(), reader.read_name())

    @classmethod
    def from_text(cls, fields: List[str], origin: Name) -> "MX":
        """Parse from presentation text."""
        preference, exchange = fields
        return cls(int(preference), _absolutize(exchange, origin))

    def _key(self) -> Tuple:
        return (self.preference, self.exchange)


class TXT(Rdata):
    """Free-form text strings."""

    rrtype = RRType.TXT
    __slots__ = ("strings",)

    def __init__(self, strings):
        if isinstance(strings, (str, bytes)):
            strings = [strings]
        self.strings: Tuple[bytes, ...] = tuple(
            s.encode("ascii") if isinstance(s, str) else bytes(s) for s in strings
        )
        if not self.strings:
            raise ValueError("TXT needs at least one string")

    def to_wire(self, writer: WireWriter) -> None:
        """Serialize onto ``writer`` in RFC 1035 wire format."""
        for string in self.strings:
            writer.write_string(string)

    def to_text(self) -> str:
        """Master-file (presentation) rendering."""
        return " ".join('"' + s.decode("ascii") + '"' for s in self.strings)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "TXT":
        """Decode one instance from the reader's cursor."""
        end = reader.offset + rdlength
        strings = []
        while reader.offset < end:
            strings.append(reader.read_string())
        if reader.offset != end:
            raise WireFormatError("TXT rdata length mismatch")
        return cls(strings)

    @classmethod
    def from_text(cls, fields: List[str], origin: Name) -> "TXT":
        """Parse from presentation text."""
        return cls([field.strip('"') for field in fields])

    def _key(self) -> Tuple:
        return self.strings


class SRV(Rdata):
    """Service location (RFC 2782)."""

    rrtype = RRType.SRV
    __slots__ = ("priority", "weight", "port", "target")

    def __init__(self, priority: int, weight: int, port: int, target):
        self.priority = priority
        self.weight = weight
        self.port = port
        self.target: Name = as_name(target)

    def to_wire(self, writer: WireWriter) -> None:
        """Serialize onto ``writer`` in RFC 1035 wire format."""
        writer.write_bytes(
            _SRV_FIXED.pack(self.priority, self.weight, self.port))
        writer.write_name(self.target)

    def to_text(self) -> str:
        """Master-file (presentation) rendering."""
        return f"{self.priority} {self.weight} {self.port} {self.target.to_text()}"

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "SRV":
        """Decode one instance from the reader's cursor."""
        return cls(*reader.unpack(_SRV_FIXED), reader.read_name())

    @classmethod
    def from_text(cls, fields: List[str], origin: Name) -> "SRV":
        """Parse from presentation text."""
        priority, weight, port, target = fields
        return cls(int(priority), int(weight), int(port), _absolutize(target, origin))

    def _key(self) -> Tuple:
        return (self.priority, self.weight, self.port, self.target)


class EmptyRdata(Rdata):
    """Zero-length RDATA.

    RFC 2136 encodes its prerequisite and delete pseudo-records with
    RDLENGTH 0; this sentinel is what such records carry in memory and
    what zero-length rdata decodes to.
    """

    __slots__ = ("_rrtype",)

    def __init__(self, rrtype: RRType):
        self._rrtype = RRType(rrtype)

    @property
    def rrtype(self) -> RRType:  # type: ignore[override]
        """The record type this object carries."""
        return self._rrtype

    def to_wire(self, writer: WireWriter) -> None:
        """Serialize onto ``writer`` in RFC 1035 wire format."""
        pass  # zero octets

    def to_text(self) -> str:
        """Master-file (presentation) rendering."""
        return ""

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "EmptyRdata":
        """Decode one instance from the reader's cursor."""
        raise NotImplementedError("constructed via rdata_from_wire")

    def _key(self) -> Tuple:
        return ()


class Generic(Rdata):
    """Opaque rdata for types without a dedicated class (RFC 3597 style)."""

    __slots__ = ("_rrtype", "data")

    def __init__(self, rrtype: RRType, data: bytes):
        self._rrtype = rrtype
        self.data = bytes(data)

    @property
    def rrtype(self) -> RRType:  # type: ignore[override]
        """The record type this object carries."""
        return self._rrtype

    def to_wire(self, writer: WireWriter) -> None:
        """Serialize onto ``writer`` in RFC 1035 wire format."""
        writer.write_bytes(self.data)

    def to_text(self) -> str:
        """Master-file (presentation) rendering."""
        return f"\\# {len(self.data)} {self.data.hex()}"

    @classmethod
    def from_wire_typed(cls, rrtype: RRType, reader: WireReader, rdlength: int) -> "Generic":
        """Decode opaque rdata of the given type."""
        return cls(rrtype, reader.read_bytes(rdlength))

    def _key(self) -> Tuple:
        return (self.data,)


def _absolutize(text: str, origin: Name) -> Name:
    """Master-file name resolution: append the origin unless absolute."""
    if text == "@":
        return origin
    if text.endswith("."):
        return Name.from_text(text)
    return Name.from_text(text).concatenate(origin)


_RDATA_CLASSES: Dict[RRType, Type[Rdata]] = {
    RRType.A: A,
    RRType.AAAA: AAAA,
    RRType.NS: NS,
    RRType.CNAME: CNAME,
    RRType.PTR: PTR,
    RRType.SOA: SOA,
    RRType.MX: MX,
    RRType.TXT: TXT,
    RRType.SRV: SRV,
}


def rdata_class_for(rrtype: RRType) -> Type[Rdata]:
    """The concrete :class:`Rdata` subclass for ``rrtype``, if known."""
    try:
        return _RDATA_CLASSES[rrtype]
    except KeyError:
        raise ValueError(f"no rdata class for type {rrtype!r}") from None


def rdata_from_wire(rrtype: RRType, reader: WireReader, rdlength: int) -> Rdata:
    """Decode rdata, falling back to :class:`Generic` for unknown types.

    Zero-length rdata decodes to :class:`EmptyRdata` — the RFC 2136
    pseudo-record convention (no real record of the supported types has
    empty rdata).
    """
    if rdlength == 0:
        return EmptyRdata(rrtype)
    cls = _RDATA_CLASSES.get(rrtype)
    end = reader.offset + rdlength
    if cls is None:
        rdata: Rdata = Generic.from_wire_typed(rrtype, reader, rdlength)
    else:
        rdata = cls.from_wire(reader, rdlength)
    if reader.offset != end:
        raise WireFormatError(
            f"rdata length mismatch for {rrtype.name}: "
            f"declared {rdlength}, consumed {reader.offset - (end - rdlength)}"
        )
    return rdata


def rdata_from_text(rrtype: RRType, fields: List[str], origin: Name) -> Rdata:
    """Parse master-file rdata fields for ``rrtype``."""
    return rdata_class_for(rrtype).from_text(fields, origin)
