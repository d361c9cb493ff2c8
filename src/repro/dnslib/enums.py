"""Protocol constants for the DNS data model.

These enumerations follow RFC 1035 numbering, extended with the values
DNScup introduces: the ``CACHE_UPDATE`` opcode (6) used for proactive
cache-update messages and lease negotiation, alongside the standard
``UPDATE`` opcode (5) from RFC 2136 that DNScup builds upon.
"""

from __future__ import annotations

import enum


class RRType(enum.IntEnum):
    """DNS resource record types (RFC 1035 and friends)."""

    A = 1
    NS = 2
    CNAME = 5
    SOA = 6
    PTR = 12
    MX = 15
    TXT = 16
    AAAA = 28
    SRV = 33
    OPT = 41
    AXFR = 252
    ANY = 255

    @classmethod
    def from_text(cls, text: str) -> "RRType":
        """Parse a record-type mnemonic such as ``"A"`` or ``"SOA"``."""
        try:
            return cls[text.upper()]
        except KeyError:
            raise ValueError(f"unknown RR type mnemonic: {text!r}") from None


class RRClass(enum.IntEnum):
    """DNS classes.  ``NONE`` and ``ANY`` get special meaning in RFC 2136."""

    IN = 1
    CH = 3
    HS = 4
    NONE = 254
    ANY = 255

    @classmethod
    def from_text(cls, text: str) -> "RRClass":
        """Parse from presentation text."""
        try:
            return cls[text.upper()]
        except KeyError:
            raise ValueError(f"unknown RR class mnemonic: {text!r}") from None


class Opcode(enum.IntEnum):
    """Message opcodes.

    ``CACHE_UPDATE`` is DNScup's new opcode 6: the message an authoritative
    nameserver sends to DNS caches holding valid leases when a tracked
    resource record changes (paper §5.2).
    """

    QUERY = 0
    IQUERY = 1
    STATUS = 2
    NOTIFY = 4
    UPDATE = 5
    CACHE_UPDATE = 6


class Rcode(enum.IntEnum):
    """Response codes, including the RFC 2136 update-specific codes."""

    NOERROR = 0
    FORMERR = 1
    SERVFAIL = 2
    NXDOMAIN = 3
    NOTIMP = 4
    REFUSED = 5
    YXDOMAIN = 6
    YXRRSET = 7
    NXRRSET = 8
    NOTAUTH = 9
    NOTZONE = 10


#: Wire value -> member for the decoders: a dict probe costs a twentieth
#: of ``Enum.__call__``.  On a miss the caller falls through to the enum
#: call itself, so the error raised is the enum's own.
RRTYPE_BY_VALUE = {member.value: member for member in RRType}
RRCLASS_BY_VALUE = {member.value: member for member in RRClass}
OPCODE_BY_VALUE = {member.value: member for member in Opcode}
RCODE_BY_VALUE = {member.value: member for member in Rcode}

#: RFC 1035 §2.3.4 limit on UDP message payloads; the DNScup prototype
#: verifies all of its messages stay below this bound (paper §5.2).
MAX_UDP_PAYLOAD = 512

#: Maximum length of one label on the wire.
MAX_LABEL_LENGTH = 63

#: Maximum length of a full domain name on the wire, including the root.
MAX_NAME_WIRE_LENGTH = 255
