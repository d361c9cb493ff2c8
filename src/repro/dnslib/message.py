"""DNS messages, including DNScup's wire extensions.

The layout follows RFC 1035 §4.1 — header, question, answer, authority,
additional — with the two fields the DNScup prototype adds (paper §5.2):

* **RRC** (recent reference counter): a 16-bit query-rate indicator the
  local nameserver appends to each question, telling the authoritative
  server how hot this record is locally so it can size the lease.
* **LLT** (lease length time): a 16-bit lease duration, in seconds,
  appended to the answer section of a response when a lease is granted.

Both fields are present only when the **CU** header bit is set (we use the
single reserved Z bit, 0x0040, as the "DNScup-aware" marker), which keeps
plain RFC 1035 messages byte-identical to standard DNS — the backward
compatibility the paper claims.  For UPDATE (RFC 2136) messages the four
sections are re-labelled zone / prerequisite / update / additional; the
aliases on :class:`Message` expose that vocabulary.
"""

from __future__ import annotations

import itertools
import struct
from typing import List, Optional, Tuple

from .enums import (MAX_UDP_PAYLOAD, OPCODE_BY_VALUE, RCODE_BY_VALUE,
                    RRCLASS_BY_VALUE, RRTYPE_BY_VALUE, Opcode, Rcode, RRClass,
                    RRType)
from .name import Name, as_name
from .records import ResourceRecord
from .wire import WireFormatError, WireReader, WireWriter

FLAG_QR = 0x8000
FLAG_AA = 0x0400
FLAG_TC = 0x0200
FLAG_RD = 0x0100
FLAG_RA = 0x0080
#: DNScup-aware marker: repurposes the reserved Z bit.  When set, each
#: question carries an RRC field and each response carries an LLT field.
FLAG_CU = 0x0040

_OPCODE_SHIFT = 11
_OPCODE_MASK = 0xF

#: RRC and LLT are 16-bit, so both saturate at this value.  A lease longer
#: than ~18.2 hours must be renewed in installments (paper's maxima for CDN
#: and Dyn domains, 200 s and 6000 s, fit directly).
MAX_U16 = 0xFFFF

_id_counter = itertools.count(1)

#: Fixed layouts, each read or written in one call: the 12-octet header
#: (RFC 1035 §4.1.1), a question's TYPE/CLASS with and without DNScup's
#: RRC, and the whole EDNS0 OPT pseudo-record DNScup sends (root owner,
#: TYPE 41, CLASS = payload size, zero TTL field, empty RDATA).
_HEADER = struct.Struct("!6H")
_QUESTION_TAIL = struct.Struct("!HH")
_QUESTION_TAIL_RRC = struct.Struct("!HHH")
_OPT_TAIL = struct.Struct("!HIH")
_PACK_OPT = struct.Struct("!BHHIH").pack


def next_message_id() -> int:
    """A process-wide deterministic ID sequence (wraps at 16 bits)."""
    return next(_id_counter) & MAX_U16


class Question:
    """One question-section entry, optionally carrying DNScup's RRC."""

    __slots__ = ("name", "rrtype", "rrclass", "rrc")

    def __init__(self, name, rrtype: RRType, rrclass: RRClass = RRClass.IN,
                 rrc: Optional[int] = None):
        self.name: Name = name if type(name) is Name else as_name(name)
        self.rrtype = rrtype if type(rrtype) is RRType else RRType(rrtype)
        self.rrclass = (rrclass if type(rrclass) is RRClass
                        else RRClass(rrclass))
        if rrc is not None and not 0 <= rrc <= MAX_U16:
            raise ValueError(f"RRC out of 16-bit range: {rrc}")
        self.rrc = rrc

    def to_wire(self, writer: WireWriter, cu: bool) -> None:
        """Serialize onto ``writer`` in RFC 1035 wire format."""
        writer.write_name(self.name)
        if cu:
            writer.write_bytes(_QUESTION_TAIL_RRC.pack(
                self.rrtype, self.rrclass,
                self.rrc if self.rrc is not None else 0))
        else:
            writer.write_bytes(_QUESTION_TAIL.pack(self.rrtype, self.rrclass))

    @classmethod
    def from_wire(cls, reader: WireReader, cu: bool) -> "Question":
        """Decode one instance from the reader's cursor."""
        name = reader.read_name()
        if cu:
            rrtype, rrclass, rrc = reader.unpack(_QUESTION_TAIL_RRC)
        else:
            rrtype, rrclass = reader.unpack(_QUESTION_TAIL)
            rrc = None
        return cls(name, RRTYPE_BY_VALUE.get(rrtype) or RRType(rrtype),
                   RRCLASS_BY_VALUE.get(rrclass) or RRClass(rrclass), rrc)

    def key(self) -> Tuple[Name, RRType, RRClass]:
        """The lookup key for this object."""
        return (self.name, self.rrtype, self.rrclass)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Question):
            return self.key() == other.key() and self.rrc == other.rrc
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.key(), self.rrc))

    def __repr__(self) -> str:
        rrc = f", rrc={self.rrc}" if self.rrc is not None else ""
        return f"Question({self.name.to_text()!r}, {self.rrtype.name}{rrc})"


class Message:
    """A full DNS message.

    Use the factory helpers (:func:`make_query`, :func:`make_response`,
    :func:`make_update`, :func:`make_cache_update`) rather than driving the
    constructor directly; they set the flag combinations each opcode needs.
    """

    __slots__ = ("id", "flags", "rcode_value", "question", "answer",
                 "authority", "additional", "llt", "edns_payload_size")

    def __init__(self, msg_id: Optional[int] = None, flags: int = 0,
                 rcode: Rcode = Rcode.NOERROR):
        self.id = next_message_id() if msg_id is None else msg_id
        self.flags = flags
        self.rcode_value = rcode if type(rcode) is Rcode else Rcode(rcode)
        self.question: List[Question] = []
        self.answer: List[ResourceRecord] = []
        self.authority: List[ResourceRecord] = []
        self.additional: List[ResourceRecord] = []
        #: Lease length granted, seconds; present on CU responses only.
        self.llt: Optional[int] = None
        #: EDNS0 (RFC 6891): advertised UDP payload size.  None = no OPT
        #: record; the peer must assume the classic 512-byte limit.
        self.edns_payload_size: Optional[int] = None

    # -- flag accessors ------------------------------------------------------

    @property
    def opcode(self) -> Opcode:
        """The message opcode from the header flags."""
        value = (self.flags >> _OPCODE_SHIFT) & _OPCODE_MASK
        opcode = OPCODE_BY_VALUE.get(value)
        return opcode if opcode is not None else Opcode(value)

    @opcode.setter
    def opcode(self, value: Opcode) -> None:
        """The message opcode from the header flags."""
        self.flags = (self.flags & ~(_OPCODE_MASK << _OPCODE_SHIFT)) | \
            ((int(value) & _OPCODE_MASK) << _OPCODE_SHIFT)

    @property
    def rcode(self) -> Rcode:
        """The response code."""
        return self.rcode_value

    @rcode.setter
    def rcode(self, value: Rcode) -> None:
        """The response code."""
        self.rcode_value = Rcode(value)

    def _flag(self, bit: int) -> bool:
        return bool(self.flags & bit)

    def _set_flag(self, bit: int, on: bool) -> None:
        self.flags = (self.flags | bit) if on else (self.flags & ~bit)

    is_response = property(lambda self: self._flag(FLAG_QR),
                           lambda self, v: self._set_flag(FLAG_QR, v))
    authoritative = property(lambda self: self._flag(FLAG_AA),
                             lambda self, v: self._set_flag(FLAG_AA, v))
    truncated = property(lambda self: self._flag(FLAG_TC),
                         lambda self, v: self._set_flag(FLAG_TC, v))
    recursion_desired = property(lambda self: self._flag(FLAG_RD),
                                 lambda self, v: self._set_flag(FLAG_RD, v))
    recursion_available = property(lambda self: self._flag(FLAG_RA),
                                   lambda self, v: self._set_flag(FLAG_RA, v))
    cache_update_aware = property(lambda self: self._flag(FLAG_CU),
                                  lambda self, v: self._set_flag(FLAG_CU, v))

    # -- RFC 2136 section aliases ---------------------------------------------

    @property
    def zone(self) -> List[Question]:
        """UPDATE vocabulary: the zone section is the question section."""
        return self.question

    @property
    def prerequisite(self) -> List[ResourceRecord]:
        """RFC 2136 vocabulary: the prerequisite section (answer)."""
        return self.answer

    @property
    def update(self) -> List[ResourceRecord]:
        """RFC 2136 vocabulary: the update section (authority)."""
        return self.authority

    # -- wire ------------------------------------------------------------------

    def to_wire(self) -> bytes:
        """Serialize onto ``writer`` in RFC 1035 wire format."""
        writer = WireWriter()
        flags = self.flags
        edns = self.edns_payload_size
        writer.write_bytes(_HEADER.pack(
            self.id, flags & 0xFFF0 | (int(self.rcode_value) & 0xF),
            len(self.question), len(self.answer), len(self.authority),
            len(self.additional) + (edns is not None)))
        cu = bool(flags & FLAG_CU)
        for question in self.question:
            question.to_wire(writer, cu)
        for record in self.answer:
            record.to_wire(writer)
        if cu and flags & FLAG_QR:
            writer.write_u16(self.llt if self.llt is not None else 0)
        for record in self.authority:
            record.to_wire(writer)
        for record in self.additional:
            record.to_wire(writer)
        if edns is not None:
            writer.write_bytes(_PACK_OPT(0, RRType.OPT, edns, 0, 0))
        return writer.getvalue()

    @classmethod
    def from_wire(cls, data: bytes) -> "Message":
        """Decode one instance from the reader's cursor."""
        reader = WireReader(data)
        msg_id, raw_flags, questions, answers, authorities, additionals = \
            reader.unpack(_HEADER)
        rcode = RCODE_BY_VALUE.get(raw_flags & 0xF)
        if rcode is None:
            rcode = Rcode(raw_flags & 0xF)
        message = cls(msg_id, raw_flags & 0xFFF0, rcode)
        cu = bool(raw_flags & FLAG_CU)
        for _ in range(questions):
            message.question.append(Question.from_wire(reader, cu))
        for _ in range(answers):
            message.answer.append(ResourceRecord.from_wire(reader))
        if cu and raw_flags & FLAG_QR:
            message.llt = reader.read_u16() or None
        for _ in range(authorities):
            message.authority.append(ResourceRecord.from_wire(reader))
        for _ in range(additionals):
            # Peek for an EDNS0 OPT pseudo-record: its CLASS field holds
            # a payload size, not a real class, so it cannot go through
            # ResourceRecord.from_wire.
            mark = reader.offset
            reader.read_name()
            if reader.read_u16() == RRType.OPT:
                # CLASS = payload size; ext-rcode/flags and RDATA ignored.
                message.edns_payload_size, _, rdlength = \
                    reader.unpack(_OPT_TAIL)
                reader.read_bytes(rdlength)
                continue
            reader.seek(mark)
            message.additional.append(ResourceRecord.from_wire(reader))
        if reader.remaining:
            raise WireFormatError(f"{reader.remaining} trailing bytes after message")
        return message

    def wire_size(self) -> int:
        """Encoded size in bytes — compared against the 512-byte UDP bound."""
        return len(self.to_wire())

    def fits_in_udp(self) -> bool:
        """True when the encoding fits the 512-byte UDP bound."""
        return self.wire_size() <= MAX_UDP_PAYLOAD

    def __repr__(self) -> str:
        kind = "response" if self.is_response else "query"
        return (f"Message(id={self.id}, {self.opcode.name} {kind}, "
                f"rcode={self.rcode_value.name}, q={len(self.question)}, "
                f"an={len(self.answer)}, au={len(self.authority)}, "
                f"ad={len(self.additional)})")


class WireTemplate:
    """A message encoded once, re-addressed per recipient.

    Fan-out paths (CACHE-UPDATE notifications, DNS-Push pushes) send the
    *same* message body to many peers, differing only in the 16-bit
    message ID each peer will echo in its acknowledgement.  Encoding the
    message per recipient re-runs name compression and section
    serialization N times for identical bytes; this template encodes the
    wire image once into a :class:`bytearray` and :meth:`with_id` merely
    patches the ID field (the first two octets, RFC 1035 §4.1.1) in
    place before snapshotting the datagram.
    """

    __slots__ = ("_buffer",)

    def __init__(self, message: "Message"):
        self._buffer = bytearray(message.to_wire())

    def with_id(self, msg_id: int) -> bytes:
        """The wire image re-addressed to carry ``msg_id``."""
        struct.pack_into("!H", self._buffer, 0, msg_id & MAX_U16)
        return bytes(self._buffer)

    def __len__(self) -> int:
        return len(self._buffer)


# -- factories ----------------------------------------------------------------


def make_query(name, rrtype: RRType, recursion_desired: bool = True,
               rrc: Optional[int] = None) -> Message:
    """A standard QUERY.  Passing ``rrc`` marks the query DNScup-aware."""
    message = Message()
    message.opcode = Opcode.QUERY
    message.recursion_desired = recursion_desired
    if rrc is not None:
        message.cache_update_aware = True
    message.question.append(Question(name, rrtype, rrc=rrc))
    return message


def make_response(query: Message, rcode: Rcode = Rcode.NOERROR,
                  llt: Optional[int] = None) -> Message:
    """A response mirroring ``query``'s ID, opcode, question and CU bit."""
    message = Message(query.id, 0, rcode)
    message.opcode = query.opcode
    message.is_response = True
    message.recursion_desired = query.recursion_desired
    message.cache_update_aware = query.cache_update_aware
    message.question.extend(query.question)
    if llt is not None:
        if not query.cache_update_aware:
            raise ValueError("cannot grant a lease to a non-DNScup query")
        if not 0 <= llt <= MAX_U16:
            raise ValueError(f"LLT out of 16-bit range: {llt}")
        message.llt = llt
    return message


def make_update(zone_name) -> Message:
    """An RFC 2136 UPDATE skeleton for ``zone_name``."""
    message = Message()
    message.opcode = Opcode.UPDATE
    message.question.append(Question(zone_name, RRType.SOA))
    return message


def make_notify(zone_name) -> Message:
    """An RFC 1996 NOTIFY for ``zone_name``."""
    message = Message()
    message.opcode = Opcode.NOTIFY
    message.authoritative = True
    message.question.append(Question(zone_name, RRType.SOA))
    return message


def make_cache_update(name, records: List[ResourceRecord]) -> Message:
    """DNScup's CACHE-UPDATE (opcode 6): push fresh records to a cache.

    The answer section carries the new RRset for ``name``; receivers
    overwrite their cached copy and acknowledge (paper §4, steps 3-4).
    """
    message = Message()
    message.opcode = Opcode.CACHE_UPDATE
    message.authoritative = True
    message.cache_update_aware = True
    rrtype = records[0].rrtype if records else RRType.A
    message.question.append(Question(name, rrtype))
    message.answer.extend(records)
    return message


def truncate_response(response: Message) -> Message:
    """The TC-flagged stub of a response too large for UDP.

    RFC 1035 §4.2.1: keep the header and question, drop the data
    sections, set TC; the client retries over the stream path.
    """
    truncated = Message(response.id, response.flags, response.rcode)
    truncated.question.extend(response.question)
    truncated.truncated = True
    return truncated


def make_cache_update_ack(update: Message) -> Message:
    """The acknowledgement a cache returns for a CACHE-UPDATE."""
    ack = Message(update.id, 0, Rcode.NOERROR)
    ack.opcode = Opcode.CACHE_UPDATE
    ack.is_response = True
    ack.cache_update_aware = True
    ack.question.extend(update.question)
    return ack
