"""Low-level wire-format encoding and decoding (RFC 1035 §4.1.4).

:class:`WireWriter` serializes integers, byte strings and domain names into
a growing buffer, applying standard DNS name compression: every name suffix
already emitted at an offset < 0x4000 is replaced by a two-byte pointer.
:class:`WireReader` is the inverse, following compression pointers with a
loop guard.

These two classes are the only place in the code base that touches raw
bytes; every higher layer (rdata, records, messages) builds on them.  The
DNScup prototype's claim that all of its messages fit in 512 bytes
(paper §5.2) is checked against the output of this module.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Optional, Tuple

from .name import Name, NameError_

#: Compression pointers are 14-bit offsets tagged with the top two bits set.
_POINTER_TAG = 0xC0
_MAX_POINTER_OFFSET = 0x3FFF

_PACK_U8 = struct.Struct("!B").pack
_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")
_PACK_U16 = _U16.pack
_PACK_U32 = _U32.pack

#: Most decoded names the process keeps (see :meth:`WireReader.read_name`).
#: A key is at most 254 octets, so a full table of hostile names holds a
#: few MB; the benchmark workloads keep a few hundred entries.
NAME_INTERN_CAP = 4096
_interned_names: Dict[bytes, Name] = {}


class WireFormatError(ValueError):
    """Raised on malformed wire data: truncation, bad pointers, overruns."""


class WireWriter:
    """Accumulates a DNS message body with name compression.

    The compression table maps case-folded name suffixes to the offset
    of their first occurrence, exactly as BIND does.  Compression
    can be disabled (``compress=False``) — RFC 3597 forbids compressing
    names inside the RDATA of unknown types, and tests use it to measure
    the savings compression buys.

    Output accumulates in one growing :class:`bytearray` (amortized O(1)
    appends, no per-write 1–2-byte ``bytes`` objects).  The encoded
    form of a name lives on the :class:`Name` itself
    (:meth:`Name.wire_form`), so it survives the writer.
    :meth:`reset` clears the message state while keeping the grown
    buffer storage, so one writer can encode a stream of messages.
    """

    def __init__(self, compress: bool = True):
        self._buffer = bytearray()
        self._compress = compress
        self._offsets: Dict[bytes, int] = {}

    # -- primitives --------------------------------------------------------

    def write_bytes(self, data: bytes) -> None:
        """Append raw bytes."""
        self._buffer += data

    def write_u8(self, value: int) -> None:
        """Append one unsigned byte."""
        self._buffer += _PACK_U8(value)

    def write_u16(self, value: int) -> None:
        """Append a 16-bit big-endian integer."""
        self._buffer += _PACK_U16(value)

    def write_u32(self, value: int) -> None:
        """Append a 32-bit big-endian integer."""
        self._buffer += _PACK_U32(value)

    def write_string(self, data: bytes) -> None:
        """A length-prefixed character string (max 255 octets)."""
        if len(data) > 255:
            raise WireFormatError("character-string longer than 255 octets")
        self.write_u8(len(data))
        self.write_bytes(data)

    # -- names -------------------------------------------------------------

    def write_name(self, name: Name) -> None:
        """Emit ``name``, compressing against previously written names."""
        buffer = self._buffer
        image, suffixes = name.wire_form()
        if self._compress:
            offsets = self._offsets
            base = len(buffer)
            for suffix, start in suffixes:
                target = offsets.get(suffix)
                if target is not None:
                    # Labels before the match, then the pointer.  On a
                    # repeated owner the match is the whole name.
                    buffer += image[:start]
                    buffer += _PACK_U16(_POINTER_TAG << 8 | target)
                    return
                if base + start <= _MAX_POINTER_OFFSET:
                    offsets[suffix] = base + start
        buffer += image
        buffer.append(0)

    def write_rdata(self, rdata: Any) -> None:
        """Emit RDLENGTH and ``rdata``'s bytes straight into the buffer.

        The length is back-patched once the rdata is rendered.  Names
        inside RDATA are written uncompressed and never become pointer
        targets, which keeps RDLENGTH independent of what the message
        already holds (and is what RFC 3597 requires for unknown types).
        """
        buffer = self._buffer
        buffer += b"\x00\x00"
        start = len(buffer)
        compress, self._compress = self._compress, False
        try:
            rdata.to_wire(self)
        finally:
            self._compress = compress
        _U16.pack_into(buffer, start - 2, len(buffer) - start)

    # -- output ------------------------------------------------------------

    def getvalue(self) -> bytes:
        """The accumulated buffer."""
        return bytes(self._buffer)

    def reset(self) -> None:
        """Start a fresh message, reusing the buffer storage."""
        self._buffer.clear()
        self._offsets.clear()

    def __len__(self) -> int:
        return len(self._buffer)


class WireReader:
    """Sequential reader over a full DNS message with pointer chasing."""

    def __init__(self, data: bytes, offset: int = 0):
        # Name images are dict keys, so the buffer must slice to bytes;
        # for a bytes argument this is the argument itself, not a copy.
        self._data = bytes(data)
        self._offset = offset

    @property
    def offset(self) -> int:
        """Current cursor position."""
        return self._offset

    @property
    def remaining(self) -> int:
        """Bytes left in the buffer after the cursor."""
        return len(self._data) - self._offset

    def seek(self, offset: int) -> None:
        """Move the cursor to an absolute offset."""
        if not 0 <= offset <= len(self._data):
            raise WireFormatError(f"seek out of range: {offset}")
        self._offset = offset

    # -- primitives --------------------------------------------------------

    def read_bytes(self, count: int) -> bytes:
        """Consume and return ``count`` bytes."""
        if count < 0 or self._offset + count > len(self._data):
            raise WireFormatError("truncated message")
        chunk = self._data[self._offset : self._offset + count]
        self._offset += count
        return chunk

    def unpack(self, layout: struct.Struct) -> Tuple[Any, ...]:
        """Consume one fixed ``layout`` (a header, an RR's fixed part) in
        a single call; a short buffer is a truncated message."""
        offset = self._offset
        try:
            fields = layout.unpack_from(self._data, offset)
        except struct.error:
            raise WireFormatError("truncated message") from None
        self._offset = offset + layout.size
        return fields

    def read_u8(self) -> int:
        """Consume one unsigned byte."""
        return self.read_bytes(1)[0]

    def read_u16(self) -> int:
        """Consume a 16-bit big-endian integer."""
        return self.unpack(_U16)[0]

    def read_u32(self) -> int:
        """Consume a 32-bit big-endian integer."""
        return self.unpack(_U32)[0]

    def read_string(self) -> bytes:
        """Consume one length-prefixed character string."""
        return self.read_bytes(self.read_u8())

    # -- names -------------------------------------------------------------

    def read_name(self) -> Name:
        """Decode a possibly-compressed name starting at the cursor.

        The walk checks every length octet and pointer but copies
        nothing per label: it collects the name's *uncompressed image*
        (the runs of length-prefixed labels between pointers), and that
        image — the exact spelling, case included — keys a process-wide
        table of validated names.  Validation is a pure function of the
        labels and :class:`Name` is immutable, so a hit is the object
        the constructor would have built.  Only names that validated
        are stored, and the table is emptied when it reaches
        :data:`NAME_INTERN_CAP`, so hostile input cannot grow it.
        """
        data = self._data
        size = len(data)
        cursor = start = self._offset
        resume: Optional[int] = None
        jumps = 0
        image = b""
        while True:
            if cursor >= size:
                raise WireFormatError("name runs past end of message")
            length = data[cursor]
            if length == 0:
                break
            if length < 0x40:
                cursor += 1 + length
                if cursor > size:
                    raise WireFormatError("label runs past end of message")
                continue
            if length < _POINTER_TAG:
                raise WireFormatError(f"bad label tag 0x{length:02x}")
            if cursor + 1 >= size:
                raise WireFormatError("truncated compression pointer")
            pointer = ((length & 0x3F) << 8) | data[cursor + 1]
            if resume is None:
                resume = cursor + 2
            if pointer >= cursor:
                raise WireFormatError("forward compression pointer")
            jumps += 1
            if jumps > 128:
                raise WireFormatError("compression pointer loop")
            image += data[start:cursor]
            cursor = start = pointer
        image += data[start:cursor]
        self._offset = cursor + 1 if resume is None else resume
        name = _interned_names.get(image)
        return name if name is not None else _intern_name(image)


def _intern_name(image: bytes) -> Name:
    """Validate, build and remember the name with this uncompressed image."""
    try:
        text = image.decode("ascii")
    except UnicodeDecodeError as exc:
        raise WireFormatError("non-ascii label") from exc
    labels: List[str] = []
    cursor = 0
    while cursor < len(image):
        end = cursor + 1 + image[cursor]
        labels.append(text[cursor + 1:end])
        cursor = end
    try:
        name = Name(labels)
    except NameError_ as exc:
        raise WireFormatError(str(exc)) from exc
    if len(_interned_names) >= NAME_INTERN_CAP:
        _interned_names.clear()
    _interned_names[image] = name
    return name
