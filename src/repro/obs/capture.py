"""Wire capture: a pcap-like JSONL record of every simulated datagram.

Attached to a :class:`~repro.net.network.Network`, the capture records
one line per datagram *fate* — delivered, dropped, unreachable — plus
reliable-stream messages, each carrying the virtual timestamp, source
and destination endpoints, payload size, and the DNS header fields
(message ID, opcode, QR) sniffed straight from the first bytes of the
payload.  That is exactly what debugging a retransmission storm or a
flash-crowd run needs: ``repro-obs export`` turns the capture into a
spreadsheet, and duplicate/retransmit patterns are visible as repeated
message IDs.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, TextIO, Tuple, Union

from .trace import opened

#: DNS opcode number -> mnemonic, for readable captures.  6 is DNScup's
#: CACHE-UPDATE (PROTOCOL.md §4); 5 is RFC 2136 UPDATE; 4 is NOTIFY.
_OPCODE_NAMES = {0: "QUERY", 1: "IQUERY", 2: "STATUS", 4: "NOTIFY",
                 5: "UPDATE", 6: "CACHE-UPDATE"}

#: Datagram fates recorded by the capture.
FATE_DELIVERED = "delivered"
FATE_DROPPED = "dropped"
FATE_UNREACHABLE = "unreachable"


def sniff_header(payload: bytes) -> Tuple[Optional[int], str, Optional[bool]]:
    """(message id, opcode mnemonic, QR bit) from a DNS payload prefix.

    Tolerates truncated/garbage payloads — fields degrade to ``None`` /
    ``"?"`` rather than raising, since a capture must never break the
    traffic it observes.
    """
    if len(payload) < 2:
        return None, "?", None
    msg_id = int.from_bytes(payload[:2], "big")
    if len(payload) < 3:
        return msg_id, "?", None
    flags = payload[2]
    opcode = (flags >> 3) & 0xF
    return msg_id, _OPCODE_NAMES.get(opcode, str(opcode)), bool(flags & 0x80)


class WireCapture:
    """An in-memory capture buffer with JSONL export.

    Records are plain dicts with a fixed key order (``t``, ``proto``,
    ``src``, ``dst``, ``size``, ``id``, ``opcode``, ``qr``, ``fate``,
    then extras), so exports are byte-stable across identical runs.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        self.records: List[Dict[str, object]] = []
        self.capacity = capacity
        #: Records discarded once ``capacity`` was reached.
        self.dropped = 0

    def record(self, t: float, proto: str, src: object, dst: object,
               payload: bytes, fate: str, **extra: object) -> None:
        """Append one datagram-fate record."""
        if self.capacity is not None and len(self.records) >= self.capacity:
            self.dropped += 1
            return
        msg_id, opcode, qr = sniff_header(payload)
        entry: Dict[str, object] = {
            "t": t, "proto": proto,
            "src": f"{src[0]}:{src[1]}", "dst": f"{dst[0]}:{dst[1]}",
            "size": len(payload), "id": msg_id, "opcode": opcode,
            "qr": qr, "fate": fate,
        }
        for key in sorted(extra):
            entry[key] = extra[key]
        self.records.append(entry)

    def __len__(self) -> int:
        return len(self.records)

    def fates(self) -> Dict[str, int]:
        """Fate -> occurrences, sorted by fate name."""
        tally: Dict[str, int] = {}
        for entry in self.records:
            fate = str(entry["fate"])
            tally[fate] = tally.get(fate, 0) + 1
        return dict(sorted(tally.items()))

    def export_jsonl(self, target: Union[str, TextIO]) -> int:
        """Write the capture as JSON lines; returns lines written."""
        with opened(target, "w") as stream:
            for entry in self.records:
                stream.write(json.dumps(entry, separators=(",", ":")) + "\n")
        return len(self.records)


def load_capture(source: Union[str, TextIO]) -> List[Dict[str, object]]:
    """Read a capture JSONL back into record dicts."""
    with opened(source) as stream:
        return [json.loads(line) for line in stream if line.strip()]
