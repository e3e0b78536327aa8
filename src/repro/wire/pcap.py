"""Classic pcap (libpcap) file writing.

``write_capture(capture, path)`` turns a simulated :class:`Capture` into
a file Wireshark/tshark opens directly — the closing step of the paper's
methodology ("the files from the remote nodes were downloaded and
parsed").  Timestamps are the simulation clock (microsecond resolution,
which is exactly pcap's native tick).
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import BinaryIO, Optional, Union

from repro.net.capture import Capture, CaptureRecord, Direction
from repro.wire.codec import encode_frame

PCAP_MAGIC = 0xA1B2C3D4          # microsecond-timestamp pcap
PCAP_VERSION = (2, 4)
LINKTYPE_ETHERNET = 1
DEFAULT_SNAPLEN = 65535


class PcapWriter:
    """Streams records into a classic pcap file."""

    def __init__(self, stream: BinaryIO, snaplen: int = DEFAULT_SNAPLEN) -> None:
        self.stream = stream
        self.snaplen = snaplen
        self.records_written = 0
        self._write_global_header()

    def _write_global_header(self) -> None:
        self.stream.write(struct.pack(
            "!IHHiIII",
            PCAP_MAGIC, PCAP_VERSION[0], PCAP_VERSION[1],
            0,              # timezone offset
            0,              # sigfigs
            self.snaplen,
            LINKTYPE_ETHERNET,
        ))

    def write(self, timestamp_us: int, frame_bytes: bytes) -> None:
        captured = frame_bytes[: self.snaplen]
        self.stream.write(struct.pack(
            "!IIII",
            timestamp_us // 1_000_000, timestamp_us % 1_000_000,
            len(captured), len(frame_bytes),
        ))
        self.stream.write(captured)
        self.records_written += 1

    def write_record(self, record: CaptureRecord) -> None:
        self.write(record.time, encode_frame(record.frame))


def write_capture(
    capture: Capture,
    path: Union[str, Path],
    direction: Optional[Direction] = Direction.TX,
    since: Optional[int] = None,
    until: Optional[int] = None,
) -> int:
    """Write a capture window to ``path``; returns the record count.

    ``direction=TX`` (default) avoids duplicating frames seen at both
    ends of a tapped link; pass ``None`` to keep both directions.
    """
    path = Path(path)
    count = 0
    with path.open("wb") as stream:
        writer = PcapWriter(stream)
        for record in capture.select(since=since, until=until,
                                     direction=direction):
            writer.write_record(record)
            count += 1
    return count


# ----------------------------------------------------------------------
# reading back (for tests and sanity checks)
# ----------------------------------------------------------------------
def read_pcap(path: Union[str, Path]) -> list[tuple[int, bytes]]:
    """Parse a classic pcap file -> [(timestamp_us, frame_bytes), ...]."""
    blob = Path(path).read_bytes()
    magic, major, minor, _tz, _sig, _snaplen, linktype = struct.unpack(
        "!IHHiIII", blob[:24])
    if magic != PCAP_MAGIC:
        raise ValueError(f"not a (big-endian microsecond) pcap: {magic:#x}")
    if linktype != LINKTYPE_ETHERNET:
        raise ValueError(f"unexpected linktype {linktype}")
    records = []
    offset = 24
    while offset < len(blob):
        sec, usec, incl, orig = struct.unpack("!IIII", blob[offset:offset + 16])
        offset += 16
        records.append((sec * 1_000_000 + usec, blob[offset:offset + incl]))
        offset += incl
    return records
