"""TCP segments.

The 32-byte header matches what a Linux/FRR BGP session puts on the wire
(20-byte base header + 12 bytes of timestamp options on every established-
state segment) — this is what makes the paper's 85-byte BGP keepalive
arithmetic work: 14 (Eth) + 20 (IP) + 32 (TCP) + 19 (BGP) = 85.
SYN segments carry more options (MSS, window scale, SACK-permitted,
timestamps) and are sized separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Flag, auto

from repro.stack.payload import Payload, RawBytes

TCP_HEADER_BYTES = 32        # base 20 + timestamp option 12 (padded)
TCP_SYN_HEADER_BYTES = 40    # base 20 + MSS/WS/SACK/TS options


class TcpFlags(Flag):
    NONE = 0
    SYN = auto()
    ACK = auto()
    FIN = auto()
    RST = auto()
    PSH = auto()


@dataclass(frozen=True)
class TcpSegment:
    src_port: int
    dst_port: int
    seq: int
    ack: int
    flags: TcpFlags
    payload: Payload = RawBytes(0)
    window: int = 65535
    # sized once at construction (payloads are immutable)
    data_len: int = field(init=False, compare=False, repr=False)
    seq_space: int = field(init=False, compare=False, repr=False)
    wire_size: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        for port in (self.src_port, self.dst_port):
            if not 0 <= port <= 0xFFFF:
                raise ValueError(f"bad TCP port {port}")
        if self.seq < 0 or self.ack < 0:
            raise ValueError("negative sequence numbers")
        flags = self.flags
        syn = TcpFlags.SYN in flags
        data_len = self.payload.wire_size
        header = TCP_SYN_HEADER_BYTES if syn else TCP_HEADER_BYTES
        object.__setattr__(self, "data_len", data_len)
        # SYN and FIN each consume one sequence number
        object.__setattr__(self, "seq_space",
                           data_len + syn + (TcpFlags.FIN in flags))
        object.__setattr__(self, "wire_size", header + data_len)

    @property
    def header_size(self) -> int:
        return self.wire_size - self.data_len

    def __str__(self) -> str:
        names = [f.name for f in TcpFlags if f is not TcpFlags.NONE and f in self.flags]
        return (
            f"TCP[{self.src_port} -> {self.dst_port} "
            f"{'|'.join(names) or '-'} seq={self.seq} ack={self.ack} "
            f"len={self.data_len}]"
        )
