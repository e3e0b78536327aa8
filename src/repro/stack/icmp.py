"""ICMP messages (echo, destination-unreachable, time-exceeded)."""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

ICMP_HEADER_BYTES = 8


class IcmpType(IntEnum):
    ECHO_REPLY = 0
    DEST_UNREACHABLE = 3
    ECHO_REQUEST = 8
    TIME_EXCEEDED = 11


@dataclass(frozen=True)
class IcmpMessage:
    icmp_type: IcmpType
    identifier: int = 0
    sequence: int = 0
    # error messages quote the offending packet's header bytes
    quoted_bytes: int = 0
    data_bytes: int = 0

    def __post_init__(self) -> None:
        for value in (self.identifier, self.sequence):
            if not 0 <= value <= 0xFFFF:
                raise ValueError(f"16-bit field out of range: {value}")
        if self.quoted_bytes < 0 or self.data_bytes < 0:
            raise ValueError("negative length")

    @property
    def wire_size(self) -> int:
        return ICMP_HEADER_BYTES + self.quoted_bytes + self.data_bytes

    @property
    def is_error(self) -> bool:
        return self.icmp_type in (IcmpType.DEST_UNREACHABLE,
                                  IcmpType.TIME_EXCEEDED)

    def __str__(self) -> str:
        if self.icmp_type in (IcmpType.ECHO_REQUEST, IcmpType.ECHO_REPLY):
            return (f"ICMP[{self.icmp_type.name} id={self.identifier} "
                    f"seq={self.sequence}]")
        return f"ICMP[{self.icmp_type.name}]"
