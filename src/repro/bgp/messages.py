"""BGP message types (RFC 4271).

``wire_size`` on every message is the length of its RFC 4271 encoding,
worked out analytically when the message is built: OPEN is always 45
bytes, KEEPALIVE 19, NOTIFICATION 21, and an UPDATE adds up its
withdrawn routes, path attributes and NLRI.  So a KEEPALIVE rides in an
85-byte L2 frame — the number in the paper's Fig. 9.  The real encoder
(:mod:`repro.bgp.encoding`) produces exactly that many bytes; the tests
hold the two to each other, and only captures and dissection encode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from repro.stack.addresses import Ipv4Address, Ipv4Network

BGP_PORT = 179
BGP_HEADER_BYTES = 19  # 16-byte marker + 2 length + 1 type

MSG_OPEN = 1
MSG_UPDATE = 2
MSG_NOTIFICATION = 3
MSG_KEEPALIVE = 4

ORIGIN_IGP = 0


def prefix_encoded_len(prefix: Ipv4Network) -> int:
    """NLRI encoding: 1 length byte + ceil(prefix_len/8) address bytes."""
    return 1 + (prefix.prefix_len + 7) // 8


# FRR's datacenter-profile OPEN: 10 fixed body bytes (version, 2-octet
# AS, hold time, router id, optional-parameter length) + one
# capabilities parameter of 16 bytes (MP IPv4/unicast, route refresh,
# 4-octet AS).
BGP_OPEN_BYTES = BGP_HEADER_BYTES + 10 + 16
BGP_KEEPALIVE_BYTES = BGP_HEADER_BYTES
BGP_NOTIFICATION_BYTES = BGP_HEADER_BYTES + 2  # error code + subcode
# the one-byte attribute length caps an AS_SEQUENCE of 4-octet ASNs
MAX_AS_PATH_LEN = (255 - 2) // 4


class BgpMessage:
    """Base class; concrete messages below.

    Each message stores its encoded length in ``_wire_size`` when it is
    built; ``wire_size`` stays a property on this class so a profiler
    can wrap one getter for every message type."""

    _wire_size: int

    @property
    def wire_size(self) -> int:
        return self._wire_size


@dataclass(frozen=True)
class BgpOpen(BgpMessage):
    asn: int
    hold_time_s: int
    router_id: Ipv4Address

    _wire_size: ClassVar[int] = BGP_OPEN_BYTES

    def __post_init__(self) -> None:
        if not 0 < self.asn < (1 << 32):
            raise ValueError(f"bad ASN {self.asn}")
        if not 0 <= self.hold_time_s <= 0xFFFF:
            raise ValueError(f"bad hold time {self.hold_time_s}")


@dataclass(frozen=True)
class PathAttributes:
    """The attribute set these experiments need: ORIGIN, AS_PATH (one
    AS_SEQUENCE segment of 4-octet ASNs), NEXT_HOP."""

    as_path: tuple[int, ...]
    next_hop: Ipv4Address
    origin: int = ORIGIN_IGP

    def prepend(self, asn: int, next_hop: Ipv4Address) -> "PathAttributes":
        return PathAttributes(
            as_path=(asn, *self.as_path), next_hop=next_hop, origin=self.origin
        )

    @property
    def encoded_len(self) -> int:
        """ORIGIN (3 + 1) + AS_PATH (3, plus a 2-byte segment header and
        4 bytes per ASN unless empty) + NEXT_HOP (3 + 4)."""
        n = len(self.as_path)
        if n > MAX_AS_PATH_LEN:
            raise ValueError(f"AS path of {n} ASNs exceeds one attribute")
        return 14 + (2 + 4 * n if n else 0)

    def contains_as(self, asn: int) -> bool:
        return asn in self.as_path

    def __str__(self) -> str:
        return f"path={list(self.as_path)} nh={self.next_hop}"


@dataclass(frozen=True)
class BgpUpdate(BgpMessage):
    withdrawn: tuple[Ipv4Network, ...] = ()
    nlri: tuple[Ipv4Network, ...] = ()
    attributes: PathAttributes | None = None
    _wire_size: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.nlri and self.attributes is None:
            raise ValueError("NLRI requires path attributes (RFC 4271 3.1)")
        if not self.nlri and not self.withdrawn \
                and self.attributes is not None:
            raise ValueError("path attributes without NLRI")
        # header + withdrawn-routes length (2) + attribute length (2)
        size = BGP_HEADER_BYTES + 4
        for prefix in self.withdrawn:
            size += prefix_encoded_len(prefix)
        for prefix in self.nlri:
            size += prefix_encoded_len(prefix)
        if self.attributes is not None:
            size += self.attributes.encoded_len
        object.__setattr__(self, "_wire_size", size)

    @property
    def is_end_of_rib(self) -> bool:
        """A fully empty UPDATE is the RFC 4724 End-of-RIB marker."""
        return not self.nlri and not self.withdrawn


@dataclass(frozen=True)
class BgpKeepalive(BgpMessage):
    _wire_size: ClassVar[int] = BGP_KEEPALIVE_BYTES


@dataclass(frozen=True)
class BgpNotification(BgpMessage):
    error_code: int
    error_subcode: int = 0

    _wire_size: ClassVar[int] = BGP_NOTIFICATION_BYTES

    # common codes
    HOLD_TIMER_EXPIRED = 4
    CEASE = 6
