"""Frame dissection — the Wireshark-view substitute.

The paper presents captures (Figs. 9 and 10) to show what each
protocol's liveness traffic looks like on the wire.  ``dissect(frame)``
renders any simulated frame as the same kind of layered breakdown, and
``dissect_capture`` renders a capture window the way the paper shows
interleaved BFD/BGP traffic.
"""

from __future__ import annotations

from typing import Iterable

from repro.stack.arp import ArpMessage
from repro.stack.ethernet import (
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    ETHERTYPE_MTP,
    EthernetFrame,
)
from repro.stack.icmp import IcmpMessage
from repro.stack.ipv4 import Ipv4Packet
from repro.stack.tcp_segment import TcpFlags, TcpSegment
from repro.stack.udp import UdpDatagram
from repro.bfd.messages import BfdControlPacket
from repro.bgp.messages import (
    BgpKeepalive,
    BgpMessage,
    BgpNotification,
    BgpOpen,
    BgpUpdate,
)
from repro.core.messages import (
    MtpAccept,
    MtpAdvertise,
    MtpData,
    MtpFullHello,
    MtpJoin,
    MtpKeepalive,
    MtpMessage,
    MtpOffer,
    MtpRestored,
    MtpRestoredDefault,
    MtpUnreachable,
    MtpUnreachableDefault,
    MtpUpdateLost,
)
from repro.net.capture import CaptureRecord

_ETHERTYPE_NAMES = {
    ETHERTYPE_IPV4: "IPv4",
    ETHERTYPE_ARP: "ARP",
    ETHERTYPE_MTP: "Unknown (0x8850)",  # as Wireshark shows it (Fig. 10)
}


def dissect(frame: EthernetFrame) -> str:
    """Multi-line, Wireshark-style rendering of one frame."""
    lines = [
        f"Ethernet II, Src: {frame.src}, Dst: {frame.dst}"
        + ("  (Broadcast)" if frame.dst.is_broadcast else ""),
        f"    Type: {_ETHERTYPE_NAMES.get(frame.ethertype, hex(frame.ethertype))}",
        f"    Frame length: {frame.wire_size} bytes"
        f" (on wire: {frame.padded_wire_size})",
    ]
    payload = frame.payload
    if frame.ethertype == ETHERTYPE_MTP:
        lines += _dissect_mtp(payload)
    elif isinstance(payload, Ipv4Packet):
        lines += _dissect_ipv4(payload)
    elif isinstance(payload, ArpMessage):
        lines.append(f"{payload}")
    return "\n".join(lines)


def _dissect_ipv4(packet: Ipv4Packet) -> list[str]:
    lines = [
        f"Internet Protocol Version 4, Src: {packet.src}, Dst: {packet.dst}",
        f"    TTL: {packet.ttl}, Protocol: {packet.proto},"
        f" Total Length: {packet.wire_size}",
    ]
    body = packet.payload
    if isinstance(body, UdpDatagram):
        lines.append(
            f"User Datagram Protocol, Src Port: {body.src_port},"
            f" Dst Port: {body.dst_port}"
        )
        if isinstance(body.payload, BfdControlPacket):
            lines += _dissect_bfd(body.payload)
    elif isinstance(body, IcmpMessage):
        lines.append(f"Internet Control Message Protocol: {body}")
    elif isinstance(body, TcpSegment):
        flags = "|".join(
            f.name for f in TcpFlags if f is not TcpFlags.NONE and f in body.flags
        )
        lines.append(
            f"Transmission Control Protocol, Src Port: {body.src_port},"
            f" Dst Port: {body.dst_port}, Seq: {body.seq}, Ack: {body.ack},"
            f" Flags: [{flags or '-'}]"
        )
        if isinstance(body.payload, BgpMessage):
            lines += _dissect_bgp(body.payload)
    return lines


def _dissect_bfd(packet: BfdControlPacket) -> list[str]:
    return [
        "BFD Control message",
        f"    Version: 1, Diagnostic: No Diagnostic",
        f"    State: {packet.state.name}",
        f"    Detect Time Multiplier: {packet.detect_mult}",
        f"    My Discriminator: 0x{packet.my_discriminator:08x}",
        f"    Your Discriminator: 0x{packet.your_discriminator:08x}",
        f"    Desired Min TX Interval: {packet.desired_min_tx_us} us",
        f"    Required Min RX Interval: {packet.required_min_rx_us} us",
    ]


def _dissect_bgp(message: BgpMessage) -> list[str]:
    if isinstance(message, BgpKeepalive):
        return ["Border Gateway Protocol - KEEPALIVE Message",
                f"    Length: {message.wire_size}"]
    if isinstance(message, BgpOpen):
        return [
            "Border Gateway Protocol - OPEN Message",
            f"    Version: 4, My AS: {message.asn},"
            f" Hold Time: {message.hold_time_s},"
            f" BGP Identifier: {message.router_id}",
        ]
    if isinstance(message, BgpUpdate):
        lines = ["Border Gateway Protocol - UPDATE Message",
                 f"    Length: {message.wire_size}"]
        for prefix in message.withdrawn:
            lines.append(f"    Withdrawn route: {prefix}")
        if message.attributes is not None:
            attrs = message.attributes
            lines.append(
                f"    Path attributes: ORIGIN IGP,"
                f" AS_PATH {list(attrs.as_path)}, NEXT_HOP {attrs.next_hop}"
            )
        for prefix in message.nlri:
            lines.append(f"    NLRI: {prefix}")
        return lines
    if isinstance(message, BgpNotification):
        return ["Border Gateway Protocol - NOTIFICATION Message",
                f"    Error: {message.error_code}/{message.error_subcode}"]
    return [f"Border Gateway Protocol - {type(message).__name__}"]


_MTP_NAMES = {
    MtpKeepalive: "Keep-Alive",
    MtpFullHello: "Hello",
    MtpAdvertise: "Advertise",
    MtpJoin: "Join Request",
    MtpOffer: "VID Offer",
    MtpAccept: "Accept",
    MtpUpdateLost: "Update (VIDs lost)",
    MtpUnreachable: "Update (roots unreachable)",
    MtpRestored: "Update (roots restored)",
    MtpUnreachableDefault: "Update (default path lost)",
    MtpRestoredDefault: "Update (default path restored)",
    MtpData: "Encapsulated IP",
}


def _dissect_mtp(message) -> list[str]:
    if isinstance(message, MtpKeepalive):
        # the paper's Fig. 10: wireshark shows raw data for the unknown
        # ethertype — a single byte 0x06
        return ["Data (1 byte)", "    Data: 06", "    [Length: 1]"]
    if not isinstance(message, MtpMessage):
        return [f"Data ({getattr(message, 'wire_size', '?')} bytes)"]
    name = _MTP_NAMES.get(type(message), type(message).__name__)
    lines = [f"MR-MTP {name} (type 0x{message.type_code:02x})"]
    if isinstance(message, MtpFullHello):
        lines.append(f"    Tier: {message.tier}")
    if hasattr(message, "vids"):
        lines.append("    VIDs: " + ", ".join(str(v) for v in message.vids))
    if hasattr(message, "roots"):
        lines.append("    Roots: " + ", ".join(str(r) for r in message.roots))
    if hasattr(message, "except_roots"):
        lines.append("    Except roots: "
                     + (", ".join(str(r) for r in message.except_roots)
                        or "(none)"))
    if isinstance(message, MtpData):
        lines.append(f"    Source ToR VID: {message.src_root},"
                     f" Destination ToR VID: {message.dst_root}")
        lines += ["    " + line for line in _dissect_ipv4(message.packet)]
    return lines


def dissect_capture(records: Iterable[CaptureRecord], limit: int = 20) -> str:
    """Render a capture window: one numbered frame summary per packet,
    like the paper's Fig. 9 list view."""
    out = []
    for i, rec in enumerate(records):
        if i >= limit:
            out.append(f"... ({i}+ frames)")
            break
        # summary = the innermost protocol header line
        lines = dissect(rec.frame).splitlines()
        protocol_lines = [l for l in lines if l and not l.startswith("    ")]
        summary = protocol_lines[-1] if protocol_lines else lines[0]
        out.append(
            f"{i + 1:>4d} {rec.time / 1e6:>12.6f}s {rec.node}:{rec.interface}"
            f" [{rec.direction.value}] len={rec.wire_size:<5d} {summary}"
        )
    return "\n".join(out)
