"""Analytic sizes against the encoders.

Every message and frame stores its size when it is built, without
encoding; the byte encoders are the oracle these properties hold that
size to.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.bfd.messages import BFD_PORT, BfdControlPacket, BfdState
from repro.bgp.encoding import encode_message
from repro.bgp.messages import (
    BGP_PORT,
    MAX_AS_PATH_LEN,
    BgpKeepalive,
    BgpNotification,
    BgpOpen,
    BgpUpdate,
    PathAttributes,
)
from repro.core.messages import (
    MtpAdvertise,
    MtpData,
    MtpFullHello,
    MtpKeepalive,
    MtpUnreachable,
    MtpUnreachableDefault,
)
from repro.core.vid import Vid
from repro.stack.addresses import (
    Ipv4Address,
    Ipv4Network,
    MacAddress,
    prefix_mask,
)
from repro.stack.arp import ArpMessage, ArpOp
from repro.stack.ethernet import (
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    ETHERTYPE_MTP,
    EthernetFrame,
)
from repro.stack.icmp import IcmpMessage, IcmpType
from repro.stack.ipv4 import PROTO_ICMP, PROTO_TCP, PROTO_UDP, Ipv4Packet
from repro.stack.payload import RawBytes
from repro.stack.tcp_segment import TcpFlags, TcpSegment
from repro.stack.udp import UdpDatagram
from repro.wire.codec import encode_frame

u32 = st.integers(min_value=0, max_value=2**32 - 1)
u16 = st.integers(min_value=0, max_value=0xFFFF)
addresses = st.builds(Ipv4Address, u32)
macs = st.builds(MacAddress, st.integers(min_value=0, max_value=2**48 - 1))


@st.composite
def prefixes(draw):
    length = draw(st.integers(min_value=0, max_value=32))
    return Ipv4Network(Ipv4Address(draw(u32) & prefix_mask(length)), length)


attributes = st.builds(
    PathAttributes,
    as_path=st.lists(st.integers(min_value=1, max_value=2**32 - 1),
                     max_size=MAX_AS_PATH_LEN).map(tuple),
    next_hop=addresses,
    origin=st.integers(min_value=0, max_value=2),
)
nonempty_prefixes = st.lists(prefixes(), min_size=1, max_size=12).map(tuple)

withdraw_only = st.builds(BgpUpdate, withdrawn=nonempty_prefixes)
announce_only = st.builds(BgpUpdate, nlri=nonempty_prefixes,
                          attributes=attributes)
mixed = st.builds(BgpUpdate, withdrawn=nonempty_prefixes,
                  nlri=nonempty_prefixes, attributes=attributes)
end_of_rib = st.just(BgpUpdate())
opens = st.builds(BgpOpen, asn=st.integers(min_value=1, max_value=2**32 - 1),
                  hold_time_s=u16, router_id=addresses)
notifications = st.builds(BgpNotification,
                          error_code=st.integers(min_value=0, max_value=255),
                          error_subcode=st.integers(min_value=0, max_value=255))
bgp_messages = st.one_of(opens, withdraw_only, announce_only, mixed,
                         end_of_rib, st.just(BgpKeepalive()), notifications)


@given(bgp_messages)
def test_bgp_size_is_encoded_length(message):
    assert message.wire_size == len(encode_message(message))


def test_as_path_longer_than_one_attribute_is_rejected():
    attrs = PathAttributes(as_path=tuple(range(1, MAX_AS_PATH_LEN + 2)),
                           next_hop=Ipv4Address(1))
    with pytest.raises(ValueError, match="AS path"):
        BgpUpdate(nlri=(Ipv4Network.parse("10.0.0.0/24"),), attributes=attrs)


# ----------------------------------------------------------------------
# frames
# ----------------------------------------------------------------------
flag_sets = st.sampled_from([
    TcpFlags.SYN, TcpFlags.SYN | TcpFlags.ACK, TcpFlags.ACK,
    TcpFlags.ACK | TcpFlags.PSH, TcpFlags.FIN | TcpFlags.ACK,
    TcpFlags.RST | TcpFlags.ACK, TcpFlags.SYN | TcpFlags.FIN,
])
tcp_payloads = st.one_of(
    bgp_messages, st.builds(RawBytes, st.integers(min_value=0, max_value=1460)))
tcp_segments = st.builds(TcpSegment, src_port=u16, dst_port=st.just(BGP_PORT),
                         seq=u32, ack=u32, flags=flag_sets,
                         payload=tcp_payloads)
bfd_packets = st.builds(
    BfdControlPacket, state=st.sampled_from(BfdState),
    detect_mult=st.integers(min_value=1, max_value=255),
    my_discriminator=st.integers(min_value=1, max_value=2**32 - 1),
    your_discriminator=u32, desired_min_tx_us=u32, required_min_rx_us=u32)
udp_datagrams = st.builds(UdpDatagram, src_port=u16, dst_port=st.just(BFD_PORT),
                          payload=bfd_packets)
icmp_messages = st.builds(
    IcmpMessage, icmp_type=st.sampled_from(IcmpType), identifier=u16,
    sequence=u16, quoted_bytes=st.integers(min_value=0, max_value=64),
    data_bytes=st.integers(min_value=0, max_value=64))


def _ip(proto, payloads):
    return st.builds(Ipv4Packet, src=addresses, dst=addresses,
                     proto=st.just(proto), payload=payloads,
                     ttl=st.integers(min_value=0, max_value=255))


ip_packets = st.one_of(_ip(PROTO_TCP, tcp_segments),
                       _ip(PROTO_UDP, udp_datagrams),
                       _ip(PROTO_ICMP, icmp_messages))
roots = st.lists(st.integers(min_value=1, max_value=4000), min_size=1,
                 max_size=6).map(tuple)
vids = st.lists(st.builds(Vid, st.lists(st.integers(min_value=1,
                                                    max_value=65535),
                                        min_size=1, max_size=4).map(tuple)),
                min_size=1, max_size=6).map(tuple)
mtp_messages = st.one_of(
    st.just(MtpKeepalive()),
    st.builds(MtpFullHello, tier=st.integers(min_value=1, max_value=4),
              gen=st.integers(min_value=0, max_value=255)),
    st.builds(MtpAdvertise, vids),
    st.builds(MtpUnreachable, roots),
    st.builds(MtpUnreachableDefault, roots),
    st.builds(MtpData, src_root=st.integers(min_value=1, max_value=4000),
              dst_root=st.integers(min_value=1, max_value=4000),
              packet=_ip(PROTO_UDP, udp_datagrams)),
)
arp_messages = st.builds(ArpMessage, op=st.sampled_from(ArpOp),
                         sender_mac=macs, sender_ip=addresses,
                         target_ip=addresses,
                         target_mac=st.one_of(st.none(), macs))
frames = st.one_of(
    st.builds(EthernetFrame, dst=macs, src=macs,
              ethertype=st.just(ETHERTYPE_IPV4), payload=ip_packets),
    st.builds(EthernetFrame, dst=macs, src=macs,
              ethertype=st.just(ETHERTYPE_ARP), payload=arp_messages),
    st.builds(EthernetFrame, dst=macs, src=macs,
              ethertype=st.just(ETHERTYPE_MTP), payload=mtp_messages),
)


@given(frames)
def test_frame_size_is_encoded_length(frame):
    assert frame.wire_size == len(encode_frame(frame, pad_to_min=False))
    assert frame.padded_wire_size == len(encode_frame(frame))


@given(tcp_segments)
def test_tcp_sequence_space(segment):
    syn = TcpFlags.SYN in segment.flags
    fin = TcpFlags.FIN in segment.flags
    assert segment.data_len == segment.payload.wire_size
    assert segment.seq_space == segment.data_len + syn + fin
    assert segment.wire_size == segment.header_size + segment.data_len
    assert segment.header_size == (40 if syn else 32)
