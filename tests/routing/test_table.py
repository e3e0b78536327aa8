"""Routing table: LPM, ECMP selection, change tracking."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.routing.ecmp import FlowKey, ecmp_hash
from repro.routing.table import NextHop, Route, RoutingTable
from repro.stack.addresses import Ipv4Address, Ipv4Network, prefix_mask


def ip(text):
    return Ipv4Address.parse(text)


def net(text):
    return Ipv4Network.parse(text)


def test_lpm_prefers_longest_prefix():
    table = RoutingTable()
    table.install(Route(net("10.0.0.0/8"), (NextHop("eth1"),)))
    table.install(Route(net("10.1.0.0/16"), (NextHop("eth2"),)))
    table.install(Route(net("10.1.1.0/24"), (NextHop("eth3"),)))
    assert table.lookup(ip("10.1.1.5")).nexthops[0].interface == "eth3"
    assert table.lookup(ip("10.1.2.5")).nexthops[0].interface == "eth2"
    assert table.lookup(ip("10.9.9.9")).nexthops[0].interface == "eth1"
    assert table.lookup(ip("11.0.0.1")) is None


def test_default_route_matches_everything():
    table = RoutingTable()
    table.install(Route(net("0.0.0.0/0"), (NextHop("eth1", ip("10.0.0.1")),)))
    assert table.lookup(ip("200.1.2.3")) is not None


def test_install_replace_and_withdraw():
    table = RoutingTable()
    prefix = net("192.168.11.0/24")
    table.install(Route(prefix, (NextHop("eth1"),)))
    table.install(Route(prefix, (NextHop("eth2"),)))
    assert table.lookup(ip("192.168.11.1")).nexthops[0].interface == "eth2"
    assert len(table) == 1
    assert table.withdraw(prefix)
    assert not table.withdraw(prefix)
    assert table.lookup(ip("192.168.11.1")) is None


def test_identical_reinstall_does_not_count_as_change():
    table = RoutingTable()
    route = Route(net("10.0.0.0/24"), (NextHop("eth1"),), proto="bgp", metric=20)
    table.install(route)
    assert table.change_count == 1
    table.install(Route(net("10.0.0.0/24"), (NextHop("eth1"),), proto="bgp", metric=20))
    assert table.change_count == 1
    table.install(Route(net("10.0.0.0/24"), (NextHop("eth2"),), proto="bgp", metric=20))
    assert table.change_count == 2


def test_change_timestamps_recorded():
    from repro.sim.engine import Simulator

    sim = Simulator()
    table = RoutingTable(sim=sim)
    sim.schedule_at(500, lambda: table.install(Route(net("10.0.0.0/24"), (NextHop("e"),))))
    sim.run()
    assert table.last_change_time == 500


def test_ecmp_selection_is_flow_sticky():
    table = RoutingTable(salt=3)
    nexthops = (NextHop("eth1"), NextHop("eth2"), NextHop("eth3"))
    table.install(Route(net("10.0.0.0/8"), nexthops))
    flow = FlowKey(src=1, dst=2, proto=17, src_port=1000, dst_port=2000)
    picks = {table.select_nexthop(ip("10.1.1.1"), flow).interface for _ in range(10)}
    assert len(picks) == 1  # same flow -> same path


def test_ecmp_spreads_distinct_flows():
    table = RoutingTable()
    nexthops = (NextHop("eth1"), NextHop("eth2"))
    table.install(Route(net("10.0.0.0/8"), nexthops))
    seen = {
        table.select_nexthop(ip("10.1.1.1"),
                             FlowKey(src=s, dst=2, proto=17,
                                     src_port=1000 + s, dst_port=2000)).interface
        for s in range(64)
    }
    assert seen == {"eth1", "eth2"}


def test_route_requires_nexthops():
    with pytest.raises(ValueError):
        Route(net("10.0.0.0/8"), ())


def test_render_matches_ip_route_style():
    table = RoutingTable()
    table.install(Route(net("192.168.2.0/24"),
                        (NextHop("eth3", ip("172.16.0.1")),
                         NextHop("eth4", ip("172.16.8.1"))),
                        proto="bgp", metric=20))
    text = table.render()
    assert "192.168.2.0/24 proto bgp metric 20" in text
    assert "nexthop via 172.16.0.1 dev eth3 weight 1" in text


def test_memory_bytes_scales_with_entries_and_nexthops():
    table = RoutingTable()
    table.install(Route(net("10.0.0.0/24"), (NextHop("e1"),)))
    one = table.memory_bytes()
    table.install(Route(net("10.0.1.0/24"), (NextHop("e1"), NextHop("e2"))))
    assert table.memory_bytes() == one + 8 + 24


u32 = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def overlapping_prefixes(draw):
    """A few prefixes of /0../32 cut from two or three base addresses, so
    they nest and the longest match changes as routes come and go."""
    bases = draw(st.lists(u32, min_size=1, max_size=3))
    pool = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        length = draw(st.integers(min_value=0, max_value=32))
        base = draw(st.sampled_from(bases))
        pool.append(Ipv4Network(Ipv4Address(base & prefix_mask(length)),
                                length))
    return bases, pool


lpm_steps = st.lists(st.tuples(
    st.sampled_from(["install", "withdraw", "flush"]),
    st.integers(min_value=0, max_value=7),
    st.sampled_from(["bgp", "static"]),
    st.integers(min_value=0, max_value=1),
), max_size=30)


@given(overlapping_prefixes(), lpm_steps, st.lists(u32, max_size=4))
def test_lpm_matches_brute_force_longest_match(pool, steps, extra):
    bases, prefixes = pool
    probes = [Ipv4Address(v) for v in (*bases, *extra)]
    probes += [p.address for p in prefixes]
    table = RoutingTable()
    model: dict[Ipv4Network, Route] = {}
    changes = 0
    for op, index, proto, hop in steps:
        prefix = prefixes[index % len(prefixes)]
        if op == "install":
            route = Route(prefix, (NextHop(f"eth{hop}"),), proto=proto)
            old = model.get(prefix)
            if old is None or (old.nexthops, old.proto) != (route.nexthops,
                                                            route.proto):
                changes += 1
                model[prefix] = route
            table.install(route)
        elif op == "withdraw":
            changes += prefix in model
            assert table.withdraw(prefix) == (model.pop(prefix, None)
                                              is not None)
        else:
            doomed = sorted(p for p, r in model.items() if r.proto == proto)
            changes += bool(doomed)
            for p in doomed:
                del model[p]
            assert sorted(table.flush_proto(proto)) == doomed
        assert table.change_count == changes
        routes = table.routes()
        assert routes == sorted(model.values(), key=lambda r: r.prefix)
        for address in probes:
            matches = [r for r in routes if r.prefix.contains(address)]
            best = max(matches, key=lambda r: r.prefix.prefix_len,
                       default=None)
            assert table.lookup(address) is best


class TestEcmpHash:
    def test_deterministic(self):
        key = FlowKey(1, 2, 6, 80, 443)
        assert ecmp_hash(key, 8, salt=1) == ecmp_hash(key, 8, salt=1)

    def test_salt_changes_mapping_somewhere(self):
        keys = [FlowKey(s, 99, 6, 1234, 80) for s in range(32)]
        a = [ecmp_hash(k, 4, salt=0) for k in keys]
        b = [ecmp_hash(k, 4, salt=1) for k in keys]
        assert a != b

    def test_single_choice_short_circuits(self):
        assert ecmp_hash(FlowKey(1, 2), 1) == 0

    def test_invalid_choices(self):
        with pytest.raises(ValueError):
            ecmp_hash(FlowKey(1, 2), 0)

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=64),
    )
    def test_result_always_in_range(self, src, dst, n):
        assert 0 <= ecmp_hash(FlowKey(src, dst), n) < n

    def test_roughly_uniform_over_many_flows(self):
        counts = [0, 0, 0, 0]
        n_flows = 2000
        for s in range(n_flows):
            counts[ecmp_hash(FlowKey(s, 7, 17, 5000 + s, 9000), 4)] += 1
        for c in counts:
            assert abs(c - n_flows / 4) < n_flows * 0.08
