"""Path resolution with the cross-epoch ECMP digest cache.

Three guards: the fluid engine's resolved links equal the per-packet
tracer's hops (before a failure, when digests are computed, and after
reconvergence, when cached digests meet shrunken candidate sets); a
warm engine that re-resolved across a scenario equals a fresh one at
every epoch; and a whole scenario hashes each (flow, router) pair at
most once.
"""

from __future__ import annotations

import collections
import hashlib
import types

import numpy as np
import pytest

from repro.harness.experiments import build_and_converge
from repro.harness.failures import FailureInjector
from repro.harness.pathtrace import trace_path
from repro.routing import ecmp
from repro.routing.ecmp import PACKED_KEY_BYTES, ecmp_digests
from repro.scenario import Scenario, run_scenario
from repro.scenario.library import ROLLING_RESTART
from repro.topology.clos import ClosParams
from repro.workload import engine as engine_mod
from repro.workload.engine import FluidWorkload
from repro.workload.spec import WorkloadSpec

PODS = 4
SAMPLED = 200
SPEC = WorkloadSpec(name="crosscheck", matrix="uniform", flows=3000,
                    duration_ms=400, epoch_ms=25)


def _fluid_hops(engine: FluidWorkload, f: int) -> list[str]:
    """Node names a flow's resolved link list visits, source host to
    destination host."""
    problem = engine._problem
    links = problem.flow_links[problem.flow_ptr[f]:problem.flow_ptr[f + 1]]
    nodes = []
    for ident in links.tolist():
        node, iface_name = engine._link_refs[ident]
        if not nodes:
            nodes.append(node)
        nodes.append(engine.topo.node(node).interfaces[iface_name]
                     .peer().node.name)
    return nodes


def _assert_matches_tracer(engine: FluidWorkload, deployment, sample):
    flows = engine.flows
    for f in sample.tolist():
        assert not engine._blackholed_now[f]
        expected = trace_path(deployment, flows.hosts[flows.src[f]],
                              flows.hosts[flows.dst[f]],
                              int(flows.src_port[f]),
                              int(flows.dst_port[f]))
        assert _fluid_hops(engine, f) == expected, f"flow {f}"


# the paper's 4-PoD fabric (2-way ECMP: TC1 leaves its ToR one uplink)
# and a 3-wide one, where TC1 shrinks the ToR's set 3 -> 2 and cached
# digests meet a new modulus
FABRICS = {"paper": ClosParams(num_pods=PODS),
           "3-wide": ClosParams(num_pods=PODS, aggs_per_pod=3,
                                tops_per_plane=3)}


@pytest.mark.parametrize("fabric", sorted(FABRICS))
@pytest.mark.parametrize("stack", ["mtp", "bgp-bfd"])
def test_fluid_paths_equal_per_packet_traces_across_tc1(stack, fabric,
                                                        monkeypatch):
    hashed = []
    real = engine_mod.ecmp_digests

    def counting(packed_keys, flow_idx, salt):
        hashed.append(len(flow_idx))
        return real(packed_keys, flow_idx, salt)

    monkeypatch.setattr(engine_mod, "ecmp_digests", counting)
    world, topo, deployment = build_and_converge(FABRICS[fabric], stack,
                                                 seed=1)
    engine = FluidWorkload(SPEC, topo, deployment)
    sample = np.random.default_rng(7).choice(len(engine.flows), SAMPLED,
                                             replace=False)
    engine.start()
    cold = sum(hashed)
    _assert_matches_tracer(engine, deployment, sample)

    hashed.clear()
    FailureInjector(world).fail_case(topo, topo.failure_cases()["TC1"])
    engine.mark_epoch()
    # the sampler re-resolves as tables move during reconvergence
    world.run_for(deployment.detection_bound_us() + 500_000)
    engine.mark_epoch()
    # the reroutes reused cached digests at some branch points (hits)
    # and hashed the regrown flow sets of others (misses)
    assert 0 < sum(hashed) < cold
    _assert_matches_tracer(engine, deployment, sample)


def test_cache_entry_reused_only_for_identical_flow_ids():
    world, topo, deployment = build_and_converge(ClosParams(num_pods=PODS),
                                                 "mtp", seed=1)
    engine = FluidWorkload(SPEC, topo, deployment)
    first = np.arange(0, 40, dtype=np.int32)
    other = np.arange(40, 80, dtype=np.int32)  # same size, other flows
    for idx in (first, first.copy(), other, first):
        want = ecmp_digests(engine._packed_keys, idx, 5)
        assert engine._digests(5, 0, idx).tobytes() == want.tobytes()
    hit = engine._digests(5, 0, first.copy())
    assert hit is engine._digests(5, 0, first)


def _rolling_restart(flows: int) -> Scenario:
    payload = ROLLING_RESTART.to_payload()
    for event in payload["events"]:
        if event.get("op") == "workload":
            event["workload"] = dict(event["workload"], flows=flows)
    return Scenario.from_payload(payload)


def test_warm_resolve_equals_cold_resolve_every_epoch(monkeypatch):
    resolve = FluidWorkload._resolve
    compared = []

    def checked(self):
        resolve(self)
        cold = FluidWorkload(self.spec, self.topo, self.deployment,
                             flows=self.flows)
        # same link-id registry, so ids (and thus bytes) are comparable
        cold._link_ids = dict(self._link_ids)
        cold._link_refs = list(self._link_refs)
        cold._capacity = list(self._capacity)
        resolve(cold)
        for name in ("flow_links", "flow_ptr"):
            assert (getattr(self._problem, name).tobytes()
                    == getattr(cold._problem, name).tobytes())
        for name in ("_blackholed_now", "_surv"):
            assert (getattr(self, name).tobytes()
                    == getattr(cold, name).tobytes())
        compared.append(int(self._blackholed_now.sum()))

    monkeypatch.setattr(FluidWorkload, "_resolve", checked)
    run_scenario(_rolling_restart(2000), ClosParams(num_pods=PODS), "mtp")
    assert len(compared) > 3
    assert max(compared) > 0  # a wave blackholed flows mid-scenario


def test_each_flow_router_pair_hashed_at_most_once(monkeypatch):
    resolve = FluidWorkload._resolve
    real = hashlib.blake2b
    calls: collections.Counter = collections.Counter()
    inside = [False]
    engines = []

    class Counted:
        """A blake2b that records each message it hashes in a resolve
        (copies of a keyed state included)."""

        def __init__(self, inner, key):
            self._inner, self._key = inner, key

        def update(self, data):
            if inside[0]:
                calls[(bytes(data), self._key)] += 1
            self._inner.update(data)

        def copy(self):
            return Counted(self._inner.copy(), self._key)

        def digest(self):
            return self._inner.digest()

    def blake2b(data=b"", **kwargs):
        h = Counted(real(**kwargs), kwargs.get("key"))
        if data:
            h.update(data)
        return h

    def tracked(self):
        engines.append(self)
        inside[0] = True
        try:
            resolve(self)
        finally:
            inside[0] = False

    # where the engine's hash kernel looks the primitive up
    monkeypatch.setattr(ecmp, "hashlib",
                        types.SimpleNamespace(blake2b=blake2b))
    monkeypatch.setattr(FluidWorkload, "_resolve", tracked)
    run_scenario(_rolling_restart(2000), ClosParams(num_pods=PODS), "mtp")

    engine = engines[0]
    assert len(engines) > 3 and all(e is engine for e in engines)
    packed = engine._packed_keys
    # flows that share a 5-tuple legitimately share their messages
    copies = collections.Counter(
        packed[i:i + PACKED_KEY_BYTES]
        for i in range(0, len(packed), PACKED_KEY_BYTES))
    assert calls
    for (message, _salt), count in calls.items():
        assert count <= copies[message]
    # a three-tier Clos hashes a flow at its ToR and source-pod agg only
    assert sum(calls.values()) <= 2 * len(engine.flows)
