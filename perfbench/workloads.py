"""The benchmark's workloads, how one item runs, and how it is checked.

An *item* is one call of a public entry point -- ``run_experiment_task``,
``run_workload_task`` or ``run_scenario_task`` -- on a freshly built
fabric, called directly: no result cache, no process pool.  A workload
is a short list of items (a failover workload: TC1 and TC3); a run
repeats them, each time at another seed derived from the run's seed.
"""

from __future__ import annotations

import gc
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

from repro.harness.experiments import (
    ExperimentSpec,
    encode_experiment_outcome,
    run_experiment_task,
)
from repro.scenario.library import ROLLING_RESTART
from repro.scenario.model import Scenario
from repro.scenario.runner import (
    ScenarioRunSpec,
    encode_scenario_outcome,
    run_scenario_task,
)
from repro.stacks import resolve_spec
from repro.topology.clos import ClosParams
from repro.workload.runner import (
    WorkloadRunSpec,
    encode_workload_outcome,
    run_workload_task,
)
from repro.workload.spec import WorkloadSpec

from tracer import Probe, Tracer

REFERENCE_PATH = Path(__file__).with_name("reference.json")
#: the seed whose item results are pinned in ``reference.json``
PINNED_SEED = 0
#: distinct inputs per item: round ``r`` runs at derived seed ``r % SUBSEEDS``
SUBSEEDS = 8

#: entry point -> (task function, payload encoder)
ENTRY_POINTS: dict[str, tuple[Callable, Callable]] = {
    "experiment": (run_experiment_task, encode_experiment_outcome),
    "workload": (run_workload_task, encode_workload_outcome),
    "scenario": (run_scenario_task, encode_scenario_outcome),
}


@dataclass(frozen=True)
class Item:
    name: str
    entry: str   # a key of ENTRY_POINTS
    spec: Any


@dataclass(frozen=True)
class Workload:
    name: str
    params: dict
    items: Callable[[int], list[Item]]   # seed -> the items of one round


# ----------------------------------------------------------------------
# the four workloads
# ----------------------------------------------------------------------
def _failover(pods: int, stack: str) -> Callable[[int], list[Item]]:
    def items(seed: int) -> list[Item]:
        return [Item(case, "experiment",
                     ExperimentSpec(params=ClosParams(num_pods=pods),
                                    stack=resolve_spec(stack),
                                    case_name=case, seed=seed))
                for case in ("TC1", "TC3")]
    return items


STEADY_LOAD = WorkloadSpec(name="load-steady", matrix="permutation",
                           flows=300_000, duration_ms=200, epoch_ms=50,
                           tenants=8)
FAULTS_FLOWS = 20_000
LOAD_PODS = 8


def _steady(seed: int) -> list[Item]:
    return [Item("permutation", "workload",
                 WorkloadRunSpec(params=ClosParams(num_pods=LOAD_PODS),
                                 stack=resolve_spec("mtp"),
                                 workload=STEADY_LOAD, seed=seed))]


def rolling_restart(flows: int) -> Scenario:
    """The library ``rolling-restart`` scenario with ``flows`` flows."""
    payload = ROLLING_RESTART.to_payload()
    for event in payload["events"]:
        if event.get("op") == "workload":
            event["workload"] = dict(event["workload"], flows=flows)
    return Scenario.from_payload(payload)


def _faults(seed: int) -> list[Item]:
    return [Item("rolling-restart", "scenario",
                 ScenarioRunSpec(params=ClosParams(num_pods=LOAD_PODS),
                                 stack=resolve_spec("mtp"),
                                 scenario=rolling_restart(FAULTS_FLOWS),
                                 seed=seed))]


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    # 8 PoDs, not 16: a 16-PoD item takes 4-5 s, so a run held 5-8 of
    # them, and the settle phase each draws from its seed moved
    # measure_s between runs by 0.21 (quartile distance over median, ten
    # seeds), more than its bound; 8 PoDs exercise the same layers
    Workload("failover-bgp",
             {"pods": 8, "routers": 36, "stack": "bgp-bfd",
              "entry": "run_experiment_task", "cases": ["TC1", "TC3"]},
             _failover(8, "bgp-bfd")),
    Workload("failover-mtp",
             {"pods": 64, "routers": 260, "stack": "mtp",
              "entry": "run_experiment_task", "cases": ["TC1", "TC3"]},
             _failover(64, "mtp")),
    Workload("load-steady",
             {"pods": LOAD_PODS, "stack": "mtp",
              "entry": "run_workload_task",
              "workload": STEADY_LOAD.to_payload()},
             _steady),
    Workload("load-faults",
             {"pods": LOAD_PODS, "stack": "mtp",
              "entry": "run_scenario_task", "scenario": "rolling-restart",
              "flows": FAULTS_FLOWS},
             _faults),
)}


# ----------------------------------------------------------------------
# running and checking one item
# ----------------------------------------------------------------------
@dataclass
class ItemResult:
    item: str
    payload: Optional[dict]   # encoded outcome incl. "digest"; None on error
    cpu_s: float
    setup_s: float
    failures: list[str]
    layers: Optional[dict[str, float]] = None   # traced items only

    @property
    def measure_s(self) -> float:
        return self.cpu_s - self.setup_s

    @property
    def ok(self) -> bool:
        return not self.failures


def world_counters(world) -> dict[str, int]:
    """Public counters of one built world, read after its item ran."""
    frames = tx_bytes = dropped = 0
    for iface in world.all_interfaces():
        c = iface.counters
        frames += c.tx_frames
        tx_bytes += c.tx_bytes
        dropped += (c.tx_dropped_down + c.tx_dropped_uncabled
                    + c.tx_dropped_queue + c.rx_dropped_down
                    + c.rx_dropped_corrupt)
    return {"sim.events": world.sim.events_processed,
            "sim.peak_queue_depth": world.sim.peak_queue_depth,
            "sim.trace_records": len(world.trace.records),
            "net.frames_tx": frames, "net.bytes_tx": tx_bytes,
            "net.frames_dropped": dropped}


def workload_report(payload: dict) -> Optional[dict]:
    """The fluid workload report inside an encoded outcome, if any."""
    if "max_conservation_error" in payload:
        return payload
    return payload.get("workload")


def run_item(item: Item, probe: Probe, tracer: Optional[Tracer] = None,
             item_id: int = 0) -> ItemResult:
    """Run one item and apply the checks that need no reference."""
    task, encode = ENTRY_POINTS[item.entry]
    gc.collect()
    probe.reset()
    if tracer is not None:
        tracer.begin_item(item_id, item.name)
    failures: list[str] = []
    outcome = None
    c0 = time.process_time()
    try:
        outcome = task(item.spec)
    except Exception as exc:   # an item that raises is a failed item
        failures.append(f"raised {type(exc).__name__}: {exc}")
    cpu_s = time.process_time() - c0
    stats = tracer.end_item() if tracer is not None else None
    # through JSON, so it compares equal to the pinned reference
    payload = (None if outcome is None
               else json.loads(json.dumps(encode(outcome))))
    if not all(probe.quiet_results):
        failures.append("run_until_quiet returned False")
    if payload is not None:
        report = workload_report(payload)
        if report is not None and report["max_conservation_error"] != 0:
            failures.append("workload conservation error "
                            f"{report['max_conservation_error']}")
    result = ItemResult(item.name, payload, cpu_s, probe.setup_cpu_s,
                        failures)
    if stats is not None:
        result.layers = layer_values(stats, probe, payload)
    probe.reset()
    return result


def layer_values(stats: dict[str, list[int]], probe: Probe,
                 payload: Optional[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced item."""
    def total(name):
        return stats[name][1] / 1e9

    def self_s(*names):
        return sum(stats[n][2] for n in names) / 1e9

    values: dict[str, float] = {
        "harness.converge_s": total("harness.converge"),
        "harness.reconverge_s": total("harness.reconverge"),
        "harness.digest_s": total("harness.digest"),
        "harness.quiet_timeouts": probe.quiet_results.count(False),
        "topology.build_s": total("topology.build"),
        "stacks.deploy_s": total("stacks.deploy"),
        "sim.dispatch_self_s": self_s("sim.dispatch"),
        "sim.schedule_self_s": self_s("sim.schedule"),
        "net.transmit_self_s": self_s("net.transmit"),
        "wire.size_calls": stats["wire.size"][0],
        "wire.size_self_s": self_s("wire.size"),
        "bgp.encodes": stats["bgp.encode"][0],
        "bgp.encode_self_s": self_s("bgp.encode"),
        "proto.mtp.frames": stats["proto.mtp"][0],
        "proto.mtp.handle_self_s": self_s("proto.mtp"),
        "proto.ipv4.frames": stats["proto.ipv4"][0],
        "proto.ipv4.handle_self_s": self_s("proto.ipv4"),
        "iputil.tcp_segments": stats["iputil.tcp"][0],
        "iputil.tcp_self_s": self_s("iputil.tcp"),
        "bfd.packets": stats["bfd.handle"][0],
        "bgp.callback_self_s": self_s("bgp.callback"),
        "bfd.callback_self_s": self_s("bfd.callback"),
        "proto.mtp.callback_self_s": self_s("proto.mtp.callback"),
        "iputil.callback_self_s": self_s("iputil.callback"),
        "routing.lookups": stats["routing.lookup"][0],
        "routing.lookup_self_s": self_s("routing.lookup"),
        "workload.synth_s": total("workload.synth"),
        "workload.resolves": stats["workload.resolve"][0],
        "workload.resolve_self_s": self_s("workload.resolve"),
        "workload.solves": stats["workload.solve"][0],
        "workload.solve_s": total("workload.solve"),
        "workload.settle_s": total("workload.settle"),
        "resilience.checks": stats["resilience.check"][0],
        "resilience.check_s": total("resilience.check"),
        "scenario.compile_s": total("scenario.compile"),
        "scenario.execute_s": total("scenario.execute"),
    }
    counters = {k: 0 for k in ("sim.events", "sim.peak_queue_depth",
                               "sim.trace_records", "net.frames_tx",
                               "net.bytes_tx", "net.frames_dropped")}
    for world in probe.worlds:
        for name, value in world_counters(world).items():
            counters[name] += value
    values.update(counters)
    values["wire.size_calls_per_frame"] = (
        values["wire.size_calls"] / values["net.frames_tx"]
        if values["net.frames_tx"] else 0.0)
    report = workload_report(payload) if payload is not None else None
    values["workload.epochs"] = report["epochs"] if report else 0
    values["workload.flows_completed"] = (report["completed_flows"]
                                          if report else 0)
    return values


# ----------------------------------------------------------------------
# the pinned reference
# ----------------------------------------------------------------------
def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as src:
        return json.load(src)


def check_against(result: ItemResult, expected: Optional[dict],
                  what: str) -> None:
    """Count ``result`` as failed unless its payload (digest included)
    equals ``expected`` exactly."""
    if result.payload is None:
        return   # already failed
    if expected is None:
        result.failures.append(f"no {what} for item {result.item}")
    elif result.payload != expected:
        diff = sorted(k for k in set(expected) | set(result.payload)
                      if expected.get(k) != result.payload.get(k))
        result.failures.append(f"differs from {what} in {', '.join(diff)}")
