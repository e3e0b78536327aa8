"""Experiment drivers: one call = one paper measurement.

Each run builds a fresh :class:`World` (the "reserve a new slice"
analogue), deploys a registered protocol stack, converges from cold,
injects a TC failure, and computes the section-V metrics.  Multi-seed
batches average the results as the paper averages over runs.

Stacks are selected through :mod:`repro.stacks` — a registry name
(``"mtp"``, ``"bgp-bfd"``, ``"mtp-spray"``...), a prepared
:class:`~repro.stacks.StackSpec`, or the legacy ``StackKind`` enum all
work; nothing in this module branches on which stack is running, so
registering a new stack makes every driver here handle it.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Optional

from repro.sim.units import MILLISECOND, SECOND
from repro.net.world import World
from repro.topology import TopologySpec, build_topology, resolve_topology_spec
from repro.stacks import (
    StackKind,
    StackSpec,
    StackTimers,
    get_stack,
    resolve_spec,
)
from repro.harness.convergence import ConvergenceMonitor, converge_from_cold
from repro.harness.failures import FailureInjector
from repro.harness.metrics import (
    KeepaliveBreakdown,
    blast_radius,
    keepalive_overhead,
    snapshot_table_change_counts,
)
from repro.harness.parallel import TaskKind, execute_tasks
from repro.harness.pathtrace import find_crossing_flow
from repro.net.capture import Capture
from repro.traffic.generator import ReceiverAnalyzer, TrafficSender

__all__ = [
    "StackKind",  # legacy re-export; the enum itself lives in repro.stacks
    "StackSpec",
    "StackTimers",
    "ExperimentResult",
    "ExperimentSpec",
    "ExperimentOutcome",
    "PacketLossResult",
    "ConfigCostResult",
    "TableSizeResult",
    "build_and_converge",
    "detection_bound_us",
    "run_failure_experiment",
    "run_experiment_batch",
    "run_experiment_task",
    "run_packet_loss_experiment",
    "run_keepalive_experiment",
    "run_config_cost_experiment",
    "run_table_size_experiment",
    "average_failure_runs",
    "experiment_task_key",
    "encode_experiment_outcome",
    "decode_experiment_outcome",
]


def build_and_converge(
    params,
    stack,
    seed: int = 0,
    timers: Optional[StackTimers] = None,
    trace_enabled: bool = True,
    max_converge_us: int = 60 * SECOND,
):
    """Fresh world + topology + converged deployment of any registered
    stack (name, spec, definition, or legacy enum).

    ``params`` selects the fabric in any spelling the topology registry
    resolves — a :class:`~repro.topology.TopologySpec`, a registry name,
    a legacy params dataclass, or ``None`` for the default folded-Clos.
    """
    spec = resolve_spec(stack, timers)
    definition = get_stack(spec.name)
    world = World(seed=seed, trace_enabled=trace_enabled)
    topo = build_topology(params, world=world)
    deployment = definition.build(topo, spec)
    deployment.start()
    converge_from_cold(world, deployment, deployment.ready,
                       max_time_us=max_converge_us)
    return world, topo, deployment


def detection_bound_us(stack, timers: Optional[StackTimers] = None) -> int:
    """Upper bound on failure-detection latency: the far end of a
    one-sided failure reacts only after this long."""
    spec = resolve_spec(stack, timers)
    return get_stack(spec.name).detection_bound_us(spec.timers)


# ----------------------------------------------------------------------
# failure experiment: convergence time, control overhead, blast radius
# ----------------------------------------------------------------------
@dataclass
class ExperimentResult:
    stack: str  # registry name
    case: str
    seed: int
    convergence_us: int
    control_bytes: int
    update_count: int
    blast_routers: list[str]

    @property
    def blast_radius(self) -> int:
        return len(self.blast_routers)

    @property
    def convergence_ms(self) -> float:
        return self.convergence_us / MILLISECOND

    @property
    def display(self) -> str:
        """The stack's human-readable name (e.g. ``MR-MTP``)."""
        return get_stack(self.stack).display


def run_failure_experiment(
    params,
    stack,
    case_name: str,
    seed: int = 0,
    timers: Optional[StackTimers] = None,
    quiet_us: int = 1 * SECOND,
    max_wait_us: int = 30 * SECOND,
    settle_us: Optional[int] = None,
    return_world: bool = False,
):
    """One failure run: inject the TC, watch updates quiesce, report.

    ``settle_us`` lets the converged fabric idle before the failure.
    The default draws it per seed from [0, 2 x keepalive interval]: the
    failure then lands at an arbitrary phase of the keepalive/hello
    cycle, exactly as on the paper's testbed — which is what makes the
    remote-detection convergence times vary across runs (the hold/dead
    timer runs from the *last received* keepalive).
    """
    spec = resolve_spec(stack, timers)
    world, topo, deployment = build_and_converge(params, spec, seed)
    if settle_us is None:
        phase_rng = world.rng.stream("experiment-settle")
        period = deployment.keepalive_period_us()
        settle_us = int(phase_rng.uniform(0, 2 * period))
    world.run_for(settle_us)
    case = topo.failure_cases()[case_name]
    monitor = ConvergenceMonitor(world, deployment.update_categories())
    before = snapshot_table_change_counts(deployment.forwarding_tables())
    injector = FailureInjector(world)
    monitor.arm()
    injector.fail_case(topo, case)
    monitor.run_until_quiet(
        quiet_us=quiet_us,
        max_wait_us=max_wait_us,
        min_wait_us=deployment.detection_bound_us() + quiet_us,
    )
    convergence = monitor.convergence_time_us()
    blast = blast_radius(before, deployment.forwarding_tables())
    result = ExperimentResult(
        stack=spec.name,
        case=case_name,
        seed=seed,
        convergence_us=convergence if convergence is not None else 0,
        control_bytes=monitor.update_bytes,
        update_count=monitor.update_count,
        blast_routers=blast,
    )
    if return_world:
        return result, world
    return result


# ----------------------------------------------------------------------
# multi-seed batches: one picklable spec per (case, seed) task so the
# batch can fan out over worker processes and hit the result cache
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExperimentSpec:
    """One failure run as an independent, picklable task.

    ``params`` normalizes to a :class:`~repro.topology.TopologySpec` on
    construction, so legacy call sites passing a concrete params
    dataclass still build the same cache key as registry-first callers.
    """

    params: TopologySpec
    stack: StackSpec
    case_name: str
    seed: int
    quiet_us: int = 1 * SECOND
    max_wait_us: int = 30 * SECOND

    def __post_init__(self) -> None:
        object.__setattr__(self, "params",
                           resolve_topology_spec(self.params))


@dataclass
class ExperimentOutcome:
    """A failure run's metrics plus its determinism fingerprint."""

    result: ExperimentResult
    digest: str


def run_experiment_task(spec: ExperimentSpec) -> ExperimentOutcome:
    """The campaign worker (top-level so worker processes can run it)."""
    from repro.harness.digest import run_digest

    result, world = run_failure_experiment(
        spec.params, spec.stack, spec.case_name, spec.seed,
        quiet_us=spec.quiet_us, max_wait_us=spec.max_wait_us,
        return_world=True,
    )
    digest = run_digest(world.trace, _experiment_payload(result))
    return ExperimentOutcome(result=result, digest=digest)


def _experiment_payload(result: ExperimentResult) -> dict:
    return {
        "stack": result.stack,
        "case": result.case,
        "seed": result.seed,
        "convergence_us": result.convergence_us,
        "control_bytes": result.control_bytes,
        "update_count": result.update_count,
        "blast_routers": list(result.blast_routers),
    }


def experiment_task_key(spec: ExperimentSpec) -> str:
    from repro.harness.cache import task_key

    return task_key(
        "failure-run",
        params=spec.params,
        stack=spec.stack.name,
        stack_params=spec.stack.params,
        timers=spec.stack.timers,
        case=spec.case_name,
        seed=spec.seed,
        quiet_us=spec.quiet_us,
        max_wait_us=spec.max_wait_us,
    )


def encode_experiment_outcome(outcome: ExperimentOutcome) -> dict:
    return {**_experiment_payload(outcome.result), "digest": outcome.digest}


def decode_experiment_outcome(payload: dict) -> ExperimentOutcome:
    result = ExperimentResult(
        stack=payload["stack"],
        case=payload["case"],
        seed=payload["seed"],
        convergence_us=payload["convergence_us"],
        control_bytes=payload["control_bytes"],
        update_count=payload["update_count"],
        blast_routers=list(payload["blast_routers"]),
    )
    return ExperimentOutcome(result=result, digest=payload["digest"])


def experiment_task_label(spec: ExperimentSpec) -> str:
    """Human task label for task records and quarantine tables."""
    return f"{spec.stack.name} {spec.case_name} seed={spec.seed}"


EXPERIMENT_TASK = TaskKind(
    worker=run_experiment_task, key=experiment_task_key,
    encode=encode_experiment_outcome, decode=decode_experiment_outcome,
    label=experiment_task_label)


def run_experiment_batch(
    params,
    stack,
    case_name: str,
    seeds: Optional[tuple[int, ...]] = None,
    timers: Optional[StackTimers] = None,
    n_runs: Optional[int] = None,
    base_seed: int = 0,
    jobs: int = 1,
    cache=None,
    report=None,
) -> list[ExperimentResult]:
    """Multi-seed batch of one failure case, fanned out over ``jobs``
    worker processes.

    Seeds come either explicitly via ``seeds`` (the paper's (0, 1, 2))
    or are derived per task from ``base_seed`` when only ``n_runs`` is
    given — :func:`repro.harness.digest.stable_seed` keeps the derived
    seeds identical across processes and interpreter restarts.
    """
    from repro.harness.digest import stable_seed

    spec = resolve_spec(stack, timers)
    if seeds is None:
        if n_runs is None:
            seeds = (0, 1, 2)
        else:
            seeds = tuple(stable_seed("failure-batch", base_seed, i)
                          for i in range(n_runs))
    specs = [
        ExperimentSpec(params=params, stack=spec, case_name=case_name,
                       seed=seed)
        for seed in seeds
    ]
    outcomes = execute_tasks(specs, EXPERIMENT_TASK, jobs=jobs,
                             cache=cache, report=report)
    return [o.result for o in outcomes]


def average_failure_runs(
    params,
    stack,
    case_name: str,
    seeds: tuple[int, ...] = (0, 1, 2),
    timers: Optional[StackTimers] = None,
    jobs: int = 1,
    cache=None,
) -> ExperimentResult:
    """Multi-run average, as the paper's plotted values are."""
    spec = resolve_spec(stack, timers)
    runs = run_experiment_batch(params, spec, case_name, seeds,
                                jobs=jobs, cache=cache)
    return ExperimentResult(
        stack=spec.name,
        case=case_name,
        seed=-1,
        convergence_us=round(statistics.mean(r.convergence_us for r in runs)),
        control_bytes=round(statistics.mean(r.control_bytes for r in runs)),
        update_count=round(statistics.mean(r.update_count for r in runs)),
        blast_routers=max((r.blast_routers for r in runs), key=len),
    )


# ----------------------------------------------------------------------
# packet-loss experiment (Figs. 7 and 8)
# ----------------------------------------------------------------------
@dataclass
class PacketLossResult:
    stack: str
    case: str
    direction: str
    seed: int
    sent: int
    received: int
    duplicated: int
    out_of_order: int
    src_port: int

    @property
    def lost(self) -> int:
        return self.sent - self.received


def run_packet_loss_experiment(
    params,
    stack,
    case_name: str,
    direction: str = "near",
    seed: int = 0,
    timers: Optional[StackTimers] = None,
    rate_pps: int = 1000,
    lead_us: int = 500 * MILLISECOND,
    tail_us: int = 5 * SECOND,
    drain_us: int = 1 * SECOND,
) -> PacketLossResult:
    """Traffic between the paper's first and last racks with a failure
    mid-flow.  ``near``: the sender's rack adjoins the failure (Fig. 7);
    ``far``: the sender is at the far end (Fig. 8)."""
    if direction not in ("near", "far"):
        raise ValueError(f"direction must be near/far, got {direction!r}")
    spec = resolve_spec(stack, timers)
    world, topo, deployment = build_and_converge(params, spec, seed)
    case = topo.failure_cases()[case_name]

    near_tor = topo.tors[0][0][0]
    far_tor = topo.tors[0][-1][-1]  # last pod's last ToR, e.g. VID 14 in 2-PoD
    src_tor, dst_tor = (near_tor, far_tor) if direction == "near" else (far_tor, near_tor)
    src_host = topo.first_server_of(src_tor)
    dst_host = topo.first_server_of(dst_tor)

    src_port = find_crossing_flow(
        deployment, src_host, dst_host, case.node, case.peer_node
    )
    if src_port is None:
        raise RuntimeError(
            f"no flow from {src_host} to {dst_host} crosses "
            f"{case.node}<->{case.peer_node}"
        )

    gap_us = SECOND // rate_pps
    count = (lead_us + tail_us) // gap_us
    sender = TrafficSender(
        udp=deployment.servers[src_host].udp,
        dst=topo.server_address(dst_host),
        src_port=src_port,
        gap_us=gap_us,
    )
    analyzer = ReceiverAnalyzer(deployment.servers[dst_host].udp)
    injector = FailureInjector(world)
    start_at = world.sim.now
    sender.start(count=int(count))
    injector.fail_case(topo, case, at=start_at + lead_us)
    world.run(until=start_at + lead_us + tail_us + drain_us)
    report = analyzer.report(sender)
    return PacketLossResult(
        stack=spec.name,
        case=case_name,
        direction=direction,
        seed=seed,
        sent=report.sent,
        received=report.received,
        duplicated=report.duplicated,
        out_of_order=report.out_of_order,
        src_port=src_port,
    )


# ----------------------------------------------------------------------
# keepalive overhead (Figs. 9 and 10)
# ----------------------------------------------------------------------
def run_keepalive_experiment(
    params,
    stack,
    seed: int = 0,
    timers: Optional[StackTimers] = None,
    window_us: int = 5 * SECOND,
) -> KeepaliveBreakdown:
    """Steady-state liveness traffic on the first ToR-agg link: a
    converged, idle fabric observed through a capture for ``window_us``
    (the paper's Wireshark methodology in section VII.F)."""
    world, topo, deployment = build_and_converge(params, stack, seed, timers)
    link = world.find_link(topo.tors[0][0][0], topo.aggs[0][0][0])
    capture = Capture()
    capture.attach((link.end_a, link.end_b))
    since = world.sim.now
    world.run_for(window_us)
    return keepalive_overhead(capture, since=since, until=world.sim.now)


# ----------------------------------------------------------------------
# configuration cost (Listings 1 and 2)
# ----------------------------------------------------------------------
@dataclass
class ConfigCostResult:
    stack: str
    routers: int
    total_lines: int
    documents: int  # config artifacts an operator maintains

    @property
    def lines_per_router(self) -> float:
        return self.total_lines / self.routers if self.routers else 0.0


def run_config_cost_experiment(
    params,
    stack,
    seed: int = 0,
    timers: Optional[StackTimers] = None,
) -> ConfigCostResult:
    """Count the configuration an operator writes: per-router FRR configs
    for BGP (Listing 1) vs one fabric-wide JSON for MR-MTP (Listing 2)."""
    spec = resolve_spec(stack, timers)
    world, topo, deployment = build_and_converge(
        params, spec, seed, trace_enabled=False,
        max_converge_us=120 * SECOND,
    )
    cost = deployment.config_cost()
    return ConfigCostResult(stack=spec.name, routers=len(topo.routers()),
                            total_lines=cost.total_lines,
                            documents=cost.documents)


# ----------------------------------------------------------------------
# routing-table size (Listings 3 and 5)
# ----------------------------------------------------------------------
@dataclass
class TableSizeResult:
    stack: str
    node: str
    entries: int
    memory_bytes: int
    rendered: str


def run_table_size_experiment(
    params,
    stack,
    seed: int = 0,
    timers: Optional[StackTimers] = None,
) -> dict[str, TableSizeResult]:
    """Converged forwarding state at one agg and one top spine — the
    comparison behind the paper's Listings 3 and 5."""
    spec = resolve_spec(stack, timers)
    world, topo, deployment = build_and_converge(params, spec, seed)
    results = {}
    roles = [("agg", topo.aggs[0][0][0])]
    if topo.all_tops():  # recursively-defined fabrics have no top tier
        roles.append(("top", topo.tops[0][0][0]))
    roles.append(("tor", topo.tors[0][0][0]))
    for role, node_name in roles:
        stats = deployment.table_stats(node_name)
        results[role] = TableSizeResult(
            stack=spec.name, node=node_name, entries=stats.entries,
            memory_bytes=stats.memory_bytes, rendered=stats.rendered,
        )
    return results
