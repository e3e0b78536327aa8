"""Extension — failure cases beyond TC1-TC4 (paper section IX).

The paper's future work lists "extended failure test cases"; the
simulator makes them cheap: whole-device failures (an agg and a top
spine) and bidirectional link cuts, compared across the three stacks.
A link *cut* differs from the paper's one-sided admin-down: both ends
detect locally and immediately, so even plain BGP converges fast.
"""

from __future__ import annotations

from repro.sim.units import MILLISECOND, SECOND
from repro.topology.clos import two_pod_params
from repro.harness.convergence import ConvergenceMonitor
from repro.harness.experiments import (
    StackKind,
    build_and_converge,
    detection_bound_us,
    StackTimers,
)
from repro.harness.failures import FailureInjector
from repro.harness.metrics import blast_radius, snapshot_table_change_counts

from conftest import emit

STACKS = (StackKind.MTP, StackKind.BGP, StackKind.BGP_BFD)


def run_case(kind, inject):
    timers = StackTimers()
    world, topo, dep = build_and_converge(two_pod_params(), kind,
                                          timers=timers)
    monitor = ConvergenceMonitor(world, dep.update_categories())
    before = snapshot_table_change_counts(dep.forwarding_tables())
    injector = FailureInjector(world)
    monitor.arm()
    inject(injector, topo)
    monitor.run_until_quiet(
        quiet_us=1 * SECOND, max_wait_us=30 * SECOND,
        min_wait_us=detection_bound_us(kind, timers) + SECOND,
    )
    conv = monitor.convergence_time_us() or 0
    blast = blast_radius(before, dep.forwarding_tables())
    return conv, monitor.update_bytes, len(blast)


CASES = {
    "agg-node-down": lambda inj, topo: inj.fail_node(topo.aggs[0][0][0]),
    "top-node-down": lambda inj, topo: inj.fail_node(topo.tops[0][0][0]),
    "tor-agg-cut": lambda inj, topo: inj.cut_link(topo.tors[0][0][0],
                                                  topo.aggs[0][0][0]),
    "agg-top-cut": lambda inj, topo: inj.cut_link(topo.aggs[0][0][0],
                                                  topo.tops[0][0][0]),
}


def test_ext_failure_cases(benchmark, results_dir):
    results = benchmark.pedantic(
        lambda: {
            (name, kind): run_case(kind, inject)
            for name, inject in CASES.items()
            for kind in STACKS
        },
        rounds=1, iterations=1,
    )
    rows = [
        [name, kind.value, f"{conv / MILLISECOND:.2f}", ctrl, blast]
        for (name, kind), (conv, ctrl, blast) in sorted(
            results.items(), key=lambda kv: (kv[0][0], kv[0][1].value))
    ]
    emit(results_dir, "ext_failure_cases",
         "Extension — node failures and bidirectional link cuts, 2-PoD",
         ["case", "stack", "conv ms", "ctrl B", "blast"], rows)

    for name in CASES:
        mtp_conv, mtp_ctrl, _ = results[(name, StackKind.MTP)]
        bgp_conv, bgp_ctrl, _ = results[(name, StackKind.BGP)]
        # sub-millisecond tolerance: when both stacks detect locally the
        # ordering is down to per-update processing epsilon
        assert mtp_conv <= bgp_conv + 1 * MILLISECOND, name
        # a dead top spine generates zero updates under both stacks
        # (neighbors only drop a next hop), hence <=
        assert mtp_ctrl <= bgp_ctrl, name

    # a bidirectional cut is detected locally at both ends: every stack
    # converges below its remote-detection bound
    for kind in STACKS:
        conv, _, _ = results[("tor-agg-cut", kind)]
        assert conv < 100 * MILLISECOND, kind

    # node failures still require the neighbors' timers (the dead node
    # cannot announce anything)
    assert results[("agg-node-down", StackKind.BGP)][0] >= 2000 * MILLISECOND
    assert results[("agg-node-down", StackKind.MTP)][0] <= 150 * MILLISECOND
