"""Extension — scalability beyond the paper's testbed (section IX).

The paper's FABRIC reservation capped the evaluation at 4 PoDs and 3
tiers; its future work calls for scaling the DCN "to multiple tiers
using Mininet".  The simulator removes the cap: this bench sweeps the
PoD count and adds a 4-tier (two-zone, super-spine) fabric, tracking the
trends the paper predicts — MR-MTP's convergence stays flat (dead-timer
dominated) while BGP's control overhead keeps growing with fabric size.
"""

from __future__ import annotations

from repro.sim.units import MILLISECOND
from repro.topology.clos import ClosParams
from repro.harness.experiments import (
    StackKind,
    build_and_converge,
    run_failure_experiment,
)

from conftest import emit

POD_SWEEP = (2, 4, 6, 8)


def test_ext_pod_sweep(benchmark, results_dir):
    def measure():
        out = {}
        for pods in POD_SWEEP:
            params = ClosParams(num_pods=pods)
            for kind in (StackKind.MTP, StackKind.BGP):
                out[(pods, kind)] = run_failure_experiment(params, kind, "TC1")
        return out

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = [
        [pods, kind.value,
         f"{results[(pods, kind)].convergence_ms:.2f}",
         results[(pods, kind)].control_bytes,
         results[(pods, kind)].blast_radius]
        for pods in POD_SWEEP
        for kind in (StackKind.MTP, StackKind.BGP)
    ]
    emit(results_dir, "ext_scalability_pods",
         "Extension — TC1 metrics vs PoD count (3-tier)",
         ["pods", "stack", "conv ms", "ctrl B", "blast"], rows)

    # MR-MTP convergence stays dead-timer-flat as the fabric grows
    mtp_convs = [results[(p, StackKind.MTP)].convergence_us for p in POD_SWEEP]
    assert max(mtp_convs) - min(mtp_convs) < 10 * MILLISECOND
    # control overhead grows with fabric size for both, BGP faster
    for kind in (StackKind.MTP, StackKind.BGP):
        ctrl = [results[(p, kind)].control_bytes for p in POD_SWEEP]
        assert ctrl == sorted(ctrl), f"{kind} overhead must be monotone"
    gap2 = (results[(2, StackKind.BGP)].control_bytes
            / results[(2, StackKind.MTP)].control_bytes)
    gap8 = (results[(8, StackKind.BGP)].control_bytes
            / results[(8, StackKind.MTP)].control_bytes)
    assert gap8 >= gap2 * 0.9, "the BGP:MTP overhead gap must not shrink"


def test_ext_four_tier_fabric(benchmark, results_dir):
    """Two zones stitched by super-spines: MR-MTP's VID scheme 'can
    easily scale to any number of spine tiers' (paper section III.B)."""
    params = ClosParams(num_pods=2, zones=2, supers_per_group=2)

    def measure():
        out = {}
        for kind in (StackKind.MTP, StackKind.BGP):
            world, topo, dep = build_and_converge(
                params, kind, max_converge_us=120_000_000)
            if kind is StackKind.MTP:
                supers = topo.all_supers()
                depth = max(
                    v.depth
                    for s in supers
                    for v in dep.mtp_nodes[s].table.all_vids()
                )
                entries = dep.mtp_nodes[supers[0]].table.entry_count()
            else:
                depth = 0
                entries = len(dep.stacks[topo.all_supers()[0]].table)
            result = run_failure_experiment(params, kind, "TC1")
            out[kind] = (depth, entries, result)
        return out

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = [
        [kind.value, depth, entries, f"{res.convergence_ms:.2f}",
         res.control_bytes]
        for kind, (depth, entries, res) in results.items()
    ]
    emit(results_dir, "ext_four_tier",
         "Extension — 4-tier (2-zone) fabric, TC1",
         ["stack", "super VID depth", "super entries", "conv ms", "ctrl B"],
         rows)

    depth, entries, mtp_result = results[StackKind.MTP]
    # VIDs one tier deeper: root.torport.aggport.topport
    assert depth == 4
    # every super-spine meshes all 8 ToR trees
    assert entries >= 8
    # convergence still dead-timer bound
    assert mtp_result.convergence_us <= 120 * MILLISECOND
    _, _, bgp_result = results[StackKind.BGP]
    assert mtp_result.control_bytes < bgp_result.control_bytes
