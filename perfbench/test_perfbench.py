"""Tests of the benchmark itself: wrappers, digests, the reference gate.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import copy
import json
import sys

import pytest

import run
import tracer
import workloads
from repro.stacks import resolve_spec
from repro.harness.experiments import ExperimentSpec
from repro.topology.clos import ClosParams


def _tiny(stack: str = "mtp"):
    """A 2-PoD failover workload: the same entry point, a small fabric."""
    def items(seed):
        return [workloads.Item("TC1", "experiment", ExperimentSpec(
            params=ClosParams(num_pods=2), stack=resolve_spec(stack),
            case_name="TC1", seed=seed))]
    return workloads.Workload(f"tiny-{stack}", {"pods": 2}, items)


def _look_up_sites() -> list:
    """(owner, name, value) of every attribute the probe or the tracer
    replaces: module attributes holding a wrapped function, and methods
    on their classes."""
    functions = [f for fns in tracer.FUNCTION_SPANS.values() for f in fns]
    functions.append(tracer.experiments.build_and_converge)
    sites = [(module, name, value)
             for module in list(sys.modules.values())
             for name, value in list(getattr(module, "__dict__", {}).items())
             if any(value is fn for fn in functions)]
    methods = [m for ms in tracer.METHOD_SPANS.values() for m in ms]
    methods += [(tracer.ConvergenceMonitor, "run_until_quiet"),
                (tracer.Node, "handle_frame"),
                (tracer.Simulator, "schedule_at"),
                (tracer.Simulator, "schedule_after")]
    sites += [(cls, name, vars(cls)[name]) for cls, name in methods]
    return sites


def test_wrappers_restore_the_original_functions():
    sites = _look_up_sites()
    probe, spans = tracer.Probe(), tracer.Tracer()
    probe.install()
    spans.install()
    try:
        assert all(vars(owner)[name] is not value
                   for owner, name, value in sites)
    finally:
        spans.restore()
        probe.restore()
    assert all(vars(owner)[name] is value for owner, name, value in sites)


@pytest.mark.parametrize("stack", ["mtp", "bgp-bfd"])
def test_traced_and_untraced_digests_match(stack):
    item = _tiny(stack).items(7)[0]
    probe = tracer.Probe()
    probe.install()
    try:
        untraced = workloads.run_item(item, probe)
        spans = tracer.Tracer()
        spans.install()
        try:
            traced = workloads.run_item(item, probe, spans, item_id=1)
        finally:
            spans.restore()
    finally:
        probe.restore()
    assert untraced.ok and traced.ok, (untraced.failures, traced.failures)
    assert traced.payload == untraced.payload
    assert traced.layers["sim.events"] > 0
    assert traced.layers["net.frames_tx"] > 0
    if stack == "bgp-bfd":
        assert traced.layers["bgp.encodes"] > 0
        assert traced.layers["proto.mtp.frames"] == 0
    else:
        assert traced.layers["bgp.encodes"] == 0
        assert traced.layers["proto.mtp.frames"] > 0
    # every span record belongs to the item and has a recorded parent
    records = {s.span_id: s for s in spans.spans}
    assert {s.item for s in records.values()} == {1}
    assert all(s.parent in records for s in records.values()
               if not s.name.startswith("item:"))


def _run_tiny(monkeypatch, reference):
    workload = _tiny()
    monkeypatch.setitem(workloads.WORKLOADS, workload.name, workload)
    monkeypatch.setattr(workloads, "load_reference",
                        lambda: {workload.name: reference})
    result, info = run.run_workload(workload.name, workloads.PINNED_SEED,
                                    seconds=0, trace=False)
    return result, info


def test_a_corrupted_reference_value_fails_the_item(monkeypatch):
    # pin the tiny workload's own result, then corrupt one value
    probe = tracer.Probe()
    probe.install()
    try:
        workload = _tiny()
        monkeypatch.setitem(workloads.WORKLOADS, workload.name, workload)
        plan = run.plan_rounds(workloads, workload.name,
                               workloads.PINNED_SEED)
        pinned = {item.name: workloads.run_item(item, probe).payload
                  for item in plan[0]}
    finally:
        probe.restore()

    result, _ = _run_tiny(monkeypatch, pinned)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1

    corrupted = copy.deepcopy(pinned)
    corrupted["TC1#0"]["convergence_us"] += 1
    result, info = _run_tiny(monkeypatch, corrupted)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1
    assert info["error_rate"] == 1.0
    assert any("convergence_us" in f for f in info["failures"])


def test_refuses_to_run_with_an_engine_override(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_ENGINE_BACKEND", "heap")
    assert run.main(["--workload", "failover-bgp"]) == 2
    assert capsys.readouterr().out == ""


def test_benchmark_file_names_every_metric_the_driver_reports():
    with open(run.BENCHMARK, encoding="utf-8") as src:
        bench = json.load(src)
    per_layer = [m["name"] for m in bench["per_layer"]]
    assert sorted(per_layer) == sorted(run.PREDICTIONS)
    stats = {name: [0, 0, 0] for name in tracer.SPAN_NAMES}
    layers = workloads.layer_values(stats, tracer.Probe(), None)
    assert sorted([*layers, "trace.overhead_s"]) == sorted(per_layer)
    assert set(workloads.WORKLOADS) == {w["name"] for w in bench["workloads"]}
