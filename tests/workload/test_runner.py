"""Loaded campaigns through the fan-out machinery: serial == parallel
digests, cache identity, and the supervised loaded sweep."""

from __future__ import annotations

import dataclasses

from repro.harness.cache import ResultCache
from repro.harness.parallel import CampaignReport, RetryPolicy
from repro.harness.sweep import (
    single_failure_sweep_outcomes,
    sweep_point_key,
    sweep_specs,
)
from repro.topology.clos import two_pod_params
from repro.workload.runner import (
    WorkloadRunSpec,
    run_workload_suite,
    workload_task_key,
)
from repro.workload.spec import WorkloadSpec
from repro.stacks import resolve_spec

TINY = WorkloadSpec(name="tiny", matrix="uniform", flows=400,
                    duration_ms=300, epoch_ms=25)


def _run_spec(**overrides):
    base = dict(params=two_pod_params(), stack=resolve_spec("mtp"),
                workload=TINY, seed=0)
    base.update(overrides)
    return WorkloadRunSpec(**base)


def test_suite_serial_equals_jobs2():
    serial = run_workload_suite(two_pod_params(), [TINY],
                                ["mtp", "bgp-bfd"], jobs=1)
    fanned = run_workload_suite(two_pod_params(), [TINY],
                                ["mtp", "bgp-bfd"], jobs=2)
    assert [o.digest for o in serial] == [o.digest for o in fanned]
    assert [o.report.to_payload() for o in serial] == \
        [o.report.to_payload() for o in fanned]


def test_suite_replays_from_cache(tmp_path):
    cache = ResultCache(tmp_path)
    first = CampaignReport()
    out1 = run_workload_suite(two_pod_params(), [TINY], ["mtp"],
                              cache=cache, report=first)
    assert (first.executed, first.cached) == (1, 0)
    second = CampaignReport()
    out2 = run_workload_suite(two_pod_params(), [TINY], ["mtp"],
                              cache=cache, report=second)
    assert (second.executed, second.cached) == (0, 1)
    assert out1[0].digest == out2[0].digest
    assert out1[0].report == out2[0].report


def test_workload_task_key_invalidates_on_every_component():
    base = workload_task_key(_run_spec())
    variants = [
        workload_task_key(_run_spec(seed=1)),
        workload_task_key(_run_spec(stack=resolve_spec("bgp-bfd"))),
        workload_task_key(_run_spec(
            workload=dataclasses.replace(TINY, flows=401))),
        workload_task_key(_run_spec(
            workload=dataclasses.replace(TINY, epoch_ms=10))),
        workload_task_key(_run_spec(
            params=two_pod_params(tors_per_pod=3))),
    ]
    assert base not in set(variants)
    assert len(set(variants)) == len(variants)


def test_loaded_sweep_serial_equals_jobs2_supervised():
    """The acceptance pairing: a workload-carrying sweep, supervised,
    fans out with byte-identical digests."""
    points = sweep_specs(two_pod_params(), "mtp")[:3]
    points = [s.point for s in points]
    runs = []
    for jobs in (1, 2):
        outcomes = single_failure_sweep_outcomes(
            two_pod_params(), "mtp", points=points, workload=TINY,
            jobs=jobs, policy=RetryPolicy(max_attempts=2, seed=0),
            report=CampaignReport())
        assert all(o is not None for o in outcomes)
        runs.append([o.digest for o in outcomes])
    assert runs[0] == runs[1]


def test_loaded_sweep_keeps_probe_only_cache_identity():
    """Attaching a workload must not disturb the classic sweep's cache
    keys — probe-only entries stay replayable across this change."""
    plain = sweep_specs(two_pod_params(), "mtp")[0]
    loaded = sweep_specs(two_pod_params(), "mtp", workload=TINY)[0]
    assert plain.workload is None
    assert loaded.workload == TINY.to_payload()
    assert sweep_point_key(plain) != sweep_point_key(loaded)
    # the probe-only key is exactly the historical one: no new field
    rebuilt = sweep_specs(two_pod_params(), "mtp", workload=None)[0]
    assert sweep_point_key(rebuilt) == sweep_point_key(plain)


def test_loaded_sweep_attaches_reports():
    points = sweep_specs(two_pod_params(), "mtp")[:1]
    outcome = single_failure_sweep_outcomes(
        two_pod_params(), "mtp", points=[points[0].point],
        workload=TINY)[0]
    assert outcome.result.ok
    wl = outcome.result.workload
    assert wl is not None
    assert wl["flows"] == 400
    assert wl["max_conservation_error"] < 1e-6
    # the hard failure happened before the workload window closed, so
    # at least one epoch boundary was marked
    assert wl["epochs"] >= 2
