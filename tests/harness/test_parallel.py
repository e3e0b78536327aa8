"""Determinism property tests for the task executor.

For a matrix of (stack, topology, seed): the run digest of every
task must be identical across repeated serial runs, across inline vs
worker-process execution, and across different worker counts.  Any
divergence means a task leaked state (wall clock, globals, unseeded
randomness) and would silently corrupt fanned-out sweeps.
"""

from __future__ import annotations

import os

import pytest

from repro.topology.clos import two_pod_params
from repro.stacks import resolve_spec
from repro.harness.experiments import (
    EXPERIMENT_TASK,
    ExperimentSpec,
    StackKind,
    run_experiment_task,
)
from repro.harness.parallel import (
    CampaignReport,
    DeterminismError,
    RetryPolicy,
    TaskKind,
    assert_fanout_deterministic,
    execute_tasks,
    resolve_jobs,
)
from repro.harness.sweep import SWEEP_POINT, run_sweep_point, sweep_specs


def _square(x: int) -> int:
    """Trivial top-level worker (worker processes need to receive it)."""
    return x * x


def _square_and_pid(x: int) -> tuple[int, int]:
    return x * x, os.getpid()


SQUARE = TaskKind(_square)
SQUARE_AND_PID = TaskKind(_square_and_pid)


def _digest(outcome) -> str:
    return outcome.digest


# ----------------------------------------------------------------------
# sweep fan-out
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind,seed", [
    (StackKind.MTP, 0),
    (StackKind.MTP, 7),
    (StackKind.BGP, 0),
])
def test_sweep_digests_serial_vs_parallel(kind, seed):
    specs = sweep_specs(two_pod_params(), kind, seed=seed)[:3]
    serial_a = [run_sweep_point(s) for s in specs]
    serial_b = [run_sweep_point(s) for s in specs]
    assert [o.digest for o in serial_a] == [o.digest for o in serial_b]
    # the guard itself re-runs inline and on 2 worker processes
    digests = assert_fanout_deterministic(specs, SWEEP_POINT, _digest,
                                          jobs=2)
    assert digests == [o.digest for o in serial_a]
    # results (not just digests) also match byte for byte
    assert [o.result for o in serial_a] == [o.result for o in serial_b]


def test_sweep_digests_across_worker_counts(monkeypatch):
    # enough cores that 2 and 3 jobs really fan out over processes
    monkeypatch.setattr("repro.harness.parallel.os.cpu_count", lambda: 8)
    specs = sweep_specs(two_pod_params(), StackKind.MTP)[:4]
    by_jobs = {
        jobs: [o.digest for o in execute_tasks(specs, SWEEP_POINT,
                                               jobs=jobs)]
        for jobs in (1, 2, 3)
    }
    assert by_jobs[1] == by_jobs[2] == by_jobs[3]
    # distinct failure points must not collide
    assert len(set(by_jobs[1])) == len(specs)


# ----------------------------------------------------------------------
# multi-seed experiment batches
# ----------------------------------------------------------------------
@pytest.mark.parametrize("stack", ["mtp", "bgp"])
def test_experiment_batch_digests_deterministic(stack):
    specs = [
        ExperimentSpec(params=two_pod_params(), stack=resolve_spec(stack),
                       case_name="TC1", seed=seed)
        for seed in (0, 1)
    ]
    digests = assert_fanout_deterministic(specs, EXPERIMENT_TASK,
                                          _digest, jobs=2)
    assert len(set(digests)) == 2  # different seeds, different runs


def test_experiment_digest_differs_across_seeds_and_cases():
    def outcome(case, seed):
        return run_experiment_task(ExperimentSpec(
            params=two_pod_params(), stack=resolve_spec("mtp"),
            case_name=case, seed=seed))

    base = outcome("TC1", 0)
    assert base.digest == outcome("TC1", 0).digest
    assert base.digest != outcome("TC1", 1).digest
    assert base.digest != outcome("TC2", 0).digest


# ----------------------------------------------------------------------
# runner mechanics
# ----------------------------------------------------------------------
def test_execute_tasks_preserves_order(monkeypatch):
    monkeypatch.setattr("repro.harness.parallel.os.cpu_count", lambda: 8)
    specs = sweep_specs(two_pod_params(), StackKind.MTP)[:4]
    outcomes = execute_tasks(specs, SWEEP_POINT, jobs=2)
    assert [o.result.point for o in outcomes] == [s.point for s in specs]


def test_guard_raises_on_divergence():
    specs = sweep_specs(two_pod_params(), StackKind.MTP)[:2]
    calls = iter(("a", "a", "a", "b"))  # serial: a,a — parallel: a,b

    def flaky_digest(_outcome) -> str:
        return next(calls)

    with pytest.raises(DeterminismError):
        # digests are taken in the parent, leg by leg and in task order,
        # so the fake digest sequence above is consumed deterministically
        assert_fanout_deterministic(specs, SWEEP_POINT, flaky_digest,
                                    jobs=1)


def test_guard_parallel_leg_crosses_a_process_boundary(monkeypatch):
    """On a 1-core host the oversubscription clamp would run a jobs=2
    fan-out inline; the guard's second leg must still run in worker
    processes, or it compares inline against inline."""
    monkeypatch.setattr("repro.harness.parallel.os.cpu_count", lambda: 1)
    pids = []

    def digest_of(outcome) -> str:
        value, pid = outcome
        pids.append(pid)
        return str(value)

    digests = assert_fanout_deterministic([1, 2, 3], SQUARE_AND_PID,
                                          digest_of, jobs=2)
    assert digests == ["1", "4", "9"]
    serial, fanned = pids[:3], pids[3:]
    assert set(serial) == {os.getpid()}
    assert os.getpid() not in fanned


def test_resolve_jobs():
    assert resolve_jobs(3) == 3
    assert resolve_jobs(None) >= 1
    assert resolve_jobs(0) >= 1
    with pytest.raises(ValueError):
        resolve_jobs(-1)


# ----------------------------------------------------------------------
# oversubscription fallback: on a host with no spare cores for the
# requested worker count, extra workers are pure overhead — the fan-out
# must run one task at a time and say so in the report
# ----------------------------------------------------------------------
def test_oversubscribed_fanout_falls_back_to_serial(monkeypatch):
    monkeypatch.setattr("repro.harness.parallel.os.cpu_count", lambda: 1)
    report = CampaignReport()
    outcomes = execute_tasks([1, 2, 3], SQUARE_AND_PID, jobs=2,
                             report=report)
    assert outcomes == [(1, os.getpid()), (4, os.getpid()),
                        (9, os.getpid())]  # inline
    assert report.jobs == 1  # fell back
    assert any("oversubscribe" in note for note in report.notes), report.notes
    assert "oversubscribe 1 core(s)" in report.describe()


def test_fanout_keeps_pool_when_cores_are_spare(monkeypatch):
    monkeypatch.setattr("repro.harness.parallel.os.cpu_count", lambda: 8)
    report = CampaignReport()
    outcomes = execute_tasks([1, 2, 3], SQUARE_AND_PID, jobs=2,
                             report=report)
    assert [value for value, _ in outcomes] == [1, 4, 9]
    assert os.getpid() not in {pid for _, pid in outcomes}
    assert report.jobs == 2
    assert report.notes == []


def test_oversubscribed_fallback_is_result_identical(monkeypatch):
    """Falling back must be invisible in the results: same outcomes, in
    order, as a worker process produces."""
    monkeypatch.setattr("repro.harness.parallel.os.cpu_count", lambda: 1)
    inline = execute_tasks(list(range(7)), SQUARE, jobs=2)
    in_worker = execute_tasks(list(range(7)), SQUARE, jobs=2,
                              policy=RetryPolicy(max_attempts=1))
    assert inline == in_worker == [x * x for x in range(7)]
