"""One task executor for every campaign: inline, or persistent workers.

Sweep points, seeded experiment runs, chaos points, scenario runs and
workload runs are embarrassingly parallel: each task builds its own
:class:`~repro.net.world.World` from scratch, so tasks share no state and
the engine's per-seed determinism makes the fan-out *verifiable* — a run
digest (trace + metrics hash, see :mod:`repro.harness.digest`) must come
out identical whether a task ran inline, in a worker process, or was
replayed from the result cache.

A campaign kind is one :class:`TaskKind` record (worker, cache key,
codec, label), defined once next to its worker.  :func:`execute_tasks`
answers cached tasks from disk and runs the rest one of two ways:

* **inline** — the reference path, used with no policy and one job;
* **worker processes** — one persistent process per slot, fed one task
  at a time over a pipe.  The same loop serves plain ``--jobs N`` and
  supervised runs.  Under a :class:`RetryPolicy` every attempt has a
  wall-clock deadline, enforced by *killing* its worker, never by
  awaiting it (a pool future cannot be killed, which is why there is no
  pool); failed attempts retry with seeded backoff, and a task that
  fails identically twice (same exception class, same traceback digest)
  is a deterministic bug, quarantined without a third attempt.  Without
  a policy a task's own exception reaches the caller with its type.
  Either way a worker whose task timed out, crashed or failed is killed
  and respawned, so a failed attempt never shares a process with a
  later task.

Finished tasks are checkpointed to the content-addressed
:class:`~repro.harness.cache.ResultCache` the moment they return, so an
interrupted campaign resumes at task granularity, and every task gets a
structured :class:`TaskRecord` (pending → running → retrying → done |
quarantined, or cached) in the :class:`CampaignReport`.
"""

from __future__ import annotations

import heapq
import multiprocessing as mp
import os
import random
import re
import signal
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import wait as wait_ready
from typing import Any, Callable, Optional, Sequence

from repro.harness.cache import ResultCache
from repro.harness.digest import payload_digest, stable_seed

# task states
PENDING = "pending"
RUNNING = "running"
RETRYING = "retrying"
DONE = "done"
QUARANTINED = "quarantined"
CACHED = "cached"

# attempt outcomes
OK = "ok"
ERROR = "error"       # the task raised a Python exception
TIMEOUT = "timeout"   # the watchdog killed a worker past its deadline
CRASH = "crash"       # the worker died without reporting (OOM, segfault)


class DeterminismError(AssertionError):
    """Serial and parallel execution disagreed — a nondeterminism bug
    (wall-clock dependence, cross-task shared state, unseeded RNG...)."""


class RemoteTraceback(Exception):
    """A worker process's traceback, attached as the ``__cause__`` of
    the task exception re-raised in the parent."""


@dataclass(frozen=True)
class TaskKind:
    """One campaign kind: how to run, cache and name its tasks.

    ``worker`` must be a top-level function so worker processes can
    receive it.  ``key``, ``encode`` and ``decode`` are required only
    with a cache; ``label`` names a task in records and quarantine
    tables (default ``task <index>``).
    """

    worker: Callable[[Any], Any]
    key: Optional[Callable[[Any], str]] = None
    encode: Optional[Callable[[Any], dict]] = None
    decode: Optional[Callable[[dict], Any]] = None
    label: Optional[Callable[[Any], str]] = None


@dataclass(frozen=True)
class RetryPolicy:
    """Supervision: how the executor treats a failing task.

    ``deadline_s`` is the per-attempt wall-clock budget (None disables
    the watchdog).  Backoff is exponential with deterministic per-key
    jitter — the schedule is a pure function of (policy seed, task key,
    attempt), so reruns back off identically.
    """

    deadline_s: Optional[float] = None
    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, "
                             f"got {self.max_attempts}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(f"deadline_s must be positive, "
                             f"got {self.deadline_s}")


def backoff_schedule(policy: RetryPolicy, key: str) -> list[float]:
    """Delays (seconds) before attempts 2..max_attempts for one task.

    Exponential with a cap, jittered into [cap/2, cap] by an RNG seeded
    from the task key — deterministic per key (the property the tests
    pin down), decorrelated across keys so a failing grid does not
    retry in lockstep.
    """
    delays = []
    for attempt in range(1, policy.max_attempts):
        cap = min(policy.backoff_cap_s,
                  policy.backoff_base_s * (2 ** (attempt - 1)))
        rng = random.Random(stable_seed("supervisor-backoff", policy.seed,
                                        key, attempt))
        delays.append(cap * (0.5 + 0.5 * rng.random()))
    return delays


@dataclass
class Attempt:
    """One execution attempt of one task."""

    number: int
    outcome: str                 # ok | error | timeout | crash
    duration_s: float
    exception: str = ""          # exception class (or WorkerCrash/...)
    traceback_digest: str = ""   # normalized-traceback fingerprint
    detail: str = ""             # first line of the exception / context


@dataclass
class TaskRecord:
    """The executor's structured account of one task."""

    index: int
    key: str
    label: str
    state: str = PENDING
    attempts: list[Attempt] = field(default_factory=list)
    backoff_s: list[float] = field(default_factory=list)
    quarantine_reason: str = ""

    @property
    def failure_class(self) -> str:
        """The exception class of the last failed attempt, if any."""
        for attempt in reversed(self.attempts):
            if attempt.outcome != OK:
                return attempt.exception or attempt.outcome
        return ""


@dataclass
class CampaignReport:
    """What one or more :func:`execute_tasks` calls did."""

    total: int = 0
    executed: int = 0
    cached: int = 0
    jobs: int = 1
    cache_stored: int = 0
    notes: list[str] = field(default_factory=list)
    records: list[TaskRecord] = field(default_factory=list)

    @property
    def quarantined(self) -> list[TaskRecord]:
        return [r for r in self.records if r.state == QUARANTINED]

    @property
    def retried(self) -> list[TaskRecord]:
        return [r for r in self.records if len(r.attempts) > 1]

    def describe(self) -> str:
        line = (f"{self.total} tasks: {self.executed} executed "
                f"({self.jobs} jobs), {self.cached} from cache")
        if self.retried:
            line += f", {len(self.retried)} retried"
        if self.quarantined:
            line += f", {len(self.quarantined)} quarantined"
        return "; ".join([line, *self.notes])


class CampaignInterrupted(KeyboardInterrupt):
    """Ctrl-C during a campaign.  Finished tasks were already
    checkpointed to the cache (when one is attached); the exception
    carries the salvage accounting so the CLI can print the resume
    command."""

    def __init__(self, report: CampaignReport) -> None:
        self.done = report.cached + report.executed
        self.total = report.total
        self.salvaged = report.cache_stored
        self.report = report
        super().__init__(f"interrupted: {self.done}/{self.total} tasks "
                         f"done ({self.salvaged} checkpointed this run)")


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: None/0 means one worker per core."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


# ----------------------------------------------------------------------
# the worker side (child process)
# ----------------------------------------------------------------------
_HEX_ADDR = re.compile(r"0x[0-9a-fA-F]+")


def _failure(exc: BaseException, detail: Optional[str] = None) -> tuple:
    """A failed attempt as a pipe message.  The traceback digest masks
    memory addresses so two identical failures hash equal."""
    text = "".join(traceback.format_exception(type(exc), exc,
                                              exc.__traceback__))
    if detail is None:
        detail = str(exc).splitlines()[0][:200] if str(exc) else ""
    return (ERROR, type(exc).__name__,
            payload_digest(_HEX_ADDR.sub("0x~", text))[:16], detail, exc,
            text)


def _worker_loop(worker: Callable[[Any], Any], conn) -> None:
    """Run specs from ``conn`` one at a time until the parent goes away.
    Ctrl-C is the parent's to handle: it kills its workers itself."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            spec = conn.recv()
        except EOFError:
            return
        try:
            message = (OK, worker(spec))
        except BaseException as exc:  # noqa: BLE001 — reported, not lost
            message = _failure(exc)
        try:
            conn.send(message)
        except Exception as exc:  # the result or exception will not pickle
            conn.send(_failure(exc, f"not picklable: {exc}"[:200]))


# ----------------------------------------------------------------------
# the parent side
# ----------------------------------------------------------------------
@dataclass
class _Worker:
    """One persistent worker process and the attempt it is running."""

    proc: Any
    conn: Any
    index: Optional[int] = None
    attempt: int = 0
    started: float = 0.0
    deadline: Optional[float] = None

    @classmethod
    def spawn(cls, worker: Callable[[Any], Any]) -> "_Worker":
        ctx = mp.get_context()
        conn, child = ctx.Pipe()
        proc = ctx.Process(target=_worker_loop, args=(worker, child),
                           daemon=True)
        proc.start()
        child.close()
        return cls(proc=proc, conn=conn)

    @property
    def busy(self) -> bool:
        return self.index is not None

    def assign(self, index: int, attempt: int, spec: Any,
               deadline_s: Optional[float]) -> None:
        self.conn.send(spec)
        self.index, self.attempt = index, attempt
        self.started = time.monotonic()
        self.deadline = (self.started + deadline_s
                         if deadline_s is not None else None)

    def collect(self, now: float) -> Optional[tuple]:
        """The running attempt's message — ``(OK, outcome)`` or a
        failure tuple — or None while it is still within its deadline."""
        alive = self.proc.is_alive()  # before poll: a late send still lands
        if self.conn.poll():
            try:
                return self.conn.recv()
            except EOFError:
                alive = False  # died mid-send: a crash
            except Exception as exc:  # the message would not unpickle
                return (ERROR, type(exc).__name__, "",
                        f"result not readable: {exc}"[:200], None, "")
        if not alive:
            self.proc.join(timeout=5)
            return (CRASH, "WorkerCrash", "",
                    f"worker exited with code {self.proc.exitcode} "
                    f"without reporting", None, "")
        if self.deadline is not None and now >= self.deadline:
            return (TIMEOUT, "WatchdogTimeout", "",
                    f"killed after {now - self.started:.1f}s "
                    f"(deadline {self.deadline - self.started:.1f}s)",
                    None, "")
        return None

    def kill(self) -> None:
        try:
            self.proc.kill()
            self.proc.join(timeout=5)
        finally:
            self.conn.close()


class _Campaign:
    """The bookkeeping of one :func:`execute_tasks` call."""

    def __init__(self, specs: Sequence[Any], kind: TaskKind,
                 cache: Optional[ResultCache],
                 policy: Optional[RetryPolicy],
                 report: CampaignReport) -> None:
        self.specs = specs
        self.kind = kind
        self.cache = cache
        self.policy = policy
        self.report = report
        self.outcomes: list[Any] = [None] * len(specs)
        self.records = [
            TaskRecord(index=i,
                       key=kind.key(spec) if kind.key else f"task-{i}",
                       label=kind.label(spec) if kind.label else f"task {i}")
            for i, spec in enumerate(specs)
        ]
        report.total += len(specs)
        report.records.extend(self.records)

    def replay(self) -> list[int]:
        """Answer cached tasks from disk; the indices left to run."""
        pending = []
        for record in self.records:
            hit = (self.cache.get(record.key) if self.cache is not None
                   else None)
            if hit is None:
                pending.append(record.index)
                continue
            self.outcomes[record.index] = self.kind.decode(hit)
            record.state = CACHED
            self.report.cached += 1
        return pending

    def succeed(self, index: int, attempt: int, started: float,
                outcome: Any) -> None:
        record = self.records[index]
        record.attempts.append(Attempt(
            number=attempt, outcome=OK,
            duration_s=time.monotonic() - started))
        record.state = DONE
        self.outcomes[index] = outcome
        self.report.executed += 1
        if self.cache is not None:
            # checkpoint at once: this is what makes an interrupted
            # campaign resumable at task granularity
            self.cache.put(record.key, self.kind.encode(outcome))
            self.report.cache_stored += 1

    def retry_delay(self, record: TaskRecord) -> Optional[float]:
        """Backoff before the next attempt after a failed one (already
        recorded), or None once the task is quarantined."""
        attempt = record.attempts[-1]
        previous = record.attempts[-2] if len(record.attempts) > 1 else None
        if (attempt.outcome == ERROR and previous is not None
                and previous.outcome == ERROR
                and previous.exception == attempt.exception
                and previous.traceback_digest == attempt.traceback_digest):
            reason = (f"deterministic failure: {attempt.exception} twice "
                      f"with identical traceback ({attempt.detail})")
        elif attempt.number >= self.policy.max_attempts:
            reason = (f"exhausted {self.policy.max_attempts} attempt(s); "
                      f"last: {attempt.outcome} "
                      f"({attempt.exception}: {attempt.detail})")
        else:
            delay = backoff_schedule(self.policy,
                                     record.key)[attempt.number - 1]
            record.backoff_s.append(delay)
            record.state = RETRYING
            return delay
        record.state = QUARANTINED
        record.quarantine_reason = reason
        return None

    def run_inline(self, pending: list[int]) -> None:
        for index in pending:
            self.records[index].state = RUNNING
            started = time.monotonic()
            try:
                outcome = self.kind.worker(self.specs[index])
            except KeyboardInterrupt:
                raise CampaignInterrupted(self.report) from None
            self.succeed(index, 1, started, outcome)

    def run_workers(self, pending: list[int], jobs: int) -> None:
        """Run ``pending`` on up to ``jobs`` persistent worker processes."""
        deadline_s = self.policy.deadline_s if self.policy else None
        ready = [(0.0, index, 1) for index in pending]  # sorted: a heap
        slots: list[Optional[_Worker]] = [None] * min(jobs, len(pending))
        try:
            while ready or any(w and w.busy for w in slots):
                now = time.monotonic()
                for n, worker in enumerate(slots):
                    if not ready or ready[0][0] > now:
                        break
                    if worker is None:
                        worker = slots[n] = _Worker.spawn(self.kind.worker)
                    if not worker.busy:
                        _, index, attempt = heapq.heappop(ready)
                        self.records[index].state = RUNNING
                        worker.assign(index, attempt, self.specs[index],
                                      deadline_s)

                # sleep until a worker reports, the next watchdog
                # deadline, or the next backoff expiry
                busy = [w for w in slots if w and w.busy]
                waits = [w.deadline - now for w in busy
                         if w.deadline is not None]
                if ready and len(busy) < len(slots):
                    waits.append(ready[0][0] - now)
                timeout = max(0.0, min(waits)) if waits else None
                if busy:
                    wait_ready([w.conn for w in busy]
                               + [w.proc.sentinel for w in busy], timeout)
                elif timeout:
                    time.sleep(timeout)

                now = time.monotonic()
                for n, worker in enumerate(slots):
                    message = (worker.collect(now) if worker and worker.busy
                               else None)
                    if message is None:
                        continue
                    index, attempt = worker.index, worker.attempt
                    worker.index = None
                    if message[0] == OK:
                        self.succeed(index, attempt, worker.started,
                                     message[1])
                        continue
                    worker.kill()
                    slots[n] = None
                    outcome, exception, digest, detail, error, text = message
                    record = self.records[index]
                    record.attempts.append(Attempt(
                        number=attempt, outcome=outcome,
                        duration_s=now - worker.started, exception=exception,
                        traceback_digest=digest, detail=detail))
                    if self.policy is None:
                        if error is None:
                            error = RuntimeError(
                                f"{record.label}: {exception}: {detail}")
                        raise error from (RemoteTraceback(text) if text
                                          else None)
                    delay = self.retry_delay(record)
                    if delay is not None:
                        heapq.heappush(ready, (now + delay, index,
                                               attempt + 1))
        except KeyboardInterrupt:
            raise CampaignInterrupted(self.report) from None
        finally:
            for worker in slots:
                if worker is not None:
                    worker.kill()


def execute_tasks(
    specs: Sequence[Any],
    kind: TaskKind,
    *,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    policy: Optional[RetryPolicy] = None,
    report: Optional[CampaignReport] = None,
) -> list[Any]:
    """Run ``kind.worker`` over ``specs``; results in spec order.

    With a cache, each spec is first looked up under ``kind.key(spec)``;
    hits are decoded from disk, misses are executed and encoded back.
    With no ``policy`` and one job the tasks run inline — the reference
    path the determinism guard compares against.  Otherwise they run in
    worker processes; under a ``policy`` a quarantined task's slot comes
    back ``None`` (degrade, don't abort: the rest of the grid completes).

    When the host has no spare core for the requested worker count
    (``os.cpu_count() <= jobs``), workers cannot beat one-at-a-time
    execution — startup and pickling are pure overhead on a saturated
    CPU (a 1-core host ran the old pool at ~0.55x serial) — so ``jobs``
    drops to 1 and the report notes it.  Results are identical either
    way; that is the determinism contract.
    """
    if cache is not None and None in (kind.key, kind.encode, kind.decode):
        raise ValueError("a cache requires the kind's key, encode and "
                         "decode")
    jobs = resolve_jobs(jobs)
    if report is None:
        report = CampaignReport()
    if jobs > 1:
        cores = os.cpu_count() or 1
        if cores <= jobs:
            report.notes.append(f"{jobs} jobs would oversubscribe "
                                f"{cores} core(s), ran 1 at a time")
            jobs = 1
    report.jobs = jobs
    campaign = _Campaign(specs, kind, cache, policy, report)
    pending = campaign.replay()
    if policy is None and (jobs == 1 or len(pending) <= 1):
        campaign.run_inline(pending)
    else:
        campaign.run_workers(pending, jobs)
    return campaign.outcomes


def assert_fanout_deterministic(
    specs: Sequence[Any],
    kind: TaskKind,
    digest_of: Callable[[Any], str],
    *,
    jobs: int = 2,
) -> list[str]:
    """The determinism guard: run ``specs`` inline *and* on ``jobs``
    worker processes, compare per-task run digests, and raise
    :class:`DeterminismError` on the first divergence.  Returns the
    (verified) digests.
    """
    serial = [digest_of(o) for o in execute_tasks(specs, kind)]
    # straight to the worker loop: the oversubscription clamp must not
    # turn the parallel leg inline on a small host
    campaign = _Campaign(specs, kind, None, None, CampaignReport())
    campaign.run_workers(campaign.replay(), jobs)
    fanned = [digest_of(o) for o in campaign.outcomes]
    for i, (a, b) in enumerate(zip(serial, fanned)):
        if a != b:
            raise DeterminismError(
                f"task {i}: serial digest {a[:16]}... != "
                f"parallel digest {b[:16]}... (jobs={jobs}) — "
                f"spec {specs[i]!r}"
            )
    return serial
