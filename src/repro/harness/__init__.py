"""Experiment harness.

The simulator-side equivalent of the paper's FABRIC automation suite
[29]: deploy a protocol stack onto a built topology, converge it, inject
interface failures at the paper's test points, monitor update traffic for
convergence, and compute the performance metrics of section V.
"""

from repro.harness.deploy import (
    BgpDeployment,
    MtpDeployment,
    deploy_bgp,
    deploy_mtp,
    deploy_servers,
)
from repro.harness.convergence import ConvergenceMonitor, converge_from_cold
from repro.harness.failures import FailureInjector
from repro.harness.metrics import (
    blast_radius,
    control_overhead_bytes,
    keepalive_overhead,
    snapshot_table_change_counts,
)
from repro.harness.experiments import (
    ExperimentResult,
    StackKind,
    StackSpec,
    StackTimers,
    run_experiment_batch,
    run_failure_experiment,
    run_packet_loss_experiment,
)
from repro.stacks import (
    Deployment,
    StackDefinition,
    available_stacks,
    get_stack,
    register_stack,
    resolve_spec,
)
from repro.harness.cache import ResultCache, default_cache_root, task_key
from repro.harness.digest import run_digest, stable_seed, trace_digest
from repro.harness.parallel import (
    CampaignReport,
    DeterminismError,
    RetryPolicy,
    TaskKind,
    assert_fanout_deterministic,
    execute_tasks,
    resolve_jobs,
)

__all__ = [
    "BgpDeployment",
    "MtpDeployment",
    "deploy_bgp",
    "deploy_mtp",
    "deploy_servers",
    "ConvergenceMonitor",
    "converge_from_cold",
    "FailureInjector",
    "blast_radius",
    "control_overhead_bytes",
    "keepalive_overhead",
    "snapshot_table_change_counts",
    "ExperimentResult",
    "StackKind",
    "StackSpec",
    "StackTimers",
    "Deployment",
    "StackDefinition",
    "available_stacks",
    "get_stack",
    "register_stack",
    "resolve_spec",
    "run_experiment_batch",
    "run_failure_experiment",
    "run_packet_loss_experiment",
    "ResultCache",
    "default_cache_root",
    "task_key",
    "run_digest",
    "stable_seed",
    "trace_digest",
    "CampaignReport",
    "DeterminismError",
    "RetryPolicy",
    "TaskKind",
    "assert_fanout_deterministic",
    "execute_tasks",
    "resolve_jobs",
]
