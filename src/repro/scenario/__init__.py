"""Declarative scenario engine: scriptable fault/traffic workloads.

A :class:`Scenario` turns a fault/traffic experiment into data — an
ordered list of timestamped events with symbolic targets — that
serializes to canonical JSON, compiles onto the simulation engine
against any registered stack, and runs through the same cache/parallel
machinery as every other experiment task.  The canonical library ships
ten workloads (``tc1``–``tc4``, ``flap-storm``, ``double-cut``,
``drain``, ``rolling-restart``, ``gray-uplink``, ``lossy-spine``); see
README "Scenarios".
"""

from repro.scenario.model import (
    SCENARIO_SCHEMA,
    Scenario,
    ScenarioError,
    ScenarioEvent,
)
from repro.scenario.targets import TargetResolver
from repro.scenario.compiler import (
    Checkpoint,
    CompiledScenario,
    ScenarioMetrics,
    compile_scenario,
)
from repro.scenario.runner import (
    SCENARIO_RUN,
    ScenarioOutcome,
    ScenarioRunSpec,
    decode_scenario_outcome,
    encode_scenario_outcome,
    run_scenario,
    run_scenario_suite,
    run_scenario_task,
    scenario_suite_specs,
    scenario_task_key,
)
from repro.scenario.library import (
    CANONICAL,
    canonical_scenarios,
    get_scenario,
)

__all__ = [
    "CANONICAL",
    "Checkpoint",
    "CompiledScenario",
    "SCENARIO_RUN",
    "SCENARIO_SCHEMA",
    "Scenario",
    "ScenarioError",
    "ScenarioEvent",
    "ScenarioMetrics",
    "ScenarioOutcome",
    "ScenarioRunSpec",
    "TargetResolver",
    "canonical_scenarios",
    "compile_scenario",
    "decode_scenario_outcome",
    "encode_scenario_outcome",
    "get_scenario",
    "run_scenario",
    "run_scenario_suite",
    "run_scenario_task",
    "scenario_suite_specs",
    "scenario_task_key",
]
