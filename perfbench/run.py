"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload failover-bgp --seed 0 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, a table
    python3 perfbench/run.py --write-reference     # re-pin reference.json
    python3 -m pytest perfbench -q                 # the benchmark's tests

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``, measured with no wrappers but the two-call probe;
with ``--trace 1`` they are the per-layer metrics, from a run whose
first and last rounds are untraced (the baselines for digests and for
the tracing overhead) and whose rounds between are traced.  The line
before it is a JSON object describing the run: engine backend, Python
version, CPU count, seed, the workload's parameters, ``error_rate``
and, on loaded workloads, ``flows_per_s``.

Times are CPU seconds of this process (``time.process_time``) per item,
scaled to a reference host speed by a calibration kernel timed between
items (see ``calibrate.py``; the unscaled medians are in the info line).
A run repeats items, each at a seed derived from ``--seed``, until the
next one would end after ``--seconds`` of wall time, and reports
medians over them (for ``measure_s`` and ``items_per_min``, means).
The program is imported from ``src/`` of the checkout this file sits
in, and nowhere else.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"
BENCHMARK = ROOT / "BENCHMARK.json"
ALL = "all"
#: a child run of ``--workload all`` must end within this many seconds
CHILD_TIMEOUT_S = 180

#: per-layer metric -> (end-to-end metric it should move, workload where
#: it does the most work, workload where it is predicted flat)
PREDICTIONS = {
    "harness.converge_s": ("setup_s", "failover-bgp", "load-steady"),
    "harness.reconverge_s": ("measure_s", "failover-bgp", "load-steady"),
    "harness.digest_s": ("measure_s", "failover-bgp", "load-steady"),
    "harness.quiet_timeouts": ("error_rate", "failover-bgp", "load-steady"),
    "topology.build_s": ("setup_s", "failover-mtp", "load-steady"),
    "stacks.deploy_s": ("setup_s", "failover-mtp", "load-steady"),
    "sim.events": ("measure_s", "failover-mtp", "load-steady"),
    "sim.peak_queue_depth": ("peak_rss_mb", "failover-mtp", "load-steady"),
    "sim.trace_records": ("peak_rss_mb", "failover-mtp", "load-steady"),
    "sim.dispatch_self_s": ("measure_s", "failover-mtp", "load-steady"),
    "sim.schedule_self_s": ("measure_s", "failover-mtp", "load-steady"),
    "net.frames_tx": ("measure_s", "failover-mtp", "load-steady"),
    "net.bytes_tx": ("measure_s", "failover-mtp", "load-steady"),
    "net.frames_dropped": ("measure_s", "failover-mtp", "load-steady"),
    "net.transmit_self_s": ("measure_s", "failover-mtp", "load-steady"),
    "wire.size_calls": ("setup_s", "failover-bgp", "load-steady"),
    "wire.size_calls_per_frame": ("setup_s", "failover-bgp", "load-steady"),
    "wire.size_self_s": ("setup_s", "failover-bgp", "load-steady"),
    "bgp.encodes": ("setup_s", "failover-bgp", "failover-mtp"),
    "bgp.encode_self_s": ("setup_s", "failover-bgp", "failover-mtp"),
    "proto.mtp.frames": ("measure_s", "failover-mtp", "failover-bgp"),
    "proto.mtp.handle_self_s": ("measure_s", "failover-mtp", "failover-bgp"),
    "proto.ipv4.frames": ("setup_s", "failover-bgp", "load-steady"),
    "proto.ipv4.handle_self_s": ("setup_s", "failover-bgp", "load-steady"),
    "iputil.tcp_segments": ("setup_s", "failover-bgp", "failover-mtp"),
    "iputil.tcp_self_s": ("setup_s", "failover-bgp", "failover-mtp"),
    "bfd.packets": ("setup_s", "failover-bgp", "failover-mtp"),
    "bgp.callback_self_s": ("setup_s", "failover-bgp", "failover-mtp"),
    "bfd.callback_self_s": ("setup_s", "failover-bgp", "failover-mtp"),
    "proto.mtp.callback_self_s": ("measure_s", "failover-mtp",
                                  "failover-bgp"),
    "iputil.callback_self_s": ("setup_s", "failover-bgp", "failover-mtp"),
    "routing.lookups": ("setup_s", "failover-bgp", "load-steady"),
    "routing.lookup_self_s": ("setup_s", "failover-bgp", "load-steady"),
    "workload.synth_s": ("measure_s", "load-steady", "failover-bgp"),
    "workload.resolves": ("measure_s", "load-faults", "failover-bgp"),
    "workload.resolve_self_s": ("measure_s", "load-steady", "failover-bgp"),
    "workload.solves": ("measure_s", "load-faults", "failover-bgp"),
    "workload.solve_s": ("measure_s", "load-steady", "failover-bgp"),
    "workload.settle_s": ("measure_s", "load-steady", "failover-bgp"),
    "workload.epochs": ("measure_s", "load-faults", "failover-bgp"),
    "workload.flows_completed": ("flows_per_s", "load-steady",
                                 "failover-bgp"),
    "resilience.checks": ("measure_s", "load-faults", "failover-mtp"),
    "resilience.check_s": ("measure_s", "load-faults", "failover-mtp"),
    "scenario.compile_s": ("measure_s", "load-faults", "failover-mtp"),
    "scenario.execute_s": ("measure_s", "load-faults", "failover-mtp"),
    "trace.overhead_s": ("none (traced minus untraced CPU per item)",
                         "failover-bgp", "load-steady"),
}


class ProgramMissing(RuntimeError):
    """The checkout holds no importable program under ``src/``."""


def import_program():
    """Import the program from ``src/`` of this checkout, then the
    benchmark modules that wrap it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise ProgramMissing(f"repro was imported from {repro.__file__}, "
                             f"not from {SRC}")
    import workloads

    return workloads


def metric_units(section: str) -> dict[str, str]:
    with open(BENCHMARK, encoding="utf-8") as src:
        return {m["name"]: m["unit"] for m in json.load(src)[section]}


def plan_rounds(workloads, name: str, seed: int) -> list[list]:
    """The items of each round.  Round ``r`` runs item ``i`` at a seed
    derived from (``seed``, ``r % SUBSEEDS``, ``i``): every item of a run
    is its own draw of the inputs (a failover item's settle phase, drawn
    from its seed, alone moves its CPU time by a third), and a run
    averages over them."""
    from repro.harness.digest import stable_seed

    workload = workloads.WORKLOADS[name]
    names = [item.name for item in workload.items(seed)]
    return [[dataclasses.replace(
                workload.items(stable_seed(name, seed, r, i))[i],
                name=f"{item}#{r}")
             for i, item in enumerate(names)]
            for r in range(workloads.SUBSEEDS)]


def _median_by_item(results, value) -> float:
    """Mean over items of each item's median over its repetitions."""
    by_item: dict = {}
    for result in results:
        by_item.setdefault(result.item, []).append(value(result))
    return statistics.fmean(statistics.median(v) for v in by_item.values())


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Run ``name`` for ``seconds``; returns (result line, info line)."""
    import calibrate
    import workloads
    from repro.sim.engine import default_backend
    from tracer import Probe, Tracer

    workload = workloads.WORKLOADS[name]
    plan = plan_rounds(workloads, name, seed)
    probe = Probe()
    tracer = Tracer() if trace else None
    baseline: list = []   # untraced items of a traced run
    measured: list = []   # the measured items, in the order they ran
    kernel_s: list = []   # host-speed calibrations, untraced runs only

    def untraced_round():
        return [workloads.run_item(item, probe) for item in plan[0]]

    if tracer is not None:
        # a traced run repeats whole rounds of the first input, so its
        # counts repeat exactly; the first untraced round is the digest
        # baseline and warms the process up, the last one is the
        # baseline of the tracing overhead
        width = len(plan[0])
        sequence = itertools.cycle(plan[0])
    else:
        width = 1
        sequence = itertools.cycle([i for rnd in plan for i in rnd])
    probe.install()
    try:
        start = time.perf_counter()
        if tracer is not None:
            baseline += untraced_round()
            tracer.install()
        else:
            kernel_s.append(calibrate.kernel_seconds())
        while True:
            began = time.perf_counter()
            measured.append(workloads.run_item(next(sequence), probe, tracer,
                                               len(measured) + 1))
            if tracer is None:
                kernel_s.append(calibrate.kernel_seconds())
            # start nothing that would end after the deadline
            now = time.perf_counter()
            if (len(measured) % width == 0
                    and now + (now - began) * width > start + seconds):
                break
        if tracer is not None:
            tracer.restore()
            baseline += untraced_round()
    finally:
        if tracer is not None:
            tracer.restore()
        probe.restore()

    # correctness: the pinned reference at its seed; otherwise every
    # repetition of an item must equal its first run (in a traced run:
    # the untraced one)
    every = baseline + measured
    if seed == workloads.PINNED_SEED:
        pinned = workloads.load_reference().get(name, {})
        for result in every:
            workloads.check_against(result, pinned.get(result.item),
                                    "the pinned reference")
    else:
        first_of: dict = {}
        for result in every:
            base = first_of.setdefault(result.item, result)
            if result is not base:
                workloads.check_against(result, base.payload,
                                        "the first repetition")
    attempted = len(every)
    failed = sum(not r.ok for r in every)

    info = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "engine_backend": default_backend(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "params": workload.params, "items": len(measured),
        "item_cpu_s": [r.cpu_s for r in measured],
        "error_rate": failed / attempted,
        "failures": sorted({f"{r.item}: {f}" for r in every
                            for f in r.failures}),
    }
    if tracer is not None:
        untraced_cpu = {r.item: r.cpu_s for r in baseline[len(plan[0]):]}
        values = {"trace.overhead_s": statistics.median(
            r.cpu_s - untraced_cpu[r.item] for r in measured)}
        for metric in PREDICTIONS:
            if metric not in values:
                values[metric] = _median_by_item(
                    measured, lambda r: r.layers[metric])
        by_layer: dict = {}
        for metric, value in values.items():
            if metric.endswith("_self_s"):
                layer = metric.rsplit(".", 1)[0]
                by_layer[layer] = by_layer.get(layer, 0.0) + value
        info["self_s_by_layer"] = dict(sorted(by_layer.items(),
                                              key=lambda kv: -kv[1]))
        info["predictions"] = {m: dict(zip(("moves", "most", "flat"), p))
                               for m, p in PREDICTIONS.items()}
        spans = SPAN_DIR / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(spans, info)
        info["spans"] = str(spans.relative_to(ROOT))
        section = "per_layer"
    else:
        # item k ran between calibrations k and k + 1
        scales = [2 * calibrate.REFERENCE_S / (before + after)
                  for before, after in zip(kernel_s, kernel_s[1:])]

        def scaled(value, average=statistics.median):
            return average([value(r) * k for r, k in zip(measured, scales)])

        values = {
            "setup_s": scaled(lambda r: r.setup_s),
            # a mean: most of its spread between items is the settle
            # phase each item draws, uniform over two keepalive periods,
            # and a mean averages such a spread out better than a median
            "measure_s": scaled(lambda r: r.measure_s, statistics.fmean),
            # correct items per CPU-minute, set-up included: a campaign's
            # throughput, so a ratio of totals
            "items_per_min": 60.0 * sum(r.ok for r in measured)
            / scaled(lambda r: r.cpu_s, sum),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        info["kernel_s"] = kernel_s
        info["unscaled"] = {
            "setup_s": statistics.median(r.setup_s for r in measured),
            "measure_s": statistics.fmean(r.measure_s for r in measured)}
        flows = [report["completed_flows"] for report in
                 (workloads.workload_report(r.payload)
                  for r in measured if r.payload is not None) if report]
        if flows:
            info["flows_per_s"] = statistics.fmean(flows) / values["measure_s"]
        section = "end_to_end"
    metrics = {m: {"value": values[m], "unit": unit}
               for m, unit in metric_units(section).items()}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, info


def run_all(args, names) -> int:
    """Every workload in a child process of its own (peak memory is per
    process), printed as one table."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(command, capture_output=True, text=True,
                               timeout=CHILD_TIMEOUT_S, check=False)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or len(lines) < 2:
            sys.stderr.write(child.stderr)
            print(f"{name}: exited {child.returncode}", file=sys.stderr)
            return 1
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        rows = [(m, v["value"], v["unit"])
                for m, v in result["metrics"].items()]
        rows.append(("error_rate", info["error_rate"], "ratio"))
        if "flows_per_s" in info:
            rows.append(("flows_per_s", info["flows_per_s"], "1/s"))
        for metric, value, unit in rows:
            print(f"{name:<14} {metric:<28} {value:>14.6g} {unit}")
            total["metrics"][f"{name}.{metric}"] = {"value": value,
                                                    "unit": unit}
    print(json.dumps(total))
    return 0


def write_reference(workloads) -> int:
    """Pin every item's payload and digest at the pinned seed."""
    from tracer import Probe

    probe = Probe()
    probe.install()
    try:
        pinned = {name: {item.name: workloads.run_item(item, probe)
                         for rnd in plan_rounds(workloads, name,
                                                workloads.PINNED_SEED)
                         for item in rnd}
                  for name in workloads.WORKLOADS}
    finally:
        probe.restore()
    bad = [f"{name}/{item}: {f}" for name, results in pinned.items()
           for item, r in results.items() for f in r.failures]
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as out:
        json.dump({name: {item: r.payload for item, r in results.items()}
                   for name, results in pinned.items()},
                  out, indent=1, sort_keys=True)
        out.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default=ALL)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if "REPRO_ENGINE_BACKEND" in os.environ:
        print("refusing to run: REPRO_ENGINE_BACKEND is set, so the "
              "numbers would not measure the default program",
              file=sys.stderr)
        return 2
    try:
        workloads = import_program()
    except ProgramMissing as exc:
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference(workloads)
    names = list(workloads.WORKLOADS)
    if args.workload == ALL:
        return run_all(args, names)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(names)}, {ALL}")
    result, info = run_workload(args.workload, args.seed, args.seconds,
                                bool(args.trace))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
