"""Fluid workload evaluation against a deployed stack's forwarding state.

The engine replaces per-packet simulation with flow-level (fluid)
evaluation, FatPaths-style: each flow's path is resolved hop by hop
through the stack's *actual* forwarding state (the same candidate sets
and keyed ECMP hash the data plane and ``pathtrace`` use, via the
:meth:`~repro.stacks.Deployment.fluid_candidates` hook), link shares
are solved with the max-min waterfall in :mod:`repro.workload.fluid`,
and per-flow bytes are settled epoch by epoch.

**Epochs.** Simulated time is partitioned at route-change boundaries:
the compiler marks an epoch right after every scheduled fault action,
and a periodic sampler (``spec.epoch_ms``) marks one whenever the
forwarding tables changed since the last capture — so a fault's
pre-detection blackhole and the post-convergence reroute both reshape
the allocation mid-run.  Within an epoch, paths and rates are constant;
a flow delivers ``rate x overlap x survival`` bytes, where survival is
the product of ``(1 - expected loss)`` over its links' impairments.

**Attribution.** Every injected byte lands in exactly one bucket:
*delivered* (reached the sink), *dropped* (lost to link impairments
along a complete path), or *blackholed* (the flow's path dead-ends —
no candidate port, a downed egress, a cut cable, or a routing loop —
and the source keeps injecting at its max-min share on the partial
path).  ``offered == delivered + dropped + blackholed`` holds for every
epoch by construction; the Hypothesis property test holds the
accounting code to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

import numpy as np

from repro.sim.units import MILLISECOND, SECOND
from repro.stack.ipv4 import PROTO_UDP
from repro.harness.metrics import nearest_rank_percentile
from repro.harness.pathtrace import access_uplink
from repro.routing.ecmp import PACKED_KEY_BYTES, ecmp_digests
from repro.workload.fluid import FluidProblem, link_loads, max_min_rates
from repro.workload.spec import WorkloadSpec
from repro.workload.synth import FlowSet, synthesize

# a routing loop is a blackhole with extra steps: cap the walk like the
# per-packet tracer does (repro.harness.pathtrace.MAX_HOPS)
MAX_FLUID_HOPS = 32


@dataclass
class EpochRecord:
    """Byte conservation ledger for one solve epoch."""

    start_us: int
    end_us: int
    offered: float
    delivered: float
    dropped: float
    blackholed: float

    def conservation_error(self) -> float:
        """Relative byte-accounting error (0.0 is perfect)."""
        total = self.delivered + self.dropped + self.blackholed
        scale = max(self.offered, total, 1.0)
        return abs(self.offered - total) / scale


@dataclass
class WorkloadReport:
    """Aggregate verdict of one fluid evaluation (the cacheable row)."""

    workload: str
    matrix: str
    flows: int
    completed_flows: int
    blackholed_flows: int      # unfinished because their path dead-ended
    offered_bytes: int
    delivered_bytes: int
    dropped_bytes: int
    blackholed_bytes: int
    goodput_bps: int
    fct_p50_us: int            # -1 when no flow completed
    fct_p99_us: int
    fct_max_us: int
    max_blackhole_us: int      # widest per-flow blackhole window
    blackhole_flow_count: int  # flows that saw any blackhole time
    peak_link_utilization: float
    hot_links: list[list[Any]] = field(default_factory=list)
    epochs: int = 1
    epoch_records: list[list[int]] = field(default_factory=list)
    max_conservation_error: float = 0.0

    def to_payload(self) -> dict:
        return {
            "workload": self.workload,
            "matrix": self.matrix,
            "flows": self.flows,
            "completed_flows": self.completed_flows,
            "blackholed_flows": self.blackholed_flows,
            "offered_bytes": self.offered_bytes,
            "delivered_bytes": self.delivered_bytes,
            "dropped_bytes": self.dropped_bytes,
            "blackholed_bytes": self.blackholed_bytes,
            "goodput_bps": self.goodput_bps,
            "fct_p50_us": self.fct_p50_us,
            "fct_p99_us": self.fct_p99_us,
            "fct_max_us": self.fct_max_us,
            "max_blackhole_us": self.max_blackhole_us,
            "blackhole_flow_count": self.blackhole_flow_count,
            "peak_link_utilization": self.peak_link_utilization,
            "hot_links": [list(h) for h in self.hot_links],
            "epochs": self.epochs,
            "epoch_records": [list(r) for r in self.epoch_records],
            "max_conservation_error": self.max_conservation_error,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "WorkloadReport":
        return cls(**{k: payload[k] for k in (
            "workload", "matrix", "flows", "completed_flows",
            "blackholed_flows", "offered_bytes", "delivered_bytes",
            "dropped_bytes", "blackholed_bytes", "goodput_bps",
            "fct_p50_us", "fct_p99_us", "fct_max_us", "max_blackhole_us",
            "blackhole_flow_count", "peak_link_utilization", "hot_links",
            "epochs", "epoch_records", "max_conservation_error")})


def _expected_loss(impairment) -> float:
    """Steady-state drop probability of one impaired link direction:
    independent loss, corrupt (dropped at the receiving MAC) and the
    Gilbert–Elliott chain's stationary bad-state loss, composed."""
    if impairment is None:
        return 0.0
    profile = impairment.profile
    survive = (1.0 - profile.loss) * (1.0 - profile.corrupt)
    if profile.ge_p > 0.0 and profile.ge_p + profile.ge_r > 0.0:
        pi_bad = profile.ge_p / (profile.ge_p + profile.ge_r)
        survive *= 1.0 - pi_bad * profile.ge_loss_bad
    return min(max(1.0 - survive, 0.0), 1.0)


class FluidWorkload:
    """One workload bound to one built, converged fabric.

    Lifecycle: :meth:`start` at the workload's simulated start time,
    :meth:`mark_epoch` at every route-change boundary (the scenario
    compiler schedules these; the built-in sampler adds table-change
    driven ones), :meth:`finish` at measurement end, then
    :meth:`report`.
    """

    def __init__(self, spec: WorkloadSpec, topo, deployment,
                 flows: Optional[FlowSet] = None, monitor=None) -> None:
        self.spec = spec
        self.topo = topo
        self.deployment = deployment
        self.monitor = monitor   # optional InvariantMonitor, checked per epoch
        self.sim = topo.world.sim
        if flows is None:
            flows = synthesize(spec, topo.rack_endpoints(), topo.world.rng)
        self.flows = flows
        n = len(flows)

        # directed-link registry: (node, iface) -> id, capacity, loss
        self._link_ids: dict[tuple[str, str], int] = {}
        self._link_refs: list[tuple[str, str]] = []
        self._capacity: list[float] = []

        # per-flow constants
        self._packed_keys = self._pack_flow_keys()
        self._src_tor = flows.host_tor[flows.src]
        self._dst_tor = flows.host_tor[flows.dst]
        self._src_access, self._dst_access = self._access_links()
        # (router salt, rack pair) -> (flow ids, their raw ECMP
        # digests): a digest depends only on the flow's 5-tuple and the
        # salt, so it outlives every route change
        self._digest_cache: dict[tuple[int, int],
                                 tuple[np.ndarray, np.ndarray]] = {}

        # per-flow running state
        self.remaining = flows.size_bytes.astype(np.float64)
        self.arrival_abs = np.zeros(n, dtype=np.int64)
        self.fct_end = np.full(n, -1.0)
        self.flow_blackhole_us = np.zeros(n, dtype=np.int64)
        self.delivered = 0.0
        self.dropped = 0.0
        self.blackholed = 0.0
        # goodput numerator/denominator: only bytes that landed *inside*
        # the settled measurement window count — the drain's forced tail
        # completion must not launder a blackhole pause into goodput
        self._settled_delivered = 0.0
        self._window_end_us = 0
        self.epoch_records: list[EpochRecord] = []
        self._peak_util = np.zeros(0)

        self._started = False
        self._finished = False
        self._start_us = 0
        self._epoch_start = 0
        self._problem: Optional[FluidProblem] = None
        self._blackholed_now = np.zeros(n, dtype=bool)
        self._surv: Optional[np.ndarray] = None
        self._table_marks: Optional[dict] = None

    # ------------------------------------------------------------------
    # link registry
    # ------------------------------------------------------------------
    def _link_id(self, node: str, iface_name: str) -> int:
        key = (node, iface_name)
        ident = self._link_ids.get(key)
        if ident is None:
            ident = len(self._link_refs)
            self._link_ids[key] = ident
            self._link_refs.append(key)
            link = self.topo.node(node).interfaces[iface_name].link
            self._capacity.append(link.bandwidth_bps / 8.0)  # bytes/sec
        return ident

    def _link_losses(self) -> np.ndarray:
        """Current expected drop probability per registered directed
        link (re-read every epoch: impairments come and go)."""
        losses = np.zeros(len(self._link_refs))
        for ident, (node, iface_name) in enumerate(self._link_refs):
            iface = self.topo.node(node).interfaces[iface_name]
            if iface.link is not None:
                losses[ident] = _expected_loss(iface.link.impairment(iface))
        return losses

    def link_name(self, ident: int) -> str:
        node, iface_name = self._link_refs[ident]
        return f"{node}:{iface_name}"

    # ------------------------------------------------------------------
    # per-flow constants
    # ------------------------------------------------------------------
    def _pack_flow_keys(self) -> bytes:
        """Every flow's FlowKey.pack() bytes, concatenated — the exact
        22-byte layout ecmp_hash consumes, built vectorized."""
        flows = self.flows
        addr = np.array(
            [self.topo.server_address(h).value for h in flows.hosts],
            dtype=np.uint64)
        rec = np.zeros(len(flows), dtype=np.dtype(
            [("src", "<u8"), ("dst", "<u8"), ("proto", "<u2"),
             ("sp", "<u2"), ("dp", "<u2")]))
        rec["src"] = addr[flows.src]
        rec["dst"] = addr[flows.dst]
        rec["proto"] = PROTO_UDP
        rec["sp"] = flows.src_port.astype(np.uint16)
        rec["dp"] = flows.dst_port.astype(np.uint16)
        assert rec.itemsize == PACKED_KEY_BYTES
        return rec.tobytes()

    def _access_links(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-flow first and last directed link: source host uplink
        and destination ToR's rack-facing downlink."""
        up_of_host = np.empty(len(self.flows.hosts), dtype=np.int32)
        down_of_host = np.empty(len(self.flows.hosts), dtype=np.int32)
        for h, host in enumerate(self.flows.hosts):
            host_if, tor_if = access_uplink(self.topo, host)
            up_of_host[h] = self._link_id(host, host_if.name)
            down_of_host[h] = self._link_id(tor_if.node.name, tor_if.name)
        return (up_of_host[self.flows.src], down_of_host[self.flows.dst])

    # ------------------------------------------------------------------
    # path resolution (one forwarding-state capture)
    # ------------------------------------------------------------------
    def _resolve(self) -> None:
        """Capture forwarding state *now*: walk every flow's path
        through the deployment's live candidate sets and rebuild the
        flow->link CSR the next solve uses."""
        flows = self.flows
        n = len(flows)
        memo: dict[tuple[str, str, Optional[str]], tuple] = {}
        blackholed = np.zeros(n, dtype=bool)
        seg_flows: list[np.ndarray] = [np.arange(n, dtype=np.int32)]
        seg_links: list[np.ndarray] = [self._src_access]

        def candidates(node: str, dst_tor: str, ingress: Optional[str]):
            key = (node, dst_tor, ingress)
            entry = memo.get(key)
            if entry is None:
                salt, spray, ports = self.deployment.fluid_candidates(
                    node, dst_tor, ingress)
                expanded = []
                topo_node = self.topo.node(node)
                for port in ports:
                    iface = topo_node.interfaces[port]
                    if not iface.admin_up or iface.link is None:
                        # the frame never leaves this node
                        expanded.append((None, None, None))
                        continue
                    link = self._link_id(node, port)
                    peer = iface.peer()
                    if peer is None or not peer.admin_up:
                        # crosses the wire, dropped at the far MAC
                        expanded.append((link, None, None))
                        continue
                    expanded.append((link, peer.node.name, peer.name))
                entry = (salt, spray, tuple(expanded))
                memo[key] = entry
            return entry

        # flows grouped by (src rack, dst rack) share the whole walk
        # tree; per-flow work happens only at genuine ECMP branch points
        n_tors = len(flows.tors)
        pair = self._src_tor.astype(np.int64) * n_tors + self._dst_tor
        order = np.argsort(pair, kind="stable").astype(np.int32)
        boundaries = np.flatnonzero(np.diff(pair[order])) + 1
        groups = np.split(order, boundaries)

        for group in groups:
            f0 = int(group[0])
            group_pair = int(pair[f0])
            src_tor = flows.tors[int(self._src_tor[f0])]
            dst_tor = flows.tors[int(self._dst_tor[f0])]
            if src_tor == dst_tor:
                continue  # intra-rack: access links only
            stack = [(src_tor, None, 0, group)]
            while stack:
                node, ingress, depth, idx = stack.pop()
                if node == dst_tor:
                    continue
                if depth >= MAX_FLUID_HOPS:
                    blackholed[idx] = True  # routing loop
                    continue
                salt, spray, entries = candidates(node, dst_tor, ingress)
                if not entries:
                    blackholed[idx] = True  # no candidate port at all
                    continue
                if len(entries) == 1:
                    parts = [idx]
                elif spray:
                    # per-packet spray approximated fluidly: flows spread
                    # round-robin by flow id (even split, deterministic)
                    choice = idx % len(entries)
                    parts = [idx[choice == c] for c in range(len(entries))]
                else:
                    # the genuine keyed ECMP hash: the cached raw digest
                    # taken modulo *today's* candidate count
                    m = len(entries)
                    out = self._digests(salt, group_pair, idx) \
                        % np.uint64(m)
                    parts = [idx[out == c] for c in range(m)]
                for entry, part in zip(entries, parts):
                    if len(part) == 0:
                        continue
                    link, peer_node, peer_iface = entry
                    if link is not None:
                        seg_flows.append(part)
                        seg_links.append(np.full(len(part), link,
                                                 dtype=np.int32))
                    if peer_node is None:
                        blackholed[part] = True
                    else:
                        stack.append((peer_node, peer_iface, depth + 1,
                                      part))

        routed = np.flatnonzero(~blackholed)
        seg_flows.append(routed)
        seg_links.append(self._dst_access[routed])

        rep_flow = np.concatenate(seg_flows)
        rep_link = np.concatenate(seg_links)
        csr_order = np.argsort(rep_flow, kind="stable")
        flow_links = rep_link[csr_order]
        counts = np.bincount(rep_flow, minlength=n)
        flow_ptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(counts, out=flow_ptr[1:])

        self._problem = FluidProblem(
            capacity=np.asarray(self._capacity, dtype=np.float64),
            flow_links=flow_links, flow_ptr=flow_ptr)
        self._blackholed_now = blackholed

        # per-flow survival under the current impairments
        losses = self._link_losses()
        log_surv = np.log1p(-np.minimum(losses, 1.0 - 1e-12))
        sums = np.add.reduceat(log_surv[flow_links], flow_ptr[:-1])
        sums[counts == 0] = 0.0
        self._surv = np.exp(sums)
        self._surv[blackholed] = 0.0

        self._table_marks = self._forwarding_marks()
        if self.monitor is not None:
            # every forwarding-state capture is an invariant-check
            # instant: the monitor sees exactly the states flows ride
            self.monitor.check()

    def _digests(self, salt: int, pair: int,
                 idx: np.ndarray) -> np.ndarray:
        """Raw ECMP digests (``uint64``, aligned with ``idx``) of the
        flows ``idx`` of rack pair ``pair`` at a router hashing with
        ``salt``.  The ``(salt, pair)`` cache entry is reused only when
        the same flow ids reach the branch point again; any other set
        is hashed afresh and replaces the entry."""
        key = (salt, pair)
        entry = self._digest_cache.get(key)
        if entry is not None and np.array_equal(entry[0], idx):
            return entry[1]
        digests = ecmp_digests(self._packed_keys, idx, salt)
        self._digest_cache[key] = (idx, digests)
        return digests

    def _forwarding_marks(self):
        """Current forwarding-state version.  Prefers the deployment's
        ``route_generation`` (which also counts liveness transitions —
        graceful restart changes forwarding without a table write);
        falls back to per-table change counters."""
        gen = getattr(self.deployment, "route_generation", None)
        if gen is not None:
            return gen()
        tables = self.deployment.forwarding_tables()
        return {name: getattr(t, "change_count", 0)
                for name, t in tables.items()}

    def _tables_changed(self) -> bool:
        return self._forwarding_marks() != self._table_marks

    # ------------------------------------------------------------------
    # epoch lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Open epoch 0 at the current simulated time and arm the
        table-change sampler."""
        if self._started:
            raise RuntimeError("workload already started")
        self._started = True
        self._start_us = self.sim.now
        self._epoch_start = self.sim.now
        self.arrival_abs = self._start_us + self.flows.arrival_us
        self._resolve()
        self.sim.schedule_after(self.spec.epoch_ms * MILLISECOND,
                                self._sample)

    def mark_epoch(self) -> None:
        """Close the running epoch at the current simulated time and
        re-capture forwarding state — the route-change boundary."""
        if not self._started or self._finished:
            return
        now = self.sim.now
        if now > self._epoch_start:
            self._settle(now)
        self._epoch_start = now
        self._resolve()

    def _sample(self) -> None:
        if self._finished:
            return
        if self._tables_changed():
            self.mark_epoch()
        self.sim.schedule_after(self.spec.epoch_ms * MILLISECOND,
                                self._sample)

    def finish(self) -> WorkloadReport:
        """Close the last epoch at the current simulated time, drain
        the unfinished flows at their final rates, and report."""
        if not self._started:
            raise RuntimeError("workload never started")
        if self._finished:
            return self.report()
        self._finished = True
        now = max(self.sim.now, self._epoch_start)
        if now > self._epoch_start:
            self._settle(now)
        self._drain(now)
        return self.report()

    # ------------------------------------------------------------------
    # settlement
    # ------------------------------------------------------------------
    def _solve(self, active: np.ndarray) -> np.ndarray:
        return max_min_rates(self._problem, active)

    def _settle(self, t_end: int) -> None:
        """Account bytes for [epoch_start, t_end) at max-min rates."""
        t0 = self._epoch_start
        active = (self.remaining > 0) & (self.arrival_abs < t_end)
        record = EpochRecord(start_us=t0, end_us=t_end, offered=0.0,
                             delivered=0.0, dropped=0.0, blackholed=0.0)
        if active.any():
            rate = self._solve(active)
            start_eff = np.maximum(t0, self.arrival_abs)
            overlap = np.maximum(t_end - start_eff, 0) * active
            seconds = overlap / SECOND
            bh = self._blackholed_now
            surv = self._surv

            routed = active & ~bh
            potential = rate * seconds * surv
            before = self.remaining.copy()
            delivered_now = np.where(routed,
                                     np.minimum(potential, before), 0.0)
            injected = np.where(
                surv > 0, delivered_now / np.maximum(surv, 1e-300),
                rate * seconds)
            injected = np.where(routed, injected, 0.0)
            dropped_now = injected - delivered_now
            self.remaining = before - delivered_now

            done = routed & (potential >= before) & (potential > 0)
            with np.errstate(divide="ignore", invalid="ignore"):
                t_done = start_eff + np.where(
                    done, before / np.maximum(rate * surv / SECOND, 1e-300),
                    0.0)
            self.fct_end[done] = t_done[done]

            bh_active = active & bh
            injected_bh = np.where(bh_active, rate * seconds, 0.0)
            self.flow_blackhole_us[bh_active] += overlap[bh_active]

            record.delivered = float(delivered_now.sum())
            record.dropped = float(dropped_now.sum())
            record.blackholed = float(injected_bh.sum())
            record.offered = (record.delivered + record.dropped
                              + record.blackholed)
            self.delivered += record.delivered
            self.dropped += record.dropped
            self.blackholed += record.blackholed
            self._settled_delivered += record.delivered

            loads = link_loads(self._problem, rate * active)
            util = loads / np.maximum(self._problem.capacity, 1e-300)
            if len(util) > len(self._peak_util):
                grown = np.zeros(len(util))
                grown[:len(self._peak_util)] = self._peak_util
                self._peak_util = grown
            np.maximum(self._peak_util, util, out=self._peak_util)
        self.epoch_records.append(record)
        self._window_end_us = t_end

    def _drain(self, t_end: int) -> None:
        """Complete every routed flow that still holds bytes at the
        final forwarding state's rates (the tail past the measurement
        window); blackholed flows never complete."""
        open_flows = (self.remaining > 0) & ~self._blackholed_now \
            & (self._surv > 0)
        if not open_flows.any():
            return
        rate = self._solve(open_flows)
        movable = open_flows & (rate > 0)
        start_eff = np.maximum(t_end, self.arrival_abs)
        surv = self._surv
        before = self.remaining.copy()
        injected = np.where(movable, before / np.maximum(surv, 1e-300),
                            0.0)
        delivered_now = np.where(movable, before, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            t_done = start_eff + np.where(
                movable, before / np.maximum(rate * surv / SECOND, 1e-300),
                0.0)
        self.fct_end[movable] = t_done[movable]
        self.remaining = np.where(movable, 0.0, self.remaining)
        record = EpochRecord(
            start_us=t_end, end_us=t_end,
            offered=float(injected.sum()),
            delivered=float(delivered_now.sum()),
            dropped=float((injected - delivered_now).sum()),
            blackholed=0.0)
        self.delivered += record.delivered
        self.dropped += record.dropped
        self.epoch_records.append(record)

    # ------------------------------------------------------------------
    def report(self) -> WorkloadReport:
        flows = self.flows
        completed = self.fct_end >= 0
        fct = (self.fct_end[completed]
               - self.arrival_abs[completed]).astype(np.int64)
        fct_sorted = np.sort(fct)
        # goodput over the settled measurement window only: bytes a
        # blackhole pushed past the window (delivered by the drain's
        # tail completion) are backlog, not goodput
        window_us = self._window_end_us - self._start_us
        goodput = (self._settled_delivered * 8 * SECOND / window_us
                   if window_us > 0 else 0.0)
        unfinished_bh = int(((self.remaining > 0)
                             & self._blackholed_now).sum())
        hot = []
        if len(self._peak_util):
            top = np.argsort(self._peak_util)[::-1][:3]
            hot = [[self.link_name(int(i)),
                    round(float(self._peak_util[i]), 6)]
                   for i in top if self._peak_util[i] > 0]
        records = [[r.start_us, r.end_us, int(round(r.offered)),
                    int(round(r.delivered)), int(round(r.dropped)),
                    int(round(r.blackholed))] for r in self.epoch_records]
        max_err = max((r.conservation_error()
                       for r in self.epoch_records), default=0.0)
        return WorkloadReport(
            workload=self.spec.name,
            matrix=self.spec.matrix,
            flows=len(flows),
            completed_flows=int(completed.sum()),
            blackholed_flows=unfinished_bh,
            offered_bytes=int(round(self.delivered + self.dropped
                                    + self.blackholed)),
            delivered_bytes=int(round(self.delivered)),
            dropped_bytes=int(round(self.dropped)),
            blackholed_bytes=int(round(self.blackholed)),
            goodput_bps=int(round(goodput)),
            fct_p50_us=nearest_rank_percentile(fct_sorted, 50),
            fct_p99_us=nearest_rank_percentile(fct_sorted, 99),
            fct_max_us=int(fct_sorted[-1]) if len(fct_sorted) else -1,
            max_blackhole_us=int(self.flow_blackhole_us.max())
            if len(flows) else 0,
            blackhole_flow_count=int((self.flow_blackhole_us > 0).sum()),
            peak_link_utilization=round(float(self._peak_util.max()), 6)
            if len(self._peak_util) else 0.0,
            hot_links=hot,
            epochs=len(self.epoch_records),
            epoch_records=records,
            max_conservation_error=max_err,
        )
