"""Max-min fluid bandwidth allocation: the progressive-filling waterfall.

Given directed-link capacities and each flow's link list (CSR layout),
compute the max-min fair rate vector: raise every flow's rate together
until some link saturates, freeze the flows through it at that link's
fair share, subtract what they consume, repeat.  The classic waterfall
— but vectorized, so a million flows over a few hundred links solve in
seconds, not hours.

Invariants (the ones DESIGN §13 states and the property tests enforce):

* every active flow with at least one link receives a finite rate
  >= 0, and rate > 0 whenever all its links start with capacity > 0;
* no link is over-subscribed: sum of frozen rates through a link never
  exceeds its capacity (beyond float epsilon);
* the allocation is max-min: a flow's rate can only be raised by
  lowering that of a flow with an equal-or-smaller rate.

The solver is pure numpy + deterministic tie-breaking (ties freeze
together within ``_EPS``), so identical inputs give bit-identical rate
vectors on every run — the property the run-digest machinery needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

_EPS = 1e-9


def _multi_arange(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, start+length)`` ranges, vectorized."""
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int32)
    ends = np.cumsum(lengths, dtype=np.int32)
    within = np.arange(total, dtype=np.int32) - np.repeat(ends - lengths,
                                                          lengths)
    return np.repeat(starts, lengths) + within


@dataclass
class FluidProblem:
    """One solve's inputs: link capacities plus flow->link CSR."""

    capacity: np.ndarray    # float64 [L], bytes/sec
    flow_links: np.ndarray  # int32 concatenated link ids, flow-major
    flow_ptr: np.ndarray    # int32 [F+1] CSR offsets into flow_links

    @property
    def n_flows(self) -> int:
        return len(self.flow_ptr) - 1

    @property
    def n_links(self) -> int:
        return len(self.capacity)


def max_min_rates(problem: FluidProblem,
                  active: Optional[np.ndarray] = None) -> np.ndarray:
    """The max-min fair rate vector (bytes/sec, float64 [F]).

    ``active`` masks flows out of the allocation (rate 0, no capacity
    consumed) — the engine uses it for flows that have finished or not
    yet arrived.  Flows with an empty link list get rate 0.
    """
    n_flows, n_links = problem.n_flows, problem.n_links
    rate = np.zeros(n_flows, dtype=np.float64)
    if n_flows == 0 or n_links == 0:
        return rate
    flow_ptr = problem.flow_ptr
    flow_links = problem.flow_links
    lengths = np.diff(flow_ptr)
    if active is None:
        active = np.ones(n_flows, dtype=bool)
    live = active & (lengths > 0)

    # link -> flows CSR (only live flows participate); link ids sort as
    # the narrowest unsigned type that holds them, which puts the
    # stable argsort on numpy's radix path (<= 16-bit keys)
    live_entry = np.repeat(live, lengths)
    entry_flow = np.repeat(np.arange(n_flows, dtype=np.int32), lengths)
    links_live = flow_links[live_entry]
    flows_live = entry_flow[live_entry]
    order = np.argsort(links_live.astype(np.min_scalar_type(n_links - 1)),
                       kind="stable")
    link_flows = flows_live[order]
    counts = np.bincount(links_live, minlength=n_links).astype(np.int64)
    link_ptr = np.zeros(n_links + 1, dtype=np.int64)
    np.cumsum(counts, out=link_ptr[1:])

    remaining = problem.capacity.astype(np.float64).copy()
    unfrozen = counts.copy()   # live, not-yet-frozen flows per link
    frozen = ~live             # inactive flows count as already frozen
    marked = np.zeros(n_flows, dtype=bool)  # scratch: this round's freezes

    for _ in range(n_links + 1):
        eligible = unfrozen > 0
        if not eligible.any():
            break
        share = np.full(n_links, np.inf)
        share[eligible] = np.maximum(remaining[eligible], 0.0) \
            / unfrozen[eligible]
        level = share.min()
        bottleneck = np.flatnonzero(eligible & (share <= level + _EPS
                                                + _EPS * level))
        # flows riding any bottleneck link freeze at the water level
        cand = link_flows[_multi_arange(link_ptr[bottleneck],
                                        counts[bottleneck])]
        # the sorted distinct unfrozen candidates, by mark-and-scan
        marked[cand[~frozen[cand]]] = True
        newly = np.flatnonzero(marked)
        marked[newly] = False
        if len(newly) == 0:
            break  # numerically stuck: everything left is frozen
        frozen[newly] = True
        rate[newly] = level
        # subtract the frozen flows' consumption from every link they
        # cross; each flow is processed exactly once over the whole
        # solve, so total scatter work is O(total path length)
        entries = flow_links[_multi_arange(flow_ptr[newly],
                                           lengths[newly])]
        np.subtract.at(remaining, entries, level)
        unfrozen -= np.bincount(entries, minlength=n_links)

    np.clip(rate, 0.0, None, out=rate)
    rate[~live] = 0.0
    return rate


def link_loads(problem: FluidProblem, rate: np.ndarray) -> np.ndarray:
    """Per-link carried load (bytes/sec [L]) for a rate vector."""
    lengths = np.diff(problem.flow_ptr)
    weights = np.repeat(rate, lengths)
    return np.bincount(problem.flow_links, weights=weights,
                       minlength=problem.n_links)
