"""The max-min waterfall's invariants (DESIGN §13)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.workload.fluid import FluidProblem, link_loads, max_min_rates


def problem(capacity, paths):
    """Build a FluidProblem from per-flow link-id lists."""
    flow_links = np.concatenate(
        [np.asarray(p, dtype=np.int64) for p in paths]
        or [np.empty(0, dtype=np.int64)])
    flow_ptr = np.zeros(len(paths) + 1, dtype=np.int64)
    np.cumsum([len(p) for p in paths], out=flow_ptr[1:])
    return FluidProblem(capacity=np.asarray(capacity, dtype=np.float64),
                        flow_links=flow_links, flow_ptr=flow_ptr)


def test_equal_share_on_one_link():
    prob = problem([100.0], [[0], [0], [0], [0]])
    rate = max_min_rates(prob)
    assert np.allclose(rate, 25.0)


def test_empty_path_and_inactive_flows_get_zero():
    prob = problem([100.0], [[0], [], [0]])
    rate = max_min_rates(prob, active=np.array([True, True, False]))
    assert rate[1] == 0.0 and rate[2] == 0.0
    assert np.isclose(rate[0], 100.0)  # alone on the link


def test_waterfall_two_bottlenecks():
    """The textbook example: flows A(link0), B(link0+link1), C(link1)
    with capacities 10 and 20: A=B=5 at link0, then C fills link1 to 15."""
    prob = problem([10.0, 20.0], [[0], [0, 1], [1]])
    rate = max_min_rates(prob)
    assert np.allclose(rate, [5.0, 5.0, 15.0])


def test_no_link_oversubscribed_random():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n_links = int(rng.integers(2, 12))
        capacity = rng.uniform(1.0, 100.0, size=n_links)
        paths = [rng.choice(n_links,
                            size=int(rng.integers(1, min(5, n_links + 1))),
                            replace=False)
                 for _ in range(int(rng.integers(1, 40)))]
        prob = problem(capacity, paths)
        rate = max_min_rates(prob)
        assert (rate >= 0).all() and np.isfinite(rate).all()
        assert (rate > 0).all()  # all capacities positive -> all flow
        loads = link_loads(prob, rate)
        assert (loads <= capacity * (1 + 1e-6)).all()


def test_max_min_fairness_property():
    """No flow can be raised without lowering an equal-or-smaller one:
    every flow has a bottleneck link that is saturated and on which it
    holds a maximal rate."""
    rng = np.random.default_rng(11)
    n_links = 8
    capacity = rng.uniform(5.0, 50.0, size=n_links)
    paths = [rng.choice(n_links, size=int(rng.integers(1, 4)),
                        replace=False) for _ in range(30)]
    prob = problem(capacity, paths)
    rate = max_min_rates(prob)
    loads = link_loads(prob, rate)
    for f, path in enumerate(paths):
        saturated = [l for l in path
                     if loads[l] >= capacity[l] * (1 - 1e-6)]
        assert saturated, f"flow {f} has no bottleneck"
        assert any(
            rate[f] >= max(rate[g] for g, p in enumerate(paths)
                           if l in set(p.tolist())) - 1e-6
            for l in saturated), f"flow {f} not maximal on any bottleneck"


def test_deterministic_bit_identical():
    rng = np.random.default_rng(5)
    capacity = rng.uniform(1.0, 10.0, size=6)
    paths = [rng.choice(6, size=2, replace=False) for _ in range(25)]
    prob = problem(capacity, paths)
    a = max_min_rates(prob)
    b = max_min_rates(prob)
    assert a.tobytes() == b.tobytes()


def test_zero_capacity_link_pins_flows_to_zero():
    prob = problem([0.0, 100.0], [[0, 1], [1]])
    rate = max_min_rates(prob)
    assert rate[0] == 0.0
    assert np.isclose(rate[1], 100.0)


def test_empty_problem():
    prob = problem([], [])
    assert len(max_min_rates(prob)) == 0


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_waterfall_invariants_hypothesis(data):
    """Property form: any random problem keeps rates finite and
    non-negative and no link oversubscribed."""
    n_links = data.draw(st.integers(1, 10))
    capacity = data.draw(st.lists(
        st.floats(0.0, 1000.0, allow_nan=False), min_size=n_links,
        max_size=n_links))
    n_flows = data.draw(st.integers(0, 25))
    paths = [
        np.unique(data.draw(st.lists(st.integers(0, n_links - 1),
                                     min_size=1, max_size=4)))
        for _ in range(n_flows)
    ]
    prob = problem(capacity, paths)
    rate = max_min_rates(prob)
    assert (rate >= 0).all() and np.isfinite(rate).all()
    loads = link_loads(prob, rate)
    cap = np.asarray(capacity)
    assert (loads <= cap * (1 + 1e-6) + 1e-9).all()


# ----------------------------------------------------------------------
# the vectorized solver against a frozen copy of its earlier form
# (int64 timsort link->flow order, np.unique freeze set): the narrowed
# index arrays and the radix/mark-and-scan steps must not move a bit
# ----------------------------------------------------------------------
def _reference_multi_arange(starts, lengths):
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(lengths)
    within = np.arange(total, dtype=np.int64) - np.repeat(ends - lengths,
                                                          lengths)
    return np.repeat(starts, lengths) + within


def _reference_max_min_rates(problem, active=None):
    n_flows, n_links = problem.n_flows, problem.n_links
    rate = np.zeros(n_flows, dtype=np.float64)
    if n_flows == 0 or n_links == 0:
        return rate
    flow_ptr = problem.flow_ptr.astype(np.int64)
    flow_links = problem.flow_links.astype(np.int64)
    lengths = np.diff(flow_ptr)
    if active is None:
        active = np.ones(n_flows, dtype=bool)
    live = active & (lengths > 0)
    live_entry = np.repeat(live, lengths)
    entry_flow = np.repeat(np.arange(n_flows, dtype=np.int64), lengths)
    links_live = flow_links[live_entry]
    flows_live = entry_flow[live_entry]
    order = np.argsort(links_live, kind="stable")
    link_flows = flows_live[order]
    counts = np.bincount(links_live, minlength=n_links).astype(np.int64)
    link_ptr = np.zeros(n_links + 1, dtype=np.int64)
    np.cumsum(counts, out=link_ptr[1:])
    remaining = problem.capacity.astype(np.float64).copy()
    unfrozen = counts.copy()
    frozen = ~live
    for _ in range(n_links + 1):
        eligible = unfrozen > 0
        if not eligible.any():
            break
        share = np.full(n_links, np.inf)
        share[eligible] = np.maximum(remaining[eligible], 0.0) \
            / unfrozen[eligible]
        level = share.min()
        bottleneck = np.flatnonzero(eligible & (share <= level + 1e-9
                                                + 1e-9 * level))
        cand = link_flows[_reference_multi_arange(link_ptr[bottleneck],
                                                  counts[bottleneck])]
        newly = np.unique(cand[~frozen[cand]])
        if len(newly) == 0:
            break
        frozen[newly] = True
        rate[newly] = level
        entries = flow_links[_reference_multi_arange(flow_ptr[newly],
                                                     lengths[newly])]
        np.subtract.at(remaining, entries, level)
        unfrozen -= np.bincount(entries, minlength=n_links)
    np.clip(rate, 0.0, None, out=rate)
    rate[~live] = 0.0
    return rate


@pytest.mark.parametrize("index_dtype", [np.int64, np.int32])
def test_solver_bit_identical_to_reference_random(index_dtype):
    rng = np.random.default_rng(2024)
    for trial in range(40):
        n_links = int(rng.integers(1, 300 if trial % 4 == 0 else 16))
        # integer capacities make exact ties (shared water levels) common
        capacity = (rng.integers(0, 20, size=n_links).astype(np.float64)
                    if trial % 2 else rng.uniform(0.0, 100.0, n_links))
        n_flows = int(rng.integers(0, 400))
        paths = [rng.choice(n_links, size=int(rng.integers(
                     0, min(6, n_links) + 1)), replace=False)
                 for _ in range(n_flows)]
        prob = problem(capacity, paths)
        prob = FluidProblem(capacity=prob.capacity,
                            flow_links=prob.flow_links.astype(index_dtype),
                            flow_ptr=prob.flow_ptr.astype(index_dtype))
        active = rng.random(n_flows) < 0.85
        for mask in (None, active):
            got = max_min_rates(prob, mask)
            want = _reference_max_min_rates(prob, mask)
            assert got.tobytes() == want.tobytes(), f"trial {trial}"
