"""The false-positive chaos suite: grid mechanics, the clean-fabric
zero-FP invariant, determinism (serial == parallel digests), and cache
replay."""

from __future__ import annotations

import pytest

from repro.topology.clos import two_pod_params
from repro.harness.cache import ResultCache
from repro.harness.chaos import (
    CHAOS_POINT,
    ChaosPointSpec,
    chaos_point_key,
    chaos_specs,
    clean_fabric_violations,
    false_positive_thresholds,
    run_chaos_point,
    run_chaos_suite,
    summarize,
)
from repro.harness.parallel import CampaignReport, assert_fanout_deterministic
from repro.stacks import resolve_spec


def _spec(stack="mtp", loss=0.1, **kwargs):
    kwargs.setdefault("window_ms", 1500)
    kwargs.setdefault("traffic_count", 200)
    return ChaosPointSpec(params=two_pod_params(),
                          stack=resolve_spec(stack, None), seed=0,
                          loss=loss, **kwargs)


# ----------------------------------------------------------------------
# single points
# ----------------------------------------------------------------------
@pytest.mark.parametrize("stack", ["mtp", "bgp-bfd"])
def test_clean_fabric_has_zero_false_positives(stack):
    """Loss 0.0 is the suite's control row: a healthy fabric must never
    false-flag, flap, or churn on any stack."""
    result = run_chaos_point(_spec(stack, loss=0.0)).result
    assert result.false_positives == 0
    assert result.flaps == 0
    assert result.route_churn == 0
    assert result.goodput == 1.0


def test_lossy_link_false_flags_quick_to_detect():
    """At 10% loss MR-MTP's one-missed-hello detector false-flags the
    healthy neighbour during the quiet window and pays route churn."""
    result = run_chaos_point(_spec("mtp", loss=0.1, window_ms=3000)).result
    assert result.detections >= result.false_positives > 0
    assert result.flaps > 0
    assert result.route_churn > 0
    assert 0.0 < result.goodput < 1.0


def test_bfd_detect_mult_rides_out_the_same_loss():
    result = run_chaos_point(
        _spec("bgp-bfd", loss=0.1, window_ms=3000)).result
    assert result.false_positives == 0
    assert result.flaps == 0


# ----------------------------------------------------------------------
# grid mechanics and analysis
# ----------------------------------------------------------------------
def test_chaos_specs_expand_stack_major():
    specs = chaos_specs(two_pod_params(), ["mtp", "bgp-bfd"],
                        rates=(0.0, 0.1), seed=3)
    assert [(s.stack.name, s.loss) for s in specs] == [
        ("mtp", 0.0), ("mtp", 0.1), ("bgp-bfd", 0.0), ("bgp-bfd", 0.1)]
    assert all(s.seed == 3 for s in specs)
    # every grid point gets its own cache identity
    assert len({chaos_point_key(s) for s in specs}) == 4


def test_key_depends_on_loss_and_window():
    base = _spec("mtp", loss=0.1)
    assert chaos_point_key(base) == chaos_point_key(_spec("mtp", loss=0.1))
    assert chaos_point_key(base) != chaos_point_key(_spec("mtp", loss=0.2))
    assert chaos_point_key(base) != chaos_point_key(
        _spec("mtp", loss=0.1, window_ms=2500))


def test_threshold_and_violation_analysis():
    from repro.harness.chaos import ChaosResult

    def r(stack, loss, fp):
        return ChaosResult(stack=stack, loss=loss, seed=0, window_ms=1,
                           impaired_link=("t", "a"), false_positives=fp)

    results = [r("mtp", 0.0, 0), r("mtp", 0.05, 2), r("mtp", 0.1, 7),
               r("bgp-bfd", 0.0, 0), r("bgp-bfd", 0.1, 0)]
    assert false_positive_thresholds(results) == {"mtp": 0.05,
                                                  "bgp-bfd": None}
    assert clean_fabric_violations(results) == []
    results.append(r("bgp-bfd", 0.0, 1))
    assert len(clean_fabric_violations(results)) == 1
    text = summarize(results)
    assert "false-positive threshold at loss >= 0.05" in text
    assert "bgp-bfd: no false positives" not in text  # violation row kills it


# ----------------------------------------------------------------------
# determinism and cache replay
# ----------------------------------------------------------------------
def test_chaos_digests_serial_vs_parallel():
    specs = chaos_specs(two_pod_params(), ["mtp"], rates=(0.0, 0.1),
                        window_ms=1500, traffic_count=200)
    digests = assert_fanout_deterministic(specs, CHAOS_POINT,
                                          lambda o: o.digest, jobs=2)
    assert len(set(digests)) == len(specs)  # distinct points, distinct runs


def test_chaos_suite_replays_from_cache(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    kwargs = dict(rates=(0.0, 0.1), window_ms=1500, traffic_count=200,
                  cache=cache)
    first = CampaignReport()
    a = run_chaos_suite(two_pod_params(), ["mtp"], report=first, **kwargs)
    second = CampaignReport()
    b = run_chaos_suite(two_pod_params(), ["mtp"], report=second, **kwargs)
    assert first.executed == 2 and first.cached == 0
    assert second.executed == 0 and second.cached == 2
    assert [o.digest for o in a] == [o.digest for o in b]
    assert [o.result for o in a] == [o.result for o in b]
