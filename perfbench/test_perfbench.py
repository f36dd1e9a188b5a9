"""Tests of the benchmark itself: helpers, wrappers and tiny gated runs.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import harness
import layers
import stats
import tracing
import workloads as wl


# ----------------------------------------------------------------------
# statistics helpers
# ----------------------------------------------------------------------
def test_percentile_returns_value_and_sample_count():
    value, count = stats.percentile(list(range(1001)), 50.0)
    assert (value, count) == (500.0, 1001)
    value, count = stats.percentile([float(i) for i in range(1000)], 99.0)
    assert count == 1000
    assert value == pytest.approx(989.01)


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    stats.percentile(list(range(1000)), 99.0)  # exactly 10 beyond
    with pytest.raises(ValueError, match="beyond"):
        stats.percentile(list(range(999)), 99.0)
    with pytest.raises(ValueError, match="beyond"):
        stats.percentile(list(range(19)), 50.0)


def test_late_window_holds_the_last_tenth_of_completions():
    # 90 completions 10 ms apart, then 10 more one second apart.
    done = [0.01 * i for i in range(90)] + [0.89 + i for i in range(1, 11)]
    # Window: from the 90th completion (0.89 s) to the last (10.89 s).
    count, span = stats.late_window(done)
    assert (count, span) == (10, pytest.approx(10.0))
    assert stats.late_window(list(reversed(done))) == (10, pytest.approx(10.0))
    count, span = stats.late_window([0.5 * i for i in range(200)])
    assert count / span == pytest.approx(2.0)


def test_rounds_pool_into_one_timed_phase():
    def measured(delivered, late, latency_s):
        return harness.Round(
            attempted=delivered, delivered=delivered, duration=10.0,
            late=late, latency=np.full(delivered, latency_s), epsilon=0.5,
            hits=(8, 10), write_s=[], shares={})

    values, unmeasured = harness.end_to_end([
        measured(100, (10, 2.0), 0.010), measured(300, (30, 4.0), 0.030)])
    assert values["throughput_qps"] == 20.0
    assert values["throughput_late_qps"] == pytest.approx(40 / 6.0)
    assert values["throughput_late_ratio"] == pytest.approx(40 / 6.0 / 20.0)
    assert values["latency_p50_ms"] == pytest.approx(30.0)
    assert values["epsilon_per_answer"] == pytest.approx(1.0 / 400)
    assert values["alpha_hit_rate"] == pytest.approx(0.8)
    assert values["success_rate"] == 1.0
    assert "latency_p99_ms" in unmeasured  # 400 samples leave 4 beyond


def test_late_window_needs_enough_completions():
    with pytest.raises(ValueError):
        stats.late_window([0.0, 1.0, 2.0])


def test_decile_growth_and_linear_fit():
    assert stats.decile_growth([1.0] * 10 + [2.0] * 80 + [3.0] * 10) == 3.0
    fixed, slope = stats.linear_fit([1, 2, 3, 4], [2.5, 3.0, 3.5, 4.0])
    assert (fixed, slope) == pytest.approx((2.0, 0.5))


def test_clopper_pearson_upper_bound():
    assert stats.clopper_pearson_upper(10, 10) == 1.0
    upper = stats.clopper_pearson_upper(50, 100, 0.95)
    assert 0.58 < upper < 0.60  # exact one-sided 95% bound is 0.5840
    scipy_stats = pytest.importorskip("scipy.stats")
    for k, n in ((0, 20), (37, 40), (9_000, 10_000)):
        want = scipy_stats.beta.ppf(0.999, k + 1, n - k)
        assert stats.clopper_pearson_upper(k, n) == pytest.approx(want, abs=1e-6)


def test_quartile_spread():
    assert stats.quartile_spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert stats.quartile_spread([1, 2, 3, 4, 5]) == pytest.approx(
        (4.5 - 1.5) / 3)


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def test_quantile_ranges_match_make_workload():
    from repro.analysis.metrics import make_workload

    values = wl.ozone_values()
    for seed, lo, hi in ((3, 0.05, 0.9), (11, 0.02, 0.3)):
        reference = make_workload(values, num_queries=200, seed=seed,
                                  min_selectivity=lo, max_selectivity=hi)
        lows, highs = wl.quantile_ranges(
            values, 200, np.random.default_rng(seed), lo, hi)
        assert list(zip(lows.tolist(), highs.tolist())) == list(reference.ranges)
        assert wl.exact_counts(values, lows, highs).tolist() == list(
            reference.truths)


def test_inputs_are_a_function_of_the_seed():
    params = wl.smoke_params(wl.WORKLOADS["single_fresh"])
    a = wl.gateway_inputs(params, 5, 0.5)[1]
    b = wl.gateway_inputs(params, 5, 0.5)[1]
    c = wl.gateway_inputs(params, 6, 0.5)[1]
    assert np.array_equal(a.lows, b.lows) and np.array_equal(a.tiers, b.tiers)
    assert not np.array_equal(a.lows, c.lows)
    keys = set(zip(a.lows.tolist(), a.highs.tolist(), a.tiers.tolist()))
    assert len(keys) == len(a)  # every fresh request is distinct


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def test_restore_puts_every_original_back():
    tracer = tracing.Tracer()
    tracing.install(tracer)
    patched = list(tracer.patches)
    assert len(patched) >= 25
    for owner, attr, original, _own in patched:
        assert getattr(owner, attr) is not original
    tracer.restore()
    assert tracer.patches == []
    for owner, attr, original, own in patched:
        if own:
            assert vars(owner)[attr] is original
        else:
            assert attr not in vars(owner)
        assert getattr(owner, attr) is original or (
            getattr(owner, attr) == original)


def test_self_time_subtracts_the_union_of_children():
    tracer = tracing.Tracer()
    tracer.spans = [
        (1, "parent", 0.0, 10.0, -1, 0, 0),
        (2, "child", 1.0, 4.0, 1, 0, 0),
        (3, "child", 3.0, 6.0, 1, 0, 0),  # overlaps the first child
    ]
    summary = tracer.self_times()
    assert summary["parent"]["self_s"] == pytest.approx(5.0)
    assert summary["child"]["busy_s"] == pytest.approx(6.0)


# ----------------------------------------------------------------------
# the correctness gate
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_tiny_run_passes_the_gate(workload, tmp_path):
    result = harness.run(workload, seed=3, seconds=1.0, trace=False,
                         smoke=True, root=tmp_path, out_dir=tmp_path)
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert result["provenance"]["smoke"] is True
    assert set(result["metrics"]) == set(harness.END_TO_END)


def test_tiny_traced_run_passes_the_gate(tmp_path):
    result = harness.run("single_hot", seed=3, seconds=2.0, trace=True,
                         smoke=True, root=tmp_path, out_dir=tmp_path)
    assert result["report_only"]["core.replay_busy_s"]["value"] > 0
    assert result["metrics"]["serving.cache_hit_ratio"]["value"] > 0.5
    assert set(result["metrics"]) | set(result["report_only"]) == set(
        layers.UNITS)
    assert not math.isnan(result["metrics"]["trace.overhead_share"]["value"])


def test_gate_catches_drifted_books(tmp_path):
    params = wl.smoke_params(wl.WORKLOADS["single_fresh"])
    warm, timed = wl.gateway_inputs(params, 4, 0.5)
    stack = wl.GatewayStack(params, 4, tmp_path, warm)
    try:
        record = wl.closed_loop(stack.gateway,
                                wl.request_maker(timed), 300, None)
        assert wl.gate_gateway(stack, timed, record) == []
        stack.broker.accountant.charge(wl.DATASET, 1e-6, label="stray")
        problems = wl.gate_gateway(stack, timed, record)
        assert any("epsilon drift" in p for p in problems)
    finally:
        stack.close()


def test_alpha_gate_flags_a_provably_low_hit_rate():
    def releases(values):
        count = len(values)
        return wl.Releases(
            lows=np.zeros(count), highs=np.ones(count),
            alphas=np.full(count, 0.1), deltas=np.full(count, 0.5),
            values=np.asarray(values, dtype=np.float64),
            raws=np.arange(count, dtype=np.float64),
            truths=np.full(count, 100.0), sizes=np.full(count, 1000.0))

    good = releases([100.0 + i % 7 for i in range(200)])
    bad = releases([900.0] * 200)
    assert good.hits().all() and not bad.hits().any()
    assert wl.alpha_gate(good) == []
    assert wl.alpha_gate(bad)
    # Two hundred replays of one missed release are one trial, which
    # cannot show the rate is below δ; two hundred misses could.
    replayed = releases([900.0] * 200)
    replayed.raws[:] = 5.0
    assert wl.alpha_gate(replayed) == []


# ----------------------------------------------------------------------
# process hygiene
# ----------------------------------------------------------------------
def test_stop_children_reaps_workers_and_the_resource_tracker():
    import multiprocessing
    import os
    import time
    from multiprocessing import resource_tracker, shared_memory

    import run

    segment = shared_memory.SharedMemory(create=True, size=16)
    segment.close()
    segment.unlink()
    child = multiprocessing.get_context("spawn").Process(
        target=time.sleep, args=(60,), daemon=True)
    child.start()
    tracker_pid = resource_tracker._resource_tracker._pid
    assert tracker_pid is not None
    run.stop_children()
    assert not child.is_alive()
    assert multiprocessing.active_children() == []
    assert resource_tracker._resource_tracker._pid is None
    with pytest.raises(ProcessLookupError):
        os.kill(tracker_pid, 0)  # exited and reaped, not a zombie
