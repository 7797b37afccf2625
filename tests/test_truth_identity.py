"""The memoized simulated truth reproduces the per-call computation exactly.

The runtime samples device and GPU times as one vector draw per segment
over cached per-node means, and memoizes the bandwidth median, the shared
tracker's utilisation and the endogenous load level.  This file keeps the
straightforward references — one scalar draw per node, a fresh median, a
fresh sum, a freshly built level — and pins two things against them:

- whole systems (a crashing gateway fleet, a batched mixed-SLA exit fleet,
  one device on the Fig. 9 schedule) produce identical records, down to
  their ``repr``, with the references patched in;
- each memo equals its fresh value after every step of a random sequence
  of window mutations and queries (hypothesis).
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.background import LoadLevel, fig9_schedule
from repro.hardware.device_model import DeviceModel, lognormal_factor
from repro.hardware.gpu_model import GpuModel
from repro.network.estimator import BandwidthEstimator
from repro.network.faults import ServerFaultPlan
from repro.network.traces import ConstantTrace
from repro.runtime.batching import BatchingConfig
from repro.runtime.gateway import GatewayConfig, GatewayFleetSystem
from repro.runtime.multi import EndogenousLoad, MultiClientSystem, SharedLoadTracker
from repro.runtime.resilience import ResilienceConfig
from repro.runtime.supervisor import SupervisorConfig
from repro.runtime.system import OffloadingSystem, SystemConfig

# -- references: the per-call computations the memos replace ------------------


def scalar_graph_time(self, profiles, rng, start=0, stop=None):
    sigma = self.params.noise_sigma
    return float(sum(self.mean_time(p) * lognormal_factor(rng, sigma)
                     for p in profiles[start:stop]))


def scalar_kernel_times(self, profiles, rng, start=0, stop=None):
    sigma = self.params.noise_sigma
    return [self.mean_time(p) * lognormal_factor(rng, sigma)
            for p in profiles[start:stop]]


def fresh_estimate(self):
    self._evict(self._last_time_s)
    if not self._window:
        return self._initial
    return float(np.median([s.bandwidth_bps for s in self._window]))


def fresh_utilization(self, now_s):
    self._evict(now_s)
    busy = sum(b for _, b in self._busy)
    return min(busy / self.window_s, 1.0)


def fresh_level_at(self, t):
    util = self.tracker.utilization(t)
    wait = (0.15e-3 + 0.6e-3 * util) / (1.0 - min(util, 0.9))
    return LoadLevel(
        name=f"shared({util * 100:.0f}%)",
        utilization=util,
        contend_prob=min(0.8 * util, 0.8),
        wait_mean_s=wait,
        wait_cv=1.2,
        initial_wait_s=2.0 * util * wait,
    )


REFERENCES = [
    (DeviceModel, "sample_graph_time", scalar_graph_time),
    (GpuModel, "sample_kernel_times", scalar_kernel_times),
    (BandwidthEstimator, "estimate", fresh_estimate),
    (SharedLoadTracker, "utilization", fresh_utilization),
    (EndogenousLoad, "level_at", fresh_level_at),
]


def flatten(result):
    if hasattr(result, "timelines"):
        return [r for timeline in result.timelines for r in timeline]
    return list(result)


def assert_same_as_reference(monkeypatch, run):
    """``run()`` gives the same records with every reference patched in."""
    records = flatten(run())
    calls = {name: 0 for _cls, name, _ref in REFERENCES}

    def counted(name, ref):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return ref(*args, **kwargs)
        return wrapper

    with monkeypatch.context() as m:
        for cls, name, ref in REFERENCES:
            m.setattr(cls, name, counted(name, ref))
        reference = flatten(run())
    assert calls["sample_graph_time"] and calls["sample_kernel_times"]
    assert calls["estimate"]
    assert len(records) == len(reference) > 50
    assert records == reference
    assert repr(records) == repr(reference)
    return calls


class TestSystemsMatchReference:
    def test_crashing_gateway_fleet(self, monkeypatch, squeezenet_engine):
        def run():
            return GatewayFleetSystem(
                squeezenet_engine, 16, num_servers=4,
                bandwidth_trace=ConstantTrace(50e6),
                config=SystemConfig(seed=11, think_time_s=0.6,
                                    resilience=ResilienceConfig(max_retries=2)),
                gateway_config=GatewayConfig(probes=SupervisorConfig(
                    probe_period_s=0.5, dead_after_misses=2)),
                server_faults=[ServerFaultPlan(crash_windows=((2.5, 5.0),)),
                               None, None, None],
            ).run(8.0)

        calls = assert_same_as_reference(monkeypatch, run)
        assert calls["utilization"] and calls["level_at"]

    def test_batched_mixed_sla_exit_fleet(self, monkeypatch, exit_engine_for):
        engine = exit_engine_for("mobilenet_v1")

        def run():
            return MultiClientSystem(
                engine, 12, bandwidth_trace=ConstantTrace(20e6),
                config=SystemConfig(seed=5, think_time_s=0.1,
                                    sla_classes=(0.1, 0.35, None),
                                    batching=BatchingConfig(window_s=0.01),
                                    resilience=ResilienceConfig(max_retries=2)),
            ).run(6.0)

        records = flatten(run())
        assert len({r.exit_index for r in records}) > 1
        assert any(r.batch_size and r.batch_size > 1 for r in records)
        calls = assert_same_as_reference(monkeypatch, run)
        assert calls["utilization"] and calls["level_at"]

    def test_single_device_on_fig9_schedule(self, monkeypatch, squeezenet_engine):
        def run():
            return OffloadingSystem(
                squeezenet_engine, bandwidth_trace=ConstantTrace(8e6),
                load_schedule=fig9_schedule(),
                config=SystemConfig(seed=3),
            ).run(260.0)

        records = flatten(run())
        assert len({r.partition_point for r in records}) > 1
        assert_same_as_reference(monkeypatch, run)


# -- memo invalidation properties ---------------------------------------------

finite_time = st.floats(-5.0, 60.0, allow_nan=False)

estimator_op = st.one_of(
    st.tuples(st.sampled_from(["add_probe", "add_passive", "add_failure"]),
              finite_time,
              st.sampled_from([0, -1, 1, 512, 4096, 10**6]),
              st.one_of(st.floats(1e-4, 2.0),
                        st.sampled_from([0.0, -0.1, math.inf, math.nan]))),
    st.tuples(st.just("reset")),
    st.tuples(st.just("estimate")),
)


class TestMemoInvalidation:
    @settings(max_examples=150, deadline=None)
    @given(window_size=st.integers(1, 5),
           window_s=st.one_of(st.none(), st.floats(0.05, 5.0)),
           ops=st.lists(estimator_op, max_size=40))
    def test_estimate_equals_fresh_median(self, window_size, window_s, ops):
        est = BandwidthEstimator(window_size=window_size, window_s=window_s)
        for op in ops:
            if op[0] == "reset":
                est.reset()
            elif op[0] != "estimate":
                getattr(est, op[0])(*op[1:])
            got = est.estimate()
            assert got == fresh_estimate(est)
            assert est.estimate() == got

    @settings(max_examples=150, deadline=None)
    @given(window_s=st.floats(0.05, 5.0),
           ops=st.lists(st.tuples(st.sampled_from(["record", "utilization", "level_at"]),
                                  finite_time, st.floats(0.0, 3.0)), max_size=40))
    def test_utilization_and_level_equal_fresh(self, window_s, ops):
        tracker, fresh = SharedLoadTracker(window_s), FreshTracker(window_s)
        load, fresh_load = EndogenousLoad(tracker), FreshLoad(fresh)
        for op, time_s, busy_s in ops:
            if op == "record":
                tracker.record(time_s, busy_s)
                fresh.record(time_s, busy_s)
            elif op == "utilization":
                assert tracker.utilization(time_s) == fresh.utilization(time_s)
            else:
                assert load.level_at(time_s) == fresh_load.level_at(time_s)


class FreshTracker(SharedLoadTracker):
    utilization = fresh_utilization


class FreshLoad(EndogenousLoad):
    level_at = fresh_level_at
