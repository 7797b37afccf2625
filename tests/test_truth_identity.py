"""The memoized simulated truth reproduces the per-call computation exactly.

The runtime samples device and GPU times as one vector draw per segment
over cached per-node means, and memoizes the bandwidth median, the shared
tracker's utilisation and the endogenous load level.  The GPU scheduler
works out its wait distribution once per call, the tracker keeps its
window in float deques, and each engine's partitioner builds a point's
partition once, whose segments size themselves once.  This file keeps the
straightforward references — one scalar draw per node, a fresh median, a
fresh sum, a freshly built level, the per-kernel loop, sums over tuples,
a partition built and sized anew on every lookup — and pins three things
against them:

- whole systems (a crashing gateway fleet, a batched mixed-SLA exit fleet,
  one device on the Fig. 9 schedule) produce identical records, down to
  their ``repr``, with the references patched in;
- each memo, window and loop equals its reference after every step of a
  random sequence of mutations and queries (hypothesis);
- every partition of every zoo and exit graph equals a fresh one, and the
  caches sharing it keep their own hit/miss bookkeeping.
"""

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.cache import PartitionCache
from repro.graph.partitioner import GraphPartitioner
from repro.hardware.background import IDLE, LoadLevel, fig9_schedule
from repro.hardware.device_model import DeviceModel, lognormal_factor
from repro.hardware.gpu_model import GpuModel
from repro.hardware.gpu_scheduler import GpuScheduler
from repro.models import EXIT_MODEL_SPECS, list_models
from repro.network.estimator import BandwidthEstimator
from repro.network.faults import ServerFaultPlan
from repro.network.traces import ConstantTrace
from repro.runtime.batching import BatchingConfig
from repro.runtime.gateway import GatewayConfig, GatewayFleetSystem
from repro.runtime.multi import EndogenousLoad, MultiClientSystem, SharedLoadTracker
from repro.runtime.resilience import ResilienceConfig
from repro.runtime.server import PARTITION_OVERHEAD_S, EdgeServer
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
    busy = sum(b for _, b in zip(self._times, self._busy))
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


def scalar_lognormal(rng, mean, cv):
    if mean <= 0:
        return 0.0
    if cv <= 0:
        return mean
    sigma2 = math.log(1.0 + cv * cv)
    mu = math.log(mean) - 0.5 * sigma2
    return float(rng.lognormal(mean=mu, sigma=math.sqrt(sigma2)))


def loop_execute(self, kernel_times, level=IDLE, rng=None):
    if not kernel_times:
        return 0.0
    if level.utilization <= 0.0:
        return float(sum(kernel_times))
    if rng is None:
        raise ValueError("a Generator is required under non-zero load")
    total = 0.0
    if rng.random() < level.utilization**2:
        total += scalar_lognormal(rng, level.initial_wait_s, level.wait_cv)
    slice_left = self.time_slice_s
    for i, kt in enumerate(kernel_times):
        forced_yield = slice_left <= 0.0
        contended = i > 0 and rng.random() < level.contend_prob
        if forced_yield or contended:
            total += scalar_lognormal(rng, level.wait_mean_s, level.wait_cv)
            slice_left = self.time_slice_s
        total += kt
        slice_left -= kt
    return total


def fresh_partition(self, p):
    """A partition built anew on every lookup, so its sizes are walked anew."""
    return GraphPartitioner._build(self, p)


REFERENCES = [
    (DeviceModel, "sample_graph_time", scalar_graph_time),
    (GpuModel, "sample_kernel_times", scalar_kernel_times),
    (BandwidthEstimator, "estimate", fresh_estimate),
    (SharedLoadTracker, "utilization", fresh_utilization),
    (EndogenousLoad, "level_at", fresh_level_at),
    (GpuScheduler, "execute", loop_execute),
    (GraphPartitioner, "partition", fresh_partition),
]


def assert_same_as_reference(monkeypatch, run):
    """``run()`` gives the same records with every reference patched in."""
    records = list(run())
    calls = {name: 0 for _cls, name, _ref in REFERENCES}

    def counted(name, ref):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return ref(*args, **kwargs)
        return wrapper

    with monkeypatch.context() as m:
        for cls, name, ref in REFERENCES:
            m.setattr(cls, name, counted(name, ref))
        reference = list(run())
    assert calls["sample_graph_time"] and calls["sample_kernel_times"]
    assert calls["estimate"] and calls["execute"]
    assert calls["partition"]
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

        records = list(run())
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

        records = list(run())
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


# -- the GPU loop, draw for draw ----------------------------------------------

unit = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
level_strategy = st.builds(
    LoadLevel,
    name=st.just("hyp"),
    utilization=unit,
    contend_prob=unit,
    wait_mean_s=st.one_of(st.just(0.0), st.floats(1e-6, 1e-2)),
    wait_cv=st.one_of(st.just(0.0), st.floats(0.05, 2.0)),
    initial_wait_s=st.one_of(st.just(0.0), st.floats(1e-6, 1e-2)),
)


class TestGpuLoop:
    @settings(max_examples=300, deadline=None)
    @given(kernels=st.lists(st.floats(0.0, 2e-3), max_size=60),
           level=level_strategy,
           # Slices down to a fraction of one kernel force yields.
           time_slice_s=st.one_of(st.floats(1e-6, 1e-3), st.just(2e-3)),
           seed=st.integers(0, 2**32 - 1))
    def test_execute_equals_the_per_kernel_loop(self, kernels, level,
                                                time_slice_s, seed):
        scheduler = GpuScheduler(time_slice_s)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = scheduler.execute(kernels, level, rng)
        want = loop_execute(scheduler, kernels, level, ref_rng)
        assert type(got) is type(want) and repr(got) == repr(want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("kernels", [[], [1e-3]])
    def test_empty_and_single_kernel(self, kernels):
        level = LoadLevel("busy", 1.0, 1.0, 1e-3, 1.0, 1e-3)
        rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        scheduler = GpuScheduler(1e-6)
        assert (scheduler.execute(kernels, level, rng)
                == loop_execute(scheduler, kernels, level, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


# -- the tracker window against a tuple window -----------------------------------


class TupleTracker:
    """The shared tracker over a deque of ``(time, busy)``."""

    def __init__(self, window_s):
        self.window_s, self.busy = window_s, deque()

    def record(self, time_s, busy_s):
        self.busy.append((time_s, busy_s))
        self.evict(time_s)

    def evict(self, now_s):
        while self.busy and self.busy[0][0] < now_s - self.window_s:
            self.busy.popleft()

    def utilization(self, now_s):
        self.evict(now_s)
        return min(sum(b for _, b in self.busy) / self.window_s, 1.0)


# Values where a sum's order shows (0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1),
# utilisations below the cap.
window_op = st.tuples(st.sampled_from(["record", "record", "evict", "query"]),
                      st.floats(0.0, 20.0), st.floats(0.0, 0.5))
ORDER_SHOWS = [("record", 1.0, 0.1), ("record", 1.1, 0.2),
               ("record", 1.2, 0.3), ("query", 1.3, 0.0)]


class TestWindowSums:
    @settings(max_examples=200, deadline=None)
    @given(window_s=st.floats(0.5, 10.0), ops=st.lists(window_op, max_size=60))
    @example(window_s=10.0, ops=ORDER_SHOWS)
    def test_tracker_equals_tuple_window(self, window_s, ops):
        tracker, ref = SharedLoadTracker(window_s), TupleTracker(window_s)
        for op, time_s, busy_s in ops:
            if op == "record":
                tracker.record(time_s, busy_s)
                ref.record(time_s, busy_s)
            elif op == "evict":
                tracker._evict(time_s)
                ref.evict(time_s)
            elif op == "query":
                assert repr(tracker.utilization(time_s)) == repr(ref.utilization(time_s))


# -- shared partitions ----------------------------------------------------------


def _partitioners(engine_for, exit_engine_for):
    for model in list_models():
        yield model, engine_for(model).partitioner
    for family in sorted(EXIT_MODEL_SPECS):
        engine = exit_engine_for(family)
        for e in range(engine.num_exits):
            yield f"{family}/exit{e}", engine.exit_engine(e).partitioner


class TestSharedPartitions:
    def test_every_point_equals_a_fresh_partition(self, engine_for, exit_engine_for):
        checked = 0
        for label, shared in _partitioners(engine_for, exit_engine_for):
            fresh = GraphPartitioner(shared.graph)
            for p in range(len(shared.graph.topological_order()) + 1):
                part, ref = shared.partition(p), fresh.partition(p)
                assert shared.partition(p) is part, (label, p)
                assert part == ref, (label, p)
                for seg, ref_seg in ((part.head, ref.head), (part.tail, ref.tail)):
                    assert seg.is_empty == ref_seg.is_empty, (label, p)
                    assert seg.result_bytes == ref_seg.result_bytes, (label, p)
                checked += 1
        assert checked > 1000

    def test_caches_over_one_partitioner_keep_their_own_counts(
            self, engine_for, exit_engine_for):
        for label, shared in _partitioners(engine_for, exit_engine_for):
            n = len(shared.graph.topological_order()) + 1
            device = PartitionCache(shared, capacity=n)
            server = PartitionCache(shared, capacity=n)
            for p in range(n):
                assert device.get(p) is server.get(p) is device.get(p)
            assert (device.hits, device.misses) == (n, n), label
            assert (server.hits, server.misses) == (0, n), label
            server.clear()  # a server restart
            for p in range(n):
                assert p not in server
                server.get(p)
                assert (server.hits, server.misses) == (0, p + 1), label
            assert (device.hits, device.misses) == (n, n), label

    @pytest.mark.parametrize("exit_index", [None, 0])
    def test_restarted_server_charges_the_overhead_again(self, exit_engine_for,
                                                         exit_index):
        engine = exit_engine_for("squeezenet")
        server = EdgeServer(engine, fault_plan=ServerFaultPlan(
            crash_windows=((1.0, 2.0),)))
        point = 3

        def offload(now_s):
            return server.handle_offload(now_s, 1, point, exit_index=exit_index)

        first, second = offload(0.5), offload(0.6)
        assert offload(1.5) is None  # down
        after, again = offload(2.5), offload(2.6)
        for reply in (first, after):
            assert not reply.cache_hit
            assert reply.partition_overhead_s == PARTITION_OVERHEAD_S
        for reply in (second, again):
            assert reply.cache_hit and reply.partition_overhead_s == 0.0
