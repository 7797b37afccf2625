"""The shared driver against the sequential loop it replaced.

:func:`sequential_reference` is the request loop every system used to
write out for itself: staggered profiler ticks, one watchdog per server,
the optional supervisor tick, then repeatedly the client with the
earliest next request (``argmin``, lowest index on ties), ``run_until``
that instant and ``request_inference`` there.  The driver must reproduce
its records exactly (``repr``-equal, every field) on every system.  The
degenerate-identity pins elsewhere compare two paths that both run on
the driver, so only this file catches a drift of the driver itself.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.network.faults import FaultPlan, ServerFaultPlan
from repro.network.traces import ConstantTrace
from repro.runtime.batching import BatchingConfig
from repro.runtime.driver import PROFILER_PERIOD_S
from repro.runtime.gateway import GatewayConfig, GatewayFleetSystem
from repro.runtime.multi import MultiClientSystem
from repro.runtime.resilience import ResilienceConfig
from repro.runtime.supervisor import SupervisorConfig
from repro.runtime.system import OffloadingSystem, SystemConfig
from tests.test_gateway import IDENTITY_CONFIGS


def sequential_reference(system, duration_s, max_requests=None):
    """Each client's records, as the pre-driver sequential loops made them."""
    loop, cfg = system.loop, system.config
    single = isinstance(system, OffloadingSystem)
    clients = [system.device] if single else system.clients
    servers = system.servers if hasattr(system, "servers") else [system.server]
    period = PROFILER_PERIOD_S
    for i, client in enumerate(clients):
        client.profiler_tick(0.0)
        offset = period if single else (i + 1) * period / (len(clients) + 1)
        loop.schedule_every(period, lambda c=client: c.profiler_tick(loop.now),
                            start_s=offset)
    for server in servers:
        loop.schedule_every(server.watchdog.period_s,
                            lambda s=server: s.watchdog_tick(loop.now))
    gateway = getattr(system, "gateway", None)
    if gateway is not None and gateway.probing_enabled:
        gateway.supervisor.tick(0.0)
        loop.schedule_every(gateway.supervisor.config.probe_period_s,
                            lambda: gateway.supervisor.tick(loop.now))
    records = [[] for _ in clients]
    next_at = [i * 0.003 for i in range(len(clients))]
    while True:
        idx = int(np.argmin(next_at))
        t = next_at[idx]
        if t >= duration_s or (max_requests is not None
                               and sum(map(len, records)) >= max_requests):
            break
        loop.run_until(t)
        record = clients[idx].request_inference(t)
        records[idx].append(record)
        next_at[idx] = t + record.total_s + cfg.think_time_s
    return records


def driver_records(result):
    return [list(timeline) for timeline in result.timelines]


def assert_same(driven, reference):
    assert sum(map(len, reference)) > 0
    assert repr(driven) == repr(reference)


@pytest.mark.parametrize("label,config", IDENTITY_CONFIGS)
@pytest.mark.parametrize("gateway", [False, True], ids=["direct", "gateway"])
def test_identity_configs(alexnet_engine, label, config, gateway):
    def build():
        if gateway:
            return GatewayFleetSystem(alexnet_engine, 3, num_servers=1, config=config,
                                      gateway_config=GatewayConfig(probes=None))
        return MultiClientSystem(alexnet_engine, 3, config=config)

    assert_same(driver_records(build().run(2.0)),
                sequential_reference(build(), 2.0))


@pytest.mark.parametrize("link", [None, FaultPlan(seed=11, drop_prob=0.2)],
                         ids=["clean", "lossy"])
@pytest.mark.parametrize("chaos", [False, True], ids=["steady", "chaos"])
@pytest.mark.parametrize("resilient", [False, True], ids=["naive", "resilient"])
def test_gateway_chaos_matrix(alexnet_engine, link, chaos, resilient):
    def build():
        server_faults = None
        if chaos:
            server_faults = [
                ServerFaultPlan.chaos(seed=9, server_id=s, horizon_s=1.5,
                                      crashes=1, mean_downtime_s=0.4)
                for s in range(2)]
        config = SystemConfig(faults=link, resilience=(
            ResilienceConfig(max_retries=1) if resilient else None))
        return GatewayFleetSystem(
            alexnet_engine, num_clients=3, num_servers=2, config=config,
            gateway_config=GatewayConfig(probes=SupervisorConfig(
                probe_period_s=0.25, dead_after_misses=2)),
            server_faults=server_faults)

    assert_same(driver_records(build().run(1.5)),
                sequential_reference(build(), 1.5))


@pytest.mark.parametrize("policy", ["loadpart", "neurosurgeon", "local", "full"])
def test_fleet_policies(squeezenet_engine, policy):
    def build():
        return MultiClientSystem(squeezenet_engine, 8,
                                 config=SystemConfig(seed=4, policy=policy))

    assert_same(driver_records(build().run(2.0)),
                sequential_reference(build(), 2.0))


def test_mixed_sla_exit_fleet(exit_engine_for):
    engine = exit_engine_for("mobilenet_v1")

    def build():
        return GatewayFleetSystem(
            engine, 6, num_servers=2, bandwidth_trace=ConstantTrace(20e6),
            config=SystemConfig(seed=5, think_time_s=0.1,
                                sla_classes=(0.1, 0.35, None),
                                resilience=ResilienceConfig(max_retries=2)),
            gateway_config=GatewayConfig(probes=SupervisorConfig(probe_period_s=0.5)))

    driven = driver_records(build().run(3.0))
    assert len({r.exit_index for client in driven for r in client}) > 1
    assert_same(driven, sequential_reference(build(), 3.0))


def test_ticks_fire_before_a_request_at_their_instant(alexnet_engine):
    """Client 2's first request (2 x 3 ms) lands exactly on the supervisor's
    second 3 ms probe tick, which was scheduled after the request: the
    request must still see the tick, as in the sequential loop."""
    def build():
        return GatewayFleetSystem(
            alexnet_engine, 3, num_servers=2, config=SystemConfig(seed=1),
            gateway_config=GatewayConfig(probes=SupervisorConfig(probe_period_s=0.003)))

    assert_same(driver_records(build().run(0.3)),
                sequential_reference(build(), 0.3))


@pytest.mark.parametrize("duration_s,max_requests", [(1e9, 7), (0.3, 50), (2.0, 0)])
def test_single_device_max_requests(squeezenet_engine, duration_s, max_requests):
    def build():
        return OffloadingSystem(squeezenet_engine, bandwidth_trace=ConstantTrace(8e6),
                                config=SystemConfig(seed=5))

    system = build()
    seen = []
    timeline = system.run(duration_s, max_requests=max_requests, on_record=seen.append)
    # on_record sees exactly the returned records, in order.
    assert seen == timeline.records
    reference = sequential_reference(build(), duration_s, max_requests)
    assert repr([timeline.records]) == repr(reference)
    assert len(timeline) == min(max_requests, len(reference[0]))
    # The end rule: a run stopped by max_requests ends at its next
    # unissued request (capped at the horizon).
    if timeline.records:
        last = timeline.records[-1]
        next_s = last.start_s + last.total_s + system.config.think_time_s
    else:
        next_s = 0.0
    assert system.loop.now == min(next_s, duration_s)


@pytest.mark.parametrize("build", [
    lambda e: OffloadingSystem(e, config=SystemConfig(seed=2)),
    lambda e: MultiClientSystem(e, 4, config=SystemConfig(seed=2)),
    lambda e: GatewayFleetSystem(
        e, 4, num_servers=2, config=SystemConfig(seed=2),
        gateway_config=GatewayConfig(probes=SupervisorConfig(probe_period_s=0.25))),
], ids=["single", "fleet", "gateway"])
def test_run_ends_at_horizon(squeezenet_engine, build):
    """Every system fires every event up to the horizon, and its clock
    ends exactly there (the old fleet loops stopped at the last request)."""
    system = build(squeezenet_engine)
    system.run(1.7)
    assert system.loop.now == 1.7


def test_records_leave_past_a_stale_batch_timer(squeezenet_engine):
    """A queue flushed early at ``MAX_BATCH`` leaves its window timer on
    the loop after the run.  That event keeps the driver alive until the
    cyclic collector runs, and the records it returned must not wait
    with it."""
    system = MultiClientSystem(squeezenet_engine, 12, config=SystemConfig(
        seed=2, batching=BatchingConfig(window_s=0.3)))
    gc.disable()
    try:
        result = system.run(2.0)
        assert any(event[3].__name__ != "tick" for event in system.loop._queue)
        record = weakref.ref(result.timelines[0].records[0])
        del result, system
        assert record() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("faults", [
    None, FaultPlan(seed=5, drop_prob=0.3, outages=((1.0, 1.4),))],
    ids=["clean", "lossy"])
@pytest.mark.parametrize("resilience", [None, ResilienceConfig()],
                         ids=["naive", "resilient"])
@pytest.mark.parametrize("batching", [None, BatchingConfig(window_s=0.01)],
                         ids=["immediate", "batched"])
def test_every_issued_request_gets_a_record(squeezenet_engine, batching,
                                            resilience, faults):
    """A request is in flight from its issue to its record, so the drain
    waits for a failed batched offload whose fallback falls due at its
    deadline, after the horizon."""
    system = MultiClientSystem(squeezenet_engine, 6, config=SystemConfig(
        seed=1, batching=batching, resilience=resilience, faults=faults))
    result = system.run(4.0)
    assert len(result) == sum(c._request_seq for c in system.clients)
