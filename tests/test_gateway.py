"""Sharded fleet: joint (point, server) routing, supervisor, failover.

Three layers of coverage:

- ``decide_fleet`` unit properties (reduction to ``decide``, server
  selection, extra-latency penalties, the ``allowed`` mask);
- the degenerate identity: a 1-server gateway with probing disabled
  produces records *equal* (frozen-dataclass equality, every field) to
  the direct :class:`~repro.runtime.multi.MultiClientSystem` path;
- the live fleet: supervisor state machine under crash/restart chaos,
  failover re-routing, gateway admission control, and the chaos
  interaction matrix (link faults x server faults x resilience).
"""

import math

import numpy as np
import pytest

from repro.core.engine import ServerProfile
from repro.hardware.gpu_model import GpuModel, GpuParams
from repro.network.channel import Channel, NetworkParams
from repro.network.faults import FaultPlan, ServerFaultPlan
from repro.network.traces import ConstantTrace
from repro.profiling.predictor import ScaledPredictor
from repro.runtime.gateway import EdgeGateway, GatewayConfig, GatewayFleetSystem
from repro.runtime.multi import MultiClientSystem, SharedEdgeServer, SharedLoadTracker
from repro.runtime.resilience import ResilienceConfig
from repro.runtime.supervisor import (
    DEAD,
    LIVE,
    SUSPECT,
    FleetSupervisor,
    SupervisorConfig,
)
from repro.runtime.system import SystemConfig


class TestDecideFleet:
    def test_single_server_reduces_to_decide(self, alexnet_engine):
        e = alexnet_engine
        for bw, k in [(1e6, 1.0), (8e6, 2.5), (100e6, 1.0), (2e5, 10.0)]:
            direct = e.decide(bw, k=k)
            fleet = e.decide_fleet([bw], [k])
            assert fleet.point == direct.point
            assert fleet.predicted_latency == direct.predicted_latency
            if fleet.point == e.num_nodes:
                assert fleet.server is None
            else:
                assert fleet.server == 0

    def test_picks_faster_server(self, alexnet_engine):
        e = alexnet_engine
        # Server 1: fat pipe, idle GPU.  Server 0: thin pipe, loaded GPU.
        d = e.decide_fleet([2e5, 100e6], [20.0, 1.0])
        if d.server is not None:
            assert d.server == 1
        # And the symmetric swap flips the choice.
        d2 = e.decide_fleet([100e6, 2e5], [1.0, 20.0])
        if d2.server is not None:
            assert d2.server == 0

    def test_tie_prefers_earliest_server(self, alexnet_engine):
        d = alexnet_engine.decide_fleet([50e6, 50e6], [1.0, 1.0])
        assert d.server in (0, None)

    def test_extra_latency_steers_away(self, alexnet_engine):
        e = alexnet_engine
        base = e.decide_fleet([50e6, 50e6], [1.0, 1.0])
        # A huge link penalty on server 0 moves the win to server 1.
        penalised = e.decide_fleet([50e6, 50e6], [1.0, 1.0],
                                   extra_latencies_s=[10.0, 0.0])
        if base.server is not None:
            assert penalised.server == 1
        # Penalising everyone by an *infinite* amount forces local.
        allpen = e.decide_fleet([50e6, 50e6], [1.0, 1.0],
                                extra_latencies_s=[1e9, 1e9])
        assert allpen.server is None
        assert allpen.point == e.num_nodes

    def test_allowed_mask(self, alexnet_engine):
        e = alexnet_engine
        d = e.decide_fleet([100e6, 100e6], [1.0, 1.0], allowed=[1])
        assert d.server in (1, None)
        assert d.servers == (1,)
        empty = e.decide_fleet([100e6, 100e6], [1.0, 1.0], allowed=[])
        assert empty.server is None
        assert empty.point == e.num_nodes
        assert empty.predicted_latency == pytest.approx(
            e.decide(100e6).candidates[e.num_nodes])

    def test_decisions_are_index_aligned(self, alexnet_engine):
        e = alexnet_engine
        d = e.decide_fleet([8e6, 50e6], [2.0, 1.0])
        assert d.servers == (0, 1)
        for i, (bw, k) in enumerate([(8e6, 2.0), (50e6, 1.0)]):
            direct = e.decide(bw, k=k)
            assert d.row_points[0, i] == direct.point
            assert d.row_latencies[0, i] == direct.predicted_latency
            np.testing.assert_array_equal(d.candidates[0][i],
                                          direct.candidates)

    def test_validation(self, alexnet_engine):
        with pytest.raises(ValueError):
            alexnet_engine.decide_fleet([8e6], [1.0, 2.0])
        with pytest.raises(ValueError):
            alexnet_engine.decide_fleet([8e6, 8e6], [1.0, 1.0],
                                        extra_latencies_s=[0.0])


def _direct_vs_degenerate(engine, config, duration_s=2.0, clients=3,
                          profiles=None):
    direct = MultiClientSystem(engine, clients, config=config)
    fleet = GatewayFleetSystem(engine, clients, num_servers=1, config=config,
                               gateway_config=GatewayConfig(probes=None),
                               profiles=profiles)
    return direct.run(duration_s), fleet.run(duration_s)


IDENTITY_CONFIGS = [
    ("plain", SystemConfig()),
    ("link_faults", SystemConfig(
        faults=FaultPlan(seed=7, drop_prob=0.2, outages=((0.5, 0.8),)))),
    ("server_crash", SystemConfig(
        server_faults=ServerFaultPlan(crash_windows=((0.4, 0.9),)),
        resilience=ResilienceConfig())),
    ("full_chaos", SystemConfig(
        faults=FaultPlan(seed=3, drop_prob=0.15),
        server_faults=ServerFaultPlan(crash_windows=((0.3, 0.7),),
                                      queue_limit=2),
        resilience=ResilienceConfig(max_retries=1))),
]


class TestDegenerateIdentity:
    """1-server gateway with probing disabled == the direct path, exactly."""

    @pytest.mark.parametrize("label,config", IDENTITY_CONFIGS)
    def test_records_identical(self, alexnet_engine, label, config):
        direct, degen = _direct_vs_degenerate(alexnet_engine, config)
        assert len(direct.timelines) == len(degen.timelines)
        for td, tg in zip(direct.timelines, degen.timelines):
            assert td.records == tg.records

    @pytest.mark.parametrize("label,config", IDENTITY_CONFIGS)
    def test_uniform_profile_records_identical(self, alexnet_engine, label,
                                               config):
        """Dressing the lone server in a default ``ServerProfile`` changes
        nothing: profiles are a belief overlay, and an empty belief is the
        homogeneous path bit-for-bit — even under chaos."""
        direct, degen = _direct_vs_degenerate(
            alexnet_engine, config, profiles=[ServerProfile()])
        for td, tg in zip(direct.timelines, degen.timelines):
            assert td.records == tg.records

    def test_server_id_stamping(self, alexnet_engine):
        _, degen = _direct_vs_degenerate(alexnet_engine, SystemConfig())
        for timeline in degen.timelines:
            for r in timeline:
                assert r.server_id == (None if r.is_local else 0)


def _fleet_parts(engine, num_servers, fault_plans=None, probes=None):
    """Servers + channels for direct supervisor/gateway unit tests."""
    trace = ConstantTrace(8e6)
    servers = []
    channels = []
    for s in range(num_servers):
        plan = fault_plans[s] if fault_plans else None
        servers.append(SharedEdgeServer(
            engine, SharedLoadTracker(), seed=100 + 1000 * s,
            fault_plan=plan, server_id=s))
        channels.append(Channel(trace, NetworkParams()))
    return servers, channels


class TestSupervisor:
    def test_probe_marks_crashed_server_dead_then_revives(self, alexnet_engine):
        plan = ServerFaultPlan(crash_windows=((1.0, 3.0),))
        servers, channels = _fleet_parts(alexnet_engine, 1, [plan])
        sup = FleetSupervisor(servers, channels,
                              config=SupervisorConfig(dead_after_misses=2),
                              seed=5)
        assert sup.probe(0, 0.5)              # healthy before the crash
        assert sup.health[0].state == LIVE
        assert not sup.probe(0, 1.5)          # inside the window: miss 1
        assert sup.health[0].state == SUSPECT
        assert not sup.probe(0, 2.0)          # miss 2: declared dead
        assert sup.health[0].state == DEAD
        assert not sup.routable(0)
        assert sup.live_servers() == ()
        assert sup.probe(0, 3.5)              # restarted: back to live
        assert sup.health[0].state == LIVE
        assert sup.routable(0)

    def test_restart_wipes_learned_state(self, alexnet_engine):
        plan = ServerFaultPlan(crash_windows=((1.0, 2.0),))
        servers, channels = _fleet_parts(alexnet_engine, 1, [plan])
        sup = FleetSupervisor(servers, channels, seed=5)
        assert sup.probe(0, 0.0)
        sup.health[0].k = 4.0
        sup.health[0].k_time_s = 0.0
        assert sup.estimators[0].sample_count > 0
        assert sup.detect_restart(0, 2.5)
        assert sup.health[0].k == 1.0
        assert sup.health[0].k_time_s == -math.inf
        assert sup.estimators[0].sample_count == 0
        # Idempotent until the *next* restart.
        assert not sup.detect_restart(0, 2.6)

    def test_k_ttl_and_bandwidth_fallback(self, alexnet_engine):
        servers, channels = _fleet_parts(alexnet_engine, 1)
        sup = FleetSupervisor(servers, channels,
                              config=SupervisorConfig(k_ttl_s=10.0), seed=5)
        # No data at all: fallbacks win.
        assert sup.k_for(0, 0.0, 3.3) == 3.3
        assert sup.bandwidth_for(0, 5e6) == 5e6
        assert sup.probe(0, 0.0)
        assert sup.k_for(0, 5.0, 3.3) == sup.health[0].k
        assert sup.bandwidth_for(0, 5e6) > 0
        assert sup.k_for(0, 20.0, 3.3) == 3.3   # expired

    def test_note_busy_keeps_server_live(self, alexnet_engine):
        servers, channels = _fleet_parts(alexnet_engine, 1)
        sup = FleetSupervisor(servers, channels, seed=5)
        sup.note_failure(0, 0.0)
        assert sup.health[0].state == SUSPECT
        sup.note_busy(0, 0.1)
        assert sup.health[0].state == LIVE
        assert sup.health[0].misses == 0
        assert sup.health[0].busy_count == 1

    def test_snapshot_shape(self, alexnet_engine):
        servers, channels = _fleet_parts(alexnet_engine, 2)
        sup = FleetSupervisor(servers, channels, seed=5)
        assert set(sup.health) == set(sup.breakers) == {0, 1}
        for sid in (0, 1):
            assert sup.health[sid].state == LIVE
            assert sup.breakers[sid].state == "closed"

    def test_duplicate_server_ids_rejected(self, alexnet_engine):
        servers, channels = _fleet_parts(alexnet_engine, 2)
        servers[1].server_id = 0
        with pytest.raises(ValueError):
            FleetSupervisor(servers, channels)


class TestGatewayRouting:
    def test_exclude_is_a_preference(self, alexnet_engine):
        servers, channels = _fleet_parts(alexnet_engine, 2)
        gw = EdgeGateway(alexnet_engine, servers, channels)
        sid, _ = gw.route(0.0, 50e6, 1.0, exclude=(0,))
        assert sid in (1, None)
        # Excluding the whole fleet falls back to the full pool.
        sid2, decision = gw.route(0.0, 50e6, 1.0, exclude=(0, 1))
        assert (sid2 is not None) == (decision.point < alexnet_engine.num_nodes)

    def test_dark_fleet_resolves_locally(self, alexnet_engine):
        servers, channels = _fleet_parts(alexnet_engine, 2)
        gw = EdgeGateway(alexnet_engine, servers, channels)
        for sid in (0, 1):
            gw.supervisor.health[sid].state = DEAD
        sid, decision = gw.route(0.0, 50e6, 1.0)
        assert sid is None
        assert decision.point == alexnet_engine.num_nodes

    def test_admission_limit_rejects_when_saturated(self, alexnet_engine):
        servers, channels = _fleet_parts(alexnet_engine, 1)
        gw = EdgeGateway(alexnet_engine, servers, channels,
                         config=GatewayConfig(admission_limit=2,
                                              admission_window_s=1.0))
        routed = [gw.route(0.0, 50e6, 1.0)[0] for _ in range(4)]
        offloads = [sid for sid in routed if sid is not None]
        if offloads:
            assert len(offloads) <= 2
            assert gw.rejected_count >= 1
        # The window slides: capacity comes back.
        sid, _ = gw.route(5.0, 50e6, 1.0)
        assert sid == 0 or sid is None

    def test_admission_spreads_across_servers(self, alexnet_engine):
        servers, channels = _fleet_parts(alexnet_engine, 2)
        gw = EdgeGateway(alexnet_engine, servers, channels,
                         config=GatewayConfig(admission_limit=1,
                                              admission_window_s=1.0))
        routed = [gw.route(0.0, 50e6, 1.0)[0] for _ in range(2)]
        offloads = {sid for sid in routed if sid is not None}
        if len([s for s in routed if s is not None]) == 2:
            assert offloads == {0, 1}


class TestFailover:
    def test_crashed_server_fails_over_to_sibling(self, alexnet_engine):
        """2-server fleet, server 0 dark mid-run: availability stays 1."""
        plan0 = ServerFaultPlan(crash_windows=((0.5, 1.6),))
        config = SystemConfig(resilience=ResilienceConfig(max_retries=2))
        system = GatewayFleetSystem(
            alexnet_engine, num_clients=4, num_servers=2, config=config,
            gateway_config=GatewayConfig(probes=SupervisorConfig(
                probe_period_s=0.2, dead_after_misses=2)),
            server_faults=[plan0, None],
        )
        result = system.run(2.0)
        assert result.availability() == 1.0
        # The healthy sibling absorbed traffic during the outage.
        during = [r for r in result.between(0.5, 1.6) if r.server_id is not None]
        if during:
            assert all(r.server_id == 1 for r in during
                       if r.completed and not r.fell_back)
        # Supervisor noticed the crash and the restart.
        assert system.supervisor.health[0].restarts_seen >= 1

    def test_single_server_fleet_still_retries_itself(self, alexnet_engine):
        """Exclusion is a preference: a lone server gets its own retries."""
        plan = ServerFaultPlan(crash_windows=((0.3, 0.6),))
        config = SystemConfig(resilience=ResilienceConfig(max_retries=2))
        system = GatewayFleetSystem(
            alexnet_engine, num_clients=2, num_servers=1, config=config,
            gateway_config=GatewayConfig(probes=None),
            server_faults=[plan],
        )
        result = system.run(1.0)
        assert result.availability() == 1.0
        retried = [r for r in result if r.retries > 0]
        for r in retried:
            assert r.server_id in (0, None)


class TestChaosMatrix:
    """Link faults x server chaos x resilience, all through the gateway."""

    @pytest.mark.parametrize("link", [None, FaultPlan(seed=11, drop_prob=0.2)])
    @pytest.mark.parametrize("chaos", [False, True])
    @pytest.mark.parametrize("resilient", [False, True])
    def test_runs_to_completion(self, alexnet_engine, link, chaos, resilient):
        server_faults = None
        if chaos:
            server_faults = [
                ServerFaultPlan.chaos(seed=9, server_id=s, horizon_s=1.5,
                                      crashes=1, mean_downtime_s=0.4)
                for s in range(2)
            ]
        config = SystemConfig(
            faults=link,
            resilience=ResilienceConfig(max_retries=1) if resilient else None,
        )
        system = GatewayFleetSystem(
            alexnet_engine, num_clients=3, num_servers=2, config=config,
            gateway_config=GatewayConfig(probes=SupervisorConfig(
                probe_period_s=0.25, dead_after_misses=2)),
            server_faults=server_faults,
        )
        result = system.run(1.5)
        assert len(result) > 0
        assert 0.0 <= result.availability() <= 1.0
        if resilient:
            # A resilient client always resolves (offload or local fallback).
            assert result.availability() == 1.0
        for sid in range(2):
            served = result.for_server(sid)
            if len(served) == 0:
                assert math.isnan(served.availability())

    @pytest.mark.parametrize("link", [None, FaultPlan(seed=11, drop_prob=0.2)])
    @pytest.mark.parametrize("chaos", [False, True])
    @pytest.mark.parametrize("resilient", [False, True])
    def test_uniform_profiles_identical_across_matrix(self, alexnet_engine,
                                                      link, chaos, resilient):
        """A fleet of identical ``ServerProfile``s is record-identical to
        the profile-free fleet in every cell of the chaos matrix — the
        heterogeneity machinery is provably dormant until beliefs differ."""
        def run_once(profiles):
            server_faults = None
            if chaos:
                server_faults = [
                    ServerFaultPlan.chaos(seed=9, server_id=s, horizon_s=1.0,
                                          crashes=1, mean_downtime_s=0.4)
                    for s in range(2)
                ]
            config = SystemConfig(
                faults=link,
                resilience=(ResilienceConfig(max_retries=1)
                            if resilient else None),
            )
            system = GatewayFleetSystem(
                alexnet_engine, num_clients=3, num_servers=2, config=config,
                gateway_config=GatewayConfig(probes=SupervisorConfig(
                    probe_period_s=0.25, dead_after_misses=2)),
                server_faults=server_faults,
                profiles=profiles,
            )
            return system.run(1.0)

        plain = run_once(None)
        dressed = run_once([ServerProfile(), ServerProfile()])
        for ta, tb in zip(plain.timelines, dressed.timelines):
            assert ta.records == tb.records

    def test_matrix_is_deterministic(self, alexnet_engine):
        def run_once():
            config = SystemConfig(
                faults=FaultPlan(seed=11, drop_prob=0.2),
                resilience=ResilienceConfig(max_retries=1))
            system = GatewayFleetSystem(
                alexnet_engine, num_clients=3, num_servers=2, config=config,
                gateway_config=GatewayConfig(probes=SupervisorConfig(
                    probe_period_s=0.25)),
                server_faults=[
                    ServerFaultPlan.chaos(seed=9, server_id=s, horizon_s=1.0)
                    for s in range(2)],
            )
            return system.run(1.0)

        a, b = run_once(), run_once()
        for ta, tb in zip(a.timelines, b.timelines):
            assert ta.records == tb.records


def _latency_parts(engine, latencies, bandwidth=8e6, jitter=0.05,
                   fault_plans=None):
    """Servers + channels with planted per-link base latencies."""
    servers, channels = [], []
    for s, base in enumerate(latencies):
        plan = fault_plans[s] if fault_plans else None
        servers.append(SharedEdgeServer(
            engine, SharedLoadTracker(), seed=100 + 1000 * s,
            fault_plan=plan, server_id=s))
        channels.append(Channel(
            ConstantTrace(bandwidth),
            NetworkParams(base_latency_s=base, jitter_sigma=jitter)))
    return servers, channels


class TestSupervisorLearning:
    """Online link-latency learning from the two-size probe decomposition."""

    def test_converges_to_planted_link_latencies(self, alexnet_engine):
        servers, channels = _latency_parts(alexnet_engine, [0.002, 0.02])
        sup = FleetSupervisor(servers, channels, seed=5)
        for i in range(30):
            sup.tick(i * 0.5)
        assert sup.links[0].sample_count > 10
        assert sup.latency_for(0) == pytest.approx(0.002, rel=0.5)
        assert sup.latency_for(1) == pytest.approx(0.02, rel=0.3)
        assert sup.latency_for(1) > sup.latency_for(0)

    def test_zero_jitter_learns_exactly(self, alexnet_engine):
        """With no transfer jitter the decomposition is algebraically
        exact: the learned latency IS the planted base latency."""
        servers, channels = _latency_parts(alexnet_engine, [0.0137],
                                           jitter=0.0)
        sup = FleetSupervisor(servers, channels, seed=5)
        for i in range(5):
            assert sup.probe(0, i * 0.5)
        assert sup.latency_for(0) == pytest.approx(0.0137, abs=1e-12)
        report = sup.last_probe[0]
        assert report.accepted
        assert report.bandwidth_bps == pytest.approx(8e6, rel=1e-9)

    def test_link_estimate_survives_restart_wipe(self, alexnet_engine):
        plan = ServerFaultPlan(crash_windows=((1.0, 2.0),))
        servers, channels = _latency_parts(alexnet_engine, [0.01],
                                           fault_plans=[plan])
        sup = FleetSupervisor(servers, channels, seed=5)
        assert sup.probe(0, 0.0)
        assert sup.probe(0, 0.5)
        learned = sup.latency_for(0)
        link_samples = sup.links[0].sample_count
        assert link_samples >= 2
        assert sup.detect_restart(0, 2.5)
        # Bandwidth window wiped (server state), link memory kept (path state).
        assert sup.estimators[0].sample_count == 0
        assert sup.links[0].sample_count == link_samples
        assert sup.latency_for(0) == learned

    def test_single_outlier_probe_rejected(self, alexnet_engine):
        servers, channels = _latency_parts(alexnet_engine, [0.002],
                                           jitter=0.0)
        sup = FleetSupervisor(servers, channels, seed=5)
        for i in range(6):
            assert sup.probe(0, i * 0.5)
        settled = sup.latency_for(0)
        # One congestion spike: the link momentarily looks 250x farther.
        channels[0].params = NetworkParams(base_latency_s=0.5, jitter_sigma=0.0)
        assert sup.probe(0, 10.0)
        assert sup.last_probe[0].accepted is False
        assert sup.links[0].rejected_count == 1
        assert sup.latency_for(0) == settled  # estimate unsmeared
        channels[0].params = NetworkParams(base_latency_s=0.002,
                                           jitter_sigma=0.0)
        assert sup.probe(0, 10.5)
        assert sup.last_probe[0].accepted

    def test_learning_is_deterministic_for_fixed_seed(self, alexnet_engine):
        def run_once():
            servers, channels = _latency_parts(alexnet_engine, [0.002, 0.02])
            sup = FleetSupervisor(servers, channels, seed=42)
            for i in range(10):
                sup.tick(i * 0.5)
            return sup

        a, b = run_once(), run_once()
        for sid in (0, 1):
            assert a.latency_for(sid) == b.latency_for(sid)
            assert a.bandwidth_for(sid, 0.0) == b.bandwidth_for(sid, 0.0)
            assert a.last_probe[sid] == b.last_probe[sid]

    def test_learn_links_off_keeps_prior_and_single_probe(self, alexnet_engine):
        servers, channels = _latency_parts(alexnet_engine, [0.02])
        sup = FleetSupervisor(
            servers, channels,
            config=SupervisorConfig(learn_links=False), seed=5)
        for i in range(5):
            assert sup.probe(0, i * 0.5)
        assert sup.links[0].sample_count == 0
        assert sup.latency_for(0) == 0.02       # config prior, untouched
        assert sup.last_probe == {}             # no decomposition happened
        assert sup.bandwidth_for(0, 0.0) > 0    # single-upload path still fed

    def test_gateway_extras_use_config_prior_without_probes(self, alexnet_engine):
        servers, channels = _latency_parts(alexnet_engine,
                                           [0.002, 0.02, 0.002])
        gw = EdgeGateway(alexnet_engine, servers, channels,
                         config=GatewayConfig(probes=None))
        extras = gw._extra_latencies()
        assert extras is gw._extra_latency  # no supervisor state consulted
        assert extras == pytest.approx([0.0, 0.018, 0.0])

    def test_gateway_extras_become_learned_and_relative(self, alexnet_engine):
        servers, channels = _latency_parts(alexnet_engine, [0.002, 0.02])
        gw = EdgeGateway(alexnet_engine, servers, channels,
                         config=GatewayConfig(probes=SupervisorConfig()))
        # Cold start: the learned estimates ARE the channel priors.
        assert gw._extra_latencies() == pytest.approx([0.0, 0.018])
        for i in range(20):
            gw.supervisor.tick(i * 0.5)
        extras = gw._extra_latencies()
        assert extras[0] == 0.0                 # nearest = zero reference
        assert extras[1] == pytest.approx(0.018, rel=0.3)


class TestProbeDecomposition:
    """A slow link must not be misread as a thin pipe or a loaded server."""

    def test_far_server_bandwidth_not_biased_low(self, alexnet_engine):
        # Equal true bandwidth, 20x different link latency.
        servers, channels = _latency_parts(alexnet_engine, [0.002, 0.04])
        sup = FleetSupervisor(servers, channels, seed=5)
        for i in range(20):
            sup.tick(i * 0.5)
        bw_near = sup.bandwidth_for(0, float("nan"))
        bw_far = sup.bandwidth_for(1, float("nan"))
        # Latency-corrected: both within 15% of the true 8 Mbit/s, and of
        # each other — distance no longer masquerades as thinness.
        assert bw_near == pytest.approx(8e6, rel=0.15)
        assert bw_far == pytest.approx(8e6, rel=0.15)
        # The distance landed where it belongs: in the link estimate.
        assert sup.latency_for(1) == pytest.approx(0.04, rel=0.3)
        # And nowhere near the load factor: both servers are idle.
        assert sup.health[0].k == 1.0
        assert sup.health[1].k == 1.0

    def test_single_upload_probe_conflates_them(self, alexnet_engine):
        """The legacy single-upload probe folds link latency into the
        bandwidth sample — the confusion the decomposition removes."""
        servers, channels = _latency_parts(alexnet_engine, [0.002, 0.04])
        sup = FleetSupervisor(
            servers, channels,
            config=SupervisorConfig(learn_links=False), seed=5)
        for i in range(20):
            sup.tick(i * 0.5)
        bw_near = sup.bandwidth_for(0, float("nan"))
        bw_far = sup.bandwidth_for(1, float("nan"))
        assert bw_far < 0.75 * bw_near  # the far server looks falsely thin


class TestHeterogeneousRouting:
    def test_scaled_predictor_steers_to_fast_server(self, alexnet_engine,
                                                    trained_report):
        e = alexnet_engine
        edge = trained_report.edge_predictor
        slow = ServerProfile(edge_predictor=ScaledPredictor(edge, 8.0))
        d = e.decide_fleet([50e6, 50e6], [1.0, 1.0],
                           profiles=[slow, ServerProfile()])
        if d.server is not None:
            assert d.server == 1
        d2 = e.decide_fleet([50e6, 50e6], [1.0, 1.0],
                            profiles=[ServerProfile(), slow])
        if d2.server is not None:
            assert d2.server == 0

    def test_profile_bandwidth_prior_fills_unknown(self, alexnet_engine):
        e = alexnet_engine
        profiles = [ServerProfile(bandwidth_bps=50e6), ServerProfile()]
        d = e.decide_fleet([None, 50e6], [1.0, 1.0], profiles=profiles)
        np.testing.assert_array_equal(d.candidates[0][0], d.candidates[0][1])
        with pytest.raises(ValueError):
            e.decide_fleet([None, 50e6], [1.0, 1.0])

    def test_profile_extra_latency_is_a_prior(self, alexnet_engine):
        e = alexnet_engine
        far = ServerProfile(extra_latency_s=10.0)
        d = e.decide_fleet([50e6, 50e6], [1.0, 1.0],
                           profiles=[far, ServerProfile()])
        if d.server is not None:
            assert d.server == 1
        # An explicit extra_latencies_s argument overrides the profile prior.
        d2 = e.decide_fleet([50e6, 50e6], [1.0, 1.0],
                            extra_latencies_s=[0.0, 10.0],
                            profiles=[far, ServerProfile()])
        if d2.server is not None:
            assert d2.server == 0

    def test_gateway_bandwidth_prior_prefers_profile(self, alexnet_engine):
        servers, channels = _fleet_parts(alexnet_engine, 2)
        gw = EdgeGateway(alexnet_engine, servers, channels,
                         profiles=[ServerProfile(bandwidth_bps=42e6), None])
        assert gw._bandwidth_prior(0, 5e6) == 42e6
        assert gw._bandwidth_prior(1, 5e6) == 5e6

    def test_equal_weights_keep_exact_rotation(self, alexnet_engine):
        servers, channels = _fleet_parts(alexnet_engine, 3)
        gw = EdgeGateway(alexnet_engine, servers, channels)
        picks = [gw._pick_tied([0, 1, 2], [1.0, 1.0, 1.0]) for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]
        assert gw._rotation == 6
        assert gw._credits == {}  # the weighted machinery never woke up
        # Sub-1 load factors clamp to 1: still the equal-weight path.
        assert gw._pick_tied([0, 1], [0.5, 0.2]) == 0
        assert gw._rotation == 7

    def test_weighted_rotation_shares_by_residual_capacity(self, alexnet_engine):
        servers, channels = _fleet_parts(alexnet_engine, 2)
        gw = EdgeGateway(alexnet_engine, servers, channels)
        # Server 0 idle (k=1), server 1 at 3x load: near-tie traffic should
        # split ~3:1 by predicted residual capacity, not 1:1.
        picks = [gw._pick_tied([0, 1], [1.0, 3.0]) for _ in range(12)]
        counts = {i: picks.count(i) for i in (0, 1)}
        assert counts[0] + counts[1] == 12
        assert 8 <= counts[0] <= 10
        assert gw._rotation == 0  # round-robin counter untouched

    def test_profile_keeps_k_honest_for_slow_gpu(self, alexnet_engine,
                                                 trained_report):
        """A slow-but-idle GPU must read k~1 when its profile says it is
        slow; without the profile the hardware gap leaks into k."""
        e = alexnet_engine
        slow_gpu = GpuModel(GpuParams(
            conv_rate=4.0e12 / 3, dwconv_rate=0.4e12 / 3,
            matmul_rate=3.0e12 / 3, mem_bandwidth=250.0e9 / 3))
        belief = ServerProfile(edge_predictor=ScaledPredictor(
            trained_report.edge_predictor, 3.0))
        naive = SharedEdgeServer(e, SharedLoadTracker(), seed=1,
                                 server_id=0, gpu_model=slow_gpu)
        aware = SharedEdgeServer(e, SharedLoadTracker(), seed=1,
                                 server_id=1, gpu_model=slow_gpu,
                                 profile=belief)
        for i in range(5):
            # Spaced beyond the tracker window: zero contention, pure
            # hardware-vs-belief ratio.
            naive.handle_offload(i * 5.0, i, 0)
            aware.handle_offload(i * 5.0, 100 + i, 0)
        k_naive = naive.handle_load_query(25.0).k
        k_aware = aware.handle_load_query(25.0).k
        assert k_naive > 1.8    # hardware gap misread as load
        assert k_aware < 1.4    # profile absorbs it; k stays honest

    def test_fleet_system_prefers_fast_near_server(self, alexnet_engine,
                                                   trained_report):
        """End-to-end: fast+near vs slow+far, with truth (gpu_models,
        network_params) and belief (profiles) both heterogeneous."""
        e = alexnet_engine
        slow_gpu = GpuModel(GpuParams(
            conv_rate=1.0e12, dwconv_rate=0.1e12, matmul_rate=0.75e12,
            mem_bandwidth=62.5e9))
        profiles = [
            ServerProfile(),
            ServerProfile(edge_predictor=ScaledPredictor(
                trained_report.edge_predictor, 4.0), extra_latency_s=0.03),
        ]
        system = GatewayFleetSystem(
            e, num_clients=4, num_servers=2, config=SystemConfig(),
            gateway_config=GatewayConfig(probes=SupervisorConfig(
                probe_period_s=0.25)),
            gpu_models=[None, slow_gpu],
            network_params=[NetworkParams(),
                            NetworkParams(base_latency_s=0.03)],
            profiles=profiles,
        )
        result = system.run(2.0)
        assert len(result) > 0
        counts = system.gateway.routed_counts
        assert counts[0] > counts[1]


class TestFleetSystemValidation:
    def test_rejects_non_loadpart_policy(self, alexnet_engine):
        with pytest.raises(ValueError, match="loadpart"):
            GatewayFleetSystem(alexnet_engine, 1,
                               config=SystemConfig(policy="neurosurgeon"))

    def test_rejects_mismatched_fault_plans(self, alexnet_engine):
        with pytest.raises(ValueError, match="one plan per server"):
            GatewayFleetSystem(alexnet_engine, 1, num_servers=2,
                               server_faults=[None])

    def test_rejects_mismatched_heterogeneity_vectors(self, alexnet_engine):
        with pytest.raises(ValueError, match="profiles"):
            GatewayFleetSystem(alexnet_engine, 1, num_servers=2,
                               profiles=[ServerProfile()])
        with pytest.raises(ValueError, match="gpu_models"):
            GatewayFleetSystem(alexnet_engine, 1, num_servers=2,
                               gpu_models=[GpuModel()])
        with pytest.raises(ValueError, match="bandwidth_traces"):
            GatewayFleetSystem(alexnet_engine, 1, num_servers=2,
                               bandwidth_traces=[ConstantTrace(8e6)])

    def test_supervisor_link_config_validation(self):
        with pytest.raises(ValueError):
            SupervisorConfig(ping_bytes=0)
        with pytest.raises(ValueError):
            SupervisorConfig(link_alpha=0.0)
        with pytest.raises(ValueError):
            SupervisorConfig(link_alpha=1.5)
        with pytest.raises(ValueError):
            SupervisorConfig(link_outlier_factor=0.0)

    def test_server_profile_validation(self, alexnet_engine, trained_report):
        with pytest.raises(ValueError, match="edge"):
            ServerProfile(edge_predictor=trained_report.user_predictor)
        with pytest.raises(ValueError):
            ServerProfile(bandwidth_bps=0.0)
        with pytest.raises(ValueError):
            ServerProfile(extra_latency_s=-1.0)
        with pytest.raises(ValueError):
            ScaledPredictor(trained_report.edge_predictor, 0.0)

    def test_gateway_config_validation(self):
        with pytest.raises(ValueError):
            GatewayConfig(admission_limit=0)
        with pytest.raises(ValueError):
            GatewayConfig(admission_window_s=0.0)
        with pytest.raises(ValueError):
            SupervisorConfig(probe_period_s=0.0)
        with pytest.raises(ValueError):
            SupervisorConfig(dead_after_misses=0)


class TestExitFreeTrafficIdentity:
    """An exit-carrying engine with no SLA classes is invisible.

    ``SystemConfig(sla_classes=None)`` must keep the classic runtime
    verbatim: swapping the plain squeezenet engine for the exit-carrying
    one changes *no* record field — direct multi-client and a live
    2-server gateway fleet alike, across the chaos matrix.
    """

    @pytest.mark.parametrize("label,config", IDENTITY_CONFIGS)
    def test_direct_records_identical(self, engine_for, exit_engine_for,
                                      label, config):
        plain = MultiClientSystem(
            engine_for("squeezenet"), 3, config=config).run(2.0)
        exits = MultiClientSystem(
            exit_engine_for("squeezenet"), 3, config=config).run(2.0)
        assert len(plain.timelines) == len(exits.timelines)
        for tp, te in zip(plain.timelines, exits.timelines):
            assert tp.records == te.records
        assert math.isnan(exits.sla_attainment())
        assert set(exits.exit_counts()) == {None}

    @pytest.mark.parametrize("label,config", IDENTITY_CONFIGS)
    def test_gateway_records_identical(self, engine_for, exit_engine_for,
                                       label, config):
        plain = GatewayFleetSystem(
            engine_for("squeezenet"), 3, num_servers=2, config=config).run(2.0)
        exits = GatewayFleetSystem(
            exit_engine_for("squeezenet"), 3, num_servers=2,
            config=config).run(2.0)
        for tp, te in zip(plain.timelines, exits.timelines):
            assert tp.records == te.records
