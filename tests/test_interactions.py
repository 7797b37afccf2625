"""Cross-feature interaction matrix: batching × resilience × faults.

Batching, resilience/fault injection, streaming and SLA classes shipped
as separate opt-ins; this matrix drives every pairing through
:class:`MultiClientSystem` and pins down the composition contracts:

- every configuration completes (the drain loop never hangs, with or
  without faults in flight);
- a zero-rate fault plan is **byte-identical** to the plain path —
  opting in without turning anything on perturbs nothing;
- a seed fixes the whole run: records and outputs repeat exactly.
"""

from __future__ import annotations

import pytest

from repro.network.faults import FaultPlan
from repro.network.streaming import StreamingConfig
from repro.runtime.batching import BatchingConfig
from repro.runtime.messages import STATUSES
from repro.runtime.multi import MultiClientSystem
from repro.runtime.resilience import ResilienceConfig
from repro.runtime.system import SystemConfig

CLIENTS = 3
DURATION_S = 0.3

#: An active link-fault plan: drops, spikes and one outage window inside
#: the simulated horizon.
ACTIVE_FAULTS = FaultPlan(drop_prob=0.25, latency_spike_prob=0.25,
                          latency_spike_s=0.05,
                          outages=((0.10, 0.14),), seed=5)
#: All rates zero: must be byte-identical to no plan at all (PR 3 contract).
ZERO_FAULTS = FaultPlan(seed=5)


def run_fleet(engine, *, batching=None, resilience=None, faults=None,
              streaming=None, sla_classes=None, seed=7):
    """One fleet run → (per-timeline record signatures, client outputs)."""
    config = SystemConfig(
        seed=seed, policy="loadpart", functional=True, backend="planned",
        batching=batching, resilience=resilience, faults=faults, streaming=streaming,
        sla_classes=sla_classes,
    )
    system = MultiClientSystem(engine, CLIENTS, config=config)
    result = system.run(DURATION_S)
    signature = tuple(
        tuple((r.request_id, r.partition_point, r.status, r.retries,
               r.batch_size, r.total_s, r.sla_s, r.exit_index, r.met_sla)
              for r in timeline)
        for timeline in result.timelines
    )
    outputs = tuple(
        c.last_output.tobytes() if c.last_output is not None else None
        for c in system.clients
    )
    return result, signature, outputs


@pytest.mark.parametrize("resilience", [None, ResilienceConfig()],
                         ids=["trusting", "resilient"])
@pytest.mark.parametrize("batching", [None, BatchingConfig(window_s=0.004)],
                         ids=["unbatched", "batched"])
class TestInteractionMatrix:
    """{batching} × {resilience} × {faults zero/active}."""

    def test_matrix_completes_and_degenerate_configs_are_plain(
            self, squeezenet_engine, batching, resilience):
        plain = run_fleet(squeezenet_engine, batching=batching,
                          resilience=resilience)
        assert len(plain[0]) > 0
        runs = {}
        for fault_name, faults in (("zero", ZERO_FAULTS),
                                   ("active", ACTIVE_FAULTS)):
            result, signature, outputs = run_fleet(
                squeezenet_engine, batching=batching,
                resilience=resilience, faults=faults,
            )
            # Fleet completion: the run returned (no hang) and every
            # client issued work with well-formed records.
            assert len(result) > 0
            assert len(result.timelines) == CLIENTS
            for timeline in result.timelines:
                for record in timeline:
                    assert record.status in STATUSES
            runs[fault_name] = (signature, outputs)

        # Zero-rate faults == the plain path, bytewise.
        assert runs["zero"] == (plain[1], plain[2])

    def test_resilient_active_fleet_serves_every_request(
            self, squeezenet_engine, batching, resilience):
        """Under active faults the resilient arm stays available (retries
        or local fallback), and the naive arm is allowed to stall — but
        both drain."""
        result, signature, _ = run_fleet(
            squeezenet_engine, batching=batching, resilience=resilience,
            faults=ACTIVE_FAULTS,
        )
        assert len(result) > 0
        if resilience is not None:
            assert result.availability() == 1.0
            for timeline in signature:
                for (_rid, _point, status, _retries, _bs, total_s,
                     _sla, _exit, _met) in timeline:
                    assert status != "failed"
                    assert total_s != float("inf")


#: Chunked streaming with the full lossless-first codec menu: the joint
#: decision may pick zlib + chunked uploads per request.
STREAMING = StreamingConfig(chunk_bytes=4096)
#: Opt-in that turns nothing on: no chunking, fp32 only.
DEGENERATE_STREAMING = StreamingConfig(chunk_bytes=None, codecs=("fp32",))


@pytest.mark.parametrize("resilience", [None, ResilienceConfig()],
                         ids=["trusting", "resilient"])
@pytest.mark.parametrize("batching", [None, BatchingConfig(window_s=0.004)],
                         ids=["unbatched", "batched"])
class TestStreamingInteractions:
    """Streaming × {batching, resilience, faults zero/active}."""

    def test_streaming_matrix_completes(self, squeezenet_engine, batching,
                                        resilience):
        for faults in (ZERO_FAULTS, ACTIVE_FAULTS):
            result, _, _ = run_fleet(
                squeezenet_engine, batching=batching,
                resilience=resilience, faults=faults, streaming=STREAMING,
            )
            assert len(result) > 0
            assert len(result.timelines) == CLIENTS
            for timeline in result.timelines:
                for record in timeline:
                    assert record.status in STATUSES

    def test_degenerate_streaming_is_plain_bytewise(
            self, squeezenet_engine, batching, resilience):
        """No chunking + lossless-identity codec + zero-rate faults ==
        the non-streaming path, bytewise."""
        plain = run_fleet(squeezenet_engine, batching=batching,
                          resilience=resilience, faults=ZERO_FAULTS)
        degenerate = run_fleet(squeezenet_engine, batching=batching,
                               resilience=resilience, faults=ZERO_FAULTS,
                               streaming=DEGENERATE_STREAMING)
        assert len(degenerate[0]) == len(plain[0])
        assert (degenerate[1], degenerate[2]) == (plain[1], plain[2])


class TestSeedDeterminism:
    """Identical seeds → identical fleet records, run to run, even
    with active faults + batching + resilience on (the dedicated
    seed-keyed fault RNG stream)."""

    def _signature(self, engine):
        _, signature, outputs = run_fleet(
            engine, batching=BatchingConfig(window_s=0.004),
            resilience=ResilienceConfig(), faults=ACTIVE_FAULTS, seed=11,
        )
        return signature, outputs

    def test_faulty_batched_fleet_reproducible(self, squeezenet_engine):
        first = self._signature(squeezenet_engine)
        assert any(len(t) for t in first[0])
        # Same seed, same everything — run-to-run.
        assert self._signature(squeezenet_engine) == first

    def test_different_fault_seed_changes_the_run(self, squeezenet_engine):
        """Sanity: the determinism above is not vacuous — fault draws do
        shape the timeline."""
        base = run_fleet(
            squeezenet_engine, batching=BatchingConfig(window_s=0.004),
            resilience=ResilienceConfig(), faults=ACTIVE_FAULTS, seed=11,
        )[1]
        other = run_fleet(
            squeezenet_engine, batching=BatchingConfig(window_s=0.004),
            resilience=ResilienceConfig(),
            faults=FaultPlan(drop_prob=0.9, seed=77), seed=11,
        )[1]
        assert base != other


#: Mixed SLA traffic, assigned round-robin: a strict class that forces
#: the exit axis, an SLA-free client (classic path), and a slack class
#: that keeps full accuracy.
SLA_MIX = (0.02, None, 0.5)


@pytest.mark.parametrize("resilience", [None, ResilienceConfig()],
                         ids=["trusting", "resilient"])
@pytest.mark.parametrize("batching", [None, BatchingConfig(window_s=0.004)],
                         ids=["unbatched", "batched"])
class TestSlaInteractions:
    """Mixed strict/slack SLA × {batching} × {resilience} × {faults}:
    fleets complete with sane ``sla_s``/``exit_index``/``met_sla``
    stamps, and runs are seed-reproducible."""

    def test_mixed_sla_matrix_completes_with_sane_stamps(
            self, exit_engine_for, batching, resilience):
        engine = exit_engine_for("squeezenet")
        for faults in (None, ACTIVE_FAULTS):
            result, _, _ = run_fleet(
                engine, batching=batching, resilience=resilience,
                faults=faults, sla_classes=SLA_MIX)
            assert len(result) > 0
            assert len(result.timelines) == CLIENTS
            for i, timeline in enumerate(result.timelines):
                expected_sla = SLA_MIX[i % len(SLA_MIX)]
                for r in timeline:
                    assert r.status in STATUSES
                    assert r.sla_s == expected_sla
                    assert (r.exit_index is None
                            or 0 <= r.exit_index < engine.num_exits)
                    if expected_sla is None:
                        # The classic path, untouched: no exit axis,
                        # no attainment stamp.
                        assert r.met_sla is None
                        assert r.exit_index is None
                    else:
                        assert r.met_sla == (
                            r.completed and r.total_s <= r.sla_s)
            if faults is None:
                # Fault-free, every SLA request ran the (exit, point)
                # decision: the strict class trades accuracy (early
                # exits), the slack class keeps the full network.
                strict, free, slack = result.timelines[:3]
                assert all(r.exit_index is not None for r in strict)
                assert any(r.exit_index < engine.num_exits - 1
                           for r in strict)
                assert any(r.exit_index == engine.num_exits - 1
                           for r in slack)
                attainment = result.sla_attainment()
                assert 0.0 <= attainment <= 1.0

    def test_mixed_sla_fleet_reproducible(self, exit_engine_for, batching,
                                          resilience):
        engine = exit_engine_for("squeezenet")
        kwargs = dict(batching=batching, resilience=resilience,
                      faults=ACTIVE_FAULTS, sla_classes=SLA_MIX)
        _, sig_a, out_a = run_fleet(engine, **kwargs)
        _, sig_b, out_b = run_fleet(engine, **kwargs)
        assert sig_a == sig_b
        assert out_a == out_b
