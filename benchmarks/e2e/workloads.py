"""The four workloads of the end-to-end benchmark.

Every workload is closed loop: each device waits for its reply, then its
think time, before the next request.  A workload builds its inputs from
the seed alone and runs one fixed *episode*; ``run.py`` repeats the
episode to fill the measuring time.  The three simulated episodes are
deterministic, so every repeat must produce the same records.

- ``fleet_crash`` — 100 squeezenet clients behind a 4-server gateway
  whose server 0 crashes for 2.5 s every 40 s.  All host time is
  decisions, routing, probes and the synchronous driver; no tensors run.
- ``sla_batched`` — 48 mobilenet_v1 exit-model clients with mixed SLAs
  through the event-driven batched driver and the exit-axis scan.
- ``fig9_functional`` — the paper's Fig. 9 load schedule on real
  tensors: host time is almost all compiled-plan execution.
- ``loopback_tcp`` — real TCP round trips to a ``run_server`` process,
  monolithic and streamed; the only workload whose latency is wall time.

``run.py`` drives a workload through ``setup``, ``prepare_checks``,
repeated ``episode`` calls folded together by ``keep``, then ``check``
and ``close``; the metric methods read the kept episode.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
import os
import pathlib
import select
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

import repro
from repro.core.engine import LoADPartEngine
from repro.graph.partitioner import GraphPartitioner
from repro.hardware.background import fig9_schedule
from repro.models import build_exit_model, build_model
from repro.network.codec import TensorCodec
from repro.network.faults import ServerFaultPlan
from repro.network.streaming import StreamingConfig
from repro.network.traces import ConstantTrace
from repro.nn.executor import GraphExecutor, SegmentExecutor
from repro.profiling.offline import OfflineProfiler
from repro.runtime.batching import BatchingConfig
from repro.runtime.gateway import GatewayConfig, GatewayFleetSystem
from repro.runtime.multi import MultiClientSystem
from repro.runtime.resilience import ResilienceConfig
from repro.runtime.supervisor import SupervisorConfig
from repro.runtime.system import OffloadingSystem, SystemConfig
from repro.runtime.transport import TransportClient, TransportFailure

HERE = pathlib.Path(__file__).resolve().parent

STAGES = ("device", "encode", "upload", "decode", "server", "queue",
          "download", "overhead", "wasted")


def train():
    """Predictors as ``bench_fleet``/``bench_exits`` train them."""
    return OfflineProfiler(samples_per_category=150, seed=3).run()


def engine_for(report, graph, exits=None) -> LoADPartEngine:
    return LoADPartEngine(graph, report.user_predictor, report.edge_predictor,
                          exits=exits)


@dataclass
class Episode:
    """What one episode produced.

    ``records`` are ``InferenceRecord``s (simulated workloads) or
    :class:`LoopbackRecord`s; ``extra`` carries state the records lack.
    """

    records: list
    extra: Dict[str, object] = field(default_factory=dict)


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


class SimWorkload:
    """A simulated workload: one system run over a fixed horizon."""

    name = ""
    horizon_s = 0.0
    #: The (constant) link bandwidth the clients' estimators track.
    bandwidth_bps = 0.0
    #: Warm-up horizon of the set-up's first requests.
    warmup_s = 0.5
    #: Latencies are simulated, so every repeat reads the same.
    wall_clock = False

    def setup(self, seed: int, scale: float) -> dict:
        report = train()
        state = {"seed": seed, "horizon_s": self.horizon_s * scale,
                 "report": report}
        state["engine"] = self.build_engine(report)
        self.run_system(state, self.warmup_s)
        return state

    def episode(self, state: dict) -> Episode:
        return self.run_system(state, state["horizon_s"])

    def close(self, state: dict) -> None:
        pass

    def build_engine(self, report) -> LoADPartEngine:
        raise NotImplementedError

    def run_system(self, state: dict, horizon_s: float) -> Episode:
        raise NotImplementedError

    # -- metrics ---------------------------------------------------------

    def latencies_s(self, episode: Episode) -> np.ndarray:
        return np.array([r.total_s for r in episode.records if r.completed])

    def deadline_met_frac(self, state: dict, episode: Episode) -> float:
        met = sum(1 for r in episode.records
                  if r.completed and (r.sla_s is None or r.met_sla))
        return met / len(episode.records)

    def mean_accuracy(self, state: dict, episode: Episode) -> float:
        engine = state["engine"]
        return _mean([engine.exit_accuracy(r.exit_index) if r.completed else 0.0
                      for r in episode.records])

    def failed(self, state: dict, episode: Episode) -> int:
        return sum(1 for r in episode.records if not r.completed)

    def prepare_checks(self, state: dict) -> None:
        """Reference outputs the checks need (none for the simulation)."""

    def keep(self, kept: Episode | None, episode: Episode) -> Tuple[Episode, List[str]]:
        """The episode the metrics describe: every repeat, traced or not,
        must produce the first one's records."""
        digest = self.digest(episode)
        if kept is None:
            episode.extra["digest"] = digest
            return episode, []
        if digest != kept.extra["digest"]:
            return kept, ["a repeated episode produced different records"]
        return kept, []

    def layer_metrics(self, state: dict, episode: Episode) -> Dict[str, float]:
        engine = state["engine"]
        records = episode.records
        done = [r for r in records if r.completed]
        offloaded = [r for r in done if not r.is_local]
        out = {f"stage.{s}_ms": _mean([
            (r.server_queue_s if s == "queue" else getattr(r, f"{s}_s")) * 1e3
            for r in done]) for s in STAGES}
        ratios = []
        for r in offloaded:
            if r.retries == 0 and r.status == "ok":
                eng = engine if r.exit_index is None else engine.exit_engine(r.exit_index)
                ratios.append(eng.predicted_total_time(
                    r.partition_point, r.estimated_bandwidth_bps, r.k_used) / r.total_s)
        out["profiling.pred_ratio_p50"] = _pct(ratios, 50)
        out["profiling.pred_ratio_p90"] = _pct(ratios, 90)
        out["network.estimator.bw_ratio_p50"] = _pct(
            [r.estimated_bandwidth_bps / self.bandwidth_bps for r in records], 50)
        out["core.offload_frac"] = len(offloaded) / len(records)
        out["core.early_exit_frac"] = sum(
            1 for r in records if r.exit_index is not None
            and r.exit_index < engine.num_exits - 1) / len(records)
        shares: Dict[int, int] = {}
        for r in offloaded:
            shares[r.server_id] = shares.get(r.server_id, 0) + 1
        out["runtime.gateway.max_server_share"] = (
            max(shares.values()) / len(offloaded) if offloaded else 0.0)
        out["runtime.supervisor.restarts_seen"] = episode.extra.get(
            "restarts_seen", 0.0)
        out["runtime.client.retries_per_req"] = _mean([r.retries for r in records])
        # Useful offloads per offload attempt (a fallback wasted its attempts).
        attempts = sum(1 + r.retries for r in records
                       if not r.is_local or r.fell_back or r.retries)
        out["runtime.client.offload_success_ratio"] = (
            len(offloaded) / attempts if attempts else 0.0)
        out["runtime.server.batch_size_mean"] = _mean(
            [r.batch_size for r in offloaded])
        out["runtime.cache.device_hit_ratio"] = _mean(
            [r.device_cache_hit for r in records])
        out["runtime.cache.server_hit_ratio"] = _mean(
            [r.server_cache_hit for r in offloaded])
        return out

    # -- checks ------------------------------------------------------------

    def check_records(self, episode: Episode) -> List[str]:
        """Stage decomposition and SLA stamps of every record."""
        problems = []
        for r in episode.records:
            if not r.completed:
                continue
            parts = (r.device_s + r.encode_s + r.upload_s + r.decode_s
                     + r.server_s + r.download_s + r.overhead_s + r.wasted_s)
            if not math.isclose(r.total_s, parts, rel_tol=1e-9):
                problems.append(f"request {r.request_id} at {r.start_s:.3f}s: "
                                f"total {r.total_s!r} != stage sum {parts!r}")
            if r.sla_s is not None and r.met_sla != (r.total_s <= r.sla_s):
                problems.append(f"request {r.request_id} at {r.start_s:.3f}s: "
                                f"met_sla {r.met_sla} disagrees with total")
        return problems[:5]

    def check(self, state: dict, episode: Episode) -> List[str]:
        return self.check_records(episode)

    def digest(self, episode: Episode) -> str:
        return hashlib.sha256(repr(episode.records).encode()).hexdigest()


def _flatten(result) -> list:
    return [r for timeline in result.timelines for r in timeline]


class FleetCrash(SimWorkload):
    name = "fleet_crash"
    horizon_s = 120.0
    bandwidth_bps = 50e6
    clients = 100

    def build_engine(self, report):
        return engine_for(report, build_model("squeezenet"))

    def run_system(self, state, horizon_s):
        # Server 0 is down for 2.5 s of every 40 s.
        crashes = tuple((2.5 + 40.0 * i, 5.0 + 40.0 * i)
                        for i in range(int(horizon_s // 40.0) + 1))
        system = GatewayFleetSystem(
            state["engine"], self.clients, num_servers=4,
            bandwidth_trace=ConstantTrace(self.bandwidth_bps),
            config=SystemConfig(seed=state["seed"], think_time_s=0.6,
                                resilience=ResilienceConfig(max_retries=2)),
            gateway_config=GatewayConfig(probes=SupervisorConfig(
                probe_period_s=0.5, dead_after_misses=2)),
            server_faults=[ServerFaultPlan(crash_windows=crashes), None, None, None],
        )
        records = _flatten(system.run(horizon_s))
        restarts = sum(h.restarts_seen for h in system.supervisor.health.values())
        return Episode(records, {"restarts_seen": float(restarts)})

    def check(self, state, episode):
        problems = self.check_records(episode)
        # Degenerate identity: a 1-server gateway with probes off is the
        # direct path, record for record.
        config = SystemConfig(seed=state["seed"])
        direct = MultiClientSystem(state["engine"], 3, config=config).run(2.0)
        degen = GatewayFleetSystem(state["engine"], 3, num_servers=1, config=config,
                                   gateway_config=GatewayConfig(probes=None)).run(2.0)
        if _flatten(direct) != _flatten(degen):
            problems.append("1-server gateway without probes differs from "
                            "the direct path")
        return problems


class SlaBatched(SimWorkload):
    name = "sla_batched"
    horizon_s = 100.0
    bandwidth_bps = 20e6
    clients = 48
    model = "mobilenet_v1"

    def build_engine(self, report):
        graph, branches = build_exit_model(self.model)
        return engine_for(report, graph, branches)

    def config(self, seed: int, sla_classes) -> SystemConfig:
        return SystemConfig(seed=seed, think_time_s=0.1, sla_classes=sla_classes,
                            batching=BatchingConfig(window_s=0.01),
                            resilience=ResilienceConfig(max_retries=2))

    def run_system(self, state, horizon_s):
        system = MultiClientSystem(
            state["engine"], self.clients,
            bandwidth_trace=ConstantTrace(self.bandwidth_bps),
            config=self.config(state["seed"], (0.1, 0.35, None)))
        return Episode(_flatten(system.run(horizon_s)))

    def check(self, state, episode):
        problems = self.check_records(episode)
        # Exit-free identity: without SLA classes the exit-carrying engine
        # produces the plain engine's records.
        plain = engine_for(state["report"], build_model(self.model))
        config = self.config(state["seed"], None)
        trace = ConstantTrace(self.bandwidth_bps)
        base = MultiClientSystem(plain, 3, bandwidth_trace=trace, config=config).run(2.0)
        exits = MultiClientSystem(state["engine"], 3, bandwidth_trace=trace,
                                  config=config).run(2.0)
        if _flatten(base) != _flatten(exits):
            problems.append("exit engine without SLA classes differs from "
                            "the plain engine")
        return problems


class Fig9Functional(SimWorkload):
    name = "fig9_functional"
    horizon_s = 260.0
    bandwidth_bps = 8e6
    warmup_s = 1e-3
    #: Requests whose outputs the naive backend must reproduce bit for bit.
    naive_requests = 20

    def build_engine(self, report):
        return engine_for(report, build_model("squeezenet"))

    def system(self, state: dict, backend: str, functional: bool):
        return OffloadingSystem(
            state["engine"], bandwidth_trace=ConstantTrace(self.bandwidth_bps),
            load_schedule=fig9_schedule(),
            config=SystemConfig(seed=state["seed"], backend=backend,
                                functional=functional))

    def run_outputs(self, state: dict, backend: str, horizon_s: float,
                    max_requests: int | None = None) -> Episode:
        system = self.system(state, backend, functional=True)
        outputs = []

        def keep(_record) -> None:
            if len(outputs) < self.naive_requests:
                outputs.append(system.device.last_output.copy())

        timeline = system.run(horizon_s, max_requests=max_requests, on_record=keep)
        return Episode(list(timeline), {"outputs": outputs})

    def run_system(self, state, horizon_s):
        return self.run_outputs(state, "planned", horizon_s)

    def check(self, state, episode):
        problems = self.check_records(episode)
        plain = list(self.system(state, "naive", functional=False).run(
            state["horizon_s"]))
        if plain != episode.records:
            problems.append("functional records differ from the "
                            "non-functional run")
        naive = self.run_outputs(state, "naive", state["horizon_s"],
                                 max_requests=self.naive_requests)
        planned = episode.extra["outputs"]
        if len(naive.extra["outputs"]) != len(planned) or any(
                a.tobytes() != b.tobytes()
                for a, b in zip(naive.extra["outputs"], planned)):
            problems.append("planned outputs differ from the naive backend")
        return problems


@dataclass(frozen=True)
class LoopbackRecord:
    bandwidth_bps: float
    input_index: int
    point: int
    codec: str
    chunks: int
    predicted_s: float
    device_s: float      # decision + head execution
    total_s: float       # device + encode + round trip
    server_s: float      # server wall time, as the reply reports it
    output_sha: str      # "" when the request failed


class LoopbackTcp:
    """Real TCP round trips to a ``run_server`` process on localhost."""

    name = "loopback_tcp"
    model = "squeezenet"
    model_seed = 0
    #: The offloading Fig. 6 upload rates the decision cycles through.
    rates_bps = (4e6, 8e6, 16e6, 32e6, 64e6)
    requests_per_rate = 10
    streaming = StreamingConfig(chunk_bytes=4096)
    timeout_s = 10.0
    wall_clock = True

    def setup(self, seed: int, scale: float) -> dict:
        report = train()
        engine = engine_for(report, build_model(self.model))
        graph = engine.graph
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        server = subprocess.Popen(
            [sys.executable, str(HERE / "loopback_server.py"), self.model,
             str(self.model_seed), str(port)],
            stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": src})
        state = {"engine": engine, "server": server, "loop": None, "client": None}
        try:
            listening, _, _ = select.select([server.stdout], [], [], 120)
            if not listening or server.stdout.readline().strip() != "ready":
                raise RuntimeError("loopback server did not start")
            loop = asyncio.new_event_loop()
            state["loop"] = loop
            state["client"] = loop.run_until_complete(
                TransportClient.connect("127.0.0.1", port))
            params = GraphExecutor(graph, seed=self.model_seed).params
            partitioner = GraphPartitioner(graph)
            points = sorted({engine.decide_joint(bw, streaming=self.streaming).point
                             for bw in self.rates_bps})
            state["heads"] = {}
            state["wire_order"] = {}
            for p in points:
                part = partitioner.partition(p)
                state["heads"][p] = (part, SegmentExecutor(
                    part.head, params=params, backend="planned"))
                state["wire_order"][p] = [n for n, _b, _o in engine.cut_tensors(p)]
            rng = np.random.default_rng(seed)
            n = max(1, round(self.requests_per_rate * scale))
            state["inputs"] = [rng.standard_normal(graph.input_spec.shape)
                               .astype(np.float32) for _ in range(n)]
            # First request per point: the server compiles each tail plan.
            for bw in self.rates_bps:
                loop.run_until_complete(self.request(state, bw, 0, None))
        except BaseException:
            self.close(state)
            raise
        return state

    async def request(self, state: dict, bandwidth_bps: float, index: int,
                      chunk_bytes: int | None) -> LoopbackRecord:
        engine = state["engine"]
        graph = engine.graph
        x = state["inputs"][index]
        t0 = time.perf_counter()
        joint = engine.decide_joint(bandwidth_bps, streaming=self.streaming)
        part, head = state["heads"][joint.point]
        boundary = head.run({graph.input_name: x}) if joint.point > 0 else {}
        boundary = {name: boundary[name] for name in part.transfer_specs
                    if name != graph.input_name}
        if graph.input_name in part.transfer_specs:
            boundary[graph.input_name] = x
        t1 = time.perf_counter()
        try:
            out = await state["client"].offload(
                joint.point, boundary, codec=joint.codec, chunk_bytes=chunk_bytes,
                order=state["wire_order"][joint.point], timeout_s=self.timeout_s)
        except TransportFailure:
            return LoopbackRecord(bandwidth_bps, index, joint.point, joint.codec, 0,
                                  joint.predicted_latency, t1 - t0,
                                  time.perf_counter() - t0, 0.0, "")
        t2 = time.perf_counter()
        return LoopbackRecord(
            bandwidth_bps, index, joint.point, joint.codec, out.chunks,
            joint.predicted_latency, t1 - t0, t2 - t0, out.server_s,
            hashlib.sha256(np.ascontiguousarray(out.result).tobytes()).hexdigest())

    async def cycle(self, state: dict) -> List[LoopbackRecord]:
        records = []
        for bw in self.rates_bps:
            for index in range(len(state["inputs"])):
                for chunk_bytes in (None, self.streaming.chunk_bytes):
                    records.append(await self.request(state, bw, index, chunk_bytes))
        return records

    def episode(self, state: dict) -> Episode:
        return Episode(state["loop"].run_until_complete(self.cycle(state)))

    def prepare_checks(self, state: dict) -> None:
        """Output digests of a local full-model run on every input."""
        executor = GraphExecutor(state["engine"].graph, seed=self.model_seed)
        state["reference_sha"] = [
            hashlib.sha256(np.ascontiguousarray(executor.run(x)).tobytes()).hexdigest()
            for x in state["inputs"]]

    def keep(self, kept: Episode | None, episode: Episode) -> Tuple[Episode, List[str]]:
        """Every cycle's requests (cycles differ in wall time only)."""
        return Episode((kept.records if kept else []) + episode.records), []

    def close(self, state: dict) -> None:
        """Shut the server down and wait for its process to end."""
        server, loop, client = state["server"], state["loop"], state["client"]
        state["server_peak_rss_mb"] = _peak_rss_mb(server.pid)
        try:
            if client is not None:
                loop.run_until_complete(client.shutdown_server())
                loop.run_until_complete(client.close())
        except (ConnectionError, OSError):
            pass
        finally:
            if loop is not None:
                loop.close()
            try:
                server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()
            server.stdout.close()

    # -- metrics -----------------------------------------------------------

    def latencies_s(self, episode: Episode) -> np.ndarray:
        return np.array([r.total_s for r in episode.records if r.output_sha])

    def deadline_met_frac(self, state: dict, episode: Episode) -> float:
        return 1.0 - self.failed(state, episode) / len(episode.records)

    def mean_accuracy(self, state: dict, episode: Episode) -> float:
        return self.deadline_met_frac(state, episode)

    def failed(self, state: dict, episode: Episode) -> int:
        # A reply that does not match the local model counts as failed.
        refs = state["reference_sha"]
        return sum(1 for r in episode.records
                   if r.output_sha != refs[r.input_index])

    def layer_metrics(self, state: dict, episode: Episode) -> Dict[str, float]:
        done = [r for r in episode.records if r.output_sha]
        out = {f"stage.{s}_ms": 0.0 for s in STAGES}
        out["stage.device_ms"] = _mean([r.device_s * 1e3 for r in done])
        # Encode, both transfers and framing, as the client sees them.
        out["stage.upload_ms"] = _mean(
            [(r.total_s - r.device_s - r.server_s) * 1e3 for r in done])
        out["stage.server_ms"] = _mean([r.server_s * 1e3 for r in done])
        ratios = [r.predicted_s / r.total_s for r in done]
        n = state["engine"].num_nodes
        out.update({
            "profiling.pred_ratio_p50": _pct(ratios, 50),
            "profiling.pred_ratio_p90": _pct(ratios, 90),
            "network.estimator.bw_ratio_p50": 1.0,
            "core.offload_frac": _mean([r.point < n for r in episode.records]),
            "core.early_exit_frac": 0.0,
            "runtime.gateway.max_server_share": 1.0,
            "runtime.supervisor.restarts_seen": 0.0,
            "runtime.client.retries_per_req": 0.0,
            "runtime.client.offload_success_ratio": len(done) / len(episode.records),
            "runtime.server.batch_size_mean": 1.0,
            # Head executors and server tail plans are compiled in set-up.
            "runtime.cache.device_hit_ratio": 1.0,
            "runtime.cache.server_hit_ratio": 1.0,
        })
        return out

    # -- checks --------------------------------------------------------------

    def check(self, state: dict, episode: Episode) -> List[str]:
        """Every reply must equal a local full-model run, bit for bit (the
        streaming config offers lossless codecs only)."""
        problems = []
        lossy = {r.codec for r in episode.records} - TensorCodec.LOSSLESS
        if lossy:
            problems.append(f"lossy codecs decided: {sorted(lossy)}")
        bad = self.failed(state, episode)
        if bad:
            problems.append(f"{bad} of {len(episode.records)} replies failed or "
                            "differ from the local model")
        return problems

    def digest(self, episode: Episode) -> str:
        """Decisions and outputs, whatever number of cycles ran."""
        decisions = sorted({(r.bandwidth_bps, r.input_index, r.point, r.codec,
                             r.chunks, r.output_sha) for r in episode.records})
        return hashlib.sha256(repr(decisions).encode()).hexdigest()


def _peak_rss_mb(pid: int) -> float:
    """Peak resident set of a live process, from ``/proc`` (0 if unknown)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


WORKLOADS = {w.name: w for w in (FleetCrash(), SlaBatched(), Fig9Functional(),
                                 LoopbackTcp())}
