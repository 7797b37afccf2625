"""``LoADPartEngine``: the per-model decision engine of §IV.

Binds together a computation graph, the trained prediction models
(M_user, M_edge) and the cut analysis.  The prefix and suffix arrays of
Algorithm 1 are computed exactly once at construction; each call to
:meth:`decide` is then a single O(n) scan with the current bandwidth
estimate and the latest influential factor ``k`` multiplied onto the
suffix sum, exactly as the paper's implementation does.

:meth:`decide_exit_fleet` runs that scan over a whole grid of early exits
and edge servers at once: one NumPy objective array over ``(exit, server,
point)``, one Algorithm 1 row per ``(exit, server)`` pair, resolved by the
tie rules documented there into one :class:`GridDecision`.
:meth:`decide_fleet` (no SLA) and :meth:`decide_exit` (one server) are
that same scan.

:meth:`decide_joint` extends the scan to the streaming pipeline: for
every candidate codec it folds the declared encode/decode times and wire
sizes into the prefix/suffix cost terms, and for chunked uploads it
credits upload/compute overlap using the *release schedule* of the tail
— tail node ``j`` cannot start before the last crossing tensor it
(transitively, in execution order) depends on has arrived, so the
pipelined finish time is

    max over release breakpoints v of
        frac_v * t_up + decode_cum_v + k * suffix[jstart_v]

where ``frac_v`` is the cumulative wire fraction at which crossing
tensor ``v`` completes.  The load factor ``k`` still scales every
server-side compute term; decode runs on the server CPU and is charged
unscaled.  With the identity codec and no chunking the joint scan
reduces to exactly Algorithm 1 (bit-for-bit the same candidate vector).

The three scans, :meth:`decide`, :meth:`decide_exit_fleet` and
:meth:`decide_joint`, are pure functions of their arguments and of arrays
fixed at construction, and a client's inputs (the window-median bandwidth
and ``k``) change only when a probe, a transfer or the watchdog updates
them.  So each engine keeps a bounded LRU memo of its decisions, keyed on
the scan and its exact argument values; callers share the returned
decisions, whose arrays are therefore read-only.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.partition_algorithm import (
    PartitionDecision,
    compute_prefix_device,
    compute_suffix_edge,
    partition_decision,
)
from repro.graph.exits import ExitBranch, validate_exits
from repro.graph.graph import ComputationGraph
from repro.graph.partitioner import GraphPartitioner
from repro.profiling.features import NodeProfile, profile_graph
from repro.profiling.predictor import LatencyPredictor

#: Decisions one engine remembers; the least recently used one goes first.
_MEMO_SIZE = 256


def _memoized(scan):
    """Serve repeated calls of an engine scan from the engine's LRU memo.

    The key is the scan's name, its positional arguments and its keyword
    arguments by name, compared by value, with lists turned into tuples.
    ``ServerProfile`` and ``StreamingConfig`` arguments are frozen and
    hashable and enter the key themselves, holding their predictors
    alive.  A call that raises stores nothing, and a call with an
    unhashable argument bypasses the memo.
    """
    name = scan.__name__

    @functools.wraps(scan)
    def memoized(self, *args, **kwargs):
        # The positional count keeps a keyword pair from passing for a
        # positional argument.
        key = [name, len(args)]
        for value in args:
            key.append(tuple(value) if type(value) is list else value)
        for item in kwargs.items():
            if type(item[1]) is list:
                item = (item[0], tuple(item[1]))
            key.append(item)
        key = tuple(key)
        memo = self._memo
        try:
            decision = memo.get(key)
        except TypeError:
            return scan(self, *args, **kwargs)
        if decision is None:
            decision = scan(self, *args, **kwargs)
            memo[key] = decision
            if len(memo) > _MEMO_SIZE:
                memo.popitem(last=False)
        else:
            memo.move_to_end(key)
        return decision

    return memoized


def _read_only(*arrays: np.ndarray) -> None:
    for array in arrays:
        array.flags.writeable = False


@dataclass(frozen=True)
class ServerProfile:
    """Hardware and link description of one edge server in a fleet.

    ``edge_predictor`` is that server's own M_edge bundle (``None`` means
    the engine's shared predictor — the homogeneous default);
    ``bandwidth_bps`` is a link-bandwidth *prior* used when no live
    estimate is available; ``extra_latency_s`` is the server's relative
    link position (one-way base latency above the nearest server's),
    likewise a prior that a supervisor's learned estimate overrides.

    A fleet where every profile is ``ServerProfile()`` is bit-identical
    to passing no profiles at all.
    """

    edge_predictor: object | None = None
    bandwidth_bps: float | None = None
    extra_latency_s: float = 0.0

    def __post_init__(self) -> None:
        if self.edge_predictor is not None and self.edge_predictor.side != "edge":
            raise ValueError("a ServerProfile predictor must be the 'edge' side")
        if self.bandwidth_bps is not None and self.bandwidth_bps <= 0:
            raise ValueError("bandwidth_bps prior must be positive")
        if not math.isfinite(self.extra_latency_s) or self.extra_latency_s < 0:
            raise ValueError("extra_latency_s must be non-negative and finite")


@dataclass(frozen=True)
class GridDecision:
    """Result of one scan of the ``(exit, server, point)`` decision grid.

    ``exit_index`` indexes the engine's exit set (the full network is
    ``num_exits - 1``, the only exit of an exit-free engine).  ``server``
    is the chosen server's index, or ``None`` when local inference wins:
    ``point`` is then the exit's node count and ``predicted_latency`` its
    device-only time.  ``feasible`` says whether the chosen exit meets
    ``sla_s`` (always ``True`` without an SLA).

    Each ``(exit, allowed server)`` pair is one Algorithm 1 row.
    ``exits`` lists the evaluated exits (only the final one when ``sla_s``
    is ``None``) and ``servers`` the allowed server indices, ascending.
    ``row_points[i, j]`` and ``row_latencies[i, j]`` are the latest
    minimising point of row ``(exits[i], servers[j])`` and its objective
    value; ``candidates[i][j]`` is the row's whole objective vector.
    """

    exit_index: int
    point: int
    server: int | None
    predicted_latency: float
    accuracy: float
    sla_s: float | None
    feasible: bool
    exits: Tuple[int, ...]
    servers: Tuple[int, ...]
    row_points: np.ndarray
    row_latencies: np.ndarray
    candidates: Tuple[np.ndarray, ...]

    @property
    def is_local(self) -> bool:
        return self.server is None


@dataclass(frozen=True)
class JointDecision:
    """Result of one joint ``(partition point, codec, chunking)`` decision.

    ``candidates`` maps ``(codec, mode)`` — mode ``"mono"`` or
    ``"stream"`` — to the full objective vector over partition points,
    for tests and Fig. 1-style landscapes.
    """

    point: int
    codec: str
    streamed: bool
    chunks: int
    predicted_latency: float
    predicted_device_s: float
    predicted_encode_s: float
    predicted_upload_s: float
    predicted_decode_s: float
    predicted_server_s: float
    wire_bytes: int
    candidates: Dict[Tuple[str, str], np.ndarray]

    @property
    def is_local(self) -> bool:
        return self.point == len(next(iter(self.candidates.values()))) - 1


class LoADPartEngine:
    """Decision engine for one DNN on one (device, server) pair."""

    def __init__(
        self,
        graph: ComputationGraph,
        user_predictor: LatencyPredictor,
        edge_predictor: LatencyPredictor,
        upload_codec=None,
        exits: Sequence[ExitBranch] | None = None,
    ) -> None:
        if user_predictor.side != "device":
            raise ValueError("user_predictor must be the 'device' side")
        if edge_predictor.side != "edge":
            raise ValueError("edge_predictor must be the 'edge' side")
        #: The graph's one partitioner (it validates the graph).  Every
        #: device's and server's partition cache draws from it, so each
        #: point is partitioned once per engine.
        self.partitioner = GraphPartitioner(graph)
        self.graph = graph
        self.upload_codec = upload_codec
        self.profiles: List[NodeProfile] = profile_graph(graph)
        self.device_times = user_predictor.predict_nodes(self.profiles)
        self.edge_times = edge_predictor.predict_nodes(self.profiles)
        self._cuts = self.partitioner.cuts
        sizes = [cut.upload_bytes for cut in self._cuts]
        if upload_codec is not None:
            # Compressed uploads (codec extension): the decision sees the
            # wire sizes, which shifts the optimum toward earlier cuts.
            sizes = [upload_codec.wire_bytes(s) for s in sizes]
        self.sizes = sizes
        self.output_bytes = graph.output_spec.nbytes
        self._prefix = compute_prefix_device(self.device_times)
        self._suffix = compute_suffix_edge(self.edge_times)
        # Lazy streaming caches: per-codec wire-size vectors, per-point
        # cut-tensor metadata and release-schedule breakpoints.
        self._codec_cache: Dict[str, object] = {}
        self._wire_cache: Dict[str, np.ndarray] = {}
        self._cut_tensor_cache: Dict[int, Tuple[Tuple[str, int, str], ...]] = {}
        self._release_cache: Dict[int, Tuple[Tuple[int, int], ...]] = {}
        # Early exits: one sub-engine per exit branch over the same
        # predictor bundle — independent per-exit prefix/suffix arrays,
        # computed once here.  The final exit's engine IS this engine
        # (its graph is the backbone), so every exit-free code path is
        # untouched by construction.
        self.exits: Tuple[ExitBranch, ...] = validate_exits(graph, exits or ())
        if self.exits:
            subs = [
                LoADPartEngine(b.graph, user_predictor, edge_predictor,
                               upload_codec=upload_codec)
                for b in self.exits[:-1]
            ]
            subs.append(self)
            self._exit_engines: Tuple[LoADPartEngine, ...] = tuple(subs)
        else:
            self._exit_engines = (self,)
        # The decision grid of :meth:`decide_exit_fleet`: every exit's
        # prefix, ``sizes * 8`` and suffix vectors, padded to the longest
        # exit.  Padding never wins (infinite prefix); ``_grid_ends`` holds
        # each exit's local point and ``_grid_local`` its device-only time.
        self._grid_ends = np.array([e.num_nodes for e in self._exit_engines])
        self._grid_width = int(self._grid_ends.max()) + 1
        self._grid_prefix = self._stack_exits(
            [e._prefix for e in self._exit_engines], np.inf)
        self._grid_bits = self._stack_exits(
            [np.asarray(e.sizes[:-1], dtype=np.float64) * 8
             for e in self._exit_engines], 0.0)
        self._grid_suffix = self._stack_exits(
            [e._suffix for e in self._exit_engines], 0.0)
        self._grid_local = self._grid_prefix[np.arange(self.num_exits),
                                             self._grid_ends][:, None]
        # Per-profile suffix stacks for heterogeneous fleets, keyed by
        # predictor identity (the cache holds a strong reference, so ids
        # cannot be recycled while an entry lives).
        self._suffix_stacks: Dict[int, Tuple[object, np.ndarray]] = {}
        # The decision memo of :func:`_memoized`, oldest entry first.
        self._memo: OrderedDict = OrderedDict()

    def _stack_exits(self, vectors: Sequence[np.ndarray], fill: float) -> np.ndarray:
        """One vector per exit, stacked and padded with ``fill``."""
        stack = np.full((len(vectors), self._grid_width), fill)
        for e, vector in enumerate(vectors):
            stack[e, :len(vector)] = vector
        return stack

    @property
    def num_nodes(self) -> int:
        return len(self.profiles)

    # -- early exits ---------------------------------------------------------

    @property
    def has_exits(self) -> bool:
        return bool(self.exits)

    @property
    def num_exits(self) -> int:
        return len(self._exit_engines)

    def exit_engine(self, index: int) -> "LoADPartEngine":
        """The sub-engine of exit ``index`` (the last one is ``self``)."""
        return self._exit_engines[index]

    def exit_accuracy(self, index: int | None = None) -> float:
        """Declared accuracy proxy of exit ``index`` (default: final).

        An exit-free engine reports 1.0 — the full network is the only
        (and therefore the most accurate) exit.
        """
        if not self.exits:
            return 1.0
        return self.exits[-1 if index is None else index].accuracy

    @_memoized
    def decide(
        self,
        bandwidth_up: float,
        k: float = 1.0,
        bandwidth_down: float | None = None,
        offload_only: bool = False,
        extra_latency_s: float = 0.0,
        profile: ServerProfile | None = None,
    ) -> PartitionDecision:
        """Run Algorithm 1 under the given link/load conditions.

        ``extra_latency_s`` is a fixed per-request penalty on every
        offloading candidate (a server's link base latency); the 0.0
        default reproduces the paper's scan exactly.  ``profile``
        substitutes that server's own edge predictor for the suffix
        array (the device prefix never changes — the device is ours);
        a ``None`` profile or a profile without a predictor uses the
        engine's shared suffix bit-for-bit.
        """
        decision = partition_decision(
            self.device_times,
            self.edge_times,
            self.sizes,
            bandwidth_up,
            k=k,
            bandwidth_down=bandwidth_down,
            output_bytes=self.output_bytes,
            prefix=self._prefix,
            suffix=self._suffix_for(profile),
            offload_only=offload_only,
            extra_latency_s=extra_latency_s,
        )
        _read_only(decision.candidates)
        return decision

    def _suffix_for(self, profile: ServerProfile | None) -> np.ndarray:
        """Suffix array of this engine's graph under one server profile."""
        if profile is None or profile.edge_predictor is None:
            return self._suffix
        return self._suffix_stack(profile)[-1, :self.num_nodes + 1]

    def _suffix_stack(self, profile: ServerProfile | None) -> np.ndarray:
        """Every exit's suffix row under one profile (cached per predictor)."""
        if profile is None or profile.edge_predictor is None:
            return self._grid_suffix
        predictor = profile.edge_predictor
        entry = self._suffix_stacks.get(id(predictor))
        if entry is None or entry[0] is not predictor:
            stack = self._stack_exits(
                [compute_suffix_edge(predictor.predict_nodes(e.profiles))
                 for e in self._exit_engines], 0.0)
            entry = (predictor, stack)
            self._suffix_stacks[id(predictor)] = entry
        return entry[1]

    def _resolve_fleet(
        self,
        sla_s: float | None,
        bandwidths_up: Sequence[float | None],
        ks: Sequence[float],
        extra_latencies_s: Sequence[float] | None,
        bandwidth_down: float | None,
        allowed: Sequence[int] | None,
        profiles: Sequence[ServerProfile | None] | None,
    ) -> Tuple[List[int], List[float], List[float], List[float],
               List[ServerProfile | None]]:
        """Argument checks and resolution shared by the grid and its reference.

        Returns the allowed server indices, ascending, and for each one
        its upload bandwidth (a ``None`` entry falls back to the profile's
        prior), load factor, link penalty (defaulting to the profile's
        link position) and profile.  The scalar reference in the tests
        (``exit_fleet_brute_force``) calls this too, so it cannot diverge
        on resolution rules.
        """
        if sla_s is not None and (not math.isfinite(sla_s) or sla_s <= 0):
            raise ValueError(f"sla_s must be positive and finite, got {sla_s}")
        if bandwidth_down is not None and bandwidth_down <= 0:
            raise ValueError("download bandwidth must be positive")
        num = len(bandwidths_up)
        if len(ks) != num:
            raise ValueError("bandwidths_up and ks must have the same length")
        if profiles is None:
            profiles = [None] * num
        elif len(profiles) != num:
            raise ValueError("profiles must match bandwidths_up")
        if extra_latencies_s is None:
            extra_latencies_s = [
                0.0 if p is None else p.extra_latency_s for p in profiles
            ]
        elif len(extra_latencies_s) != num:
            raise ValueError("extra_latencies_s must match bandwidths_up")
        bandwidths = list(bandwidths_up)
        for s, (bw, p) in enumerate(zip(bandwidths, profiles)):
            if bw is None:
                if p is None or p.bandwidth_bps is None:
                    raise ValueError(
                        f"server {s} has no bandwidth estimate and its "
                        "profile carries no prior"
                    )
                bandwidths[s] = p.bandwidth_bps
        servers = (list(range(num)) if allowed is None
                   else sorted({operator.index(s) for s in allowed}))
        if any(not 0 <= s < num for s in servers):
            raise ValueError(f"allowed indices must be in [0, {num})")
        for s in servers:
            if bandwidths[s] <= 0:
                raise ValueError("upload bandwidth must be positive")
            if ks[s] < 1.0:
                raise ValueError(
                    f"the influential factor k must be >= 1, got {ks[s]}")
            if extra_latencies_s[s] < 0:
                raise ValueError("extra_latency_s must be non-negative")
        return (servers, [bandwidths[s] for s in servers],
                [ks[s] for s in servers],
                [extra_latencies_s[s] for s in servers],
                [profiles[s] for s in servers])

    def decide_fleet(
        self,
        bandwidths_up: Sequence[float | None],
        ks: Sequence[float],
        extra_latencies_s: Sequence[float] | None = None,
        bandwidth_down: float | None = None,
        allowed: Sequence[int] | None = None,
        offload_only: bool = False,
        profiles: Sequence[ServerProfile | None] | None = None,
    ) -> GridDecision:
        """Jointly pick ``(partition point, server)``: the grid without an SLA."""
        return self.decide_exit_fleet(
            None, bandwidths_up, ks, extra_latencies_s=extra_latencies_s,
            bandwidth_down=bandwidth_down, allowed=allowed,
            offload_only=offload_only, profiles=profiles)

    def decide_exit(
        self,
        sla_s: float | None,
        bandwidth_up: float,
        k: float = 1.0,
        bandwidth_down: float | None = None,
        offload_only: bool = False,
        extra_latency_s: float = 0.0,
        profile: ServerProfile | None = None,
    ) -> GridDecision:
        """Jointly pick ``(exit, partition point)``: the grid on one server."""
        return self.decide_exit_fleet(
            sla_s, [bandwidth_up], [k], extra_latencies_s=[extra_latency_s],
            bandwidth_down=bandwidth_down, offload_only=offload_only,
            profiles=[profile])

    @_memoized
    def decide_exit_fleet(
        self,
        sla_s: float | None,
        bandwidths_up: Sequence[float | None],
        ks: Sequence[float],
        extra_latencies_s: Sequence[float] | None = None,
        bandwidth_down: float | None = None,
        allowed: Sequence[int] | None = None,
        offload_only: bool = False,
        profiles: Sequence[ServerProfile | None] | None = None,
    ) -> GridDecision:
        """Jointly pick ``(exit, server, partition point)`` in one scan.

        Every ``(exit, allowed server)`` pair is one Algorithm 1 row, and
        all rows are evaluated at once over an ``(exit, server, point)``
        array.  An offloading candidate costs

            (prefix + k_s * suffix) + ((sizes * 8 / B_s + download) + extra_s)

        in exactly :func:`partition_decision`'s operation order, so each
        row is bit-identical to :meth:`decide` on that exit and server;
        the local candidate costs the device prefix alone.  Tie rules:

        - within a row, the latest minimising point wins (Algorithm 1's
          ``<=``, which prefers local); ``offload_only`` drops the local
          candidate;
        - across servers, the earliest allowed server wins, so local wins
          only when every row picks it (``server`` is then ``None``);
        - across exits, the latest exit whose best latency is ``<= sla_s``
          wins, else the first fastest exit with ``feasible=False``.
          ``sla_s=None`` evaluates the final exit only.

        Server ``s`` is described by ``ks[s]``, ``bandwidths_up[s]`` (a
        ``None`` entry falls back to ``profiles[s]``'s bandwidth prior),
        ``extra_latencies_s[s]`` (default: the profile's link position)
        and ``profiles[s]``'s own edge predictor.  ``allowed`` restricts
        the scan to a subset of servers (the gateway drops dead and
        saturated ones); an empty ``allowed`` yields the local decision.
        """
        servers, bandwidths, row_ks, extras, row_profiles = self._resolve_fleet(
            sla_s, bandwidths_up, ks, extra_latencies_s, bandwidth_down,
            allowed, profiles)
        first = self.num_exits - 1 if sla_s is None else 0
        ends = self._grid_ends[first:]
        rows = np.arange(len(ends))

        stacks = [self._suffix_stack(p) for p in row_profiles]
        if len({id(stack) for stack in stacks}) <= 1:
            # One shared predictor: broadcast its stack, do not copy it.
            suffix = (stacks[0] if stacks else self._grid_suffix)[first:, None, :]
        else:
            suffix = np.stack([stack[first:] for stack in stacks], axis=1)
        grid = np.array(row_ks, dtype=np.float64)[:, None] * suffix
        grid += self._grid_prefix[first:, None, :]
        net = (self._grid_bits[first:, None, :]
               / np.array(bandwidths, dtype=np.float64)[:, None])
        if bandwidth_down is not None:
            net += np.array([e.output_bytes * 8 / bandwidth_down
                             for e in self._exit_engines[first:]])[:, None, None]
        net += np.array(extras, dtype=np.float64)[:, None]
        grid += net
        # Local inference has no network and no server term.
        grid[rows, :, ends] = self._grid_local[first:]
        scan = grid
        if offload_only:
            scan = grid.copy()
            scan[rows, :, ends] = np.inf
        # First minimum of the reversed rows: the latest point wins ties.
        points = self._grid_width - 1 - scan[..., ::-1].argmin(axis=-1)
        latencies = scan.min(axis=-1)
        _read_only(grid, points, latencies)

        if servers:
            best = latencies.argmin(axis=1)  # the earliest server wins ties
            exit_points = points[rows, best].tolist()
            exit_latencies = latencies[rows, best].tolist()
            exit_servers = [servers[j] if p < n else None for j, p, n in
                            zip(best.tolist(), exit_points, ends.tolist())]
        else:
            exit_points = ends.tolist()
            exit_latencies = self._grid_local[first:, 0].tolist()
            exit_servers = [None] * len(ends)
        chosen, feasible = ((0, True) if sla_s is None
                            else self._pick_exit(sla_s, exit_latencies))
        return GridDecision(
            exit_index=first + chosen,
            point=exit_points[chosen],
            server=exit_servers[chosen],
            predicted_latency=exit_latencies[chosen],
            accuracy=self.exit_accuracy(first + chosen),
            sla_s=None if sla_s is None else float(sla_s),
            feasible=feasible,
            exits=tuple(range(first, self.num_exits)),
            servers=tuple(servers),
            row_points=points,
            row_latencies=latencies,
            candidates=tuple(grid[e, :, :n + 1]
                             for e, n in enumerate(ends.tolist())),
        )

    @staticmethod
    def _pick_exit(sla_s: float, latencies: Sequence[float]) -> Tuple[int, bool]:
        """The exit rule: latest exit meeting the SLA, else the fastest.

        Accuracies are nondecreasing in exit order, so "latest feasible"
        is "most accurate feasible".  The fallback is strict ``<`` on a
        forward scan, so the earliest exit wins latency ties.  With this
        fallback a *tighter* SLA can never select a *later* exit (SLA
        monotonicity): the global argmin's latency is a lower bound on
        every feasible latency at any looser SLA.
        """
        for e in range(len(latencies) - 1, -1, -1):
            if latencies[e] <= sla_s:
                return e, True
        fastest = 0
        for e in range(1, len(latencies)):
            if latencies[e] < latencies[fastest]:
                fastest = e
        return fastest, False

    # -- streaming: joint (point, codec, chunking) decision ------------------

    def codec(self, name: str):
        """Cached :class:`~repro.network.codec.TensorCodec` by name."""
        if name not in self._codec_cache:
            # Deferred import: repro.core loads before repro.network in the
            # package __init__ chain.
            from repro.network.codec import TensorCodec

            self._codec_cache[name] = TensorCodec(name)
        return self._codec_cache[name]

    def cut_tensors(self, point: int) -> Tuple[Tuple[str, int, str], ...]:
        """Crossing tensors of cut ``point`` in *wire* order.

        Each entry is ``(producer_name, fp32_bytes, producer_op)``; the
        graph input is reported with op ``"input"``.  Tensors are ordered
        by the position of their first consumer in the tail — the device
        serializes the tensor the server needs soonest first, which is
        what makes arrival-gated overlap possible at all (production
        order would often ship the immediately-needed tensor *last*).
        Ties break on production order, so single-tensor cuts and chain
        graphs are unaffected.
        """
        self._check_point(point)
        if point not in self._cut_tensor_cache:
            graph = self.graph
            order = graph.topological_order()
            first_consumer = {}
            for j in range(point, len(order)):
                for dep in graph.node(order[j]).inputs:
                    first_consumer.setdefault(dep, j)
            tensors = []
            for prod_idx, name in enumerate(self._cuts[point].crossing):
                if name == graph.input_name:
                    entry = (name, graph.input_spec.nbytes, "input")
                else:
                    node = graph.node(name)
                    entry = (name, node.output.nbytes, node.op)
                tensors.append(
                    (first_consumer.get(name, len(order)), prod_idx, entry))
            tensors.sort(key=lambda t: t[:2])
            self._cut_tensor_cache[point] = tuple(e for _f, _p, e in tensors)
        return self._cut_tensor_cache[point]

    def _release_entries(self, point: int) -> Tuple[Tuple[int, int], ...]:
        """Release schedule of the tail at cut ``point``.

        Entries ``(v, jstart)``: the run of tail nodes starting at
        topological index ``jstart`` cannot begin before crossing tensor
        ``v`` (index into :meth:`cut_tensors`) has arrived.  The release
        index is a running maximum over execution order, so entries are
        strictly increasing in both components.
        """
        if point not in self._release_cache:
            order = self.graph.topological_order()
            idx = {name: i for i, (name, _nb, _op) in
                   enumerate(self.cut_tensors(point))}
            entries = []
            release = -1
            for j in range(point, len(order)):
                node = self.graph.node(order[j])
                needed = max((idx[dep] for dep in node.inputs if dep in idx),
                             default=-1)
                if needed > release:
                    release = needed
                    entries.append((release, j))
            self._release_cache[point] = tuple(entries)
        return self._release_cache[point]

    def release_schedule(self, point: int) -> Tuple[Tuple[str, int], ...]:
        """Arrival gates of the tail at cut ``point``, by tensor *name*.

        Each entry ``(tensor_name, jstart)`` says: the run of tail nodes
        starting at topological index ``jstart`` cannot begin before the
        crossing tensor ``tensor_name`` is available on the server.  This
        is :meth:`_release_entries` translated for the runtime, which keys
        uploaded tensors by producer name.
        """
        names = [name for name, _nb, _op in self.cut_tensors(point)]
        return tuple((names[v], j) for v, j in self._release_entries(point))

    def _wire_sizes(self, codec_name: str) -> np.ndarray:
        """Declared wire bytes per partition point for ``codec_name``."""
        if codec_name not in self._wire_cache:
            codec = self.codec(codec_name)
            n = self.num_nodes
            wire = np.zeros(n + 1, dtype=np.int64)
            if codec_name == "fp32":
                # Identity codec: the wire size IS the raw cut size --
                # computed from the same array as Algorithm 1 so the
                # degenerate joint scan is bit-identical to decide().
                wire[:] = [cut.upload_bytes for cut in self._cuts]
            else:
                for p in range(n):
                    wire[p] = sum(codec.wire_bytes(nb, op)
                                  for _name, nb, op in self.cut_tensors(p))
            self._wire_cache[codec_name] = wire
        return self._wire_cache[codec_name]

    @_memoized
    def decide_joint(self, bandwidth_up: float, k: float = 1.0,
                     streaming=None,
                     bandwidth_down: float | None = None,
                     offload_only: bool = False) -> JointDecision:
        """Jointly pick ``(partition point, codec, chunking)``.

        For every candidate codec the mono (whole-tensor upload) objective
        adds the declared encode/decode terms to Algorithm 1; the streamed
        objective additionally credits upload/compute overlap via the tail
        release schedule (see the module docstring).  Ties break toward
        earlier codecs in ``streaming.codecs`` and the monolithic mode, and
        within one objective vector toward the latest point, exactly like
        Algorithm 1 — so ``StreamingConfig(codecs=("fp32",),
        chunk_bytes=None)`` reproduces :meth:`decide` verbatim.
        """
        if streaming is None:
            raise ValueError("decide_joint requires a StreamingConfig")
        if self.upload_codec is not None:
            raise ValueError(
                "decide_joint is incompatible with a static upload_codec; "
                "list the codec in StreamingConfig.codecs instead")
        if bandwidth_up <= 0:
            raise ValueError("upload bandwidth must be positive")
        if k < 1.0:
            raise ValueError(f"the influential factor k must be >= 1, got {k}")
        download = 0.0
        if bandwidth_down is not None:
            if bandwidth_down <= 0:
                raise ValueError("download bandwidth must be positive")
            download = self.output_bytes * 8 / bandwidth_down

        n = self.num_nodes
        raw = np.asarray([cut.upload_bytes for cut in self._cuts],
                         dtype=np.float64)
        candidates: Dict[Tuple[str, str], np.ndarray] = {}
        best = None  # (value, point, codec, mode) under strict-< combo order

        for name in streaming.codecs:
            codec = self.codec(name)
            wire = self._wire_sizes(name)
            enc = codec.encode_time_s(raw)
            dec = codec.decode_time_s(raw)
            t_up = wire.astype(np.float64) * 8 / bandwidth_up

            mono = self._prefix + k * self._suffix
            mono[:-1] += t_up[:-1] + download
            mono += enc + dec
            candidates[(name, "mono")] = mono

            modes = [("mono", mono)]
            if streaming.chunk_bytes is not None:
                stream = np.full(n + 1, np.inf)
                for p in range(n):
                    total_wire = int(wire[p])
                    chunks = streaming.num_chunks(total_wire)
                    if chunks <= 1:
                        continue  # single chunk == the monolithic candidate
                    tensors = self.cut_tensors(p)
                    cum_wire = np.cumsum(
                        [codec.wire_bytes(nb, op) for _n, nb, op in tensors])
                    t_stream = (total_wire * 8 / bandwidth_up
                                + (chunks - 1) * streaming.chunk_overhead_s)
                    # Per-tensor availability on the server: tensor v is
                    # decodable once its last byte lands (its wire-prefix
                    # fraction of the stream) and the decoder — which works
                    # through tensors in wire order — gets to it.
                    avail = []
                    busy = 0.0
                    for v, (_nm, nb, _op) in enumerate(tensors):
                        arrival = cum_wire[v] / cum_wire[-1] * t_stream
                        busy = max(arrival, busy) + codec.decode_time_s(
                            float(nb))
                        avail.append(busy)
                    finish = 0.0
                    for v, jstart in self._release_entries(p):
                        term = avail[v] + k * self._suffix[jstart]
                        finish = max(finish, term)
                    stream[p] = self._prefix[p] + enc[p] + finish + download
                candidates[(name, "stream")] = stream
                modes.append(("stream", stream))

            for mode, arr in modes:
                _read_only(arr)
                scan = arr[:-1] if offload_only else arr
                point = int(len(scan) - 1 - np.argmin(scan[::-1]))
                value = float(scan[point])
                if np.isfinite(value) and (best is None or value < best[0]):
                    best = (value, point, name, mode)

        value, point, name, mode = best
        return self._build_joint(point, name, mode, value, candidates,
                                 streaming, bandwidth_up, k)

    def joint_at(self, point: int, codec_name: str, streamed: bool,
                 bandwidth_up: float, k: float = 1.0,
                 streaming=None,
                 bandwidth_down: float | None = None) -> JointDecision:
        """A :class:`JointDecision` pinned to ``(point, codec, mode)``.

        Runs the full :meth:`decide_joint` scan (a memo hit when it has
        just run on the same arguments) and reads the pinned candidate out
        of its vectors instead of the argmin: benchmarks and tests use this
        to compare arms at one fixed cut (e.g. streaming+zlib vs monolithic
        fp32 at the same transfer-dominated point).
        """
        self._check_point(point)
        jd = self.decide_joint(bandwidth_up, k=k, streaming=streaming,
                               bandwidth_down=bandwidth_down)
        mode = "stream" if streamed else "mono"
        key = (codec_name, mode)
        if key not in jd.candidates:
            raise ValueError(
                f"no candidate vector for {key}; streaming config offers "
                f"{sorted(jd.candidates)}")
        value = float(jd.candidates[key][point])
        if not math.isfinite(value):
            raise ValueError(
                f"{key} is infeasible at point {point} (e.g. a streamed "
                "mode whose cut fits one chunk)")
        return self._build_joint(point, codec_name, mode, value,
                                 jd.candidates, streaming, bandwidth_up, k)

    def _build_joint(self, point: int, name: str, mode: str, value: float,
                     candidates: Dict[Tuple[str, str], np.ndarray],
                     streaming, bandwidth_up: float, k: float) -> JointDecision:
        n = self.num_nodes
        codec = self.codec(name)
        wire_b = int(self._wire_sizes(name)[point])
        streamed = mode == "stream" and point < n
        chunks = streaming.num_chunks(wire_b) if streamed else 1
        upload_s = 0.0
        if point < n:
            upload_s = wire_b * 8 / bandwidth_up
            if streamed:
                upload_s += (chunks - 1) * streaming.chunk_overhead_s
        raw_b = float(self._cuts[point].upload_bytes)
        return JointDecision(
            point=point,
            codec=name,
            streamed=streamed,
            chunks=chunks,
            predicted_latency=value,
            predicted_device_s=float(self._prefix[point]),
            predicted_encode_s=float(codec.encode_time_s(raw_b)),
            predicted_upload_s=float(upload_s),
            predicted_decode_s=float(codec.decode_time_s(raw_b)),
            predicted_server_s=float(k * self._suffix[point]),
            wire_bytes=wire_b,
            candidates=candidates,
        )

    # -- component predictions, used by the runtime and the experiments -----

    def predicted_server_time(
        self, point: int, k: float = 1.0,
        profile: ServerProfile | None = None,
    ) -> float:
        """Predicted server time of the tail under load factor ``k``.

        ``profile`` evaluates the tail under that server's own predictor
        — a server monitoring its *own* load must compare observations
        against its own hardware model, or slow silicon masquerades as
        queueing (see :class:`~repro.runtime.server.EdgeServer`).
        """
        self._check_point(point)
        return float(k * self._suffix_for(profile)[point])

    def predicted_upload_time(self, point: int, bandwidth_up: float) -> float:
        self._check_point(point)
        if point == self.num_nodes:
            return 0.0
        return self.sizes[point] * 8 / bandwidth_up

    def predicted_total_time(self, point: int, bandwidth_up: float,
                             k: float = 1.0) -> float:
        """Predicted end-to-end latency of partition ``point`` (Problem (1)).

        The same objective value Algorithm 1 minimises — device prefix plus
        upload plus ``k``-scaled server suffix.  The resilient client derives
        its per-attempt offload deadline from this prediction
        (``margin × predicted_total``): a request that overshoots its own
        prediction several-fold is lost, not merely slow.
        """
        self._check_point(point)
        if bandwidth_up <= 0:
            raise ValueError("upload bandwidth must be positive")
        return float(
            self._prefix[point]
            + self.predicted_upload_time(point, bandwidth_up)
            + k * self._suffix[point]
        )

    def _check_point(self, point: int) -> None:
        if not 0 <= point <= self.num_nodes:
            raise ValueError(f"partition point {point} out of range [0, {self.num_nodes}]")

