"""Shared reference implementations and the zoo-wide bit-identity harness.

The harness (``ZOO``, ``sample_inputs``, ``assert_per_sample_bit_identical``)
was factored out of the batched-plan tests so every differential sweep —
batched plans, exit heads, future backends — asserts the same contract: a
planned run must equal independent naive batch-1 runs **bit for bit**, per
sample.  The references (``brute_force``, ``fleet_objective``,
``exit_fleet_brute_force``, ``lrn_reference``, ``nnls_brute_force``) and
the codec accuracy helpers live here because only tests call them.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Dict, Sequence

import numpy as np
import pytest

from repro.core.engine import GridDecision, LoADPartEngine, ServerProfile

#: Zoo split for parametrised sweeps: heavy graphs carry the ``slow``
#: marker (deselect with ``-m 'not slow'``).
FAST_MODELS = ("alexnet", "squeezenet", "mobilenet_v1", "mobilenet_v2", "resnet18")
SLOW_MODELS = ("vgg16", "resnet50", "resnet101", "resnet152", "inception_v3", "xception")

#: The seven-model partitioned-segment sweep: serial backbones (alexnet,
#: vgg16, mobilenet_v1) plus every branchy family (fire, residual,
#: inception, xception flows).
SWEEP_FAST = ("alexnet", "squeezenet", "mobilenet_v1", "resnet18")
SWEEP_SLOW = ("vgg16", "inception_v3", "xception")


def zoo_params(fast=FAST_MODELS, slow=SLOW_MODELS):
    """pytest params for a model sweep, slow-marking the heavy graphs."""
    return [pytest.param(m, id=m) for m in fast] + [
        pytest.param(m, id=m, marks=pytest.mark.slow) for m in slow
    ]


ZOO = zoo_params()
SWEEP_ZOO = zoo_params(SWEEP_FAST, SWEEP_SLOW)


def sample_inputs(graph, n, seed=42):
    """``n`` deterministic input draws for ``graph`` (one per sample)."""
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(graph.input_spec.shape).astype(np.float32)
            for _ in range(n)]


def naive_reference(graph, params):
    """A naive batch-1 executor sharing ``params`` — the bit-level oracle."""
    from repro.nn import GraphExecutor

    return GraphExecutor(graph, seed=0, params=params)


def assert_per_sample_bit_identical(graph, executor, batch, *, reference=None,
                                    seed=42):
    """``executor``'s stacked ``batch`` run == independent naive runs."""
    naive = reference if reference is not None else naive_reference(
        graph, executor.params)
    xs = sample_inputs(graph, batch, seed)
    out = executor.run(np.concatenate(xs, axis=0) if batch > 1 else xs[0])
    assert out.dtype == np.float32
    for i, x in enumerate(xs):
        assert np.array_equal(out[i:i + 1], naive.run(x)), f"sample {i} differs"


def sampled_points(graph, count=2):
    """Deterministic interior partition points for a differential sweep."""
    n = len(graph.topological_order())
    points = sorted({max(1, (i + 1) * n // (count + 1)) for i in range(count)})
    return [p for p in points if 0 < p < n]


def brute_force(device, edge, sizes, bw_up, k):
    """Direct O(n^2) evaluation of Problem (1), the paper's objective."""
    n = len(device)
    best_p, best_val = None, None
    for p in range(n + 1):
        if p == n:
            val = sum(device)
        else:
            val = sum(device[:p]) + sizes[p] * 8 / bw_up + k * sum(edge[p:])
        if best_val is None or val <= best_val:  # paper tie-break: latest wins
            best_p, best_val = p, val
    return best_p, best_val


# -- differential references for the decision grid --------------------------
#
# ``decide_exit_fleet`` must agree with these two independent
# implementations: ``fleet_objective`` restates Problem (1) for a single
# ``(point, server)`` pair by direct summation (no prefix/suffix arrays —
# numerically close, not bit-equal), and ``exit_fleet_brute_force``
# enumerates every ``(exit, server, point)`` triple with the scalar mirror
# of ``partition_decision``'s vector arithmetic (bit-equal).


def fleet_objective(
    engine: LoADPartEngine,
    point: int,
    bandwidth_up: float,
    k: float = 1.0,
    extra_latency_s: float = 0.0,
    profile: ServerProfile | None = None,
) -> float:
    """Problem (1) for one ``(point, server)`` candidate, summed directly.

    Deliberately avoids the engine's precomputed arrays: the device head
    and server tail are plain Python sums over the predictor outputs, so
    a bookkeeping bug in the prefix/suffix indexing cannot hide in both
    implementations at once.  Compare with ``isclose`` — summation order
    differs from the cumsum by design.
    """
    engine._check_point(point)
    device = sum(float(t) for t in engine.device_times[:point])
    if profile is not None and profile.edge_predictor is not None:
        edge_times = profile.edge_predictor.predict_nodes(engine.profiles)
    else:
        edge_times = engine.edge_times
    total = device + k * sum(float(t) for t in edge_times[point:])
    if point < engine.num_nodes:
        total += engine.sizes[point] * 8 / bandwidth_up + extra_latency_s
    return total


def exit_fleet_brute_force(
    engine: LoADPartEngine,
    sla_s: float | None,
    bandwidths_up: Sequence[float | None],
    ks: Sequence[float],
    extra_latencies_s: Sequence[float] | None = None,
    allowed: Sequence[int] | None = None,
    profiles: Sequence[ServerProfile | None] | None = None,
) -> GridDecision:
    """Exhaustive ``(exit, server, point)`` reference for the decision grid.

    Every row is enumerated point by point on its exit sub-engine's own
    prefix and suffix arrays, with explicit scalar loops that mirror
    ``partition_decision``'s vector arithmetic operation for operation
    (same IEEE-754 evaluation order).  The axes are resolved by explicit
    loops too: ``<=`` forward over points (latest minimiser), strict
    ``<`` forward over servers (earliest), backward over exits for the
    latest feasible one and strict ``<`` forward for the fastest.  Every
    field and every row must match ``decide_exit_fleet`` *bitwise*.
    """
    servers, bandwidths, row_ks, extras, row_profiles = engine._resolve_fleet(
        sla_s, bandwidths_up, ks, extra_latencies_s, allowed, profiles)
    last = engine.num_exits - 1
    exits = (last,) if sla_s is None else tuple(range(last + 1))
    row_points = np.zeros((len(exits), len(servers)), dtype=np.intp)
    row_latencies = np.zeros((len(exits), len(servers)))
    candidates = []
    per_exit = []  # (latency, point, server) of each exit's best row
    for i, e in enumerate(exits):
        sub = engine.exit_engine(e)
        n = sub.num_nodes
        prefix = sub._prefix
        vals = np.empty((len(servers), n + 1))
        best_value, best_server, best_point = math.inf, None, n
        for j, s in enumerate(servers):
            suffix = sub._suffix_for(row_profiles[j])
            sp, sv = 0, math.inf
            for p in range(n + 1):
                c = prefix[p] + row_ks[j] * suffix[p]
                if p < n:
                    c = c + (sub.sizes[p] * 8 / bandwidths[j] + extras[j])
                vals[j, p] = c
                if c <= sv:
                    sp, sv = p, c
            row_points[i, j] = sp
            row_latencies[i, j] = sv
            if sv < best_value:
                best_value, best_server, best_point = sv, s, sp
        if best_server is None or best_point == n:
            best_value, best_server, best_point = prefix[n], None, n
        candidates.append(vals)
        per_exit.append((float(best_value), best_point, best_server))

    chosen, feasible = len(exits) - 1, True
    if sla_s is not None:
        for i in range(len(exits) - 1, -1, -1):
            if per_exit[i][0] <= sla_s:
                chosen = i
                break
        else:
            feasible = False
            chosen = 0
            for i in range(1, len(exits)):
                if per_exit[i][0] < per_exit[chosen][0]:
                    chosen = i
    latency, point, server = per_exit[chosen]
    return GridDecision(
        exit_index=exits[chosen],
        point=point,
        server=server,
        predicted_latency=latency,
        accuracy=engine.exit_accuracy(exits[chosen]),
        sla_s=sla_s,
        feasible=feasible,
        exits=exits,
        servers=tuple(servers),
        row_points=row_points,
        row_latencies=row_latencies,
        candidates=tuple(candidates),
    )


def lrn_reference(inputs: Sequence[np.ndarray], params: Sequence[np.ndarray], attrs: Dict[str, Any]) -> np.ndarray:
    """Literal per-channel-loop LRN, kept as the equivalence-test oracle."""
    (x,) = inputs
    size = int(attrs.get("size", 5))
    alpha = float(attrs.get("alpha", 1e-4))
    beta = float(attrs.get("beta", 0.75))
    k = float(attrs.get("k", 2.0))
    half = size // 2
    squares = x * x
    channels = x.shape[1]
    denom = np.empty_like(x)
    for c in range(channels):
        lo, hi = max(0, c - half), min(channels, c + half + 1)
        denom[:, c] = squares[:, lo:hi].sum(axis=1)
    return (x / np.power(k + (alpha / size) * denom, beta)).astype(x.dtype, copy=False)


def prefix_point(cut, order: Sequence[str]) -> int | None:
    """The partition point of a min-cut's device set, if it is a
    topological prefix of ``order`` (None otherwise)."""
    p = len(cut.device_nodes)
    return p if set(order[:p]) == set(cut.device_nodes) else None


def nnls_brute_force(A: np.ndarray, b: np.ndarray):
    """Non-negative least squares by enumeration: ``(x, ‖A x − b‖)``.

    The optimum is the least-squares solution on its own support, so it is
    the feasible one (every coefficient positive) with the least residual
    among the least-squares solutions on every subset of columns.  Subsets
    run smallest first, in index order, and one replaces the best only if
    its residual is smaller by more than ``1e-12 ‖b‖``: among equal
    residuals the earliest, smallest support wins.
    """
    n = A.shape[1]
    best_x, best_r = np.zeros(n), float(np.linalg.norm(b))
    slack = 1e-12 * best_r
    for size in range(1, n + 1):
        for support in map(list, itertools.combinations(range(n), size)):
            z = np.linalg.lstsq(A[:, support], b, rcond=None)[0]
            if np.all(z > 0):
                x = np.zeros(n)
                x[support] = z
                r = float(np.linalg.norm(A @ x - b))
                if r < best_r - slack:
                    best_x, best_r = x, r
    return best_x, best_r


# -- codec accuracy ---------------------------------------------------------


def round_trip(codec, tensor: np.ndarray) -> np.ndarray:
    return codec.decode(codec.encode(tensor))


def max_abs_error(codec, tensor: np.ndarray) -> float:
    """Worst-case reconstruction error of ``codec`` on one tensor."""
    if tensor.size == 0:
        return 0.0
    return float(np.abs(round_trip(codec, tensor)
                        - np.asarray(tensor, dtype=np.float32)).max())


def error_bound(codec, tensor: np.ndarray) -> float:
    """The a-priori bound on ``max_abs_error`` for this tensor.

    Lossless codecs bound at exactly 0.0.  ``fp16`` rounds to 11
    significand bits (relative 2^-11 plus the subnormal floor);
    ``int8`` rounds to half a quantisation step.
    """
    if codec.name in codec.LOSSLESS:
        return 0.0
    arr = np.asarray(tensor, dtype=np.float32)
    peak = float(np.abs(arr).max()) if arr.size else 0.0
    if codec.name == "fp16":
        return peak * 2.0 ** -11 + 2.0 ** -24
    lo = float(arr.min()) if arr.size else 0.0
    hi = float(arr.max()) if arr.size else 0.0
    scale = (hi - lo) / 255.0 if hi > lo else 1.0
    # Half a quantisation step, plus the float32 rounding incurred by
    # the ``raw * scale + lo`` reconstruction (a few ulps at ``peak``).
    return scale / 2.0 + peak * 2.0 ** -21 + 1e-7
