"""Shared reference implementations and the zoo-wide bit-identity harness.

The harness (``ZOO``, ``sample_inputs``, ``assert_per_sample_bit_identical``)
was factored out of the batched-plan tests so every differential sweep —
batched plans, exit heads, future backends — asserts the same contract: a
planned run must equal independent naive batch-1 runs **bit for bit**, per
sample.
"""

from __future__ import annotations

import numpy as np
import pytest

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


def brute_force(device, edge, sizes, bw_up, k, bw_down=None, out_bytes=0):
    """Direct O(n^2) evaluation of Problem (1), the paper's objective."""
    n = len(device)
    best_p, best_val = None, None
    download = out_bytes * 8 / bw_down if bw_down else 0.0
    for p in range(n + 1):
        if p == n:
            val = sum(device)
        else:
            val = sum(device[:p]) + sizes[p] * 8 / bw_up + k * sum(edge[p:]) + download
        if best_val is None or val <= best_val:  # paper tie-break: latest wins
            best_p, best_val = p, val
    return best_p, best_val
