"""Graph and segment executors over the NumPy kernels.

Weights are initialised deterministically from ``(seed, parameter name)``,
so the device and the server — which each hold a copy of the model file —
materialise *identical* parameters without shipping weights, exactly as the
paper assumes (both sides preload the DNN model file, §III-A).
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, Iterable

import numpy as np

from repro.graph.graph import ComputationGraph
from repro.graph.node import CNode, Parameter
from repro.graph.partitioner import Segment
from repro.nn.kernels import KERNELS

#: Available execution backends: "naive" walks the env dict per call,
#: "planned" runs a compiled plan (see :mod:`repro.nn.plan`).
BACKENDS = ("naive", "planned")


def _check_backend(backend: str) -> str:
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    return backend


def _check_batch(batch: int) -> int:
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    return int(batch)


def _param_rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng((seed & 0xFFFFFFFF) ^ zlib.crc32(name.encode()))


def _init_one(param: Parameter, seed: int) -> np.ndarray:
    rng = _param_rng(seed, param.name)
    shape = param.spec.shape
    if param.role == "weight":
        fan_in = int(np.prod(shape[1:])) if len(shape) > 1 else shape[0]
        scale = np.sqrt(2.0 / max(fan_in, 1))
        return (rng.standard_normal(shape) * scale).astype(np.float32)
    if param.role in ("bias", "beta", "mean"):
        return np.zeros(shape, dtype=np.float32) if param.role != "mean" else (
            rng.standard_normal(shape) * 0.01
        ).astype(np.float32)
    if param.role == "gamma":
        return np.ones(shape, dtype=np.float32)
    if param.role == "var":
        return np.ones(shape, dtype=np.float32) + (rng.random(shape) * 0.01).astype(np.float32)
    return rng.standard_normal(shape).astype(np.float32)


def graph_signature(graph: ComputationGraph) -> str:
    """Stable fingerprint of a graph's structure (names, ops, attrs).

    Used to key compiled-plan caches: two servers (or one server after a
    model swap) only share cache entries when the graphs really match.
    """
    parts = [graph.name, str(graph.input_spec.shape)]
    for name in graph.topological_order():
        node = graph.node(name)
        parts.append(f"{node.name}|{node.op}|{sorted(node.attrs.items())!r}")
    blob = "\n".join(parts).encode()
    return f"{graph.name}-{zlib.crc32(blob):08x}"


def init_parameters(nodes: Iterable[CNode], seed: int = 0) -> Dict[str, np.ndarray]:
    """Deterministic parameter arrays for the given nodes, keyed by name."""
    params: Dict[str, np.ndarray] = {}
    for node in nodes:
        for param in node.params:
            params[param.name] = _init_one(param, seed)
    return params


def _execute_node(node: CNode, env: Dict[str, Any], params: Dict[str, np.ndarray]) -> Any:
    kernel = KERNELS.get(node.op)
    if kernel is None:
        raise NotImplementedError(f"no NumPy kernel for op {node.op!r}")
    inputs = [env[name] for name in node.inputs]
    param_arrays = [params[p.name] for p in node.params]
    return kernel(inputs, param_arrays, node.attrs)


def _scale_batch(shape: tuple, batch: int) -> tuple:
    """Scale the leading (batch) axis of a spec shape by ``batch``."""
    if batch == 1:
        return tuple(shape)
    return (shape[0] * batch,) + tuple(shape[1:])


class GraphExecutor:
    """Executes a whole computation graph on NumPy arrays.

    ``batch=n`` accepts ``n`` stacked samples per call; every kernel is
    batch-generic, so the naive path just scales its shape validation.
    """

    def __init__(self, graph: ComputationGraph, seed: int = 0,
                 params: Dict[str, np.ndarray] | None = None,
                 backend: str = "naive", batch: int = 1) -> None:
        self._backend = _check_backend(backend)
        self._batch = _check_batch(batch)
        graph.validate()
        self._graph = graph
        self._order = graph.topological_order()
        self._params = params if params is not None else init_parameters(
            (graph.node(n) for n in self._order), seed
        )
        self._plan = None
        if backend == "planned":
            from repro.nn.plan import GraphPlan  # deferred: plan imports this module

            self._plan = GraphPlan(graph, seed=seed, params=self._params, batch=batch)

    @property
    def params(self) -> Dict[str, np.ndarray]:
        return self._params

    @property
    def backend(self) -> str:
        return self._backend

    @property
    def batch(self) -> int:
        return self._batch

    def run(self, x: np.ndarray, keep: Iterable[str] = ()) -> np.ndarray:
        """Run the graph on input ``x``; returns the output tensor.

        ``keep`` optionally names intermediate nodes whose values are stashed
        on :attr:`last_intermediates` for inspection.
        """
        if self._plan is not None:
            out = self._plan.run(x, keep=keep)
            self.last_intermediates = dict(self._plan.last_intermediates)
            return out
        expected = _scale_batch(self._graph.input_spec.shape, self._batch)
        if tuple(x.shape) != expected:
            raise ValueError(f"input shape {x.shape} != expected {expected}")
        env: Dict[str, Any] = {self._graph.input_name: x}
        keep_set = set(keep)
        self.last_intermediates: Dict[str, np.ndarray] = {}
        for name in self._order:
            env[name] = _execute_node(self._graph.node(name), env, self._params)
            if name in keep_set:
                self.last_intermediates[name] = env[name]
        return env[self._graph.output_name]


class SegmentExecutor:
    """Executes one partition segment given its boundary tensors.

    The synthesised MakeTuple/Return scaffolding is executed too, faithfully
    to the paper's Fig. 5 subgraphs; :meth:`run` returns the dict of tensors
    that leave the segment, keyed by producer name.
    """

    def __init__(self, segment: Segment, seed: int = 0,
                 params: Dict[str, np.ndarray] | None = None,
                 backend: str = "naive", batch: int = 1) -> None:
        self._backend = _check_backend(backend)
        self._batch = _check_batch(batch)
        self._segment = segment
        self._params = params if params is not None else init_parameters(segment.nodes, seed)
        self._plan = None
        if backend == "planned":
            from repro.nn.plan import SegmentPlan  # deferred: plan imports this module

            self._plan = SegmentPlan(segment, seed=seed, params=self._params, batch=batch)

    @property
    def params(self) -> Dict[str, np.ndarray]:
        return self._params

    @property
    def backend(self) -> str:
        return self._backend

    @property
    def batch(self) -> int:
        return self._batch

    def run(self, boundary: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        if self._plan is not None:
            return self._plan.run(boundary)
        missing = set(self._segment.boundary_inputs) - set(boundary)
        if missing:
            raise ValueError(f"segment {self._segment.name!r} missing boundary tensors {sorted(missing)}")
        for name, spec in self._segment.boundary_inputs.items():
            expected = _scale_batch(spec.shape, self._batch)
            if tuple(boundary[name].shape) != expected:
                raise ValueError(
                    f"boundary tensor {name!r} has shape {boundary[name].shape}, expected {expected}"
                )
        env: Dict[str, Any] = dict(boundary)
        for node in self._segment.nodes:
            env[node.name] = _execute_node(node, env, self._params)
        # The Return node's value is a single array or a tuple; expose the
        # leaving tensors keyed by their producer names instead, which is what
        # the receiving side needs to resume execution.
        results: Dict[str, np.ndarray] = {}
        for name in self._segment.result_names:
            results[name] = env[name]
        return results
