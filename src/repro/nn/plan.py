"""Compiled execution plans: the ``"planned"`` executor backend.

The naive executor walks the topological order on every call, dispatches
each node through the ``KERNELS`` string table, and keeps every intermediate
alive in an ``env`` dict.  A :class:`CompiledPlan` instead resolves all of
that **once, at compile time**:

- the node sequence and the kernel callable for each node;
- the concrete input/parameter array bindings (closures bound over buffers,
  no dict lookups at run time);
- cached ``np.einsum_path`` contraction paths for the depthwise kernels;
- a liveness analysis that returns each intermediate's buffer to a
  :class:`WorkspaceArena` after its last consumer, and runs elementwise
  ops in place when their input dies at that step;
- the convolution hot path lowered to im2col + GEMM with persistent,
  pre-padded scratch buffers, and max-pooling lowered to a shifted-slice
  running maximum.

The contract is compile-once / run-many: the first construction pays for
buffer allocation and path search, and every subsequent ``run`` reuses the
same workspace — the common case in ``OffloadingSystem.run``'s back-to-back
request loop.  Outputs are **bit-identical** to the naive backend: every
planned kernel either performs the exact same floating-point reduction in
the same order (elementwise ufuncs, strided-view means, einsum with the
same contraction path) or an order-independent one (max), and the im2col
GEMM hits the identical sgemm the einsum contraction lowers to.

Plans are **batch-native**: ``batch=n`` compiles every step for ``n``
stacked samples (the serving regime of the multi-client runtime, where the
edge server amortises one plan across concurrent requests).  The leading
axis of every tensor is the batch axis, and a batched run is per-sample
bit-identical to ``n`` independent ``batch=1`` runs: convolutions share one
batched im2col fill but issue one GEMM *per sample slab* (a single fused
GEMM over all samples changes BLAS cache blocking with the column count
and therefore the summation order — measured on this host at e.g.
O=64,K=288,M=49 — so it is deliberately rejected), matmuls run one
row-GEMV per sample, and every other kernel reduces strictly within a
sample.

Compile time is budgeted: the ``_pick_faster`` autotuner drops to a single
timed repetition once a candidate exceeds ``_PICK_BUDGET_S``, einsum
contraction paths are cached process-wide by (subscripts, shapes), and
``REPRO_PLAN_FAST_COMPILE=1`` skips timed autotuning entirely (each site's
geometry-preferred candidate is used), for tests and CI.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Sequence, Set, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.graph.graph import ComputationGraph
from repro.graph.node import CNode, TensorSpec
from repro.graph.partitioner import SCAFFOLD_OPS, Segment
from repro.nn.executor import init_parameters
from repro.nn.kernels import KERNELS, _PARAM_ARITY, _pair

__all__ = [
    "CompiledPlan",
    "GraphPlan",
    "PlanError",
    "PlanStats",
    "PlanStream",
    "SegmentPlan",
    "WorkspaceArena",
]

_NUMPY_DTYPES = {
    "float32": np.float32,
    "float16": np.float16,
    "int8": np.int8,
    "int32": np.int32,
}

#: Ops compiled away into views: their output shares the input's storage.
_ALIAS_OPS = frozenset({"flatten", "dropout"})

#: Ops whose planned kernels may write their (same-shape) dying input.
_INPLACE_OPS = frozenset(
    {"bias_add", "relu", "sigmoid", "tanh", "add", "mul", "batchnorm", "softmax"}
)

#: Environment switch: skip timed compile-time autotuning (tests, CI).
FAST_COMPILE_ENV = "REPRO_PLAN_FAST_COMPILE"

#: Once a single candidate run costs more than this, one repetition decides.
_PICK_BUDGET_S = 0.02

#: Process-wide ``np.einsum_path`` cache keyed by (subscripts, shapes):
#: segment plans for different partition points and batch sizes share the
#: same contractions, and path search is pure geometry.
_EINSUM_PATH_CACHE: Dict[Tuple, Any] = {}


def _fast_compile() -> bool:
    return os.environ.get(FAST_COMPILE_ENV, "") not in ("", "0")


def _cached_einsum_path(subscripts: str, *operands: np.ndarray):
    key = (subscripts,) + tuple(op.shape for op in operands)
    path = _EINSUM_PATH_CACHE.get(key)
    if path is None:
        path = np.einsum_path(subscripts, *operands, optimize=True)[0]
        _EINSUM_PATH_CACHE[key] = path
    return path


def _batched_spec(spec: TensorSpec, batch: int) -> TensorSpec:
    """The spec of ``batch`` stacked samples (leading axis is the batch)."""
    if batch == 1:
        return spec
    return TensorSpec((spec.shape[0] * batch,) + spec.shape[1:], spec.dtype)


class PlanError(RuntimeError):
    """Raised when a graph or segment cannot be compiled into a plan."""


def _check_batch(batch: int) -> int:
    if batch < 1:
        raise PlanError(f"batch must be >= 1, got {batch}")
    return batch


class WorkspaceArena:
    """Pool of flat scratch buffers, reused best-fit across lifetimes.

    Buffers are handed out as 1-D arrays; the compiler slices and reshapes
    them into views, so tensors of *different* sizes share storage once
    their lifetimes are disjoint (the smallest adequate free buffer wins).
    Keeping the pool tight matters beyond allocator churn: on hosts with a
    large last-level cache the whole weight set plus workspace can stay
    cache-resident across back-to-back runs of one plan.
    """

    def __init__(self) -> None:
        self._free: Dict[str, List[np.ndarray]] = {}
        self.allocated_bytes = 0
        self.persistent_bytes = 0
        self.buffers = 0
        self.reuses = 0

    def acquire(self, numel: int, dtype: Any = np.float32,
                waste_cap: int | None = None) -> np.ndarray:
        """Smallest adequate free buffer, or a fresh one.

        ``waste_cap`` refuses free buffers more than that factor larger than
        the request — long-lived tensors should not squat on big scratch
        buffers that transient consumers (im2col columns) want to share.
        """
        numel = int(numel)
        pool = self._free.get(np.dtype(dtype).str, [])
        best = None
        for i, buf in enumerate(pool):
            if buf.size < numel:
                continue
            if waste_cap is not None and buf.size > waste_cap * numel:
                continue
            if best is None or buf.size < pool[best].size:
                best = i
        if best is not None:
            self.reuses += 1
            return pool.pop(best)
        buf = np.empty(numel, dtype=dtype)
        self.buffers += 1
        self.allocated_bytes += buf.nbytes
        return buf

    def release(self, base: np.ndarray) -> None:
        self._free.setdefault(base.dtype.str, []).append(base)

    def persistent(self, shape: Tuple[int, ...], dtype: Any = np.float32,
                   fill: float | None = None) -> np.ndarray:
        """A node-private buffer that is never pooled.

        Used for padded-input staging areas whose border values (0 or -inf)
        are written once at compile time and must survive across runs.
        """
        buf = np.empty(shape, dtype=dtype)
        if fill is not None:
            buf.fill(fill)
        self.buffers += 1
        self.allocated_bytes += buf.nbytes
        self.persistent_bytes += buf.nbytes
        return buf


class _Alloc:
    """Arena facade scoped to one node's compilation.

    ``scratch`` buffers are returned to the pool as soon as the node is
    compiled: they are fully rewritten on every run before being read, so
    later nodes may share the same storage for their own scratch or
    outputs without any cross-run hazard.
    """

    def __init__(self, arena: WorkspaceArena) -> None:
        self.arena = arena
        self._scratch: List[np.ndarray] = []

    def acquire(self, numel: int, dtype: Any = np.float32,
                waste_cap: int | None = None) -> np.ndarray:
        return self.arena.acquire(numel, dtype, waste_cap)

    def scratch(self, shape: Tuple[int, ...], dtype: Any = np.float32) -> np.ndarray:
        numel = int(np.prod(shape))
        base = self.arena.acquire(numel, dtype)
        self._scratch.append(base)
        return base[:numel].reshape(shape)

    def release_scratch(self) -> None:
        for base in self._scratch:
            self.arena.release(base)
        self._scratch.clear()


@dataclass(frozen=True)
class PlanStats:
    """Compile-time footprint of one plan."""

    steps: int
    inplace_steps: int
    alias_steps: int
    arena_bytes: int
    persistent_bytes: int
    buffers: int
    reuses: int


# ---------------------------------------------------------------------------
# per-op compilers
# ---------------------------------------------------------------------------


def _padded_source(x: np.ndarray, padding: Tuple[int, int], arena: WorkspaceArena,
                   fill: float) -> Tuple[np.ndarray, Callable[[], None] | None]:
    """A stable source array for window views, padded once at compile time.

    Returns ``(src, copy_in)``: the borders of ``src`` are pre-filled and
    only the interior is refreshed from ``x`` by ``copy_in()`` on each run
    (``copy_in`` is None when no padding is needed and ``x`` itself is the
    source).
    """
    ph, pw = padding
    if ph == 0 and pw == 0:
        return x, None
    n, c, h, w = x.shape
    xp = arena.persistent((n, c, h + 2 * ph, w + 2 * pw), x.dtype, fill=fill)
    interior = xp[:, :, ph:ph + h, pw:pw + w]

    def copy_in() -> None:
        np.copyto(interior, x)

    return xp, copy_in


def _strided_windows(src: np.ndarray, kernel: Tuple[int, int],
                     stride: Tuple[int, int]) -> np.ndarray:
    win = sliding_window_view(src, kernel, axis=(2, 3))
    sh, sw = stride
    return win[:, :, ::sh, ::sw, :, :]


def _pool_geometry(attrs: Dict[str, Any]) -> Tuple[Tuple[int, int], Tuple[int, int], Tuple[int, int]]:
    kernel = _pair(attrs["kernel"])
    stride = _pair(attrs.get("stride", kernel))
    padding = _pair(attrs.get("padding", 0))
    return kernel, stride, padding


def _conv_geometry(attrs: Dict[str, Any]) -> Tuple[Tuple[int, int], Tuple[int, int], Tuple[int, int]]:
    kernel = _pair(attrs["kernel"])
    stride = _pair(attrs.get("stride", 1))
    padding = _pair(attrs.get("padding", 0))
    return kernel, stride, padding


def _pick_faster(*candidates: Callable[[], None]) -> Callable[[], None]:
    """Compile-time autotune between equivalent strategies.

    Candidates must produce identical results (pure copies here); only the
    winner is kept, so the choice affects speed, never values.  Callers
    order candidates by geometric preference: under
    ``REPRO_PLAN_FAST_COMPILE=1`` the first candidate wins untimed, and the
    first (warming) run doubles as the budget probe — expensive sites
    (> ``_PICK_BUDGET_S`` per run) are decided by a single repetition each,
    which is what keeps whole-zoo compiles in the seconds range.
    """
    if len(candidates) == 1 or _fast_compile():
        return candidates[0]
    import time

    t0 = time.perf_counter()
    candidates[0]()  # warm: shared scratch pages are touched for everyone
    probe = time.perf_counter() - t0
    repeats = 1 if probe > _PICK_BUDGET_S else 3
    best_fn, best_t = candidates[0], float("inf")
    for fn in candidates:
        dt = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            dt = min(dt, time.perf_counter() - t0)
        if dt < best_t:
            best_fn, best_t = fn, dt
    return best_fn


def _compile_elementwise(op: str, x: np.ndarray, params: Sequence[np.ndarray],
                         attrs: Dict[str, Any], out: np.ndarray) -> Callable[[], None]:
    """One elementwise step writing ``op(x)`` into ``out`` (``out is x`` ok).

    Each branch mirrors the naive kernel's exact ufunc sequence, so results
    are bit-identical; ``out=`` only removes the allocation.
    """
    if op == "relu":
        def fn() -> None:
            np.maximum(x, 0, out=out)
    elif op == "tanh":
        def fn() -> None:
            np.tanh(x, out=out)
    elif op == "sigmoid":
        def fn() -> None:
            np.negative(x, out=out)
            np.exp(out, out=out)
            np.add(out, 1.0, out=out)
            np.divide(1.0, out, out=out)
    elif op == "bias_add":
        (bias,) = params
        shape = [1] * x.ndim
        shape[1] = bias.shape[0]
        rb = bias.reshape(shape)

        def fn() -> None:
            np.add(x, rb, out=out)
    elif op == "batchnorm":
        gamma, beta, mean, var = params
        eps = float(attrs.get("eps", 1e-5))
        shape = [1] * x.ndim
        shape[1] = gamma.shape[0]
        # Folded at compile time with the naive kernel's exact expressions.
        scale = (gamma / np.sqrt(var + eps)).reshape(shape)
        shift = (beta - mean * gamma / np.sqrt(var + eps)).reshape(shape)

        def fn() -> None:
            np.multiply(x, scale, out=out)
            np.add(out, shift, out=out)
    else:
        raise PlanError(f"op {op!r} is not an elementwise planned kernel")
    return fn


def _compile_epilogue(epilogue: Sequence[str], params: Sequence[np.ndarray],
                      out: np.ndarray) -> List[Callable[[], None]]:
    """In-place epilogue chain for fused ops, applied to ``out`` in order."""
    steps: List[Callable[[], None]] = []
    cursor = 0
    for op in epilogue:
        arity = _PARAM_ARITY[op]
        steps.append(_compile_elementwise(op, out, params[cursor:cursor + arity], {}, out))
        cursor += arity
    return steps


def _chain(*fns: Callable[[], None] | None) -> Callable[[], None]:
    body = [f for f in fns if f is not None]
    if len(body) == 1:
        return body[0]

    def fn() -> None:
        for f in body:
            f()
    return fn


def _compile_conv2d(node: CNode, x: np.ndarray, params: Sequence[np.ndarray],
                    alloc: _Alloc, out_spec: TensorSpec,
                    ) -> Tuple[Callable[[], None], np.ndarray, np.ndarray]:
    """Batched im2col + per-sample GEMM convolution; self-allocates its output.

    The column tensor is laid out (n, c, kh, kw, ho, wo): one fill covers
    the whole batch, and each sample's slab ``cols[i]`` is a contiguous
    (K, ho*wo) matrix whose GEMM ``W.reshape(O, K) @ cols[i]`` writes the
    sample's NCHW output in place (zero-copy view).  One GEMM per sample is
    deliberate: it is the *identical* sgemm a ``batch=1`` plan issues, so a
    batched run stays per-sample bit-identical to independent runs, whereas
    a single fused (K, n*ho*wo) GEMM changes BLAS cache blocking with the
    column count and with it the floating-point summation order (measured
    on this host).  For n == 1 the layouts coincide exactly.
    """
    attrs = node.attrs
    weight = np.ascontiguousarray(params[0])
    kernel, stride, padding = _conv_geometry(attrs)
    n, c, h, w = x.shape
    _, o, ho, wo = out_spec.shape
    kh, kw = kernel
    sh, sw = stride
    src, copy_in = _padded_source(x, padding, alloc.arena, fill=0.0)
    win = _strided_windows(src, kernel, stride)          # (n, c, ho, wo, kh, kw)
    winT = win.transpose(0, 1, 4, 5, 2, 3)               # (n, c, kh, kw, ho, wo)
    k_dim = c * kh * kw
    m_dim = ho * wo
    w_mat = weight.reshape(o, k_dim)
    cols = alloc.scratch((n, c, kh, kw, ho, wo))
    out_base = alloc.acquire(n * o * m_dim, waste_cap=4)
    out_view = out_base[:n * o * m_dim].reshape(n, o, ho, wo)
    gemms = [
        (cols[i].reshape(k_dim, m_dim), out_view[i].reshape(o, m_dim))
        for i in range(n)
    ]

    # Two im2col strategies build the same column tensor: one 6-D gather, or
    # kh*kw shifted-slice copies (row-contiguous for stride-1 convs).  Both
    # are pure copies — pick whichever runs faster on this geometry, with
    # the geometry-preferred one first (it wins under fast compile).
    def fill_gather() -> None:
        np.copyto(cols, winT)

    slices = [
        (cols[:, :, i, j],
         src[:, :, i:i + sh * (ho - 1) + 1:sh, j:j + sw * (wo - 1) + 1:sw])
        for i in range(kh)
        for j in range(kw)
    ]

    def fill_slices() -> None:
        for dst, view in slices:
            np.copyto(dst, view)

    if sh == 1 and sw == 1:
        fill = _pick_faster(fill_slices, fill_gather)
    else:
        fill = _pick_faster(fill_gather, fill_slices)

    def fn() -> None:
        if copy_in is not None:
            copy_in()
        fill()
        for cols_mat, gemm_out in gemms:
            np.matmul(w_mat, cols_mat, out=gemm_out)

    return fn, out_view, out_base


def _compile_matmul(x: np.ndarray, params: Sequence[np.ndarray],
                    out: np.ndarray) -> Callable[[], None]:
    weight = np.ascontiguousarray(params[0])
    if x.ndim == 2 and x.flags.c_contiguous:
        # One vector-matrix product per sample: the same sgemm path a
        # single-row matmul lowers to, with identical bits, so a batched
        # plan stays per-sample bit-identical to batch=1 runs (an (n, K)
        # GEMM picks a different BLAS kernel once n > 1 and changes the
        # summation order — measured on this host at K=4096).
        rows = [(x[i], out[i]) for i in range(x.shape[0])]

        def fn() -> None:
            for xi, oi in rows:
                np.matmul(xi, weight, out=oi)
    else:
        def fn() -> None:
            np.matmul(x, weight, out=out)
    return fn


def _compile_dwconv2d(node: CNode, x: np.ndarray, params: Sequence[np.ndarray],
                      alloc: _Alloc, out: np.ndarray) -> Callable[[], None]:
    """Depthwise conv as a multiply-accumulate over kh*kw shifted slices.

    The einsum contraction has no GEMM lowering (the channel axis is shared
    by both operands), so it runs in einsum's generic strided loop; the
    shifted-slice form replaces it with kh*kw vectorised ufunc passes over
    contiguous planes — the same lowering the naive kernel now uses, in the
    same i-major/j-minor accumulation order, so bits agree.  The
    channel_multiplier > 1 form keeps the einsum contraction (no zoo model
    uses it; its path comes from the process-wide cache).
    """
    attrs = node.attrs
    weight = params[0]
    mult = int(attrs.get("channel_multiplier", 1))
    kernel, stride, padding = _conv_geometry(attrs)
    kh, kw = kernel
    sh, sw = stride
    src, copy_in = _padded_source(x, padding, alloc.arena, fill=0.0)
    if mult == 1:
        c = x.shape[1]
        ho, wo = out.shape[2], out.shape[3]
        taps = [
            (src[:, :, i:i + sh * (ho - 1) + 1:sh, j:j + sw * (wo - 1) + 1:sw],
             np.ascontiguousarray(weight[:, 0, i, j]).reshape(1, c, 1, 1))
            for i in range(kh)
            for j in range(kw)
        ]
        term = alloc.scratch(out.shape)
        first_src, first_w = taps[0]

        def contract() -> None:
            np.multiply(first_src, first_w, out=out)
            for view, wk in taps[1:]:
                np.multiply(view, wk, out=term)
                np.add(out, term, out=out)
    else:
        win = _strided_windows(src, kernel, stride)
        n, c = x.shape[:2]
        wm = weight.reshape(c, mult, kh, kw)
        out5 = out.reshape(n, c, mult, out.shape[2], out.shape[3])
        path = _cached_einsum_path("nchwij,cmij->ncmhw", win, wm)

        def contract() -> None:
            np.einsum("nchwij,cmij->ncmhw", win, wm, out=out5, optimize=path)
    return _chain(copy_in, contract)


def _compile_maxpool(node: CNode, x: np.ndarray, alloc: _Alloc,
                     out: np.ndarray) -> Callable[[], None]:
    """Running maximum over kh*kw shifted strided slices.

    Max is order-independent (and NaN-propagating either way), so this is
    bit-identical to the naive windowed ``max`` at a fraction of the cost.
    """
    kernel, stride, padding = _pool_geometry(node.attrs)
    kh, kw = kernel
    sh, sw = stride
    _, _, ho, wo = out.shape
    src, copy_in = _padded_source(x, padding, alloc.arena, fill=-np.inf)
    views = [
        src[:, :, i:i + sh * (ho - 1) + 1:sh, j:j + sw * (wo - 1) + 1:sw]
        for i in range(kh)
        for j in range(kw)
    ]
    first, rest = views[0], views[1:]

    def fn() -> None:
        if copy_in is not None:
            copy_in()
        np.copyto(out, first)
        for v in rest:
            np.maximum(out, v, out=out)
    return fn


def _compile_avgpool(node: CNode, x: np.ndarray, alloc: _Alloc,
                     out: np.ndarray) -> Callable[[], None]:
    # Mean is a float reduction whose result depends on summation order, so
    # keep the naive kernel's exact strided-view formulation; the plan only
    # removes the per-run pad/window setup.
    kernel, stride, padding = _pool_geometry(node.attrs)
    src, copy_in = _padded_source(x, padding, alloc.arena, fill=0.0)
    win = _strided_windows(src, kernel, stride)

    def fn() -> None:
        if copy_in is not None:
            copy_in()
        np.mean(win, axis=(-2, -1), out=out)
    return fn


def _compile_softmax(node: CNode, x: np.ndarray, out: np.ndarray) -> Callable[[], None]:
    axis = int(node.attrs.get("axis", -1))

    def fn() -> None:
        mx = x.max(axis=axis, keepdims=True)
        np.subtract(x, mx, out=out)
        np.exp(out, out=out)
        s = out.sum(axis=axis, keepdims=True)
        np.divide(out, s, out=out)
    return fn


def _compile_fallback(node: CNode, xs: List[np.ndarray], params: List[np.ndarray],
                      out: np.ndarray) -> Callable[[], None]:
    """Generic step: run the naive kernel and copy into the bound buffer."""
    kernel = KERNELS.get(node.op)
    if kernel is None:
        raise PlanError(f"no kernel for op {node.op!r}")
    attrs = node.attrs

    def fn() -> None:
        np.copyto(out, kernel(xs, params, attrs))
    return fn


# ---------------------------------------------------------------------------
# the plan compiler
# ---------------------------------------------------------------------------


class CompiledPlan:
    """A compiled node sequence with statically assigned buffers.

    Buffer assignment is register allocation for tensors: each produced
    tensor gets an arena buffer at compile time, freed (returned to the
    pool) right after its last consumer, and elementwise ops whose input
    dies at the consuming step run in place on that input's buffer.

    ``batch`` compiles the plan for that many stacked samples: every spec's
    leading (batch) axis is scaled, and the compiled kernels keep each
    sample's floating-point reduction order identical to a ``batch=1`` run.
    """

    def __init__(self, name: str, nodes: Sequence[CNode],
                 external_specs: Dict[str, TensorSpec],
                 params: Dict[str, np.ndarray],
                 result_names: Sequence[str],
                 batch: int = 1) -> None:
        self.name = name
        self.batch = _check_batch(batch)
        self._params = params
        self._result_names = tuple(result_names)
        self._arena = WorkspaceArena()
        self._inputs: Dict[str, np.ndarray] = {}
        self._bound: Dict[str, np.ndarray] = {}
        #: ``(name, fn, gates)`` per compiled step, in execution order;
        #: ``gates`` are the externals the step reads (root-resolved, so
        #: readers of an alias of an external gate on the external) — what
        #: a :class:`PlanStream` waits for before running the step.
        self._steps: List[Tuple[str, Callable[[], None], Set[str]]] = []
        self.last_intermediates: Dict[str, np.ndarray] = {}
        # One plan instance owns one workspace: concurrent execute() calls
        # on a shared cached plan are serialised here rather than
        # corrupting each other's tensors.
        self._exec_lock = threading.Lock()
        self._compile(list(nodes), dict(external_specs))

    # -- compilation --------------------------------------------------------

    def _compile(self, nodes: List[CNode], external_specs: Dict[str, TensorSpec]) -> None:
        arena = self._arena
        compute = [n for n in nodes if n.op not in SCAFFOLD_OPS]

        external_specs = {
            name: _batched_spec(spec, self.batch)
            for name, spec in external_specs.items()
        }
        specs: Dict[str, TensorSpec] = dict(external_specs)
        for node in compute:
            if node.output is None:
                raise PlanError(f"node {node.name!r} has no output spec")
            specs[node.name] = _batched_spec(node.output, self.batch)
        for rname in self._result_names:
            if rname not in specs:
                raise PlanError(f"result {rname!r} is not produced by plan {self.name!r}")

        # Storage roots: alias ops (flatten/dropout) share their input's
        # storage, so lifetimes are tracked per root, not per name.
        root: Dict[str, str] = {ext: ext for ext in external_specs}
        for node in compute:
            if node.op in _ALIAS_OPS:
                root[node.name] = root[node.inputs[0]]
            else:
                root[node.name] = node.name

        last_use: Dict[str, int] = {}
        for idx, node in enumerate(compute):
            for dep in node.inputs:
                if dep not in root:
                    raise PlanError(f"node {node.name!r} reads unknown tensor {dep!r}")
                last_use[root[dep]] = idx
        forever = len(compute)
        for rname in self._result_names:
            last_use[root.get(rname, rname)] = forever
        deaths: Dict[int, List[str]] = {}
        for rname, lu in last_use.items():
            deaths.setdefault(lu, []).append(rname)

        # Seed the pool with one scratch buffer sized for the largest im2col
        # column matrix in the plan, so every conv shares it instead of each
        # first-encountered geometry pinning its own.  Smaller is better: on
        # hosts with a large last-level cache the weights plus a tight
        # workspace can stay cache-resident across back-to-back runs.
        max_cols = 0
        for node in compute:
            if node.op in ("conv2d", "fused_conv2d") and node.output is not None:
                in_spec = specs.get(node.inputs[0])
                if in_spec is None:
                    continue
                kh, kw = _pair(node.attrs["kernel"])
                _, _, ho, wo = node.output.shape
                n = in_spec.shape[0]
                max_cols = max(max_cols, n * in_spec.shape[1] * kh * kw * ho * wo)
        if max_cols:
            arena.release(arena.acquire(max_cols, np.float32))

        bound = self._bound
        owner: Dict[str, np.ndarray] = {}
        for ext, spec in external_specs.items():
            base = arena.acquire(spec.numel, _NUMPY_DTYPES[spec.dtype], waste_cap=4)
            bound[ext] = self._inputs[ext] = base[:spec.numel].reshape(spec.shape)
            owner[ext] = base

        inplace_steps = 0
        alias_steps = 0
        for idx, node in enumerate(compute):
            xs = [bound[dep] for dep in node.inputs]
            param_arrays = [self._params[p.name] for p in node.params]
            if node.op in _ALIAS_OPS and (node.op == "dropout" or xs[0].flags.c_contiguous):
                bound[node.name] = xs[0] if node.op == "dropout" else xs[0].reshape(
                    xs[0].shape[0], -1
                )
                alias_steps += 1
            else:
                alloc = _Alloc(arena)
                fn, out_view, out_base, inplace = self._compile_step(
                    node, xs, param_arrays, specs[node.name], alloc, root, last_use,
                    idx, owner,
                )
                alloc.release_scratch()
                bound[node.name] = out_view
                owner[node.name] = out_base
                if inplace:
                    inplace_steps += 1
                gates = {root[dep] for dep in node.inputs if root[dep] in self._inputs}
                self._steps.append((node.name, fn, gates))

            for rname in deaths.get(idx, ()):
                base = owner.pop(rname, None)
                if base is not None:
                    arena.release(base)

        self.stats = PlanStats(
            steps=len(self._steps),
            inplace_steps=inplace_steps,
            alias_steps=alias_steps,
            arena_bytes=arena.allocated_bytes,
            persistent_bytes=arena.persistent_bytes,
            buffers=arena.buffers,
            reuses=arena.reuses,
        )

    def _compile_step(self, node: CNode, xs: List[np.ndarray],
                      param_arrays: List[np.ndarray], out_spec: TensorSpec,
                      alloc: _Alloc, root: Dict[str, str], last_use: Dict[str, int],
                      idx: int, owner: Dict[str, np.ndarray],
                      ) -> Tuple[Callable[[], None], np.ndarray, np.ndarray, bool]:
        op = node.op
        attrs = node.attrs
        out_dtype = _NUMPY_DTYPES[out_spec.dtype]

        # conv2d self-allocates: the per-sample GEMMs write the tensor.
        if op in ("conv2d", "fused_conv2d"):
            fn, out_view, out_base = _compile_conv2d(
                node, xs[0], param_arrays, alloc, out_spec)
            if op == "fused_conv2d":
                fn = _chain(fn, *_compile_epilogue(
                    attrs.get("epilogue", ()), param_arrays[1:], out_view))
            return fn, out_view, out_base, False

        # Steal the dying first input's buffer for elementwise ops.
        inplace = False
        out_view: np.ndarray | None = None
        out_base: np.ndarray | None = None
        if op in _INPLACE_OPS:
            d0 = node.inputs[0]
            r0 = root[d0]
            cand = xs[0]
            if (last_use.get(r0, -1) == idx and cand.shape == out_spec.shape
                    and cand.dtype == out_dtype and cand.flags.c_contiguous
                    and r0 in owner):
                out_view = cand
                out_base = owner.pop(r0)
                inplace = True
        if out_view is None:
            out_base = alloc.acquire(out_spec.numel, out_dtype, waste_cap=4)
            out_view = out_base[:out_spec.numel].reshape(out_spec.shape)

        if op in ("matmul", "fused_matmul"):
            fn = _compile_matmul(xs[0], param_arrays, out_view)
            if op == "fused_matmul":
                fn = _chain(fn, *_compile_epilogue(
                    attrs.get("epilogue", ()), param_arrays[1:], out_view))
        elif op in ("dwconv2d", "fused_dwconv2d"):
            fn = _compile_dwconv2d(node, xs[0], param_arrays, alloc, out_view)
            if op == "fused_dwconv2d":
                fn = _chain(fn, *_compile_epilogue(
                    attrs.get("epilogue", ()), param_arrays[1:], out_view))
        elif op == "maxpool2d":
            fn = _compile_maxpool(node, xs[0], alloc, out_view)
        elif op == "avgpool2d":
            fn = _compile_avgpool(node, xs[0], alloc, out_view)
        elif op == "global_avgpool":
            x = xs[0]

            def fn() -> None:
                np.mean(x, axis=(2, 3), keepdims=True, out=out_view)
        elif op == "add":
            a, b = xs

            def fn() -> None:
                np.add(a, b, out=out_view)
        elif op == "mul":
            a, b = xs

            def fn() -> None:
                np.multiply(a, b, out=out_view)
        elif op in ("bias_add", "relu", "sigmoid", "tanh", "batchnorm"):
            fn = _compile_elementwise(op, xs[0], param_arrays, attrs, out_view)
        elif op == "softmax":
            fn = _compile_softmax(node, xs[0], out_view)
        elif op == "concat":
            axis = int(attrs.get("axis", 1))
            ins = list(xs)

            def fn() -> None:
                np.concatenate(ins, axis=axis, out=out_view)
        elif op == "flatten":
            # Non-contiguous input (no alias possible): copy through reshape.
            x = xs[0]

            def fn() -> None:
                np.copyto(out_view, x.reshape(x.shape[0], -1))
        else:
            # lrn and any future op: naive kernel + copy-in.
            fn = _compile_fallback(node, xs, param_arrays, out_view)

        return fn, out_view, out_base, inplace

    # -- execution ----------------------------------------------------------

    def _results(self) -> Dict[str, np.ndarray]:
        return {name: self._bound[name].copy() for name in self._result_names}

    def execute(self, externals: Dict[str, np.ndarray],
                keep: Iterable[str] = ()) -> Dict[str, np.ndarray]:
        """Run the compiled steps; returns copies of the result tensors.

        Results are copied out of the workspace so they stay valid across
        subsequent runs of the same plan.  A plan owns one workspace, so
        concurrent ``execute`` calls on the same plan serialize on a lock.
        """
        with self._exec_lock:
            for name, buf in self._inputs.items():
                np.copyto(buf, externals[name])
            keep_set = set(keep)
            self.last_intermediates = {}
            for name, fn, _gates in self._steps:
                fn()
                if name in keep_set:
                    # Snapshot now: the arena reuses this storage later.
                    self.last_intermediates[name] = self._bound[name].copy()
            return self._results()

    def begin_streaming(self) -> "PlanStream":
        """Begin an incremental run: feed externals as they arrive.

        Returns a :class:`PlanStream`; call ``feed(name, array)`` once per
        external in any order (typically transport arrival order) and
        ``finish()`` for the results.  Steps whose external inputs have all
        arrived start immediately, so tail compute overlaps with transport.
        """
        return PlanStream(self)


class PlanStream:
    """One in-flight streaming execution of a :class:`CompiledPlan`.

    An in-order step cursor advances as externals are fed, stalling at the
    first step whose externals (root-resolved through aliases) are not all
    fed — wire order is first-consumer order, so in practice the cursor
    chases the feed.  The steps and their order are exactly
    :meth:`CompiledPlan.execute`'s, so results are bit-identical to a
    monolithic run with the same externals.

    The plan's workspace lock is held from construction until
    :meth:`finish` (or :meth:`abort` after a transport failure) — a stream
    is one occupancy of the plan, like one ``execute`` call stretched over
    the arrival window.
    """

    def __init__(self, plan: CompiledPlan) -> None:
        self._plan = plan
        self._pending: Set[str] = set(plan._inputs)
        self._finished = False
        self._cursor = 0
        plan._exec_lock.acquire()
        plan.last_intermediates = {}

    def feed(self, name: str, array: np.ndarray) -> None:
        """Deliver one external tensor; runs every step it unblocks."""
        if self._finished:
            raise RuntimeError("stream already finished")
        if name not in self._pending:
            raise ValueError(f"unknown or already-fed external {name!r}")
        buf = self._plan._inputs[name]
        if tuple(array.shape) != buf.shape:
            raise ValueError(
                f"external {name!r} has shape {array.shape}, expected {buf.shape}"
            )
        np.copyto(buf, array)
        self._pending.discard(name)
        self._advance()

    def _advance(self) -> None:
        steps = self._plan._steps
        while self._cursor < len(steps):
            _name, fn, gates = steps[self._cursor]
            if gates & self._pending:
                return
            fn()
            self._cursor += 1

    def finish(self) -> Dict[str, np.ndarray]:
        """Run the remaining steps; returns copies of the results."""
        if self._finished:
            raise RuntimeError("stream already finished")
        self._finished = True
        try:
            if self._pending:
                raise ValueError(
                    f"stream missing externals {sorted(self._pending)}")
            self._advance()
            return self._plan._results()
        finally:
            self._plan._exec_lock.release()

    def abort(self) -> None:
        """Abandon the stream (transport failure) and release the plan.

        Idempotent; safe after ``finish``.
        """
        if self._finished:
            return
        self._finished = True
        self._plan._exec_lock.release()


class GraphPlan:
    """Compiled plan for a whole :class:`ComputationGraph`.

    Mirrors ``GraphExecutor.run`` semantics (same validation, same ``keep``
    contract) with compile-once / run-many performance.  ``batch=n`` runs
    ``n`` stacked samples per call (the input's leading axis is scaled).
    """

    def __init__(self, graph: ComputationGraph, seed: int = 0,
                 params: Dict[str, np.ndarray] | None = None,
                 batch: int = 1) -> None:
        _check_batch(batch)
        graph.validate()
        self._graph = graph
        order = graph.topological_order()
        nodes = [graph.node(name) for name in order]
        self._params = params if params is not None else init_parameters(nodes, seed)
        self._core = CompiledPlan(
            name=graph.name,
            nodes=nodes,
            external_specs={graph.input_name: graph.input_spec},
            params=self._params,
            result_names=(graph.output_name,),
            batch=batch,
        )
        self._expected = _batched_spec(graph.input_spec, batch).shape
        self.last_intermediates: Dict[str, np.ndarray] = {}

    @property
    def params(self) -> Dict[str, np.ndarray]:
        return self._params

    @property
    def stats(self) -> PlanStats:
        return self._core.stats

    @property
    def batch(self) -> int:
        return self._core.batch

    def run(self, x: np.ndarray, keep: Iterable[str] = ()) -> np.ndarray:
        if tuple(x.shape) != self._expected:
            raise ValueError(f"input shape {x.shape} != expected {self._expected}")
        results = self._core.execute({self._graph.input_name: x}, keep)
        self.last_intermediates = self._core.last_intermediates
        return results[self._graph.output_name]


class SegmentPlan:
    """Compiled plan for one partition :class:`Segment`.

    The MakeTuple/Return scaffolding is compiled away — results are exposed
    keyed by producer name, exactly as ``SegmentExecutor.run`` returns them.
    """

    def __init__(self, segment: Segment, seed: int = 0,
                 params: Dict[str, np.ndarray] | None = None,
                 batch: int = 1) -> None:
        _check_batch(batch)
        self._segment = segment
        self._params = params if params is not None else init_parameters(segment.nodes, seed)
        self._core = CompiledPlan(
            name=segment.name,
            nodes=segment.nodes,
            external_specs=dict(segment.boundary_inputs),
            params=self._params,
            result_names=segment.result_names,
            batch=batch,
        )
        self._expected = {
            name: _batched_spec(spec, batch).shape
            for name, spec in segment.boundary_inputs.items()
        }

    @property
    def params(self) -> Dict[str, np.ndarray]:
        return self._params

    @property
    def stats(self) -> PlanStats:
        return self._core.stats

    @property
    def batch(self) -> int:
        return self._core.batch

    def begin_streaming(self) -> PlanStream:
        """Feed boundary tensors one at a time as they arrive off the wire.

        Returns a :class:`PlanStream`: ``feed(name, array)`` each boundary
        tensor (shape-checked against the compiled batched spec), then
        ``finish()`` for the same producer-keyed results :meth:`run`
        returns — bit-identical to a monolithic ``run`` call.
        """
        return self._core.begin_streaming()

    def run(self, boundary: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        missing = set(self._segment.boundary_inputs) - set(boundary)
        if missing:
            raise ValueError(
                f"segment {self._segment.name!r} missing boundary tensors {sorted(missing)}"
            )
        for name, expected in self._expected.items():
            if tuple(boundary[name].shape) != expected:
                raise ValueError(
                    f"boundary tensor {name!r} has shape {boundary[name].shape}, expected {expected}"
                )
        return self._core.execute(
            {name: boundary[name] for name in self._segment.boundary_inputs}
        )
