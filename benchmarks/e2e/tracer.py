"""Span tracer that measures each layer from outside the program.

:class:`Tracer` wraps public methods of the ``repro`` package while it is
installed, records one span per call (site, start, end, parent span and
the request it belongs to) in flat typed arrays, and restores every
original when uninstalled.  Nothing under ``src/`` knows it exists.

A call into a group from inside a span of the same group is not a new
span: ``SharedEdgeServer.handle_offload`` calling ``super()``, or
``decide_exit`` calling a sub-engine's ``decide``, is one
``runtime.server.handle`` / ``core.decide`` call, not two.  A span's self
time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from typing import Dict, List, Tuple

import numpy as np

#: Span groups and the public functions each one times: ``(module,
#: class or None for a module-level function, names)``.  The group name
#: prefix is the ``repro`` sub-package the functions live in.
GROUPS: Dict[str, List[Tuple[str, str | None, Tuple[str, ...]]]] = {
    "runtime.driver": [
        ("repro.runtime.system", "OffloadingSystem", ("run",)),
        ("repro.runtime.multi", "MultiClientSystem", ("run",)),
        ("repro.runtime.gateway", "GatewayFleetSystem", ("run",)),
    ],
    "runtime.client": [
        ("repro.runtime.client", "UserDevice",
         ("request_inference", "begin_inference", "complete_inference",
          "fallback_record")),
        ("repro.runtime.gateway", "GatewayDevice", ("begin_inference",)),
    ],
    "core.decide": [
        ("repro.core.engine", "LoADPartEngine",
         ("decide", "decide_fleet", "decide_exit", "decide_exit_fleet",
          "decide_joint")),
    ],
    "runtime.gateway.route": [
        ("repro.runtime.gateway", "EdgeGateway", ("route", "route_exit")),
    ],
    "runtime.supervisor.tick": [
        ("repro.runtime.supervisor", "FleetSupervisor", ("tick",)),
    ],
    "runtime.server.handle": [
        ("repro.runtime.server", "EdgeServer",
         ("handle_offload", "handle_offload_batch", "handle_load_query")),
        ("repro.runtime.multi", "SharedEdgeServer",
         ("handle_offload", "handle_offload_batch")),
    ],
    "network.channel": [
        ("repro.network.channel", "Channel",
         ("try_upload", "try_upload_stream", "try_download", "upload_time")),
    ],
    "hardware.sample": [
        ("repro.hardware.device_model", "DeviceModel", ("sample_graph_time",)),
        ("repro.hardware.gpu_scheduler", "GpuScheduler", ("execute",)),
    ],
    "nn.run": [
        ("repro.nn.executor", "GraphExecutor", ("run",)),
        ("repro.nn.executor", "SegmentExecutor", ("run",)),
        ("repro.nn.plan", "GraphPlan", ("run",)),
        ("repro.nn.plan", "SegmentPlan", ("run",)),
    ],
    "nn.compile": [
        ("repro.nn.executor", "GraphExecutor", ("__init__",)),
        ("repro.nn.executor", "SegmentExecutor", ("__init__",)),
        ("repro.nn.plan", "GraphPlan", ("__init__",)),
        ("repro.nn.plan", "SegmentPlan", ("__init__",)),
    ],
    "network.codec": [
        ("repro.network.codec", "TensorCodec", ("encode", "decode")),
        ("repro.network.codec", None, ("decode_any",)),
    ],
    "network.transport": [
        ("repro.runtime.transport", "TransportClient", ("offload",)),
    ],
    "profiling.train": [
        ("repro.profiling.offline", "OfflineProfiler", ("run",)),
    ],
}

#: Chrome trace files keep at most this many spans (the oldest); the
#: per-layer statistics always cover every span.
EXPORT_LIMIT = 100_000


class Tracer:
    """Records spans around the :data:`GROUPS` functions while installed."""

    def __init__(self) -> None:
        self.groups = list(GROUPS)
        self._sites: List[Tuple[int, str]] = []   # site -> (group, label)
        self._patches: List[Tuple[object, str, object]] = []
        self._next_request = 0
        self.clear()

    def clear(self) -> None:
        """Drop every recorded span (the wrappers stay installed)."""
        self.site = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.request = array("q")
        self._stack: List[int] = []
        self._current_request = 0
        #: (device identity, device-local request id) -> traced request id
        self._requests: Dict[Tuple[int, int], int] = {}

    # -- installation ----------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for g, group in enumerate(self.groups):
            for module_name, cls_name, names in GROUPS[group]:
                module = importlib.import_module(module_name)
                owner = module if cls_name is None else getattr(module, cls_name)
                for name in names:
                    original = owner.__dict__[name]
                    label = name if cls_name is None else f"{cls_name}.{name}"
                    self._sites.append((g, label))
                    wrapper = self._wrap(original, len(self._sites) - 1,
                                         group == "runtime.client")
                    if cls_name is None:
                        # Modules that imported the function by name hold
                        # their own reference; rebind those too.
                        for mod in list(sys.modules.values()):
                            if (getattr(mod, "__name__", "").startswith("repro")
                                    and getattr(mod, name, None) is original):
                                self._patch(mod, name, original, wrapper)
                    else:
                        self._patch(owner, name, original, wrapper)

    def _patch(self, owner, name: str, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def uninstall(self) -> None:
        # Sites stay registered: recorded spans keep referring to them.
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- span recording ----------------------------------------------------

    def _open(self, site: int) -> int:
        index = len(self.site)
        self.site.append(site)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self._current_request)
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()

    def _inside(self, group: int) -> bool:
        return bool(self._stack) and self._sites[self.site[self._stack[-1]]][0] == group

    def _request_for(self, name: str, args, kwargs) -> int:
        """Traced request id of a top-level client call.

        Retries and the batched driver's later ``complete_inference`` /
        ``fallback_record`` calls reuse the id their request started with.
        """
        device = id(args[0])
        if name.endswith("complete_inference"):
            local = args[1].request_id
        elif name.endswith("fallback_record"):
            local = args[1] if len(args) > 1 else kwargs["request_id"]
        elif name.endswith("begin_inference"):
            local = kwargs.get("request_id")
        else:
            local = None
        if local is not None and (device, local) in self._requests:
            return self._requests[(device, local)]
        self._next_request += 1
        return self._next_request

    def _wrap(self, fn, site: int, client: bool):
        group, label = self._sites[site]
        tracer = self

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                if tracer._inside(group):
                    return await fn(*args, **kwargs)
                index = tracer._open(site)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer._close(index)
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._inside(group):
                return fn(*args, **kwargs)
            outer = tracer._current_request
            if client:
                tracer._current_request = tracer._request_for(label, args, kwargs)
            rid = tracer._current_request
            index = tracer._open(site)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
                tracer._current_request = outer
            if client and getattr(result, "request_id", None) is not None:
                tracer._requests[(id(args[0]), result.request_id)] = rid
            return result
        return wrapper

    # -- results -------------------------------------------------------------

    def stats(self) -> Dict[str, Dict[str, float]]:
        """Per group: ``calls``, ``self_s`` and ``us_per_call``."""
        n = len(self.site)
        out: Dict[str, Dict[str, float]] = {}
        groups = np.array([self._sites[s][0] for s in self.site], dtype=np.int64)
        duration = (np.array(self.end, dtype=np.int64)
                    - np.array(self.start, dtype=np.int64)).astype(np.float64)
        parent = np.array(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=duration[has_parent],
                            minlength=n)
        self_ns = duration - child
        for g, group in enumerate(self.groups):
            mask = groups == g
            calls = int(mask.sum())
            self_s = float(self_ns[mask].sum()) * 1e-9
            out[group] = {
                "calls": calls,
                "self_s": self_s,
                "us_per_call": self_s / calls * 1e6 if calls else 0.0,
            }
        return out

    def write_chrome(self, path) -> None:
        """Write the spans as Chrome trace-event JSON (Perfetto reads it)."""
        n = min(len(self.site), EXPORT_LIMIT)
        t0 = self.start[0] if n else 0
        events = []
        for i in range(n):
            group, label = self._sites[self.site[i]]
            events.append({
                "name": label,
                "cat": self.groups[group],
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (self.start[i] - t0) / 1e3,
                "dur": (self.end[i] - self.start[i]) / 1e3,
                "args": {"request": self.request[i], "parent": self.parent[i]},
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": {"spans_total": len(self.site),
                                     "spans_written": n}}, fh)
