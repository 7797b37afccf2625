"""Simulated records depend on the seed alone, not on the host's kernels.

Latency predictions set every decision and every resilient deadline, so a
fit or a prediction that summed through BLAS would move records by ulps
when OpenBLAS picks another kernel or NumPy another SIMD path.  Each
setting runs a small fleet, exits and resilience cell in a fresh process,
and every records digest must equal the default run's.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import repro

#: Three cells on the benches' offline profile: a 2-server gateway fleet
#: with a crash, a mixed-SLA exit fleet and a resilient device on a lossy
#: link.  Prints one records digest per cell.
CELLS = """
import hashlib, json
from repro.core.engine import LoADPartEngine
from repro.models import build_exit_model, build_model
from repro.network.faults import FaultPlan, ServerFaultPlan
from repro.profiling.offline import OfflineProfiler
from repro.runtime.gateway import GatewayConfig, GatewayFleetSystem
from repro.runtime.multi import MultiClientSystem
from repro.runtime.resilience import ResilienceConfig
from repro.runtime.supervisor import SupervisorConfig
from repro.runtime.system import OffloadingSystem, SystemConfig

def digest(records):
    return hashlib.sha256(repr(list(records)).encode()).hexdigest()

report = OfflineProfiler(samples_per_category=150, seed=3).run()
user, edge = report.user_predictor, report.edge_predictor
engine = LoADPartEngine(build_model("squeezenet"), user, edge)
fleet = GatewayFleetSystem(
    engine, 6, num_servers=2,
    config=SystemConfig(seed=7, resilience=ResilienceConfig(max_retries=2)),
    gateway_config=GatewayConfig(probes=SupervisorConfig(probe_period_s=0.5)),
    server_faults=[ServerFaultPlan(crash_windows=((0.5, 1.0),)), None]).run(2.0)
graph, branches = build_exit_model("squeezenet")
exits = MultiClientSystem(
    LoADPartEngine(graph, user, edge, exits=branches), 3,
    config=SystemConfig(seed=7, sla_classes=(0.05, 0.3))).run(2.0)
resilience = OffloadingSystem(engine, config=SystemConfig(
    seed=7, resilience=ResilienceConfig(),
    faults=FaultPlan(drop_prob=0.1, seed=11))).run(5.0)
print(json.dumps({"fleet": digest(fleet), "exits": digest(exits),
                  "resilience": digest(resilience)}))
"""

#: OpenBLAS's AVX2 and SSE3-only kernels, and NumPy with its AVX2 and
#: AVX-512 dispatch turned off.  A setting the host cannot honour runs
#: the default path, which only weakens the check.
SETTINGS = {
    "default": {},
    "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "numpy_baseline": {
        "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"},
}


def test_records_do_not_depend_on_the_kernel():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    procs = {}
    for name, extra in SETTINGS.items():
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        env.update(extra)
        procs[name] = subprocess.Popen(
            [sys.executable, "-c", CELLS], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    digests = {}
    for name, proc in procs.items():
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, f"{name}: {err}"
        digests[name] = json.loads(out)
    for name, cells in digests.items():
        assert cells == digests["default"], name
