"""Shared experiment context: trained predictors and engines, cached.

Every experiment needs the offline-trained prediction models; training
takes a fraction of a second but is cached here so a full experiment sweep
trains exactly once per (sample count, seed).
"""

from __future__ import annotations

from functools import lru_cache

from repro.core.engine import LoADPartEngine
from repro.models import build_model
from repro.profiling.offline import OfflineProfiler, ProfilerReport

DEFAULT_SAMPLES = 250
DEFAULT_SEED = 7


@lru_cache(maxsize=8)
def default_report(samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED) -> ProfilerReport:
    """The trained M_user / M_edge bundle used across experiments."""
    return OfflineProfiler(samples_per_category=samples, seed=seed).run()


@lru_cache(maxsize=32)
def default_engine(model: str, samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED) -> LoADPartEngine:
    """A decision engine for ``model`` built on the default predictors."""
    report = default_report(samples, seed)
    return LoADPartEngine(build_model(model), report.user_predictor, report.edge_predictor)
