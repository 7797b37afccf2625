"""``LatencyPredictor``: the paper's M_user / M_edge model bundles.

One NNLS model per computation-node category, for one side (device or
edge).  Nodes without a category (concat, flatten, dropout, ...) predict
zero, exactly as the paper's implementation assigns them (§IV).  The fit
runs in fixed-order arithmetic, so the device and the server, fitting from
the same profile, hold the same trained models, as in Fig. 3.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Sequence

import numpy as np

from repro.graph.ops import CATEGORIES
from repro.profiling.features import FEATURE_NAMES, NodeProfile, feature_vector
from repro.profiling.regression import NNLSModel


class LatencyPredictor:
    """Per-category latency models for one side ("edge" or "device")."""

    def __init__(self, side: str, models: Dict[str, NNLSModel]) -> None:
        if side not in ("edge", "device"):
            raise ValueError(f"side must be 'edge' or 'device', got {side!r}")
        missing = set(CATEGORIES) - set(models)
        if missing:
            raise ValueError(f"missing models for categories: {sorted(missing)}")
        self.side = side
        self.models = dict(models)

    def predict(self, profile: NodeProfile) -> float:
        """Predicted execution time of one node, in seconds (>= 0)."""
        if profile.category is None:
            return 0.0
        try:
            model = self.models[profile.category]
        except KeyError:
            raise KeyError(
                f"no model for category {profile.category!r}; train the "
                "profiler with include_fused=True to predict fused kernels"
            ) from None
        return max(model.predict_one(feature_vector(profile, self.side)), 0.0)

    def predict_nodes(self, profiles: Sequence[NodeProfile]) -> np.ndarray:
        """Per-node predictions for a node sequence (the f(L_i) / g(L_i) array)."""
        return np.array([self.predict(p) for p in profiles], dtype=np.float64)

    def predict_total(self, profiles: Iterable[NodeProfile]) -> float:
        return float(sum(self.predict(p) for p in profiles))

    # -- construction helpers ------------------------------------------------------

    @classmethod
    def fit(
        cls,
        side: str,
        samples_by_category: Dict[str, Sequence],
    ) -> "LatencyPredictor":
        """Fit one NNLS model per category from profiled samples.

        ``samples_by_category`` maps category to a sequence of
        :class:`~repro.profiling.sampler.ProfiledSample`.  The 8 paper
        categories are required; fused categories are optional extras.
        """
        missing = set(CATEGORIES) - set(samples_by_category)
        if missing:
            raise ValueError(f"no samples for categories: {sorted(missing)}")
        models: Dict[str, NNLSModel] = {}
        for category, samples in samples_by_category.items():
            if not samples:
                raise ValueError(f"no samples for category {category!r}")
            names = FEATURE_NAMES[(category, side)]
            X = np.stack([feature_vector(s.profile, side) for s in samples])
            y = np.array(
                [s.device_time if side == "device" else s.edge_time for s in samples]
            )
            models[category] = NNLSModel(names).fit(X, y)
        return cls(side, models)


class ScaledPredictor:
    """A predictor proxy whose every prediction is scaled by a constant.

    Models a machine that is uniformly ``scale``x slower (``scale > 1``)
    or faster (``scale < 1``) than the hardware the wrapped bundle was
    profiled on — the cheapest honest way to describe a heterogeneous
    fleet whose servers share an architecture but not a clock.  A
    :class:`~repro.core.engine.ServerProfile` carries one of these as
    its per-server edge model; ``scale == 1`` predicts bit-identically
    to the wrapped bundle (``predict_nodes`` multiplies by exactly 1.0).
    """

    def __init__(self, base, scale: float) -> None:
        if not math.isfinite(scale) or scale <= 0:
            raise ValueError(f"scale must be positive and finite, got {scale}")
        self.base = base
        self.scale = float(scale)

    @property
    def side(self) -> str:
        return self.base.side

    def predict(self, profile: NodeProfile) -> float:
        return self.base.predict(profile) * self.scale

    def predict_nodes(self, profiles: Sequence[NodeProfile]) -> np.ndarray:
        return self.base.predict_nodes(profiles) * self.scale

    def predict_total(self, profiles: Iterable[NodeProfile]) -> float:
        return float(self.base.predict_total(profiles) * self.scale)
