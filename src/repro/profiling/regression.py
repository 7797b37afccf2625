"""Non-negative least-squares linear regression (paper §III-B, step 3).

The paper fits the LR models "by fitting the non-negative least squares
(NNLS) to keep all its regression coefficients positive and not fitting the
intercept, to make sure when the input feature is a zero vector, the
predicted inference time is zero".  :class:`NNLSModel` does exactly that,
with internal column scaling for numerical conditioning (feature magnitudes
span ~1 .. 1e10).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


class NNLSModel:
    """Linear model ``y = X @ coef`` with ``coef >= 0`` and no intercept."""

    def __init__(self, feature_names: Sequence[str]) -> None:
        self.feature_names = tuple(feature_names)
        self.coef: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "NNLSModel":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != len(self.feature_names):
            raise ValueError(
                f"X must be (n, {len(self.feature_names)}), got {X.shape}"
            )
        if y.shape != (X.shape[0],):
            raise ValueError(f"y must be ({X.shape[0]},), got {y.shape}")
        if X.shape[0] < X.shape[1]:
            raise ValueError("need at least as many samples as features")
        # Column scaling: NNLS operates on O(1) columns, coefficients are
        # rescaled back, preserving non-negativity.
        scales = np.abs(X).max(axis=0)
        scales[scales == 0] = 1.0
        # Imported here: SciPy costs half a second and ~45 MB to load, and
        # only a process that fits a model needs it.
        from scipy.optimize import nnls

        coef_scaled, _residual = nnls(X / scales, y)
        self.coef = coef_scaled / scales
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.coef is None:
            raise RuntimeError("model is not fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        return X @ self.coef

    def predict_one(self, x: np.ndarray) -> float:
        return float(self.predict(x)[0])

    def to_dict(self) -> dict:
        """Serialisable form, stored on both device and server (§III-A)."""
        if self.coef is None:
            raise RuntimeError("model is not fitted")
        return {
            "feature_names": list(self.feature_names),
            "coef": [float(c) for c in self.coef],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "NNLSModel":
        model = cls(payload["feature_names"])
        coef = np.asarray(payload["coef"], dtype=np.float64)
        if np.any(coef < 0):
            raise ValueError("NNLS coefficients must be non-negative")
        model.coef = coef
        return model
