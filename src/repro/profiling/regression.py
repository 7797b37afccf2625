"""Non-negative least-squares linear regression (paper §III-B, step 3).

The paper fits the LR models "by fitting the non-negative least squares
(NNLS) to keep all its regression coefficients positive and not fitting the
intercept, to make sure when the input feature is a zero vector, the
predicted inference time is zero".  :class:`NNLSModel` does exactly that,
with internal column scaling for numerical conditioning (feature magnitudes
span ~1 .. 1e10).

The fit (:func:`nnls`) and the predictions use fixed-order arithmetic only:
elementwise NumPy operations, each rounded once by IEEE 754, and sums
through :func:`math.fsum`, which rounds the exact sum once.  Nothing here
calls BLAS or LAPACK, so coefficients and predictions are the same bits
whichever kernel or SIMD path the host picks.
"""

from __future__ import annotations

import math
import sys
from typing import List, Sequence

import numpy as np

#: A column enters the passive set only if its component orthogonal to the
#: passive columns, times this factor, still changes the norm of its
#: component inside their span (Lawson & Hanson's ``FACTOR``): about 1e-14
#: relative, so an exact duplicate of a passive column never enters.
INDEPENDENCE_FACTOR = 0.01


def _sumprod(u: np.ndarray, v: np.ndarray) -> float:
    """``u · v`` rounded once: elementwise products, summed exactly."""
    return math.fsum((u * v).tolist())


def _norm(u: np.ndarray) -> float:
    return math.sqrt(_sumprod(u, u))


def _triangularize(cols: List[np.ndarray], vectors: List[np.ndarray]):
    """Householder QR of ``cols`` in order, applied to ``vectors`` as well.

    Returns reflected copies: column ``i`` holds column ``i`` of R in its
    first ``i + 1`` entries, and each vector holds ``Qᵀ v``.
    """
    cols = [c.copy() for c in cols]
    vectors = [v.copy() for v in vectors]
    for i, col in enumerate(cols):
        head = col[i:]
        lead = float(head[0])
        norm = _norm(head)
        alpha = -math.copysign(norm, lead)
        u = head.copy()
        u[0] = lead - alpha
        half_uu = norm * (norm + abs(lead))  # u · u / 2
        for other in cols[i + 1:] + vectors:
            seg = other[i:]
            seg -= (_sumprod(u, seg) / half_uu) * u
        col[i] = alpha
        col[i + 1:] = 0.0
    return cols, vectors


def _solve(cols: List[np.ndarray], passive: List[int], b: np.ndarray,
           noise: float) -> dict:
    """Unconstrained least squares over the columns ``passive``.

    Coefficient ``j`` is read off the QR that reflects column ``j`` last:
    ``(Qᵀb)_j`` is the part of ``b`` along the direction of column ``j``
    orthogonal to the others, and ``z_j = (Qᵀb)_j / R_jj``.  A part no
    larger than ``noise`` is rounding error, and its coefficient reads 0.
    """
    last = len(passive) - 1
    z = {}
    for j in passive:
        order = [i for i in passive if i != j] + [j]
        r, (qb,) = _triangularize([cols[i] for i in order], [b])
        part = float(qb[last])
        z[j] = part / float(r[last][last]) if abs(part) > noise else 0.0
    return z


def nnls(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x >= 0`` minimising ``‖A x − b‖₂`` (Lawson & Hanson, 1974, ch. 23).

    The active-set method: the column with the steepest descent direction
    enters the passive set, least squares over the passive columns gives a
    trial solution, and while a trial coefficient is not positive the
    iterate moves toward the trial until the first coefficient reaches zero
    and leaves.  Least squares is Householder QR on the passive columns.

    Rounding noise is ``10 n ε ‖b‖`` in a component of ``b``.  A column
    enters only if its descent rate exceeds that noise times the largest
    column norm, it passes the independence test
    (:data:`INDEPENDENCE_FACTOR`) and its trial coefficient is positive;
    among those the steepest goes first, the lowest index on a tie.  A
    trial coefficient whose column carries only noise of ``b`` reads 0, so
    an optimum on a face of the orthant gets the face's smaller support.
    A zero column never enters, of two equal columns only the first can,
    and an all-zero ``b`` gives ``x = 0``.  Raises :class:`RuntimeError`
    after ``3 n`` entries, which only rounding-driven cycling could reach.
    """
    n = A.shape[1]
    cols = [np.array(A[:, j], dtype=np.float64) for j in range(n)]
    b = np.array(b, dtype=np.float64)
    noise = 10 * n * sys.float_info.epsilon * _norm(b)
    tol = noise * max(map(_norm, cols))
    x = [0.0] * n
    passive: List[int] = []
    for _ in range(3 * n):
        k = len(passive)
        active = [j for j in range(n) if j not in passive]
        _, (residual, *reflected) = _triangularize(
            [cols[j] for j in passive], [b] + [cols[j] for j in active])
        entering = []
        for j, col in zip(active, reflected):
            # Qᵀ b below row k is the residual, orthogonal to the passive
            # columns; its product with column j is the descent rate.
            w = _sumprod(col[k:], residual[k:])
            inside = _norm(col[:k])
            independent = (inside + INDEPENDENCE_FACTOR * _norm(col[k:])) - inside > 0
            if w > tol and independent:
                entering.append((-w, j))
        for _, t in sorted(entering):
            z = _solve(cols, passive + [t], b, noise)
            if z[t] > 0:
                break
        else:
            return np.array(x)
        passive.append(t)
        while any(z[j] <= 0 for j in passive):
            alpha, blocking = min((x[j] / (x[j] - z[j]), j)
                                  for j in passive if z[j] <= 0)
            for j in passive:
                x[j] += alpha * (z[j] - x[j])
            x[blocking] = 0.0
            passive = [j for j in passive if x[j] > 0]
            z = _solve(cols, passive, b, noise)
        x = [z.get(j, 0.0) for j in range(n)]
    raise RuntimeError(f"NNLS did not converge in {3 * n} iterations")


class NNLSModel:
    """Linear model ``y = X·coef`` with ``coef >= 0`` and no intercept."""

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
        self.coef = nnls(X / scales, y) / scales
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.coef is None:
            raise RuntimeError("model is not fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != len(self.coef):
            raise ValueError(f"X must have {len(self.coef)} columns, got {X.shape}")
        # coef[0]·X[:, 0] + coef[1]·X[:, 1] + …, left to right.
        out = X[:, 0] * self.coef[0]
        for j in range(1, len(self.coef)):
            out = out + X[:, j] * self.coef[j]
        return out

    def predict_one(self, x: np.ndarray) -> float:
        return float(self.predict(x)[0])
