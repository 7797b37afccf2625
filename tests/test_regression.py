"""NNLS regression: the paper's fitting constraints, the solver against an
enumeration reference, and fixed-order arithmetic with no SciPy or BLAS."""

import ast
import inspect
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.profiling import regression
from repro.profiling.offline import OfflineProfiler
from repro.profiling.regression import NNLSModel, nnls
from tests.helpers import nnls_brute_force


class TestFit:
    def test_recovers_exact_linear_relation(self, rng):
        X = rng.random((100, 3)) * np.array([1e9, 1e3, 1.0])
        coef = np.array([2e-9, 3e-5, 0.5])
        y = X @ coef
        model = NNLSModel(["a", "b", "c"]).fit(X, y)
        np.testing.assert_allclose(model.coef, coef, rtol=1e-6)

    def test_coefficients_non_negative(self, rng):
        X = rng.random((200, 2))
        # A truly negative relationship on the second feature.
        y = X[:, 0] * 2.0 - X[:, 1] * 5.0 + 10.0
        model = NNLSModel(["a", "b"]).fit(X, y)
        assert np.all(model.coef >= 0)

    def test_zero_features_predict_zero(self, rng):
        """The paper's no-intercept requirement."""
        X = rng.random((50, 2)) + 1.0
        y = X[:, 0] + X[:, 1] + 5.0  # data has an offset the model may not learn
        model = NNLSModel(["a", "b"]).fit(X, y)
        assert model.predict_one(np.zeros(2)) == 0.0

    def test_huge_scale_spread_is_conditioned(self, rng):
        # Feature magnitudes spanning 1e0..1e12, targets in seconds.
        X = np.column_stack([rng.random(300) * 1e12, rng.random(300)])
        coef = np.array([1e-12, 1e-3])
        y = X @ coef
        model = NNLSModel(["flops", "small"]).fit(X, y)
        np.testing.assert_allclose(model.predict(X), y, rtol=1e-6)

    def test_predict_single_row(self, rng):
        X = rng.random((20, 2))
        y = X.sum(axis=1)
        model = NNLSModel(["a", "b"]).fit(X, y)
        assert model.predict_one(np.array([1.0, 1.0])) == pytest.approx(2.0, rel=1e-6)


class TestValidation:
    def test_wrong_feature_count(self, rng):
        with pytest.raises(ValueError):
            NNLSModel(["a", "b"]).fit(rng.random((10, 3)), rng.random(10))

    def test_mismatched_y(self, rng):
        with pytest.raises(ValueError):
            NNLSModel(["a"]).fit(rng.random((10, 1)), rng.random(9))

    def test_underdetermined_rejected(self, rng):
        with pytest.raises(ValueError, match="samples"):
            NNLSModel(["a", "b", "c"]).fit(rng.random((2, 3)), rng.random(2))

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            NNLSModel(["a"]).predict(np.ones((1, 1)))

    def test_is_fitted(self, rng):
        model = NNLSModel(["a"])
        assert model.coef is None
        model.fit(rng.random((5, 1)), rng.random(5))
        assert model.coef is not None


@st.composite
def nnls_problems(draw):
    """Small integer problems of full column rank, then a zero column, a
    duplicate column or an all-zero ``y`` on top.  Small integers keep
    every nonzero gradient and coefficient far above rounding noise, so
    the zero pattern of the optimum is well defined."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(n, 6))
    entries = st.integers(-4, 4)
    A = np.array(draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                               min_size=m, max_size=m)), dtype=np.float64)
    assume(np.linalg.matrix_rank(A) == n)
    y = np.array(draw(st.lists(entries, min_size=m, max_size=m)), dtype=np.float64)
    y *= draw(st.sampled_from([1e-6, 1.0, 1e3]))
    if draw(st.booleans()):
        A = np.insert(A, draw(st.integers(0, A.shape[1])), 0.0, axis=1)
    if draw(st.booleans()):
        copy = A[:, draw(st.integers(0, A.shape[1] - 1))]
        A = np.insert(A, draw(st.integers(0, A.shape[1])), copy, axis=1)
    if draw(st.booleans()):
        y = np.zeros_like(y)
    return A, y


def assert_matches_reference(A, y):
    x = nnls(A, y)
    reference, reference_rnorm = nnls_brute_force(A, y)
    assert np.all(x >= 0)
    np.testing.assert_array_equal(x > 0, reference > 0)
    assert np.linalg.norm(A @ x - y) <= reference_rnorm + 1e-12 * np.linalg.norm(y)


class TestSolver:
    @given(problem=nnls_problems())
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, problem):
        assert_matches_reference(*problem)

    @pytest.mark.parametrize("A, y, expected", [
        ([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [2.0, 1.0, 1.0], [1.5, 1.0]),
        ([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [-1.0, -1.0, -1.0], [0.0, 0.0]),
        ([[1.0, 1.0], [2.0, 2.0]], [3.0, 6.0], [3.0, 0.0]),
        ([[0.0, 1.0], [0.0, 2.0]], [0.0, 0.0], [0.0, 0.0]),
    ], ids=["interior", "all_negative", "duplicate", "zero"])
    def test_small_cases(self, A, y, expected):
        np.testing.assert_allclose(nnls(np.array(A), np.array(y)), expected,
                                   rtol=1e-15)

    def test_end_to_end_training_fits(self, monkeypatch):
        """The 16 category x side fits of the end-to-end benchmark's
        offline profile (150 samples per category, seed 3)."""
        fits = []

        def recording(A, y):
            fits.append((A, y))
            return nnls(A, y)

        monkeypatch.setattr(regression, "nnls", recording)
        OfflineProfiler(samples_per_category=150, seed=3).run()
        assert len(fits) == 16
        for A, y in fits:
            assert_matches_reference(A, y)


def test_predict_is_a_fixed_order_sum(rng):
    """``coef[0]·x[0] + coef[1]·x[1] + …`` left to right, in Python floats:
    the bits every host computes, whatever its BLAS kernel."""
    model = NNLSModel(["a", "b", "c", "d", "e"])
    model.coef = rng.random(5) * np.array([1e-9, 1e-6, 1e-3, 1.0, 1e3])
    X = rng.random((200, 5)) * np.array([1e10, 1e6, 1e3, 1.0, 1e-3])
    for row, got in zip(X, model.predict(X)):
        first, *rest = [c * v for c, v in zip(model.coef.tolist(), row.tolist())]
        expected = first
        for product in rest:
            expected += product
        assert got == expected
        assert model.predict_one(row) == expected


def test_regression_calls_no_blas():
    """No ``@``, ``dot``, ``linalg``, ``einsum`` or ``matmul`` in the
    module: each would hand the summation order to the BLAS kernel."""
    tree = ast.parse(inspect.getsource(regression))
    banned = {"dot", "linalg", "einsum", "matmul", "vdot", "inner", "tensordot"}
    for node in ast.walk(tree):
        assert not isinstance(node, ast.MatMult), ast.unparse(node)
        if isinstance(node, ast.Attribute):
            assert node.attr not in banned, ast.unparse(node)


def test_no_scipy_on_any_path():
    """Importing the package and the TCP server's module, fitting the
    latency models and running a small fleet load no SciPy module."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, repro, repro.runtime.transport\n"
        "from repro.core.engine import LoADPartEngine\n"
        "from repro.models import build_model\n"
        "from repro.profiling.offline import OfflineProfiler\n"
        "from repro.runtime.multi import MultiClientSystem\n"
        "report = OfflineProfiler(samples_per_category=40, seed=0).run()\n"
        "engine = LoADPartEngine(build_model('squeezenet'), report.user_predictor,\n"
        "                        report.edge_predictor)\n"
        "assert len(MultiClientSystem(engine, 2).run(1.0)) > 0\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "assert not loaded, loaded\n"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
