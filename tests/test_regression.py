"""NNLS regression: the paper's fitting constraints."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.profiling.regression import NNLSModel


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


class TestSerialisation:
    def test_round_trip(self, rng):
        X = rng.random((30, 2))
        y = X @ np.array([1.5, 0.5])
        model = NNLSModel(["a", "b"]).fit(X, y)
        restored = NNLSModel.from_dict(model.to_dict())
        np.testing.assert_allclose(restored.predict(X), model.predict(X))
        assert restored.feature_names == ("a", "b")

    def test_rejects_negative_coef_payload(self):
        with pytest.raises(ValueError):
            NNLSModel.from_dict({"feature_names": ["a"], "coef": [-1.0]})

    def test_to_dict_before_fit(self):
        with pytest.raises(RuntimeError):
            NNLSModel(["a"]).to_dict()


def test_scipy_loads_at_the_first_fit_only():
    """Importing the package, or the TCP server's module, leaves SciPy's
    solver unloaded; fitting a model loads it and still works."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, numpy as np, repro, repro.runtime.transport\n"
        "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize loaded'\n"
        "from repro.profiling.regression import NNLSModel\n"
        "m = NNLSModel(['a', 'b']).fit(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),\n"
        "                              np.array([2.0, 3.0, 5.0]))\n"
        "assert np.allclose(m.coef, [2.0, 3.0])\n"
        "assert 'scipy.optimize' in sys.modules\n"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
