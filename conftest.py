"""Root fixtures shared by ``tests/`` and ``benchmarks/``.

The profiled-model fixtures live here (instead of per-directory copies) and
route through :mod:`repro.experiments.context`, whose builders are
``lru_cache``'d per (samples, seed): one offline-profiler run and one
engine per model serve the whole process — unit tests and the benchmark
suite alike.  Exit-carrying engines, which only tests use, are built here
on the same predictors, once per family.
"""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def trained_report():
    """The offline-trained M_user / M_edge bundle, profiled exactly once."""
    from repro.experiments.context import default_report

    return default_report()


@pytest.fixture(scope="session")
def engine_for(trained_report):
    """Factory fixture: a cached decision engine for any zoo model."""
    from repro.experiments.context import default_engine

    return lambda model: default_engine(model)


@pytest.fixture(scope="session")
def alexnet_engine(engine_for):
    return engine_for("alexnet")


@pytest.fixture(scope="session")
def squeezenet_engine(engine_for):
    return engine_for("squeezenet")


@pytest.fixture(scope="session")
def exit_engine_for(trained_report):
    """Factory fixture: a cached exit-carrying engine for any exit family."""
    from functools import cache

    from repro.core.engine import LoADPartEngine
    from repro.models import build_exit_model

    @cache
    def build(model):
        graph, branches = build_exit_model(model)
        return LoADPartEngine(graph, trained_report.user_predictor,
                              trained_report.edge_predictor, exits=branches)

    return build


@pytest.fixture(scope="session")
def squeezenet_exit_engine(exit_engine_for):
    return exit_engine_for("squeezenet")
