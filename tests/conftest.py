"""Shared fixtures: small traces, fast training settings, tiny spaces."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.training import StackedEnsembleTrainer, TrainingConfig
from repro.cpu.config import MachineConfig
from repro.designspace import (
    BooleanParameter,
    CardinalParameter,
    DesignSpace,
    NominalParameter,
)
from repro.workloads import generate_trace

#: short trace length used throughout the tests (fast to generate/profile)
SHORT_TRACE = 8_000


@pytest.fixture(scope="session")
def gzip_trace():
    return generate_trace("gzip", SHORT_TRACE)


@pytest.fixture(scope="session")
def mcf_trace():
    return generate_trace("mcf", SHORT_TRACE)


@pytest.fixture(scope="session")
def mgrid_trace():
    return generate_trace("mgrid", SHORT_TRACE)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def default_config():
    return MachineConfig()


@pytest.fixture
def fast_training():
    """Cheap ANN settings for unit tests."""
    return TrainingConfig(
        hidden_layers=(8,),
        max_epochs=200,
        patience=6,
        check_interval=10,
        batch_size=32,
    )


@pytest.fixture
def fit_one_task():
    """Train one network as a one-task ``StackedEnsembleTrainer`` run.

    The returned ``fit(config, x, y, x_es, y_es, scaler, seed=0,
    capture=False)`` lays the rows out as ``MultiTaskNetwork.fit`` does
    — training rows, then early-stopping rows, no test rows — and
    returns the task's ``FoldResult``; ``capture`` records its
    ``train.*`` events and counters.
    """

    def fit(config, x, y, x_es, y_es, scaler, seed=0, capture=False):
        n, n_es = len(x), len(x_es)
        task = (np.arange(n), np.arange(n, n + n_es), np.arange(0), seed)
        (result,) = StackedEnsembleTrainer(config).fit_folds(
            np.concatenate([x, x_es]),
            np.concatenate([y, y_es]),
            [task],
            [scaler],
            capture_telemetry=capture,
            capture_metrics=capture,
        )
        return result

    return fit


@pytest.fixture
def tiny_space():
    """A small mixed-type design space for encoder/explorer tests."""
    return DesignSpace(
        name="tiny",
        parameters=[
            CardinalParameter("size", (8, 16, 32, 64)),
            CardinalParameter("ways", (1, 2, 4)),
            NominalParameter("policy", ("WT", "WB")),
            BooleanParameter("prefetch"),
        ],
    )
