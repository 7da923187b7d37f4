"""Tests for the batch-first evaluation backends (repro.core.backend)."""

import numpy as np
import pytest

from repro.core import EvaluationBackend, SerialBackend, as_backend
from repro.designspace import CardinalParameter, DesignSpace


def linear_fn(config):
    """Cheap, deterministic evaluation function."""
    return 0.1 + 0.01 * config["a"] + 0.001 * config["b"]


@pytest.fixture
def small_space():
    return DesignSpace(
        name="backend-test",
        parameters=[
            CardinalParameter("a", (1, 2, 3, 4)),
            CardinalParameter("b", (10, 20, 30)),
        ],
    )


class TestSerialBackend:
    def test_matches_direct_calls(self, small_space):
        configs = [small_space.config_at(i) for i in range(6)]
        values = SerialBackend(linear_fn).evaluate(configs)
        assert values.dtype == np.float64
        expected = np.array([linear_fn(c) for c in configs])
        np.testing.assert_array_equal(values, expected)

    def test_empty_batch(self):
        values = SerialBackend(linear_fn).evaluate([])
        assert values.shape == (0,)

    def test_rejects_non_callable(self):
        with pytest.raises(TypeError):
            SerialBackend(42)

    def test_context_manager(self):
        with SerialBackend(linear_fn) as backend:
            assert backend.evaluate([{"a": 1, "b": 10}]).shape == (1,)


class TestAsBackend:
    def test_wraps_callable(self):
        backend = as_backend(linear_fn)
        assert isinstance(backend, SerialBackend)
        assert isinstance(backend, EvaluationBackend)

    def test_passes_backend_through(self):
        backend = SerialBackend(linear_fn)
        assert as_backend(backend) is backend

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            as_backend(object())
