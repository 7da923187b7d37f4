"""Tests for the feed-forward network and backpropagation.

The centerpiece is a numerical gradient check: the analytic backprop
gradients of the reference in ``tests/reference_training.py`` must match
finite differences on random networks and data.  That reference anchors
the chain up to the stacked training kernel, which ``test_kernels.py``
and ``test_ensemble_kernel.py`` compare against it bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tests.reference_training import forward, gradients, train_batch

from repro.core import FeedForwardNetwork
from repro.core.activation import get_activation


def loss(network, x, y, weights=None):
    pred = network.predict(x)
    err = (pred - y) ** 2 / 2.0
    if weights is not None:
        err = err * weights[:, None]
    return float(err.sum(axis=1).mean())


def zero_velocity(network):
    return [np.zeros_like(w) for w in network.weights]


def numerical_gradients(network, x, y, weights=None, eps=1e-6):
    grads = []
    for matrix in network.weights:
        grad = np.zeros_like(matrix)
        it = np.nditer(matrix, flags=["multi_index"])
        while not it.finished:
            index = it.multi_index
            original = matrix[index]
            matrix[index] = original + eps
            up = loss(network, x, y, weights)
            matrix[index] = original - eps
            down = loss(network, x, y, weights)
            matrix[index] = original
            grad[index] = (up - down) / (2 * eps)
            it.iternext()
        grads.append(grad)
    return grads


class TestConstruction:
    def test_shapes(self):
        net = FeedForwardNetwork(5, (16,), 2, rng=np.random.default_rng(0))
        assert net.weights[0].shape == (6, 16)
        assert net.weights[1].shape == (17, 2)

    def test_multiple_hidden_layers(self):
        net = FeedForwardNetwork(3, (8, 4), 1, rng=np.random.default_rng(0))
        assert [w.shape for w in net.weights] == [(4, 8), (9, 4), (5, 1)]

    def test_init_range(self, rng):
        net = FeedForwardNetwork(4, (16,), 1, rng=rng, init_range=0.01)
        for w in net.weights:
            assert np.all(np.abs(w) <= 0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            FeedForwardNetwork(0, (4,), 1)
        with pytest.raises(ValueError):
            FeedForwardNetwork(4, (), 1)
        with pytest.raises(ValueError):
            FeedForwardNetwork(4, (4,), 1, init_range=-1)
        with pytest.raises(ValueError):
            FeedForwardNetwork(4, (0,), 1)

    def test_near_zero_init_is_almost_linear(self, rng):
        """Small weights make the net act like a (near-constant) linear
        model at first, as Section 3.1 describes."""
        net = FeedForwardNetwork(4, (16,), 1, rng=rng)
        x = rng.random((50, 4))
        predictions = net.predict(x)
        assert np.ptp(predictions) < 0.05


class TestForward:
    def test_predict_shape(self, rng):
        net = FeedForwardNetwork(4, (8,), 2, rng=rng)
        assert net.predict(rng.random((10, 4))).shape == (10, 2)

    def test_single_row(self, rng):
        net = FeedForwardNetwork(4, (8,), 1, rng=rng)
        assert net.predict(rng.random(4)).shape == (1, 1)

    def test_rejects_wrong_width(self, rng):
        net = FeedForwardNetwork(4, (8,), 1, rng=rng)
        with pytest.raises(ValueError):
            net.predict(rng.random((10, 5)))

    def test_activations_returned(self, rng):
        net = FeedForwardNetwork(4, (8, 6), 1, rng=rng)
        acts = forward(net, rng.random((3, 4)))
        assert [a.shape[1] for a in acts] == [4, 8, 6, 1]


class TestGradients:
    @pytest.mark.parametrize("hidden_activation", ["sigmoid", "tanh"])
    @pytest.mark.parametrize("layers", [(8,), (6, 4)])
    def test_matches_numerical(self, rng, hidden_activation, layers):
        net = FeedForwardNetwork(
            3, layers, 2, hidden_activation=hidden_activation,
            rng=rng, init_range=0.5,
        )
        x = rng.random((12, 3))
        y = rng.random((12, 2))
        analytic = gradients(net, x, y)
        numerical = numerical_gradients(net, x, y)
        for a, n in zip(analytic, numerical):
            np.testing.assert_allclose(a, n, rtol=1e-4, atol=1e-7)

    def test_weighted_gradients_match_numerical(self, rng):
        net = FeedForwardNetwork(3, (6,), 1, rng=rng, init_range=0.5)
        x = rng.random((10, 3))
        y = rng.random((10, 1))
        weights = rng.random(10) + 0.1
        analytic = gradients(net, x, y, sample_weights=weights)
        numerical = numerical_gradients(net, x, y, weights)
        for a, n in zip(analytic, numerical):
            np.testing.assert_allclose(a, n, rtol=1e-4, atol=1e-7)

    def test_shape_validation(self, rng):
        net = FeedForwardNetwork(3, (6,), 1, rng=rng)
        x = rng.random((10, 3))
        with pytest.raises(ValueError):
            gradients(net, x, rng.random((10, 2)))
        with pytest.raises(ValueError):
            gradients(net, x, rng.random((10, 1)), sample_weights=rng.random(5))


class TestTrainingDynamics:
    def test_learns_linear_function(self, rng):
        net = FeedForwardNetwork(2, (8,), 1, rng=rng)
        x = rng.random((200, 2))
        y = (0.3 * x[:, 0] + 0.5 * x[:, 1])[:, None]
        velocity = zero_velocity(net)
        for _ in range(3000):
            train_batch(net, velocity, x, y, learning_rate=0.5, momentum=0.9)
        assert loss(net, x, y) < 1e-4

    def test_momentum_accelerates(self, rng):
        def train(momentum):
            net = FeedForwardNetwork(
                2, (8,), 1, rng=np.random.default_rng(0)
            )
            x = np.random.default_rng(1).random((100, 2))
            y = (x[:, 0] * x[:, 1])[:, None]
            velocity = zero_velocity(net)
            for _ in range(500):
                train_batch(
                    net, velocity, x, y, learning_rate=0.1, momentum=momentum
                )
            return loss(net, x, y)

        assert train(0.9) < train(0.0)

    def test_weight_snapshots(self, rng):
        net = FeedForwardNetwork(2, (4,), 1, rng=rng)
        saved = net.get_weights()
        train_batch(
            net, zero_velocity(net), rng.random((10, 2)), rng.random((10, 1))
        )
        net.set_weights(saved)
        for current, snap in zip(net.weights, saved):
            np.testing.assert_array_equal(current, snap)

    def test_set_weights_validates(self, rng):
        net = FeedForwardNetwork(2, (4,), 1, rng=rng)
        with pytest.raises(ValueError):
            net.set_weights([np.zeros((3, 3))])


class TestActivationRegistry:
    def test_lookup(self):
        assert get_activation("sigmoid").name == "sigmoid"
        assert get_activation("tanh").name == "tanh"
        assert get_activation("identity").name == "identity"

    def test_unknown(self):
        with pytest.raises(ValueError):
            get_activation("relu6")

    @given(st.floats(min_value=-30, max_value=30))
    @settings(max_examples=50, deadline=None)
    def test_sigmoid_bounds_and_derivative(self, x):
        sig = get_activation("sigmoid")
        y = sig.forward(np.array([x]))[0]
        assert 0.0 <= y <= 1.0
        assert 0.0 <= sig.derivative_from_output(np.array([y]))[0] <= 0.25

    def test_sigmoid_extreme_inputs_finite(self):
        sig = get_activation("sigmoid")
        out = sig.forward(np.array([-1e9, 1e9]))
        assert np.all(np.isfinite(out))
