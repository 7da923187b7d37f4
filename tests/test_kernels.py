"""Bit-compatibility and equivalence locks for the vectorized kernels.

The fused training kernels and the chunked batch-predict path replaced
per-batch/per-config Python loops; these tests pin the contract that
made the swap safe:

* any batch size (including 1, the paper's literal per-sample
  presentation) produces a weight and velocity trajectory bit-identical
  to driving the reference ``train_batch`` directly — the pre-kernel
  training loop — for the single-network reference kernel the stacked kernel is
  compared against, and for a whole one-task
  ``StackedEnsembleTrainer`` fit;
* chunked full-space ensemble prediction matches per-configuration
  prediction on both studies' design spaces;
* the cached design matrix is shared, immutable, and row-consistent
  with per-config encoding;
* ``presentation_probabilities`` is computed once per fit, not once per
  epoch, and the cached-CDF ``PresentationSampler`` that draws from it
  equals ``Generator.choice`` draw for draw, and a block of draws equals
  as many single draws;
* ``forward_raw``'s in-place layers never write its input.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from tests.reference_training import TrainingKernel, train_batch

import repro.core.training as training_mod
from repro.core.encoding import ParameterEncoder, TargetScaler, design_matrix
from repro.core.ensemble import EnsemblePredictor
from repro.core.network import FeedForwardNetwork, TrainingDiverged
from repro.core.training import TrainingConfig
from repro.experiments.studies import get_study


def _twin_networks(n_inputs, seed, hidden=(6,), activation="sigmoid"):
    """Two identically initialized networks (same seed, same layout)."""
    nets = [
        FeedForwardNetwork(
            n_inputs=n_inputs,
            hidden_layers=hidden,
            hidden_activation=activation,
            rng=np.random.default_rng(seed),
        )
        for _ in range(2)
    ]
    for a, b in zip(nets[0].weights, nets[1].weights):
        assert np.array_equal(a, b)
    return nets


def _legacy_epoch(network, velocity, x, y, order, batch_size, lr, momentum):
    """The pre-kernel training epoch: per-batch ``train_batch`` calls."""
    n = len(order)
    for start in range(0, n, batch_size):
        batch = order[start : start + batch_size]
        train_batch(
            network, velocity, x[batch], y[batch],
            learning_rate=lr, momentum=momentum,
        )


@pytest.mark.parametrize("batch_size", [1, 7, 32])
@pytest.mark.parametrize("activation", ["sigmoid", "tanh"])
def test_kernel_epochs_bitwise_match_legacy_loop(batch_size, activation):
    """The fused kernel reproduces the pre-change weight trajectory
    bit-for-bit, for per-sample (batch 1), ragged and default batches."""
    rng = np.random.default_rng(99)
    x = rng.uniform(0.0, 1.0, (40, 5))
    y = rng.uniform(0.1, 0.9, (40, 1))
    kernel_net, legacy_net = _twin_networks(5, seed=3, activation=activation)
    kernel = TrainingKernel(kernel_net, x, y)
    legacy_velocity = [np.zeros_like(w) for w in legacy_net.weights]

    order_rng = np.random.default_rng(17)
    for _ in range(12):
        order = order_rng.choice(len(x), size=len(x))
        kernel.run_epoch(order, batch_size, learning_rate=0.3, momentum=0.9)
        _legacy_epoch(
            legacy_net, legacy_velocity, x, y, order, batch_size, 0.3, 0.9
        )
        for got, want in zip(kernel_net.weights, legacy_net.weights):
            assert np.array_equal(got, want)
        for got, want in zip(kernel.velocity, legacy_velocity):
            assert np.array_equal(got, want)


def _legacy_train(network, x, y, x_es, y_es, scaler, cfg, rng):
    """The pre-kernel early-stopping training loop, verbatim.

    Valid for configs with ``lr_decay=1.0`` and a patience that never
    fires, so the trainer's rng stream is exactly one ``choice()`` per
    epoch and the only weight mutations are the per-batch updates plus
    the final best-snapshot restore.
    """
    from repro.core.error import percentage_errors

    y_norm = scaler.transform(y)[:, None]
    inverse = 1.0 / y
    probabilities = inverse / inverse.sum()
    n = len(x)
    best_error = float("inf")
    best_weights = network.get_weights()
    velocity = [np.zeros_like(w) for w in network.weights]
    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.choice(n, size=n, p=probabilities)
        _legacy_epoch(
            network, velocity, x, y_norm, order, cfg.batch_size,
            cfg.learning_rate, cfg.momentum,
        )
        if epoch % cfg.check_interval:
            continue
        predictions = scaler.inverse_transform(network.predict(x_es)[:, 0])
        es_error = float(np.mean(percentage_errors(predictions, y_es)))
        if es_error < best_error - 1e-12:
            best_error = es_error
            best_weights = network.get_weights()
    network.set_weights(best_weights)


def test_trainer_batch1_matches_legacy_per_sample_trajectory(fit_one_task):
    """Full one-task fits with ``batch_size=1`` reproduce a hand-driven
    per-sample legacy fit exactly (same rng stream: weight init, then
    one presentation draw per epoch), including the early-stopping
    best-weights restore."""
    cfg = TrainingConfig(
        hidden_layers=(6,),
        hidden_activation="sigmoid",
        learning_rate=0.05,
        momentum=0.5,
        batch_size=1,
        max_epochs=30,
        check_interval=10,
        patience=50,
        lr_decay=1.0,
    )
    data_rng = np.random.default_rng(5)
    x = data_rng.uniform(0.0, 1.0, (30, 4))
    y = 0.5 + x.sum(axis=1)
    x_es, y_es = x[:6], y[:6]
    scaler = TargetScaler().fit(y)

    result = fit_one_task(cfg, x, y, x_es, y_es, scaler, seed=42)
    assert result.history.epochs_run == cfg.max_epochs  # patience never fired

    legacy_rng = np.random.default_rng(42)
    legacy_net = FeedForwardNetwork(
        n_inputs=4,
        hidden_layers=cfg.hidden_layers,
        hidden_activation=cfg.hidden_activation,
        rng=legacy_rng,
        init_range=cfg.init_range,
    )
    _legacy_train(legacy_net, x, y, x_es, y_es, scaler, cfg, legacy_rng)
    for got, want in zip(result.network.weights, legacy_net.weights):
        assert np.array_equal(got, want)


def test_kernel_detects_nonfinite_weights():
    network, _ = _twin_networks(3, seed=1)
    x = np.random.default_rng(0).uniform(0, 1, (8, 3))
    y = np.full((8, 1), 0.5)
    kernel = TrainingKernel(network, x, y)
    network.weights[0][0, 0] = np.nan
    with pytest.raises(TrainingDiverged) as excinfo:
        kernel.run_epoch(np.arange(8), 4, learning_rate=0.1, momentum=0.5)
    assert excinfo.value.reason == "non-finite weights"


def test_kernel_sees_weight_restores():
    """set_weights mutates in place, so a kernel built before a restore
    keeps training the restored weights; reset_velocity zeroes the
    kernel's own momentum."""
    network, _ = _twin_networks(3, seed=2)
    x = np.random.default_rng(1).uniform(0, 1, (8, 3))
    y = np.full((8, 1), 0.5)
    kernel = TrainingKernel(network, x, y)
    snapshot = network.get_weights()
    kernel.run_epoch(np.arange(8), 8, learning_rate=0.3, momentum=0.9)
    assert any(v.any() for v in kernel.velocity)
    network.set_weights(snapshot)
    kernel.reset_velocity()
    for kernel_w, net_w in zip(kernel._weights, network.weights):
        assert kernel_w is net_w
    assert all(np.array_equal(a, b)
               for a, b in zip(kernel._weights, snapshot))
    assert not any(v.any() for v in kernel.velocity)


# ----------------------------------------------------------------------
# chunked full-space prediction
# ----------------------------------------------------------------------
def _random_ensemble(n_features, k=5, seed=0):
    rng = np.random.default_rng(seed)
    networks = [
        FeedForwardNetwork(
            n_inputs=n_features,
            hidden_layers=(8,),
            rng=np.random.default_rng(int(rng.integers(1 << 30))),
            init_range=0.5,
        )
        for _ in range(k)
    ]
    scaler = TargetScaler().fit(np.array([0.2, 2.5]))
    return EnsemblePredictor(networks=networks, scaler=scaler)


@pytest.mark.parametrize("study_name", ["memory-system", "processor"])
def test_chunked_space_predict_matches_per_config(study_name):
    study = get_study(study_name)
    encoder = ParameterEncoder(study.space)
    predictor = _random_ensemble(encoder.n_features)

    matrix = encoder.encode_space()
    assert matrix.shape == (len(study.space), encoder.n_features)

    chunked = predictor.predict(matrix, chunk_size=1024)
    unchunked = predictor.predict(matrix, chunk_size=None)
    assert np.array_equal(chunked, unchunked)

    idx = np.random.default_rng(7).choice(len(study.space), 200, replace=False)
    per_config = np.array(
        [
            float(
                predictor.predict(
                    encoder.encode(study.space.config_at(int(i)))[None, :]
                )[0]
            )
            for i in idx
        ]
    )
    np.testing.assert_allclose(chunked[idx], per_config, rtol=1e-9, atol=1e-12)

    variance_chunked = predictor.prediction_variance(matrix, chunk_size=1024)
    variance_full = predictor.prediction_variance(matrix, chunk_size=None)
    assert np.array_equal(variance_chunked, variance_full)


def test_design_matrix_cached_immutable_and_row_consistent(tiny_space):
    first = design_matrix(tiny_space)
    second = design_matrix(tiny_space)
    assert first is second
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0] = 99.0

    encoder = ParameterEncoder(tiny_space)
    assert encoder.encode_space() is first
    sampled = [0, 5, len(tiny_space) - 1]
    rows = first[np.asarray(sampled, dtype=np.intp)]
    direct = encoder.encode_many(
        [tiny_space.config_at(i) for i in sampled]
    )
    assert np.array_equal(rows, direct)
    # gathered rows are fresh writable copies, never views of the cache
    assert rows.flags.writeable


def test_design_matrix_distinct_per_encoding(tiny_space):
    assert design_matrix(tiny_space, "rank") is not design_matrix(
        tiny_space, "value"
    )


# ----------------------------------------------------------------------
# epoch-cost regression: presentation weighting is hoisted out of the loop
# ----------------------------------------------------------------------
def test_presentation_probabilities_computed_once_per_fit(
    monkeypatch, fit_one_task
):
    cfg = TrainingConfig(
        hidden_layers=(4,),
        max_epochs=40,
        check_interval=10,
        patience=50,
        lr_decay=1.0,
        batch_size=8,
    )
    calls = {"n": 0}
    original = training_mod.presentation_probabilities

    def counting(*args, **kwargs):
        calls["n"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(training_mod, "presentation_probabilities", counting)
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 1, (24, 3))
    y = 0.5 + x.sum(axis=1)
    scaler = TargetScaler().fit(y)
    result = fit_one_task(cfg, x, y, x[:5], y[:5], scaler)
    assert result.history.epochs_run == cfg.max_epochs
    assert calls["n"] == 1


# ----------------------------------------------------------------------
# presentation draws: the cached-CDF sampler against Generator.choice
# ----------------------------------------------------------------------
def _advanced_rng(seed, attempt):
    """A fold attempt's generator after network init has drawn from it:
    ``default_rng(seed)`` for attempt 0, ``default_rng([seed, a])`` for
    restart ``a``."""
    rng = np.random.default_rng(seed if attempt == 0 else [seed, attempt])
    FeedForwardNetwork(n_inputs=4, hidden_layers=(16, 16), rng=rng)
    return rng


@given(
    n=st.integers(min_value=1, max_value=400),
    inverse=st.booleans(),
    hostile=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    attempt=st.integers(min_value=0, max_value=3),
)
@example(n=20, inverse=True, hostile=False, seed=17, attempt=0)
@example(n=45, inverse=True, hostile=True, seed=3, attempt=1)
@example(n=180, inverse=False, hostile=False, seed=7, attempt=0)
@example(n=181, inverse=True, hostile=False, seed=11, attempt=2)
@settings(max_examples=150, deadline=None)
def test_presentation_sampler_matches_generator_choice(
    n, inverse, hostile, seed, attempt
):
    """Draw for draw, values and dtype, the sampler equals
    ``rng.choice(n, size=n, p=p)`` and leaves the generator in the same
    state, for uniform and inverse-target probabilities (one near-zero
    target when ``hostile``) on attempt-0 and restart generators."""
    targets = np.random.default_rng(seed ^ 0x5EED).uniform(0.05, 5.0, n)
    if hostile:
        targets[0] = 1e-9
    p = training_mod.presentation_probabilities(targets, inverse)
    sampler = training_mod.PresentationSampler(p)
    ours = _advanced_rng(seed, attempt)
    theirs = _advanced_rng(seed, attempt)
    for _ in range(3):
        got = sampler.draw(ours)
        want = theirs.choice(n, size=n, p=p)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    assert ours.random() == theirs.random()


@given(
    n=st.integers(min_value=1, max_value=300),
    epochs=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    attempt=st.integers(min_value=0, max_value=3),
)
@example(n=20, epochs=10, seed=17, attempt=0)
@example(n=181, epochs=3, seed=11, attempt=2)
@settings(max_examples=100, deadline=None)
def test_presentation_block_equals_successive_draws(n, epochs, seed, attempt):
    """A block of ``epochs`` orders, drawn at once, equals that many
    single draws row for row in values and dtype, and leaves the
    generator in the same state: the fold trainer draws one
    early-stopping interval ahead with it."""
    targets = np.random.default_rng(seed ^ 0xB10C).uniform(0.05, 5.0, n)
    sampler = training_mod.PresentationSampler(
        training_mod.presentation_probabilities(targets)
    )
    ours = _advanced_rng(seed, attempt)
    theirs = _advanced_rng(seed, attempt)
    block = sampler.draw(ours, epochs)
    singles = [sampler.draw(theirs) for _ in range(epochs)]
    assert block.shape == (epochs, n)
    assert block.dtype == singles[0].dtype
    np.testing.assert_array_equal(block, np.stack(singles))
    assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("hidden_activation", ["sigmoid", "tanh"])
@pytest.mark.parametrize("output_activation", ["identity", "sigmoid"])
def test_forward_raw_never_writes_its_input(
    hidden_activation, output_activation
):
    """The in-place bias add and activation run on each layer's own
    matmul result: the caller's matrix, a chunk view of the shared
    read-only design matrix in prediction, is left untouched, and the
    outputs equal the allocating forward pass."""
    from repro.core.network import forward_raw

    network = FeedForwardNetwork(
        n_inputs=4,
        hidden_layers=(6, 5),
        n_outputs=2,
        hidden_activation=hidden_activation,
        output_activation=output_activation,
        rng=np.random.default_rng(8),
        init_range=0.5,
    )
    x = np.random.default_rng(9).uniform(-2.0, 2.0, (33, 4))
    before = x.copy()
    frozen = x.copy()
    frozen.setflags(write=False)
    got = forward_raw(network, x)
    np.testing.assert_array_equal(x, before)
    np.testing.assert_array_equal(forward_raw(network, frozen[3:20]), got[3:20])
    a = before
    for layer, w in enumerate(network.weights):
        activation = (
            network.output_activation if layer == network.n_layers - 1
            else network.hidden_activation
        )
        a = activation.forward(a @ w[1:] + w[0])
    np.testing.assert_array_equal(got, a)
    assert not np.shares_memory(got, x)
