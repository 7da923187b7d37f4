"""The fold-stacked training engine's bit-identity contract.

Two layers of guarantees are locked here:

* :class:`EnsembleTrainingKernel` — for any schedule of epochs,
  deactivations, weight restores and reseeds, every member's weight and
  velocity trajectory equals (``==``, not approximately) training that
  member alone through the reference :class:`TrainingKernel` with the
  same presentation orders;
* :class:`StackedEnsembleTrainer` through :class:`CrossValidationEnsemble`
  — a CV fit, scalar or multi-target, reproduces the per-fold reference
  (one :class:`RobustTrainer` fit per fold task) exactly: same networks,
  predictions, error estimate, telemetry, counters and quarantine
  accounting.  A one-task run, the path of :class:`MultiTaskNetwork`,
  reproduces one reference fit the same way.

The reference trainer lives in ``tests/reference_training.py``.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from tests.reference_training import (
    RobustTrainer,
    TrainingKernel,
    weight_health,
)

from repro.core import (
    CrossValidationEnsemble,
    EnsemblePredictor,
    ErrorEstimate,
    RunContext,
    fold_tasks,
    percentage_errors,
)
from repro.core.encoding import TargetScaler
from repro.core.kernels import EnsembleTrainingKernel
from repro.core.network import FeedForwardNetwork, TrainingDiverged
from repro.core.training import (
    FoldResult,
    StackedEnsembleTrainer,
    TargetRecipe,
    TrainingConfig,
    target_columns,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import RunTelemetry

N_FEATURES = 5
N_SAMPLES = 40


def make_problem(rng, n=250):
    x = rng.random((n, 3))
    y = 0.5 + 0.8 * x[:, 0] + 0.4 * x[:, 1] * x[:, 2]
    return x, y


def _member(seed, hidden, activation, n_outputs, output="identity"):
    """One member's (network, x, y); same seed -> bit-identical twin."""
    data_rng = np.random.default_rng(1000 + seed)
    x = data_rng.random((N_SAMPLES, N_FEATURES))
    y = data_rng.uniform(0.1, 0.9, (N_SAMPLES, n_outputs))
    network = FeedForwardNetwork(
        n_inputs=N_FEATURES,
        hidden_layers=hidden,
        n_outputs=n_outputs,
        hidden_activation=activation,
        output_activation=output,
        rng=np.random.default_rng(seed),
    )
    return network, x, y


def _orders(seed, epochs):
    rng = np.random.default_rng(2000 + seed)
    return [rng.permutation(N_SAMPLES) for _ in range(epochs)]


class TestEnsembleTrainingKernel:
    @pytest.mark.parametrize(
        "hidden,activation,n_outputs,batch_size,output",
        [
            ((6,), "sigmoid", 1, 7, "identity"),
            ((6,), "tanh", 1, 1, "identity"),
            ((8, 5), "sigmoid", 3, 32, "identity"),
            ((8, 5), "tanh", 3, 8, "identity"),
            # a non-identity output keeps its derivative multiply in the
            # epoch; 40 presentations in batches of 7 end on a batch of 5
            ((8, 5), "tanh", 2, 7, "sigmoid"),
        ],
        ids=[
            "hidden0-sigmoid-1-7",
            "hidden1-tanh-1-1",
            "hidden2-sigmoid-3-32",
            "hidden3-tanh-3-8",
            "hidden4-tanh-2-7-sigmoid_output",
        ],
    )
    def test_trajectories_match_solo_kernel(
        self, hidden, activation, n_outputs, batch_size, output
    ):
        epochs, members, lr, momentum = 6, 3, 0.05, 0.9
        stacked = EnsembleTrainingKernel(
            *zip(*[
                _member(i, hidden, activation, n_outputs, output)
                for i in range(members)
            ])
        )
        for epoch in range(epochs):
            stacked.run_epoch(
                np.stack([_orders(i, epochs)[epoch] for i in range(members)]),
                batch_size,
                np.full(members, lr),
                momentum,
            )
        for i in range(members):
            network, x, y = _member(i, hidden, activation, n_outputs, output)
            solo = TrainingKernel(network, x, y)
            for order in _orders(i, epochs):
                solo.run_epoch(
                    order, batch_size, learning_rate=lr, momentum=momentum
                )
            for got, want in zip(stacked.get_member_weights(i), network.weights):
                np.testing.assert_array_equal(got, want)
            for got, want in zip(stacked.velocity, solo.velocity):
                np.testing.assert_array_equal(got[i], want)

    def test_deactivation_freezes_and_schedule_still_matches(self):
        """Members stopping at different epochs — the early-stop mask —
        leave each survivor's trajectory exactly per-fold."""
        hidden, activation = (6,), "sigmoid"
        stop_at = {0: 2, 1: 4, 2: 6}  # member -> epochs it trains
        stacked = EnsembleTrainingKernel(
            *zip(*[_member(i, hidden, activation, 1) for i in range(3)])
        )
        for epoch in range(6):
            active = stacked.active_members
            stacked.run_epoch(
                np.stack([_orders(i, 6)[epoch] for i in active]),
                7,
                np.full(len(active), 0.05),
                0.9,
            )
            for i in list(active):
                if epoch + 1 >= stop_at[i]:
                    stacked.deactivate(i)
        assert len(stacked.active_members) == 0
        for i, epochs in stop_at.items():
            network, x, y = _member(i, hidden, activation, 1)
            solo = TrainingKernel(network, x, y)
            for order in _orders(i, 6)[:epochs]:
                solo.run_epoch(order, 7, learning_rate=0.05, momentum=0.9)
            for got, want in zip(stacked.get_member_weights(i), network.weights):
                np.testing.assert_array_equal(got, want)

    def test_reinit_member_matches_fresh_start(self):
        """The divergence-restart path: one member reseeds mid-run
        without perturbing its siblings."""
        hidden, activation = (6,), "sigmoid"
        stacked = EnsembleTrainingKernel(
            *zip(*[_member(i, hidden, activation, 1) for i in range(3)])
        )
        for epoch in range(3):
            stacked.run_epoch(
                np.stack([_orders(i, 8)[epoch] for i in range(3)]),
                7,
                np.full(3, 0.05),
                0.9,
            )
        replacement = FeedForwardNetwork(
            n_inputs=N_FEATURES,
            hidden_layers=hidden,
            hidden_activation=activation,
            rng=np.random.default_rng(77),
        )
        stacked.reinit_member(1, replacement)
        for epoch in range(3, 8):
            stacked.run_epoch(
                np.stack([_orders(i, 8)[epoch] for i in range(3)]),
                7,
                np.full(3, 0.05),
                0.9,
            )
        # member 1 == fresh seed-77 net trained on epochs 3..7 only
        network = FeedForwardNetwork(
            n_inputs=N_FEATURES,
            hidden_layers=hidden,
            hidden_activation=activation,
            rng=np.random.default_rng(77),
        )
        _, x, y = _member(1, hidden, activation, 1)
        solo = TrainingKernel(network, x, y)
        for order in _orders(1, 8)[3:]:
            solo.run_epoch(order, 7, learning_rate=0.05, momentum=0.9)
        for got, want in zip(stacked.get_member_weights(1), network.weights):
            np.testing.assert_array_equal(got, want)
        # member 0 == uninterrupted 8-epoch solo run
        network0, x0, y0 = _member(0, hidden, activation, 1)
        solo0 = TrainingKernel(network0, x0, y0)
        for order in _orders(0, 8):
            solo0.run_epoch(order, 7, learning_rate=0.05, momentum=0.9)
        for got, want in zip(stacked.get_member_weights(0), network0.weights):
            np.testing.assert_array_equal(got, want)

    def test_predict_member_matches_network(self):
        """The batched check's outputs equal each member's own
        ``predict``, for members in any order, one stacked pass per
        early-stopping-set length (the ``n=123, k=10`` layout: 12- and
        13-row sets), after a deactivation moved the rows."""
        members = 4
        stacked = EnsembleTrainingKernel(
            *zip(*[_member(i, (6,), "sigmoid", 1) for i in range(members)])
        )
        stacked.run_epoch(
            np.stack([_orders(i, 1)[0] for i in range(members)]),
            7,
            np.full(members, 0.05),
            0.9,
        )
        stacked.deactivate(1)
        probe_rng = np.random.default_rng(5)
        probes = [
            probe_rng.random((rows, N_FEATURES)) for rows in (12, 13, 12, 13)
        ]
        for due in ([2, 0], [3, 1]):
            outputs = stacked.predict_members(
                due, np.stack([probes[i] for i in due])
            )
            assert outputs.shape == (2, len(probes[due[0]]), 1)
            healths = stacked.member_health(due)
            for i, health, got in zip(due, healths, outputs):
                network = stacked.sync_member(i)
                assert health == weight_health(network)
                np.testing.assert_array_equal(got, network.predict(probes[i]))

    def test_members_finite_flags_only_broken_member(self):
        stacked = EnsembleTrainingKernel(
            *zip(*[_member(i, (6,), "sigmoid", 1) for i in range(4)])
        )
        assert stacked.members_finite().all()
        for member, layer, value in ((1, 0, np.nan), (3, 1, -np.inf)):
            bad = stacked.get_member_weights(member)
            bad[layer][2, 0] = value
            stacked.set_member_weights(member, bad)
        finite = stacked.members_finite()
        np.testing.assert_array_equal(finite, [True, False, True, False])
        for member in range(4):
            network = stacked.sync_member(member)
            assert finite[member] == all(
                np.isfinite(w).all() for w in network.weights
            )

    def test_member_weight_health_matches_network(self):
        """The batched check's weight health equals
        the reference ``weight_health`` member by member — healthy,
        saturated, NaN and exploded (``inf``) — and only the first two
        pass the check's ``ok`` gate."""
        stacked = EnsembleTrainingKernel(
            *zip(*[_member(i, (8, 5), "tanh", 1) for i in range(5)])
        )
        edits = {
            1: [(0, (1, 2), 7.5)],  # saturated but finite
            # NaN hides its layer's maximum, as Python's max() does
            2: [(0, (3, 1), np.nan), (0, (2, 2), 50.0), (1, (1, 1), 9.0)],
            3: [(1, (0, 0), np.inf), (2, (1, 0), -5.0)],  # exploded
            4: [(2, (0, 0), 2e6)],  # finite, above max_weight
        }
        for member, changes in edits.items():
            weights = stacked.get_member_weights(member)
            for layer, at, value in changes:
                weights[layer][at] = value
            stacked.set_member_weights(member, weights)
        members = list(range(5))
        healths = stacked.member_health(members)
        for member, got in zip(members, healths):
            network = stacked.sync_member(member)
            want = weight_health(network)
            assert (got.finite, got.max_abs, got.saturation) == (
                want.finite,
                want.max_abs,
                want.saturation,
            )
        assert healths[1].saturation > 0
        assert not healths[2].finite and healths[2].max_abs == 9.0
        assert not healths[3].finite and healths[3].max_abs == np.inf
        assert healths[4].finite and healths[4].max_abs == 2e6
        assert [health.ok(1e6) for health in healths] == [
            True, True, False, False, False
        ]

    def test_ragged_training_sets_rejected(self):
        (net_a, x_a, y_a), (net_b, x_b, y_b) = (
            _member(0, (6,), "sigmoid", 1),
            _member(1, (6,), "sigmoid", 1),
        )
        with pytest.raises(ValueError, match="group ragged folds by size"):
            EnsembleTrainingKernel(
                [net_a, net_b], [x_a, x_b[:-1]], [y_a, y_b[:-1]]
            )

    def test_mismatched_architectures_rejected(self):
        net_a, x, y = _member(0, (6,), "sigmoid", 1)
        net_b, _, _ = _member(1, (8,), "sigmoid", 1)
        with pytest.raises(ValueError, match="share one architecture"):
            EnsembleTrainingKernel([net_a, net_b], [x, x], [y, y])
        net_c, _, _ = _member(2, (6,), "tanh", 1)
        with pytest.raises(ValueError, match="share one activation pair"):
            EnsembleTrainingKernel([net_a, net_c], [x, x], [y, y])


def reference_folds(x, y, tasks, scalers, training):
    """The per-fold reference: one :class:`RobustTrainer` fit per fold
    task, each recording into its own telemetry and metrics."""
    truths = target_columns(y)
    folds = []
    for (train_idx, es_idx, test_idx, seed), scaler in zip(tasks, scalers):
        telemetry = RunTelemetry()
        metrics = MetricsRegistry(enabled=True)
        trainer = RobustTrainer(
            training, seed=seed, telemetry=telemetry, metrics=metrics
        )
        events = telemetry.events
        try:
            network, history = trainer.fit(
                x[train_idx], y[train_idx], x[es_idx], y[es_idx], scaler
            )
        except TrainingDiverged as exc:
            folds.append(
                FoldResult(
                    None, np.empty((0, truths.shape[1])), 0.0, 0,
                    [(e.name, dict(e.payload)) for e in events], metrics,
                    f"{exc.reason}: {exc}",
                )
            )
            continue
        predictions = target_columns(
            scaler.inverse_transform(network.predict(x[test_idx]))
        )
        errors = np.column_stack(
            [
                percentage_errors(predictions[:, t], truths[test_idx, t])
                for t in range(truths.shape[1])
            ]
        )
        folds.append(
            FoldResult(
                network, errors, 0.0, history.epochs_run,
                [(e.name, dict(e.payload)) for e in events], metrics,
                history=history,
            )
        )
    return folds


def reference_fit(x, y, k, training, seed, target_names=()):
    """A cross-validation fit through the per-fold reference.

    Same fold tasks, scalers, ensemble and pooled estimate as
    :class:`CrossValidationEnsemble`, with each fold trained alone; the
    folds' observability is replayed in fold order.  Returns
    ``(predictor, estimate, telemetry, metrics, folds)``.
    """
    tasks = fold_tasks(len(x), k, np.random.default_rng(seed))
    recipe = TargetRecipe.of(y)
    scalers = recipe.fold_scalers(y, tasks)
    folds = reference_folds(x, y, tasks, scalers, training)
    metrics = MetricsRegistry(enabled=True)
    telemetry = RunTelemetry(metrics=metrics)
    for fold in folds:
        fold.replay(telemetry, metrics)
    healthy = [i for i, fold in enumerate(folds) if not fold.diverged]
    for i, fold in enumerate(folds):
        if fold.diverged:
            metrics.inc("crossval.quarantined")
            telemetry.emit(
                "crossval.quarantine", fold=i, error=fold.error,
                n_test=len(tasks[i][2]),
            )
    predictor = EnsemblePredictor(
        [folds[i].network for i in healthy],
        [scalers[i] for i in healthy] if recipe.per_fold_scaling
        else scalers[0],
        target_names,
    )
    columns = [
        ErrorEstimate.from_fold_errors(
            [folds[i].test_errors[:, t] for i in healthy],
            n_training=len(x), n_folds=k,
        )
        for t in range(recipe.n_targets)
    ]
    estimate = columns[0]
    if target_names:
        estimate = dataclasses.replace(
            estimate, per_target=tuple(zip(target_names, columns))
        )
    return predictor, estimate, telemetry, metrics, folds


class TestBatchedChecks:
    """The group's batched early-stopping check against the per-fold
    reference: six folds share one training-set length (one kernel)
    but hold early-stopping sets of 6 and 7 rows, and three of them
    check healthy while the others meet a non-finite output (a NaN row
    only their early-stopping set holds), a dead network (one input
    repeated) and an exploding weight (a scaler whose narrow span blows
    the normalized targets up), side by side in one stacked pass."""

    def test_matches_reference_fold_by_fold(self):
        rng = np.random.default_rng(11)
        x = rng.random((60, 3))
        y = 0.5 + 0.8 * x[:, 0] + 0.4 * x[:, 1] * x[:, 2]
        nan_row, twins = 60, [61, 62]
        x = np.vstack([x, np.full((1, 3), np.nan), x[:1], x[:1]])
        y = np.concatenate([y, [1.0], [y[0], 1.1 * y[0]]])
        train, test = np.arange(40), np.arange(54, 60)
        es_sets = [
            range(40, 46),
            range(40, 47),
            [40, 41, nan_row, 42, 43, 44],
            twins * 3,
            range(46, 52),
            range(47, 54),
        ]
        tasks = [
            (train, np.asarray(es), test, seed)
            for seed, es in enumerate(es_sets, start=1)
        ]
        shared = TargetScaler().fit(y[:60])
        narrow = TargetScaler().fit(np.array([0.9, 0.95]))
        scalers = [shared] * 4 + [narrow, shared]
        training = TrainingConfig(
            hidden_layers=(8,),
            max_epochs=80,
            patience=6,
            check_interval=10,
            max_restarts=1,
            dead_checks=2,
            max_weight=20.0,
        )
        stacked = StackedEnsembleTrainer(training).fit_folds(
            x, y, tasks, scalers, capture_telemetry=True, capture_metrics=True
        )
        reference = reference_folds(x, y, tasks, scalers, training)
        reasons = []
        for got, want in zip(stacked, reference):
            assert got.events == want.events
            assert got.error == want.error
            assert got.history == want.history
            for counter in ("train.epochs", "train.diverged", "train.restarts"):
                assert got.metrics.counter(counter) == (
                    want.metrics.counter(counter)
                )
            names = [name for name, _ in got.events]
            assert names.count("train.restart") == names.count(
                "train.diverged"
            ) - (got.error is not None)
            reasons.append(
                [p["reason"] for n, p in got.events if n == "train.diverged"]
            )
        checks = [
            [p["es_error"] for n, p in fold.events if n == "train.check"]
            for fold in stacked
        ]
        for fold, errors in zip(stacked, checks):
            if fold.history is not None:
                assert fold.history.es_errors == errors
        assert reasons == [
            [],
            [],
            ["non-finite output"] * 2,
            ["dead network"] * 2,
            ["weight explosion"] * 2,
            [],
        ]
        assert [fold.diverged for fold in stacked] == [
            False, False, True, True, True, False
        ]


    def test_zero_truth_fails_at_first_check_like_reference(
        self, fast_training
    ):
        """A zero early-stopping truth has no percentage error: the
        batched check raises the reference's ``ValueError`` instead of
        scoring the fold."""
        x, y = make_problem(np.random.default_rng(4), n=40)
        y = y.copy()
        y[30] = 0.0
        tasks = [(np.arange(30), np.arange(30, 35), np.arange(35, 40), 2)]
        scalers = [TargetScaler().fit(y[:30])]
        with pytest.raises(ValueError, match="zero truths"):
            reference_folds(x, y, tasks, scalers, fast_training)
        with pytest.raises(ValueError, match="zero truths"):
            StackedEnsembleTrainer(fast_training).fit_folds(
                x, y, tasks, scalers
            )


#: a recipe that lets near-zero targets diverge within a few checks
HOSTILE_TRAINING = TrainingConfig(
    hidden_layers=(8,),
    max_epochs=60,
    patience=6,
    check_interval=10,
    batch_size=32,
    max_restarts=2,
)


def width_problem(width, hostile, n=120):
    """``make_problem`` with ``width`` target columns; ``hostile`` puts
    a near-zero value into the primary target (skewed presentation
    sampling, so some folds diverge, restart and get quarantined)."""
    x, y = make_problem(np.random.default_rng(5), n=n)
    if width == 3:
        y = np.column_stack([y, 0.1 + 0.5 * x[:, 1], 0.05 + 0.3 * x[:, 0]])
    if hostile:
        y = y.copy()
        target_columns(y)[0, 0] = 1e-9
    return x, y


class TestEngineParity:
    """The fold-stacked CV fit is bit-identical to the per-fold
    reference: one :class:`RobustTrainer` fit per fold task."""

    @staticmethod
    def _fit(engine, n=120, k=4, training=None, seed=7, x=None, y=None,
             target_names=()):
        """``(predictor, estimate, telemetry, metrics)`` of one fit:
        ``"stacked"`` through :class:`CrossValidationEnsemble`,
        ``"perfold"`` through :func:`reference_fit`."""
        if x is None:
            x, y = make_problem(np.random.default_rng(5), n=n)
        training = training or TrainingConfig()
        if engine == "perfold":
            return reference_fit(x, y, k, training, seed, target_names)[:4]
        metrics = MetricsRegistry(enabled=True)
        telemetry = RunTelemetry(metrics=metrics)
        context = RunContext(
            rng=np.random.default_rng(seed),
            telemetry=telemetry,
            metrics=metrics,
        )
        ensemble = CrossValidationEnsemble(
            k=k, training=training, context=context,
            target_names=target_names,
        )
        estimate = ensemble.fit(x, y)
        return ensemble.predictor, estimate, telemetry, metrics

    @pytest.mark.parametrize("hostile", [False, True], ids=["healthy", "hostile"])
    @pytest.mark.parametrize("width", [1, 3])
    def test_stacked_fit_matches_reference(self, width, hostile, fast_training):
        """Fold by fold and end to end, at output width 1 and 3, on
        healthy data and on data whose folds diverge: same networks,
        histories, test errors, epochs, quarantine records, events and
        counters; hence the same ensemble and estimate.  Each task also
        runs alone in MultiTaskNetwork's layout — one task, every row
        training or early-stopping, a scaler per column fit on the
        training rows — and equals one reference fit the same way."""
        x, y = width_problem(width, hostile)
        training = HOSTILE_TRAINING if hostile else fast_training
        names = ("ipc", "hit_rate", "energy_nj") if width == 3 else ()
        tasks = fold_tasks(len(x), 10, np.random.default_rng(3))
        scalers = TargetRecipe.of(y).fold_scalers(y, tasks)
        single = [
            (np.concatenate([train_idx, test_idx]), es_idx, np.arange(0), seed)
            for train_idx, es_idx, test_idx, seed in tasks
        ]
        runs = [(tasks, scalers)] + [
            ([task], [TargetScaler().fit(target_columns(y)[task[0]])])
            for task in single
        ]
        diverged = []
        for run_tasks, run_scalers in runs:
            stacked = StackedEnsembleTrainer(training).fit_folds(
                x, y, run_tasks, run_scalers,
                capture_telemetry=True, capture_metrics=True,
            )
            reference = reference_folds(x, y, run_tasks, run_scalers, training)
            assert len(stacked) == len(reference)
            for got, want in zip(stacked, reference):
                assert got.error == want.error
                assert got.epochs == want.epochs
                assert got.history == want.history
                assert got.events == want.events
                np.testing.assert_array_equal(got.test_errors, want.test_errors)
                for counter in (
                    "train.epochs", "train.diverged", "train.restarts"
                ):
                    assert got.metrics.counter(counter) == (
                        want.metrics.counter(counter)
                    )
                if want.network is None:
                    assert got.network is None
                else:
                    for got_w, want_w in zip(
                        got.network.weights, want.network.weights
                    ):
                        np.testing.assert_array_equal(got_w, want_w)
            diverged.append(sum(fold.diverged for fold in reference))
        quarantined = diverged[0]
        assert (quarantined > 0) == hostile
        assert (sum(diverged[1:]) > 0) == hostile

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got_pred, got_est, got_tel, got_met = self._fit(
                "stacked", k=10, training=training, seed=3, x=x, y=y,
                target_names=names,
            )
        want_pred, want_est, want_tel, want_met = self._fit(
            "perfold", k=10, training=training, seed=3, x=x, y=y,
            target_names=names,
        )
        assert got_est == want_est
        np.testing.assert_array_equal(
            got_pred.predict_all(x), want_pred.predict_all(x)
        )
        for name in (
            "train.check", "train.stop", "train.diverged", "train.restart",
            "crossval.quarantine",
        ):
            assert [e.payload for e in got_tel.events_named(name)] == [
                e.payload for e in want_tel.events_named(name)
            ]
        assert got_met.counter("crossval.quarantined") == quarantined
        if hostile:
            assert got_met.counter("train.restarts") > 0

    @pytest.mark.parametrize(
        "width, patience, tail",
        [
            pytest.param(1, 40, 6, id="1"),
            pytest.param(3, 40, 40, id="3"),
            pytest.param(1, 5, 3, id="1-patience5"),
            pytest.param(3, 5, 5, id="3-patience5"),
        ],
    )
    def test_decaying_stop_rule_matches_reference(self, width, patience, tail):
        """Configs that reach the decaying-fit stop rule (``decay_after``
        3).  With ``patience`` 40 a width-1 fit stops at its second
        fruitless plateau decay (6 checks); with ``patience`` 5 its
        patience reaches only the first decay, so it stops there (3
        checks).  A width-3 fit never decays and waits out ``patience``.
        Both engines stop every fold on the same epoch, with the same
        events and counters."""
        training = TrainingConfig(
            hidden_layers=(8,), max_epochs=2000, check_interval=1,
            decay_after=3, patience=patience,
        )
        x, y = width_problem(width, hostile=False)
        names = ("ipc", "hit_rate", "energy_nj") if width == 3 else ()
        got_pred, got_est, got_tel, got_met = self._fit(
            "stacked", k=10, training=training, seed=3, x=x, y=y,
            target_names=names,
        )
        want_pred, want_est, want_tel, want_met = self._fit(
            "perfold", k=10, training=training, seed=3, x=x, y=y,
            target_names=names,
        )
        assert got_est == want_est
        np.testing.assert_array_equal(
            got_pred.predict_all(x), want_pred.predict_all(x)
        )
        for name in ("train.check", "train.stop", "train.restart"):
            assert [e.payload for e in got_tel.events_named(name)] == [
                e.payload for e in want_tel.events_named(name)
            ]
        for counter in ("train.epochs", "train.diverged", "train.restarts"):
            assert got_met.counter(counter) == want_met.counter(counter)
        stops = [e.payload for e in got_tel.events_named("train.stop")]
        assert len(stops) == 10
        assert all(stop["stopped_early"] for stop in stops)
        assert {s["epochs_run"] - s["best_epoch"] for s in stops} == {tail}

    # n=122 with k=4 makes ragged folds (sizes 31/31/30/30): the
    # stacked engine must split them into same-length kernel groups
    @pytest.mark.parametrize("n,k", [(120, 4), (122, 4), (123, 10)])
    def test_predictions_and_estimate_bit_identical(
        self, n, k, fast_training
    ):
        stacked, est_s, _, _ = self._fit(
            "stacked", n=n, k=k, training=fast_training
        )
        perfold, est_p, _, _ = self._fit(
            "perfold", n=n, k=k, training=fast_training
        )
        x, _ = make_problem(np.random.default_rng(5), n=n)
        np.testing.assert_array_equal(
            stacked.predict(x[:16]), perfold.predict(x[:16])
        )
        assert est_s == est_p

    def test_event_streams_identical(self, fast_training):
        _, _, stacked, _ = self._fit("stacked", training=fast_training)
        _, _, perfold, _ = self._fit("perfold", training=fast_training)

        def training_events(telemetry):
            return [
                (e.name, e.payload) for e in telemetry.events
                if e.name.startswith("train.")
            ]

        assert training_events(stacked) == training_events(perfold)
        assert training_events(stacked)

    def test_counters_identical(self, fast_training):
        _, _, _, stacked = self._fit("stacked", training=fast_training)
        _, _, _, perfold = self._fit("perfold", training=fast_training)
        assert stacked.counter("train.epochs") > 0
        for counter in ("train.epochs", "train.diverged", "train.restarts"):
            assert stacked.counter(counter) == perfold.counter(counter)
        assert stacked.counter("crossval.epochs") == stacked.counter(
            "train.epochs"
        )

    def test_per_fold_early_stop_epochs_match(self, fast_training):
        """Folds stop at different epochs (the per-fold active mask),
        and each fold's epoch count equals the reference's."""
        _, _, stacked, _ = self._fit("stacked", training=fast_training)
        _, _, perfold, _ = self._fit("perfold", training=fast_training)
        epochs_s = [
            e.payload["epochs_run"] for e in stacked.events_named("train.stop")
        ]
        epochs_p = [
            e.payload["epochs_run"] for e in perfold.events_named("train.stop")
        ]
        assert epochs_s == epochs_p
        assert len(set(epochs_s)) > 1, (
            "degenerate fixture: every fold stopped at the same epoch, "
            "so the per-fold mask is not exercised"
        )

    @pytest.mark.parametrize("study", ["memory-system", "processor"])
    def test_study_design_matrix_parity(self, study, fast_training):
        """Equal-seed fits on real study design matrices are identical
        through the stacked engine and the reference."""
        from repro.core.encoding import design_matrix
        from repro.experiments.studies import get_study

        matrix = design_matrix(get_study(study).space)
        idx = np.random.default_rng(11).choice(
            len(matrix), size=103, replace=False
        )
        x = np.array(matrix[idx])
        y = 0.5 + 1.5 * np.abs(np.sin(x.sum(axis=1))) + 0.1

        pred_s, est_s, _, _ = self._fit(
            "stacked", k=5, training=fast_training, x=x, y=y
        )
        pred_p, est_p, _, _ = self._fit(
            "perfold", k=5, training=fast_training, x=x, y=y
        )
        assert est_s == est_p
        np.testing.assert_array_equal(
            pred_s.predict(matrix[:64]), pred_p.predict(matrix[:64])
        )

    def test_quarantine_parity(self):
        x, y = width_problem(1, hostile=True)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            _, est_s, tel_s, met_s = self._fit(
                "stacked", k=10, training=HOSTILE_TRAINING, seed=3, x=x, y=y
            )
        _, est_p, tel_p, met_p = self._fit(
            "perfold", k=10, training=HOSTILE_TRAINING, seed=3, x=x, y=y
        )
        assert est_s.n_folds_used < est_s.n_folds
        assert est_s == est_p
        for counter in (
            "train.diverged",
            "train.restarts",
            "crossval.quarantined",
        ):
            assert met_s.counter(counter) == met_p.counter(counter) > 0
        for name in ("train.diverged", "train.restart", "crossval.quarantine"):
            assert [e.payload for e in tel_s.events_named(name)] == [
                e.payload for e in tel_p.events_named(name)
            ]
