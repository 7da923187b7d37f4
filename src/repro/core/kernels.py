"""Vectorized training and inference kernels (the modeling hot paths).

Two loops dominate the cost of the paper's procedure once simulation is
cheap: the per-epoch mini-batch backpropagation inside
:class:`~repro.core.training.StackedEnsembleTrainer`, and
full-design-space prediction (20,736-23,040 points per benchmark) inside
:class:`~repro.core.ensemble.EnsemblePredictor`.  This module implements
both as fused numpy kernels:

* :class:`EnsembleTrainingKernel` stacks the weight and velocity
  matrices of many identically shaped member networks — the k
  cross-validation folds of an ensemble, or the one network of a single
  fit — into one set of 3-D tensors ``(members, fan_in + 1, fan_out)``
  per layer, and runs a whole epoch of presentation-sampled mini-batch
  gradient descent with momentum for every *active* member as one
  batched matmul per layer per batch.  The epoch's presentations are
  gathered with a single fancy-index, and the per-batch finite-guards
  of :meth:`FeedForwardNetwork.gradients` are hoisted to one weight
  finiteness check per epoch — non-finite values cannot "un-diverge"
  under gradient descent with momentum, so checking after the epoch
  detects the failure in the same epoch per-batch guards would.  Early
  stopping, restarts and quarantine become per-member active masks: a
  stopped or diverged member's slice is excluded from the batched epoch
  (frozen in place), and a restart reseeds only that slice.
* :func:`forward_raw` is the inference kernel under
  :class:`~repro.core.ensemble.EnsemblePredictor`'s chunked prediction
  loop: one network's outputs on a pre-validated point chunk, a handful
  of matmuls with no per-call checks.

The kernels compute *exactly* the same floating-point operations, in the
same order, as the per-network paths they replace: with any
``batch_size`` (including 1, the paper's literal per-sample
presentation) each member's weight trajectory is bit-identical to
training it alone, which ``tests/test_kernels.py`` and
``tests/test_ensemble_kernel.py`` lock in against the single-network
reference in ``tests/reference_training.py``.  This relies on numpy
evaluating an ``(m, a, b) @ (m, b, c)`` matmul as the same BLAS GEMM per
2-D slice it would run for one member alone, and on row-sum reductions
over the batch axis preserving the 2-D accumulation order — both
asserted per-op by the tests.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .network import (
    SATURATION_THRESHOLD,
    FeedForwardNetwork,
    TrainingDiverged,
    WeightHealth,
)

#: rows per chunk for batched full-space prediction; large enough that
#: BLAS dominates, small enough that the (k, chunk) member block and the
#: per-layer activations stay cache- and memory-friendly
DEFAULT_PREDICT_CHUNK = 8192


class EnsembleTrainingKernel:
    """Fold-stacked SGD+momentum epochs over many same-shape networks.

    Stacks the weight and velocity matrices of ``m`` identically shaped
    member networks into one 3-D tensor ``(m, fan_in + 1, fan_out)``
    per layer, together with each member's own training set, and runs
    whole epochs for every *active* member as batched matmuls: one
    ``(m, batch, fan_in) @ (m, fan_in, fan_out)`` forward GEMM stack
    per layer, the mirrored backward GEMMs, then the Equation 3.2
    momentum update with a per-member learning rate.

    Members are the unit of control, not the unit of work:

    * :meth:`deactivate` freezes a member's slice (early stop, or
      quarantine after restarts are exhausted) — it simply stops being
      gathered into the batched epoch, so its weights stay exactly
      where the caller left them;
    * :meth:`reinit_member` reseeds one slice from a freshly
      initialized network (the divergence-restart path) without
      touching any other member;
    * per-member reads (:meth:`member_weight_health`,
      :meth:`predict_member`, :meth:`get_member_weights`) and writes
      (:meth:`set_member_weights`, :meth:`reset_member_velocity`)
      mirror the corresponding :class:`FeedForwardNetwork` operations
      bit-for-bit, so the early-stopping bookkeeping built on top of
      them reproduces per-fold trajectories exactly.

    Every member must share one architecture and one training-set
    length; callers with ragged fold sizes (``n % k != 0``) group folds
    by size and run one kernel per group (see
    :class:`~repro.core.training.StackedEnsembleTrainer`).

    Bit-identity contract: for any schedule of epochs, activation
    changes, weight restores and reseeds, each member's weight and
    velocity trajectory is bit-identical to training that member alone
    with the same presentation orders — ``tests/test_ensemble_kernel.py``
    locks this per op against the single-network reference kernel and
    end-to-end through
    :class:`~repro.core.crossval.CrossValidationEnsemble`.
    """

    def __init__(
        self,
        networks: Sequence[FeedForwardNetwork],
        xs: Sequence[np.ndarray],
        ys: Sequence[np.ndarray],
    ):
        if not networks:
            raise ValueError("need at least one member network")
        first = networks[0]
        shapes = [w.shape for w in first.weights]
        for network in networks:
            if [w.shape for w in network.weights] != shapes:
                raise ValueError(
                    "all member networks must share one architecture"
                )
            if (
                network.hidden_activation.name
                != first.hidden_activation.name
                or network.output_activation.name
                != first.output_activation.name
            ):
                raise ValueError(
                    "all member networks must share one activation pair"
                )
        if len(xs) != len(networks) or len(ys) != len(networks):
            raise ValueError("need one (x, y) dataset per member")
        xs = [np.asarray(x, dtype=np.float64) for x in xs]
        ys = [np.atleast_2d(np.asarray(y, dtype=np.float64)) for y in ys]
        n = len(xs[0])
        for x, y in zip(xs, ys):
            # validated once per fit, not once per batch
            if x.ndim != 2:
                raise ValueError(f"x must be 2-D, got shape {x.shape}")
            if x.shape[1] != first.n_inputs:
                raise ValueError(
                    f"expected {first.n_inputs} input features, "
                    f"got {x.shape[1]}"
                )
            if y.shape[1] != first.n_outputs:
                raise ValueError(
                    f"expected {first.n_outputs} targets, got {y.shape[1]}"
                )
            if len(x) != len(y):
                raise ValueError("x and y must have the same number of rows")
            if len(x) != n:
                raise ValueError(
                    "stacked members must share one training-set length; "
                    f"got {len(x)} and {n} (group ragged folds by size)"
                )
        self.networks: List[FeedForwardNetwork] = list(networks)
        self.n_members = len(networks)
        self.n_inputs = first.n_inputs
        self.n_outputs = first.n_outputs
        self.n_samples = n
        # (m, n, F) / (m, n, O): each member's own dataset, stacked
        self.x = np.stack(xs)
        self.y = np.stack(ys)
        # one (m, fan_in + 1, fan_out) tensor per layer; row 0 of the
        # fan_in axis is the bias, exactly as in FeedForwardNetwork
        self.weights: List[np.ndarray] = [
            np.stack([network.weights[layer] for network in networks])
            for layer in range(len(shapes))
        ]
        self.velocity: List[np.ndarray] = [
            np.stack([network._velocity[layer] for network in networks])
            for layer in range(len(shapes))
        ]
        self._active = np.ones(self.n_members, dtype=bool)
        self._hidden_forward = first.hidden_activation.forward
        self._hidden_deriv = first.hidden_activation.derivative_from_output
        self._output_forward = first.output_activation.forward
        self._output_deriv = first.output_activation.derivative_from_output

    # -- active-mask control -------------------------------------------
    @property
    def active_members(self) -> np.ndarray:
        """Indices of members the next epoch will train, ascending."""
        return np.flatnonzero(self._active)

    def deactivate(self, member: int) -> None:
        """Freeze ``member``: exclude its slice from batched epochs."""
        self._active[member] = False

    # -- per-member views and writes -----------------------------------
    def get_member_weights(self, member: int) -> List[np.ndarray]:
        """Deep copy of one member's weights (early-stopping snapshot);
        mirrors :meth:`FeedForwardNetwork.get_weights`."""
        return [w[member].copy() for w in self.weights]

    def set_member_weights(
        self, member: int, weights: Sequence[np.ndarray]
    ) -> None:
        """Restore one member's weights from :meth:`get_member_weights`;
        mirrors :meth:`FeedForwardNetwork.set_weights`."""
        if len(weights) != len(self.weights):
            raise ValueError(
                f"expected {len(self.weights)} weight matrices, "
                f"got {len(weights)}"
            )
        for own, new in zip(self.weights, weights):
            if own[member].shape != new.shape:
                raise ValueError(
                    f"weight shape mismatch: {own[member].shape} vs {new.shape}"
                )
            own[member] = new

    def reset_member_velocity(self, member: int) -> None:
        """Zero one member's momentum (used after weight restores);
        mirrors :meth:`FeedForwardNetwork.reset_momentum`."""
        for velocity in self.velocity:
            velocity[member] = 0.0

    def reinit_member(
        self, member: int, network: FeedForwardNetwork
    ) -> None:
        """Reseed one slice from a freshly initialized ``network``.

        The divergence-restart path: only this member's weights,
        velocity and backing network are replaced; every other slice is
        untouched.  The member is reactivated.
        """
        if [w.shape for w in network.weights] != [
            w[member].shape for w in self.weights
        ]:
            raise ValueError(
                "replacement network does not match the stacked architecture"
            )
        self.networks[member] = network
        for layer, weight in enumerate(self.weights):
            weight[member] = network.weights[layer]
        self.reset_member_velocity(member)
        self._active[member] = True

    def sync_member(self, member: int) -> FeedForwardNetwork:
        """Copy one member's stacked slices back into its network object
        (weights and momentum) and return the network."""
        network = self.networks[member]
        for layer in range(len(self.weights)):
            network.weights[layer][...] = self.weights[layer][member]
            network._velocity[layer][...] = self.velocity[layer][member]
        return network

    # -- per-member health and inference -------------------------------
    def member_weights_finite(self, member: int) -> bool:
        """Whether one member's weights are free of NaN/inf (cheap: the
        weight arrays are tiny next to one batch of activations)."""
        return all(np.isfinite(w[member]).all() for w in self.weights)

    def members_finite(self) -> np.ndarray:
        """Weight finiteness for every member at once: one bool per
        member, equal to :meth:`member_weights_finite` element-wise but
        computed as one reduction per layer instead of one per member
        (the post-epoch guard runs every epoch, so this is on the hot
        path)."""
        finite = np.ones(self.n_members, dtype=bool)
        for weight in self.weights:
            finite &= np.isfinite(weight).all(axis=(1, 2))
        return finite

    def member_weight_health(self, member: int) -> WeightHealth:
        """One member's :class:`~repro.core.network.WeightHealth`;
        the same arithmetic as :meth:`FeedForwardNetwork.weight_health`
        applied to the member's slices."""
        max_abs = 0.0
        saturated = 0
        total = 0
        finite = True
        for weight in self.weights:
            magnitudes = np.abs(weight[member])
            layer_max = float(magnitudes.max())
            if not np.isfinite(layer_max):
                finite = False
            max_abs = max(max_abs, layer_max)
            with np.errstate(invalid="ignore"):
                saturated += int(
                    (magnitudes > SATURATION_THRESHOLD).sum()
                )
            total += weight[member].size
        return WeightHealth(
            finite=finite,
            max_abs=max_abs,
            saturation=saturated / total if total else 0.0,
        )

    def predict_member(self, member: int, x: np.ndarray) -> np.ndarray:
        """One member's outputs for ``x``; shape ``(n, n_outputs)``.

        Mirrors :meth:`FeedForwardNetwork.predict` bit-for-bit,
        including the validation and the non-finite output guard, so
        early-stopping checks evaluated here match per-fold checks
        exactly.
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.n_inputs:
            raise ValueError(
                f"expected {self.n_inputs} input features, got {x.shape[1]}"
            )
        a = x
        last = len(self.weights) - 1
        for layer, weight in enumerate(self.weights):
            w = weight[member]
            net = a @ w[1:] + w[0]
            a = (
                self._output_forward(net) if layer == last
                else self._hidden_forward(net)
            )
        if not np.isfinite(a).all():
            raise TrainingDiverged(
                "network output contains non-finite values",
                reason="non-finite output",
            )
        return a

    # -- the batched epoch ---------------------------------------------
    def run_epoch(
        self,
        orders: np.ndarray,
        batch_size: int,
        learning_rates: np.ndarray,
        momentum: float,
    ) -> None:
        """One epoch for every active member, as stacked batched matmuls.

        Parameters
        ----------
        orders:
            ``(n_active, n_presentations)`` presentation indices — one
            row per active member, in ascending member order (the order
            of :attr:`active_members`).  Each row is that member's own
            weighted presentation draw.
        batch_size:
            Updates happen every ``batch_size`` presentations, with the
            arithmetic of :meth:`FeedForwardNetwork.train_batch`.
        learning_rates:
            One step size per active member, same order as ``orders``
            (plateau decay is per member).
        momentum:
            Shared momentum coefficient.

        This does not raise on non-finite weights: one member diverging
        must not abort its siblings' epoch.  Callers check :meth:`member_weights_finite`
        per member afterwards and quarantine or reseed the failed slice
        — the same epoch-granularity detection the per-fold guard gave.
        """
        idx = self.active_members
        n_active = len(idx)
        if n_active == 0:
            raise ValueError("no active members to train")
        orders = np.asarray(orders)
        if orders.ndim != 2 or orders.shape[0] != n_active:
            raise ValueError(
                f"orders must have shape ({n_active}, n_presentations), "
                f"got {orders.shape}"
            )
        learning_rates = np.asarray(learning_rates, dtype=np.float64)
        if learning_rates.shape != (n_active,):
            raise ValueError(
                f"learning_rates must have shape ({n_active},), "
                f"got {learning_rates.shape}"
            )

        # one gather for the whole epoch, all members at once
        x_ep = self.x[idx[:, None], orders]
        y_ep = self.y[idx[:, None], orders]
        full = n_active == self.n_members
        # full-active epochs update the master tensors in place; partial
        # epochs gather the active slices, train the copies, and scatter
        # them back (the gather is a few KB per member — negligible next
        # to one batch of activations)
        if full:
            weights = self.weights
            velocity = self.velocity
        else:
            weights = [w[idx] for w in self.weights]
            velocity = [v[idx] for v in self.velocity]
        n_layers = len(weights)
        last = n_layers - 1
        hidden_forward = self._hidden_forward
        hidden_deriv = self._hidden_deriv
        output_forward = self._output_forward
        output_deriv = self._output_deriv
        lr_bias = learning_rates[:, None]
        lr_weight = learning_rates[:, None, None]
        n = orders.shape[1]
        # per-layer views, hoisted out of the batch loop: all updates
        # below are in-place, so the views track every weight change
        w_lin = [w[:, 1:] for w in weights]
        w_lin_t = [w[:, 1:].transpose(0, 2, 1) for w in weights]
        w_bias = [w[:, 0][:, None, :] for w in weights]
        v_lin = [v[:, 1:] for v in velocity]
        v_bias = [v[:, 0] for v in velocity]

        for start in range(0, n, batch_size):
            stop = start + batch_size
            xb = x_ep[:, start:stop]
            yb = y_ep[:, start:stop]
            m = xb.shape[1]

            # -- forward: one stacked matmul per layer ------------------
            activations: List[np.ndarray] = [xb]
            a = xb
            for layer in range(n_layers):
                net = a @ w_lin[layer] + w_bias[layer]
                a = (
                    output_forward(net) if layer == last
                    else hidden_forward(net)
                )
                activations.append(a)

            # -- backward + momentum update, output layer first ---------
            delta = (a - yb) * output_deriv(a)
            for layer in range(last, -1, -1):
                previous = activations[layer]
                v = velocity[layer]
                grad_bias = delta.sum(axis=1) / m
                grad = np.matmul(previous.transpose(0, 2, 1), delta) / m
                if layer > 0:
                    # propagate before updating: backprop must see the
                    # pre-update weights, exactly as the per-fold path
                    delta = np.matmul(
                        delta, w_lin_t[layer]
                    ) * hidden_deriv(previous)
                v *= momentum
                v_bias[layer] -= lr_bias * grad_bias
                v_lin[layer] -= lr_weight * grad
                weights[layer] += v

        if not full:
            for layer in range(n_layers):
                self.weights[layer][idx] = weights[layer]
                self.velocity[layer][idx] = velocity[layer]


# ----------------------------------------------------------------------
# batched inference
# ----------------------------------------------------------------------
def forward_raw(network: FeedForwardNetwork, x: np.ndarray) -> np.ndarray:
    """Network outputs for a pre-validated float64 matrix ``x``.

    The arithmetic of :meth:`FeedForwardNetwork.forward` without the
    per-call conversion, shape checks and finite-guard; callers are
    expected to validate once per point set, not once per chunk.
    """
    a = x
    weights = network.weights
    last = len(weights) - 1
    hidden = network.hidden_activation
    output = network.output_activation
    for layer, w in enumerate(weights):
        net = a @ w[1:] + w[0]
        a = output.forward(net) if layer == last else hidden.forward(net)
    return a
