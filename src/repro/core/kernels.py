"""The fold-stacked training kernel (the modeling hot path).

Once simulation is cheap, the per-epoch mini-batch backpropagation
inside :class:`~repro.core.training.StackedEnsembleTrainer` dominates
the cost of the paper's procedure.  :class:`EnsembleTrainingKernel`
implements it as one fused numpy kernel:

* It keeps the parameters of many identically shaped member networks —
  the k cross-validation folds of an ensemble, or the one network of a
  single fit — as flat rows: one contiguous ``(members, P)`` array each
  for weights, velocity and a reusable gradient buffer, with every
  layer's ``(members, fan_in + 1, fan_out)`` matrix a view into its row
  block.  This is the only place training state lives: a
  :class:`~repro.core.network.FeedForwardNetwork` holds weights only.
* It runs a whole epoch of presentation-sampled mini-batch gradient
  descent with momentum for every *active* member as one batched matmul
  per layer per batch; backward writes each layer's gradient into its
  view of the buffer, and the Equation 3.2 momentum update is then five
  whole-buffer operations per batch, whatever the depth.  The epoch's
  presentations are gathered with a single fancy-index, and finiteness
  is checked once per epoch with one weight reduction — non-finite
  values cannot "un-diverge" under gradient descent with momentum, so
  checking after the epoch detects the failure in the same epoch a
  per-batch guard would.
* Early stopping, restarts and quarantine become per-member active
  masks: a stopped or diverged member's row is excluded from the
  batched epoch (frozen in place), and a restart reseeds only that row.
  The periodic early-stopping check is batched the same way
  (:meth:`~EnsembleTrainingKernel.check_members`).

Inference is :func:`~repro.core.network.forward_raw`, under both
:meth:`~repro.core.network.FeedForwardNetwork.predict` and
:class:`~repro.core.ensemble.EnsemblePredictor`'s chunked prediction
loop, whose default chunk is :data:`DEFAULT_PREDICT_CHUNK` here.

With any ``batch_size`` (including 1, the paper's literal per-sample
presentation) each member's weight and velocity trajectory is
bit-identical to training it alone, which ``tests/test_kernels.py`` and
``tests/test_ensemble_kernel.py`` lock in against the single-network
reference in ``tests/reference_training.py``.  This relies on numpy
evaluating an ``(m, a, b) @ (m, b, c)`` matmul as the same BLAS GEMM per
2-D slice it would run for one member alone (whatever the batch and
output strides), on row-sum reductions over the batch axis preserving
the 2-D accumulation order, and on the update being elementwise —
deferring every layer's update to the end of the batch changes no
value, because backprop reads only pre-update weights.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .activation import Identity
from .network import (
    SATURATION_THRESHOLD,
    FeedForwardNetwork,
    WeightHealth,
)

#: rows per chunk for batched full-space prediction: below the size at
#: which OpenBLAS's threaded GEMM slows processes predicting side by
#: side; chunking splits only the point axis, so any size gives the
#: same bytes
DEFAULT_PREDICT_CHUNK = 2048


class EnsembleTrainingKernel:
    """Fold-stacked SGD+momentum epochs over many same-shape networks.

    Each member's parameters are one row of ``P`` floats — every layer's
    ``(fan_in + 1) * fan_out`` weights back to back, bias row first — so
    the weights, the velocity and the gradient buffer of all ``m``
    members are three contiguous ``(m, P)`` arrays.  :attr:`weights` and
    :attr:`velocity` hold per-layer ``(m, fan_in + 1, fan_out)`` views
    into them.  An epoch runs every *active* member as batched matmuls:
    one ``(m, batch, fan_in) @ (m, fan_in, fan_out)`` forward GEMM stack
    per layer, the mirrored backward GEMMs writing straight into the
    gradient views, then one Equation 3.2 momentum update over the
    whole flat rows with a per-member learning rate.

    Members are the unit of control, not the unit of work:

    * :meth:`deactivate` freezes a member's row (early stop, or
      quarantine after restarts are exhausted) — it simply stops being
      gathered into the batched epoch, so its weights stay exactly
      where the caller left them;
    * :meth:`reinit_member` reseeds one row from a freshly initialized
      network (the divergence-restart path) without touching any other
      member;
    * reads (:meth:`members_finite`, :meth:`check_members`,
      :meth:`get_member_weights`) and writes
      (:meth:`set_member_weights`, :meth:`reset_member_velocity`)
      mirror the single-network reference's operations bit-for-bit
      (``tests/reference_training.py``), so the early-stopping
      bookkeeping built on top of them reproduces per-fold
      trajectories exactly.

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
        # layer l occupies columns [bounds[l], bounds[l + 1]) of a row;
        # row 0 of its (fan_in + 1, fan_out) view is the bias, exactly
        # as in FeedForwardNetwork
        self._shapes = shapes
        self._bounds = np.cumsum([0] + [r * c for r, c in shapes]).tolist()
        self._flat_weights = np.empty((self.n_members, self._bounds[-1]))
        # every member starts from rest: fresh networks carry no
        # training state, and a restart zeroes its row again
        self._flat_velocity = np.zeros_like(self._flat_weights)
        self._flat_grads = np.empty_like(self._flat_weights)
        self.weights = self._layer_views(self._flat_weights)
        self.velocity = self._layer_views(self._flat_velocity)
        for member, network in enumerate(networks):
            for layer in range(len(shapes)):
                self.weights[layer][member] = network.weights[layer]
        # the full-active epoch's views, built once
        self._full_views = self._epoch_views(
            self._flat_weights, self._flat_grads
        )
        self._active = np.ones(self.n_members, dtype=bool)
        self._hidden_forward = first.hidden_activation.forward
        self._hidden_deriv = first.hidden_activation.derivative_from_output
        self._output_forward = first.output_activation.forward
        # the identity's derivative is all ones: multiplying by it
        # changes no value, so the epoch skips it
        self._output_deriv = (
            None
            if isinstance(first.output_activation, Identity)
            else first.output_activation.derivative_from_output
        )

    def _layer_views(self, flat: np.ndarray) -> List[np.ndarray]:
        """Per-layer ``(rows, fan_in + 1, fan_out)`` views of ``flat``."""
        return [
            flat[:, start:stop].reshape(len(flat), *shape)
            for start, stop, shape in zip(
                self._bounds, self._bounds[1:], self._shapes
            )
        ]

    def _epoch_views(self, flat_weights: np.ndarray, flat_grads: np.ndarray):
        """The batch loop's per-layer views: linear weights, their
        transposes and bias rows of ``flat_weights``; linear and bias
        gradient rows of ``flat_grads``."""
        weights = self._layer_views(flat_weights)
        grads = self._layer_views(flat_grads)
        return (
            [w[:, 1:] for w in weights],
            [w[:, 1:].transpose(0, 2, 1) for w in weights],
            [w[:, 0][:, None, :] for w in weights],
            [g[:, 1:] for g in grads],
            [g[:, 0] for g in grads],
        )

    # -- active-mask control -------------------------------------------
    @property
    def active_members(self) -> np.ndarray:
        """Indices of members the next epoch will train, ascending."""
        return np.flatnonzero(self._active)

    def deactivate(self, member: int) -> None:
        """Freeze ``member``: exclude its row from batched epochs."""
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
        """Zero one member's momentum (used after weight restores)."""
        self._flat_velocity[member] = 0.0

    def reinit_member(
        self, member: int, network: FeedForwardNetwork
    ) -> None:
        """Reseed one row from a freshly initialized ``network``.

        The divergence-restart path: only this member's weights,
        velocity and backing network are replaced; every other row is
        untouched.  The member is reactivated.
        """
        if [w.shape for w in network.weights] != self._shapes:
            raise ValueError(
                "replacement network does not match the stacked architecture"
            )
        self.networks[member] = network
        for layer, weight in enumerate(self.weights):
            weight[member] = network.weights[layer]
        self.reset_member_velocity(member)
        self._active[member] = True

    def sync_member(self, member: int) -> FeedForwardNetwork:
        """Copy one member's stacked weights back into its network
        object and return the network (the velocity stays here)."""
        network = self.networks[member]
        for layer in range(len(self.weights)):
            network.weights[layer][...] = self.weights[layer][member]
        return network

    # -- batched health and inference ----------------------------------
    def members_finite(self) -> np.ndarray:
        """Weight finiteness for every member at once: one bool per
        member, from one reduction over the flat rows (the post-epoch
        guard runs every epoch, so this is on the hot path)."""
        return np.isfinite(self._flat_weights).all(axis=1)

    def check_members(
        self,
        members: Sequence[int],
        xs: Sequence[np.ndarray],
        max_weight: float,
    ) -> List[Tuple[WeightHealth, Optional[np.ndarray]]]:
        """The early-stopping check of several members at once.

        Returns one ``(health, outputs)`` pair per entry of ``members``:
        the member's :class:`~repro.core.network.WeightHealth` (finite /
        max-|w| / fraction above :data:`SATURATION_THRESHOLD`), and its
        outputs on ``xs[j]``, shape ``(len(xs[j]), n_outputs)`` and equal
        to :meth:`FeedForwardNetwork.predict` — or ``None`` when the
        health is not ``ok(max_weight)``, since a single-network check
        stops there and never predicts.  Outputs are returned as
        computed, NaN/inf included; the caller applies ``predict``'s
        non-finite guard.  Members whose ``xs`` have equal length share
        one stacked forward pass.
        """
        members = np.asarray(members, dtype=np.intp)
        for x in xs:
            if x.ndim != 2 or x.shape[1] != self.n_inputs:
                raise ValueError(
                    f"expected {self.n_inputs} input features, got shape "
                    f"{x.shape}"
                )
        rows = self._flat_weights[members]
        magnitudes = np.abs(rows)
        finite = np.isfinite(rows).all(axis=1)
        max_abs = np.zeros(len(members))
        with np.errstate(invalid="ignore"):
            saturated = (magnitudes > SATURATION_THRESHOLD).sum(axis=1)
            for start, stop in zip(self._bounds, self._bounds[1:]):
                layer_max = magnitudes[:, start:stop].max(axis=1)
                # the reference weight_health takes a running Python
                # max() over layers: a NaN layer maximum never wins
                max_abs = np.where(layer_max > max_abs, layer_max, max_abs)
        total = self._bounds[-1]
        healths = [
            WeightHealth(
                finite=bool(finite[j]),
                max_abs=float(max_abs[j]),
                saturation=int(saturated[j]) / total,
            )
            for j in range(len(members))
        ]
        outputs: List[Optional[np.ndarray]] = [None] * len(members)
        by_length: dict = {}
        for j, health in enumerate(healths):
            if health.ok(max_weight):
                by_length.setdefault(len(xs[j]), []).append(j)
        last = len(self._shapes) - 1
        for group in by_length.values():
            a = np.stack([xs[j] for j in group])
            for layer, w in enumerate(self._layer_views(rows[group])):
                net = a @ w[:, 1:] + w[:, 0][:, None, :]
                a = (
                    self._output_forward(net) if layer == last
                    else self._hidden_forward(net)
                )
            for row, j in enumerate(group):
                outputs[j] = a[row]
        return list(zip(healths, outputs))

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
            Updates happen every ``batch_size`` presentations: the mean
            gradient of half squared error over the batch, then one
            momentum step.
        learning_rates:
            One step size per active member, same order as ``orders``
            (plateau decay is per member).
        momentum:
            Shared momentum coefficient.

        This does not raise on non-finite weights: one member diverging
        must not abort its siblings' epoch.  Callers read
        :meth:`members_finite` afterwards and quarantine or reseed the
        failed rows — the same epoch-granularity detection the
        per-fold guard gave.
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
        # full-active epochs update the master rows in place through the
        # prebuilt views; partial epochs gather the active rows as one
        # block, train the copy, and scatter it back (a few KB per
        # member — negligible next to one batch of activations)
        if full:
            weights = self._flat_weights
            velocity = self._flat_velocity
            grads = self._flat_grads
            views = self._full_views
        else:
            weights = self._flat_weights[idx]
            velocity = self._flat_velocity[idx]
            grads = self._flat_grads[:n_active]
            views = self._epoch_views(weights, grads)
        w_lin, w_lin_t, w_bias, g_lin, g_bias = views
        n_layers = len(w_lin)
        last = n_layers - 1
        hidden_forward = self._hidden_forward
        hidden_deriv = self._hidden_deriv
        output_forward = self._output_forward
        output_deriv = self._output_deriv
        lr = learning_rates[:, None]
        n = orders.shape[1]

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

            # -- backward into the gradient rows, output layer first ----
            delta = a - yb
            if output_deriv is not None:
                delta *= output_deriv(a)
            for layer in range(last, -1, -1):
                previous = activations[layer]
                delta.sum(axis=1, out=g_bias[layer])
                np.matmul(
                    previous.transpose(0, 2, 1), delta, out=g_lin[layer]
                )
                if layer > 0:
                    # every update waits for the end of the batch, so
                    # backprop sees the pre-update weights, exactly as
                    # the per-fold path
                    delta = np.matmul(
                        delta, w_lin_t[layer]
                    ) * hidden_deriv(previous)

            # -- Equation 3.2 over the whole rows -----------------------
            grads /= m
            velocity *= momentum
            grads *= lr
            velocity -= grads
            weights += velocity

        if not full:
            self._flat_weights[idx] = weights
            self._flat_velocity[idx] = velocity

