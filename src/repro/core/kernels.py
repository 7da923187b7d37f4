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
  presentations are gathered with one ``take`` per array, activations
  and deltas are computed in place in buffers the kernel keeps, and
  finiteness is checked once per epoch with one weight reduction —
  non-finite values cannot "un-diverge" under gradient descent with
  momentum, so checking after the epoch detects the failure in the same
  epoch a per-batch guard would.
* Early stopping, restarts and quarantine become per-member active
  masks: the active members' rows lead the flat arrays, so a stopped or
  diverged member's row simply leaves the trained block (frozen in
  place) and a restart reseeds only that row.  The periodic
  early-stopping check is batched the same way
  (:meth:`~EnsembleTrainingKernel.member_health`,
  :meth:`~EnsembleTrainingKernel.predict_members`).

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
the 2-D accumulation order, on a K = 1 matmul being one exact product
per element (so a width-1 layer's backward broadcasts it instead), and
on the update being elementwise —
deferring every layer's update to the end of the batch changes no
value, because backprop reads only pre-update weights.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

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
    members are three contiguous ``(m, P)`` arrays.  The active members'
    rows lead, in ascending member order: an epoch trains that leading
    block in place, as ``(m, batch, fan_in) @ (m, fan_in, fan_out)``
    forward GEMM stacks, the mirrored backward GEMMs writing straight
    into the gradient rows, then one Equation 3.2 momentum update over
    the whole block with a per-member learning rate.  Its layer views
    are built once per active count, and the epoch's presentations,
    activations and deltas live in buffers the kernel keeps, so an
    epoch copies no rows and allocates no activations.

    Members are the unit of control, not the unit of work:

    * :meth:`deactivate` freezes a member's row (early stop, or
      quarantine after restarts are exhausted): the row moves out of
      the leading block, and its weights stay exactly where the caller
      left them;
    * :meth:`reinit_member` reseeds one row from a freshly initialized
      network (the divergence-restart path) without touching any other
      member, and moves it back into the block;
    * reads (:meth:`members_finite`, :meth:`member_health`,
      :meth:`predict_members`, :meth:`get_member_weights`) and writes
      (:meth:`set_member_weights`, :meth:`reset_member_velocity`)
      address members by index, whatever row holds them, and mirror
      the single-network reference's operations bit-for-bit
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
    :class:`~repro.core.crossval.CrossValidationEnsemble`.  Which row
    holds a member never matters: each 2-D slice of a stacked matmul is
    its own GEMM with the same shapes and strides.
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
        m = self.n_members = len(networks)
        self.n_inputs = first.n_inputs
        self.n_outputs = first.n_outputs
        self.n_samples = n
        # every member's dataset back to back: member j's sample i is
        # row j * n + i, so an epoch's presentations are one take
        self._x_rows = np.concatenate(xs)
        self._y_rows = np.concatenate(ys)
        # layer l occupies columns [bounds[l], bounds[l + 1]) of a row;
        # row 0 of its (fan_in + 1, fan_out) view is the bias, exactly
        # as in FeedForwardNetwork
        self._shapes = shapes
        self._bounds = np.cumsum([0] + [r * c for r, c in shapes]).tolist()
        self._flat_weights = np.empty((m, self._bounds[-1]))
        # every member starts from rest: fresh networks carry no
        # training state, and a restart zeroes its row again
        self._flat_velocity = np.zeros_like(self._flat_weights)
        self._flat_grads = np.empty_like(self._flat_weights)
        self._weight_layers = self._layer_views(self._flat_weights)
        self._velocity_layers = self._layer_views(self._flat_velocity)
        for member, network in enumerate(networks):
            for layer, weight in enumerate(self._weight_layers):
                weight[member] = network.weights[layer]
        # row r of the flat arrays holds member _members[r], and member
        # j lives in row _rows[j]; the _n_active active members lead
        self._active = np.ones(m, dtype=bool)
        self._members = np.arange(m)
        self._rows = np.arange(m)
        self._n_active = m
        self._offsets = self._epoch_offsets()
        # the epoch's buffers: flat presentation rows and the gathered
        # samples, then per-layer activations, deltas and derivatives
        # sized for the largest batch seen (allocated on first use)
        self._epoch_rows = np.empty((m, n), dtype=np.intp)
        self._x_epoch = np.empty((m, n, self.n_inputs))
        self._y_epoch = np.empty((m, n, self.n_outputs))
        self._capacity = 0
        self._buffers: Tuple[List[np.ndarray], ...] = ([], [], [])
        # layer and batch views, keyed by active count (and batch rows)
        self._epoch_views: dict = {}
        self._batch_views: dict = {}
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

    def _views_for(self, n_active: int):
        """The batch loop's views of the leading ``n_active`` rows: the
        weight, velocity and gradient blocks; per layer, the linear
        weights, their transposes and bias rows, then the linear and
        bias gradient rows.  Built once per active count."""
        views = self._epoch_views.get(n_active)
        if views is None:
            weights = self._flat_weights[:n_active]
            grads = self._flat_grads[:n_active]
            w = self._layer_views(weights)
            g = self._layer_views(grads)
            views = self._epoch_views[n_active] = (
                weights,
                self._flat_velocity[:n_active],
                grads,
                [layer[:, 1:] for layer in w],
                [layer[:, 1:].transpose(0, 2, 1) for layer in w],
                [layer[:, 0][:, None, :] for layer in w],
                [layer[:, 1:] for layer in g],
                [layer[:, 0] for layer in g],
            )
        return views

    def _batch_buffers(self, n_active: int, rows: int):
        """Per-layer activation, delta and hidden-derivative buffers of
        ``(n_active, rows, fan_out)``, views into the kernel's own."""
        key = (n_active, rows)
        views = self._batch_views.get(key)
        if views is None:
            if rows > self._capacity:
                widths = [shape[1] for shape in self._shapes]
                m = self.n_members
                self._capacity = rows
                self._buffers = (
                    [np.empty((m, rows, w)) for w in widths],
                    [np.empty((m, rows, w)) for w in widths],
                    [np.empty((m, rows, w)) for w in widths[:-1]],
                )
                self._batch_views.clear()
            views = self._batch_views[key] = tuple(
                [buffer[:n_active, :rows] for buffer in buffers]
                for buffers in self._buffers
            )
        return views

    # -- active-mask control -------------------------------------------
    @property
    def active_members(self) -> np.ndarray:
        """Indices of members the next epoch will train, ascending."""
        return self._members[: self._n_active].copy()

    def deactivate(self, member: int) -> None:
        """Freeze ``member``: exclude its row from batched epochs."""
        self._set_active(member, False)

    def _set_active(self, member: int, active: bool) -> None:
        """Flip one member's mask and reorder the rows so the active
        members lead in ascending order (a few KB per change)."""
        if self._active[member] == active:
            return
        self._active[member] = active
        members = np.concatenate(
            (np.flatnonzero(self._active), np.flatnonzero(~self._active))
        )
        moved = self._rows[members]
        for flat in (self._flat_weights, self._flat_velocity):
            flat[...] = flat[moved]
        self._members = members
        self._rows[members] = np.arange(self.n_members)
        self._n_active = int(self._active.sum())
        self._offsets = self._epoch_offsets()

    def _epoch_offsets(self) -> np.ndarray:
        """Each row's first flat sample row, repeated across an epoch:
        ``orders + offsets`` are the rows one ``take`` gathers."""
        return np.repeat(
            self._members[:, None] * self.n_samples, self.n_samples, axis=1
        )

    # -- per-member views and writes -----------------------------------
    @property
    def velocity(self) -> List[np.ndarray]:
        """Every member's momentum as per-layer ``(members, fan_in + 1,
        fan_out)`` copies, in member order."""
        return [layer[self._rows] for layer in self._velocity_layers]

    def get_member_weights(self, member: int) -> List[np.ndarray]:
        """Deep copy of one member's weights (early-stopping snapshot);
        mirrors :meth:`FeedForwardNetwork.get_weights`."""
        row = self._rows[member]
        return [w[row].copy() for w in self._weight_layers]

    def set_member_weights(
        self, member: int, weights: Sequence[np.ndarray]
    ) -> None:
        """Restore one member's weights from :meth:`get_member_weights`;
        mirrors :meth:`FeedForwardNetwork.set_weights`."""
        if len(weights) != len(self._weight_layers):
            raise ValueError(
                f"expected {len(self._weight_layers)} weight matrices, "
                f"got {len(weights)}"
            )
        row = self._rows[member]
        for own, new in zip(self._weight_layers, weights):
            if own[row].shape != new.shape:
                raise ValueError(
                    f"weight shape mismatch: {own[row].shape} vs {new.shape}"
                )
            own[row] = new

    def reset_member_velocity(self, member: int) -> None:
        """Zero one member's momentum (used after weight restores)."""
        self._flat_velocity[self._rows[member]] = 0.0

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
        row = self._rows[member]
        for layer, weight in enumerate(self._weight_layers):
            weight[row] = network.weights[layer]
        self.reset_member_velocity(member)
        self._set_active(member, True)

    def sync_member(self, member: int) -> FeedForwardNetwork:
        """Copy one member's stacked weights back into its network
        object and return the network (the velocity stays here)."""
        network = self.networks[member]
        row = self._rows[member]
        for layer, weight in enumerate(self._weight_layers):
            network.weights[layer][...] = weight[row]
        return network

    # -- batched health and inference ----------------------------------
    def members_finite(self) -> np.ndarray:
        """Weight finiteness for every member at once, in member order:
        one bool per member, from one reduction over the flat rows (the
        post-epoch guard runs every epoch, so this is on the hot
        path)."""
        finite = np.logical_and.reduce(np.isfinite(self._flat_weights), axis=1)
        return finite[self._rows]

    def member_health(self, members: Sequence[int]) -> List[WeightHealth]:
        """The :class:`~repro.core.network.WeightHealth` of several
        members at once (finite / max-|w| / fraction above
        :data:`SATURATION_THRESHOLD`), one per entry of ``members``."""
        rows = self._flat_weights[self._rows[np.asarray(members, np.intp)]]
        magnitudes = np.abs(rows)
        max_abs = magnitudes.max(axis=1)
        # inf and NaN both leave a non-finite maximum
        finite = np.isfinite(max_abs)
        with np.errstate(invalid="ignore"):
            saturated = (magnitudes > SATURATION_THRESHOLD).sum(axis=1)
        if not finite.all():
            for j in np.flatnonzero(np.isnan(max_abs)):
                # the reference weight_health takes a running Python
                # max() over layers: a NaN layer maximum never wins
                best = 0.0
                for start, stop in zip(self._bounds, self._bounds[1:]):
                    layer_max = magnitudes[j, start:stop].max()
                    if layer_max > best:
                        best = layer_max
                max_abs[j] = best
        total = self._bounds[-1]
        return [
            WeightHealth(finite=ok, max_abs=top, saturation=count / total)
            for ok, top, count in zip(
                finite.tolist(), max_abs.tolist(), saturated.tolist()
            )
        ]

    def predict_members(
        self, members: Sequence[int], x: np.ndarray
    ) -> np.ndarray:
        """Several members' outputs on their own inputs, as one stacked
        forward pass.

        ``x`` is ``(len(members), rows, n_inputs)`` — member
        ``members[j]`` sees ``x[j]`` — and the result ``(len(members),
        rows, n_outputs)``, each slice equal to that member's
        :meth:`FeedForwardNetwork.predict` without its non-finite guard
        (NaN/inf are returned as computed).
        """
        members = np.asarray(members, dtype=np.intp)
        if x.ndim != 3 or len(x) != len(members) or x.shape[2] != self.n_inputs:
            raise ValueError(
                f"expected ({len(members)}, rows, {self.n_inputs}) inputs, "
                f"got shape {x.shape}"
            )
        last = len(self._shapes) - 1
        a = x
        for layer, w in enumerate(
            self._layer_views(self._flat_weights[self._rows[members]])
        ):
            net = a @ w[:, 1:]
            net += w[:, 0][:, None, :]
            a = (
                self._output_forward(net, out=net) if layer == last
                else self._hidden_forward(net, out=net)
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
            ``(n_active, n_samples)`` presentation indices in
            ``[0, n_samples)`` — one row per active member, in ascending
            member order (the order of :attr:`active_members`).  Each
            row is that member's own weighted presentation draw.
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
        n_active = self._n_active
        if n_active == 0:
            raise ValueError("no active members to train")
        orders = np.asarray(orders)
        if orders.shape != (n_active, self.n_samples):
            raise ValueError(
                f"orders must have shape ({n_active}, {self.n_samples}), "
                f"got {orders.shape}"
            )
        learning_rates = np.asarray(learning_rates, dtype=np.float64)
        if learning_rates.shape != (n_active,):
            raise ValueError(
                f"learning_rates must have shape ({n_active},), "
                f"got {learning_rates.shape}"
            )

        # the epoch's presentations of every active member: one take
        # each into the kernel's buffers, in active-row order
        flat_rows = np.add(
            orders, self._offsets[:n_active], out=self._epoch_rows[:n_active]
        )
        x_ep = self._x_rows.take(
            flat_rows, axis=0, out=self._x_epoch[:n_active], mode="wrap"
        )
        y_ep = self._y_rows.take(
            flat_rows, axis=0, out=self._y_epoch[:n_active], mode="wrap"
        )
        (
            weights, velocity, grads, w_lin, w_lin_t, w_bias, g_lin, g_bias
        ) = self._views_for(n_active)
        n_layers = len(w_lin)
        last = n_layers - 1
        hidden_forward = self._hidden_forward
        hidden_deriv = self._hidden_deriv
        output_forward = self._output_forward
        output_deriv = self._output_deriv
        lr = learning_rates[:, None]
        n = self.n_samples

        for start in range(0, n, batch_size):
            stop = start + batch_size
            xb = x_ep[:, start:stop]
            yb = y_ep[:, start:stop]
            m = xb.shape[1]
            acts, deltas, derivs = self._batch_buffers(n_active, m)

            # -- forward: one stacked matmul per layer ------------------
            a = xb
            for layer in range(n_layers):
                net = np.matmul(a, w_lin[layer], out=acts[layer])
                net += w_bias[layer]
                a = (
                    output_forward(net, out=net) if layer == last
                    else hidden_forward(net, out=net)
                )

            # -- backward into the gradient rows, output layer first ----
            delta = np.subtract(a, yb, out=deltas[last])
            if output_deriv is not None:
                delta *= output_deriv(a)
            for layer in range(last, -1, -1):
                previous = acts[layer - 1] if layer else xb
                np.add.reduce(delta, axis=1, out=g_bias[layer])
                np.matmul(
                    previous.transpose(0, 2, 1), delta, out=g_lin[layer]
                )
                if layer > 0:
                    # every update waits for the end of the batch, so
                    # backprop sees the pre-update weights, exactly as
                    # the per-fold path; a width-1 layer's K = 1 matmul
                    # is one product per element, so it broadcasts
                    back = deltas[layer - 1]
                    if delta.shape[2] == 1:
                        np.multiply(delta, w_lin_t[layer], out=back)
                    else:
                        np.matmul(delta, w_lin_t[layer], out=back)
                    back *= hidden_deriv(previous, out=derivs[layer - 1])
                    delta = back

            # -- Equation 3.2 over the whole rows -----------------------
            grads /= m
            velocity *= momentum
            grads *= lr
            velocity -= grads
            weights += velocity
