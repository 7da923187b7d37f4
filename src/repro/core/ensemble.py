"""Ensemble prediction: average the members' denormalized outputs.

Averaging the k cross-validation networks usually beats any single member
(Section 3.2) — the same reason cross validation's per-member error
estimate is slightly conservative.

Prediction runs through one chunked loop over
:func:`~repro.core.network.forward_raw`: arbitrarily large point sets
(the full ~20k-point design space) are evaluated a few matmuls per
member per chunk, with bounded peak memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .encoding import TargetScaler
from .kernels import DEFAULT_PREDICT_CHUNK
from .network import FeedForwardNetwork, TrainingDiverged, forward_raw


def _chunk_bounds(n: int, chunk_size: Optional[int]):
    if chunk_size is None or chunk_size <= 0 or chunk_size >= n:
        yield 0, n
        return
    for start in range(0, n, chunk_size):
        yield start, min(start + chunk_size, n)


@dataclass
class EnsemblePredictor:
    """A trained ensemble: member networks plus their target scaling.

    ``scaler`` is either one :class:`TargetScaler` shared by every
    member (a scalar fit scales all folds alike) or a sequence with one
    per member (each multi-target fold scales its own training rows;
    see :class:`~repro.core.training.TargetRecipe`);
    ``member_scalers`` holds it as the per-member list.
    ``target_names`` names the output columns of a multi-target
    ensemble, primary first, and is empty for a scalar one.

    ``predict``, ``member_predictions`` and ``prediction_variance``
    describe the primary target, so model-guided agents read a
    multi-target ensemble unchanged; ``predict_all`` returns every
    target.
    """

    networks: List[FeedForwardNetwork]
    scaler: Union[TargetScaler, Sequence[TargetScaler]]
    target_names: Tuple[str, ...] = ()
    member_scalers: List[TargetScaler] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.networks:
            raise ValueError("an ensemble needs at least one network")
        if any(network is None for network in self.networks):
            # quarantined folds carry network=None; the ensemble builder
            # must filter them out, never average over holes
            raise ValueError(
                "ensemble members must be trained networks, got None "
                "(quarantined folds cannot join an ensemble)"
            )
        if isinstance(self.scaler, (list, tuple)):
            if len(self.scaler) != len(self.networks):
                raise ValueError(
                    f"got {len(self.scaler)} scalers for "
                    f"{len(self.networks)} networks"
                )
            self.member_scalers = list(self.scaler)
        else:
            self.member_scalers = [self.scaler] * len(self.networks)
        self.target_names = tuple(self.target_names)
        n_outputs = self.networks[0].n_outputs
        if self.target_names and len(self.target_names) != n_outputs:
            raise ValueError(
                f"{len(self.target_names)} target names for networks "
                f"with {n_outputs} outputs"
            )

    @property
    def size(self) -> int:
        return len(self.networks)

    def _inputs(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        n_inputs = self.networks[0].n_inputs
        if x.shape[1] != n_inputs:
            raise ValueError(
                f"expected {n_inputs} input features, got {x.shape[1]}"
            )
        return x

    def _chunks(
        self, x: np.ndarray, chunk_size: Optional[int], primary: bool
    ) -> Iterator[Tuple[slice, np.ndarray]]:
        """The one prediction loop: ``(rows, block)`` per chunk of
        ``x``, ``block`` holding every member's denormalized outputs on
        ``x[rows]`` — ``(k, c)`` of the primary target when ``primary``
        is set, else ``(k, c, n_targets)``.

        Chunking splits the point axis only, so the working set is one
        block whatever ``len(x)``.
        """
        for start, stop in _chunk_bounds(len(x), chunk_size):
            chunk = x[start:stop]
            block = np.stack(
                [
                    scaler.inverse_transform(forward_raw(network, chunk))
                    for network, scaler in zip(
                        self.networks, self.member_scalers
                    )
                ]
            )
            if primary:
                # a contiguous copy: mean/var over the strided column
                # slice may accumulate in another order
                block = np.ascontiguousarray(block[:, :, 0])
            if not np.isfinite(block).all():
                raise TrainingDiverged(
                    "network output contains non-finite values",
                    reason="non-finite output",
                )
            yield slice(start, stop), block

    def member_predictions(
        self,
        x: np.ndarray,
        chunk_size: Optional[int] = DEFAULT_PREDICT_CHUNK,
    ) -> np.ndarray:
        """Denormalized primary-target predictions of every member;
        shape ``(k, n)``."""
        x = self._inputs(x)
        out = np.empty((self.size, len(x)))
        for rows, block in self._chunks(x, chunk_size, primary=True):
            out[:, rows] = block
        return out

    def predict(
        self,
        x: np.ndarray,
        chunk_size: Optional[int] = DEFAULT_PREDICT_CHUNK,
    ) -> np.ndarray:
        """Ensemble prediction of the primary target: mean of member
        predictions; shape ``(n,)``.

        ``x`` may be the full design matrix; it is evaluated
        ``chunk_size`` points at a time (pass ``None`` to disable
        chunking) with bounded peak memory.
        """
        x = self._inputs(x)
        out = np.empty(len(x))
        for rows, block in self._chunks(x, chunk_size, primary=True):
            out[rows] = block.mean(axis=0)
        return out

    def predict_all(
        self,
        x: np.ndarray,
        chunk_size: Optional[int] = DEFAULT_PREDICT_CHUNK,
    ) -> np.ndarray:
        """Mean denormalized prediction of every target; shape ``(n,
        n_targets)`` (one column for a scalar ensemble)."""
        x = self._inputs(x)
        out = np.empty((len(x), self.networks[0].n_outputs))
        for rows, block in self._chunks(x, chunk_size, primary=False):
            out[rows] = block.mean(axis=0)
        return out

    def prediction_variance(
        self,
        x: np.ndarray,
        chunk_size: Optional[int] = DEFAULT_PREDICT_CHUNK,
    ) -> np.ndarray:
        """Disagreement among members on the primary target (population
        variance per point); the active-learning extension uses this as
        its query-by-committee acquisition signal."""
        x = self._inputs(x)
        out = np.empty(len(x))
        for rows, block in self._chunks(x, chunk_size, primary=True):
            out[rows] = block.var(axis=0, ddof=0)
        return out
