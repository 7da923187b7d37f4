"""Ensemble prediction: average the members' denormalized outputs.

Averaging the k cross-validation networks usually beats any single member
(Section 3.2) — the same reason cross validation's per-member error
estimate is slightly conservative.

Prediction runs through the chunked batch kernels of
:mod:`repro.core.kernels`: arbitrarily large point sets (the full
~20k-point design space) are evaluated a few matmuls per member per
chunk, with bounded peak memory and results identical to per-point
calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .kernels import (
    DEFAULT_PREDICT_CHUNK,
    Scaler,
    ensemble_predict,
    ensemble_predict_all,
    ensemble_variance,
    member_predictions,
    per_member_scalers,
)
from .network import FeedForwardNetwork


@dataclass
class EnsemblePredictor:
    """A trained ensemble: member networks plus their target scaling.

    ``scaler`` is either one scaler shared by every member (a scalar fit
    scales all folds with one :class:`TargetScaler`) or a sequence with
    one scaler per member (each multi-target fold scales its own
    training rows; see :class:`~repro.core.training.TargetRecipe`).
    ``target_names`` names the output columns of a multi-target
    ensemble, primary first, and is empty for a scalar one.

    ``predict``, ``member_predictions`` and ``prediction_variance``
    describe the primary target, so model-guided agents read a
    multi-target ensemble unchanged; ``predict_all`` returns every
    target.
    """

    networks: List[FeedForwardNetwork]
    scaler: Union[Scaler, Sequence[Scaler]]
    target_names: Tuple[str, ...] = ()

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
        # raises when a scaler list does not match the members
        per_member_scalers(self.scaler, self.networks)
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

    @property
    def member_scalers(self) -> List[Scaler]:
        """The scaler of each member, in member order."""
        return per_member_scalers(self.scaler, self.networks)

    def member_predictions(
        self,
        x: np.ndarray,
        chunk_size: Optional[int] = DEFAULT_PREDICT_CHUNK,
    ) -> np.ndarray:
        """Denormalized primary-target predictions of every member;
        shape ``(k, n)``."""
        return member_predictions(
            self.networks, self.scaler, x, chunk_size=chunk_size
        )

    def predict(
        self,
        x: np.ndarray,
        chunk_size: Optional[int] = DEFAULT_PREDICT_CHUNK,
    ) -> np.ndarray:
        """Ensemble prediction of the primary target: mean of member
        predictions; shape ``(n,)``.

        ``x`` may be the full design matrix; it is evaluated
        ``chunk_size`` points at a time (pass ``None`` to disable
        chunking) with results identical to per-point prediction.
        """
        return ensemble_predict(
            self.networks, self.scaler, x, chunk_size=chunk_size
        )

    def predict_all(
        self,
        x: np.ndarray,
        chunk_size: Optional[int] = DEFAULT_PREDICT_CHUNK,
    ) -> np.ndarray:
        """Mean denormalized prediction of every target; shape ``(n,
        n_targets)`` (one column for a scalar ensemble)."""
        return ensemble_predict_all(
            self.networks, self.scaler, x, chunk_size=chunk_size
        )

    def prediction_variance(
        self,
        x: np.ndarray,
        chunk_size: Optional[int] = DEFAULT_PREDICT_CHUNK,
    ) -> np.ndarray:
        """Disagreement among members on the primary target; the
        active-learning extension uses this as its query-by-committee
        acquisition signal."""
        return ensemble_variance(
            self.networks, self.scaler, x, chunk_size=chunk_size
        )
