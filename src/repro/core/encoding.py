"""Encoding of design parameters and targets for the ANN (Section 3.3).

* Cardinal and continuous parameters become a single input, minimax-scaled
  to [0, 1] using the parameter's range *over the design space* (not over
  the training sample), so encodings are stable as data accumulates.
* Nominal parameters are one-hot encoded — one input per setting — to
  avoid fabricating range information where none exists.
* Boolean parameters are single 0/1 inputs.
* Targets (IPC) are minimax-scaled like continuous inputs; predictions are
  scaled back before percentage errors are computed, since the paper
  reports all error on actual (not normalized) values.
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, List, Mapping, Sequence

import numpy as np

from ..designspace.parameters import (
    BooleanParameter,
    CardinalParameter,
    NominalParameter,
    Parameter,
)
from ..designspace.space import DesignSpace


#: cardinal encodings: "value" = minimax on the raw value (the paper's
#: description); "rank" = minimax on the level index, equivalent to a log
#: scale for the power-of-two-spaced hardware parameters of Tables 4.1/4.2
CARDINAL_ENCODINGS = ("value", "rank")


class ParameterEncoder:
    """Encode configurations of one design space as ANN input vectors.

    Parameters
    ----------
    space:
        The design space whose points will be encoded.
    cardinal_encoding:
        ``"rank"`` (default) spaces a cardinal parameter's levels uniformly
        in [0, 1]; since cache sizes, associativities etc. are powers of
        two, this matches the log-linear structure of miss-rate curves and
        roughly halves model error versus raw-value minimax ("value").
    """

    def __init__(self, space: DesignSpace, cardinal_encoding: str = "rank"):
        if cardinal_encoding not in CARDINAL_ENCODINGS:
            raise ValueError(
                f"cardinal_encoding must be one of {CARDINAL_ENCODINGS}, "
                f"got {cardinal_encoding!r}"
            )
        self.cardinal_encoding = cardinal_encoding
        self.space = space
        names: List[str] = []
        for parameter in space.parameters:
            if isinstance(parameter, NominalParameter):
                names.extend(
                    f"{parameter.name}={value}" for value in parameter.values
                )
            else:
                names.append(parameter.name)
        self._feature_names = tuple(names)

    @property
    def n_features(self) -> int:
        return len(self._feature_names)

    @property
    def feature_names(self) -> Sequence[str]:
        return self._feature_names

    # ------------------------------------------------------------------
    def _encode_parameter(self, parameter: Parameter, value: Any) -> List[float]:
        if isinstance(parameter, BooleanParameter):
            return [float(parameter.index_of(value))]
        if isinstance(parameter, NominalParameter):
            one_hot = [0.0] * parameter.cardinality
            one_hot[parameter.index_of(value)] = 1.0
            return one_hot
        if isinstance(parameter, CardinalParameter):
            if parameter.cardinality == 1:
                parameter.validate(value)
                return [0.0]
            if self.cardinal_encoding == "rank":
                return [parameter.index_of(value) / (parameter.cardinality - 1)]
            parameter.validate(value)
            low, high = parameter.low, parameter.high
            return [(float(value) - low) / (high - low)]
        raise TypeError(f"cannot encode parameter type {type(parameter)!r}")

    def encode(self, config: Mapping[str, Any]) -> np.ndarray:
        """Encode one configuration dict as a feature vector."""
        features: List[float] = []
        for parameter in self.space.parameters:
            features.extend(
                self._encode_parameter(parameter, config[parameter.name])
            )
        return np.asarray(features, dtype=np.float64)

    def encode_many(self, configs: Sequence[Mapping[str, Any]]) -> np.ndarray:
        """Encode a sequence of configurations as a ``(n, F)`` matrix."""
        if not configs:
            return np.empty((0, self.n_features))
        return np.vstack([self.encode(config) for config in configs])

    def encode_space(self) -> np.ndarray:
        """The cached design matrix of the whole space; see
        :func:`design_matrix`.  Row ``i`` encodes
        ``space.config_at(i)``, so callers index rows instead of
        re-encoding configurations."""
        return design_matrix(self.space, self.cardinal_encoding)


#: per-space cache of full design matrices, keyed weakly so a discarded
#: space releases its (possibly multi-MB) matrices with it
_SPACE_MATRICES: "weakref.WeakKeyDictionary[DesignSpace, Dict[str, np.ndarray]]"
_SPACE_MATRICES = weakref.WeakKeyDictionary()


def design_matrix(
    space: DesignSpace, cardinal_encoding: str = "rank"
) -> np.ndarray:
    """The full design space encoded as one immutable ``(N, F)`` matrix.

    Encoding a ~20k-point space is a pure function of the space and the
    encoding scheme, yet it used to be redone every exploration round
    and every ``predict_space`` call; this caches one read-only matrix
    per (space, encoding) for the life of the space.  Row ``i`` encodes
    ``space.config_at(i)`` (enumeration order), so sampled subsets are
    cheap row gathers (``design_matrix(space)[indices]``).

    The returned array is marked read-only — it is shared by every
    encoder of the space; callers who need to mutate must copy.
    """
    per_space = _SPACE_MATRICES.setdefault(space, {})
    matrix = per_space.get(cardinal_encoding)
    if matrix is None:
        encoder = ParameterEncoder(space, cardinal_encoding)
        matrix = np.vstack([encoder.encode(config) for config in space])
        matrix.setflags(write=False)
        per_space[cardinal_encoding] = matrix
    return matrix


class TargetScaler:
    """Minimax scaling of prediction targets, with inverse transform."""

    def __init__(self):
        self.low: float = 0.0
        self.high: float = 1.0
        self._fitted = False

    def fit(self, targets: np.ndarray) -> "TargetScaler":
        """Record the min/max of ``targets``.

        Degenerate target sets fail here with a clear error rather than
        poisoning training downstream: non-finite values would seep into
        the scaled range, and an all-equal set has zero span — minimax
        scaling cannot represent it and the inverse-target presentation
        weighting would train on pure noise.
        """
        targets = np.asarray(targets, dtype=np.float64)
        if targets.size == 0:
            raise ValueError("cannot fit a scaler on no targets")
        if not np.isfinite(targets).all():
            bad = np.flatnonzero(~np.isfinite(targets.reshape(-1))).tolist()
            raise ValueError(
                f"cannot fit a scaler on non-finite targets (indices {bad})"
            )
        low = float(targets.min())
        high = float(targets.max())
        if high == low:
            raise ValueError(
                f"cannot fit a scaler on a degenerate target set: all "
                f"{targets.size} values equal {low!r} (zero range)"
            )
        self.low = low
        self.high = high
        self._fitted = True
        return self

    @property
    def span(self) -> float:
        return self.high - self.low

    @property
    def scalers(self) -> List["TargetScaler"]:
        """Per-column scalers, as on :class:`MultiTargetScaler`: a
        scalar target is its own single column."""
        return [self]

    def transform(self, targets: np.ndarray) -> np.ndarray:
        """Map raw targets into [0, 1] (degenerate ranges map to 0.5)."""
        if not self._fitted:
            raise RuntimeError("scaler must be fitted before transform")
        targets = np.asarray(targets, dtype=np.float64)
        if self.span == 0.0:
            return np.full_like(targets, 0.5)
        return (targets - self.low) / self.span

    def inverse_transform(self, scaled: np.ndarray) -> np.ndarray:
        """Map normalized predictions back to the actual range."""
        if not self._fitted:
            raise RuntimeError("scaler must be fitted before inverse_transform")
        scaled = np.asarray(scaled, dtype=np.float64)
        if self.span == 0.0:
            return np.full_like(scaled, self.low)
        return scaled * self.span + self.low


class MultiTargetScaler:
    """Independent :class:`TargetScaler` per output column (multi-task)."""

    def __init__(self):
        self.scalers: List[TargetScaler] = []

    def fit(self, targets: np.ndarray) -> "MultiTargetScaler":
        """Fit one scaler per target column."""
        targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
        self.scalers = [
            TargetScaler().fit(targets[:, j]) for j in range(targets.shape[1])
        ]
        return self

    def transform(self, targets: np.ndarray) -> np.ndarray:
        """Scale every column into [0, 1]."""
        targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
        self._check_width(targets)
        return np.column_stack(
            [s.transform(targets[:, j]) for j, s in enumerate(self.scalers)]
        )

    def inverse_transform(self, scaled: np.ndarray) -> np.ndarray:
        """Map normalized columns back to their ranges."""
        scaled = np.atleast_2d(np.asarray(scaled, dtype=np.float64))
        self._check_width(scaled)
        return np.column_stack(
            [
                s.inverse_transform(scaled[:, j])
                for j, s in enumerate(self.scalers)
            ]
        )

    def _check_width(self, matrix: np.ndarray) -> None:
        if not self.scalers:
            raise RuntimeError("scaler must be fitted first")
        if matrix.shape[1] != len(self.scalers):
            raise ValueError(
                f"expected {len(self.scalers)} target columns, got "
                f"{matrix.shape[1]}"
            )
