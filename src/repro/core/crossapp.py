"""Cross-application predictive modeling (a Chapter 7 future-work item).

The paper trains one model per benchmark.  When several benchmarks share
functional structure, sampling requirements can drop by making the
application identity an *input*: one large model is trained on the union
of all benchmarks' samples, with the application encoded one-hot alongside
the design parameters.  Workloads then share the hidden-layer features
that capture common design-space structure (e.g. "bigger L2 helps until
the working set fits"), so each benchmark needs fewer of its own samples.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..designspace.space import DesignSpace
from .context import RunContext
from .crossval import DEFAULT_FOLDS, CrossValidationEnsemble
from .encoding import ParameterEncoder
from .error import ErrorEstimate
from .training import TrainingConfig


class CrossApplicationModel:
    """One ANN ensemble over (configuration, application) pairs.

    Parameters
    ----------
    space:
        The shared design space.
    benchmarks:
        Applications the model covers; order fixes the one-hot layout.
    training, k:
        Passed through to the underlying cross-validation ensemble.
    context:
        :class:`~repro.core.context.RunContext` for the underlying
        ensemble.
    """

    def __init__(
        self,
        space: DesignSpace,
        benchmarks: Sequence[str],
        training: Optional[TrainingConfig] = None,
        *,
        k: int = DEFAULT_FOLDS,
        context: Optional[RunContext] = None,
    ):
        benchmarks = tuple(benchmarks)
        if len(benchmarks) < 2:
            raise ValueError(
                "cross-application modeling needs at least two benchmarks"
            )
        if len(set(benchmarks)) != len(benchmarks):
            raise ValueError(f"duplicate benchmarks in {benchmarks}")
        self.space = space
        self.benchmarks = benchmarks
        self.encoder = ParameterEncoder(space)
        self.ensemble = CrossValidationEnsemble(
            k=k, training=training, context=context
        )
        self._app_index = {name: i for i, name in enumerate(benchmarks)}

    @property
    def n_features(self) -> int:
        return self.encoder.n_features + len(self.benchmarks)

    # ------------------------------------------------------------------
    def _one_hot(self, benchmark: str) -> np.ndarray:
        try:
            index = self._app_index[benchmark]
        except KeyError:
            raise KeyError(
                f"model does not cover benchmark {benchmark!r}; covered: "
                f"{self.benchmarks}"
            ) from None
        vector = np.zeros(len(self.benchmarks))
        vector[index] = 1.0
        return vector

    def encode(self, benchmark: str, configs: Sequence[dict]) -> np.ndarray:
        """Feature matrix for ``configs`` tagged with ``benchmark``."""
        x = self.encoder.encode_many(configs)
        tag = np.tile(self._one_hot(benchmark), (len(x), 1))
        return np.hstack([x, tag])

    def fit(
        self, samples: Dict[str, Tuple[Sequence[int], Sequence[float]]]
    ) -> ErrorEstimate:
        """Train on pooled samples.

        Parameters
        ----------
        samples:
            Mapping from benchmark name to ``(design-space indices,
            simulated targets)``.
        """
        blocks_x: List[np.ndarray] = []
        blocks_y: List[np.ndarray] = []
        space_x = self.encoder.encode_space()
        for benchmark, (indices, targets) in samples.items():
            indices = list(indices)
            targets = np.asarray(targets, dtype=np.float64)
            if len(indices) != len(targets):
                raise ValueError(
                    f"{benchmark}: {len(indices)} indices vs "
                    f"{len(targets)} targets"
                )
            x = space_x[np.asarray(indices, dtype=np.intp)]
            tag = np.tile(self._one_hot(benchmark), (len(x), 1))
            blocks_x.append(np.hstack([x, tag]))
            blocks_y.append(targets)
        if not blocks_x:
            raise ValueError("no samples provided")
        return self.ensemble.fit(np.vstack(blocks_x), np.concatenate(blocks_y))

    def predict(self, benchmark: str, configs: Sequence[dict]) -> np.ndarray:
        """Predict ``benchmark``'s metric at the given configurations."""
        return self.ensemble.predict(self.encode(benchmark, configs))

    def predict_space(self, benchmark: str) -> np.ndarray:
        """Predict every point of the space for one benchmark."""
        x = self.encoder.encode_space()
        tag = np.tile(self._one_hot(benchmark), (len(x), 1))
        return self.ensemble.predict(np.hstack([x, tag]))
