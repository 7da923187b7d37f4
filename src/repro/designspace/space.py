"""Design spaces: ordered parameter sets, constraints, enumeration, sampling.

A :class:`DesignSpace` is the cross product of its parameters' value sets,
filtered by constraints.  The paper's studies span 23,040 (memory system)
and 20,736 (processor) valid points per benchmark; spaces of this size are
materialized eagerly as index tuples so that point lookup, uniform random
sampling without replacement, and exhaustive iteration are all cheap.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .constraints import Constraint
from .parameters import Parameter

Config = Dict[str, Any]
IndexTuple = Tuple[int, ...]


class DesignSpace:
    """A named, finite architectural design space.

    Parameters
    ----------
    name:
        Identifier (e.g. ``"memory-system"``).
    parameters:
        Ordered parameters; order fixes both the enumeration order and the
        layout of encoded feature vectors.
    constraints:
        Optional predicates; only configurations satisfying all of them are
        part of the space.
    """

    def __init__(
        self,
        name: str,
        parameters: Sequence[Parameter],
        constraints: Sequence[Constraint] = (),
    ):
        if not parameters:
            raise ValueError("a design space needs at least one parameter")
        names = [p.name for p in parameters]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate parameter names in {names}")
        self.name = name
        self.parameters: Tuple[Parameter, ...] = tuple(parameters)
        self.constraints: Tuple[Constraint, ...] = tuple(constraints)
        for constraint in self.constraints:
            unknown = set(constraint.names) - set(names)
            if unknown:
                raise ValueError(
                    f"constraint {constraint!r} references unknown "
                    f"parameters {sorted(unknown)}"
                )
        self._by_name = {p.name: p for p in self.parameters}
        self._valid: Optional[List[IndexTuple]] = None
        self._valid_lookup: Optional[Dict[IndexTuple, int]] = None

    # ------------------------------------------------------------------
    # basic structure
    # ------------------------------------------------------------------
    def parameter(self, name: str) -> Parameter:
        """Return the parameter called ``name``."""
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(
                f"design space {self.name!r} has no parameter {name!r}"
            ) from None

    @property
    def parameter_names(self) -> Tuple[str, ...]:
        return tuple(p.name for p in self.parameters)

    @property
    def cross_product_size(self) -> int:
        """Size of the unconstrained cross product."""
        size = 1
        for p in self.parameters:
            size *= p.cardinality
        return size

    def validate(self, config: Config) -> None:
        """Raise ``ValueError`` unless ``config`` is a point of this space."""
        missing = set(self.parameter_names) - set(config)
        if missing:
            raise ValueError(f"configuration is missing {sorted(missing)}")
        extra = set(config) - set(self.parameter_names)
        if extra:
            raise ValueError(f"configuration has unknown keys {sorted(extra)}")
        for p in self.parameters:
            p.validate(config[p.name])
        for constraint in self.constraints:
            if not constraint.allows(config):
                raise ValueError(
                    f"configuration violates constraint {constraint!r}"
                )

    # ------------------------------------------------------------------
    # enumeration
    # ------------------------------------------------------------------
    def _satisfies(self, config: Config) -> bool:
        return all(c.allows(config) for c in self.constraints)

    def _materialize(self) -> List[IndexTuple]:
        if self._valid is None:
            valid: List[IndexTuple] = []
            ranges = [range(p.cardinality) for p in self.parameters]
            names = self.parameter_names
            values = [p.values for p in self.parameters]
            for idx in itertools.product(*ranges):
                config = {
                    name: values[pos][i]
                    for pos, (name, i) in enumerate(zip(names, idx))
                }
                if self._satisfies(config):
                    valid.append(idx)
            if not valid:
                raise ValueError(
                    f"design space {self.name!r} has no valid points; "
                    f"constraints are unsatisfiable"
                )
            self._valid = valid
            self._valid_lookup = {t: i for i, t in enumerate(valid)}
        return self._valid

    def __len__(self) -> int:
        """Number of valid points."""
        if not self.constraints:
            return self.cross_product_size
        return len(self._materialize())

    @property
    def size(self) -> int:
        return len(self)

    def indices_to_config(self, idx: Sequence[int]) -> Config:
        """Map a tuple of per-parameter value indices to a configuration."""
        if len(idx) != len(self.parameters):
            raise ValueError(
                f"expected {len(self.parameters)} indices, got {len(idx)}"
            )
        return {p.name: p.values[i] for p, i in zip(self.parameters, idx)}

    def config_to_indices(self, config: Config) -> IndexTuple:
        """Map a configuration to its tuple of per-parameter value indices."""
        return tuple(p.index_of(config[p.name]) for p in self.parameters)

    def config_at(self, i: int) -> Config:
        """Return the ``i``-th valid configuration in enumeration order."""
        if not self.constraints:
            return self.indices_to_config(self._unrank(i))
        valid = self._materialize()
        if not 0 <= i < len(valid):
            raise IndexError(f"index {i} out of range for size {len(valid)}")
        return self.indices_to_config(valid[i])

    def index_of(self, config: Config) -> int:
        """Return the enumeration index of ``config``."""
        idx = self.config_to_indices(config)
        if not self.constraints:
            return self._rank(idx)
        self._materialize()
        assert self._valid_lookup is not None
        try:
            return self._valid_lookup[idx]
        except KeyError:
            raise ValueError(
                f"configuration {config!r} is not a valid point of "
                f"{self.name!r}"
            ) from None

    def level_indices(self) -> np.ndarray:
        """Every valid point's per-parameter value indices, as one
        ``(N, P)`` integer grid in enumeration order: row ``i`` equals
        ``config_to_indices(config_at(i))``."""
        if not self.constraints:
            # the cross product in row-major order: np.indices lays out
            # each parameter's index grid, one row per parameter
            shape = tuple(p.cardinality for p in self.parameters)
            return np.indices(shape).reshape(len(shape), -1).T
        return np.asarray(self._materialize(), dtype=np.intp)

    def _rank(self, idx: IndexTuple) -> int:
        rank = 0
        for p, i in zip(self.parameters, idx):
            rank = rank * p.cardinality + i
        return rank

    def _unrank(self, rank: int) -> IndexTuple:
        if not 0 <= rank < self.cross_product_size:
            raise IndexError(
                f"index {rank} out of range for size {self.cross_product_size}"
            )
        out = []
        for p in reversed(self.parameters):
            out.append(rank % p.cardinality)
            rank //= p.cardinality
        return tuple(reversed(out))

    def __iter__(self) -> Iterator[Config]:
        """Iterate over every valid configuration in enumeration order."""
        if not self.constraints:
            ranges = [range(p.cardinality) for p in self.parameters]
            for idx in itertools.product(*ranges):
                yield self.indices_to_config(idx)
        else:
            for idx in self._materialize():
                yield self.indices_to_config(idx)

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def sample_indices(
        self,
        n: int,
        rng: np.random.Generator,
        exclude: Iterable[int] = (),
    ) -> List[int]:
        """Draw ``n`` distinct point indices uniformly at random.

        Parameters
        ----------
        n:
            Number of points to draw.
        rng:
            Numpy random generator (callers own seeding for repeatability).
        exclude:
            Point indices already drawn (e.g. the existing training set, so
            incremental rounds extend rather than resample).
        """
        excluded = set(exclude)
        available = len(self) - len(excluded)
        if n < 0:
            raise ValueError(f"cannot sample a negative count ({n})")
        if n > available:
            raise ValueError(
                f"cannot sample {n} distinct points; only {available} "
                f"remain in {self.name!r}"
            )
        if not excluded:
            return [int(i) for i in rng.choice(len(self), size=n, replace=False)]
        pool = np.array(
            [i for i in range(len(self)) if i not in excluded], dtype=np.int64
        )
        return [int(i) for i in rng.choice(pool, size=n, replace=False)]

    def sample(
        self,
        n: int,
        rng: np.random.Generator,
        exclude: Iterable[int] = (),
    ) -> List[Config]:
        """Like :meth:`sample_indices`, but returns configurations."""
        return [self.config_at(i) for i in self.sample_indices(n, rng, exclude)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DesignSpace({self.name!r}, {len(self.parameters)} parameters, "
            f"{len(self)} points)"
        )
