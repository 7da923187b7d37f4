"""Activation functions for feed-forward networks.

The paper's hidden units use the sigmoid (Figure 3.2); any non-linear,
monotonic, differentiable function qualifies, so tanh is provided as an
alternative and the identity serves as the regression output unit.
Derivatives are expressed in terms of the activation *output*, which is
what backpropagation has in hand.  Both accept an ``out`` array, as
numpy ufuncs do: passing the input itself evaluates in place, with the
same values as the allocating call.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class Activation:
    """Interface: elementwise forward pass and derivative-from-output."""

    name = "abstract"

    def forward(
        self, x: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Elementwise activation of ``x``, into ``out`` when given."""
        raise NotImplementedError

    def derivative_from_output(
        self, y: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """d activation / d input, expressed via the output ``y``."""
        raise NotImplementedError


class Sigmoid(Activation):
    """Logistic sigmoid: sigma(x) = 1 / (1 + e^-x); sigma' = y (1 - y)."""

    name = "sigmoid"

    def forward(
        self, x: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Logistic function, numerically clipped."""
        # 1 / (1 + exp(-clip(x))) one operation at a time; clip keeps
        # exp() finite, and gradients there are ~0 anyway
        out = np.clip(x, -60.0, 60.0, out=out)
        np.negative(out, out=out)
        np.exp(out, out=out)
        out += 1.0
        return np.divide(1.0, out, out=out)

    def derivative_from_output(
        self, y: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """sigma' = y (1 - y)."""
        out = np.subtract(1.0, y, out=out)
        out *= y
        return out


class Tanh(Activation):
    """Hyperbolic tangent; tanh' = 1 - y^2."""

    name = "tanh"

    def forward(
        self, x: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Hyperbolic tangent."""
        return np.tanh(x, out=out)

    def derivative_from_output(
        self, y: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """tanh' = 1 - y^2."""
        out = np.multiply(y, y, out=out)
        return np.subtract(1.0, out, out=out)


class Identity(Activation):
    """Linear unit, used at the output layer for regression."""

    name = "identity"

    def forward(
        self, x: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Identity."""
        if out is None or out is x:
            return x
        np.copyto(out, x)
        return out

    def derivative_from_output(
        self, y: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Constant derivative of 1."""
        if out is None:
            return np.ones_like(y)
        out[...] = 1.0
        return out


_ACTIVATIONS = {cls.name: cls for cls in (Sigmoid, Tanh, Identity)}


def get_activation(name: str) -> Activation:
    """Look up an activation by name (``sigmoid``, ``tanh``, ``identity``)."""
    try:
        return _ACTIVATIONS[name]()
    except KeyError:
        raise ValueError(
            f"unknown activation {name!r}; choices: {sorted(_ACTIVATIONS)}"
        ) from None
