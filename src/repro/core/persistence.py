"""Saving and loading trained ensembles.

Sensitivity studies are long-lived: the architect trains a model once and
interrogates it for weeks.  ``save_predictor``/``load_predictor`` persist
an :class:`EnsemblePredictor` to a single ``.npz`` file — weights,
activations, target names and target scaling — with a format version
for forward compatibility.  No pickle is involved, so files are safe to
share.

Format v2 adds ``target_names`` and writes ``scaler_low``/``scaler_high``
as ``(n_networks, n_targets)`` arrays: one row of column ranges per
member, whether the members share one scaler or each fold scaled its
own rows.  Files holding the one shared scalar (0-d) range of v1 and of
earlier v2 writers still load.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from .encoding import TargetScaler
from .ensemble import EnsemblePredictor
from .network import FeedForwardNetwork

#: bump on incompatible format changes; v1 files still load
FORMAT_VERSION = 2


def predictor_arrays(predictor: EnsemblePredictor) -> Dict[str, np.ndarray]:
    """``predictor`` as the format's named arrays (the ``.npz`` entries,
    which round checkpoints embed too)."""
    arrays: Dict[str, np.ndarray] = {
        "format_version": np.array(FORMAT_VERSION),
        "n_networks": np.array(predictor.size),
        "target_names": np.array(predictor.target_names, dtype=str),
        "scaler_low": np.array([s.low for s in predictor.member_scalers]),
        "scaler_high": np.array([s.high for s in predictor.member_scalers]),
    }
    for i, network in enumerate(predictor.networks):
        arrays[f"net{i}_n_layers"] = np.array(network.n_layers)
        arrays[f"net{i}_hidden_activation"] = np.array(
            network.hidden_activation.name
        )
        arrays[f"net{i}_output_activation"] = np.array(
            network.output_activation.name
        )
        for layer, weights in enumerate(network.weights):
            arrays[f"net{i}_w{layer}"] = weights
    return arrays


def save_predictor(predictor: EnsemblePredictor, path: str) -> None:
    """Write ``predictor`` to ``path`` (``.npz``)."""
    np.savez_compressed(path, **predictor_arrays(predictor))


def _rebuild_network(data, index: int) -> FeedForwardNetwork:
    n_layers = int(data[f"net{index}_n_layers"])
    weights = [data[f"net{index}_w{layer}"] for layer in range(n_layers)]
    hidden_layers = tuple(w.shape[1] for w in weights[:-1])
    if not hidden_layers:
        raise ValueError(f"network {index} in file has no hidden layers")
    network = FeedForwardNetwork(
        n_inputs=weights[0].shape[0] - 1,
        hidden_layers=hidden_layers,
        n_outputs=weights[-1].shape[1],
        hidden_activation=str(data[f"net{index}_hidden_activation"]),
        output_activation=str(data[f"net{index}_output_activation"]),
        # init weights are overwritten below; a fixed seed avoids the
        # unseeded-generator warning on a fully deterministic path
        rng=np.random.default_rng(0),
    )
    network.set_weights(weights)
    return network


def _target_scaler(low: np.ndarray, high: np.ndarray) -> TargetScaler:
    scaler = TargetScaler()
    scaler.low = np.atleast_1d(np.asarray(low, dtype=np.float64))
    scaler.high = np.atleast_1d(np.asarray(high, dtype=np.float64))
    scaler._fitted = True
    return scaler


def predictor_from_arrays(data: Mapping[str, np.ndarray]) -> EnsemblePredictor:
    """Rebuild the ensemble :func:`predictor_arrays` described."""
    version = int(data["format_version"])
    if version not in (1, FORMAT_VERSION):
        raise ValueError(
            f"unsupported predictor format v{version}; this build "
            f"reads v1 and v{FORMAT_VERSION}"
        )
    low = data["scaler_low"]
    high = data["scaler_high"]
    if low.ndim == 0:
        scaler = _target_scaler(low, high)
    else:
        scaler = [_target_scaler(lo, hi) for lo, hi in zip(low, high)]
    target_names = (
        tuple(str(name) for name in data["target_names"])
        if "target_names" in data
        else ()
    )
    networks = [
        _rebuild_network(data, i) for i in range(int(data["n_networks"]))
    ]
    return EnsemblePredictor(
        networks=networks, scaler=scaler, target_names=target_names
    )


def load_predictor(path: str) -> EnsemblePredictor:
    """Read an ensemble previously written by :func:`save_predictor`."""
    with np.load(path, allow_pickle=False) as data:
        return predictor_from_arrays(data)
