"""Crash-safe persistence of exploration progress.

At paper scale one design point costs days of simulation, so losing a
partially completed run to a host preemption is the single most
expensive failure mode the pipeline has.  This module persists enough
state to resume *bit-identically*:

* :func:`save_checkpoint` / :func:`load_checkpoint` /
  :func:`clear_checkpoint` — JSON payloads in a checksummed envelope,
  written atomically (:mod:`repro.obs.atomicio`) after rotating the
  previous good file to ``<path>.prev``; a load falls back to it when
  the primary is torn, bit-rotted or foreign.  Campaign manifests and
  service registries ride the same envelope.
* :class:`ExplorerCheckpoint` — the exploration loop's round state
  (samples, targets, estimates, predictor, agent state and the **RNG
  bit-generator state**, so a resumed run redraws exactly the batch the
  interrupted round would have drawn).  Its codec is plain JSON data,
  never a pickle, so a file is tied to :data:`CHECKPOINT_VERSION`, not
  to class layout.

All checkpoint activity is narrated as ``checkpoint.*`` telemetry
events and counters; the file format is documented in
``docs/robustness.md``.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..obs.atomicio import atomic_write_text
from ..obs.metrics import METRICS, MetricsRegistry
from ..obs.telemetry import NULL_TELEMETRY, RunTelemetry
from .ensemble import EnsemblePredictor
from .error import ErrorEstimate
from .persistence import predictor_arrays, predictor_from_arrays

#: schema of the :class:`ExplorerCheckpoint` payload; bump when its
#: fields change incompatibly (v2-v4 were pickles, v5 is JSON data)
CHECKPOINT_VERSION = 5

#: magic marking a file as one of ours
CHECKPOINT_FORMAT = "repro-json-checkpoint"

#: bump when the envelope layout changes incompatibly
ENVELOPE_VERSION = 1

PathLike = Union[str, Path]


def previous_path(path: PathLike) -> Path:
    """Where save rotation keeps the previous good checkpoint."""
    path = Path(path)
    return path.with_name(path.name + ".prev")


class CheckpointError(RuntimeError):
    """A checkpoint file exists but cannot be used.

    Raised on unreadable/corrupt payloads (when the caller asked for
    errors) and on resume-compatibility mismatches — resuming a
    memory-system exploration from a processor-study checkpoint is a
    user error worth failing loudly on, not silently restarting.
    """


# ----------------------------------------------------------------------
# the ExplorerCheckpoint codec
# ----------------------------------------------------------------------
#: JSON spellings of the non-finite floats a payload may carry (a
#: permanently failed evaluation is a NaN target; JSON has no NaN)
_NON_FINITE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}

#: JSON types per field (``None``: may be null; str: a non-finite float)
_NUMBER = (int, float, str)
_ESTIMATE = {
    "mean": _NUMBER, "std": _NUMBER, "n_training": (int,),
    "n_failed": (int,), "n_folds_used": (int,), "n_folds": (int,),
    "per_target": (list, None),
}
_PAYLOAD = {
    "version": (int,), "space_name": (str,), "space_size": (int,),
    "batch_size": (int,), "k": (int,), "target_error": _NUMBER,
    "max_simulations": (int,), "sampled_indices": (list,),
    "targets": (list,), "rounds": (list,), "rng_state": (dict, None),
    "predictor": (dict, None), "converged": (bool,), "agent": (str,),
    "agent_state": (dict, None), "target_rows": (list, None),
}


def _value(value: object, kinds: tuple, what: str) -> object:
    """``value`` when it has one of the JSON ``kinds`` (a bool is never
    a number); :class:`CheckpointError` otherwise."""
    types = tuple(kind for kind in kinds if kind is not None)
    if (value is None and None in kinds) or (
        isinstance(value, types) and isinstance(value, bool) == (bool in kinds)
    ):
        return value
    raise CheckpointError(f"checkpoint payload {what} is a {type(value).__name__}")


def _object(doc: object, schema: Dict[str, tuple]) -> Dict[str, object]:
    """``doc`` checked to hold every ``schema`` field with its type."""
    _value(doc, (dict,), "entry")
    for name, kinds in schema.items():
        if name not in doc:
            raise CheckpointError(f"checkpoint payload lacks field {name!r}")
        _value(doc[name], kinds, f"field {name!r}")
    return doc


def _encode_float(value: float) -> Union[float, str]:
    value = float(value)
    return value if math.isfinite(value) else repr(value)


def _decode_float(value: object) -> float:
    if isinstance(value, str) and value in _NON_FINITE:
        return _NON_FINITE[value]
    return float(_value(value, (int, float), "number"))


def _encode_estimate(estimate: ErrorEstimate) -> Dict[str, object]:
    doc = {name: getattr(estimate, name) for name in _ESTIMATE}
    doc.update(
        mean=_encode_float(estimate.mean),
        std=_encode_float(estimate.std),
        per_target=None if estimate.per_target is None else [
            {"name": name, **_encode_estimate(sub)}
            for name, sub in estimate.per_target
        ],
    )
    return doc


def _decode_estimate(doc: object) -> ErrorEstimate:
    doc = _object(doc, _ESTIMATE)
    fields = {name: doc[name] for name in _ESTIMATE}
    per_target = fields["per_target"]
    fields.update(
        mean=_decode_float(fields["mean"]),
        std=_decode_float(fields["std"]),
        per_target=None if per_target is None else tuple(
            (_object(sub, {"name": (str,)})["name"], _decode_estimate(sub))
            for sub in per_target
        ),
    )
    return ErrorEstimate(**fields)


def _encode_array(array: np.ndarray) -> Dict[str, object]:
    """An array as base64 of its raw little-endian bytes: exact."""
    array = array.astype(array.dtype.newbyteorder("<"), order="C", copy=False)
    return {
        "dtype": array.dtype.str,
        "shape": list(array.shape),
        "data": base64.b64encode(array.tobytes()).decode("ascii"),
    }


def _decode_predictor(doc: Dict[str, object]) -> EnsemblePredictor:
    try:
        arrays = {}
        for name, entry in doc.items():
            entry = _object(entry, {"dtype": (str,), "shape": (list,), "data": (str,)})
            raw = bytearray(base64.b64decode(entry["data"], validate=True))
            dtype = np.dtype(entry["dtype"])  # frombuffer refuses object dtypes
            arrays[name] = np.frombuffer(raw, dtype).reshape(entry["shape"])
        return predictor_from_arrays(arrays)
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint payload holds an unusable predictor: {exc!r}"
        ) from exc


@dataclass
class ExplorerCheckpoint:
    """Everything the exploration loop needs to resume a run.

    ``rng_state`` is the generator's ``bit_generator.state`` dict
    captured *after* the round's training finished — exactly the state
    the next round's batch would be drawn from.  ``predictor`` is the
    ensemble trained in the checkpointed round, so a run killed after
    its final round resumes to an identical result without retraining.
    ``rounds`` holds one ``(n_samples, estimate)`` pair per round.
    ``agent`` names the search strategy (resume refuses another one),
    and ``agent_state`` is its versioned ``{"version", "state"}`` slot
    (see :mod:`repro.search.protocol`).
    """

    version: int
    space_name: str
    space_size: int
    batch_size: int
    k: int
    target_error: float
    max_simulations: int
    sampled_indices: List[int] = field(default_factory=list)
    targets: List[float] = field(default_factory=list)
    rounds: List[Tuple[int, ErrorEstimate]] = field(default_factory=list)
    rng_state: Optional[Dict[str, object]] = None
    predictor: Optional[EnsemblePredictor] = None
    converged: bool = False
    agent: str = "random"
    agent_state: Optional[Dict[str, object]] = None
    #: a multi-target run's full target vectors (``targets`` holds the
    #: primary column); ``None`` for scalar runs
    target_rows: Optional[List[tuple]] = None

    def to_payload(self) -> Dict[str, object]:
        """The checkpoint as plain JSON data: non-finite floats spelled
        ``"nan"``/``"inf"``/``"-inf"``, predictor arrays in base64."""
        payload = {name: getattr(self, name) for name in _PAYLOAD}
        payload.update(
            target_error=_encode_float(self.target_error),
            sampled_indices=[int(i) for i in self.sampled_indices],
            targets=[_encode_float(v) for v in self.targets],
            rounds=[
                {"n_samples": int(n), "estimate": _encode_estimate(e)}
                for n, e in self.rounds
            ],
            predictor=None if self.predictor is None else {
                name: _encode_array(array)
                for name, array in predictor_arrays(self.predictor).items()
            },
            target_rows=None if self.target_rows is None else [
                [_encode_float(v) for v in row] for row in self.target_rows
            ],
        )
        return payload

    @classmethod
    def from_payload(cls, payload: object) -> "ExplorerCheckpoint":
        """Inverse of :meth:`to_payload`; :class:`CheckpointError` on a
        foreign payload, another schema version, or a bad field."""
        version = payload.get("version") if isinstance(payload, dict) else None
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint holds a {type(payload).__name__} of schema "
                f"version {version!r}, not an exploration state of version "
                f"{CHECKPOINT_VERSION}"
            )
        _object(payload, _PAYLOAD)
        state = {name: payload[name] for name in _PAYLOAD}
        rows, predictor = state["target_rows"], state["predictor"]
        round_ = {"n_samples": (int,), "estimate": (dict,)}
        state.update(
            target_error=_decode_float(state["target_error"]),
            sampled_indices=[
                _value(i, (int,), "sampled index")
                for i in state["sampled_indices"]
            ],
            targets=[_decode_float(v) for v in state["targets"]],
            rounds=[
                (r["n_samples"], _decode_estimate(r["estimate"]))
                for r in (_object(r, round_) for r in state["rounds"])
            ],
            predictor=(
                None if predictor is None else _decode_predictor(predictor)
            ),
            target_rows=None if rows is None else [
                tuple(_decode_float(v) for v in _value(row, (list,), "row"))
                for row in rows
            ],
        )
        return cls(**state)


# ----------------------------------------------------------------------
# the checksummed envelope
# ----------------------------------------------------------------------
def canonical_json(payload: object) -> str:
    """The canonical serialization checksums are computed over.

    Compact separators and sorted keys, so two semantically equal
    payloads always hash identically regardless of construction order.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def save_checkpoint(
    path: PathLike,
    payload: object,
    telemetry: Optional[RunTelemetry] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> None:
    """Persist a JSON-serializable ``payload`` to ``path`` atomically.

    An existing checkpoint is rotated to ``<path>.prev`` first, so one
    corrupted file costs one round, never the run.  Non-finite floats
    are rejected (``allow_nan=False``): they would break checksums.
    """
    telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
    metrics = metrics if metrics is not None else METRICS
    path = Path(path)
    body = canonical_json(payload)
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    # written around the payload's one canonical encoding (the string
    # the checksum covers), keys sorted: the file is canonical JSON
    text = (
        f'{{"format":{json.dumps(CHECKPOINT_FORMAT)},'
        f'"payload":{body},'
        f'"sha256":"{digest}",'
        f'"version":{ENVELOPE_VERSION}}}'
    )
    rotated = path.exists()
    if rotated:
        os.replace(path, previous_path(path))
    atomic_write_text(path, text + "\n")
    telemetry.emit(
        "checkpoint.save",
        path=str(path),
        bytes=path.stat().st_size,
        sha256=digest,
        rotated=rotated,
    )
    metrics.inc("checkpoint.saves")


def _read_envelope(path: Path) -> object:
    """Read one checkpoint file, verifying envelope and checksum.

    Raises :class:`CheckpointError` on *any* way the file can be bad:
    unreadable or not JSON (a torn write, a legacy pickle), not an
    envelope of ours, wrong envelope version, or a checksum mismatch
    (bit rot).
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            envelope = json.load(handle)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(
            f"checkpoint {path} exists but cannot be read: {exc!r}"
        ) from exc
    if (
        not isinstance(envelope, dict)
        or envelope.get("format") != CHECKPOINT_FORMAT
    ):
        raise CheckpointError(
            f"checkpoint {path} is not a {CHECKPOINT_FORMAT} envelope "
            "(legacy or foreign file)"
        )
    version = envelope.get("version")
    if version != ENVELOPE_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has envelope version {version!r}, "
            f"expected {ENVELOPE_VERSION}"
        )
    if "payload" not in envelope:
        raise CheckpointError(f"checkpoint {path} carries no payload")
    payload = envelope["payload"]
    digest = hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
    if digest != envelope.get("sha256"):
        raise CheckpointError(
            f"checkpoint {path} failed its checksum "
            f"(stored {envelope.get('sha256')!r}, computed {digest!r})"
        )
    return payload


def load_checkpoint(
    path: PathLike,
    telemetry: Optional[RunTelemetry] = None,
    metrics: Optional[MetricsRegistry] = None,
    strict: bool = True,
) -> Optional[object]:
    """Load the payload at ``path``; ``None`` when no checkpoint exists.

    Self-healing: when the primary file is unusable — or missing while
    ``<path>.prev`` exists (a crash between rotation and write) — the
    previous round's checkpoint is loaded instead, narrated as
    ``checkpoint.corrupt`` + ``checkpoint.fallback``.  Only when *both*
    files are unusable does the call raise :class:`CheckpointError`
    (``strict``, the explorer resume path — silently restarting an
    expensive run is worse than failing) or return ``None`` (lenient,
    the learning-curve path, where recomputing is cheap).
    """
    telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
    metrics = metrics if metrics is not None else METRICS
    path = Path(path)
    prev = previous_path(path)
    if not path.exists() and not prev.exists():
        telemetry.emit("checkpoint.miss", path=str(path))
        metrics.inc("checkpoint.misses")
        return None

    primary_error: Optional[CheckpointError] = None
    for candidate in (path, prev):
        if not candidate.exists():
            continue
        try:
            payload = _read_envelope(candidate)
        except CheckpointError as exc:
            if candidate is path:
                primary_error = exc
            telemetry.emit(
                "checkpoint.corrupt", path=str(candidate), error=str(exc)
            )
            metrics.inc("checkpoint.corrupt")
            continue
        if candidate is prev:
            telemetry.emit(
                "checkpoint.fallback",
                path=str(path),
                fallback=str(prev),
                reason=str(primary_error or "primary checkpoint missing"),
            )
            metrics.inc("checkpoint.fallbacks")
        else:
            telemetry.emit("checkpoint.load", path=str(path))
        metrics.inc("checkpoint.loads")
        return payload

    if strict:
        if primary_error is not None:
            raise primary_error
        raise CheckpointError(
            f"checkpoint {path} and its fallback {prev} are both unusable"
        )
    return None


def clear_checkpoint(
    path: PathLike,
    telemetry: Optional[RunTelemetry] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> None:
    """Remove a checkpoint (and its rotated ``.prev``) after the run it
    protects has completed."""
    telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
    metrics = metrics if metrics is not None else METRICS
    path = Path(path)
    try:
        previous_path(path).unlink()
    except FileNotFoundError:
        pass
    try:
        path.unlink()
    except FileNotFoundError:
        return
    telemetry.emit("checkpoint.clear", path=str(path))
    metrics.inc("checkpoint.clears")
