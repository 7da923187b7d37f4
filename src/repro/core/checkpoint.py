"""Crash-safe persistence of exploration progress.

At paper scale one design point costs days of simulation, so losing a
partially completed run to a host preemption is the single most
expensive failure mode the pipeline has.  This module persists enough
state to resume *bit-identically*:

* generic :func:`save_checkpoint` / :func:`load_checkpoint` /
  :func:`clear_checkpoint` primitives — pickled payloads written with
  the atomic write-temp-then-rename discipline of
  :mod:`repro.obs.atomicio`, so a checkpoint file is always either the
  previous complete round or the new complete round, never a torn
  write;
* :class:`ExplorerCheckpoint` — the exploration loop's round state:
  sampled design-space indices, simulated targets, the error-estimate
  trajectory, the trained predictor, and the **RNG bit-generator
  state**.  Restoring the generator state is what makes a resumed run
  redraw exactly the batch the interrupted round would have drawn, so
  checkpoint → kill → resume reproduces the uninterrupted
  :class:`~repro.core.explorer.ExplorationResult` exactly (tested).

Checkpoints are *self-healing* (since format v2): the payload pickle is
wrapped in an envelope carrying its sha256 checksum, every save rotates
the previous good checkpoint to ``<path>.prev``, and
:func:`load_checkpoint` falls back to the previous round when the
primary file fails its checksum, cannot be unpickled, or carries an
incompatible format version.  Losing one round to disk corruption beats
losing the run.

All checkpoint activity is narrated as ``checkpoint.*`` telemetry
events and counters.  The file format is documented in
``docs/robustness.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from ..obs.atomicio import atomic_write_pickle, atomic_write_text
from ..obs.metrics import METRICS, MetricsRegistry
from ..obs.telemetry import NULL_TELEMETRY, RunTelemetry

#: bump when the checkpoint layout changes incompatibly
#: (v2: checksummed envelope + ``.prev`` rotation; v3: predictors
#: hold column-wise :class:`~repro.core.encoding.TargetScaler` lists;
#: v4: networks pickle weights only, no momentum state)
CHECKPOINT_VERSION = 4

#: magic marking a file as one of ours, whatever pickle says
CHECKPOINT_FORMAT = "repro-checkpoint"

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


@dataclass
class ExplorerCheckpoint:
    """Everything the exploration loop needs to resume a run.

    ``rng_state`` is the generator's ``bit_generator.state`` dict
    captured *after* the round's training finished — i.e. exactly the
    state from which the next round's batch would be drawn.
    ``predictor`` is the ensemble trained in the checkpointed round, so
    a run that was killed after its final round resumes straight to an
    identical result without retraining.

    ``agent`` names the search strategy that drove the run (resume
    refuses a different one — swapping strategies mid-run would break
    bit-identity), and ``agent_state`` is the strategy's own
    checkpointable state in a versioned
    ``{"version": AGENT_STATE_VERSION, "state": {...}}`` envelope (see
    :mod:`repro.search.protocol`).  Both carry plain class-level
    defaults rather than factories so checkpoints pickled before the
    search layer existed still unpickle — they resume as the
    ``"random"`` strategy with no state, which is exactly what wrote
    them.
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
    rounds: List[object] = field(default_factory=list)
    rng_state: Optional[Dict[str, object]] = None
    predictor: Optional[object] = None
    converged: bool = False
    agent: str = "random"
    agent_state: Optional[Dict[str, object]] = None
    #: full per-point target vectors of a multi-target run (``targets``
    #: above always holds the primary column); ``None`` for scalar runs
    #: and for checkpoints written before multi-target studies existed
    target_rows: Optional[List[tuple]] = None

    @property
    def round_number(self) -> int:
        """Completed training rounds."""
        return len(self.rounds)


def save_checkpoint(
    path: PathLike,
    payload: object,
    telemetry: Optional[RunTelemetry] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> None:
    """Persist ``payload`` to ``path`` atomically, narrating the save.

    The payload pickle travels inside a checksummed envelope and an
    existing checkpoint is rotated to ``<path>.prev`` first, so one
    corrupted file costs one round, never the run.
    """
    telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
    metrics = metrics if metrics is not None else METRICS
    path = Path(path)
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    envelope = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "sha256": hashlib.sha256(blob).hexdigest(),
        "payload": blob,
    }
    rotated = path.exists()
    if rotated:
        os.replace(path, previous_path(path))
    atomic_write_pickle(path, envelope)
    telemetry.emit(
        "checkpoint.save",
        path=str(path),
        bytes=path.stat().st_size,
        kind=type(payload).__name__,
        sha256=envelope["sha256"],
        rotated=rotated,
    )
    metrics.inc("checkpoint.saves")


def _read_envelope(path: Path) -> object:
    """Read one checkpoint file, verifying envelope and checksum.

    Raises :class:`CheckpointError` on *any* way the file can be bad:
    unreadable, not an envelope (legacy/foreign format), wrong envelope
    version, checksum mismatch (bit rot / torn write) or an unpicklable
    payload.
    """
    try:
        with open(path, "rb") as handle:
            envelope = pickle.load(handle)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
            ImportError, IndexError) as exc:
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
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has envelope version {version!r}, "
            f"expected {CHECKPOINT_VERSION}"
        )
    blob = envelope.get("payload")
    if not isinstance(blob, bytes):
        raise CheckpointError(f"checkpoint {path} carries no payload")
    digest = hashlib.sha256(blob).hexdigest()
    if digest != envelope.get("sha256"):
        raise CheckpointError(
            f"checkpoint {path} failed its checksum "
            f"(stored {envelope.get('sha256')!r}, computed {digest!r})"
        )
    try:
        return pickle.loads(blob)
    except (pickle.UnpicklingError, EOFError, AttributeError,
            ImportError, IndexError) as exc:
        raise CheckpointError(
            f"checkpoint {path} payload cannot be unpickled: {exc!r}"
        ) from exc


def _load_resilient(
    path: Path,
    read: "Callable[[Path], object]",
    telemetry: RunTelemetry,
    metrics: MetricsRegistry,
    strict: bool,
) -> Optional[object]:
    """The shared primary-then-``.prev`` fallback discipline.

    ``read`` is whatever envelope reader (pickle or JSON) applies; it
    must raise :class:`CheckpointError` on every way a file can be bad.
    Narration and degradation semantics are identical for both formats.
    """
    prev = previous_path(path)
    if not path.exists() and not prev.exists():
        telemetry.emit("checkpoint.miss", path=str(path))
        metrics.inc("checkpoint.misses")
        return None

    primary_error: Optional[CheckpointError] = None
    if path.exists():
        try:
            payload = read(path)
        except CheckpointError as exc:
            primary_error = exc
            telemetry.emit(
                "checkpoint.corrupt", path=str(path), error=str(exc)
            )
            metrics.inc("checkpoint.corrupt")
        else:
            telemetry.emit(
                "checkpoint.load",
                path=str(path),
                kind=type(payload).__name__,
            )
            metrics.inc("checkpoint.loads")
            return payload

    if prev.exists():
        try:
            payload = read(prev)
        except CheckpointError as exc:
            telemetry.emit(
                "checkpoint.corrupt", path=str(prev), error=str(exc)
            )
            metrics.inc("checkpoint.corrupt")
        else:
            telemetry.emit(
                "checkpoint.fallback",
                path=str(path),
                fallback=str(prev),
                kind=type(payload).__name__,
                reason=(
                    str(primary_error)
                    if primary_error is not None
                    else "primary checkpoint missing"
                ),
            )
            metrics.inc("checkpoint.fallbacks")
            metrics.inc("checkpoint.loads")
            return payload

    if strict:
        if primary_error is not None:
            raise primary_error
        raise CheckpointError(
            f"checkpoint {path} and its fallback {prev} are both unusable"
        )
    return None


def load_checkpoint(
    path: PathLike,
    telemetry: Optional[RunTelemetry] = None,
    metrics: Optional[MetricsRegistry] = None,
    strict: bool = True,
) -> Optional[object]:
    """Load the payload at ``path``; ``None`` when no checkpoint exists.

    Self-healing: when the primary file is corrupt (checksum mismatch,
    unpicklable, wrong envelope version) — or missing while a rotated
    ``<path>.prev`` exists (a crash between rotation and write) — the
    previous round's checkpoint is loaded instead, narrated as
    ``checkpoint.corrupt`` + ``checkpoint.fallback``.  Only when *both*
    files are unusable does the call raise :class:`CheckpointError`
    (``strict``, the explorer resume path — silently restarting an
    expensive run is worse than failing) or degrade to ``None``
    (lenient, the learning-curve resume path, where recomputing is
    cheap relative to failing the whole sweep).
    """
    telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
    metrics = metrics if metrics is not None else METRICS
    return _load_resilient(
        Path(path), _read_envelope, telemetry, metrics, strict
    )


# ----------------------------------------------------------------------
# JSON checkpoints: the same discipline for human-readable state
# ----------------------------------------------------------------------
#: bump when the JSON envelope layout changes incompatibly
JSON_CHECKPOINT_VERSION = 1

#: magic marking a JSON file as one of ours
JSON_CHECKPOINT_FORMAT = "repro-json-checkpoint"


def canonical_json(payload: object) -> str:
    """The canonical serialization checksums are computed over.

    Compact separators and sorted keys, so two semantically equal
    payloads always hash identically regardless of construction order.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def save_json_checkpoint(
    path: PathLike,
    payload: object,
    telemetry: Optional[RunTelemetry] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> None:
    """Persist a JSON-serializable ``payload`` with checkpoint semantics.

    Same discipline as :func:`save_checkpoint` — checksummed envelope,
    atomic write, rotation of the previous good file to ``<path>.prev``
    — but the artifact stays a plain JSON document, so campaign
    manifests remain greppable while still being self-healing.  The
    file is compact: the envelope is written around the payload's
    :func:`canonical_json`, the same string the checksum covers, so a
    save encodes the payload once.  Non-finite floats are rejected
    (``allow_nan=False``): they would round-trip as invalid JSON and
    silently break checksums.
    """
    telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
    metrics = metrics if metrics is not None else METRICS
    path = Path(path)
    body = canonical_json(payload)
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    # the envelope is written around the one canonical encoding of the
    # payload, keys in sorted order: the whole file is compact JSON,
    # equal to canonical_json of the envelope, for one encoder pass
    text = (
        f'{{"format":{json.dumps(JSON_CHECKPOINT_FORMAT)},'
        f'"payload":{body},'
        f'"sha256":"{digest}",'
        f'"version":{JSON_CHECKPOINT_VERSION}}}'
    )
    rotated = path.exists()
    if rotated:
        os.replace(path, previous_path(path))
    atomic_write_text(path, text + "\n")
    telemetry.emit(
        "checkpoint.save",
        path=str(path),
        bytes=path.stat().st_size,
        kind=type(payload).__name__,
        sha256=digest,
        rotated=rotated,
    )
    metrics.inc("checkpoint.saves")


def _read_json_envelope(path: Path) -> object:
    """Read one JSON checkpoint, verifying envelope and checksum."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            envelope = json.load(handle)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(
            f"checkpoint {path} exists but cannot be read: {exc!r}"
        ) from exc
    if (
        not isinstance(envelope, dict)
        or envelope.get("format") != JSON_CHECKPOINT_FORMAT
    ):
        raise CheckpointError(
            f"checkpoint {path} is not a {JSON_CHECKPOINT_FORMAT} envelope "
            "(legacy or foreign file)"
        )
    version = envelope.get("version")
    if version != JSON_CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has envelope version {version!r}, "
            f"expected {JSON_CHECKPOINT_VERSION}"
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


def load_json_checkpoint(
    path: PathLike,
    telemetry: Optional[RunTelemetry] = None,
    metrics: Optional[MetricsRegistry] = None,
    strict: bool = True,
) -> Optional[object]:
    """Load a :func:`save_json_checkpoint` payload; ``None`` when absent.

    Fallback, narration and ``strict`` semantics are identical to
    :func:`load_checkpoint` — a corrupt manifest costs one cell of
    campaign progress (the rotated ``.prev`` round), never the
    campaign.
    """
    telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
    metrics = metrics if metrics is not None else METRICS
    return _load_resilient(
        Path(path), _read_json_envelope, telemetry, metrics, strict
    )


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
