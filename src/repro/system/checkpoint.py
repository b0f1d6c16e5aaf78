"""Checkpoint/resume and incremental sessions for the fleet engine.

:func:`~repro.system.fleet.run_fleet_lifetime_study` is an
all-or-nothing batch call: a machine reboot at epoch 719 of 720 loses
everything.  This module makes fleet state durable and incremental --
the foundation of the ROADMAP's streaming fleet-reliability service:

* **Snapshot format.**  One snapshot is a plain ``.npz`` archive (no
  pickled object arrays -- loadable with ``allow_pickle=False``)
  carrying the full advancing state of a
  :class:`~repro.system.fleet._FleetRun`: the stacked trap tensors and
  EM accumulators, the per-chip variation draws, the per-cohort
  policy/workload copies with their RNG positions and rotation
  cursors (pickled into a byte array, since they are arbitrary user
  objects), the demand/migration accumulators, the recorded timeline
  and the epoch cursor.  Every file embeds a JSON meta block with a
  **schema version** (strictly gated on load: a snapshot written
  under any other version is refused, never reinterpreted) and a
  SHA-256 **checksum** over the meta and every array's raw bytes, so
  torn or corrupt files fail loudly as
  :class:`~repro.errors.CheckpointError` instead of silently skewing
  a population.  Files are written to a temp name and ``os.replace``d
  into place, so a SIGKILL mid-write can never leave a corrupt file
  under the final name.

* **Chip-row packing.**  The chip-major state arrays (``bti/weights``,
  ``bti/occupancy``, ``bti/age_s``, ``bti/permanent_v``,
  ``em/progress_s``, ``em/nucleated``, ``em/void_reversible_m``,
  ``em/void_locked_m``) are stored as their distinct chips plus a
  ``(n_chips,)`` bool mask under ``<name>#repeat``: ``repeat[k]``
  marks chip ``k`` as bitwise equal to chip ``k - 1`` (raw bits, so
  ``-0.0`` and ``+0.0`` differ and a NaN matches only its own bits),
  and the stored array keeps only the chips with ``repeat`` false,
  in the live layout with fewer leading rows.  An identical fleet's
  trap state thus shrinks to one chip per run of equal chips; a varied
  fleet keeps every chip.  The checksum covers the packed bytes.  An
  entry without its mask is read as the full array, so snapshots
  written before packing still load; a mask that does not fit its
  array raises :class:`~repro.errors.CheckpointError`.

* **Checkpointed studies.**  ``run_fleet_lifetime_study(...,
  checkpoint_dir=..., checkpoint_every=...)`` makes every
  whole-lifetime row chunk crash-durable: finished chunks persist
  their :class:`~repro.system.fleet.FleetResult`, in-flight chunks
  snapshot their run every ``checkpoint_every`` epochs, and a
  directory ``manifest.json`` pins the study's SHA-256 fingerprint
  (:func:`study_digest`) so checkpoints can never be resumed into a
  *different* study.  Re-invoking the identical study -- or calling
  :func:`resume_fleet_lifetime_study` with just the directory --
  restores complete chunks and re-runs only the incomplete ones
  (through the pool's crash-safe machinery when parallel), with the
  merged result **bitwise-equal** to an uninterrupted run.

* **Incremental sessions.**  :class:`FleetSession` drives a fleet
  epoch-by-epoch without a pre-declared horizon: ``advance(n)``,
  quantile queries between calls, ``snapshot()`` / ``save()`` /
  ``restore()`` / ``load()`` for durable hand-off.  A session
  snapshot is self-contained (it embeds the session's construction
  spec), so ``FleetSession.load(path)`` rebuilds the session in a
  fresh process.

Bitwise invariance rests on one property, pinned by the checkpoint
tests: splitting ``_FleetRun.advance`` at any epoch boundary is
exact, because every cross-epoch input is either stored in the run
(cohort cursors, accumulators, records) or recomputed as the same
pure function of the stored aging state.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import types
import zipfile
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import units
from repro.bti.calibration import BtiCalibration
from repro.em.line import EmStressCondition
from repro.errors import CheckpointError, SimulationError
from repro.system.chip import Chip
from repro.system.fleet import (
    FleetGroup,
    FleetResult,
    FleetSimulator,
    FleetVariation,
    FleetVariationSpec,
    _ChunkCheckpoint,
    _FleetRun,
)
from repro.system.simulator import SchedulingPolicy, Workload
from repro.system.sweeps import ChipConfig

#: Snapshot schema this build writes and (exclusively) reads.  The
#: gate is strict: a snapshot stamped with any other version raises
#: :class:`~repro.errors.CheckpointError` on load rather than being
#: reinterpreted under the wrong layout.
CHECKPOINT_SCHEMA_VERSION = 1

_MAGIC = "repro.fleet.checkpoint"
_STUDY_MAGIC = "repro.fleet.checkpoint-study"
_PICKLE_PROTOCOL = 4
_DIGEST_MAGIC = b"repro.fleet.study-digest/canonical-1"

_RUN_KINDS = ("fleet-run", "fleet-session", "fleet-chunk-progress")


# -- snapshot primitives ----------------------------------------------------


def _canonical_meta_bytes(meta_full: Dict[str, Any]) -> bytes:
    """Deterministic JSON encoding of the full meta block."""
    return json.dumps(meta_full, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def _checksum(arrays: Dict[str, np.ndarray],
              meta_bytes: bytes) -> str:
    """SHA-256 over the meta bytes and every array's identity+bytes."""
    digest = hashlib.sha256()
    digest.update(meta_bytes)
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        digest.update(name.encode("utf-8"))
        digest.update(array.dtype.str.encode("ascii"))
        digest.update(repr(array.shape).encode("ascii"))
        # Hash the buffer in place -- identical bytes to tobytes()
        # for a contiguous array, without materialising a copy.
        # (Zero-size buffers refuse the cast and hash no bytes anyway.)
        if array.size:
            digest.update(memoryview(array).cast("B"))
    return digest.hexdigest()


def write_snapshot(path, arrays: Dict[str, np.ndarray],
                   meta: Dict[str, Any]) -> None:
    """Atomically write one versioned, checksummed ``.npz`` snapshot.

    ``arrays`` maps names to numpy arrays (stored raw, so every dtype
    round-trips bit-exactly); ``meta`` is a JSON-encodable dict.  The
    magic, schema version and SHA-256 checksum are embedded as
    reserved ``__meta__`` / ``__checksum__`` entries; the file lands
    via temp-name + ``os.replace``, so readers never observe a
    partial write.
    """
    path = os.fspath(path)
    for name, array in arrays.items():
        if name.startswith("__"):
            raise CheckpointError(
                f"array name {name!r} is reserved")
        if not isinstance(array, np.ndarray):
            raise CheckpointError(
                f"snapshot entry {name!r} is not an ndarray")
    meta_full = {"magic": _MAGIC,
                 "schema": CHECKPOINT_SCHEMA_VERSION,
                 "meta": meta}
    meta_bytes = _canonical_meta_bytes(meta_full)
    checksum = _checksum(arrays, meta_bytes)
    payload = dict(arrays)
    payload["__meta__"] = np.frombuffer(meta_bytes, dtype=np.uint8)
    payload["__checksum__"] = np.frombuffer(
        checksum.encode("ascii"), dtype=np.uint8)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as handle:
            np.savez(handle, **payload)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            try:
                os.remove(tmp)
            except OSError:
                pass


def read_snapshot(path) -> Tuple[Dict[str, np.ndarray],
                                 Dict[str, Any]]:
    """Read a snapshot back, verifying magic, schema and checksum.

    Returns ``(arrays, meta)``.  Raises
    :class:`~repro.errors.CheckpointError` for anything short of a
    pristine snapshot of this build's schema version: unreadable or
    truncated files, foreign files, corrupt payloads (checksum
    mismatch) and snapshots written under another schema version.
    """
    path = os.fspath(path)
    try:
        with np.load(path, allow_pickle=False) as data:
            names = list(data.files)
            if "__meta__" not in names:
                raise CheckpointError(
                    f"{path} is not a fleet checkpoint snapshot")
            meta_bytes = data["__meta__"].tobytes()
            meta_full = json.loads(meta_bytes)
            if meta_full.get("magic") != _MAGIC:
                raise CheckpointError(
                    f"{path} is not a fleet checkpoint snapshot")
            schema = meta_full.get("schema")
            if schema != CHECKPOINT_SCHEMA_VERSION:
                raise CheckpointError(
                    f"{path} was written under snapshot schema "
                    f"v{schema}; this build reads only "
                    f"v{CHECKPOINT_SCHEMA_VERSION}")
            stored = ""
            if "__checksum__" in names:
                stored = data["__checksum__"].tobytes().decode(
                    "ascii", errors="replace")
            arrays = {name: data[name] for name in names
                      if not name.startswith("__")}
    except CheckpointError:
        raise
    except (OSError, ValueError, KeyError,
            zipfile.BadZipFile, json.JSONDecodeError,
            UnicodeDecodeError) as error:
        raise CheckpointError(
            f"cannot read snapshot {path}: {error}") from error
    if _checksum(arrays, _canonical_meta_bytes(meta_full)) != stored:
        raise CheckpointError(
            f"checksum mismatch in {path}: snapshot is corrupt")
    return arrays, meta_full["meta"]


@dataclass
class FleetSnapshot:
    """An in-memory fleet snapshot: named arrays plus a meta block.

    The in-memory twin of one snapshot file --
    :meth:`FleetSession.snapshot` produces one, :meth:`save` /
    :meth:`load` move it through the versioned, checksummed ``.npz``
    format of :func:`write_snapshot` / :func:`read_snapshot`.
    """

    arrays: Dict[str, np.ndarray]
    meta: Dict[str, Any]

    def save(self, path) -> None:
        """Write the snapshot to ``path`` (atomic, checksummed)."""
        write_snapshot(path, self.arrays, self.meta)

    @classmethod
    def load(cls, path) -> "FleetSnapshot":
        """Read a snapshot file back (verifying schema + checksum)."""
        arrays, meta = read_snapshot(path)
        return cls(arrays=arrays, meta=meta)


# -- chip-row packing -------------------------------------------------------

#: Suffix of the mask entry that marks a packed array's repeated chips.
_REPEAT_SUFFIX = "#repeat"

#: Words (of the widest unsigned view) compared per block while
#: packing, so the compare temporaries stay small (~256 KiB).
_COMPARE_BLOCK_WORDS = 1 << 15


def _chip_state(state) -> Dict[str, np.ndarray]:
    """The live chip-major state arrays a snapshot stores packed."""
    bti, em = state.bti, state.em
    return {
        "bti/weights": bti.weights,
        "bti/occupancy": bti.occupancy,
        "bti/age_s": bti.age_s,
        "bti/permanent_v": bti.permanent_v,
        "em/progress_s": em.progress_s,
        "em/nucleated": em.nucleated,
        "em/void_reversible_m": em.void_reversible_m,
        "em/void_locked_m": em.void_locked_m,
    }


def _chip_words(chips: np.ndarray) -> np.ndarray:
    """``(n_chips, k)`` view of each chip's raw bytes as wide uints."""
    row_bytes = chips.shape[1] * chips.itemsize
    width = next(w for w in (8, 4, 2, 1) if row_bytes % w == 0)
    return chips.view(np.dtype(f"u{width}"))


def _pack_chip_rows(array: np.ndarray,
                    n_chips: int) -> Tuple[np.ndarray, np.ndarray]:
    """Split a chip-major array into its distinct chips and a mask.

    ``array`` holds ``n_chips`` equal-sized chip blocks along axis 0.
    Returns ``(kept, repeat)``: ``repeat[k]`` is ``True`` when chip
    ``k``'s bytes equal chip ``k - 1``'s (bitwise, so ``-0.0`` differs
    from ``+0.0`` and a NaN matches only the same NaN bits), and
    ``kept`` is a fresh array of the chips with ``repeat`` ``False``,
    in ``array``'s own layout with fewer leading rows.
    """
    chips = array.reshape(n_chips, -1)
    words = _chip_words(chips)
    repeat = np.zeros(n_chips, dtype=bool)
    step = max(1, _COMPARE_BLOCK_WORDS // words.shape[1])
    for start in range(1, n_chips, step):
        stop = min(start + step, n_chips)
        np.all(words[start:stop] == words[start - 1:stop - 1], axis=1,
               out=repeat[start:stop])
    kept = chips[~repeat]
    return kept.reshape((-1,) + array.shape[1:]), repeat


def _unpack_chip_rows(destination: np.ndarray, kept: np.ndarray,
                      repeat: np.ndarray, n_chips: int,
                      name: str) -> None:
    """Expand :func:`_pack_chip_rows` output into ``destination``.

    ``destination`` is a C-contiguous chip-major array of ``n_chips``
    chips, overwritten in place.  A mask that does not fit its array
    (wrong dtype or length, a first chip marked as a repeat, a kept
    row count other than the mask's) raises
    :class:`~repro.errors.CheckpointError`.
    """
    mask_name = name + _REPEAT_SUFFIX
    if repeat.dtype != np.bool_ or repeat.shape != (n_chips,):
        raise CheckpointError(
            f"snapshot mask {mask_name!r} has layout "
            f"{repeat.dtype}{repeat.shape}, run expects "
            f"bool({n_chips},)")
    if repeat[0]:
        raise CheckpointError(
            f"snapshot mask {mask_name!r} marks chip 0 as a repeat")
    n_kept = int(np.count_nonzero(~repeat))
    rows = destination.shape[0] // n_chips
    expected = (n_kept * rows,) + destination.shape[1:]
    if kept.dtype != destination.dtype or kept.shape != expected:
        raise CheckpointError(
            f"snapshot array {name!r} has layout "
            f"{kept.dtype}{kept.shape}, its mask expects "
            f"{destination.dtype}{expected}")
    chips = destination.reshape(n_chips, -1)
    # mode="clip" skips numpy's buffered bounds pass; the checks above
    # already keep every index inside ``kept``.
    np.take(kept.reshape(n_kept, -1), np.cumsum(~repeat) - 1, axis=0,
            out=chips, mode="clip")


# -- run state <-> snapshot -------------------------------------------------


def _snapshot_run(run: _FleetRun) -> FleetSnapshot:
    """Capture the full advancing state of a :class:`_FleetRun`."""
    simulator = run.simulator
    state = simulator.state
    bti, em, v = state.bti, state.em, state.variation
    n_chips = state.n_chips
    arrays: Dict[str, np.ndarray] = {}
    for name, live in _chip_state(state).items():
        arrays[name], arrays[name + _REPEAT_SUFFIX] = _pack_chip_rows(
            live, n_chips)
    arrays.update({
        "bti/time_s": np.array(bti.time_s, dtype=np.float64),
        "em/time_s": np.array(em.time_s, dtype=np.float64),
        "variation/capture_scale": v.capture_scale.copy(),
        "variation/recovery_scale": v.recovery_scale.copy(),
        "variation/em_current_scale": v.em_current_scale.copy(),
        "run/migration_events": run.migration_events.copy(),
        "run/total_demand": run.total_demand.copy(),
        "run/total_dropped": run.total_dropped.copy(),
        "run/times": np.array(run.times, dtype=np.float64),
        "run/worst": (np.array(run.worst) if run.worst
                      else np.zeros((0, n_chips))),
        "run/mean": (np.array(run.mean) if run.mean
                     else np.zeros((0, n_chips))),
        "run/dropped": (np.array(run.dropped) if run.dropped
                        else np.zeros((0, n_chips))),
        "cohorts/state": np.frombuffer(
            pickle.dumps([(c.workload, c.policy)
                          for c in run.cohorts],
                         protocol=_PICKLE_PROTOCOL),
            dtype=np.uint8),
    })
    has_previous_utilization: List[bool] = []
    for index, cohort in enumerate(run.cohorts):
        arrays[f"cohort{index}/previous_recovering"] = \
            np.asarray(cohort.previous_recovering).copy()
        has_util = cohort.previous_utilization is not None
        has_previous_utilization.append(has_util)
        if has_util:
            arrays[f"cohort{index}/previous_utilization"] = \
                np.asarray(cohort.previous_utilization).copy()
    if run.cohort_temps is not None:
        for index, (_, _, temps) in enumerate(run.cohort_temps):
            arrays[f"readout/temps{index}"] = \
                np.asarray(temps, dtype=np.float64).copy()
    meta = {
        "kind": "fleet-run",
        "epoch": int(run.epoch),
        "n_epochs": (None if run.n_epochs is None
                     else int(run.n_epochs)),
        "record_every": int(run.record_every),
        "n_chips": int(n_chips),
        "n_cores": int(state.n_cores),
        "n_cohorts": len(run.cohorts),
        "cohort_bounds": [[int(c.start), int(c.stop)]
                          for c in run.cohorts],
        "has_previous_utilization": has_previous_utilization,
        "has_readout": run.cohort_temps is not None,
        "state_dtype": state.state_dtype.str,
        "epoch_s": float(simulator.epoch_s),
    }
    return FleetSnapshot(arrays=arrays, meta=meta)


def _copy_exact(destination: np.ndarray, source: np.ndarray,
                name: str) -> None:
    """Overwrite ``destination`` in place after a strict layout check."""
    if (destination.shape != source.shape
            or destination.dtype != source.dtype):
        raise CheckpointError(
            f"snapshot array {name!r} has layout "
            f"{source.dtype}{source.shape}, run expects "
            f"{destination.dtype}{destination.shape}")
    destination[...] = source


def _restore_run(run: _FleetRun, snapshot: FleetSnapshot) -> None:
    """Overwrite a freshly built :class:`_FleetRun` from a snapshot.

    ``run`` must have been constructed for the same study (geometry,
    cohort layout, cadence, dtype) and not yet advanced; every
    mismatch raises :class:`~repro.errors.CheckpointError` rather
    than producing a silently different trajectory.
    """
    arrays, meta = snapshot.arrays, snapshot.meta
    if meta.get("kind") not in _RUN_KINDS:
        raise CheckpointError(
            f"snapshot kind {meta.get('kind')!r} is not a fleet run")
    state = run.simulator.state
    expectations = (
        ("n_chips", state.n_chips),
        ("n_cores", state.n_cores),
        ("record_every", run.record_every),
        ("n_epochs", run.n_epochs),
        ("n_cohorts", len(run.cohorts)),
        ("cohort_bounds", [[c.start, c.stop] for c in run.cohorts]),
        ("state_dtype", state.state_dtype.str),
        ("epoch_s", float(run.simulator.epoch_s)),
    )
    for key, expected in expectations:
        if meta.get(key) != expected:
            raise CheckpointError(
                f"snapshot {key}={meta.get(key)!r} does not match "
                f"the run's {key}={expected!r}")
    bti, em = state.bti, state.em
    run.delta_vth = None  # derived from the state about to be replaced
    try:
        for name, live in _chip_state(state).items():
            repeat = arrays.get(name + _REPEAT_SUFFIX)
            if repeat is None:  # a full array, as written before packing
                _copy_exact(live, arrays[name], name)
            else:
                _unpack_chip_rows(live, arrays[name], repeat,
                                  state.n_chips, name)
        bti.time_s = float(arrays["bti/time_s"])
        em.time_s = float(arrays["em/time_s"])
        variation = state.variation
        _copy_exact(variation.capture_scale,
                    arrays["variation/capture_scale"],
                    "variation/capture_scale")
        _copy_exact(variation.recovery_scale,
                    arrays["variation/recovery_scale"],
                    "variation/recovery_scale")
        _copy_exact(variation.em_current_scale,
                    arrays["variation/em_current_scale"],
                    "variation/em_current_scale")
        _copy_exact(run.migration_events,
                    arrays["run/migration_events"],
                    "run/migration_events")
        _copy_exact(run.total_demand, arrays["run/total_demand"],
                    "run/total_demand")
        _copy_exact(run.total_dropped, arrays["run/total_dropped"],
                    "run/total_dropped")
        run.times = [float(stamp) for stamp in arrays["run/times"]]
        run.worst = [np.array(row) for row in arrays["run/worst"]]
        run.mean = [np.array(row) for row in arrays["run/mean"]]
        run.dropped = [np.array(row)
                       for row in arrays["run/dropped"]]
        pairs = pickle.loads(arrays["cohorts/state"].tobytes())
        if len(pairs) != len(run.cohorts):
            raise CheckpointError(
                "snapshot cohort state does not match the run's "
                "cohort layout")
        has_util = meta["has_previous_utilization"]
        for index, cohort in enumerate(run.cohorts):
            workload, policy = pairs[index]
            cohort.workload = workload
            cohort.policy = policy
            cohort.previous_recovering = arrays[
                f"cohort{index}/previous_recovering"].copy()
            if has_util[index]:
                cohort.previous_utilization = arrays[
                    f"cohort{index}/previous_utilization"].copy()
            else:
                cohort.previous_utilization = None
        if meta["has_readout"]:
            run.cohort_temps = [
                (cohort.start, cohort.stop,
                 arrays[f"readout/temps{index}"].copy())
                for index, cohort in enumerate(run.cohorts)]
        else:
            run.cohort_temps = None
    except KeyError as error:
        raise CheckpointError(
            f"snapshot is missing array {error}") from error
    except pickle.UnpicklingError as error:
        raise CheckpointError(
            f"snapshot cohort state is corrupt: {error}") from error
    run.epoch = int(meta["epoch"])


# -- chunk result <-> snapshot ----------------------------------------------

_RESULT_FIELDS = (
    "times_s", "worst_degradation", "mean_degradation",
    "dropped_demand", "final_delta_vth_v", "final_permanent_vth_v",
    "final_em_drift_ohm", "em_failures", "migration_events",
    "total_demand", "total_dropped_demand",
)

_VARIATION_FIELDS = ("capture_scale", "recovery_scale",
                     "em_current_scale")


def _result_to_arrays(result: FleetResult) -> Dict[str, np.ndarray]:
    """Flatten a :class:`FleetResult` into named snapshot arrays."""
    arrays = {f"result/{name}": getattr(result, name)
              for name in _RESULT_FIELDS}
    for name in _VARIATION_FIELDS:
        arrays[f"variation/{name}"] = getattr(result.variation, name)
    return arrays


def _arrays_to_result(arrays: Dict[str, np.ndarray],
                      n_epochs: int) -> FleetResult:
    """Rebuild a :class:`FleetResult` from its snapshot arrays."""
    try:
        fields = {name: arrays[f"result/{name}"]
                  for name in _RESULT_FIELDS}
        variation = FleetVariation(**{
            name: arrays[f"variation/{name}"]
            for name in _VARIATION_FIELDS})
    except KeyError as error:
        raise CheckpointError(
            f"chunk result is missing array {error}") from error
    return FleetResult(variation=variation, n_epochs=n_epochs,
                       **fields)


def _result_path(ckpt: _ChunkCheckpoint, index: int) -> str:
    return os.path.join(ckpt.directory,
                        f"chunk-{index:05d}.result.npz")


def _progress_path(ckpt: _ChunkCheckpoint, index: int) -> str:
    return os.path.join(ckpt.directory,
                        f"chunk-{index:05d}.progress.npz")


def save_chunk_result(ckpt: _ChunkCheckpoint, index: int,
                      result: FleetResult) -> None:
    """Persist one chunk's finished result; drops its progress file."""
    meta = {"kind": "fleet-chunk-result", "digest": ckpt.digest,
            "chunk_index": int(index),
            "n_epochs": int(result.n_epochs)}
    write_snapshot(_result_path(ckpt, index),
                   _result_to_arrays(result), meta)
    try:
        os.remove(_progress_path(ckpt, index))
    except OSError:
        pass


def load_chunk_result(ckpt: _ChunkCheckpoint,
                      index: int) -> Optional[FleetResult]:
    """The chunk's persisted result, or ``None`` if not finished."""
    path = _result_path(ckpt, index)
    if not os.path.exists(path):
        return None
    arrays, meta = read_snapshot(path)
    if (meta.get("kind") != "fleet-chunk-result"
            or meta.get("chunk_index") != index):
        raise CheckpointError(
            f"{path} is not the result of chunk {index}")
    if meta.get("digest") != ckpt.digest:
        raise CheckpointError(
            f"{path} belongs to a different study "
            "(fingerprint mismatch)")
    return _arrays_to_result(arrays, int(meta["n_epochs"]))


def save_chunk_progress(ckpt: _ChunkCheckpoint, index: int,
                        run: _FleetRun) -> None:
    """Snapshot one chunk's in-flight run (atomic overwrite)."""
    snapshot = _snapshot_run(run)
    snapshot.meta["kind"] = "fleet-chunk-progress"
    snapshot.meta["digest"] = ckpt.digest
    snapshot.meta["chunk_index"] = int(index)
    write_snapshot(_progress_path(ckpt, index), snapshot.arrays,
                   snapshot.meta)


def resume_chunk_run(ckpt: _ChunkCheckpoint, index: int,
                     run: _FleetRun) -> bool:
    """Restore a chunk run from its progress snapshot, if one exists.

    Returns ``True`` when the run was fast-forwarded (its epoch
    cursor now sits at the snapshot's epoch); ``False`` when no
    progress snapshot exists and the run starts from epoch 0.
    """
    path = _progress_path(ckpt, index)
    if not os.path.exists(path):
        return False
    arrays, meta = read_snapshot(path)
    if (meta.get("kind") != "fleet-chunk-progress"
            or meta.get("chunk_index") != index):
        raise CheckpointError(
            f"{path} is not the progress of chunk {index}")
    if meta.get("digest") != ckpt.digest:
        raise CheckpointError(
            f"{path} belongs to a different study "
            "(fingerprint mismatch)")
    _restore_run(run, FleetSnapshot(arrays=arrays, meta=meta))
    return True


# -- study directories ------------------------------------------------------


def _feed(digest, tag: bytes, payload: bytes = b"") -> None:
    """Hash one length-prefixed, tagged token."""
    digest.update(tag + len(payload).to_bytes(8, "little"))
    digest.update(payload)


def _qualified_name(obj) -> bytes:
    return (f"{getattr(obj, '__module__', None)}."
            f"{getattr(obj, '__qualname__', None)}").encode("utf-8")


def _canonical_digest(value, ancestors: Dict[int, int]) -> bytes:
    digest = hashlib.sha256()
    _canonical_feed(digest, value, ancestors)
    return digest.digest()


def _canonical_feed(digest, value, ancestors: Dict[int, int]) -> None:
    """Hash ``value``'s canonical encoding into ``digest``.

    Equal values encode to equal bytes however their objects are
    shared: dataclasses by type and fields (then any other instance
    attributes, by name), arrays by dtype, shape and raw bytes, floats
    by :meth:`float.hex`, dicts and sets in sorted order, numpy
    generators by their bit-generator state, and any other object
    through its ``__reduce_ex__`` parts.  A reference back to an
    enclosing object (a cycle) encodes as its depth.
    """
    if value is None:
        _feed(digest, b"N")
    elif isinstance(value, bool):
        _feed(digest, b"b", b"1" if value else b"0")
    elif isinstance(value, np.generic):  # np.float64 is also a float
        _feed(digest, b"g", value.dtype.str.encode("ascii"))
        _feed(digest, b"", value.tobytes())
    elif isinstance(value, int):
        _feed(digest, b"i", str(int(value)).encode("ascii"))
    elif isinstance(value, float):
        _feed(digest, b"f", float(value).hex().encode("ascii"))
    elif isinstance(value, str):
        _feed(digest, b"s", value.encode("utf-8", "surrogatepass"))
    elif isinstance(value, (bytes, bytearray)):
        _feed(digest, b"y", bytes(value))
    elif isinstance(value, (type, types.FunctionType,
                            types.BuiltinFunctionType)):
        _feed(digest, b"t", _qualified_name(value))
    elif id(value) in ancestors:
        depth = len(ancestors) - ancestors[id(value)]
        _feed(digest, b"^", str(depth).encode("ascii"))
    else:
        ancestors[id(value)] = len(ancestors)
        try:
            _canonical_feed_object(digest, value, ancestors)
        finally:
            del ancestors[id(value)]


def _canonical_feed_object(digest, value,
                           ancestors: Dict[int, int]) -> None:
    """The container and object cases of :func:`_canonical_feed`."""
    def feed(item):
        _canonical_feed(digest, item, ancestors)

    def feed_sorted(tag: bytes, items) -> None:
        _feed(digest, tag, str(len(items)).encode("ascii"))
        for item in sorted(items):
            _feed(digest, b"", item)

    if isinstance(value, np.ndarray):
        _feed(digest, b"a", f"{value.dtype.str}{value.shape}"
              .encode("utf-8"))
        if value.dtype.hasobject:
            for item in value.ravel():
                feed(item)
        else:
            _feed(digest, b"", value.tobytes())
    elif type(value) in (tuple, list):
        _feed(digest, b"(" if type(value) is tuple else b"[",
              str(len(value)).encode("ascii"))
        for item in value:
            feed(item)
    elif type(value) is dict:
        feed_sorted(b"{", [
            _canonical_digest(key, ancestors)
            + _canonical_digest(item, ancestors)
            for key, item in value.items()])
    elif type(value) in (set, frozenset):
        feed_sorted(b"S", [_canonical_digest(item, ancestors)
                           for item in value])
    elif dataclasses.is_dataclass(value):
        _feed(digest, b"D", _qualified_name(type(value)))
        names = []
        for field in dataclasses.fields(value):
            names.append(field.name)
            _feed(digest, b"k", field.name.encode("utf-8"))
            feed(getattr(value, field.name))
        extra = {name: item
                 for name, item in getattr(value, "__dict__", {}).items()
                 if name not in names}
        feed(extra)
    elif isinstance(value, np.random.Generator):
        bit_generator = value.bit_generator
        _feed(digest, b"R", _qualified_name(type(bit_generator)))
        feed(bit_generator.state)
    else:
        try:
            reduced = value.__reduce_ex__(_PICKLE_PROTOCOL)
        except Exception as error:
            raise CheckpointError(
                "checkpointing requires a picklable study (chip "
                f"config, groups, variation, calibration): {error}"
            ) from error
        _feed(digest, b"O", _qualified_name(type(value)))
        if isinstance(reduced, str):  # a module-level singleton
            _feed(digest, b"", reduced.encode("utf-8"))
            return
        reduced = tuple(reduced) + (None,) * (5 - len(reduced))
        constructor, args, state, list_items, dict_items = reduced[:5]
        feed(constructor)
        feed(tuple(args))
        feed(state)
        feed(None if list_items is None else list(list_items))
        feed(None if dict_items is None else dict(dict_items))


def _study_fields(chip, groups, n_epochs, epoch_s, record_every,
                  variation, seed, calibration, em_reference,
                  state_dtype, bounds) -> tuple:
    """The result-determining inputs of a study, as one tuple."""
    return (chip, tuple(groups), int(n_epochs), float(epoch_s),
            int(record_every), variation, int(seed), calibration,
            em_reference, str(state_dtype),
            tuple((int(b.start), int(b.stop)) for b in bounds))


def study_digest(chip: ChipConfig, groups: Sequence[FleetGroup],
                 n_epochs: int, epoch_s: float, record_every: int,
                 variation, seed: int,
                 calibration: Optional[BtiCalibration],
                 em_reference: Optional[EmStressCondition],
                 state_dtype: str, bounds) -> str:
    """SHA-256 fingerprint of a study's result-determining inputs.

    Covers everything that shapes the bitwise result -- the chip
    config, group layout (with each template's initial state),
    horizon, cadence, variation, seed, calibration, EM reference,
    state dtype and the chunk partition -- and deliberately excludes
    pure execution knobs (worker count, pool gates, retries,
    checkpoint cadence), which may change freely between interrupt
    and resume.  Every checkpoint file carries the digest, and loads
    refuse files whose digest differs, so a directory can never leak
    state between different studies.

    The digest hashes a canonical encoding (see
    :func:`_canonical_feed`), not pickle bytes: pickle output depends
    on which objects the study shares, so two equal studies could
    digest differently.
    """
    digest = hashlib.sha256(_DIGEST_MAGIC)
    _canonical_feed(digest, _study_fields(
        chip, groups, n_epochs, epoch_s, record_every, variation, seed,
        calibration, em_reference, state_dtype, bounds), {})
    return digest.hexdigest()


def _pickled_study_digest(*study) -> str:
    """The pickle-byte digest that older study manifests carry."""
    payload = pickle.dumps(_study_fields(*study),
                           protocol=_PICKLE_PROTOCOL)
    return hashlib.sha256(payload).hexdigest()


def _load_manifest(path: str) -> Dict[str, Any]:
    """Read and gate a study ``manifest.json``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise CheckpointError(
            f"cannot read study manifest {path}: {error}") from error
    if manifest.get("magic") != _STUDY_MAGIC:
        raise CheckpointError(
            f"{path} is not a fleet checkpoint manifest")
    schema = manifest.get("schema")
    if schema != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointError(
            f"{path} was written under checkpoint schema "
            f"v{schema}; this build reads only "
            f"v{CHECKPOINT_SCHEMA_VERSION}")
    return manifest


def prepare_study_directory(directory, *, every: Optional[int],
                            chip: ChipConfig,
                            groups: Sequence[FleetGroup],
                            n_epochs: int, epoch_s: float,
                            record_every: int, variation, seed: int,
                            calibration: Optional[BtiCalibration],
                            em_reference: Optional[EmStressCondition],
                            state_dtype: str, bounds,
                            max_chunk_chips: Optional[int],
                            state_budget_bytes: Optional[int]
                            ) -> _ChunkCheckpoint:
    """Create (or re-open) a study's checkpoint directory.

    First invocation writes ``manifest.json`` (magic, schema version,
    study digest, geometry) plus ``study.pkl`` -- the pickled
    re-invocation spec :func:`resume_fleet_lifetime_study` replays.
    Re-opening verifies the manifest's schema and digest, so resuming
    a *different* study against an existing directory fails loudly
    instead of mixing state.  A manifest written under the older
    pickle-byte digest is accepted when the study's pickle-byte digest
    matches it, and the directory keeps that digest.  The spec is
    pickled up front, so an unpicklable study is refused before any
    file is written.
    """
    if every is not None and every < 1:
        raise SimulationError(
            "checkpoint_every must be at least 1")
    directory = os.fspath(directory)
    spec = {
        "chip": chip,
        "kwargs": {
            "groups": tuple(groups),
            "n_epochs": int(n_epochs),
            "epoch_s": float(epoch_s),
            "record_every": int(record_every),
            "variation": variation,
            "seed": int(seed),
            "calibration": calibration,
            "em_reference": em_reference,
            "state_dtype": str(state_dtype),
            "max_chunk_chips": max_chunk_chips,
            "state_budget_bytes": state_budget_bytes,
            "checkpoint_every": every,
        },
    }
    try:
        spec_bytes = pickle.dumps(spec, protocol=_PICKLE_PROTOCOL)
    except Exception as error:
        raise CheckpointError(
            "checkpointing requires a picklable study (chip config, "
            f"groups, variation, calibration): {error}") from error
    study = (chip, groups, n_epochs, epoch_s, record_every, variation,
             seed, calibration, em_reference, state_dtype, bounds)
    digest = study_digest(*study)
    os.makedirs(directory, exist_ok=True)
    manifest_path = os.path.join(directory, "manifest.json")
    if os.path.exists(manifest_path):
        manifest = _load_manifest(manifest_path)
        stored = manifest.get("digest")
        if (stored != digest
                and stored != _pickled_study_digest(*study)):
            raise CheckpointError(
                f"{directory} holds checkpoints of a different "
                "study (fingerprint mismatch); use a fresh "
                "directory or re-invoke the original study")
        # A directory written under the older pickle-byte digest
        # keeps it, so its chunk files still match.
        digest = stored
    else:
        manifest = {
            "magic": _STUDY_MAGIC,
            "schema": CHECKPOINT_SCHEMA_VERSION,
            "digest": digest,
            "n_chips": int(bounds[-1].stop),
            "n_chunks": len(bounds),
            "n_epochs": int(n_epochs),
            "record_every": int(record_every),
            "state_dtype": str(state_dtype),
            "checkpoint_every": every,
        }
        spec_path = os.path.join(directory, "study.pkl")
        tmp = f"{spec_path}.tmp.{os.getpid()}"
        with open(tmp, "wb") as handle:
            handle.write(spec_bytes)
        os.replace(tmp, spec_path)
        tmp = f"{manifest_path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=1, sort_keys=True)
        os.replace(tmp, manifest_path)
    return _ChunkCheckpoint(directory=directory, every=every,
                            digest=digest)


def resume_fleet_lifetime_study(checkpoint_dir, *,
                                max_workers: Optional[int] = None,
                                min_chunks_for_pool: Optional[
                                    int] = None,
                                retries: int = 0,
                                on_report=None) -> FleetResult:
    """Resume a killed checkpointed study from its directory alone.

    Replays the exact study pinned in the directory's ``study.pkl``
    (written by the original
    :func:`~repro.system.fleet.run_fleet_lifetime_study` call):
    complete chunks load from their result files, incomplete ones
    continue from their newest progress snapshot, and the merged
    :class:`~repro.system.fleet.FleetResult` is bitwise-equal to the
    uninterrupted run.  Execution knobs (``max_workers``,
    ``min_chunks_for_pool``, ``retries``, ``on_report``) are free to
    differ from the original invocation -- they do not affect the
    result.
    """
    from repro.system import fleet as fleet_mod
    directory = os.fspath(checkpoint_dir)
    manifest_path = os.path.join(directory, "manifest.json")
    if not os.path.exists(manifest_path):
        raise CheckpointError(
            f"{directory} has no study manifest; nothing to resume")
    _load_manifest(manifest_path)
    spec_path = os.path.join(directory, "study.pkl")
    if not os.path.exists(spec_path):
        raise CheckpointError(
            f"{directory} has no study spec; re-invoke "
            "run_fleet_lifetime_study with the original arguments "
            "and checkpoint_dir to resume")
    try:
        with open(spec_path, "rb") as handle:
            spec = pickle.load(handle)
    except Exception as error:
        raise CheckpointError(
            f"cannot read study spec {spec_path}: {error}"
        ) from error
    kwargs = dict(spec["kwargs"])
    return fleet_mod.run_fleet_lifetime_study(
        spec["chip"], checkpoint_dir=directory,
        max_workers=max_workers,
        min_chunks_for_pool=min_chunks_for_pool, retries=retries,
        on_report=on_report, **kwargs)


# -- incremental sessions ---------------------------------------------------


class FleetSession:
    """Incremental fleet simulation: advance, query, snapshot, resume.

    The streaming counterpart of
    :func:`~repro.system.fleet.run_fleet_lifetime_study`: instead of
    pre-declaring a lifetime horizon, the caller advances the
    population epoch-by-epoch, queries live telemetry between calls,
    and can persist the full state at any point::

        session = FleetSession((3, 3), 64, workload, policy,
                               record_every=4)
        session.advance(24)
        p99 = session.guardband_quantile(0.99)
        session.save("fleet.npz")            # durable hand-off
        ...
        session = FleetSession.load("fleet.npz")   # fresh process
        session.advance(24)                  # bitwise-continues

    A session snapshot is self-contained: it embeds the construction
    spec (chip config, groups, cadence, calibration) alongside the
    advancing state, so :meth:`load` rebuilds the session without the
    original arguments.  Because the horizon is open-ended, records
    follow the ``record_every`` modulo rule only; results and
    guardbands therefore reflect the epochs recorded so far plus the
    live (current-epoch) degradation.
    """

    def __init__(self, chip: Union[Chip, ChipConfig,
                                   Tuple[int, int]],
                 n_chips: Optional[int] = None,
                 workload: Optional[Workload] = None,
                 policy: Optional[SchedulingPolicy] = None,
                 *,
                 groups: Optional[Sequence[FleetGroup]] = None,
                 epoch_s: float = units.hours(1.0),
                 record_every: int = 1,
                 variation: Union[FleetVariation, FleetVariationSpec,
                                  None] = None,
                 seed: int = 0,
                 calibration: Optional[BtiCalibration] = None,
                 em_reference: Optional[EmStressCondition] = None,
                 state_dtype=np.float64):
        if isinstance(chip, Chip):
            built = chip
        elif isinstance(chip, ChipConfig):
            built = chip.build()
        else:
            rows, cols = chip
            built = Chip(int(rows), int(cols))
        if isinstance(chip, ChipConfig):
            config = chip
        else:
            config = ChipConfig(rows=built.rows, cols=built.cols,
                                core=built.core,
                                thermal=built.thermal.config)
        if groups is None:
            if n_chips is None or workload is None or policy is None:
                raise SimulationError(
                    "provide n_chips, workload and policy, or groups")
            groups = (FleetGroup(n_chips=n_chips, workload=workload,
                                 policy=policy),)
        else:
            if workload is not None or policy is not None:
                raise SimulationError(
                    "groups and workload/policy are mutually "
                    "exclusive")
            groups = tuple(groups)
            total = sum(group.n_chips for group in groups)
            if n_chips is not None and n_chips != total:
                raise SimulationError(
                    f"groups cover {total} chips, n_chips says "
                    f"{n_chips}")
            n_chips = total
        self._groups = tuple(groups)
        self._record_every = int(record_every)
        self._spec = {
            "chip": config,
            "kwargs": {
                "groups": self._groups,
                "epoch_s": float(epoch_s),
                "record_every": self._record_every,
                "seed": int(seed),
                "calibration": calibration,
                "em_reference": em_reference,
                "state_dtype": np.dtype(state_dtype).str,
            },
        }
        self._simulator = FleetSimulator(
            built, n_chips, calibration=calibration,
            em_reference=em_reference, epoch_s=epoch_s,
            variation=variation, seed=seed,
            state_dtype=state_dtype)
        self._run = _FleetRun(self._simulator, self._groups,
                              record_every=self._record_every,
                              n_epochs=None)

    @property
    def epoch(self) -> int:
        """Epochs advanced so far."""
        return self._run.epoch

    @property
    def n_chips(self) -> int:
        """Population size."""
        return self._simulator.state.n_chips

    @property
    def n_cores(self) -> int:
        """Cores per chip."""
        return self._simulator.state.n_cores

    def advance(self, n_epochs: int = 1) -> "FleetSession":
        """Advance the whole population by ``n_epochs`` epochs."""
        self._run.advance(n_epochs)
        return self

    def delta_vth_v(self) -> np.ndarray:
        """Current per-core threshold shift, ``(n_chips, n_cores)``."""
        return self._run.current_delta_vth().copy()

    def delta_vth_quantile(self, fraction: float) -> float:
        """Population quantile of the per-chip worst-core shift."""
        if not 0.0 <= fraction <= 1.0:
            raise SimulationError("fraction must be in [0, 1]")
        worst = self._run.current_delta_vth().max(axis=1)
        return float(np.quantile(worst, fraction))

    @property
    def guardbands(self) -> np.ndarray:
        """Per-chip guardband so far, ``(n_chips,)``.

        The max over every *recorded* worst-core degradation row and
        the live (current-epoch) degradation, so queries between
        record points never understate the needed margin.
        """
        delta = self._run.current_delta_vth()
        oscillator = self._simulator.chip.core.oscillator
        current = oscillator.delay_degradation_array(delta).max(
            axis=1)
        if self._run.worst:
            recorded = np.max(np.array(self._run.worst), axis=0)
            return np.maximum(recorded, current)
        return current

    def guardband_quantile(self, fraction: float) -> float:
        """Population quantile of the per-chip guardband so far."""
        if not 0.0 <= fraction <= 1.0:
            raise SimulationError("fraction must be in [0, 1]")
        return float(np.quantile(self.guardbands, fraction))

    def result(self) -> FleetResult:
        """The :class:`FleetResult` of everything advanced so far."""
        return self._run.result()

    def snapshot(self) -> FleetSnapshot:
        """Capture the full session state as a self-contained snapshot.

        The snapshot owns its arrays (nothing aliases the live
        state).  The chip-major state arrays are row-packed (see the
        module docstring): ``arrays["bti/weights"]`` holds
        ``n_kept * n_cores`` rows, one block per chip whose
        ``arrays["bti/weights#repeat"]`` entry is false, not the
        session's ``n_chips * n_cores``.
        """
        snapshot = _snapshot_run(self._run)
        snapshot.meta["kind"] = "fleet-session"
        snapshot.arrays["session/spec"] = np.frombuffer(
            pickle.dumps(self._spec, protocol=_PICKLE_PROTOCOL),
            dtype=np.uint8)
        return snapshot

    def save(self, path) -> None:
        """Persist the session to one snapshot file."""
        self.snapshot().save(path)

    def restore(self, snapshot: Union[FleetSnapshot, str,
                                      os.PathLike]) -> "FleetSession":
        """Reset this session to a snapshot's state, in place.

        The snapshot must come from a session of the same study
        (geometry, cohort layout, cadence, dtype); continuing from
        it is bitwise-equal to never having snapshotted.
        """
        if not isinstance(snapshot, FleetSnapshot):
            snapshot = FleetSnapshot.load(snapshot)
        run = _FleetRun(self._simulator, self._groups,
                        record_every=self._record_every,
                        n_epochs=None)
        _restore_run(run, snapshot)
        self._run = run
        return self

    @classmethod
    def load(cls, source: Union[FleetSnapshot, str, os.PathLike]
             ) -> "FleetSession":
        """Rebuild a session from a snapshot (file or in-memory).

        Uses the embedded construction spec, so no original
        arguments are needed; the restored session continues
        bitwise-identically to the one that saved the snapshot.
        """
        if not isinstance(source, FleetSnapshot):
            source = FleetSnapshot.load(source)
        if "session/spec" not in source.arrays:
            raise CheckpointError(
                "snapshot does not embed a session spec (was it "
                "written by FleetSession.save?)")
        try:
            spec = pickle.loads(
                source.arrays["session/spec"].tobytes())
        except Exception as error:
            raise CheckpointError(
                f"session spec is corrupt: {error}") from error
        kwargs = dict(spec["kwargs"])
        # Sessions saved while the BTI kernel memo existed carry its
        # byte budget; the memo is gone and never changed a result.
        kwargs.pop("kernel_cache_budget_bytes", None)
        variation = FleetVariation(
            capture_scale=np.array(
                source.arrays["variation/capture_scale"]),
            recovery_scale=np.array(
                source.arrays["variation/recovery_scale"]),
            em_current_scale=np.array(
                source.arrays["variation/em_current_scale"]))
        session = cls(spec["chip"], groups=kwargs.pop("groups"),
                      variation=variation, **kwargs)
        return session.restore(source)
