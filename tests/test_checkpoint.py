"""Snapshot format, incremental sessions and checkpointed studies.

The checkpoint layer promises (ISSUE 10 / PR 10):

* **a versioned, checksummed snapshot format** -- torn, tampered,
  foreign or wrong-schema files fail loudly as ``CheckpointError``,
  never load as skewed state;
* **bitwise resume** -- a :class:`FleetSession` restored from a
  snapshot (in-memory or from disk, float64 or float32 state,
  homogeneous or heterogeneous groups) continues bit-identically to a
  session that was never interrupted;
* **study fingerprinting** -- a checkpoint directory is pinned to one
  study's SHA-256 digest, so resuming a *different* study against it
  is refused instead of mixing state.

Kill-and-resume of whole studies (SIGKILL mid-lifetime, pooled
workers) lives in tests/test_checkpoint_resume.py.
"""

from __future__ import annotations

import os
import pickle
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.system.checkpoint as checkpoint_module
from repro.errors import CheckpointError, SimulationError
from repro.system.checkpoint import (
    FleetSession,
    FleetSnapshot,
    read_snapshot,
    resume_fleet_lifetime_study,
    write_snapshot,
)
from repro.system.chip import Chip
from repro.system.fleet import (
    FleetGroup,
    FleetSimulator,
    FleetVariationSpec,
    run_fleet_lifetime_study,
)
from repro.system.scheduler import (
    NoRecoveryPolicy,
    RoundRobinRecoveryPolicy,
)
from repro.system.sweeps import ChipConfig
from repro.system.workload import (
    ConstantWorkload,
    DiurnalWorkload,
    RandomWorkload,
)

N_CORES = 4  # 2x2 grid

RESULT_ARRAYS = (
    "times_s", "worst_degradation", "mean_degradation",
    "dropped_demand", "final_delta_vth_v", "final_permanent_vth_v",
    "final_em_drift_ohm", "em_failures", "migration_events",
    "total_demand", "total_dropped_demand")

VARIATION = FleetVariationSpec(capture_sigma=0.1,
                               recovery_sigma=0.05,
                               em_current_sigma=0.1)


def workload():
    # Stateful AR(1) stream: its RNG position is part of the
    # resumable state, so a restore that dropped it would diverge.
    return RandomWorkload(n_cores=N_CORES, seed=3)


def policy():
    # Stateful rotation cursor, same reasoning.
    return RoundRobinRecoveryPolicy(recovery_slots=1)


def hetero_groups():
    return (
        FleetGroup(n_chips=4, workload=workload(), policy=policy(),
                   phases=(0, 0, 1, 1), name="rotating"),
        FleetGroup(n_chips=2,
                   workload=ConstantWorkload(n_cores=N_CORES,
                                             utilization=0.7),
                   policy=NoRecoveryPolicy(), name="control"),
    )


def make_session(**overrides):
    kwargs = dict(record_every=2, variation=VARIATION, seed=7)
    kwargs.update(overrides)
    if "groups" in kwargs:
        return FleetSession((2, 2), **kwargs)
    return FleetSession((2, 2), 6, workload(), policy(), **kwargs)


def assert_results_bitwise_equal(a, b):
    for field in RESULT_ARRAYS:
        left, right = getattr(a, field), getattr(b, field)
        assert left.dtype == right.dtype, field
        assert np.array_equal(left, right), field
    assert a.n_epochs == b.n_epochs


# -- the snapshot file format ----------------------------------------------


class TestSnapshotFormat:
    ARRAYS = {
        "a/f64": np.linspace(0.0, 1.0, 7),
        "a/f32": np.linspace(0.0, 1.0, 5, dtype=np.float32),
        "b/bool": np.array([True, False, True]),
        "b/i64": np.arange(6, dtype=np.int64).reshape(2, 3),
        "c/bytes": np.frombuffer(b"pickled payload", dtype=np.uint8),
    }
    META = {"kind": "test", "epoch": 3, "nested": {"x": [1, 2]}}

    def test_round_trip_is_bitwise(self, tmp_path):
        path = tmp_path / "snap.npz"
        write_snapshot(path, self.ARRAYS, self.META)
        arrays, meta = read_snapshot(path)
        assert meta == self.META
        assert set(arrays) == set(self.ARRAYS)
        for name, original in self.ARRAYS.items():
            assert arrays[name].dtype == original.dtype, name
            assert np.array_equal(arrays[name], original), name

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        write_snapshot(tmp_path / "snap.npz", self.ARRAYS, self.META)
        assert os.listdir(tmp_path) == ["snap.npz"]

    def test_reserved_and_non_array_names_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="reserved"):
            write_snapshot(tmp_path / "bad.npz",
                           {"__meta__": np.zeros(1)}, {})
        with pytest.raises(CheckpointError, match="not an ndarray"):
            write_snapshot(tmp_path / "bad.npz", {"x": [1, 2]}, {})

    def test_missing_and_garbage_files_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            read_snapshot(tmp_path / "nope.npz")
        garbage = tmp_path / "garbage.npz"
        garbage.write_bytes(b"this is not a zip archive")
        with pytest.raises(CheckpointError, match="cannot read"):
            read_snapshot(garbage)

    def test_foreign_npz_rejected(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, x=np.zeros(3))
        with pytest.raises(CheckpointError,
                           match="not a fleet checkpoint"):
            read_snapshot(path)

    def test_schema_version_gate_is_strict(self, tmp_path,
                                           monkeypatch):
        path = tmp_path / "future.npz"
        monkeypatch.setattr(checkpoint_module,
                            "CHECKPOINT_SCHEMA_VERSION", 2)
        write_snapshot(path, self.ARRAYS, self.META)
        monkeypatch.undo()
        with pytest.raises(CheckpointError, match="schema"):
            read_snapshot(path)

    def test_tampered_array_fails_the_checksum(self, tmp_path):
        path = tmp_path / "snap.npz"
        write_snapshot(path, self.ARRAYS, self.META)
        with np.load(path, allow_pickle=False) as data:
            payload = {name: data[name] for name in data.files}
        tampered = payload["a/f64"].copy()
        tampered[0] += 1e-9
        payload["a/f64"] = tampered
        np.savez(path, **payload)  # keeps the stale checksum
        with pytest.raises(CheckpointError, match="checksum"):
            read_snapshot(path)

    def test_fleet_snapshot_object_round_trips(self, tmp_path):
        path = tmp_path / "snap.npz"
        FleetSnapshot(arrays=dict(self.ARRAYS),
                      meta=dict(self.META)).save(path)
        loaded = FleetSnapshot.load(path)
        assert loaded.meta == self.META
        assert np.array_equal(loaded.arrays["b/i64"],
                              self.ARRAYS["b/i64"])


# -- chip-row packing -------------------------------------------------------

PACKED = ("bti/weights", "bti/occupancy", "bti/age_s", "bti/permanent_v",
          "em/progress_s", "em/nucleated", "em/void_reversible_m",
          "em/void_locked_m")
TRAP = PACKED[:4]
REPEAT = checkpoint_module._REPEAT_SUFFIX

_QUIET_NAN = np.float64(np.nan)
_PAYLOAD_NAN = np.array([0x7FF8000000000001], dtype=np.uint64).view(
    np.float64)[0]
_CHIP_VALUES = {
    "float64": (0.0, -0.0, 1.0, _QUIET_NAN, _PAYLOAD_NAN, np.inf),
    "float32": (0.0, -0.0, 1.0, np.float32(np.nan),
                np.array([0x7FC00001], dtype=np.uint32).view(
                    np.float32)[0], np.float32(2.5e-3)),
    "bool": (False, True),
    "int64": (0, -1, 7, 2 ** 62),
}


def _codec_settings() -> settings:
    """A fixed tier-1 budget, or the ``deep`` profile when it is loaded."""
    deep = settings.get_profile("deep")
    if settings.default is deep:
        return deep
    return settings(max_examples=40, derandomize=True, deadline=None)


@st.composite
def chip_major_arrays(draw):
    """A chip-major array with random runs of bitwise-repeated chips.

    Chip values come from a small pool holding -0.0 next to +0.0 and
    NaNs with different payloads, so fresh chips often differ from
    their predecessor only in those bits.
    """
    dtype = draw(st.sampled_from(sorted(_CHIP_VALUES)))
    n_chips = draw(st.integers(1, 9))
    rows = draw(st.integers(1, 3))
    tail = draw(st.sampled_from([(), (1,), (3,), (5,)]))
    per_chip = rows * int(np.prod(tail, dtype=int))
    values = st.sampled_from(_CHIP_VALUES[dtype])
    chips = []
    for index in range(n_chips):
        if index and draw(st.booleans()):
            chips.append(chips[-1])
        else:
            chips.append(draw(st.lists(values, min_size=per_chip,
                                       max_size=per_chip)))
    array = np.array(chips, dtype=dtype)
    return array.reshape((n_chips * rows,) + tail), n_chips


def _chip_bytes(array, n_chips):
    return [chip.tobytes() for chip in array.reshape(n_chips, -1)]


@_codec_settings()
@given(case=chip_major_arrays())
def test_chip_row_codec_round_trip_is_bitwise(case):
    array, n_chips = case
    kept, repeat = checkpoint_module._pack_chip_rows(array, n_chips)
    chips = _chip_bytes(array, n_chips)
    assert repeat.dtype == np.bool_ and repeat.shape == (n_chips,)
    assert list(repeat) == [False] + [chips[k] == chips[k - 1]
                                      for k in range(1, n_chips)]
    assert kept.dtype == array.dtype
    assert kept.shape[1:] == array.shape[1:]
    assert _chip_bytes(kept, int((~repeat).sum())) == [
        chip for chip, again in zip(chips, repeat) if not again]
    assert not np.shares_memory(kept, array)
    # Through the snapshot file format and back into a live buffer.
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "codec.npz")
        write_snapshot(path, {"x": kept, "x" + REPEAT: repeat}, {})
        arrays, _ = read_snapshot(path)
    restored = np.full_like(array, 1)
    checkpoint_module._unpack_chip_rows(restored, arrays["x"],
                                        arrays["x" + REPEAT], n_chips,
                                        "x")
    assert restored.tobytes() == array.tobytes()


def identical_groups():
    # No variation: chips of one group and phase stay bitwise equal,
    # so the trap state packs to one chip per run of equal phases.
    return (
        FleetGroup(n_chips=5, workload=DiurnalWorkload(
            n_cores=N_CORES, period_epochs=8), policy=policy(),
            phases=(0, 0, 3, 3, 3), name="diurnal"),
        FleetGroup(n_chips=3, workload=ConstantWorkload(
            n_cores=N_CORES, utilization=0.7),
            policy=NoRecoveryPolicy(), name="control"),
    )


IDENTICAL_REPEAT = [False, True, False, True, True, False, True, True]


def identical_session():
    return FleetSession((2, 2), groups=identical_groups(),
                        record_every=2)


def chip_state(session):
    """The session's live state arrays, one block per chip.

    The fleet state holds one block per run of identical chips; this
    repeats each run's block once per chip of the run.
    """
    state = session._simulator.state
    chips = {}
    for name, live in checkpoint_module._chip_state(state).items():
        runs = live.reshape(state.n_runs, -1)
        chips[name] = state.expand(runs).reshape((-1,) + live.shape[1:])
    return chips


def legacy_layout(session):
    """The session's snapshot as written before chip-row packing."""
    snapshot = session.snapshot()
    for name, live in chip_state(session).items():
        snapshot.arrays[name] = live.copy()
        del snapshot.arrays[name + REPEAT]
    return snapshot


class TestChipRowPacking:
    def test_identical_fleet_progress_file_keeps_one_chip_per_run(
            self, tmp_path, monkeypatch):
        real = checkpoint_module.save_chunk_progress

        def save_then_stop(ckpt, index, run):
            real(ckpt, index, run)
            raise KeyboardInterrupt

        monkeypatch.setattr(checkpoint_module, "save_chunk_progress",
                            save_then_stop)
        directory = tmp_path / "ckpt"
        kwargs = dict(groups=identical_groups(), n_epochs=6,
                      record_every=2, max_workers=0)
        with pytest.raises(KeyboardInterrupt):
            run_fleet_lifetime_study((2, 2), checkpoint_dir=directory,
                                     checkpoint_every=2, **kwargs)
        monkeypatch.undo()
        arrays, meta = read_snapshot(
            directory / "chunk-00000.progress.npz")
        assert meta["epoch"] == 2 and meta["n_chips"] == 8
        # The same fleet, advanced in a session to the same epoch,
        # says which chips repeat their predecessor bitwise.
        live = chip_state(identical_session().advance(2))
        for name in TRAP:
            chips = _chip_bytes(live[name], 8)
            runs = [False] + [chips[k] == chips[k - 1]
                              for k in range(1, 8)]
            assert arrays[name + REPEAT].tolist() == runs, name
            assert arrays[name].shape[0] == \
                runs.count(False) * N_CORES, name
        # Occupancy splits by phase and group; the fresh trap weights
        # are one chip for the whole fleet.
        assert arrays["bti/occupancy" + REPEAT].tolist() == \
            IDENTICAL_REPEAT
        assert arrays["bti/weights"].shape == (N_CORES, 64)
        resumed = run_fleet_lifetime_study(
            (2, 2), checkpoint_dir=directory, checkpoint_every=2,
            **kwargs)
        plain = run_fleet_lifetime_study((2, 2), **kwargs)
        assert_results_bitwise_equal(resumed, plain)

    def test_varied_fleet_keeps_every_chip_of_its_occupancy(self):
        snapshot = make_session().advance(2).snapshot()
        for name in ("bti/occupancy", "bti/age_s", "em/progress_s"):
            assert not snapshot.arrays[name + REPEAT].any(), name
        assert snapshot.arrays["bti/occupancy"].shape == (
            6 * N_CORES, 64)

    def test_snapshot_does_not_alias_live_state(self):
        session = identical_session().advance(2)
        snapshot = session.snapshot()
        for name, live in checkpoint_module._chip_state(
                session._simulator.state).items():
            assert not np.shares_memory(snapshot.arrays[name], live)

    @pytest.mark.parametrize("groups", ["varied", "identical"])
    def test_pre_packing_snapshot_restores_bitwise(self, tmp_path,
                                                   groups):
        build = (make_session if groups == "varied"
                 else identical_session)
        session = build().advance(3)
        path = tmp_path / "legacy.npz"
        legacy_layout(session).save(path)
        arrays, _ = read_snapshot(path)
        assert not any(name.endswith(REPEAT) for name in arrays)
        session.advance(3)
        loaded = FleetSession.load(path)
        assert loaded.epoch == 3
        loaded.advance(3)
        assert_results_bitwise_equal(loaded.result(), session.result())

    @pytest.mark.parametrize("corruption", [
        "mask_short", "mask_long", "mask_dtype", "extra_kept_chip",
        "missing_kept_chip", "first_chip_repeats", "kept_dtype"])
    def test_inconsistent_mask_raises_checkpoint_error(
            self, tmp_path, corruption):
        snapshot = identical_session().advance(2).snapshot()
        arrays = snapshot.arrays
        mask = arrays["bti/occupancy" + REPEAT].copy()
        kept = arrays["bti/occupancy"]
        if corruption == "mask_short":
            mask = mask[:-1]
        elif corruption == "mask_long":
            mask = np.append(mask, True)
        elif corruption == "mask_dtype":
            mask = mask.astype(np.uint8)
        elif corruption == "extra_kept_chip":
            mask[1] = False
        elif corruption == "missing_kept_chip":
            mask[2] = True
        elif corruption == "first_chip_repeats":
            mask[0], mask[1] = True, False
        else:
            kept = kept.astype(np.float32)
        arrays["bti/occupancy" + REPEAT] = mask
        arrays["bti/occupancy"] = kept
        path = tmp_path / "inconsistent.npz"
        snapshot.save(path)
        read_snapshot(path)  # the checksum covers the bad mask
        with pytest.raises(CheckpointError, match="bti/occupancy"):
            FleetSession.load(path)


def one_chip_groups(groups):
    """The population as one single-chip group per chip.

    Every cohort then holds one chip, so the fleet state keeps one
    block per chip: the layout snapshots describe.
    """
    return tuple(
        FleetGroup(n_chips=1, workload=group.workload,
                   policy=group.policy,
                   phases=(None if group.phases is None
                           else (group.phases[k],)))
        for group in groups for k in range(group.n_chips))


def chip_by_chip_packing(session):
    """The state arrays packed from their per-chip form, chip by chip."""
    arrays = {}
    for name, chips in chip_state(session).items():
        arrays[name], arrays[name + REPEAT] = \
            checkpoint_module._pack_chip_rows(chips, session.n_chips)
    return arrays


class TestCollapsedRunSnapshots:
    """Snapshots of a fleet whose identical chips advance once."""

    def test_save_writes_the_chip_by_chip_arrays_and_meta(self,
                                                           tmp_path):
        session = identical_session().advance(3)
        assert session._simulator.state.n_runs == 3
        reference = FleetSession(
            (2, 2), groups=one_chip_groups(identical_groups()),
            record_every=2).advance(3)
        assert reference._simulator.state.n_runs == 8
        path = tmp_path / "identical.npz"
        session.save(path)
        arrays, meta = read_snapshot(path)
        expected = dict(reference.snapshot().arrays)
        expected.update(chip_by_chip_packing(session))
        compared = [name for name in arrays if name.startswith(
            ("bti/", "em/", "variation/", "run/"))]
        assert len(compared) == 28
        for name in compared:
            assert arrays[name].dtype == expected[name].dtype, name
            assert arrays[name].shape == expected[name].shape, name
            assert arrays[name].tobytes() == expected[name].tobytes(), \
                name
        assert meta == {
            "kind": "fleet-session", "epoch": 3, "n_epochs": None,
            "record_every": 2, "n_chips": 8, "n_cores": N_CORES,
            "n_cohorts": 3, "cohort_bounds": [[0, 2], [2, 5], [5, 8]],
            "has_previous_utilization": [True, True, True],
            "has_readout": True, "state_dtype": "<f8",
            "epoch_s": 3600.0}

    @pytest.mark.parametrize("layout", ["packed", "legacy"])
    def test_snapshot_restores_bitwise_into_collapsed_run(
            self, tmp_path, layout):
        session = identical_session().advance(3)
        if layout == "packed":
            snapshot = session.snapshot()
            snapshot.arrays.update(chip_by_chip_packing(session))
        else:
            snapshot = legacy_layout(session)
        path = tmp_path / f"{layout}.npz"
        snapshot.save(path)
        session.advance(3)
        for restored in (FleetSession.load(path),
                         identical_session().restore(path)):
            assert restored._simulator.state.n_runs == 3
            restored.advance(3)
            assert_results_bitwise_equal(restored.result(),
                                         session.result())

    @pytest.mark.parametrize("tamper", [
        "packed_mask", "legacy_row", "accumulator", "record",
        "variation"])
    def test_chip_that_differs_from_its_run_head_is_refused(
            self, tmp_path, tamper):
        # Chip 1 shares its run with chip 0 (group "diurnal", phase 0).
        session = identical_session().advance(3)
        snapshot = (legacy_layout(session) if tamper == "legacy_row"
                    else session.snapshot())
        arrays = snapshot.arrays
        if tamper == "packed_mask":
            # Chip 1 stored in its own right, mask and rows consistent.
            mask = arrays["bti/occupancy" + REPEAT].copy()
            kept = arrays["bti/occupancy"]
            mask[1] = False
            arrays["bti/occupancy" + REPEAT] = mask
            arrays["bti/occupancy"] = np.concatenate(
                [kept[:N_CORES], kept[:N_CORES] + 1e-3,
                 kept[N_CORES:]])
        elif tamper == "legacy_row":
            occupancy = arrays["bti/occupancy"].copy()
            occupancy[N_CORES] += 1e-3
            arrays["bti/occupancy"] = occupancy
        elif tamper == "accumulator":
            arrays["run/total_demand"] = \
                arrays["run/total_demand"].copy()
            arrays["run/total_demand"][1] += 1.0
        elif tamper == "record":
            arrays["run/worst"] = arrays["run/worst"].copy()
            arrays["run/worst"][0, 1] += 1e-3
        else:
            arrays["variation/capture_scale"] = \
                arrays["variation/capture_scale"].copy()
            arrays["variation/capture_scale"][1] = 1.1
        path = tmp_path / f"{tamper}.npz"
        snapshot.save(path)
        read_snapshot(path)  # a well-formed file: the checksum holds
        with pytest.raises(CheckpointError,
                           match="run of identical chips"):
            identical_session().restore(path)


# -- incremental sessions ---------------------------------------------------


class TestFleetSession:
    def test_session_matches_one_shot_run_groups(self):
        session = make_session().advance(6)
        result = session.result()
        simulator = FleetSimulator(Chip(2, 2), 6,
                                   variation=VARIATION, seed=7)
        reference = simulator.run_groups(
            6, [FleetGroup(n_chips=6, workload=workload(),
                           policy=policy())], record_every=2)
        assert_results_bitwise_equal(result, reference)

    def test_split_advance_equals_one_advance(self):
        split = make_session().advance(2).advance(1).advance(3)
        whole = make_session().advance(6)
        assert_results_bitwise_equal(split.result(), whole.result())

    def test_queries_between_advances_do_not_perturb(self):
        probed = make_session()
        for _ in range(3):
            probed.advance(2)
            probed.delta_vth_quantile(0.5)
            probed.guardband_quantile(0.99)
            probed.delta_vth_v()
            probed.guardbands
        clean = make_session().advance(6)
        assert_results_bitwise_equal(probed.result(), clean.result())

    @pytest.mark.parametrize("route", ["restore", "load"])
    @pytest.mark.parametrize("state_dtype", [np.float64, np.float32])
    def test_delta_vth_queries_match_an_uncached_recompute(
            self, tmp_path, route, state_dtype):
        # Queries reuse the delta-Vth the last advance ended on; after
        # a restore or load they must reflect the restored state, and
        # the advance that follows must start from it too.
        def assert_uncached(session):
            fresh = session._simulator.state.delta_vth_v()
            assert session.delta_vth_v().tobytes() == fresh.tobytes()
            answers = (session.guardbands.tobytes(),
                       session.delta_vth_quantile(0.5),
                       session.guardband_quantile(0.99))
            session._run.delta_vth = None
            assert answers == (session.guardbands.tobytes(),
                               session.delta_vth_quantile(0.5),
                               session.guardband_quantile(0.99))

        path = tmp_path / "session.npz"
        session = make_session(state_dtype=state_dtype).advance(3)
        session.save(path)
        session.advance(3)
        assert_uncached(session)
        if route == "restore":
            session.restore(path)
        else:
            session = FleetSession.load(path)
        assert_uncached(session)
        session.advance(3)
        assert_uncached(session)
        reference = make_session(state_dtype=state_dtype).advance(6)
        assert_results_bitwise_equal(session.result(), reference.result())

    @pytest.mark.parametrize("state_dtype", [np.float64, np.float32])
    def test_snapshot_restore_continues_bitwise(self, state_dtype):
        session = make_session(state_dtype=state_dtype).advance(3)
        snapshot = session.snapshot()
        session.advance(3)
        reference = session.result()
        resumed = make_session(state_dtype=state_dtype)
        resumed.restore(snapshot)
        assert resumed.epoch == 3
        resumed.advance(3)
        assert_results_bitwise_equal(resumed.result(), reference)

    def test_restore_rewinds_a_diverged_session(self):
        session = make_session().advance(3)
        snapshot = session.snapshot()
        session.advance(3)
        reference = session.result()
        session.advance(6)  # diverge past the snapshot
        session.restore(snapshot)
        session.advance(3)
        assert_results_bitwise_equal(session.result(), reference)

    def test_save_load_rebuilds_in_a_fresh_session(self, tmp_path):
        path = tmp_path / "session.npz"
        session = make_session().advance(3)
        session.save(path)
        session.advance(3)
        reference = session.result()
        # load() needs no construction arguments: the spec is
        # embedded in the snapshot.
        loaded = FleetSession.load(path)
        assert loaded.epoch == 3
        assert loaded.n_chips == 6 and loaded.n_cores == N_CORES
        loaded.advance(3)
        assert_results_bitwise_equal(loaded.result(), reference)

    def test_load_accepts_a_spec_with_the_retired_kernel_budget(
            self, tmp_path):
        # Sessions saved while the BTI kernel memo existed embed its
        # byte budget in their spec; loading one must still resume.
        path = tmp_path / "legacy.npz"
        session = make_session().advance(3)
        session._spec["kwargs"]["kernel_cache_budget_bytes"] = 2 ** 28
        session.save(path)
        session.advance(3)
        reference = session.result()
        loaded = FleetSession.load(path).advance(3)
        assert_results_bitwise_equal(loaded.result(), reference)
        assert np.array_equal(loaded.delta_vth_v(),
                              session.delta_vth_v())

    def test_heterogeneous_groups_round_trip(self, tmp_path):
        path = tmp_path / "hetero.npz"
        session = make_session(groups=hetero_groups()).advance(3)
        session.save(path)
        session.advance(3)
        reference = session.result()
        loaded = FleetSession.load(path).advance(3)
        assert_results_bitwise_equal(loaded.result(), reference)

    def test_float32_session_snapshot_keeps_dtype(self):
        session = make_session(state_dtype=np.float32).advance(2)
        snapshot = session.snapshot()
        assert snapshot.meta["state_dtype"] == np.dtype(np.float32).str
        assert snapshot.arrays["bti/weights"].dtype == np.float32
        # A float64 session must refuse the float32 snapshot.
        with pytest.raises(CheckpointError, match="state_dtype"):
            make_session().restore(snapshot)

    def test_restore_refuses_a_different_study(self):
        snapshot = make_session().advance(2).snapshot()
        other = FleetSession((2, 2), 9, workload(), policy(),
                             record_every=2, variation=VARIATION,
                             seed=7)
        with pytest.raises(CheckpointError, match="n_chips"):
            other.restore(snapshot)
        cadence = make_session(record_every=3)
        with pytest.raises(CheckpointError, match="record_every"):
            cadence.restore(snapshot)

    def test_guardbands_cover_live_degradation(self):
        session = make_session(record_every=64)  # nothing recorded
        session.advance(3)
        bands = session.guardbands
        assert bands.shape == (6,)
        assert np.all(bands > 0.0)
        assert session.guardband_quantile(1.0) == bands.max()

    def test_validation(self):
        with pytest.raises(SimulationError):
            make_session().advance(0)
        with pytest.raises(SimulationError):
            make_session().delta_vth_quantile(1.5)
        with pytest.raises(SimulationError):
            make_session().guardband_quantile(-0.1)
        with pytest.raises(SimulationError):
            FleetSession((2, 2))  # neither groups nor trio
        with pytest.raises(SimulationError):
            FleetSession((2, 2), 6, workload(), policy(),
                         groups=hetero_groups())
        with pytest.raises(SimulationError):
            make_session().result()  # nothing advanced yet

    def test_load_refuses_a_plain_run_snapshot(self, tmp_path):
        session = make_session().advance(2)
        snapshot = session.snapshot()
        del snapshot.arrays["session/spec"]
        path = tmp_path / "stripped.npz"
        snapshot.save(path)
        with pytest.raises(CheckpointError, match="session spec"):
            FleetSession.load(path)


# -- checkpointed studies ---------------------------------------------------


def run_study(**overrides):
    kwargs = dict(
        n_chips=8, workload=workload(), policy=policy(),
        n_epochs=6, record_every=2, variation=VARIATION, seed=7,
        max_chunk_chips=3, max_workers=0)
    kwargs.update(overrides)
    return run_fleet_lifetime_study((2, 2), **kwargs)


class TestCheckpointedStudy:
    def test_checkpointed_run_matches_plain_run(self, tmp_path):
        plain = run_study()
        checkpointed = run_study(checkpoint_dir=tmp_path / "ckpt",
                                 checkpoint_every=2)
        assert_results_bitwise_equal(plain, checkpointed)

    def test_rerun_restores_every_chunk_from_cache(self, tmp_path):
        directory = tmp_path / "ckpt"
        first = run_study(checkpoint_dir=directory)
        reports = []
        again = run_study(checkpoint_dir=directory,
                          on_report=reports.append)
        assert_results_bitwise_equal(first, again)
        (report,) = reports
        assert report.mode == "fleet"
        assert all(chunk.executed_in == "cached"
                   for chunk in report.chunks)
        assert report.n_chunks == 3

    def test_resume_entry_point_needs_only_the_directory(
            self, tmp_path):
        directory = tmp_path / "ckpt"
        first = run_study(checkpoint_dir=directory)
        resumed = resume_fleet_lifetime_study(directory,
                                              max_workers=0)
        assert_results_bitwise_equal(first, resumed)

    def test_directory_is_pinned_to_one_study(self, tmp_path):
        directory = tmp_path / "ckpt"
        run_study(checkpoint_dir=directory)
        with pytest.raises(CheckpointError, match="different study"):
            run_study(checkpoint_dir=directory, seed=8)

    def test_checkpoint_every_requires_a_directory(self):
        with pytest.raises(SimulationError,
                           match="requires checkpoint_dir"):
            run_study(checkpoint_every=2)

    def test_invalid_cadence_rejected(self, tmp_path):
        with pytest.raises(SimulationError, match="at least 1"):
            run_study(checkpoint_dir=tmp_path / "ckpt",
                      checkpoint_every=0)

    def test_resume_of_an_empty_directory_refused(self, tmp_path):
        with pytest.raises(CheckpointError, match="nothing to resume"):
            resume_fleet_lifetime_study(tmp_path)

    def test_unpicklable_study_refused_up_front(self, tmp_path):
        class Unpicklable(RoundRobinRecoveryPolicy):
            def __reduce__(self):
                raise TypeError("refuses to pickle")

        with pytest.raises(CheckpointError, match="picklable"):
            run_study(policy=Unpicklable(recovery_slots=1),
                      checkpoint_dir=tmp_path / "ckpt")

    def test_chunk_result_files_are_real_snapshots(self, tmp_path):
        directory = tmp_path / "ckpt"
        run_study(checkpoint_dir=directory)
        names = sorted(os.listdir(directory))
        assert names == ["chunk-00000.result.npz",
                         "chunk-00001.result.npz",
                         "chunk-00002.result.npz",
                         "manifest.json", "study.pkl"]
        arrays, meta = read_snapshot(
            directory / "chunk-00001.result.npz")
        assert meta["kind"] == "fleet-chunk-result"
        assert meta["chunk_index"] == 1
        assert arrays["result/final_delta_vth_v"].shape == (3,
                                                            N_CORES)

    def test_equal_studies_digest_equal_however_objects_are_shared(
            self, tmp_path):
        # g2 shares g1's workload and policy objects; g2b holds equal,
        # fresh ones.  Pickle bytes differ between the two studies
        # (the pickle memo), the canonical digest must not.
        g1 = FleetGroup(n_chips=4, workload=workload(),
                        policy=policy(), name="a")
        g2 = FleetGroup(n_chips=4, workload=g1.workload,
                        policy=g1.policy, name="b")
        g2b = FleetGroup(n_chips=4, workload=workload(),
                         policy=policy(), name="b")
        assert g2 == g2b
        study = dict(chip=ChipConfig(rows=2, cols=2), n_epochs=6,
                     epoch_s=3600.0, record_every=2,
                     variation=VARIATION, seed=7, calibration=None,
                     em_reference=None, state_dtype="<f8",
                     bounds=[range(0, 8)])
        shared = checkpoint_module.study_digest(groups=(g1, g2),
                                                **study)
        fresh = checkpoint_module.study_digest(groups=(g1, g2b),
                                               **study)
        assert shared == fresh
        directory = tmp_path / "ckpt"
        first = run_study(n_chips=None, workload=None, policy=None,
                          groups=(g1, g2), checkpoint_dir=directory)
        reports = []
        again = run_study(n_chips=None, workload=None, policy=None,
                          groups=(g1, g2b), checkpoint_dir=directory,
                          on_report=reports.append)
        assert all(chunk.executed_in == "cached"
                   for chunk in reports[0].chunks)
        assert_results_bitwise_equal(first, again)

    def test_digest_covers_template_state_outside_fields(self):
        # A RandomWorkload's stream position lives outside its
        # dataclass fields and shapes the result.
        advanced = workload()
        advanced.demand(5)
        study = dict(chip=ChipConfig(rows=2, cols=2), n_epochs=6,
                     epoch_s=3600.0, record_every=2, variation=None,
                     seed=7, calibration=None, em_reference=None,
                     state_dtype="<f8", bounds=[range(0, 6)])
        digests = {
            checkpoint_module.study_digest(groups=(FleetGroup(
                n_chips=6, workload=template, policy=policy()),),
                **study)
            for template in (workload(), workload(), advanced)}
        assert len(digests) == 2

    def test_directory_under_the_pickle_digest_still_resumes(
            self, tmp_path, monkeypatch):
        # Directories written before the canonical digest carry the
        # pickle-byte one in the manifest and in every chunk file.
        directory = tmp_path / "ckpt"
        monkeypatch.setattr(checkpoint_module, "study_digest",
                            checkpoint_module._pickled_study_digest)
        real = checkpoint_module.save_chunk_progress

        def save_then_stop(ckpt, index, run):
            real(ckpt, index, run)
            if index == 1:
                raise KeyboardInterrupt

        monkeypatch.setattr(checkpoint_module, "save_chunk_progress",
                            save_then_stop)
        with pytest.raises(KeyboardInterrupt):
            run_study(checkpoint_dir=directory, checkpoint_every=2)
        monkeypatch.undo()
        legacy = checkpoint_module._load_manifest(
            str(directory / "manifest.json"))["digest"]
        assert (directory / "chunk-00000.result.npz").exists()
        assert (directory / "chunk-00001.progress.npz").exists()
        reports = []
        resumed = run_study(checkpoint_dir=directory,
                            checkpoint_every=2,
                            on_report=reports.append)
        assert_results_bitwise_equal(resumed, run_study())
        assert reports[0].chunks[0].executed_in == "cached"
        _, meta = read_snapshot(directory / "chunk-00002.result.npz")
        assert meta["digest"] == legacy

    def test_study_spec_round_trips_through_pickle(self, tmp_path):
        directory = tmp_path / "ckpt"
        run_study(checkpoint_dir=directory)
        with open(directory / "study.pkl", "rb") as handle:
            spec = pickle.load(handle)
        assert spec["kwargs"]["n_epochs"] == 6
        assert spec["kwargs"]["checkpoint_every"] is None
        assert spec["chip"].rows == 2 and spec["chip"].cols == 2


# -- the lifetime-sweep route ----------------------------------------------


class TestSweepCheckpointRoute:
    GRID = dict(
        policies={"none": NoRecoveryPolicy()},
        workloads={"flat": ConstantWorkload(n_cores=4,
                                            utilization=0.5)},
        chips=[(2, 2)], n_epochs=4, seed=None)

    def test_fleet_route_forwards_checkpointing(self, tmp_path):
        from repro.system.sweeps import run_lifetime_sweep
        directory = tmp_path / "ckpt"
        first = run_lifetime_sweep(checkpoint_dir=directory,
                                   **self.GRID)
        assert (directory / "manifest.json").exists()
        reports = []
        again = run_lifetime_sweep(checkpoint_dir=directory,
                                   on_report=reports.append,
                                   **self.GRID)
        assert all(chunk.executed_in == "cached"
                   for chunk in reports[0].chunks)
        assert [cell.guardband for cell in again.cells] == \
            [cell.guardband for cell in first.cells]

    def test_pooled_engine_refuses_checkpointing(self, tmp_path):
        from repro.system.sweeps import run_lifetime_sweep
        with pytest.raises(SimulationError, match="fleet engine"):
            run_lifetime_sweep(engine="pooled",
                               checkpoint_dir=tmp_path, **self.GRID)

    def test_incompatible_grid_refuses_checkpointing(self, tmp_path):
        from repro.system.sweeps import run_lifetime_sweep
        grid = dict(self.GRID)
        grid["chips"] = [(2, 2), (3, 3)]  # two designs -> pooled path
        with pytest.raises(SimulationError, match="cannot run on it"):
            run_lifetime_sweep(checkpoint_dir=tmp_path, **grid)
