"""Spans around the calls into each ``repro`` layer, wrapped from outside.

Nothing under ``src/`` knows about this module.  :class:`Tracer`
replaces each seam in :data:`SEAMS` with a wrapper at the point where
the caller looks the name up: a method on its class
(``StackedTrapPopulations.step``), or a function in the namespace of
the module that calls it (``repro.system.fleet.base_epoch_conditions``
is the fleet engine's binding of the simulator's function).
:meth:`Tracer.uninstall` puts every original back.

A span records its name, start, end, parent span, process and the op
it belongs to.  Spans stay in memory and are written as JSON lines
when the run ends.  The fleet study's pool forks its workers, so the
workers inherit the wrappers and the open span stack: a worker's
first span is the child of the parent's open ``solvers.sweep.run``
span.  When a worker's outermost span closes, the worker appends its
spans to a per-process file, which the parent collects.

A span's self time is its duration minus the union of the intervals
its same-process children cover.  Children in other processes ran
in parallel while the parent waited, so they do not reduce the
parent's self time; their own self times are summed like any other.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

#: ``(module, class or None, attribute, span name)``.  A ``None`` class
#: wraps the module-level name, which is how the module's own code
#: and the benchmark reach it.  ``_build_step_kernel``,
#: ``_FleetRun.advance``, ``_execute_chunk``, ``_snapshot_run`` and
#: ``_restore_run`` are private seams: the layer has no public
#: boundary at that point.
SEAMS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.bti.fleet", "StackedTrapPopulations", "step",
     "bti.fleet.step"),
    ("repro.bti.fleet", "StackedTrapPopulations", "_build_step_kernel",
     "bti.fleet.kernel_build"),
    ("repro.system.fleet", None, "run_fleet_lifetime_study",
     "system.fleet.study"),
    ("repro.system.fleet", "_FleetRun", "advance",
     "system.fleet.epoch_loop"),
    ("repro.system.fleet", None, "_execute_chunk", "system.fleet.chunk"),
    ("repro.system.fleet", "FleetSimulator", "__init__",
     "system.fleet.simulator_init"),
    ("repro.system.fleet", None, "base_epoch_conditions",
     "system.fleet.conditions"),
    ("repro.system.fleet", None, "run_sweep", "solvers.sweep.run"),
    ("repro.system.checkpoint", None, "write_snapshot",
     "system.checkpoint.write"),
    ("repro.system.checkpoint", None, "read_snapshot",
     "system.checkpoint.read"),
    ("repro.system.checkpoint", None, "_snapshot_run",
     "system.checkpoint.capture"),
    ("repro.system.checkpoint", None, "_restore_run",
     "system.checkpoint.restore"),
    ("repro.system.checkpoint", "FleetSession", "guardband_quantile",
     "system.checkpoint.query"),
    ("repro.system.simulator", "SystemSimulator", "run",
     "system.simulator.run"),
    ("repro.system.simulator", None, "base_epoch_conditions",
     "system.simulator.conditions"),
    ("repro.system.aging", "FleetBtiState", "step",
     "system.aging.bti_step"),
    ("repro.system.aging", "FleetEmState", "step",
     "system.aging.em_step"),
    ("repro.system.scheduler", "RoundRobinRecoveryPolicy", "assign",
     "system.scheduler.assign"),
    ("repro.system.scheduler", "NoRecoveryPolicy", "assign",
     "system.scheduler.assign"),
    ("repro.system.sweeps", None, "run_lifetime_sweep",
     "system.sweeps.lifetime_sweep"),
    ("repro.thermal.network", "ThermalRCNetwork", "steady_state_cached",
     "thermal.steady"),
    ("repro.sensors.ring_oscillator", "RingOscillator",
     "delay_degradation_array", "sensors.ring_oscillator.record"),
    ("repro.solvers.factorized", "TridiagonalOperator", "solve_many",
     "solvers.tridiagonal.solve_many"),
    ("repro.em.korhonen", "KorhonenBatch", "advance",
     "em.korhonen.batch_advance"),
    ("repro.em.statistics", None, "sample_nucleation_ttfs_pde",
     "em.statistics.ttf_pde"),
    ("repro.assist.sweeps", None, "sweep_load_size_pooled",
     "assist.sweeps.load_grid"),
    ("repro.assist.sweeps", None, "dc_batch", "circuit.batched.dc"),
    ("repro.assist.sweeps", None, "transient_batch",
     "circuit.batched.transient"),
)

#: Span-name prefix of the benchmark's own op spans (the roots).
OP_PREFIX = "op."

# Span record layout: a list while open, a tuple once closed (closed
# spans hold only atoms, so the garbage collector stops scanning them).
_ID, _PARENT, _NAME, _START, _END, _PID, _OP, _BYTES = range(8)

# The process id, refreshed in forked children: os.getpid() is a
# system call, too slow for every span.
_pid = os.getpid()


def _refresh_pid() -> None:
    global _pid
    _pid = os.getpid()


os.register_at_fork(after_in_child=_refresh_pid)


def _snapshot_bytes(args, kwargs) -> int:
    """Size of the file ``write_snapshot(path, ...)`` just wrote."""
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(os.fspath(path))


_BYTE_COUNTERS = {"system.checkpoint.write": _snapshot_bytes}


class Tracer:
    """Records spans around the :data:`SEAMS` of one benchmark run.

    Args:
        run_id: identifier stored with every span of the run.
        spill_dir: where forked workers append their spans.
    """

    def __init__(self, run_id: str, spill_dir: Path):
        self.run_id = run_id
        self.pid = os.getpid()
        self.spill_dir = Path(spill_dir)
        self.spans: List[list] = []
        self._stack: List[list] = []
        self._next = 0
        self._op: Optional[int] = None
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------

    def _open(self, name: str) -> list:
        pid = _pid
        parent = self._stack[-1][_ID] if self._stack else None
        record = [(pid << 32) | self._next, parent, name,
                  time.perf_counter_ns(), 0, pid, self._op, 0]
        self._next += 1
        self._stack.append(record)
        return record

    def _close(self, record: list) -> None:
        record[_END] = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append(tuple(record))
        pid = record[_PID]
        if pid != self.pid and (not self._stack
                                or self._stack[-1][_PID] != pid):
            self._spill(pid)

    def _spill(self, pid: int) -> None:
        """Append a worker's spans to its file and drop them here."""
        mine = [span for span in self.spans if span[_PID] == pid]
        self.spans = [span for span in self.spans if span[_PID] != pid]
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        with open(self.spill_dir / f"worker-{pid}.jsonl", "a") as out:
            for span in mine:
                out.write(json.dumps(span) + "\n")

    def collect_workers(self) -> None:
        """Move every spilled worker span into this tracer."""
        if not self.spill_dir.is_dir():
            return
        for path in sorted(self.spill_dir.glob("worker-*.jsonl")):
            with open(path) as handle:
                self.spans.extend(tuple(json.loads(line))
                                  for line in handle)
            path.unlink()

    @contextmanager
    def op(self, name: str):
        """A root span for one timed op of the benchmark."""
        record = self._open(OP_PREFIX + name)
        self._op = record[_ID]
        try:
            yield
        finally:
            self._close(record)
            self._op = None

    # -- wrapping -------------------------------------------------------

    def _wrapper(self, original, name: str):
        open_span, close_span = self._open, self._close
        count_bytes = _BYTE_COUNTERS.get(name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            record = open_span(name)
            try:
                result = original(*args, **kwargs)
                if count_bytes is not None:
                    record[_BYTES] = count_bytes(args, kwargs)
                return result
            finally:
                close_span(record)

        return traced

    def install(self, seams: Iterable = SEAMS) -> None:
        """Wrap every seam; fails if a seam no longer exists."""
        for module_name, class_name, attr, name in seams:
            module = importlib.import_module(module_name)
            owner = (module if class_name is None
                     else getattr(module, class_name))
            original = (owner.__dict__[attr] if class_name is not None
                        else getattr(owner, attr))
            setattr(owner, attr, self._wrapper(original, name))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped seam, last wrapped first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps({
                    "run": self.run_id, "id": span[_ID],
                    "parent": span[_PARENT], "name": span[_NAME],
                    "start_ns": span[_START], "end_ns": span[_END],
                    "pid": span[_PID], "op": span[_OP],
                    "bytes": span[_BYTES]}) + "\n")


def _union_ns(intervals: List[Tuple[int, int]]) -> int:
    """Total length covered by possibly overlapping intervals."""
    total = 0
    end = None
    for start, stop in sorted(intervals):
        if end is None or start > end:
            total += stop - start
            end = stop
        elif stop > end:
            total += stop - end
            end = stop
    return total


def summarize(spans: List[list]) -> Dict[str, object]:
    """Per-layer self time, calls and bytes of the spans inside ops.

    Returns ``{"self_s": {...}, "calls": {...}, "bytes": {...},
    "op_wall_s", "remainder_s", "layer_self_s"}``; ``remainder_s`` is
    the op spans' own self time (op wall no layer span covers) and
    ``layer_self_s`` sums the layer self times of the op process.
    Spans outside any op (set-up, correctness checks) are ignored.
    """
    timed = [span for span in spans if span[_OP] is not None
             or span[_NAME].startswith(OP_PREFIX)]
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    by_id = {span[_ID]: span for span in timed}
    for span in timed:
        parent = by_id.get(span[_PARENT])
        if parent is not None and parent[_PID] == span[_PID]:
            children[parent[_ID]].append(
                (max(span[_START], parent[_START]),
                 min(span[_END], parent[_END])))
    op_pids = {span[_PID] for span in timed
               if span[_NAME].startswith(OP_PREFIX)}
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    nbytes: Dict[str, int] = defaultdict(int)
    op_wall = remainder = layer_self = 0.0
    for span in timed:
        own = (span[_END] - span[_START]
               - _union_ns(children.get(span[_ID], []))) / 1e9
        name = span[_NAME]
        if name.startswith(OP_PREFIX):
            op_wall += (span[_END] - span[_START]) / 1e9
            remainder += own
            continue
        self_s[name] += own
        calls[name] += 1
        nbytes[name] += span[_BYTES]
        if span[_PID] in op_pids:
            layer_self += own
    return {"self_s": dict(self_s), "calls": dict(calls),
            "bytes": dict(nbytes), "op_wall_s": op_wall,
            "remainder_s": remainder, "layer_self_s": layer_self}
