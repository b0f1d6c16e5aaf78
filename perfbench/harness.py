"""One measured run of one workload: set-up, timed passes, checks.

:func:`run` returns the full result record.  Its ``metrics`` hold
every end-to-end metric of the workload and, in a traced run, every
per-layer metric; :func:`result_line` picks the ones
``BENCHMARK.json`` lists for the requested mode.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

from perfbench import spec

#: Builds made before the first pass; every later pass adds one more.
SETUP_REPEATS = 5

#: Fresh interpreters timed importing the workloads' modules.
IMPORT_REPEATS = 3

#: Named counters that only chunk execution moves.  In a pooled study
#: the workers' deltas arrive on the SweepReport, not in the parent.
_CHUNK_COUNTERS = ("bti.fleet.kernels", "fleet.conditions",
                   "thermal.steady", "system.aging.steps")


def _delta(before: dict, after: dict) -> Dict[str, Dict[str, int]]:
    out: Dict[str, Dict[str, int]] = {}
    for name, values in after.items():
        base = before.get(name, {})
        out[name] = {key: value - base.get(key, 0)
                     for key, value in values.items()}
    return out


def _add(total: dict, extra: dict) -> None:
    for name, values in extra.items():
        if name not in _CHUNK_COUNTERS:
            continue
        entry = total.setdefault(name, {})
        for key, value in values.items():
            entry[key] = entry.get(key, 0) + value


def _ratio(numerator: float, base: float) -> float:
    return float(numerator) / base if base else 0.0


def _peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _sweep_layers(reports: list, n_passes: int) -> Dict[str, float]:
    """The ``solvers.sweep.*`` metrics from the studies' SweepReports."""
    chunk_wall = retries = fallbacks = cached = 0.0
    utilization: List[float] = []
    for report in reports:
        run = [chunk.wall_time_s for chunk in report.chunks
               if chunk.executed_in != "cached"]
        cached += sum(1 for chunk in report.chunks
                      if chunk.executed_in == "cached")
        retries += report.retries
        fallbacks += len(report.fallback_reasons)
        if run:
            chunk_wall += sum(run)
            workers = (report.max_workers if "pool" in report.mode
                       else 1)
            utilization.append(sum(run)
                               / (workers * report.wall_time_s))
    return {
        "solvers.sweep.chunk_wall_s": chunk_wall / n_passes,
        "solvers.sweep.pool_utilization": (
            statistics.mean(utilization) if utilization else 0.0),
        "solvers.sweep.retries": retries / n_passes,
        "solvers.sweep.fallbacks": fallbacks / n_passes,
        "solvers.sweep.chunks_cached": cached / n_passes,
    }


def _counter_layers(counters: dict, n_passes: int) -> Dict[str, float]:
    """Hit, dedup and batch-width ratios, each with its base."""
    def get(name, key):
        return counters.get(name, {}).get(key, 0)

    out: Dict[str, float] = {}
    for prefix, name in (("bti.fleet.kernels", "bti.fleet.kernels"),
                         ("system.fleet.conditions", "fleet.conditions"),
                         ("thermal.steady", "thermal.steady")):
        lookups = get(name, "hits") + get(name, "misses")
        out[f"{prefix}.hit_ratio"] = _ratio(get(name, "hits"), lookups)
        out[f"{prefix}.lookups"] = lookups / n_passes
    rows_in = get("bti.fleet.kernels", "dedup_rows_in")
    out["bti.fleet.kernels.dedup_ratio"] = _ratio(
        rows_in - get("bti.fleet.kernels", "dedup_rows_unique"), rows_in)
    out["bti.fleet.kernels.rows_in"] = rows_in / n_passes
    for prefix in ("em.korhonen.lu.batched", "circuit.lu.batched"):
        solves = get(prefix, "batched_solves")
        out[f"{prefix}.rows_per_solve"] = _ratio(
            get(prefix, "batched_rows"), solves)
        out[f"{prefix}.solves"] = solves / n_passes
    return out


def _span_layers(summary: dict, n_passes: int) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for metric in spec.LAYERS:
        for suffix, table in ((".self_s", "self_s"), (".calls", "calls"),
                              (".bytes", "bytes")):
            if metric.name.endswith(suffix):
                seam = metric.name[:-len(suffix)]
                out[metric.name] = (summary[table].get(seam, 0)
                                    / n_passes)
    wall = summary["op_wall_s"]
    out["trace.remainder_s"] = summary["remainder_s"] / n_passes
    out["trace.coverage"] = _ratio(wall - summary["remainder_s"], wall)
    out["trace.accounted"] = _ratio(
        summary["layer_self_s"] + summary["remainder_s"], wall)
    return out


def _import_times(repeats: int) -> List[float]:
    """Wall times of fresh interpreters importing the workload modules.

    A process imports once, so the import part of set-up is timed in
    child interpreters, each started and waited for in turn.
    """
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root)]))
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import perfbench.workloads"],
                       cwd=root, env=env, check=True)
        times.append(time.perf_counter() - started)
    return times


def run(workload: str, seed: int, seconds: float, trace: bool,
        size: str, out_dir: Path,
        spans_path: Optional[Path] = None) -> dict:
    """Measure ``workload`` for ``seconds`` and return its record."""
    from perfbench import workloads
    from repro.solvers import cache_counters

    from perfbench import host, tracing

    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if trace:
        tracer = tracing.Tracer(f"{workload}-{seed}-{os.getpid()}",
                                workdir / "spans")
        tracer.install()
    bench = workloads.WORKLOADS[workload](seed, size, workdir)
    checks = workloads.Checks()
    clock = workloads.Clock(tracer)
    builds: List[float] = []
    passes: List[workloads.PassResult] = []
    summary = None
    counters: Dict[str, Dict[str, int]] = {}
    probe_before = host.speed_probe()
    try:
        try:
            state = None
            for _ in range(SETUP_REPEATS):
                state = None
                gc.collect()
                build_started = time.perf_counter()
                state = bench.build()
                builds.append(time.perf_counter() - build_started)
            before = cache_counters()
            loop_started = time.perf_counter()
            while True:
                passes.append(bench.run_pass(state, clock, checks))
                if time.perf_counter() - loop_started >= seconds:
                    break
                # Free the last pass's state first, so peak memory
                # never holds two passes at once.
                state = None
                gc.collect()
                build_started = time.perf_counter()
                state = bench.build()
                builds.append(time.perf_counter() - build_started)
            counters = _delta(before, cache_counters())
        except Exception:
            checks.fail("set-up or op raised:\n"
                        + traceback.format_exc())
        state = None
        probe_after = host.speed_probe()
        if tracer is not None:
            tracer.uninstall()
            tracer.collect_workers()
            summary = tracing.summarize(tracer.spans)
        try:
            bench.reference_checks(checks)
        except Exception:
            checks.fail("reference check raised:\n"
                        + traceback.format_exc())
        if tracer is not None:
            tracer.write(spans_path
                         or out_dir / f"spans-{workload}.jsonl")
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    # Read the peak before the import children run: RUSAGE_CHILDREN
    # keeps the largest child, and those should be the pool workers.
    peak_rss = _peak_rss_mib()
    imports = _import_times(IMPORT_REPEATS)
    if len({p.digest for p in passes}) > 1:
        checks.fail("passes with one seed gave different outputs")
    reports = [report for p in passes for report in p.reports]
    for report in reports:
        if "pool" in report.mode:
            _add(counters, report.cache_counters)
    n_passes = max(len(passes), 1)
    attempted = clock.n_ops + checks.attempted
    failed = len(checks.failures)
    values: Dict[str, tuple] = {}
    if passes:
        values.update({
            "setup_s": (statistics.median(imports)
                        + statistics.median(builds), len(builds)),
            "wall_s": (sum(p.wall_s for p in passes) / len(passes),
                       len(passes)),
            "chip_epochs_per_s": (
                sum(p.chip_epochs for p in passes)
                / sum(p.advance_s for p in passes), len(passes)),
        })
        values.update(bench.metrics(clock, passes))
    values["peak_rss_mib"] = (peak_rss, 1)
    values["error_rate"] = (_ratio(failed, attempted), attempted)
    metrics = {name: {"value": value,
                      "unit": spec.end_to_end(name).unit,
                      "samples": samples}
               for name, (value, samples) in values.items()}
    layers: Dict[str, float] = {}
    layers.update(_counter_layers(counters, n_passes))
    layers.update(_sweep_layers(reports, n_passes))
    if summary is not None:
        layers.update(_span_layers(summary, n_passes))
        metrics.update({
            metric.name: {"value": float(layers[metric.name]),
                          "unit": metric.unit, "samples": len(passes)}
            for metric in spec.LAYERS})
    return {
        "workload": workload, "seed": seed, "size": size,
        "trace": bool(trace), "seconds": seconds,
        "host": host.fingerprint(seed),
        "speed_probe": {"before": probe_before, "after": probe_after},
        "meaningful": (workload != spec.STUDY
                       or len(os.sched_getaffinity(0))
                       >= workloads.REQUESTED_WORKERS),
        "pool_workers": (workloads.pool_workers()
                         if workload == spec.STUDY else None),
        "correct": not checks.failures and bool(passes),
        "attempted": max(attempted, 1), "failed": failed,
        "failures": checks.failures[:20],
        "passes": len(passes), "ops": clock.n_ops,
        "pass_walls_s": [p.wall_s for p in passes],
        "digest": passes[0].digest if passes else None,
        "imports_s": imports, "builds_s": builds,
        "op_samples": {name: len(v) for name, v in clock.samples.items()},
        "counters": counters,
        "metrics": metrics,
    }


def result_line(record: dict, names) -> dict:
    """The JSON object ``run.py`` prints as its last line."""
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name]["value"],
                           "unit": record["metrics"][name]["unit"]}
                    for name in names if name in record["metrics"]},
    }
