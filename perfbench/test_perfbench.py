"""Tests of the benchmark itself.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
The workload runs use the ``tiny`` size, which takes the same code
paths as the measured one in about a second each.
"""

from __future__ import annotations

import json
import multiprocessing
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import compare, harness, spec, tracing  # noqa: E402
from perfbench.workloads import WHY  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(autouse=True)
def _one_import_sample(monkeypatch):
    """One timed child import per run keeps the tiny runs quick."""
    monkeypatch.setattr(harness, "IMPORT_REPEATS", 1)


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_spec():
    document = _benchmark_json()
    assert document == spec.benchmark_json(document["run_seconds"], WHY)


def test_metric_names_are_well_formed_and_unique():
    document = _benchmark_json()
    names = [m["name"] for m in document["end_to_end"]
             + document["per_layer"]]
    assert len(names) == len(set(names))
    for name in names + [m.name for m in spec.END_TO_END]:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_every_layer_metric_maps_to_an_end_to_end_metric():
    for layer in spec.LAYERS:
        assert layer.moves, layer.name
        for metric, workload in layer.moves:
            assert workload in spec.WORKLOADS, layer.name
            assert workload in spec.end_to_end(metric).workloads, (
                f"{layer.name} maps to {metric}, which {workload} "
                "does not report")


@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_one_seed_gives_identical_output_digests(workload, tmp_path):
    digests = [harness.run(workload, 3, 0.0, False, "tiny",
                           tmp_path)["digest"] for _ in range(2)]
    assert digests[0] is not None and digests[0] == digests[1]


@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_traced_run_accounts_for_the_timed_wall(workload, tmp_path):
    spans = tmp_path / "spans.jsonl"
    record = harness.run(workload, 0, 0.0, True, "tiny", tmp_path,
                         spans_path=spans)
    assert record["correct"], record["failures"]
    metrics = record["metrics"]
    for layer in spec.LAYERS:
        assert layer.name in metrics
    assert abs(metrics["trace.accounted"]["value"] - 1.0) <= 0.05
    assert metrics["trace.coverage"]["value"] > 0.9
    lines = spans.read_text().splitlines()
    assert lines and {"run", "id", "parent", "name", "start_ns",
                      "end_ns"} <= set(json.loads(lines[0]))


def _leaf(x):
    return x + 1


def _worker_entry(x):
    return _demo.leaf(x)


_demo = types.ModuleType("perfbench_demo_layer")
_demo.leaf = _leaf
_demo.entry = _worker_entry


def test_forked_worker_spans_reach_the_parent(tmp_path, monkeypatch):
    monkeypatch.setitem(sys.modules, "perfbench_demo_layer", _demo)
    tracer = tracing.Tracer("t", tmp_path / "spill")
    tracer.install((("perfbench_demo_layer", None, "entry", "demo.entry"),
                    ("perfbench_demo_layer", None, "leaf", "demo.leaf")))
    try:
        with tracer.op("parent-op"):
            child = multiprocessing.get_context("fork").Process(
                target=_demo.entry, args=(1,))
            child.start()
            child.join(timeout=30)
            assert child.exitcode == 0
    finally:
        tracer.uninstall()
    tracer.collect_workers()
    names = {(span[2], span[5] == tracer.pid) for span in tracer.spans}
    assert ("demo.entry", False) in names
    assert ("demo.leaf", False) in names
    op = next(s for s in tracer.spans if s[2] == "op.parent-op")
    worker_root = next(s for s in tracer.spans if s[2] == "demo.entry")
    assert worker_root[1] == op[0] and worker_root[6] == op[0]
    summary = tracing.summarize(tracer.spans)
    # The worker ran in another process, so it does not reduce the
    # parent op's remainder; its own spans still count.
    assert summary["calls"] == {"demo.entry": 1, "demo.leaf": 1}
    assert summary["remainder_s"] == pytest.approx(summary["op_wall_s"])
    assert _demo.entry is _worker_entry


def test_self_time_subtracts_same_process_children():
    spans = [[1, None, "op.x", 0, 100, 7, None, 0],
             [2, 1, "a", 10, 60, 7, 1, 0],
             [3, 2, "b", 20, 30, 7, 1, 0],
             [4, 2, "b", 40, 50, 7, 1, 0]]
    summary = tracing.summarize(spans)
    assert summary["self_s"] == {"a": 30e-9, "b": 20e-9}
    assert summary["remainder_s"] == pytest.approx(50e-9)
    assert summary["layer_self_s"] + summary["remainder_s"] \
        == pytest.approx(summary["op_wall_s"])


@pytest.mark.parametrize("base, new, better, bound, expected", [
    # 20% slower, tight spread: worse.
    ([1.0, 1.01, 0.99, 1.0], [1.2, 1.21, 1.19, 1.2], "lower", 0.1,
     "worse"),
    # 20% faster on every pair: better.
    ([1.0, 1.01, 0.99, 1.0], [0.8, 0.81, 0.79, 0.8], "lower", 0.1,
     "better"),
    # Within the bound and inside the base spread: same.
    ([1.0, 1.02, 0.98, 1.0], [1.01, 0.99, 1.0, 1.0], "lower", 0.1,
     "same"),
    # Spread wider than the bound, no dominance: unresolved.
    ([1.0, 1.5, 0.6, 1.2], [1.1, 0.7, 1.4, 0.9], "lower", 0.1,
     "unresolved"),
    # Wide spread, but every new run beats every base run: resolved.
    ([2.0, 2.6, 3.0, 3.4], [1.0, 1.3, 1.5, 1.7], "lower", 0.1,
     "better"),
    # Higher is better: a throughput drop beyond the bound is worse.
    ([100.0, 101.0, 99.0], [80.0, 81.0, 79.0], "higher", 0.1, "worse"),
    # A small but consistent gain that stays inside the base quartiles
    # is not claimed.
    ([1.0, 1.04, 0.96, 1.0], [0.99, 1.03, 0.95, 0.99], "lower", 0.1,
     "same"),
])
def test_compare_verdicts(base, new, better, bound, expected):
    assert compare.verdict(base, new, better, bound) == expected


def test_compare_rows_cover_layers_and_end_to_end():
    def record(seed, trace, metrics):
        return {"workload": spec.STREAM, "seed": seed, "trace": trace,
                "metrics": {k: {"value": v} for k, v in metrics.items()}}

    base = [record(s, False, {"wall_s": 1.0 + s / 100}) for s in range(4)]
    base += [record(s, True, {"bti.fleet.step.self_s": 0.5})
             for s in range(4)]
    new = [record(s, False, {"wall_s": 1.0 + s / 100}) for s in range(4)]
    new += [record(s, True, {"bti.fleet.step.self_s": 0.7})
            for s in range(4)]
    verdicts = {(row["metric"]): row["verdict"]
                for row in compare.compare(base, new)}
    assert verdicts == {"wall_s": "same",
                        "bti.fleet.step.self_s": "worse"}


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    finished = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         spec.STREAM, "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert finished.returncode != 0
    assert finished.stdout.strip() == ""
