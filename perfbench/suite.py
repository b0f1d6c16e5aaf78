#!/usr/bin/env python3
"""Run every workload untraced and traced, and print one report.

Usage::

    python3 perfbench/suite.py [--seeds 0,1,2] [--seconds 20] [--out DIR]

Each workload runs once per seed with tracing off (the end-to-end
numbers) and once with tracing on (the per-layer numbers and a span
file).  Records land in ``DIR`` (default
``.perfbench/results/<time>``), where ``compare.py`` can read them.
The report prints every metric by name with its unit and sample
count, the tracing overhead (traced minus untraced ``wall_s``) and
how much of the timed wall the layer spans account for.  The exit
code is 1 when any correctness check failed or the spans account for
the timed wall off by more than 5%.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import host, spec  # noqa: E402

#: Largest tolerated gap between the spans' accounting and the timed
#: wall of a traced run.
ACCOUNTING_TOLERANCE = 0.05


def run_one(workload: str, seed: int, seconds: float, trace: int,
            out: Path) -> dict:
    """Run ``perfbench/run.py`` once and return its record."""
    record_path = out / f"{workload}-s{seed}-t{trace}.json"
    spans = out / f"spans-{workload}-s{seed}.jsonl"
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--out", str(record_path)]
    if trace:
        command += ["--spans", str(spans)]
    finished = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True)
    if not record_path.exists():
        sys.stderr.write(finished.stdout + finished.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace} "
                         f"produced no record (exit "
                         f"{finished.returncode})")
    return json.loads(record_path.read_text())


def _median(records, name):
    values = [r["metrics"][name]["value"] for r in records
              if name in r["metrics"]]
    return (statistics.median(values), len(values)) if values else None


def report(records: list) -> int:
    """Print the suite report; return the exit code."""
    status = 0
    for workload in spec.WORKLOADS:
        plain = [r for r in records
                 if r["workload"] == workload and not r["trace"]]
        traced = [r for r in records
                  if r["workload"] == workload and r["trace"]]
        if not plain and not traced:
            continue
        print(f"\n== {workload}  ({len(plain)} untraced, "
              f"{len(traced)} traced runs)")
        for record in plain + traced:
            flag = "ok" if record["correct"] else "FAILED"
            if not record["meaningful"]:
                flag += " (not meaningful: fewer CPUs than workers)"
            print(f"   seed {record['seed']} trace "
                  f"{int(record['trace'])}: {flag}, "
                  f"{record['passes']} passes")
            for failure in record["failures"]:
                print(f"     FAILED: {failure}")
            if not record["correct"]:
                status = 1
        print("   end to end (untraced):")
        for metric in spec.workload_metrics(workload):
            found = _median(plain, metric.name)
            if found is None:
                continue
            samples = statistics.median(
                r["metrics"][metric.name]["samples"] for r in plain)
            print(f"     {metric.name:22s} {found[0]:14.6g} "
                  f"{metric.unit:6s} (n={samples:g} per run, "
                  f"{found[1]} runs)")
        if not traced:
            continue
        print("   per layer (traced, per pass):")
        for metric in spec.LAYERS:
            found = _median(traced, metric.name)
            if found is not None and found[0]:
                moves = ", ".join(name for name, w in metric.moves
                                  if w == workload)
                print(f"     {metric.name:40s} {found[0]:12.5g} "
                      f"{metric.unit:6s} -> {moves or '-'}")
        plain_wall = _median(plain, "wall_s")
        traced_wall = _median(traced, "wall_s")
        if plain_wall and traced_wall:
            overhead = traced_wall[0] - plain_wall[0]
            print(f"   tracing overhead: {overhead:+.4f} s per pass "
                  f"({overhead / plain_wall[0]:+.2%} of wall_s)")
        print(f"   {host.describe_probes(plain + traced)}")
        accounted = _median(traced, "trace.accounted")[0]
        coverage = _median(traced, "trace.coverage")[0]
        print(f"   spans cover {coverage:.2%} of the timed wall; self "
              f"times + remainder = {accounted:.4f} x wall")
        if abs(accounted - 1.0) > ACCOUNTING_TOLERANCE:
            print("   FAILED: span accounting off by more than "
                  f"{ACCOUNTING_TOLERANCE:.0%}")
            status = 1
    if records:
        print(f"\nhost: {json.dumps(records[0]['host'], sort_keys=True)}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0")
    parser.add_argument("--seconds", type=float,
                        default=json.loads(
                            (ROOT / "BENCHMARK.json").read_text())
                        ["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    out = args.out or (ROOT / ".perfbench" / "results"
                       / time.strftime("%Y%m%d-%H%M%S"))
    out.mkdir(parents=True, exist_ok=True)
    records = []
    for seed in (int(s) for s in args.seeds.split(",")):
        for workload in spec.WORKLOADS:
            for trace in (0, 1):
                print(f"running {workload} seed {seed} trace {trace}",
                      flush=True)
                records.append(run_one(workload, seed, args.seconds,
                                       trace, out))
    status = report(records)
    print(f"records in {out}")
    return status


if __name__ == "__main__":
    sys.exit(main())
