#!/usr/bin/env python3
"""Run one benchmark workload and print its result.

Usage::

    python3 perfbench/run.py --workload fleet-stream --seed 0 \\
        --seconds 20 --trace 0

Run it from the repository root.  With ``--trace 0`` the last line of
standard output is a JSON object holding every end-to-end metric of
``BENCHMARK.json``; with ``--trace 1`` the layer seams are wrapped and
it holds every per-layer metric, and the spans are written as JSON
lines (default ``.perfbench/spans-<workload>.jsonl``).  ``--out``
also writes the full record: host fingerprint, every metric with its
sample count, counters and failed checks.  The exit code is 0 when
every correctness check passed, 1 when one failed and 2 when the
repository's sources are missing.
"""

import os
import sys

# Pin BLAS/OpenMP threads before numpy loads; the pool workers fork
# from this process and inherit the pin.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
              "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fleet-stream", "fleet-study", "design-sweep")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="also write the full record here")
    parser.add_argument("--spans", type=Path,
                        help="span file of a traced run")
    return parser.parse_args(argv)


def stop_helpers() -> None:
    """Stop every helper process this run started and wait for each.

    The pool workers are joined when their study ends, but the parent's
    ``SharedMemory`` slab starts multiprocessing's resource tracker,
    which would otherwise outlive this process for a moment.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join()
    tracker = resource_tracker._resource_tracker
    if tracker._fd is not None:
        # Closing the tracker's pipe ends it; then reap it.
        tracker._stop()


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        stop_helpers()


def _main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}; run the "
              "benchmark from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness, spec

    record = harness.run(args.workload, args.seed, args.seconds,
                         bool(args.trace), "full", ROOT / ".perfbench",
                         spans_path=args.spans)
    print(f"{record['workload']} seed={record['seed']} "
          f"trace={int(record['trace'])} passes={record['passes']} "
          f"ops={record['ops']} correct={record['correct']}")
    for name, metric in record["metrics"].items():
        print(f"  {name:44s} {metric['value']:14.6g} "
              f"{metric['unit']:6s} (n={metric['samples']})")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")
    print(f"  host: {json.dumps(record['host'], sort_keys=True)}")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    names = ([metric.name for metric in spec.LAYERS] if args.trace
             else list(spec.HEADLINE))
    print(json.dumps(harness.result_line(record, names)))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
