#!/usr/bin/env python3
"""Compare two result sets, one row per workload x metric.

Usage::

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds run records written by ``suite.py`` (or
``run.py --out``), ideally ten or more runs per workload with
different seeds.  End-to-end metrics come from the untraced records,
per-layer metrics from the traced ones, so a layer that got slower
shows even when no end-to-end metric moves.

Each row gives both sides' median and quartiles and a verdict against
the metric's bound (``perfbench/spec.py``; per-layer metrics use
``LAYER_COMPARE_BOUND``):

* ``worse``: the new median is worse than the base median by more
  than the bound;
* ``unresolved``: either side's spread (quartile distance over
  median) exceeds the bound, and neither side's runs all beat the
  other's;
* ``better``: the new side wins at least nine in ten seed-paired runs
  and the medians differ by more than the base side's quartile
  distance;
* ``same``: none of the above.

Each side's median host speed probe is printed first: when they
differ, the host, not the program, may have moved the numbers.  The
exit code is 1 when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import host, spec  # noqa: E402

#: Share of seed-paired runs the new side must win to claim a gain.
PAIR_WIN_SHARE = 0.9


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: Sequence[float], new: Sequence[float], better: str,
            bound: float) -> str:
    """``better``, ``worse``, ``same`` or ``unresolved`` (see module).

    ``base`` and ``new`` are paired by position (same seed).
    """
    sign = 1.0 if better == "higher" else -1.0
    b1, b_med, b3 = quartiles(base)
    n1, n_med, n3 = quartiles(new)
    if b_med == n_med:
        return "same"
    gain = sign * (n_med - b_med)
    scale = abs(b_med)
    change = gain / scale if scale else float("inf") * (
        1.0 if gain > 0 else -1.0)
    spreads = [(q3 - q1) / abs(med) if med else 0.0
               for q1, med, q3 in ((b1, b_med, b3), (n1, n_med, n3))]
    dominates = (min(sign * v for v in new) > max(sign * v for v in base)
                 or max(sign * v for v in new)
                 < min(sign * v for v in base))
    if max(spreads) > bound and not dominates:
        return "unresolved"
    if change < -bound:
        return "worse"
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    if (gain > 0 and pairs and wins >= PAIR_WIN_SHARE * len(pairs)
            and abs(n_med - b_med) > b3 - b1):
        return "better"
    return "same"


def load(directory: Path) -> List[dict]:
    """Every run record in ``directory``."""
    records = []
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if isinstance(record, dict) and "metrics" in record \
                and "workload" in record:
            records.append(record)
    return records


def _series(records: List[dict], workload: str, traced: bool
            ) -> Dict[str, List[float]]:
    """Metric values per name, ordered by seed for pairing."""
    chosen = sorted((r for r in records if r["workload"] == workload
                     and bool(r["trace"]) == traced),
                    key=lambda r: r["seed"])
    series: Dict[str, List[float]] = {}
    for record in chosen:
        for name, metric in record["metrics"].items():
            series.setdefault(name, []).append(metric["value"])
    return series


def compare(base: List[dict], new: List[dict]) -> List[dict]:
    """One row per workload x metric present on both sides."""
    rows = []
    for workload in spec.WORKLOADS:
        for traced, names in (
                (False, [m.name for m in spec.workload_metrics(workload)]),
                (True, [m.name for m in spec.LAYERS])):
            a = _series(base, workload, traced)
            b = _series(new, workload, traced)
            for name in names:
                if name not in a or name not in b:
                    continue
                if traced and max(a[name] + b[name]) == 0:
                    continue
                rows.append({
                    "workload": workload, "metric": name,
                    "base": quartiles(a[name]), "new": quartiles(b[name]),
                    "runs": (len(a[name]), len(b[name])),
                    "verdict": verdict(a[name], b[name],
                                       spec.better_of(name),
                                       spec.bound_of(name)),
                })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    for label, records in (("base", base), ("new", new)):
        if records:
            print(f"{label} {host.describe_probes(records)}")
    rows = compare(base, new)
    if not rows:
        print("no metric appears in both result sets")
        return 1
    print(f"{'workload':13s} {'metric':42s} {'base q1/med/q3':>32s} "
          f"{'new q1/med/q3':>32s} runs    verdict")
    for row in rows:
        sides = ["/".join(f"{v:.4g}" for v in row[side])
                 for side in ("base", "new")]
        print(f"{row['workload']:13s} {row['metric']:42s} "
              f"{sides[0]:>32s} {sides[1]:>32s} "
              f"{row['runs'][0]}:{row['runs'][1]:<4d} {row['verdict']}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
