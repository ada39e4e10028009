"""Median, quartiles and spread of each metric over the runs of each workload.

    python3 perfbench/summarize.py [REPORT_DIR]

Reads the `report-*.json` files that `run.py` leaves in REPORT_DIR (default
`.bench_build/perfbench`).  Spread is the interquartile distance over the
median, as `statistics.quantiles(values, n=4)` gives the quartiles.  Infinite
values (unsolved instances at the median or the tail) compare equal to each
other; a metric that is infinite in some runs and finite in others is shown
as such, not averaged.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from collections import defaultdict
from pathlib import Path

import stats


def summarize(paths) -> dict:
    runs: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for path in sorted(paths):
        report = json.loads(Path(path).read_text())
        key = "end_to_end" if "per_layer" not in report else "per_layer"
        for name, value in report[key].items():
            runs[report["workload"]][name].append(value)
    out: dict = {}
    for workload, metrics in runs.items():
        out[workload] = {}
        for name, values in metrics.items():
            finite = [v for v in values if not math.isinf(v) and not math.isnan(v)]
            row = {"runs": len(values), "median": statistics.median(values)}
            if len(finite) == len(values) and len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                row.update(q1=q1, q3=q3, spread=stats.spread(values) if row["median"] else 0.0)
            elif finite:
                row["infinite_runs"] = len(values) - len(finite)
            out[workload][name] = row
    return out


def main() -> None:
    root = Path(sys.argv[1] if len(sys.argv) > 1 else ".bench_build/perfbench")
    for workload, metrics in summarize(root.glob("report-*.json")).items():
        print(workload)
        for name, row in metrics.items():
            spread = f"{row['spread']:.3f}" if "spread" in row else "-"
            print(f"  {name:<36} runs={row['runs']:<3} median={row['median']:<12.6g} spread={spread}"
                  + (f" infinite_runs={row['infinite_runs']}" if "infinite_runs" in row else ""))


if __name__ == "__main__":
    main()
