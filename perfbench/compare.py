"""Summarize or compare sets of benchmark result files.

    python3 perfbench/compare.py RESULTS_DIR             # one set: medians, spreads
    python3 perfbench/compare.py BASE_DIR NEW_DIR        # two sets: changes vs bounds

A directory holds the JSON files run.py writes to perfbench/out/results.
For each workload and end-to-end metric this prints the median, the
quartiles and the spread (interquartile range over the median); with two
sets, also the change of the median against the metric's bound.  It refuses
(exit 2) to compare results whose recorded environments differ: thread
settings, CPU count and model, or Python, NumPy, SciPy and BLAS versions.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: str) -> list[dict]:
    records = [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]
    return [r for r in records if r["trace"] == 0]


def summary(values: list[float]) -> tuple[float, float, float]:
    """Median and quartiles, as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(d) for d in argv]
    environments = {json.dumps(r["environment"], sort_keys=True) for s in sets for r in s}
    if len(environments) > 1:
        print("error: the results were recorded in different environments:",
              *sorted(environments), sep="\n  ", file=sys.stderr)
        return 2
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    workloads = sorted({r["workload"] for s in sets for r in s})
    for workload in workloads:
        runs = [[r for r in s if r["workload"] == workload] for s in sets]
        failed = [sum(r["failed"] for r in rs) for rs in runs]
        print(f"{workload}: runs {[len(rs) for rs in runs]}, failed operations {failed}")
        for m in metrics:
            cells = []
            medians = []
            for rs in runs:
                values = [r["metrics"][m["name"]] for r in rs]
                median, q1, q3 = summary(values)
                medians.append(median)
                cells.append(f"{median:10.4f} [{q1:.4f}, {q3:.4f}] "
                             f"spread {(q3 - q1) / median:6.2%}")
            line = f"  {m['name']:<12} {m['unit']:<3} " + " | ".join(cells)
            if len(medians) == 2:
                change = (medians[1] - medians[0]) / medians[0]
                worse = change if m["better"] == "lower" else -change
                verdict = "WORSE beyond bound" if worse > m["bound"] else "within bound"
                line += f" | change {change:+.2%} (bound {m['bound']:.0%}) {verdict}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
