"""Record reference.json: every operation's outputs, for every input variant.

    python3 perfbench/record.py

Runs every workload's operations through the CLI exactly as run.py does,
once per variant (seeds 0 .. VARIANTS-1), and stores each operation's
summary (checks.summarize) under its input key.  The file is written anew
from this recording alone.  Operations that share a key within it must
produce the same summary, which also checks that the outputs are
deterministic.  Values are stored to 12 significant digits, well inside
every check's tolerance.
"""

from __future__ import annotations

import json
import sys
import time

import checks
import run
import workloads


def _rounded(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    return value


def record(workload: str, reference: dict) -> None:
    for seed in range(workloads.VARIANTS):
        ops = workloads.operations(workload, seed)
        workdir = run.fresh_workdir(workload)
        for op in ops:
            with open(workdir / f"{op.id}.stderr", "wb") as err:
                child = run.run_child(run.command(op), workdir, 600.0, stderr=err)
            if child.exit != 0:
                sys.exit(f"{workload} seed {seed} {op.id}: exit {child.exit}")
            summary = _rounded(checks.summarize(op, workdir))
            if op.key in reference and checks.compare(op, summary, reference[op.key]):
                sys.exit(f"{op.key}: outputs differ between two runs in this recording")
            reference[op.key] = summary
        print(f"{workload} seed {seed}: {len(ops)} operations recorded", file=sys.stderr)


def main() -> int:
    reference = {}
    start = time.monotonic()
    for workload in workloads.WORKLOADS:
        record(workload, reference)
    lines = [f"  {json.dumps(key)}: {json.dumps(reference[key])}"
             for key in sorted(reference)]
    run.REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"{len(reference)} reference records in {time.monotonic() - start:.0f} s",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
