"""Self-test of the benchmark itself (about two minutes).

    python3 perfbench/selftest.py

1. Two seeds give different inputs, with the same operations, for every
   workload.
2. Traced passes of every workload at those seeds pass every output check
   and do the same work: equal ``exact.eigensolves``, ``sweeps.rows`` and
   ``lindblad.apply_calls``.
3. One corrupted reference value makes exactly its operation fail, for each
   kind of check: sweep CSV bytes, fitted g0, a dynamics column, the trace.
4. End to end: run.py with one corrupted reference value reports
   ``failed`` = 1 and ``correct`` = false.

Exits 1 with a message at the first claim that does not hold.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
import time

import run
import workloads

SEEDS = (1, 2)
# operation counts that a seed must not change
WORK = ("exact.eigensolves", "sweeps.rows", "lindblad.apply_calls")


def expect(condition: bool, message: str) -> None:
    if not condition:
        sys.exit(f"selftest FAILED: {message}")
    print(f"ok: {message}", file=sys.stderr)


def seeded_inputs() -> None:
    for workload in workloads.WORKLOADS:
        a, b = (workloads.operations(workload, seed) for seed in SEEDS)
        expect([(o.id, o.kind) for o in a] == [(o.id, o.kind) for o in b],
               f"{workload}: seeds {SEEDS} run the same operations")
        expect([o.args for o in a] != [o.args for o in b],
               f"{workload}: seeds {SEEDS} give different inputs")


def same_work(reference: dict) -> None:
    for workload in workloads.WORKLOADS:
        counts = []
        for seed in SEEDS:
            ops = workloads.operations(workload, seed)
            result = run.traced_pass(ops, workload, seed, reference,
                                     time.monotonic() + run.RUN_DEADLINE_S)
            expect(not result["failures"], f"{workload} seed {seed}: every output check passes")
            counts.append({k: result["metrics"][k] for k in WORK})
        expect(counts[0] == counts[1] and any(counts[0].values()),
               f"{workload} seeds {SEEDS} do the same work: {counts}")


def _bump_row(record: dict, column: str, delta: float) -> None:
    record["rows"][10][record["header"].index(column)] += delta


def _flip_digest(record: dict) -> None:
    digest = record["sha256"]
    record["sha256"] = ("1" if digest[0] == "0" else "0") + digest[1:]


def _shift_g0(record: dict) -> None:
    record["fit"][0][2] += 2e-9


# (operation id, corruption of its reference record) for the last readme pass
CORRUPTIONS = [
    ("shifts", _flip_digest),
    ("fit", _shift_g0),
    ("evolve", lambda r: _bump_row(r, "pop_q1", 2e-6)),
    ("evolve", lambda r: _bump_row(r, "trace", 2e-9)),
]


def corrupted_values(reference: dict) -> None:
    ops = {op.id: op for op in workloads.operations("readme", SEEDS[-1])}
    workdir = run.OUT / "work" / "readme"
    for op_id, corrupt in CORRUPTIONS:
        bad = copy.deepcopy(reference)
        corrupt(bad[ops[op_id].key])
        failures = {}
        run.check_outputs(list(ops.values()), workdir, bad, failures)
        expect(list(failures) == [op_id],
               f"a corrupted {op_id} reference fails {op_id} only: {failures}")


def end_to_end(reference: dict) -> None:
    seed = SEEDS[0]
    op = next(o for o in workloads.operations("open-system", seed)
              if o.id == "evolve-coherent")
    bad = copy.deepcopy(reference)
    _bump_row(bad[op.key], "trace", 2e-9)
    path = run.OUT / "corrupted-reference.json"
    path.write_text(json.dumps(bad))
    good, run.REFERENCE = run.REFERENCE, path
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            code = run.main(["--workload", "open-system", "--seed", str(seed),
                             "--seconds", "1", "--trace", "0"])
    finally:
        run.REFERENCE = good
    last = json.loads(stdout.getvalue().splitlines()[-1])
    expect(code == 0 and last["failed"] == 1 and not last["correct"]
           and last["attempted"] == 4,
           f"run.py counts one corrupted reference value as one failure: "
           f"attempted {last['attempted']}, failed {last['failed']}")


def main() -> int:
    reference = json.loads(run.REFERENCE.read_text())
    seeded_inputs()
    same_work(reference)
    corrupted_values(reference)
    end_to_end(reference)
    print("selftest passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
