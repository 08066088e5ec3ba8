"""One traced pass of a workload, run in-process, for the per-layer metrics.

The package is imported once; each operation then runs through
``rabiqed.cli.main`` (or the library script) in this process, while
wrappers installed from this file record a span around every call into a
layer: name, start, end, parent span and operation id.  Spans stay in
memory until the pass ends, when they are written out as CSV and reduced to
the per-layer metrics.  End-to-end numbers never come from this pass.

    python3 trace.py --workload readme --seed 1 --workdir DIR \
        --spans spans.csv --metrics layers.json
"""

from __future__ import annotations

import argparse
import csv
import functools
import importlib
import json
import os
import sys
import time
import traceback
from collections import defaultdict

import rabiqed.cli

import coherent
import workloads

# (layer, module, attribute, span calls made inside the defining module too)
# A span normally marks a call that crosses into a layer from outside it.
# The exact phases and realize_terms are called from inside their own
# module, and the CLI reaches the sweep functions as ``sweeps.<name>``, so
# their own module's binding is wrapped as well.  Methods are wrapped on
# the class, which spans every call.
TARGETS = [
    ("model", "rabiqed.model", "SystemConfig.build", True),
    ("model", "rabiqed.model", "load_config", False),
    ("shifts", "rabiqed.shifts", "shift_report", False),
    ("rates", "rabiqed.rates", "build_rate_table", False),
    ("rates", "rabiqed.rates", "second_order_rates", False),
    ("rates", "rabiqed.rates", "purcell_prefactor", False),
    ("rates", "rabiqed.rates", "purcell_rates", False),
    ("rates", "rabiqed.rates", "dressed_dephasing_prefactors", False),
    ("rates", "rabiqed.rates", "photon_assisted_prefactor", False),
    ("rates", "rabiqed.rates", "driven_effective_rates", False),
    ("exact", "rabiqed.exact", "build_hamiltonian", True),
    ("exact", "rabiqed.exact", "diagonalize", True),
    ("exact", "rabiqed.exact", "label_dressed_states", True),
    ("exact", "rabiqed.exact", "fit_g0", False),
    ("exact", "rabiqed.exact", "fit_residual_curve", False),
    ("lindblad", "rabiqed.lindblad", "assemble", False),
    ("lindblad", "rabiqed.lindblad", "realize_terms", True),
    ("lindblad", "rabiqed.lindblad", "LindbladGenerator.apply", True),
    ("lindblad", "rabiqed.lindblad", "LindbladGenerator.superoperator", True),
    ("lindblad", "rabiqed.lindblad", "evolve", False),
    ("lindblad", "rabiqed.lindblad", "steady_state", False),
    ("sweeps", "rabiqed.sweeps", "shift_rows", True),
    ("sweeps", "rabiqed.sweeps", "rate_rows", True),
    ("sweeps", "rabiqed.sweeps", "exact_rows", True),
    ("sweeps", "rabiqed.sweeps", "format_csv", True),
    ("sweeps", "rabiqed.sweeps", "parse_csv", True),
    ("svgplot", "rabiqed.svgplot", "LinePlot.render", True),
]

_ID, _PARENT, _NAME, _START, _END, _OP = range(6)


class Tracer:
    """Spans kept in memory as [id, parent, name, start_ns, end_ns, op]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = ""
        # largest values seen at the layer boundaries: dimensions, bytes
        self.peaks: dict[str, float] = defaultdict(float)
        self.rows = 0

    def wrap(self, name, fn, observe=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [len(spans), stack[-1] if stack else -1, name, clock(), 0, self.op]
            spans.append(record)
            stack.append(record[_ID])
            try:
                result = fn(*args, **kwargs)
            finally:
                record[_END] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(self.peaks[name], float(value))


def _observers(tracer: Tracer) -> dict:
    def hamiltonian(h):
        tracer.peak("exact.dim", h.shape[0])
        tracer.peak("exact.hamiltonian_bytes", h.nbytes)

    def generator(gen):
        tracer.peak("lindblad.dim", gen.dim)
        tracer.peak("lindblad.dissipators", len(gen.dissipators))

    def superoperator(matrix):
        if hasattr(matrix, "indptr"):
            size = matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
        else:
            size = matrix.nbytes
        tracer.peak("lindblad.superoperator_bytes", size)

    def rows(result):
        tracer.rows += len(result)

    return {"build_hamiltonian": hamiltonian, "assemble": generator,
            "LindbladGenerator.superoperator": superoperator,
            "shift_rows": rows, "rate_rows": rows, "exact_rows": rows}


def install(tracer: Tracer) -> None:
    """Replace each target, in every rabiqed module that binds it, by a wrapper."""
    observers = _observers(tracer)
    modules = [m for name, m in list(sys.modules.items())
               if name == "rabiqed" or name.startswith("rabiqed.")]
    for layer, module_name, attribute, inside in TARGETS:
        home = importlib.import_module(module_name)
        span = f"{layer}.{attribute.split('.')[-1]}"
        if "." in attribute:
            cls_name, method = attribute.split(".")
            cls = getattr(home, cls_name)
            setattr(cls, method, tracer.wrap(span, getattr(cls, method),
                                             observers.get(attribute)))
            continue
        original = getattr(home, attribute)
        wrapper = tracer.wrap(span, original, observers.get(attribute))
        for module in modules:
            if module is home and not inside:
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)


def span_cost_s(repeats: int = 3, calls: int = 20_000) -> float:
    """Time one span adds to a call, from a wrapped and a bare no-op."""
    def noop():
        return None

    wrapped = Tracer().wrap("calibration", noop)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)


def layer_metrics(tracer: Tracer, per_span_s: float) -> dict[str, float]:
    """Per-layer metrics of one pass, from the spans' self times."""
    spans = tracer.spans
    covered = defaultdict(int)
    for s in spans:
        if s[_PARENT] >= 0:
            covered[s[_PARENT]] += s[_END] - s[_START]
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for s in spans:
        calls[s[_NAME]] += 1
        self_s[s[_NAME]] += (s[_END] - s[_START] - covered[s[_ID]]) * 1e-9
    # rate-formula time per row of a rates sweep: the rates spans whose
    # parent is a sweeps.rate_rows span
    rate_sweeps = {s[_ID] for s in spans if s[_NAME] == "sweeps.rate_rows"}
    rate_row_time = sum((s[_END] - s[_START] - covered[s[_ID]]) * 1e-9 for s in spans
                        if s[_PARENT] in rate_sweeps and s[_NAME].startswith("rates."))
    rate_rows = sum(1 for s in spans if s[_PARENT] in rate_sweeps
                    and s[_NAME] == "model.build")
    applies = calls["lindblad.apply"]
    peaks = tracer.peaks
    return {
        "model.build_calls": calls["model.build"],
        "model.build_s": self_s["model.build"] + self_s["model.load_config"],
        "shifts.shift_report_calls": calls["shifts.shift_report"],
        "shifts.shift_report_s": self_s["shifts.shift_report"],
        "rates.build_rate_table_calls": calls["rates.build_rate_table"],
        "rates.build_rate_table_s": self_s["rates.build_rate_table"],
        "rates.rate_row_s": rate_row_time / rate_rows if rate_rows else 0.0,
        "exact.dim": peaks["exact.dim"],
        "exact.eigensolves": calls["exact.diagonalize"],
        "exact.build_hamiltonian_s": self_s["exact.build_hamiltonian"],
        "exact.diagonalize_s": self_s["exact.diagonalize"],
        "exact.label_dressed_states_s": self_s["exact.label_dressed_states"],
        "exact.hamiltonian_mb": peaks["exact.hamiltonian_bytes"] / 1e6,
        "exact.fit_g0_calls": calls["exact.fit_g0"],
        "exact.fit_g0_s": self_s["exact.fit_g0"],
        "exact.fit_residual_curve_s": self_s["exact.fit_residual_curve"],
        "lindblad.dim": peaks["lindblad.dim"],
        "lindblad.dissipators": peaks["lindblad.dissipators"],
        "lindblad.assemble_s": self_s["lindblad.assemble"],
        "lindblad.realize_terms_s": self_s["lindblad.realize_terms"],
        "lindblad.apply_s": self_s["lindblad.apply"] / applies if applies else 0.0,
        "lindblad.apply_calls": applies,
        "lindblad.evolve_s": self_s["lindblad.evolve"],
        "lindblad.superoperator_s": self_s["lindblad.superoperator"],
        "lindblad.superoperator_mb": peaks["lindblad.superoperator_bytes"] / 1e6,
        "lindblad.steady_state_s": self_s["lindblad.steady_state"],
        "sweeps.rows": tracer.rows,
        "sweeps.format_csv_s": self_s["sweeps.format_csv"],
        "sweeps.parse_csv_s": self_s["sweeps.parse_csv"],
        "svgplot.render_s": self_s["svgplot.render"],
        "trace.overhead_s": per_span_s * len(spans),
    }


def run_pass(tracer: Tracer, ops) -> list[dict]:
    programs = {workloads.CLI: rabiqed.cli.main, workloads.LIBRARY: coherent.main}
    statuses = []
    for op in ops:
        tracer.op = op.id
        run = tracer.wrap("op." + op.id, programs[op.program])
        try:
            code = run(list(op.args))
        except Exception:  # the pass goes on; the failure is counted
            traceback.print_exc()
            code = None
        statuses.append({"id": op.id, "exit": code})
    return statuses


def write_spans(path: str, workload: str, spans: list[list]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "parent", "name", "start_ns", "end_ns", "workload", "op"])
        for s in spans:
            writer.writerow([s[_ID], s[_PARENT], s[_NAME], s[_START], s[_END],
                             workload, s[_OP]])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one traced pass of a workload")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--metrics", required=True)
    args = parser.parse_args(argv)

    per_span_s = span_cost_s()
    tracer = Tracer()
    install(tracer)
    os.chdir(args.workdir)
    statuses = run_pass(tracer, workloads.operations(args.workload, args.seed))
    write_spans(args.spans, args.workload, tracer.spans)
    with open(args.metrics, "w") as handle:
        json.dump({"ops": statuses, "metrics": layer_metrics(tracer, per_span_s),
                   "spans": len(tracer.spans)}, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
