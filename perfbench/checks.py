"""Output checks: each operation's outputs against a recorded reference.

``summarize`` reduces an operation's output files to the record that
reference.json stores; ``compare`` lists how a fresh record departs from
the stored one.  Tolerances:

- sweep CSVs must match byte for byte, error rows included;
- fitted g0 must agree within 1e-9 GHz, residual curves within 1e-6 relative;
- dynamics and steady-state columns must agree within 1e-6, and the trace
  within 1e-9 (the tolerances of acceptance criterion 6);
- a plot must be well-formed SVG with one legend entry per requested column.
"""

from __future__ import annotations

import hashlib
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

from workloads import BYTES, FIT_REPORT, SVG, TABLE, Op

G0_TOL_GHZ = 1e-9
RESIDUAL_RTOL = 1e-6
COLUMN_TOL = 1e-6
TRACE_TOL = 1e-9
TIME_TOL_NS = 1e-9

_SVG = "{http://www.w3.org/2000/svg}"


def _read_table(path: Path) -> tuple[list[str], list[list[float]]]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), [[float(cell) for cell in line.split(",")]
                                 for line in lines[1:]]


def _fit_rows(path: Path) -> list[list]:
    lines = path.read_text().splitlines()
    rows = []
    for line in lines[1:]:
        model, observable, g0_hat, _stderr, _residual, n_points = line.split(",")
        rows.append([model, observable, float(g0_hat), int(float(n_points))])
    return rows


def summarize(op: Op, workdir: Path) -> dict:
    """The reference record of an operation's outputs in workdir."""
    path = workdir / op.outputs[0]
    if op.check == BYTES:
        data = path.read_bytes()
        return {"sha256": hashlib.sha256(data).hexdigest(),
                "rows": data.count(b"\n") - 1}
    if op.check == FIT_REPORT:
        record = {"fit": _fit_rows(path)}
        if len(op.outputs) > 1:
            payload = json.loads((workdir / op.outputs[1]).read_text())
            record["json"] = [[e["model"], e["observable"], e["g0_hat_ghz"],
                               e["n_points"]] for e in payload]
            header, rows = _read_table(workdir / op.outputs[2])
            record["residuals"] = {"header": header, "rows": rows}
        return record
    if op.check == TABLE:
        header, rows = _read_table(path)
        return {"header": header, "rows": rows}
    if op.check == SVG:
        root = ET.fromstring(path.read_text())
        if root.tag != _SVG + "svg":
            raise ValueError(f"root element is {root.tag}, not svg")
        texts = [t.text for t in root.iter(_SVG + "text")]
        return {"polylines": sum(1 for _ in root.iter(_SVG + "polyline")),
                "labels": [t for t in texts if t in op.args[op.args.index("--y") + 1]
                           .split(",")]}
    raise ValueError(f"unknown check {op.check!r}")


def _close(a: float, b: float, atol: float, rtol: float = 0.0) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= atol + rtol * abs(b)


def _compare_fit(rows, expected, what: str) -> list[str]:
    if [r[:2] for r in rows] != [r[:2] for r in expected]:
        return [f"{what}: fits {[r[:2] for r in rows]} != {[r[:2] for r in expected]}"]
    problems = []
    for (model, observable, g0, n), (_, _, g0_ref, n_ref) in zip(rows, expected):
        if not _close(g0, g0_ref, G0_TOL_GHZ):
            problems.append(f"{what} {model}/{observable}: g0_hat {g0!r} != {g0_ref!r}")
        if n != n_ref:
            problems.append(f"{what} {model}/{observable}: n_points {n} != {n_ref}")
    return problems


def _column_tolerance(name: str) -> tuple[float, float]:
    """(absolute, relative) tolerance of a dynamics or steady-state column."""
    if name == "trace":
        return TRACE_TOL, 0.0
    if name == "t_ns":
        return TIME_TOL_NS, 0.0
    return COLUMN_TOL, 0.0


def _residual_tolerance(name: str) -> tuple[float, float]:
    return 0.0, RESIDUAL_RTOL


def _compare_table(got: dict, expected: dict, what: str,
                   tolerance=_column_tolerance) -> list[str]:
    if got["header"] != expected["header"]:
        return [f"{what}: header {got['header']} != {expected['header']}"]
    if len(got["rows"]) != len(expected["rows"]):
        return [f"{what}: {len(got['rows'])} rows != {len(expected['rows'])}"]
    tolerances = [tolerance(name) for name in got["header"]]
    for i, (row, ref) in enumerate(zip(got["rows"], expected["rows"])):
        for name, (atol, rtol), value, want in zip(got["header"], tolerances, row, ref):
            if not _close(value, want, atol, rtol):
                return [f"{what} row {i} {name}: {value!r} != {want!r}"]
    return []


def compare(op: Op, got: dict, expected: dict | None) -> list[str]:
    """Departures of a fresh record from the reference; empty means correct."""
    if expected is None:
        return [f"no reference recorded for {op.key!r}"]
    if op.check in (BYTES, SVG):
        return [] if got == expected else [f"{op.outputs[0]}: {got} != {expected}"]
    if op.check == TABLE:
        return _compare_table(got, expected, op.outputs[0])
    problems = _compare_fit(got["fit"], expected["fit"], op.outputs[0])
    if "json" in expected:
        problems += _compare_fit(got.get("json", []), expected["json"], op.outputs[1])
        problems += _compare_table(got["residuals"], expected["residuals"],
                                   op.outputs[2], _residual_tolerance)
    return problems


def check(op: Op, workdir: Path, expected: dict | None) -> list[str]:
    """Check an operation's outputs in workdir; a list of problems, empty if none."""
    try:
        got = summarize(op, workdir)
    except (OSError, ValueError, KeyError, IndexError, ET.ParseError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    return compare(op, got, expected)
