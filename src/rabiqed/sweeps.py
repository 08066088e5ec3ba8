"""Parameter sweeps producing flat result rows.

A sweep varies one of {detuning, coupling, temperature} over a uniform
grid and evaluates analytic shifts, rate prefactors, and exact
diagonalization at every point.  Points where the math breaks down
(resonant denominators, collapsed ladders, ambiguous labeling) produce
rows flagged with the error name rather than being dropped, so output
files always have one row per surviving grid point.

Detuning grids exclude the resonance window |detuning| < 3 g0 by default;
exact-only sweeps keep the full grid.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from .exact import DIM_CAP, AmbiguousLabeling, DimensionOverflow, exact_shifts
from .model import JC, RABI, LadderOverflow, NonPositiveSplitting, SystemConfig
from .rates import (RateOverflow, dressed_dephasing_prefactors,
                    photon_assisted_prefactor, purcell_prefactor, purcell_rates,
                    second_order_rates)
from .shifts import ResonantDivergence, shift_report

DETUNING = "detuning"
COUPLING = "coupling"
TEMPERATURE = "temperature"
SWEEP_VARIABLES = (DETUNING, COUPLING, TEMPERATURE)

RESONANCE_WINDOW_FACTOR = 3.0
# Fit grids keep points closer to resonance than analytic sweeps do: the
# near-resonance points carry most of the information about the coupling,
# and dropping everything inside 3 g0 biases the fitted g0 upward.
FIT_WINDOW_FACTOR = 1.5

_ROW_ERRORS = (ResonantDivergence, NonPositiveSplitting, AmbiguousLabeling,
               DimensionOverflow, LadderOverflow, RateOverflow)


class SweepError(ValueError):
    """A sweep request could not be interpreted."""


@dataclass(frozen=True)
class SweepRequest:
    variable: str
    start: float
    stop: float
    count: int

    def __post_init__(self) -> None:
        if self.variable not in SWEEP_VARIABLES:
            raise SweepError(f"sweep variable must be one of {SWEEP_VARIABLES}, "
                             f"got {self.variable!r}")
        if self.count < 2:
            raise SweepError(f"sweep count must be >= 2, got {self.count}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise SweepError(f"sweep bounds must be finite, got {self.start}, {self.stop}")

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)

    @classmethod
    def parse(cls, text: str) -> "SweepRequest":
        """Parse the CLI form VAR:START:STOP:COUNT."""
        parts = text.split(":")
        if len(parts) != 4:
            raise SweepError(f"sweep must look like VAR:START:STOP:COUNT, got {text!r}")
        var, start, stop, count = parts
        try:
            return cls(variable=var, start=float(start), stop=float(stop),
                       count=int(count))
        except ValueError as exc:
            raise SweepError(f"bad sweep {text!r}: {exc}") from exc


def default_detuning_grid(g0: float, window: float | None = None) -> np.ndarray:
    """The standard fit grid: 161 uniform points over -3..3 GHz minus the
    resonance window.

    window is the excluded half-width in GHz; None means 3 * g0.
    """
    if window is None:
        window = RESONANCE_WINDOW_FACTOR * g0
    grid = np.linspace(-3.0, 3.0, 161)
    return grid[np.abs(grid) >= window]


def apply_resonance_exclusion(request: SweepRequest, config: SystemConfig,
                              window: float | None = None) -> np.ndarray:
    """Grid points of a request, minus the resonance window for detuning sweeps.

    window overrides the excluded half-width (GHz); None means 3 * g0,
    and 0 keeps the full grid.
    """
    grid = request.grid()
    if request.variable == DETUNING:
        if window is None:
            window = RESONANCE_WINDOW_FACTOR * config.transmon.g0
        if window > 0.0:
            grid = grid[np.abs(grid) >= window]
    return grid


_NAN = float("nan")


@dataclass(frozen=True)
class ShiftRow:
    """Analytic and exact shift observables at one sweep point."""

    delta0_ghz: float
    chi0: float = _NAN
    xi0: float = _NAN
    chi_tilde0: float = _NAN
    pull_rabi: float = _NAN
    pull_jc: float = _NAN
    qshift_rabi: float = _NAN
    qshift_jc: float = _NAN
    exact_pull: float = _NAN
    exact_qshift: float = _NAN
    err_frac_rabi: float = _NAN
    err_frac_jc: float = _NAN
    error: str = ""


@dataclass(frozen=True)
class RateRow:
    """Fourth-order prefactors and headline rates at one sweep point."""

    delta0_ghz: float
    p0_rabi: float = _NAN
    p0_jc: float = _NAN
    d0: float = _NAN
    c0_rabi: float = _NAN
    a0_rabi: float = _NAN
    a0_jc: float = _NAN
    gamma_down0_mhz: float = _NAN
    gamma_up0_mhz: float = _NAN
    gamma_phi0_mhz: float = _NAN
    kappa_minus_mhz: float = _NAN
    kappa_plus_mhz: float = _NAN
    purcell_down0_rabi_mhz: float = _NAN
    purcell_down0_jc_mhz: float = _NAN
    error: str = ""


@dataclass(frozen=True)
class ExactRow:
    delta0_ghz: float
    exact_pull: float = _NAN
    exact_qshift: float = _NAN
    error: str = ""


def columns(row_type) -> list[str]:
    return [f.name for f in fields(row_type)]


def _detuning_of(config: SystemConfig, variable: str, value: float) -> float:
    if variable == DETUNING:
        return value
    return config.transmon.omega_10 - config.resonator.omega_r


def _frac_err(analytic: float, exact: float) -> float:
    """(analytic - exact) / exact, with 0/0 -> 0 so zero-coupling rows stay finite."""
    if exact != 0.0:
        return (analytic - exact) / exact
    return 0.0 if analytic == 0.0 else math.inf


def _shift_fields(include_exact: bool, system) -> dict:
    report = shift_report(system)
    row = dict(chi0=report.chi[0], xi0=report.xi[0], chi_tilde0=report.chi_tilde[0],
               pull_rabi=report.resonator_pull_rabi, pull_jc=report.resonator_pull_jc,
               qshift_rabi=report.qubit_shift_rabi, qshift_jc=report.qubit_shift_jc)
    if include_exact:
        exact = exact_shifts(system, RABI)
        row["exact_pull"] = exact.resonator_pull
        row["exact_qshift"] = exact.qubit_shift
        row["err_frac_rabi"] = _frac_err(report.resonator_pull_rabi, exact.resonator_pull)
        row["err_frac_jc"] = _frac_err(report.resonator_pull_jc, exact.resonator_pull)
    return row


def _rate_fields(system) -> dict:
    by_label = {t.jump.label: t.rate_mhz for t in second_order_rates(system)}
    d0, c0_rabi = dressed_dephasing_prefactors(0, system, RABI)
    purcell_rabi = purcell_rates(0, system, RABI)
    purcell_jc = purcell_rates(0, system, JC)
    return dict(
        p0_rabi=purcell_prefactor(0, system, RABI),
        p0_jc=purcell_prefactor(0, system, JC),
        d0=d0,
        c0_rabi=c0_rabi,
        a0_rabi=photon_assisted_prefactor(0, system, RABI),
        a0_jc=photon_assisted_prefactor(0, system, JC),
        gamma_down0_mhz=by_label["sigma(0,1)"],
        gamma_up0_mhz=by_label["sigma(1,0)"],
        gamma_phi0_mhz=by_label["sigma(0,0)"],
        kappa_minus_mhz=by_label["a"],
        kappa_plus_mhz=by_label["adag"],
        purcell_down0_rabi_mhz=purcell_rabi[0],
        purcell_down0_jc_mhz=purcell_jc[0])


def _exact_fields(model: str, system) -> dict:
    exact = exact_shifts(system, model)
    return dict(exact_pull=exact.resonator_pull, exact_qshift=exact.qubit_shift)


def _row(row_type, fields_of, config: SystemConfig, variable: str, value: float):
    """The row of one sweep point, or a row naming the error that ended it.

    Module-level, so that functools.partial binds it to a sweep and a worker
    process can unpickle it.
    """
    value = float(value)
    delta0 = _detuning_of(config, variable, value)
    try:
        return row_type(delta0_ghz=delta0, **fields_of(config.build(**{variable: value})))
    except _ROW_ERRORS as exc:
        return row_type(delta0_ghz=delta0, error=type(exc).__name__)


# A sweep that diagonalizes goes to a process pool when its estimated work,
# points x d^3, reaches this.  Measured with one BLAS thread on a 2-vCPU
# 2.1 GHz Xeon: one exact point (build + eigh + labeling) costs 0.6 ms at
# d = 40, 1.4-1.8 ms at d = 80 and 51-60 ms at d = 600, which is 2.4-2.8e-10 s
# per d^3 at d = 600 and more at smaller d; a fork pool of two workers costs
# 12-26 ms to start, run and reap, plus 19-22 ms to import on first use.  Two
# workers halve the serial time, so the pool pays from about 2 x 48 ms of
# work, 3.4e8 d^3 at the d = 600 rate.  As smaller d costs more per d^3, no
# sweep goes to a pool at a loss: the README's d = 40 sweeps (161 x 6.4e4)
# stay serial, and 81 points at d = 600 (81 x 2.2e8) go parallel.
_PARALLEL_BREAK_EVEN = 3.4e8


def _workers(points: int, dim: int) -> int:
    """Processes to spread `points` exact points of dimension `dim` over.

    1 (serial) when the work is below the break-even or d exceeds DIM_CAP
    (such points only raise DimensionOverflow); otherwise the CPUs in this
    process's affinity mask, at most one per point.
    """
    if dim > DIM_CAP or points * dim ** 3 < _PARALLEL_BREAK_EVEN:
        return 1
    if not hasattr(os, "sched_getaffinity"):  # not on macOS or Windows: serial
        return 1
    return min(len(os.sched_getaffinity(0)), points)


def _map_points(point, values, dim: int) -> list:
    """[point(v) for v in values], in order, over worker processes when the
    cost test and the platform allow it (fork start method, several CPUs)."""
    values = list(values)
    workers = _workers(len(values), dim)
    if workers > 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            # A forked worker flushes the standard streams it inherited when
            # it exits, so output still buffered here would appear twice.
            sys.stdout.flush()
            sys.stderr.flush()
            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
            try:
                return list(pool.map(point, values))
            finally:
                pool.shutdown(wait=True, cancel_futures=True)
    return [point(value) for value in values]


def _dimension(config: SystemConfig) -> int:
    return config.transmon.num_levels * config.resonator.fock_truncation


def shift_rows(config: SystemConfig, variable: str, values,
               include_exact: bool = True) -> list[ShiftRow]:
    point = partial(_row, ShiftRow, partial(_shift_fields, include_exact), config, variable)
    return _map_points(point, values, _dimension(config) if include_exact else 0)


def rate_rows(config: SystemConfig, variable: str, values) -> list[RateRow]:
    point = partial(_row, RateRow, _rate_fields, config, variable)
    return [point(value) for value in values]


def exact_rows(config: SystemConfig, variable: str, values,
               model: str | None = None) -> list[ExactRow]:
    if model is None:
        model = config.interaction_model
    point = partial(_row, ExactRow, partial(_exact_fields, model), config, variable)
    return _map_points(point, values, _dimension(config))


def all_rows_failed(rows) -> bool:
    return bool(rows) and all(row.error for row in rows)


def format_table(names: list[str], rows) -> str:
    """Serialize mappings deterministically: 17 significant digits, one header.

    Each row maps every name to a string (written as is) or a number.
    """
    lines = [",".join(names)]
    for row in rows:
        cells = (row[name] for name in names)
        lines.append(",".join(v if isinstance(v, str) else format(float(v), ".17g")
                              for v in cells))
    return "\n".join(lines) + "\n"


def format_csv(rows, row_type) -> str:
    """Serialize sweep rows of one row type with format_table."""
    return format_table(columns(row_type), [vars(row) for row in rows])


def parse_csv(text: str) -> tuple[list[str], list[dict[str, float | str]]]:
    """Read a CSV produced by format_table back into dict rows."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty CSV")
    names = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(names):
            raise ValueError(f"row has {len(cells)} cells, header has {len(names)}")
        row: dict[str, float | str] = {}
        for name, cell in zip(names, cells):
            if name == "error":
                row[name] = cell
            else:
                try:
                    row[name] = float(cell)
                except ValueError:
                    row[name] = cell
        rows.append(row)
    return names, rows
