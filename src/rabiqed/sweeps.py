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

from .contract import SweepError, format_table, parse_csv
from .exact import DIM_CAP, AmbiguousLabeling, DimensionOverflow, exact_shifts
from .model import (JC, RABI, LadderOverflow, NonPositiveSplitting, SystemConfig,
                    ladder_collapses)
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
        # a span beyond float64 (-1e308 to 1e308) would put NaN in the grid
        if not math.isfinite(self.stop - self.start):
            raise SweepError(f"sweep bounds and their span must be finite, "
                             f"got {self.start}, {self.stop}")

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


# The standard fit grid: 161 uniform points over -3..3 GHz.
_FIT_SWEEP = SweepRequest(DETUNING, -3.0, 3.0, 161)


def default_detuning_grid(g0: float, window: float | None = None) -> np.ndarray:
    """The standard fit grid minus the resonance window.

    window is the excluded half-width in GHz; None means 3 * g0.
    """
    if window is None:
        window = RESONANCE_WINDOW_FACTOR * g0
    grid = _FIT_SWEEP.grid()
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
# 2.1 GHz Xeon: one exact point (build + eigh + labeling) costs 0.40-0.41 ms
# at d = 40, 0.75-0.95 ms at d = 80 and 58 ms at d = 600, where all but
# 0.3 ms is eigh; that is 2.7e-10 s per d^3 at d = 600 and more at smaller d.
# A fork pool of two workers costs 31-52 ms to import, start, run and reap
# on first use (10-19 ms later).  Two workers halve the serial time, so the
# pool pays from 2 x (31-52) ms of work, 2.3e8-3.9e8 d^3 at the d = 600
# rate, a range that holds 3.4e8.  As smaller d costs more per d^3, no sweep goes to a pool at a loss:
# the README's d = 40 sweeps (161 x 6.4e4) and the d = 80 fit sweep
# (161 x 5.1e5, 0.12-0.15 s serial) stay serial, and 81 points at d = 600
# (81 x 2.2e8) go parallel.
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


def _map_points(point, values, work: tuple[int, int]) -> list:
    """[point(v) for v in values], in order, over worker processes when the
    cost test on work, (points, dim) as _workers takes it, and the platform
    allow it (fork start method, several CPUs)."""
    values = list(values)
    workers = _workers(*work)
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


def _exact_work(config: SystemConfig, variable: str, values) -> tuple[int, int]:
    """The points of a sweep that diagonalize, and their dimension.

    A point whose ladder collapses raises NonPositiveSplitting before any
    Hamiltonian is built, so only the others count; ladder_collapses finds
    them in closed form, whatever num_levels is.  Only the detuning moves
    omega_10.
    """
    t = config.transmon
    detuning = np.asarray(values, dtype=float) if variable == DETUNING else None
    collapsed = ladder_collapses(config.omega_10_at(detuning), t.anharmonicity, t.num_levels)
    kept = np.count_nonzero(~np.broadcast_to(collapsed, (len(values),)))
    return int(kept), t.num_levels * config.resonator.fock_truncation


def shift_rows(config: SystemConfig, variable: str, values,
               include_exact: bool = True) -> list[ShiftRow]:
    point = partial(_row, ShiftRow, partial(_shift_fields, include_exact), config, variable)
    return _map_points(point, values,
                       _exact_work(config, variable, values) if include_exact else (0, 0))


def rate_rows(config: SystemConfig, variable: str, values) -> list[RateRow]:
    point = partial(_row, RateRow, _rate_fields, config, variable)
    return [point(value) for value in values]


def exact_rows(config: SystemConfig, variable: str, values,
               model: str | None = None) -> list[ExactRow]:
    if model is None:
        model = config.interaction_model
    point = partial(_row, ExactRow, partial(_exact_fields, model), config, variable)
    return _map_points(point, values, _exact_work(config, variable, values))


def all_rows_failed(rows) -> bool:
    return bool(rows) and all(row.error for row in rows)


def format_csv(rows, row_type) -> str:
    """Serialize sweep rows of one row type with format_table."""
    return format_table(columns(row_type), [vars(row) for row in rows])
