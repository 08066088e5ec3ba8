"""Parameter sweeps producing flat result rows.

A sweep varies one of {detuning, coupling, temperature} over a uniform
grid.  Points where the math breaks down (resonant denominators, collapsed
ladders, ambiguous labeling) produce rows flagged with the error name
rather than being dropped, so output files always have one row per
surviving grid point.

Every sweep runs through one driver, _sweep.  Its array pass (_analytic)
settles every point's ladder, and the row error that ends the point, in
NumPy over points x ladder index: one transmon_grid ladder record, then the
ShiftArrays and prefactor_arrays expressions that a system evaluates from
its own record.  Elementwise IEEE arithmetic rounds alike at any array
shape, so each row holds the bits its own system gives.  Bath noise powers
stay scalar SpectralFunction.evaluate calls, one per rate the point's system
lists.  One exact pass then expands the ladder record of each point left
standing from its omega_10 and g0, with the same bits, and diagonalizes it
(in shift_rows, the points whose analytic columns hold; in exact_rows, those
whose ladder holds), serially or over forked workers (_map_points).  No
sweep builds a SystemSpec but _refuse.  Only the modules a sweep uses are
imported: rates for rate rows, exact where a row diagonalizes.

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

from .contract import (AmbiguousLabeling, DimensionOverflow, LadderOverflow,
                       NonPositiveSplitting, PrecisionLoss, RateOverflow,
                       ResonantDivergence, SweepError, format_table, parse_csv)
from .model import (JC, MAX_LADDER_ENTRIES, RABI, Ladder, SystemConfig, ladder_collapses,
                    transmon_grid)
from .shifts import ShiftArrays, pull_and_qubit_shift, resonant

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
               DimensionOverflow, LadderOverflow, RateOverflow, PrecisionLoss)


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
        # a point holds a ladder of at least one level, so the cap bounds the grid
        if not 2 <= self.count <= MAX_LADDER_ENTRIES:
            raise SweepError(f"sweep count must be 2 to {MAX_LADDER_ENTRIES}, got {self.count}")
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


def _analytic(config: SystemConfig, variable: str, values: list[float],
              columns_of) -> tuple[list, int, np.ndarray, np.ndarray]:
    """Per point, a dict of its analytic columns or the name of the row error
    that ends it; the number of points evaluated; the omega_10 and g0 arrays.

    The points' ladders come from one array pass per chunk of at most
    MAX_LADDER_ENTRIES levels, with config.build's row errors in its order:
    an omega_10 beyond float64, a collapse, a ladder above the cap or beyond
    float64.  columns_of(config, variable, values, ladder) takes the points
    whose ladders hold, with their ladder record.  A point whose build would
    raise InvalidSpec (a negative coupling or temperature, level energies
    that round equal) ends the pass short of itself; _refuse then raises it.
    """
    t = config.transmon
    n = t.num_levels
    grid = np.asarray(values)
    with np.errstate(over="ignore"):  # omega_r + detuning beyond float64 is a fault
        omega_10 = config.omega_10_at(grid) if variable == DETUNING else \
            np.full(grid.shape, t.omega_10)
    g0 = grid if variable == COUPLING else np.full(grid.shape, t.g0)
    invalid = grid < 0.0 if variable in (COUPLING, TEMPERATURE) else \
        np.zeros(grid.shape, bool)
    results = np.where(~np.isfinite(omega_10), LadderOverflow.__name__,
                       np.where(ladder_collapses(omega_10, t.anharmonicity, n),
                                NonPositiveSplitting.__name__,
                                LadderOverflow.__name__ if n > MAX_LADDER_ENTRIES else ""))
    results = results.tolist()
    chunk = max(1, MAX_LADDER_ENTRIES // n)
    for start in range(0, len(grid), chunk):
        points = np.arange(start, min(start + chunk, len(grid)))
        ok = np.array([not results[i] for i in points])
        bad = invalid[points]
        if ok.any():
            ladder = transmon_grid(omega_10[points, None], t.anharmonicity,
                                   g0[points, None], n)
            finite = np.isfinite(ladder.energies).all(axis=-1) & np.isfinite(ladder.g).all(axis=-1)
            for i in points[ok & ~finite]:
                results[i] = LadderOverflow.__name__
            ok &= finite
            bad = bad | (ok & ~(ladder.w > 0.0).all(axis=-1))
            ok &= np.cumsum(bad) == 0  # the points before the first invalid one
            held = ladder._replace(energies=ladder.energies[ok], w=ladder.w[ok], g=ladder.g[ok])
            for i, row in zip(points[ok], columns_of(
                    config, variable, grid[points[ok]].tolist(), held)):
                results[i] = row
        if bad.any():
            done = start + int(np.argmax(bad))
            return results[:done], done, omega_10, g0
    return results, len(grid), omega_10, g0


def _refuse(config: SystemConfig, variable: str, value: float) -> None:
    """Raise the error that building the point raises, where the array pass
    found its spec invalid: its constructor says why."""
    config.build(**{variable: value})
    raise AssertionError(f"{variable} = {value} builds a valid system")


def _records(**columns: np.ndarray) -> list[dict]:
    """One dict per point of equal-length columns, as Python floats."""
    return [dict(zip(columns, row)) for row in zip(*(c.tolist() for c in columns.values()))]


def _shift_columns(config: SystemConfig, variable: str, values, ladder: Ladder) -> list:
    """shift_report's columns at every point: every transition is read, so a
    resonance at any transition ends the point."""
    arrays = ShiftArrays.of(ladder.g, ladder.w, config.omega_r)
    diverges = (resonant(arrays.co) | resonant(arrays.counter)).any(axis=-1)
    (pull_r, shift_r), (pull_j, shift_j) = (pull_and_qubit_shift(*arrays.h2(model))
                                            for model in (RABI, JC))
    rows = _records(chi0=arrays.chi[:, 0], xi0=arrays.xi[:, 0],
                    chi_tilde0=arrays.chi_tilde[:, 0], pull_rabi=pull_r, pull_jc=pull_j,
                    qshift_rabi=shift_r, qshift_jc=shift_j)
    return [ResonantDivergence.__name__ if resonant_point else row
            for resonant_point, row in zip(diverges.tolist(), rows)]


def _rate_columns(config: SystemConfig, variable: str, values, ladder: Ladder) -> list:
    """The rate columns at every point, with the error its rate lookups
    raise first: a second-order rate that is not finite (every transition
    and level is listed), then the resonance guard of transition 0, which
    every prefactor read here divides by, then a prefactor that is not
    finite."""
    from .rates import _GHZ_TO_MHZ, prefactor_arrays, second_order_values

    omega_r = config.omega_r
    detuning, prefactors = prefactor_arrays(ladder.g, ladder.beta, ladder.w, ladder.dw, omega_r)
    beta, dw = ladder.beta.tolist(), ladder.dw.tolist()
    rabi, jc = prefactors[RABI], prefactors[JC]
    columns = dict(p0_rabi=rabi["p"][:, 0], p0_jc=jc["p"][:, 0], d0=rabi["d"][:, 0],
                   c0_rabi=rabi["c"][:, 0], a0_rabi=rabi["a"][:, 0], a0_jc=jc["a"][:, 0])
    overflows = ~np.isfinite(np.array(list(columns.values()))).all(axis=0)
    out = []
    for value, wk, resonant_point, overflow, row in zip(
            values, ladder.w.tolist(), resonant(detuning[:, 0]).tolist(), overflows.tolist(),
            _records(**columns)):
        baths = config.baths
        if variable == TEMPERATURE:
            baths = {label: sf.with_temperature(value) for label, sf in baths.items()}
        rates = second_order_values(wk, beta, dw, omega_r, baths)
        if not all(map(math.isfinite, rates)):
            out.append(RateOverflow.__name__)
        elif resonant_point:
            out.append(ResonantDivergence.__name__)
        elif overflow:
            out.append(RateOverflow.__name__)
        else:
            purcell = baths["R"].evaluate(wk[0])
            out.append(dict(
                row, gamma_down0_mhz=rates[0], gamma_up0_mhz=rates[1],
                gamma_phi0_mhz=rates[2 * len(beta)], kappa_minus_mhz=rates[-2],
                kappa_plus_mhz=rates[-1],
                purcell_down0_rabi_mhz=_GHZ_TO_MHZ * row["p0_rabi"] * purcell,
                purcell_down0_jc_mhz=_GHZ_TO_MHZ * row["p0_jc"] * purcell))
    return out


def _exact_fields(model: str, config: SystemConfig, point: tuple[float, float]):
    """The exact shifts of one point, given its (omega_10, g0), or the name
    of the row error that ended it.  Module-level, so that functools.partial
    binds it to a sweep and a worker process can unpickle it."""
    from .exact import exact_shifts

    t = config.transmon
    try:
        exact = exact_shifts(transmon_grid(point[0], t.anharmonicity, point[1], t.num_levels),
                             config.omega_r, config.resonator.fock_truncation, model)
    except _ROW_ERRORS as exc:
        return type(exc).__name__
    return dict(exact_pull=exact.resonator_pull, exact_qshift=exact.qubit_shift)


def _joined(analytic: dict, exact: dict) -> dict:
    """A point's analytic and exact columns, and the error fraction of each analytic pull."""
    fracs = {f"err_frac_{model}": _frac_err(analytic[f"pull_{model}"], exact["exact_pull"])
             for model in (RABI, JC) if f"pull_{model}" in analytic}
    return dict(analytic, **exact, **fracs)


# A sweep that diagonalizes goes to a process pool when its estimated work,
# points x d^3, reaches this.  Measured with one BLAS thread on a 2-vCPU
# 2.1 GHz Xeon, pinned to one CPU, best of 20-200 calls: one exact point
# (build + solve + labels) costs 0.22-0.25 ms at d = 40, 0.57-0.58 ms at
# d = 80, and at d = 600 26.4-27.5 ms under rabi and 16.5-17.7 ms under jc
# (the last-merge solve; 0.2 ms of it is the build).  That is 1.2e-10 s per
# d^3 under rabi at d = 600 and 8.0e-11 under jc, and more at smaller d
# (4.9e-10 and 2.2e-10 at d = 160).  A fork pool of two workers costs
# 25-29 ms to import, start, run and reap on first use (22-42 ms over the
# host's two speeds).  Two workers halve the serial time, so the pool pays
# from 2 x (25-29) ms of work, 3.9e8-4.8e8 d^3 at the rabi rate, a range
# that holds 4.0e8.  The README's d = 40 sweeps (161 x 6.4e4) and the
# d = 80 fit sweep (161 x 5.1e5, 0.10 s serial) stay serial, and 81 points
# at d = 600 (81 x 2.2e8) go parallel.  A jc sweep just above 4.0e8, such
# as two d = 600 points, takes 10-13 ms longer in the pool than serially.
_PARALLEL_BREAK_EVEN = 4.0e8


def _workers(points: int, dim: int) -> int:
    """Processes to spread `points` exact points of dimension `dim` over.

    1 (serial) when the work is below the break-even or d exceeds DIM_CAP
    (such points only raise DimensionOverflow); otherwise the CPUs in this
    process's affinity mask, at most one per point.
    """
    from .exact import DIM_CAP

    if dim > DIM_CAP or points * dim ** 3 < _PARALLEL_BREAK_EVEN:
        return 1
    if not hasattr(os, "sched_getaffinity"):  # not on macOS or Windows: serial
        return 1
    return min(len(os.sched_getaffinity(0)), points)


def _map_points(point, values, work: tuple[int, int]) -> list:
    """[point(v) for v in values], in order, over worker processes when the
    cost test on work, (points, dim) as _workers takes it, and the platform
    allow it (fork start method, several CPUs)."""
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


def _sweep(row_type, config: SystemConfig, variable: str, values, columns_of,
           model: str | None = None) -> list:
    """One row per point: the array pass of _analytic with columns_of, then,
    when model is given, one exact pass in it over the points that pass left
    standing.  A point whose spec is invalid ends the sweep with its error,
    after the exact columns of the points before it."""
    values = [float(value) for value in values]
    fields, done, omega_10, g0 = _analytic(config, variable, values, columns_of)
    if model is not None:
        points = [i for i, f in enumerate(fields) if not isinstance(f, str)]
        dim = config.transmon.num_levels * config.resonator.fock_truncation
        exact = _map_points(partial(_exact_fields, model, config),
                            list(zip(omega_10[points], g0[points])), (len(points), dim))
        for i, e in zip(points, exact):
            fields[i] = e if isinstance(e, str) else _joined(fields[i], e)
    if done < len(values):
        _refuse(config, variable, values[done])
    return [row_type(delta0_ghz=_detuning_of(config, variable, value),
                     **({"error": f} if isinstance(f, str) else f))
            for value, f in zip(values, fields)]


def shift_rows(config: SystemConfig, variable: str, values) -> list[ShiftRow]:
    """Analytic shifts, and exact (Rabi) ones where the analytic columns hold."""
    return _sweep(ShiftRow, config, variable, values, _shift_columns, RABI)


def rate_rows(config: SystemConfig, variable: str, values) -> list[RateRow]:
    return _sweep(RateRow, config, variable, values, _rate_columns)


def exact_rows(config: SystemConfig, variable: str, values,
               model: str | None = None) -> list[ExactRow]:
    """Exact shifts in model (the config's by default) where the ladder holds."""
    return _sweep(ExactRow, config, variable, values,
                  lambda config, variable, values, ladder: [{} for _ in values],
                  config.interaction_model if model is None else model)


def all_rows_failed(rows) -> bool:
    return bool(rows) and all(row.error for row in rows)


def format_csv(rows, row_type) -> str:
    """Serialize sweep rows of one row type with format_table."""
    return format_table(columns(row_type), [vars(row) for row in rows])
