"""Command-line interface.

Subcommands:
  shifts  analytic dispersive observables (+ exact reference) over a sweep
  rates   second-order rates and fourth-order prefactors over a sweep
  exact   exact-diagonalization shifts over a sweep
  fit     recover the base coupling from exact shift data
  evolve  propagate the master equation, write sampled expectations
  steady  solve for the steady state, write its summary
  plot    render a CSV produced by the commands above to SVG

Exit codes: 0 success, 2 bad configuration or arguments, 3 every requested
point failed mathematically, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import sweeps
from .exact import (QUBIT_SHIFT, RESONATOR_PULL, AmbiguousLabeling,
                    ConvergenceFailure, DimensionOverflow, NoPhysicalCoupling,
                    FitResult, fit_g0, fit_residual_curve)
from .lindblad import (DRESSED_ANALYTIC, DegenerateNullSpace, NonPositiveState,
                       PropagationFailure, TruncationTooSmall, assemble,
                       evolve, partial_trace_qubit, steady_state,
                       thermal_resonator_state)
from .model import (JC, MODELS, RABI, ConfigError, InvalidSpec, LadderOverflow,
                    NonPositiveSplitting, load_config, require_valid_config)
from .operators import ProductSpace, number_operator
from .rates import (NegativePhotonNumber, RateOverflow, build_rate_table,
                    driven_effective_rates)
from .shifts import ResonantDivergence
from .svgplot import LinePlot
from .sweeps import (DETUNING, ExactRow, RateRow, ShiftRow, SweepError,
                     SweepRequest, all_rows_failed, apply_resonance_exclusion,
                     format_csv, format_table, parse_csv)

_MATH_ERRORS = (ResonantDivergence, NonPositiveSplitting, AmbiguousLabeling,
                DimensionOverflow, ConvergenceFailure, NoPhysicalCoupling,
                PropagationFailure, DegenerateNullSpace, NonPositiveState,
                TruncationTooSmall, NegativePhotonNumber, LadderOverflow,
                RateOverflow)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MATH = 3
EXIT_IO = 4


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", newline="\n") as handle:
        handle.write(text)


def _load_config(args) -> "SystemConfig":
    try:
        config = load_config(args.config)
    except OSError as exc:
        raise _IOFailure(f"cannot read config {args.config!r}: {exc}") from exc
    if getattr(args, "model", None):
        config = dataclasses.replace(config, interaction_model=args.model)
    if getattr(args, "nq", None):
        config = dataclasses.replace(
            config, transmon=dataclasses.replace(config.transmon, num_levels=args.nq))
    if getattr(args, "nr", None):
        config = dataclasses.replace(
            config, resonator=dataclasses.replace(config.resonator,
                                                  fock_truncation=args.nr))
    try:
        return require_valid_config(config)
    except LadderOverflow as exc:
        raise ConfigError(str(exc)) from exc


class _IOFailure(OSError):
    pass


def _read_csv(path: str) -> tuple[list[str], list[dict]]:
    """The header and rows of a CSV file written by format_table."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse_csv(handle.read())
    except OSError as exc:
        raise _IOFailure(f"cannot read {path!r}: {exc}") from exc
    except ValueError as exc:  # a malformed table, or bytes that are not UTF-8
        raise ConfigError(f"bad CSV {path!r}: {exc}") from exc


def _some_left(values: np.ndarray) -> np.ndarray:
    if len(values) == 0:
        raise SweepError("the resonance exclusion window removed every sweep point")
    return values


# Per sweep command: the row type, the row builder, and whether detuning
# grids lose the resonance window.
_SWEEPS = {"shifts": (ShiftRow, sweeps.shift_rows, True),
           "rates": (RateRow, sweeps.rate_rows, False),
           "exact": (ExactRow, sweeps.exact_rows, False)}


def _cmd_sweep(args) -> int:
    """shifts, rates or exact over --sweep, or at the config's own point."""
    row_type, rows_of, exclude_resonance = _SWEEPS[args.command]
    config = _load_config(args)
    if not args.sweep:
        variable = DETUNING
        values = np.array([config.transmon.omega_10 - config.resonator.omega_r])
    else:
        request = SweepRequest.parse(args.sweep)
        variable, values = request.variable, request.grid()
        if exclude_resonance:
            values = _some_left(apply_resonance_exclusion(request, config, args.window))
    rows = rows_of(config, variable, values)
    _write_text(args.out, format_csv(rows, row_type))
    if all_rows_failed(rows):
        _fail("every sweep point failed; see the error column")
        return EXIT_MATH
    return EXIT_OK


_OBSERVABLE_COLUMNS = {RESONATOR_PULL: "exact_pull", QUBIT_SHIFT: "exact_qshift"}


def _fit_data_from_dicts(rows: list[dict], column: str) -> list[tuple[float, float]]:
    data = []
    for row in rows:
        if row.get("error"):
            continue
        d, y = row.get("delta0_ghz"), row.get(column)
        if isinstance(d, str) or isinstance(y, str) or d is None or y is None:
            continue
        if math.isfinite(d) and math.isfinite(y):
            data.append((float(d), float(y)))
    return data


def _cmd_fit(args) -> int:
    config = _load_config(args)
    observables = (args.observable,) if args.observable else (RESONATOR_PULL,
                                                              QUBIT_SHIFT)
    models = (args.model,) if args.model else (RABI, JC)
    if args.data:
        names, raw_rows = _read_csv(args.data)
        missing = [c for c in ["delta0_ghz",
                               *(_OBSERVABLE_COLUMNS[o] for o in observables)]
                   if c not in names]
        if missing:
            raise ConfigError(f"data file lacks columns {missing}")
        datasets = {obs: _fit_data_from_dicts(raw_rows, _OBSERVABLE_COLUMNS[obs])
                    for obs in observables}
    else:
        window = args.window
        if window is None:
            window = sweeps.FIT_WINDOW_FACTOR * config.transmon.g0
        if args.sweep:
            request = SweepRequest.parse(args.sweep)
            if request.variable != DETUNING:
                raise SweepError("fit requires a detuning sweep")
            values = apply_resonance_exclusion(request, config, window=window)
        else:
            values = sweeps.default_detuning_grid(config.transmon.g0, window=window)
        exact = sweeps.exact_rows(config, DETUNING, _some_left(values), model=RABI)
        if all_rows_failed(exact):
            _fail("no exact data points survived")
            return EXIT_MATH
        datasets = {obs: [(row.delta0_ghz, getattr(row, _OBSERVABLE_COLUMNS[obs]))
                          for row in exact if not row.error]
                    for obs in observables}
    transmon = config.transmon
    out_rows = []
    failures = 0
    for observable in observables:
        data = datasets[observable]
        for model in models:
            try:
                result = fit_g0(data, model, observable,
                                omega_r=config.resonator.omega_r,
                                anharmonicity=transmon.anharmonicity,
                                num_levels=transmon.num_levels)
            except (*_MATH_ERRORS, ValueError) as exc:
                failures += 1
                _fail(f"fit {model}/{observable}: {type(exc).__name__}: {exc}")
                nan = float("nan")
                result = FitResult(nan, nan, nan, len(data), model, observable)
            out_rows.append({"model": model, "observable": observable,
                             "g0_hat_ghz": result.g0_hat,
                             "stderr_ghz": result.stderr,
                             "residual_sum": result.residual_sum,
                             "n_points": result.n_points})
    _write_text(args.out, format_table(list(out_rows[0]), out_rows))
    if args.json:
        _write_text(args.json, json.dumps(out_rows, indent=2, sort_keys=True) + "\n")
    if args.residuals:
        grid = np.geomspace(1e-4, 2.0, 61)
        curve_names = ["g0_ghz"]
        curves = {}
        for observable in observables:
            if not datasets[observable]:
                continue
            for model in models:
                name = f"residual_{model}_{observable}"
                try:
                    curves[name] = fit_residual_curve(
                        datasets[observable], model, observable,
                        omega_r=config.resonator.omega_r,
                        anharmonicity=transmon.anharmonicity,
                        num_levels=transmon.num_levels, grid=grid)
                except (*_MATH_ERRORS, ValueError):
                    continue  # no usable point: the fit above reported why
                curve_names.append(name)
        curve_rows = []
        for i, g in enumerate(grid):
            row = {"g0_ghz": float(g)}
            for name, values in curves.items():
                row[name] = float(values[i])
            curve_rows.append(row)
        _write_text(args.residuals, format_table(curve_names, curve_rows))
    return EXIT_MATH if failures == len(out_rows) else EXIT_OK


def _generator(config, photons: float):
    system = config.build()
    table = build_rate_table(system)
    extra = ()
    if photons > 0:
        extra = driven_effective_rates(table, photons, system.interaction_model)
    return system, assemble(system, mode=DRESSED_ANALYTIC, table=table,
                            extra_terms=extra)


def _state_summary(rho: np.ndarray, space: ProductSpace) -> dict:
    """Qubit-level populations and photon number, read off the diagonal of rho."""
    diagonal = np.real(np.diagonal(rho)).reshape(space.qubit_dim, space.fock_dim)
    summary = {f"pop_q{k}": float(p) for k, p in enumerate(diagonal.sum(axis=1))}
    summary["nbar"] = float(diagonal.sum(axis=0) @ np.arange(space.fock_dim))
    return summary


def _initial_state(text: str, system, space: ProductSpace) -> np.ndarray:
    """Parse an --init spec: ground, fock:K:N, or thermal:T (GHz)."""
    parts = text.split(":")
    kind = parts[0]
    if kind == "ground" and len(parts) == 1:
        rho = np.zeros((space.dimension, space.dimension), dtype=complex)
        rho[space.index(0, 0), space.index(0, 0)] = 1.0
        return rho
    if kind == "fock" and len(parts) == 3:
        try:
            k, n = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ConfigError(f"bad --init {text!r}: {exc}") from exc
        if not (0 <= k < space.qubit_dim and 0 <= n < space.fock_dim):
            raise ConfigError(f"--init fock:{k}:{n} outside the "
                              f"{space.qubit_dim} x {space.fock_dim} space")
        rho = np.zeros((space.dimension, space.dimension), dtype=complex)
        rho[space.index(k, n), space.index(k, n)] = 1.0
        return rho
    if kind == "thermal" and len(parts) == 2:
        try:
            temperature = float(parts[1])
        except ValueError as exc:
            raise ConfigError(f"bad --init {text!r}: {exc}") from exc
        if not 0.0 <= temperature < math.inf:
            raise ConfigError(f"--init thermal temperature must be finite and >= 0, "
                              f"got {temperature}")
        if temperature == 0.0:
            return _initial_state("ground", system, space)
        energies = np.array(system.qubit.level_energies)
        weights = np.exp(-(energies - energies[0]) / temperature)
        qubit = np.diag(weights / weights.sum()).astype(complex)
        x = system.resonator.omega_r / temperature
        nbar = 0.0 if x > 700.0 else 1.0 / math.expm1(x)
        resonator = thermal_resonator_state(space.fock_dim, nbar)
        return np.kron(qubit, resonator)
    raise ConfigError(f"bad --init {text!r}; use ground, fock:K:N, or thermal:T")


def _cmd_evolve(args) -> int:
    config = _load_config(args)
    system, gen = _generator(config, args.photons)
    space = ProductSpace(system.qubit.num_levels, system.resonator.fock_truncation)
    rho0 = _initial_state(args.init, system, space)
    times = np.linspace(0.0, args.tmax, args.samples)
    trajectory = evolve(gen, rho0, args.tmax, sample_times=times)
    names = ["t_ns"] + [f"pop_q{k}" for k in range(space.qubit_dim)] + ["nbar",
                                                                        "trace"]
    rows = []
    for t, rho in zip(trajectory.times, trajectory.states):
        row = {"t_ns": float(t)}
        row.update(_state_summary(rho, space))
        row["trace"] = float(np.real(np.trace(rho)))
        rows.append(row)
    _write_text(args.out, format_table(names, rows))
    return EXIT_OK


def _cmd_steady(args) -> int:
    config = _load_config(args)
    system, gen = _generator(config, args.photons)
    space = ProductSpace(system.qubit.num_levels, system.resonator.fock_truncation)
    rho = steady_state(gen)
    row = _state_summary(rho, space)
    row["purity"] = float(np.vdot(rho, rho).real)
    reduced = partial_trace_qubit(rho, space)
    row["nbar_resonator"] = float(np.real(np.trace(
        number_operator(space.fock_dim) @ reduced)))
    names = ([f"pop_q{k}" for k in range(space.qubit_dim)]
             + ["nbar", "purity", "nbar_resonator"])
    _write_text(args.out, format_table(names, [row]))
    return EXIT_OK


def _cmd_plot(args) -> int:
    names, rows = _read_csv(args.csv)
    x_name = args.x or names[0]
    if args.y:
        y_names = args.y.split(",")
    else:
        y_names = [n for n in names[1:] if n != "error"]
    for name in [x_name, *y_names]:
        if name not in names:
            raise ConfigError(f"column {name!r} not in {names}")
    plot = LinePlot(title=args.title or ", ".join(y_names),
                    xlabel=x_name, ylabel=args.ylabel or "value",
                    logy=args.logy)
    for y_name in y_names:
        xs, ys = [], []
        for row in rows:
            xv, yv = row.get(x_name), row.get(y_name)
            if isinstance(xv, str) or isinstance(yv, str):
                xs.append(float("nan"))
                ys.append(float("nan"))
                continue
            xs.append(float(xv))
            ys.append(abs(float(yv)) if args.absolute else float(yv))
        plot.add(y_name, xs, ys)
    _write_text(args.out, plot.render())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rabiqed",
        description="Dispersive shifts, dissipative rates, and master-equation "
                    "dynamics for a multilevel artificial atom coupled to a "
                    "resonator.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON system description")
        p.add_argument("--model", choices=MODELS, default=None,
                       help="override the interaction model")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--nq", type=int, default=None,
                       help="override the number of qubit levels")
        p.add_argument("--nr", type=int, default=None,
                       help="override the resonator truncation")

    for name, fn, doc in (("shifts", _cmd_sweep,
                           "analytic shift observables with exact reference"),
                          ("rates", _cmd_sweep,
                           "second-order rates and fourth-order prefactors"),
                          ("exact", _cmd_sweep, "exact-diagonalization shifts"),
                          ("fit", _cmd_fit, "recover the base coupling")):
        p = sub.add_parser(name, help=doc)
        add_common(p)
        p.add_argument("--sweep", default=None,
                       help="VAR:START:STOP:COUNT with VAR in "
                            "detuning|coupling|temperature")
        if name in ("shifts", "fit"):
            p.add_argument("--window", type=float, default=None,
                           help="resonance exclusion half-width in GHz "
                                "(default 3*g0 for shifts, 1.5*g0 for fit; "
                                "0 keeps every point)")
        if name == "fit":
            p.add_argument("--data", default=None,
                           help="fit a CSV of exact shifts instead of "
                                "recomputing them")
            p.add_argument("--observable", default=None,
                           choices=(RESONATOR_PULL, QUBIT_SHIFT),
                           help="fit only this observable (default both)")
            p.add_argument("--json", default=None,
                           help="also write the fit report as JSON here")
            p.add_argument("--residuals", default=None,
                           help="also write residual-sum curves over g0 here")
        p.set_defaults(fn=fn)

    p = sub.add_parser("evolve", help="propagate the master equation")
    add_common(p)
    p.add_argument("--tmax", type=float, default=100.0, help="final time in ns")
    p.add_argument("--samples", type=int, default=201, help="sample count")
    p.add_argument("--photons", type=float, default=0.0,
                   help="mean drive photon number for driven decay channels")
    p.add_argument("--init", default="ground",
                   help="initial state: ground, fock:K:N, or thermal:T "
                        "(T in GHz)")
    p.set_defaults(fn=_cmd_evolve)

    p = sub.add_parser("steady", help="solve for the steady state")
    add_common(p)
    p.add_argument("--photons", type=float, default=0.0,
                   help="mean drive photon number for driven decay channels")
    p.set_defaults(fn=_cmd_steady)

    p = sub.add_parser("plot", help="render a result CSV to SVG")
    p.add_argument("csv", help="input CSV path")
    p.add_argument("--x", default=None, help="x column (default first)")
    p.add_argument("--y", default=None, help="comma-separated y columns")
    p.add_argument("--out", default=None, help="output SVG path (default stdout)")
    p.add_argument("--logy", action="store_true", help="log-scale y axis")
    p.add_argument("--abs", dest="absolute", action="store_true",
                   help="plot absolute values")
    p.add_argument("--title", default=None)
    p.add_argument("--ylabel", default=None)
    p.set_defaults(fn=_cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not 0.0 <= getattr(args, "photons", 0.0) < math.inf:
        _fail("--photons must be finite and nonnegative")
        return EXIT_CONFIG
    if getattr(args, "nq", None) is not None and args.nq < 2:
        _fail("--nq must be at least 2")
        return EXIT_CONFIG
    if getattr(args, "nr", None) is not None and args.nr < 2:
        _fail("--nr must be at least 2")
        return EXIT_CONFIG
    if getattr(args, "window", None) is not None and not args.window >= 0:
        _fail("--window must be nonnegative")
        return EXIT_CONFIG
    if not 0.0 < getattr(args, "tmax", 1.0) < math.inf:
        _fail("--tmax must be finite and positive")
        return EXIT_CONFIG
    if getattr(args, "samples", 2) < 2:
        _fail("--samples must be at least 2")
        return EXIT_CONFIG
    try:
        return args.fn(args)
    except _IOFailure as exc:
        _fail(str(exc))
        return EXIT_IO
    except (ConfigError, InvalidSpec, SweepError, json.JSONDecodeError) as exc:
        _fail(str(exc))
        return EXIT_CONFIG
    except _MATH_ERRORS as exc:
        _fail(f"{type(exc).__name__}: {exc}")
        return EXIT_MATH
    except OSError as exc:
        _fail(str(exc))
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
