"""The benchmark's workloads: the operations each one runs, made from a seed.

Every workload is a closed loop with one operation in flight: each
operation starts when the previous one has finished.  A seed changes the
inputs, never the amount of work.  It picks one of ``VARIANTS`` input
variants (seed mod VARIANTS), and the variant sets

- the offset of every detuning grid, as a fraction of one grid step;
- the temperature of the thermal initial state;
- the phase of the coherent superposition evolved through the library.

The fraction is never 0, so no grid point lands on the edge of a resonance
exclusion window and every variant keeps the same number of rows.
Reference outputs are recorded for every variant (see record.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

VARIANTS = 10

# The system of the README's "System configuration (JSON)" section.
CONFIG_NAME = "system.json"
CONFIG = {
    "omega_r_ghz": 5.0,
    "omega_10_ghz": 6.0,
    "anharmonicity_ghz": 0.25,
    "g0_ghz": 0.1,
    "num_qubit_levels": 5,
    "fock_truncation": 8,
    "model": "rabi",
    "temperature_ghz": 0.1,
    "bath_X": {"model": "ohmic", "eta": 0.002, "cutoff_ghz": 50.0},
    "bath_Z": {"model": "one_over_f", "amplitude": 1e-6, "ir_floor_ghz": 0.01},
    "bath_R": {"model": "flat", "level": 0.001},
}

# Operation kinds; the end-to-end report sums operation times by kind.
SWEEP, FIT, EVOLVE, STEADY, PLOT = "sweep", "fit", "evolve", "steady", "plot"

# Output checks (see checks.py).
BYTES, FIT_REPORT, TABLE, SVG = "bytes", "fit", "table", "svg"

# How an operation is run: the package's command-line interface, or the
# library-level evolution script next to this file.
CLI, LIBRARY = "cli", "library"


@dataclass(frozen=True)
class Op:
    """One operation: a command line, its outputs and how they are checked.

    ``key`` names the operation's inputs.  Two operations with the same key
    compute the same thing and share one reference record.
    """

    id: str
    kind: str
    program: str
    args: tuple[str, ...]
    check: str
    outputs: tuple[str, ...]
    key: str


def variant(seed: int) -> int:
    return seed % VARIANTS


def _fraction(seed: int) -> float:
    return (variant(seed) + 0.5) / VARIANTS


def _detuning_sweep(count: int, fraction: float) -> str:
    """The README's -3..3 GHz detuning grid, shifted by a fraction of a step."""
    offset = fraction * 6.0 / (count - 1)
    return f"detuning:{-3.0 + offset!r}:{3.0 + offset!r}:{count}"


def _op(id, kind, args, check, outputs, reads=(), program=CLI):
    args = tuple(args)
    key = " ".join((program, *args, *(f"<{op.key}>" for op in reads)))
    return Op(id=id, kind=kind, program=program, args=args, check=check,
              outputs=tuple(outputs), key=key)


def _plot(id, source, columns, out, log=True):
    args = ["plot", source.outputs[0], "--y", columns, "--out", out]
    if log:
        args[4:4] = ["--abs", "--logy"]
    return _op(id, PLOT, args, SVG, [out], reads=[source])


def _readme(seed: int) -> list[Op]:
    """The README's command sequence, in order, at the README's sizes."""
    fraction = _fraction(seed)
    c = ["--config", CONFIG_NAME]
    shifts = _op("shifts", SWEEP, ["shifts", *c, "--sweep", _detuning_sweep(161, fraction),
                                   "--out", "shifts.csv"], BYTES, ["shifts.csv"])
    rates = _op("rates", SWEEP, ["rates", *c, "--sweep", _detuning_sweep(161, fraction),
                                 "--out", "rates.csv"], BYTES, ["rates.csv"])
    exact = _op("exact", SWEEP, ["exact", *c, "--sweep", _detuning_sweep(41, fraction),
                                 "--out", "exact.csv"], BYTES, ["exact.csv"])
    fit = _op("fit", FIT, ["fit", *c, "--data", "exact.csv", "--json", "fit.json",
                           "--residuals", "residuals.csv", "--out", "fit.csv"],
              FIT_REPORT, ["fit.csv", "fit.json", "residuals.csv"], reads=[exact])
    evolve = _op("evolve", EVOLVE, ["evolve", *c, "--init", "fock:1:0", "--tmax", "500",
                                    "--samples", "251", "--out", "traj.csv"],
                 TABLE, ["traj.csv"])
    steady = _op("steady", STEADY, ["steady", *c, "--photons", "4", "--out", "steady.csv"],
                 TABLE, ["steady.csv"])
    return [
        shifts,
        _plot("plot-shifts", shifts, "err_frac_rabi,err_frac_jc", "pull_accuracy.svg"),
        rates,
        _plot("plot-rates", rates, "p0_rabi,p0_jc,a0_rabi,a0_jc", "prefactors.svg"),
        exact,
        fit,
        evolve,
        _plot("plot-traj", evolve, "pop_q1,nbar", "decay.svg", log=False),
        steady,
    ]


def _ladder(seed: int) -> list[Op]:
    """Large-ladder spectroscopy: exact diagonalization and the fit, no dynamics.

    The sweeps are shorter than the README's 161 points (81 for shifts, 41
    for exact) so that two passes fit in one run.
    """
    fraction = _fraction(seed)
    c = ["--config", CONFIG_NAME, "--nq", "10"]
    return [
        _op("shifts", SWEEP, ["shifts", *c, "--nr", "60",
                              "--sweep", _detuning_sweep(81, fraction),
                              "--out", "shifts.csv"], BYTES, ["shifts.csv"]),
        _op("exact", SWEEP, ["exact", *c, "--nr", "60", "--model", "jc",
                             "--sweep", _detuning_sweep(41, fraction),
                             "--out", "exact.csv"], BYTES, ["exact.csv"]),
        _op("fit", FIT, ["fit", *c, "--sweep", _detuning_sweep(161, fraction),
                         "--out", "fit.csv"], FIT_REPORT, ["fit.csv"]),
    ]


def _open_system(seed: int) -> list[Op]:
    """The Lindblad layer off the README path: sparse branch, small d, coherences."""
    fraction = _fraction(seed)
    c = ["--config", CONFIG_NAME]
    small = ["--nq", "3", "--nr", "5"]
    temperature = 0.25 + 0.1 * fraction
    phase = 2.0 * math.pi * fraction
    return [
        _op("steady-sparse", STEADY, ["steady", *c, "--photons", "4", "--nq", "5",
                                      "--nr", "20", "--out", "steady_sparse.csv"],
            TABLE, ["steady_sparse.csv"]),
        _op("steady-dense", STEADY, ["steady", *c, *small, "--out", "steady_dense.csv"],
            TABLE, ["steady_dense.csv"]),
        _op("evolve-thermal", EVOLVE, ["evolve", *c, *small,
                                       "--init", f"thermal:{temperature!r}",
                                       "--photons", "2", "--tmax", "500",
                                       "--out", "thermal.csv"],
            TABLE, ["thermal.csv"]),
        _op("evolve-coherent", EVOLVE, [*c, *small, "--phase", repr(phase),
                                        "--tmax", "2", "--samples", "101",
                                        "--out", "coherent.csv"],
            TABLE, ["coherent.csv"], program=LIBRARY),
    ]


WORKLOADS = {
    "readme": _readme,
    "ladder": _ladder,
    "open-system": _open_system,
}


def operations(workload: str, seed: int) -> list[Op]:
    return WORKLOADS[workload](seed)
