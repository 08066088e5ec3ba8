"""Shared builders for the test suite."""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

# One BLAS thread: threaded OpenBLAS on a small loaded host makes the
# suite's small dense products many times slower and the time-bounded
# acceptance criteria flaky.  Set before rabiqed (and so NumPy) is first
# imported; subprocess tests inherit it through os.environ.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import rabiqed
from rabiqed import (
    DETUNING,
    JC,
    RABI,
    AmbiguousLabeling,
    DimensionOverflow,
    ExactRow,
    LadderOverflow,
    NonPositiveSplitting,
    PrecisionLoss,
    RateOverflow,
    RateRow,
    ResonantDivergence,
    ResonatorSpec,
    ShiftRow,
    SpectralFunction,
    SystemSpec,
    TransmonSpec,
    dressed_dephasing_prefactors,
    exact_shifts,
    expand_transmon,
    photon_assisted_prefactor,
    purcell_prefactor,
    purcell_rates,
    second_order_rates,
    shift_report,
    silent_baths,
)

# The README's example system, as a config mapping.
README_CONFIG = {
    "omega_r_ghz": 5.0, "omega_10_ghz": 6.0, "anharmonicity_ghz": 0.25, "g0_ghz": 0.1,
    "num_qubit_levels": 5, "fock_truncation": 8, "model": "rabi", "temperature_ghz": 0.1,
    "bath_X": {"model": "ohmic", "eta": 0.002, "cutoff_ghz": 50.0},
    "bath_Z": {"model": "one_over_f", "amplitude": 1e-6, "ir_floor_ghz": 0.01},
    "bath_R": {"model": "flat", "level": 0.001},
}


def _run_python(code: str, *options: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this rabiqed, with the
    given interpreter options."""
    src = str(Path(rabiqed.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, *options, "-c", code], env=env,
                          capture_output=True, text=True)


def traced_peak(call) -> int:
    """The tracemalloc peak of one call(), in bytes above what was traced
    before it.  One call runs first, untraced, so that imports and first-use
    caches (the LAPACK binding) are not counted.  Tracing that is already
    running is left running."""
    call()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


def no_pool(*args, **kwargs):
    """A ProcessPoolExecutor stand-in that fails: patched in where a sweep
    is too little work for a process pool."""
    raise AssertionError("a process pool was started")


def build_system(
    detuning=1.0,
    g0=0.1,
    alpha=0.25,
    num_levels=3,
    fock=5,
    omega_r=5.0,
    model=RABI,
    baths=None,
    dephasing_sensitivities=None,
):
    """Assemble a transmon-resonator system with the given detuning in GHz."""
    transmon = TransmonSpec(
        omega_10=omega_r + detuning,
        anharmonicity=alpha,
        g0=g0,
        num_levels=num_levels,
    )
    qubit = expand_transmon(transmon)
    if dephasing_sensitivities is not None:
        qubit = dataclasses.replace(qubit, dephasing_sensitivities=dephasing_sensitivities)
    table = silent_baths()
    if baths:
        table.update(baths)
    return SystemSpec(
        qubit=qubit,
        resonator=ResonatorSpec(omega_r=omega_r, fock_truncation=fock),
        interaction_model=model,
        baths=table,
    )


@pytest.fixture
def default_system():
    """A small dissipation-free Rabi system used across modules."""
    return build_system()


@pytest.fixture
def noisy_baths():
    """A representative bath table with all three noise channels active."""
    return {
        "X": SpectralFunction.ohmic(0.002, cutoff_ghz=50.0, temperature_ghz=0.1),
        "Z": SpectralFunction.one_over_f(1e-6, ir_floor_ghz=0.01, temperature_ghz=0.1),
        "R": SpectralFunction.flat(0.001, temperature_ghz=0.1),
    }


def two_pi():
    return 2.0 * math.pi


# The sweep rows of one point, built point by point from the public
# per-system API: one SystemSpec per point, as the sweeps did before they
# evaluated their analytic columns over the whole grid at once.
ROW_ERRORS = (ResonantDivergence, NonPositiveSplitting, AmbiguousLabeling,
              DimensionOverflow, LadderOverflow, RateOverflow, PrecisionLoss)


def rate_fields(system):
    """The rate-row columns of one system."""
    by_label = {t.jump.label: t.rate_mhz for t in second_order_rates(system)}
    d0, c0_rabi = dressed_dephasing_prefactors(0, system, RABI)
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
        purcell_down0_rabi_mhz=purcell_rates(0, system, RABI)[0],
        purcell_down0_jc_mhz=purcell_rates(0, system, JC)[0])


def shift_fields(system):
    """The shift-row columns of one system, exact ones included."""
    report = shift_report(system)
    row = dict(chi0=report.chi[0], xi0=report.xi[0], chi_tilde0=report.chi_tilde[0],
               pull_rabi=report.resonator_pull_rabi, pull_jc=report.resonator_pull_jc,
               qshift_rabi=report.qubit_shift_rabi, qshift_jc=report.qubit_shift_jc)
    exact = exact_shifts(system.qubit.ladder, system.omega_r,
                         system.resonator.fock_truncation, RABI)
    row["exact_pull"] = exact.resonator_pull
    row["exact_qshift"] = exact.qubit_shift
    for model in ("rabi", "jc"):
        analytic = row[f"pull_{model}"]
        row[f"err_frac_{model}"] = (
            (analytic - exact.resonator_pull) / exact.resonator_pull
            if exact.resonator_pull != 0.0 else 0.0 if analytic == 0.0 else math.inf)
    return row


def point_row(row_type, fields_of, config, variable, value):
    """The row of one sweep point, or a row naming the row error that ended it."""
    value = float(value)
    delta0 = value if variable == DETUNING else (config.transmon.omega_10
                                                 - config.resonator.omega_r)
    try:
        return row_type(delta0_ghz=delta0, **fields_of(config.build(**{variable: value})))
    except ROW_ERRORS as exc:
        return row_type(delta0_ghz=delta0, error=type(exc).__name__)


def shift_point_rows(config, variable, values):
    """The shift rows of a sweep, one SystemSpec per point."""
    return [point_row(ShiftRow, shift_fields, config, variable, value) for value in values]


def rate_point_rows(config, variable, values):
    """The rate rows of a sweep, one SystemSpec per point."""
    return [point_row(RateRow, rate_fields, config, variable, value) for value in values]


def exact_point_rows(config, variable, values):
    """The exact rows of a sweep in the config's model, one SystemSpec per point."""
    def exact_fields(system):
        exact = exact_shifts(system.qubit.ladder, system.omega_r,
                             system.resonator.fock_truncation, config.interaction_model)
        return dict(exact_pull=exact.resonator_pull, exact_qshift=exact.qubit_shift)

    return [point_row(ExactRow, exact_fields, config, variable, value) for value in values]
