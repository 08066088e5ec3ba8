"""Shared builders for the test suite."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rabiqed
from rabiqed import (
    RABI,
    ResonatorSpec,
    SpectralFunction,
    SystemSpec,
    TransmonSpec,
    expand_transmon,
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


def _run_python(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this rabiqed."""
    src = str(Path(rabiqed.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)


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
    bath_couplings=None,
    dephasing_sensitivities=None,
):
    """Assemble a transmon-resonator system with the given detuning in GHz."""
    transmon = TransmonSpec(
        omega_10=omega_r + detuning,
        anharmonicity=alpha,
        g0=g0,
        num_levels=num_levels,
    )
    qubit = expand_transmon(
        transmon,
        bath_couplings=bath_couplings,
        dephasing_sensitivities=dephasing_sensitivities,
    )
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
