"""Dispersive-regime analytics and Lindblad dynamics for a multilevel
artificial atom coupled to a single resonator mode.

Conventions: hbar = k_B = 1.  Every stored frequency, coupling, and
temperature is an ordinary (non-angular) frequency in GHz; dissipation
rates are reported in MHz; time evolution runs in nanoseconds, with the
2*pi bookkeeping confined to the Lindblad generator.

Every name in __all__, and every submodule, is imported on first access
(PEP 562): ``import rabiqed`` loads no submodule and no NumPy, and
``rabiqed.evolve`` imports the Lindblad layer when it is first read.
``from rabiqed import *`` binds every name in __all__.
"""

import importlib

# Each exported name, by the submodule that defines it; __all__ lists them
# all.  The names in contract need no NumPy.
_EXPORTS = {
    "baths": ("FLAT", "OHMIC", "ONE_OVER_F", "NegativeFrequency", "SpectralFunction",
              "bath_from_config"),
    "contract": ("JC", "QUBIT_SHIFT", "RABI", "RESONATOR_PULL", "AmbiguousLabeling",
                 "ConfigError", "ConvergenceFailure", "DegenerateNullSpace",
                 "DimensionOverflow", "InvalidSpec", "LadderOverflow",
                 "MemoryBudgetExceeded", "NegativePhotonNumber", "NoPhysicalCoupling",
                 "NonPositiveSplitting", "PrecisionLoss", "PropagationFailure",
                 "RateOverflow", "ResonantDivergence", "SweepError", "TruncationTooSmall",
                 "parse_csv"),
    "exact": ("ExactShifts", "FitResult", "Labeling", "analytic_shift", "build_hamiltonian",
              "diagonalize", "exact_shifts", "fit_g0", "fit_residual_curve",
              "label_dressed_states"),
    "lindblad": ("BARE_PLUS_INTERACTION", "DRESSED_ANALYTIC", "MEMORY_BUDGET_BYTES",
                 "LindbladGenerator", "NegativeRate", "NoPopulationSector", "Trajectory",
                 "assemble", "dressed_hamiltonian", "evolve", "partial_trace_qubit",
                 "partial_trace_resonator", "realize_terms", "steady_state",
                 "thermal_resonator_state", "verify_displacement_identity"),
    "model": ("QubitSpec", "ResonatorSpec", "SystemConfig", "SystemSpec", "TransmonSpec",
              "expand_transmon", "load_config", "parse_config", "silent_baths",
              "validate"),
    "operators": ("DimensionMismatch", "ProductSpace", "annihilator", "embed",
                  "jump_matrix", "number_operator", "qubit_lower", "qubit_projector"),
    "rates": ("DRESSED_DEPHASING", "DRIVEN_EFFECTIVE", "PHOTON_ASSISTED", "PURCELL",
              "SECOND_ORDER", "DissipatorTerm", "JumpDescriptor", "RateTable",
              "build_rate_table", "dressed_dephasing_prefactors", "driven_effective_rates",
              "photon_assisted_prefactor", "purcell_prefactor", "purcell_rates",
              "second_order_rates", "sigma_diag", "sigma_lower", "sigma_raise"),
    "shifts": ("ShiftReport", "chi", "chi_tilde", "h2_coefficients", "shift_report", "xi"),
    "sweeps": ("COUPLING", "DETUNING", "FIT_WINDOW_FACTOR", "RESONANCE_WINDOW_FACTOR",
               "TEMPERATURE", "ExactRow", "RateRow", "ShiftRow", "SweepRequest",
               "all_rows_failed", "apply_resonance_exclusion", "columns",
               "default_detuning_grid", "exact_rows", "format_csv", "rate_rows",
               "shift_rows"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "svgplot"}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import the submodule that defines name, or is name, on first access."""
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
