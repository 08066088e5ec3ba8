"""Dispersive-regime analytics and Lindblad dynamics for a multilevel
artificial atom coupled to a single resonator mode.

Conventions: hbar = k_B = 1.  Every stored frequency, coupling, and
temperature is an ordinary (non-angular) frequency in GHz; dissipation
rates are reported in MHz; time evolution runs in nanoseconds, with the
2*pi bookkeeping confined to the Lindblad generator.
"""

from .baths import (FLAT, OHMIC, ONE_OVER_F, NegativeFrequency,
                    SpectralFunction, bath_from_config)
from .exact import (QUBIT_SHIFT, RESONATOR_PULL, AmbiguousLabeling,
                    ConvergenceFailure, DimensionOverflow, ExactShifts,
                    FitResult, Labeling, NoPhysicalCoupling, Spectrum,
                    analytic_shift, build_hamiltonian, diagonalize, exact_shifts,
                    fit_g0, fit_residual_curve, label_dressed_states)
from .lindblad import (BARE_PLUS_INTERACTION, DRESSED_ANALYTIC,
                       DegenerateNullSpace, LindbladGenerator, NegativeRate,
                       NonPositiveState, PropagationFailure, Trajectory,
                       TruncationTooSmall, assemble,
                       dressed_hamiltonian, evolve, partial_trace_qubit,
                       partial_trace_resonator, realize_terms, steady_state, thermal_resonator_state,
                       verify_displacement_identity)
from .model import (JC, RABI, ConfigError, InvalidSpec, NonPositiveSplitting,
                    QubitSpec, ResonatorSpec, SystemConfig, SystemSpec,
                    TransmonSpec, ValidationReport, expand_transmon, load_config,
                    parse_config, require_valid, silent_baths, validate)
from .operators import (DimensionMismatch, ProductSpace, annihilator, embed,
                        jump_matrix, number_operator, qubit_lower,
                        qubit_projector)
from .rates import (DRESSED_DEPHASING, DRIVEN_EFFECTIVE, PHOTON_ASSISTED,
                    PURCELL, SECOND_ORDER, DissipatorTerm, JumpDescriptor,
                    NegativePhotonNumber, PrefactorRecord, RateTable,
                    build_rate_table, dressed_dephasing_prefactors,
                    dressed_dephasing_terms, driven_effective_rates,
                    photon_assisted_prefactor, photon_assisted_terms,
                    purcell_prefactor, purcell_rates, second_order_rates,
                    sigma_diag, sigma_lower, sigma_raise)
from .shifts import (ResonantDivergence, ShiftReport, chi, chi_tilde,
                     h2_coefficients, shift_report, xi)
from .sweeps import (COUPLING, DETUNING, FIT_WINDOW_FACTOR,
                     RESONANCE_WINDOW_FACTOR, TEMPERATURE, ExactRow, RateRow,
                     ShiftRow, SweepError, SweepRequest, all_rows_failed,
                     apply_resonance_exclusion, columns, default_detuning_grid,
                     exact_rows, format_csv, parse_csv, rate_rows, shift_rows)

__version__ = "0.1.0"

__all__ = [
    "AmbiguousLabeling", "BARE_PLUS_INTERACTION", "COUPLING", "ConfigError",
    "ConvergenceFailure", "DETUNING", "DRESSED_ANALYTIC",
    "DegenerateNullSpace", "DimensionMismatch", "DimensionOverflow",
    "DRESSED_DEPHASING", "DRIVEN_EFFECTIVE",
    "DissipatorTerm", "ExactRow", "ExactShifts", "FIT_WINDOW_FACTOR", "FLAT",
    "FitResult", "InvalidSpec", "JC",
    "JumpDescriptor", "Labeling", "LindbladGenerator", "NegativeFrequency",
    "NegativePhotonNumber", "NegativeRate", "NoPhysicalCoupling", "NonPositiveSplitting",
    "NonPositiveState",
    "OHMIC", "ONE_OVER_F", "PHOTON_ASSISTED", "PURCELL", "PrefactorRecord",
    "ProductSpace", "PropagationFailure", "QUBIT_SHIFT",
    "QubitSpec", "RABI", "RESONANCE_WINDOW_FACTOR", "RESONATOR_PULL",
    "SECOND_ORDER",
    "RateRow", "RateTable", "ResonantDivergence",
    "ResonatorSpec", "ShiftReport", "ShiftRow",
    "SpectralFunction", "Spectrum",
    "SweepError",
    "SweepRequest", "SystemConfig",
    "SystemSpec", "TEMPERATURE", "Trajectory", "TransmonSpec",
    "TruncationTooSmall",
    "ValidationReport", "all_rows_failed", "analytic_shift", "annihilator",
    "apply_resonance_exclusion", "assemble",
    "bath_from_config", "build_hamiltonian", "build_rate_table", "chi",
    "chi_tilde", "columns", "default_detuning_grid", "diagonalize",
    "dressed_dephasing_prefactors",
    "dressed_dephasing_terms", "dressed_hamiltonian", "driven_effective_rates",
    "embed", "evolve", "exact_rows", "exact_shifts", "expand_transmon",
    "fit_g0", "fit_residual_curve", "format_csv",
    "h2_coefficients", "jump_matrix", "label_dressed_states", "load_config",
    "number_operator", "parse_config", "parse_csv", "partial_trace_qubit",
    "partial_trace_resonator",
    "photon_assisted_prefactor", "photon_assisted_terms", "purcell_prefactor",
    "purcell_rates", "qubit_lower", "qubit_projector", "rate_rows",
    "realize_terms",
    "require_valid", "second_order_rates", "shift_report", "shift_rows",
    "sigma_diag", "sigma_lower", "sigma_raise", "silent_baths",
    "steady_state", "thermal_resonator_state", "validate",
    "verify_displacement_identity", "xi",
]
