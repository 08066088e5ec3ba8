"""System parameter types: multi-level qubit, resonator, bath assignments.

Conventions used throughout the package:

- hbar = k_B = 1; every stored frequency is an ordinary (/2pi) frequency
  in GHz.  Every analytic expression downstream is homogeneous in
  frequency, so GHz in means GHz out; angular factors of 2pi enter only
  when real-time dynamics is integrated.
- Qubit levels are indexed k = 0..N-1 with level energies omega_k
  (omega_0 = 0 by choice of reference) and nearest-neighbour coupling
  matrix elements g_k on the k <-> k+1 transition.
- Transition frequencies are written omega_{k+1,k} = omega_{k+1} - omega_k.
- Out-of-range ladder quantities (g_k, beta_k for k < 0 or k > N-2) are
  identically zero; accessors below implement that convention so that
  boundary terms never need special-casing.
"""

from __future__ import annotations

import bisect
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from typing import Mapping

import numpy as np

from .baths import SpectralFunction, bath_from_config

RABI = "rabi"
JC = "jc"
MODELS = (RABI, JC)

BATH_LABELS = ("X", "Z", "R")

# Memory budget for arrays over the ladder index.  A `rates` command peaks
# about 1.6 kB per level above its import footprint (190 MB at 1e5 levels,
# 1.66 GB at 1e6), the largest per-level cost measured; the fit's arrays of
# detunings x levels take about 0.1 kB per entry.  So one ladder, or a batch
# of ladders, holds at most budget / 1.6 kB entries.
LADDER_BUDGET_BYTES = 256 * 2**20
MAX_LADDER_ENTRIES = LADDER_BUDGET_BYTES // 1600


class NonPositiveSplitting(ValueError):
    """A qubit transition frequency came out <= 0."""


class LadderOverflow(ValueError):
    """Finite ladder parameters gave a level energy or coupling beyond float64."""


class ConfigError(ValueError):
    """A configuration file could not be interpreted."""


class InvalidSpec(ValueError):
    """Validation found hard errors; carries the full list."""

    def __init__(self, errors: tuple[str, ...]):
        self.errors = tuple(errors)
        super().__init__("; ".join(errors))

    def __reduce__(self):
        return type(self), (self.errors,)


def _require_finite(owner: str, name: str, values) -> None:
    for value in values:
        if not math.isfinite(value):
            raise ValueError(f"{owner}.{name} must be finite, got {value}")


def check_model(model: str) -> str:
    if model not in MODELS:
        raise ValueError(f"interaction model must be one of {MODELS}, got {model!r}")
    return model


@dataclass(frozen=True)
class QubitSpec:
    """An N-level qubit ladder.

    Attributes
    ----------
    level_energies : tuple of float, length N
        omega_k in GHz, with omega_0 = 0.
    coupling_ladder : tuple of float, length N-1
        g_k in GHz for the k <-> k+1 transition.
    transverse_bath_couplings : tuple of float, length N-1
        Dimensionless sensitivities beta_k of the k <-> k+1 transition to
        the transverse bath.
    dephasing_sensitivities : tuple of float, length N
        Dimensionless sensitivities delta-omega_k of level k to the
        longitudinal (dephasing) bath.
    """

    level_energies: tuple[float, ...]
    coupling_ladder: tuple[float, ...]
    transverse_bath_couplings: tuple[float, ...]
    dephasing_sensitivities: tuple[float, ...]

    def __post_init__(self) -> None:
        names = [f.name for f in fields(self)]
        for name in names:
            object.__setattr__(self, name, tuple(float(x) for x in getattr(self, name)))
        for name in names:
            _require_finite("QubitSpec", name, getattr(self, name))
        n = len(self.level_energies)
        if n < 2:
            raise ValueError(f"qubit needs at least 2 levels, got {n}")
        # per field, the length it must have: N - 1 per transition, N per level
        for name, length in zip(names[1:], (n - 1, n - 1, n)):
            if len(getattr(self, name)) != length:
                raise ValueError(f"{name} must have length {length}, "
                                 f"got {len(getattr(self, name))}")

    @property
    def num_levels(self) -> int:
        return len(self.level_energies)

    def splitting(self, k: int) -> float:
        """omega_{k+1,k}; only defined for 0 <= k <= N-2."""
        if not 0 <= k <= self.num_levels - 2:
            raise IndexError(f"transition index {k} out of range for {self.num_levels} levels")
        return self.level_energies[k + 1] - self.level_energies[k]

    # Total-function ladder accessors: zero outside the physical range, so
    # boundary terms (k = 0 and k = N-1) drop out of sums automatically.

    def g(self, k: int) -> float:
        if 0 <= k <= self.num_levels - 2:
            return self.coupling_ladder[k]
        return 0.0

    def beta(self, k: int) -> float:
        if 0 <= k <= self.num_levels - 2:
            return self.transverse_bath_couplings[k]
        return 0.0

    def dw(self, k: int) -> float:
        if 0 <= k <= self.num_levels - 1:
            return self.dephasing_sensitivities[k]
        return 0.0


@dataclass(frozen=True)
class TransmonSpec:
    """Ladder parameters for a weakly anharmonic (transmon-like) qubit.

    omega_{k+1,k} = omega_10 - k * anharmonicity, g_k = sqrt(k+1) * g0.
    """

    omega_10: float
    anharmonicity: float
    g0: float
    num_levels: int

    def __post_init__(self) -> None:
        for name in ("omega_10", "anharmonicity", "g0"):
            _require_finite("TransmonSpec", name, (getattr(self, name),))
        if self.num_levels < 2:
            raise ValueError(f"num_levels must be >= 2, got {self.num_levels}")


def transmon_ladder(omega_10, anharmonicity: float, g0: float,
                    num_levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Level energies (one row of N per omega_10 value) and couplings (N-1)
    of transmon ladders: omega_k = k * omega_10 - anharmonicity * k (k - 1) / 2
    and g_k = sqrt(k+1) * g0.

    Raises NonPositiveSplitting at the first omega_{k+1,k} = omega_10 -
    k * anharmonicity that is <= 0, before any array of length N is made,
    then LadderOverflow if the ladders hold more than MAX_LADDER_ENTRIES
    levels in all (also before any such array) or if an energy or coupling
    is not finite.
    """
    if num_levels < 2:
        raise ValueError(f"num_levels must be >= 2, got {num_levels}")
    omega_10 = np.asarray(omega_10, dtype=float).reshape(-1, 1)
    # The splittings are monotonic in k: the first or the last is the smallest.
    # No array is longer than sys.maxsize, so no index past it is searched.
    top = min(num_levels - 2, sys.maxsize)
    collapsed = np.flatnonzero((omega_10[:, 0] <= 0.0)
                               | (omega_10[:, 0] - top * anharmonicity <= 0.0))
    if collapsed.size:
        w10 = float(omega_10[collapsed[0], 0])
        k = 0 if w10 <= 0.0 else bisect.bisect_left(
            range(top), True, key=lambda j: w10 - j * anharmonicity <= 0.0)
        raise NonPositiveSplitting(
            f"transition {k + 1},{k} has frequency {w10 - k * anharmonicity} GHz <= 0 "
            f"(omega_10={w10}, anharmonicity={anharmonicity})")
    if omega_10.shape[0] * num_levels > MAX_LADDER_ENTRIES:
        raise LadderOverflow(
            f"{omega_10.shape[0]} x {num_levels} ladder levels exceed the cap of "
            f"{MAX_LADDER_ENTRIES} ({LADDER_BUDGET_BYTES >> 20} MB memory budget)")
    k = np.arange(num_levels)
    with np.errstate(all="ignore"):
        energies = k * omega_10 - anharmonicity * k * (k - 1) / 2.0
        couplings = np.sqrt(k[:-1] + 1) * g0
    finite = np.isfinite(energies).all(axis=1) & np.isfinite(couplings).all()
    if not finite.all():
        raise LadderOverflow(f"the {num_levels}-level ladder overflows float64 "
                             f"(omega_10={omega_10[np.argmin(finite), 0]}, "
                             f"anharmonicity={anharmonicity}, g0={g0})")
    return energies, couplings


def expand_transmon(spec: TransmonSpec,
                    bath_couplings: tuple[float, ...] | None = None,
                    dephasing_sensitivities: tuple[float, ...] | None = None) -> QubitSpec:
    """Expand a transmon ladder (see transmon_ladder) into an explicit QubitSpec.

    Defaults: beta_k = sqrt(k+1) (matrix-element scaling of charge-like
    transverse noise) and delta-omega_k = k (level k rides k times the 0-1
    frequency fluctuation).  Both can be overridden.
    """
    n = spec.num_levels
    energies, couplings = transmon_ladder(spec.omega_10, spec.anharmonicity, spec.g0, n)
    if bath_couplings is None:
        bath_couplings = tuple(math.sqrt(k + 1) for k in range(n - 1))
    if dephasing_sensitivities is None:
        dephasing_sensitivities = tuple(float(k) for k in range(n))
    return QubitSpec(level_energies=tuple(energies[0].tolist()),
                     coupling_ladder=tuple(couplings.tolist()),
                     transverse_bath_couplings=bath_couplings,
                     dephasing_sensitivities=dephasing_sensitivities)


@dataclass(frozen=True)
class ResonatorSpec:
    """A single harmonic mode: frequency omega_r (GHz) and Fock cutoff M."""

    omega_r: float
    fock_truncation: int

    def __post_init__(self) -> None:
        _require_finite("ResonatorSpec", "omega_r", (self.omega_r,))
        if int(self.fock_truncation) != self.fock_truncation:
            raise ValueError(f"fock_truncation must be an integer, got {self.fock_truncation}")
        object.__setattr__(self, "fock_truncation", int(self.fock_truncation))
        if self.fock_truncation < 2:
            raise ValueError(f"fock_truncation must be >= 2, got {self.fock_truncation}")


@dataclass(frozen=True)
class SystemSpec:
    """Qubit + resonator + interaction model + bath assignments.

    baths maps "X" (transverse qubit noise), "Z" (longitudinal qubit
    noise) and "R" (resonator bath) to SpectralFunction instances.
    """

    qubit: QubitSpec
    resonator: ResonatorSpec
    interaction_model: str
    baths: Mapping[str, SpectralFunction]

    def __post_init__(self) -> None:
        object.__setattr__(self, "baths", dict(self.baths))

    @property
    def omega_r(self) -> float:
        return self.resonator.omega_r

    def bath(self, label: str) -> SpectralFunction:
        return self.baths[label]

    def with_model(self, model: str) -> "SystemSpec":
        return replace(self, interaction_model=check_model(model))


def silent_baths(temperature_ghz: float = 0.0) -> dict[str, SpectralFunction]:
    return {label: SpectralFunction.silent(temperature_ghz) for label in BATH_LABELS}


@dataclass(frozen=True)
class ValidationReport:
    errors: tuple[str, ...]
    warnings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.errors


def _field_errors(couplings, omega_r: float, model: str,
                  baths: Mapping[str, SpectralFunction]) -> list[str]:
    """validate's errors outside the level energies: couplings, resonator,
    interaction model and baths."""
    errors = [f"qubit.coupling_ladder[{k}]: coupling must be >= 0, got {g}"
              for k, g in enumerate(couplings) if g < 0.0]
    if not omega_r > 0.0:
        errors.append(f"resonator.omega_r: must be > 0, got {omega_r}")
    if model not in MODELS:
        errors.append(f"interaction_model: must be one of {MODELS}, got {model!r}")
    for label in BATH_LABELS:
        if label not in baths:
            errors.append(f"baths[{label!r}]: missing")
        elif not isinstance(baths[label], SpectralFunction):
            errors.append(f"baths[{label!r}]: not a SpectralFunction")
    return errors


def validate(system: SystemSpec) -> ValidationReport:
    """Check a SystemSpec for hard errors and dispersive-regime warnings.

    Errors make the system unusable (non-monotonic ladder, negative
    couplings, missing baths).  Warnings flag parameter regimes where the
    dispersive expansion is unreliable: any transition within 10 g_k of
    the resonator, or g_0 / |omega_10 - omega_r| > 0.1.
    """
    errors: list[str] = []
    warnings: list[str] = []
    q = system.qubit
    n = q.num_levels

    if q.level_energies[0] != 0.0:
        errors.append(f"qubit.level_energies[0]: ground level must sit at 0, "
                      f"got {q.level_energies[0]}")
    for k in range(n - 1):
        if not q.level_energies[k + 1] > q.level_energies[k]:
            errors.append(f"qubit.level_energies[{k + 1}]: energies must increase "
                          f"strictly ({q.level_energies[k + 1]} <= {q.level_energies[k]})")
    errors += _field_errors(q.coupling_ladder, system.resonator.omega_r,
                            system.interaction_model, system.baths)

    if not errors:
        omega_r = system.resonator.omega_r
        for k in range(n - 1):
            w = q.splitting(k)
            g = q.coupling_ladder[k]
            if g > 0.0 and abs(w - omega_r) < 10.0 * g:
                warnings.append(f"transition {k + 1},{k} within 10 g_{k} of the resonator "
                                f"(|{w} - {omega_r}| < {10.0 * g})")
        detuning = q.splitting(0) - omega_r
        g0 = q.coupling_ladder[0]
        if detuning == 0.0 or (g0 > 0.0 and g0 / abs(detuning) > 0.1):
            warnings.append("dispersive parameter g_0/|Delta_0| exceeds 0.1; "
                            "second-order results are unreliable here")

    return ValidationReport(errors=tuple(errors), warnings=tuple(warnings))


def require_valid(system: SystemSpec) -> SystemSpec:
    report = validate(system)
    if not report.ok:
        raise InvalidSpec(report.errors)
    return system


@dataclass(frozen=True)
class SystemConfig:
    """A parsed configuration: transmon ladder plus everything else.

    Kept separate from SystemSpec because sweeps re-expand the ladder at
    each grid point (detuning and coupling sweeps change omega_10 / g0).
    """

    transmon: TransmonSpec
    resonator: ResonatorSpec
    interaction_model: str
    baths: dict[str, SpectralFunction]

    @property
    def omega_r(self) -> float:
        return self.resonator.omega_r

    def build(self, detuning: float | None = None, coupling: float | None = None,
              temperature: float | None = None) -> SystemSpec:
        """Expand into a SystemSpec, optionally overriding swept variables.

        detuning sets omega_10 = omega_r + detuning; coupling sets g0;
        temperature replaces the temperature of every bath.
        """
        t = self.transmon
        if detuning is not None:
            omega_10 = self.resonator.omega_r + detuning
            if not math.isfinite(omega_10):
                raise LadderOverflow(f"omega_r + detuning = {omega_10} GHz is not finite")
            t = replace(t, omega_10=omega_10)
        if coupling is not None:
            t = replace(t, g0=coupling)
        baths = self.baths
        if temperature is not None:
            baths = {label: sf.with_temperature(temperature) for label, sf in baths.items()}
        return SystemSpec(qubit=expand_transmon(t), resonator=self.resonator,
                          interaction_model=self.interaction_model, baths=dict(baths))


def require_valid_config(config: SystemConfig) -> SystemConfig:
    """require_valid on the system a config builds.

    A base ladder that collapses (NonPositiveSplitting) passes, because
    sweep points may not collapse: each sweep row reports its own collapse,
    and evolve/steady fail on rebuild.  Every field outside the ladder is
    checked either way; a config with g_0 = g0 < 0, omega_r <= 0, an unknown
    model or a missing bath raises InvalidSpec.
    """
    try:
        require_valid(config.build())
    except NonPositiveSplitting:
        errors = _field_errors((config.transmon.g0,), config.resonator.omega_r,
                               config.interaction_model, config.baths)
        if errors:
            raise InvalidSpec(tuple(errors)) from None
    return config


_CONFIG_KEYS = {"omega_r_ghz", "omega_10_ghz", "anharmonicity_ghz", "g0_ghz",
                "num_qubit_levels", "fock_truncation", "model", "temperature_ghz",
                "bath_X", "bath_Z", "bath_R"}
_REQUIRED_KEYS = ("omega_r_ghz", "omega_10_ghz", "g0_ghz",
                  "num_qubit_levels", "fock_truncation")


def _finite(data: Mapping, key: str, default: float | None = None) -> float:
    """data[key], or default when given and the key is absent, as a finite float."""
    value = float(data[key] if default is None else data.get(key, default))
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {value}")
    return value


def parse_config(data: Mapping) -> SystemConfig:
    """Build a SystemConfig from a decoded JSON object."""
    if not isinstance(data, Mapping):
        raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
    unknown = {k for k in data if not k.startswith("_")} - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = [k for k in _REQUIRED_KEYS if k not in data]
    if missing:
        raise ConfigError(f"missing config keys: {missing}")
    try:
        temperature = _finite(data, "temperature_ghz", 0.0)
        transmon = TransmonSpec(
            omega_10=_finite(data, "omega_10_ghz"),
            anharmonicity=_finite(data, "anharmonicity_ghz", 0.0),
            g0=_finite(data, "g0_ghz"),
            num_levels=int(data["num_qubit_levels"]))
        resonator = ResonatorSpec(
            omega_r=_finite(data, "omega_r_ghz"),
            fock_truncation=int(data["fock_truncation"]))
        model = check_model(str(data.get("model", RABI)))
        baths = silent_baths(temperature)
        for label in BATH_LABELS:
            key = f"bath_{label}"
            if key in data:
                baths[label] = bath_from_config(data[key], default_temperature=temperature)
    except ConfigError:
        raise
    except (ValueError, TypeError, KeyError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc
    return SystemConfig(transmon=transmon, resonator=resonator,
                        interaction_model=model, baths=baths)


def load_config(path: str) -> SystemConfig:
    """Read a JSON config file.  See parse_config for the schema."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from exc
    return parse_config(data)
