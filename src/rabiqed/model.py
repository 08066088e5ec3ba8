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

from .baths import SpectralFunction, _spec_number, bath_from_config
from .contract import (JC, MODELS, RABI, ConfigError, InvalidSpec, LadderOverflow,
                       NonPositiveSplitting)

BATH_LABELS = ("X", "Z", "R")

# Memory budget for arrays over the ladder index.  A `rates` command peaks
# about 1.6 kB per level above its import footprint (190 MB at 1e5 levels,
# 1.66 GB at 1e6), the largest per-level cost measured; the fit's arrays of
# detunings x levels take about 0.1 kB per entry.  So one ladder, or a batch
# of ladders, holds at most budget / 1.6 kB entries.
LADDER_BUDGET_BYTES = 256 * 2**20
MAX_LADDER_ENTRIES = LADDER_BUDGET_BYTES // 1600


def check_model(model: str) -> str:
    if model not in MODELS:
        raise ValueError(f"interaction model must be one of {MODELS}, got {model!r}")
    return model


@dataclass(frozen=True)
class QubitSpec:
    """An N-level qubit ladder.

    Every entry is a finite number (no bool or string), stored as a float.

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
            object.__setattr__(self, name, tuple(_spec_number("QubitSpec", name, x)
                                                 for x in getattr(self, name)))
        n = len(self.level_energies)
        if n < 2:
            raise InvalidSpec(f"qubit needs at least 2 levels, got {n}")
        # per field, the length it must have: N - 1 per transition, N per level
        for name, length in zip(names[1:], (n - 1, n - 1, n)):
            if len(getattr(self, name)) != length:
                raise InvalidSpec(f"{name} must have length {length}, "
                                  f"got {len(getattr(self, name))}")
        # the hard errors of a ladder: all of them, in one InvalidSpec
        energies = self.level_energies
        errors = ([f"qubit.level_energies[0]: ground level must sit at 0, got {energies[0]}"]
                  if energies[0] != 0.0 else [])
        errors += [f"qubit.level_energies[{k}]: energies must increase strictly "
                   f"({high} <= {low})"
                   for k, (low, high) in enumerate(zip(energies, energies[1:]), 1)
                   if not high > low]
        errors += [f"qubit.coupling_ladder[{k}]: coupling must be >= 0, got {g}"
                   for k, g in enumerate(self.coupling_ladder) if g < 0.0]
        if errors:
            raise InvalidSpec(tuple(errors))
        # Hashed once: the generated __hash__ rehashes all four N-long tuples
        # at every lookup of a cache keyed by the spec.
        object.__setattr__(self, "_hash", hash(tuple(getattr(self, name) for name in names)))

    def __hash__(self) -> int:
        return self._hash

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
    Frequencies are finite numbers stored as floats; num_levels is whole.
    """

    omega_10: float
    anharmonicity: float
    g0: float
    num_levels: int

    def __post_init__(self) -> None:
        for name in ("omega_10", "anharmonicity", "g0", "num_levels"):
            value = _spec_number("TransmonSpec", name, getattr(self, name),
                                 count=name == "num_levels")
            object.__setattr__(self, name, value)
        if self.num_levels < 2:
            raise InvalidSpec(f"num_levels must be >= 2, got {self.num_levels}")
        if self.g0 < 0.0:
            raise InvalidSpec(f"g0: coupling must be >= 0, got {self.g0}")


def _last_transition(num_levels: int) -> int:
    """N - 2, the index of a ladder's top transition, capped at sys.maxsize:
    no array is longer, so no index past it is searched."""
    return min(num_levels - 2, sys.maxsize)


def ladder_collapses(omega_10, anharmonicity: float, num_levels: int) -> np.ndarray:
    """Per omega_10 value, whether a num_levels ladder has a splitting
    omega_{k+1,k} = omega_10 - k * anharmonicity <= 0 (transmon_ladder then
    raises NonPositiveSplitting).  The splittings are monotonic in k, so
    the first or the last is the smallest: O(1) per value for any N.
    """
    omega_10 = np.asarray(omega_10, dtype=float)
    top = _last_transition(num_levels)
    return (omega_10 <= 0.0) | (omega_10 - top * anharmonicity <= 0.0)


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
    collapsed = np.flatnonzero(ladder_collapses(omega_10[:, 0], anharmonicity, num_levels))
    if collapsed.size:
        w10 = float(omega_10[collapsed[0], 0])
        k = 0 if w10 <= 0.0 else bisect.bisect_left(
            range(_last_transition(num_levels)), True,
            key=lambda j: w10 - j * anharmonicity <= 0.0)
        raise NonPositiveSplitting(
            f"transition {k + 1},{k} has frequency {w10 - k * anharmonicity} GHz <= 0 "
            f"(omega_10={w10}, anharmonicity={anharmonicity})")
    if omega_10.shape[0] * num_levels > MAX_LADDER_ENTRIES:
        raise LadderOverflow(
            f"{omega_10.shape[0]} x {num_levels} ladder levels exceed the cap of "
            f"{MAX_LADDER_ENTRIES} ({LADDER_BUDGET_BYTES >> 20} MB memory budget)")
    energies, couplings = ladder_arrays(omega_10, anharmonicity, g0, num_levels)
    finite = np.isfinite(energies).all(axis=1) & np.isfinite(couplings).all()
    if not finite.all():
        raise LadderOverflow(f"the {num_levels}-level ladder overflows float64 "
                             f"(omega_10={omega_10[np.argmin(finite), 0]}, "
                             f"anharmonicity={anharmonicity}, g0={g0})")
    return energies, couplings


def ladder_arrays(omega_10, anharmonicity: float, g0,
                  num_levels: int) -> tuple[np.ndarray, np.ndarray]:
    """transmon_ladder's energies and couplings, unchecked: a collapsed or
    overflowing ladder leaves its values in its own rows.  omega_10 and g0
    broadcast against the ladder index as columns, shape (points, 1), or as
    scalars."""
    k = np.arange(num_levels)
    with np.errstate(all="ignore"):
        energies = k * omega_10 - anharmonicity * k * (k - 1) / 2.0
        couplings = np.sqrt(k[:-1] + 1) * g0
    return energies, couplings


def transmon_sensitivities(num_levels: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The default bath sensitivities of a transmon ladder: beta_k = sqrt(k+1)
    (matrix-element scaling of charge-like transverse noise) and
    delta-omega_k = k (level k rides k times the 0-1 frequency fluctuation)."""
    return (tuple(math.sqrt(k + 1) for k in range(num_levels - 1)),
            tuple(float(k) for k in range(num_levels)))


def expand_transmon(spec: TransmonSpec,
                    bath_couplings: tuple[float, ...] | None = None,
                    dephasing_sensitivities: tuple[float, ...] | None = None) -> QubitSpec:
    """Expand a transmon ladder (see transmon_ladder) into an explicit QubitSpec.

    The bath sensitivities default to transmon_sensitivities; either can be
    overridden.
    """
    n = spec.num_levels
    energies, couplings = transmon_ladder(spec.omega_10, spec.anharmonicity, spec.g0, n)
    beta, dw = transmon_sensitivities(n)
    if bath_couplings is None:
        bath_couplings = beta
    if dephasing_sensitivities is None:
        dephasing_sensitivities = dw
    return QubitSpec(level_energies=tuple(energies[0].tolist()),
                     coupling_ladder=tuple(couplings.tolist()),
                     transverse_bath_couplings=bath_couplings,
                     dephasing_sensitivities=dephasing_sensitivities)


@dataclass(frozen=True)
class ResonatorSpec:
    """A single harmonic mode: frequency omega_r (GHz), a finite number
    stored as a float, and Fock cutoff M, whole (8.0 is stored as 8)."""

    omega_r: float
    fock_truncation: int

    def __post_init__(self) -> None:
        for name in ("omega_r", "fock_truncation"):
            value = _spec_number("ResonatorSpec", name, getattr(self, name),
                                 count=name == "fock_truncation")
            object.__setattr__(self, name, value)
        if not self.omega_r > 0.0:
            raise InvalidSpec(f"resonator.omega_r: must be > 0, got {self.omega_r}")
        if self.fock_truncation < 2:
            raise InvalidSpec(f"fock_truncation must be >= 2, got {self.fock_truncation}")


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
        errors = ([] if self.interaction_model in MODELS else
                  [f"interaction_model: must be one of {MODELS}, "
                   f"got {self.interaction_model!r}"])
        for label in BATH_LABELS:
            if label not in self.baths:
                errors.append(f"baths[{label!r}]: missing")
            elif not isinstance(self.baths[label], SpectralFunction):
                errors.append(f"baths[{label!r}]: not a SpectralFunction")
        if errors:
            raise InvalidSpec(tuple(errors))

    @property
    def omega_r(self) -> float:
        return self.resonator.omega_r

    def bath(self, label: str) -> SpectralFunction:
        return self.baths[label]

    def with_model(self, model: str) -> "SystemSpec":
        return replace(self, interaction_model=model)


def silent_baths(temperature_ghz: float = 0.0) -> dict[str, SpectralFunction]:
    return {label: SpectralFunction.silent(temperature_ghz) for label in BATH_LABELS}


def validate(system: SystemSpec) -> tuple[str, ...]:
    """Dispersive-regime warnings for a SystemSpec, which its constructors
    have already checked for hard errors.

    A warning flags a parameter regime where the dispersive expansion is
    unreliable: any transition within 10 g_k of the resonator, or
    g_0 / |omega_10 - omega_r| > 0.1.
    """
    q = system.qubit
    omega_r = system.resonator.omega_r
    warnings = []
    for k in range(q.num_levels - 1):
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
    return tuple(warnings)


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

    def omega_10_at(self, detuning=None):
        """The omega_10 that build(detuning=...) expands, per detuning value:
        omega_r + detuning, or the configured omega_10 when detuning is None."""
        if detuning is None:
            return self.transmon.omega_10
        return self.resonator.omega_r + detuning

    def build(self, detuning: float | None = None, coupling: float | None = None,
              temperature: float | None = None) -> SystemSpec:
        """Expand into a SystemSpec, optionally overriding swept variables.

        detuning sets omega_10 = omega_r + detuning; coupling sets g0;
        temperature replaces the temperature of every bath.
        """
        t = self.transmon
        if detuning is not None:
            omega_10 = self.omega_10_at(detuning)
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


_CONFIG_KEYS = {"omega_r_ghz", "omega_10_ghz", "anharmonicity_ghz", "g0_ghz",
                "num_qubit_levels", "fock_truncation", "model", "temperature_ghz",
                "bath_X", "bath_Z", "bath_R"}
_REQUIRED_KEYS = ("omega_r_ghz", "omega_10_ghz", "g0_ghz",
                  "num_qubit_levels", "fock_truncation")


def parse_config(data: Mapping) -> SystemConfig:
    """Build a SystemConfig from a decoded JSON object.  The values go as
    decoded to the spec constructors, check_model and bath_from_config,
    which check each one once; a refusal is raised as ConfigError."""
    if not isinstance(data, Mapping):
        raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
    unknown = {k for k in data if not k.startswith("_")} - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = [k for k in _REQUIRED_KEYS if k not in data]
    if missing:
        raise ConfigError(f"missing config keys: {missing}")
    try:
        temperature = data.get("temperature_ghz", 0.0)
        baths = silent_baths(temperature)
        transmon = TransmonSpec(
            omega_10=data["omega_10_ghz"], anharmonicity=data.get("anharmonicity_ghz", 0.0),
            g0=data["g0_ghz"], num_levels=data["num_qubit_levels"])
        resonator = ResonatorSpec(omega_r=data["omega_r_ghz"],
                                  fock_truncation=data["fock_truncation"])
        model = check_model(data.get("model", RABI))
        for label in BATH_LABELS:
            key = f"bath_{label}"
            if key in data:
                baths[label] = bath_from_config(data[key], default_temperature=temperature)
    except ValueError as exc:
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
