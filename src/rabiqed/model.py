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
- A ladder's one array form is the Ladder record, which a QubitSpec builds
  when it is made and transmon_grid makes for a grid of transmon ladders.
"""

from __future__ import annotations

import bisect
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Mapping, NamedTuple

import numpy as np

from .baths import SpectralFunction, _spec_number, bath_from_config
from .contract import (JC, MODELS, RABI, ConfigError, InvalidSpec, LadderOverflow,
                       NonPositiveSplitting)

BATH_LABELS = ("X", "Z", "R")

# Memory budget for arrays over the ladder index, at 1.6 kB per level, the most
# a command has been measured to take.  `rates --nq 100000` (harmonic ladder)
# peaks 63 MB, 0.63 kB per level, above its import footprint, its system's
# ladder record included; the fit's arrays of detunings x levels take 0.1 kB
# per entry.  So one ladder, or a batch of them, holds budget / 1.6 kB entries.
LADDER_BUDGET_BYTES = 256 * 2**20
MAX_LADDER_ENTRIES = LADDER_BUDGET_BYTES // 1600


def check_model(model: str) -> str:
    if model not in MODELS:
        raise ValueError(f"interaction model must be one of {MODELS}, got {model!r}")
    return model


class Ladder(NamedTuple):
    """A qubit ladder, or a batch of them, as read-only float64 arrays over
    the level or transition index (the last axis; leading axes, such as a
    sweep's points, broadcast): omega_k and delta-omega_k per level, and per
    transition w = omega_{k+1,k} (from the energies), g_k and beta_k."""

    energies: np.ndarray
    w: np.ndarray
    g: np.ndarray
    beta: np.ndarray
    dw: np.ndarray

    @classmethod
    def of(cls, energies, g, beta, dw) -> "Ladder":
        """The record of read-only float64 copies, with w = diff(energies)."""
        with np.errstate(all="ignore"):  # an unchecked ladder may hold inf
            w = np.diff(energies, axis=-1)
        ladder = cls._make(np.array(a, dtype=float) for a in (energies, w, g, beta, dw))
        for array in ladder:
            array.flags.writeable = False
        return ladder


def _spec_floats(name: str, values) -> np.ndarray:
    """The entries of a QubitSpec field as a float64 array, each checked as
    _spec_number checks it, or InvalidSpec naming the first it refuses.  A
    one-dimensional float64 array of finite entries, which _spec_number
    passes unchanged one by one, is checked in one pass."""
    if (isinstance(values, np.ndarray) and values.dtype == np.float64 and values.ndim == 1
            and np.isfinite(values).all()):
        return values
    return np.array([_spec_number("QubitSpec", name, x) for x in values], dtype=float)


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
    ladder : Ladder
        The fields as arrays, built once; not part of equality or hashing.
    """

    level_energies: tuple[float, ...]
    coupling_ladder: tuple[float, ...]
    transverse_bath_couplings: tuple[float, ...]
    dephasing_sensitivities: tuple[float, ...]

    def __post_init__(self) -> None:
        names = [f.name for f in fields(self)]
        arrays = [_spec_floats(name, getattr(self, name)) for name in names]
        for name, array in zip(names, arrays):
            object.__setattr__(self, name, tuple(array.tolist()))
        n = len(self.level_energies)
        if n < 2:
            raise InvalidSpec(f"qubit needs at least 2 levels, got {n}")
        # per field, the length it must have: N - 1 per transition, N per level
        for name, length in zip(names[1:], (n - 1, n - 1, n)):
            if len(getattr(self, name)) != length:
                raise InvalidSpec(f"{name} must have length {length}, "
                                  f"got {len(getattr(self, name))}")
        # the hard errors of a ladder: all of them, in one InvalidSpec
        energies, couplings = self.level_energies, self.coupling_ladder
        errors = ([f"qubit.level_energies[0]: ground level must sit at 0, got {energies[0]}"]
                  if energies[0] != 0.0 else [])
        errors += [f"qubit.level_energies[{k}]: energies must increase strictly "
                   f"({energies[k]} <= {energies[k - 1]})"
                   for k in (np.flatnonzero(~(arrays[0][1:] > arrays[0][:-1])) + 1).tolist()]
        errors += [f"qubit.coupling_ladder[{k}]: coupling must be >= 0, got {couplings[k]}"
                   for k in np.flatnonzero(arrays[1] < 0.0).tolist()]
        if errors:
            raise InvalidSpec(tuple(errors))
        object.__setattr__(self, "ladder", Ladder.of(*arrays))

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


def transmon_ladder(omega_10, anharmonicity: float, g0: float, num_levels: int) -> Ladder:
    """transmon_grid's ladders, one row of N level energies per omega_10
    value, once they are checked.

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
    ladder = transmon_grid(omega_10, anharmonicity, g0, num_levels)
    finite = np.isfinite(ladder.energies).all(axis=1) & np.isfinite(ladder.g).all()
    if not finite.all():
        raise LadderOverflow(f"the {num_levels}-level ladder overflows float64 "
                             f"(omega_10={omega_10[np.argmin(finite), 0]}, "
                             f"anharmonicity={anharmonicity}, g0={g0})")
    return ladder


def transmon_grid(omega_10, anharmonicity: float, g0, num_levels: int) -> Ladder:
    """Transmon ladders, unchecked: omega_k = k * omega_10 - anharmonicity *
    k (k - 1) / 2, g_k = sqrt(k+1) * g0, and the default bath sensitivities
    of every point, beta_k = sqrt(k+1) (matrix-element scaling of charge-like
    transverse noise) and delta-omega_k = k (level k rides k times the 0-1
    frequency fluctuation).  omega_10 and g0 broadcast against the ladder
    index as columns, shape (points, 1), or as scalars; a collapsed or
    overflowing ladder leaves its values in its own rows."""
    k = np.arange(num_levels)
    root = np.sqrt(k[:-1] + 1.0)
    with np.errstate(all="ignore"):
        energies = k * omega_10 - anharmonicity * k * (k - 1) / 2.0
        couplings = root * g0
    return Ladder.of(energies, couplings, root, k.astype(float))


def expand_transmon(spec: TransmonSpec) -> QubitSpec:
    """Expand a transmon ladder (see transmon_ladder) into an explicit QubitSpec,
    with the bath sensitivities of transmon_grid.  Other sensitivities go
    into a QubitSpec directly, or through dataclasses.replace."""
    ladder = transmon_ladder(spec.omega_10, spec.anharmonicity, spec.g0, spec.num_levels)
    return QubitSpec(level_energies=ladder.energies[0], coupling_ladder=ladder.g,
                     transverse_bath_couplings=ladder.beta,
                     dephasing_sensitivities=ladder.dw)


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

    @cached_property
    def shift_arrays(self):
        """shifts.ShiftArrays of the ladder at omega_r, which the per-index
        lookups read: built on first use, shared after, so not to be modified."""
        from .shifts import ShiftArrays

        return ShiftArrays.of(self.qubit.ladder.g, self.qubit.ladder.w, self.omega_r)

    @cached_property
    def prefactors(self) -> tuple[np.ndarray, dict[str, dict[str, np.ndarray]]]:
        """rates.prefactor_arrays of the ladder at omega_r, which the per-index
        lookups read: built on first use, shared after, so not to be modified."""
        from .rates import prefactor_arrays

        q = self.qubit.ladder
        return prefactor_arrays(q.g, q.beta, q.w, q.dw, self.omega_r)

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
    omega_r = system.resonator.omega_r
    w, g = system.qubit.ladder.w.tolist(), system.qubit.ladder.g.tolist()
    warnings = [f"transition {k + 1},{k} within 10 g_{k} of the resonator "
                f"(|{wk} - {omega_r}| < {10.0 * gk})"
                for k, (wk, gk) in enumerate(zip(w, g))
                if gk > 0.0 and abs(wk - omega_r) < 10.0 * gk]
    detuning = w[0] - omega_r
    g0 = g[0]
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

    def omega_10_at(self, detuning):
        """The omega_10 that build(detuning=...) expands, per detuning value:
        omega_r + detuning."""
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
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from exc
    except ValueError as exc:  # malformed JSON, or an integer past the digit limit
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return parse_config(data)
