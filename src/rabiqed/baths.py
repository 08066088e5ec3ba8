"""Noise power spectra of thermal environments.

Each bath is characterized by a spectral density J(omega >= 0) and a
temperature T.  The quantity entering golden-rule rates is the asymmetric
noise power

    C(omega) = (1/2) * J(|omega|) * (coth(|omega| / 2T) + sign(omega)),

which obeys detailed balance C(omega) / C(-omega) = exp(omega / T) by
construction.  Positive frequencies correspond to emission into the bath,
negative ones to absorption from it.

Units: hbar = k_B = 1.  Frequencies and temperatures are ordinary (/2pi)
frequencies in GHz; spectral weights then come out in GHz as well.  The
conversion to MHz happens only where rates are reported.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, replace

import numpy as np

from .contract import InvalidSpec

OHMIC = "ohmic"
ONE_OVER_F = "one_over_f"
FLAT = "flat"

_MODELS = (OHMIC, ONE_OVER_F, FLAT)

# exp(x) is representable in float64 up to x ~ 709.78
_EXP_MAX = 709.0
# the least positive normal float64; below it a product loses bits
_NORMAL_MIN = sys.float_info.min


def _spec_number(owner: str, name: str, value, count: bool = False,
                 infinite: bool = False) -> float | int:
    """value as a float (an int for a count), or InvalidSpec naming owner.name if it is
    not a real number, is a bool, NaN or infinite (unless allowed), or is a count not whole."""
    if type(value) is float and math.isfinite(value) and not count:
        return value  # the common case, in one test: a QubitSpec holds 4N values
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidSpec(f"{owner}.{name} must be a number, got {value!r}")
    if count and isinstance(value, numbers.Integral):
        return int(value)  # any size: a count makes no float round trip
    try:
        number = float(value)
    except OverflowError:  # an int beyond float64
        number = math.inf if value > 0 else -math.inf
    if math.isnan(number) or (math.isinf(number) and not infinite):
        raise InvalidSpec(f"{owner}.{name} must be finite, got {value}")
    if count and not number.is_integer():
        raise InvalidSpec(f"{owner}.{name} must be a whole number, got {value}")
    return int(number) if count else number


class NegativeFrequency(ValueError):
    """Spectral density requested at omega < 0."""


@dataclass(frozen=True)
class SpectralFunction:
    """A bath spectral density plus temperature.

    Parameters are interpreted according to ``model``:

    - ``ohmic``:       J(w) = eta * w * exp(-w / cutoff)
    - ``one_over_f``:  J(w) = amplitude / max(w, ir_floor)
    - ``flat``:        J(w) = level

    ``temperature`` is the bath temperature in GHz; 0 means a zero-point
    bath that can only absorb energy.  Each parameter is a finite number
    (no bool or string), stored as a float; a +inf cutoff is "no cutoff".
    """

    model: str
    temperature: float = 0.0
    eta: float = 0.0
    cutoff: float = math.inf
    amplitude: float = 0.0
    ir_floor: float = 0.0
    level: float = 0.0

    def __post_init__(self) -> None:
        if self.model not in _MODELS:
            raise InvalidSpec(f"unknown bath model {self.model!r}; expected one of {_MODELS}")
        for name in ("temperature", "eta", "cutoff", "amplitude", "ir_floor", "level"):
            value = _spec_number("SpectralFunction", name, getattr(self, name),
                                 infinite=name == "cutoff")
            object.__setattr__(self, name, value)
        for name in ("temperature", "eta", "amplitude", "level"):
            if getattr(self, name) < 0.0:
                raise InvalidSpec(f"{name} must be >= 0, got {getattr(self, name)}")
        if not self.cutoff > 0.0:
            raise InvalidSpec(f"cutoff must be > 0, got {self.cutoff}")
        if self.model == ONE_OVER_F and not self.ir_floor > 0.0:  # the others never read it
            raise InvalidSpec(f"ir_floor must be > 0, got {self.ir_floor}")

    @classmethod
    def ohmic(cls, eta: float, cutoff_ghz: float = math.inf,
              temperature_ghz: float = 0.0) -> "SpectralFunction":
        return cls(model=OHMIC, eta=eta, cutoff=cutoff_ghz, temperature=temperature_ghz)

    @classmethod
    def one_over_f(cls, amplitude: float, ir_floor_ghz: float,
                   temperature_ghz: float = 0.0) -> "SpectralFunction":
        return cls(model=ONE_OVER_F, amplitude=amplitude, ir_floor=ir_floor_ghz,
                   temperature=temperature_ghz)

    @classmethod
    def flat(cls, level: float, temperature_ghz: float = 0.0) -> "SpectralFunction":
        return cls(model=FLAT, level=level, temperature=temperature_ghz)

    @classmethod
    def silent(cls, temperature_ghz: float = 0.0) -> "SpectralFunction":
        """A bath with zero spectral weight everywhere."""
        return cls(model=FLAT, level=0.0, temperature=temperature_ghz)

    def with_temperature(self, temperature_ghz: float) -> "SpectralFunction":
        return replace(self, temperature=temperature_ghz)

    def spectral_density(self, omega: float) -> float:
        """J(omega) for omega >= 0.  Raises NegativeFrequency otherwise."""
        if omega < 0.0:
            raise NegativeFrequency(f"spectral density defined for omega >= 0, got {omega}")
        if self.model == OHMIC:
            if math.isinf(self.cutoff):
                return self.eta * omega
            return self.eta * omega * math.exp(-omega / self.cutoff)
        if self.model == ONE_OVER_F:
            return self.amplitude / max(omega, self.ir_floor)
        return self.level

    def dc_limit(self) -> float:
        """The stored value of C(0).

        Ohmic baths have the genuine analytic limit eta * T.  For flat and
        1/f densities the coth factor diverges as |omega| -> 0, so a finite
        plateau is adopted instead: the flat model stores C(0) := level, and
        the 1/f model freezes the divergence at the infrared floor,
        C(0) := amplitude * T / ir_floor**2.
        """
        if self.model == OHMIC:
            return self.eta * self.temperature
        if self.model == ONE_OVER_F:
            with np.errstate(all="ignore"):  # an ir_floor**2 out of range: inf or 0
                return float(np.float64(self.amplitude * self.temperature)
                             / np.float_power(self.ir_floor, 2.0))
        return self.level

    def evaluate(self, omega: float) -> float:
        """Noise power C(omega); omega may have either sign.

        Implemented through the Bose factor, C(omega > 0) = J * (nbar + 1)
        and C(omega < 0) = J * nbar, which keeps detailed balance exact at
        machine precision and avoids cancellation in coth(x) - 1.
        """
        if omega == 0.0:
            return self.dc_limit()
        j = self.spectral_density(abs(omega))
        if self.temperature == 0.0:
            return j if omega > 0.0 else 0.0
        x = abs(omega) / self.temperature
        if self.model == OHMIC and min(j, abs(omega)) < _NORMAL_MIN:
            # J(|omega|) has lost bits once it or |omega| is subnormal, so C
            # is written without it: J / |omega| times T x / (1 - e^-x), where
            # T x / (1 - e^-x) = |omega| (nbar + 1) tends to T as x -> 0
            ratio = 1.0 if x == 0.0 else x / -math.expm1(-x)
            emission = self.eta * math.exp(-abs(omega) / self.cutoff) * (self.temperature * ratio)
            return emission if omega > 0.0 else emission * math.exp(-x)
        if x == 0.0:  # |omega| / T underflows: the high-temperature limit
            return j * self.temperature / abs(omega)
        if omega > 0.0:
            return j / -math.expm1(-x)
        if x > _EXP_MAX:
            # exp(x) would overflow; the true value J * exp(-x) underflows
            return j * math.exp(-x)
        return j / math.expm1(x)


# Per bath model, each config key it takes and the SpectralFunction field it sets.
_CONFIG_FIELDS = {
    OHMIC: {"eta": "eta", "cutoff_ghz": "cutoff"},
    ONE_OVER_F: {"amplitude": "amplitude", "ir_floor_ghz": "ir_floor"},
    FLAT: {"level": "level"},
}


def bath_from_config(entry: dict, default_temperature: float = 0.0) -> SpectralFunction:
    """Build a SpectralFunction from a flat config mapping.

    Expected keys: "model" plus that model's own parameters ("eta" and
    "cutoff_ghz" for ohmic, "amplitude" and "ir_floor_ghz" for one_over_f,
    "level" for flat), each read from _CONFIG_FIELDS; another model's key
    is refused.  "temperature_ghz" overrides the global default.  The values
    go as given to the SpectralFunction constructor, which checks them.
    """
    if not isinstance(entry, dict):
        raise ValueError(f"bath entry must be an object, got {type(entry).__name__}")
    model = entry.get("model")
    if model not in _MODELS:
        raise ValueError(f"unknown bath model {model!r}; expected one of {_MODELS}")
    keys = _CONFIG_FIELDS[model]
    unknown = set(entry) - {"model", "temperature_ghz", *keys}
    if unknown:
        raise ValueError(f"unknown {model} bath keys: {sorted(unknown)}")
    fields = {keys[key]: entry[key] for key in keys if key in entry}
    return SpectralFunction(model, entry.get("temperature_ghz", default_temperature), **fields)
