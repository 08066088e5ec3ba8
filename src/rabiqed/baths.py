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
from dataclasses import dataclass, replace

import numpy as np

OHMIC = "ohmic"
ONE_OVER_F = "one_over_f"
FLAT = "flat"

_MODELS = (OHMIC, ONE_OVER_F, FLAT)

# exp(x) is representable in float64 up to x ~ 709.78
_EXP_MAX = 709.0


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
    bath that can only absorb energy.
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
            raise ValueError(f"unknown bath model {self.model!r}; expected one of {_MODELS}")
        for name in ("temperature", "eta", "cutoff", "amplitude", "ir_floor", "level"):
            value = getattr(self, name)
            # an infinite cutoff is the documented "no cutoff"
            if math.isnan(value) or (math.isinf(value) and name != "cutoff"):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.temperature >= 0.0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")
        if self.model == OHMIC:
            if self.eta < 0.0:
                raise ValueError(f"eta must be >= 0, got {self.eta}")
            if not self.cutoff > 0.0:
                raise ValueError(f"cutoff must be > 0, got {self.cutoff}")
        elif self.model == ONE_OVER_F:
            if self.amplitude < 0.0:
                raise ValueError(f"amplitude must be >= 0, got {self.amplitude}")
            if not self.ir_floor > 0.0:
                raise ValueError(f"ir_floor must be > 0, got {self.ir_floor}")
        elif self.level < 0.0:
            raise ValueError(f"level must be >= 0, got {self.level}")

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
        if omega > 0.0:
            return j / -math.expm1(-x)
        if x > _EXP_MAX:
            # exp(x) would overflow; the true value J * exp(-x) underflows
            return j * math.exp(-x)
        return j / math.expm1(x)


def bath_from_config(entry: dict, default_temperature: float = 0.0) -> SpectralFunction:
    """Build a SpectralFunction from a flat config mapping.

    Expected keys: "model" plus the model's parameters ("eta" and
    "cutoff_ghz" for ohmic, "amplitude" and "ir_floor_ghz" for one_over_f,
    "level" for flat).  "temperature_ghz" overrides the global default.
    """
    if not isinstance(entry, dict):
        raise ValueError(f"bath entry must be an object, got {type(entry).__name__}")
    known = {"model", "eta", "cutoff_ghz", "amplitude", "ir_floor_ghz", "level",
             "temperature_ghz"}
    unknown = set(entry) - known
    if unknown:
        raise ValueError(f"unknown bath keys: {sorted(unknown)}")
    model = entry.get("model")
    temperature = float(entry.get("temperature_ghz", default_temperature))
    if model == OHMIC:
        return SpectralFunction.ohmic(
            eta=float(entry.get("eta", 0.0)),
            cutoff_ghz=float(entry.get("cutoff_ghz", math.inf)),
            temperature_ghz=temperature)
    if model == ONE_OVER_F:
        if "ir_floor_ghz" not in entry:
            raise ValueError("one_over_f bath requires ir_floor_ghz")
        return SpectralFunction.one_over_f(
            amplitude=float(entry.get("amplitude", 0.0)),
            ir_floor_ghz=float(entry["ir_floor_ghz"]),
            temperature_ghz=temperature)
    if model == FLAT:
        return SpectralFunction.flat(
            level=float(entry.get("level", 0.0)),
            temperature_ghz=temperature)
    raise ValueError(f"unknown bath model {model!r}; expected one of {_MODELS}")
