"""Golden-rule dissipator tables: second order plus the three fourth-order families.

Second order (independent of the qubit-resonator coupling):

    gamma_down_k = beta_k^2 C_X(+omega_{k+1,k})     D[sigma_{k,k+1}]
    gamma_up_k   = beta_k^2 C_X(-omega_{k+1,k})     D[sigma_{k+1,k}]
    gamma_phi_k  = dw_k^2   C_Z(0)                  D[sigma_{k,k}]
    kappa_minus  = C_R(+omega_r)                    D[a]
    kappa_plus   = C_R(-omega_r)                    D[a+]

Fourth order, with model-dependent dimensionless prefactors:

    Purcell            p_k   C_R(+-omega_{k+1,k})   D[sigma_{k,k+1}], D[sigma_{k+1,k}]
    dressed dephasing  d_k   C_Z(+-(omega_{k+1,k} - omega_r))
                                                    D[sigma_{k,k+1} a+], D[sigma_{k+1,k} a]
                       c_k   C_Z(+-(omega_{k+1,k} + omega_r))
                                                    D[sigma_{k,k+1} a], D[sigma_{k+1,k} a+]
    photon-assisted    a_k   C_X(+-omega_r)         D[sigma_{k,k} a], D[sigma_{k,k} a+]

Full dipole:   p_k = 8 g_k^2 omega_r^2 / (omega_r^2 - omega_{k+1,k}^2)^2
rotating wave: p_k = 2 g_k^2 / (omega_r - omega_{k+1,k})^2

d_k = 2 g_k^2 (dw_k - dw_{k+1})^2 / (omega_r - omega_{k+1,k})^2 for both
models; c_k replaces the denominator by (omega_r + omega_{k+1,k})^2 and
vanishes for the rotating-wave model.  a_k is built from the two
transitions adjacent to level k; out-of-range neighbours contribute zero,
and the cross term is negative (the two paths interfere destructively).

Rates are reported in MHz (spectral weights come out in GHz and are scaled
by 1e3 here); prefactors are dimensionless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import JC, RABI, QubitSpec, SystemSpec, check_model
from .shifts import guard_resonance, padded

SECOND_ORDER = "second_order"
PURCELL = "purcell"
DRESSED_DEPHASING = "dressed_dephasing"
PHOTON_ASSISTED = "photon_assisted"
DRIVEN_EFFECTIVE = "driven_effective"

_PRODUCT_ORIGINS = (DRESSED_DEPHASING, PHOTON_ASSISTED)

_GHZ_TO_MHZ = 1e3


class RateOverflow(OverflowError):
    """A prefactor or rate came out infinite or NaN from finite parameters:
    the couplings, frequencies or noise powers are too large for float64."""


class NegativePhotonNumber(ValueError):
    """Driven-frame photon number must be >= 0."""


@dataclass(frozen=True)
class JumpDescriptor:
    """Symbolic jump operator: optional qubit factor times optional photon factor.

    qubit is None or ("lower", k) for sigma_{k,k+1} = |k><k+1|,
    ("raise", k) for sigma_{k+1,k}, ("diag", k) for sigma_{k,k}.
    photon is None, "annihilate" or "create".
    """

    qubit: tuple[str, int] | None = None
    photon: str | None = None

    def __post_init__(self) -> None:
        if self.qubit is None and self.photon is None:
            raise ValueError("jump descriptor needs at least one factor")
        if self.qubit is not None:
            kind, k = self.qubit
            if kind not in ("lower", "raise", "diag") or k < 0:
                raise ValueError(f"bad qubit factor {self.qubit!r}")
            object.__setattr__(self, "qubit", (kind, int(k)))
        if self.photon not in (None, "annihilate", "create"):
            raise ValueError(f"bad photon factor {self.photon!r}")

    @property
    def label(self) -> str:
        parts = []
        if self.qubit is not None:
            kind, k = self.qubit
            if kind == "lower":
                parts.append(f"sigma({k},{k + 1})")
            elif kind == "raise":
                parts.append(f"sigma({k + 1},{k})")
            else:
                parts.append(f"sigma({k},{k})")
        if self.photon is not None:
            parts.append("a" if self.photon == "annihilate" else "adag")
        return "*".join(parts)


def sigma_lower(k: int) -> JumpDescriptor:
    return JumpDescriptor(qubit=("lower", k))

def sigma_raise(k: int) -> JumpDescriptor:
    return JumpDescriptor(qubit=("raise", k))

def sigma_diag(k: int) -> JumpDescriptor:
    return JumpDescriptor(qubit=("diag", k))


@dataclass(frozen=True)
class DissipatorTerm:
    """One Lindblad dissipator: jump descriptor, rate in MHz, and origin tag."""

    jump: JumpDescriptor
    rate_mhz: float
    origin: str

    def __post_init__(self) -> None:
        if not math.isfinite(self.rate_mhz):
            raise RateOverflow(f"rate of {self.jump.label} is {self.rate_mhz}")
        if self.rate_mhz < 0.0:
            raise ValueError(f"rate must be >= 0, got {self.rate_mhz} ({self.jump.label})")
        if self.jump.qubit is not None and self.jump.photon is not None \
                and self.origin not in _PRODUCT_ORIGINS:
            raise ValueError(f"product jump {self.jump.label} only arises from "
                             f"{_PRODUCT_ORIGINS}, got {self.origin!r}")


def second_order_rates(system: SystemSpec) -> list[DissipatorTerm]:
    """Leading-order dissipator list for a system (both bath directions)."""
    q = system.qubit
    cx = system.bath("X")
    cz = system.bath("Z")
    cr = system.bath("R")
    terms = []
    for k in range(q.num_levels - 1):
        w = q.splitting(k)
        b2 = q.beta(k) ** 2
        terms.append(DissipatorTerm(sigma_lower(k), _GHZ_TO_MHZ * b2 * cx.evaluate(w),
                                    SECOND_ORDER))
        terms.append(DissipatorTerm(sigma_raise(k), _GHZ_TO_MHZ * b2 * cx.evaluate(-w),
                                    SECOND_ORDER))
    cz0 = cz.evaluate(0.0)
    for k in range(q.num_levels):
        terms.append(DissipatorTerm(sigma_diag(k), _GHZ_TO_MHZ * q.dw(k) ** 2 * cz0,
                                    SECOND_ORDER))
    omega_r = system.omega_r
    terms.append(DissipatorTerm(JumpDescriptor(photon="annihilate"),
                                _GHZ_TO_MHZ * cr.evaluate(omega_r), SECOND_ORDER))
    terms.append(DissipatorTerm(JumpDescriptor(photon="create"),
                                _GHZ_TO_MHZ * cr.evaluate(-omega_r), SECOND_ORDER))
    return terms


def _square(x):
    """x ** 2 through libm pow, which rounds as Python's float ** 2 does;
    NumPy's own x ** 2 is x * x and can differ in the last bit."""
    return np.float_power(x, 2.0)


def _level_prefactor(path, cross, g, den):
    """a_k: the path through each adjacent transition with nonzero coupling,
    minus the cross term of the levels 1..N-2 that have two such paths."""
    paths = padded(np.where(g != 0.0, path, 0.0))
    both = (g[1:] != 0.0) & (g[:-1] != 0.0)
    return paths[1:] + paths[:-1] - padded(np.where(both, cross / (den[:-1] * den[1:]), 0.0))


@lru_cache(maxsize=64)
def _prefactors(q: QubitSpec, wr: float) -> tuple[np.ndarray, dict[str, dict[str, np.ndarray]]]:
    """The detunings omega_r - omega_{k+1,k} that the resonance guard reads,
    and per model the fourth-order prefactors as read-only arrays over the
    ladder index: "p", "d" and "c" per transition k = 0..N-2, "a" per level.

    No entry is checked: a resonant or overflowing denominator leaves inf
    or NaN in its own entries only.  Cached, so that the per-index lookups
    below evaluate the arrays of a ladder once.
    """
    g = np.array(q.coupling_ladder)
    beta = np.array(q.transverse_bath_couplings)
    w = np.diff(q.level_energies)
    dw = np.array(q.dephasing_sensitivities)
    with np.errstate(all="ignore"):
        detuning = wr - w
        den = wr * wr - w * w
        # each square is taken once and shared by the prefactors it appears in
        det2, den2, g2, beta2 = _square(detuning), _square(den), _square(g), _square(beta)
        spread = _square(dw[:-1] - dw[1:])
        d = 2.0 * g * g * spread / det2
        rabi = {"p": 8.0 * g * g * wr * wr / den2, "d": d,
                "c": 2.0 * g * g * spread / _square(wr + w),
                "a": _level_prefactor(8.0 * g2 * beta2 * _square(w) / den2,
                                      16.0 * g[1:] * g[:-1] * beta[1:] * beta[:-1]
                                      * w[1:] * w[:-1], g, den)}
        jc = {"p": 2.0 * g * g / det2, "d": d, "c": np.zeros(len(d)),
              "a": _level_prefactor(2.0 * g2 * beta2 / det2,
                                    4.0 * g[1:] * g[:-1] * beta[1:] * beta[:-1], g, detuning)}
    for array in (detuning, *rabi.values(), *jc.values()):
        array.flags.writeable = False
    return detuning, {RABI: rabi, JC: jc}


def _lookup(k: int, system: SystemSpec, model: str, names: tuple[str, ...],
            level: bool = False) -> tuple[float, ...]:
    """Entries k of one model's named prefactor arrays, once the transitions
    they divide by pass the resonance guard: transition k, or for a level
    the adjacent transitions with nonzero coupling.  Raises RateOverflow if
    an entry read is not finite."""
    check_model(model)
    q = system.qubit
    if not 0 <= k <= q.num_levels - (1 if level else 2):
        raise IndexError(f"{'level' if level else 'transition'} index {k} out of range "
                         f"for {q.num_levels} levels")
    detuning, prefactors = _prefactors(q, system.omega_r)
    guard_resonance("omega_r - omega_{k+1,k}", detuning,
                    [j for j in (k, k - 1) if q.g(j) != 0.0] if level else (k,))
    values = tuple(float(prefactors[model][name][k]) for name in names)
    for name, value in zip(names, values):
        if not math.isfinite(value):
            raise RateOverflow(f"{name}_{k} = {value} is not finite")
    return values


def purcell_prefactor(k: int, system: SystemSpec, model: str) -> float:
    """Dimensionless p_k multiplying C_R(+-omega_{k+1,k})."""
    return _lookup(k, system, model, ("p",))[0]


def purcell_rates(k: int, system: SystemSpec, model: str) -> tuple[float, float]:
    """(decay, excitation) Purcell rates in MHz for transition k."""
    p = purcell_prefactor(k, system, model)
    w = system.qubit.splitting(k)
    cr = system.bath("R")
    return (_GHZ_TO_MHZ * p * cr.evaluate(w), _GHZ_TO_MHZ * p * cr.evaluate(-w))


def dressed_dephasing_prefactors(k: int, system: SystemSpec,
                                 model: str) -> tuple[float, float]:
    """(d_k, c_k) for transition k; c_k vanishes for the rotating-wave model."""
    return _lookup(k, system, model, ("d", "c"))


def dressed_dephasing_terms(k: int, system: SystemSpec, model: str) -> list[DissipatorTerm]:
    """The four photon-exchange dephasing dissipators for transition k.

    Rates pair d_k with C_Z evaluated at the difference frequency and c_k
    with C_Z at the sum frequency:

        d_k C_Z(omega_{k+1,k} - omega_r)   D[sigma_{k,k+1} a+]
        d_k C_Z(omega_r - omega_{k+1,k})   D[sigma_{k+1,k} a]
        c_k C_Z(omega_r + omega_{k+1,k})   D[sigma_{k,k+1} a]
        c_k C_Z(-omega_r - omega_{k+1,k})  D[sigma_{k+1,k} a+]
    """
    d, c = dressed_dephasing_prefactors(k, system, model)
    w = system.qubit.splitting(k)
    omega_r = system.omega_r
    cz = system.bath("Z")
    down_plus = JumpDescriptor(qubit=("lower", k), photon="create")
    up_minus = JumpDescriptor(qubit=("raise", k), photon="annihilate")
    down_minus = JumpDescriptor(qubit=("lower", k), photon="annihilate")
    up_plus = JumpDescriptor(qubit=("raise", k), photon="create")
    return [
        DissipatorTerm(down_plus, _GHZ_TO_MHZ * d * cz.evaluate(w - omega_r),
                       DRESSED_DEPHASING),
        DissipatorTerm(up_minus, _GHZ_TO_MHZ * d * cz.evaluate(omega_r - w),
                       DRESSED_DEPHASING),
        DissipatorTerm(down_minus, _GHZ_TO_MHZ * c * cz.evaluate(omega_r + w),
                       DRESSED_DEPHASING),
        DissipatorTerm(up_plus, _GHZ_TO_MHZ * c * cz.evaluate(-omega_r - w),
                       DRESSED_DEPHASING),
    ]


def photon_assisted_prefactor(k: int, system: SystemSpec, model: str) -> float:
    """Dimensionless a_k multiplying C_X(+-omega_r), for qubit level k = 0..N-1."""
    return _lookup(k, system, model, ("a",), level=True)[0]


def photon_assisted_terms(k: int, system: SystemSpec, model: str) -> list[DissipatorTerm]:
    """Photon-assisted dephasing dissipators for level k:

        a_k C_X(+omega_r)  D[sigma_{k,k} a]
        a_k C_X(-omega_r)  D[sigma_{k,k} a+]
    """
    a = photon_assisted_prefactor(k, system, model)
    cx = system.bath("X")
    omega_r = system.omega_r
    minus = JumpDescriptor(qubit=("diag", k), photon="annihilate")
    plus = JumpDescriptor(qubit=("diag", k), photon="create")
    return [
        DissipatorTerm(minus, _GHZ_TO_MHZ * a * cx.evaluate(omega_r), PHOTON_ASSISTED),
        DissipatorTerm(plus, _GHZ_TO_MHZ * a * cx.evaluate(-omega_r), PHOTON_ASSISTED),
    ]


@dataclass(frozen=True)
class RateTable:
    """Eagerly evaluated dissipator lists for one system, both models.

    second_order does not depend on the interaction model; fourth_order
    and prefactors (the read-only arrays p, d, c and a over the ladder
    index) are keyed by "rabi" / "jc".
    """

    second_order: tuple[DissipatorTerm, ...]
    fourth_order: dict[str, tuple[DissipatorTerm, ...]]
    prefactors: dict[str, dict[str, np.ndarray]]

    def fourth(self, model: str) -> tuple[DissipatorTerm, ...]:
        return self.fourth_order[check_model(model)]


def build_rate_table(system: SystemSpec) -> RateTable:
    """Evaluate every rate for all ladder indices and both models.

    The prefactor arrays are evaluated once; every entry is read once, by
    the term that carries it.
    """
    second = tuple(second_order_rates(system))
    fourth: dict[str, tuple[DissipatorTerm, ...]] = {}
    n = system.qubit.num_levels
    for model in (RABI, JC):
        terms: list[DissipatorTerm] = []
        for k in range(n):
            if k <= n - 2:
                down, up = purcell_rates(k, system, model)
                terms.append(DissipatorTerm(sigma_lower(k), down, PURCELL))
                terms.append(DissipatorTerm(sigma_raise(k), up, PURCELL))
                terms.extend(dressed_dephasing_terms(k, system, model))
            terms.extend(photon_assisted_terms(k, system, model))
        fourth[model] = tuple(terms)
    _, prefactors = _prefactors(system.qubit, system.omega_r)
    return RateTable(second_order=second, fourth_order=fourth,
                     prefactors={model: dict(prefactors[model]) for model in (RABI, JC)})


def driven_effective_rates(table: RateTable, n_photons: float,
                           model: str) -> list[DissipatorTerm]:
    """Qubit-only dissipators induced by a coherent drive of |alpha|^2 = n photons.

    Displacing the resonator turns each photon-exchange dissipator
    D[sigma a] / D[sigma a+] into n times the bare qubit dissipator
    D[sigma] (the cross terms trace out over the resonator).  Per
    transition k the decay and excitation channels collect both photon
    directions; per level k the two photon-assisted channels add up to a
    pure dephasing rate:

        gamma_down(k) = n (gamma_down+ + gamma_down-)
        gamma_up(k)   = n (gamma_up-   + gamma_up+)
        gamma_phi(k)  = n (gamma_phi-  + gamma_phi+)

    n = 0 returns an empty list.
    """
    check_model(model)
    if n_photons < 0.0:
        raise NegativePhotonNumber(f"photon number must be >= 0, got {n_photons}")
    if n_photons == 0.0:
        return []
    totals: dict[tuple[str, int], float] = {}
    for term in table.fourth_order[model]:
        if term.jump.photon is not None and term.jump.qubit is not None:
            totals[term.jump.qubit] = totals.get(term.jump.qubit, 0.0) + term.rate_mhz
    # decay, then excitation, then dephasing, each with k ascending
    kinds = ("lower", "raise", "diag")
    return [DissipatorTerm(JumpDescriptor(qubit=qubit), n_photons * totals[qubit],
                           DRIVEN_EFFECTIVE)
            for qubit in sorted(totals, key=lambda q: (kinds.index(q[0]), q[1]))]
