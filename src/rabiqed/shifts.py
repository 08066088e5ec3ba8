"""Second-order dispersive corrections for full-dipole and rotating-wave couplings.

For each ladder transition k the three elementary shift parameters are

    chi_k       = g_k^2 / (omega_{k+1,k} - omega_r)      (co-rotating)
    xi_k        = g_k^2 / (omega_{k+1,k} + omega_r)      (counter-rotating)
    chi-tilde_k = 2 g_k^2 omega_{k+1,k} / (omega_{k+1,k}^2 - omega_r^2)
                = chi_k + xi_k.

The diagonal second-order Hamiltonian is, per qubit level k,

    full dipole (rabi):  (chi~_{k-1} - chi~_k) n + (chi_{k-1} - xi_k)
    rotating wave (jc):  (chi_{k-1}  - chi_k)  n +  chi_{k-1}

with the convention that out-of-range ladder indices contribute zero.
All inputs and outputs are in GHz.

Every formula is evaluated as a NumPy array over k (the last axis), with
no check and no warning; a resonant denominator gives inf or NaN in its
own entry only.  Whoever reads an entry guards its denominators first.
A system builds its arrays once (SystemSpec.shift_arrays); chi, xi and
chi_tilde index them and guard only their own transition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .contract import ResonantDivergence
from .model import JC, RABI, SystemSpec, check_model

# Denominators smaller than this (GHz) are treated as resonant.
TOL_RES = 1e-6

CO_ROTATING = "omega_{k+1,k} - omega_r"
COUNTER_ROTATING = "omega_{k+1,k} + omega_r"


def padded(values: np.ndarray) -> np.ndarray:
    """values with a zero at each end of the last (ladder) axis.

    Index k + 1 holds entry k, so the neighbours k = -1 and k = len(values)
    just past either end read zero and drop out of sums over adjacent entries.
    """
    zero = np.zeros(values.shape[:-1] + (1,))
    return np.concatenate([zero, values, zero], axis=-1)


def resonant(denominators):
    """True where a denominator falls inside the resonance tolerance."""
    return np.abs(denominators) < TOL_RES


def guard_resonance(which: str, denominators: np.ndarray, ks=None) -> None:
    """Raise ResonantDivergence at the first k in ks (by default every k)
    whose denominator is resonant; only the entries ks are tested."""
    hits = (np.flatnonzero(resonant(denominators)) if ks is None
            else [k for k in ks if resonant(denominators[k])])
    if len(hits):
        raise ResonantDivergence(int(hits[0]), which, float(denominators[hits[0]]))


class ShiftArrays(NamedTuple):
    """chi, xi, chi~ and their co- and counter-rotating denominators as arrays
    over the transition index k (the last axis; leading axes broadcast)."""

    chi: np.ndarray
    xi: np.ndarray
    chi_tilde: np.ndarray
    co: np.ndarray
    counter: np.ndarray

    @classmethod
    def of(cls, g, w, omega_r: float) -> "ShiftArrays":
        """From the couplings g_k and splittings w = omega_{k+1,k}."""
        with np.errstate(all="ignore"):
            co = w - omega_r
            counter = w + omega_r
            return cls(g * g / co, g * g / counter, 2.0 * g * g * w / (co * counter),
                       co, counter)

    def guard(self, ks=None, co: bool = True, counter: bool = True) -> "ShiftArrays":
        """self, once the co-rotating and then the counter-rotating
        denominators of the transitions ks (every one by default) pass
        guard_resonance."""
        if co:
            guard_resonance(CO_ROTATING, self.co, ks)
        if counter:
            guard_resonance(COUNTER_ROTATING, self.counter, ks)
        return self

    def h2(self, model: str) -> tuple[np.ndarray, np.ndarray]:
        """Per-level photon-number coefficients and static offsets of one
        model, each of shape (..., N)."""
        c, x, t = padded(self.chi), padded(self.xi), padded(self.chi_tilde)
        with np.errstate(all="ignore"):
            if model == RABI:
                return t[..., :-1] - t[..., 1:], c[..., :-1] - x[..., 1:]
            return c[..., :-1] - c[..., 1:], c[..., :-1]


def pull_and_qubit_shift(n_coeff: np.ndarray, static: np.ndarray) -> tuple[np.ndarray, ...]:
    """Level differences of the diagonal corrections: the pull is the photon
    coefficient at k = 0, the qubit shift the static difference 1 - 0."""
    with np.errstate(all="ignore"):
        return n_coeff[..., 0], static[..., 1] - static[..., 0]


def _transition(k: int, system: SystemSpec, **guards) -> ShiftArrays:
    """The entries of transition k, once its denominators pass the
    resonance guard (see ShiftArrays.guard); zero outside the ladder."""
    if not 0 <= k <= system.qubit.num_levels - 2:
        return ShiftArrays(0.0, 0.0, 0.0, 0.0, 0.0)
    arrays = system.shift_arrays.guard((k,), **guards)
    return ShiftArrays._make(float(values[k]) for values in arrays)


def chi(k: int, system: SystemSpec) -> float:
    """Co-rotating dispersive shift chi_k; zero for out-of-range k."""
    return _transition(k, system, counter=False).chi


def xi(k: int, system: SystemSpec) -> float:
    """Counter-rotating (Bloch-Siegert) shift xi_k; zero for out-of-range k."""
    return _transition(k, system, co=False).xi


def chi_tilde(k: int, system: SystemSpec) -> float:
    """Total dispersive shift chi~_k = chi_k + xi_k (evaluated in closed form)."""
    return _transition(k, system).chi_tilde


def h2_coefficients(system: SystemSpec, model: str) -> tuple[tuple[float, float], ...]:
    """Per-level (photon-number coefficient, static offset) of the diagonal
    second-order Hamiltonian, for qubit levels k = 0..N-1.  Every transition
    is guarded, as in shift_report."""
    n_coeff, static = system.shift_arrays.guard().h2(check_model(model))
    return tuple(zip(n_coeff.tolist(), static.tolist()))


@dataclass(frozen=True)
class ShiftReport:
    """All second-order observables for one system.

    chi / xi / chi_tilde are per-transition tuples of length N-1.
    resonator_pull_* is the shift of the one-photon energy with the qubit
    in its ground state; qubit_shift_* is the shift of the 0-1 transition
    at zero photons.  h2_* are the per-level tuples from h2_coefficients.
    """

    chi: tuple[float, ...]
    xi: tuple[float, ...]
    chi_tilde: tuple[float, ...]
    resonator_pull_rabi: float
    resonator_pull_jc: float
    qubit_shift_rabi: float
    qubit_shift_jc: float
    h2_rabi: tuple[tuple[float, float], ...]
    h2_jc: tuple[tuple[float, float], ...]

    def resonator_pull(self, model: str) -> float:
        return self.resonator_pull_rabi if check_model(model) == RABI else self.resonator_pull_jc

    def qubit_shift(self, model: str) -> float:
        return self.qubit_shift_rabi if check_model(model) == RABI else self.qubit_shift_jc

    def h2(self, model: str) -> tuple[tuple[float, float], ...]:
        return self.h2_rabi if check_model(model) == RABI else self.h2_jc


def shift_report(system: SystemSpec) -> ShiftReport:
    """Evaluate every second-order shift observable for a system.

    Every transition is read, so every transition is guarded: the first
    co-rotating resonance raises, then the first counter-rotating one.
    """
    arrays = system.shift_arrays.guard()
    h2r, h2j = arrays.h2(RABI), arrays.h2(JC)
    pull_r, shift_r = pull_and_qubit_shift(*h2r)
    pull_j, shift_j = pull_and_qubit_shift(*h2j)
    return ShiftReport(
        chi=tuple(arrays.chi.tolist()), xi=tuple(arrays.xi.tolist()),
        chi_tilde=tuple(arrays.chi_tilde.tolist()),
        resonator_pull_rabi=float(pull_r), resonator_pull_jc=float(pull_j),
        qubit_shift_rabi=float(shift_r), qubit_shift_jc=float(shift_j),
        h2_rabi=tuple(zip(*(v.tolist() for v in h2r))),
        h2_jc=tuple(zip(*(v.tolist() for v in h2j))))
