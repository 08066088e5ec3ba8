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
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import JC, RABI, SystemSpec, check_model

# Denominators smaller than this (GHz) are treated as resonant.
DEFAULT_TOL_RES = 1e-6


class ResonantDivergence(ArithmeticError):
    """A shift denominator fell inside the resonance tolerance."""

    def __init__(self, k: int, which: str, value: float):
        self.k = k
        self.which = which
        self.value = value
        super().__init__(f"transition {k}: |{which}| = {abs(value):.3e} GHz is "
                         f"inside the resonance tolerance")


def _ladder(system: SystemSpec, k: int) -> tuple[float, float]:
    """(g_k, omega_{k+1,k}) with the zero-outside-range convention."""
    q = system.qubit
    if 0 <= k <= q.num_levels - 2:
        return q.coupling_ladder[k], q.splitting(k)
    return 0.0, 0.0


def chi(k: int, system: SystemSpec, tol_res: float = DEFAULT_TOL_RES) -> float:
    """Co-rotating dispersive shift chi_k; zero for out-of-range k."""
    g, w = _ladder(system, k)
    if g == 0.0 and w == 0.0:
        return 0.0
    d = w - system.omega_r
    if abs(d) < tol_res:
        raise ResonantDivergence(k, "omega_{k+1,k} - omega_r", d)
    return g * g / d

def xi(k: int, system: SystemSpec, tol_res: float = DEFAULT_TOL_RES) -> float:
    """Counter-rotating (Bloch-Siegert) shift xi_k; zero for out-of-range k."""
    g, w = _ladder(system, k)
    if g == 0.0 and w == 0.0:
        return 0.0
    s = w + system.omega_r
    if abs(s) < tol_res:
        raise ResonantDivergence(k, "omega_{k+1,k} + omega_r", s)
    return g * g / s

def chi_tilde(k: int, system: SystemSpec, tol_res: float = DEFAULT_TOL_RES) -> float:
    """Total dispersive shift chi~_k = chi_k + xi_k (evaluated in closed form)."""
    g, w = _ladder(system, k)
    if g == 0.0 and w == 0.0:
        return 0.0
    d = w - system.omega_r
    s = w + system.omega_r
    if abs(d) < tol_res:
        raise ResonantDivergence(k, "omega_{k+1,k} - omega_r", d)
    if abs(s) < tol_res:
        raise ResonantDivergence(k, "omega_{k+1,k} + omega_r", s)
    return 2.0 * g * g * w / (d * s)


def _h2_table(model: str, chis: tuple[float, ...], xis: tuple[float, ...],
              tildes: tuple[float, ...]) -> tuple[tuple[float, float], ...]:
    """Per-level (photon-number coefficient, static offset) from per-transition shifts."""

    def at(values: tuple[float, ...], k: int) -> float:
        return values[k] if 0 <= k < len(values) else 0.0

    out = []
    for k in range(len(chis) + 1):
        if model == RABI:
            n_coeff = at(tildes, k - 1) - at(tildes, k)
            static = at(chis, k - 1) - at(xis, k)
        else:
            n_coeff = at(chis, k - 1) - at(chis, k)
            static = at(chis, k - 1)
        out.append((n_coeff, static))
    return tuple(out)


def h2_coefficients(system: SystemSpec, model: str,
                    tol_res: float = DEFAULT_TOL_RES) -> tuple[tuple[float, float], ...]:
    """Per-level (photon-number coefficient, static offset) of the diagonal
    second-order Hamiltonian, for qubit levels k = 0..N-1."""
    check_model(model)
    return shift_report(system, tol_res).h2(model)


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


def shift_report(system: SystemSpec, tol_res: float = DEFAULT_TOL_RES) -> ShiftReport:
    """Evaluate every second-order shift observable for a system."""
    n = system.qubit.num_levels
    chis = tuple(chi(k, system, tol_res) for k in range(n - 1))
    xis = tuple(xi(k, system, tol_res) for k in range(n - 1))
    tildes = tuple(chi_tilde(k, system, tol_res) for k in range(n - 1))
    h2r = _h2_table(RABI, chis, xis, tildes)
    h2j = _h2_table(JC, chis, xis, tildes)
    # Level differences of the diagonal corrections: the pull is the photon
    # coefficient at k = 0, the qubit shift the static difference 1 - 0.
    return ShiftReport(
        chi=chis, xi=xis, chi_tilde=tildes,
        resonator_pull_rabi=h2r[0][0],
        resonator_pull_jc=h2j[0][0],
        qubit_shift_rabi=h2r[1][1] - h2r[0][1],
        qubit_shift_jc=h2j[1][1] - h2j[0][1],
        h2_rabi=h2r, h2_jc=h2j)
