"""Exact diagonalization on the truncated product space, plus coupling fits.

The Hamiltonian (GHz, ordinary frequencies) is

    H = omega_r a+ a + sum_k omega_k sigma_kk + H_int,

with H_int = sum_k g_k (sigma_{k,k+1} + sigma_{k+1,k})(a+ + a) for the
full-dipole model and sum_k g_k (sigma_{k,k+1} a+ + sigma_{k+1,k} a) for
the rotating-wave model.  Dressed eigenstates are labeled by maximum
overlap with the bare product basis, greedily in order of increasing bare
energy, and the dispersive observables are read off the labeled energies:

    resonator pull = [E(0,1) - E(0,0)] - omega_r
    qubit shift    = [E(1,0) - E(0,0)] - omega_10
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .model import RABI, SystemSpec, check_model, transmon_ladder
from .operators import ProductSpace, annihilator, number_operator, qubit_lower
from .shifts import ShiftArrays, pull_and_qubit_shift, resonant

DIM_CAP = 4096

RESONATOR_PULL = "resonator_pull"
QUBIT_SHIFT = "qubit_shift"
OBSERVABLES = (RESONATOR_PULL, QUBIT_SHIFT)


class DimensionOverflow(ValueError):
    """Requested product space exceeds the dense-solver cap."""


class ConvergenceFailure(RuntimeError):
    """The eigensolver failed to converge."""


class AmbiguousLabeling(RuntimeError):
    """No eigenvector overlaps the requested bare state by more than 1/2."""

    def __init__(self, pair: tuple[int, int], overlap: float):
        self.pair = pair
        self.overlap = overlap
        super().__init__(f"bare state {pair} has best available overlap "
                         f"{overlap:.4f} <= 0.5; dressed labeling breaks down here")

    def __reduce__(self):
        return type(self), (self.pair, self.overlap)


class NoPhysicalCoupling(RuntimeError):
    """The least-squares g0^2 is not positive and finite: no physical coupling fits."""


def build_hamiltonian(system: SystemSpec, model: str | None = None,
                      dim_cap: int = DIM_CAP) -> np.ndarray:
    """Dense, exactly symmetric Hamiltonian on the product space."""
    if model is None:
        model = system.interaction_model
    check_model(model)
    q = system.qubit
    n_levels = q.num_levels
    m = system.resonator.fock_truncation
    if n_levels * m > dim_cap:
        raise DimensionOverflow(f"product dimension {n_levels * m} exceeds cap {dim_cap}")
    a = annihilator(m)
    h = np.kron(np.diag(q.level_energies), np.eye(m))
    h += np.kron(np.eye(n_levels), system.omega_r * number_operator(m))
    lower = sum(q.coupling_ladder[k] * qubit_lower(k, n_levels)
                for k in range(n_levels - 1))
    if model == RABI:
        h += np.kron(lower + lower.T, a + a.T)
    else:
        coupl = np.kron(lower, a.T)
        h += coupl + coupl.T
    return h


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (ascending) and eigenvectors (columns) of a Hamiltonian."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def diagonalize(h: np.ndarray) -> Spectrum:
    """Dense symmetric eigensolve; raises ConvergenceFailure on LAPACK failure."""
    try:
        vals, vecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    return Spectrum(eigenvalues=vals, eigenvectors=vecs)


@dataclass(frozen=True)
class Labeling:
    """Partial map from bare (k, n) pairs to eigenvector indices.

    Pairs whose best available overlap is <= 1/2 stay unassigned; their
    best weight is still recorded in overlaps for diagnostics.
    """

    labels: dict[tuple[int, int], int]
    overlaps: dict[tuple[int, int], float]


def label_dressed_states(spectrum: Spectrum, system: SystemSpec,
                         required: Iterable[tuple[int, int]] | None = None) -> Labeling:
    """Greedy maximum-overlap assignment of bare product labels.

    Bare states are processed in order of increasing bare energy (ties by
    lexicographic (k, n)), each claiming its best-overlap eigenvector among
    those still unclaimed.  A claim needs squared overlap strictly above
    1/2; anything at or below stays unlabeled.  If a pair listed
    in ``required`` ends up unlabeled, AmbiguousLabeling is raised.
    """
    q = system.qubit
    m = system.resonator.fock_truncation
    space = ProductSpace(q.num_levels, m)
    weights = np.abs(spectrum.eigenvectors) ** 2
    order = sorted(space.pairs(),
                   key=lambda kn: (q.level_energies[kn[0]] + kn[1] * system.omega_r, kn))
    unclaimed = np.ones(space.dimension, dtype=bool)
    labels: dict[tuple[int, int], int] = {}
    overlaps: dict[tuple[int, int], float] = {}
    for k, n in order:
        row = weights[space.index(k, n)]
        candidates = np.where(unclaimed)[0]
        best = candidates[np.argmax(row[candidates])]
        overlap = float(row[best])
        overlaps[(k, n)] = overlap
        # a strictly-greater-than-half claim; exact 50/50 hybridization is
        # ambiguous, and floating point puts it at 0.5 +- a few ulp
        if overlap > 0.5 + 1e-12:
            labels[(k, n)] = int(best)
            unclaimed[best] = False
    if required is not None:
        for pair in required:
            if pair not in labels:
                raise AmbiguousLabeling(pair, overlaps.get(pair, 0.0))
    return Labeling(labels=labels, overlaps=overlaps)


@dataclass(frozen=True)
class ExactShifts:
    resonator_pull: float
    qubit_shift: float


_REQUIRED_PAIRS = ((0, 0), (0, 1), (1, 0))


def exact_shifts(system: SystemSpec, model: str | None = None) -> ExactShifts:
    """Dispersive observables from labeled exact eigenenergies."""
    h = build_hamiltonian(system, model)
    spectrum = diagonalize(h)
    labeling = label_dressed_states(spectrum, system, required=_REQUIRED_PAIRS)
    e = spectrum.eigenvalues
    e00 = e[labeling.labels[(0, 0)]]
    e01 = e[labeling.labels[(0, 1)]]
    e10 = e[labeling.labels[(1, 0)]]
    return ExactShifts(
        resonator_pull=float(e01 - e00 - system.omega_r),
        qubit_shift=float(e10 - e00 - system.qubit.splitting(0)))


def _transmon_shifts(detunings, g0: float, model: str, observable: str, *,
                     omega_r: float, anharmonicity: float,
                     num_levels: int) -> tuple[np.ndarray, ShiftArrays]:
    """Second-order predictions at every detuning, one expression over
    points x transitions, with the shift arrays whose denominators decide
    which points diverge."""
    if observable not in OBSERVABLES:
        raise ValueError(f"observable must be one of {OBSERVABLES}, got {observable!r}")
    check_model(model)
    energies, couplings = transmon_ladder(omega_r + np.asarray(detunings, dtype=float),
                                          anharmonicity, g0, num_levels)
    arrays = ShiftArrays.of(couplings, np.diff(energies, axis=-1), omega_r)
    pull, qubit_shift = pull_and_qubit_shift(*arrays.h2(model))
    return (pull if observable == RESONATOR_PULL else qubit_shift), arrays


def analytic_shift(detuning: float, g0: float, model: str, observable: str, *,
                   omega_r: float, anharmonicity: float, num_levels: int) -> float:
    """Second-order shift prediction for a transmon ladder at one detuning."""
    shift, arrays = _transmon_shifts(detuning, g0, model, observable, omega_r=omega_r,
                                     anharmonicity=anharmonicity, num_levels=num_levels)
    ShiftArrays._make(values[0] for values in arrays).guard()
    return float(shift[0])


@dataclass(frozen=True)
class FitResult:
    g0_hat: float
    stderr: float
    residual_sum: float
    n_points: int
    model: str
    observable: str


def _shift_basis(data, model: str, observable: str, *, omega_r: float,
                 anharmonicity: float, num_levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit-coupling predictions s_i and observations y_i of the usable points.

    Every second-order shift is g_k^2 times a function of the frequencies,
    and g_k = sqrt(k+1) g0, so the prediction at coupling g0 is g0^2 s_i.
    The resonant denominators depend only on the frequencies, so a point
    that diverges here diverges for every g0 (and both models); it is dropped.
    """
    pairs = np.asarray(data, dtype=float).reshape(-1, 2)
    s, arrays = _transmon_shifts(pairs[:, 0], 1.0, model, observable, omega_r=omega_r,
                                 anharmonicity=anharmonicity, num_levels=num_levels)
    usable = ~np.any(resonant(arrays.co) | resonant(arrays.counter), axis=-1)
    return s[usable], pairs[usable, 1]


def fit_residual_curve(data: Sequence[tuple[float, float]], model: str,
                       observable: str, *, omega_r: float, anharmonicity: float,
                       num_levels: int, grid: Sequence[float]) -> np.ndarray:
    """Residual sum of the g0 fit evaluated on an explicit g0 grid."""
    s, y = _shift_basis(data, model, observable, omega_r=omega_r,
                        anharmonicity=anharmonicity, num_levels=num_levels)
    if not len(s):
        raise ValueError("no usable data points")
    g2 = np.asarray(grid, dtype=float) ** 2
    return ((g2[:, None] * s - y) ** 2).sum(axis=1)


def fit_g0(data: Sequence[tuple[float, float]], model: str, observable: str, *,
           omega_r: float, anharmonicity: float, num_levels: int) -> FitResult:
    """Least-squares fit of the ladder coupling g0 to observed shifts.

    ``data`` holds (detuning, observed shift) pairs in GHz.  The predictions
    are g0^2 s_i, so the residual sum S is minimized in closed form by
    u = g0^2 = sum s_i y_i / sum s_i^2.  The quoted standard error is
    sqrt(2 var / S''), with var = S_min / (n - 1) and the exact curvature
    S'' = 8 u sum s_i^2 at the minimum.  Raises NoPhysicalCoupling when u
    is not positive and finite.
    """
    s, y = _shift_basis(data, model, observable, omega_r=omega_r,
                        anharmonicity=anharmonicity, num_levels=num_levels)
    if len(s) < 3:
        raise ValueError(f"need at least 3 usable data points, got {len(s)}")
    norm = float(s @ s)
    u = float(s @ y) / norm if norm > 0.0 else math.nan
    if not (math.isfinite(u) and u > 0.0):
        raise NoPhysicalCoupling(f"least-squares g0^2 = {u:.6g} GHz^2 is not "
                                 f"positive and finite")
    s_min = float(np.sum((u * s - y) ** 2))
    curvature = 8.0 * u * norm
    stderr = math.sqrt(2.0 * s_min / (len(s) - 1) / curvature)
    return FitResult(g0_hat=math.sqrt(u), stderr=stderr, residual_sum=s_min,
                     n_points=len(s), model=model, observable=observable)
