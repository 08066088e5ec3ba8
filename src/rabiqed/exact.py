"""Exact diagonalization on the truncated product space, plus coupling fits.

The Hamiltonian (GHz, ordinary frequencies) is

    H = omega_r a+ a + sum_k omega_k sigma_kk + H_int,

with H_int = sum_k g_k (sigma_{k,k+1} + sigma_{k+1,k})(a+ + a) for the
full-dipole model and sum_k g_k (sigma_{k,k+1} a+ + sigma_{k+1,k} a) for
the rotating-wave model.  It is written by index into one d x d array
from the ladder alone (omega_k, g_k, omega_r, Fock truncation M): no SystemSpec.
Dressed eigenstates are labeled by maximum overlap with the bare product
basis, greedily in order of increasing bare energy.  A claim depends only
on the bare states before it, so a labeling that needs only some pairs
stops once it has processed them: exact_shifts needs (0,0), (0,1) and
(1,0), so it stops at whichever of (0,1) and (1,0) lies higher.  The
dispersive observables are read off the labeled energies:

    resonator pull = [E(0,1) - E(0,0)] - omega_r
    qubit shift    = [E(1,0) - E(0,0)] - omega_10
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .contract import (OBSERVABLES, QUBIT_SHIFT, RESONATOR_PULL, AmbiguousLabeling,
                       ConvergenceFailure, DimensionOverflow, LadderOverflow,
                       NoPhysicalCoupling, PrecisionLoss)
from .model import RABI, check_model, transmon_ladder
from .shifts import ShiftArrays, pull_and_qubit_shift, resonant

DIM_CAP = 4096


def build_hamiltonian(energies, couplings, omega_r: float, fock_truncation: int,
                      model: str) -> np.ndarray:
    """Dense, exactly symmetric Hamiltonian of a ladder and a resonator mode.

    One zeroed d x d array, written by index: the bare energy of (k, n) on
    the diagonal, g_k sqrt(n) between (k, n) and (k+1, n-1) in both models,
    and g_k sqrt(n+1) between (k, n) and (k+1, n+1) in the full-dipole model
    only.  Each entry is the one product and sum that the Kronecker form
    E (x) 1 + 1 (x) omega_r N + H_int gives it, so the matrix is the same to
    the bit.  A product dimension above DIM_CAP, read at each call, raises
    DimensionOverflow, and an entry beyond float64 LadderOverflow, before
    anything is allocated.
    """
    check_model(model)
    n_levels = len(energies)
    m = fock_truncation
    d = n_levels * m
    if d > DIM_CAP:
        raise DimensionOverflow(f"product dimension {d} exceeds cap {DIM_CAP}")
    # No entry's magnitude exceeds these two bounds, whatever the signs (for a
    # valid ladder they are E_{N-1} + omega_r (m-1) and max g_k sqrt(m-1));
    # Python floats overflow to inf without a warning.
    largest = (float(np.max(np.abs(energies))) + abs(omega_r) * (m - 1),
               float(np.max(np.abs(couplings))) * math.sqrt(m - 1))
    if not all(map(math.isfinite, largest)):
        raise LadderOverflow(f"an entry of the {n_levels} x {m} Hamiltonian "
                             f"overflows float64")
    h = np.zeros((d, d))
    np.fill_diagonal(h, _bare_energies(energies, omega_r, m))
    flat = np.arange(d)
    k, n = np.divmod(flat, m)
    g = np.asarray(couplings)
    # flat index k * m + n: (k+1, n-1) sits m - 1 further on, (k+1, n+1) m + 1
    co = flat[(k < n_levels - 1) & (n > 0)]
    h[co, co + m - 1] = h[co + m - 1, co] = g[k[co]] * np.sqrt(n[co])
    if model == RABI:
        counter = flat[(k < n_levels - 1) & (n < m - 1)]
        h[counter, counter + m + 1] = h[counter + m + 1, counter] = (
            g[k[counter]] * np.sqrt(n[counter] + 1))
    return h


def _bare_energies(energies, omega_r: float, fock_truncation: int) -> np.ndarray:
    """E_k + omega_r n of every product state, in flat (k, n) order."""
    return (np.asarray(energies)[:, None] + omega_r * np.arange(fock_truncation)).ravel()


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
    best weight is still recorded in overlaps for diagnostics.  A labeling
    made for a ``required`` set covers the bare states up to the last
    required one in bare-energy order, and no others.
    """

    labels: dict[tuple[int, int], int]
    overlaps: dict[tuple[int, int], float]


def label_dressed_states(spectrum: Spectrum, energies, omega_r: float, fock_truncation: int,
                         required: Iterable[tuple[int, int]] | None = None) -> Labeling:
    """Greedy maximum-overlap assignment of bare product labels.

    Bare states are processed in order of increasing bare energy (ties by
    lexicographic (k, n)), each claiming its best-overlap eigenvector among
    those still unclaimed.  A claim needs squared overlap strictly above
    1/2; anything at or below stays unlabeled.  A claim depends only on
    the states processed before it, so when ``required`` is given the pass
    stops once every required pair has been processed: their labels are
    those of the full pass.  A required pair outside the product space
    raises ValueError before labeling starts; one that ends up unlabeled
    raises AmbiguousLabeling.
    """
    n_levels = len(energies)
    m = fock_truncation
    pending = None
    if required is not None:
        required = tuple(required)
        for k, n in required:
            if not (0 <= k < n_levels and 0 <= n < m):
                raise ValueError(f"required pair {(k, n)} lies outside the "
                                 f"{n_levels} x {m} product space")
        pending = set(required)
    vectors = spectrum.eigenvectors
    unclaimed = np.ones(n_levels * m, dtype=bool)
    labels: dict[tuple[int, int], int] = {}
    overlaps: dict[tuple[int, int], float] = {}
    for index in np.argsort(_bare_energies(energies, omega_r, m), kind="stable"):
        if pending is not None and not pending:
            break
        pair = divmod(int(index), m)
        candidates = np.flatnonzero(unclaimed)
        weights = np.abs(vectors[index, candidates]) ** 2
        best = int(np.argmax(weights))
        overlap = float(weights[best])
        overlaps[pair] = overlap
        # a strictly-greater-than-half claim; exact 50/50 hybridization is
        # ambiguous, and floating point puts it at 0.5 +- a few ulp
        if overlap > 0.5 + 1e-12:
            labels[pair] = int(candidates[best])
            unclaimed[candidates[best]] = False
        if pending is not None:
            pending.discard(pair)
    for pair in required or ():
        if pair not in labels:
            raise AmbiguousLabeling(pair, overlaps[pair])
    return Labeling(labels=labels, overlaps=overlaps)


@dataclass(frozen=True)
class ExactShifts:
    resonator_pull: float
    qubit_shift: float


_REQUIRED_PAIRS = ((0, 0), (0, 1), (1, 0))


def exact_shifts(energies, couplings, omega_r: float, fock_truncation: int,
                 model: str) -> ExactShifts:
    """Dispersive observables of a ladder from labeled exact eigenenergies.

    eigh is backward stable: each eigenvalue it returns is off by at most
    about d eps ||H||, with ||H|| the largest absolute row sum.  A shift is
    the difference of two eigenvalues, so it is trusted to within
    2 d eps ||H||; a nonzero shift smaller than that is rounding noise and
    raises PrecisionLoss.  A shift of exactly 0 (g0 = 0) is kept.
    """
    h = build_hamiltonian(energies, couplings, omega_r, fock_truncation, model)
    spectrum = diagonalize(h)
    labeling = label_dressed_states(spectrum, energies, omega_r, fock_truncation,
                                    required=_REQUIRED_PAIRS)
    e = spectrum.eigenvalues
    e00 = e[labeling.labels[(0, 0)]]
    e01 = e[labeling.labels[(0, 1)]]
    e10 = e[labeling.labels[(1, 0)]]
    shifts = ExactShifts(
        resonator_pull=float(e01 - e00 - omega_r),
        qubit_shift=float(e10 - e00 - (energies[1] - energies[0])))
    # every entry of H is >= 0 (see build_hamiltonian), so a row sum is its norm
    bound = 2.0 * len(h) * np.finfo(float).eps * float(h.sum(axis=1).max())
    for observable, value in zip(OBSERVABLES, (shifts.resonator_pull, shifts.qubit_shift)):
        if value != 0.0 and abs(value) < bound:
            raise PrecisionLoss(observable, value, bound)
    return shifts


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
    with np.errstate(over="ignore"):  # a sum beyond float64 is inf
        return ((g2[:, None] * s - y) ** 2).sum(axis=1)


def fit_g0(data: Sequence[tuple[float, float]], model: str, observable: str, *,
           omega_r: float, anharmonicity: float, num_levels: int) -> FitResult:
    """Least-squares fit of the ladder coupling g0 to observed shifts.

    ``data`` holds (detuning, observed shift) pairs in GHz.  The predictions
    are g0^2 s_i, so the residual sum S is minimized in closed form by
    u = g0^2 = sum s_i y_i / sum s_i^2.  The quoted standard error is
    sqrt(2 var / S''), with var = S_min / (n - 1) and the exact curvature
    S'' = 8 u sum s_i^2 at the minimum.  Raises NoPhysicalCoupling when u
    is not positive and finite, or when S_min or the standard error is not
    finite (observed shifts so large that the squared residuals overflow).
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
    with np.errstate(over="ignore"):  # an overflow is refused below
        s_min = float(np.sum((u * s - y) ** 2))
    curvature = 8.0 * u * norm
    stderr = math.sqrt(2.0 * s_min / (len(s) - 1) / curvature)
    if not (math.isfinite(s_min) and math.isfinite(stderr)):
        raise NoPhysicalCoupling(f"residual sum {s_min:.6g} GHz^2 or standard error "
                                 f"{stderr:.6g} GHz is not finite")
    return FitResult(g0_hat=math.sqrt(u), stderr=stderr, residual_sum=s_min,
                     n_points=len(s), model=model, observable=observable)
