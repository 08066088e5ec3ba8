"""Exact diagonalization on the truncated product space, plus coupling fits.

The Hamiltonian (GHz, ordinary frequencies) is

    H = omega_r a+ a + sum_k omega_k sigma_kk + H_int,

with H_int = sum_k g_k (sigma_{k,k+1} + sigma_{k+1,k})(a+ + a) for the
full-dipole model and sum_k g_k (sigma_{k,k+1} a+ + sigma_{k+1,k} a) for
the rotating-wave model.  It is written by index into one d x d array
from a ladder record's omega_k and g_k, omega_r and Fock truncation M: no SystemSpec.
Dressed eigenstates are labeled by maximum overlap with the bare product
basis: each bare state takes the eigenvector of its largest squared
overlap when that exceeds 1/2, so a labeling reads only the rows of the
states it labels.  The dispersive observables are read off the labeled
energies:

    resonator pull = [E(0,1) - E(0,0)] - omega_r
    qubit shift    = [E(1,0) - E(0,0)] - omega_10

The eigensolve runs the steps of LAPACK's dsyevd, the routine behind
np.linalg.eigh, one by one in the LAPACK that NumPy links: scaling,
tridiagonal reduction and the tridiagonal divide and conquer give
eigenvalues equal to eigh's bit for bit.  dsyevd's last step turns all d^2
eigenvector entries back into the product basis; diagonalize
back-transforms only the rows asked for, and exact_shifts asks for the
three rows of (0,0), (0,1) and (1,0).
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .contract import (OBSERVABLES, QUBIT_SHIFT, RESONATOR_PULL, AmbiguousLabeling,
                       ConvergenceFailure, DimensionOverflow, LadderOverflow,
                       NoPhysicalCoupling, PrecisionLoss)
from .model import RABI, Ladder, check_model, transmon_ladder
from .shifts import ShiftArrays, pull_and_qubit_shift, resonant

DIM_CAP = 4096


def build_hamiltonian(ladder: Ladder, omega_r: float, fock_truncation: int,
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
    energies, g = ladder.energies, ladder.g
    n_levels = len(energies)
    m = fock_truncation
    d = n_levels * m
    if d > DIM_CAP:
        raise DimensionOverflow(f"product dimension {d} exceeds cap {DIM_CAP}")
    # No entry's magnitude exceeds these two bounds, whatever the signs (for a
    # valid ladder they are E_{N-1} + omega_r (m-1) and max g_k sqrt(m-1));
    # Python floats overflow to inf without a warning.
    largest = (float(np.max(np.abs(energies))) + abs(omega_r) * (m - 1),
               float(np.max(np.abs(g))) * math.sqrt(m - 1))
    if not all(map(math.isfinite, largest)):
        raise LadderOverflow(f"an entry of the {n_levels} x {m} Hamiltonian "
                             f"overflows float64")
    h = np.zeros((d, d))
    np.fill_diagonal(h, (energies[:, None] + omega_r * np.arange(m)).ravel())
    flat = np.arange(d)
    k, n = np.divmod(flat, m)
    # flat index k * m + n: (k+1, n-1) sits m - 1 further on, (k+1, n+1) m + 1
    co = flat[(k < n_levels - 1) & (n > 0)]
    h[co, co + m - 1] = h[co + m - 1, co] = g[k[co]] * np.sqrt(n[co])
    if model == RABI:
        counter = flat[(k < n_levels - 1) & (n < m - 1)]
        h[counter, counter + m + 1] = h[counter + m + 1, counter] = (
            g[k[counter]] * np.sqrt(n[counter] + 1))
    return h


class Spectrum(NamedTuple):
    """A diagonalize result: the eigenvalues, ascending, and the rows asked
    for of the matrix whose columns are the eigenvectors: eigenvectors[i]
    is its row rows[i]."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    rows: np.ndarray


# The machine constants of dsyevd's scaling test: DLAMCH('S') and
# DLAMCH('P') are float64's smallest normal number and eps.
_SMLNUM = float(np.finfo(float).tiny / np.finfo(float).eps)
_RMIN, _RMAX = math.sqrt(_SMLNUM), math.sqrt(1.0 / _SMLNUM)

# dsyevd's steps and their Fortran arguments before INFO, each passed by
# reference: c a character, i an integer (64-bit in an ILP64 LAPACK), F a
# float64 array, I an int64 array.
_SIGNATURES = {"dsytrd": "ciFiFFFFi", "dstedc": "ciFFFiFiIi", "dormtr": "ccciiFiFFiFi"}
_ARGTYPES = {"c": ctypes.c_char_p, "i": ctypes.POINTER(ctypes.c_int64),
             "F": ctypes.POINTER(ctypes.c_double), "I": ctypes.POINTER(ctypes.c_int64)}


def _array_reference(ctype, dtype):
    def reference(array: np.ndarray):
        if array.dtype != dtype:
            raise TypeError(f"LAPACK needs a {np.dtype(dtype)} array, got {array.dtype}")
        # from_buffer refuses a buffer that is not C-contiguous and writable
        return ctypes.byref(ctype.from_buffer(array))
    return reference


_REFERENCES = {"c": lambda char: char,
               "i": lambda value: ctypes.byref(ctypes.c_int64(value)),
               "F": _array_reference(ctypes.c_double, np.float64),
               "I": _array_reference(ctypes.c_int64, np.int64)}


@functools.cache
def _lapack() -> dict | None:
    """dsyevd's steps in the LAPACK NumPy's linalg extension links, its
    bundled ILP64 OpenBLAS (symbols scipy_<name>_64_), or None where NumPy
    links another LAPACK."""
    try:
        library = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        routines = {name: getattr(library, f"scipy_{name}_64_") for name in _SIGNATURES}
    except (AttributeError, OSError):
        return None
    for name, routine in routines.items():
        signature = _SIGNATURES[name]
        # INFO, then one hidden length per character argument
        routine.argtypes = ([_ARGTYPES[kind] for kind in signature + "i"]
                            + [ctypes.c_size_t] * signature.count("c"))
        routine.restype = None
    return routines


def _call(name: str, *args) -> None:
    """Call one LAPACK step with the arguments its signature lists, each by
    reference (a C-contiguous array by its data, which Fortran reads as the
    array's transpose), then INFO and the hidden character lengths.  INFO <
    0 (an argument refused) is a fault here and raises RuntimeError; INFO >
    0 (dstedc's only failure) ConvergenceFailure."""
    signature = _SIGNATURES[name]
    info = ctypes.c_int64()
    refs = [_REFERENCES[kind](arg) for kind, arg in zip(signature, args, strict=True)]
    _lapack()[name](*refs, ctypes.byref(info), *[1] * signature.count("c"))
    if info.value < 0:
        raise RuntimeError(f"LAPACK {name} refused its argument {-info.value}")
    if info.value > 0:
        raise ConvergenceFailure("Eigenvalues did not converge")


def diagonalize(h: np.ndarray, rows: Sequence[int] | None = None, *,
                overwrite: bool = False) -> Spectrum:
    """Dense symmetric eigensolve: the eigenvalues of np.linalg.eigh(h), bit
    for bit, and the rows ``rows`` (default all) of its eigenvector matrix.

    h is real symmetric; like eigh, only its lower triangle is read.  The
    eigenvalues come from dsyevd's own steps: its max-norm scaling test
    (dlascl, which for a factor sigma from 1 is the one multiply a *= sigma,
    undone on the eigenvalues), dsytrd('L') with a workspace that selects
    dsyevd's blocked reduction, and dstedc('I'), which also yields the
    eigenvectors Z of the tridiagonal matrix.  dsyevd then forms all of
    Q Z with dormtr; here dormtr forms only Q^T E for the unit columns E of
    the rows asked for, before dstedc writes Z over the reduced matrix, and
    V[rows] = (Q^T E)^T Z.  Those rows equal eigh's to rounding (up to each
    column's sign), not bit for bit.  With ``overwrite`` a C-contiguous h,
    which must then be exactly symmetric, is reduced in place (its buffer
    is its own Fortran transpose) and left holding Z: row j of h is column
    j of Z.  Where NumPy links another LAPACK, and for input eigh handles
    another way (d < 2, not float64, not one square matrix), the result is
    eigh's, sliced.  A LAPACK failure raises ConvergenceFailure.
    """
    h = np.asarray(h)
    n = h.shape[-1] if h.ndim else 0
    rows = np.arange(n) if rows is None else np.asarray(rows, dtype=np.intp)
    if _lapack() is None or h.dtype != np.float64 or h.shape != (n, n) or n < 2:
        try:
            eigenvalues, eigenvectors = np.linalg.eigh(h)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceFailure(str(exc)) from exc
        return Spectrum(eigenvalues, eigenvectors[..., rows, :], rows)
    # Every 2-D array below is C-ordered, so LAPACK sees its transpose: a
    # holds h's lower triangle (a copy zeroes the other, so a's max norm is
    # dsyevd's), then the reflectors, last read by dormtr, then Z: column j
    # of Z is row j of a, and row j of unit is the j-th unit column.
    a = h if overwrite and h.flags.c_contiguous else np.triu(h.T)
    norm = max(a.max(), -a.min())
    sigma = (_RMIN / norm if 0.0 < norm < _RMIN else
             _RMAX / norm if norm > _RMAX else None)
    # an infinite entry gives sigma = 0 and NaNs, which eigh returns silently
    if sigma is not None:
        with np.errstate(all="ignore"):
            a *= sigma
    d, e, tau = np.empty(n), np.empty(n), np.empty(n)
    # dsyevd hands dsytrd at least n x NB (NB = 32 in OpenBLAS's LAPACK),
    # which selects the blocked reduction; any smaller lwork selects other
    # blocking and other bits.  dstedc('I') needs 1 + 4n + n^2.
    work = np.empty(max(64 * n, 1 + 4 * n + n * n))
    _call("dsytrd", b"L", n, a, n, d, e, tau, work, 64 * n)
    unit = np.zeros((len(rows), n))
    unit[np.arange(len(rows)), rows] = 1.0
    _call("dormtr", b"L", b"L", b"T", n, len(rows), a, n, tau, unit, n, work, len(work))
    _call("dstedc", b"I", n, d, e, a, n, work, len(work),
          np.empty(3 + 5 * n, dtype=np.int64), 3 + 5 * n)
    if sigma is not None:
        with np.errstate(all="ignore"):
            d *= 1.0 / sigma
    return Spectrum(d, unit @ a.T, rows)


@dataclass(frozen=True)
class Labeling:
    """Partial map from bare (k, n) pairs to eigenvector indices.

    Each labeled pair maps to the eigenvector of its largest squared
    overlap, which exceeds 1/2 + 1e-12; rows and columns of the orthogonal
    eigenvector matrix are unit vectors, so no two pairs share one.
    overlaps holds each pair's largest overlap, labeled or not.
    """

    labels: dict[tuple[int, int], int]
    overlaps: dict[tuple[int, int], float]


def label_dressed_states(spectrum: Spectrum, fock_truncation: int,
                         required: Iterable[tuple[int, int]] | None = None) -> Labeling:
    """Maximum-overlap assignment of bare product labels, from the
    eigenvector rows of a diagonalize result.

    The product space is N x M with M = fock_truncation and N = d // M; a
    dimension d that M does not divide raises ValueError.  Each pair of
    ``required`` (default every pair) is labeled by the argmax of its row:
    the eigenvector of its largest squared overlap, when that overlap
    exceeds 1/2 + 1e-12.  The margin leaves an exact 50/50 hybridization,
    which floating point puts at 0.5 +- a few ulp, unlabeled.  Rows and
    columns of the orthogonal eigenvector matrix are unit vectors, so no
    bare state overlaps two eigenvectors, and no eigenvector two bare
    states, by more than 1/2: each label depends only on its own row, and
    no two coincide.  A required pair outside the product space, or one
    whose row the spectrum does not hold, raises ValueError; the first
    required pair left unlabeled raises AmbiguousLabeling.
    """
    m = fock_truncation
    d = len(spectrum.eigenvalues)
    n_levels, rest = divmod(d, m)
    if rest:
        raise ValueError(f"dimension {d} is not a multiple of the Fock truncation {m}")
    if required is None:
        pairs = [divmod(index, m) for index in range(d)]
    else:
        pairs = list(required)
        for k, n in pairs:
            if not (0 <= k < n_levels and 0 <= n < m):
                raise ValueError(f"required pair {(k, n)} lies outside the "
                                 f"{n_levels} x {m} product space")
    flat = np.array([k * m + n for k, n in pairs], dtype=np.intp)
    held = np.full(d, -1)
    held[spectrum.rows] = np.arange(len(spectrum.rows))
    missing = flat[held[flat] < 0]
    if len(missing):
        raise ValueError(f"the spectrum holds no eigenvector row of bare state "
                         f"{divmod(int(missing[0]), m)}")
    weights = spectrum.eigenvectors[held[flat]] ** 2
    best = np.argmax(weights, axis=1)
    largest = weights[np.arange(len(flat)), best]
    overlaps = dict(zip(pairs, largest.tolist()))
    labels = {pair: int(column) for pair, column, overlap
              in zip(pairs, best, largest) if overlap > 0.5 + 1e-12}
    if required is not None:
        for pair in pairs:
            if pair not in labels:
                raise AmbiguousLabeling(pair, overlaps[pair])
    return Labeling(labels=labels, overlaps=overlaps)


@dataclass(frozen=True)
class ExactShifts:
    resonator_pull: float
    qubit_shift: float


_REQUIRED_PAIRS = ((0, 0), (0, 1), (1, 0))


def exact_shifts(ladder: Ladder, omega_r: float, fock_truncation: int,
                 model: str) -> ExactShifts:
    """Dispersive observables of a ladder from labeled exact eigenenergies.

    The solve forms only the three eigenvector rows the labeling reads, and
    its eigenvalues are eigh's.  eigh is backward stable: each eigenvalue it
    returns is off by at most about d eps ||H||, with ||H|| the largest
    absolute row sum.  A shift is the difference of two eigenvalues, so it
    is trusted to within 2 d eps ||H||; a nonzero shift smaller than that
    is rounding noise and raises PrecisionLoss.  A shift of exactly 0
    (g0 = 0) is kept.
    """
    h = build_hamiltonian(ladder, omega_r, fock_truncation, model)
    # every entry of H is >= 0 (see build_hamiltonian), so a row sum is its
    # norm; taken before the solve reduces H in place
    bound = 2.0 * len(h) * np.finfo(float).eps * float(h.sum(axis=1).max())
    rows = [k * fock_truncation + n for k, n in _REQUIRED_PAIRS]
    spectrum = diagonalize(h, rows, overwrite=True)
    labeling = label_dressed_states(spectrum, fock_truncation, required=_REQUIRED_PAIRS)
    e = spectrum.eigenvalues
    e00 = e[labeling.labels[(0, 0)]]
    e01 = e[labeling.labels[(0, 1)]]
    e10 = e[labeling.labels[(1, 0)]]
    shifts = ExactShifts(
        resonator_pull=float(e01 - e00 - omega_r),
        qubit_shift=float(e10 - e00 - ladder.w[0]))
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
    ladder = transmon_ladder(omega_r + np.asarray(detunings, dtype=float),
                             anharmonicity, g0, num_levels)
    arrays = ShiftArrays.of(ladder.g, ladder.w, omega_r)
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
