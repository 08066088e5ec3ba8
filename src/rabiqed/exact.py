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

exact_shifts reduces H once.  From _LAST_MERGE_DIM on it runs dstedc's
own steps on the block that holds each row up to its last divide-and-
conquer merge, where each eigenvalue is one dlaed4 root (Gu & Eisenstat,
SIAM J. Matrix Anal. Appl. 16, 172 (1995)), and solves only the roots the
labels read: the roots dlaed3 takes, so the shifts keep eigh's bits.  A
block that merge does not fit is solved by dstedc itself.  Below that
dimension, and where a label is in doubt, the reduction is finished as
diagonalize finishes it, so every AmbiguousLabeling comes from
label_dressed_states.
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

# dsyevd's steps, and the pieces of dstedc's divide and conquer that
# exact_shifts runs itself, with their Fortran arguments before INFO, each
# passed by reference: c a character, i an integer (64-bit in an ILP64
# LAPACK), F a float64 array (a one-entry array for a scalar that the
# routine writes or that is a double), I an int64 array.
_SIGNATURES = {"dsytrd": "ciFiFFFFi", "dstedc": "ciFFFiFiIi", "dormtr": "ccciiFiFFiFi",
               "dlaed0": "iiiFFFiFiFI", "dlaed2": "IiiFFiIFFFFFIIII", "dlaed4": "iiFFFFF"}
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
    """The routines of _SIGNATURES in the LAPACK NumPy's linalg extension
    links, its bundled ILP64 OpenBLAS (symbols scipy_<name>_64_), or None
    where NumPy links another LAPACK."""
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
    0 (an iteration that did not converge) ConvergenceFailure."""
    signature = _SIGNATURES[name]
    info = ctypes.c_int64()
    refs = [_REFERENCES[kind](arg) for kind, arg in zip(signature, args, strict=True)]
    _lapack()[name](*refs, ctypes.byref(info), *[1] * signature.count("c"))
    if info.value < 0:
        raise RuntimeError(f"LAPACK {name} refused its argument {-info.value}")
    if info.value > 0:
        raise ConvergenceFailure("Eigenvalues did not converge")


def diagonalize(h: np.ndarray, rows: Sequence[int] | None = None) -> Spectrum:
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
    column's sign), not bit for bit.  Where NumPy links another LAPACK, and
    for input eigh handles another way (d < 2, not float64, not one square
    matrix), the result is eigh's, sliced.  A LAPACK failure raises
    ConvergenceFailure.
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
    # a copy holds h's lower triangle and zeroes the other, so that a's max
    # norm is dsyevd's
    a = np.triu(h.T)
    return _finish(a, _reduce(a, rows))


def _reduce(a: np.ndarray, rows: np.ndarray) -> tuple:
    """dsyevd's steps before dstedc, in place on a (n x n, C-ordered, so
    LAPACK reads its transpose: its lower triangle as LAPACK's), which is
    left holding the reflectors.  The reduction: the scaling factor sigma
    (None when dsyevd does not scale), the tridiagonal's diagonal d and
    off-diagonal e (e[n-1] = 0), the rows Q^T E of the unit columns E of
    ``rows``, ``rows`` and a workspace of at least 1 + 4n + n^2 entries."""
    n = len(a)
    norm = max(a.max(), -a.min())
    sigma = (_RMIN / norm if 0.0 < norm < _RMIN else
             _RMAX / norm if norm > _RMAX else None)
    # an infinite entry gives sigma = 0 and NaNs, which eigh returns silently
    if sigma is not None:
        with np.errstate(all="ignore"):
            a *= sigma
    d, e, tau = np.empty(n), np.zeros(n), np.empty(n)
    # dsyevd hands dsytrd at least n x NB (NB = 32 in OpenBLAS's LAPACK),
    # which selects the blocked reduction; any smaller lwork selects other
    # blocking and other bits.  dstedc('I') needs 1 + 4n + n^2.
    work = np.empty(max(64 * n, 1 + 4 * n + n * n))
    _call("dsytrd", b"L", n, a, n, d, e, tau, work, 64 * n)
    unit = np.zeros((len(rows), n))
    unit[np.arange(len(rows)), rows] = 1.0
    _call("dormtr", b"L", b"L", b"T", n, len(rows), a, n, tau, unit, n, work, len(work))
    return sigma, d, e, unit, rows, work


def _dstedc(a: np.ndarray, d, e, start: int, work) -> None:
    """dstedc('I') on the tridiagonal of diagonal d and off-diagonal e: its
    eigenvalues over d, its Z into a's square from entry ``start`` on (row
    start + j holds column j of Z, as LAPACK sees a's transpose)."""
    n, m = len(a), len(d)
    _call("dstedc", b"I", m, d, e, a.reshape(-1)[start * (n + 1):], n, work, len(work),
          np.empty(3 + 5 * m, dtype=np.int64), 3 + 5 * m)


def _unscale(values, sigma):
    """Eigenvalues of a scaled matrix scaled back as dsyevd does it."""
    if sigma is None:
        return values
    with np.errstate(all="ignore"):
        return values * (1.0 / sigma)


def _finish(a: np.ndarray, reduction: tuple) -> Spectrum:
    """dsyevd's dstedc('I') on a reduction of a, which then holds Z, and
    the rows asked for: V[rows] = (Q^T E)^T Z."""
    sigma, d, e, unit, rows, work = reduction
    _dstedc(a, d, e, 0, work)
    return Spectrum(_unscale(d, sigma), unit @ a.T, rows)


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

# exact_shifts labels a point at or above this dimension at dstedc's last
# merge (_last_merge_energies), below it from the finished reduction.
# Measured per exact point with one BLAS thread on a 2-vCPU 2.1 GHz Xeon,
# pinned to one CPU, the README ladder at omega_10 = 5.7 GHz, best of 15-40
# calls: the last-merge solve costs +90% at d = 40 and, under rabi, +31% at
# d = 80, +4% at d = 120 and -2% at d = 140 with nq = 10, and -5% to -23% at
# d = 160 (nq 10, 5, 4), -10% to -22% at d = 200 and -24% at d = 600
# (35.0 -> 26.7 ms); under jc, whose tridiagonal splits into blocks, -24%
# at d = 80 and -48% to -55% from d = 120 on (34.4 -> 17.4 ms at d = 600).
_LAST_MERGE_DIM = 160
# dstedc's and dlaed0's SMLSIZ (ILAENV(9)): dstedc solves a block of at
# most this many entries by QL/QR iteration, and dlaed0 halves a larger one
# until no piece is longer.
_SMLSIZ = 25
# DLAMCH('E') and DLAMCH('S'): dstedc's split factor and dlascl's range.
_EPS_HALF = float(np.finfo(float).eps) / 2.0
_TINY = float(np.finfo(float).tiny)
# A label at the last merge reads the eigenvector z_i / delta_i of the
# secular equation; dlaed3 forms w_i / delta_i instead, with the w that
# Gu & Eisenstat recompute from all the roots.  Over 400 random ladders
# (nq 3-10, d = 200-800, omega_10 3-9 GHz, g0 up to 1 GHz, both models)
# the overlaps read here and the ones label_dressed_states reads from
# diagonalize's rows differed by at most 1.8e-15.  A label, there or from a
# block dstedc solves, must clear 1/2 by this margin, far above that, so
# that it is also the argmax above 1/2 + 1e-12 of diagonalize's row.
_MERGE_MARGIN = 1e-6


def _leaves(n: int) -> list[int]:
    """The sizes of the pieces dlaed0 cuts an n-entry block into, in order:
    it halves every piece (the smaller half first) while the last one is
    longer than SMLSIZ."""
    sizes = [n]
    while sizes[-1] > _SMLSIZ:
        sizes = [half for size in sizes for half in (size // 2, size - size // 2)]
    return sizes


def _block_energies(a, d, e, start, vectors, targets, work) -> list:
    """The eigenvalue each row of ``vectors`` (a block's entries of Q^T E)
    overlaps by more than 1/2 + the margin, None for a row that has none.
    The block, of diagonal d and off-diagonal e (read, not written), starts
    at entry ``start`` of the tridiagonal.  If it is longer than SMLSIZ, its
    halves' own dlaed0 would cut them as the block's does and its max norm
    lies in dlascl's range, it is solved at its last merge; otherwise by
    dstedc('I') itself, into a's square for it."""
    m = len(d)
    if m > _SMLSIZ and _leaves(m) == _leaves(m // 2) + _leaves(m - m // 2):
        norm = max(np.abs(d).max(), np.abs(e[:m - 1]).max())
        if _TINY <= norm <= 1.0 / _TINY:
            return _last_merge(a, d, e, start, norm, vectors, targets, work)
    values = d.copy()
    _dstedc(a, values, e.copy(), start, work)
    overlaps = (vectors @ a[start:start + m, start:start + m].T) ** 2
    best = np.argmax(overlaps, axis=1)
    return [values[j] if overlaps[i, j] > 0.5 + _MERGE_MARGIN else None
            for i, j in enumerate(best)]


def _last_merge(a, d, e, start, norm, vectors, targets, work) -> list:
    """_block_energies' solve of a block up to dstedc's last merge.  The
    secular roots are searched from the one nearest each row's ``targets``
    entry (its bare energy) outward.  The halves' eigenvectors and the
    deflated ones are written into a's square of the block, as dstedc
    writes Z."""
    n, m = len(a), len(d)
    n1, n2 = m // 2, m - m // 2
    iwork = np.empty(3 + 5 * m, dtype=np.int64)
    # dstedc scales the block by its max norm with dlascl, which within
    # [DLAMCH('S'), 1 / DLAMCH('S')] is the one multiply by 1 / norm
    values, off = d * (1.0 / norm), e * (1.0 / norm)
    # dlaed0's cut between the halves; each half's dlaed0 makes its own cuts
    values[n1 - 1] -= abs(off[n1 - 1])
    values[n1] -= abs(off[n1 - 1])
    # dstedc starts Z as the identity: off the halves' squares it stays 0
    a[start:start + m, start:start + m] = 0.0
    flat = a.reshape(-1)
    corner = start * (n + 1)
    for first, size in ((0, n1), (n1, n2)):
        _call("dlaed0", 2, n, size, values[first:], off[first:],
              flat[corner + first * (n + 1):], n, work, n, work, iwork)
    # dlaed1's deflation step, with its workspace layout; each half's Q is
    # sorted, so INDXQ is the identity on each
    z, dlamda, w, q2 = work[:m], work[m:2 * m], work[2 * m:3 * m], work[3 * m:]
    z[:n1] = a[start:start + n1, start + n1 - 1]
    z[n1:] = a[start + n1:start + m, start + n1]
    indxq, indx, indxc, indxp, coltyp = iwork[:5 * m].reshape(5, m)
    indxq[:n1], indxq[n1:] = np.arange(1, n1 + 1), np.arange(1, n2 + 1)
    count, rho = np.empty(1, dtype=np.int64), np.array([off[n1 - 1]])
    _call("dlaed2", count, m, n1, values, flat[corner:], n, indxq, rho, z, dlamda, w,
          q2, indx, indxc, indxp, coltyp)
    k = int(count[0])
    # a row's weight on each deflated eigenvector (columns k.. of the
    # block's Z) and its entries p in the secular basis, which dlaed3 forms
    # the other columns in: Q2's type 1-2 columns hold the first n1 rows,
    # its type 2-3 columns the last n2, and INDXC maps the type order to
    # dlamda's
    deflated = (a[start + k:start + m, start:start + m] @ vectors.T) ** 2
    p = np.zeros((k, len(vectors)))
    if k:
        c1, c2, c3 = coltyp[:3]
        upper = q2[:(c1 + c2) * n1].reshape(c1 + c2, n1)
        lower = q2[(c1 + c2) * n1:(c1 + c2) * n1 + (c2 + c3) * n2].reshape(c2 + c3, n2)
        typed = np.zeros_like(p)
        typed[:c1 + c2] = upper @ vectors[:, :n1].T
        typed[c1:] += lower @ vectors[:, n1:].T
        p[indxc[:k] - 1] = typed
    found = []
    for row, target in enumerate(targets):
        found.append(_label_root(k, dlamda, w, rho, p[:, row], deflated[:, row],
                                 values[k:], vectors[row] @ vectors[row], target / norm))
    return [None if value is None else value * norm for value in found]


def _label_root(k, dlamda, w, rho, p, deflated, deflated_values, total, target):
    """The eigenvalue of the last-merge column that a row overlaps by more
    than 1/2 + the margin, or None.  The row has weights ``deflated`` on the
    deflated columns, entries p in the secular basis and weight ``total`` on
    the block; the roots dlaed4 gives (each the value dlaed3 takes from the
    same arguments) are tried from the one nearest ``target`` outward, and
    the search stops once the columns not yet tried cannot hold enough."""
    if len(deflated):
        best = int(np.argmax(deflated))
        if deflated[best] > 0.5 + _MERGE_MARGIN:
            return deflated_values[best]
    left = total - deflated.sum()
    delta, root = np.empty(k), np.empty(1)
    # root j lies between dlamda[j] and dlamda[j + 1]
    j = min(max(int(np.searchsorted(dlamda[:k], target, side="right")) - 1, 0), k - 1)
    below, above = j - 1, j + 1
    while left > 0.5 + _MERGE_MARGIN and j >= 0:
        _call("dlaed4", k, j + 1, dlamda, w, delta, rho, root)
        # for k <= 2, dlaed4 returns the normalized eigenvector in delta
        with np.errstate(divide="ignore", invalid="ignore"):
            vector = delta if k <= 2 else w[:k] / delta
            overlap = (p @ vector) ** 2 / (vector @ vector)
        if overlap > 0.5 + _MERGE_MARGIN:
            return root[0]
        left -= overlap
        if above < k and (below < 0 or dlamda[above] - target <= target - dlamda[below + 1]):
            j, above = above, above + 1
        else:
            j, below = below, below - 1
    return None


def _last_merge_energies(a: np.ndarray, reduction: tuple, targets) -> np.ndarray | None:
    """The eigenvalue each row of a reduction of a labels, eigh's bits;
    None where a label misses 1/2 + the margin, the tridiagonal is not
    finite or a LAPACK call fails.  d, e and unit are only read, so that
    _finish can still take the reduction on.  dstedc splits the tridiagonal
    where |e_i| <= DLAMCH('E') sqrt|d_i| sqrt|d_i+1|; a row's label lies in
    the block that holds more than half of its weight, which
    _block_energies solves, seeking roots near ``targets`` (the rows' bare
    energies)."""
    sigma, d, e, unit, _, work = reduction
    n = len(a)
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        return None
    tiny = _EPS_HALF * np.sqrt(np.abs(d[:-1])) * np.sqrt(np.abs(d[1:]))
    cuts = np.flatnonzero(~(np.abs(e[:-1]) > tiny)) + 1
    starts, stops = np.insert(cuts, 0, 0), np.append(cuts, n)
    weights = np.add.reduceat(unit ** 2, starts, axis=1)
    blocks = np.argmax(weights, axis=1)
    if not np.all(weights[np.arange(len(unit)), blocks] > 0.5 + _MERGE_MARGIN):
        return None
    if sigma is not None:
        targets = targets * sigma
    energies = np.empty(len(unit))
    try:
        for block in sorted(set(blocks.tolist())):  # np.unique would import numpy.ma
            members = np.flatnonzero(blocks == block)
            start, stop = int(starts[block]), int(stops[block])
            found = _block_energies(a, d[start:stop], e[start:stop], start,
                                    unit[members, start:stop], targets[members], work)
            if None in found:
                return None
            energies[members] = found
    except ConvergenceFailure:
        return None
    return _unscale(energies, sigma)


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

    H is built once and reduced once, in place.  From _LAST_MERGE_DIM on,
    _last_merge_energies labels the point from that reduction with the
    eigenvalues diagonalize would give those labels, bit for bit.  Below
    it, and at a point that solve cannot label, the reduction is finished
    as diagonalize finishes it and labeled by label_dressed_states, so
    every error is theirs.  Either way the point holds two d x d arrays.
    """
    h = build_hamiltonian(ladder, omega_r, fock_truncation, model)
    # every entry of H is >= 0 (see build_hamiltonian), so a row sum is its
    # norm; taken before the solve reduces H in place
    bound = 2.0 * len(h) * np.finfo(float).eps * float(h.sum(axis=1).max())
    rows = np.array([k * fock_truncation + n for k, n in _REQUIRED_PAIRS])
    energies = spectrum = None
    if _lapack() is None:
        spectrum = diagonalize(h, rows)
    else:
        # H, exactly symmetric and C-ordered, is its own Fortran transpose;
        # the last merge seeks each label near its bare energy, read first
        targets = h[rows, rows]
        reduction = _reduce(h, rows)
        if len(h) >= _LAST_MERGE_DIM:
            energies = _last_merge_energies(h, reduction, targets)
        if energies is None:
            spectrum = _finish(h, reduction)
    if energies is None:
        labeling = label_dressed_states(spectrum, fock_truncation, required=_REQUIRED_PAIRS)
        energies = [spectrum.eigenvalues[labeling.labels[pair]] for pair in _REQUIRED_PAIRS]
    e00, e01, e10 = energies
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
