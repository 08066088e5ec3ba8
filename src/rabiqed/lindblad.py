"""Lindblad generators, time evolution, steady states, and the drive identity.

A generator built here acts on density matrices in units of 1/ns: stored
frequencies are ordinary (/2pi) GHz and stored rates are MHz, so
_build_liouvillian multiplies the Hamiltonian by 2 pi and each rate by
2 pi * 1e-3.  Time arguments are in ns throughout.

Two assembly modes are supported:

- ``dressed_analytic``: diagonal Hamiltonian (bare energies plus second-order
  diagonal corrections) and the second- and fourth-order dissipators.
- ``bare_plus_interaction``: the full interaction Hamiltonian with the
  second-order dissipators only; used to cross-check the dressed picture
  against real-time dynamics.
A coherent drive of n photons (assemble's photons) adds the drive-induced
qubit dissipators in either mode.  Either way each jump is realized once,
as its closed-form nonzero entries (operators.jump_entries), never as a
d x d matrix.

A generator with a population sector (every dressed_analytic one; see
_jump_maps) is evolved and solved for its steady state with NumPy alone,
from its jump maps; its steady state is nonnegative by construction, so
only a residual check guards it.  steady_state refuses any other generator
(NoPopulationSector).  A Trajectory keeps the reached entries of the
row-major vec(rho) and is the one place that reads states or their
diagonals back from them.  SciPy is imported only for the sparse
Liouvillian of a generator without a population sector, and for
expm_multiply where evolve steps one interval at a time or reaches a first
sample time after 0.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, NamedTuple

import numpy as np

from .contract import (DegenerateNullSpace, MemoryBudgetExceeded, PropagationFailure,
                       TruncationTooSmall)
from .model import SystemSpec, check_model
from .operators import DimensionMismatch, ProductSpace, _Entries, jump_entries, jump_matrix
from .rates import (DissipatorTerm, JumpDescriptor, build_rate_table, driven_effective_rates,
                    second_order_rates)

if TYPE_CHECKING:
    import scipy.sparse as sp

TWO_PI = 2.0 * math.pi
_RATE_TO_INV_NS = TWO_PI * 1e-3  # MHz -> angular rate in 1/ns

DRESSED_ANALYTIC = "dressed_analytic"
BARE_PLUS_INTERACTION = "bare_plus_interaction"
MODES = (DRESSED_ANALYTIC, BARE_PLUS_INTERACTION)

class NegativeRate(ValueError):
    """A dissipator was handed a negative rate."""


class NoPopulationSector(ValueError):
    """steady_state was handed a generator without a population sector."""


# The most bytes that the dense Hamiltonian and jumps of an assembled generator,
# or the recorded entries of one evolution, may take.  The jumps are held as
# entries, so the dense estimate stands in for the solvers' d^2 work.
MEMORY_BUDGET_BYTES = 2 ** 31


def require_memory(nbytes: int, what: str) -> None:
    """Raise MemoryBudgetExceeded if nbytes exceeds MEMORY_BUDGET_BYTES."""
    if nbytes > MEMORY_BUDGET_BYTES:
        raise MemoryBudgetExceeded(f"{what} would take {nbytes / 2 ** 20:.0f} MB, above "
                                   f"the {MEMORY_BUDGET_BYTES / 2 ** 20:.0f} MB budget")


def _build_liouvillian(h: np.ndarray, dissipators) -> sp.csr_matrix:
    """The generator as a CSR matrix on row-major vectorized density matrices.

    Effective-Hamiltonian form: with K = sum gamma L^dag L and
    H_eff = 2 pi H - (i/2) K, row-major vec(A rho B) = (A (x) B^T) vec(rho)
    gives L = -i (H_eff (x) I - I (x) conj(H_eff)) + sum gamma L (x) conj(L).
    K is one sparse product of the stacked jumps, [gamma_m L_m]^dag [L_m];
    the entries of every term go into one coordinate list, and one
    conversion to CSR sums those that coincide.  SciPy is imported here,
    not at module load, so that only the callers that need this matrix
    (apply(), and evolve on a generator without a population sector) pay
    for it.
    """
    import scipy.sparse as sp

    d = h.shape[0]
    rows, cols, values = [], [], []
    stacked_rows, stacked_cols, stacked, weighted = [], [], [], []
    for (_, r, c, v), rate in dissipators:
        gamma = _RATE_TO_INV_NS * rate
        rows.append(np.add.outer(r * d, r).ravel())
        cols.append(np.add.outer(c * d, c).ravel())
        values.append(gamma * np.multiply.outer(v, v.conj()).ravel())
        stacked_rows.append(len(stacked) * d + r)
        stacked_cols.append(c)
        stacked.append(v)
        weighted.append(gamma * v)
    h_eff = sp.csr_array(TWO_PI * h, dtype=complex)
    if stacked:
        # K = [gamma_m L_m]^dag [L_m], the jumps stacked one above the other
        shape = (len(stacked) * d, d)
        where = (np.concatenate(stacked_rows), np.concatenate(stacked_cols))
        jumps = sp.csr_array((np.concatenate(stacked), where), shape=shape)
        scaled = sp.csr_array((np.concatenate(weighted), where), shape=shape)
        h_eff = h_eff - 0.5j * (scaled.conj().T @ jumps)
    h_eff = h_eff.tocoo()
    eye = np.arange(d)
    a, b, v = h_eff.row, h_eff.col, h_eff.data
    rows += [np.add.outer(a * d, eye).ravel(), np.add.outer(eye * d, a).ravel()]
    cols += [np.add.outer(b * d, eye).ravel(), np.add.outer(eye * d, b).ravel()]
    values += [np.repeat(-1j * v, d), np.tile(1j * v.conj(), d)]
    liouville = sp.csr_matrix((np.concatenate(values),
                               (np.concatenate(rows), np.concatenate(cols))),
                              shape=(d * d, d * d))
    liouville.eliminate_zeros()
    return liouville


class _JumpMaps(NamedTuple):
    """A generator in population-sector form (see _jump_maps).

    Jump m carries |j> to magnitudes[m, j] |targets[m, j]>; targets[m, j]
    is -1 and magnitudes[m, j] is 0 where it annihilates |j>.
    """

    energies: np.ndarray    # (d,) the diagonal of H, GHz
    targets: np.ndarray     # (M, d) int
    magnitudes: np.ndarray  # (M, d) > 0 where targets >= 0
    gammas: np.ndarray      # (M,) angular rates, 1/ns


def _jump_maps(h: np.ndarray, dissipators) -> _JumpMaps | None:
    """The population-sector form of a generator, or None if it has none.

    It has one when H is diagonal and real, and every jump (each has a
    nonzero rate; see LindbladGenerator) has real nonnegative entries with
    at most one nonzero per row and per column: every jump_entries does, so
    every dressed_analytic generator has one.  Such a jump maps |i><j| to a
    multiple of |t(i)><t(j)| with t one-to-one, so populations stay
    populations and coherences stay coherences.
    """
    d = h.shape[0]
    energies = np.diagonal(h)
    if np.count_nonzero(h) != np.count_nonzero(energies):
        return None
    if np.iscomplexobj(h):
        if energies.imag.any():
            return None
        energies = energies.real
    targets = np.full((len(dissipators), d), -1)
    magnitudes = np.zeros((len(dissipators), d))
    for m, ((_, r, c, v), _) in enumerate(dissipators):
        if np.iscomplexobj(v) and v.imag.any():
            return None
        v = v.real
        if (np.any(v < 0.0) or np.bincount(r, minlength=d).max() > 1
                or np.bincount(c, minlength=d).max() > 1):
            return None
        targets[m, c] = r
        magnitudes[m, c] = v
    gammas = _RATE_TO_INV_NS * np.array([rate for _, rate in dissipators], dtype=float)
    return _JumpMaps(energies.astype(float), targets, magnitudes, gammas)


# The generator of a population sector, entry by entry.  Write c_m(j) >= 0
# for the entry of jump m in column j (0 if none), t_m(j) for its row and
# gamma_m for its angular rate.  K = sum_m gamma_m L_m^dag L_m is diagonal,
# kappa_j = sum_m gamma_m c_m(j)^2, so the only entries of |p><q| are the
# two below: one on itself, and one on each |t_m(p)><t_m(q)|.

def _sector_diagonal(maps: _JumpMaps, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The entry of |p><q| on itself, for index arrays p and q that broadcast:
    -2 pi i (E_p - E_q) - (kappa_p + kappa_q)/2, plus gamma_m c_m(p) c_m(q)
    for each jump m that fixes both p and q."""
    stays = np.where(maps.targets == np.arange(len(maps.energies)), maps.magnitudes, 0.0)
    half_kappa = 0.5 * (maps.gammas @ maps.magnitudes ** 2)
    kept = np.einsum("m...,m...->...", (maps.gammas[:, None] * stays)[:, p], stays[:, q],
                     optimize=True)
    return (-1j * TWO_PI * (maps.energies[p] - maps.energies[q])
            - (half_kappa[p] + half_kappa[q]) + kept)


def _sector_moves(maps: _JumpMaps, p: np.ndarray,
                  q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where the jumps carry |p><q|, for index vectors p and q of one length n.

    images[m, i] is the row-major index t_m(p_i) d + t_m(q_i) that jump m
    carries |p_i><q_i| to with weight weights[m, i] = gamma_m c_m(p_i)
    c_m(q_i), or -1 where the jump annihilates it, leaves it in place (that
    weight is on the diagonal) or has a zero weight.
    """
    d = len(maps.energies)
    tp, tq = maps.targets[:, p], maps.targets[:, q]
    weights = maps.gammas[:, None] * (maps.magnitudes[:, p] * maps.magnitudes[:, q])
    images = np.where((weights != 0.0) & ((tp != p) | (tq != q)), tp * d + tq, -1)
    return images, weights


def _entry_bound(h: np.ndarray, dissipators) -> float:
    """An upper bound on the modulus of every entry of the Liouvillian.

    4 pi max|H| + max_j kappa_j + sum_m gamma_m max|L_m|^2, with
    kappa_j = sum_m gamma_m sum_i |L_m[i, j]|^2: by Cauchy-Schwarz no entry
    of K exceeds max_j kappa_j, and each Liouvillian entry is two entries
    of H_eff plus the jump products.  Computed without building anything
    of size d^2 x d^2; NaN or infinite when an input is.
    """
    kappa, peak = np.zeros(h.shape[0]), 0.0
    for (_, _, cols, values), rate in dissipators:
        squares = np.abs(values) ** 2
        kappa = kappa + _RATE_TO_INV_NS * rate * np.bincount(cols, squares, len(h))
        peak += _RATE_TO_INV_NS * rate * squares.max(initial=0.0)
    return float(2.0 * TWO_PI * np.max(np.abs(h)) + np.max(kappa) + peak)


@dataclass(frozen=True, eq=False)
class LindbladGenerator:
    """Hamiltonian (GHz) plus a list of (jump, rate in MHz).

    A jump is a d x d matrix, scanned here once, or realize_terms' entries.
    Pairs with a zero rate contribute nothing and are dropped when the
    generator is made, so every pair in dissipators has a positive rate.
    The sparse Liouvillian is built on first use, by superoperator() or
    apply(), and kept; applying the generator is one sparse matrix-vector
    product.  evolve and steady_state never build it when the generator has
    a population sector (see _jump_maps).  A generator whose Liouvillian
    would have an infinite or NaN entry raises PropagationFailure when it
    is made.  Generators compare and hash by identity.
    """

    hamiltonian: np.ndarray
    dissipators: tuple[tuple[_Entries, float], ...]
    _maps: _JumpMaps | None = field(init=False, default=None, repr=False)
    _liouvillian: sp.csr_matrix | None = field(init=False, default=None, repr=False)

    def __post_init__(self) -> None:
        h = np.asarray(self.hamiltonian)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise DimensionMismatch(f"hamiltonian must be square, got {h.shape}")
        scale = max(1.0, float(np.max(np.abs(h))))
        if float(np.max(np.abs(h - h.conj().T))) > 1e-9 * scale:
            raise ValueError("hamiltonian is not Hermitian")
        pairs = []
        for op, rate in self.dissipators:
            if not isinstance(op, _Entries):
                op = np.asarray(op)
                if op.ndim == 2:  # a dense jump: its one scan into entries
                    op = _Entries(op.shape, *np.nonzero(op), op[op != 0])
            if op.shape != h.shape:
                raise DimensionMismatch(f"jump operator shape {op.shape} does not "
                                        f"match hamiltonian {h.shape}")
            if not rate >= 0.0:
                raise NegativeRate(f"dissipator rate must be >= 0, got {rate}")
            if rate != 0.0:
                pairs.append((op, float(rate)))
        with np.errstate(all="ignore"):
            bound = _entry_bound(h, pairs)
        if not math.isfinite(bound):
            raise PropagationFailure("the generator has non-finite entries")
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "dissipators", tuple(pairs))
        object.__setattr__(self, "_maps", _jump_maps(h, pairs))

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Right-hand side d rho / dt in 1/ns."""
        return (self.superoperator() @ rho.reshape(-1)).reshape(rho.shape)

    def superoperator(self) -> sp.csr_matrix:
        """The Liouvillian on row-major vectorized density matrices, in 1/ns.

        Built on the first call; the same CSR matrix is returned on every
        call, so do not modify it.
        """
        if self._liouvillian is None:
            object.__setattr__(self, "_liouvillian",
                               _build_liouvillian(self.hamiltonian, self.dissipators))
        return self._liouvillian


def realize_terms(terms: Iterable[DissipatorTerm],
                  space: ProductSpace) -> list[tuple[_Entries, float]]:
    """Turn symbolic dissipator terms into (jump entries, rate) pairs; zero-rate
    terms contribute nothing to the generator and are dropped."""
    return [(jump_entries(term.jump, space), term.rate_mhz)
            for term in terms if term.rate_mhz != 0.0]


def dressed_hamiltonian(system: SystemSpec, model: str) -> np.ndarray:
    """Diagonal bare-plus-second-order Hamiltonian on the product space: the
    entry of (k, n) is E_k + n omega_r + n n_coeff_k + static_k, added in
    that order over the (N, M) grid of ladder and photon index."""
    n_coeff, static = system.shift_arrays.guard().h2(check_model(model))
    m = system.resonator.fock_truncation
    bare = system.qubit.ladder.energies[:, None] + system.omega_r * np.arange(m)
    energies = bare + np.arange(m) * n_coeff[:, None] + static[:, None]
    return np.diag(energies.ravel())


def assemble(system: SystemSpec, mode: str = DRESSED_ANALYTIC, *,
             photons: float = 0.0) -> LindbladGenerator:
    """Build a LindbladGenerator for a system, under its own interaction
    model, in one of the two modes, driven at ``photons`` mean photons.

    The terms come in one order: the second-order ones, then in the dressed
    mode the fourth-order ones of the system's model, then the drive-induced
    qubit terms (rates.driven_effective_rates, none at photons = 0), which
    are read from the fourth-order ones.  So the bare mode builds no
    fourth-order term, and runs no fourth-order resonance guard, only
    without a drive; any other generator builds the whole rate table, whose
    prefactors raise ResonantDivergence on a resonance.  The dense
    Hamiltonian is checked against the memory budget before any rate is
    built, and the Hamiltonian with its jumps once the terms are known.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    model = system.interaction_model
    q = system.qubit
    space = ProductSpace(q.num_levels, system.resonator.fock_truncation)
    require_memory(8 * space.dimension ** 2, "the dense Hamiltonian")
    if mode == BARE_PLUS_INTERACTION and photons == 0.0:
        terms = second_order_rates(system)
    else:
        table = build_rate_table(system)
        fourth = table.fourth(model) if mode == DRESSED_ANALYTIC else ()
        terms = [*table.second_order, *fourth,
                 *driven_effective_rates(table, photons, model)]
    live = sum(term.rate_mhz != 0.0 for term in terms)
    require_memory(8 * space.dimension ** 2 * (1 + live), "the dense Hamiltonian and jumps")
    if mode == DRESSED_ANALYTIC:
        h = dressed_hamiltonian(system, model)
    else:
        from .exact import build_hamiltonian  # only this mode needs the exact layer

        h = build_hamiltonian(q.ladder, system.omega_r, space.fock_dim, model)
    return LindbladGenerator(hamiltonian=h, dissipators=tuple(realize_terms(terms, space)))


def _check_density_matrix(rho: np.ndarray, dim: int) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise DimensionMismatch(f"state shape {rho.shape} does not match dimension {dim}")
    if float(np.max(np.abs(rho - rho.conj().T))) > 1e-10:
        raise ValueError("initial state is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-10 or abs(np.trace(rho).imag) > 1e-10:
        raise ValueError(f"initial state trace is {np.trace(rho)}, expected 1")
    diagonal = np.diagonal(rho)
    if np.count_nonzero(rho) == np.count_nonzero(diagonal):
        least = float(diagonal.real.min())  # a diagonal state's eigenvalues
    else:
        least = float(np.linalg.eigvalsh(rho)[0])
    if least < -1e-10:
        raise ValueError("initial state has a negative eigenvalue")
    return 0.5 * (rho + rho.conj().T)


class _States(Sequence):
    """The recorded states as symmetrized dim x dim arrays, read-only.

    Each state is rebuilt from its reached entries when it is read, so a
    trajectory holds samples * |R| numbers, not samples * dim^2.
    """

    def __init__(self, reach: np.ndarray, entries: np.ndarray, dim: int):
        self._reach, self._entries, self._dim = reach, entries, dim

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, index):
        picked = range(len(self))[index]
        if isinstance(picked, range):
            return [self[i] for i in picked]
        # (F + F^dag) / 2 written entry by entry: O(|R|) beyond the zeros
        half = 0.5 * self._entries[picked]
        rho = np.zeros((self._dim, self._dim), dtype=complex)
        rho.flat[self._reach] = half
        rho.T.flat[self._reach] += half.conj()
        return rho


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Times (ns) and the states recorded along an evolution.

    Only the reached entries of each row-major vec(rho) are kept:
    entries[i] holds the values at the indices reach at times[i], and every
    other entry of the state is exactly zero.  states gives them back as
    dim x dim density matrices, and diagonals gives their diagonals alone.
    Trajectories compare and hash by identity.
    """

    times: np.ndarray
    reach: np.ndarray
    entries: np.ndarray = field(repr=False)
    dim: int

    @property
    def states(self) -> Sequence[np.ndarray]:
        return _States(self.reach, self.entries, self.dim)

    @property
    def diagonals(self) -> np.ndarray:
        """The diagonal of every state, complex, shaped (samples, dim): the
        bits of np.diagonal(states[i]), without building the states.  The
        diagonal of rho sits at the row-major indices p (dim + 1)."""
        on_diagonal = self.reach % (self.dim + 1) == 0
        half = 0.5 * self.entries[:, on_diagonal]
        diagonals = np.zeros((len(self.times), self.dim), dtype=complex)
        diagonals[:, self.reach[on_diagonal] // (self.dim + 1)] = half + half.conj()
        return diagonals

    def expectation(self, op: np.ndarray) -> np.ndarray:
        return np.array([np.einsum("ij,ji->", op, rho) for rho in self.states])

    def final(self) -> np.ndarray:
        return self.states[-1]


# Largest ||L_R||_1 * t_max propagated.  SciPy takes about 5.6 matrix-vector
# products per unit of it, so this bounds one run near 6e7 products.
_MAX_NORM_TIME = 1e7

# When an evenly spaced grid is stepped with one dense propagator instead of
# one expm_multiply call per interval.  The propagator's expm costs about
# |R|^3 operations, the loop's sparse products about ||B||_1 * span * nnz(B);
# the propagator is taken when the first is at most _PROPAGATOR_COST_RATIO
# times the second.  Measured with one BLAS thread, 101 samples, propagator
# against loop: the two break even near a ratio of 10-16, e.g. |R| = 225
# over 2 ns (ratio 18) 0.12 s against 0.13 s and |R| = 400 over 10 ns
# (ratio 15) 0.29 s against 0.32 s; |R| = 600 takes 0.96 s against 0.59 s
# over 10 ns (ratio 23) and 1.26 s against 2.70 s over 100 ns (ratio 2.3).
# Blocks above _MAX_PROPAGATOR_BLOCK always take the loop, for memory: the
# expm of a 576-entry block raised the peak RSS by 49 MB over the loop,
# that of a 1024-entry block by 148 MB.
_PROPAGATOR_COST_RATIO = 16.0
_MAX_PROPAGATOR_BLOCK = 600


# (m, theta_m): the [m/m] Pade approximant of exp has a backward error below
# the double-precision unit roundoff on every matrix of 1-norm up to theta_m
# (Higham 2005, Table 2.3).
_PADE = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
         (7, 9.504178996162932e-1), (9, 2.097847961257068e0),
         (13, 5.371920351148152e0))


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) in a's dtype, by scaling and squaring (Higham, SIAM J. Matrix
    Anal. Appl. 26, 1179 (2005), Algorithm 2.3).

    The [m/m] Pade approximant (V - U)^-1 (V + U), U and V the odd and even
    parts of its numerator, is taken at the least m whose theta_m bounds
    ||a||_1; beyond theta_13 it is taken at m = 13 on a / 2^s, with
    s = ceil(log2(||a||_1 / theta_13)), and squared s times.  Overflow gives
    infinities, not warnings, and is left to the caller's finite check.
    """
    with np.errstate(all="ignore"):
        n = len(a)
        norm = float(np.abs(a).sum(axis=0).max())
        degree, theta = next((pade for pade in _PADE if norm <= pade[1]), _PADE[-1])
        squarings = math.ceil(math.log2(norm / theta)) if norm > theta else 0
        if squarings:
            a = a * 2.0 ** -squarings
        # numerator coefficients b_j = (2m - j)! / (j! (m - j)!), up to a common
        # factor; the even ones (V) in row 0, the odd ones (U / a) in row 1
        b = np.array([math.factorial(2 * degree - j)
                      // (math.factorial(j) * math.factorial(degree - j))
                      for j in range(degree + 1)], dtype=float)
        coefficients = np.array([b[::2], b[1::2]])
        # a^2, a^4, ..., a^(m - 1), or up to a^6 when m = 13
        top = 3 if degree == 13 else degree // 2
        powers = np.empty((top, n, n), dtype=a.dtype)
        np.matmul(a, a, out=powers[0])
        for k in range(1, top):
            np.matmul(powers[k - 1], powers[0], out=powers[k])
        # a complex power as pairs of reals, so that one real product sums them
        parts = powers.reshape(top, -1).view(a.real.dtype)

        def sums(c: np.ndarray) -> np.ndarray:
            return (c @ parts).view(a.dtype).reshape(2, n, n)

        v, u = sums(coefficients[:, 1:top + 1])
        if degree == 13:  # the terms past a^6, as a^6 times a sum of powers
            high = sums(coefficients[:, top + 1:])
            v += powers[-1] @ high[0]
            u += powers[-1] @ high[1]
        v.flat[::n + 1] += coefficients[0, 0]
        u.flat[::n + 1] += coefficients[1, 0]
        u = a @ u
        numerator = v + u
        v -= u
        x = np.linalg.solve(v, numerator)
        for _ in range(squarings):
            x = x @ x
    return x


def _distinct(indices: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of an index array, as np.unique returns
    them, without the numpy.ma import that np.unique makes."""
    ordered = np.sort(indices)
    keep = np.ones(ordered.size, dtype=bool)
    keep[1:] = ordered[1:] != ordered[:-1]
    return ordered[keep]


def _closure(reached: np.ndarray, successors,
             frontier: np.ndarray | None = None) -> np.ndarray:
    """The indices reached from frontier (by default every True entry of
    reached) by following successors, a map from an index array to the
    indices one step on, through entries not yet reached; it marks them in
    reached and returns every True entry.  A breadth-first search: each
    pass follows only the entries reached in the pass before."""
    if frontier is None:
        frontier = np.flatnonzero(reached)
    while frontier.size:
        found = successors(frontier)
        frontier = _distinct(found[~reached[found]])
        reached[frontier] = True
    return np.flatnonzero(reached)


def _reachable(liouville: sp.csr_matrix, vec: np.ndarray) -> np.ndarray:
    """Indices of vec(rho) that the generator can carry the support of vec into.

    i is reached when L[i, j] != 0 for a reached j; each pass reads only the
    columns of the entries reached in the pass before, so every column is
    read once.
    """
    pattern = (liouville != 0).tocsc()
    return _closure(vec != 0, lambda frontier: pattern[:, frontier].indices)


def _sector_block(maps: _JumpMaps, vec: np.ndarray):
    """_reachable, and the Liouvillian block on the reached entries in
    coordinate form (rows, cols, values; values at one position add up),
    from the jump maps alone.

    The reached set is the closure of the support of vec under
    (p, q) -> (t_m(p), t_m(q)); jump m adds gamma_m c_m(p) c_m(q) to the
    entry from (p, q) to its image, and _sector_diagonal gives the diagonal.
    The block is real when every reached entry is a population.
    """
    d = len(maps.energies)

    def successors(flat: np.ndarray) -> np.ndarray:
        images = _sector_moves(maps, *np.divmod(flat, d))[0]
        return images[images >= 0]

    reach = _closure(vec != 0, successors)
    p, q = np.divmod(reach, d)
    images, weights = _sector_moves(maps, p, q)
    m, cols = np.nonzero(images >= 0)
    diagonal = _sector_diagonal(maps, p, q)
    if np.array_equal(p, q):
        diagonal = diagonal.real
    here = np.arange(len(reach))
    return (reach, np.r_[here, np.searchsorted(reach, images[m, cols])],
            np.r_[here, cols], np.r_[diagonal, weights[m, cols]])


def _uniform_step(targets: np.ndarray) -> float | None:
    """The spacing of three or more sorted, evenly spaced times, else None.

    Times within rounding (1e-14 of the last) of an even grid count as
    evenly spaced, so every linspace grid does.
    """
    if len(targets) < 3 or targets[-1] <= targets[0]:
        return None
    step = (targets[-1] - targets[0]) / (len(targets) - 1)
    grid = targets[0] + step * np.arange(len(targets))
    if np.max(np.abs(targets - grid)) > 1e-14 * targets[-1]:
        return None
    return step


def evolve(gen: LindbladGenerator, rho0: np.ndarray, t_max: float,
           sample_times: Sequence[float]) -> Trajectory:
    """Propagate d rho/dt = L rho from 0 to t_max (ns), recording sample_times.

    Exact propagation restricted to the entries of vec(rho) that rho0 can
    reach through the generator's sparsity pattern: entries outside that
    set receive no inflow from it and stay exactly zero.  A generator with
    a population sector gives the reached entries R and the block B of L on
    them straight from its jump maps (_sector_block), with NumPy alone; B is
    real when R holds only populations, as it does for every diagonal rho0.
    Any other generator slices them from its sparse Liouvillian.

    One loop records the samples.  The first sample, and every sample when
    the loop steps one interval at a time, is reached with
    scipy.sparse.linalg.expm_multiply (Al-Mohy & Higham, SIAM J. Sci.
    Comput. 33, 488 (2011)); a first sample at 0 needs no call.  On an
    evenly spaced grid of three or more times, a block small enough for its
    dense exponential to cost less than the sparse products is instead
    stepped x <- P x from the second sample on, with P = exp(B dt) formed
    once by _expm on that step.  Only expm_multiply and the Liouvillian
    import SciPy.  Each sample is checked to be finite once.  ||B||_1 t_max
    above _MAX_NORM_TIME, a non-finite propagator or state, or a failed
    propagation raise PropagationFailure, and recorded entries above
    MEMORY_BUDGET_BYTES raise MemoryBudgetExceeded.
    """
    rho = _check_density_matrix(rho0, gen.dim)
    if not 0.0 <= t_max < math.inf:
        raise ValueError(f"t_max must be finite and >= 0, got {t_max}")
    targets = np.sort(np.array([float(t) for t in sample_times]))
    if not targets.size or targets[0] < 0.0 or targets[-1] > t_max * (1 + 1e-12):
        raise ValueError("sample_times must be nonempty and lie within [0, t_max]")
    # a time within rounding above t_max is recorded at t_max
    targets = np.minimum(targets, t_max)

    vec = rho.reshape(-1)
    if gen._maps is not None:
        reach, rows, cols, values = _sector_block(gen._maps, vec)
    else:
        liouville = gen.superoperator()
        reach = _reachable(liouville, vec)
        block = liouville[reach][:, reach].tocoo()
        rows, cols, values = block.row, block.col, block.data
    n = len(reach)
    # values at one position share their phase (positive jump weights), so
    # the column sums of |values| are those of |B|
    norm = float(np.bincount(cols, np.abs(values), minlength=n).max())
    work = norm * t_max
    if not work <= _MAX_NORM_TIME:
        raise PropagationFailure(f"||L||_1 * t_max = {work:.3e} exceeds "
                                 f"{_MAX_NORM_TIME:.0e}: the generator is too fast "
                                 f"to propagate over {t_max} ns")
    require_memory(16 * len(targets) * n, "the recorded states")
    trace = values[rows == cols].sum()
    nnz = _distinct((rows * n + cols)[values != 0.0]).size
    sparse = None

    def advance(x: np.ndarray, dt: float) -> np.ndarray:
        nonlocal sparse
        if dt <= 0.0:
            return x
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        if sparse is None:
            sparse = sp.csr_array((values, (rows, cols)), shape=(n, n))
        return spla.expm_multiply(sparse * dt, x, traceA=trace * dt)

    x = vec[reach] if np.iscomplexobj(values) else vec[reach].real
    step = _uniform_step(targets)
    loop_cost = norm * (targets[-1] - targets[0]) * nnz
    stepped = (step is not None and n <= _MAX_PROPAGATOR_BLOCK
               and n ** 3 <= _PROPAGATOR_COST_RATIO * loop_cost)
    entries = np.empty((len(targets), n), dtype=complex)
    propagator, t = None, 0.0
    try:
        for i, target in enumerate(targets):
            if stepped and i == 1:
                dense = np.zeros((n, n), dtype=values.dtype)
                np.add.at(dense, (rows, cols), values * step)
                propagator = _expm(dense)
                if not np.isfinite(propagator).all():
                    raise PropagationFailure(f"the propagator over {step} ns is not finite")
            x = advance(x, target - t) if propagator is None else propagator @ x
            if not np.isfinite(x).all():
                raise PropagationFailure(f"the state is not finite at t = {target} ns")
            entries[i], t = x, target
    except (ValueError, OverflowError, np.linalg.LinAlgError) as exc:
        raise PropagationFailure(f"propagation over [0, {t_max}] ns failed: {exc}") from exc
    return Trajectory(times=targets, reach=reach, entries=entries, dim=gen.dim)


def _closed_class_root(edges: np.ndarray) -> int | None:
    """A state that every state of the rate graph edges leads to, or None
    when there is none; edges[a, j] is True when population flows from |j>
    to |a>.

    Such a state exists exactly when the graph has one closed class, a
    communicating class that no flow leaves (Norris, Markov Chains, CUP
    1997, section 1.2): every state leads into a closed class.  To find a
    candidate, search backwards from each unseen state in turn: the last
    root r lies in a closed class.  Were there a path r = p_0 -> ... ->
    p_k = u with u not leading back to r, the first search to mark any p_i
    would mark p_0, ..., p_i (all unseen, all leading to p_i), so r would
    be its root, and as no root follows r, r's own search marks u: u leads
    to r after all.
    """
    d = len(edges)

    def sources(states: np.ndarray) -> np.ndarray:
        return np.flatnonzero(edges[states].any(axis=0))

    seen = np.zeros(d, dtype=bool)
    root = 0
    while not seen.all():
        root = int(np.argmin(seen))
        seen[root] = True
        _closure(seen, sources, np.array([root]))
    return root if _closure(np.arange(d) == root, sources).size == d else None


def _stationary(flows: np.ndarray, root: int) -> np.ndarray:
    """The probabilities p with sum_j flows[a, j] p_j = p_a sum_j flows[j, a]
    for every a, given a root that every state leads to (_closed_class_root).

    Grassmann-Taksar-Heyman elimination (Grassmann, Taksar & Heyman, Oper.
    Res. 33, 1107 (1985)): the last state is folded into the others, which
    leaves the chain watched only on them, and so on down to the root,
    moved first; then each state's balance against the states before it
    gives its probability.  Every state but the root still leads to one
    before it, so no outflow is zero.  No step subtracts, so each
    probability keeps a small relative error however widely the rates
    spread, and transient states come out exactly zero.  Folding a state
    links only states within the band of the others' rates to it (and the
    root), so the work is d * band^2, not d^3.
    """
    d = len(flows)
    order = np.r_[root, np.delete(np.arange(d), root)]
    rates = flows.T[np.ix_(order, order)]  # rates[i, j]: from i to j
    i, j = np.nonzero(rates[1:, 1:])
    band = int(np.max(np.abs(i - j), initial=0))
    outflow = np.empty(d)
    for k in range(d - 1, 0, -1):
        lo = max(1, k - band)
        outflow[k] = rates[k, 0] + rates[k, lo:k].sum()
        into, out = rates[lo:k, k], rates[k, lo:k] / outflow[k]
        rates[lo:k, lo:k] += np.outer(into, out)
        rates[0, lo:k] += rates[0, k] * out
        rates[lo:k, 0] += into * (rates[k, 0] / outflow[k])
    p = np.empty(d)
    p[0] = 1.0
    for k in range(1, d):
        lo = max(1, k - band)
        p[k] = (p[0] * rates[0, k] + p[lo:k] @ rates[lo:k, k]) / outflow[k]
    p[order] = p / p.sum()
    return p


def _closed_coherences(maps: _JumpMaps) -> int:
    """The size of the largest set of tight coherences closed under the jumps.

    A coherence |p><q| (p != q) is tight when E_p == E_q and every jump
    has equal magnitudes in columns p and q; both are compared exactly, as
    one row of signatures per state.  Jump m maps it to |t_m(p)><t_m(q)|
    when both columns hold an entry.  Starting from all tight coherences,
    those with an image that is not tight are discarded, and then, back
    along the maps, every one with a discarded image.  0 means the
    coherence block is nonsingular (see steady_state).
    """
    d = len(maps.energies)
    signatures = np.column_stack([maps.energies, maps.magnitudes.T]) + 0.0  # -0.0 -> 0.0
    group = np.unique(signatures, axis=0, return_inverse=True)[1].ravel()
    alive = np.equal.outer(group, group).ravel()
    alive[::d + 1] = False
    pairs = np.flatnonzero(alive)

    def images(mapping: np.ndarray, flat: np.ndarray):
        p, q = mapping[flat // d], mapping[flat % d]
        both = (p >= 0) & (q >= 0)
        return p[both] * d + q[both], both

    escaped = np.zeros(pairs.size, dtype=bool)
    for targets in maps.targets:
        image, mapped = images(targets, pairs)
        escaped[mapped] |= ~alive[image]
    dead = pairs[escaped]
    alive[dead] = False
    sources = np.full_like(maps.targets, -1)
    m, j = np.nonzero(maps.targets >= 0)
    sources[m, maps.targets[m, j]] = j

    def origins(flat: np.ndarray) -> np.ndarray:
        return np.concatenate([images(mapping, flat)[0] for mapping in sources])

    return d * d - _closure(~alive, origins, dead).size


def _population_steady_state(maps: _JumpMaps) -> np.ndarray:
    """steady_state on a population sector."""
    d = len(maps.energies)
    states = np.arange(d)
    images, weights = _sector_moves(maps, states, states)
    m, j = np.nonzero(images >= 0)
    # flows[a, j]: the rate from |j> to |a>, |a><a| being the image of |j><j|
    flows = np.bincount(images[m, j] // d * d + j, minlength=d * d,
                        weights=weights[m, j]).reshape(d, d)
    root = _closed_class_root(flows > 0.0)
    if root is None:
        raise DegenerateNullSpace("the populations have more than one closed class; "
                                  "steady state is not unique")
    closed = _closed_coherences(maps)
    if closed:
        raise DegenerateNullSpace(f"{closed} coherences between equal-energy states are "
                                  f"closed under the jumps; steady state is not unique")
    p = _stationary(flows, root)
    # The largest Liouvillian entry: the coherence block's off-diagonal
    # entries never exceed its diagonal (see steady_state), so it is the
    # largest of the flows and the diagonal of every |p><q|, taken over
    # blocks of about 2^16 entries; np.max keeps a NaN.
    rows = max(1, 2 ** 16 // d)
    diagonal = np.max([np.max(np.abs(_sector_diagonal(maps, states[i:i + rows, None], states)))
                       for i in range(0, d, rows)])
    scale = max(float(diagonal), float(np.max(flows)))
    residual = float(np.max(np.abs(flows @ p - flows.sum(axis=0) * p)))
    if not residual <= 1e-10 * max(1.0, scale):
        raise DegenerateNullSpace(f"steady-state residual {residual:.3e} exceeds "
                                  f"tolerance; null space is ill-conditioned")
    return np.diag(p).astype(complex)


def steady_state(gen: LindbladGenerator) -> np.ndarray:
    """Unique steady state of a generator with a population sector.

    The population sector (see _jump_maps; every dressed_analytic
    generator has one) is solved with NumPy alone, never building the
    d^2 x d^2 Liouvillian.  Write c_m(j) >= 0 for the entry of jump m in
    column j (0 if none), t_m(j) for its row, gamma_m for its angular rate
    and kappa_j = sum_m gamma_m c_m(j)^2.  The Liouvillian splits into two
    blocks:

    - the populations obey dp/dt = W p, the Pauli master equation (Breuer &
      Petruccione, The Theory of Open Quantum Systems, OUP 2002), with
      W = sum_m gamma_m |L_m|^2 (elementwise) less the diagonal of its
      column sums.  Its solution of W p = 0 with trace one is unique
      exactly when the rate graph has one closed class
      (_closed_class_root), and is then found without subtraction
      (_stationary), so rates that span hundreds of orders of magnitude
      still give nonnegative populations.
    - the coherences rho_pq (p != q) obey d rho_pq/dt = B_pq,pq rho_pq +
      sum of gamma_m c_m(p') c_m(q') rho_p'q' over (t_m(p'), t_m(q')) =
      (p, q), with B_pq,pq = -2 pi i (E_p - E_q) - (kappa_p + kappa_q)/2
      plus gamma_m c_m(p) c_m(q) for each jump that fixes p and q.  By
      c_p c_q <= (c_p^2 + c_q^2)/2 the modulus of each diagonal entry of B
      exceeds the sum of the moduli of the other entries in its column by
      at least
      sum_m gamma_m (c_m(p) - c_m(q))^2 / 2, and by more when E_p != E_q;
      call a column tight when the two are equal.  If y^T B = 0 with
      y != 0, every column where |y| is largest is tight and every image of
      it under the jumps is another such column (the Levy-Desplanques
      argument), so they form a nonempty set of tight coherences closed
      under the jumps.  Conversely, on such a set S the columns of B have
      no entry outside S and each sums to zero, so B restricted to S is
      singular and a null vector on S, extended by zeros, is one of B.
      So B is singular exactly when _closed_coherences finds such a set;
      otherwise every coherence of the steady state is zero.

    The state is diagonal, and its eigenvalues, the populations, are
    nonnegative by construction: _stationary sets p_0 = 1 and gives every
    later p_k as a sum of products of nonnegative rates divided by a
    positive outflow, without a subtraction.  So p >= 0 exactly, or p is
    NaN after an overflow, which the residual check refuses; no positivity
    check is needed.

    More than one closed class, a singular B, or a residual above 1e-10 of
    the largest Liouvillian entry (NaN included) raises
    DegenerateNullSpace.  A generator without a population sector raises
    NoPopulationSector before anything is built: a bare-basis master
    equation on the Rabi Hamiltonian does not relax to the dressed thermal
    state (Beaudoin, Gambetta & Blais, Phys. Rev. A 84, 043832 (2011)), so
    assemble it in dressed_analytic mode.
    """
    if gen._maps is None:
        raise NoPopulationSector("steady_state needs a generator with a population "
                                 "sector: a diagonal real Hamiltonian and real "
                                 "nonnegative jumps with at most one nonzero per row "
                                 "and column, as every dressed_analytic generator has")
    with np.errstate(all="ignore"):
        return _population_steady_state(gen._maps)


def _factor_axes(rho: np.ndarray, space: ProductSpace) -> np.ndarray:
    """rho with axes (k, n, k', n'), after a check of its shape."""
    d = space.dimension
    rho = np.asarray(rho)
    if rho.shape != (d, d):
        raise DimensionMismatch(f"state shape {rho.shape} does not match space "
                                f"dimension {d}")
    return rho.reshape(space.qubit_dim, space.fock_dim, space.qubit_dim, space.fock_dim)


def partial_trace_resonator(rho: np.ndarray, space: ProductSpace) -> np.ndarray:
    """Reduce a product-space density matrix to the qubit factor."""
    return np.einsum("injn->ij", _factor_axes(rho, space))


def partial_trace_qubit(rho: np.ndarray, space: ProductSpace) -> np.ndarray:
    """Reduce a product-space density matrix to the resonator factor."""
    return np.einsum("inim->nm", _factor_axes(rho, space))


def thermal_resonator_state(m: int, nbar: float) -> np.ndarray:
    """Truncated thermal state with Bose ratio r = nbar / (1 + nbar)."""
    if nbar < 0.0:
        raise ValueError(f"nbar must be >= 0, got {nbar}")
    # at nbar = 0, r = 0 and 0.0 ** 0 == 1 give the vacuum exactly
    p = (nbar / (1.0 + nbar)) ** np.arange(m)
    return np.diag(p / p.sum()).astype(complex)


def _dissipator(op: np.ndarray, rho: np.ndarray) -> np.ndarray:
    op_dag = op.conj().T
    norm_op = op_dag @ op
    return op @ rho @ op_dag - 0.5 * (norm_op @ rho + rho @ norm_op)


def verify_displacement_identity(alpha: complex, k: int, dims: tuple[int, int]) -> float:
    """Check the displaced-frame dissipator reduction on the qubit.

    Displacing a drive of amplitude alpha maps D[sigma_{k,k+1} a+] onto
    D[sigma_{k,k+1} (a+ + conj(alpha))].  Expanding gives the two kept
    pieces, D[sigma a+] + |alpha|^2 D[sigma], plus cross terms that are
    linear in a single photon operator and therefore trace to zero against
    any resonator state that is diagonal in the Fock basis.  This routine
    builds all three dissipators on an (N, M) product space, applies them
    to a basis of qubit operators tensored with truncated thermal states of
    0, 0.5 and 1 photons, and returns the largest entry of the qubit-reduced
    discrepancy.
    """
    n_levels, m = dims
    if abs(alpha) ** 2 > m / 4.0:
        raise TruncationTooSmall(f"|alpha|^2 = {abs(alpha) ** 2:.3f} exceeds M/4 = {m / 4.0}")
    if not 0 <= k <= n_levels - 2:
        raise IndexError(f"transition {k} outside {n_levels}-level qubit")
    space = ProductSpace(n_levels, m)
    a_op = jump_matrix(JumpDescriptor(qubit=("lower", k), photon="create"), space)
    b_op = jump_matrix(JumpDescriptor(qubit=("lower", k)), space)
    j_op = a_op + np.conj(alpha) * b_op
    weight = abs(alpha) ** 2

    worst = 0.0
    for i in range(n_levels):
        for j in range(n_levels):
            qubit_basis = np.zeros((n_levels, n_levels), dtype=complex)
            qubit_basis[i, j] = 1.0
            for nbar in (0.0, 0.5, 1.0):
                rho = np.kron(qubit_basis, thermal_resonator_state(m, nbar))
                delta = (_dissipator(j_op, rho) - _dissipator(a_op, rho)
                         - weight * _dissipator(b_op, rho))
                reduced = partial_trace_resonator(delta, space)
                worst = max(worst, float(np.max(np.abs(reduced))))
    return worst
