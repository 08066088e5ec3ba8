"""Lindblad generators, time evolution, steady states, and the drive identity.

A generator built here acts on density matrices in units of 1/ns: stored
frequencies are ordinary (/2pi) GHz and stored rates are MHz, so
_build_liouvillian multiplies the Hamiltonian by 2 pi and each rate by
2 pi * 1e-3.  Time arguments are in ns throughout.

Two assembly modes are supported:

- ``dressed_analytic``: diagonal Hamiltonian (bare energies plus the
  second-order diagonal corrections) with the second- and fourth-order
  dissipator lists realized on the product space.
- ``bare_plus_interaction``: the full interaction Hamiltonian with the
  second-order dissipators only; used to cross-check the dressed picture
  against real-time dynamics.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .exact import build_hamiltonian
from .model import SystemSpec, check_model
from .operators import DimensionMismatch, ProductSpace, jump_matrix
from .rates import DissipatorTerm, JumpDescriptor, RateTable, build_rate_table
from .shifts import ShiftReport, shift_report

if TYPE_CHECKING:
    import scipy.sparse as sp

TWO_PI = 2.0 * math.pi
_RATE_TO_INV_NS = TWO_PI * 1e-3  # MHz -> angular rate in 1/ns

DRESSED_ANALYTIC = "dressed_analytic"
BARE_PLUS_INTERACTION = "bare_plus_interaction"
MODES = (DRESSED_ANALYTIC, BARE_PLUS_INTERACTION)

class NegativeRate(ValueError):
    """A dissipator was handed a negative rate."""


class PropagationFailure(RuntimeError):
    """The generator or a propagated state is not finite, the generator is too
    fast to propagate over the requested time, or SciPy's propagation failed."""


class DegenerateNullSpace(RuntimeError):
    """The generator has more than one steady state."""


class NonPositiveState(RuntimeError):
    """The computed steady state has a negative eigenvalue."""


class TruncationTooSmall(ValueError):
    """Fock truncation cannot hold the requested coherent amplitude."""


def _build_liouvillian(h: np.ndarray, dissipators) -> sp.csr_matrix:
    """The generator as a CSR matrix on row-major vectorized density matrices.

    Effective-Hamiltonian form: with K = sum gamma L^dag L and
    H_eff = 2 pi H - (i/2) K, row-major vec(A rho B) = (A (x) B^T) vec(rho)
    gives L = -i (H_eff (x) I - I (x) conj(H_eff)) + sum gamma L (x) conj(L).
    SciPy is imported here, not at module load, so that only the commands
    that build a generator pay for it.
    """
    import scipy.sparse as sp

    d = h.shape[0]
    eye = sp.identity(d, dtype=complex, format="csr")
    h_eff = sp.csr_matrix(TWO_PI * h, dtype=complex)
    jumps = sp.csr_matrix((d * d, d * d), dtype=complex)
    for op, rate in dissipators:
        if rate == 0.0:
            continue
        gamma = _RATE_TO_INV_NS * rate
        l_op = sp.csr_matrix(op)
        h_eff = h_eff - 0.5j * gamma * (l_op.conj().T @ l_op)
        jumps = jumps + gamma * sp.kron(l_op, l_op.conj(), format="csr")
    return (jumps - 1j * (sp.kron(h_eff, eye, format="csr")
                          - sp.kron(eye, h_eff.conj(), format="csr"))).tocsr()


@dataclass(frozen=True)
class LindbladGenerator:
    """Hamiltonian (GHz) plus a list of (jump matrix, rate in MHz).

    The Liouvillian is built once, as a sparse matrix, when the generator
    is made; applying the generator is one sparse matrix-vector product.
    A Liouvillian with an infinite or NaN entry raises PropagationFailure.
    """

    hamiltonian: np.ndarray
    dissipators: tuple[tuple[np.ndarray, float], ...]
    _liouvillian: sp.csr_matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        h = np.asarray(self.hamiltonian)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise DimensionMismatch(f"hamiltonian must be square, got {h.shape}")
        scale = max(1.0, float(np.max(np.abs(h))))
        if float(np.max(np.abs(h - h.conj().T))) > 1e-9 * scale:
            raise ValueError("hamiltonian is not Hermitian")
        pairs = []
        for op, rate in self.dissipators:
            op = np.asarray(op)
            if op.shape != h.shape:
                raise DimensionMismatch(f"jump operator shape {op.shape} does not "
                                        f"match hamiltonian {h.shape}")
            if not rate >= 0.0:
                raise NegativeRate(f"dissipator rate must be >= 0, got {rate}")
            pairs.append((op, float(rate)))
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "dissipators", tuple(pairs))
        with np.errstate(all="ignore"):
            liouvillian = _build_liouvillian(h, pairs)
        if not np.all(np.isfinite(liouvillian.data)):
            raise PropagationFailure("the generator has non-finite entries")
        object.__setattr__(self, "_liouvillian", liouvillian)

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Right-hand side d rho / dt in 1/ns."""
        return (self._liouvillian @ rho.reshape(-1)).reshape(rho.shape)

    def superoperator(self) -> sp.csr_matrix:
        """The Liouvillian on row-major vectorized density matrices, in 1/ns.

        The same CSR matrix is returned on every call; do not modify it.
        """
        return self._liouvillian


def realize_terms(terms: Iterable[DissipatorTerm],
                  space: ProductSpace) -> list[tuple[np.ndarray, float]]:
    """Turn symbolic dissipator terms into (matrix, rate) pairs.

    Zero-rate terms are dropped; they contribute nothing to the generator.
    """
    out = []
    for term in terms:
        if term.rate_mhz == 0.0:
            continue
        out.append((jump_matrix(term.jump, space), term.rate_mhz))
    return out


def dressed_hamiltonian(system: SystemSpec, model: str,
                        report: ShiftReport | None = None) -> np.ndarray:
    """Diagonal bare-plus-second-order Hamiltonian on the product space."""
    if report is None:
        report = shift_report(system)
    h2 = report.h2(model)
    q = system.qubit
    m = system.resonator.fock_truncation
    space = ProductSpace(q.num_levels, m)
    energies = np.empty(space.dimension)
    for k, n in space.pairs():
        n_coeff, static = h2[k]
        energies[space.index(k, n)] = (q.level_energies[k] + n * system.omega_r
                                       + n * n_coeff + static)
    return np.diag(energies)


def assemble(system: SystemSpec, mode: str = DRESSED_ANALYTIC,
             model: str | None = None, table: RateTable | None = None,
             include_fourth_order: bool = True,
             extra_terms: Sequence[DissipatorTerm] = ()) -> LindbladGenerator:
    """Build a LindbladGenerator for a system in one of the two modes."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if model is None:
        model = system.interaction_model
    check_model(model)
    q = system.qubit
    space = ProductSpace(q.num_levels, system.resonator.fock_truncation)
    if table is None:
        table = build_rate_table(system)
    terms = list(table.second_order)
    if mode == DRESSED_ANALYTIC:
        h = dressed_hamiltonian(system, model)
        if include_fourth_order:
            terms.extend(table.fourth(model))
    else:
        h = build_hamiltonian(system, model)
    terms.extend(extra_terms)
    return LindbladGenerator(hamiltonian=h, dissipators=tuple(realize_terms(terms, space)))


def _check_density_matrix(rho: np.ndarray, dim: int) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise DimensionMismatch(f"state shape {rho.shape} does not match dimension {dim}")
    if float(np.max(np.abs(rho - rho.conj().T))) > 1e-10:
        raise ValueError("initial state is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-10 or abs(np.trace(rho).imag) > 1e-10:
        raise ValueError(f"initial state trace is {np.trace(rho)}, expected 1")
    if float(np.linalg.eigvalsh(rho)[0]) < -1e-10:
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


@dataclass(frozen=True)
class Trajectory:
    """Times (ns) and the states recorded along an evolution.

    Only the reached entries of each row-major vec(rho) are kept:
    entries[i] holds the values at the indices reach at times[i], and every
    other entry of the state is exactly zero.  states gives them back as
    dim x dim density matrices.
    """

    times: np.ndarray
    reach: np.ndarray
    entries: np.ndarray = field(repr=False)
    dim: int

    @property
    def states(self) -> Sequence[np.ndarray]:
        return _States(self.reach, self.entries, self.dim)

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


def _reachable(liouville: sp.csr_matrix, vec: np.ndarray) -> np.ndarray:
    """Indices of vec(rho) that the generator can carry the support of vec into.

    A breadth-first search through the sparsity pattern: i is reached when
    L[i, j] != 0 for a reached j.  Each pass reads only the columns of the
    entries reached in the pass before, so every column is read once.
    """
    pattern = (liouville != 0).tocsc()
    reached = vec != 0
    frontier = np.flatnonzero(reached)
    while frontier.size:
        rows = pattern[:, frontier].indices
        frontier = np.unique(rows[~reached[rows]])
        reached[frontier] = True
    return np.flatnonzero(reached)


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
    set receive no inflow from it and stay exactly zero.  Under a dressed
    generator a diagonal rho0 reaches only the d populations.  The reached
    block B is advanced with scipy.sparse.linalg.expm_multiply (Al-Mohy &
    Higham, SIAM J. Sci. Comput. 33, 488 (2011)) to the first sorted sample
    time.  On an evenly spaced grid of three or more times, a block small
    enough for its dense expm to cost less than the sparse products then
    steps x <- P x with P = expm(B dt) formed once by scipy.linalg.expm
    (scaling and squaring; Higham, SIAM J. Matrix Anal. Appl. 26, 1179
    (2005)).  Otherwise expm_multiply advances it one interval at a time.
    """
    import scipy.linalg
    import scipy.sparse.linalg as spla

    rho = _check_density_matrix(rho0, gen.dim)
    if not 0.0 <= t_max < math.inf:
        raise ValueError(f"t_max must be finite and >= 0, got {t_max}")
    targets = np.sort(np.array([float(t) for t in sample_times]))
    if not targets.size or targets[0] < 0.0 or targets[-1] > t_max * (1 + 1e-12):
        raise ValueError("sample_times must be nonempty and lie within [0, t_max]")
    # a time within rounding above t_max is recorded at t_max
    targets = np.minimum(targets, t_max)

    liouville = gen.superoperator()
    reach = _reachable(liouville, rho.reshape(-1))
    block = liouville[reach][:, reach]
    norm = float(abs(block).sum(axis=0).max())
    work = norm * t_max
    if not work <= _MAX_NORM_TIME:
        raise PropagationFailure(f"||L||_1 * t_max = {work:.3e} exceeds "
                                 f"{_MAX_NORM_TIME:.0e}: the generator is too fast "
                                 f"to propagate over {t_max} ns")
    trace = block.diagonal().sum()

    def advance(x: np.ndarray, dt: float) -> np.ndarray:
        return spla.expm_multiply(block * dt, x, traceA=trace * dt) if dt > 0.0 else x

    x = rho.reshape(-1)[reach]
    step = _uniform_step(targets)
    loop_cost = norm * (targets[-1] - targets[0]) * block.nnz
    try:
        entries = np.empty((len(targets), len(reach)), dtype=complex)
        if (step is not None and len(reach) <= _MAX_PROPAGATOR_BLOCK
                and len(reach) ** 3 <= _PROPAGATOR_COST_RATIO * loop_cost):
            entries[0] = advance(x, targets[0])
            propagator = scipy.linalg.expm(block.toarray() * step)
            for i in range(1, len(targets)):
                entries[i] = propagator @ entries[i - 1]
        else:
            t = 0.0
            for i, target in enumerate(targets):
                entries[i] = x = advance(x, target - t)
                if not np.all(np.isfinite(x)):
                    raise PropagationFailure(f"the state is not finite at t = {target} ns")
                t = target
    except (ValueError, OverflowError, np.linalg.LinAlgError) as exc:
        raise PropagationFailure(f"propagation over [0, {t_max}] ns failed: {exc}") from exc
    finite = np.isfinite(entries).all(axis=1)
    if not finite.all():
        raise PropagationFailure(f"the state is not finite at "
                                 f"t = {targets[np.argmin(finite)]} ns")
    return Trajectory(times=targets, reach=reach, entries=entries, dim=gen.dim)


def steady_state(gen: LindbladGenerator, positivity_tol: float = 1e-9) -> np.ndarray:
    """Unique steady state of the generator.

    Solves L rho = 0 by sparse LU, with the first row of the vectorized
    generator replaced by the trace constraint.  Uniqueness is verified
    through the singular spectrum when the superoperator is small enough to
    afford a dense SVD; a second vanishing singular value, a singular
    factorization or a residual above 1e-10 of the largest generator entry
    raises DegenerateNullSpace.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    d = gen.dim
    liouville = gen.superoperator()
    if d * d <= 1024:
        singulars = np.linalg.svd(liouville.toarray(), compute_uv=False)
        top = singulars[0] if singulars[0] > 0.0 else 1.0
        null_count = int(np.sum(singulars < 1e-12 * top))
        if null_count > 1:
            raise DegenerateNullSpace(f"{null_count} singular values vanish; "
                                      f"steady state is not unique")

    # ones on the entries of vec(rho) that hold its diagonal
    trace_row = sp.csr_matrix((np.ones(d), np.arange(0, d * d, d + 1), [0, d]),
                              shape=(1, d * d))
    rhs = np.zeros(d * d, dtype=complex)
    rhs[0] = 1.0
    try:
        vec = spla.splu(sp.vstack([trace_row, liouville[1:]], format="csc")).solve(rhs)
    except RuntimeError as exc:  # SuperLU: exactly singular or failed to factorize
        raise DegenerateNullSpace(f"sparse LU failed: {exc}".strip()) from exc

    rho = vec.reshape(d, d)
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real

    residual = float(np.max(np.abs(liouville @ rho.reshape(-1))))
    if not residual <= 1e-10 * max(1.0, float(abs(liouville).max())):
        raise DegenerateNullSpace(f"steady-state residual {residual:.3e} exceeds "
                                  f"tolerance; null space is ill-conditioned")
    min_eig = float(np.linalg.eigvalsh(rho)[0])
    if min_eig < -positivity_tol:
        raise NonPositiveState(f"steady state has eigenvalue {min_eig:.3e} "
                               f"< -{positivity_tol}")
    return rho


def partial_trace_resonator(rho: np.ndarray, space: ProductSpace) -> np.ndarray:
    """Reduce a product-space density matrix to the qubit factor."""
    d = space.dimension
    rho = np.asarray(rho)
    if rho.shape != (d, d):
        raise DimensionMismatch(f"state shape {rho.shape} does not match space "
                                f"dimension {d}")
    reshaped = rho.reshape(space.qubit_dim, space.fock_dim,
                           space.qubit_dim, space.fock_dim)
    return np.einsum("injn->ij", reshaped)


def partial_trace_qubit(rho: np.ndarray, space: ProductSpace) -> np.ndarray:
    """Reduce a product-space density matrix to the resonator factor."""
    d = space.dimension
    rho = np.asarray(rho)
    if rho.shape != (d, d):
        raise DimensionMismatch(f"state shape {rho.shape} does not match space "
                                f"dimension {d}")
    reshaped = rho.reshape(space.qubit_dim, space.fock_dim,
                           space.qubit_dim, space.fock_dim)
    return np.einsum("inim->nm", reshaped)


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
