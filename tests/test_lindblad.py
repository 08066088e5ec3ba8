"""Tests for the master-equation generator, integrator, and steady state."""

import dataclasses
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import expm

import rabiqed
from rabiqed import lindblad

from rabiqed import (
    BARE_PLUS_INTERACTION,
    DRESSED_ANALYTIC,
    RABI,
    DegenerateNullSpace,
    DimensionMismatch,
    DissipatorTerm,
    JC,
    JumpDescriptor,
    LindbladGenerator,
    NegativeRate,
    NoPopulationSector,
    ProductSpace,
    PropagationFailure,
    ResonantDivergence,
    SpectralFunction,
    TruncationTooSmall,
    annihilator,
    assemble,
    build_hamiltonian,
    dressed_hamiltonian,
    embed,
    evolve,
    number_operator,
    partial_trace_qubit,
    partial_trace_resonator,
    qubit_projector,
    realize_terms,
    shift_report,
    sigma_lower,
    steady_state,
    thermal_resonator_state,
    verify_displacement_identity,
)
from rabiqed.cli import _MATH_ERRORS
from rabiqed.lindblad import _dissipator

from conftest import README_CONFIG, _run_python, build_system, traced_peak

TWO_PI = 2.0 * math.pi
RATE = TWO_PI * 1e-3  # MHz -> angular rate in 1/ns


def noisy_system():
    """Three levels, five photons, every bath active at 0.1 GHz."""
    return build_system(
        detuning=1.0, num_levels=3, fock=5,
        baths={
            "X": SpectralFunction.flat(0.002, temperature_ghz=0.1),
            "Z": SpectralFunction.flat(0.01, temperature_ghz=0.1),
            "R": SpectralFunction.flat(0.05, temperature_ghz=0.1),
        },
    )


def random_density_matrix(dim, seed):
    """A full-rank random density matrix."""
    rng = np.random.default_rng(seed)
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = mat @ mat.conj().T
    return rho / np.trace(rho)


def test_generator_validation():
    """Non-Hermitian Hamiltonians, bad shapes, and negative rates are rejected."""
    with pytest.raises(ValueError):
        LindbladGenerator(np.array([[0.0, 1.0], [0.0, 0.0]]), ())
    with pytest.raises(DimensionMismatch):
        LindbladGenerator(np.zeros((2, 3)), ())
    h = np.diag([0.0, 1.0])
    with pytest.raises(DimensionMismatch):
        LindbladGenerator(h, ((np.zeros((3, 3)), 1.0),))
    with pytest.raises(NegativeRate):
        LindbladGenerator(h, ((np.array([[0.0, 1.0], [0.0, 0.0]]), -2.0),))


def test_apply_matches_superoperator():
    """apply and the cached sparse Liouvillian both equal the direct formula."""
    system = build_system(
        detuning=1.0, num_levels=3, fock=4,
        baths={
            "X": SpectralFunction.flat(0.002, temperature_ghz=0.1),
            "Z": SpectralFunction.flat(0.01, temperature_ghz=0.1),
            "R": SpectralFunction.flat(0.05, temperature_ghz=0.1),
        },
    )
    for mode in (DRESSED_ANALYTIC, BARE_PLUS_INTERACTION):
        gen = assemble(system, mode=mode)
        rho = random_density_matrix(gen.dim, seed=5)
        h = gen.hamiltonian
        direct = -1j * TWO_PI * (h @ rho - rho @ h)
        for (shape, rows, cols, values), rate in gen.dissipators:
            op = np.zeros(shape)
            op[rows, cols] = values
            direct = direct + RATE * rate * _dissipator(op, rho)
        liouville = gen.superoperator()
        assert sp.issparse(liouville) and liouville.format == "csr"
        assert gen.superoperator() is liouville
        scale = np.linalg.norm(direct)
        assert np.linalg.norm(gen.apply(rho) - direct) / scale < 1e-12
        assert np.linalg.norm(liouville @ rho.reshape(-1) - direct.reshape(-1)) / scale < 1e-12


def test_damped_cavity_decays_exponentially():
    """A lone cavity loses photons as <n>(t) = n0 exp(-kappa t)."""
    system = build_system(g0=0.0, baths={"R": SpectralFunction.flat(0.05)})
    gen = assemble(system, mode=DRESSED_ANALYTIC)
    space = ProductSpace(3, 5)
    rho0 = np.zeros((15, 15), dtype=complex)
    rho0[space.index(0, 2), space.index(0, 2)] = 1.0
    kappa = RATE * 50.0  # flat level 0.05 GHz -> 50 MHz
    ts = np.array([0.5, 1.0, 2.0]) / kappa
    traj = evolve(gen, rho0, ts[-1], sample_times=ts)
    n_op = embed(None, number_operator(5), space)
    for t, n_num in zip(traj.times, traj.expectation(n_op).real):
        np.testing.assert_allclose(n_num, 2.0 * math.exp(-kappa * t), rtol=1e-6)


def test_excited_qubit_decays_exponentially():
    """Transverse noise at T = 0 empties the first excited level at beta^2 C_X(w)."""
    system = build_system(baths={"X": SpectralFunction.flat(0.002)})
    gen = assemble(system, mode=DRESSED_ANALYTIC)
    space = ProductSpace(3, 5)
    rho0 = np.zeros((15, 15), dtype=complex)
    rho0[space.index(1, 0), space.index(1, 0)] = 1.0
    gamma = RATE * 2.0
    ts = np.array([0.5, 1.0]) / gamma
    traj = evolve(gen, rho0, ts[-1], sample_times=ts)
    p1 = embed(qubit_projector(1, 3), None, space)
    for t, pop in zip(traj.times, traj.expectation(p1).real):
        np.testing.assert_allclose(pop, math.exp(-gamma * t), rtol=1e-6)


def test_steady_state_thermal_occupation():
    """Detailed-balance photon rates settle at nbar = up / (down - up)."""
    system = build_system(
        g0=0.0,
        baths={
            "X": SpectralFunction.flat(0.002, temperature_ghz=0.1),
            "R": SpectralFunction.flat(0.05, temperature_ghz=0.5),
        },
    )
    gen = assemble(system, mode=DRESSED_ANALYTIC)
    rho = steady_state(gen)
    space = ProductSpace(3, 5)
    nbar = float(np.real(np.trace(embed(None, number_operator(5), space) @ rho)))
    cr = system.bath("R")
    expected = cr.evaluate(-5.0) / (cr.evaluate(5.0) - cr.evaluate(-5.0))
    np.testing.assert_allclose(nbar, expected, rtol=1e-10)
    np.testing.assert_allclose(np.trace(rho).real, 1.0, rtol=0, atol=1e-12)


def _bare_gibbs(system, temperature):
    """Gibbs weights of the bare energies E_k + n omega_r, in flat (k, n) order."""
    m = system.resonator.fock_truncation
    energies = (np.asarray(system.qubit.level_energies)[:, None]
                + system.omega_r * np.arange(m)).ravel()
    weights = np.exp(-(energies - energies.min()) / temperature)
    return weights / weights.sum()


def _assert_bare_gibbs(populations, weights):
    """populations equal the weights within 1e-12 relative where a weight is a
    normal float, within 1e-12 of the smallest normal float where it is
    subnormal (no relative precision is left there), and exactly 0 where it
    underflows."""
    tiny = np.finfo(float).tiny
    normal, zero = weights >= tiny, weights == 0.0
    assert np.all(np.abs(populations - weights)[normal] <= 1e-12 * weights[normal])
    assert np.all(np.abs(populations - weights)[~normal] <= 1e-12 * tiny)
    assert np.all(populations[zero] == 0.0)


# (qubit levels, photons, omega_r, temperatures): d = 15 and 40 at three
# temperatures, and d = 600 (no resonant transition at omega_r = 5.1 GHz),
# where some Gibbs weights underflow, at one temperature per model.
GIBBS_CASES = [(3, 5, 5.0, (0.1, 0.5, 2.0), RABI), (3, 5, 5.0, (0.1, 0.5, 2.0), JC),
               (5, 8, 5.0, (0.1, 0.5, 2.0), RABI), (5, 8, 5.0, (0.1, 0.5, 2.0), JC),
               (5, 120, 5.1, (0.1,), RABI), (5, 120, 5.1, (0.5,), JC)]


@pytest.mark.parametrize("levels, photons, omega_r, temperatures, model", GIBBS_CASES,
                         ids=[f"{q}x{n}-{model}" for q, n, _, _, model in GIBBS_CASES])
def test_common_bath_temperature_relaxes_to_bare_gibbs(levels, photons, omega_r,
                                                       temperatures, model):
    """With every bath at one temperature T and no drive, the dressed
    generator's steady populations are the Gibbs weights of the bare
    energies: each rate pair is evaluated at +- the bare frequency of its
    jump, so detailed balance holds at those frequencies."""
    for temperature in temperatures:
        config = rabiqed.parse_config(dict(
            README_CONFIG, num_qubit_levels=levels, fock_truncation=photons,
            omega_r_ghz=omega_r, temperature_ghz=temperature, model=model))
        system = config.build()
        gen = assemble(system, mode=DRESSED_ANALYTIC)
        populations = np.diagonal(steady_state(gen)).real
        weights = _bare_gibbs(system, temperature)
        _assert_bare_gibbs(populations, weights)
        if levels * photons == 600:
            assert np.count_nonzero(weights == 0.0) > 200


def test_thermal_state_at_the_bath_temperature_stays_put(tmp_path):
    """evolve --init thermal:T, with every bath at T, keeps every column
    within 1e-12 relative of its initial value over 500 ns."""
    config = tmp_path / "system.json"
    config.write_text(json.dumps(dict(README_CONFIG, temperature_ghz=0.5)))
    out = tmp_path / "thermal.csv"
    assert rabiqed.cli.main(["evolve", "--config", str(config), "--init", "thermal:0.5",
                             "--tmax", "500", "--samples", "51", "--out", str(out)]) == 0
    names, rows = rabiqed.parse_csv(out.read_text())
    for name in names[1:]:
        column = np.array([row[name] for row in rows])
        assert np.all(np.abs(column - column[0]) <= 1e-12 * abs(column[0])), name


def test_steady_state_rejects_degenerate_generators():
    """Pure Hamiltonian evolution has no unique stationary state."""
    gen = LindbladGenerator(np.diag([0.0, 1.0, 2.5]), ())
    with pytest.raises(DegenerateNullSpace):
        steady_state(gen)


@pytest.mark.parametrize("dim", [40, 100])
def test_undamped_diagonal_generator_is_degenerate(dim):
    """Without dissipators every population is a closed class of its own, so
    a diagonal Hamiltonian is DegenerateNullSpace at d = 40 and 100 too."""
    gen = LindbladGenerator(np.diag(0.37 * np.arange(dim)), ())
    with pytest.raises(DegenerateNullSpace):
        steady_state(gen)


@pytest.mark.parametrize("dim", [3, 40, 100])
def test_steady_state_refuses_generators_without_a_population_sector(dim):
    """Pure hopping between the levels has no population sector (and keeps
    every function of the Hamiltonian steady): steady_state raises
    NoPopulationSector, a ValueError, and builds no Liouvillian."""
    hop = 0.5 * (np.eye(dim, k=1) + np.eye(dim, k=-1))
    gen = LindbladGenerator(hop, ())
    assert gen._maps is None
    with pytest.raises(NoPopulationSector):
        steady_state(gen)
    assert issubclass(NoPopulationSector, ValueError) and gen._liouvillian is None


@pytest.mark.parametrize("dim", [2, 3, 40, 100])
def test_steady_state_rejects_closed_coherences(dim):
    """A cyclic shift without a Hamiltonian keeps every circulant density
    matrix steady: its populations have one closed class, but the shift
    carries every equal-energy coherence to another."""
    shift = np.roll(np.eye(dim), 1, axis=0)
    gen = LindbladGenerator(np.zeros((dim, dim)), ((shift, 1.0),))
    circulant = sum(0.1 * (np.roll(np.eye(dim), k, axis=1) + np.roll(np.eye(dim), -k, axis=1))
                    for k in range(1, dim)) + np.eye(dim)
    assert float(np.max(np.abs(gen.apply(circulant)))) < 1e-14
    with pytest.raises(DegenerateNullSpace, match="coherences"):
        steady_state(gen)


def _leads(edges):
    """Transitive closure: leads[i, k] when i leads to k; edges[a, j] is a flow j -> a."""
    leads = np.eye(len(edges), dtype=bool) | edges.T
    for k in range(len(edges)):  # Warshall
        leads |= leads[:, [k]] & leads[[k], :]
    return leads


def _closed_class_count(leads):
    closed = {frozenset(np.flatnonzero(leads[i] & leads[:, i])) for i in range(len(leads))
              if np.all(leads[np.flatnonzero(leads[i])][:, i])}
    return len(closed)


def test_closed_class_root_matches_transitive_closure():
    """The search-forest test agrees with counting closed classes on random
    rate graphs of 1 to 8 states, and its root is led to from every state."""
    rng = np.random.default_rng(7)
    counts = set()
    for _ in range(400):
        d = int(rng.integers(1, 9))
        edges = rng.random((d, d)) < rng.uniform(0.0, 0.5)
        np.fill_diagonal(edges, False)
        leads = _leads(edges)
        count = _closed_class_count(leads)
        counts.add(min(count, 2))
        root = lindblad._closed_class_root(edges)
        assert (root is not None) == (count == 1)
        assert root is None or leads[:, root].all()
    assert counts == {1, 2}


def test_steady_state_rejects_two_closed_classes():
    """Two chains that never meet have a steady state each."""
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])
    zero = np.zeros((2, 2))
    gen = LindbladGenerator(np.diag([0.0, 1.0, 2.3, 3.7]),
                            ((np.block([[lower, zero], [zero, 0.37 * lower]]), 0.3),
                             (np.block([[lower.T, zero], [zero, 0.59 * lower.T]]), 0.7)))
    with pytest.raises(DegenerateNullSpace, match="closed class"):
        steady_state(gen)


def _sparse_lu_steady_state(gen):
    """The oracle for the population solve: SuperLU on the Liouvillian with
    its first row replaced by the trace constraint, normalized and
    symmetrized."""
    d = gen.dim
    liouville = gen.superoperator()
    # ones on the entries of vec(rho) that hold its diagonal
    trace_row = sp.csr_matrix((np.ones(d), np.arange(0, d * d, d + 1), [0, d]),
                              shape=(1, d * d))
    rhs = np.zeros(d * d, dtype=complex)
    rhs[0] = 1.0
    rho = spla.splu(sp.vstack([trace_row, liouville[1:]], format="csc")).solve(rhs)
    rho = rho.reshape(d, d)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def test_open_coherence_chains_leave_one_steady_state():
    """Equal-energy coherences that the jumps carry, step by step, to an
    unequal pair do not survive: a shift |j> -> |j+1> without wrap-around
    leaves the single steady state |d-1><d-1|, as sparse LU finds."""
    dim = 6
    gen = LindbladGenerator(np.zeros((dim, dim)), ((np.eye(dim, k=-1), 1.0),))
    assert lindblad._closed_coherences(gen._maps) == 0
    expected = np.zeros((dim, dim))
    expected[-1, -1] = 1.0
    np.testing.assert_allclose(steady_state(gen), expected, rtol=0, atol=1e-15)
    np.testing.assert_allclose(_sparse_lu_steady_state(gen), expected, rtol=0, atol=1e-12)


def _exact_stationary(flows):
    """W p = 0 with sum p = 1 by Gauss-Jordan elimination in rationals."""
    d = len(flows)
    w = [[Fraction(float(flows[r, c])) for c in range(d)] for r in range(d)]
    for c in range(d):
        w[c][c] = -sum(w[r][c] for r in range(d) if r != c)
    w[0] = [Fraction(1)] * d
    aug = [row + [Fraction(int(r == 0))] for r, row in enumerate(w)]
    for c in range(d):
        pivot = next(r for r in range(c, d) if aug[r][c] != 0)
        aug[c], aug[pivot] = aug[pivot], aug[c]
        for r in range(d):
            if r != c and aug[r][c] != 0:
                f = aug[r][c] / aug[c][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return np.array([float(aug[r][d] / aug[r][r]) for r in range(d)])


def test_stationary_keeps_relative_accuracy():
    """On random rate graphs, banded or not, whose rates span 1e-150 to
    1e150, every population, however small, matches exact rational
    elimination to a few rounding errors."""
    rng = np.random.default_rng(11)
    for _ in range(60):
        d = int(rng.integers(2, 9))
        near = np.abs(np.subtract.outer(np.arange(d), np.arange(d))) <= rng.integers(1, d)
        flows = np.where((rng.random((d, d)) < 0.7) & near,
                         10.0 ** rng.uniform(-150, 150, (d, d)), 0.0)
        np.fill_diagonal(flows, 0.0)
        root = lindblad._closed_class_root(flows > 0.0)
        if root is None:
            continue
        exact = _exact_stationary(flows)
        p = lindblad._stationary(flows, root)
        assert np.all(p >= 0.0)
        np.testing.assert_allclose(p, exact, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("levels, photons", [(3, 5), (5, 8), (5, 20)],
                         ids=["d15", "d40", "d100"])
def test_population_path_matches_sparse_lu(levels, photons):
    """On the README system driven at 4 photons the population solve equals
    sparse LU on the Liouvillian to 1e-12, and builds no Liouvillian."""
    config = rabiqed.parse_config(dict(README_CONFIG, num_qubit_levels=levels,
                                       fock_truncation=photons))
    gen = assemble(config.build(), photons=4.0)
    fast = steady_state(gen)
    assert gen._maps is not None and gen._liouvillian is None
    slow = _sparse_lu_steady_state(gen)
    assert float(np.max(np.abs(fast - slow))) < 1e-12


def test_population_sector_needs_a_diagonal_real_monomial_generator():
    """A non-diagonal Hamiltonian, or a complex, negative or non-monomial
    jump, leaves the generator without a population sector, and
    steady_state refuses it."""
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])
    h = np.diag([0.0, 1.0])
    assert LindbladGenerator(h, ((lower, 1.0), (lower.T, 0.5)))._maps is not None
    for ham, op in ((np.array([[0.0, 0.1], [0.1, 1.0]]), lower),
                    (h, 1j * lower), (h, -lower),
                    (h, np.array([[0.0, 1.0], [0.0, 1.0]])),
                    (h, np.array([[1.0, 1.0], [0.0, 0.0]]))):
        gen = LindbladGenerator(ham, ((op, 1.0), (lower.T, 0.5)))
        assert gen._maps is None
        with pytest.raises(NoPopulationSector):
            steady_state(gen)
    assert assemble(noisy_system(), mode=BARE_PLUS_INTERACTION)._maps is None


def test_steady_state_two_level_populations():
    """Decay at 3 and excitation at 1 settle the populations at (3/4, 1/4)."""
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])
    gen = LindbladGenerator(np.diag([0.0, 1.0]), ((lower, 3.0), (lower.T, 1.0)))
    np.testing.assert_allclose(np.diag(steady_state(gen)).real, [0.75, 0.25], rtol=1e-10)


def test_generator_drops_zero_rate_pairs():
    """A zero-rate pair is gone from the generator, its jump maps and its
    Liouvillian, which equals that of the generator without it."""
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])
    h = np.diag([0.0, 1.0])
    gen = LindbladGenerator(h, ((lower, 3.0), (lower.T, 0.0)))
    assert len(gen.dissipators) == 1 and gen.dissipators[0][1] == 3.0
    np.testing.assert_array_equal(gen._maps.gammas, [RATE * 3.0])
    without = LindbladGenerator(h, ((lower, 3.0),))
    assert (gen.superoperator() != without.superoperator()).nnz == 0


def test_evolve_lands_on_sample_times():
    """Requested sample times are hit exactly and are the only records."""
    system = build_system(baths={"R": SpectralFunction.flat(0.05)})
    gen = assemble(system)
    rho0 = np.zeros((15, 15), dtype=complex)
    rho0[0, 0] = 1.0
    ts = [0.0, 0.7, 1.31, 4.0]
    traj = evolve(gen, rho0, 4.0, sample_times=ts)
    np.testing.assert_allclose(traj.times, ts, rtol=0, atol=1e-12)
    assert len(traj.states) == len(ts)


def test_bare_mode_assembles_a_resonant_system():
    """The bare mode takes only the second-order rates, so a resonant system,
    the regime it is the cross-check for, assembles although its Purcell
    prefactor diverges.  From |0,1> the vacuum Rabi oscillation has moved
    the photon into the qubit by t = 1/(4 g0).  A drive's terms are read
    from the fourth-order ones, so a driven bare generator refuses the
    resonance."""
    system = build_system(detuning=0.0, g0=0.1)
    with pytest.raises(ResonantDivergence):
        assemble(system, mode=BARE_PLUS_INTERACTION, photons=4.0)
    gen = assemble(system, mode=BARE_PLUS_INTERACTION)
    space = ProductSpace(3, 5)
    rho0 = np.zeros((space.dimension, space.dimension), dtype=complex)
    rho0[space.index(0, 1), space.index(0, 1)] = 1.0
    trajectory = evolve(gen, rho0, 2.5, sample_times=[0.0, 2.5])
    assert trajectory.diagonals[-1][space.index(1, 0)].real > 0.99


def test_generators_and_trajectories_compare_by_identity():
    """A generator and a trajectory hold arrays, so each equals and hashes
    as itself only, as an equal one built again does not; both stay frozen."""
    gen, again = assemble(noisy_system()), assemble(noisy_system())
    assert gen == gen and gen != again and gen not in [again] and gen in [again, gen]
    assert len({gen, again, gen}) == 2
    rho0 = np.zeros((gen.dim, gen.dim), dtype=complex)
    rho0[0, 0] = 1.0
    traj, retraced = (evolve(g, rho0, 1.0, sample_times=[0.0, 1.0]) for g in (gen, again))
    assert traj == traj and traj != retraced and len({traj, retraced, traj}) == 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        gen.hamiltonian = np.zeros((gen.dim, gen.dim))
    with pytest.raises(dataclasses.FrozenInstanceError):
        traj.dim = 1


@pytest.mark.parametrize("mode, amplitudes", [
    (DRESSED_ANALYTIC, {(1, 2): 1.0}),
    (DRESSED_ANALYTIC, {(0, 0): 1.0, (1, 0): 1.0}),
    (BARE_PLUS_INTERACTION, {(0, 0): 1.0, (0, 1): 1.0}),
], ids=["dressed-fock", "dressed-coherence", "bare-coherence"])
def test_evolve_matches_dense_propagator(mode, amplitudes):
    """Every sample equals expm(L t) vec(rho0) from the dense Liouvillian."""
    gen = assemble(noisy_system(), mode=mode)
    space = ProductSpace(3, 5)
    psi = np.zeros(15, dtype=complex)
    for (k, n), amplitude in amplitudes.items():
        psi[space.index(k, n)] = amplitude
    psi /= np.linalg.norm(psi)
    rho0 = np.outer(psi, psi.conj())
    ts = [0.0, 0.7, 1.31, 4.0]
    traj = evolve(gen, rho0, 4.0, sample_times=ts)
    dense = gen.superoperator().toarray()
    for t, rho in zip(ts, traj.states):
        reference = (expm(dense * t) @ rho0.reshape(-1)).reshape(15, 15)
        assert float(np.max(np.abs(rho - reference))) < 1e-12


STATES = {
    "dressed-fock": (DRESSED_ANALYTIC, {(1, 2): 1.0}),
    "dressed-coherent": (DRESSED_ANALYTIC, {(0, 0): 1.0, (1, 0): 1.0}),
    "bare-coherence": (BARE_PLUS_INTERACTION, {(0, 0): 1.0, (0, 1): 1.0}),
}


def pure_state(amplitudes, space):
    psi = np.zeros(space.dimension, dtype=complex)
    for (k, n), amplitude in amplitudes.items():
        psi[space.index(k, n)] = amplitude
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def evolve_by_path(monkeypatch, path, gen, rho0, t_max, times):
    """evolve with its uniform-grid choice forced to one path."""
    with monkeypatch.context() as patch:
        if path == "interval-loop":
            patch.setattr(lindblad, "_uniform_step", lambda targets: None)
        else:
            patch.setattr(lindblad, "_PROPAGATOR_COST_RATIO", math.inf)
        return evolve(gen, rho0, t_max, sample_times=times)


@pytest.mark.parametrize("times", [np.linspace(0.0, 4.0, 9), np.linspace(0.7, 4.0, 12)],
                         ids=["from-0", "from-0.7"])
@pytest.mark.parametrize("state", sorted(STATES))
def test_uniform_grid_paths_match_slow_path(monkeypatch, state, times):
    """The propagator path equals the per-interval loop and the dense
    expm(L t) to 1e-12 on evenly spaced grids."""
    mode, amplitudes = STATES[state]
    gen = assemble(noisy_system(), mode=mode)
    rho0 = pure_state(amplitudes, ProductSpace(3, 5))
    dense = gen.superoperator().toarray()
    reference = [(expm(dense * t) @ rho0.reshape(-1)).reshape(15, 15) for t in times]
    loop = evolve_by_path(monkeypatch, "interval-loop", gen, rho0, 4.0, times)
    fast = evolve_by_path(monkeypatch, "propagator", gen, rho0, 4.0, times)
    np.testing.assert_array_equal(fast.times, times)
    for rho, slow, exact in zip(fast.states, loop.states, reference, strict=True):
        assert float(np.max(np.abs(rho - slow))) < 1e-12
        assert float(np.max(np.abs(rho - exact))) < 1e-12


def test_grid_shape_picks_the_propagation_path(monkeypatch):
    """A non-uniform grid is advanced one interval at a time; a uniform one
    forms one propagator unless its block is too large or its dense expm
    would cost more than the per-interval products."""
    gen = assemble(noisy_system())
    rho0 = pure_state(STATES["dressed-coherent"][1], ProductSpace(3, 5))
    calls = []
    real_expm, real_multiply = lindblad._expm, spla.expm_multiply

    def spy_expm(a):
        calls.append("expm")
        return real_expm(a)

    def spy_multiply(a, b, **kwargs):
        calls.append("step")
        return real_multiply(a, b, **kwargs)

    def paths(times):
        calls.clear()
        evolve(gen, rho0, 4.0, sample_times=times)
        return calls

    monkeypatch.setattr(lindblad, "_expm", spy_expm)
    monkeypatch.setattr(spla, "expm_multiply", spy_multiply)
    assert lindblad._uniform_step(np.array([0.0, 0.7, 1.31, 4.0])) is None
    assert paths([0.0, 0.7, 1.31, 4.0]) == ["step"] * 3
    assert paths(np.linspace(1.0, 4.0, 7)) == ["step", "expm"]
    assert paths(np.linspace(0.0, 4.0, 7)) == ["expm"]
    with monkeypatch.context() as patch:
        patch.setattr(lindblad, "_PROPAGATOR_COST_RATIO", 0.0)
        assert paths(np.linspace(0.0, 4.0, 7)) == ["step"] * 6
    with monkeypatch.context() as patch:
        patch.setattr(lindblad, "_MAX_PROPAGATOR_BLOCK", 1)
        assert paths(np.linspace(0.0, 4.0, 7)) == ["step"] * 6


@pytest.mark.parametrize("path", ["interval-loop", "propagator"])
@pytest.mark.parametrize("state", sorted(STATES))
def test_diagonals_are_the_diagonals_of_the_states(monkeypatch, path, state):
    """Trajectory.diagonals has the bits of np.diagonal of every rebuilt
    state, for diagonal and coherent rho0 on both propagation paths."""
    mode, amplitudes = STATES[state]
    gen = assemble(noisy_system(), mode=mode)
    rho0 = pure_state(amplitudes, ProductSpace(3, 5))
    traj = evolve_by_path(monkeypatch, path, gen, rho0, 4.0, np.linspace(0.0, 4.0, 9))
    diagonals = traj.diagonals
    assert diagonals.shape == (9, 15) and diagonals.dtype == complex
    for diagonal, rho in zip(diagonals, traj.states, strict=True):
        assert diagonal.tobytes() == np.diagonal(rho).tobytes()


def test_lazy_states_match_dense_reconstruction():
    """Trajectory.states rebuilds (F + F^dag) / 2 from the reached entries
    under len, indexing, slicing and iteration."""
    gen = assemble(noisy_system())
    rho0 = pure_state(STATES["dressed-coherent"][1], ProductSpace(3, 5))
    traj = evolve(gen, rho0, 4.0, sample_times=np.linspace(0.0, 4.0, 6))
    assert traj.entries.shape == (6, len(traj.reach)) and len(traj.reach) < 15 * 15
    dense = []
    for values in traj.entries:
        full = np.zeros((15, 15), dtype=complex)
        full.flat[traj.reach] = values
        dense.append(0.5 * (full + full.conj().T))
    states = traj.states
    assert len(states) == 6
    for i in (0, 3, -1, -6):
        np.testing.assert_array_equal(states[i], dense[i])
    np.testing.assert_array_equal(traj.final(), dense[-1])
    for picked, expected in ((states[1:4], dense[1:4]), (states[::-2], dense[::-2])):
        assert len(picked) == len(expected)
        for rho, ref in zip(picked, expected):
            np.testing.assert_array_equal(rho, ref)
    for rho, ref in zip(states, dense, strict=True):
        np.testing.assert_array_equal(rho, ref)
    with pytest.raises(IndexError):
        states[6]
    with pytest.raises(TypeError):
        states[0] = dense[0]
    op = embed(None, annihilator(5), ProductSpace(3, 5))
    np.testing.assert_allclose(traj.expectation(op),
                               [np.trace(op @ rho) for rho in dense], rtol=0, atol=1e-15)


def test_import_loads_no_scipy():
    """Importing the package and its CLI loads no SciPy, multiprocessing or
    concurrent.futures module, and every exported name still resolves."""
    code = ("import sys, rabiqed, rabiqed.cli\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] in "
            "('scipy', 'multiprocessing', 'concurrent'))\n"
            "assert not loaded, loaded\n"
            "missing = [n for n in rabiqed.__all__ if not hasattr(rabiqed, n)]\n"
            "assert not missing, missing\n")
    result = _run_python(code)
    assert result.returncode == 0, result.stderr


def test_steady_loads_no_scipy(tmp_path):
    """steady on the README config, the non-finite check of a generator, and
    steady_state refusing a bare_plus_interaction generator load no SciPy
    module; the refusal builds no Liouvillian."""
    config = tmp_path / "readme.json"
    config.write_text(json.dumps(README_CONFIG))
    out = tmp_path / "steady.csv"
    code = ("import sys\n"
            "import numpy as np\n"
            "from rabiqed import (BARE_PLUS_INTERACTION, LindbladGenerator, NoPopulationSector,\n"
            "                     PropagationFailure, assemble, load_config, steady_state)\n"
            "from rabiqed.cli import main\n"
            f"assert main(['steady', '--config', {str(config)!r}, '--photons', '4',\n"
            f"             '--out', {str(out)!r}]) == 0\n"
            "try:\n"
            "    LindbladGenerator(np.diag([0.0, np.nan]), ())\n"
            "    raise AssertionError('a NaN Hamiltonian was accepted')\n"
            "except PropagationFailure:\n"
            "    pass\n"
            f"system = load_config({str(config)!r}).build()\n"
            "gen = assemble(system, mode=BARE_PLUS_INTERACTION)\n"
            "try:\n"
            "    steady_state(gen)\n"
            "    raise AssertionError('a generator without a population sector was solved')\n"
            "except NoPopulationSector:\n"
            "    pass\n"
            "assert gen._liouvillian is None\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n")
    result = _run_python(code)
    assert result.returncode == 0, result.stderr
    assert out.read_text().startswith("pop_q0,")


def test_initial_state_positivity_check(monkeypatch):
    """A diagonal rho0 is checked on its diagonal alone, which refuses an
    entry of -1e-9; a non-diagonal rho0 keeps the eigenvalue test, which
    accepts the coherent state (|0> + e^{0.3i}|1>)/sqrt(2) (x) |0 photons>
    and refuses a matrix with a negative eigenvalue."""
    gen = assemble(noisy_system())
    space = ProductSpace(3, 5)
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a):
        calls.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    diagonal = np.zeros((15, 15), dtype=complex)
    diagonal[0, 0], diagonal[1, 1] = 1.0 + 1e-9, -1e-9
    with pytest.raises(ValueError, match="negative eigenvalue"):
        evolve(gen, diagonal, 1.0, sample_times=[0.0, 1.0])
    diagonal[0, 0], diagonal[1, 1] = 0.75, 0.25
    evolve(gen, diagonal, 1.0, sample_times=[0.0, 1.0])
    assert calls == []
    coherent = pure_state({(0, 0): 1.0, (1, 0): np.exp(0.3j)}, space)
    traj = evolve(gen, coherent, 1.0, sample_times=[0.0, 1.0])
    np.testing.assert_allclose(traj.states[0], coherent, rtol=0, atol=1e-15)
    assert calls == [(15, 15)]
    coherent[space.index(0, 0), space.index(1, 0)] *= 1.5
    coherent[space.index(1, 0), space.index(0, 0)] *= 1.5
    with pytest.raises(ValueError, match="negative eigenvalue"):
        evolve(gen, coherent, 1.0, sample_times=[0.0, 1.0])


def test_diagonal_state_stays_diagonal():
    """Under the dressed generator a diagonal state never gains a coherence."""
    gen = assemble(noisy_system(), mode=DRESSED_ANALYTIC)
    rho0 = np.kron(np.diag([0.2, 0.5, 0.3]), thermal_resonator_state(5, 0.7))
    traj = evolve(gen, rho0, 4.0, sample_times=[0.0, 0.7, 1.31, 4.0])
    for rho in traj.states:
        assert np.count_nonzero(rho - np.diag(np.diag(rho))) == 0


def test_evolve_rejects_unpropagatable_generators():
    """Non-finite or far too fast generators raise PropagationFailure."""
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])
    excited = np.diag([0.0, 1.0]).astype(complex)
    # a non-finite Liouvillian is refused when the generator is built
    with pytest.raises(PropagationFailure):
        LindbladGenerator(np.diag([0.0, math.nan]), ((lower, 1.0),))
    with pytest.raises(PropagationFailure):
        LindbladGenerator(np.diag([0.0, 1.0]), ((lower, math.inf),))
    fast = LindbladGenerator(np.diag([0.0, 1.0]), ((lower, 1e12),))
    with pytest.raises(PropagationFailure):
        evolve(fast, excited, 1.0, sample_times=[1.0])
    # the same rates over a short enough time are fine
    traj = evolve(fast, excited, 1e-9, sample_times=[1e-9])
    np.testing.assert_allclose(np.diag(traj.final()).real,
                               [1.0 - math.exp(-TWO_PI), math.exp(-TWO_PI)], rtol=1e-12)
    assert PropagationFailure in _MATH_ERRORS


def test_evolve_input_validation():
    """Bad initial states, times, and sample windows raise immediately."""
    gen = LindbladGenerator(np.diag([0.0, 1.0]), ())
    good = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        evolve(gen, good, -1.0, sample_times=[0.0])
    with pytest.raises(ValueError):
        evolve(gen, good, math.nan, sample_times=[0.0])
    with pytest.raises(ValueError):
        evolve(gen, good, 1.0, sample_times=[2.0])
    with pytest.raises(ValueError):
        evolve(gen, good, 1.0, sample_times=[-0.5])
    with pytest.raises(DimensionMismatch):
        evolve(gen, np.eye(3) / 3.0, 1.0, sample_times=[1.0])
    with pytest.raises(ValueError):
        evolve(gen, np.array([[0.5, 1.0], [0.0, 0.5]]), 1.0, sample_times=[1.0])
    with pytest.raises(ValueError):
        evolve(gen, 2.0 * good, 1.0, sample_times=[1.0])


def test_evolution_preserves_trace_and_positivity():
    """A noisy evolution keeps unit trace and non-negative spectrum."""
    gen = assemble(noisy_system())
    space = ProductSpace(3, 5)
    psi = np.zeros(15, dtype=complex)
    psi[space.index(0, 0)] = 1.0 / math.sqrt(2.0)
    psi[space.index(1, 1)] = 1.0 / math.sqrt(2.0)
    rho0 = np.outer(psi, psi.conj())
    traj = evolve(gen, rho0, 20.0, sample_times=np.linspace(0.0, 20.0, 9))
    for rho in traj.states:
        np.testing.assert_allclose(np.trace(rho).real, 1.0, rtol=0, atol=1e-10)
        assert float(np.max(np.abs(rho - rho.conj().T))) < 1e-12
        assert float(np.linalg.eigvalsh(rho)[0]) > -1e-8


def test_partial_traces_on_product_state():
    """Partial traces of a product state recover its factors."""
    space = ProductSpace(3, 4)
    rho_q = random_density_matrix(3, seed=9)
    rho_r = random_density_matrix(4, seed=10)
    rho = np.kron(rho_q, rho_r)
    np.testing.assert_allclose(partial_trace_resonator(rho, space), rho_q, atol=1e-14)
    np.testing.assert_allclose(partial_trace_qubit(rho, space), rho_r, atol=1e-14)


def test_partial_traces_on_entangled_state():
    """A maximally entangled pair reduces to maximally mixed factors."""
    space = ProductSpace(2, 2)
    psi = np.zeros(4, dtype=complex)
    psi[space.index(0, 0)] = 1.0 / math.sqrt(2.0)
    psi[space.index(1, 1)] = 1.0 / math.sqrt(2.0)
    rho = np.outer(psi, psi.conj())
    np.testing.assert_allclose(partial_trace_resonator(rho, space), np.eye(2) / 2.0, atol=1e-15)
    np.testing.assert_allclose(partial_trace_qubit(rho, space), np.eye(2) / 2.0, atol=1e-15)
    with pytest.raises(DimensionMismatch):
        partial_trace_qubit(np.eye(3) / 3.0, space)


def test_thermal_resonator_state_geometry():
    """Thermal populations follow the Bose ratio and normalize to one."""
    rho = thermal_resonator_state(8, 0.5)
    p = np.diag(rho).real
    np.testing.assert_allclose(p.sum(), 1.0, rtol=1e-14)
    ratios = p[1:] / p[:-1]
    np.testing.assert_allclose(ratios, (0.5 / 1.5) * np.ones(7), rtol=1e-12)
    vacuum = thermal_resonator_state(4, 0.0)
    np.testing.assert_allclose(np.diag(vacuum).real, [1.0, 0.0, 0.0, 0.0], atol=0.0)
    with pytest.raises(ValueError):
        thermal_resonator_state(4, -0.1)


def test_distinct_is_np_unique():
    """The sorted distinct indices that replace np.unique are its values and
    dtype, empty and repeated inputs included."""
    rng = np.random.default_rng(7)
    for indices in (np.array([], dtype=np.int64), np.array([3]), np.array([5, 5, 5]),
                    rng.integers(0, 50, 200), rng.integers(0, 10**12, 1000)):
        distinct = lindblad._distinct(indices)
        assert distinct.dtype == indices.dtype
        assert np.array_equal(distinct, np.unique(indices))


def test_dressed_hamiltonian_diagonal_entries():
    """Each (k, n) entry is E_k + n w_r + n * pull_k + static_k, summed in
    that order, to the bit."""
    for model in (RABI, JC):
        for omega_r in (5.0, 5.1):
            system = build_system(detuning=1.0, g0=0.1, alpha=0.25, num_levels=3, fock=4,
                                  omega_r=omega_r, model=model)
            h = dressed_hamiltonian(system, model)
            assert np.count_nonzero(h - np.diag(np.diag(h))) == 0
            space = ProductSpace(3, 4)
            h2 = shift_report(system).h2(model)
            for k, n in space.pairs():
                n_coeff, static = h2[k]
                expected = (system.qubit.level_energies[k] + n * omega_r + n * n_coeff
                            + static)
                assert h[space.index(k, n), space.index(k, n)] == expected


def test_assemble_modes_and_terms():
    """The two modes differ in Hamiltonian and in terms: the dressed mode adds
    the fourth-order terms, and a drive appends its qubit terms in either."""
    system = build_system(
        detuning=1.0, num_levels=3, fock=4,
        baths={
            "X": SpectralFunction.flat(0.002, temperature_ghz=0.1),
            "Z": SpectralFunction.flat(0.01, temperature_ghz=0.1),
            "R": SpectralFunction.flat(0.05, temperature_ghz=0.1),
        },
    )
    dressed = assemble(system, mode=DRESSED_ANALYTIC)
    bare = assemble(system, mode=BARE_PLUS_INTERACTION)
    assert np.count_nonzero(dressed.hamiltonian - np.diag(np.diag(dressed.hamiltonian))) == 0
    np.testing.assert_allclose(bare.hamiltonian, build_hamiltonian(
        system.qubit.ladder, system.omega_r, system.resonator.fock_truncation, RABI), rtol=0)
    # 2(N-1)+N+2 = 9 second-order terms, minus the zero-rate level-0 dephasor;
    # the full-dipole fourth order adds 2(N-1) Purcell + 4(N-1) dressed + 2N.
    assert len(bare.dissipators) == 8
    assert len(dressed.dissipators) == 8 + 2 * 6 + 3 * 2
    # the drive adds 2(N-1) decay and excitation terms and N dephasing terms
    for mode, undriven in ((DRESSED_ANALYTIC, dressed), (BARE_PLUS_INTERACTION, bare)):
        driven = assemble(system, mode=mode, photons=4.0)
        assert driven.hamiltonian.tobytes() == undriven.hamiltonian.tobytes()
        assert len(driven.dissipators) == len(undriven.dissipators) + 2 * 2 + 3
        assert ([rate for _, rate in driven.dissipators[:len(undriven.dissipators)]]
                == [rate for _, rate in undriven.dissipators])
    with pytest.raises(ValueError):
        assemble(system, mode="rotating_frame")


def test_realize_terms_drops_zero_rates():
    """Zero-rate dissipators never reach the generator."""
    space = ProductSpace(2, 3)
    terms = [
        DissipatorTerm(sigma_lower(0), 0.0, "second_order"),
        DissipatorTerm(JumpDescriptor(photon="annihilate"), 2.0, "second_order"),
    ]
    pairs = realize_terms(terms, space)
    assert len(pairs) == 1
    (shape, rows, cols, values), rate = pairs[0]
    dense = embed(None, annihilator(3), space)
    assert shape == dense.shape and rate == 2.0
    np.testing.assert_array_equal(np.stack([rows, cols]), np.nonzero(dense))
    np.testing.assert_array_equal(values, dense[rows, cols])


@pytest.mark.parametrize("model", [RABI, JC])
@pytest.mark.parametrize("levels, photons", [(3, 5), (5, 8)], ids=["d15", "d40"])
def test_closed_form_jumps_give_the_dense_generator(levels, photons, model):
    """A generator assembled from the closed-form jump entries equals one
    built from the dense jump_matrix jumps: the same jump maps, and a
    Liouvillian identical entry for entry, on the README system under
    either model, driven at 4 photons and undriven, in both modes."""
    config = rabiqed.parse_config(dict(README_CONFIG, num_qubit_levels=levels,
                                       fock_truncation=photons, model=model))
    system = config.build()
    space = ProductSpace(levels, photons)
    table = rabiqed.build_rate_table(system)
    for photons in (0.0, 4.0):
        extra = rabiqed.driven_effective_rates(table, photons, model)
        for mode in (DRESSED_ANALYTIC, BARE_PLUS_INTERACTION):
            gen = assemble(system, mode=mode, photons=photons)
            fourth = table.fourth(model) if mode == DRESSED_ANALYTIC else ()
            terms = [*table.second_order, *fourth, *extra]
            dense = LindbladGenerator(gen.hamiltonian, tuple(
                (rabiqed.jump_matrix(term.jump, space), term.rate_mhz) for term in terms))
            assert len(gen.dissipators) == len(dense.dissipators)
            if mode == BARE_PLUS_INTERACTION:
                assert gen._maps is None and dense._maps is None
            else:
                for field, expected in zip(gen._maps, dense._maps):
                    assert field.dtype == expected.dtype
                    np.testing.assert_array_equal(field, expected)
            ours, theirs = gen.superoperator(), dense.superoperator()
            for name in ("indptr", "indices", "data"):
                assert getattr(ours, name).tobytes() == getattr(theirs, name).tobytes()


def test_assemble_builds_no_dense_jump():
    """Assembling the d = 600 README generator (omega_r = 5.1 GHz, 5 levels,
    120 photons, driven at 4 photons: 61 jumps) allocates no d x d jump: its
    traced peak stays below 16 MB, where the 61 dense jumps alone take
    176 MB."""
    config = rabiqed.parse_config(dict(README_CONFIG, omega_r_ghz=5.1, num_qubit_levels=5,
                                       fock_truncation=120))
    system = config.build()
    tracemalloc.start()
    try:
        gen = assemble(system, photons=4.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gen.dim == 600 and len(gen.dissipators) == 61
    assert peak < 16 * 2 ** 20


def test_steady_state_builds_no_square_complex_array():
    """The d = 600 README steady state (omega_r = 5.1 GHz, 5 levels, 120
    photons, driven at 4 photons) takes its residual scale a block of
    coherence rows at a time: its traced peak stays at or below 5 d x d
    float64 arrays, where the one d x d complex diagonal and its modulus
    alone take 3."""
    config = rabiqed.parse_config(dict(README_CONFIG, omega_r_ghz=5.1, num_qubit_levels=5,
                                       fock_truncation=120))
    gen = assemble(config.build(), photons=4.0)
    d = gen.dim
    assert d == 600
    assert traced_peak(lambda: steady_state(gen)) <= 5 * 8 * d * d


def test_displacement_identity_reduction():
    """Displacing the photon factor adds |alpha|^2 of the bare qubit dissipator."""
    assert verify_displacement_identity(1.0, 0, (2, 16)) < 1e-12
    assert verify_displacement_identity(0.5 + 0.5j, 0, (3, 12)) < 1e-12
    with pytest.raises(TruncationTooSmall):
        verify_displacement_identity(2.0, 0, (2, 8))
    with pytest.raises(IndexError):
        verify_displacement_identity(0.5, 1, (2, 12))


def _reachable_by_fixed_point(liouville, vec):
    """The reached set by closure: one matrix-vector product over all of
    vec(rho) per reach level, until nothing new is added."""
    pattern = (liouville != 0).astype(float)
    reached = vec != 0
    while True:
        grown = reached | (pattern @ reached.astype(float) > 0)
        if np.array_equal(grown, reached):
            return np.flatnonzero(reached)
        reached = grown


@pytest.mark.parametrize("levels, photons, omega_r, mode, amplitudes, size", [
    (5, 8, 5.0, DRESSED_ANALYTIC, {(1, 0): 1.0}, 40),
    (5, 120, 5.1, DRESSED_ANALYTIC, {(1, 0): 1.0}, 600),
    (3, 5, 5.0, DRESSED_ANALYTIC, {(0, 0): 1.0, (1, 0): 1.0}, 25),
    (4, 6, 5.0, BARE_PLUS_INTERACTION, {(0, 0): 1.0, (1, 0): 1.0}, 576),
], ids=["dressed-fock-40", "dressed-fock-600", "dressed-coherent-15", "bare-coherence-24"])
def test_reachable_search_matches_fixed_point(levels, photons, omega_r, mode,
                                              amplitudes, size):
    """The frontier search reaches the same entries as the fixed-point closure
    on the README system (omega_r as given)."""
    config = rabiqed.parse_config(dict(README_CONFIG, omega_r_ghz=omega_r,
                                       num_qubit_levels=levels, fock_truncation=photons))
    liouville = assemble(config.build(), mode=mode).superoperator()
    vec = pure_state(amplitudes, ProductSpace(levels, photons)).reshape(-1)
    reach = lindblad._reachable(liouville, vec)
    assert len(reach) == size
    np.testing.assert_array_equal(reach, _reachable_by_fixed_point(liouville, vec))


def readme_generator(levels, photons, drive=0.0):
    """The README system at levels x photons, driven at drive mean photons."""
    config = rabiqed.parse_config(dict(README_CONFIG, num_qubit_levels=levels,
                                       fock_truncation=photons))
    return assemble(config.build(), photons=drive)


def readme_state(kind, levels, photons):
    """A Fock, thermal or coherent initial state on levels x photons."""
    space = ProductSpace(levels, photons)
    if kind == "fock":
        return pure_state({(1, 0): 1.0}, space)
    if kind == "thermal":
        qubit = np.exp(-np.arange(levels) * 6.0 / 0.3)
        return np.kron(np.diag(qubit / qubit.sum()), thermal_resonator_state(photons, 0.4))
    return pure_state({(0, 0): 1.0, (1, 0): 1.0, (0, 1): 0.5}, space)


@pytest.mark.parametrize("levels, photons, drive, kind", [
    (3, 5, 0.0, "fock"), (3, 5, 0.0, "thermal"), (3, 5, 0.0, "coherent"),
    (5, 8, 0.0, "fock"), (5, 8, 0.0, "thermal"), (5, 8, 0.0, "coherent"),
    (3, 5, 2.0, "thermal"), (3, 5, 2.0, "coherent"),
], ids=["d15-fock", "d15-thermal", "d15-coherent", "d40-fock", "d40-thermal",
        "d40-coherent", "d15-photons2-thermal", "d15-photons2-coherent"])
def test_sector_block_matches_liouvillian(levels, photons, drive, kind):
    """The reach and block built from the jump maps are _reachable and
    superoperator()[reach][:, reach]: the same indices, and entries within
    1e-15 of the largest; the block is real exactly when only populations
    are reached."""
    gen = readme_generator(levels, photons, drive)
    vec = readme_state(kind, levels, photons).reshape(-1)
    reach, rows, cols, values = lindblad._sector_block(gen._maps, vec)
    assert gen._liouvillian is None
    liouville = gen.superoperator()
    np.testing.assert_array_equal(reach, lindblad._reachable(liouville, vec))
    expected = liouville[reach][:, reach].toarray()
    block = np.zeros(expected.shape, dtype=values.dtype)
    np.add.at(block, (rows, cols), values)
    scale = float(np.max(np.abs(expected)))
    assert float(np.max(np.abs(block - expected))) <= 1e-15 * scale
    populations_only = bool(np.all(reach // gen.dim == reach % gen.dim))
    assert populations_only == (kind != "coherent")
    assert np.isrealobj(values) == populations_only


def _generator_like(n, norm, complex_, rng):
    """A random n x n Markov rate matrix (columns summing to zero), plus -i H
    for a random Hermitian H when complex_, scaled to 1-norm norm: its
    exponential is bounded, so a large norm exercises the squarings, not
    overflow."""
    cycle = np.roll(np.eye(n), 1, axis=0) > 0  # keeps every column nonzero
    rates = rng.exponential(size=(n, n)) * ((rng.random((n, n)) < 0.5) | cycle)
    np.fill_diagonal(rates, 0.0)
    a = rates - np.diag(rates.sum(axis=0))
    if complex_:
        h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = a - 1j * (h + h.conj().T)
    return a * (norm / np.abs(a).sum(axis=0).max())


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_expm_matches_scipy(complex_):
    """_expm agrees with scipy.linalg.expm to 1e-12 of ||exp(A)||_1 in the
    1-norm, in A's own dtype, at 1-norms that pick every Pade degree and up
    to 11 squarings.  The bound, fixed before the code was written: both
    meet unit roundoff u in backward error on the scaled matrix, and s
    squarings of a bounded exponential amplify rounding to about
    2^s u = 2.3e-13 at s = 11, so the two differ by about twice that; the
    bound leaves a further factor of two."""
    thetas = [theta for _, theta in lindblad._PADE]
    norms = [0.5 * thetas[0], *(0.5 * (lo + hi) for lo, hi in zip(thetas, thetas[1:])),
             thetas[-1], 3.0 * thetas[-1], thetas[-1] * 2.0 ** 10.5]
    degrees = {next((m for m, theta in lindblad._PADE if norm <= theta), 13) for norm in norms}
    squarings = max(math.ceil(math.log2(norm / thetas[-1])) for norm in norms)
    assert degrees == {3, 5, 7, 9, 13} and squarings >= 10
    rng = np.random.default_rng(23)
    for norm in norms:
        for n in (2, 7, 30):
            a = _generator_like(n, norm, complex_, rng)
            x, expected = lindblad._expm(a), scipy.linalg.expm(a)
            assert x.dtype == a.dtype
            scale = np.abs(expected).sum(axis=0).max()
            assert np.abs(x - expected).sum(axis=0).max() <= 1e-12 * scale


def test_propagator_overflow_is_a_propagation_failure(monkeypatch):
    """An exponential that overflows gives infinities without a warning
    (warnings fail this suite), and evolve turns a non-finite propagator
    into PropagationFailure."""
    assert np.isinf(lindblad._expm(np.array([[800.0, 0.0], [1.0, 0.0]]))).any()
    real_expm = lindblad._expm
    monkeypatch.setattr(lindblad, "_expm", lambda a: real_expm(-1e6 * a))
    gen = assemble(noisy_system())
    rho0 = np.zeros((15, 15), dtype=complex)
    rho0[5, 5] = 1.0
    with pytest.raises(PropagationFailure, match="propagator"):
        evolve(gen, rho0, 4.0, sample_times=np.linspace(0.0, 4.0, 9))


def test_state_overflow_is_a_propagation_failure(monkeypatch):
    """A finite propagator that carries the state past the float range fails
    the per-sample check, which names the first sample that is not finite.
    The overflow itself warns, as NumPy does, and that warning is silenced
    here so that the check is reached."""
    monkeypatch.setattr(lindblad, "_expm", lambda a: np.full_like(a, 1e300))
    gen = assemble(noisy_system())
    rho0 = np.zeros((15, 15), dtype=complex)
    rho0[5, 5] = 1.0
    with np.errstate(over="ignore"), \
            pytest.raises(PropagationFailure, match=r"not finite at t = 1\.0 ns"):
        evolve(gen, rho0, 4.0, sample_times=np.linspace(0.0, 4.0, 9))


@pytest.mark.parametrize("error", [np.linalg.LinAlgError, ValueError])
def test_failed_propagation_is_a_propagation_failure(monkeypatch, error):
    """A linear-algebra or value error inside propagation becomes
    PropagationFailure over the requested span."""
    def fail(a):
        raise error("no exponential")

    monkeypatch.setattr(lindblad, "_expm", fail)
    gen = assemble(noisy_system())
    rho0 = np.zeros((15, 15), dtype=complex)
    rho0[5, 5] = 1.0
    with pytest.raises(PropagationFailure,
                       match=r"propagation over \[0, 4\.0\] ns failed: no exponential"):
        evolve(gen, rho0, 4.0, sample_times=np.linspace(0.0, 4.0, 9))


def test_steady_state_refuses_a_large_residual(monkeypatch):
    """Populations that leave W p = 0 short by more than 1e-10 of the
    largest rate are refused, not returned."""
    monkeypatch.setattr(lindblad, "_stationary",
                        lambda flows, root: np.full(len(flows), 1.0 / len(flows)))
    with pytest.raises(DegenerateNullSpace, match="steady-state residual"):
        steady_state(assemble(noisy_system()))


def test_dressed_evolve_loads_no_scipy(tmp_path):
    """README evolve, and a library evolve of a dressed superposition, load
    no SciPy module."""
    config = tmp_path / "readme.json"
    config.write_text(json.dumps(README_CONFIG))
    out = tmp_path / "traj.csv"
    code = ("import sys\n"
            "import numpy as np\n"
            "import rabiqed as rq\n"
            "from rabiqed.cli import main\n"
            f"assert main(['evolve', '--config', {str(config)!r}, '--init', 'fock:1:0',\n"
            f"             '--tmax', '500', '--samples', '251', '--out', {str(out)!r}]) == 0\n"
            f"system = rq.load_config({str(config)!r}).build()\n"
            "space = rq.ProductSpace(5, 8)\n"
            "psi = np.zeros(40, dtype=complex)\n"
            "psi[[space.index(0, 0), space.index(1, 0)]] = 2 ** -0.5\n"
            "trajectory = rq.evolve(rq.assemble(system), np.outer(psi, psi.conj()), 2.0,\n"
            "                       sample_times=np.linspace(0.0, 2.0, 101))\n"
            "assert len(trajectory.reach) > 40\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n")
    result = _run_python(code)
    assert result.returncode == 0, result.stderr
    assert out.read_text().startswith("t_ns,")


def test_evolve_keeps_to_the_memory_budget(monkeypatch):
    """Recorded entries beyond MEMORY_BUDGET_BYTES raise MemoryBudgetExceeded
    before they are allocated; so do the dense jumps in assemble, and the
    dense Hamiltonian before any rate is evaluated."""
    gen = assemble(noisy_system())
    rho0 = np.zeros((15, 15), dtype=complex)
    rho0[5, 5] = 1.0
    times = np.linspace(0.0, 4.0, 101)
    monkeypatch.setattr(lindblad, "MEMORY_BUDGET_BYTES", 16 * 101 * 15)
    assert len(evolve(gen, rho0, 4.0, sample_times=times).reach) == 15
    with pytest.raises(rabiqed.MemoryBudgetExceeded, match="recorded states"):
        evolve(gen, rho0, 4.0, sample_times=np.linspace(0.0, 4.0, 102))
    with pytest.raises(rabiqed.MemoryBudgetExceeded, match="jumps"):
        assemble(noisy_system())
    monkeypatch.setattr(lindblad, "MEMORY_BUDGET_BYTES", 8 * 15 ** 2 - 1)
    monkeypatch.setattr(lindblad, "build_rate_table", None)  # a table built is a TypeError
    with pytest.raises(rabiqed.MemoryBudgetExceeded, match="the dense Hamiltonian would"):
        assemble(noisy_system())
