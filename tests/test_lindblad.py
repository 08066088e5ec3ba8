"""Tests for the master-equation generator, integrator, and steady state."""

import math
import os
import subprocess
import sys
from pathlib import Path

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
    DRIVEN_EFFECTIVE,
    RABI,
    DegenerateNullSpace,
    DimensionMismatch,
    DissipatorTerm,
    JumpDescriptor,
    LindbladGenerator,
    NegativeRate,
    NonPositiveState,
    ProductSpace,
    PropagationFailure,
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

from conftest import README_CONFIG, build_system

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
        for op, rate in gen.dissipators:
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


def test_steady_state_rejects_degenerate_generators():
    """Pure Hamiltonian evolution has no unique stationary state."""
    gen = LindbladGenerator(np.diag([0.0, 1.0, 2.5]), ())
    with pytest.raises(DegenerateNullSpace):
        steady_state(gen)


@pytest.mark.parametrize("dim", [40, 100])
def test_steady_state_degenerate_beyond_svd_check(dim):
    """Above the SVD-check size a singular factorization is DegenerateNullSpace too."""
    gen = LindbladGenerator(np.diag(0.37 * np.arange(dim)), ())
    with pytest.raises(DegenerateNullSpace):
        steady_state(gen)


def test_steady_state_positivity_check():
    """A steady eigenvalue below -positivity_tol raises NonPositiveState."""
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])
    gen = LindbladGenerator(np.diag([0.0, 1.0]), ((lower, 3.0), (lower.T, 1.0)))
    # populations settle at (3/4, 1/4); a negative tolerance demands more
    np.testing.assert_allclose(np.diag(steady_state(gen, positivity_tol=-0.2)).real,
                               [0.75, 0.25], rtol=1e-10)
    with pytest.raises(NonPositiveState):
        steady_state(gen, positivity_tol=-0.3)
    assert NonPositiveState in _MATH_ERRORS


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
    real_expm, real_multiply = scipy.linalg.expm, spla.expm_multiply

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

    monkeypatch.setattr(scipy.linalg, "expm", spy_expm)
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
    src = str(Path(rabiqed.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


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


def test_dressed_hamiltonian_diagonal_entries():
    """Each (k, n) entry is E_k + n w_r + n * pull_k + static_k."""
    system = build_system(detuning=1.0, g0=0.1, alpha=0.25, num_levels=3, fock=4)
    report = shift_report(system)
    h = dressed_hamiltonian(system, RABI, report)
    assert np.count_nonzero(h - np.diag(np.diag(h))) == 0
    space = ProductSpace(3, 4)
    for k in range(3):
        n_coeff, static = report.h2_rabi[k]
        for n in range(4):
            expected = system.qubit.level_energies[k] + n * 5.0 + n * n_coeff + static
            np.testing.assert_allclose(h[space.index(k, n), space.index(k, n)],
                                       expected, rtol=1e-14)


def test_assemble_modes_and_terms():
    """The two modes differ in Hamiltonian; term lists respect the flags."""
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
    np.testing.assert_allclose(bare.hamiltonian, build_hamiltonian(system), rtol=0)
    # 2(N-1)+N+2 = 9 second-order terms, minus the zero-rate level-0 dephasor;
    # the full-dipole fourth order adds 2(N-1) Purcell + 4(N-1) dressed + 2N.
    assert len(bare.dissipators) == 8
    assert len(dressed.dissipators) == 8 + 2 * 6 + 3 * 2
    second_only = assemble(system, mode=DRESSED_ANALYTIC, include_fourth_order=False)
    assert len(second_only.dissipators) == 8
    extra = DissipatorTerm(sigma_lower(0), 3.0, DRIVEN_EFFECTIVE)
    widened = assemble(system, mode=DRESSED_ANALYTIC, extra_terms=[extra])
    assert len(widened.dissipators) == len(dressed.dissipators) + 1
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
    np.testing.assert_allclose(pairs[0][0], embed(None, annihilator(3), space), rtol=0)
    assert pairs[0][1] == 2.0


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
