"""Tests for exact diagonalization, state labeling, and the coupling fit."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from rabiqed import (
    JC,
    QUBIT_SHIFT,
    RABI,
    RESONATOR_PULL,
    AmbiguousLabeling,
    ConvergenceFailure,
    DimensionOverflow,
    LadderOverflow,
    NoPhysicalCoupling,
    NonPositiveSplitting,
    PrecisionLoss,
    analytic_shift,
    annihilator,
    build_hamiltonian,
    diagonalize,
    exact_shifts,
    fit_g0,
    fit_residual_curve,
    label_dressed_states,
    number_operator,
    qubit_lower,
    shift_report,
)
from rabiqed import exact
from rabiqed.exact import _REQUIRED_PAIRS

from conftest import build_system, ladder


def bare(system):
    """The arguments label_dressed_states takes after the spectrum."""
    energies, _, omega_r, fock_truncation = ladder(system)
    return energies, omega_r, fock_truncation


def test_hamiltonian_is_exactly_symmetric():
    """Both interaction models produce a real symmetric matrix, bit for bit."""
    for model in (RABI, JC):
        system = build_system(detuning=1.3, g0=0.12, num_levels=4, fock=7, model=model)
        h = build_hamiltonian(*ladder(system), model)
        assert np.array_equal(h, h.T)
        assert h.dtype == np.float64


def test_hamiltonian_diagonal_and_coupling_blocks():
    """Diagonal entries are bare energies; the rotating-wave model conserves excitations."""
    system = build_system(detuning=1.0, g0=0.1, alpha=0.25, num_levels=3, fock=4)
    h = build_hamiltonian(*ladder(system), JC)
    for k, energy in enumerate(system.qubit.level_energies):
        for n in range(4):
            idx = k * 4 + n
            np.testing.assert_allclose(h[idx, idx], energy + 5.0 * n, rtol=1e-15)
    # |0,1> couples to |1,0> with g0 under the rotating-wave model.
    np.testing.assert_allclose(h[0 * 4 + 1, 1 * 4 + 0], 0.1, rtol=0)
    # The counter-rotating element |0,0> <-> |1,1> vanishes for JC, not for Rabi.
    assert h[0 * 4 + 0, 1 * 4 + 1] == 0.0
    h_full = build_hamiltonian(*ladder(system), RABI)
    np.testing.assert_allclose(h_full[0 * 4 + 0, 1 * 4 + 1], 0.1, rtol=0)


def _kron_hamiltonian(system, model):
    """The Kronecker-product construction that build_hamiltonian replaced,
    kept as its oracle: E (x) 1 + 1 (x) omega_r N + H_int from dense factors."""
    q = system.qubit
    n_levels = q.num_levels
    m = system.resonator.fock_truncation
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


@pytest.mark.parametrize("model", [RABI, JC])
@pytest.mark.parametrize("num_levels,fock", [(2, 2), (3, 5), (5, 8), (10, 8), (5, 20),
                                             (10, 60)])
def test_hamiltonian_matches_kronecker_oracle_bit_for_bit(model, num_levels, fock):
    """The Hamiltonian written by index has the bytes of the Kronecker form,
    so eigh, the labels and every exact column are unchanged by it."""
    for g0 in (0.1, 0.6):
        for detuning in (-2.0, -0.6, 0.9, 2.5):
            system = build_system(detuning=detuning, g0=g0, num_levels=num_levels,
                                  fock=fock, model=model)
            h = build_hamiltonian(*ladder(system), model)
            assert h.tobytes() == _kron_hamiltonian(system, model).tobytes()


def test_dimension_cap(monkeypatch):
    """Hilbert spaces beyond the cap are refused before allocation; the cap
    is read when the Hamiltonian is built."""
    system = build_system(num_levels=10, fock=500)
    with pytest.raises(DimensionOverflow):
        build_hamiltonian(*ladder(system), RABI)
    monkeypatch.setattr(exact, "DIM_CAP", 5000)
    assert build_hamiltonian(*ladder(system), RABI).shape == (5000, 5000)


@pytest.mark.filterwarnings("error")
def test_overflow_check_bounds_entries_of_any_sign():
    """The overflow pre-check bounds every entry by magnitude, so a raw ladder
    that is not valid (a coupling of -1e308, whose entries -2e308 overflow)
    raises LadderOverflow before any entry is written, with no NumPy
    RuntimeWarning, in build_hamiltonian and in exact_shifts.  So does a
    middle level of 1.5e308 GHz, whose (1, 4) entry 1.9e308 overflows."""
    for raw in (([0.0, 1.0, 2.0], [1.0, -1e308], 1.0, 5),
                    ([0.0, 1.5e308, 2.0], [1.0, 1.0], 1e307, 5)):
        for build in (build_hamiltonian, exact_shifts):
            with pytest.raises(LadderOverflow, match="Hamiltonian overflows float64"):
                build(*raw, RABI)


def test_eigensolver_failure_is_a_convergence_failure(monkeypatch):
    """A LAPACK failure in eigh reaches the caller as ConvergenceFailure,
    through exact_shifts too, with LAPACK's message."""
    def fail(h):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(ConvergenceFailure, match="Eigenvalues did not converge"):
        diagonalize(np.eye(2))
    with pytest.raises(ConvergenceFailure):
        exact_shifts(*ladder(build_system()), RABI)


def test_single_excitation_block_closed_form():
    """The rotating-wave single-excitation doublet matches the 2x2 eigenvalues."""
    system = build_system(detuning=1.0, g0=0.1, num_levels=2, fock=2, model=JC)
    spectrum = diagonalize(build_hamiltonian(*ladder(system), JC))
    mean = (5.0 + 6.0) / 2.0
    split = math.hypot(0.5, 0.1)
    expected = np.sort([0.0, mean - split, mean + split, 11.0])
    np.testing.assert_allclose(np.sort(spectrum.eigenvalues), expected, rtol=1e-12, atol=1e-12)


def test_exact_pull_matches_doublet_formula():
    """The labeled pull equals the exact two-level dressed-state expression."""
    system = build_system(detuning=1.0, g0=0.1, num_levels=2, fock=2, model=JC)
    shifts = exact_shifts(*ladder(system), JC)
    mean = (5.0 + 6.0) / 2.0
    split = math.hypot(0.5, 0.1)
    np.testing.assert_allclose(shifts.resonator_pull, mean - split - 5.0, rtol=1e-12)
    np.testing.assert_allclose(shifts.qubit_shift, mean + split - 6.0, rtol=1e-12)
    # Second order in g: pull ~ -g^2/detuning.
    np.testing.assert_allclose(shifts.resonator_pull, -0.01, rtol=5e-2)


def test_shifts_below_the_eigensolver_bound_are_precision_loss():
    """A nonzero exact shift smaller than eigh's error bound on it,
    2 d eps max row sum |H|, is rounding noise and raises PrecisionLoss;
    the exact zeros of g0 = 0 stay, and so does a 1e-10 GHz shift well
    above its 1e-13 GHz bound."""
    huge = build_system(detuning=0.0, g0=0.1, num_levels=5, fock=8, omega_r=1e155)
    with pytest.raises(PrecisionLoss) as info:
        exact_shifts(*ladder(huge), RABI)
    h = build_hamiltonian(*ladder(huge), RABI)
    assert info.value.bound == 2 * 40 * np.finfo(float).eps * np.abs(h).sum(axis=1).max()
    assert info.value.observable == RESONATOR_PULL
    assert 0.0 < abs(info.value.value) < info.value.bound
    zero = exact_shifts(*ladder(build_system(g0=0.0, num_levels=3, fock=4)), RABI)
    assert zero.resonator_pull == zero.qubit_shift == 0.0
    small = exact_shifts(*ladder(build_system(detuning=1.0, g0=1e-5, num_levels=3, fock=4)),
                         RABI)
    assert 1e-11 < abs(small.resonator_pull) < 1e-9


def test_labeling_is_exact_without_coupling():
    """At g = 0 every dressed state is a bare state with unit overlap."""
    system = build_system(g0=0.0, num_levels=3, fock=4)
    spectrum = diagonalize(build_hamiltonian(*ladder(system), RABI))
    labeling = label_dressed_states(spectrum, *bare(system))
    assert len(labeling.labels) == 12
    for pair, overlap in labeling.overlaps.items():
        np.testing.assert_allclose(overlap, 1.0, rtol=0, atol=1e-12)
    # Index map is a bijection onto the eigenvector columns.
    assert sorted(labeling.labels.values()) == list(range(12))


def test_labeling_dispersive_overlaps_are_large():
    """Well detuned, every dressed state stays close to its bare ancestor."""
    system = build_system(detuning=1.0, g0=0.1, num_levels=3, fock=5)
    spectrum = diagonalize(build_hamiltonian(*ladder(system), RABI))
    labeling = label_dressed_states(spectrum, *bare(system))
    for pair in ((0, 0), (0, 1), (1, 0), (1, 1)):
        assert labeling.overlaps[pair] > 0.9


def test_labeling_ambiguous_on_resonance():
    """At zero detuning the rotating-wave doublet splits 50/50 and cannot be claimed."""
    system = build_system(detuning=0.0, g0=0.1, num_levels=2, fock=3, model=JC)
    spectrum = diagonalize(build_hamiltonian(*ladder(system), JC))
    with pytest.raises(AmbiguousLabeling):
        label_dressed_states(spectrum, *bare(system), required=((0, 0), (0, 1), (1, 0)))


@pytest.mark.parametrize("pair", [(5, 0), (3, 0), (0, 4), (0, -1), (-1, 2)])
def test_required_pair_outside_the_space_is_refused(pair):
    """A required pair that is not a state of the nq x nr space is a caller's
    error, named as such before labeling starts, not an AmbiguousLabeling."""
    system = build_system(num_levels=3, fock=4)
    spectrum = diagonalize(build_hamiltonian(*ladder(system), RABI))
    with pytest.raises(ValueError, match=re.escape(str(pair)) + " .*3 x 4"):
        label_dressed_states(spectrum, *bare(system), required=((0, 0), pair))


def test_required_labeling_stops_after_the_last_required_pair():
    """With omega_r = 5 and omega_10 = 6, (0,0), (0,1) and (1,0) are the three
    lowest bare states, so a labeling for them processes no other."""
    system = build_system(detuning=1.0, g0=0.1, num_levels=5, fock=8)
    spectrum = diagonalize(build_hamiltonian(*ladder(system), RABI))
    stopped = label_dressed_states(spectrum, *bare(system), required=_REQUIRED_PAIRS)
    assert set(stopped.overlaps) == set(_REQUIRED_PAIRS)
    full = label_dressed_states(spectrum, *bare(system))
    assert len(full.overlaps) == 40
    assert stopped.labels.items() <= full.labels.items()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(num_levels=st.integers(2, 6), fock=st.integers(2, 12),
       detuning=st.floats(-3.0, 3.0), g0=st.floats(0.0, 0.8),
       omega_r=st.floats(3.0, 8.0), model=st.sampled_from([RABI, JC]))
def test_stopped_labeling_agrees_with_the_full_pass(num_levels, fock, detuning, g0,
                                                     omega_r, model):
    """A labeling stopped at the required pairs is the full labeling restricted
    to the pairs it processed (labels and overlaps), and it raises for the
    same pair, with the same overlap, when one of them cannot be claimed.
    A draw whose ladder collapses (omega_r + detuning near 0) builds no
    system and is rejected."""
    try:
        system = build_system(detuning=detuning, g0=g0, num_levels=num_levels, fock=fock,
                              omega_r=omega_r, model=model)
    except NonPositiveSplitting:
        reject()
    spectrum = diagonalize(build_hamiltonian(*ladder(system), model))
    full = label_dressed_states(spectrum, *bare(system))
    missing = [pair for pair in _REQUIRED_PAIRS if pair not in full.labels]
    try:
        stopped = label_dressed_states(spectrum, *bare(system), required=_REQUIRED_PAIRS)
    except AmbiguousLabeling as exc:
        assert missing and exc.pair == missing[0]
        assert exc.overlap == full.overlaps[exc.pair]
        return
    assert not missing
    assert set(_REQUIRED_PAIRS) <= set(stopped.overlaps)
    assert stopped.labels.items() <= full.labels.items()
    assert stopped.overlaps.items() <= full.overlaps.items()


def test_exact_agrees_with_analytic_when_dispersive():
    """Deep in the dispersive regime the second-order pull is accurate to ~g^2/D^2."""
    for model in (RABI, JC):
        for detuning in ((-2.0), 2.0):
            system = build_system(detuning=detuning, g0=0.05, num_levels=3, fock=8,
                                  model=model)
            exact = exact_shifts(*ladder(system), model)
            report = shift_report(system)
            rel = abs(report.resonator_pull(model) - exact.resonator_pull) / abs(
                exact.resonator_pull
            )
            assert rel < 5e-3


def test_fock_truncation_converged():
    """Growing the photon cutoff from 10 to 14 moves the pull by < 1e-6 GHz."""
    lo = build_system(detuning=1.0, g0=0.1, num_levels=3, fock=10)
    hi = build_system(detuning=1.0, g0=0.1, num_levels=3, fock=14)
    assert abs(exact_shifts(*ladder(lo), RABI).resonator_pull
               - exact_shifts(*ladder(hi), RABI).resonator_pull) < 1e-6


def test_analytic_shift_matches_report():
    """The flat helper equals the corresponding ShiftReport entry."""
    system = build_system(detuning=1.0, g0=0.1, alpha=0.25, num_levels=3)
    report = shift_report(system)
    kwargs = dict(omega_r=5.0, anharmonicity=0.25, num_levels=3)
    np.testing.assert_allclose(
        analytic_shift(1.0, 0.1, RABI, RESONATOR_PULL, **kwargs),
        report.resonator_pull_rabi, rtol=0,
    )
    np.testing.assert_allclose(
        analytic_shift(1.0, 0.1, JC, QUBIT_SHIFT, **kwargs),
        report.qubit_shift_jc, rtol=0,
    )
    with pytest.raises(ValueError):
        analytic_shift(1.0, 0.1, RABI, "stark", **kwargs)


def test_fit_recovers_coupling_from_synthetic_data():
    """A fit against noiseless model data returns the generating g0."""
    kwargs = dict(omega_r=5.0, anharmonicity=0.25, num_levels=3)
    grid = np.linspace(-2.5, 2.5, 21)
    grid = grid[np.abs(grid) > 0.4]
    g_true = 0.12
    for model, observable in ((RABI, RESONATOR_PULL), (JC, QUBIT_SHIFT)):
        data = [
            (d, analytic_shift(d, g_true, model, observable, **kwargs)) for d in grid
        ]
        result = fit_g0(data, model, observable, **kwargs)
        np.testing.assert_allclose(result.g0_hat, g_true, rtol=1e-8)
        assert result.residual_sum < 1e-20
        assert result.n_points == len(grid)
        assert result.model == model and result.observable == observable
        assert math.isfinite(result.stderr) and result.stderr >= 0.0


def test_fit_drops_divergent_points():
    """Points sitting on a ladder resonance are excluded before fitting."""
    kwargs = dict(omega_r=5.0, anharmonicity=0.25, num_levels=3)
    grid = [-1.5, -1.0, -0.5, 0.25, 0.5, 1.0, 1.5]
    g_true = 0.1
    data = []
    for d in grid:
        if d == 0.25:
            # The 1-2 transition is resonant here; the observed value is arbitrary.
            data.append((d, -0.01))
        else:
            data.append((d, analytic_shift(d, g_true, RABI, RESONATOR_PULL, **kwargs)))
    result = fit_g0(data, RABI, RESONATOR_PULL, **kwargs)
    assert result.n_points == len(grid) - 1
    np.testing.assert_allclose(result.g0_hat, g_true, rtol=1e-8)


def test_fit_requires_enough_points():
    """Fewer than three usable points cannot constrain the fit."""
    kwargs = dict(omega_r=5.0, anharmonicity=0.0, num_levels=2)
    data = [(1.0, -0.01), (2.0, -0.005)]
    with pytest.raises(ValueError):
        fit_g0(data, RABI, RESONATOR_PULL, **kwargs)


def test_fit_without_physical_coupling_raises():
    """Zero or sign-flipped observations admit no positive g0^2."""
    kwargs = dict(omega_r=5.0, anharmonicity=0.0, num_levels=2)
    grid = (-2.0, -1.0, 1.0, 2.0)
    zero = [(d, 0.0) for d in grid]
    flipped = [(d, -analytic_shift(d, 0.1, RABI, RESONATOR_PULL, **kwargs)) for d in grid]
    for data in (zero, flipped):
        with pytest.raises(NoPhysicalCoupling):
            fit_g0(data, RABI, RESONATOR_PULL, **kwargs)


def test_closed_form_fit_matches_direct_residual():
    """The closed-form minimum, residual and stderr agree with a point-by-point
    residual sum of analytic_shift, the iterative path the closed form replaced."""
    kwargs = dict(omega_r=5.0, anharmonicity=0.25, num_levels=4)
    rng = np.random.default_rng(11)
    # 40 points miss the ladder resonances at 0.25 and 0.5 GHz
    grid = np.linspace(-2.5, 2.5, 40)
    grid = grid[np.abs(grid) > 0.3]
    for model, observable in ((RABI, RESONATOR_PULL), (JC, QUBIT_SHIFT)):
        clean = np.array([analytic_shift(d, 0.1, model, observable, **kwargs)
                          for d in grid])
        noisy = clean * (1.0 + 0.05 * rng.standard_normal(clean.size))
        data = list(zip(grid, noisy))

        def direct(g):
            return sum((analytic_shift(d, g, model, observable, **kwargs) - y) ** 2
                       for d, y in data)

        result = fit_g0(data, model, observable, **kwargs)
        g = result.g0_hat
        s_min = direct(g)
        np.testing.assert_allclose(result.residual_sum, s_min, rtol=1e-12)
        assert result.residual_sum < direct(g * (1.0 + 1e-4))
        assert result.residual_sum < direct(g * (1.0 - 1e-4))
        h = 1e-4 * g
        curvature = (direct(g + h) - 2.0 * s_min + direct(g - h)) / h ** 2
        stderr = math.sqrt(2.0 * s_min / (result.n_points - 1) / curvature)
        np.testing.assert_allclose(result.stderr, stderr, rtol=1e-4)


def test_fit_residual_curve_shape_and_minimum():
    """The residual curve is evaluated on the given grid and dips at g_true."""
    kwargs = dict(omega_r=5.0, anharmonicity=0.25, num_levels=3)
    grid_d = [-2.0, -1.0, 1.0, 2.0]
    data = [(d, analytic_shift(d, 0.1, RABI, RESONATOR_PULL, **kwargs)) for d in grid_d]
    g_grid = np.geomspace(1e-3, 1.0, 31)
    curve = fit_residual_curve(data, RABI, RESONATOR_PULL, grid=g_grid, **kwargs)
    assert curve.shape == g_grid.shape
    assert np.all(curve >= 0.0)
    best = g_grid[np.argmin(curve)]
    assert abs(best - 0.1) < 0.03
