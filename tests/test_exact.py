"""Tests for exact diagonalization, state labeling, and the coupling fit."""

import math
import re
import warnings

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
from rabiqed.model import Ladder, parse_config, transmon_grid
from rabiqed.sweeps import (DETUNING, ExactRow, ShiftRow, exact_rows, format_csv,
                            shift_rows)

from conftest import README_CONFIG, build_system, traced_peak


def exact_args(system):
    """The arguments the exact layer takes for a system before the model:
    its ladder record, omega_r and Fock truncation."""
    return system.qubit.ladder, system.omega_r, system.resonator.fock_truncation


def _required_rows(fock):
    """Flat indices k M + n of the pairs exact_shifts labels."""
    return [k * fock + n for k, n in _REQUIRED_PAIRS]


def _greedy_labeling(spectrum, ladder, omega_r, fock, required=None):
    """The greedy pass that label_dressed_states replaced, kept as its
    oracle: bare states in order of increasing bare energy (ties by flat
    index), each claiming its best-overlap eigenvector among those still
    unclaimed when that overlap exceeds 1/2 + 1e-12; with ``required`` it
    stops after the last required pair and raises AmbiguousLabeling for the
    first unlabeled one.  Reads the full eigenvector matrix."""
    energies = (ladder.energies[:, None] + omega_r * np.arange(fock)).ravel()
    order = np.argsort(energies, kind="stable")
    if required is not None:
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        order = order[:max(rank[k * fock + n] for k, n in required) + 1]
    unclaimed = np.ones(len(energies), dtype=bool)
    labels, overlaps = {}, {}
    for index in order:
        pair = divmod(int(index), fock)
        candidates = np.flatnonzero(unclaimed)
        weights = np.abs(spectrum.eigenvectors[index, candidates]) ** 2
        best = int(np.argmax(weights))
        overlaps[pair] = float(weights[best])
        if overlaps[pair] > 0.5 + 1e-12:
            labels[pair] = int(candidates[best])
            unclaimed[candidates[best]] = False
    for pair in required or ():
        if pair not in labels:
            raise AmbiguousLabeling(pair, overlaps[pair])
    return exact.Labeling(labels=labels, overlaps=overlaps)


def _assert_labels_match_greedy(spectrum, ladder, omega_r, fock):
    """Equal labels, and equal overlaps for every labeled pair, to the bit."""
    labeling = label_dressed_states(spectrum, fock)
    greedy = _greedy_labeling(spectrum, ladder, omega_r, fock)
    assert labeling.labels == greedy.labels
    for pair in greedy.labels:
        assert labeling.overlaps[pair] == greedy.overlaps[pair]
    assert set(labeling.overlaps) == set(greedy.overlaps)


def test_hamiltonian_is_exactly_symmetric():
    """Both interaction models produce a real symmetric matrix, bit for bit."""
    for model in (RABI, JC):
        system = build_system(detuning=1.3, g0=0.12, num_levels=4, fock=7, model=model)
        h = build_hamiltonian(*exact_args(system), model)
        assert np.array_equal(h, h.T)
        assert h.dtype == np.float64


def test_hamiltonian_diagonal_and_coupling_blocks():
    """Diagonal entries are bare energies; the rotating-wave model conserves excitations."""
    system = build_system(detuning=1.0, g0=0.1, alpha=0.25, num_levels=3, fock=4)
    h = build_hamiltonian(*exact_args(system), JC)
    for k, energy in enumerate(system.qubit.level_energies):
        for n in range(4):
            idx = k * 4 + n
            np.testing.assert_allclose(h[idx, idx], energy + 5.0 * n, rtol=1e-15)
    # |0,1> couples to |1,0> with g0 under the rotating-wave model.
    np.testing.assert_allclose(h[0 * 4 + 1, 1 * 4 + 0], 0.1, rtol=0)
    # The counter-rotating element |0,0> <-> |1,1> vanishes for JC, not for Rabi.
    assert h[0 * 4 + 0, 1 * 4 + 1] == 0.0
    h_full = build_hamiltonian(*exact_args(system), RABI)
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
            h = build_hamiltonian(*exact_args(system), model)
            assert h.tobytes() == _kron_hamiltonian(system, model).tobytes()


def test_dimension_cap(monkeypatch):
    """Hilbert spaces beyond the cap are refused before allocation; the cap
    is read when the Hamiltonian is built."""
    system = build_system(num_levels=10, fock=500)
    with pytest.raises(DimensionOverflow):
        build_hamiltonian(*exact_args(system), RABI)
    monkeypatch.setattr(exact, "DIM_CAP", 5000)
    assert build_hamiltonian(*exact_args(system), RABI).shape == (5000, 5000)


@pytest.mark.filterwarnings("error")
def test_overflow_check_bounds_entries_of_any_sign():
    """The overflow pre-check bounds every entry by magnitude, so a raw ladder
    that is not valid (a coupling of -1e308, whose entries -2e308 overflow)
    raises LadderOverflow before any entry is written, with no NumPy
    RuntimeWarning, in build_hamiltonian and in exact_shifts.  So does a
    middle level of 1.5e308 GHz, whose (1, 4) entry 1.9e308 overflows."""
    for energies, couplings, omega_r in (([0.0, 1.0, 2.0], [1.0, -1e308], 1.0),
                                         ([0.0, 1.5e308, 2.0], [1.0, 1.0], 1e307)):
        raw = Ladder.of(energies, couplings, [0.0, 0.0], [0.0, 0.0, 0.0])
        for build in (build_hamiltonian, exact_shifts):
            with pytest.raises(LadderOverflow, match="Hamiltonian overflows float64"):
                build(raw, omega_r, 5, RABI)


needs_binding = pytest.mark.skipif(exact._lapack() is None,
                                   reason="NumPy links no LAPACK that diagonalize binds")


def _wrap_routine(monkeypatch, name, after):
    """Bind the LAPACK routine `name` to a stand-in that runs it and then
    calls after(args), args being the Fortran-style arguments it got."""
    routines = dict(exact._lapack())
    real = routines[name]

    def routine(*args):
        real(*args)
        after(args)

    routines[name] = routine
    monkeypatch.setattr(exact, "_lapack", lambda: routines)


@needs_binding
def test_eigensolver_failure_is_a_convergence_failure(monkeypatch):
    """A positive INFO from dstedc (its convergence failure) reaches the
    caller as ConvergenceFailure with LAPACK's message, through exact_shifts
    too; so does eigh's LinAlgError where the binding is absent."""
    # INFO, by reference, is dstedc's 11th argument
    _wrap_routine(monkeypatch, "dstedc", lambda args: setattr(args[10]._obj, "value", 3))
    with pytest.raises(ConvergenceFailure, match="Eigenvalues did not converge"):
        diagonalize(np.eye(2))
    with pytest.raises(ConvergenceFailure):
        exact_shifts(*exact_args(build_system()), RABI)

    def fail(h):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(exact, "_lapack", lambda: None)
    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(ConvergenceFailure, match="Eigenvalues did not converge"):
        diagonalize(np.eye(2))


@needs_binding
def test_refused_lapack_argument_raises(monkeypatch):
    """A negative INFO (LAPACK refused an argument) raises, naming the
    routine, and returns no spectrum."""
    _wrap_routine(monkeypatch, "dstedc", lambda args: setattr(args[10]._obj, "value", -4))
    with pytest.raises(RuntimeError, match="dstedc refused its argument 4"):
        diagonalize(np.eye(3))


@needs_binding
def test_binding_refuses_arrays_it_cannot_pass():
    """A LAPACK step is handed only writable, C-contiguous arrays of the
    dtype its signature lists, and exactly the arguments it lists."""
    vectors = np.empty(2), np.empty(2), np.empty(2), np.empty(64)
    with pytest.raises(TypeError, match="float64 array, got float32"):
        exact._call("dsytrd", b"L", 2, np.eye(2, dtype=np.float32), 2, *vectors, 64)
    with pytest.raises((TypeError, ValueError)):
        exact._call("dsytrd", b"L", 2, np.eye(4)[::2, ::2], 2, *vectors, 64)
    with pytest.raises(ValueError):
        exact._call("dsytrd", b"L", 2, np.eye(2), 2, *vectors)


def _signed(rows):
    """Eigenvector rows with each column's sign set by its largest-magnitude
    entry among them."""
    return rows * np.sign(rows[np.argmax(np.abs(rows), axis=0), np.arange(rows.shape[1])])


@needs_binding
@pytest.mark.parametrize("d", [1, 2, 3, 15, 25, 26, 40, 80])
@pytest.mark.parametrize("scale", [1.0, 1e155, 1e-160])
def test_eigenvalues_equal_eigh_bit_for_bit(d, scale):
    """On random symmetric matrices the eigenvalues are eigh's to the bit,
    on both sides of dstedc's small-matrix cut (25 | 26) and in both of
    dsyevd's scaling branches (max |entry| near 1e155 and 1e-160, where
    the matrix is scaled once); the rows asked for are eigh's to rounding,
    and h is left as it was.  Only the lower triangle is read, as by eigh:
    with 1e3 times larger, unrelated values in its strict upper triangle h
    still gives eigh's eigenvalues for it, bit for bit, and is left as it
    was."""
    rng = np.random.default_rng(d)
    x = rng.standard_normal((d, d)) * scale
    h = x + x.T
    before = h.copy()
    rows = rng.permutation(d)[:3]
    spectrum = diagonalize(h, rows)
    eigenvalues, vectors = np.linalg.eigh(h)
    assert spectrum.eigenvalues.tobytes() == eigenvalues.tobytes()
    assert np.array_equal(spectrum.rows, rows)
    assert np.abs(_signed(spectrum.eigenvectors) - _signed(vectors[rows])).max() < 1e-13
    assert h.tobytes() == before.tobytes()
    h = np.tril(h) + np.triu(rng.standard_normal((d, d)) * 1e3 * scale, 1)
    before = h.copy()
    eigenvalues = np.linalg.eigh(h).eigenvalues
    assert diagonalize(h, rows).eigenvalues.tobytes() == eigenvalues.tobytes()
    assert h.tobytes() == before.tobytes()


@needs_binding
@pytest.mark.parametrize("d", [2, 3, 26])
@pytest.mark.parametrize("value", [math.inf, -math.inf])
@pytest.mark.parametrize("entry", ["diagonal", "off-diagonal"])
def test_infinite_entry_ends_as_in_eigh(d, value, entry):
    """A matrix with an infinite entry (max-norm scaling factor 0) ends as
    it does in eigh, and as silently: the same all-NaN eigenvalues, bit for
    bit, or ConvergenceFailure where eigh does not converge."""
    rng = np.random.default_rng(d)
    x = rng.standard_normal((d, d))
    h = x + x.T
    i, j = (1, 1) if entry == "diagonal" else (d - 1, 0)
    h[i, j] = h[j, i] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            eigenvalues = np.linalg.eigh(h).eigenvalues
        except np.linalg.LinAlgError:
            with pytest.raises(ConvergenceFailure):
                diagonalize(h, [0])
            return
        assert diagonalize(h, [0]).eigenvalues.tobytes() == eigenvalues.tobytes()


def _readme_ladders(num_levels, detunings):
    """Transmon ladder records of the README config at the given detunings."""
    return [transmon_grid(5.0 + detuning, 0.25, 0.1, num_levels) for detuning in detunings]


README_GRID = np.linspace(-3.0, 3.0, 161)


@needs_binding
@pytest.mark.parametrize("model", [RABI, JC])
@pytest.mark.parametrize("num_levels, fock, detunings",
                         [(5, 8, README_GRID), (10, 60, (-2.2, 0.35, 1.7))],
                         ids=["readme-d40", "ladder-d600"])
def test_hamiltonian_eigenvalues_equal_eigh_bit_for_bit(model, num_levels, fock, detunings):
    """The README Hamiltonians at every point of its 161-point grid, and
    d = 600 ladder Hamiltonians, in both models: the eigenvalues of the
    row-only solve are eigh's, bit for bit, also when H is reduced in place
    and finished as exact_shifts does it."""
    for ladder in _readme_ladders(num_levels, detunings):
        h = build_hamiltonian(ladder, 5.0, fock, model)
        eigenvalues = np.linalg.eigh(h).eigenvalues
        assert diagonalize(h, [0]).eigenvalues.tobytes() == eigenvalues.tobytes()
        solved = exact._finish(h, exact._reduce(h, np.array(_required_rows(fock))))
        assert solved.eigenvalues.tobytes() == eigenvalues.tobytes()


@needs_binding
def test_exact_point_holds_two_square_arrays():
    """A d = 600 exact point (the README ladder at omega_10 = 5.7 GHz, full
    dipole) holds the Hamiltonian, which the solve reduces in place and
    then fills with the tridiagonal eigenvectors, and dstedc's workspace:
    its traced peak stays at or below 2.5 d x d float64 arrays."""
    ladder, = _readme_ladders(10, [0.7])
    d = 600
    assert traced_peak(lambda: exact_shifts(ladder, 5.0, 60, RABI)) <= 2.5 * 8 * d * d


def _labels_or_error(spectrum, fock):
    try:
        return label_dressed_states(spectrum, fock, required=_REQUIRED_PAIRS)
    except AmbiguousLabeling as exc:
        return exc.pair


@pytest.mark.parametrize("model", [RABI, JC])
def test_labels_from_rows_equal_labels_from_eigh(model):
    """Over the README's 161-point grid, the labels exact_shifts takes from
    the rows it asks for are those of eigh's full eigenvector matrix, and
    so is the pair an ambiguous point fails on."""
    for ladder in _readme_ladders(5, README_GRID):
        h = build_hamiltonian(ladder, 5.0, 8, model)
        full = exact.Spectrum(*np.linalg.eigh(h), np.arange(len(h)))
        from_rows = _labels_or_error(diagonalize(h, _required_rows(8)), 8)
        from_eigh = _labels_or_error(full, 8)
        if isinstance(from_eigh, tuple):
            assert from_rows == from_eigh
        else:
            assert from_rows.labels == from_eigh.labels
            for pair, overlap in from_eigh.overlaps.items():
                assert from_rows.overlaps[pair] == pytest.approx(overlap, abs=1e-14)


@pytest.mark.parametrize("model", [RABI, JC])
@pytest.mark.parametrize("num_levels, fock, detunings",
                         [(5, 8, README_GRID), (10, 60, np.linspace(-2.4, 3.0, 13))],
                         ids=["readme-d40", "ladder-d600"])
def test_labels_equal_the_greedy_oracle(model, num_levels, fock, detunings):
    """At every point of the README's 161-point grid and at 13 d = 600
    ladder points, in both models, labeling each bare state by its largest
    overlap gives every label of the greedy pass in bare-energy order, with
    the same overlaps."""
    for ladder in _readme_ladders(num_levels, detunings):
        spectrum = diagonalize(build_hamiltonian(ladder, 5.0, fock, model))
        _assert_labels_match_greedy(spectrum, ladder, 5.0, fock)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(num_levels=st.integers(2, 6), fock=st.integers(2, 12),
       detuning=st.floats(-3.0, 3.0), g0=st.floats(0.0, 0.8),
       omega_r=st.floats(3.0, 8.0), model=st.sampled_from([RABI, JC]), data=st.data())
def test_labels_equal_the_greedy_oracle_on_random_systems(num_levels, fock, detuning, g0,
                                                          omega_r, model, data):
    """On random systems up to g0 = 0.8 the full labeling is the greedy
    one, and a labeling of random required pairs gives the greedy labels or
    raises for the same pair.  A draw whose ladder collapses is rejected."""
    try:
        system = build_system(detuning=detuning, g0=g0, num_levels=num_levels, fock=fock,
                              omega_r=omega_r, model=model)
    except NonPositiveSplitting:
        reject()
    ladder = system.qubit.ladder
    spectrum = diagonalize(build_hamiltonian(ladder, omega_r, fock, model))
    _assert_labels_match_greedy(spectrum, ladder, omega_r, fock)
    required = data.draw(st.lists(st.tuples(st.integers(0, num_levels - 1),
                                            st.integers(0, fock - 1)), min_size=1, max_size=4))
    try:
        greedy = _greedy_labeling(spectrum, ladder, omega_r, fock, required)
    except AmbiguousLabeling as exc:
        with pytest.raises(AmbiguousLabeling) as info:
            label_dressed_states(spectrum, fock, required)
        assert info.value.pair == exc.pair
        return
    labels = label_dressed_states(spectrum, fock, required).labels
    assert labels == {pair: greedy.labels[pair] for pair in required}


@needs_binding
def test_exact_shifts_solves_for_the_three_required_rows(monkeypatch):
    """exact_shifts asks its one reduction, below _LAST_MERGE_DIM and from
    it on, for the rows of (0,0), (0,1) and (1,0) and no other, whatever
    the size."""
    asked = []
    reduce = exact._reduce
    monkeypatch.setattr(exact, "_reduce",
                        lambda a, rows: (asked.append(rows.tolist()), reduce(a, rows))[1])
    for num_levels, fock in ((2, 2), (5, 8), (10, 60)):
        exact_shifts(*exact_args(build_system(num_levels=num_levels, fock=fock)), RABI)
    assert asked == [[0, 1, 2], [0, 1, 8], [0, 1, 60]]


def test_labeling_refuses_a_fock_truncation_that_does_not_divide_d():
    """The product space is d // M x M, so a dimension M does not divide is
    refused instead of labeled as some other space."""
    with pytest.raises(ValueError, match="dimension 12 is not a multiple of the Fock "
                                         "truncation 5"):
        label_dressed_states(diagonalize(np.eye(12)), 5)


def test_labeling_refuses_a_spectrum_without_its_rows():
    """A labeling that would read a row the spectrum does not hold names the
    first such bare state instead of reading another row."""
    system = build_system(detuning=1.0, g0=0.1, num_levels=3, fock=4)
    h = build_hamiltonian(*exact_args(system), RABI)
    with pytest.raises(ValueError, match=re.escape("bare state (0, 2)")):
        label_dressed_states(diagonalize(h, [0, 1, 4]), 4)


@pytest.mark.parametrize("model", [RABI, JC])
def test_fallback_gives_the_same_sweep_bytes(monkeypatch, model):
    """With the LAPACK binding unavailable diagonalize slices eigh's result,
    and the README exact sweep's CSV is the same, byte for byte."""
    config = parse_config(dict(README_CONFIG, model=model))
    bound = format_csv(exact_rows(config, DETUNING, README_GRID), ExactRow)
    solves = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: (solves.append(h), eigh(h))[1])
    monkeypatch.setattr(exact, "_lapack", lambda: None)
    assert format_csv(exact_rows(config, DETUNING, README_GRID), ExactRow) == bound
    assert len(solves) == 161


def _shifts_or_error(ladder, omega_r, fock, model):
    """exact_shifts' result, or the type of what it raised with its
    message, pair and overlap (AmbiguousLabeling) or value and bound
    (PrecisionLoss)."""
    try:
        return exact_shifts(ladder, omega_r, fock, model)
    except (AmbiguousLabeling, PrecisionLoss) as exc:
        return type(exc), str(exc), vars(exc)


def _last_merge_results(monkeypatch):
    """Record what each call of the last-merge solve returns."""
    results = []
    solve = exact._last_merge_energies

    def recorded(*args):
        results.append(solve(*args))
        return results[-1]

    monkeypatch.setattr(exact, "_last_merge_energies", recorded)
    return results


def _assert_solves_agree(monkeypatch, ladder, omega_r, fock, model):
    """The same ExactShifts bits, or the same error, at and above the
    last-merge dimension as through diagonalize's finish and
    label_dressed_states.  Against the route that shares no LAPACK step
    with them (eigh and label_dressed_states, the binding patched away):
    the same ExactShifts bits, or the same error, and for an
    AmbiguousLabeling the same pair."""
    merged = _shifts_or_error(ladder, omega_r, fock, model)
    with monkeypatch.context() as patch:
        patch.setattr(exact, "_LAST_MERGE_DIM", math.inf)
        assert _shifts_or_error(ladder, omega_r, fock, model) == merged
        patch.setattr(exact, "_lapack", lambda: None)
        reference = _shifts_or_error(ladder, omega_r, fock, model)
    if isinstance(merged, tuple) and merged[0] is AmbiguousLabeling:
        assert reference[0] is AmbiguousLabeling
        assert reference[2]["pair"] == merged[2]["pair"]
    else:
        assert reference == merged
    return merged


def _ladder_grid(count):
    """perfbench's ladder detuning grid of variant 0: -3..3 GHz shifted by
    1/20 of its step, so that no point sits on resonance."""
    offset = 0.05 * 6.0 / (count - 1)
    return np.linspace(-3.0 + offset, 3.0 + offset, count)


LADDER_GRIDS = [(RABI, _ladder_grid(81)), (JC, _ladder_grid(41))]


@needs_binding
@pytest.mark.parametrize("model, detunings", LADDER_GRIDS, ids=[RABI, JC])
def test_last_merge_gives_the_shifts_of_diagonalize_on_the_ladder_grids(monkeypatch, model,
                                                                         detunings):
    """On the d = 600 grids of the benchmark's ladder sweeps (81 rabi, 41
    jc points) the last-merge solve labels every point itself, none falls
    back, and the pull and qubit shift are those of diagonalize's finish
    plus label_dressed_states, and those of eigh plus label_dressed_states,
    bit for bit (ExactShifts compares floats with ==, and neither is
    NaN)."""
    results = _last_merge_results(monkeypatch)
    for ladder in _readme_ladders(10, detunings):
        assert isinstance(_assert_solves_agree(monkeypatch, ladder, 5.0, 60, model),
                          exact.ExactShifts)
    assert len(results) == len(detunings)
    assert all(result is not None for result in results)


@needs_binding
@settings(max_examples=100, deadline=None, derandomize=True)
@given(num_levels=st.integers(2, 10), extra=st.integers(0, 160), omega_10=st.floats(3.0, 9.0),
       g0=st.floats(0.0, 1.0), model=st.sampled_from([RABI, JC]))
def test_last_merge_gives_the_shifts_of_diagonalize_on_random_systems(num_levels, extra,
                                                                      omega_10, g0, model):
    """On random ladders with d from the last-merge dimension to 160 above
    it and g0 up to 1 GHz, in both models, the last-merge solve gives the
    same ExactShifts bits as diagonalize's finish plus
    label_dressed_states, or the same exception with the same message, pair
    and overlap (or value and bound); and the ExactShifts bits, or the
    error (for AmbiguousLabeling its pair), of eigh plus
    label_dressed_states."""
    fock = -(-exact._LAST_MERGE_DIM // num_levels) + extra // num_levels
    ladder = transmon_grid(omega_10, 0.25, g0, num_levels)
    with pytest.MonkeyPatch.context() as patch:
        _assert_solves_agree(patch, ladder, 5.0, fock, model)


@needs_binding
def test_block_steps_and_fallbacks_end_as_diagonalize(monkeypatch):
    """A 201-entry block, whose halves dlaed0 would cut otherwise than the
    block (3 x 67 under rabi), is solved by dstedc itself and labeled
    without a fallback, with diagonalize's result.  An ambiguous point (jc
    on resonance at d = 200) falls back, and its AmbiguousLabeling keeps its
    pair, overlap and message.  Below the last-merge dimension that solve
    is not called at all."""
    assert exact._leaves(201) != exact._leaves(100) + exact._leaves(101)
    results = _last_merge_results(monkeypatch)
    ladder, = _readme_ladders(3, [0.7])
    assert isinstance(_assert_solves_agree(monkeypatch, ladder, 5.0, 67, RABI),
                      exact.ExactShifts)
    assert [result is None for result in results] == [False]
    ladder, = _readme_ladders(10, [0.0])
    error, _, fields = _assert_solves_agree(monkeypatch, ladder, 5.0, 20, JC)
    assert error is AmbiguousLabeling and fields["pair"] == (0, 1)
    assert [result is None for result in results] == [False, True]
    monkeypatch.setattr(exact, "_LAST_MERGE_DIM", 601)
    ladder, = _readme_ladders(10, [0.7])
    assert isinstance(_shifts_or_error(ladder, 5.0, 60, RABI), exact.ExactShifts)
    assert len(results) == 2


def _count_steps(monkeypatch):
    """Count exact_shifts' Hamiltonian builds and dsytrd calls."""
    counts = {"build_hamiltonian": 0, "dsytrd": 0}

    def count(name):
        counts[name] += 1

    build = exact.build_hamiltonian
    monkeypatch.setattr(exact, "build_hamiltonian",
                        lambda *args: (count("build_hamiltonian"), build(*args))[1])
    _wrap_routine(monkeypatch, "dsytrd", lambda args: count("dsytrd"))
    return counts


@needs_binding
@pytest.mark.parametrize("num_levels, fock, omega_10, g0, model",
                         [(3, 67, 5.7, 0.1, RABI), (10, 20, 5.0, 0.1, JC),
                          (10, 20, 5.0, 0.3, RABI), (5, 8, 5.7, 0.1, RABI),
                          (10, 60, 5.7, 0.1, JC)],
                         ids=["rabi-3x67", "jc-d200-resonant", "rabi-d200-g0.3",
                              "readme-d40", "ladder-d600"])
def test_each_exact_point_builds_and_reduces_once(monkeypatch, num_levels, fock, omega_10,
                                                  g0, model):
    """Every exact point builds H once and runs dsytrd once: a block that
    the last merge does not take (the 201-entry block of 3 x 67), points
    whose labels miss the margin (on resonance at d = 200, which raise
    AmbiguousLabeling), a README point and a d = 600 ladder point."""
    counts = _count_steps(monkeypatch)
    _shifts_or_error(transmon_grid(omega_10, 0.25, g0, num_levels), 5.0, fock, model)
    assert counts == {"build_hamiltonian": 1, "dsytrd": 1}


@needs_binding
@pytest.mark.parametrize("model, g0", [(JC, 0.1), (RABI, 0.3)])
def test_fallback_finishes_the_reduction_the_block_steps_read(monkeypatch, model, g0):
    """On resonance at d = 200 (nq 10, nr 20) a held block is solved before
    a row misses the margin: under jc dstedc solves the 1-entry block of
    (0,0), then the 2-entry block of (0,1) and (1,0); under rabi at g0 =
    0.3 GHz the last merge labels (0,0) first.  The fallback finishes the
    very reduction, whose d and e the block steps left as dsytrd wrote
    them, and raises eigh's AmbiguousLabeling."""
    reductions, steps = [], []
    reduce, block, finish = exact._reduce, exact._block_energies, exact._finish

    def recorded_reduce(a, rows):
        reduction = reduce(a, rows)
        reductions.append((reduction, reduction[1].tobytes(), reduction[2].tobytes()))
        return reduction

    def checked_finish(a, reduction):
        (reduced, d, e), = reductions
        assert reduction is reduced
        assert reduction[1].tobytes() == d and reduction[2].tobytes() == e
        steps.append("finish")
        return finish(a, reduction)

    ladder = transmon_grid(5.0, 0.25, g0, 10)
    with monkeypatch.context() as patch:
        patch.setattr(exact, "_reduce", recorded_reduce)
        patch.setattr(exact, "_block_energies",
                      lambda *args: (steps.append(block(*args)), steps[-1])[1])
        patch.setattr(exact, "_finish", checked_finish)
        recorded = _shifts_or_error(ladder, 5.0, 20, model)
    solved, fallback = steps[0], steps[-1]
    assert solved[0] is not None and None in steps[-2] and fallback == "finish"
    assert _assert_solves_agree(monkeypatch, ladder, 5.0, 20, model) == recorded
    assert recorded[0] is AmbiguousLabeling and recorded[2]["pair"] == (0, 1)


@needs_binding
def test_last_merge_keeps_the_sweep_bytes(monkeypatch):
    """Short d = 600 exact (jc) and shift (rabi) sweeps give the same CSV
    bytes with the last-merge dimension patched to infinity, so that every
    point goes through diagonalize."""
    config = parse_config(dict(README_CONFIG, num_qubit_levels=10, fock_truncation=60))
    grid = np.linspace(-2.4, 2.6, 4)

    def tables():
        return (format_csv(exact_rows(config, DETUNING, grid, JC), ExactRow),
                format_csv(shift_rows(config, DETUNING, grid), ShiftRow))

    merged = tables()
    monkeypatch.setattr(exact, "_LAST_MERGE_DIM", math.inf)
    assert tables() == merged


def test_single_excitation_block_closed_form():
    """The rotating-wave single-excitation doublet matches the 2x2 eigenvalues."""
    system = build_system(detuning=1.0, g0=0.1, num_levels=2, fock=2, model=JC)
    spectrum = diagonalize(build_hamiltonian(*exact_args(system), JC))
    mean = (5.0 + 6.0) / 2.0
    split = math.hypot(0.5, 0.1)
    expected = np.sort([0.0, mean - split, mean + split, 11.0])
    np.testing.assert_allclose(np.sort(spectrum.eigenvalues), expected, rtol=1e-12, atol=1e-12)


def test_exact_pull_matches_doublet_formula():
    """The labeled pull equals the exact two-level dressed-state expression."""
    system = build_system(detuning=1.0, g0=0.1, num_levels=2, fock=2, model=JC)
    shifts = exact_shifts(*exact_args(system), JC)
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
        exact_shifts(*exact_args(huge), RABI)
    h = build_hamiltonian(*exact_args(huge), RABI)
    assert info.value.bound == 2 * 40 * np.finfo(float).eps * np.abs(h).sum(axis=1).max()
    assert info.value.observable == RESONATOR_PULL
    assert 0.0 < abs(info.value.value) < info.value.bound
    zero = exact_shifts(*exact_args(build_system(g0=0.0, num_levels=3, fock=4)), RABI)
    assert zero.resonator_pull == zero.qubit_shift == 0.0
    small = exact_shifts(*exact_args(build_system(detuning=1.0, g0=1e-5, num_levels=3, fock=4)),
                         RABI)
    assert 1e-11 < abs(small.resonator_pull) < 1e-9


def test_labeling_is_exact_without_coupling():
    """At g = 0 every dressed state is a bare state with unit overlap."""
    system = build_system(g0=0.0, num_levels=3, fock=4)
    spectrum = diagonalize(build_hamiltonian(*exact_args(system), RABI))
    labeling = label_dressed_states(spectrum, 4)
    assert len(labeling.labels) == 12
    for pair, overlap in labeling.overlaps.items():
        np.testing.assert_allclose(overlap, 1.0, rtol=0, atol=1e-12)
    # Index map is a bijection onto the eigenvector columns.
    assert sorted(labeling.labels.values()) == list(range(12))


def test_labeling_dispersive_overlaps_are_large():
    """Well detuned, every dressed state stays close to its bare ancestor."""
    system = build_system(detuning=1.0, g0=0.1, num_levels=3, fock=5)
    spectrum = diagonalize(build_hamiltonian(*exact_args(system), RABI))
    labeling = label_dressed_states(spectrum, 5)
    for pair in ((0, 0), (0, 1), (1, 0), (1, 1)):
        assert labeling.overlaps[pair] > 0.9


def test_labeling_ambiguous_on_resonance():
    """At zero detuning the rotating-wave doublet splits 50/50 and cannot be claimed."""
    system = build_system(detuning=0.0, g0=0.1, num_levels=2, fock=3, model=JC)
    spectrum = diagonalize(build_hamiltonian(*exact_args(system), JC))
    with pytest.raises(AmbiguousLabeling):
        label_dressed_states(spectrum, 3, required=((0, 0), (0, 1), (1, 0)))


@pytest.mark.parametrize("pair", [(5, 0), (3, 0), (0, 4), (0, -1), (-1, 2)])
def test_required_pair_outside_the_space_is_refused(pair):
    """A required pair that is not a state of the nq x nr space is a caller's
    error, named as such before labeling starts, not an AmbiguousLabeling."""
    system = build_system(num_levels=3, fock=4)
    spectrum = diagonalize(build_hamiltonian(*exact_args(system), RABI))
    with pytest.raises(ValueError, match=re.escape(str(pair)) + " .*3 x 4"):
        label_dressed_states(spectrum, 4, required=((0, 0), pair))


def test_required_labeling_labels_only_the_required_pairs():
    """A labeling for (0,0), (0,1) and (1,0) reads and records those three
    pairs and no other, with the labels of the full labeling."""
    system = build_system(detuning=1.0, g0=0.1, num_levels=5, fock=8)
    spectrum = diagonalize(build_hamiltonian(*exact_args(system), RABI))
    partial = label_dressed_states(spectrum, 8, required=_REQUIRED_PAIRS)
    assert set(partial.overlaps) == set(_REQUIRED_PAIRS)
    full = label_dressed_states(spectrum, 8)
    assert len(full.overlaps) == 40
    assert partial.labels.items() <= full.labels.items()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(num_levels=st.integers(2, 6), fock=st.integers(2, 12),
       detuning=st.floats(-3.0, 3.0), g0=st.floats(0.0, 0.8),
       omega_r=st.floats(3.0, 8.0), model=st.sampled_from([RABI, JC]))
def test_required_labeling_agrees_with_the_full_labeling(num_levels, fock, detuning, g0,
                                                         omega_r, model):
    """A labeling of the required pairs is the full labeling restricted to
    them (labels and overlaps), since each label reads only its own row, and
    it raises for the first unlabeled one, with the same overlap.
    A draw whose ladder collapses (omega_r + detuning near 0) builds no
    system and is rejected."""
    try:
        system = build_system(detuning=detuning, g0=g0, num_levels=num_levels, fock=fock,
                              omega_r=omega_r, model=model)
    except NonPositiveSplitting:
        reject()
    spectrum = diagonalize(build_hamiltonian(*exact_args(system), model))
    full = label_dressed_states(spectrum, fock)
    missing = [pair for pair in _REQUIRED_PAIRS if pair not in full.labels]
    try:
        partial = label_dressed_states(spectrum, fock, required=_REQUIRED_PAIRS)
    except AmbiguousLabeling as exc:
        assert missing and exc.pair == missing[0]
        assert exc.overlap == full.overlaps[exc.pair]
        return
    assert not missing
    assert set(_REQUIRED_PAIRS) <= set(partial.overlaps)
    assert partial.labels.items() <= full.labels.items()
    assert partial.overlaps.items() <= full.overlaps.items()


def test_exact_agrees_with_analytic_when_dispersive():
    """Deep in the dispersive regime the second-order pull is accurate to ~g^2/D^2."""
    for model in (RABI, JC):
        for detuning in ((-2.0), 2.0):
            system = build_system(detuning=detuning, g0=0.05, num_levels=3, fock=8,
                                  model=model)
            exact = exact_shifts(*exact_args(system), model)
            report = shift_report(system)
            rel = abs(report.resonator_pull(model) - exact.resonator_pull) / abs(
                exact.resonator_pull
            )
            assert rel < 5e-3


def test_fock_truncation_converged():
    """Growing the photon cutoff from 10 to 14 moves the pull by < 1e-6 GHz."""
    lo = build_system(detuning=1.0, g0=0.1, num_levels=3, fock=10)
    hi = build_system(detuning=1.0, g0=0.1, num_levels=3, fock=14)
    assert abs(exact_shifts(*exact_args(lo), RABI).resonator_pull
               - exact_shifts(*exact_args(hi), RABI).resonator_pull) < 1e-6


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
