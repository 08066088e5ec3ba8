"""Tests for sweep grids, row builders, and CSV serialization."""

import concurrent.futures
import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rabiqed import (
    COUPLING,
    DETUNING,
    FIT_WINDOW_FACTOR,
    JC,
    RABI,
    RESONANCE_WINDOW_FACTOR,
    AmbiguousLabeling,
    ConvergenceFailure,
    ExactRow,
    InvalidSpec,
    PrecisionLoss,
    RateRow,
    ResonantDivergence,
    ResonatorSpec,
    ShiftRow,
    SpectralFunction,
    SweepError,
    SweepRequest,
    SystemConfig,
    SystemSpec,
    TEMPERATURE,
    TransmonSpec,
    all_rows_failed,
    analytic_shift,
    apply_resonance_exclusion,
    columns,
    default_detuning_grid,
    exact_rows,
    format_csv,
    parse_config,
    parse_csv,
    purcell_prefactor,
    rate_rows,
    shift_rows,
    sweeps,
)
import rabiqed.exact
from rabiqed.cli import main
from rabiqed.exact import DIM_CAP

from conftest import build_system, exact_point_rows, no_pool, rate_point_rows, shift_point_rows


def make_config(g0=0.1, num_levels=3, fock=5, model=RABI, temperature=0.0):
    return SystemConfig(
        transmon=TransmonSpec(omega_10=6.0, anharmonicity=0.25, g0=g0,
                              num_levels=num_levels),
        resonator=ResonatorSpec(omega_r=5.0, fock_truncation=fock),
        interaction_model=model,
        baths={
            "X": SpectralFunction.flat(0.002, temperature_ghz=temperature),
            "Z": SpectralFunction.flat(0.01, temperature_ghz=temperature),
            "R": SpectralFunction.flat(0.001, temperature_ghz=temperature),
        },
    )


def test_sweep_request_parse():
    """The VAR:START:STOP:COUNT form round-trips into a request."""
    request = SweepRequest.parse("detuning:-3:3:161")
    assert request.variable == DETUNING
    assert request.count == 161
    np.testing.assert_allclose(request.grid(), np.linspace(-3.0, 3.0, 161), rtol=0)


def test_sweep_request_rejects_malformed_text():
    """Wrong field counts, unknown variables, and bad numbers all fail."""
    for text in ("detuning:-3:3", "detuning:-3:3:161:7", "flux:-3:3:161",
                 "detuning:a:3:161", "detuning:-3:3:many", "detuning:-3:3:1"):
        with pytest.raises(SweepError):
            SweepRequest.parse(text)
    with pytest.raises(SweepError):
        SweepRequest(variable=DETUNING, start=0.0, stop=1.0, count=1)


def test_default_detuning_grid_excludes_resonance():
    """The standard grid removes points inside 3 g0 of zero detuning."""
    grid = default_detuning_grid(0.1)
    assert grid[0] == -3.0 and grid[-1] == 3.0
    assert np.all(np.abs(grid) >= 0.3 - 1e-12)
    assert 0.0 not in grid
    full = default_detuning_grid(0.1, window=0.0)
    assert len(full) == 161
    narrow = default_detuning_grid(0.1, window=FIT_WINDOW_FACTOR * 0.1)
    assert len(narrow) > len(grid)
    assert np.all(np.abs(narrow) >= 0.15 - 1e-12)


def test_apply_resonance_exclusion_variable_scope():
    """Only detuning sweeps get the resonance window carved out."""
    config = make_config(g0=0.1)
    detuning = SweepRequest(DETUNING, -1.0, 1.0, 21)
    kept = apply_resonance_exclusion(detuning, config)
    assert np.all(np.abs(kept) >= RESONANCE_WINDOW_FACTOR * 0.1 - 1e-12)
    assert len(kept) < 21
    assert len(apply_resonance_exclusion(detuning, config, window=0.0)) == 21
    wide = apply_resonance_exclusion(detuning, config, window=0.55)
    assert np.all(np.abs(wide) >= 0.55 - 1e-12)
    coupling = SweepRequest(COUPLING, 0.0, 0.2, 11)
    assert len(apply_resonance_exclusion(coupling, config)) == 11


def test_shift_rows_analytic_columns():
    """Good rows carry the analytic shifts for both models and the exact pull."""
    config = make_config()
    rows = shift_rows(config, DETUNING, [1.0, -1.5])
    assert [row.delta0_ghz for row in rows] == [1.0, -1.5]
    row = rows[0]
    assert row.error == ""
    np.testing.assert_allclose(row.chi0, 0.01, rtol=1e-14)
    np.testing.assert_allclose(row.xi0, 0.01 / 11.0, rtol=1e-14)
    np.testing.assert_allclose(row.chi_tilde0, row.chi0 + row.xi0, rtol=1e-14)
    kwargs = dict(omega_r=5.0, anharmonicity=0.25, num_levels=3)
    np.testing.assert_allclose(
        row.pull_rabi, analytic_shift(1.0, 0.1, RABI, "resonator_pull", **kwargs), rtol=0
    )
    np.testing.assert_allclose(
        row.qshift_jc, analytic_shift(1.0, 0.1, JC, "qubit_shift", **kwargs), rtol=0
    )
    assert np.isfinite(row.exact_pull)
    np.testing.assert_allclose(
        row.err_frac_rabi, (row.pull_rabi - row.exact_pull) / row.exact_pull, rtol=1e-14
    )
    # In the dispersive regime the analytic error is small.
    assert abs(row.err_frac_rabi) < 0.05


def test_shift_rows_error_rows():
    """A resonant point becomes an error row with NaN observables."""
    config = make_config()
    rows = shift_rows(config, DETUNING, [0.0, 1.0])
    assert rows[0].error == "ResonantDivergence"
    assert np.isnan(rows[0].pull_rabi) and np.isnan(rows[0].exact_pull)
    assert rows[1].error == ""
    assert not all_rows_failed(rows)
    assert all_rows_failed(rows[:1])
    assert not all_rows_failed([])


def test_shift_rows_zero_coupling_error_fraction():
    """With g = 0 both prediction and truth vanish; the error fraction is zero."""
    config = make_config(g0=0.0)
    rows = shift_rows(config, DETUNING, [1.0])
    assert rows[0].pull_rabi == 0.0
    assert rows[0].exact_pull == 0.0
    assert rows[0].err_frac_rabi == 0.0
    assert rows[0].err_frac_jc == 0.0


def test_rate_rows_values():
    """Rate rows expose the fourth-order prefactors and the headline rates."""
    config = make_config(temperature=0.1)
    row = rate_rows(config, DETUNING, [1.0])[0]
    system = config.build(detuning=1.0)
    np.testing.assert_allclose(row.p0_rabi, purcell_prefactor(0, system, RABI), rtol=0)
    np.testing.assert_allclose(row.p0_jc, 0.02, rtol=1e-14)
    np.testing.assert_allclose(row.d0, 0.02, rtol=1e-14)
    np.testing.assert_allclose(row.c0_rabi, 0.02 / 121.0, rtol=1e-14)
    cx = system.bath("X")
    np.testing.assert_allclose(row.gamma_down0_mhz, 1e3 * cx.evaluate(6.0), rtol=1e-13)
    np.testing.assert_allclose(row.gamma_up0_mhz, 1e3 * cx.evaluate(-6.0), rtol=1e-13)
    cr = system.bath("R")
    np.testing.assert_allclose(row.kappa_minus_mhz, 1e3 * cr.evaluate(5.0), rtol=1e-13)
    np.testing.assert_allclose(row.kappa_plus_mhz, 1e3 * cr.evaluate(-5.0), rtol=1e-13)
    np.testing.assert_allclose(
        row.purcell_down0_jc_mhz, 1e3 * 0.02 * cr.evaluate(6.0), rtol=1e-13
    )
    # Rate rows keep the full grid; the resonance shows up as an error row.
    resonant = rate_rows(config, DETUNING, [0.0])[0]
    assert resonant.error == "ResonantDivergence"


def test_exact_rows_and_ambiguous_labeling():
    """Exact rows carry the labeled shifts; a 50/50 doublet is an error row."""
    config = make_config(num_levels=2, fock=4, model=JC)
    rows = exact_rows(config, DETUNING, [1.0, 0.0])
    assert rows[0].error == ""
    assert np.isfinite(rows[0].exact_pull)
    assert rows[1].error == "AmbiguousLabeling"
    assert np.isnan(rows[1].exact_pull)


def test_columns_are_pinned():
    """The CSV schema is part of the interface."""
    assert columns(ShiftRow) == [
        "delta0_ghz", "chi0", "xi0", "chi_tilde0", "pull_rabi", "pull_jc",
        "qshift_rabi", "qshift_jc", "exact_pull", "exact_qshift",
        "err_frac_rabi", "err_frac_jc", "error",
    ]
    assert columns(RateRow) == [
        "delta0_ghz", "p0_rabi", "p0_jc", "d0", "c0_rabi", "a0_rabi", "a0_jc",
        "gamma_down0_mhz", "gamma_up0_mhz", "gamma_phi0_mhz",
        "kappa_minus_mhz", "kappa_plus_mhz",
        "purcell_down0_rabi_mhz", "purcell_down0_jc_mhz", "error",
    ]
    assert columns(ExactRow) == ["delta0_ghz", "exact_pull", "exact_qshift", "error"]


def test_csv_round_trip_is_lossless():
    """17 significant digits reproduce every float bit for bit."""
    config = make_config(temperature=0.1)
    rows = shift_rows(config, DETUNING, [0.0, -1.37, 0.8, 2.0])
    text = format_csv(rows, ShiftRow)
    names, parsed = parse_csv(text)
    assert names == columns(ShiftRow)
    assert len(parsed) == len(rows)
    for row, back in zip(rows, parsed):
        for name in names:
            original = getattr(row, name)
            if isinstance(original, str):
                assert back[name] == original
            elif np.isnan(original):
                assert np.isnan(back[name])
            else:
                assert back[name] == original


def test_csv_is_byte_deterministic():
    """Rebuilding the same sweep yields the identical byte stream."""
    config = make_config(temperature=0.1)
    grid = np.linspace(-2.0, 2.0, 7)
    first = format_csv(rate_rows(config, DETUNING, grid), RateRow)
    second = format_csv(rate_rows(config, DETUNING, grid), RateRow)
    assert first == second
    assert first.endswith("\n")
    assert first.count("\n") == 8


def test_parse_csv_rejects_ragged_rows():
    """Rows that disagree with the header are malformed."""
    with pytest.raises(ValueError):
        parse_csv("a,b\n1.0\n")
    with pytest.raises(ValueError):
        parse_csv("")


# The README's example system.
README_CONFIG = {
    "omega_r_ghz": 5.0, "omega_10_ghz": 6.0, "anharmonicity_ghz": 0.25, "g0_ghz": 0.1,
    "num_qubit_levels": 5, "fock_truncation": 8, "model": "rabi", "temperature_ghz": 0.1,
    "bath_X": {"model": "ohmic", "eta": 0.002, "cutoff_ghz": 50.0},
    "bath_Z": {"model": "one_over_f", "amplitude": 1e-6, "ir_floor_ghz": 0.01},
    "bath_R": {"model": "flat", "level": 0.001},
}


# sha256 of format_csv for the README system's shift_rows and exact_rows on
# np.linspace(-3, 3, 161), recorded from the serial row loops.
README_SHIFTS_SHA256 = "ad12484d85bc6a6188e60334cd15205cd14891482eb508cebc9be6692f7ad48c"
README_EXACT_SHA256 = "8dc89d6410be1028f19d122da91fe108ed46b7d1cade7b594850308ba2b5b848"


def _sha256(rows, row_type):
    return hashlib.sha256(format_csv(rows, row_type).encode()).hexdigest()


def _all_finite(row):
    return not row.error and all(math.isfinite(v) for v in vars(row).values()
                                 if isinstance(v, float))


def test_readme_sweep_bytes_are_pinned():
    """The README system's shift and rate sweeps keep their recorded bytes.

    At delta = 0.75 GHz transition 3 sits exactly on the resonator
    (omega_r - omega_{4,3} = 0.0): the shift row, which reads every
    transition, diverges, while the rate row reads only transition 0 and
    level 0 and stays finite.  With 10 levels transition 4 sits on the
    resonator at the configured detuning, and a coupling sweep of rate rows
    stays finite throughout.
    """
    config = parse_config(README_CONFIG)
    grid = np.linspace(-3.0, 3.0, 161)
    shifts = shift_rows(config, DETUNING, grid)
    rates = rate_rows(config, DETUNING, grid)
    assert _sha256(shifts, ShiftRow) == README_SHIFTS_SHA256
    assert _sha256(rates, RateRow) == \
        "a62f32425d7750ad5b6e7005f5b2009a05dba4147f0794a2afeca2ce4a7aa2f1"
    assert grid[100] == 0.75
    assert shifts[100].error == "ResonantDivergence"
    assert _all_finite(rates[100])
    ten = dataclasses.replace(
        config, transmon=dataclasses.replace(config.transmon, num_levels=10))
    system = ten.build()
    assert system.omega_r - system.qubit.splitting(4) == 0.0
    assert all(_all_finite(row) for row in rate_rows(ten, COUPLING,
                                                     np.linspace(0.01, 0.3, 59)))


@pytest.fixture
def pools(monkeypatch):
    """Send every diagonalizing sweep to a pool of two fork workers.

    Yields the list of pools created.  Afterwards each worker has been
    reaped by the sweep itself and no child process is left.
    """
    made = []
    workers = []

    class Recorder(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

        def map(self, *args, **kwargs):
            results = super().map(*args, **kwargs)
            workers.extend(self._processes)
            return results

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    monkeypatch.setattr(sweeps, "_PARALLEL_BREAK_EVEN", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    yield made
    assert len(workers) == sum(pool._max_workers for pool in made)
    for pid in workers:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    assert multiprocessing.active_children() == []


def test_parallel_sweeps_keep_the_pinned_bytes(pools):
    """The README sweeps give the same bytes from two worker processes."""
    config = parse_config(README_CONFIG)
    grid = np.linspace(-3.0, 3.0, 161)
    assert _sha256(shift_rows(config, DETUNING, grid), ShiftRow) == README_SHIFTS_SHA256
    assert _sha256(exact_rows(config, DETUNING, grid), ExactRow) == README_EXACT_SHA256
    assert len(pools) == 2
    assert all(pool._max_workers == 2 for pool in pools)


def test_parallel_sweep_keeps_error_rows_in_order(pools, monkeypatch):
    """Collapsed, resonant and ambiguous points keep their places on a grid
    through resonance, as in the serial loop."""
    config = parse_config(README_CONFIG)
    grid = np.linspace(-5.5, 1.0, 27)
    parallel = (shift_rows(config, DETUNING, grid), exact_rows(config, DETUNING, grid, JC))
    assert len(pools) == 2
    monkeypatch.setattr(sweeps, "_PARALLEL_BREAK_EVEN", math.inf)
    serial = (shift_rows(config, DETUNING, grid), exact_rows(config, DETUNING, grid, JC))
    assert len(pools) == 2
    assert format_csv(parallel[0], ShiftRow) == format_csv(serial[0], ShiftRow)
    assert format_csv(parallel[1], ExactRow) == format_csv(serial[1], ExactRow)
    collapsed = ["NonPositiveSplitting"] * 6
    assert [row.error for row in parallel[0] if row.error] == \
        collapsed + ["ResonantDivergence"] * 4
    assert [i for i, row in enumerate(parallel[0]) if row.error] == [*range(6), *range(22, 26)]
    assert [(i, row.error) for i, row in enumerate(parallel[1]) if row.error] == \
        [*enumerate(collapsed), (22, "AmbiguousLabeling")]


def test_worker_failure_exits_3(pools, monkeypatch, tmp_path, capsys):
    """An eigensolver failure inside a worker ends the command as it would
    in-process: exit 3 and one error line.  The stand-in fails the
    Hamiltonian's reduction, which every exact point runs."""
    def fail(h, *args, **kwargs):
        raise ConvergenceFailure("eigh did not converge")

    monkeypatch.setattr(rabiqed.exact, "_reduce", fail)
    path = tmp_path / "readme.json"
    path.write_text(json.dumps(README_CONFIG))
    capsys.readouterr()
    assert main(["exact", "--config", str(path), "--sweep", "detuning:-3:3:9"]) == 3
    assert capsys.readouterr().err == "error: ConvergenceFailure: eigh did not converge\n"
    assert len(pools) == 1


def test_one_cpu_creates_no_pool(pools, monkeypatch):
    """With one CPU in the affinity mask the sweep runs in-process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    config = parse_config(README_CONFIG)
    rows = exact_rows(config, DETUNING, np.linspace(-3.0, 3.0, 161))
    assert _sha256(rows, ExactRow) == README_EXACT_SHA256
    assert pools == []


def test_cost_test_picks_serial_or_parallel(monkeypatch):
    """README sizes stay serial, d = 600 sweeps use every CPU (at most one
    per point), and points beyond DIM_CAP count as no work."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert sweeps._workers(161, 40) == 1
    assert sweeps._workers(161, 80) == 1
    assert sweeps._workers(81, 600) == 3
    assert sweeps._workers(2, 600) == 2
    assert sweeps._workers(1, 600) == 1
    assert sweeps._workers(10 ** 9, DIM_CAP + 1) == 1


def test_collapsing_ladders_start_no_pool(monkeypatch, tmp_path, capsys):
    """A sweep whose every ladder collapses is no work, however large nq x nr:
    at --nq 500 --nr 8 neither shifts nor exact starts a pool or builds a
    system, and every row is NonPositiveSplitting."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    config = parse_config(dict(README_CONFIG, num_qubit_levels=500, fock_truncation=8))
    grid = np.linspace(-3.0, 3.0, 81)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SystemConfig, "build", no_pool)
        for variable in (DETUNING, COUPLING):
            for sweep in (shift_rows, exact_rows):
                rows = sweep(config, variable, grid if variable == DETUNING else grid + 3.0)
                assert {row.error for row in rows} == {"NonPositiveSplitting"}
    path = tmp_path / "readme.json"
    path.write_text(json.dumps(README_CONFIG))
    for command in ("shifts", "exact"):
        capsys.readouterr()
        assert main([command, "--config", str(path), "--nq", "500", "--nr", "8",
                     "--sweep", "detuning:-3:3:81"]) == 3
        _, rows = parse_csv(capsys.readouterr().out)
        assert {row["error"] for row in rows} == {"NonPositiveSplitting"}


@pytest.mark.parametrize("error, fields", [
    (AmbiguousLabeling((0, 1), 0.4), {"pair": (0, 1), "overlap": 0.4}),
    (ResonantDivergence(0, "co", 1e-9), {"k": 0, "which": "co", "value": 1e-9}),
    (InvalidSpec(("a", "b")), {"errors": ("a", "b")}),
    (PrecisionLoss("resonator_pull", -4.76e139, 1.95e142),
     {"observable": "resonator_pull", "value": -4.76e139, "bound": 1.95e142}),
], ids=["AmbiguousLabeling", "ResonantDivergence", "InvalidSpec", "PrecisionLoss"])
def test_errors_survive_pickling(error, fields):
    """Errors with their own constructors cross a process boundary intact."""
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert {name: getattr(copy, name) for name in fields} == fields
    assert str(copy) == str(error)


def _bits(rows):
    """Each row's values as exact bit patterns (float.hex), error names as is."""
    return [{name: value if isinstance(value, str) else float(value).hex()
             for name, value in vars(row).items()} for row in rows]


def _outcome(build):
    """The rows build() returns, or the type and message of what it raises."""
    try:
        return build()
    except InvalidSpec as exc:
        return type(exc), str(exc)


# Grids that land on what ends a point: with anharmonicity 0.25 a detuning
# grid of step 0.25 puts transition k on the resonator at k * 0.25; with
# omega_r 4e-7 both denominators of transition 0 fall inside the 1e-6
# resonance tolerance; detunings at or below -omega_r, or a large
# anharmonicity, collapse the ladder; omega_10 = 1 (detuning -4 from
# omega_r = 5) with anharmonicity 0.25 - 2^-54 and 6 levels rounds two level
# energies equal although no splitting formula reaches 0, an invalid spec;
# a coupling grid from 0 holds g0 = 0, one through 0 a negative coupling,
# and a temperature grid through 0 a negative temperature.
ROUNDED_EQUAL = 0.24999999999999994
GRIDS = {DETUNING: [(-1.0, 1.0, 9), (-5.5, 1.0, 27), (-6.0, -4.0, 5), (0.4, 3.0, 3),
                    (-1e-6, 1e-6, 5), (1e300, 1e308, 3), (-4.0, 0.0, 5)],
         COUPLING: [(0.0, 0.3, 4), (-0.1, 0.2, 4), (0.2, -0.1, 4), (1e150, 1e200, 3)],
         TEMPERATURE: [(0.0, 2.0, 5), (0.5, -0.5, 3), (1e-3, 1e3, 4)]}


@st.composite
def sweep_cases(draw):
    variable = draw(st.sampled_from(sorted(GRIDS)))
    start, stop, count = draw(st.sampled_from(GRIDS[variable]))
    baths = {label: SpectralFunction.flat(level, temperature_ghz=draw(
        st.sampled_from([0.0, 0.1, 2.0]))) for label, level in
        (("X", 0.002), ("Z", 0.01), ("R", 0.001))}
    if draw(st.booleans()):  # an ohmic X bath, whose huge coupling overflows a rate
        baths["X"] = SpectralFunction.ohmic(draw(st.sampled_from([0.002, 1e306])),
                                            cutoff_ghz=50.0, temperature_ghz=0.1)
    config = SystemConfig(
        transmon=TransmonSpec(omega_10=draw(st.sampled_from([6.0, 5.0, 4e-7])),
                              anharmonicity=draw(st.sampled_from(
                                  [0.25, -0.3, 2.0, 0.0, ROUNDED_EQUAL])),
                              g0=draw(st.sampled_from([0.0, 0.1, 0.37, 1e155])),
                              num_levels=draw(st.integers(2, 6))),
        resonator=ResonatorSpec(omega_r=draw(st.sampled_from([5.0, 4e-7])),
                                fock_truncation=draw(st.integers(2, 4))),
        interaction_model=RABI, baths=baths)
    return config, variable, np.linspace(start, stop, count), draw(st.sampled_from(
        [None, 6, 8, 12]))


def _case(variable, grid, cap=None, **transmon):
    """A sweep case of the README-like config make_config builds."""
    config = make_config(temperature=0.1)
    config = dataclasses.replace(config, transmon=dataclasses.replace(config.transmon,
                                                                      **transmon))
    return config, variable, np.linspace(*grid), cap


@settings(max_examples=300, deadline=None)
@given(case=sweep_cases())
@example(case=_case(DETUNING, (-4.0, 0.0, 5), 8, anharmonicity=ROUNDED_EQUAL,
                    num_levels=6))
@example(case=_case(DETUNING, (0.0, -4.0, 5), 6, anharmonicity=ROUNDED_EQUAL,
                    num_levels=6))
@example(case=_case(COUPLING, (0.3, -0.3, 7), 6))
def test_vectorized_rows_equal_point_by_point_rows(case):
    """Rows from the one-pass sweeps equal rows built point by point from
    the public per-system API (config.build, shift_report, the rate
    lookups, exact_shifts), value bits and error names alike; a sweep that
    reaches an invalid spec raises the same error.  Each case runs under
    both models, and exact_rows in the config's model.  A drawn cap on ladder entries splits the grid into chunks
    of 1 to 6 points."""
    base, variable, grid, cap = case
    for model in (RABI, JC):
        config = dataclasses.replace(base, interaction_model=model)
        with pytest.MonkeyPatch.context() as patch:
            if cap is not None:
                patch.setattr(sweeps, "MAX_LADDER_ENTRIES", cap)
            fast = (_outcome(lambda: shift_rows(config, variable, grid)),
                    _outcome(lambda: rate_rows(config, variable, grid)),
                    _outcome(lambda: exact_rows(config, variable, grid)))
        slow = (_outcome(lambda: shift_point_rows(config, variable, grid)),
                _outcome(lambda: rate_point_rows(config, variable, grid)),
                _outcome(lambda: exact_point_rows(config, variable, grid)))
        for got, expected in zip(fast, slow):
            if isinstance(expected, tuple):
                assert got == expected
            else:
                assert _bits(got) == _bits(expected)


def test_analytic_sweeps_build_no_system_per_point(monkeypatch):
    """No sweep builds a SystemSpec; shift_rows and exact_rows build (and
    diagonalize) a Hamiltonian for each point that the array pass left
    standing, and no other: shift_rows skips the points whose analytic
    columns failed, both skip those whose ladder collapsed."""
    built, solved = [], []
    post_init = SystemSpec.__post_init__
    monkeypatch.setattr(SystemSpec, "__post_init__",
                        lambda self: (built.append(self), post_init(self)))
    build = rabiqed.exact.build_hamiltonian
    monkeypatch.setattr(rabiqed.exact, "build_hamiltonian",
                        lambda *args: (solved.append(args), build(*args))[1])
    config = parse_config(README_CONFIG)
    for variable, values in ((DETUNING, np.linspace(-3.0, 3.0, 161)),
                             (COUPLING, np.linspace(0, 0.3, 31)),
                             (TEMPERATURE, np.linspace(0, 2, 21))):
        rate_rows(config, variable, values)
        assert built == [] and solved == []
    # 161 points: resonant at 0 and 0.75 GHz; 27 points: 6 collapsed ladders,
    # then 4 resonant points
    for values, shifts, exact in ((np.linspace(-3.0, 3.0, 161), 159, 161),
                                  (np.linspace(-5.5, 1.0, 27), 17, 21)):
        for sweep, count in ((shift_rows, shifts), (exact_rows, exact)):
            del built[:], solved[:]
            sweep(config, DETUNING, values)
            assert built == [] and len(solved) == count
