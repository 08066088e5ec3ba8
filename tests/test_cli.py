"""End-to-end tests for the command-line interface."""

import hashlib
import importlib
import json
import math
import re
import shlex
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from rabiqed import (ExactRow, ProductSpace, RateRow, ShiftRow, columns, evolve,
                     load_config, parse_csv, steady_state)
from rabiqed import cli, contract
from rabiqed.cli import main
from rabiqed.sweeps import format_table

from conftest import README_CONFIG, _run_python, rate_fields


@pytest.fixture
def config_path(tmp_path):
    """A small three-level system with all baths active."""
    path = tmp_path / "system.json"
    path.write_text(json.dumps({
        "omega_r_ghz": 5.0,
        "omega_10_ghz": 6.0,
        "anharmonicity_ghz": 0.25,
        "g0_ghz": 0.1,
        "num_qubit_levels": 3,
        "fock_truncation": 5,
        "model": "rabi",
        "temperature_ghz": 0.1,
        "bath_X": {"model": "flat", "level": 0.002},
        "bath_Z": {"model": "flat", "level": 0.01},
        "bath_R": {"model": "flat", "level": 0.001},
    }))
    return str(path)


def read_table(path):
    names, rows = parse_csv(path.read_text())
    return names, rows


def test_shifts_writes_pinned_schema(config_path, tmp_path):
    """The shifts table carries the documented columns and drops the window."""
    out = tmp_path / "shifts.csv"
    code = main(["shifts", "--config", config_path,
                 "--sweep", "detuning:-2:2:9", "--out", str(out)])
    assert code == 0
    names, rows = read_table(out)
    assert names == columns(ShiftRow)
    # The default window 3 g0 = 0.3 GHz removes only the on-resonance point.
    assert [row["delta0_ghz"] for row in rows] == [-2.0, -1.5, -1.0, -0.5,
                                                   0.5, 1.0, 1.5, 2.0]
    for row in rows:
        assert row["error"] == ""
        assert abs(row["err_frac_rabi"]) < 0.2


def test_shifts_window_zero_keeps_resonance(config_path, tmp_path):
    """--window 0 disables the exclusion; the resonant point is an error row."""
    out = tmp_path / "shifts.csv"
    code = main(["shifts", "--config", config_path, "--window", "0",
                 "--sweep", "detuning:-1:1:5", "--out", str(out)])
    assert code == 0
    _, rows = read_table(out)
    assert len(rows) == 5
    middle = rows[2]
    assert middle["delta0_ghz"] == 0.0
    assert middle["error"] == "ResonantDivergence"
    assert isinstance(middle["pull_rabi"], float) and math.isnan(middle["pull_rabi"])


def test_shifts_to_stdout(config_path, capsys):
    """Without --out the CSV lands on stdout."""
    code = main(["shifts", "--config", config_path,
                 "--sweep", "detuning:0.5:1.5:3"])
    assert code == 0
    captured = capsys.readouterr().out
    assert captured.startswith("delta0_ghz,")
    assert captured.count("\n") == 4


def test_output_is_byte_deterministic(config_path, tmp_path):
    """Two identical invocations produce identical bytes."""
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    argv = ["rates", "--config", config_path, "--sweep", "detuning:-2:2:9"]
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_rates_keeps_full_grid(config_path, tmp_path):
    """Rate sweeps include the resonance as an error row, not a gap."""
    out = tmp_path / "rates.csv"
    code = main(["rates", "--config", config_path,
                 "--sweep", "detuning:-1:1:5", "--out", str(out)])
    assert code == 0
    names, rows = read_table(out)
    assert names == columns(RateRow)
    assert len(rows) == 5
    assert rows[2]["error"] == "ResonantDivergence"
    good = rows[-1]
    assert good["error"] == ""
    np.testing.assert_allclose(good["p0_jc"], 0.02, rtol=1e-14)


def test_exact_command(config_path, tmp_path):
    """Exact shifts come out finite on a dispersive sweep."""
    out = tmp_path / "exact.csv"
    code = main(["exact", "--config", config_path,
                 "--sweep", "detuning:0.5:1.5:3", "--out", str(out)])
    assert code == 0
    names, rows = read_table(out)
    assert names == columns(ExactRow)
    assert all(row["error"] == "" for row in rows)
    assert all(math.isfinite(row["exact_pull"]) for row in rows)


def test_config_errors_exit_2(config_path, tmp_path, capsys):
    """Malformed configs, sweeps, and state specs report exit code 2."""
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["shifts", "--config", str(broken)]) == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"omega_r_ghz": 5.0, "omega_q_ghz": 6.0,
                                   "g0_ghz": 0.1, "num_qubit_levels": 3,
                                   "fock_truncation": 5, "omega_10_ghz": 6.0}))
    assert main(["shifts", "--config", str(unknown)]) == 2
    assert main(["shifts", "--config", config_path, "--sweep", "flux:0:1:5"]) == 2
    assert main(["shifts", "--config", config_path, "--sweep", "detuning:0:1:1"]) == 2
    assert main(["shifts", "--config", config_path, "--nq", "1"]) == 2
    assert main(["shifts", "--config", config_path, "--window", "-0.1"]) == 2
    assert main(["shifts", "--config", config_path, "--window", "nan"]) == 2
    assert main(["evolve", "--config", config_path, "--init", "squeezed:2"]) == 2
    assert main(["evolve", "--config", config_path, "--init", "fock:7:0"]) == 2
    assert main(["evolve", "--config", config_path, "--tmax", "nan"]) == 2
    assert main(["evolve", "--config", config_path, "--tmax", "inf"]) == 2
    assert main(["evolve", "--config", config_path, "--init", "thermal:nan"]) == 2
    assert main(["evolve", "--config", config_path, "--init", "thermal:inf"]) == 2
    assert main(["steady", "--config", config_path, "--photons", "nan"]) == 2
    assert main(["shifts", "--config", config_path, "--sweep", "coupling:inf:1:3"]) == 2
    assert main(["shifts", "--config", config_path, "--sweep", "temperature:nan:1:3"]) == 2
    # Configs whose fields a spec constructor refuses: a negative resonator
    # frequency, a negative coupling, and a negative resonator frequency in a
    # config whose base ladder collapses (omega_21 = 6 - 10 GHz).
    with open(config_path) as handle:
        base = json.load(handle)
    for name, command, patch in (
            ("omega_r", ["rates"], {"omega_r_ghz": -5.0}),
            ("g0", ["shifts"], {"g0_ghz": -0.1}),
            ("collapsed", ["shifts", "--nq", "3", "--nr", "5",
                           "--sweep", "detuning:20:25:3"],
             {"omega_r_ghz": -5.0, "anharmonicity_ghz": 10.0})):
        invalid = tmp_path / f"invalid_{name}.json"
        invalid.write_text(json.dumps(dict(base, **patch)))
        capsys.readouterr()
        assert main([command[0], "--config", str(invalid), *command[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    # A window wider than the sweep leaves nothing to compute.
    assert main(["shifts", "--config", config_path,
                 "--sweep", "detuning:-0.1:0.1:3"]) == 2
    # --sweep and --window choose the points fit computes, not those of --data.
    data = tmp_path / "exact.csv"
    data.write_text("delta0_ghz,exact_pull,exact_qshift,error\n1,0.01,0.01,\n")
    for option in (["--sweep", "flux:0:1:3"], ["--window", "100"]):
        capsys.readouterr()
        assert main(["fit", "--config", config_path, "--data", str(data), *option]) == 2
        assert _one_error_line(capsys)
    capsys.readouterr()


def test_io_errors_exit_4(config_path, tmp_path, capsys):
    """Unreadable inputs and unwritable outputs report exit code 4."""
    assert main(["shifts", "--config", str(tmp_path / "absent.json")]) == 4
    missing_dir = tmp_path / "no" / "such" / "dir" / "out.csv"
    assert main(["shifts", "--config", config_path,
                 "--sweep", "detuning:0.5:1.5:3", "--out", str(missing_dir)]) == 4
    assert main(["plot", str(tmp_path / "absent.csv")]) == 4
    capsys.readouterr()


def test_all_rows_failed_exit_3(config_path, tmp_path, capsys):
    """A sweep where every point diverges is a math failure."""
    assert main(["shifts", "--config", config_path, "--window", "0",
                 "--sweep", "detuning:0:0:2",
                 "--out", str(tmp_path / "x.csv")]) == 3
    assert main(["exact", "--config", config_path, "--model", "jc",
                 "--nq", "2", "--sweep", "detuning:0:0:2",
                 "--out", str(tmp_path / "y.csv")]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("photons", ["1e200", "1e308"])
def test_huge_drive_photon_numbers_exit_3(config_path, capsys, photons):
    """Drive rates too fast to propagate end in PropagationFailure, exit 3."""
    capsys.readouterr()
    assert main(["evolve", "--config", config_path, "--photons", photons,
                 "--nq", "3", "--nr", "5", "--tmax", "1", "--samples", "3"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: PropagationFailure: ") and err.count("\n") == 1


def test_evolve_ground_state(config_path, tmp_path):
    """Starting from the joint ground state, the trace stays one."""
    out = tmp_path / "evolve.csv"
    code = main(["evolve", "--config", config_path, "--tmax", "2.0",
                 "--samples", "5", "--out", str(out)])
    assert code == 0
    names, rows = read_table(out)
    assert names == ["t_ns", "pop_q0", "pop_q1", "pop_q2", "nbar", "trace"]
    assert len(rows) == 5
    np.testing.assert_allclose([row["t_ns"] for row in rows],
                               np.linspace(0.0, 2.0, 5), atol=1e-12)
    for row in rows:
        np.testing.assert_allclose(row["trace"], 1.0, atol=1e-9)
        assert row["pop_q0"] > 0.99


def test_evolve_fock_initial_state(config_path, tmp_path):
    """--init fock:K:N starts in the chosen product state."""
    out = tmp_path / "evolve.csv"
    code = main(["evolve", "--config", config_path, "--tmax", "1.0",
                 "--samples", "3", "--init", "fock:1:1", "--out", str(out)])
    assert code == 0
    _, rows = read_table(out)
    np.testing.assert_allclose(rows[0]["pop_q1"], 1.0, atol=1e-12)
    np.testing.assert_allclose(rows[0]["nbar"], 1.0, atol=1e-12)


def test_evolve_thermal_initial_state(config_path, tmp_path):
    """--init thermal:T populates the qubit ladder with Boltzmann weights."""
    out = tmp_path / "evolve.csv"
    code = main(["evolve", "--config", config_path, "--tmax", "0.5",
                 "--samples", "2", "--init", "thermal:0.3", "--out", str(out)])
    assert code == 0
    _, rows = read_table(out)
    ratio = rows[0]["pop_q1"] / rows[0]["pop_q0"]
    np.testing.assert_allclose(ratio, math.exp(-6.0 / 0.3), rtol=1e-6)


def test_evolve_with_drive_photons(config_path, tmp_path):
    """--photons adds the drive-induced channels without breaking the run."""
    out = tmp_path / "evolve.csv"
    code = main(["evolve", "--config", config_path, "--tmax", "1.0",
                 "--samples", "3", "--photons", "2", "--out", str(out)])
    assert code == 0
    assert main(["evolve", "--config", config_path, "--photons", "-1"]) == 2


def _summary_from_states(config_path, init, tmax, samples, photons):
    """The evolve table computed from every rebuilt d x d state: the diagonal
    of Trajectory.states, and the trace of each state."""
    config = load_config(config_path)
    system, gen = cli._generator(config, photons)
    space = ProductSpace(system.qubit.num_levels, system.resonator.fock_truncation)
    rho0 = cli._initial_state(init, system, space)
    trajectory = evolve(gen, rho0, tmax, sample_times=np.linspace(0.0, tmax, samples))
    rows = []
    for t, rho in zip(trajectory.times, trajectory.states):
        diagonal = np.real(np.diagonal(rho)).reshape(space.qubit_dim, space.fock_dim)
        row = {"t_ns": float(t)}
        row.update({f"pop_q{k}": float(p) for k, p in enumerate(diagonal.sum(axis=1))})
        row["nbar"] = float(diagonal.sum(axis=0) @ np.arange(space.fock_dim))
        row["trace"] = float(np.real(np.trace(rho)))
        rows.append(row)
    names = (["t_ns"] + [f"pop_q{k}" for k in range(space.qubit_dim)]
             + ["nbar", "trace"])
    return format_table(names, rows)


@pytest.mark.parametrize("init, tmax, samples, photons", [
    ("fock:1:0", 500.0, 251, 0.0), ("thermal:0.3", 50.0, 101, 2.0),
    ("fock:2:3", 50.0, 41, 0.0),
], ids=["readme", "thermal-driven", "fock-2-3"])
def test_evolve_summary_matches_the_state_rebuild(tmp_path, init, tmax, samples, photons):
    """The evolve table, read from the reached populations, equals byte for
    byte the one read off every rebuilt density matrix, on the README config.
    The trace column keeps its last bits only when the populations are
    summed in the order of np.trace: fock:2:3 tells the two apart."""
    path = tmp_path / "readme.json"
    path.write_text(json.dumps(README_CONFIG))
    out = tmp_path / "evolve.csv"
    assert main(["evolve", "--config", str(path), "--init", init, "--tmax", str(tmax),
                 "--samples", str(samples), "--photons", str(photons),
                 "--out", str(out)]) == 0
    assert out.read_text() == _summary_from_states(str(path), init, tmax, samples, photons)


def test_steady_state_summary(config_path, tmp_path):
    """The steady-state row is a normalized, physical summary of the steady
    populations p: purity is p @ p and nbar_resonator is nbar, exactly."""
    out = tmp_path / "steady.csv"
    code = main(["steady", "--config", config_path, "--out", str(out)])
    assert code == 0
    names, rows = read_table(out)
    assert names == ["pop_q0", "pop_q1", "pop_q2", "nbar", "purity",
                     "nbar_resonator"]
    row = rows[0]
    total = row["pop_q0"] + row["pop_q1"] + row["pop_q2"]
    np.testing.assert_allclose(total, 1.0, atol=1e-9)
    assert 0.0 < row["purity"] <= 1.0 + 1e-9
    _, gen = cli._generator(load_config(config_path), 0.0)
    p = np.diagonal(steady_state(gen)).real
    assert row["purity"] == float(p @ p)
    assert row["nbar_resonator"] == row["nbar"]


@pytest.mark.parametrize("nq, nr, nbar", [(2, 3, 7.46537901448845e-10),
                                           (3, 5, 7.484859614997278e-10)])
def test_steady_under_a_huge_drive(tmp_path, capsys, nq, nr, nbar):
    """At 1e200 drive photons the generator's rates span some 200 orders of
    magnitude, and its slow photon sector is not a second steady state:
    steady passes its residual check and writes the table.
    The expected nbar is the exact solution of the same rate equations, by
    elimination in rational arithmetic."""
    path = tmp_path / "readme.json"
    path.write_text(json.dumps(README_CONFIG))
    out = tmp_path / "steady.csv"
    capsys.readouterr()
    assert main(["steady", "--config", str(path), "--nq", str(nq), "--nr", str(nr),
                 "--photons", "1e200", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    names, rows = read_table(out)
    populations = [rows[0][f"pop_q{k}"] for k in range(nq)]
    np.testing.assert_allclose(sum(populations), 1.0, rtol=0, atol=1e-12)
    assert min(populations) > 0.0
    np.testing.assert_allclose(rows[0]["nbar"], nbar, rtol=1e-13)


def test_fit_pipeline_from_data_file(config_path, tmp_path):
    """exact -> fit --data recovers the configured coupling."""
    exact_csv = tmp_path / "exact.csv"
    assert main(["exact", "--config", config_path,
                 "--sweep", "detuning:-2:2:21", "--out", str(exact_csv)]) == 0
    fit_csv = tmp_path / "fit.csv"
    fit_json = tmp_path / "fit.json"
    res_csv = tmp_path / "residuals.csv"
    code = main(["fit", "--config", config_path, "--data", str(exact_csv),
                 "--observable", "resonator_pull", "--out", str(fit_csv),
                 "--json", str(fit_json), "--residuals", str(res_csv)])
    assert code == 0
    names, rows = read_table(fit_csv)
    assert names == ["model", "observable", "g0_hat_ghz", "stderr_ghz",
                     "residual_sum", "n_points"]
    assert [row["model"] for row in rows] == ["rabi", "jc"]
    for row in rows:
        assert 0.08 < row["g0_hat_ghz"] < 0.12
        assert row["n_points"] == 20.0  # the resonant point was an error row
    payload = json.loads(fit_json.read_text())
    assert [entry["model"] for entry in payload] == ["rabi", "jc"]
    assert all(isinstance(entry["n_points"], int) for entry in payload)
    res_names, res_rows = read_table(res_csv)
    assert res_names == ["g0_ghz", "residual_rabi_resonator_pull",
                         "residual_jc_resonator_pull"]
    assert len(res_rows) == 61


def test_fit_direct_sweep(config_path, tmp_path):
    """fit can regenerate its own exact data over a requested sweep."""
    out = tmp_path / "fit.csv"
    code = main(["fit", "--config", config_path, "--model", "rabi",
                 "--observable", "resonator_pull",
                 "--sweep", "detuning:-1.5:1.5:13", "--window", "0.3",
                 "--out", str(out)])
    assert code == 0
    _, rows = read_table(out)
    assert len(rows) == 1
    assert 0.08 < rows[0]["g0_hat_ghz"] < 0.12
    assert rows[0]["stderr_ghz"] >= 0.0


def test_fit_rejects_data_without_columns(config_path, tmp_path, capsys):
    """A data file missing the observable column is a config error."""
    bad = tmp_path / "bad.csv"
    bad.write_text("delta0_ghz,error\n1,\n2,\n")
    assert main(["fit", "--config", config_path, "--data", str(bad),
                 "--observable", "resonator_pull"]) == 2
    capsys.readouterr()


# Four exact rows whose shifts (1e300-1e308 GHz) fit a finite g0^2 under
# qubit_shift, but whose squared residuals overflow float64.
HUGE_SHIFTS = ("delta0_ghz,exact_pull,exact_qshift,error\n"
               "-3,1e300,1e300,\n-2,1e303,1e303,\n2,1e306,1e306,\n3,1e308,1e308,\n")


def test_fit_refuses_residuals_that_overflow(config_path, tmp_path, capsys):
    """A fit whose residual sum or standard error is not finite fails with
    NoPhysicalCoupling, like one whose g0^2 is not, and NumPy warns of no
    overflow on the way: every fit fails, exit 3, one error line each."""
    data = tmp_path / "huge.csv"
    data.write_text(HUGE_SHIFTS)
    out = tmp_path / "fit.csv"
    capsys.readouterr()
    assert main(["fit", "--config", config_path, "--data", str(data),
                 "--residuals", str(tmp_path / "residuals.csv"), "--out", str(out)]) == 3
    lines = capsys.readouterr().err.splitlines()
    walk = [f"{model}/{observable}" for observable in ("resonator_pull", "qubit_shift")
            for model in ("rabi", "jc")]
    assert len(lines) == len(walk)
    for line, pair in zip(lines, walk):
        assert line.startswith(f"error: fit {pair}: NoPhysicalCoupling: "), line
    assert all(line.endswith("is not finite") for line in lines[2:])
    _, rows = read_table(out)
    assert all(math.isnan(row["g0_hat_ghz"]) and math.isnan(row["residual_sum"])
               for row in rows)


# The README config's rates at four bath temperatures.
TEMPERATURE_SWEEP = "temperature:0.05:0.5:4"


def test_temperature_sweep_rows_are_the_built_systems(tmp_path, capsys):
    """Each row of a temperature sweep is the row of the system the config
    builds at that temperature, and the qubit's thermal excitation stands to
    its decay as exp(-omega_10 / T): detailed balance in the transverse bath."""
    from rabiqed.sweeps import SweepRequest

    config = _readme_config(tmp_path)
    capsys.readouterr()
    assert main(["rates", "--config", config, "--sweep", TEMPERATURE_SWEEP]) == 0
    _, rows = parse_csv(capsys.readouterr().out)
    base = load_config(config)
    temperatures = SweepRequest.parse(TEMPERATURE_SWEEP).grid()
    assert len(rows) == len(temperatures) == 4
    for row, temperature in zip(rows, temperatures):
        expected = rate_fields(base.build(temperature=float(temperature)))
        assert row["delta0_ghz"] == 1.0 and row["error"] == ""
        assert {name: row[name] for name in expected} == expected
        np.testing.assert_allclose(row["gamma_up0_mhz"] / row["gamma_down0_mhz"],
                                   math.exp(-6.0 / temperature), rtol=1e-12)


@pytest.mark.parametrize("sweep", ["temperature:-1:1:3", "coupling:-0.1:0.1:3",
                                   "detuning:-1e308:1e308:2"],
                         ids=["negative-temperature", "negative-coupling", "span-overflow"])
@pytest.mark.parametrize("command", ["rates", "shifts", "exact"])
def test_sweep_to_an_invalid_spec_exits_2(tmp_path, capsys, command, sweep):
    """A sweep point whose system would be invalid (a negative bath
    temperature or coupling) refuses the command as a bad config does:
    exit 2, one error line, nothing written.  So does a grid whose span
    overflows float64, which would hold NaN points."""
    config = _readme_config(tmp_path)
    capsys.readouterr()
    assert main([command, "--config", config, "--sweep", sweep]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_overflowing_hamiltonian_entries_are_error_rows(config_path, capsys):
    """A coupling whose ladder fits float64 but whose Hamiltonian entries
    g_k sqrt(n) do not ends each exact point in a LadderOverflow row, exit 3,
    before any matrix is built."""
    capsys.readouterr()
    assert main(["exact", "--config", config_path,
                 "--sweep", "coupling:7e307:8e307:2"]) == 3
    captured = capsys.readouterr()
    assert [row["error"] for row in parse_csv(captured.out)[1]] == ["LadderOverflow"] * 2
    assert captured.err.startswith("error: every sweep point failed")
    assert captured.err.count("\n") == 1


def test_rounding_noise_is_a_precision_loss_row(tmp_path, capsys):
    """At omega_r = omega_10 = 1e155 GHz, eigh's error bound on a shift
    (2 d eps max row sum |H|, 2.0e142 GHz here) dwarfs what a 0.1 GHz
    coupling can shift: the point is a PrecisionLoss row and exit 3, not an
    exact_pull of -4.76e139 GHz."""
    config = tmp_path / "huge.json"
    config.write_text(json.dumps(dict(README_CONFIG, omega_r_ghz=1e155, omega_10_ghz=1e155)))
    capsys.readouterr()
    assert main(["exact", "--config", str(config)]) == 3
    captured = capsys.readouterr()
    assert [row["error"] for row in parse_csv(captured.out)[1]] == ["PrecisionLoss"]
    assert captured.err == "error: every sweep point failed; see the error column\n"


def _readme_config(tmp_path):
    config = tmp_path / "system.json"
    config.write_text(json.dumps(README_CONFIG))
    return str(config)


def test_evolve_thermal_zero_is_the_ground_state(tmp_path):
    """--init thermal:0 writes the bytes of --init ground."""
    config = _readme_config(tmp_path)
    tables = []
    for init in ("thermal:0", "ground"):
        out = tmp_path / f"{init.replace(':', '')}.csv"
        assert main(["evolve", "--config", config, "--init", init, "--tmax", "50",
                     "--samples", "11", "--out", str(out)]) == 0
        tables.append(out.read_bytes())
    assert tables[0] == tables[1]


@pytest.mark.parametrize("args, message", [
    (["evolve", "--init", "fock:a:0"],
     "bad --init 'fock:a:0': invalid literal for int() with base 10: 'a'"),
    (["evolve", "--init", "thermal:x"],
     "bad --init 'thermal:x': could not convert string to float: 'x'"),
    (["evolve", "--nr", "1"], "--nr must be at least 2"),
    (["evolve", "--samples", "1"], "--samples must be at least 2"),
    (["fit", "--sweep", "coupling:0:1:3"], "fit requires a detuning sweep"),
], ids=["fock-text", "thermal-text", "nr-1", "samples-1", "fit-coupling"])
def test_bad_cli_arguments_exit_2_with_one_line(config_path, capsys, args, message):
    """Each refused argument exits 2 with its one error line and no output."""
    capsys.readouterr()
    assert main([args[0], "--config", config_path, *args[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_config_that_is_not_an_object_exits_2(tmp_path, capsys):
    """A config whose JSON is a list, not an object, exits 2."""
    config = tmp_path / "list.json"
    config.write_text("[1, 2]\n")
    capsys.readouterr()
    assert main(["steady", "--config", str(config)]) == 2
    assert capsys.readouterr().err == "error: config must be a JSON object, got list\n"


# sha256 of fit's outputs on the two-point table of exact over detuning:-3:-2:2.
TWO_POINT_FIT = {
    "fit.csv": "685c4358a196b65be4a90e29b00149e3f18d1f9b3658c433fdc394dd81976913",
    "fit.json": "ea3cf141fe1b2e569e9fa95f60e11502ce6d023cf2d8106c9a33da7f1b3b6d83",
    "residuals.csv": "02de5e877f5a0b25370358a9554628a2471cae7e3a90d2da15cd8bc75e48154e",
}


def test_fit_on_two_points_fails_every_fit_but_writes_every_curve(tmp_path, capsys):
    """Two data points are too few for any fit: exit 3, one error line per
    fit in walk order and a NaN row each, yet every residual curve is
    written, since a curve needs only one usable point."""
    config = _readme_config(tmp_path)
    data = tmp_path / "exact.csv"
    assert main(["exact", "--config", config, "--sweep", "detuning:-3:-2:2",
                 "--out", str(data)]) == 0
    capsys.readouterr()
    assert main(["fit", "--config", config, "--data", str(data),
                 "--json", str(tmp_path / "fit.json"),
                 "--residuals", str(tmp_path / "residuals.csv"),
                 "--out", str(tmp_path / "fit.csv")]) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"error: fit {model}/{observable}: ValueError: need at least 3 usable data "
        f"points, got 2"
        for observable in ("resonator_pull", "qubit_shift") for model in ("rabi", "jc")]
    _, rows = read_table(tmp_path / "fit.csv")
    assert all(math.isnan(row["g0_hat_ghz"]) and row["n_points"] == 2 for row in rows)
    names, curves = read_table(tmp_path / "residuals.csv")
    assert names == ["g0_ghz", "residual_rabi_resonator_pull",
                     "residual_jc_resonator_pull", "residual_rabi_qubit_shift",
                     "residual_jc_qubit_shift"]
    assert len(curves) == 61
    for name, digest in TWO_POINT_FIT.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_readme_commands_parse():
    """Every rabiqed command in the README's sh blocks, continuations
    joined, parses with the CLI's parser."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    commands = [line.strip()
                for block in re.findall(r"```sh\n(.*?)```", readme, re.DOTALL)
                for line in block.replace("\\\n", " ").splitlines()
                if line.strip().startswith("rabiqed ")]
    assert len(commands) == 9
    parser = cli.build_parser()
    for command in commands:
        args = parser.parse_args(shlex.split(command)[1:])
        assert args.fn.__module__ == "rabiqed.cli", command


def test_plot_renders_svg(config_path, tmp_path):
    """The plot command turns a sweep CSV into a standalone SVG."""
    csv_path = tmp_path / "shifts.csv"
    assert main(["shifts", "--config", config_path,
                 "--sweep", "detuning:-2:2:9", "--out", str(csv_path)]) == 0
    svg_path = tmp_path / "shifts.svg"
    code = main(["plot", str(csv_path), "--y", "pull_rabi,pull_jc",
                 "--abs", "--logy", "--out", str(svg_path)])
    assert code == 0
    body = svg_path.read_text()
    assert body.startswith("<svg")
    assert "polyline" in body
    assert main(["plot", str(csv_path), "--y", "nonexistent"]) == 2


@pytest.mark.parametrize("command,patch", [
    ("rates", {"bath_R": {"model": "flat", "level": math.nan}}),
    ("rates", {"omega_10_ghz": math.inf}),
    ("shifts", {"omega_10_ghz": math.inf}),
    ("shifts", {"g0_ghz": math.nan}),
    ("rates", {"bath_X": {"model": "ohmic", "eta": -math.inf}}),
    ("steady", {"fock_truncation": math.inf}),
])
def test_non_finite_config_exits_2(config_path, tmp_path, capsys, command, patch):
    """NaN or Infinity in a config is a one-line configuration error."""
    bad = tmp_path / "bad.json"
    with open(config_path) as handle:
        # json writes NaN and Infinity literally, and reads them back
        bad.write_text(json.dumps({**json.load(handle), **patch}))
    assert main([command, "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command, patch, field", [
    ("steady", {"num_qubit_levels": 5.7}, "TransmonSpec.num_levels must be a whole number"),
    ("steady", {"fock_truncation": 8.9}, "ResonatorSpec.fock_truncation must be a whole"),
    ("rates", {"temperature_ghz": True}, "SpectralFunction.temperature must be a number"),
    ("steady", {"g0_ghz": "0.1"}, "TransmonSpec.g0 must be a number"),
    ("rates", {"bath_R": {"model": "flat", "level": True}},
     "SpectralFunction.level must be a number"),
    ("rates", {"bath_X": {"model": "ohmic", "eta": 0.002, "level": 1.0}},
     "unknown ohmic bath keys: ['level']"),
    ("rates", {"bath_R": {"model": "flat", "eta": 0.5}}, "unknown flat bath keys: ['eta']"),
], ids=["levels-5.7", "fock-8.9", "temperature-true", "g0-string", "level-true",
        "ohmic-level", "flat-eta"])
def test_config_values_that_are_not_numbers_exit_2(tmp_path, capsys, command, patch, field):
    """A README config with a bool or a string where a number belongs, a
    non-whole count, or a bath key of another model is not read as some
    other value: the command exits 2 with one error line naming the field."""
    path = tmp_path / "patched.json"
    path.write_text(json.dumps({**README_CONFIG, **patch}))
    capsys.readouterr()
    assert main([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field}") and captured.err.count("\n") == 1


def _patched_config(config_path, tmp_path, patch):
    path = tmp_path / "patched.json"
    with open(config_path) as handle:
        path.write_text(json.dumps({**json.load(handle), **patch}))
    return str(path)


def _one_error_line(capsys, prefix="error: "):
    err = capsys.readouterr().err
    return err.startswith(prefix) and err.count("\n") == 1


@pytest.mark.parametrize("command", ["shifts", "rates", "exact", "fit", "evolve", "steady"])
@pytest.mark.parametrize("patch", [{"omega_10_ghz": 1e308, "omega_r_ghz": 1e308},
                                   {"anharmonicity_ghz": -1e308}])
def test_overflowing_ladder_config_exits_2(config_path, tmp_path, capsys, command, patch):
    """Finite frequencies whose level energies overflow are a configuration error."""
    bad = _patched_config(config_path, tmp_path, patch)
    capsys.readouterr()
    assert main([command, "--config", bad, "--nq", "3", "--nr", "5"]) == 2
    assert _one_error_line(capsys, "error: the 3-level ladder overflows float64")


@pytest.mark.parametrize("command", ["shifts", "rates", "exact"])
def test_overflowing_sweep_points_are_error_rows(config_path, capsys, command):
    """Sweep points whose ladder overflows become LadderOverflow rows, exit 3."""
    capsys.readouterr()
    assert main([command, "--config", config_path,
                 "--sweep", "detuning:1e308:1e308:2"]) == 3
    captured = capsys.readouterr()
    _, rows = parse_csv(captured.out)
    assert [row["error"] for row in rows] == ["LadderOverflow"] * 2
    assert captured.err.startswith("error: every sweep point failed")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("args", [["rates"], ["steady"],
                                  ["evolve", "--tmax", "1", "--samples", "3"]])
def test_overflowing_prefactors_exit_3(config_path, tmp_path, capsys, args):
    """A coupling whose fourth-order prefactors overflow is a math failure."""
    bad = _patched_config(config_path, tmp_path, {"g0_ghz": 1e155})
    capsys.readouterr()
    assert main([*args, "--config", bad]) == 3
    prefix = "error: every sweep point" if args == ["rates"] else "error: RateOverflow: "
    assert _one_error_line(capsys, prefix)


def test_overflowing_coupling_sweep_rows(config_path, capsys):
    """Sweep points whose prefactors overflow become RateOverflow rows, exit 3."""
    capsys.readouterr()
    assert main(["rates", "--config", config_path,
                 "--sweep", "coupling:1e200:1e200:2"]) == 3
    captured = capsys.readouterr()
    assert [row["error"] for row in parse_csv(captured.out)[1]] == ["RateOverflow"] * 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("detuning", [0.0, 1e200])
def test_fit_on_unusable_data_exits_3(config_path, tmp_path, capsys, detuning):
    """Points that all sit on the resonance, or whose predictions underflow,
    fail every fit with one error line each, residual curves included."""
    data = tmp_path / "data.csv"
    data.write_text("delta0_ghz,exact_pull,exact_qshift,error\n"
                    + "".join(f"{detuning * k},0.01,0.01,\n" for k in (1, 2, 3)))
    capsys.readouterr()
    assert main(["fit", "--config", config_path, "--data", str(data),
                 "--residuals", str(tmp_path / "residuals.csv")]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 4 and all(line.startswith("error: fit ") for line in lines)


@pytest.mark.parametrize("levels", ["1" + "0" * 9, "1" + "0" * 18, "1" + "0" * 400],
                         ids=["1e9", "1e18", "1e400"])
def test_huge_collapsing_ladder_exits_3(config_path, capsys, levels):
    """The configured ladder collapses at transition 25,24 whatever its length:
    one NonPositiveSplitting row and exit 3, without building N levels."""
    capsys.readouterr()
    assert main(["shifts", "--config", config_path, "--nq", levels]) == 3
    captured = capsys.readouterr()
    assert [row["error"] for row in parse_csv(captured.out)[1]] == ["NonPositiveSplitting"]
    assert captured.err.startswith("error: every sweep point failed")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("levels", ["1" + "0" * 12, "1" + "0" * 400], ids=["1e12", "1e400"])
def test_huge_ladder_exits_2(tmp_path, capsys, levels):
    """A ladder that never collapses (negative anharmonicity) is refused
    against the level cap before any array of its length is made."""
    path = tmp_path / "readme.json"
    path.write_text(json.dumps({
        "omega_r_ghz": 5.0, "omega_10_ghz": 6.0, "anharmonicity_ghz": -0.25,
        "g0_ghz": 0.1, "num_qubit_levels": 5, "fock_truncation": 8, "model": "rabi",
        "temperature_ghz": 0.1,
        "bath_X": {"model": "ohmic", "eta": 0.002, "cutoff_ghz": 50.0},
        "bath_Z": {"model": "one_over_f", "amplitude": 1e-6, "ir_floor_ghz": 0.01},
        "bath_R": {"model": "flat", "level": 0.001}}))
    capsys.readouterr()
    assert main(["shifts", "--config", str(path), "--nq", levels]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "ladder levels exceed the cap" in captured.err


@pytest.mark.parametrize("args", [
    ["evolve", "--nq", "3", "--nr", "5", "--samples", "100000000000"],
    ["evolve", "--nq", "5", "--nr", "100000"],
    ["steady", "--nq", "5", "--nr", "100000"],
], ids=["evolve-1e11-samples", "evolve-d500000", "steady-d500000"])
def test_dynamics_beyond_the_memory_budget_exit_2(config_path, capsys, args):
    """A trajectory or dense jumps beyond MEMORY_BUDGET_BYTES exit 2 with one
    error line, before anything of that size is allocated."""
    capsys.readouterr()
    assert main([*args, "--config", config_path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "MB budget" in captured.err


EXACT_CSV = "delta0_ghz,exact_pull,exact_qshift,error\n0.5,0.01,0.02,\n"


@pytest.mark.parametrize("encode", [
    lambda text: text.replace(",", ",\xff", 1).encode("latin-1"),
    lambda text: text.encode("utf-16"),
], ids=["byte-0xff", "utf-16"])
@pytest.mark.parametrize("target", ["config", "fit-data", "plot"])
def test_non_utf8_input_exits_2(config_path, tmp_path, capsys, target, encode):
    """A config or CSV that is not UTF-8 text is a bad input: exit 2 with one
    error line, not a UnicodeDecodeError traceback."""
    path = tmp_path / "input"
    if target == "config":
        with open(config_path) as handle:
            path.write_bytes(encode(handle.read()))
        argv = ["shifts", "--config", str(path)]
    else:
        path.write_bytes(encode(EXACT_CSV))
        argv = (["fit", "--config", config_path, "--data", str(path)]
                if target == "fit-data" else ["plot", str(path)])
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_svg_text_is_escaped(tmp_path):
    """&, < and > in a title or a CSV header reach the SVG as entity
    references, so the file parses and the title reads back as given."""
    data = tmp_path / "odd.csv"
    data.write_text("x&<>,y & <z>\n0,1\n1,2\n2,4\n")
    out = tmp_path / "odd.svg"
    title = "T1 & <decay>"
    assert main(["plot", str(data), "--title", title, "--out", str(out)]) == 0
    texts = [node.text for node in ET.parse(out).getroot().iter()
             if node.tag.endswith("text")]
    assert texts[0] == title
    assert "x&<>" in texts and "y & <z>" in texts


def _y_tick_labels(svg_path):
    return [node.text for node in ET.parse(svg_path).getroot().iter()
            if node.tag.endswith("text") and node.get("text-anchor") == "end"]


@pytest.mark.parametrize("values, decades", [
    ((2.0, 3.0, 4.0), []),
    ((1e-7, 4e-7, 1.1e-6), ["1e-7", "1e-6"]),
], ids=["2-to-4", "one-decade"])
def test_log_ticks_name_their_own_values(tmp_path, values, decades):
    """On a log axis narrower than a decade or two, the ticks step by a
    fraction of a decade: each label names its own value, so the labels
    differ and step by one ratio, and whole decades still read 1e{k}."""
    data = tmp_path / "narrow.csv"
    data.write_text("x,y\n" + "".join(f"{i},{v!r}\n" for i, v in enumerate(values)))
    svg = tmp_path / "narrow.svg"
    assert main(["plot", str(data), "--logy", "--out", str(svg)]) == 0
    labels = _y_tick_labels(svg)
    assert len(labels) >= 3 and len(set(labels)) == len(labels), labels
    # three significant digits put each label within 0.003 of its tick's log10
    steps = np.diff(np.log10([float(label) for label in labels]))
    np.testing.assert_allclose(steps, steps[0], atol=0.02)
    assert [label for label in labels if re.fullmatch(r"1e-?\d+", label)] == decades


def _x_tick_labels(svg_path):
    return [node.text for node in ET.parse(svg_path).getroot().iter()
            if node.tag.endswith("text") and node.get("text-anchor") == "middle"
            and node.get("font-size") == "11"]


@pytest.mark.parametrize("xs, ys, x_labels, y_labels", [
    ((1e6, 1e6 + 0.5), (1e6, 1e6 + 1.0), None, None),
    ((0.0, 1.0, 2.0), (0.0, 0.5, 1.0), ["0", "0.5", "1", "1.5", "2"],
     ["0", "0.2", "0.4", "0.6", "0.8", "1"]),
], ids=["narrower-than-6-digits", "plain"])
def test_linear_ticks_name_their_own_values(tmp_path, xs, ys, x_labels, y_labels):
    """Linear-axis labels keep six significant digits, and take more where
    six would not tell two ticks apart (an axis from 1e6 to 1e6 + 1)."""
    data = tmp_path / "linear.csv"
    data.write_text("x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in zip(xs, ys)))
    svg = tmp_path / "linear.svg"
    assert main(["plot", str(data), "--out", str(svg)]) == 0
    for labels, expected in ((_x_tick_labels(svg), x_labels),
                             (_y_tick_labels(svg), y_labels)):
        assert len(labels) >= 3 and len(set(labels)) == len(labels), labels
        assert sorted(labels, key=float) == labels
        if expected is not None:
            assert labels == expected


# sha256 of the README's two plots of the README's 161-point sweeps.
README_PLOTS = {
    "shifts": ("err_frac_rabi,err_frac_jc",
               "31c0004f9389ca8ac34d817e6664943d1862c5ab665f4026e94130a8ef790ca6"),
    "rates": ("p0_rabi,p0_jc,a0_rabi,a0_jc",
              "68ad4cf1fe2782796407e5504ebddf67a60f560508a247a99b770ebd72cc0c1a"),
}


@pytest.mark.parametrize("command", sorted(README_PLOTS))
def test_readme_plots_keep_their_bytes(tmp_path, command):
    """Escaping leaves plots without &, < or > byte for byte as they were."""
    config = tmp_path / "system.json"
    config.write_text(json.dumps(README_CONFIG))
    y_columns, digest = README_PLOTS[command]
    table, svg = tmp_path / f"{command}.csv", tmp_path / f"{command}.svg"
    assert main([command, "--config", str(config), "--sweep", "detuning:-3:3:161",
                 "--out", str(table)]) == 0
    assert main(["plot", str(table), "--y", y_columns, "--abs", "--logy",
                 "--out", str(svg)]) == 0
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == digest


# The import contract: import rabiqed and plot load no NumPy; every other
# command imports its own layers.
NUMPY_LOADED = ("loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')\n"
                "assert not loaded, loaded\n")
# ... nor dataclasses (with inspect under it) nor json, which neither uses.
STDLIB_UNLOADED = ("loaded = [m for m in ('dataclasses', 'inspect', 'json') if m in sys.modules]\n"
                   "assert not loaded, loaded\n")


def test_import_loads_no_numpy():
    """import rabiqed and rabiqed.cli load no NumPy, no numeric submodule,
    and neither dataclasses nor json."""
    code = ("import sys, rabiqed, rabiqed.cli\n"
            "assert sorted(m for m in sys.modules if m.startswith('rabiqed')) == "
            "['rabiqed', 'rabiqed.cli', 'rabiqed.contract']\n" + NUMPY_LOADED
            + STDLIB_UNLOADED)
    result = _run_python(code)
    assert result.returncode == 0, result.stderr


def test_readme_plot_loads_no_numpy(tmp_path):
    """plot on the README's shifts.csv loads no NumPy, dataclasses, inspect or
    json, and writes the pinned bytes."""
    config = tmp_path / "system.json"
    config.write_text(json.dumps(README_CONFIG))
    table, svg = tmp_path / "shifts.csv", tmp_path / "shifts.svg"
    assert main(["shifts", "--config", str(config), "--sweep", "detuning:-3:3:161",
                 "--out", str(table)]) == 0
    y_columns, digest = README_PLOTS["shifts"]
    code = ("import sys\n"
            "from rabiqed.cli import main\n"
            f"assert main(['plot', {str(table)!r}, '--y', {y_columns!r}, '--abs',\n"
            f"             '--logy', '--out', {str(svg)!r}]) == 0\n" + NUMPY_LOADED
            + STDLIB_UNLOADED)
    result = _run_python(code)
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == digest


# Per command, the layers it must not import: rates rows need no
# diagonalization, shift and exact rows no rate table, and a fit of given
# data neither a sweep nor a rate table.
COMMAND_SCOPES = [("rates", ("rabiqed.exact",)), ("shifts", ("rabiqed.rates",)),
                  ("exact", ("rabiqed.rates",)), ("fit", ("rabiqed.rates", "rabiqed.sweeps"))]


@pytest.mark.parametrize("command, layers", COMMAND_SCOPES, ids=[c for c, _ in COMMAND_SCOPES])
def test_commands_import_only_their_layers(tmp_path, command, layers):
    """A README-sized sweep, or a fit of its exact table, imports only the
    layers its rows use."""
    config = _readme_config(tmp_path)
    data = tmp_path / "exact.csv"
    assert main(["exact", "--config", config, "--sweep", "detuning:-3:3:41",
                 "--out", str(data)]) == 0
    args = ["--data", str(data)] if command == "fit" else ["--sweep", "detuning:-3:3:41"]
    code = ("import sys\n"
            "from rabiqed.cli import main\n"
            f"assert main({[command, '--config', config, *args]!r}\n"
            f"            + ['--out', {str(tmp_path / 'out.csv')!r}]) == 0\n"
            f"loaded = [m for m in {layers!r} if m in sys.modules]\n"
            "assert not loaded, loaded\n")
    result = _run_python(code)
    assert result.returncode == 0, result.stderr


# The README's compute commands, with the arguments it gives them.
README_COMMANDS = {"shifts": ["--sweep", "detuning:-3:3:161"],
                   "rates": ["--sweep", "detuning:-3:3:161"],
                   "exact": ["--sweep", "detuning:-3:3:41"],
                   "fit": [],
                   "evolve": ["--init", "fock:1:0", "--tmax", "500", "--samples", "251"],
                   "steady": ["--photons", "4"]}


@pytest.mark.parametrize("command", sorted(README_COMMANDS))
def test_readme_commands_start_lean(tmp_path, command):
    """Each README compute command, on the README config in a fresh
    interpreter, ends with neither SciPy nor numpy.ma imported: start-up is
    most of such a run."""
    config = _readme_config(tmp_path)
    args = README_COMMANDS[command]
    if command == "fit":
        data = tmp_path / "exact.csv"
        assert main(["exact", "--config", config, *README_COMMANDS["exact"],
                     "--out", str(data)]) == 0
        args = ["--data", str(data), "--json", str(tmp_path / "fit.json"),
                "--residuals", str(tmp_path / "residuals.csv")]
    code = ("import sys\n"
            "from rabiqed.cli import main\n"
            f"assert main({[command, '--config', config, *args]!r}\n"
            f"            + ['--out', {str(tmp_path / 'out.csv')!r}]) == 0\n"
            "loaded = [m for m in ('scipy', 'numpy.ma') if m in sys.modules]\n"
            "assert not loaded, loaded\n")
    result = _run_python(code)
    assert result.returncode == 0, result.stderr


def test_every_export_resolves_lazily():
    """In a fresh interpreter every name in __all__ resolves, dir() lists
    it, star-import binds it, and a submodule resolves as an attribute."""
    code = ("import rabiqed\n"
            "assert set(rabiqed.__all__) <= set(dir(rabiqed))\n"
            "assert rabiqed.lindblad.evolve is rabiqed.evolve\n"
            "missing = [n for n in rabiqed.__all__ if not hasattr(rabiqed, n)]\n"
            "assert not missing, missing\n"
            "namespace = {}\n"
            "exec('from rabiqed import *', namespace)\n"
            "unbound = [n for n in rabiqed.__all__\n"
            "           if namespace.get(n) is not getattr(rabiqed, n)]\n"
            "assert not unbound, unbound\n"
            "from rabiqed import cli\n"
            "assert cli.main\n")
    result = _run_python(code)
    assert result.returncode == 0, result.stderr


# Each name defined in contract, by the module that defined it before.
MOVED_NAMES = {
    "model": ["RABI", "JC", "MODELS", "ConfigError", "InvalidSpec", "LadderOverflow",
              "NonPositiveSplitting"],
    "exact": ["RESONATOR_PULL", "QUBIT_SHIFT", "OBSERVABLES", "AmbiguousLabeling",
              "ConvergenceFailure", "DimensionOverflow", "NoPhysicalCoupling"],
    "shifts": ["ResonantDivergence"],
    "rates": ["NegativePhotonNumber", "RateOverflow"],
    "lindblad": ["DegenerateNullSpace", "MemoryBudgetExceeded", "PropagationFailure",
                 "TruncationTooSmall"],
    "sweeps": ["SweepError", "format_table", "parse_csv"],
}


def test_moved_names_keep_their_old_paths():
    """Each name defined in contract is the same object under its old path,
    and every exception cli.main maps to an exit code is defined there."""
    for module, names in MOVED_NAMES.items():
        old = importlib.import_module(f"rabiqed.{module}")
        for name in names:
            assert getattr(old, name) is getattr(contract, name), (module, name)
    for error in (*cli._MATH_ERRORS, contract.ConfigError, contract.InvalidSpec,
                  contract.SweepError, contract.MemoryBudgetExceeded):
        assert error.__module__ == "rabiqed.contract"


# sha256 of the dynamics CSVs of the README config.
DYNAMICS_BYTES = {
    ("steady", "--photons", "4"):
        "058b6e671e3829d4c819dc1d4e2bb736adea5d4038436fc67ea6e7ad84ffc07a",
    ("evolve", "--init", "fock:1:0", "--tmax", "500", "--samples", "251"):
        "70f986c5ee8c64b89817f7979ae7cb5541883a7d0d134faa07078cb0e87f35af",
    ("steady", "--nq", "5", "--nr", "20", "--photons", "4"):
        "058b6e671e3829d4c819dc1d4e2bb736adea5d4038436fc67ea6e7ad84ffc07a",
}


@pytest.mark.parametrize("args", list(DYNAMICS_BYTES), ids=["steady", "evolve", "steady-d100"])
def test_dynamics_bytes_are_pinned(tmp_path, args):
    """The README's steady and evolve CSVs, and steady at d = 100, keep their bytes."""
    out = tmp_path / "out.csv"
    assert main([*args, "--config", _readme_config(tmp_path), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DYNAMICS_BYTES[args]


@pytest.mark.parametrize("args", [["rates"], ["steady"],
                                  ["evolve", "--tmax", "1", "--samples", "3"]])
def test_underflowing_bose_argument_exits_cleanly(tmp_path, capsys, args):
    """With omega_r / T underflowing to 0 the noise power takes its
    high-temperature limit instead of dividing by expm1(0): the command
    ends in exit 0 or 3, with at most one error line."""
    config = tmp_path / "system.json"
    config.write_text(json.dumps(dict(README_CONFIG, omega_r_ghz=5e-324,
                                      temperature_ghz=10.0)))
    capsys.readouterr()
    assert main([*args, "--config", str(config)]) in (0, 3)
    err = capsys.readouterr().err
    assert err.count("error:") <= 1 and err.count("\n") <= 1


def test_subnormal_resonator_keeps_the_ohmic_kappas(tmp_path, capsys):
    """An ohmic resonator bath at omega_r = 5e-324 and T = 10 GHz gives both
    kappa columns its dc limit, eta T = 20 MHz, not the underflowed 0."""
    config = tmp_path / "system.json"
    config.write_text(json.dumps(dict(README_CONFIG, omega_r_ghz=5e-324, temperature_ghz=10.0,
                                      bath_R={"model": "ohmic", "eta": 0.002})))
    capsys.readouterr()
    assert main(["rates", "--config", str(config)]) == 0
    _, rows = parse_csv(capsys.readouterr().out)
    for column in ("kappa_minus_mhz", "kappa_plus_mhz"):
        assert rows[0][column] == pytest.approx(20.0, rel=1e-12, abs=0)
