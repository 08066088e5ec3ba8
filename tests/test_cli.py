"""End-to-end tests for the command-line interface."""

import json
import math

import numpy as np
import pytest

from rabiqed import ExactRow, RateRow, ShiftRow, columns, parse_csv
from rabiqed.cli import main


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
    # Parsed configs that validate() rejects: a negative resonator frequency
    # and a negative coupling.
    with open(config_path) as handle:
        base = json.load(handle)
    for command, key, value in (("rates", "omega_r_ghz", -5.0),
                                ("shifts", "g0_ghz", -0.1)):
        invalid = tmp_path / f"invalid_{key}.json"
        invalid.write_text(json.dumps(dict(base, **{key: value})))
        capsys.readouterr()
        assert main([command, "--config", str(invalid)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    # A window wider than the sweep leaves nothing to compute.
    assert main(["shifts", "--config", config_path,
                 "--sweep", "detuning:-0.1:0.1:3"]) == 2
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


def test_steady_state_summary(config_path, tmp_path):
    """The steady-state row is a normalized, physical summary."""
    out = tmp_path / "steady.csv"
    code = main(["steady", "--config", config_path, "--out", str(out)])
    assert code == 0
    names, rows = read_table(out)
    assert names == ["pop_q0", "pop_q1", "pop_q2", "nbar", "purity",
                     "nbar_resonator"]
    row = rows[0]
    total = row["pop_q0"] + row["pop_q1"] + row["pop_q2"]
    np.testing.assert_allclose(total, 1.0, atol=1e-9)
    np.testing.assert_allclose(row["nbar"], row["nbar_resonator"], atol=1e-12)
    assert 0.0 < row["purity"] <= 1.0 + 1e-9


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
