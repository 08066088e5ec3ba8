"""End-to-end tests for the command-line interface."""

import hashlib
import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from rabiqed import ExactRow, RateRow, ShiftRow, columns, parse_csv
from rabiqed.cli import main

from conftest import README_CONFIG


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
    # Parsed configs that validate() rejects: a negative resonator frequency,
    # a negative coupling, and a negative resonator frequency in a config
    # whose base ladder collapses (omega_21 = 6 - 10 GHz).
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
