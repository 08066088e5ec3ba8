"""Property test of the command-line exit-code contract.

The README config is mutated with non-finite, negative, huge and wrong-type
values, and every subcommand that reads a config is run in-process.  Each
run must end in one of the documented exit codes (0, 2, 3, 4), never in an
uncaught exception (which would fail the test) or a traceback on stderr.
Ladder and Fock sizes are drawn only from small values and from values
above DIM_CAP, and evolve/steady run at --nq 3 --nr 5: both build dense
d x d jump matrices, so a large d would need gigabytes.  No run may start a
process pool.

plot is run on small tables of extreme cells (signed zeros, ones, the
largest and the smallest floats, NaN, infinities, text): it must exit 0
with an SVG that parses and holds no nan or inf, or exit 2 with one
error line.
"""

import concurrent.futures
import contextlib
import copy
import io
import json
import math
import re
import xml.etree.ElementTree as ET
from unittest import mock

from hypothesis import event, given, settings
from hypothesis import strategies as st

from rabiqed.cli import main
from rabiqed.exact import DIM_CAP

from conftest import no_pool

README_CONFIG = {
    "omega_r_ghz": 5.0, "omega_10_ghz": 6.0, "anharmonicity_ghz": 0.25, "g0_ghz": 0.1,
    "num_qubit_levels": 5, "fock_truncation": 8, "model": "rabi", "temperature_ghz": 0.1,
    "bath_X": {"model": "ohmic", "eta": 0.002, "cutoff_ghz": 50.0},
    "bath_Z": {"model": "one_over_f", "amplitude": 1e-6, "ir_floor_ghz": 0.01},
    "bath_R": {"model": "flat", "level": 0.001},
}

WRONG_TYPES = st.sampled_from(["x", "", None, [], {}, [1.0], True])
# Mostly values that parse and validate, so that runs reach the numerics.
NUMBERS = st.sampled_from([1e308, 1e155, 1e-300, 0.0, 5.0, 1e308, 1e155, 1e-300,
                           -0.0, -1.0, -1e308, -1e155, math.nan, math.inf, -math.inf])
SIZES = st.sampled_from([2, 3, 2.5, DIM_CAP + 1, -1, 0, 1, math.nan, math.inf])
MODELS = st.sampled_from(["rabi", "jc", "dispersive", 3])
FREQUENCY_KEYS = ("omega_r_ghz", "omega_10_ghz", "anharmonicity_ghz", "g0_ghz",
                  "temperature_ghz")
BATH_PARAMETERS = {"bath_X": ("eta", "cutoff_ghz", "temperature_ghz"),
                   "bath_Z": ("amplitude", "ir_floor_ghz", "temperature_ghz"),
                   "bath_R": ("level", "temperature_ghz")}


@st.composite
def mutations(draw):
    """A few (path, value) replacements in the README config."""
    value = st.one_of(NUMBERS, NUMBERS, NUMBERS, WRONG_TYPES)
    frequency = st.tuples(st.sampled_from(FREQUENCY_KEYS).map(lambda k: (k,)), value)
    bath_parameter = st.sampled_from(sorted(BATH_PARAMETERS)).flatmap(
        lambda bath: st.tuples(st.sampled_from(BATH_PARAMETERS[bath])
                               .map(lambda p: (bath, p)), value))
    one = st.one_of(
        frequency, frequency, frequency, bath_parameter, bath_parameter,
        st.tuples(st.sampled_from(("num_qubit_levels", "fock_truncation"))
                  .map(lambda k: (k,)), st.one_of(SIZES, WRONG_TYPES)),
        st.tuples(st.just(("model",)), MODELS),
        st.tuples(st.sampled_from(sorted(BATH_PARAMETERS)).map(lambda k: (k,)),
                  WRONG_TYPES),
    )
    return draw(st.lists(one, min_size=1, max_size=3))


COMMANDS = st.sampled_from([
    ["shifts"], ["rates"], ["exact"], ["fit", "--sweep", "detuning:-2:2:9"],
    ["evolve", "--nq", "3", "--nr", "5", "--tmax", "10", "--samples", "5"],
    ["evolve", "--nq", "3", "--nr", "5", "--tmax", "10", "--samples", "5",
     "--photons", "4", "--init", "thermal:0.2"],
    ["steady", "--nq", "3", "--nr", "5"],
    ["steady", "--nq", "2", "--nr", "3", "--photons", "1e200"],
])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(command=COMMANDS, changes=mutations())
def test_mutated_readme_config_keeps_the_exit_contract(tmp_path_factory, command, changes):
    """Every mutated config ends in exit 0, 2, 3 or 4, without a traceback."""
    config = json.loads(json.dumps(README_CONFIG))
    for path, value in changes:
        target = config
        for key in path[:-1]:
            target = target[key] if isinstance(target.get(key), dict) else {}
        target[path[-1]] = copy.deepcopy(value)
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    # README-sized sweeps and points beyond DIM_CAP are too little work for a pool
    pools = mock.patch.object(concurrent.futures, "ProcessPoolExecutor", no_pool)
    with pools, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*command, "--config", str(path)])
    event(f"{command[0]} exit {code}")
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert err.getvalue().startswith("error: ")


CELLS = st.sampled_from(["0", "-0", "1", "-1", "1e308", "-1e308", "5e-324", "-5e-324",
                         "nan", "inf", "-inf", "text"])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rows=st.lists(st.tuples(CELLS, CELLS), max_size=4), logy=st.booleans(),
       absolute=st.booleans())
def test_plot_of_extreme_cells_keeps_the_exit_contract(tmp_path_factory, rows, logy,
                                                       absolute):
    """plot exits 0 with finite coordinates, or 2 with one error line."""
    data = tmp_path_factory.getbasetemp() / "extreme.csv"
    data.write_text("x,y\n" + "".join(f"{x},{y}\n" for x, y in rows))
    svg = tmp_path_factory.getbasetemp() / "extreme.svg"
    svg.unlink(missing_ok=True)
    argv = ["plot", str(data), "--y", "y", "--out", str(svg)]
    argv += ["--logy"] * logy + ["--abs"] * absolute
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    event(f"plot exit {code}")
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        return
    text = svg.read_text()
    ET.fromstring(text)
    assert not {"nan", "inf"} & set(re.findall(r"[a-z]+", text.lower()))


BOUNDS = st.sampled_from([-1.0, -5.0, -1e308, 0.0, -0.0, 1e-300, 1e308, math.inf, -math.inf])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(command=st.sampled_from(["shifts", "rates", "exact"]),
       variable=st.sampled_from(["detuning", "coupling", "temperature"]),
       start=BOUNDS, stop=BOUNDS, count=st.sampled_from([2, 3]))
def test_extreme_sweeps_keep_the_exit_contract(tmp_path_factory, command, variable,
                                               start, stop, count):
    """A --sweep over negative, signed-zero, tiny, huge or infinite bounds of
    the README config ends in exit 0, 2, 3 or 4, without a traceback."""
    path = tmp_path_factory.getbasetemp() / "readme.json"
    path.write_text(json.dumps(README_CONFIG))
    sweep = f"{variable}:{start!r}:{stop!r}:{count}"
    out, err = io.StringIO(), io.StringIO()
    pools = mock.patch.object(concurrent.futures, "ProcessPoolExecutor", no_pool)
    with pools, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--config", str(path), "--sweep", sweep])
    event(f"{command} {variable} exit {code}")
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert err.getvalue().startswith("error: ")
