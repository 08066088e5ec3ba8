"""Tests for the system description layer."""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from rabiqed import (
    JC,
    RABI,
    ConfigError,
    InvalidSpec,
    LadderOverflow,
    NonPositiveSplitting,
    QubitSpec,
    ResonatorSpec,
    SpectralFunction,
    SystemConfig,
    SystemSpec,
    TransmonSpec,
    expand_transmon,
    load_config,
    parse_config,
    silent_baths,
    validate,
)

from rabiqed.model import MAX_LADDER_ENTRIES, transmon_ladder

from conftest import build_system


def test_expand_transmon_energies_and_couplings():
    """A transmon ladder has quadratic energies and square-root couplings."""
    qubit = expand_transmon(TransmonSpec(omega_10=6.0, anharmonicity=0.25, g0=0.1, num_levels=3))
    np.testing.assert_allclose(qubit.level_energies, (0.0, 6.0, 11.75), rtol=0, atol=0)
    np.testing.assert_allclose(qubit.coupling_ladder, (0.1, 0.1 * math.sqrt(2.0)), rtol=1e-15)
    np.testing.assert_allclose(qubit.transverse_bath_couplings, (1.0, math.sqrt(2.0)), rtol=1e-15)
    np.testing.assert_allclose(qubit.dephasing_sensitivities, (0.0, 1.0, 2.0), rtol=0, atol=0)


def test_expand_transmon_custom_noise_weights():
    """Explicit bath couplings and sensitivities override the defaults."""
    qubit = expand_transmon(
        TransmonSpec(omega_10=6.0, anharmonicity=0.25, g0=0.1, num_levels=3),
        bath_couplings=(0.5, 0.7),
        dephasing_sensitivities=(0.0, 1.0, 3.0),
    )
    assert qubit.transverse_bath_couplings == (0.5, 0.7)
    assert qubit.dephasing_sensitivities == (0.0, 1.0, 3.0)


def test_spec_constructors_reject_non_finite_values():
    """NaN or infinite frequencies and couplings fail at construction."""
    with pytest.raises(ValueError):
        TransmonSpec(omega_10=math.nan, anharmonicity=0.25, g0=0.1, num_levels=3)
    with pytest.raises(ValueError):
        TransmonSpec(omega_10=6.0, anharmonicity=0.25, g0=math.inf, num_levels=3)
    with pytest.raises(ValueError):
        ResonatorSpec(omega_r=-math.inf, fock_truncation=5)
    with pytest.raises(ValueError):
        QubitSpec(level_energies=(0.0, math.nan), coupling_ladder=(0.1,),
                  transverse_bath_couplings=(1.0,), dephasing_sensitivities=(0.0, 1.0))


@pytest.mark.parametrize("build, message", [
    (lambda: TransmonSpec(omega_10=6.0, anharmonicity=0.25, g0="0.1", num_levels=3),
     "TransmonSpec.g0 must be a number, got '0.1'"),
    (lambda: TransmonSpec(omega_10=True, anharmonicity=0.25, g0=0.1, num_levels=3),
     "TransmonSpec.omega_10 must be a number, got True"),
    (lambda: TransmonSpec(omega_10=6.0, anharmonicity=0.25, g0=0.1, num_levels=5.7),
     "TransmonSpec.num_levels must be a whole number, got 5.7"),
    (lambda: TransmonSpec(omega_10=6.0, anharmonicity=0.25, g0=0.1, num_levels=True),
     "TransmonSpec.num_levels must be a number, got True"),
    (lambda: TransmonSpec(omega_10=6.0, anharmonicity=0.25, g0=0.1, num_levels="3"),
     "TransmonSpec.num_levels must be a number, got '3'"),
    (lambda: ResonatorSpec(omega_r=True, fock_truncation=5),
     "ResonatorSpec.omega_r must be a number, got True"),
    (lambda: ResonatorSpec(omega_r=5.0, fock_truncation=8.9),
     "ResonatorSpec.fock_truncation must be a whole number, got 8.9"),
    (lambda: ResonatorSpec(omega_r=5.0, fock_truncation=None),
     "ResonatorSpec.fock_truncation must be a number, got None"),
    (lambda: ResonatorSpec(omega_r=5.0, fock_truncation=math.inf),
     "ResonatorSpec.fock_truncation must be finite, got inf"),
    (lambda: ResonatorSpec(omega_r=10**400, fock_truncation=5),
     "ResonatorSpec.omega_r must be finite, got 1000"),
    (lambda: QubitSpec(("0", True), ("0.1",), (1,), (0, 1)),
     "QubitSpec.level_energies must be a number, got '0'"),
    (lambda: QubitSpec((0.0, True), (0.1,), (1,), (0, 1)),
     "QubitSpec.level_energies must be a number, got True"),
    (lambda: QubitSpec((0.0, 6.0), (0.1,), (1,), (0, np.bool_(True))),
     "QubitSpec.dephasing_sensitivities must be a number, got "),
], ids=["g0-string", "omega_10-true", "levels-5.7", "levels-true", "levels-string",
        "omega_r-true", "fock-8.9", "fock-none", "fock-inf", "omega_r-huge-int",
        "energies-strings", "energies-true", "sensitivity-numpy-bool"])
def test_spec_constructors_refuse_what_is_not_a_number(build, message):
    """Bools, strings, None and non-whole counts are refused by the
    constructor that holds the field, with InvalidSpec naming it."""
    with pytest.raises(InvalidSpec, match="^" + re.escape(message)):
        build()


def test_spec_constructors_store_floats_and_int_counts():
    """Ints, NumPy scalars and whole floats are accepted: each frequency is
    stored as a float and each count as an int, an int count of any size as
    it is."""
    transmon = TransmonSpec(omega_10=6, anharmonicity=np.float64(0.25), g0=0, num_levels=3.0)
    assert transmon == TransmonSpec(omega_10=6.0, anharmonicity=0.25, g0=0.0, num_levels=3)
    assert [type(getattr(transmon, f)) for f in ("omega_10", "anharmonicity", "g0",
                                                 "num_levels")] == [float, float, float, int]
    assert expand_transmon(transmon).level_energies == (0.0, 6.0, 11.75)
    assert TransmonSpec(omega_10=6.0, anharmonicity=0.25, g0=0.1,
                        num_levels=10**400).num_levels == 10**400
    resonator = ResonatorSpec(omega_r=5, fock_truncation=np.int64(8))
    assert (resonator.omega_r, resonator.fock_truncation) == (5.0, 8)
    assert (type(resonator.omega_r), type(resonator.fock_truncation)) == (float, int)
    qubit = QubitSpec((0, 6), (1,), (np.float64(1.0),), (0, 1))
    assert qubit == QubitSpec((0.0, 6.0), (1.0,), (1.0,), (0.0, 1.0))
    assert hash(qubit) == hash(QubitSpec((0.0, 6.0), (1.0,), (1.0,), (0.0, 1.0)))
    assert {type(x) for name in ("level_energies", "coupling_ladder",
                                 "transverse_bath_couplings", "dephasing_sensitivities")
            for x in getattr(qubit, name)} == {float}


def test_expand_transmon_rejects_collapsed_ladder():
    """Too much anharmonicity makes a splitting non-positive."""
    spec = TransmonSpec(omega_10=0.4, anharmonicity=0.25, g0=0.01, num_levels=4)
    with pytest.raises(NonPositiveSplitting):
        expand_transmon(spec)
    # Three levels still fit: splittings are 0.4 and 0.15.
    qubit = expand_transmon(TransmonSpec(omega_10=0.4, anharmonicity=0.25, g0=0.01, num_levels=3))
    np.testing.assert_allclose(qubit.splitting(1), 0.15, rtol=1e-15)


@pytest.mark.parametrize("omega_10, anharmonicity",
                         [(6.0, 0.25), (0.4, 0.25), (6.0, 6.0 / 7.0), (0.0, 0.0), (-1.0, -0.5)])
def test_transmon_ladder_reports_the_first_collapse(omega_10, anharmonicity):
    """The first non-positive splitting is the one a scan over k finds, and it
    is found before anything of length N is made (N = 1e18 would not fit)."""
    for num_levels in (40, 10**18):
        first = next(k for k in range(num_levels - 1) if omega_10 - k * anharmonicity <= 0.0)
        with pytest.raises(NonPositiveSplitting, match=f"^transition {first + 1},{first} "):
            transmon_ladder(omega_10, anharmonicity, 0.1, num_levels)
    # over several omega_10 values, the first ladder that collapses is reported
    with pytest.raises(NonPositiveSplitting, match="^transition 3,2 .*omega_10=0.4,"):
        transmon_ladder([7.0, 6.0, 0.4, 0.2], 0.25, 0.1, 10)


def test_transmon_ladder_caps_the_levels_it_holds():
    """Ladders that never collapse hold at most MAX_LADDER_ENTRIES levels in
    all, counted over every omega_10, and a longer one is refused before any
    array of its length is made (N = 1e18 would not fit)."""
    energies, _ = transmon_ladder(6.0, -0.25, 0.1, MAX_LADDER_ENTRIES)
    assert energies.shape == (1, MAX_LADDER_ENTRIES)
    for omega_10, num_levels in ((6.0, MAX_LADDER_ENTRIES + 1), (6.0, 10**18),
                                 ([6.0, 7.0], MAX_LADDER_ENTRIES // 2 + 1)):
        with pytest.raises(LadderOverflow, match="ladder levels exceed the cap"):
            transmon_ladder(omega_10, -0.25, 0.1, num_levels)


def test_qubit_spec_accessors():
    """splitting, g, beta, and dw index the ladder arrays consistently."""
    qubit = expand_transmon(TransmonSpec(omega_10=6.0, anharmonicity=0.25, g0=0.1, num_levels=4))
    np.testing.assert_allclose(qubit.splitting(0), 6.0, rtol=0)
    np.testing.assert_allclose(qubit.splitting(2), 5.5, rtol=1e-15)
    np.testing.assert_allclose(qubit.g(1), 0.1 * math.sqrt(2.0), rtol=1e-15)
    np.testing.assert_allclose(qubit.beta(2), math.sqrt(3.0), rtol=1e-15)
    assert qubit.dw(1) == 1.0
    with pytest.raises(IndexError):
        qubit.splitting(3)
    with pytest.raises(IndexError):
        qubit.splitting(-1)


def test_qubit_spec_length_validation():
    """Array lengths must match the declared number of levels."""
    with pytest.raises(ValueError):
        QubitSpec(
            level_energies=(0.0, 6.0),
            coupling_ladder=(0.1, 0.2),
            transverse_bath_couplings=(1.0,),
            dephasing_sensitivities=(0.0, 1.0),
        )
    with pytest.raises(ValueError):
        QubitSpec(
            level_energies=(0.0, 6.0, 11.75),
            coupling_ladder=(0.1, 0.2),
            transverse_bath_couplings=(1.0, 1.4),
            dephasing_sensitivities=(0.0, 1.0),
        )


def test_validate_flags_structural_errors():
    """A ladder with every structural fault is refused when it is built, and
    the refusal names each fault: the (0, 6, 5) ladder with g_0 = -0.1 GHz,
    beside a resonator at -5 GHz, never reaches a shift formula."""
    with pytest.raises(InvalidSpec) as refused:
        QubitSpec(
            level_energies=(0.0, 6.0, 5.0),
            coupling_ladder=(-0.1, 0.14),
            transverse_bath_couplings=(1.0, 1.0),
            dephasing_sensitivities=(0.0, 1.0, 2.0),
        )
    assert refused.value.errors == (
        "qubit.level_energies[2]: energies must increase strictly (5.0 <= 6.0)",
        "qubit.coupling_ladder[0]: coupling must be >= 0, got -0.1")
    with pytest.raises(InvalidSpec, match="omega_r: must be > 0, got -5.0"):
        ResonatorSpec(omega_r=-5.0, fock_truncation=5)


def test_validate_warns_near_resonance():
    """Small detuning compared to the coupling triggers a warning, not an error."""
    warnings = validate(build_system(detuning=0.05, g0=0.1))
    assert warnings and all("resonator" in w or "g_0/|Delta_0|" in w for w in warnings)
    assert validate(build_system(detuning=2.0, g0=0.05)) == ()


def _qubit(**changes):
    """A valid three-level ladder, with some fields changed."""
    return QubitSpec(**{"level_energies": (0.0, 6.0, 11.75), "coupling_ladder": (0.1, 0.14),
                        "transverse_bath_couplings": (1.0, 1.4),
                        "dephasing_sensitivities": (0.0, 1.0, 2.0), **changes})


def _config():
    return SystemConfig(
        transmon=TransmonSpec(omega_10=6.0, anharmonicity=0.25, g0=0.1, num_levels=3),
        resonator=ResonatorSpec(omega_r=5.0, fock_truncation=5),
        interaction_model=RABI, baths=silent_baths())


def _without(label):
    return {k: v for k, v in silent_baths().items() if k != label}


# Per rule: the message it raises, the invalid spec built directly, and the
# same spec made from the valid build_system() by replace, with_model or a
# config override (the path a sweep point takes).
INVALID_SPECS = {
    "ground-not-0": ("ground level must sit at 0",
                     lambda: _qubit(level_energies=(0.5, 6.0, 11.75)),
                     lambda s: replace(s.qubit, level_energies=(0.5, 6.0, 11.75))),
    "non-increasing": ("energies must increase strictly",
                       lambda: _qubit(level_energies=(0.0, 6.0, 5.0)),
                       lambda s: replace(s.qubit, level_energies=(0.0, 6.0, 5.0))),
    "negative-g_k": ("coupling_ladder[1]: coupling must be >= 0",
                     lambda: _qubit(coupling_ladder=(0.1, -0.14)),
                     lambda s: replace(s.qubit, coupling_ladder=(0.1, -0.14))),
    "negative-g0": ("g0: coupling must be >= 0",
                    lambda: TransmonSpec(omega_10=6.0, anharmonicity=0.25, g0=-0.1,
                                         num_levels=3),
                    lambda s: _config().build(coupling=-0.1)),
    "zero-omega_r": ("omega_r: must be > 0",
                     lambda: ResonatorSpec(omega_r=0.0, fock_truncation=5),
                     lambda s: replace(s.resonator, omega_r=0.0)),
    "negative-omega_r": ("omega_r: must be > 0",
                         lambda: ResonatorSpec(omega_r=-5.0, fock_truncation=5),
                         lambda s: replace(s.resonator, omega_r=-5.0)),
    "unknown-model": ("interaction_model: must be one of",
                      lambda: SystemSpec(qubit=_qubit(), resonator=_config().resonator,
                                         interaction_model="dispersive",
                                         baths=silent_baths()),
                      lambda s: s.with_model("dispersive")),
    "missing-bath": ("baths['Z']: missing",
                     lambda: SystemSpec(qubit=_qubit(), resonator=_config().resonator,
                                        interaction_model=RABI, baths=_without("Z")),
                     lambda s: replace(s, baths=_without("Z"))),
    "bath-not-spectral": ("baths['X']: not a SpectralFunction",
                          lambda: SystemSpec(qubit=_qubit(), resonator=_config().resonator,
                                             interaction_model=RABI,
                                             baths={**silent_baths(), "X": 0.1}),
                          lambda s: replace(s, baths={**s.baths, "X": 0.1})),
    "negative-temperature": ("temperature must be >= 0",
                             lambda: SpectralFunction.flat(0.1, temperature_ghz=-0.1),
                             lambda s: _config().build(temperature=-0.1)),
}


@pytest.mark.parametrize("rule", sorted(INVALID_SPECS))
def test_spec_constructors_refuse_invalid_systems(rule):
    """Each hard rule is enforced by the constructor of the type that holds
    the field, so an invalid spec cannot be built directly or derived from a
    valid one."""
    message, build, derive = INVALID_SPECS[rule]
    with pytest.raises(InvalidSpec, match=re.escape(message)):
        build()
    with pytest.raises(InvalidSpec, match=re.escape(message)):
        derive(build_system())


def test_system_spec_helpers():
    """omega_r, bath lookup, and with_model behave as accessors."""
    system = build_system(baths={"X": SpectralFunction.flat(0.1)})
    assert system.omega_r == 5.0
    assert system.bath("X").level == 0.1
    assert system.bath("Z").evaluate(1.0) == 0.0
    swapped = system.with_model(JC)
    assert swapped.interaction_model == JC
    assert system.interaction_model == RABI


def test_config_build_applies_overrides():
    """Detuning, coupling, and temperature overrides propagate to the system."""
    config = SystemConfig(
        transmon=TransmonSpec(omega_10=6.0, anharmonicity=0.25, g0=0.1, num_levels=3),
        resonator=ResonatorSpec(omega_r=5.0, fock_truncation=5),
        interaction_model=RABI,
        baths={**silent_baths(), "X": SpectralFunction.flat(0.01)},
    )
    system = config.build(detuning=2.0, coupling=0.05, temperature=0.3)
    assert system.qubit.level_energies[1] == 7.0
    assert system.qubit.coupling_ladder[0] == 0.05
    assert system.bath("X").temperature == 0.3
    baseline = config.build()
    assert baseline.qubit.level_energies[1] == 6.0
    assert baseline.bath("X").temperature == 0.0


def test_parse_config_round_trip():
    """A full configuration dictionary parses into the expected objects."""
    config = parse_config(
        {
            "omega_r_ghz": 5.0,
            "omega_10_ghz": 6.0,
            "anharmonicity_ghz": 0.25,
            "g0_ghz": 0.1,
            "num_qubit_levels": 4,
            "fock_truncation": 6,
            "model": "jc",
            "temperature_ghz": 0.1,
            "bath_X": {"model": "ohmic", "eta": 0.002, "cutoff_ghz": 50.0},
            "_comment": "ignored",
        }
    )
    assert config.transmon.num_levels == 4
    assert config.resonator.fock_truncation == 6
    assert config.interaction_model == JC
    assert config.baths["X"].temperature == 0.1
    assert config.baths["Z"].evaluate(1.0) == 0.0


def test_parse_config_rejects_bad_input():
    """Missing required keys, unknown keys, and bad models raise ConfigError."""
    base = {
        "omega_r_ghz": 5.0,
        "omega_10_ghz": 6.0,
        "g0_ghz": 0.1,
        "num_qubit_levels": 3,
        "fock_truncation": 5,
    }
    parse_config(dict(base))
    for removed in base:
        broken = {k: v for k, v in base.items() if k != removed}
        with pytest.raises(ConfigError):
            parse_config(broken)
    with pytest.raises(ConfigError):
        parse_config(dict(base, model="dispersive"))
    with pytest.raises(ConfigError):
        parse_config(dict(base, omega_q_ghz=6.0))


def test_load_config_from_file(tmp_path):
    """load_config reads JSON from disk and reports parse failures."""
    path = tmp_path / "system.json"
    path.write_text(
        json.dumps(
            {
                "omega_r_ghz": 5.0,
                "omega_10_ghz": 6.0,
                "anharmonicity_ghz": 0.25,
                "g0_ghz": 0.1,
                "num_qubit_levels": 3,
                "fock_truncation": 5,
            }
        )
    )
    config = load_config(path)
    assert config.transmon.omega_10 == 6.0
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_resonator_spec_coerces_truncation():
    """Fock truncation given as a float integer is accepted as int."""
    spec = ResonatorSpec(omega_r=5.0, fock_truncation=8.0)
    assert spec.fock_truncation == 8
    assert isinstance(spec.fock_truncation, int)
