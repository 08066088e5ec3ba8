"""Tests for the second- and fourth-order dissipator rates."""

import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabiqed import (
    DRESSED_DEPHASING,
    DRIVEN_EFFECTIVE,
    JC,
    PHOTON_ASSISTED,
    PURCELL,
    RABI,
    SECOND_ORDER,
    DissipatorTerm,
    JumpDescriptor,
    NegativePhotonNumber,
    QubitSpec,
    RateOverflow,
    ResonantDivergence,
    ResonatorSpec,
    SpectralFunction,
    SystemSpec,
    build_rate_table,
    chi,
    chi_tilde,
    dressed_dephasing_prefactors,
    driven_effective_rates,
    parse_config,
    photon_assisted_prefactor,
    purcell_prefactor,
    purcell_rates,
    rates,
    second_order_rates,
    sigma_diag,
    sigma_lower,
    shifts,
    silent_baths,
    xi,
)

from conftest import README_CONFIG, build_system


def table_terms(table, model, origin, k):
    """The table's terms of one origin whose qubit factor has index k."""
    return [term for term in table.fourth(model)
            if term.origin == origin and term.jump.qubit[1] == k]


def test_jump_descriptor_labels():
    """Labels spell out the qubit matrix element and the photon direction."""
    assert JumpDescriptor(qubit=("lower", 0)).label == "sigma(0,1)"
    assert JumpDescriptor(qubit=("raise", 2)).label == "sigma(3,2)"
    assert JumpDescriptor(qubit=("diag", 1)).label == "sigma(1,1)"
    assert JumpDescriptor(photon="annihilate").label == "a"
    assert JumpDescriptor(qubit=("lower", 0), photon="create").label == "sigma(0,1)*adag"


def test_jump_descriptor_validation():
    """Empty descriptors and malformed factors are rejected."""
    with pytest.raises(ValueError):
        JumpDescriptor()
    with pytest.raises(ValueError):
        JumpDescriptor(qubit=("flip", 0))
    with pytest.raises(ValueError):
        JumpDescriptor(qubit=("lower", -1))
    with pytest.raises(ValueError):
        JumpDescriptor(photon="destroy")


def test_dissipator_term_validation():
    """Negative rates and mislabeled product jumps are rejected."""
    with pytest.raises(ValueError):
        DissipatorTerm(sigma_lower(0), -1.0, SECOND_ORDER)
    with pytest.raises(ValueError):
        DissipatorTerm(JumpDescriptor(qubit=("lower", 0), photon="annihilate"),
                       1.0, SECOND_ORDER)
    term = DissipatorTerm(JumpDescriptor(qubit=("lower", 0), photon="annihilate"),
                          1.0, DRESSED_DEPHASING)
    assert term.rate_mhz == 1.0


def test_second_order_structure_and_values():
    """One decay/excitation pair per transition, one dephasor per level, two photon terms."""
    baths = {
        "X": SpectralFunction.flat(0.002),
        "Z": SpectralFunction.one_over_f(1e-6, ir_floor_ghz=0.01, temperature_ghz=0.1),
        "R": SpectralFunction.flat(0.001, temperature_ghz=0.1),
    }
    system = build_system(detuning=1.0, num_levels=3, baths=baths)
    terms = second_order_rates(system)
    assert len(terms) == 2 * 2 + 3 + 2
    assert all(term.origin == SECOND_ORDER for term in terms)
    by_label = {term.jump.label: term.rate_mhz for term in terms}
    # Transverse decay: beta_k^2 * C_X(w_k) in MHz; excitation vanishes at T = 0.
    np.testing.assert_allclose(by_label["sigma(0,1)"], 2.0, rtol=1e-12)
    np.testing.assert_allclose(by_label["sigma(1,2)"], 4.0, rtol=1e-12)
    assert by_label["sigma(1,0)"] == 0.0
    # Pure dephasing: dw_k^2 * C_Z(0) with the 1/f dc limit A T / floor^2.
    cz0 = 1e-6 * 0.1 / 1e-4
    np.testing.assert_allclose(by_label["sigma(0,0)"], 0.0, atol=0.0)
    np.testing.assert_allclose(by_label["sigma(1,1)"], 1e3 * cz0, rtol=1e-12)
    np.testing.assert_allclose(by_label["sigma(2,2)"], 4e3 * cz0, rtol=1e-12)
    # Photon loss/gain at +-omega_r with the thermal weights.
    x = 5.0 / 0.1
    np.testing.assert_allclose(by_label["a"], 1.0 / (1.0 - math.exp(-x)), rtol=1e-12)
    np.testing.assert_allclose(by_label["adag"], 1.0 / (math.exp(x) - 1.0), rtol=1e-12)


def test_purcell_prefactor_closed_forms():
    """Full-dipole and rotating-wave Purcell prefactors at one detuning."""
    system = build_system(detuning=1.0, g0=0.1)
    np.testing.assert_allclose(purcell_prefactor(0, system, JC), 0.02, rtol=1e-14)
    np.testing.assert_allclose(purcell_prefactor(0, system, RABI), 2.0 / 121.0, rtol=1e-14)
    # The full-dipole value is smaller by (2 wr (w - wr) / (w^2 - wr^2))^2 = 100/121 here.
    np.testing.assert_allclose(
        purcell_prefactor(0, system, RABI) / purcell_prefactor(0, system, JC),
        100.0 / 121.0,
        rtol=1e-13,
    )


def test_purcell_rates_scale_with_resonator_bath():
    """Purcell decay and excitation pair the prefactor with C_R(+-w_k)."""
    system = build_system(
        detuning=1.0, g0=0.1, baths={"R": SpectralFunction.flat(0.5, temperature_ghz=0.2)}
    )
    down, up = purcell_rates(0, system, JC)
    cr = system.bath("R")
    np.testing.assert_allclose(down, 1e3 * 0.02 * cr.evaluate(6.0), rtol=1e-13)
    np.testing.assert_allclose(up, 1e3 * 0.02 * cr.evaluate(-6.0), rtol=1e-13)
    np.testing.assert_allclose(down / up, math.exp(6.0 / 0.2), rtol=1e-12)


def test_dressed_dephasing_prefactor_closed_forms():
    """d_k is model independent; c_k carries the sum-frequency denominator."""
    system = build_system(detuning=1.0, g0=0.1)
    d_rabi, c_rabi = dressed_dephasing_prefactors(0, system, RABI)
    d_jc, c_jc = dressed_dephasing_prefactors(0, system, JC)
    np.testing.assert_allclose(d_rabi, 0.02, rtol=1e-14)
    assert d_jc == d_rabi
    np.testing.assert_allclose(c_rabi, 0.02 / 121.0, rtol=1e-14)
    assert c_jc == 0.0


def test_dressed_dephasing_vanishes_for_uniform_sensitivity():
    """Equal dephasing sensitivities on both levels kill the photon-exchange channel."""
    system = build_system(
        detuning=1.0, num_levels=2, dephasing_sensitivities=(1.0, 1.0)
    )
    d, c = dressed_dephasing_prefactors(0, system, RABI)
    assert d == 0.0 and c == 0.0


def test_dressed_dephasing_terms_structure():
    """Four photon-exchange dissipators with the stated frequencies and jumps."""
    system = build_system(
        detuning=1.0, g0=0.1,
        baths={"Z": SpectralFunction.flat(0.01, temperature_ghz=0.25)},
    )
    terms = table_terms(build_rate_table(system), RABI, DRESSED_DEPHASING, 0)
    assert [term.jump.label for term in terms] == [
        "sigma(0,1)*adag", "sigma(1,0)*a", "sigma(0,1)*a", "sigma(1,0)*adag",
    ]
    cz = system.bath("Z")
    d, c = dressed_dephasing_prefactors(0, system, RABI)
    np.testing.assert_allclose(terms[0].rate_mhz, 1e3 * d * cz.evaluate(1.0), rtol=1e-13)
    np.testing.assert_allclose(terms[1].rate_mhz, 1e3 * d * cz.evaluate(-1.0), rtol=1e-13)
    np.testing.assert_allclose(terms[2].rate_mhz, 1e3 * c * cz.evaluate(11.0), rtol=1e-13)
    np.testing.assert_allclose(terms[3].rate_mhz, 1e3 * c * cz.evaluate(-11.0), rtol=1e-13)
    # The difference-frequency pair obeys detailed balance in the Z bath.
    np.testing.assert_allclose(
        terms[0].rate_mhz / terms[1].rate_mhz, math.exp(1.0 / 0.25), rtol=1e-12
    )


def test_photon_assisted_prefactor_closed_forms():
    """Edge-level values reduce to a single-transition formula."""
    system = build_system(detuning=1.0, g0=0.1, num_levels=2)
    np.testing.assert_allclose(photon_assisted_prefactor(0, system, JC), 0.02, rtol=1e-14)
    np.testing.assert_allclose(
        photon_assisted_prefactor(0, system, RABI), 2.88 / 121.0, rtol=1e-14
    )
    np.testing.assert_allclose(
        photon_assisted_prefactor(0, system, RABI)
        / photon_assisted_prefactor(0, system, JC),
        144.0 / 121.0,
        rtol=1e-13,
    )


def test_photon_assisted_prefactor_is_perfect_square():
    """The two-path interference collapses to 2(x-y)^2 or 8(x-y)^2."""
    rng = np.random.default_rng(31)
    for _ in range(100):
        system = build_system(
            detuning=rng.uniform(0.4, 2.5) * rng.choice([-1.0, 1.0]),
            g0=rng.uniform(0.02, 0.2),
            alpha=rng.uniform(0.0, 0.3),
            num_levels=4,
        )
        q = system.qubit
        wr = system.omega_r
        for k in range(q.num_levels):
            has_up = k <= q.num_levels - 2
            has_dn = k >= 1
            w_up = q.splitting(k) if has_up else 0.0
            w_dn = q.splitting(k - 1) if has_dn else 0.0
            x = q.g(k) * q.beta(k) / (wr - w_up) if has_up else 0.0
            y = q.g(k - 1) * q.beta(k - 1) / (wr - w_dn) if has_dn else 0.0
            np.testing.assert_allclose(
                photon_assisted_prefactor(k, system, JC), 2.0 * (x - y) ** 2,
                rtol=1e-12, atol=1e-18,
            )
            xr = (q.g(k) * q.beta(k) * w_up / (wr ** 2 - w_up ** 2)) if has_up else 0.0
            yr = (q.g(k - 1) * q.beta(k - 1) * w_dn / (wr ** 2 - w_dn ** 2)) if has_dn else 0.0
            np.testing.assert_allclose(
                photon_assisted_prefactor(k, system, RABI), 8.0 * (xr - yr) ** 2,
                rtol=1e-12, atol=1e-18,
            )


def test_photon_assisted_prefactor_never_rounds_negative():
    """a_k is a square evaluated expanded, so it can round below zero: on the
    README ladder with a negative anharmonicity at N = 12000 the expanded jc
    a_11961 is -1.1e-16.  It reads >= 0, so the rate table builds its dissipators."""
    system = parse_config(dict(README_CONFIG, anharmonicity_ghz=-0.25,
                               num_qubit_levels=12000, fock_truncation=2)).build()
    assert photon_assisted_prefactor(11961, system, JC) >= 0.0
    assert len(table_terms(build_rate_table(system), JC, PHOTON_ASSISTED, 11961)) == 2


def test_photon_assisted_terms_structure():
    """Two dissipators per level, pairing a_k with C_X(+-omega_r)."""
    system = build_system(
        detuning=1.0, g0=0.1, num_levels=2,
        baths={"X": SpectralFunction.flat(0.004, temperature_ghz=0.5)},
    )
    terms = table_terms(build_rate_table(system), JC, PHOTON_ASSISTED, 1)
    assert [term.jump.label for term in terms] == ["sigma(1,1)*a", "sigma(1,1)*adag"]
    a = photon_assisted_prefactor(1, system, JC)
    cx = system.bath("X")
    np.testing.assert_allclose(terms[0].rate_mhz, 1e3 * a * cx.evaluate(5.0), rtol=1e-13)
    np.testing.assert_allclose(terms[1].rate_mhz, 1e3 * a * cx.evaluate(-5.0), rtol=1e-13)


def test_rate_index_bounds():
    """Transition rates demand 0 <= k <= N-2; level rates allow k = N-1."""
    system = build_system(num_levels=3)
    with pytest.raises(IndexError):
        purcell_prefactor(2, system, RABI)
    with pytest.raises(IndexError):
        dressed_dephasing_prefactors(-1, system, RABI)
    assert photon_assisted_prefactor(2, system, RABI) > 0.0
    with pytest.raises(IndexError):
        photon_assisted_prefactor(3, system, RABI)


def test_resonance_guard():
    """A resonant transition raises, except when its coupling is zero."""
    resonant = build_system(detuning=0.0, g0=0.1, num_levels=2)
    with pytest.raises(ResonantDivergence):
        purcell_prefactor(0, resonant, RABI)
    with pytest.raises(ResonantDivergence):
        dressed_dephasing_prefactors(0, resonant, JC)
    with pytest.raises(ResonantDivergence):
        photon_assisted_prefactor(0, resonant, JC)
    dark = build_system(detuning=0.0, g0=0.0, num_levels=2)
    assert photon_assisted_prefactor(0, dark, RABI) == 0.0


def test_build_rate_table_layout():
    """The table carries both models' terms, whose rates are the prefactor
    lookups times the noise powers."""
    system = build_system(
        detuning=1.0, num_levels=3,
        baths={
            "X": SpectralFunction.flat(0.002, temperature_ghz=0.1),
            "Z": SpectralFunction.flat(0.01, temperature_ghz=0.1),
            "R": SpectralFunction.flat(0.001, temperature_ghz=0.1),
        },
    )
    table = build_rate_table(system)
    assert len(table.second_order) == 2 * 2 + 3 + 2
    # Per transition: 2 Purcell + 4 dressed dephasing; per level: 2 photon assisted.
    assert len(table.fourth(RABI)) == 2 * (2 + 4) + 3 * 2
    assert len(table.fourth(JC)) == len(table.fourth(RABI))
    cx_minus = system.bath("X").evaluate(system.omega_r)
    for model in (RABI, JC):
        purcell = table_terms(table, model, PURCELL, 0)
        assert tuple(term.rate_mhz for term in purcell) == purcell_rates(0, system, model)
        assisted = table_terms(table, model, PHOTON_ASSISTED, 1)
        a1 = photon_assisted_prefactor(1, system, model)
        assert assisted[0].rate_mhz == 1e3 * a1 * cx_minus
    jc_origins = {term.origin for term in table.fourth(JC)}
    assert jc_origins == {PURCELL, DRESSED_DEPHASING, PHOTON_ASSISTED}


def test_rate_table_prefactors_are_isolated():
    """The prefactor arrays a caller evaluates are its own: changing them
    does not change what the lookups or a later table on an equal system
    return."""
    def system():
        return build_system(detuning=1.0, num_levels=3,
                            baths={"R": SpectralFunction.flat(0.001, temperature_ghz=0.1)})

    first = system()
    p0 = purcell_prefactor(0, first, RABI)
    decay = table_terms(build_rate_table(first), RABI, PURCELL, 0)[0].rate_mhz
    assert decay > 0.0
    q = first.qubit
    _, prefactors = rates.prefactor_arrays(
        np.array(q.coupling_ladder), np.array(q.transverse_bath_couplings),
        np.diff(q.level_energies), np.array(q.dephasing_sensitivities), first.omega_r)
    assert prefactors[RABI]["p"][0] == p0
    prefactors[RABI]["p"][0] = 0.0
    again = system()
    assert purcell_prefactor(0, again, RABI) == p0
    assert table_terms(build_rate_table(again), RABI, PURCELL, 0)[0].rate_mhz == decay


def test_rate_tables_of_equal_systems_compare_equal():
    """A RateTable holds its terms and nothing else, so the tables of two
    equal but distinct systems compare equal."""
    def table(detuning):
        return build_rate_table(build_system(
            detuning=detuning, num_levels=4,
            baths={"R": SpectralFunction.flat(0.001, temperature_ghz=0.1)}))

    assert [field.name for field in dataclasses.fields(table(1.0))] == ["second_order",
                                                                        "fourth_order"]
    assert table(1.0) == table(1.0)
    assert table(1.0) != table(1.5)


def test_build_rate_table_is_linear_in_the_levels(monkeypatch):
    """build_rate_table evaluates its prefactor arrays once and then tests a
    fixed number of denominators per ladder index, so the entries it passes
    to prefactor_arrays and to the resonance test on a harmonic ladder of
    4000 levels are at most 8 times those of 1000 (linear work gives about
    4, quadratic work 16).  Entries are counted, not timed, so the bound
    holds on a loaded host."""
    entries = []
    prefactor_arrays, resonant = rates.prefactor_arrays, shifts.resonant
    monkeypatch.setattr(rates, "prefactor_arrays", lambda *args: (
        entries.extend(np.size(a) for a in args), prefactor_arrays(*args))[1])
    monkeypatch.setattr(shifts, "resonant",
                        lambda den: (entries.append(np.size(den)), resonant(den))[1])

    def work(num_levels):
        entries.clear()
        build_rate_table(build_system(
            detuning=1.0, alpha=0.0, num_levels=num_levels,
            baths={"R": SpectralFunction.flat(0.001, temperature_ghz=0.1)}))
        return sum(entries)

    small, large = work(1000), work(4000)
    assert small >= 1000
    assert large <= 8 * small, f"N = 4000 did {large / small:.1f} x the work of N = 1000"


def test_rate_lookups_test_only_their_own_denominators(monkeypatch):
    """Each prefactor entry build_rate_table reads is tested for resonance
    only at the one or two denominators it divides by, not all N - 1, so the
    table's guards are linear in N."""
    sizes = []
    resonant = shifts.resonant
    monkeypatch.setattr(shifts, "resonant",
                        lambda den: (sizes.append(np.size(den)), resonant(den))[1])
    build_rate_table(build_system(detuning=1.0, alpha=0.0, num_levels=1000))
    assert sizes and max(sizes) == 1


def _count_array_builds(monkeypatch) -> list[str]:
    """Patch ShiftArrays.of and prefactor_arrays to record each evaluation
    by name in the list returned."""
    calls = []
    of, prefactor_arrays = shifts.ShiftArrays.of, rates.prefactor_arrays
    monkeypatch.setattr(shifts.ShiftArrays, "of", staticmethod(
        lambda *args: (calls.append("ShiftArrays.of"), of(*args))[1]))
    monkeypatch.setattr(rates, "prefactor_arrays", lambda *args: (
        calls.append("prefactor_arrays"), prefactor_arrays(*args))[1])
    return calls


def test_build_rate_table_evaluates_the_prefactors_once(monkeypatch):
    """A rate table and every prefactor lookup on the same system share one
    prefactor_arrays evaluation."""
    calls = _count_array_builds(monkeypatch)
    system = build_system(detuning=1.0, num_levels=4)
    build_rate_table(system)
    for model in (RABI, JC):
        for k in range(3):
            purcell_prefactor(k, system, model)
            dressed_dephasing_prefactors(k, system, model)
        for k in range(4):
            photon_assisted_prefactor(k, system, model)
    assert calls == ["prefactor_arrays"]


@pytest.mark.parametrize("num_levels", [1000, 4000])
def test_lookup_loops_build_the_arrays_once_per_system(monkeypatch, num_levels):
    """A loop of each per-index lookup over every index of one system
    evaluates ShiftArrays.of once and prefactor_arrays once, so the loop's
    work is linear in the number of levels."""
    calls = _count_array_builds(monkeypatch)
    system = build_system(detuning=1.0, alpha=0.0, num_levels=num_levels,
                          baths={"R": SpectralFunction.flat(0.001, temperature_ghz=0.1)})
    for lookup in (chi, xi, chi_tilde):
        for k in range(num_levels - 1):
            lookup(k, system)
    for model in (RABI, JC):
        for lookup in (purcell_prefactor, purcell_rates, dressed_dephasing_prefactors):
            for k in range(num_levels - 1):
                lookup(k, system, model)
        for k in range(num_levels):
            photon_assisted_prefactor(k, system, model)
    assert sorted(calls) == ["ShiftArrays.of", "prefactor_arrays"]


# The per-index lookups as they were first written: each call rebuilds every
# array of the ladder from the spec's tuples, guards the denominators its
# entry divides by, and reads the entry.  The lookups must agree with them.

def _reference_shift(name, k, system):
    q = system.qubit
    if not 0 <= k <= q.num_levels - 2:
        return 0.0
    arrays = shifts.ShiftArrays.of(np.array(q.coupling_ladder), np.diff(q.level_energies),
                                   system.omega_r)
    guards = {"chi": ("co",), "xi": ("counter",), "chi_tilde": ("co", "counter")}[name]
    for which in guards:
        den = getattr(arrays, which)[k]
        if shifts.resonant(den):
            raise ResonantDivergence(k, {"co": shifts.CO_ROTATING,
                                         "counter": shifts.COUNTER_ROTATING}[which], float(den))
    return float(getattr(arrays, name)[k])


def _reference_prefactors(names, k, system, model, level=False):
    q = system.qubit
    n = q.num_levels
    if not 0 <= k <= n - (1 if level else 2):
        raise IndexError(k)
    detuning, prefactors = rates.prefactor_arrays(
        np.array(q.coupling_ladder), np.array(q.transverse_bath_couplings),
        np.diff(q.level_energies), np.array(q.dephasing_sensitivities), system.omega_r)
    guarded = ([j for j in (k, k - 1) if 0 <= j <= n - 2 and q.coupling_ladder[j] != 0.0]
               if level else [k])
    values = []
    for name in names:
        for j in guarded:
            if shifts.resonant(detuning[j]):
                raise ResonantDivergence(j, "omega_r - omega_{k+1,k}", float(detuning[j]))
        value = float(prefactors[model][name][k])
        if not math.isfinite(value):
            raise RateOverflow(value)
        values.append(value)
    return tuple(values)


def _reference_purcell_rates(k, system, model):
    (p,) = _reference_prefactors("p", k, system, model)
    energies = system.qubit.level_energies
    w = energies[k + 1] - energies[k]
    cr = system.bath("R")
    return (1e3 * p * cr.evaluate(w), 1e3 * p * cr.evaluate(-w))


def _outcome(fn, *args):
    """What a call returns, as the bytes of each float, or what it raises:
    the type, and for a resonance its index, denominator name and value."""
    try:
        result = fn(*args)
    except ResonantDivergence as exc:
        return ResonantDivergence, exc.k, exc.which, struct.pack("<d", exc.value)
    except (RateOverflow, IndexError) as exc:
        return type(exc)
    values = result if isinstance(result, tuple) else (result,)
    return tuple(struct.pack("<d", value) for value in values)


@st.composite
def lookup_systems(draw):
    """Systems of 2-5 levels whose splittings are often exactly or nearly
    resonant with the resonator, couplings often zero or overflowing when
    squared, and a resonator often slow enough for the counter-rotating
    denominator to fall inside the tolerance too."""
    omega_r = draw(st.sampled_from([5.0, 5.0, 3.3, 4e-7]))
    n = draw(st.integers(2, 5))
    splitting = st.one_of(st.just(omega_r), st.just(omega_r + 4e-7),
                          st.floats(1e-3, 20.0), st.floats(1e-3, 20.0))
    steps = draw(st.lists(splitting, min_size=n - 1, max_size=n - 1))
    energies = [0.0]
    for step in steps:
        energies.append(energies[-1] + step)
    coupling = st.one_of(st.just(0.0), st.just(1e160), st.floats(0.0, 1.0))
    number = st.floats(-3.0, 3.0)
    qubit = QubitSpec(level_energies=tuple(energies),
                      coupling_ladder=tuple(draw(st.lists(coupling, min_size=n - 1,
                                                          max_size=n - 1))),
                      transverse_bath_couplings=tuple(draw(st.lists(
                          st.one_of(st.just(0.0), number), min_size=n - 1, max_size=n - 1))),
                      dephasing_sensitivities=tuple(draw(st.lists(number, min_size=n,
                                                                  max_size=n))))
    baths = silent_baths()
    baths["R"] = SpectralFunction.flat(0.001, temperature_ghz=0.1)
    return SystemSpec(qubit=qubit, resonator=ResonatorSpec(omega_r=omega_r, fock_truncation=3),
                      interaction_model=RABI, baths=baths)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(system=lookup_systems())
def test_lookups_equal_the_per_call_arrays(system):
    """Every per-index lookup returns the bits, or raises the error, that
    arrays rebuilt from the spec at each call give, at every index in and
    just outside the ladder."""
    n = system.qubit.num_levels
    for k in range(-2, n + 1):
        for name, fn in (("chi", chi), ("xi", xi), ("chi_tilde", chi_tilde)):
            assert _outcome(fn, k, system) == _outcome(_reference_shift, name, k, system)
        for model in (RABI, JC):
            for fn, reference in (
                    (purcell_prefactor, lambda k, s, m: _reference_prefactors("p", k, s, m)),
                    (dressed_dephasing_prefactors,
                     lambda k, s, m: _reference_prefactors("dc", k, s, m)),
                    (photon_assisted_prefactor,
                     lambda k, s, m: _reference_prefactors("a", k, s, m, level=True)),
                    (purcell_rates, _reference_purcell_rates)):
                assert _outcome(fn, k, system, model) == _outcome(reference, k, system, model)


def test_driven_effective_rates_scaling():
    """Driving with n photons yields qubit-only dissipators linear in n."""
    system = build_system(
        detuning=1.0, num_levels=3,
        baths={
            "X": SpectralFunction.flat(0.002, temperature_ghz=0.1),
            "Z": SpectralFunction.flat(0.01, temperature_ghz=0.1),
            "R": SpectralFunction.flat(0.001, temperature_ghz=0.1),
        },
    )
    table = build_rate_table(system)
    assert driven_effective_rates(table, 0.0, RABI) == []
    for photons in (-0.5, math.nan):
        with pytest.raises(NegativePhotonNumber):
            driven_effective_rates(table, photons, RABI)
    one = driven_effective_rates(table, 1.0, RABI)
    four = driven_effective_rates(table, 4.0, RABI)
    assert [term.jump.label for term in one] == [term.jump.label for term in four]
    assert all(term.jump.photon is None for term in one)
    assert all(term.origin == DRIVEN_EFFECTIVE for term in one)
    for weak, strong in zip(one, four):
        np.testing.assert_allclose(strong.rate_mhz, 4.0 * weak.rate_mhz, rtol=1e-13)
    # The dephasing channel collects both photon-assisted directions.
    by_label = {term.jump.label: term.rate_mhz for term in one}
    expected = sum(term.rate_mhz for term in table_terms(table, RABI, PHOTON_ASSISTED, 1))
    np.testing.assert_allclose(by_label["sigma(1,1)"], expected, rtol=1e-13)
    # The decay channel collects both dressed-dephasing photon directions.
    dressed = table_terms(table, RABI, DRESSED_DEPHASING, 0)
    expected_down = sum(
        term.rate_mhz for term in dressed if term.jump.qubit == ("lower", 0)
    )
    np.testing.assert_allclose(by_label["sigma(0,1)"], expected_down, rtol=1e-13)


def test_fourth_order_rates_need_finite_photon_coupling():
    """With g = 0 every fourth-order prefactor, and so every fourth-order
    rate, vanishes."""
    system = build_system(g0=0.0, num_levels=3)
    table = build_rate_table(system)
    for model in (RABI, JC):
        for k in range(2):
            assert purcell_prefactor(k, system, model) == 0.0
            assert dressed_dephasing_prefactors(k, system, model) == (0.0, 0.0)
        for k in range(3):
            assert photon_assisted_prefactor(k, system, model) == 0.0
        assert all(term.rate_mhz == 0.0 for term in table.fourth(model))


@pytest.mark.parametrize("model", [RABI, JC])
def test_driven_effective_rates_keep_their_order(model):
    """The generator sums its dissipators in list order, so the drive-induced
    terms keep one order: decay, excitation, then dephasing, each with k
    ascending; each rate is n times the sum of its photon-exchange terms."""
    system = build_system(
        detuning=1.0, num_levels=3,
        baths={
            "X": SpectralFunction.flat(0.002, temperature_ghz=0.1),
            "Z": SpectralFunction.flat(0.01, temperature_ghz=0.1),
            "R": SpectralFunction.flat(0.001, temperature_ghz=0.1),
        },
    )
    table = build_rate_table(system)
    terms = driven_effective_rates(table, 2.0, model)
    assert [term.jump.label for term in terms] == [
        "sigma(0,1)", "sigma(1,2)", "sigma(1,0)", "sigma(2,1)",
        "sigma(0,0)", "sigma(1,1)", "sigma(2,2)"]
    for term in terms:
        total = 0.0
        for source in table.fourth(model):
            if source.jump.photon is not None and source.jump.qubit == term.jump.qubit:
                total += source.rate_mhz
        assert term.rate_mhz == 2.0 * total
