"""Tests for the second- and fourth-order dissipator rates."""

import math
import time

import numpy as np
import pytest

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
    ResonantDivergence,
    SpectralFunction,
    build_rate_table,
    dressed_dephasing_prefactors,
    dressed_dephasing_terms,
    driven_effective_rates,
    photon_assisted_prefactor,
    photon_assisted_terms,
    purcell_prefactor,
    purcell_rates,
    second_order_rates,
    sigma_diag,
    sigma_lower,
)

from conftest import build_system


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
    terms = dressed_dephasing_terms(0, system, RABI)
    assert [term.jump.label for term in terms] == [
        "sigma(0,1)*adag", "sigma(1,0)*a", "sigma(0,1)*a", "sigma(1,0)*adag",
    ]
    assert all(term.origin == DRESSED_DEPHASING for term in terms)
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


def test_photon_assisted_terms_structure():
    """Two dissipators per level, pairing a_k with C_X(+-omega_r)."""
    system = build_system(
        detuning=1.0, g0=0.1, num_levels=2,
        baths={"X": SpectralFunction.flat(0.004, temperature_ghz=0.5)},
    )
    terms = photon_assisted_terms(1, system, JC)
    assert [term.jump.label for term in terms] == ["sigma(1,1)*a", "sigma(1,1)*adag"]
    assert all(term.origin == PHOTON_ASSISTED for term in terms)
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
    """The table carries both models' terms and their prefactor arrays."""
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
    for model in (RABI, JC):
        prefactors = table.prefactors[model]
        # p, d, c per transition; a per level
        assert [len(prefactors[name]) for name in "pdca"] == [2, 2, 2, 3]
        np.testing.assert_allclose(
            prefactors["p"][0], purcell_prefactor(0, system, model), rtol=0
        )
        np.testing.assert_allclose(
            prefactors["a"][1], photon_assisted_prefactor(1, system, model), rtol=0
        )
    jc_origins = {term.origin for term in table.fourth(JC)}
    assert jc_origins == {PURCELL, DRESSED_DEPHASING, PHOTON_ASSISTED}


def test_rate_table_prefactors_are_isolated():
    """Each table owns its prefactor dicts and the arrays are read-only, so
    a caller cannot change what later lookups on an equal system return."""
    system = build_system(detuning=1.0, num_levels=3)
    p0 = purcell_prefactor(0, system, RABI)
    table = build_rate_table(system)
    table.prefactors[RABI]["p"] = np.zeros(2)
    with pytest.raises(ValueError):
        table.prefactors[JC]["a"][0] = 1.0
    again = build_system(detuning=1.0, num_levels=3)
    assert purcell_prefactor(0, again, RABI) == p0
    assert build_rate_table(again).prefactors[RABI]["p"][0] == p0


def test_build_rate_table_is_linear_in_the_levels():
    """build_rate_table reads each of its 6N prefactor entries through a cache
    keyed by the QubitSpec, so it is linear in N only if a lookup hashes the
    spec in O(1): the best of three tables on a harmonic ladder of 4000 levels
    takes at most 8 times one of 1000 (linear work gives about 4)."""
    def best_time(num_levels):
        system = build_system(detuning=1.0, alpha=0.0, num_levels=num_levels,
                              baths={"R": SpectralFunction.flat(0.001, temperature_ghz=0.1)})
        times = []
        for _ in range(3):
            start = time.perf_counter()
            build_rate_table(system)
            times.append(time.perf_counter() - start)
        return min(times)

    ratio = best_time(4000) / best_time(1000)
    assert ratio < 8.0, f"N = 4000 took {ratio:.1f} x N = 1000"


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
    with pytest.raises(NegativePhotonNumber):
        driven_effective_rates(table, -0.5, RABI)
    one = driven_effective_rates(table, 1.0, RABI)
    four = driven_effective_rates(table, 4.0, RABI)
    assert [term.jump.label for term in one] == [term.jump.label for term in four]
    assert all(term.jump.photon is None for term in one)
    assert all(term.origin == DRIVEN_EFFECTIVE for term in one)
    for weak, strong in zip(one, four):
        np.testing.assert_allclose(strong.rate_mhz, 4.0 * weak.rate_mhz, rtol=1e-13)
    # The dephasing channel collects both photon-assisted directions.
    by_label = {term.jump.label: term.rate_mhz for term in one}
    expected = sum(term.rate_mhz for term in photon_assisted_terms(1, system, RABI))
    np.testing.assert_allclose(by_label["sigma(1,1)"], expected, rtol=1e-13)
    # The decay channel collects both dressed-dephasing photon directions.
    dressed = dressed_dephasing_terms(0, system, RABI)
    expected_down = sum(
        term.rate_mhz for term in dressed if term.jump.qubit == ("lower", 0)
    )
    np.testing.assert_allclose(by_label["sigma(0,1)"], expected_down, rtol=1e-13)


def test_fourth_order_rates_need_finite_photon_coupling():
    """With g = 0 every fourth-order prefactor vanishes."""
    system = build_system(g0=0.0, num_levels=3)
    table = build_rate_table(system)
    for model in (RABI, JC):
        prefactors = table.prefactors[model]
        for name in "pdca":
            assert np.all(prefactors[name] == 0.0)


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
