"""Tests for the bath spectral functions."""

import math
import re

import numpy as np
import pytest

from rabiqed import InvalidSpec, NegativeFrequency, SpectralFunction, bath_from_config


def test_ohmic_spectral_density_closed_form():
    """An Ohmic bath has J(w) = eta * w * exp(-w / cutoff)."""
    bath = SpectralFunction.ohmic(2.0, cutoff_ghz=50.0)
    np.testing.assert_allclose(bath.spectral_density(5.0), 10.0 * math.exp(-0.1), rtol=1e-15)
    np.testing.assert_allclose(bath.spectral_density(0.0), 0.0, atol=0.0)


def test_ohmic_without_cutoff_is_linear():
    """With an infinite cutoff, J(w) is exactly eta * w."""
    bath = SpectralFunction.ohmic(0.5)
    for w in (0.1, 1.0, 7.3):
        np.testing.assert_allclose(bath.spectral_density(w), 0.5 * w, rtol=1e-15)


def test_flat_spectral_density_is_constant():
    """A flat bath returns its level at every non-negative frequency."""
    bath = SpectralFunction.flat(0.3)
    for w in (0.0, 0.5, 5.0, 200.0):
        assert bath.spectral_density(w) == 0.3


def test_one_over_f_spectral_density():
    """A 1/f bath is A/w above the floor and saturates below it."""
    bath = SpectralFunction.one_over_f(2e-6, ir_floor_ghz=0.01)
    np.testing.assert_allclose(bath.spectral_density(0.1), 2e-5, rtol=1e-15)
    np.testing.assert_allclose(bath.spectral_density(0.0), 2e-4, rtol=1e-15)
    np.testing.assert_allclose(bath.spectral_density(0.005), 2e-4, rtol=1e-15)


def test_spectral_density_rejects_negative_frequency():
    """J(w) is defined for w >= 0 only."""
    bath = SpectralFunction.ohmic(1.0)
    with pytest.raises(NegativeFrequency):
        bath.spectral_density(-1.0)


def test_zero_temperature_has_no_absorption():
    """At T = 0 the noise power vanishes for negative frequencies."""
    bath = SpectralFunction.ohmic(2.0, cutoff_ghz=50.0)
    assert bath.evaluate(-3.0) == 0.0
    np.testing.assert_allclose(bath.evaluate(3.0), bath.spectral_density(3.0), rtol=1e-15)


def test_detailed_balance_at_finite_temperature():
    """Emission and absorption obey C(w) = exp(w/T) C(-w)."""
    rng = np.random.default_rng(7)
    for _ in range(50):
        temp = rng.uniform(0.02, 1.0)
        w = rng.uniform(0.05, 8.0)
        bath = SpectralFunction.ohmic(rng.uniform(0.1, 3.0), cutoff_ghz=40.0, temperature_ghz=temp)
        ratio = bath.evaluate(w) / bath.evaluate(-w)
        np.testing.assert_allclose(ratio, math.exp(w / temp), rtol=1e-12)


def test_detailed_balance_pinned_value():
    """At w = 3 T the emission/absorption ratio is exactly e^3."""
    bath = SpectralFunction.flat(1.0, temperature_ghz=0.1)
    np.testing.assert_allclose(bath.evaluate(0.3) / bath.evaluate(-0.3), math.exp(3.0), rtol=1e-12)


def test_bose_weights_pinned_values():
    """The thermal weights are J/(1-e^{-x}) for emission and J/(e^x - 1) for absorption."""
    bath = SpectralFunction.flat(2.0, temperature_ghz=0.5)
    x = 1.0 / 0.5
    np.testing.assert_allclose(bath.evaluate(1.0), 2.0 / (1.0 - math.exp(-x)), rtol=1e-14)
    np.testing.assert_allclose(bath.evaluate(-1.0), 2.0 / (math.exp(x) - 1.0), rtol=1e-14)


def test_absorption_overflow_guard():
    """Deeply negative frequencies underflow to zero instead of overflowing."""
    bath = SpectralFunction.flat(1.0, temperature_ghz=1e-3)
    value = bath.evaluate(-2.0)
    assert value >= 0.0
    assert value < 1e-300


def test_underflowing_bose_argument_takes_the_high_temperature_limit():
    """Where |omega| / T underflows to 0, C(+-omega) is J(|omega|) T / |omega|
    for both signs, not a division by expm1(0)."""
    ohmic = SpectralFunction.ohmic(2.0, temperature_ghz=10.0)
    assert ohmic.evaluate(5e-324) == ohmic.evaluate(-5e-324) == 20.0 == ohmic.dc_limit()
    flat = SpectralFunction.flat(0.001, temperature_ghz=10.0)
    assert flat.evaluate(5e-324) == flat.evaluate(-5e-324) == math.inf
    assert SpectralFunction.silent(10.0).evaluate(-5e-324) == 0.0


def test_ohmic_noise_power_at_subnormal_frequencies():
    """Where eta |omega| falls below the normal range, at a subnormal |omega|
    or a normal one, C(+-omega) still reaches the dc limit eta T instead of
    losing the bits of J(|omega|)."""
    bath = SpectralFunction.ohmic(0.002, temperature_ghz=10)
    for omega in (5e-324, -5e-324, 1e-320, -1e-320, 2.3e-308, -2.3e-308, 1e-307, -1e-307):
        assert bath.evaluate(omega) == pytest.approx(bath.dc_limit(), rel=1e-15, abs=0)
    # a subnormal J far above T keeps C(omega) = J (nbar + 1) = J, with no
    # underflow of eta T before the ratio |omega| / T scales it back
    cold = SpectralFunction.ohmic(1e-310, temperature_ghz=1e-300)
    assert cold.evaluate(1.0) == pytest.approx(cold.spectral_density(1.0), rel=1e-9, abs=0)


def test_ohmic_dc_limit_is_eta_times_temperature():
    """The w -> 0 noise power of an Ohmic bath is eta * T."""
    bath = SpectralFunction.ohmic(2.0, cutoff_ghz=50.0, temperature_ghz=0.25)
    np.testing.assert_allclose(bath.dc_limit(), 0.5, rtol=1e-12)
    np.testing.assert_allclose(bath.evaluate(0.0), 0.5, rtol=1e-12)


def test_ohmic_dc_limit_is_continuous():
    """C(w) approaches the dc limit smoothly from both sides."""
    bath = SpectralFunction.ohmic(1.5, cutoff_ghz=50.0, temperature_ghz=0.2)
    limit = bath.dc_limit()
    for w in (1e-6, 1e-8, -1e-6, -1e-8):
        np.testing.assert_allclose(bath.evaluate(w), limit, rtol=1e-5)


def test_flat_dc_limit_is_level():
    """A flat bath's dc noise power equals its level."""
    bath = SpectralFunction.flat(0.7, temperature_ghz=0.4)
    assert bath.dc_limit() == 0.7


def test_one_over_f_dc_limit():
    """A 1/f bath's dc noise power is A * T / floor^2."""
    bath = SpectralFunction.one_over_f(1e-6, ir_floor_ghz=0.01, temperature_ghz=0.1)
    np.testing.assert_allclose(bath.dc_limit(), 1e-6 * 0.1 / 1e-4, rtol=1e-12)


def test_zero_temperature_dc_limit_vanishes_for_ohmic():
    """With no thermal occupation the Ohmic dc noise power is zero."""
    bath = SpectralFunction.ohmic(2.0)
    assert bath.dc_limit() == 0.0


def test_emission_exceeds_absorption():
    """At any finite temperature, emission beats absorption at every frequency."""
    bath = SpectralFunction.ohmic(1.0, cutoff_ghz=30.0, temperature_ghz=0.3)
    for w in (0.1, 1.0, 5.0):
        assert bath.evaluate(w) > bath.evaluate(-w) > 0.0


def test_ohmic_noise_power_increases_below_cutoff():
    """Emission noise power grows with frequency well below the cutoff."""
    bath = SpectralFunction.ohmic(1.0, cutoff_ghz=100.0, temperature_ghz=0.1)
    grid = np.linspace(0.1, 50.0, 200)
    values = np.array([bath.evaluate(w) for w in grid])
    assert np.all(np.diff(values) > 0.0)


def test_with_temperature_returns_rescaled_copy():
    """with_temperature changes only the temperature field."""
    bath = SpectralFunction.ohmic(2.0, cutoff_ghz=50.0)
    warm = bath.with_temperature(0.5)
    assert warm.temperature == 0.5
    assert warm.eta == bath.eta and warm.cutoff == bath.cutoff
    assert bath.temperature == 0.0


def test_silent_bath_is_dark():
    """The silent bath couples to nothing at any frequency."""
    bath = SpectralFunction.silent()
    for w in (-3.0, 0.0, 3.0):
        assert bath.evaluate(w) == 0.0
    assert bath.dc_limit() == 0.0


def test_constructor_validation():
    """Non-positive cutoffs and floors, and negative strengths, are rejected."""
    with pytest.raises(ValueError):
        SpectralFunction.ohmic(1.0, cutoff_ghz=0.0)
    with pytest.raises(ValueError):
        SpectralFunction.ohmic(-1.0)
    with pytest.raises(ValueError):
        SpectralFunction.one_over_f(1e-6, ir_floor_ghz=0.0)
    with pytest.raises(ValueError):
        SpectralFunction.flat(-0.1)
    with pytest.raises(ValueError):
        SpectralFunction.flat(1.0, temperature_ghz=-0.1)


def test_constructor_rejects_non_finite():
    """NaN anywhere, and infinity anywhere but the cutoff, is rejected."""
    nan, inf = float("nan"), float("inf")
    for make in (lambda: SpectralFunction.flat(nan),
                 lambda: SpectralFunction.flat(inf),
                 lambda: SpectralFunction.flat(0.1, temperature_ghz=inf),
                 lambda: SpectralFunction.ohmic(nan),
                 lambda: SpectralFunction.ohmic(1.0, cutoff_ghz=nan),
                 lambda: SpectralFunction.one_over_f(inf, ir_floor_ghz=0.01),
                 lambda: SpectralFunction.one_over_f(1e-6, ir_floor_ghz=inf)):
        with pytest.raises(ValueError, match="finite"):
            make()
    assert SpectralFunction.ohmic(1.0, cutoff_ghz=inf).spectral_density(2.0) == 2.0


@pytest.mark.parametrize("make, message", [
    (lambda: SpectralFunction.flat(True), "SpectralFunction.level must be a number, got True"),
    (lambda: SpectralFunction.flat("0.1"), "SpectralFunction.level must be a number, got '0.1'"),
    (lambda: SpectralFunction.ohmic(0.002, temperature_ghz=False),
     "SpectralFunction.temperature must be a number, got False"),
    (lambda: SpectralFunction.ohmic(0.002, cutoff_ghz=None),
     "SpectralFunction.cutoff must be a number, got None"),
    (lambda: SpectralFunction.one_over_f([1e-6], ir_floor_ghz=0.01),
     "SpectralFunction.amplitude must be a number, got [1e-06]"),
], ids=["level-true", "level-string", "temperature-false", "cutoff-none", "amplitude-list"])
def test_constructor_refuses_what_is_not_a_number(make, message):
    """Bools, strings and other non-numbers are refused with InvalidSpec
    naming the field; none is read as a number."""
    with pytest.raises(InvalidSpec, match="^" + re.escape(message) + "$"):
        make()


def test_constructor_stores_floats():
    """Ints and NumPy scalars are accepted and stored as floats; an infinite
    cutoff stays "no cutoff"."""
    ohmic = SpectralFunction.ohmic(np.float64(0.5), cutoff_ghz=50, temperature_ghz=1)
    assert ohmic == SpectralFunction.ohmic(0.5, cutoff_ghz=50.0, temperature_ghz=1.0)
    assert {type(getattr(ohmic, name)) for name in ("eta", "cutoff", "temperature")} == {float}
    assert SpectralFunction.flat(1).level == 1.0 and type(SpectralFunction.flat(1).level) is float
    assert SpectralFunction.ohmic(1, cutoff_ghz=math.inf).cutoff == math.inf


def test_bath_from_config_round_trip():
    """Config dictionaries rebuild each bath family with its parameters."""
    ohmic = bath_from_config({"model": "ohmic", "eta": 2.0, "cutoff_ghz": 50.0, "temperature_ghz": 0.1})
    assert ohmic.eta == 2.0 and ohmic.cutoff == 50.0 and ohmic.temperature == 0.1
    pink = bath_from_config({"model": "one_over_f", "amplitude": 1e-6, "ir_floor_ghz": 0.01})
    assert pink.amplitude == 1e-6 and pink.ir_floor == 0.01
    flat = bath_from_config({"model": "flat", "level": 0.3}, default_temperature=0.2)
    assert flat.level == 0.3 and flat.temperature == 0.2


def test_bath_from_config_rejects_unknown_keys():
    """Misspelled config keys raise instead of being ignored."""
    with pytest.raises(ValueError):
        bath_from_config({"model": "ohmic", "eta": 1.0, "cutof_ghz": 50.0})
    with pytest.raises(ValueError):
        bath_from_config({"model": "one_over_f", "amplitude": 1e-6})
    with pytest.raises(ValueError):
        bath_from_config({"model": "lorentzian"})
    # a key of another model is refused, not ignored
    with pytest.raises(ValueError, match=re.escape("unknown flat bath keys: ['eta']")):
        bath_from_config({"model": "flat", "eta": 0.5})
    with pytest.raises(ValueError, match=re.escape("unknown ohmic bath keys: ['level']")):
        bath_from_config({"model": "ohmic", "eta": 0.002, "level": 1.0})
