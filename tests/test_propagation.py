import math

import pytest
from hypothesis import given, strategies as st

from hapslink import (
    Corridor,
    LinkBudget,
    RadioParams,
    ScenarioGeometry,
    dry_air_specific_attenuation,
    noise_power_dBm,
)
from hapslink.propagation import (
    DRY_AIR_F_MAX_HZ,
    DRY_AIR_F_MIN_HZ,
    SPEED_OF_LIGHT,
    propagation_delay_s,
)


def slant_ranges(x, H, D=60000.0):
    """(gateway -> platform, gNB -> platform) at offset x, from the one
    slant-range law, Corridor.hop_lengths."""
    (d1,), (d2,) = Corridor(D, H, RadioParams()).hop_lengths([x])
    return d1, d2


def fspl(d, f=2e9):
    """Free-space path loss: LinkBudget's loss with the atmosphere and the
    scintillation margin turned off."""
    radio = RadioParams(f=f, pressure_Pa=0.0, scintillation_dB=0.0)
    return LinkBudget(radio).losses_dB([d])[0]


# ---------------------------------------------------------------
# geometry
# ---------------------------------------------------------------

def test_slant_overhead():
    assert slant_ranges(0, 20000)[0] == 20000
    assert slant_ranges(60000, 20000)[1] == 20000


def test_slant_values():
    assert slant_ranges(30000, 20000)[0] == pytest.approx(36055.5127546399, rel=1e-12)
    assert slant_ranges(60000, 20000)[0] == pytest.approx(63245.5532033676, rel=1e-12)


def test_slant_rejects_nonpositive_height():
    with pytest.raises(ValueError, match=r"^H = 0 is outside \[1, 1e\+06\]$"):
        slant_ranges(1000, 0)


@given(
    x=st.floats(min_value=0, max_value=1e6),
    h=st.floats(min_value=1.0, max_value=1e6),
)
def test_slant_dominates_both_legs(x, h):
    d, _ = slant_ranges(x, h, D=1e6)
    assert d >= max(x, h)
    if x == 0:
        assert d == h


def test_geometry_rejects_out_of_corridor():
    with pytest.raises(ValueError):
        ScenarioGeometry(D=60000, H=20000, x=-1)
    with pytest.raises(ValueError):
        ScenarioGeometry(D=60000, H=20000, x=60001)
    with pytest.raises(ValueError):
        ScenarioGeometry(D=0, H=20000, x=0)


def test_geometry_slant_properties():
    assert slant_ranges(10000, 20000) == (math.hypot(10000, 20000), math.hypot(50000, 20000))


# ---------------------------------------------------------------
# free-space loss
# ---------------------------------------------------------------

def test_fspl_reference_values():
    # frozen from the closed form with c = 2.998e8
    assert fspl(20000, 2e9) == pytest.approx(124.48876453675595, rel=1e-12)
    assert fspl(36055.5127546399, 2e9) == pytest.approx(129.6075981465447, rel=1e-12)


def test_fspl_zero_at_reference_distance():
    f = 2e9
    lam = SPEED_OF_LIGHT / f
    assert fspl(lam / (4 * math.pi), f) == pytest.approx(0.0, abs=1e-9)


@given(
    d=st.floats(min_value=1.0, max_value=1e7),
    f=st.floats(min_value=DRY_AIR_F_MIN_HZ, max_value=DRY_AIR_F_MAX_HZ),
)
def test_fspl_doubling_adds_6dB(d, f):
    assert fspl(2 * d, f) - fspl(d, f) == pytest.approx(
        20 * math.log10(2), abs=1e-9
    )


@given(
    d=st.floats(min_value=1e-3, max_value=1e9),
    f=st.floats(min_value=DRY_AIR_F_MIN_HZ, max_value=DRY_AIR_F_MAX_HZ),
)
def test_free_space_loss_is_the_closed_form_to_the_bit(d, f):
    assert fspl(d, f) == 20.0 * math.log10(4.0 * math.pi * d * f / SPEED_OF_LIGHT)


# ---------------------------------------------------------------
# dry-air attenuation
# ---------------------------------------------------------------

def test_dry_air_reference_value():
    # frozen regression constant at 2 GHz, 101300 Pa, 15 C
    got = dry_air_specific_attenuation(2e9, 101300.0, 15.0)
    assert got == pytest.approx(0.0066610762644819035, rel=1e-9)


def test_dry_air_over_slant_path():
    gamma = dry_air_specific_attenuation(2e9, 101300.0, 15.0)
    total = gamma * 36.0555127546399
    assert total == pytest.approx(0.24018, abs=2e-4)


def test_dry_air_monotone_in_pressure():
    lo = dry_air_specific_attenuation(2e9, 90000.0, 15.0)
    hi = dry_air_specific_attenuation(2e9, 101300.0, 15.0)
    hi2 = dry_air_specific_attenuation(2e9, 2 * 101300.0, 15.0)
    assert lo < hi < hi2


def test_dry_air_validity_window():
    with pytest.raises(ValueError):
        dry_air_specific_attenuation(0.5e9)
    with pytest.raises(ValueError):
        dry_air_specific_attenuation(60e9)
    # boundary frequencies work
    assert dry_air_specific_attenuation(1e9) > 0
    assert dry_air_specific_attenuation(50e9) > 0


@pytest.mark.parametrize("pressure_Pa, temperature_C, message", [
    (-1.0, 15.0, r"^pressure -1\.0 Pa cannot be negative$"),
    (math.nan, 15.0, r"^pressure nan Pa cannot be negative$"),
    (101300.0, -273.0, r"^temperature -273\.0 C must be above -273$"),
    (101300.0, -300.0, r"^temperature -300\.0 C must be above -273$"),
])
def test_dry_air_refuses_an_atmosphere_outside_its_domain(
    pressure_Pa, temperature_C, message
):
    # each used to return a complex attenuation or divide by zero
    with pytest.raises(ValueError, match=message):
        dry_air_specific_attenuation(2e9, pressure_Pa, temperature_C)
    # pressure 0 turns the gaseous term off
    assert dry_air_specific_attenuation(2e9, 0.0, 15.0) == 0.0


def test_radio_params_refuse_what_the_dry_air_model_cannot_take():
    # refused at the record, before a LinkBudget compares complex numbers
    for kwargs, message in [
        ({"f": 60e9}, r"^f = 60000000000\.0 is outside \[1e\+09, 5e\+10\]$"),
        ({"pressure_Pa": -100.0}, r"^pressure_Pa = -100\.0 is outside \[0, 110000\]$"),
        ({"temperature_C": -273.0}, r"^temperature_C = -273\.0 is outside \[-60, 50\]$"),
        ({"temperature_C": math.nan}, r"^temperature_C must be finite, got nan$"),
    ]:
        with pytest.raises(ValueError, match=message):
            RadioParams(**kwargs)


# ---------------------------------------------------------------
# total loss + noise
# ---------------------------------------------------------------

def test_total_loss_is_fspl_without_atmosphere():
    radio = RadioParams(pressure_Pa=0.0, scintillation_dB=0.0)
    d = 36055.5127546399
    (loss,) = LinkBudget(radio).losses_dB([d])
    closed_form = 20.0 * math.log10(4.0 * math.pi * d * radio.f / SPEED_OF_LIGHT)
    assert loss == pytest.approx(closed_form, rel=1e-12)


def test_total_loss_composition():
    radio = RadioParams()
    d = 36055.5127546399
    expected = (
        fspl(d, radio.f)
        + dry_air_specific_attenuation(radio.f, radio.pressure_Pa, radio.temperature_C)
        * d / 1000.0
        + radio.scintillation_dB
    )
    (loss,) = LinkBudget(radio).losses_dB([d])
    assert loss == pytest.approx(expected, rel=1e-14)
    assert loss == pytest.approx(130.35, abs=0.02)


def test_link_budget_refuses_an_attenuation_that_overflows():
    # an atmosphere whose attenuation overflowed is outside its range
    with pytest.raises(ValueError, match=r"^pressure_Pa = 400000000\.0 is outside \[0, 110000\]$"):
        LinkBudget(RadioParams(pressure_Pa=4e8))


@given(st.floats(min_value=100.0, max_value=1e6))
def test_total_loss_monotone_in_distance(d):
    near, far = LinkBudget(RadioParams()).losses_dB([d, d * 1.01])
    assert far > near


def test_noise_power_values():
    assert noise_power_dBm(2e7, 5) == pytest.approx(-95.98970004336019, rel=1e-12)
    assert noise_power_dBm(1, 0) == pytest.approx(-174.0)
    assert noise_power_dBm(2e7, 0) == pytest.approx(-100.98970004336019, rel=1e-12)


@pytest.mark.parametrize("B", [0, 0.0, -1e6])
def test_noise_power_refuses_a_bandwidth_that_is_not_positive(B):
    with pytest.raises(ValueError, match="^bandwidth must be positive$"):
        noise_power_dBm(B, 5)


@given(
    bw=st.floats(min_value=1.0, max_value=1e9),
    nf=st.floats(min_value=0.0, max_value=20.0),
)
def test_noise_power_formula_exact(bw, nf):
    assert noise_power_dBm(bw, nf) == pytest.approx(
        -174.0 + 10.0 * math.log10(bw) + nf, abs=1e-12
    )


# ---------------------------------------------------------------
# link SNR
# ---------------------------------------------------------------

def test_link_snr_constructed_balance():
    # pick tx power so the budget balances to exactly 0 dB SNR
    radio = RadioParams(pressure_Pa=0.0, scintillation_dB=0.0)
    d = 20000.0
    p = fspl(d, radio.f) + noise_power_dBm(radio.B, radio.noise_figure)
    (snr,) = LinkBudget(radio).snrs([d], p)
    assert snr == pytest.approx(1.0, rel=1e-12)


def test_link_snr_3dB_doubles():
    budget = LinkBudget(RadioParams())
    (base,) = budget.snrs([20000.0], 10.0 + 5.0 + 5.0)
    (boosted,) = budget.snrs([20000.0], 10.0 + 10 * math.log10(2) + 5.0 + 5.0)
    assert boosted == pytest.approx(2 * base, rel=1e-12)


@given(
    shift=st.floats(min_value=-30.0, max_value=30.0),
    tx_gain=st.floats(min_value=0.0, max_value=50.0),
    rx_gain=st.floats(min_value=0.0, max_value=50.0),
)
def test_link_snr_gain_shift_invariance(shift, tx_gain, rx_gain):
    # moving k dB from tx_gain to rx_gain cannot change the budget
    budget = LinkBudget(RadioParams())
    (a,) = budget.snrs([20000.0], 10.0 + tx_gain + rx_gain)
    (b,) = budget.snrs([20000.0], 10.0 + (tx_gain - shift) + (rx_gain + shift))
    assert a == pytest.approx(b, rel=1e-9)


def test_gateway_overhead_budget_assembles():
    # gateway under the platform: 33 dBm + 43.2 + 15 against loss and noise
    radio = RadioParams()
    budget = LinkBudget(radio)
    d = 20000.0
    expected_db = (
        33.0 + 43.2 + 15.0
        - budget.losses_dB([d])[0]
        - noise_power_dBm(radio.B, radio.noise_figure)
    )
    gains_dB = radio.P0_max + radio.G0_max + radio.G_RS
    (snr,) = budget.snrs([d], gains_dB)
    assert snr == pytest.approx(10 ** (expected_db / 10), rel=1e-12)


def test_propagation_delay():
    assert propagation_delay_s(20000) == pytest.approx(20000 / 2.998e8, rel=1e-12)
    assert propagation_delay_s(0) == 0.0
