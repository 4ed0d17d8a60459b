"""Link-level physics for the gateway - platform - gNB triangle.

Everything here is deterministic line-of-sight budgeting over a given
hop length: free-space path loss, dry-air gaseous attenuation, a fixed
scintillation margin, thermal noise, and the resulting per-link SNR, all
in LinkBudget's column laws. The slant ranges themselves come from
modes.Corridor.hop_lengths. No fading draws, no randomness.
"""

import math
from typing import Annotated

from ._record import Record

SPEED_OF_LIGHT = 2.998e8  # m/s, used for both loss and propagation delay

# Validity window of the simplified sub-54-GHz oxygen attenuation term.
DRY_AIR_F_MIN_HZ = 1e9
DRY_AIR_F_MAX_HZ = 50e9

# The ranges several fields share: lengths in m, powers in dBm, gains in dB
LENGTH_M = (1.0, 1e6)
POWER_DBM = (-30.0, 100.0)
GAIN_DB = (-30.0, 100.0)


# =====================================================================
# Scenario containers
# =====================================================================

class ScenarioGeometry(Record):
    """Ground layout: gateway at x=0, gNB at x=D, platform at offset x, height H.

    D and H lie in LENGTH_M: a stratospheric platform (20-50 km, ITU Radio
    Regulations No. 1.66A) over a corridor of up to a thousand kilometres.
    modes.Corridor checks its own D and H against these two ranges."""

    D: Annotated[float, LENGTH_M]  # gateway -> gNB ground distance, m
    H: Annotated[float, LENGTH_M]  # platform altitude, m
    x: float  # platform horizontal offset from the gateway, m

    def __post_init__(self):
        if not 0 <= self.x <= self.D:
            raise ValueError(
                f"platform offset x={self.x} outside the corridor [0, {self.D}]"
            )


class RadioParams(Record):
    """Carrier, powers, gains and environment shared by every mode.

    Each field has one closed range and is refused by name outside it: f
    the dry-air model's window, the rest a span that covers every physical
    radio link. Inside these ranges and those of ScenarioGeometry's D and H
    and RisConfig's N, no figure of modes.Corridor overflows or leaves the
    float range, so no input needs to be blamed for one.
    """

    f: Annotated[float, (DRY_AIR_F_MIN_HZ, DRY_AIR_F_MAX_HZ)] = 2e9  # carrier, Hz
    B: Annotated[float, (1e3, 1e10)] = 2e7             # bandwidth, Hz
    noise_figure: Annotated[float, (0.0, 30.0)] = 5.0  # dB
    P_gNB: Annotated[float, POWER_DBM] = 35.0          # gNB transmit power, dBm
    G_gNB: Annotated[float, GAIN_DB] = 15.0            # gNB antenna gain, dB
    P0_max: Annotated[float, POWER_DBM] = 33.0         # gateway max transmit power, dBm
    G0_max: Annotated[float, GAIN_DB] = 43.2           # gateway antenna gain, dB
    G_RS: Annotated[float, GAIN_DB] = 15.0             # relay payload antenna gain, dB
    G_H_rx: Annotated[float, GAIN_DB] = 0.0            # platform rx gain on the access link, dB
    scintillation_dB: Annotated[float, (0.0, 30.0)] = 0.5  # per-hop margin, dB
    pressure_Pa: Annotated[float, (0.0, 1.1e5)] = 101300.0  # 0 turns gaseous loss off
    temperature_C: Annotated[float, (-60.0, 50.0)] = 15.0


# =====================================================================
# Losses and noise
# =====================================================================

def _pt_correction(rp, rt, a, b, c, d):
    # pressure/temperature correction factor shared by the oxygen terms
    return rp ** a * rt ** b * math.exp(c * (1.0 - rp) + d * (1.0 - rt))


def dry_air_specific_attenuation(f, pressure_Pa=101300.0, temperature_C=15.0):
    """Oxygen (dry air) specific attenuation in dB/km.

    Simplified sub-54-GHz model with pressure/temperature correction
    factors. rp and rt normalise to 1013 hPa and 288 K. Refuses f outside
    the model window, a negative pressure and a temperature at or below
    -273 C, where the correction factors stop being real.
    """
    if not DRY_AIR_F_MIN_HZ <= f <= DRY_AIR_F_MAX_HZ:
        raise ValueError(
            f"frequency {f} Hz outside the model validity window "
            f"[{DRY_AIR_F_MIN_HZ:.0e}, {DRY_AIR_F_MAX_HZ:.0e}]"
        )
    if not pressure_Pa >= 0:
        raise ValueError(f"pressure {pressure_Pa} Pa cannot be negative")
    if not temperature_C > -273.0:
        raise ValueError(f"temperature {temperature_C} C must be above -273")
    f_ghz = f / 1e9
    rp = (pressure_Pa / 100.0) / 1013.0
    rt = 288.0 / (273.0 + temperature_C)
    xi1 = _pt_correction(rp, rt, 0.0717, -1.8132, 0.0156, -1.6515)
    xi2 = _pt_correction(rp, rt, 0.5146, -4.6368, -0.1921, -5.7416)
    xi3 = _pt_correction(rp, rt, 0.3414, -6.5851, 0.2130, -8.5854)
    gamma = (
        7.2 * rt ** 2.8 / (f_ghz ** 2 + 0.34 * rp ** 2 * rt ** 1.6)
        + 0.62 * xi3 / ((54.0 - f_ghz) ** (1.16 * xi1) + 0.83 * xi2)
    )
    return gamma * f_ghz ** 2 * rp ** 2 * 1e-3


class LinkBudget:
    """The distance-free part of one radio's hop budget, computed once.

    Holds the dry-air specific attenuation gamma0 (dB/km) and the noise
    floor (dBm), so a hop costs only its distance-dependent terms. The
    laws are written over a list of hop lengths (`losses_dB`, `snrs`).
    """

    def __init__(self, radio: RadioParams):
        self.radio = radio
        self.gamma0 = dry_air_specific_attenuation(
            radio.f, radio.pressure_Pa, radio.temperature_C
        )
        self.noise_dBm = noise_power_dBm(radio.B, radio.noise_figure)

    def losses_dB(self, ds):
        """FSPL + gaseous attenuation over the whole slant path + scintillation,
        for each hop length in ds (each positive: RadioParams checks f).

        The platform sits inside the bulk atmosphere, so the full path is
        charged the specific attenuation (no layered integration). With
        pressure_Pa = 0 and scintillation_dB = 0 each loss is the free-space
        path loss 20 log10(4 pi d f / c) alone.
        """
        log10 = math.log10
        four_pi, f, c = 4.0 * math.pi, self.radio.f, SPEED_OF_LIGHT
        gamma0, scint = self.gamma0, self.radio.scintillation_dB
        return [
            20.0 * log10(four_pi * d * f / c) + gamma0 * d / 1000.0 + scint
            for d in ds
        ]

    def snrs(self, ds, gains_dB):
        """Received SNR of hops of lengths ds as linear ratios; gains_dB is
        tx power + tx gain + rx gain, summed in that order."""
        noise = self.noise_dBm
        return [10.0 ** ((gains_dB - loss - noise) / 10.0) for loss in self.losses_dB(ds)]


def noise_power_dBm(B, noise_figure):
    """Thermal noise floor -174 + 10*log10(B) + NF in dBm."""
    if B <= 0:
        raise ValueError("bandwidth must be positive")
    return -174.0 + 10.0 * math.log10(B) + noise_figure


def propagation_delay_s(path_m):
    """One-way free-space propagation delay over path_m metres."""
    if path_m < 0:
        raise ValueError("path length cannot be negative")
    return path_m / SPEED_OF_LIGHT


def db_to_linear(db):
    return 10.0 ** (db / 10.0)
