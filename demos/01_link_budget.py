"""
Link budgets over the gateway - platform - gNB triangle
=======================================================

Walks one platform offset through the corridor and prints every piece
of the budget: slant ranges, spreading loss, gaseous absorption,
scintillation, the resulting SNR seen by each payload, and what each
payload delivers there.
"""

import math

from hapslink import (
    Corridor,
    LinkBudget,
    ModeConfigs,
    RadioParams,
    ScenarioGeometry,
    dry_air_specific_attenuation,
    noise_power_dBm,
)

radio = RadioParams()
# the distance-free part of every hop: dry-air gamma0 and the noise floor
budget = LinkBudget(radio)
# the same budget with the atmosphere and the scintillation margin off
# gives the free-space spreading loss alone
free_space = LinkBudget(RadioParams(pressure_Pa=0.0, scintillation_dB=0.0))

# the platform hovers at 20 km; the gateway sits at x = 0 and the gNB
# at x = 60 km. The corridor holds every x-invariant term of the three
# payloads' budgets, and its hop_lengths gives the slant ranges
geom = ScenarioGeometry(D=60000.0, H=20000.0, x=30000.0)
corridor = Corridor(geom.D, geom.H, radio)
(d1,), (d2,) = corridor.hop_lengths([geom.x])

print("geometry")
print(f"  gateway slant  d1 = {d1:10.1f} m "
      f"(elevation {math.degrees(math.atan2(geom.H, geom.x)):.1f} deg)")
print(f"  gNB slant      d2 = {d2:10.1f} m")

# free-space spreading dominates the budget at 2 GHz
print("\nper-distance losses at f = 2 GHz")
ds = [d1, d2]  # one list of hop lengths
for name, fspl, loss in zip(("gateway", "gNB"), free_space.losses_dB(ds),
                            budget.losses_dB(ds)):
    print(f"  {name:8s} fspl = {fspl:7.2f} dB, "
          f"total = {loss:7.2f} dB")

# the dry-air specific attenuation is tiny at 2 GHz but grows fast
# toward the oxygen line complex near 60 GHz
print("\ndry-air specific attenuation")
for f_ghz in (2, 10, 30, 50):
    gamma = dry_air_specific_attenuation(f_ghz * 1e9, radio.pressure_Pa,
                                         radio.temperature_C)
    print(f"  {f_ghz:4d} GHz: {gamma:.6f} dB/km")

print(f"\nnoise floor over B = {radio.B:.0e} Hz: "
      f"{noise_power_dBm(radio.B, radio.noise_figure):.2f} dBm")

# raw per-hop SNRs with the stock antennas: distance, then tx power +
# tx gain + rx gain
hops = {
    "gNB -> platform (base-station payload)": (
        d2, radio.P_gNB + radio.G_gNB + radio.G_H_rx),
    "gateway -> platform (relay hop 1)": (
        d1, radio.P0_max + radio.G0_max + radio.G_RS),
    "platform -> gNB (relay hop 2)": (
        d2, radio.P0_max + radio.G_RS + radio.G_gNB),
}
print("\nfull-power hop SNRs")
for name, (d, gains_dB) in hops.items():
    (snr,) = budget.snrs([d], gains_dB)
    print(f"  {name:42s} {10.0 * math.log10(snr):7.2f} dB")

# the corridor's rows at one offset are all the selection logic reads:
# (mode, capacity_bps, payload_W, path_m), most passive first
rows = corridor.rows(geom.x, ModeConfigs())
print(f"\nwhat each payload delivers at x = {geom.x / 1000:.0f} km")
for mode, capacity_bps, _, _ in reversed(rows):  # the base station first
    print(f"  {mode.value:4s} {capacity_bps / radio.B:6.3f} bps/Hz = "
          f"{capacity_bps / 1e6:6.1f} Mbit/s")
