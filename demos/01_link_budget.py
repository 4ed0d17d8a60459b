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
    elevation_angle,
    fspl_dB,
    linear_to_db,
    noise_power_dBm,
)

radio = RadioParams()
# the distance-free part of every hop: dry-air gamma0 and the noise floor
budget = LinkBudget(radio)

# the platform hovers at 20 km; the gateway sits at x = 0 and the gNB
# at x = 60 km
geom = ScenarioGeometry(D=60000.0, H=20000.0, x=30000.0)

print("geometry")
print(f"  gateway slant  d1 = {geom.d_gateway:10.1f} m "
      f"(elevation {math.degrees(elevation_angle(geom.x, geom.H)):.1f} deg)")
print(f"  gNB slant      d2 = {geom.d_gnb:10.1f} m")

# free-space spreading dominates the budget at 2 GHz
print("\nper-distance losses at f = 2 GHz")
slants = (("gateway", geom.d_gateway), ("gNB", geom.d_gnb))
losses = budget.losses_dB([d for _, d in slants])  # one list of hop lengths
for (name, d), loss in zip(slants, losses):
    print(f"  {name:8s} fspl = {fspl_dB(d, radio.f):7.2f} dB, "
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
        geom.d_gnb, radio.P_gNB + radio.G_gNB + radio.G_H_rx),
    "gateway -> platform (relay hop 1)": (
        geom.d_gateway, radio.P0_max + radio.G0_max + radio.G_RS),
    "platform -> gNB (relay hop 2)": (
        geom.d_gnb, radio.P0_max + radio.G_RS + radio.G_gNB),
}
print("\nfull-power hop SNRs")
for name, (d, gains_dB) in hops.items():
    (snr,) = budget.snrs([d], gains_dB)
    print(f"  {name:42s} {linear_to_db(snr):7.2f} dB")

# the corridor holds every x-invariant term of the three payloads'
# budgets; its rows at one offset are all the selection logic reads:
# (mode, capacity_bps, payload_W, path_m), most passive first
corridor = Corridor(geom.D, geom.H, radio)
rows = corridor.rows(geom.x, ModeConfigs.defaults())
print(f"\nwhat each payload delivers at x = {geom.x / 1000:.0f} km")
for mode, capacity_bps, _, _ in reversed(rows):  # the base station first
    print(f"  {mode.value:4s} {capacity_bps / radio.B:6.3f} bps/Hz = "
          f"{capacity_bps / 1e6:6.1f} Mbit/s")
