"""
Relay power split and bits per joule
====================================

The relay splits its gateway power budget: a fraction alpha feeds the
uplink hop, the rest the downlink hop. The best split equalizes the two
hop SNRs. The second half compares energy efficiency: a 1 kW relay
payload against a passive surface drawing 7.8 mW per element.
"""

from hapslink import (
    Corridor,
    RadioParams,
    load_config,
    relay_capacities,
    relay_optimal_splits,
    sweep_ee,
)

# one corridor: 60 km from gateway to gNB, platform at 20 km
corridor = Corridor(60000.0, 20000.0, RadioParams())

# the split only matters because the two hops are asymmetric: the
# gateway antenna is much stronger than the relay's own
x_kms = (10, 30, 50, 60)
# the full-power hop SNR columns over these offsets
snr1s, snr2s, _ = corridor.columns([x_km * 1000.0 for x_km in x_kms])
alphas, caps = relay_optimal_splits(snr1s, snr2s)
halves = relay_capacities(snr1s, snr2s, alpha=0.5)
for x_km, alpha, cap, cap_half in zip(x_kms, alphas, caps, halves):
    print(f"x = {x_km:2d} km: alpha_opt = {alpha:8.6f}, "
          f"C(alpha_opt) = {cap:5.3f} bps/Hz, C(0.5) = {cap_half:5.3f} "
          f"({100 * (1 - cap_half / cap):4.1f}% loss)")

# sanity check: the optimized split really equalizes the weighted hops
snr1s, snr2s, _ = corridor.columns([60000.0])
(alpha,), _ = relay_optimal_splits(snr1s, snr2s)
step = (1 - 2e-4) / 9998
grid = [1e-4 + i * step for i in range(9999)]  # 1e-4 through 1 - 1e-4
grid[-1] = 1 - 1e-4
caps = [relay_capacities(snr1s, snr2s, alpha=a)[0] for a in grid]
best = max(range(len(grid)), key=caps.__getitem__)  # the first maximum
print(f"\nbrute-force argmax at x = D: {grid[best]:.6f} "
      f"(closed form says {alpha:.6f})")

# energy efficiency across the corridor
cfg = load_config(None)
result = sweep_ee(cfg)
rs_col = result.column("ee_rs_alpha_opt_bits_per_J")
print("\nbits per joule, worst offset each")
print(f"  relay (1 kW):          {min(rs_col):12.0f}")
for n in cfg.ris_N_list:
    col = result.column(f"ee_ris_N{n}_bits_per_J")
    watts = n * cfg.ris.per_element_power_W
    print(f"  surface N = {n:6d} ({watts:5.0f} W): {min(col):12.0f}")
print("\nthe passive surface wins at every offset and element count;")
print("its efficiency barely moves with x:")
for n in cfg.ris_N_list:
    spread = result.notes[f"ris_N{n}_ee_spread_pct"]
    print(f"  N = {n:6d}: max/min spread {spread:.1f}%")
