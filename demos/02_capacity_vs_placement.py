"""
Capacity against platform placement
===================================

Sweeps the platform offset across the whole corridor and compares the
relay (fixed and optimized power split) with the reflecting surface at
three element counts. The surface peaks right above the closed-form
offsets; the relay wants to sit on top of the gNB.
"""

from hapslink import load_config, ris_placement_roots, sweep_capacity

cfg = load_config(None)
result = sweep_capacity(cfg)

xs = result.column("x_m")
rs05 = result.column("rs_alpha05_bps_hz")
rsopt = result.column("rs_alpha_opt_bps_hz")

# where does each curve peak?
print("peak spectral efficiency per payload")
for name in result.header[1:]:
    if name == "alpha_opt":
        continue
    col = result.column(name)
    i = max(range(len(col)), key=lambda k: col[k])
    print(f"  {name:24s} {col[i]:6.3f} bps/Hz at x = {xs[i] / 1000:5.1f} km")

roots = ris_placement_roots(cfg.geom.D, cfg.geom.H)
print(f"\nclosed-form surface optima: {roots[0] / 1000:.2f} and "
      f"{roots[1] / 1000:.2f} km")
print(f"fixed alpha = 0.5 gives up at most "
      f"{result.notes['alpha05_max_degradation_pct']:.1f}% of relay capacity")

# optional picture
try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

if plt is not None:
    km = [x / 1000 for x in xs]
    fig, ax = plt.subplots(figsize=(8, 4.5))
    ax.plot(km, rs05, label="relay, alpha = 0.5", ls="--")
    ax.plot(km, rsopt, label="relay, alpha optimized")
    for n in cfg.ris_N_list:
        ax.plot(km, result.column(f"ris_N{n}_bps_hz"), label=f"surface, N = {n}")
    for r in roots:
        ax.axvline(r / 1000, color="gray", lw=0.6, ls=":")
    ax.set_xlabel("platform offset x [km]")
    ax.set_ylabel("capacity [bps/Hz]")
    ax.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig("capacity_vs_placement.png", dpi=120)
    print("\nwrote capacity_vs_placement.png")
