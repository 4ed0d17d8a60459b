"""
Task offloading: onboard compute against the cloud path
=======================================================

A task of S bits costs transmission plus computation time. The
base-station payload computes onboard with a slower clock but a short
single hop; the relay and the surface forward to a faster cloud over
two hops. Small tasks favor onboard compute, large ones the cloud, and
the break-even size grows with the onboard clock.
"""

from dataclasses import replace

from hapslink import (
    CloudConfig,
    ComputeTask,
    Corridor,
    Mode,
    load_config,
    offload_latency,
    sweep_latency,
)

cfg = load_config(None)

# single task, all three payloads, each at its own best placement; the
# corridor gives that placement and the rate each one ships the task at
corridor = Corridor(cfg.geom.D, cfg.geom.H, cfg.radio)
task = ComputeTask(size_bits=1e6, cycles_per_bit=cfg.cycles_per_bit)
cloud = CloudConfig()
for mode in (Mode.SMBS, Mode.RS, Mode.RIS):
    x = corridor.best_offset(mode)
    rate = corridor.capacity_bps_hz(mode, x, cfg.configs) * cfg.radio.B
    geom = replace(cfg.geom, x=x)
    t = offload_latency(mode, geom, cfg.radio, cfg.configs, task, cloud)
    print(f"1 Mbit task via {mode.value:4s} at x = {x / 1000:5.2f} km: "
          f"{rate / 1e6:6.1f} Mbit/s, {1e3 * t:7.3f} ms")

# the full sweep: latency is exactly affine in S, so a single
# crossover against the best relayed path exists per onboard clock
result = sweep_latency(cfg)
print("\nbreak-even task size per onboard clock")
for fh in cfg.smbs_F_H_list:
    s_star = result.notes[f"smbs_FH{fh / 1e9:g}GHz_crossover_S_bits"]
    print(f"  F_H = {fh / 1e9:.0f} GHz: {s_star / 1e3:8.1f} kbit")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

if plt is not None:
    s = [v / 1e6 for v in result.column("S_bits")]
    fig, ax = plt.subplots(figsize=(8, 4.5))
    for fh in cfg.smbs_F_H_list:
        col = result.column(f"smbs_FH{fh / 1e9:g}GHz_s")
        ax.plot(s, [1e3 * v for v in col], label=f"onboard, F_H = {fh / 1e9:.0f} GHz")
    ax.plot(s, [1e3 * v for v in result.column("rs_s")], ls="--",
            label="cloud via relay")
    ax.plot(s, [1e3 * v for v in result.column("ris_s")], ls="--",
            label="cloud via surface")
    ax.set_xlabel("task size S [Mbit]")
    ax.set_ylabel("offload latency [ms]")
    ax.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig("offload_latency.png", dpi=120)
    print("\nwrote offload_latency.png")
