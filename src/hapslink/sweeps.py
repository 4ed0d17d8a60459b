"""Parameter sweeps behind the sweep-* commands.

Each sweep walks one variable (platform offset x or task size S),
evaluates every mode per grid point, and returns an ordered table plus a
handful of scalar observations (spreads, degradations, crossovers) that
the CLI reports alongside the CSV.
"""

import math
from dataclasses import dataclass, field, replace
from itertools import chain

from .config import ScenarioConfig
from .modes import (
    Corridor,
    Mode,
    energy_efficiency,
    relay_capacity,
    relay_optimal_split,
    ris_placement_roots,
)
from .offload import ComputeTask, task_latency


@dataclass(frozen=True)
class SweepResult:
    """A sweep's table and notes. A cell that overflowed (a huge task,
    extreme powers) is refused here rather than written as inf or nan."""

    header: tuple
    rows: tuple
    notes: dict = field(default_factory=dict)

    def __post_init__(self):
        if all(map(math.isfinite, chain.from_iterable(self.rows))):
            return
        row = next(r for r in self.rows if not all(map(math.isfinite, r)))
        name, value = next(
            (n, v) for n, v in zip(self.header, row) if not math.isfinite(v)
        )
        raise ValueError(
            f"[sweep] {name} overflows to {value} at {self.header[0]} = {row[0]:g}"
        )

    def to_csv(self):
        # same cells as engine._fmt; sweep rows never hold None
        template = ",".join(["{:.8e}"] * len(self.header)).format
        lines = [",".join(self.header)]
        lines.extend(template(*row) for row in self.rows)
        return "\n".join(lines) + "\n"

    def column(self, name):
        idx = self.header.index(name)
        return [row[idx] for row in self.rows]


def _ris_variants(cfg: ScenarioConfig):
    """The configured surface with each swept element count."""
    return [replace(cfg.ris, N=n) for n in cfg.ris_N_list]


# =====================================================================
# Capacity vs placement
# =====================================================================

def sweep_capacity(cfg: ScenarioConfig, step=None) -> SweepResult:
    """Relay (fixed and optimal split) and reflected-path capacity over x."""
    spec = cfg.sweep_for("x", step)
    header = ["x_m", "rs_alpha05_bps_hz", "rs_alpha_opt_bps_hz", "alpha_opt"]
    header += [f"ris_N{n}_bps_hz" for n in cfg.ris_N_list]
    surfaces = _ris_variants(cfg)
    corridor = Corridor(cfg.geom.D, cfg.geom.H, cfg.radio)
    rows = []
    for x in spec.grid():
        snr1, snr2 = corridor.rs_hop_snrs(x)
        alpha_opt, cap_opt = relay_optimal_split(snr1, snr2)
        row = [x, relay_capacity(snr1, snr2, 0.5), cap_opt, alpha_opt]
        row += [corridor.ris_capacity(x, ris) for ris in surfaces]
        rows.append(tuple(row))

    cap05 = [r[1] for r in rows]
    capopt = [r[2] for r in rows]
    degradation = [
        100.0 * (1.0 - c5 / co) if co > 0 else 0.0
        for c5, co in zip(cap05, capopt)
    ]
    notes = {
        "alpha05_max_degradation_pct": max(degradation),
        "alpha05_degradation_at_stop_pct": degradation[-1],
        "ris_roots_m": ris_placement_roots(cfg.geom.D, cfg.geom.H),
    }
    return SweepResult(tuple(header), tuple(rows), notes)


# =====================================================================
# Energy efficiency vs placement
# =====================================================================

def sweep_ee(cfg: ScenarioConfig, step=None) -> SweepResult:
    """Bits per joule over x for the relay and each configured surface size."""
    spec = cfg.sweep_for("x", step)
    header = ["x_m", "ee_rs_alpha05_bits_per_J", "ee_rs_alpha_opt_bits_per_J"]
    header += [f"ee_ris_N{n}_bits_per_J" for n in cfg.ris_N_list]
    surfaces = _ris_variants(cfg)
    corridor = Corridor(cfg.geom.D, cfg.geom.H, cfg.radio)
    rows = []
    for x in spec.grid():
        snr1, snr2 = corridor.rs_hop_snrs(x)
        _, cap_opt = relay_optimal_split(snr1, snr2)
        row = [
            x,
            energy_efficiency(
                relay_capacity(snr1, snr2, 0.5) * cfg.radio.B,
                cfg.rs.payload_power_W,
            ),
            energy_efficiency(cap_opt * cfg.radio.B, cfg.rs.payload_power_W),
        ]
        for ris in surfaces:
            cap = corridor.ris_capacity(x, ris)
            power = ris.N * ris.per_element_power_W
            row.append(energy_efficiency(cap * cfg.radio.B, power))
        rows.append(tuple(row))

    notes = {}
    for j, n in enumerate(cfg.ris_N_list):
        col = [r[3 + j] for r in rows]
        name = f"ris_N{n}_ee_spread_pct"
        if not min(col) > 0:
            raise ValueError(
                f"{name}: the surface's energy efficiency falls to {min(col):g} "
                "bits/J on this corridor"
            )
        notes[name] = 100.0 * (max(col) / min(col) - 1.0)
    return SweepResult(tuple(header), tuple(rows), notes)


# =====================================================================
# Offload latency vs task size
# =====================================================================

def _latency_leg(cfg: ScenarioConfig, corridor, mode, rate):
    """(path_m, capacity_bps, compute rate) of mode at its best offset."""
    x = corridor.best_offset(mode)
    capacity = corridor.capacity_bps_hz(mode, x, cfg.configs) * cfg.radio.B
    if not capacity > 0:
        raise ValueError(f"mode unreachable: {mode.value} capacity is zero")
    return corridor.path_m(mode, x), capacity, rate


def sweep_latency(cfg: ScenarioConfig, step=None) -> SweepResult:
    """Offload latency over task size, one column per compute placement.

    Each payload sits at its own best offset (Corridor.best_offset): the
    base station right above the gNB, the relay at its crest, the surface
    at the first closed-form root.
    """
    spec = cfg.sweep_for("S", step)

    header = ["S_bits"]
    header += [f"smbs_FH{fh / 1e9:g}GHz_s" for fh in cfg.smbs_F_H_list]
    header += ["rs_s", "ris_s"]

    # (path_m, capacity_bps, compute rate) per column; only S varies by row
    corridor = Corridor(cfg.geom.D, cfg.geom.H, cfg.radio)
    legs = [_latency_leg(cfg, corridor, Mode.SMBS, fh) for fh in cfg.smbs_F_H_list]
    legs.append(_latency_leg(cfg, corridor, Mode.RS, cfg.cloud.F_C))
    legs.append(_latency_leg(cfg, corridor, Mode.RIS, cfg.cloud.F_C))
    rows = []
    for s in spec.grid():
        task = ComputeTask(s, cfg.cycles_per_bit)
        rows.append((s, *(task_latency(p, c, task, rate) for p, c, rate in legs)))

    notes = {}
    n_fh = len(cfg.smbs_F_H_list)
    relay_best = [min(r[1 + n_fh], r[2 + n_fh]) for r in rows]
    s_col = [r[0] for r in rows]
    for j, fh in enumerate(cfg.smbs_F_H_list):
        smbs_col = [r[1 + j] for r in rows]
        crossing = None
        for i in range(1, len(rows)):
            before = smbs_col[i - 1] - relay_best[i - 1]
            after = smbs_col[i] - relay_best[i]
            if before < 0 <= after:
                # linear interpolation inside the bracketing cell
                frac = before / (before - after)
                crossing = s_col[i - 1] + frac * (s_col[i] - s_col[i - 1])
                break
        notes[f"smbs_FH{fh / 1e9:g}GHz_crossover_S_bits"] = crossing
    return SweepResult(tuple(header), tuple(rows), notes)
