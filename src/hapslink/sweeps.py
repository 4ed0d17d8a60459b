"""Parameter sweeps behind the sweep-* commands.

Each sweep walks one variable (platform offset x or task size S),
evaluates every mode per grid point, and returns an ordered table plus a
handful of scalar observations (spreads, degradations, crossovers) that
the CLI reports alongside the CSV.
"""

import math
from itertools import chain

from ._record import Record, replace
from .config import ScenarioConfig
from .modes import (
    Corridor,
    Mode,
    carrier,
    energy_efficiencies,
    relay_capacities,
    relay_optimal_splits,
    ris_placement_roots,
)
from .offload import task_latencies


class SweepResult(Record):
    """A sweep's table and notes. A repeated column name, or a cell that
    overflowed (a huge task, extreme powers), is refused here, not written."""

    header: tuple
    rows: tuple  # of row tuples, one float per header name
    notes: dict  # a new {} when not given

    def __init__(self, header, rows, notes=None):
        super().__init__(header, rows, {} if notes is None else notes)

    def __post_init__(self):
        if len(set(self.header)) < len(self.header):  # one list entry's column hides another's
            name = next(n for i, n in enumerate(self.header) if n in self.header[:i])
            raise ValueError(f"[sweep] two columns are named {name}")
        # an inf or nan cell makes the sum non-finite; so can finite cells
        # whose sum overflows, which the scan below then lets through
        if math.isfinite(sum(chain.from_iterable(self.rows))):
            return
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
        template = ",".join(["%.8e"] * len(self.header)) + "\n"
        rows = "".join([template % row for row in self.rows])
        return ",".join(self.header) + "\n" + rows

    def column(self, name):
        idx = self.header.index(name)
        return [row[idx] for row in self.rows]


def _ris_variants(cfg: ScenarioConfig):
    """The configured surface with each swept element count."""
    return [replace(cfg.ris, N=n) for n in cfg.ris_N_list]


def _placement_columns(corridor, cfg: ScenarioConfig, xs):
    """The columns over the offsets xs of corridor: the relay's capacity
    at alpha = 0.5 and at the optimal split (bps/Hz), the optimal alpha,
    and one capacity column (bps/Hz) per configured surface size. The
    hop-SNR columns are freed on return, so a sweep's memory peak stays
    below that of the CSV rendered from its rows."""
    snr1s, snr2s, ris_cols = corridor.columns(xs, _ris_variants(cfg))
    alphas, capopt = relay_optimal_splits(snr1s, snr2s)
    cap05 = relay_capacities(snr1s, snr2s, 0.5)
    return cap05, capopt, alphas, ris_cols


def _degradations(cap05, capopt):
    """The relay's capacity lost at alpha = 0.5 against the optimal
    split, in percent of the latter."""
    return [100.0 * (1.0 - c5 / co) if co > 0 else 0.0 for c5, co in zip(cap05, capopt)]


# =====================================================================
# Capacity vs placement
# =====================================================================

def sweep_capacity(cfg: ScenarioConfig, step=None) -> SweepResult:
    """Relay (fixed and optimal split) and reflected-path capacity over x."""
    header = ["x_m", "rs_alpha05_bps_hz", "rs_alpha_opt_bps_hz", "alpha_opt"]
    header += [f"ris_N{n}_bps_hz" for n in cfg.ris_N_list]
    spec = cfg.sweep_for("x", step)
    xs = spec.grid()
    corridor = Corridor(cfg.geom.D, cfg.geom.H, cfg.radio)
    cap05, capopt, alphas, ris_cols = _placement_columns(corridor, cfg, xs)
    rows = tuple(zip(xs, cap05, capopt, alphas, *ris_cols))

    # the grid ends short of the stop when the step does not divide the span
    stop05, stopopt, _, _ = _placement_columns(corridor, cfg, [spec.stop])
    notes = {
        "alpha05_max_degradation_pct": max(_degradations(cap05, capopt)),
        "alpha05_degradation_at_stop_pct": _degradations(stop05, stopopt)[0],
        "ris_roots_m": ris_placement_roots(cfg.geom.D, cfg.geom.H),
    }
    return SweepResult(tuple(header), rows, notes)


# =====================================================================
# Energy efficiency vs placement
# =====================================================================

def sweep_ee(cfg: ScenarioConfig, step=None) -> SweepResult:
    """Bits per joule over x for the relay and each configured surface size."""
    header = ["x_m", "ee_rs_alpha05_bits_per_J", "ee_rs_alpha_opt_bits_per_J"]
    header += [f"ee_ris_N{n}_bits_per_J" for n in cfg.ris_N_list]
    xs = cfg.sweep_for("x", step).grid()
    corridor = Corridor(cfg.geom.D, cfg.geom.H, cfg.radio)
    cap05, capopt, alphas, ris_cols = _placement_columns(corridor, cfg, xs)
    del alphas  # not an EE column: freed before the EE columns are built
    B = cfg.radio.B
    payloads = [(cfg.rs.payload_power_W, cap05), (cfg.rs.payload_power_W, capopt)]
    surfaces = _ris_variants(cfg)
    payloads += [(ris.payload_power_W, col) for ris, col in zip(surfaces, ris_cols)]
    ee_cols = [energy_efficiencies(col, B, power) for power, col in payloads]
    del cap05, capopt, ris_cols, payloads
    rows = tuple(zip(xs, *ee_cols))

    notes = {}
    for n, col in zip(cfg.ris_N_list, ee_cols[2:]):
        name = f"ris_N{n}_ee_spread_pct"
        if not min(col) > 0:
            raise ValueError(
                f"{name}: the surface's energy efficiency falls to {min(col):g} "
                "bits/J on this corridor"
            )
        notes[name] = 100.0 * (max(col) / min(col) - 1.0)
    return SweepResult(tuple(header), rows, notes)


# =====================================================================
# Offload latency vs task size
# =====================================================================

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

    # (payload row at its best offset, compute rate) per column
    corridor = Corridor(cfg.geom.D, cfg.geom.H, cfg.radio)
    at_crest = {
        mode: row for mode in (Mode.SMBS, Mode.RS, Mode.RIS)
        for row in corridor.rows(corridor.best_offset(mode), cfg.configs) if row[0] is mode
    }
    smbs, rs, ris = map(carrier, at_crest.values())
    legs = [(smbs, fh) for fh in cfg.smbs_F_H_list]
    legs += [(rs, cfg.cloud.F_C), (ris, cfg.cloud.F_C)]
    sizes = spec.grid()
    cols = [
        task_latencies(path, capacity, sizes, cfg.cycles_per_bit, rate)
        for (_, capacity, _, path), rate in legs
    ]
    rows = tuple(zip(sizes, *cols))

    notes = {}
    relay_best = list(map(min, cols[-2], cols[-1]))
    for fh, smbs_col in zip(cfg.smbs_F_H_list, cols):
        crossing = None
        for i in range(1, len(rows)):
            before = smbs_col[i - 1] - relay_best[i - 1]
            after = smbs_col[i] - relay_best[i]
            if before < 0 <= after:
                # linear interpolation inside the bracketing cell
                frac = before / (before - after)
                crossing = sizes[i - 1] + frac * (sizes[i] - sizes[i - 1])
                break
        notes[f"smbs_FH{fh / 1e9:g}GHz_crossover_S_bits"] = crossing
    return SweepResult(tuple(header), rows, notes)
