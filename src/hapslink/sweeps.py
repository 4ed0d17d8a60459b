"""Parameter sweeps behind the sweep-* commands.

Each sweep walks one variable (platform offset x or task size S),
evaluates every mode per grid point, and returns an ordered table plus a
handful of scalar observations (spreads, degradations, crossovers) that
the CLI reports alongside the CSV.

Every cell depends on its own grid point alone, so a large grid is
computed and rendered in two halves, the second in a forked child
(_table); the numbers, the text and every refusal are those of one
process.
"""

import math
from functools import partial
from itertools import chain
from operator import sub

from ._fork import Child, can_fork
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

# A grid of fewer points is computed in one process: below it the fork
# and the pipe cost more than the half of the work they move.
# On a 2-vCPU VM under Python 3.11 the three sweeps ran split at 0.71-0.88x
# of one process at 1,536 points and at 0.96-1.23x at 2,048. At least 2,
# so that neither half is empty.
SPLIT_MIN_POINTS = 2048


class SweepResult(Record):
    """A sweep's table and notes. A repeated column name, a column count
    unlike the header's, a column of another length than the first, or a
    cell that overflowed (a huge task, extreme powers), is refused here,
    not written. csv, when given, is the table already rendered as to_csv
    renders it."""

    header: tuple
    columns: tuple  # per header name, its cells; an array('d') from a sweep
    notes: dict  # a new {} when not given
    _csv = None  # no field: the rendered table a sweep hands over

    def __init__(self, header, columns, notes=None, *, csv=None):
        super().__init__(header, columns, {} if notes is None else notes)
        if csv is not None:
            object.__setattr__(self, "_csv", csv)

    def __post_init__(self):
        if len(set(self.header)) < len(self.header):  # one list entry's column hides another's
            name = next(n for i, n in enumerate(self.header) if n in self.header[:i])
            raise ValueError(f"[sweep] two columns are named {name}")
        if not self.header or len(self.columns) != len(self.header):
            raise ValueError(f"[sweep] header names: {len(self.header)}, "
                             f"columns: {len(self.columns)}")
        points = len(self.columns[0])
        for name, col in zip(self.header, self.columns):
            if len(col) != points:
                raise ValueError(f"[sweep] cells in column {name}: {len(col)}, "
                                 f"in {self.header[0]}: {points}")
        # an inf or nan cell makes its column's sum non-finite; so can
        # finite cells whose sum overflows, which the scan below then lets
        # through
        if all(math.isfinite(sum(col)) for col in self.columns):
            return
        for row in self.rows:
            for name, value in zip(self.header, row):
                if not math.isfinite(value):
                    raise ValueError(f"[sweep] {name} overflows to {value} "
                                     f"at {self.header[0]} = {row[0]:g}")

    @property
    def rows(self):
        """The table as row tuples, built from the columns on each call."""
        return tuple(zip(*self.columns))

    def to_csv(self):
        if self._csv is not None:
            return self._csv
        return ",".join(self.header) + "\n" + _render(self.columns)

    def column(self, name):
        return list(self.columns[self.header.index(name)])


def _render(cols):
    """CSV lines of the rows of cols, columns of one length, every cell as
    engine._fmt writes it, in one format call; sweep cells are never None."""
    line = ",".join(["%.8e"] * len(cols)) + "\n"
    return line * len(cols[0]) % tuple(chain.from_iterable(zip(*cols)))


# =====================================================================
# One grid, in one process or in two halves
# =====================================================================

def _table(header, grid, columns):
    """(columns, CSV text) of one sweep: columns(chunk) gives the sweep's
    columns over a chunk of grid, every cell from its own point alone. The
    table's columns, the grid first, come each as one array('d'), and the
    text is the header line and one rendered row per point.

    A grid of at least SPLIT_MIN_POINTS points, on Linux with os.fork, more
    than one usable CPU and no other thread, is computed and rendered in
    two halves (_part), the second in a forked child that sends its part
    as one value through _fork.Child; each of the parent's columns is
    extended with the child's bytes. If either half fails, the whole grid
    is computed again in one process, so a refusal is exactly the
    one-process refusal. The child is reaped before this returns or
    raises.
    """
    head = ",".join(header) + "\n"
    if len(grid) >= SPLIT_MIN_POINTS and can_fork():
        mid = len(grid) // 2
        # most of a half fits in the pipe at once, so the child sends it
        # while the parent still renders its own half
        with Child(lambda: [_part(columns, grid[mid:])]) as forked:
            try:
                cols, near = _part(columns, grid[:mid])
                ((far_cols, far),) = forked  # its one value, then its end mark
            except Exception:  # the one-process pass raises it again, or the refusal it hid
                pass
        # ok only if the end mark was read, so only after both halves
        if forked.ok:
            for col, data in zip(cols, far_cols):
                col.frombytes(data)
            return cols, "".join((head, near, far))
    cols, text = _part(columns, grid)
    return cols, head + text


def _part(columns, points):
    """(columns, CSV rows) of a part of a sweep's grid: the points and
    columns(points), each as one array('d'), and their rows rendered."""
    from array import array  # not at import: a replay never needs it
    cols = [points, *columns(points)]
    return tuple(array("d", col) for col in cols), _render(cols)


def _ris_variants(cfg: ScenarioConfig):
    """The configured surface with each swept element count."""
    return [replace(cfg.ris, N=n) for n in cfg.ris_N_list]


def _placement_columns(corridor, cfg: ScenarioConfig, xs):
    """The capacity sweep's columns over the offsets xs of corridor: the
    relay's capacity at alpha = 0.5 and at the optimal split (bps/Hz), the
    optimal alpha, and one capacity column (bps/Hz) per configured surface
    size. The hop-SNR columns are freed on return."""
    snr1s, snr2s, ris_cols = corridor.columns(xs, _ris_variants(cfg))
    alphas, capopt = relay_optimal_splits(snr1s, snr2s)
    cap05 = relay_capacities(snr1s, snr2s, 0.5)
    return [cap05, capopt, alphas, *ris_cols]


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
    cols, csv = _table(header, xs, partial(_placement_columns, corridor, cfg))

    # the grid ends short of the stop when the step does not divide the span
    stop05, stopopt, *_ = _placement_columns(corridor, cfg, [spec.stop])
    notes = {
        "alpha05_max_degradation_pct": max(_degradations(cols[1], cols[2])),
        "alpha05_degradation_at_stop_pct": _degradations(stop05, stopopt)[0],
        "ris_roots_m": ris_placement_roots(cfg.geom.D, cfg.geom.H),
    }
    return SweepResult(tuple(header), cols, notes, csv=csv)


# =====================================================================
# Energy efficiency vs placement
# =====================================================================

def _ee_columns(corridor, cfg: ScenarioConfig, xs):
    """Bits per joule over the offsets xs of corridor: the relay at alpha
    = 0.5 and at the optimal split, then each configured surface size."""
    cap05, capopt, alphas, *ris_cols = _placement_columns(corridor, cfg, xs)
    del alphas  # not an EE column: freed before the EE columns are built
    B = cfg.radio.B
    payloads = [(cfg.rs.payload_power_W, cap05), (cfg.rs.payload_power_W, capopt)]
    surfaces = _ris_variants(cfg)
    payloads += [(ris.payload_power_W, col) for ris, col in zip(surfaces, ris_cols)]
    return [energy_efficiencies(col, B, power) for power, col in payloads]


def sweep_ee(cfg: ScenarioConfig, step=None) -> SweepResult:
    """Bits per joule over x for the relay and each configured surface size."""
    header = ["x_m", "ee_rs_alpha05_bits_per_J", "ee_rs_alpha_opt_bits_per_J"]
    header += [f"ee_ris_N{n}_bits_per_J" for n in cfg.ris_N_list]
    xs = cfg.sweep_for("x", step).grid()
    corridor = Corridor(cfg.geom.D, cfg.geom.H, cfg.radio)
    cols, csv = _table(header, xs, partial(_ee_columns, corridor, cfg))

    notes = {}
    for n, col in zip(cfg.ris_N_list, cols[3:]):
        name = f"ris_N{n}_ee_spread_pct"
        low = min(col)
        if not low > 0:
            raise ValueError(
                f"{name}: the surface's energy efficiency falls to {low:g} "
                "bits/J on this corridor"
            )
        notes[name] = 100.0 * (max(col) / low - 1.0)
    return SweepResult(tuple(header), cols, notes, csv=csv)


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

    def columns(sizes):
        return [
            task_latencies(path, capacity, sizes, cfg.cycles_per_bit, rate)
            for (_, capacity, _, path), rate in legs
        ]

    cols, csv = _table(header, spec.grid(), columns)

    notes = {}
    for fh, smbs_col in zip(cfg.smbs_F_H_list, cols[1:]):
        # the base station's latency less the faster relay's, point by
        # point, up to the first cell where it turns non-negative; the
        # crossing is interpolated linearly inside that cell
        relay_best = map(min, cols[-2], cols[-1])
        gaps = zip(cols[0], map(sub, smbs_col, relay_best))
        crossing = None
        s0, before = next(gaps)
        for s1, after in gaps:
            if before < 0 <= after:
                crossing = s0 + before / (before - after) * (s1 - s0)
                break
            s0, before = s1, after
        notes[f"smbs_FH{fh / 1e9:g}GHz_crossover_S_bits"] = crossing
    return SweepResult(tuple(header), cols, notes, csv=csv)
