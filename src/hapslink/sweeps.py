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

from ._fork import can_fork, reap, spawn
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

# A grid of fewer points is computed in one process: below it the fork,
# the pipe and the merge cost more than the half of the work they move.
# On a 2-vCPU VM under Python 3.11 the three sweeps ran split at 0.71-0.88x
# of one process at 1,536 points and at 0.96-1.23x at 2,048. At least 2,
# so that neither half is empty.
SPLIT_MIN_POINTS = 2048


class SweepResult(Record):
    """A sweep's table and notes. A repeated column name, or a cell that
    overflowed (a huge task, extreme powers), is refused here, not written.
    csv, when given, is the table already rendered as to_csv renders it."""

    header: tuple
    rows: tuple  # of row tuples, one float per header name
    notes: dict  # a new {} when not given
    _csv = None  # no field: the rendered table a sweep hands over

    def __init__(self, header, rows, notes=None, *, csv=None):
        super().__init__(header, rows, {} if notes is None else notes)
        if csv is not None:
            object.__setattr__(self, "_csv", csv)

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
        if self._csv is not None:
            return self._csv
        return ",".join(self.header) + "\n" + _render(self.rows, len(self.header))

    def column(self, name):
        idx = self.header.index(name)
        return [row[idx] for row in self.rows]


def _render(rows, width):
    """CSV lines of rows of width cells each, every cell as engine._fmt
    writes it; sweep rows never hold None."""
    template = ",".join(["%.8e"] * width) + "\n"
    return "".join([template % row for row in rows])


# =====================================================================
# One grid, in one process or in two halves
# =====================================================================

def _table(header, grid, columns):
    """(columns, CSV text) of one sweep: columns(chunk) gives the sweep's
    columns over a chunk of grid, every cell from its own point alone, and
    the text is the header line and one rendered row per point.

    A grid of at least SPLIT_MIN_POINTS points, on Linux with os.fork, more
    than one usable CPU and no other thread, is computed and rendered in
    two halves, the second in a forked child. If either half fails, the
    whole grid is computed again in one process, so a refusal is exactly
    the one-process refusal.
    """
    head = ",".join(header) + "\n"
    if _can_split(len(grid)):
        halves = _in_two_halves(grid, columns)
        if halves is not None:
            cols, near, far = halves
            return cols, "".join((head, near, far))
    cols = columns(grid)
    return cols, head + _render(zip(grid, *cols), len(header))


def _can_split(points):
    return points >= SPLIT_MIN_POINTS and can_fork()


def _in_two_halves(grid, columns):
    """(columns over grid, first half's rows rendered, second half's rows
    rendered), the second half computed and rendered in a forked child
    that sends its columns as packed doubles, then its text, through a
    pipe; None if either half fails. The child is reaped before this
    returns or raises."""
    from array import array

    mid = len(grid) // 2
    near, far = grid[:mid], grid[mid:]

    def child(out):
        cols = columns(far)
        text = _render(zip(far, *cols), 1 + len(cols))
        out.write(array("d", chain.from_iterable(cols)))
        out.write(text.encode("ascii"))

    # most of a half fits in the pipe at once, so the child writes it
    # while the parent still renders its own half
    forked = spawn(child, 1 << 20)
    if forked is None:  # no process to spare: one process does it all
        return None
    pid, pipe = forked
    try:
        try:
            cols = columns(near)
        except Exception:  # the one-process pass raises it again, or the refusal it hid
            return None
        text = _render(zip(near, *cols), 1 + len(cols))
        data = pipe.read()
    finally:
        status = reap(pid, pipe)
    if status != 0:  # what it sent may stop short
        return None
    size = 8 * len(cols) * len(far)
    flat = array("d")
    flat.frombytes(memoryview(data)[:size])
    far_text = str(memoryview(data)[size:], "ascii")
    del data  # freed before the merged columns are built
    n = len(far)
    cols = [col + flat[i * n:(i + 1) * n].tolist() for i, col in enumerate(cols)]
    return cols, text, far_text


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
    rows = tuple(zip(xs, *cols))

    # the grid ends short of the stop when the step does not divide the span
    stop05, stopopt, *_ = _placement_columns(corridor, cfg, [spec.stop])
    notes = {
        "alpha05_max_degradation_pct": max(_degradations(cols[0], cols[1])),
        "alpha05_degradation_at_stop_pct": _degradations(stop05, stopopt)[0],
        "ris_roots_m": ris_placement_roots(cfg.geom.D, cfg.geom.H),
    }
    return SweepResult(tuple(header), rows, notes, csv=csv)


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
    ee_cols, csv = _table(header, xs, partial(_ee_columns, corridor, cfg))
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
    return SweepResult(tuple(header), rows, notes, csv=csv)


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

    sizes = spec.grid()
    cols, csv = _table(header, sizes, columns)
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
    return SweepResult(tuple(header), rows, notes, csv=csv)
