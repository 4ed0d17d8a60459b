"""Platform placement and objective-driven mode selection.

The relay power split has a closed form (modes.relay_optimal_split), so
no search runs for it. The platform placement x does need a search: a
grid over the corridor guards against the reflected path's two peaks,
and golden section then refines the single peak inside the winning cell.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .modes import Action, Corridor, Mode, ModeConfigs, mode_payload_power_W
from .offload import offload_path_m
from .propagation import RadioParams, ScenarioGeometry

GOLDEN_RATIO = (math.sqrt(5.0) + 1.0) / 2.0

# Fixed tie-break: prefer the most passive payload.
_PASSIVE_ORDER = (Mode.RIS, Mode.RS, Mode.SMBS)


class ObjectiveKind(Enum):
    MAX_CAPACITY = "max_capacity"
    MAX_ENERGY_EFFICIENCY = "max_energy_efficiency"
    MIN_ENERGY_SUBJECT_TO_QOS = "min_energy_subject_to_qos"


@dataclass(frozen=True)
class Objective:
    kind: ObjectiveKind = ObjectiveKind.MAX_CAPACITY
    qos_min_bps: Optional[float] = None

    def __post_init__(self):
        if self.kind is ObjectiveKind.MIN_ENERGY_SUBJECT_TO_QOS:
            if self.qos_min_bps is None or self.qos_min_bps <= 0:
                raise ValueError("a positive qos_min_bps is required for min_energy")


@dataclass(frozen=True)
class PlacementResult:
    x_opt: float
    objective_value: float
    iterations: int


@dataclass(frozen=True)
class ModeDecision:
    """Outcome of one selection: which payload, doing what, scoring how much.

    objective_value carries the chosen objective's figure: capacity in bps
    for max_capacity, bits per joule for max_energy_efficiency, payload
    watts for min_energy_subject_to_qos. mode is None only for infeasible
    outcomes. latency_s and energy_J are filled when a payload size is
    known. A figure that overflowed (a huge payload, extreme powers) is
    refused here rather than reported as inf or nan.
    """

    mode: Optional[Mode]
    action: Action
    objective_value: float
    latency_s: Optional[float] = None
    energy_J: Optional[float] = None

    def __post_init__(self):
        for name in ("objective_value", "latency_s", "energy_J"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} overflows to {value}")


# =====================================================================
# Golden-section search
# =====================================================================

def golden_section_max(fn, lo, hi, tol):
    """Maximise a unimodal fn on [lo, hi]; returns (x, fn(x), iterations)."""
    if not hi > lo:
        raise ValueError("need hi > lo")
    a, b = lo, hi
    c = b - (b - a) / GOLDEN_RATIO
    d = a + (b - a) / GOLDEN_RATIO
    fc, fd = fn(c), fn(d)
    iterations = 0
    while abs(b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - (b - a) / GOLDEN_RATIO
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) / GOLDEN_RATIO
            fd = fn(d)
        iterations += 1
    x = (a + b) / 2.0
    return x, fn(x), iterations


# =====================================================================
# Placement
# =====================================================================

def optimize_placement_numeric(
    mode: Mode,
    geom_template: ScenarioGeometry,
    radio: RadioParams,
    configs: ModeConfigs,
    grid_step=100.0,
    refine_tol=1e-3,
) -> PlacementResult:
    """Grid scan over x in [0, D] plus golden refinement in the winning cell.

    The grid guards against multiple peaks (the reflected path has two);
    refinement then only ever sees the single peak inside one cell.
    """
    if grid_step <= 0:
        raise ValueError("grid step must be positive")
    D = geom_template.D
    corridor = Corridor(D, geom_template.H, radio)

    def objective(x):
        return corridor.capacity_bps_hz(mode, x, configs)

    n_cells = max(1, math.ceil(D / grid_step))
    xs = [min(D, i * grid_step) for i in range(n_cells + 1)]
    values = [objective(x) for x in xs]
    best = max(range(len(xs)), key=lambda i: values[i])

    lo = xs[max(0, best - 1)]
    hi = xs[min(len(xs) - 1, best + 1)]
    x_opt, value, iterations = golden_section_max(objective, lo, hi, refine_tol)
    if values[best] > value:  # keep the grid point if refinement lost it
        x_opt, value = xs[best], values[best]
    return PlacementResult(x_opt=x_opt, objective_value=value, iterations=iterations)


# =====================================================================
# Mode selection for a communication demand
# =====================================================================

def payload_rows(geom: ScenarioGeometry, radio: RadioParams, configs: ModeConfigs):
    """(mode, capacity_bps, payload_W, path_m) per payload at this geometry,
    most passive first, read from one Corridor."""
    corridor = Corridor(geom.D, geom.H, radio)
    return tuple(
        (mode,
         corridor.capacity_bps_hz(mode, geom.x, configs) * radio.B,
         mode_payload_power_W(mode, configs),
         offload_path_m(mode, geom))
        for mode in _PASSIVE_ORDER
    )


def _action_for(mode: Mode) -> Action:
    return Action.SERVE_DIRECT if mode is Mode.SMBS else Action.FORWARD_VIA_GATEWAY


def best_payload(objective: Objective, rows):
    """(mode, action, objective value) of the best of payload_rows-style
    rows under the objective, or None when no row meets its QoS floor;
    ties fall to the earlier (more passive) row."""
    kind = objective.kind
    if kind is ObjectiveKind.MAX_CAPACITY:
        mode, capacity, _, _ = max(rows, key=lambda m: m[1])
        return mode, _action_for(mode), capacity
    if kind is ObjectiveKind.MAX_ENERGY_EFFICIENCY:
        mode, capacity, power, _ = max(rows, key=lambda m: m[1] / m[2])
        return mode, _action_for(mode), capacity / power
    if kind is ObjectiveKind.MIN_ENERGY_SUBJECT_TO_QOS:
        feasible = [m for m in rows if m[1] >= objective.qos_min_bps]
        if not feasible:
            return None
        mode, _, power, _ = min(feasible, key=lambda m: m[2])
        return mode, _action_for(mode), power
    raise ValueError(f"unknown objective kind {kind!r}")


def choose_payload(objective: Objective, rows) -> ModeDecision:
    """best_payload as a decision, INFEASIBLE when no row qualifies."""
    best = best_payload(objective, rows)
    if best is None:
        return ModeDecision(None, Action.INFEASIBLE, 0.0)
    return ModeDecision(*best)
