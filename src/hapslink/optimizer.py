"""Objective-driven payload selection.

Nothing here searches. The relay power split has a closed form
(modes.relay_optimal_split), and each payload's best platform offset is
fixed by where its capacity is stationary (modes.Corridor.best_offset),
so selection only compares the payloads' rows at one geometry under the
objective.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .modes import Action, Corridor, Mode, ModeConfigs, mode_payload_power_W
from .propagation import RadioParams, ScenarioGeometry

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
         corridor.path_m(mode, geom.x))
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
