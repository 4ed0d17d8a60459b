"""Objective-driven payload selection.

Nothing here searches. The relay power split has a closed form
(modes.relay_optimal_splits), and each payload's best platform offset is
fixed by where its capacity is stationary (modes.Corridor.best_offset),
so selection only compares the payloads' rows (modes.Corridor.rows) at
one geometry under the objective.
"""

import math
from enum import Enum
from typing import Optional

from ._record import Record
from .modes import Action, Mode


class ObjectiveKind(Enum):
    MAX_CAPACITY = "max_capacity"
    MAX_ENERGY_EFFICIENCY = "max_energy_efficiency"
    MIN_ENERGY_SUBJECT_TO_QOS = "min_energy_subject_to_qos"


class Objective(Record):
    """What a request asks its payload to do best. min_energy's QoS floor
    is the request's own qos_min_bps."""

    kind: ObjectiveKind = ObjectiveKind.MAX_CAPACITY

    def __post_init__(self):
        if not isinstance(self.kind, ObjectiveKind):
            raise ValueError(f"unknown objective kind {self.kind!r}")


class ModeDecision(Record):
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
        check_figures(self.objective_value, self.latency_s, self.energy_J)


def check_figures(objective_value, latency_s=None, energy_J=None):
    """Refuse the first of a decision's figures that is not finite, by
    name; None passes."""
    for name, value in (
        ("objective_value", objective_value),
        ("latency_s", latency_s),
        ("energy_J", energy_J),
    ):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} overflows to {value}")


# =====================================================================
# Mode selection for a communication demand
# =====================================================================

def best_payload(objective: Objective, rows, floor):
    """(mode, objective value) of the best of Corridor.rows-style rows
    under the objective, or None when min_energy finds no row that
    carries floor bps; ties fall to the earlier (more passive) row."""
    kind = objective.kind
    if kind is ObjectiveKind.MAX_CAPACITY:
        mode, capacity, _, _ = max(rows, key=lambda m: m[1])
        return mode, capacity
    if kind is ObjectiveKind.MAX_ENERGY_EFFICIENCY:
        mode, capacity, power, _ = max(rows, key=lambda m: m[1] / m[2])
        return mode, capacity / power
    feasible = [m for m in rows if m[1] >= floor]  # min_energy under the floor
    if not feasible:
        return None
    mode, _, power, _ = min(feasible, key=lambda m: m[2])
    return mode, power

