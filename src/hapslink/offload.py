"""Task-offloading latency: ship S bits somewhere, compute, done.

Latency is the sum of one-way propagation, transmission at the mode's
capacity, and computation at the processor that ends up with the task.
Onboard execution (SMBS) uses the access hop and the platform's F_H;
forwarding (RS or RIS) pays the full relayed path and computes at the
ground cloud's F_C. The path and capacity are a payload's row
(modes.Corridor.rows), and task_latencies sums the terms over a column
of task sizes. Result-return traffic is not modeled.
"""

from typing import Annotated

from ._record import POSITIVE, Record
from .modes import Mode, ModeConfigs
from .propagation import propagation_delay_s


class CloudConfig(Record):
    F_C: Annotated[float, POSITIVE] = 4e9  # ground cloud compute rate, cycles/s


def compute_rate(mode: Mode, configs: ModeConfigs, cloud: CloudConfig):
    """Cycles/s where the task runs: onboard for SMBS, the cloud otherwise."""
    return configs.smbs.F_H if mode is Mode.SMBS else cloud.F_C


def task_latencies(path_m, capacity_bps, sizes, cycles_per_bit, rate):
    """Latency of each task size in sizes (bits): propagation over path_m,
    transmission at capacity_bps, computation at rate cycles/s. The one
    place the latency terms are summed; each check runs once per column."""
    prop = propagation_delay_s(path_m)
    if capacity_bps <= 0:
        raise ValueError("mode unreachable: capacity is zero")
    if min(sizes) < 0:
        raise ValueError("size cannot be negative")
    if cycles_per_bit <= 0:
        raise ValueError("cycles per bit must be positive")
    if rate <= 0:
        raise ValueError("compute rate must be positive")
    return [prop + s / capacity_bps + s * cycles_per_bit / rate for s in sizes]
