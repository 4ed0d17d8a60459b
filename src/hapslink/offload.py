"""Task-offloading latency: ship S bits somewhere, compute, done.

Latency is the sum of one-way propagation, transmission at the mode's
capacity, and computation at the processor that ends up with the task.
Onboard execution (SMBS) uses the access hop and the platform's F_H;
forwarding (RS or RIS) pays the full relayed path and computes at the
ground cloud's F_C. Result-return traffic is not modeled.
"""

from dataclasses import dataclass

from .modes import Corridor, Mode, ModeConfigs
from .propagation import RadioParams, ScenarioGeometry, propagation_delay_s


@dataclass(frozen=True)
class ComputeTask:
    size_bits: float
    cycles_per_bit: float = 4.0

    def __post_init__(self):
        if self.size_bits < 0:
            raise ValueError("task size cannot be negative")
        if self.cycles_per_bit <= 0:
            raise ValueError("cycles per bit must be positive")


@dataclass(frozen=True)
class CloudConfig:
    F_C: float = 4e9  # ground cloud compute rate, cycles/s

    def __post_init__(self):
        if self.F_C <= 0:
            raise ValueError(
                f"F_C (cloud compute rate) must be positive, got {self.F_C}"
            )


def computation_latency(task: ComputeTask, F):
    """Seconds to grind through size_bits * cycles_per_bit cycles at rate F."""
    if F <= 0:
        raise ValueError("compute rate must be positive")
    return task.size_bits * task.cycles_per_bit / F


def transmission_latency(size_bits, capacity_bps):
    """Seconds to push size_bits through a pipe of capacity_bps."""
    if capacity_bps <= 0:
        raise ValueError("mode unreachable: capacity is zero")
    if size_bits < 0:
        raise ValueError("size cannot be negative")
    return size_bits / capacity_bps


def compute_rate(mode: Mode, configs: ModeConfigs, cloud: CloudConfig):
    """Cycles/s where the task runs: onboard for SMBS, the cloud otherwise."""
    return configs.smbs.F_H if mode is Mode.SMBS else cloud.F_C


def task_latency(path_m, capacity_bps, task: ComputeTask, rate):
    """Propagation over path_m, transmission at capacity_bps, computation
    at rate cycles/s: the one place the latency terms are summed."""
    return (
        propagation_delay_s(path_m)
        + transmission_latency(task.size_bits, capacity_bps)
        + computation_latency(task, rate)
    )


def offload_latency(
    mode: Mode,
    geom: ScenarioGeometry,
    radio: RadioParams,
    configs: ModeConfigs,
    task: ComputeTask,
    cloud: CloudConfig,
):
    """End-to-end offload latency in seconds, affine in the task size."""
    corridor = Corridor(geom.D, geom.H, radio)
    capacity_bps = corridor.capacity_bps_hz(mode, geom.x, configs) * radio.B
    if not capacity_bps > 0:
        raise ValueError(f"mode unreachable: {mode.value} capacity is zero")
    return task_latency(
        corridor.path_m(mode, geom.x), capacity_bps, task,
        compute_rate(mode, configs, cloud),
    )
