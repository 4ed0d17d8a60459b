"""Task-offloading latency: ship S bits somewhere, compute, done.

Latency is the sum of one-way propagation, transmission at the mode's
capacity, and computation at the processor that ends up with the task.
Onboard execution (SMBS) uses the access hop and the platform's F_H;
forwarding (RS or RIS) pays the full relayed path and computes at the
ground cloud's F_C. Result-return traffic is not modeled.
"""

from ._record import Record
from .modes import Corridor, Mode, ModeConfigs, carrier
from .propagation import RadioParams, ScenarioGeometry, propagation_delay_s


class ComputeTask(Record):
    size_bits: float
    cycles_per_bit: float = 4.0

    def __post_init__(self):
        if self.size_bits < 0:
            raise ValueError("task size cannot be negative")
        if self.cycles_per_bit <= 0:
            raise ValueError("cycles per bit must be positive")


class CloudConfig(Record):
    F_C: float = 4e9  # ground cloud compute rate, cycles/s

    def __post_init__(self):
        if self.F_C <= 0:
            raise ValueError(
                f"F_C (cloud compute rate) must be positive, got {self.F_C}"
            )


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
    _, capacity_bps, _, path_m = carrier(corridor.row(mode, geom.x, configs))
    rate = compute_rate(mode, configs, cloud)
    sizes = (task.size_bits,)
    return task_latencies(path_m, capacity_bps, sizes, task.cycles_per_bit, rate)[0]
