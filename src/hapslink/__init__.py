"""Multi-payload aerial backhaul simulator.

Models three communication payloads on one high-altitude platform (a
regenerative base station, a half-duplex relay, a passive reflecting
surface), their capacity / power / latency trade-offs over a gateway -
platform - gNB triangle, and a request-driven engine that picks the
payload per request.
"""

from .config import (
    DEFAULT_S_SWEEP,
    DEFAULT_X_SWEEP,
    ENV_CONFIG_VAR,
    ConfigError,
    ScenarioConfig,
    SweepSpec,
    load_config,
)
from .engine import (
    CacheState,
    EngineContext,
    ReplayResult,
    ReplaySummary,
    Request,
    RequestError,
    RequestKind,
    decisions_to_csv,
    handle_request,
    load_trace,
    parse_trace_line,
    replay_trace,
)
from .modes import (
    Action,
    Mode,
    ModeConfigs,
    RisConfig,
    RsConfig,
    SmbsConfig,
    energy_efficiency,
    mode_capacity_bps_hz,
    mode_payload_power_W,
    ris_capacity,
    ris_placement_roots,
    ris_snr_linear,
    rs_capacity,
    smbs_access_capacity,
)
from .offload import (
    CloudConfig,
    ComputeTask,
    computation_latency,
    offload_latency,
    transmission_latency,
)
from .optimizer import (
    ModeDecision,
    Objective,
    ObjectiveKind,
    PlacementResult,
    golden_section_max,
    optimal_ris_positions,
    optimize_alpha,
    optimize_placement_numeric,
    select_mode_for_communication,
)
from .propagation import (
    Link,
    RadioParams,
    ScenarioGeometry,
    db_to_linear,
    dry_air_specific_attenuation,
    elevation_angle,
    fspl_dB,
    linear_to_db,
    link_snr_linear,
    noise_power_dBm,
    propagation_delay_s,
    slant_distance,
    total_link_loss_dB,
)
from .sweeps import SweepResult, sweep_capacity, sweep_ee, sweep_latency

__version__ = "0.1.0"
