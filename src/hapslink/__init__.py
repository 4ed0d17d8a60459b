"""Multi-payload aerial backhaul simulator.

Models three communication payloads on one high-altitude platform (a
regenerative base station, a half-duplex relay, a passive reflecting
surface), their capacity / power / latency trade-offs over a gateway -
platform - gNB triangle, and a request-driven engine that picks the
payload per request.
"""

from ._record import replace
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
    build_engine,
    decisions_to_csv,
    handle_request,
    load_trace,
    parse_trace_line,
    replay_trace,
)
from .modes import (
    Action,
    Corridor,
    Mode,
    ModeConfigs,
    RisConfig,
    RsConfig,
    SmbsConfig,
    relay_capacities,
    relay_optimal_splits,
    ris_placement_roots,
)
from .offload import (
    CloudConfig,
    task_latencies,
)
from .optimizer import (
    ModeDecision,
    Objective,
    ObjectiveKind,
)
from .propagation import (
    LinkBudget,
    RadioParams,
    ScenarioGeometry,
    db_to_linear,
    dry_air_specific_attenuation,
    noise_power_dBm,
    propagation_delay_s,
)
from .sweeps import SweepResult, sweep_capacity, sweep_ee, sweep_latency

__version__ = "0.1.0"
