"""Request-driven mode selection with an onboard content cache.

The platform classifies each incoming request (communication, content
delivery, caching, task offloading), consults its cache and the per-mode
capacity models, and emits one ModeDecision per request. State is a
popularity-counting LRU cache; processing a trace is a deterministic
fold of handle_request over the requests.
"""

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .modes import Action, Mode, ModeConfigs
from .offload import (
    CloudConfig,
    ComputeTask,
    compute_rate,
    task_latency,
    transmission_latency,
)
from .optimizer import (
    ModeDecision,
    Objective,
    ObjectiveKind,
    choose_payload,
    payload_rows,
)
from .propagation import RadioParams, ScenarioGeometry, propagation_delay_s


class RequestKind(Enum):
    COMMUNICATION = "communication"
    CONTENT_DELIVERY = "content_delivery"
    CACHING = "caching"
    TASK_OFFLOADING = "task_offloading"


class RequestError(ValueError):
    """Malformed request; carries a human-readable diagnostic."""


@dataclass(frozen=True)
class Request:
    t: float
    kind: RequestKind
    content_id: Optional[str] = None
    size_bits: Optional[float] = None
    objective: Optional[Objective] = None
    qos_min_bps: Optional[float] = None


def validate_request(req: Request):
    """Reject structurally broken requests before any state is touched."""
    if not isinstance(req.kind, RequestKind):
        raise RequestError(f"unknown request kind {req.kind!r}")
    needs_content = req.kind in (RequestKind.CONTENT_DELIVERY, RequestKind.CACHING)
    if needs_content and not req.content_id:
        raise RequestError(f"{req.kind.value} request needs a content_id")
    if not needs_content and req.content_id:
        raise RequestError(f"{req.kind.value} request must not carry a content_id")
    for name in ("t", "size_bits", "qos_min_bps"):
        value = getattr(req, name)
        if value is not None and not math.isfinite(value):
            raise RequestError(f"{name} must be finite, got {value}")
    if req.kind is RequestKind.TASK_OFFLOADING:
        if req.size_bits is None:
            raise RequestError("task_offloading request needs size_bits")
    if req.size_bits is not None and req.size_bits < 0:
        raise RequestError(f"size_bits cannot be negative, got {req.size_bits}")
    if req.qos_min_bps is not None and req.qos_min_bps <= 0:
        raise RequestError("qos_min_bps must be positive when given")


# =====================================================================
# Cache state
# =====================================================================

@dataclass
class CacheState:
    """LRU cache plus a cumulative per-id popularity counter.

    entries keeps insertion/use order (least recently used first);
    popularity counts every sighting of an id, cached or not. An id is
    promoted into the cache once its counter reaches popularity_threshold.
    """

    capacity: int = 16
    popularity_threshold: int = 3
    entries: "OrderedDict[str, None]" = field(default_factory=OrderedDict)
    popularity: dict = field(default_factory=dict)

    def copy(self):
        clone = CacheState(
            capacity=self.capacity,
            popularity_threshold=self.popularity_threshold,
        )
        clone.entries = OrderedDict(self.entries)
        clone.popularity = dict(self.popularity)
        return clone

    def contains(self, content_id):
        return content_id in self.entries

    def touch(self, content_id):
        # mark as most recently used
        self.entries.move_to_end(content_id)

    def insert(self, content_id):
        if content_id in self.entries:
            self.entries.move_to_end(content_id)
            return
        if self.capacity == 0:
            return
        while len(self.entries) >= self.capacity:
            self.entries.popitem(last=False)  # evict least recently used
        self.entries[content_id] = None

    def bump_popularity(self, content_id):
        count = self.popularity.get(content_id, 0) + 1
        self.popularity[content_id] = count
        return count


# =====================================================================
# Engine context
# =====================================================================

@dataclass(frozen=True)
class EngineContext:
    """Everything handle_request needs besides the cache: where the
    platform sits and how each payload performs there. The payload rows
    (mode, capacity_bps, payload_W, path_m) are computed once, at
    construction, so no request re-runs the link budget or the geometry."""

    geom: ScenarioGeometry
    radio: RadioParams
    configs: ModeConfigs
    cloud: CloudConfig = CloudConfig()
    cycles_per_bit: float = 4.0
    rows: tuple = field(init=False, repr=False, compare=False)
    row: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = payload_rows(self.geom, self.radio, self.configs)
        # frozen: set once here
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "row", {r[0]: r for r in rows})

    def capacity_bps(self, mode: Mode):
        return self.row[mode][1]

    def payload_power_W(self, mode: Mode):
        return self.row[mode][2]


_DEFAULT_OBJECTIVE = Objective(ObjectiveKind.MAX_CAPACITY)


def _sized_decision(ctx: EngineContext, mode: Mode, action: Action, value, size_bits):
    """Decision to move size_bits via mode; latency and energy stay None
    when no size is given."""
    if size_bits is None:
        return ModeDecision(mode, action, value)
    _, capacity, power, path = ctx.row[mode]
    airtime = transmission_latency(size_bits, capacity)
    latency = propagation_delay_s(path) + airtime
    energy = power * airtime
    return ModeDecision(mode, action, value, latency_s=latency, energy_J=energy)


def _choose_forwarder(ctx: EngineContext, objective: Objective):
    """Best of the two forwarding payloads under the request's objective."""
    return choose_payload(objective, [r for r in ctx.rows if r[0] is not Mode.SMBS])


def _task_decision(ctx: EngineContext, mode: Mode, task: ComputeTask):
    """Offload task through mode: latency is the objective value, energy
    is payload power over the airtime."""
    _, capacity, power, path = ctx.row[mode]
    rate = compute_rate(mode, ctx.configs, ctx.cloud)
    latency = task_latency(path, capacity, task, rate)
    action = Action.COMPUTE_ONBOARD if mode is Mode.SMBS else Action.COMPUTE_AT_CLOUD
    energy = power * transmission_latency(task.size_bits, capacity)
    return ModeDecision(mode, action, latency, latency_s=latency, energy_J=energy)


# =====================================================================
# Request handling
# =====================================================================

def handle_request(req: Request, state: CacheState, ctx: EngineContext):
    """Process one request; returns (decision, state), the same state object.

    The state is updated in place. Validation runs before any mutation, so
    a rejected request leaves it untouched, and so does an infeasible one.
    """
    validate_request(req)
    objective = req.objective or _DEFAULT_OBJECTIVE

    if req.kind is RequestKind.COMMUNICATION:
        chosen = choose_payload(objective, ctx.rows)
        if chosen.mode is None:
            return chosen, state
        return _sized_decision(
            ctx, chosen.mode, chosen.action, chosen.objective_value, req.size_bits
        ), state

    if req.kind is RequestKind.TASK_OFFLOADING:
        task = ComputeTask(req.size_bits, ctx.cycles_per_bit)
        candidates = [
            _task_decision(ctx, mode, task)
            for mode in (Mode.SMBS, Mode.RIS, Mode.RS)
            if req.qos_min_bps is None or ctx.capacity_bps(mode) >= req.qos_min_bps
        ]
        if not candidates:
            return ModeDecision(None, Action.INFEASIBLE, 0.0), state
        return min(candidates, key=lambda d: d.latency_s), state

    # content delivery or caching; each decision is built before the state
    # changes, so one whose figures overflow leaves the state untouched
    cid = req.content_id
    if req.kind is RequestKind.CONTENT_DELIVERY and state.contains(cid):
        decision = _sized_decision(
            ctx, Mode.SMBS, Action.SERVE_DIRECT, ctx.capacity_bps(Mode.SMBS),
            req.size_bits,
        )
        state.bump_popularity(cid)
        state.touch(cid)
        return decision, state
    forward = _choose_forwarder(ctx, objective)
    if forward.mode is None:  # no forwarder satisfies the constraint
        return forward, state
    cache = (
        req.kind is RequestKind.CACHING
        or state.popularity.get(cid, 0) + 1 >= state.popularity_threshold
    )
    action = Action.FORWARD_AND_CACHE if cache else Action.FORWARD_VIA_GATEWAY
    decision = _sized_decision(
        ctx, forward.mode, action, forward.objective_value, req.size_bits
    )
    state.bump_popularity(cid)
    if cache:
        state.insert(cid)
    return decision, state


# =====================================================================
# Trace replay
# =====================================================================

@dataclass(frozen=True)
class ReplaySummary:
    mode_counts: dict
    total_energy_J: float
    cache_hit_rate: float
    requests: int


@dataclass(frozen=True)
class ReplayResult:
    decisions: tuple
    final_state: CacheState
    summary: ReplaySummary


def _forced_decision(req: Request, ctx: EngineContext, mode: Mode):
    # diagnostic path: serve everything through one payload, cache bypassed
    if req.kind is RequestKind.TASK_OFFLOADING:
        task = ComputeTask(req.size_bits, ctx.cycles_per_bit)
        return _task_decision(ctx, mode, task)
    if mode is Mode.SMBS:
        action = Action.SERVE_DIRECT
    elif req.kind is RequestKind.CACHING:
        action = Action.FORWARD_AND_CACHE
    else:
        action = Action.FORWARD_VIA_GATEWAY
    return _sized_decision(ctx, mode, action, ctx.capacity_bps(mode), req.size_bits)


def replay_trace(
    requests,
    initial_state: CacheState,
    ctx: EngineContext,
    force_mode: Optional[Mode] = None,
):
    """Fold handle_request over a request trace.

    Timestamps must be non-decreasing; the first malformed request aborts
    the replay with its index. force_mode routes every request through a
    single payload (no cache interaction), which exists for energy
    comparisons, not as a selection policy.
    """
    state = initial_state.copy()
    decisions = []
    mode_counts = {m.value: 0 for m in Mode}
    total_energy = 0.0
    hits = 0
    content_requests = 0
    last_t = None
    for index, req in enumerate(requests):
        # one validation per request, in handle_request on the selection
        # path; the order check comes after it, so a malformed request is
        # reported as such. An out-of-order request aborts the replay, so
        # what it did to this replay's own state copy is never seen.
        try:
            if force_mode is None:
                decision, state = handle_request(req, state, ctx)
            else:
                validate_request(req)
                decision = _forced_decision(req, ctx, force_mode)
            if last_t is not None and req.t < last_t:
                raise RequestError(
                    f"timestamps must be non-decreasing ({req.t} after {last_t})"
                )
        except ValueError as err:  # a malformed request or one the model refuses
            raise RequestError(f"request {index}: {err}") from None
        last_t = req.t
        decisions.append(decision)
        if decision.mode is not None:
            mode_counts[decision.mode.value] += 1
        if decision.energy_J is not None:
            total_energy += decision.energy_J
        if req.kind is RequestKind.CONTENT_DELIVERY:
            content_requests += 1
            if decision.action is Action.SERVE_DIRECT:
                hits += 1
    if not math.isfinite(total_energy):
        raise ValueError(f"total_energy_J overflows to {total_energy}")
    hit_rate = hits / content_requests if content_requests else 0.0
    summary = ReplaySummary(
        mode_counts=mode_counts,
        total_energy_J=total_energy,
        cache_hit_rate=hit_rate,
        requests=len(decisions),
    )
    return ReplayResult(tuple(decisions), state, summary)


# =====================================================================
# Trace text format
# =====================================================================

OBJECTIVE_TOKENS = {
    "max_capacity": ObjectiveKind.MAX_CAPACITY,
    "max_energy_efficiency": ObjectiveKind.MAX_ENERGY_EFFICIENCY,
    "min_energy": ObjectiveKind.MIN_ENERGY_SUBJECT_TO_QOS,
}

TRACE_COLUMNS = "t,kind,content_id,size_bits,objective,qos_bps"


def parse_objective(token, qos_min_bps):
    """Objective named by a trace or CLI token; min_energy needs a positive qos."""
    kind = OBJECTIVE_TOKENS.get(token)
    if kind is None:
        raise RequestError(f"unknown objective {token!r}")
    if kind is ObjectiveKind.MIN_ENERGY_SUBJECT_TO_QOS:
        if qos_min_bps is None or not qos_min_bps > 0:
            raise RequestError("min_energy needs a positive qos_bps value")
        return Objective(kind, qos_min_bps)
    return Objective(kind)


def parse_trace_line(line, lineno=None):
    """One request per line: t,kind,content_id,size_bits,objective,qos_bps.

    Empty fields mean "not applicable". Returns None for comments and
    blank lines.
    """
    where = f"line {lineno}: " if lineno is not None else ""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    parts = [p.strip() for p in stripped.split(",")]
    if len(parts) != 6:
        raise RequestError(f"{where}expected 6 fields ({TRACE_COLUMNS}), got {len(parts)}")
    t_raw, kind_raw, content_id, size_raw, obj_raw, qos_raw = parts
    try:
        t = float(t_raw)
    except ValueError:
        raise RequestError(f"{where}bad timestamp {t_raw!r}") from None
    try:
        kind = RequestKind(kind_raw)
    except ValueError:
        raise RequestError(f"{where}unknown kind {kind_raw!r}") from None
    size_bits = None
    if size_raw:
        try:
            size_bits = float(size_raw)
        except ValueError:
            raise RequestError(f"{where}bad size_bits {size_raw!r}") from None
    qos = None
    if qos_raw:
        try:
            qos = float(qos_raw)
        except ValueError:
            raise RequestError(f"{where}bad qos_bps {qos_raw!r}") from None
    try:
        req = Request(
            t=t,
            kind=kind,
            content_id=content_id or None,
            size_bits=size_bits,
            objective=parse_objective(obj_raw, qos) if obj_raw else None,
            qos_min_bps=qos,
        )
        validate_request(req)
    except RequestError as err:
        raise RequestError(f"{where}{err}") from None
    return req


def load_trace(path):
    requests = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            req = parse_trace_line(line, lineno=lineno)
            if req is not None:
                requests.append(req)
    return requests


# =====================================================================
# Decision CSV
# =====================================================================

DECISION_CSV_HEADER = "t,kind,mode,action,objective_value,latency_s,energy_J"


def _fmt(value):
    # fixed 9-significant-digit scientific notation keeps files
    # byte-stable across platforms
    return "" if value is None else f"{value:.8e}"


def decisions_to_csv(requests, decisions):
    """Render replayed decisions in the documented CSV schema."""
    if len(requests) != len(decisions):
        raise ValueError("requests and decisions must align one-to-one")
    lines = [DECISION_CSV_HEADER]
    for req, dec in zip(requests, decisions):
        mode = dec.mode.value if dec.mode is not None else ""
        lines.append(
            ",".join(
                (
                    _fmt(req.t),
                    req.kind.value,
                    mode,
                    dec.action.value,
                    _fmt(dec.objective_value),
                    _fmt(dec.latency_s),
                    _fmt(dec.energy_J),
                )
            )
        )
    return "\n".join(lines) + "\n"
