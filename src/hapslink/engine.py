"""Request-driven mode selection with an onboard content cache.

The platform classifies each incoming request (communication, content
delivery, caching, task offloading), consults its cache and the per-mode
capacity models, and emits one ModeDecision per request. State is a
popularity-counting LRU cache; processing a trace is a deterministic
fold of one decide step over the requests.

For one EngineContext a decision is a function of the request's kind,
size, objective and QoS floor and of the cache branch it takes, so the
trace replay parses each distinct trace-line tail once, memoises its
decisions (with their rendered CSV cells) beside it, and streams one row
per request.
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
    best_payload,
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


def _carrier(ctx: EngineContext, mode: Mode):
    """(mode, capacity_bps, payload_W, path_m) of a payload that is to
    move bits; one whose capacity underflowed to zero is refused by name."""
    row = ctx.row[mode]
    if not row[1] > 0:
        raise ValueError(f"mode unreachable: {mode.value} capacity is zero")
    return row


def _sized_decision(ctx: EngineContext, mode: Mode, action: Action, value, size_bits):
    """Decision to move size_bits via mode; latency and energy stay None
    when no size is given."""
    if size_bits is None:
        return ModeDecision(mode, action, value)
    _, capacity, power, path = _carrier(ctx, mode)
    airtime = transmission_latency(size_bits, capacity)
    latency = propagation_delay_s(path) + airtime
    energy = power * airtime
    return ModeDecision(mode, action, value, latency_s=latency, energy_J=energy)


def _task_decision(ctx: EngineContext, mode: Mode, task: ComputeTask):
    """Offload task through mode: latency is the objective value, energy
    is payload power over the airtime."""
    _, capacity, power, path = _carrier(ctx, mode)
    rate = compute_rate(mode, ctx.configs, ctx.cloud)
    latency = task_latency(path, capacity, task, rate)
    action = Action.COMPUTE_ONBOARD if mode is Mode.SMBS else Action.COMPUTE_AT_CLOUD
    energy = power * transmission_latency(task.size_bits, capacity)
    return ModeDecision(mode, action, latency, latency_s=latency, energy_J=energy)


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


# =====================================================================
# Request handling
# =====================================================================

# The cache branch a request takes; a forced replay's branch is the
# forced Mode itself.
_DIRECT = "direct"  # communication and tasks: the cache plays no part
_HIT = "hit"
_FORWARD = "forward"
_CACHE = "forward_and_cache"

# Most distinct trace-line tails the trace parser keeps; a full memo is
# cleared, so its memory does not grow with the trace.
_MEMO_LIMIT = 1024


def _branch(req: Request, state: CacheState, force_mode):
    if force_mode is not None:
        return force_mode
    kind = req.kind
    if kind is RequestKind.COMMUNICATION or kind is RequestKind.TASK_OFFLOADING:
        return _DIRECT
    if kind is RequestKind.CACHING:
        return _CACHE
    if state.contains(req.content_id):
        return _HIT
    if state.popularity.get(req.content_id, 0) + 1 >= state.popularity_threshold:
        return _CACHE
    return _FORWARD


def _build(req: Request, branch, ctx: EngineContext):
    """The decision for req on branch; it reads neither the cache nor t."""
    if isinstance(branch, Mode):
        return _forced_decision(req, ctx, branch)
    if branch is _HIT:
        return _sized_decision(
            ctx, Mode.SMBS, Action.SERVE_DIRECT, ctx.capacity_bps(Mode.SMBS),
            req.size_bits,
        )
    objective = req.objective or _DEFAULT_OBJECTIVE
    if req.kind is RequestKind.COMMUNICATION:
        best = best_payload(objective, ctx.rows)
        if best is None:
            return ModeDecision(None, Action.INFEASIBLE, 0.0)
        return _sized_decision(ctx, *best, req.size_bits)
    if req.kind is RequestKind.TASK_OFFLOADING:
        task = ComputeTask(req.size_bits, ctx.cycles_per_bit)
        candidates = [
            _task_decision(ctx, mode, task)
            for mode in (Mode.SMBS, Mode.RIS, Mode.RS)
            if req.qos_min_bps is None or ctx.capacity_bps(mode) >= req.qos_min_bps
        ]
        if not candidates:
            return ModeDecision(None, Action.INFEASIBLE, 0.0)
        return min(candidates, key=lambda d: d.latency_s)
    # the best of the two forwarding payloads
    forward = best_payload(objective, [r for r in ctx.rows if r[0] is not Mode.SMBS])
    if forward is None:  # no forwarder satisfies the constraint
        return ModeDecision(None, Action.INFEASIBLE, 0.0)
    mode, _, value = forward
    action = Action.FORWARD_AND_CACHE if branch is _CACHE else Action.FORWARD_VIA_GATEWAY
    return _sized_decision(ctx, mode, action, value, req.size_bits)


def _decide(req: Request, state: CacheState, ctx: EngineContext, force_mode=None,
            decided=None):
    """The decide step of handle_request and the trace replay, for a
    validated request: (decision, CSV cells after t, branch).

    decided maps a branch to (decision, cells) for the request's
    trace-line tail, within one replay. With it the decision and its
    rendered cells come from there, or are built and stored there;
    without it the decision is built and the cells are None. A refusal
    is never stored, so it is raised again for every request that meets
    it. The decision is built before the state changes, so a refused or
    infeasible request leaves the state untouched.
    """
    branch = _branch(req, state, force_mode)
    if decided is None:
        decision, cells = _build(req, branch, ctx), None
    else:
        entry = decided.get(branch)
        if entry is None:
            decision = _build(req, branch, ctx)
            entry = decided[branch] = (decision, _render(req.kind, decision))
        decision, cells = entry
    if branch is _HIT:
        state.bump_popularity(req.content_id)
        state.touch(req.content_id)
    elif (branch is _FORWARD or branch is _CACHE) and decision.mode is not None:
        state.bump_popularity(req.content_id)
        if branch is _CACHE:
            state.insert(req.content_id)
    return decision, cells, branch


def handle_request(req: Request, state: CacheState, ctx: EngineContext):
    """Process one request; returns (decision, state), the same state object.

    The state is updated in place. Validation runs before any mutation, so
    a rejected request leaves it untouched, and so does an infeasible one.
    """
    validate_request(req)
    return _decide(req, state, ctx)[0], state


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


def _replay(pairs, state: CacheState, ctx: EngineContext, force_mode, emit):
    """Fold the decide step over (request, decided) pairs in trace order,
    handing each (request, decision, CSV cells after t) to emit; returns
    the ReplaySummary. The state is updated in place.

    decided is the decision memo of the request's trace-line tail, which
    the parser has validated; a request without one is validated here.
    Timestamps must be non-decreasing; the first refused request aborts
    the replay with its index. force_mode routes every request through a
    single payload with no cache interaction, for energy comparisons, not
    as a selection policy.
    """
    mode_counts = dict.fromkeys(Mode, 0)
    total_energy = 0.0
    hits = 0
    content_requests = 0
    last_t = None
    index = -1
    for index, (req, decided) in enumerate(pairs):
        # validation first, so a malformed request is reported as such; an
        # out-of-order request aborts the replay, so what it did to the
        # state is never seen
        try:
            if decided is None:
                validate_request(req)
            decision, cells, branch = _decide(req, state, ctx, force_mode, decided)
            if last_t is not None and req.t < last_t:
                raise RequestError(
                    f"timestamps must be non-decreasing ({req.t} after {last_t})"
                )
        except ValueError as err:  # a malformed request or one the model refuses
            raise RequestError(f"request {index}: {err}") from None
        last_t = req.t
        emit(req, decision, cells)
        if decision.mode is not None:
            mode_counts[decision.mode] += 1
        if decision.energy_J is not None:
            total_energy += decision.energy_J
        if req.kind is RequestKind.CONTENT_DELIVERY:
            content_requests += 1
            if branch is _HIT:
                hits += 1
    if not math.isfinite(total_energy):
        raise ValueError(f"total_energy_J overflows to {total_energy}")
    return ReplaySummary(
        mode_counts={m.value: n for m, n in mode_counts.items()},
        total_energy_J=total_energy,
        cache_hit_rate=hits / content_requests if content_requests else 0.0,
        requests=index + 1,
    )


def replay_trace(
    requests,
    initial_state: CacheState,
    ctx: EngineContext,
    force_mode: Optional[Mode] = None,
):
    """Fold the decide step over a request trace, on a copy of
    initial_state, keeping every decision.

    Timestamps must be non-decreasing; the first malformed request aborts
    the replay with its index. force_mode routes every request through a
    single payload (no cache interaction), which exists for energy
    comparisons, not as a selection policy.
    """
    state = initial_state.copy()
    decisions = []
    summary = _replay(
        ((req, None) for req in requests), state, ctx, force_mode,
        lambda req, decision, cells: decisions.append(decision),
    )
    return ReplayResult(tuple(decisions), state, summary)


def stream_replay(lines, state: CacheState, ctx: EngineContext, write,
                  force_mode: Optional[Mode] = None):
    """Replay trace lines straight to the decision CSV: write gets the
    header, then one row per request as it is decided. Returns the
    ReplaySummary; the state is updated in place.

    Nothing is kept per request: memory grows with the number of
    distinct content ids (the cache's popularity counter), not with the
    number of requests. A malformed line is reported before any refused request: after a
    refusal the rest of the trace is still parsed.
    """
    pairs = _parse_trace(lines)
    write(DECISION_CSV_HEADER + "\n")

    def emit(req, decision, cells):
        write(f"{_fmt(req.t)},{cells}\n")

    try:
        return _replay(pairs, state, ctx, force_mode, emit)
    except RequestError:
        for _ in pairs:
            pass
        raise


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


_KINDS = {kind.value: kind for kind in RequestKind}


def parse_trace_line(line, lineno=None):
    """One request per line: t,kind,content_id,size_bits,objective,qos_bps.

    Empty fields mean "not applicable". Returns None for comments and
    blank lines.
    """
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    return _parse_fields(stripped.split(","), lineno)


def _parse_fields(fields, lineno):
    """The request of a trace line split at its commas; an error names
    lineno when it is given."""
    try:
        if len(fields) != 6:
            raise RequestError(
                f"expected 6 fields ({TRACE_COLUMNS}), got {len(fields)}"
            )
        t_raw, kind_raw, content_id, size_raw, obj_raw, qos_raw = [
            f.strip() for f in fields
        ]
        try:
            t = float(t_raw)
        except ValueError:
            raise RequestError(f"bad timestamp {t_raw!r}") from None
        kind = _KINDS.get(kind_raw)
        if kind is None:
            raise RequestError(f"unknown kind {kind_raw!r}")
        size_bits = None
        if size_raw:
            try:
                size_bits = float(size_raw)
            except ValueError:
                raise RequestError(f"bad size_bits {size_raw!r}") from None
        qos = None
        if qos_raw:
            try:
                qos = float(qos_raw)
            except ValueError:
                raise RequestError(f"bad qos_bps {qos_raw!r}") from None
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
        if lineno is None:
            raise
        raise RequestError(f"line {lineno}: {err}") from None
    return req


def _parse_trace(lines):
    """(request, decided) for each request line, in order.

    The tail is every field but t and content_id, plus whether content_id
    is empty. From its second sighting on, a tail is parsed and
    validated once; a later line with that tail pays only for its
    timestamp. The memo keys the tail on its raw field text, so sizes 0
    and -0 stay apart, and keeps beside the parsed request the dict,
    decided, in which the decide step memoises that tail's decisions.
    It holds at most _MEMO_LIMIT tails and is cleared when full. Raises
    RequestError naming the first malformed line.
    """
    tails = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped[0] == "#":
            continue
        parts = stripped.split(",")
        key = entry = None
        if len(parts) == 6:
            content_id = parts[2].strip()
            key = (parts[1], parts[3], parts[4], parts[5], not content_id)
            entry = tails.get(key)
        if entry:
            template, decided = entry
            try:
                t = float(parts[0].strip())
            except ValueError:
                t = math.nan
            if math.isfinite(t):
                yield Request(
                    t, template.kind, content_id or None, template.size_bits,
                    template.objective, template.qos_min_bps,
                ), decided
                continue
        # a new tail, or a line the parser rejects in its own words
        req = _parse_fields(parts, lineno)
        if len(tails) >= _MEMO_LIMIT:
            tails.clear()
        decided = {}
        # a tail's request and decisions are kept from its second sighting
        # on, so lines whose tails never repeat leave only their keys
        tails[key] = (req, decided) if entry is not None else ()
        yield req, decided


def iter_trace(lines):
    """The requests of trace lines, in order; see parse_trace_line."""
    return (req for req, _ in _parse_trace(lines))


def load_trace(path):
    with open(path, "r", encoding="utf-8") as fh:
        return list(iter_trace(fh))


# =====================================================================
# Decision CSV
# =====================================================================

DECISION_CSV_HEADER = "t,kind,mode,action,objective_value,latency_s,energy_J"


def _fmt(value):
    # fixed 9-significant-digit scientific notation keeps files
    # byte-stable across platforms
    return "" if value is None else f"{value:.8e}"


def _render(kind: RequestKind, dec: ModeDecision):
    """A decision's CSV cells after t: kind,mode,action,objective_value,
    latency_s,energy_J."""
    mode = dec.mode.value if dec.mode is not None else ""
    return ",".join(
        (
            kind.value,
            mode,
            dec.action.value,
            _fmt(dec.objective_value),
            _fmt(dec.latency_s),
            _fmt(dec.energy_J),
        )
    )


def decisions_to_csv(requests, decisions):
    """Render replayed decisions in the documented CSV schema."""
    if len(requests) != len(decisions):
        raise ValueError("requests and decisions must align one-to-one")
    lines = [DECISION_CSV_HEADER]
    lines.extend(
        f"{_fmt(req.t)},{_render(req.kind, dec)}" for req, dec in zip(requests, decisions)
    )
    return "\n".join(lines) + "\n"
