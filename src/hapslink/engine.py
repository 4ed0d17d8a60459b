"""Request-driven mode selection with an onboard content cache.

The platform classifies each incoming request (communication, content
delivery, caching, task offloading), consults its cache and the per-mode
capacity models, and emits one ModeDecision per request. State is a
popularity-counting LRU cache; processing a trace is a deterministic
fold over the requests.

One loop, _fold, is that fold: handle_request (one request),
replay_trace (a list of requests) and stream_replay (trace lines, the
CLI's replay) all pick the cache branch, get the decision and update the
cache through it. For one EngineContext a decision is a function of the
request's kind, size, objective and QoS floor and of the cache branch it
takes, so on trace lines the loop memoises, per distinct line tail, the
parsed request and each branch's decision with its rendered CSV cells.
A line whose tail is memoised costs a split, a dict lookup, its
timestamp and its row: no Request is built unless the tail is new, and
no decision unless its branch is. Each row is written as it is decided.
"""

import math
from collections import OrderedDict
from enum import Enum
from typing import Optional

from ._record import Record, number
from .modes import Action, Corridor, Mode, ModeConfigs, SmbsConfig, carrier
from .offload import CloudConfig, compute_rate, task_latencies
from .optimizer import (
    ModeDecision,
    Objective,
    ObjectiveKind,
    best_payload,
    check_figures,
)
from .propagation import RadioParams, ScenarioGeometry, propagation_delay_s


class RequestKind(Enum):
    COMMUNICATION = "communication"
    CONTENT_DELIVERY = "content_delivery"
    CACHING = "caching"
    TASK_OFFLOADING = "task_offloading"


class RequestError(ValueError):
    """Malformed request; carries a human-readable diagnostic."""


class Request(Record):
    """One request to the platform, refused where it is built: the first
    rule it breaks raises a RequestError naming the field."""

    _error = RequestError
    # Optional, so the base number rule leaves t to the rule order below
    t: Optional[float]
    kind: RequestKind
    content_id: Optional[str] = None
    size_bits: Optional[float] = None
    objective: Optional[Objective] = None
    qos_min_bps: Optional[float] = None

    def __post_init__(self):
        if not isinstance(self.kind, RequestKind):
            raise RequestError(f"unknown request kind {self.kind!r}")
        if self.content_id is not None and not isinstance(self.content_id, str):
            raise RequestError(f"content_id must be a string, got {self.content_id!r}")
        if self.objective is not None and not isinstance(self.objective, Objective):
            raise RequestError(f"objective must be an Objective, got {self.objective!r}")
        needs_content = self.kind in (RequestKind.CONTENT_DELIVERY, RequestKind.CACHING)
        if needs_content and not self.content_id:
            raise RequestError(f"{self.kind.value} request needs a content_id")
        if not needs_content and self.content_id:
            raise RequestError(f"{self.kind.value} request must not carry a content_id")
        if self.t is None:
            raise RequestError("t must be finite, got None")
        for name in ("t", "size_bits", "qos_min_bps"):
            if getattr(self, name) is not None:
                number(name, getattr(self, name), error=self._error)
        if self.kind is RequestKind.TASK_OFFLOADING and self.size_bits is None:
            raise RequestError("task_offloading request needs size_bits")
        if self.size_bits is not None and self.size_bits < 0:
            raise RequestError(f"size_bits cannot be negative, got {self.size_bits}")
        if self.qos_min_bps is not None and self.qos_min_bps <= 0:
            raise RequestError("qos_min_bps must be positive when given")
        if self.qos_min_bps is None and self.objective is not None and (
                self.objective.kind is ObjectiveKind.MIN_ENERGY_SUBJECT_TO_QOS):
            raise RequestError("min_energy needs a positive qos_min_bps")


# =====================================================================
# Cache state
# =====================================================================

class CacheState:
    """LRU cache plus a cumulative per-id popularity counter.

    entries keeps insertion/use order (least recently used first);
    popularity counts every sighting of an id, cached or not. An id is
    promoted into the cache once its counter reaches popularity_threshold.
    The state is mutable; two states are equal when all four attributes
    are, entry order included.
    """

    popularity_threshold = 3  # the default, which ScenarioConfig reads too

    def __init__(self, capacity=SmbsConfig.cache_capacity,
                 popularity_threshold=popularity_threshold, entries=None,
                 popularity=None):
        capacity = number("capacity", capacity, True)
        threshold = number("popularity_threshold", popularity_threshold, True)
        if capacity < 0:
            raise ValueError(f"capacity cannot be negative, got {capacity}")
        if threshold < 1:
            raise ValueError(f"popularity_threshold must be at least 1, got {threshold}")
        self.capacity, self.popularity_threshold = capacity, threshold
        self.entries = OrderedDict() if entries is None else entries
        self.popularity = {} if popularity is None else popularity

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return vars(self) == vars(other)
        return NotImplemented

    def __repr__(self):
        cells = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"CacheState({cells})"

    def copy(self):
        return CacheState(
            self.capacity, self.popularity_threshold,
            OrderedDict(self.entries), dict(self.popularity),
        )

    def insert(self, content_id):
        if content_id in self.entries:
            self.entries.move_to_end(content_id)
            return
        if self.capacity == 0:
            return
        while len(self.entries) >= self.capacity:
            self.entries.popitem(last=False)  # evict least recently used
        self.entries[content_id] = None


# =====================================================================
# Engine context
# =====================================================================

class EngineContext(Record):
    """Everything handle_request needs besides the cache: where the
    platform sits and how each payload performs there. The payload rows
    (mode, capacity_bps, payload_W, path_m) are computed once, at
    construction, so no request re-runs the link budget or the geometry."""

    geom: ScenarioGeometry
    radio: RadioParams
    configs: ModeConfigs
    cloud: CloudConfig = CloudConfig()
    cycles_per_bit: float = 4.0

    def __post_init__(self):
        if not self.cycles_per_bit > 0:
            raise ValueError(
                f"cycles_per_bit must be positive and finite, got {self.cycles_per_bit}"
            )
        geom = self.geom
        rows = Corridor(geom.D, geom.H, self.radio).rows(geom.x, self.configs)
        # derived, not fields: set once here
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "row", {r[0]: r for r in rows})


def build_engine(cfg):
    """(EngineContext, CacheState) of a ScenarioConfig: the context of its
    geometry, payloads and cycles per bit, and an empty cache of its size
    and popularity threshold."""
    ctx = EngineContext(cfg.geom, cfg.radio, cfg.configs, cfg.cloud, cfg.cycles_per_bit)
    return ctx, CacheState(cfg.smbs.cache_capacity, cfg.popularity_threshold)


# =====================================================================
# Request handling
# =====================================================================

# The cache branch a request takes; a forced replay's branch is the
# forced Mode itself.
_DIRECT = "direct"  # communication and tasks: the cache plays no part
_HIT = "hit"
_FORWARD = "forward"
_CACHE = "forward_and_cache"

# Most distinct trace-line tails a replay keeps; a full memo is cleared,
# so its memory does not grow with the trace.
_MEMO_LIMIT = 1024


def _build(req: Request, branch, ctx: EngineContext):
    """The decision for req on branch; it reads neither the cache nor t.
    Candidates are walked in ctx.rows order, most passive first, and a
    later one wins only when strictly better, so ties go passive.

    A task runs on the fastest of its candidates: the forced payload, or
    else those that carry its QoS floor. Every candidate's figures are
    checked, so a losing candidate's overflow refuses the request too.
    Any other request takes the best row under its objective: a forced
    payload and a cache hit are max_capacity over their one row, a cache
    miss chooses among the forwarders. Latency and energy are filled
    when a size is given."""
    kind, size, floor = req.kind, req.size_bits, req.qos_min_bps
    task = kind is RequestKind.TASK_OFFLOADING
    forced = isinstance(branch, Mode)
    if task:
        rows = (ctx.row[branch],) if forced else [
            r for r in ctx.rows if floor is None or r[1] >= floor
        ]
        best = None
        for row in rows:
            mode, capacity, power, path = carrier(row)
            rate = compute_rate(mode, ctx.configs, ctx.cloud)
            latency = task_latencies(path, capacity, (size,), ctx.cycles_per_bit, rate)[0]
            energy = power * (size / capacity)
            check_figures(latency, latency, energy)
            if best is None or latency < best[1]:
                best = mode, latency, latency, energy
    else:
        if forced or branch is _HIT:
            objective, rows = _DEFAULT_OBJECTIVE, (ctx.row[branch if forced else Mode.SMBS],)
        else:
            objective, rows = req.objective or _DEFAULT_OBJECTIVE, ctx.rows
            if kind is not RequestKind.COMMUNICATION:  # a cache miss: the forwarders
                rows = [r for r in rows if r[0] is not Mode.SMBS]
        best = best_payload(objective, rows, floor)
        if best is not None:
            mode, value = best
            check_figures(value)  # bits per joule can overflow, on a surface of tiny element power
            best = mode, value, None, None
            if size is not None:
                _, capacity, power, path = carrier(ctx.row[mode])
                airtime = size / capacity
                best = mode, value, propagation_delay_s(path) + airtime, power * airtime
    if best is None:  # no payload meets the QoS floor
        return ModeDecision(None, Action.INFEASIBLE, 0.0)
    mode = best[0]
    if task:
        action = Action.COMPUTE_ONBOARD if mode is Mode.SMBS else Action.COMPUTE_AT_CLOUD
    elif mode is Mode.SMBS:
        action = Action.SERVE_DIRECT
    elif kind is RequestKind.CACHING or branch is _CACHE:
        action = Action.FORWARD_AND_CACHE
    else:
        action = Action.FORWARD_VIA_GATEWAY
    return ModeDecision(mode, action, *best[1:])


def _memo_entry(decision: ModeDecision, cells=None):
    """(CSV cells after t, mode value, energy_J, decision): what the
    replay reads of a decision."""
    mode = decision.mode
    return cells, None if mode is None else mode.value, decision.energy_J, decision


def _fold(items, state: CacheState, ctx: EngineContext, force_mode=None,
          keep=None, write=None):
    """The one decide loop, behind handle_request, replay_trace and
    stream_replay. It updates state in place and returns the
    ReplaySummary.

    items are Requests, each checked where it was built, and each handed
    to keep with its decision; or, when write is given, trace lines,
    whose decision CSV goes to write: the header, then each row as it is
    decided.

    For each request the loop picks the cache branch (hit, forward, or
    forward and cache; communication and tasks take none; a forced
    replay's branch is the forced Mode, with no cache interaction), gets
    the decision, checks the timestamp order, then updates the cache. So
    a request the model refuses, one out of order and an infeasible one
    leave the state untouched.

    A trace line's tail is every field but t and content_id, plus whether
    content_id is empty. A tail's parsed request is kept with a dict of
    its decisions per branch, each with its rendered CSV cells, so a
    later line with that tail pays only for its timestamp and builds no
    Request. The memo keys the tail on its raw field text, so sizes 0
    and -0 stay apart. It holds at most _MEMO_LIMIT tails and is cleared
    when full. A refusal is never memoised.

    Timestamps must be non-decreasing. The first refused request aborts
    the loop with a RequestError naming its index, caused by the
    refusal. A malformed line raises a RequestError naming its line, and
    is the error reported even after a refused request: the rest of the
    trace is parsed first.
    """
    items = iter(items)
    lines = write is not None
    content_kind, caching_kind = RequestKind.CONTENT_DELIVERY, RequestKind.CACHING
    isfinite, nan = math.isfinite, math.nan
    entries, popularity = state.entries, state.popularity
    threshold = state.popularity_threshold
    counts = dict.fromkeys([m.value for m in Mode] + [None], 0)
    total_energy = 0.0
    hits = content_requests = 0
    last_t = None
    index = -1
    lineno = 0
    tails = {}
    if lines:
        write(DECISION_CSV_HEADER + "\n")
    for item in items:
        if lines:
            lineno += 1
            stripped = item.strip()
            if not stripped or stripped[0] == "#":
                continue
            parts = stripped.split(",", 3)
            tail = None
            if len(parts) == 4:
                content_id = parts[2].strip()
                key = (parts[1], parts[3], not content_id)
                tail = tails.get(key)
            t = nan
            if tail:
                req, decided = tail
                try:
                    t = float(parts[0].strip())
                except ValueError:
                    pass
            if not isfinite(t):
                # a new tail, or a line the parser rejects in its own words
                req = _parse_fields(stripped.split(","), lineno)
                t = req.t
                if len(tails) >= _MEMO_LIMIT:
                    tails.clear()
                decided = {}
                tails[key] = req, decided
        else:
            req = item
            t, content_id, decided = req.t, req.content_id, None
        index += 1
        kind = req.kind
        try:
            if force_mode is not None:
                branch = force_mode
            elif kind is content_kind:
                if content_id in entries:
                    branch = _HIT
                elif popularity.get(content_id, 0) + 1 >= threshold:
                    branch = _CACHE
                else:
                    branch = _FORWARD
            elif kind is caching_kind:
                branch = _CACHE
            else:
                branch = _DIRECT
            if decided is None:
                entry = _memo_entry(_build(req, branch, ctx))
            else:
                entry = decided.get(branch)
                if entry is None:
                    decision = _build(req, branch, ctx)
                    entry = decided[branch] = _memo_entry(decision, _render(kind, decision))
            cells, mode, energy, decision = entry
            if last_t is not None and t < last_t:
                raise RequestError(
                    f"timestamps must be non-decreasing ({t} after {last_t})"
                )
            if branch is _HIT:
                popularity[content_id] = popularity.get(content_id, 0) + 1
                entries.move_to_end(content_id)
            elif (branch is _FORWARD or branch is _CACHE) and mode is not None:
                popularity[content_id] = popularity.get(content_id, 0) + 1
                if branch is _CACHE:
                    state.insert(content_id)
        except ValueError as err:  # a request the model refuses, or one out of order
            refusal = RequestError(f"request {index}: {err}")
            if lines:
                for _ in iter_trace(items, lineno + 1):
                    pass
            raise refusal from err
        last_t = t
        if lines:
            write(f"{t:.8e},{cells}\n")
        else:
            keep(decision)
        counts[mode] += 1
        if energy is not None:
            total_energy += energy
        if kind is content_kind:
            content_requests += 1
            if branch is _HIT:
                hits += 1
    if not isfinite(total_energy):
        raise ValueError(f"total_energy_J overflows to {total_energy}")
    return ReplaySummary(
        mode_counts={m.value: counts[m.value] for m in Mode},
        total_energy_J=total_energy,
        cache_hit_rate=hits / content_requests if content_requests else 0.0,
        requests=index + 1,
    )


def handle_request(req: Request, state: CacheState, ctx: EngineContext):
    """Process one request; returns (decision, state), the same state object.

    The state is updated in place. req was checked where it was built;
    a request the model refuses leaves the state untouched, and so does
    an infeasible one.
    """
    decisions = []
    try:
        _fold((req,), state, ctx, keep=decisions.append)
    except RequestError as err:  # raised as itself, not as request 0
        raise err.__cause__ from None
    return decisions[0], state


# =====================================================================
# Trace replay
# =====================================================================

class ReplaySummary(Record):
    mode_counts: dict
    total_energy_J: float
    cache_hit_rate: float
    requests: int


class ReplayResult(Record):
    decisions: tuple
    final_state: CacheState
    summary: ReplaySummary


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
    summary = _fold(requests, state, ctx, force_mode, keep=decisions.append)
    return ReplayResult(tuple(decisions), state, summary)


def stream_replay(lines, state: CacheState, ctx: EngineContext, write,
                  force_mode: Optional[Mode] = None):
    """Replay trace lines straight to the decision CSV: write gets the
    header, then each row as it is decided. Returns the ReplaySummary;
    the state is updated in place.

    Nothing is kept per request: memory grows with the number of
    distinct content ids (the cache's popularity counter), not with the
    number of requests. A malformed line is reported before any refused
    request: after a refusal the rest of the trace is still parsed.
    """
    return _fold(lines, state, ctx, force_mode, write=write)


# =====================================================================
# Trace text format
# =====================================================================

TRACE_COLUMNS = "t,kind,content_id,size_bits,objective,qos_bps"

# the Objective each trace or CLI token names, one per kind, shared by
# every request that names it
OBJECTIVES = {
    "max_capacity": Objective(ObjectiveKind.MAX_CAPACITY),
    "max_energy_efficiency": Objective(ObjectiveKind.MAX_ENERGY_EFFICIENCY),
    "min_energy": Objective(ObjectiveKind.MIN_ENERGY_SUBJECT_TO_QOS),
}
_DEFAULT_OBJECTIVE = OBJECTIVES["max_capacity"]
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
        objective = OBJECTIVES.get(obj_raw)
        if obj_raw and objective is None:
            raise RequestError(f"unknown objective {obj_raw!r}")
        req = Request(t, kind, content_id or None, size_bits, objective, qos)
    except RequestError as err:
        if lineno is None:
            raise
        raise RequestError(f"line {lineno}: {err}") from None
    return req


def iter_trace(lines, start=1):
    """The requests of trace lines, in order, the first line numbered
    start; see parse_trace_line. Raises RequestError naming the first
    malformed line."""
    for lineno, line in enumerate(lines, start):
        req = parse_trace_line(line, lineno)
        if req is not None:
            yield req


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
