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

Trace lines reach the fold from a parse stage (_blocks) that splits each
line, finds its memoised tail and parses its timestamp; these steps
depend on the line alone, so on a large regular file the stage runs in a
forked child (_forked_blocks) beside the fold. A line whose tail is
memoised costs the fold a dict lookup and its row: no Request is built
unless the tail is new, and no decision unless its branch is. The rows
of each block of _BLOCK_LINES requests go out in one write.
"""

import math
import os
import stat
from collections import OrderedDict
from enum import Enum
from functools import partial
from itertools import islice
from typing import Annotated, Optional

from ._fork import Child, can_fork
from ._record import POSITIVE, Record, number
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

    # the threshold's default and range, which ScenarioConfig reads too;
    # capacity takes SmbsConfig's cache_capacity range
    popularity_threshold = 3
    _bounds = {"capacity": SmbsConfig._bounds["cache_capacity"],
               "popularity_threshold": (1, math.inf)}

    def __init__(self, capacity=SmbsConfig.cache_capacity,
                 popularity_threshold=popularity_threshold, entries=None,
                 popularity=None):
        bounds = self._bounds
        self.capacity = number("capacity", capacity, True, bounds=bounds["capacity"])
        self.popularity_threshold = number("popularity_threshold", popularity_threshold,
                                           True, bounds=bounds["popularity_threshold"])
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
    cycles_per_bit: Annotated[float, POSITIVE] = 4.0

    def __post_init__(self):
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
    else those that carry its QoS floor. Any other request takes the best
    row under its objective: a forced payload and a cache hit are
    max_capacity over their one row, a cache miss chooses among the
    forwarders. Each row priced (every task candidate, or the one row
    chosen) must carry bits (carrier) before its figures are computed and
    checked, so a losing task candidate's zero capacity or overflow
    refuses the request too. Latency and energy are filled when a size is
    given."""
    kind, size, floor = req.kind, req.size_bits, req.qos_min_bps
    task = kind is RequestKind.TASK_OFFLOADING
    forced = isinstance(branch, Mode)
    if task:
        rows = (ctx.row[branch],) if forced else [
            r for r in ctx.rows if floor is None or r[1] >= floor
        ]
    else:
        if forced or branch is _HIT:
            objective, rows = _DEFAULT_OBJECTIVE, (ctx.row[branch if forced else Mode.SMBS],)
        else:
            objective, rows = req.objective or _DEFAULT_OBJECTIVE, ctx.rows
            if kind is not RequestKind.COMMUNICATION:  # a cache miss: the forwarders
                rows = [r for r in rows if r[0] is not Mode.SMBS]
        chosen = best_payload(objective, rows, floor)
        rows = () if chosen is None else (ctx.row[chosen[0]],)
    best = None
    for row in rows:
        mode, capacity, power, path = carrier(row)
        if task:
            rate = compute_rate(mode, ctx.configs, ctx.cloud)
            latency = task_latencies(path, capacity, (size,), ctx.cycles_per_bit, rate)[0]
            energy = power * (size / capacity)
            check_figures(latency, latency, energy)
            if best is None or latency < best[1]:
                best = mode, latency, latency, energy
        else:
            value = chosen[1]
            check_figures(value)  # bits per joule can overflow, on a surface of tiny element power
            best = mode, value, None, None
            if size is not None:
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


def _fold(blocks, state: CacheState, ctx: EngineContext, force_mode=None,
          keep=None, write=None):
    """The one decide loop, behind handle_request, replay_trace and
    stream_replay. It updates state in place and returns the
    ReplaySummary.

    blocks are _request_blocks, each request checked where it was built
    and handed to keep with its decision; or, when write is given, the
    parse stage's blocks of trace lines (_blocks), whose decision CSV goes
    to write: the header, then each block's rows in one write once the
    block is folded.

    For each request the loop picks the cache branch (hit, forward, or
    forward and cache; communication and tasks take none; a forced
    replay's branch is the forced Mode, with no cache interaction), gets
    the decision, checks the timestamp order, then updates the cache. So
    a request the model refuses, one out of order and an infeasible one
    leave the state untouched.

    A trace line's tail is kept, from its line, with a dict of its
    decisions per branch, each with its rendered CSV cells, so a later
    line with that tail pays only for its row and builds no Request. A
    block names each line's tail by its id; the memo drops every older
    tail at the block's clear point, as the parse stage does. A refusal is
    never memoised.

    Timestamps must be non-decreasing. The first refused request aborts
    the loop with a RequestError naming its index, caused by the
    refusal. A malformed line, which the parse stage hands over as its
    error text, raises a RequestError naming its line, and is the error
    reported even after a refused request: the rest of the blocks are read
    first.
    """
    blocks = iter(blocks)
    lines = write is not None
    content_kind, caching_kind = RequestKind.CONTENT_DELIVERY, RequestKind.CACHING
    entries, popularity = state.entries, state.popularity
    threshold = state.popularity_threshold
    counts = dict.fromkeys([m.value for m in Mode] + [None], 0)
    total_energy = 0.0
    hits = content_requests = 0
    last_t = None
    index = -1
    tails = {}
    if lines:
        write(DECISION_CSV_HEADER + "\n")
    for block in blocks:
        if block.__class__ is str:
            raise RequestError(block)
        ids, content_ids, ts, news, clear, _ = block
        news = iter(news)
        block_cells = []
        for tail_id, content_id, t in zip(ids, content_ids, ts):
            tail = tails.get(tail_id)
            if tail is not None:
                req, decided = tail
            else:
                req = next(news)
                decided = None
                if lines:
                    if req.__class__ is tuple:  # (line number, line) from a forked reader
                        req = _parse_fields(req[1].split(","), req[0])
                    if tail_id == clear:
                        tails.clear()
                    decided = {}
                    tails[tail_id] = req, decided
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
                    for block in blocks:
                        if block.__class__ is str:
                            raise RequestError(block) from None
                raise refusal from err
            last_t = t
            if lines:
                block_cells.append(cells)
            else:
                keep(decision)
            counts[mode] += 1
            if energy is not None:
                total_energy += energy
            if kind is content_kind:
                content_requests += 1
                if branch is _HIT:
                    hits += 1
        if block_cells:  # the block is folded: every line of it has a row
            flat = [None] * (2 * len(ts))
            flat[::2] = ts
            flat[1::2] = block_cells
            write(("%.8e,%s\n" * len(ts)) % tuple(flat))
    if not math.isfinite(total_energy):
        raise ValueError(f"total_energy_J overflows to {total_energy}")
    return ReplaySummary(
        mode_counts={m.value: counts[m.value] for m in Mode},
        total_energy_J=total_energy,
        cache_hit_rate=hits / content_requests if content_requests else 0.0,
        requests=index + 1,
    )


def _request_blocks(requests):
    """Requests as _fold's blocks: one per request, a tail of its own that
    is never memoised."""
    for req in requests:
        yield (None,), (req.content_id,), (req.t,), (req,), None, None


def handle_request(req: Request, state: CacheState, ctx: EngineContext):
    """Process one request; returns (decision, state), the same state object.

    The state is updated in place. req was checked where it was built;
    a request the model refuses leaves the state untouched, and so does
    an infeasible one.
    """
    decisions = []
    try:
        _fold(_request_blocks((req,)), state, ctx, keep=decisions.append)
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
    summary = _fold(_request_blocks(requests), state, ctx, force_mode, keep=decisions.append)
    return ReplayResult(tuple(decisions), state, summary)


def stream_replay(lines, state: CacheState, ctx: EngineContext, write,
                  force_mode: Optional[Mode] = None):
    """Replay trace lines straight to the decision CSV: write gets the
    header, then the rows of each block of _BLOCK_LINES requests in one
    write. Returns the ReplaySummary; the state is updated in place.

    Nothing is kept per request: memory grows with the number of
    distinct content ids (the cache's popularity counter), not with the
    number of requests. A malformed line is reported before any refused
    request: after a refusal the rest of the trace is still parsed.

    The parse stage (_blocks) runs in a forked child when lines is a
    regular file, read from its start, of at least SPLIT_MIN_BYTES bytes
    and the platform passes _fork.can_fork; it runs in this process
    otherwise. Either way the rows, the summary and every error are those
    of one process.
    """
    blocks = _forked_blocks(lines) if _splits(lines) else _blocks(lines)
    try:
        return _fold(blocks, state, ctx, force_mode, write=write)
    finally:
        blocks.close()


# Trace lines per block of the parse stage: the rows of one block go out
# in one write. At most _MEMO_LIMIT, so that a block holds at most one
# clear point.
_BLOCK_LINES = 256

# A smaller trace is parsed in the process that folds it: below it the
# fork, the pipe and the first block's wait cost more than the parsing
# they move. On a 2-vCPU VM under Python 3.11, prefixes of a benchmark
# trace (about 40 bytes a line) replayed split at 0.59-0.92x of one
# process up to 4,000 lines, 1.01-1.04x at 5,000 and 1.12-1.14x at 6,500
# (257 kB) and 8,000.
SPLIT_MIN_BYTES = 1 << 18


def _splits(trace):
    """Whether trace is a regular file, at its start, of at least
    SPLIT_MIN_BYTES bytes, on a platform that can fork."""
    try:
        at_start = trace.tell() == 0
        info = os.fstat(trace.fileno())
    except (AttributeError, OSError, ValueError):  # a list, a pipe being read, a closed file
        return False
    return (at_start and stat.S_ISREG(info.st_mode)
            and info.st_size >= SPLIT_MIN_BYTES and can_fork())


def _blocks(lines, lineno=0, tail_id=0, as_lines=False):
    """The parse stage of a replay: the data lines of lines, the first
    numbered lineno + 1, in blocks of _BLOCK_LINES, each (tail ids,
    content ids, timestamps, new tails, clear point, number of its last
    line).

    A line's tail is every field but t and content_id, plus whether
    content_id is empty, keyed on its raw field text, so sizes 0 and -0
    stay apart. Each new tail takes the next id, from tail_id on, and its
    line is parsed in full by _parse_fields; its entry in new tails is the
    Request, or with as_lines its (line number, stripped line), which
    marshal can carry. A line whose tail is known pays only for its
    timestamp. At most _MEMO_LIMIT tails are known: a new tail past them
    clears the memo, and the clear point is the id of the first tail
    since.

    A malformed line ends the stage: the lines before it go out as a
    block, then its RequestError's text.
    """
    isfinite, nan = math.isfinite, math.nan
    size = _BLOCK_LINES
    memo = {}
    clear = tail_id
    ids, content_ids, ts, news = [], [], [], []
    for line in lines:
        lineno += 1
        stripped = line.strip()
        if not stripped or stripped[0] == "#":
            continue
        parts = stripped.split(",", 3)
        key = known = None
        content_id = ""
        if len(parts) == 4:
            content_id = parts[2].strip()
            key = (parts[1], parts[3], not content_id)
            known = memo.get(key)
        t = nan
        if known is not None:
            try:
                t = float(parts[0].strip())
            except ValueError:
                pass
        if not isfinite(t):
            # a new tail, or a line the parser rejects in its own words
            try:
                req = _parse_fields(stripped.split(","), lineno)
            except RequestError as err:
                if ids:
                    yield ids, content_ids, ts, news, clear, lineno - 1
                yield str(err)
                return
            t = req.t
            if len(memo) >= _MEMO_LIMIT:
                memo.clear()
                clear = tail_id
            known = memo[key] = tail_id
            tail_id += 1
            news.append((lineno, stripped) if as_lines else req)
        ids.append(known)
        content_ids.append(content_id)
        ts.append(t)
        if len(ids) == size:
            yield ids, content_ids, ts, news, clear, lineno
            ids, content_ids, ts, news = [], [], [], []
    if ids:
        yield ids, content_ids, ts, news, clear, lineno


def _forked_blocks(trace):
    """_blocks of trace, a regular file at its start, parsed in a forked
    child that sends each block through _fork.Child's channel.

    If the child fails (see Child.ok), the trace is read again from its
    start, and its lines after the last block received are parsed here,
    so the blocks are those of one process. The child is reaped when the
    blocks end or the generator is closed.
    """
    lineno = tail_id = 0
    with Child(partial(_send_blocks, trace)) as child:
        for block in child:
            yield block
            # reached only after a block, never after an error text
            lineno = block[5]
            tail_id += len(block[3])
    if not child.ok:
        trace.seek(0)
        yield from _blocks(islice(trace, lineno, None), lineno, tail_id)


def _send_blocks(trace, send):
    """The forked child of _forked_blocks."""
    for block in _blocks(trace, as_lines=True):
        send(block)  # the parent folds each block as soon as it is sent


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
    with open(path, "r", encoding="utf-8-sig") as fh:
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
