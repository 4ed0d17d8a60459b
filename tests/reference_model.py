"""The engine's decision rules, written out a second time for the tests.

A test-only oracle. It imports nothing from hapslink but the value
types, and states each rule from the README's description rather than
from engine._build. From a context's payload rows (mode, capacity_bps,
payload_W, path_m) and one request it works out the decision:

* a task runs where it finishes first, among the payloads that carry its
  QoS floor (all three when it has none; only the forced one when a
  payload is forced). Its latency is the path's delay, plus the airtime
  S / capacity, plus S * cycles_per_bit / rate, computed at F_H onboard
  the base station and at F_C in the cloud;
* a cache hit, and any other request on a forced payload, is served at
  that payload's capacity;
* otherwise the request's objective (max_capacity by default) picks
  among the payloads, only the forwarders RIS and RS on a cache miss:
  the most bps, the most bits per joule, or the least payload power
  among those that carry the request's floor;
* every tie goes to the most passive payload: RIS, then RS, then SMBS;
* actions: the base station serves directly, or computes onboard; a
  task elsewhere computes in the cloud; a request that pushes content,
  or a miss the cache keeps, is forwarded and cached; anything else is
  forwarded through the gateway;
* with a size S, a non-task decision's latency is the path's delay plus
  the airtime, and its energy is the payload power times the airtime.
"""

from hapslink import Action, Mode, ObjectiveKind, RequestKind

SPEED_OF_LIGHT = 2.998e8  # m/s
PASSIVE_RANK = {Mode.RIS: 0, Mode.RS: 1, Mode.SMBS: 2}

HIT, MISS, MISS_AND_CACHE = "hit", "miss", "miss_and_cache"
INFEASIBLE = (None, Action.INFEASIBLE, 0.0, None, None)


def cache_branch(req, cached, seen, threshold):
    """What the cache does for req, when no payload is forced: a hit when
    the content is cached, else a miss, which the cache keeps when the
    request pushes the content or this sighting brings the content's
    count of earlier sightings, seen, up to threshold. None for requests
    without content."""
    if req.kind is RequestKind.CACHING:
        return MISS_AND_CACHE
    if req.kind is not RequestKind.CONTENT_DELIVERY:
        return None
    if cached:
        return HIT
    return MISS_AND_CACHE if seen + 1 >= threshold else MISS


def _passive_best(modes, score):
    """The mode of least score; equal scores go to the more passive mode."""
    return min(modes, key=lambda m: (score[m], PASSIVE_RANK[m]))


def decide(ctx, req, branch=None, force=None):
    """(mode, action, objective_value, latency_s, energy_J) for req in
    ctx, on the cache branch (see cache_branch) or the forced payload."""
    rows = {row[0]: row for row in ctx.rows}
    size, floor = req.size_bits, req.qos_min_bps
    if req.kind is RequestKind.TASK_OFFLOADING:
        modes = [force] if force else [
            m for m in rows if floor is None or rows[m][1] >= floor
        ]
        if not modes:
            return INFEASIBLE
        latency = {}
        for m in modes:
            _, capacity, _, path = rows[m]
            rate = ctx.configs.smbs.F_H if m is Mode.SMBS else ctx.cloud.F_C
            latency[m] = (path / SPEED_OF_LIGHT + size / capacity
                          + size * ctx.cycles_per_bit / rate)
        mode = _passive_best(modes, latency)
        _, capacity, power, _ = rows[mode]
        onboard = mode is Mode.SMBS
        action = Action.COMPUTE_ONBOARD if onboard else Action.COMPUTE_AT_CLOUD
        return mode, action, latency[mode], latency[mode], power * (size / capacity)

    if force or branch == HIT:
        mode = force or Mode.SMBS
        value = rows[mode][1]
    else:
        modes = list(rows) if req.kind is RequestKind.COMMUNICATION else [Mode.RIS, Mode.RS]
        kind = ObjectiveKind.MAX_CAPACITY if req.objective is None else req.objective.kind
        if kind is ObjectiveKind.MAX_CAPACITY:
            values = {m: rows[m][1] for m in modes}
            mode = _passive_best(modes, {m: -values[m] for m in modes})
        elif kind is ObjectiveKind.MAX_ENERGY_EFFICIENCY:
            values = {m: rows[m][1] / rows[m][2] for m in modes}
            mode = _passive_best(modes, {m: -values[m] for m in modes})
        else:
            values = {m: rows[m][2] for m in modes if rows[m][1] >= floor}
            if not values:
                return INFEASIBLE
            mode = _passive_best(list(values), values)
        value = values[mode]
    if mode is Mode.SMBS:
        action = Action.SERVE_DIRECT
    elif req.kind is RequestKind.CACHING or branch == MISS_AND_CACHE:
        action = Action.FORWARD_AND_CACHE
    else:
        action = Action.FORWARD_VIA_GATEWAY
    if size is None:
        return mode, action, value, None, None
    _, capacity, power, path = rows[mode]
    airtime = size / capacity
    return mode, action, value, path / SPEED_OF_LIGHT + airtime, power * airtime
