"""The link budget and the engine's decision rules, written out a second
time for the tests.

A test-only oracle. It imports nothing from hapslink but the value types
and dry_air_specific_attenuation, which tests/test_propagation.py pins,
and states each law from the README's description rather than from
modes.Corridor or engine._build. Each keeps the order of operations the
README gives, so hapslink's figures must equal these exactly.

The link budget, for a platform at offset x on a corridor of ground
length D at altitude H, with slant ranges d1 = hypot(x, H) to the
gateway and d2 = hypot(D - x, H) to the gNB:

* a hop's SNR is tx power + tx gain + rx gain, less free-space loss,
  dry-air absorption over the whole hop and the scintillation margin,
  less the noise floor -174 + 10 log10 B + NF (all in dB);
* the surface's SNR is p G0 G_gNB (N beta)^2 (lambda / 4 pi)^4 over
  d1^2 d2^2 noise, less dry-air absorption over the cascade length at the
  first placement root and scintillation on both hops;
* the relay's best split equalises alpha snr1 and (1 - alpha) snr2, and
  buys 1/2 log2(1 + snr1 snr2 / (snr1 + snr2)); at a fixed split it
  delivers 1/2 log2(1 + min(alpha snr1, (1 - alpha) snr2));
* the base station's access hop delivers log2(1 + SNR) over d2;
* a payload's row is (mode, bps/Hz times B, payload watts, path), the
  path a task travels being d2 to the base station and d1 + d2 through
  the relay or the surface.

From a context's payload rows (mode, capacity_bps, payload_W, path_m)
and one request it works out the decision:

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

import math

from hapslink import Action, Mode, Objective, ObjectiveKind, RequestKind
from hapslink.propagation import dry_air_specific_attenuation

SPEED_OF_LIGHT = 2.998e8  # m/s
PASSIVE_RANK = {Mode.RIS: 0, Mode.RS: 1, Mode.SMBS: 2}

HIT, MISS, MISS_AND_CACHE = "hit", "miss", "miss_and_cache"
INFEASIBLE = (None, Action.INFEASIBLE, 0.0, None, None)


# ---------------------------------------------------------------
# link budget
# ---------------------------------------------------------------

def _linear(dB):
    return 10.0 ** (dB / 10.0)


def _noise_dBm(radio):
    return -174.0 + 10.0 * math.log10(radio.B) + radio.noise_figure


def hop_snr(d, tx_power, tx_gain, rx_gain, radio):
    """Linear SNR of one hop of length d, its terms in their original order."""
    gamma0 = dry_air_specific_attenuation(radio.f, radio.pressure_Pa, radio.temperature_C)
    fspl = 20.0 * math.log10(4.0 * math.pi * d * radio.f / SPEED_OF_LIGHT)
    loss = fspl + gamma0 * d / 1000.0 + radio.scintillation_dB
    return _linear(tx_power + tx_gain + rx_gain - loss - _noise_dBm(radio))


def slant_ranges(D, H, x):
    """(d1, d2): platform to gateway at 0 and to gNB at D."""
    return math.hypot(x, H), math.hypot(D - x, H)


def relay_hop_snrs(D, H, x, radio):
    """Each relay hop's SNR at the full power budget: gateway -> platform
    (gains G0_max, G_RS), platform -> gNB (gains G_RS, G_gNB)."""
    d1, d2 = slant_ranges(D, H, x)
    return (hop_snr(d1, radio.P0_max, radio.G0_max, radio.G_RS, radio),
            hop_snr(d2, radio.P0_max, radio.G_RS, radio.G_gNB, radio))


def ris_snr(D, H, x, radio, ris):
    """Cascade SNR of the reflected gateway -> surface -> gNB path."""
    d1, d2 = slant_ranges(D, H, x)
    lam = SPEED_OF_LIGHT / radio.f
    snr = (
        _linear(radio.P0_max - 30.0) * _linear(radio.G0_max) * _linear(radio.G_gNB)
        * (ris.N * ris.beta) ** 2 * (lam / (4.0 * math.pi)) ** 4
        / (d1 * d1 * d2 * d2 * _linear(_noise_dBm(radio) - 30.0))
    )
    # d1 d2 is least at D/2 - sqrt((D/2)^2 - H^2), or at D/2 when H >= D/2
    half = D / 2.0
    root = half - math.sqrt(max(half * half - H * H, 0.0))
    path = math.hypot(root, H) + math.hypot(D - root, H)
    gamma0 = dry_air_specific_attenuation(radio.f, radio.pressure_Pa, radio.temperature_C)
    return snr / _linear(gamma0 * path / 1000.0 + 2.0 * radio.scintillation_dB)


def relay_best_split(snr1, snr2):
    """(alpha, bps/Hz) where alpha snr1 = (1 - alpha) snr2."""
    return snr2 / (snr1 + snr2), 0.5 * math.log2(1.0 + snr1 * snr2 / (snr1 + snr2))


def relay_fixed_split(snr1, snr2, alpha):
    """The relay's bps/Hz with alpha of the power on hop 1."""
    return 0.5 * math.log2(1.0 + min(alpha * snr1, (1.0 - alpha) * snr2))


def access_capacity(D, H, x, radio):
    """The base station's bps/Hz over the gNB -> platform access hop."""
    d2 = slant_ranges(D, H, x)[1]
    return math.log2(1.0 + hop_snr(d2, radio.P_gNB, radio.G_gNB, radio.G_H_rx, radio))


def rows(D, H, x, radio, configs):
    """Each payload's (mode, capacity_bps, payload_W, path_m), RIS first."""
    d1, d2 = slant_ranges(D, H, x)
    ris, B = configs.ris, radio.B
    return (
        (Mode.RIS, math.log2(1.0 + ris_snr(D, H, x, radio, ris)) * B,
         ris.N * ris.per_element_power_W, d1 + d2),
        (Mode.RS, relay_best_split(*relay_hop_snrs(D, H, x, radio))[1] * B,
         configs.rs.payload_power_W, d1 + d2),
        (Mode.SMBS, access_capacity(D, H, x, radio) * B, configs.smbs.payload_power_W, d2),
    )


def task_latency(row, size, cycles_per_bit, configs, cloud):
    """Seconds to send a size-bit task over row's path at its capacity and
    compute it at F_H onboard the base station or at F_C in the cloud."""
    mode, capacity, _, path = row
    rate = configs.smbs.F_H if mode is Mode.SMBS else cloud.F_C
    return path / SPEED_OF_LIGHT + size / capacity + size * cycles_per_bit / rate


# ---------------------------------------------------------------
# sweep notes
# ---------------------------------------------------------------

def degradation_pct(D, H, x, radio):
    """The relay's capacity lost at alpha = 0.5 against its best split at
    x, in percent of the latter (0 where the best split carries nothing)."""
    snr1, snr2 = relay_hop_snrs(D, H, x, radio)
    best = relay_best_split(snr1, snr2)[1]
    if not best > 0:
        return 0.0
    return 100.0 * (1.0 - relay_fixed_split(snr1, snr2, 0.5) / best)


def placement_roots(D, H):
    """The offsets where d1 d2 is least: D/2 -+ sqrt((D/2)^2 - H^2), or
    D/2 alone when H >= D/2."""
    half = D / 2.0
    off = math.sqrt(max(half * half - H * H, 0.0))
    return (half - off, half + off) if off else (half,)


def ee_spread_pct(D, H, xs, radio, ris):
    """How far the surface's best bits per joule over the offsets xs lies
    above its worst, in percent of the worst."""
    ees = [math.log2(1.0 + ris_snr(D, H, x, radio, ris)) * radio.B
           / (ris.N * ris.per_element_power_W) for x in xs]
    return 100.0 * (max(ees) / min(ees) - 1.0)


def crossover(sizes, onboard, relayed):
    """The task size at which computing onboard stops finishing first:
    the first cell where the onboard latency less the faster relayed one
    turns from negative to zero or more, interpolated linearly inside it;
    None when it never does. onboard is a latency column over sizes,
    relayed a column of (RS, RIS) latency pairs."""
    gaps = [smbs - min(pair) for smbs, pair in zip(onboard, relayed)]
    for i in range(1, len(sizes)):
        before, after = gaps[i - 1], gaps[i]
        if before < 0 <= after:
            return sizes[i - 1] + before / (before - after) * (sizes[i] - sizes[i - 1])
    return None


# ---------------------------------------------------------------
# request rules
# ---------------------------------------------------------------

def _not_a_number(name, value):
    """Why value is no finite number, or None."""
    if type(value) is bool or not isinstance(value, (int, float)):
        return f"{name} must be a number, got {value!r}"
    try:
        as_float = float(value)
    except OverflowError:
        return f"{name} must be finite, got an int of {value.bit_length()} bits"
    if as_float != as_float or abs(as_float) == math.inf:
        return f"{name} must be finite, got {value}"
    return None


def objective_refusal(kind):
    """The text Objective(kind) is refused with, or None."""
    return None if isinstance(kind, ObjectiveKind) else f"unknown objective kind {kind!r}"


def request_refusal(t, kind, content_id=None, size_bits=None, objective=None,
                    qos_min_bps=None):
    """The text a Request of these fields is refused with, or None: the
    first rule broken, in the order the README's trace-format section
    lists them."""
    if not isinstance(kind, RequestKind):
        return f"unknown request kind {kind!r}"
    if not (content_id is None or isinstance(content_id, str)):
        return f"content_id must be a string, got {content_id!r}"
    if not (objective is None or isinstance(objective, Objective)):
        return f"objective must be an Objective, got {objective!r}"
    if kind in (RequestKind.CONTENT_DELIVERY, RequestKind.CACHING):
        if not content_id:
            return f"{kind.value} request needs a content_id"
    elif content_id:
        return f"{kind.value} request must not carry a content_id"
    if t is None:
        return "t must be finite, got None"
    for name, value in (("t", t), ("size_bits", size_bits), ("qos_min_bps", qos_min_bps)):
        if value is not None and _not_a_number(name, value):
            return _not_a_number(name, value)
    if kind is RequestKind.TASK_OFFLOADING and size_bits is None:
        return "task_offloading request needs size_bits"
    if size_bits is not None and size_bits < 0:
        return f"size_bits cannot be negative, got {size_bits}"
    if qos_min_bps is not None and not qos_min_bps > 0:
        return "qos_min_bps must be positive when given"
    min_energy = objective is not None and (
        objective.kind is ObjectiveKind.MIN_ENERGY_SUBJECT_TO_QOS)
    if min_energy and qos_min_bps is None:
        return "min_energy needs a positive qos_min_bps"
    return None


# ---------------------------------------------------------------
# decision rules
# ---------------------------------------------------------------


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
    by_mode = {row[0]: row for row in ctx.rows}
    size, floor = req.size_bits, req.qos_min_bps
    if req.kind is RequestKind.TASK_OFFLOADING:
        modes = [force] if force else [
            m for m in by_mode if floor is None or by_mode[m][1] >= floor
        ]
        if not modes:
            return INFEASIBLE
        latency = {
            m: task_latency(by_mode[m], size, ctx.cycles_per_bit, ctx.configs, ctx.cloud)
            for m in modes
        }
        mode = _passive_best(modes, latency)
        _, capacity, power, _ = by_mode[mode]
        onboard = mode is Mode.SMBS
        action = Action.COMPUTE_ONBOARD if onboard else Action.COMPUTE_AT_CLOUD
        return mode, action, latency[mode], latency[mode], power * (size / capacity)

    if force or branch == HIT:
        mode = force or Mode.SMBS
        value = by_mode[mode][1]
    else:
        communication = req.kind is RequestKind.COMMUNICATION
        modes = list(by_mode) if communication else [Mode.RIS, Mode.RS]
        kind = ObjectiveKind.MAX_CAPACITY if req.objective is None else req.objective.kind
        if kind is ObjectiveKind.MAX_CAPACITY:
            values = {m: by_mode[m][1] for m in modes}
            mode = _passive_best(modes, {m: -values[m] for m in modes})
        elif kind is ObjectiveKind.MAX_ENERGY_EFFICIENCY:
            values = {m: by_mode[m][1] / by_mode[m][2] for m in modes}
            mode = _passive_best(modes, {m: -values[m] for m in modes})
        else:
            values = {m: by_mode[m][2] for m in modes if by_mode[m][1] >= floor}
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
    _, capacity, power, path = by_mode[mode]
    airtime = size / capacity
    return mode, action, value, path / SPEED_OF_LIGHT + airtime, power * airtime
