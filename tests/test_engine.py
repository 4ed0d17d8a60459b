import io
import math
import os
import random
import re

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from hapslink import engine, propagation
from hapslink import (
    Action,
    CacheState,
    CloudConfig,
    Corridor,
    EngineContext,
    Mode,
    ModeConfigs,
    ModeDecision,
    Objective,
    ObjectiveKind,
    RadioParams,
    Request,
    RequestError,
    RequestKind,
    decisions_to_csv,
    handle_request,
    load_trace,
    parse_trace_line,
    replay_trace,
)
from hapslink.cli import EXIT_OK, main
from hapslink.engine import stream_replay
from hapslink.modes import RisConfig, RsConfig, SmbsConfig

import reference_model as ref
from conftest import geom_at

GOLDEN_TRACE = os.path.join(os.path.dirname(__file__), "data", "golden_trace.txt")


@pytest.fixture
def ctx():
    return EngineContext(
        geom=geom_at(30000.0),
        radio=RadioParams(),
        configs=ModeConfigs.defaults(),
        cloud=CloudConfig(),
    )


def fresh_state(capacity=16, threshold=3):
    return CacheState(capacity=capacity, popularity_threshold=threshold)


def content(t, cid, size=1e6):
    return Request(t=t, kind=RequestKind.CONTENT_DELIVERY, content_id=cid, size_bits=size)


# ---------------------------------------------------------------
# validation
# ---------------------------------------------------------------

# a Request is refused where it is built, so no engine call sees it

def test_rejects_content_without_id():
    with pytest.raises(RequestError, match="^content_delivery request needs a content_id$"):
        Request(t=0, kind=RequestKind.CONTENT_DELIVERY)


def test_rejects_task_without_size():
    with pytest.raises(RequestError, match="^task_offloading request needs size_bits$"):
        Request(t=0, kind=RequestKind.TASK_OFFLOADING)


def test_rejects_stray_content_id():
    with pytest.raises(RequestError,
                       match="^communication request must not carry a content_id$"):
        Request(t=0, kind=RequestKind.COMMUNICATION, content_id="oops")


def test_rejects_negative_size():
    with pytest.raises(RequestError, match="^size_bits cannot be negative, got -5.0$"):
        Request(t=0, kind=RequestKind.TASK_OFFLOADING, size_bits=-5.0)


def test_overflowing_request_is_refused_before_the_state_changes():
    # a surface that draws 5e304 W turns a 1 Tbit forward into inf joules
    configs = ModeConfigs.defaults()
    hungry = ModeConfigs(
        rs=configs.rs, ris=RisConfig(per_element_power_W=1e300), smbs=configs.smbs
    )
    ctx = EngineContext(geom=geom_at(30000.0), radio=RadioParams(), configs=hungry)
    state = fresh_state(threshold=1)
    for kind in (RequestKind.CONTENT_DELIVERY, RequestKind.CACHING):
        req = Request(t=0, kind=kind, content_id="big", size_bits=1e12)
        with pytest.raises(ValueError, match="energy_J overflows"):
            handle_request(req, state, ctx)
        assert not state.entries and not state.popularity
    with pytest.raises(RequestError, match="request 0: energy_J overflows"):
        replay_trace([content(0.0, "big", size=1e12)], state, ctx)


def test_error_leaves_state_untouched(ctx):
    state = fresh_state()
    _, state = handle_request(content(0, "a"), state, ctx)
    entries_before = dict(state.entries)
    popularity_before = dict(state.popularity)
    with pytest.raises(RequestError):
        handle_request(Request(t=1, kind=RequestKind.CONTENT_DELIVERY), state, ctx)
    assert dict(state.entries) == entries_before
    assert dict(state.popularity) == popularity_before


# ---------------------------------------------------------------
# content flow
# ---------------------------------------------------------------

def test_threshold_two_caches_on_second_request(ctx):
    state = fresh_state(threshold=2)
    d1, state = handle_request(content(0, "x"), state, ctx)
    assert d1.action is Action.FORWARD_VIA_GATEWAY
    assert "x" not in state.entries
    d2, state = handle_request(content(1, "x"), state, ctx)
    assert d2.action is Action.FORWARD_AND_CACHE
    assert "x" in state.entries


def test_hit_serves_direct_from_smbs(ctx):
    state = fresh_state(threshold=1)
    _, state = handle_request(content(0, "x"), state, ctx)
    assert "x" in state.entries
    d, state = handle_request(content(1, "x"), state, ctx)
    assert d.mode is Mode.SMBS
    assert d.action is Action.SERVE_DIRECT
    assert state.popularity["x"] == 2


def test_cold_start_hit_rate(ctx):
    # k requests for one id, threshold 1: the first is the only miss
    k = 6
    reqs = [content(float(i), "vid") for i in range(k)]
    result = replay_trace(reqs, fresh_state(threshold=1), ctx)
    assert result.decisions[0].action is Action.FORWARD_AND_CACHE
    for d in result.decisions[1:]:
        assert d.mode is Mode.SMBS
        assert d.action is Action.SERVE_DIRECT
    assert result.summary.cache_hit_rate == pytest.approx((k - 1) / k)


def test_forward_picks_surface_at_defaults(ctx):
    # at mid-corridor the reflected path out-carries the relay
    d, _ = handle_request(content(0, "x"), fresh_state(), ctx)
    assert d.mode is Mode.RIS
    assert d.action is Action.FORWARD_VIA_GATEWAY


def test_caching_request_inserts_immediately(ctx):
    state = fresh_state()
    req = Request(t=0, kind=RequestKind.CACHING, content_id="push", size_bits=1e6)
    d, state = handle_request(req, state, ctx)
    assert d.action is Action.FORWARD_AND_CACHE
    assert d.mode in (Mode.RS, Mode.RIS)
    assert "push" in state.entries
    assert state.popularity["push"] == 1


def test_lru_eviction_order(ctx):
    state = fresh_state(capacity=2, threshold=1)
    for i, cid in enumerate(("a", "b")):
        _, state = handle_request(content(float(i), cid), state, ctx)
    # touch "a" so "b" becomes the eviction candidate
    _, state = handle_request(content(2.0, "a"), state, ctx)
    _, state = handle_request(content(3.0, "c"), state, ctx)
    assert "a" in state.entries
    assert "c" in state.entries
    assert "b" not in state.entries
    assert len(state.entries) == 2


def test_zero_capacity_cache_never_stores(ctx):
    state = fresh_state(capacity=0, threshold=1)
    d, state = handle_request(content(0, "x"), state, ctx)
    assert "x" not in state.entries
    # still a forward decision, never a phantom hit
    assert d.action in (Action.FORWARD_VIA_GATEWAY, Action.FORWARD_AND_CACHE)


# ---------------------------------------------------------------
# communication and tasks
# ---------------------------------------------------------------

def test_communication_without_size_has_no_airtime(ctx):
    req = Request(t=0, kind=RequestKind.COMMUNICATION)
    d, _ = handle_request(req, fresh_state(), ctx)
    assert d.mode is Mode.RIS
    assert d.latency_s is None
    assert d.energy_J is None


def test_communication_infeasible_qos(ctx):
    req = Request(
        t=0, kind=RequestKind.COMMUNICATION,
        objective=Objective(ObjectiveKind.MIN_ENERGY_SUBJECT_TO_QOS),
        qos_min_bps=1e12,
    )
    d, state = handle_request(req, fresh_state(), ctx)
    assert d.mode is None
    assert d.action is Action.INFEASIBLE
    assert d.energy_J is None


def oracle_task_latencies(ctx, size):
    """{mode: latency} of a task of size bits on the reference model's rows
    at ctx's geometry."""
    g, configs = ctx.geom, ctx.configs
    return {
        row[0]: ref.task_latency(row, size, ctx.cycles_per_bit, configs, ctx.cloud)
        for row in ref.rows(g.D, g.H, g.x, ctx.radio, configs)
    }


def test_task_decision_matches_offload_oracle(ctx):
    req = Request(t=0, kind=RequestKind.TASK_OFFLOADING, size_bits=1e6)
    d, _ = handle_request(req, fresh_state(), ctx)
    latencies = oracle_task_latencies(ctx, 1e6)
    best_mode = min(latencies, key=latencies.get)
    assert d.mode is best_mode
    assert d.latency_s == pytest.approx(latencies[best_mode], rel=1e-12)
    expected_action = (
        Action.COMPUTE_ONBOARD if best_mode is Mode.SMBS else Action.COMPUTE_AT_CLOUD
    )
    assert d.action is expected_action


def test_small_task_computes_onboard(ctx):
    # at tiny sizes the shorter access hop dominates
    req = Request(t=0, kind=RequestKind.TASK_OFFLOADING, size_bits=1e3)
    d, _ = handle_request(req, fresh_state(), ctx)
    assert d.mode is Mode.SMBS
    assert d.action is Action.COMPUTE_ONBOARD


def test_task_qos_filters_modes(ctx):
    # a rate floor only the surface clears forces the relayed path
    req = Request(
        t=0, kind=RequestKind.TASK_OFFLOADING, size_bits=1e3, qos_min_bps=1.2e8
    )
    d, _ = handle_request(req, fresh_state(), ctx)
    assert d.mode is Mode.RIS
    req = Request(
        t=0, kind=RequestKind.TASK_OFFLOADING, size_bits=1e3, qos_min_bps=1e12
    )
    d, _ = handle_request(req, fresh_state(), ctx)
    assert d.action is Action.INFEASIBLE
    # above the gateway a floor the base station misses leaves the two
    # relayed paths; a zero-bit task pays propagation only, the same over
    # both, and the tie goes to the surface, priced first
    far = EngineContext(geom=geom_at(0.0), radio=RadioParams(), configs=ModeConfigs.defaults())
    req = Request(t=0, kind=RequestKind.TASK_OFFLOADING, size_bits=0.0, qos_min_bps=7.5e7)
    d, _ = handle_request(req, fresh_state(), far)
    assert d.mode is Mode.RIS


def test_task_builds_one_decision_per_new_tail(ctx, monkeypatch):
    # the three payloads are priced as plain numbers; only the fastest
    # becomes a ModeDecision
    built = []
    check = ModeDecision.__post_init__

    def counting(self):
        built.append(self.mode)
        check(self)

    monkeypatch.setattr(ModeDecision, "__post_init__", counting)
    for size in (1e3, 1e6, 1e9):
        req = Request(t=0, kind=RequestKind.TASK_OFFLOADING, size_bits=size)
        decision, _ = handle_request(req, fresh_state(), ctx)
        assert built == [decision.mode]
        built.clear()
    lines = [f"{i},task_offloading,,{1e3 * (i + 1)!r},," for i in range(6)]
    stream_replay(lines, fresh_state(), ctx, io.StringIO().write)
    assert len(built) == len(lines)


def test_task_refused_when_a_losing_payload_overflows():
    # the relay is slower than the surface, but its energy overflows: the
    # request is refused all the same, as when every candidate was built
    configs = ModeConfigs.defaults()
    hungry = ModeConfigs(
        rs=RsConfig(payload_power_W=1e308), ris=configs.ris, smbs=configs.smbs
    )
    ctx = EngineContext(geom=geom_at(30000.0), radio=RadioParams(), configs=hungry)
    req = Request(t=0, kind=RequestKind.TASK_OFFLOADING, size_bits=1e9)
    with pytest.raises(ValueError, match="^energy_J overflows to inf$"):
        handle_request(req, fresh_state(), ctx)
    # a floor the relay misses leaves the surface
    req = Request(t=0, kind=RequestKind.TASK_OFFLOADING, size_bits=1e9, qos_min_bps=1.2e8)
    assert handle_request(req, fresh_state(), ctx)[0].mode is Mode.RIS


def test_exact_task_tie_goes_to_the_passive_payload():
    # at this offset and onboard rate a 1 Mbit task takes exactly as long
    # on the base station as through the surface: the surface wins
    configs = ModeConfigs.defaults()
    fast = ModeConfigs(rs=configs.rs, ris=configs.ris,
                       smbs=SmbsConfig(F_H=9800072931.180836))
    ctx = EngineContext(geom=geom_at(45000.0), radio=RadioParams(), configs=fast)
    latency = oracle_task_latencies(ctx, 1e6)
    assert latency[Mode.SMBS] == latency[Mode.RIS] < latency[Mode.RS]
    req = Request(t=0, kind=RequestKind.TASK_OFFLOADING, size_bits=1e6)
    d, _ = handle_request(req, fresh_state(), ctx)
    assert (d.mode, d.action) == (Mode.RIS, Action.COMPUTE_AT_CLOUD)
    assert d.latency_s == latency[Mode.RIS]


@pytest.mark.parametrize("floor, message", [
    (float("nan"), "qos_min_bps must be finite, got nan"),
    (float("inf"), "qos_min_bps must be finite, got inf"),
    (True, "qos_min_bps must be a number, got True"),
    ("5", "qos_min_bps must be a number, got '5'"),
    (None, "min_energy needs a positive qos_min_bps"),
])
def test_min_energy_floor_is_the_request_field(floor, message):
    # the floor lives on the request alone, and a bad one is refused by
    # name: never an infeasible decision, never a bare TypeError
    with pytest.raises(RequestError, match=f"^{re.escape(message)}$"):
        Request(t=0, kind=RequestKind.COMMUNICATION, qos_min_bps=floor,
                objective=Objective(ObjectiveKind.MIN_ENERGY_SUBJECT_TO_QOS))


def test_energy_is_power_times_airtime(ctx):
    req = content(0, "x", size=2e6)
    d, _ = handle_request(req, fresh_state(), ctx)
    _, capacity, power, _ = ctx.row[d.mode]
    assert d.energy_J == pytest.approx(power * 2e6 / capacity, rel=1e-12)


# ---------------------------------------------------------------
# replay
# ---------------------------------------------------------------

def test_empty_trace(ctx):
    state = fresh_state()
    result = replay_trace([], state, ctx)
    assert result.decisions == ()
    assert result.summary.requests == 0
    assert result.summary.total_energy_J == 0.0
    assert dict(result.final_state.entries) == dict(state.entries)


def test_replay_is_deterministic(ctx):
    rng = random.Random(3)
    reqs = []
    for i in range(40):
        kind = rng.choice(list(RequestKind))
        if kind in (RequestKind.CONTENT_DELIVERY, RequestKind.CACHING):
            reqs.append(Request(t=float(i), kind=kind,
                                content_id=f"c{rng.randrange(5)}", size_bits=1e6))
        elif kind is RequestKind.TASK_OFFLOADING:
            reqs.append(Request(t=float(i), kind=kind, size_bits=rng.uniform(1e4, 1e7)))
        else:
            reqs.append(Request(t=float(i), kind=kind, size_bits=1e5))
    r1 = replay_trace(reqs, fresh_state(), ctx)
    r2 = replay_trace(reqs, fresh_state(), ctx)
    assert r1.decisions == r2.decisions
    assert decisions_to_csv(reqs, r1.decisions) == decisions_to_csv(reqs, r2.decisions)
    assert r1.summary == r2.summary


def test_replay_rejects_time_travel(ctx):
    reqs = [content(5.0, "a"), content(4.0, "b")]
    with pytest.raises(RequestError, match="request 1"):
        replay_trace(reqs, fresh_state(), ctx)


def test_replay_aborts_on_malformed_with_index(ctx):
    # a malformed Request is refused where it is built; a request the
    # replay refuses is named by its index
    with pytest.raises(RequestError, match="^content_delivery request needs a content_id$"):
        Request(t=1.0, kind=RequestKind.CONTENT_DELIVERY)
    reqs = [content(0.0, "a"), content(2.0, "b"), content(1.0, "c")]
    with pytest.raises(RequestError,
                       match=r"^request 2: timestamps must be non-decreasing \(1.0 after 2.0\)$"):
        replay_trace(reqs, fresh_state(), ctx)


def test_replay_counts_modes_and_energy(ctx):
    reqs = [content(float(i), "vid") for i in range(4)]
    result = replay_trace(reqs, fresh_state(threshold=3), ctx)
    counts = result.summary.mode_counts
    assert sum(counts.values()) == 4
    total = sum(d.energy_J for d in result.decisions if d.energy_J is not None)
    assert result.summary.total_energy_J == pytest.approx(total, rel=1e-12)


def test_forced_mode_bypasses_cache(ctx):
    reqs = [content(float(i), "vid") for i in range(5)]
    result = replay_trace(reqs, fresh_state(threshold=1), ctx, force_mode=Mode.RS)
    assert all(d.mode is Mode.RS for d in result.decisions)
    assert len(result.final_state.entries) == 0
    assert result.summary.cache_hit_rate == 0.0


def test_forced_task_uses_the_selection_path(ctx):
    req = Request(t=0, kind=RequestKind.TASK_OFFLOADING, size_bits=1e6)
    chosen, _ = handle_request(req, fresh_state(), ctx)
    oracle = oracle_task_latencies(ctx, 1e6)
    for mode in Mode:
        forced = replay_trace([req], fresh_state(), ctx, force_mode=mode).decisions[0]
        assert forced.latency_s == pytest.approx(oracle[mode], rel=1e-12)
        if mode is chosen.mode:
            assert forced == chosen


def test_forced_surface_cheaper_than_forced_relay(ctx):
    # same bits, less power, more capacity: the passive payload must win
    reqs = [content(float(i), f"c{i}", size=5e6) for i in range(6)]
    ris = replay_trace(reqs, fresh_state(), ctx, force_mode=Mode.RIS)
    rs = replay_trace(reqs, fresh_state(), ctx, force_mode=Mode.RS)
    assert ris.summary.total_energy_J < rs.summary.total_energy_J


def test_replay_validates_each_request_once(ctx, monkeypatch, tmp_path):
    calls = []
    real = Request.__post_init__

    def counting(req):
        calls.append(req)
        return real(req)

    monkeypatch.setattr(Request, "__post_init__", counting)
    # a Request is checked where it is built, once
    requests = load_trace(GOLDEN_TRACE)
    assert len(calls) == len(requests) == 20
    calls.clear()
    # and the engine, forced or not, trusts it
    replay_trace(requests, fresh_state(), ctx)
    replay_trace(requests, fresh_state(), ctx, force_mode=Mode.RS)
    assert calls == []
    with pytest.raises(RequestError, match="^content_delivery request needs a content_id$"):
        Request(t=1.0, kind=RequestKind.CONTENT_DELIVERY)
    # the CLI builds a Request only for a new tail (every field but t and
    # content_id), so each tail is checked once, at its first sighting
    with open(GOLDEN_TRACE) as fh:
        rows = [line.strip().split(",") for line in fh if line.strip()[:1].isdigit()]
    tails = {(kind, size, obj, qos, not cid) for _, kind, cid, size, obj, qos in rows}
    calls.clear()
    assert main(["replay", GOLDEN_TRACE, "--out", str(tmp_path / "d.csv")]) == EXIT_OK
    assert len(calls) == len(tails) == 14


def test_context_runs_the_link_budget_once(monkeypatch):
    real = propagation.dry_air_specific_attenuation
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(propagation, "dry_air_specific_attenuation", counting)
    ctx = EngineContext(
        geom=geom_at(30000.0), radio=RadioParams(), configs=ModeConfigs.defaults()
    )
    assert len(calls) == 1

    # after construction no request re-runs the link budget or the geometry
    def refuse(*args):
        raise AssertionError("recomputed after construction")

    monkeypatch.setattr(propagation, "dry_air_specific_attenuation", refuse)
    monkeypatch.setattr(Corridor, "hop_lengths", refuse)
    requests = load_trace(GOLDEN_TRACE)
    replay_trace(requests, fresh_state(), ctx)
    for mode in Mode:
        replay_trace(requests, fresh_state(), ctx, force_mode=mode)


# ---------------------------------------------------------------
# cache invariants under random traffic
# ---------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_cache_invariants_random_traffic(data):
    ctx = EngineContext(
        geom=geom_at(30000.0),
        radio=RadioParams(),
        configs=ModeConfigs.defaults(),
        cloud=CloudConfig(),
    )
    capacity = data.draw(st.integers(min_value=0, max_value=4))
    threshold = data.draw(st.integers(min_value=1, max_value=3))
    state = CacheState(capacity=capacity, popularity_threshold=threshold)
    n = data.draw(st.integers(min_value=1, max_value=50))
    ids = ["a", "b", "c", "d", "e", "f"]
    objectives = st.sampled_from([  # (objective, QoS floor)
        (None, None),
        (Objective(ObjectiveKind.MAX_ENERGY_EFFICIENCY), None),
        (Objective(ObjectiveKind.MIN_ENERGY_SUBJECT_TO_QOS), 5e7),
        (Objective(ObjectiveKind.MIN_ENERGY_SUBJECT_TO_QOS), 1e12),  # unreachable
    ])
    for i in range(n):
        kind = data.draw(st.sampled_from(
            [RequestKind.CONTENT_DELIVERY, RequestKind.CACHING,
             RequestKind.TASK_OFFLOADING]
        ))
        if kind is RequestKind.TASK_OFFLOADING:
            req = Request(t=float(i), kind=kind, size_bits=1e5)
        else:
            objective, floor = data.draw(objectives)
            req = Request(t=float(i), kind=kind,
                          content_id=data.draw(st.sampled_from(ids)), size_bits=1e5,
                          objective=objective, qos_min_bps=floor)
        cached_before = set(state.entries)
        entries_before = dict(state.entries)
        popularity_before = dict(state.popularity)
        given_state = state
        decision, state = handle_request(req, state, ctx)
        # the state is updated in place and handed back
        assert state is given_state
        if decision.action is Action.INFEASIBLE:
            assert dict(state.entries) == entries_before
            assert dict(state.popularity) == popularity_before
        assert len(state.entries) <= capacity
        if decision.action is Action.SERVE_DIRECT and req.content_id:
            # a hit must have been cached before the request arrived
            assert req.content_id in cached_before
        for cid in state.entries:
            assert state.popularity.get(cid, 0) >= 1


# ---------------------------------------------------------------
# trace text format
# ---------------------------------------------------------------

def test_parse_skips_comments_and_blanks():
    assert parse_trace_line("# comment") is None
    assert parse_trace_line("   ") is None


def test_parse_roundtrip():
    req = parse_trace_line("1.5,content_delivery,vid9,2e6,,")
    assert req.t == 1.5
    assert req.kind is RequestKind.CONTENT_DELIVERY
    assert req.content_id == "vid9"
    assert req.size_bits == 2e6
    assert req.objective is None


def test_parse_objective_tokens():
    req = parse_trace_line("0,communication,,1e5,max_energy_efficiency,")
    assert req.objective.kind is ObjectiveKind.MAX_ENERGY_EFFICIENCY
    req = parse_trace_line("0,communication,,1e5,min_energy,5e7")
    assert req.objective == Objective(ObjectiveKind.MIN_ENERGY_SUBJECT_TO_QOS)
    assert req.qos_min_bps == 5e7


def test_trace_objectives_are_shared_one_per_kind():
    # the floor stays on the request, so every kind has one shared Objective
    assert [o.kind for o in engine.OBJECTIVES.values()] == list(ObjectiveKind)
    for token, objective in engine.OBJECTIVES.items():
        for floor in ("5e7", "1e8"):
            req = parse_trace_line(f"0,communication,,,{token},{floor}")
            assert req.objective is objective
    assert engine._DEFAULT_OBJECTIVE is engine.OBJECTIVES["max_capacity"]


def test_parse_rejects_garbage():
    with pytest.raises(RequestError, match="6 fields"):
        parse_trace_line("1,communication")
    with pytest.raises(RequestError, match="timestamp"):
        parse_trace_line("zzz,communication,,,,")
    with pytest.raises(RequestError, match="kind"):
        parse_trace_line("0,teleportation,,,,")
    with pytest.raises(RequestError, match="objective"):
        parse_trace_line("0,communication,,,up_and_to_the_right,")
    with pytest.raises(RequestError, match="qos"):
        parse_trace_line("0,communication,,,min_energy,")
    with pytest.raises(RequestError, match="line 17"):
        parse_trace_line("0,communication,,,min_energy,", lineno=17)
    for line, field_name in (
        ("nan,communication,,,,", "t"),
        ("0,content_delivery,a,nan,,", "size_bits"),
        ("0,task_offloading,,1e400,,", "size_bits"),
        ("0,communication,,,max_capacity,inf", "qos_min_bps"),
    ):
        with pytest.raises(RequestError, match=f"line 4: {field_name} must be finite"):
            parse_trace_line(line, lineno=4)
    # the floor rules are the Request's own, in its words
    with pytest.raises(RequestError, match="^line 2: min_energy needs a positive qos_min_bps$"):
        parse_trace_line("0,communication,,,min_energy,", lineno=2)
    with pytest.raises(RequestError, match="^qos_min_bps must be positive when given$"):
        parse_trace_line("0,communication,,,min_energy,-5")


def test_parse_names_an_unparsable_size():
    with pytest.raises(RequestError, match="^line 1: bad size_bits 'abc'$"):
        parse_trace_line("0,communication,,abc,,", lineno=1)


def test_load_trace_reports_line_numbers(tmp_path):
    p = tmp_path / "bad.trace"
    p.write_text("# header\n0,content_delivery,a,1e5,,\n1,nonsense,,,,\n")
    with pytest.raises(RequestError, match="line 3"):
        load_trace(str(p))


# ---------------------------------------------------------------
# decision CSV
# ---------------------------------------------------------------

def test_csv_schema_and_formatting(ctx):
    reqs = [
        content(0.0, "x", size=1e6),
        Request(t=1.0, kind=RequestKind.COMMUNICATION),
    ]
    result = replay_trace(reqs, fresh_state(), ctx)
    text = decisions_to_csv(reqs, result.decisions)
    lines = text.strip().split("\n")
    assert lines[0] == "t,kind,mode,action,objective_value,latency_s,energy_J"
    assert lines[1].startswith("0.00000000e+00,content_delivery,")
    # the sizeless communication row leaves latency/energy blank
    assert lines[2].endswith(",,")
    assert len(lines) == 3


def test_csv_requires_alignment(ctx):
    reqs = [content(0.0, "x")]
    with pytest.raises(ValueError):
        decisions_to_csv(reqs, [])


# ---------------------------------------------------------------
# timestamps and cache bounds the engine refuses by name
# ---------------------------------------------------------------

@pytest.mark.parametrize("t", [None, float("nan"), float("inf")])
def test_replay_refuses_a_missing_or_non_finite_t(t):
    with pytest.raises(RequestError, match=f"^t must be finite, got {t}$"):
        Request(t=t, kind=RequestKind.COMMUNICATION)


def test_lone_request_without_t_is_refused(ctx):
    state = fresh_state()
    with pytest.raises(RequestError, match="^t must be finite, got None$"):
        handle_request(Request(t=None, kind=RequestKind.COMMUNICATION), state, ctx)
    assert state == fresh_state()


@pytest.mark.parametrize("bounds, message", [
    ({"capacity": -1}, "capacity cannot be negative, got -1"),
    ({"capacity": float("nan")}, "capacity must be finite, got nan"),
    ({"popularity_threshold": 0}, "popularity_threshold must be at least 1, got 0"),
    ({"popularity_threshold": -3}, "popularity_threshold must be at least 1, got -3"),
    ({"capacity": 2.7}, "capacity must be an integer, got 2.7"),
    ({"popularity_threshold": 2.5}, "popularity_threshold must be an integer, got 2.5"),
    ({"capacity": True}, "capacity must be a number, got True"),
])
def test_cache_state_refuses_bounds_by_name(bounds, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        CacheState(**bounds)



@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -4.0])
def test_context_refuses_a_bad_cycles_per_bit(value):
    rule = "positive and finite" if math.isfinite(value) else "finite"
    with pytest.raises(ValueError, match=f"^cycles_per_bit must be {rule}, got {value}$"):
        EngineContext(geom=geom_at(30000.0), radio=RadioParams(),
                      configs=ModeConfigs.defaults(), cycles_per_bit=value)


# ---------------------------------------------------------------
# request fields of the wrong type, from library callers
# ---------------------------------------------------------------

@pytest.mark.parametrize("fields, message", [
    ({"t": "1"}, "t must be a number, got '1'"),
    ({"t": True}, "t must be a number, got True"),
    ({"size_bits": "1e5"}, "size_bits must be a number, got '1e5'"),
    ({"size_bits": 10 ** 400}, "size_bits must be finite, got an int of 1329 bits"),
    ({"qos_min_bps": [5e7]}, "qos_min_bps must be a number, got [50000000.0]"),
    ({"objective": "max_capacity"}, "objective must be an Objective, got 'max_capacity'"),
    ({"content_id": 7}, "content_id must be a string, got 7"),
    # refused by name, not as an unhashable cache key
    ({"kind": RequestKind.CONTENT_DELIVERY, "content_id": ["a"]},
     "content_id must be a string, got ['a']"),
    ({"kind": "communication"}, "unknown request kind 'communication'"),
])
def test_replay_refuses_a_wrongly_typed_field_by_name(fields, message):
    with pytest.raises(RequestError, match=f"^{re.escape(message)}$"):
        Request(**{"t": 1.0, "kind": RequestKind.COMMUNICATION, **fields})


# what a refusal may name: a request field (t also as "timestamps"), or
# the decision figure that overflowed
_REFUSAL_NAMES = re.compile(
    r"\b(t|timestamps|kind|content_id|size_bits|objective|qos_min_bps"
    r"|objective_value|latency_s|energy_J)\b"
)
_ANYTHING = st.one_of(
    st.none(), st.booleans(), st.integers(), st.just(10 ** 400), st.floats(),
    st.text(max_size=3), st.lists(st.integers(), max_size=1),
)
_NUMBER = st.one_of(st.none(), st.floats(), st.integers(-10, 10 ** 7), _ANYTHING)
_FIELDS = st.fixed_dictionaries(dict(
    t=st.one_of(st.integers(0, 3).map(float), _NUMBER),
    kind=st.one_of(st.sampled_from(RequestKind), _ANYTHING),
    content_id=st.one_of(st.none(), st.sampled_from(["a", "b", ""]), _ANYTHING),
    size_bits=st.one_of(st.floats(0, 1e9), _NUMBER),
    objective=st.one_of(
        st.none(),
        st.sampled_from([
            Objective(ObjectiveKind.MAX_ENERGY_EFFICIENCY),
            Objective(ObjectiveKind.MIN_ENERGY_SUBJECT_TO_QOS),
        ]),
        _ANYTHING,
    ),
    qos_min_bps=st.one_of(st.none(), st.floats(1.0, 1e9), _NUMBER),
))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])  # ctx is immutable
@given(drawn=st.lists(_FIELDS, max_size=6))
@example(drawn=[dict(t=0.0, kind=RequestKind.CACHING, content_id=["a"])])
def test_replay_refuses_any_bad_field_by_name(ctx, drawn):
    # a bad field is refused by name where the Request is built; in a
    # whole replay every failure is a RequestError naming the request and
    # a field, and the initial state is never touched
    requests = []
    for fields in drawn:
        try:
            requests.append(Request(**fields))
        except RequestError as err:
            assert _REFUSAL_NAMES.search(str(err)), err
    state = fresh_state(capacity=2, threshold=2)
    try:
        result = replay_trace(requests, state, ctx)
    except RequestError as err:
        found = re.match(r"request (\d+): (.*)", str(err), re.DOTALL)
        assert found and int(found[1]) < len(requests), err
        assert _REFUSAL_NAMES.search(found[2]), err
    else:
        assert len(result.decisions) == len(requests)
    assert state == fresh_state(capacity=2, threshold=2)
    # one request at a time: a refused request leaves the state unchanged
    for req in requests:
        before = state.copy()
        try:
            handle_request(req, state, ctx)
        except ValueError as err:  # the refusal itself, not "request 0: ..."
            assert _REFUSAL_NAMES.search(str(err)), err
            assert state == before
