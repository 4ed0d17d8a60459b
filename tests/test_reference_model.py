"""The engine's decisions against reference_model, an independent
statement of its rules: every figure must agree exactly, since both
sum the same terms in the same order."""

from hypothesis import example, given, settings, strategies as st

from hapslink import (
    CacheState,
    EngineContext,
    Mode,
    ModeConfigs,
    Objective,
    ObjectiveKind,
    RadioParams,
    Request,
    RequestKind,
    RisConfig,
    SmbsConfig,
    handle_request,
    replay_trace,
)

import reference_model as ref
from conftest import geom_at

MIN_ENERGY = Objective(ObjectiveKind.MIN_ENERGY_SUBJECT_TO_QOS)
OBJECTIVES = [None] + [Objective(kind) for kind in ObjectiveKind]
# an onboard rate at which a 1 Mbit task at x = 45 km takes exactly as
# long on the base station as through the surface
TIED_F_H = 9800072931.180836


def context(x, N=50000, element_W=0.0078, F_H=2e9):
    defaults = ModeConfigs.defaults()
    configs = ModeConfigs(rs=defaults.rs, ris=RisConfig(N=N, per_element_power_W=element_W),
                          smbs=SmbsConfig(F_H=F_H))
    return EngineContext(geom=geom_at(x), radio=RadioParams(), configs=configs)


def engine_decision(ctx, req, cached, seen, threshold, force):
    """handle_request's decision, or a forced replay's, as a tuple."""
    state = CacheState(capacity=4, popularity_threshold=threshold)
    if cached:
        state.entries["a"] = None
    if seen:
        state.popularity["a"] = seen
    if force is None:
        d, _ = handle_request(req, state, ctx)
    else:
        d = replay_trace([req], state, ctx, force_mode=force).decisions[0]
    return d.mode, d.action, d.objective_value, d.latency_s, d.energy_J


@st.composite
def cases(draw):
    ctx = context(
        draw(st.one_of(st.sampled_from([0.0, 30000.0, 45000.0, 60000.0]),
                       st.floats(0.0, 60000.0))),
        # the relay wins somewhere only on a small surface
        *draw(st.sampled_from([(50000, 0.0078), (10000, 0.0078), (50000, 0.02),
                               (30000, 0.013)])),
        draw(st.sampled_from([2e9, 4e9, TIED_F_H])),
    )
    kind = draw(st.sampled_from(RequestKind))
    objective = draw(st.sampled_from(OBJECTIVES))
    # a floor equal to a payload's capacity tests the >= edge
    some_floor = st.one_of(st.sampled_from([row[1] for row in ctx.rows]),
                           st.floats(1e6, 2e8))
    floor = draw(some_floor if objective == MIN_ENERGY else st.none() | some_floor)
    sizes = st.sampled_from([0.0, 1e3, 1e6, 1e9]) | st.floats(0.0, 1e9)
    if kind is not RequestKind.TASK_OFFLOADING:  # a task needs a size
        sizes = st.none() | sizes
    size = draw(sizes)
    content = kind in (RequestKind.CONTENT_DELIVERY, RequestKind.CACHING)
    req = Request(t=0.0, kind=kind, content_id="a" if content else None,
                  size_bits=size, objective=objective, qos_min_bps=floor)
    return (ctx, req, draw(st.booleans()), draw(st.integers(0, 3)),
            draw(st.integers(1, 3)), draw(st.none() | st.sampled_from(Mode)))


# exact ties, which go to the surface (see test_engine and test_optimizer)
TASK_TIE = (context(45000.0, F_H=TIED_F_H),
            Request(t=0.0, kind=RequestKind.TASK_OFFLOADING, size_bits=1e6), False, 0, 3, None)
# a 50 000-element surface at 0.02 W draws the relay's 1000 W
POWER_TIE = (context(30000.0, element_W=0.02),
             Request(t=0.0, kind=RequestKind.COMMUNICATION, objective=MIN_ENERGY,
                     qos_min_bps=1e6), False, 0, 3, None)


@settings(max_examples=300, deadline=None)
@given(case=cases())
@example(case=TASK_TIE)
@example(case=POWER_TIE)
def test_decisions_match_the_reference_model(case):
    ctx, req, cached, seen, threshold, force = case
    branch = None if force else ref.cache_branch(req, cached, seen, threshold)
    assert engine_decision(*case) == ref.decide(ctx, req, branch, force)

