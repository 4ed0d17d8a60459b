"""The payload rows and the engine's decisions against reference_model,
an independent statement of the link budget and the decision rules:
every figure must agree exactly, since both sum the same terms in the
same order. A Request and an Objective are refused where they are
built exactly when the oracle's copy of their rules refuses, in the same
words."""

import pytest
from hypothesis import example, given, settings, strategies as st

from hapslink import (
    CacheState,
    Corridor,
    EngineContext,
    Mode,
    ModeConfigs,
    Objective,
    ObjectiveKind,
    RadioParams,
    Request,
    RequestError,
    RequestKind,
    RisConfig,
    RsConfig,
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



_dB = st.floats(min_value=-20.0, max_value=60.0)
RADIOS = st.builds(
    RadioParams,
    f=st.floats(min_value=1e9, max_value=50e9),
    B=st.floats(min_value=1e5, max_value=1e9),
    noise_figure=st.floats(min_value=0.0, max_value=15.0),
    P_gNB=_dB, G_gNB=_dB, P0_max=_dB, G0_max=_dB, G_RS=_dB, G_H_rx=_dB,
    scintillation_dB=st.floats(min_value=0.0, max_value=3.0),
)
SURFACE = dict(N=50000, beta=1.0, element_W=0.0078)


@settings(max_examples=300, deadline=None)
@given(
    D=st.floats(1e3, 3e5), H=st.floats(1e3, 5e4), frac=st.floats(0.0, 1.0),
    N=st.integers(1, 10**6), beta=st.floats(1e-3, 1.0),
    element_W=st.floats(1e-4, 1.0), radio=RADIOS,
)
@example(D=60000.0, H=20000.0, frac=0.0, radio=RadioParams(), **SURFACE)  # x = 0
@example(D=60000.0, H=20000.0, frac=1.0, radio=RadioParams(), **SURFACE)  # x = D
@example(D=60000.0, H=30000.0, frac=0.5, radio=RadioParams(), **SURFACE)  # H = D/2
@example(D=20000.0, H=45000.0, frac=0.3, radio=RadioParams(), **SURFACE)  # H > D/2
def test_corridor_rows_are_the_reference_rows(D, H, frac, N, beta, element_W, radio):
    x = min(D, frac * D)
    surface = RisConfig(N=N, beta=beta, per_element_power_W=element_W)
    configs = ModeConfigs(rs=RsConfig(), ris=surface, smbs=SmbsConfig())
    assert Corridor(D, H, radio).rows(x, configs) == ref.rows(D, H, x, radio, configs)


# values of every wrong type, and the edge values of the right ones
_ODD = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 10), st.sampled_from([10 ** 400, -10 ** 400]),
    st.floats(), st.sampled_from([-1e6, -0.0, -1.0]),
    st.text(max_size=3), st.sampled_from(["communication", "max_capacity", "1e5"]),
    st.lists(st.integers(), max_size=1), st.just(Objective()), st.sampled_from(Mode),
)


def _mostly(good):
    """good three times in four, else a value of any type."""
    return st.one_of(good, good, good, _ODD)


def _fields(kind, **changes):
    fields = dict(t=0.0, kind=kind, content_id=None, size_bits=None, qos_min_bps=None)
    return {**fields, **changes}


@settings(max_examples=500, deadline=None)
@given(
    fields=st.fixed_dictionaries({
        "t": _mostly(st.floats(0.0, 10.0)),
        "kind": _mostly(st.sampled_from(RequestKind)),
        "content_id": _mostly(st.sampled_from(["a", "", None])),
        "size_bits": _mostly(st.one_of(st.none(), st.floats(0.0, 1e9))),
        "qos_min_bps": _mostly(st.one_of(st.none(), st.floats(1.0, 1e9))),
    }),
    objective_kind=_mostly(st.sampled_from(ObjectiveKind)),
    objective_as=st.sampled_from(["none", "built", "built", "raw"]),
)
# the edges of the last rules, on an otherwise good request
@example(fields=_fields(RequestKind.COMMUNICATION),
         objective_kind=ObjectiveKind.MIN_ENERGY_SUBJECT_TO_QOS, objective_as="built")
@example(fields=_fields(RequestKind.TASK_OFFLOADING, size_bits=0.0),
         objective_kind=ObjectiveKind.MAX_CAPACITY, objective_as="none")
@example(fields=_fields(RequestKind.COMMUNICATION, size_bits=-0.0, qos_min_bps=0.0),
         objective_kind=ObjectiveKind.MAX_CAPACITY, objective_as="none")
@example(fields=_fields(RequestKind.COMMUNICATION, qos_min_bps=5e-324),
         objective_kind=ObjectiveKind.MIN_ENERGY_SUBJECT_TO_QOS, objective_as="built")
def test_a_request_is_refused_exactly_when_the_reference_rules_refuse(
    fields, objective_kind, objective_as
):
    objective = objective_kind  # a bad kind stands in the field as itself
    refusal = ref.objective_refusal(objective_kind)
    if refusal is None:
        objective = Objective(objective_kind)
    else:
        with pytest.raises(ValueError) as caught:
            Objective(objective_kind)
        assert str(caught.value) == refusal
    fields["objective"] = {"none": None, "built": objective, "raw": objective_kind}[objective_as]
    refusal = ref.request_refusal(**fields)
    try:
        Request(**fields)
    except RequestError as err:
        assert str(err) == refusal
    else:
        assert refusal is None
