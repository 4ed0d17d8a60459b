import pytest
from hypothesis import given, strategies as st

from hapslink import (
    CacheState,
    CloudConfig,
    EngineContext,
    Mode,
    ModeConfigs,
    RadioParams,
    Request,
    RequestKind,
    SmbsConfig,
    propagation_delay_s,
    replay_trace,
    task_latencies,
)
from hapslink.offload import compute_rate
from conftest import geom_at


def offload(ctx, mode, size):
    """Latency of a task of size bits sent through mode: ctx's row for
    mode, summed by task_latencies."""
    _, capacity, _, path = ctx.row[mode]
    rate = compute_rate(mode, ctx.configs, ctx.cloud)
    (latency,) = task_latencies(path, capacity, (size,), ctx.cycles_per_bit, rate)
    return latency


def context(x, configs=None):
    return EngineContext(geom=geom_at(x), radio=RadioParams(),
                         configs=configs or ModeConfigs())


def test_compute_task_validation():
    # a task's size and cycles per bit are checked where latencies are summed
    with pytest.raises(ValueError, match="^size cannot be negative$"):
        task_latencies(1e5, 1e8, (-1.0,), 4.0, 2e9)
    with pytest.raises(ValueError, match="^cycles per bit must be positive$"):
        task_latencies(1e5, 1e8, (1.0,), 0, 2e9)
    with pytest.raises(ValueError):
        CloudConfig(F_C=0)


def test_propagation_latency_values():
    assert propagation_delay_s(20000.0) == pytest.approx(20000 / 2.998e8, rel=1e-12)
    assert propagation_delay_s(20000.0) == pytest.approx(66.7e-6, abs=1e-7)
    assert propagation_delay_s(0.0) == 0.0


def test_offload_paths_triangle(corridor, configs):
    # the direct access hop is always shorter than the relayed path
    for x in (1.0, 15000.0, 30000.0, 59999.0):
        (d1,), (d2,) = corridor.hop_lengths([x])
        path = {row[0]: row[3] for row in corridor.rows(x, configs)}
        assert path[Mode.SMBS] == d2
        assert path[Mode.RS] == d2 + d1
        assert path[Mode.SMBS] < path[Mode.RS]
        assert path[Mode.RIS] == path[Mode.RS]


def test_offload_zero_size_is_pure_propagation():
    ctx = context(30000.0)
    for mode in Mode:
        got = offload(ctx, mode, 0.0)
        assert got == pytest.approx(propagation_delay_s(ctx.row[mode][3]), rel=1e-12)
    smbs = offload(ctx, Mode.SMBS, 0.0)
    assert smbs < offload(ctx, Mode.RS, 0.0)
    assert smbs < offload(ctx, Mode.RIS, 0.0)


@given(s=st.floats(min_value=1.0, max_value=1e8))
def test_offload_affine_in_size(s):
    # equal spacing in S gives equal spacing in latency
    ctx = context(30000.0)
    for mode in Mode:
        l0 = offload(ctx, mode, 0.0)
        l1 = offload(ctx, mode, s)
        l2 = offload(ctx, mode, 2 * s)
        assert (l2 - l1) - (l1 - l0) == pytest.approx(0.0, abs=1e-12 * max(l2, 1.0))


def test_offload_slope_matches_components(configs, cloud):
    ctx = context(30000.0)
    s = 1e6
    for mode, rate in ((Mode.SMBS, configs.smbs.F_H), (Mode.RIS, cloud.F_C)):
        slope = (offload(ctx, mode, s) - offload(ctx, mode, 0.0)) / s
        capacity_bps = ctx.row[mode][1]
        assert slope == pytest.approx(1.0 / capacity_bps + 4.0 / rate, rel=1e-12)


def test_offload_rs_slope_uses_the_engine_capacity(cloud):
    # a task forced through the relay is priced at the relay row's capacity
    ctx = context(30000.0)
    s = 1e6

    def forced(size):
        req = Request(t=0.0, kind=RequestKind.TASK_OFFLOADING, size_bits=size)
        (decision,) = replay_trace([req], CacheState(), ctx, force_mode=Mode.RS).decisions
        return decision.latency_s

    expected = 1.0 / ctx.row[Mode.RS][1] + ctx.cycles_per_bit / cloud.F_C
    assert (forced(s) - forced(0.0)) / s == pytest.approx(expected, rel=1e-12)


def test_smbs_dominates_when_faster_everywhere(cloud):
    # equal compute rates and a better channel: onboard wins at any size
    configs = ModeConfigs()
    fast = ModeConfigs(
        rs=configs.rs, ris=configs.ris,
        smbs=SmbsConfig(F_H=cloud.F_C, payload_power_W=3000.0),
    )
    ctx = context(60000.0, fast)
    assert ctx.row[Mode.SMBS][1] > ctx.row[Mode.RIS][1]
    for s in (0.0, 1e4, 1e6, 1e9):
        smbs = offload(ctx, Mode.SMBS, s)
        assert smbs <= offload(ctx, Mode.RS, s)
        assert smbs <= offload(ctx, Mode.RIS, s)


def test_latency_never_below_propagation():
    ctx = context(42000.0)
    for mode in Mode:
        floor = propagation_delay_s(ctx.row[mode][3])
        for s in (0.0, 123.0, 9e5):
            assert offload(ctx, mode, s) >= floor
