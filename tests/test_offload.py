import pytest
from hypothesis import given, strategies as st

from hapslink import (
    CloudConfig,
    ComputeTask,
    EngineContext,
    Mode,
    ModeConfigs,
    RadioParams,
    SmbsConfig,
    computation_latency,
    offload_latency,
    propagation_delay_s,
    transmission_latency,
)
from hapslink.offload import offload_path_m

from conftest import geom_at


def test_compute_task_validation():
    with pytest.raises(ValueError):
        ComputeTask(-1.0)
    with pytest.raises(ValueError):
        ComputeTask(1.0, cycles_per_bit=0)
    with pytest.raises(ValueError):
        CloudConfig(F_C=0)


def test_computation_latency_values():
    task = ComputeTask(1e6, 4.0)
    assert computation_latency(task, 4e9) == pytest.approx(1e-3, rel=1e-12)
    assert computation_latency(task, 2e9) == pytest.approx(2e-3, rel=1e-12)
    assert computation_latency(ComputeTask(0.0), 4e9) == 0.0
    with pytest.raises(ValueError):
        computation_latency(task, 0.0)


def test_transmission_latency_values():
    assert transmission_latency(1e6, 1e7) == pytest.approx(0.1, rel=1e-12)
    assert transmission_latency(0.0, 1e7) == 0.0
    assert transmission_latency(1e6, 5e6) == pytest.approx(
        2 * transmission_latency(1e6, 1e7), rel=1e-12
    )
    with pytest.raises(ValueError):
        transmission_latency(1e6, 0.0)


def test_propagation_latency_values():
    assert propagation_delay_s(20000.0) == pytest.approx(20000 / 2.998e8, rel=1e-12)
    assert propagation_delay_s(20000.0) == pytest.approx(66.7e-6, abs=1e-7)
    assert propagation_delay_s(0.0) == 0.0


def test_offload_paths_triangle(radio):
    # the direct access hop is always shorter than the relayed path
    for x in (1.0, 15000.0, 30000.0, 59999.0):
        geom = geom_at(x)
        assert offload_path_m(Mode.SMBS, geom) < offload_path_m(Mode.RS, geom)
        assert offload_path_m(Mode.RIS, geom) == offload_path_m(Mode.RS, geom)


def test_offload_zero_size_is_pure_propagation(radio, configs, cloud):
    geom = geom_at(30000.0)
    task = ComputeTask(0.0)
    for mode in Mode:
        got = offload_latency(mode, geom, radio, configs, task, cloud)
        assert got == pytest.approx(
            propagation_delay_s(offload_path_m(mode, geom)), rel=1e-12
        )
    smbs = offload_latency(Mode.SMBS, geom, radio, configs, task, cloud)
    assert smbs < offload_latency(Mode.RS, geom, radio, configs, task, cloud)
    assert smbs < offload_latency(Mode.RIS, geom, radio, configs, task, cloud)


@given(s=st.floats(min_value=1.0, max_value=1e8))
def test_offload_affine_in_size(s):
    # equal spacing in S gives equal spacing in latency
    radio = RadioParams()
    configs = ModeConfigs.defaults()
    cloud = CloudConfig()
    geom = geom_at(30000.0)
    for mode in Mode:
        l0 = offload_latency(mode, geom, radio, configs, ComputeTask(0.0), cloud)
        l1 = offload_latency(mode, geom, radio, configs, ComputeTask(s), cloud)
        l2 = offload_latency(mode, geom, radio, configs, ComputeTask(2 * s), cloud)
        assert (l2 - l1) - (l1 - l0) == pytest.approx(0.0, abs=1e-12 * max(l2, 1.0))


def test_offload_slope_matches_components(radio, corridor, configs, cloud):
    geom = geom_at(30000.0)
    s = 1e6
    for mode, rate in ((Mode.SMBS, configs.smbs.F_H), (Mode.RIS, cloud.F_C)):
        l0 = offload_latency(mode, geom, radio, configs, ComputeTask(0.0), cloud)
        l1 = offload_latency(mode, geom, radio, configs, ComputeTask(s), cloud)
        slope = (l1 - l0) / s
        capacity_bps = corridor.capacity_bps_hz(mode, geom.x, configs) * radio.B
        tx_slope = transmission_latency(1.0, capacity_bps)
        assert slope == pytest.approx(tx_slope + 4.0 / rate, rel=1e-12)


def test_offload_rs_slope_uses_the_engine_capacity(radio, configs, cloud):
    # offloading and the engine read the same relay capacity law
    ctx = EngineContext(geom=geom_at(30000.0), radio=radio, configs=configs, cloud=cloud)
    s = 1e6
    l0 = offload_latency(Mode.RS, ctx.geom, radio, configs, ComputeTask(0.0), cloud)
    task = ComputeTask(s, ctx.cycles_per_bit)
    l1 = offload_latency(Mode.RS, ctx.geom, radio, configs, task, cloud)
    expected = 1.0 / ctx.capacity_bps(Mode.RS) + ctx.cycles_per_bit / cloud.F_C
    assert (l1 - l0) / s == pytest.approx(expected, rel=1e-12)


def test_smbs_dominates_when_faster_everywhere(radio, corridor, cloud):
    # equal compute rates and a better channel: onboard wins at any size
    configs = ModeConfigs.defaults()
    fast = ModeConfigs(
        rs=configs.rs, ris=configs.ris,
        smbs=SmbsConfig(F_H=cloud.F_C, payload_power_W=3000.0),
    )
    geom = geom_at(60000.0)
    assert corridor.capacity_bps_hz(Mode.SMBS, geom.x, fast) * radio.B > (
        corridor.capacity_bps_hz(Mode.RIS, geom.x, fast) * radio.B
    )
    for s in (0.0, 1e4, 1e6, 1e9):
        task = ComputeTask(s)
        smbs = offload_latency(Mode.SMBS, geom, radio, fast, task, cloud)
        assert smbs <= offload_latency(Mode.RS, geom, radio, fast, task, cloud)
        assert smbs <= offload_latency(Mode.RIS, geom, radio, fast, task, cloud)


def test_latency_never_below_propagation(radio, configs, cloud):
    geom = geom_at(42000.0)
    for mode in Mode:
        floor = propagation_delay_s(offload_path_m(mode, geom))
        for s in (0.0, 123.0, 9e5):
            got = offload_latency(mode, geom, radio, configs, ComputeTask(s), cloud)
            assert got >= floor
