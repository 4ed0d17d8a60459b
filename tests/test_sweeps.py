"""Sweep outputs pinned byte for byte, and the per-corridor link budget
checked for exact agreement with the link-budget formulas written out
in full."""

import math
import os
import time

import pytest
from hypothesis import given, strategies as st

from hapslink import (
    ConfigError,
    Mode,
    ModeConfigs,
    RadioParams,
    RisConfig,
    ScenarioGeometry,
    SweepResult,
    SweepSpec,
    db_to_linear,
    dry_air_specific_attenuation,
    energy_efficiency,
    fspl_dB,
    load_config,
    noise_power_dBm,
    propagation_delay_s,
    relay_capacity,
    relay_optimal_split,
    ris_placement_roots,
    slant_distance,
    sweep_capacity,
    sweep_ee,
    sweep_latency,
)
from hapslink.cli import EXIT_INVALID, main
from hapslink.config import MAX_GRID_POINTS
from hapslink.modes import Corridor
from hapslink.offload import task_latencies
from hapslink.propagation import SPEED_OF_LIGHT

DATA = os.path.join(os.path.dirname(__file__), "data")

# stderr notes of the three sweeps at the default config and grid
GOLDEN_NOTES = {
    "capacity": {
        "alpha05_max_degradation_pct": 12.673784460473247,
        "alpha05_degradation_at_stop_pct": 8.694916691760879,
        "ris_roots_m": (7639.320225002102, 52360.6797749979),
    },
    "ee": {
        "ris_N10000_ee_spread_pct": 7.830880236573701,
        "ris_N30000_ee_spread_pct": 4.217349682492855,
        "ris_N50000_ee_spread_pct": 3.3665298928655663,
    },
    "latency": {
        "smbs_FH1GHz_crossover_S_bits": 62033.97787598333,
        "smbs_FH2GHz_crossover_S_bits": 175899.8820141773,
        "smbs_FH3GHz_crossover_S_bits": 453171.4768792636,
    },
}

SWEEPS = {"capacity": sweep_capacity, "ee": sweep_ee, "latency": sweep_latency}


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_golden_sweep_output(name):
    result = SWEEPS[name](load_config(None))
    with open(os.path.join(DATA, f"golden_sweep_{name}.csv"), encoding="utf-8") as fh:
        assert result.to_csv() == fh.read()
    assert result.notes == GOLDEN_NOTES[name]


@pytest.mark.parametrize("step", [7000.0, 1e9, 10.0])
def test_degradation_at_stop_is_taken_at_the_stop(step):
    # 7000 m ends the grid at x = 56000 and 1e9 m at x = 0, short of D
    notes = sweep_capacity(load_config(None), step).notes
    assert notes["alpha05_degradation_at_stop_pct"] == (
        GOLDEN_NOTES["capacity"]["alpha05_degradation_at_stop_pct"]
    )


# ---------------------------------------------------------------
# Corridor: exactly the written-out link budget
# ---------------------------------------------------------------

def _reference_snr(d, tx_power, tx_gain, rx_gain, radio):
    # the per-hop budget written out in full, in its original order
    gamma0 = dry_air_specific_attenuation(radio.f, radio.pressure_Pa, radio.temperature_C)
    loss = fspl_dB(d, radio.f) + gamma0 * d / 1000.0 + radio.scintillation_dB
    snr_db = (
        tx_power + tx_gain + rx_gain - loss - noise_power_dBm(radio.B, radio.noise_figure)
    )
    return 10.0 ** (snr_db / 10.0)


def _reference_ris_snr(geom, radio, ris):
    lam = SPEED_OF_LIGHT / radio.f
    p_w = db_to_linear(radio.P0_max - 30.0)
    noise_w = db_to_linear(noise_power_dBm(radio.B, radio.noise_figure) - 30.0)
    d1, d2 = geom.d_gateway, geom.d_gnb
    snr = (
        p_w
        * db_to_linear(radio.G0_max)
        * db_to_linear(radio.G_gNB)
        * (ris.N * ris.beta) ** 2
        * (lam / (4.0 * math.pi)) ** 4
        / (d1 * d1 * d2 * d2 * noise_w)
    )
    gamma0 = dry_air_specific_attenuation(radio.f, radio.pressure_Pa, radio.temperature_C)
    root = ris_placement_roots(geom.D, geom.H)[0]
    path = slant_distance(root, geom.H) + slant_distance(geom.D - root, geom.H)
    return snr / db_to_linear(gamma0 * path / 1000.0 + 2.0 * radio.scintillation_dB)


SURFACES = (RisConfig(N=10000), RisConfig(N=50000), RisConfig(N=777, beta=0.3))


def _assert_corridor_exact(D, H, radio, x):
    configs = ModeConfigs.defaults()
    corridor = Corridor(D, H, radio)
    geom = ScenarioGeometry(D=D, H=H, x=x)

    snrs = corridor.rs_hop_snrs(x)
    assert snrs == (
        _reference_snr(geom.d_gateway, radio.P0_max, radio.G0_max, radio.G_RS, radio),
        _reference_snr(geom.d_gnb, radio.P0_max, radio.G_RS, radio.G_gNB, radio),
    )
    access = _reference_snr(geom.d_gnb, radio.P_gNB, radio.G_gNB, radio.G_H_rx, radio)
    assert corridor.smbs_capacity(x) == math.log2(1.0 + access)
    for ris in SURFACES:
        assert corridor.ris_snr(x, ris) == _reference_ris_snr(geom, radio, ris)
    # the per-mode dispatch that selection, the engine and offloading read
    assert corridor.capacity_bps_hz(Mode.RS, x, configs) == relay_optimal_split(*snrs)[1]
    assert corridor.capacity_bps_hz(Mode.SMBS, x, configs) == math.log2(1.0 + access)
    assert corridor.capacity_bps_hz(Mode.RIS, x, configs) == math.log2(
        1.0 + _reference_ris_snr(geom, radio, configs.ris)
    )


def _assert_columns_exact(D, H, radio, xs):
    # the column forms over a whole list of offsets, against the same
    # written-out budget point by point
    snr1s, snr2s, ris_cols = Corridor(D, H, radio).columns(xs, SURFACES)
    geoms = [ScenarioGeometry(D=D, H=H, x=x) for x in xs]
    assert snr1s == [
        _reference_snr(g.d_gateway, radio.P0_max, radio.G0_max, radio.G_RS, radio)
        for g in geoms
    ]
    assert snr2s == [
        _reference_snr(g.d_gnb, radio.P0_max, radio.G_RS, radio.G_gNB, radio)
        for g in geoms
    ]
    assert ris_cols == [
        [math.log2(1.0 + _reference_ris_snr(g, radio, ris)) for g in geoms]
        for ris in SURFACES
    ]


# (D, H, f); the last two have H >= D/2, where the surface roots
# collapse to the midpoint D/2
CORRIDORS = (
    (60000.0, 20000.0, 2e9),
    (150000.0, 16500.0, 28e9),
    (20000.0, 8000.0, 1e9),
    (30000.0, 15000.0, 50e9),
    (10000.0, 20000.0, 3.5e9),
)

# powers and gains whose sums and products round differently under a
# different association, so a reordered constant prefix shows
ODD_GAINS = dict(
    P0_max=33.4, G0_max=46.2, G_RS=37.3, G_gNB=47.2, P_gNB=36.1, G_H_rx=2.9,
    noise_figure=6.7, scintillation_dB=0.3, B=3.3e7,
)


@pytest.mark.parametrize("D,H,f", CORRIDORS)
def test_corridor_matches_per_point_path_on_grid(D, H, f):
    xs = [D * i / 16 for i in range(17)] + list(ris_placement_roots(D, H))
    for radio in (RadioParams(f=f), RadioParams(f=f, **ODD_GAINS)):
        for x in xs:
            _assert_corridor_exact(D, H, radio, x)
        _assert_columns_exact(D, H, radio, xs)


_dB = st.floats(min_value=-20.0, max_value=60.0)


@given(
    D=st.floats(min_value=1e3, max_value=3e5),
    H=st.floats(min_value=1e3, max_value=5e4),
    fracs=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6),
    radio=st.builds(
        RadioParams,
        f=st.floats(min_value=1e9, max_value=50e9),
        B=st.floats(min_value=1e5, max_value=1e9),
        noise_figure=st.floats(min_value=0.0, max_value=15.0),
        P_gNB=_dB, G_gNB=_dB, P0_max=_dB, G0_max=_dB, G_RS=_dB, G_H_rx=_dB,
        scintillation_dB=st.floats(min_value=0.0, max_value=3.0),
    ),
)
def test_corridor_matches_per_point_path(D, H, fracs, radio):
    xs = [min(D, frac * D) for frac in fracs]
    for x in xs:
        _assert_corridor_exact(D, H, radio, x)
    _assert_columns_exact(D, H, radio, xs)


def test_corridor_rejects_offsets_outside_it():
    corridor = Corridor(60000.0, 20000.0, RadioParams())
    configs = ModeConfigs.defaults()
    for x in (-1.0, 60000.5):
        with pytest.raises(ValueError, match="outside the corridor"):
            corridor.rs_hop_snrs(x)
        with pytest.raises(ValueError, match="outside the corridor"):
            corridor.ris_capacity(x, configs.ris)
        with pytest.raises(ValueError, match="outside the corridor"):
            corridor.smbs_capacity(x)
        for mode in Mode:
            with pytest.raises(ValueError, match="outside the corridor"):
                corridor.capacity_bps_hz(mode, x, configs)
    # one offset outside [0, D] refuses the whole column
    for xs in ([0.0, 30000.0, -1.0], [60000.5, 0.0], [30000.0, 60000.5, 1.0],
               [0.0, math.nan, 1.0]):
        with pytest.raises(ValueError, match="outside the corridor"):
            corridor.columns(xs, (configs.ris,))
    # as does one negative task size among the latency column's sizes
    with pytest.raises(ValueError, match="size cannot be negative"):
        task_latencies(1e5, 1e8, [0.0, 1e6, -1.0], 4.0, 2e9)
    with pytest.raises(ValueError, match="D must be positive"):
        Corridor(0.0, 20000.0, RadioParams())
    with pytest.raises(ValueError, match="H must be positive"):
        Corridor(60000.0, 0.0, RadioParams())


# ---------------------------------------------------------------
# sweeps: the column forms against the scalar laws, point by point
# ---------------------------------------------------------------

@pytest.mark.parametrize("D", [60000.0, 150000.0])
def test_sweeps_match_rows_rebuilt_per_point(tmp_path, D):
    config = tmp_path / "corridor.ini"
    config.write_text(f"[geometry]\nD = {D!r}\n")
    cfg = load_config(str(config))
    corridor = Corridor(cfg.geom.D, cfg.geom.H, cfg.radio)
    surfaces = [RisConfig(N=n) for n in cfg.ris_N_list]
    B = cfg.radio.B

    capacity, ee = [], []
    for x in cfg.sweep_for("x", 10.0).grid():
        snr1, snr2 = corridor.rs_hop_snrs(x)
        alpha, cap_opt = relay_optimal_split(snr1, snr2)
        cap05 = relay_capacity(snr1, snr2, 0.5)
        ris_caps = [corridor.ris_capacity(x, ris) for ris in surfaces]
        capacity.append((x, cap05, cap_opt, alpha, *ris_caps))
        ee.append((
            x,
            energy_efficiency(cap05 * B, cfg.rs.payload_power_W),
            energy_efficiency(cap_opt * B, cfg.rs.payload_power_W),
            *(
                energy_efficiency(c * B, ris.N * ris.per_element_power_W)
                for c, ris in zip(ris_caps, surfaces)
            ),
        ))
    assert sweep_capacity(cfg, 10.0).rows == tuple(capacity)
    assert sweep_ee(cfg, 10.0).rows == tuple(ee)

    legs = []
    for mode, rate in (
        *((Mode.SMBS, fh) for fh in cfg.smbs_F_H_list),
        (Mode.RS, cfg.cloud.F_C),
        (Mode.RIS, cfg.cloud.F_C),
    ):
        x = corridor.best_offset(mode)
        cap = corridor.capacity_bps_hz(mode, x, cfg.configs) * B
        legs.append((corridor.path_m(mode, x), cap, rate))
    # the latency terms summed one by one, in their original order
    latency = [
        (s, *(
            propagation_delay_s(p) + s / c + s * cfg.cycles_per_bit / rate
            for p, c, rate in legs
        ))
        for s in cfg.sweep_for("S", 1000.0).grid()
    ]
    assert sweep_latency(cfg, 1000.0).rows == tuple(latency)


# ---------------------------------------------------------------
# grid size
# ---------------------------------------------------------------

def test_grid_cap_refuses_before_building():
    with pytest.raises(ConfigError, match=r"step = 1e-06 gives 6e\+10 grid points"):
        SweepSpec("x", 0.0, 60000.0, 1e-6)
    # a grid of exactly the cap is allowed, one more point is not
    SweepSpec("S", 0.0, float(MAX_GRID_POINTS - 1), 1.0)
    with pytest.raises(ConfigError, match="1e\\+06 grid points"):
        SweepSpec("S", 0.0, float(MAX_GRID_POINTS), 1.0)
    with pytest.raises(ConfigError, match="grid points"):
        SweepSpec("x", 0.0, 60000.0, 1e-320)  # the count overflows to inf
    with pytest.raises(ConfigError, match=r"^\[sweep\] step must be finite, got nan$"):
        SweepSpec("S", 0.0, 1.0, float("nan"))


@pytest.mark.parametrize("command", ["sweep-capacity", "sweep-latency"])
def test_cli_infinite_grid_step_exits_1(tmp_path, capsys, command):
    out = tmp_path / "sweep.csv"
    assert main([command, "--grid", "inf", "--out", str(out)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err == "error: [sweep] step must be finite, got inf\n"
    assert not out.exists()


def test_cli_grid_over_the_cap_exits_1(capsys):
    start = time.perf_counter()
    assert main(["sweep-capacity", "--grid", "1e-6"]) == EXIT_INVALID
    assert time.perf_counter() - start < 1.0
    assert "error: [sweep] step = 1e-06 gives 6e+10 grid points" in capsys.readouterr().err


# ---------------------------------------------------------------
# finiteness
# ---------------------------------------------------------------

def test_sweep_result_refuses_non_finite_cells():
    SweepResult(("S_bits", "rs_s"), ((0.0, 1.0), (1.0, 2.0)))
    with pytest.raises(ValueError, match=r"\[sweep\] rs_s overflows to inf at S_bits = 2"):
        SweepResult(("S_bits", "rs_s"), ((0.0, 1.0), (2.0, math.inf)))
    with pytest.raises(ValueError, match="ris_s overflows to nan"):
        SweepResult(("x_m", "ris_s"), ((0.0, math.nan),))
    # finite cells whose sum overflows are still finite cells
    SweepResult(("x_m", "rs_s"), ((1e308, 1e308),))
    # the first non-finite cell in row order, then column order: (1, 2), not (2, 1)
    with pytest.raises(ValueError, match=r"^\[sweep\] ris_s overflows to inf at x_m = 1$"):
        SweepResult(
            ("x_m", "rs_s", "ris_s"),
            ((0.0, 1.0, 1.0), (1.0, 1.0, math.inf), (2.0, math.nan, 1.0)),
        )


def test_cli_sweep_overflow_exits_1(tmp_path, capsys):
    # finite task sizes whose computation time overflows
    config = tmp_path / "huge_tasks.toml"
    config.write_text(
        "[sweep]\nvariable = S\nstart = 0\nstop = 1.7e308\nstep = 1e307\n"
    )
    out = tmp_path / "latency.csv"
    code = main(["sweep-latency", "--config", str(config), "--out", str(out)])
    assert code == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: [sweep] smbs_FH1GHz_s overflows to inf at S_bits = 5e+307")
    assert not out.exists()


# ---------------------------------------------------------------
# column names
# ---------------------------------------------------------------

def test_sweep_result_refuses_a_repeated_column_name():
    with pytest.raises(ValueError, match=r"^\[sweep\] two columns are named rs_s$"):
        SweepResult(("x_m", "rs_s", "ris_s", "rs_s"), ((0.0, 1.0, 1.0, 1.0),))


@pytest.mark.parametrize("command, text, column", [
    # two compute rates that print alike, one crossover note hiding the other
    ("sweep-latency", "[smbs]\nF_H_list = 1e9, 1.0000001e9\n", "smbs_FH1GHz_s"),
    ("sweep-capacity", "[ris]\nN_list = 10000, 10000\n", "ris_N10000_bps_hz"),
    ("sweep-ee", "[ris]\nN_list = 10000, 10000\n", "ee_ris_N10000_bits_per_J"),
], ids=["sweep-latency", "sweep-capacity", "sweep-ee"])
def test_cli_sweep_with_two_columns_of_one_name_exits_1(tmp_path, capsys, command,
                                                         text, column):
    config = tmp_path / "twins.ini"
    config.write_text(text)
    out = tmp_path / "sweep.csv"
    assert main([command, "--config", str(config), "--out", str(out)]) == EXIT_INVALID
    assert capsys.readouterr().err == f"error: [sweep] two columns are named {column}\n"
    assert not out.exists()
