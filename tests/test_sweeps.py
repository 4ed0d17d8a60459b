"""Sweep outputs pinned byte for byte, in one process and in two halves,
and the per-corridor link budget and the sweeps' cells checked for exact
agreement with the link-budget laws of reference_model, written out in
full."""

import contextlib
import math
import os
import re
import threading
import time
import warnings
from array import array
from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

from hapslink import (
    ConfigError,
    Mode,
    ModeConfigs,
    RadioParams,
    RisConfig,
    ScenarioConfig,
    ScenarioGeometry,
    SweepResult,
    SweepSpec,
    load_config,
    propagation_delay_s,
    ris_placement_roots,
    sweep_capacity,
    sweep_ee,
    sweep_latency,
)
import hapslink.engine as engine_module
import hapslink.sweeps as sweeps_module
from hapslink.cli import EXIT_INVALID, main
from hapslink.config import MAX_GRID_POINTS
from hapslink.modes import Corridor
from hapslink.offload import task_latencies

import reference_model as ref
from conftest import _in_the_child, sends_half_a_frame_then_exits

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

# split thresholds: every grid in one process, or every grid of two or
# more points in two halves
ONE_PROCESS, TWO_HALVES = MAX_GRID_POINTS + 1, 2


@contextlib.contextmanager
def split_at(points, trace_bytes=engine_module.SPLIT_MIN_BYTES):
    """Sweeps split grids of at least points points, and replays traces of
    at least trace_bytes bytes, as on a machine with two usable CPUs;
    yields the list of the children forked meanwhile."""
    forks = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sweeps_module, "SPLIT_MIN_POINTS", points)
        patch.setattr(engine_module, "SPLIT_MIN_BYTES", trace_bytes)
        patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        patch.setattr(os, "fork", counted_fork)
        yield forks


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_golden_sweep_output(name):
    with open(os.path.join(DATA, f"golden_sweep_{name}.csv"), encoding="utf-8") as fh:
        golden = fh.read()
    for points in (ONE_PROCESS, TWO_HALVES):
        with split_at(points) as forks:
            result = SWEEPS[name](load_config(None))
        assert len(forks) == (points == TWO_HALVES)
        assert result.to_csv() == golden
        assert result.notes == GOLDEN_NOTES[name]


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_each_sweep_builds_one_corridor(monkeypatch, name):
    built = []

    def counted(*args):
        built.append(args)
        return Corridor(*args)

    monkeypatch.setattr("hapslink.sweeps.Corridor", counted)
    SWEEPS[name](load_config(None), step=7000.0)
    assert len(built) == 1


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

SURFACES = (RisConfig(N=10000), RisConfig(N=50000), RisConfig(N=777, beta=0.3))


def _assert_corridor_exact(D, H, radio, x):
    # the rows that selection, the engine and offloading read, and the
    # bare surface SNR
    corridor = Corridor(D, H, radio)
    configs = ModeConfigs()
    assert corridor.rows(x, configs) == ref.rows(D, H, x, radio, configs)
    for ris in SURFACES:
        assert corridor.ris_snr(x, ris) == ref.ris_snr(D, H, x, radio, ris)


def _assert_columns_exact(D, H, radio, xs):
    # the column forms over a whole list of offsets, against the same
    # written-out budget point by point
    snr1s, snr2s, ris_cols = Corridor(D, H, radio).columns(xs, SURFACES)
    assert list(zip(snr1s, snr2s)) == [ref.relay_hop_snrs(D, H, x, radio) for x in xs]
    assert ris_cols == [
        [math.log2(1.0 + ref.ris_snr(D, H, x, radio, ris)) for x in xs]
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
    configs = ModeConfigs()
    for x in (-1.0, 60000.5):
        with pytest.raises(ValueError, match="outside the corridor"):
            corridor.columns((x,))
        with pytest.raises(ValueError, match="outside the corridor"):
            corridor.ris_snr(x, configs.ris)
        with pytest.raises(ValueError, match="outside the corridor"):
            corridor.rows(x, configs)
    # one offset outside [0, D] refuses the whole column
    for xs in ([0.0, 30000.0, -1.0], [60000.5, 0.0], [30000.0, 60000.5, 1.0],
               [0.0, math.nan, 1.0]):
        with pytest.raises(ValueError, match="outside the corridor"):
            corridor.columns(xs, (configs.ris,))
    # as does one negative task size among the latency column's sizes
    with pytest.raises(ValueError, match="size cannot be negative"):
        task_latencies(1e5, 1e8, [0.0, 1e6, -1.0], 4.0, 2e9)
    with pytest.raises(ValueError, match=r"^D = 0\.0 is outside \[1, 1e\+06\]$"):
        Corridor(0.0, 20000.0, RadioParams())
    with pytest.raises(ValueError, match=r"^H = 0\.0 is outside \[1, 1e\+06\]$"):
        Corridor(60000.0, 0.0, RadioParams())


@pytest.mark.parametrize("name", ["D", "H"])
@pytest.mark.parametrize("value, message", [
    (math.nan, "must be finite, got nan"),
    (math.inf, "must be finite, got inf"),
    (-math.inf, "must be finite, got -inf"),
    (True, "must be a number, got True"),
    ("1", "must be a number, got '1'"),
], ids=["nan", "inf", "-inf", "True", "text"])
def test_corridor_refuses_a_non_number_D_or_H(name, value, message):
    # refused by name before the sign checks, so a nan cannot slip past
    # `<= 0` and an inf is not blamed on a [radio] input
    D, H = (value, 20000.0) if name == "D" else (60000.0, value)
    with pytest.raises(ValueError, match=f"^{name} {re.escape(message)}$"):
        Corridor(D, H, RadioParams())
    with pytest.raises(ValueError, match=f"^{name} {re.escape(message)}$"):
        ris_placement_roots(D, H)


# ---------------------------------------------------------------
# sweeps: the column forms against the oracle's laws, point by point
# ---------------------------------------------------------------

@pytest.mark.parametrize("D", [60000.0, 150000.0])
def test_sweeps_match_rows_rebuilt_per_point(tmp_path, D):
    config = tmp_path / "corridor.ini"
    config.write_text(f"[geometry]\nD = {D!r}\n")
    cfg = load_config(str(config))
    H, radio = cfg.geom.H, cfg.radio
    surfaces = [RisConfig(N=n) for n in cfg.ris_N_list]
    B = radio.B

    capacity, ee = [], []
    for x in cfg.sweep_for("x", 10.0).grid():
        snr1, snr2 = ref.relay_hop_snrs(D, H, x, radio)
        alpha, cap_opt = ref.relay_best_split(snr1, snr2)
        cap05 = ref.relay_fixed_split(snr1, snr2, 0.5)
        ris_caps = [math.log2(1.0 + ref.ris_snr(D, H, x, radio, ris)) for ris in surfaces]
        capacity.append((x, cap05, cap_opt, alpha, *ris_caps))
        ee.append((
            x,
            cap05 * B / cfg.rs.payload_power_W,
            cap_opt * B / cfg.rs.payload_power_W,
            *(
                c * B / (ris.N * ris.per_element_power_W)
                for c, ris in zip(ris_caps, surfaces)
            ),
        ))
    assert sweep_capacity(cfg, 10.0).rows == tuple(capacity)
    assert sweep_ee(cfg, 10.0).rows == tuple(ee)

    # each payload's oracle row at the offset where the sweep puts it
    corridor = Corridor(D, H, radio)
    legs = []
    for mode, rate in (
        *((Mode.SMBS, fh) for fh in cfg.smbs_F_H_list),
        (Mode.RS, cfg.cloud.F_C),
        (Mode.RIS, cfg.cloud.F_C),
    ):
        rows = ref.rows(D, H, corridor.best_offset(mode), radio, cfg.configs)
        _, cap, _, path = next(row for row in rows if row[0] is mode)
        legs.append((path, cap, rate))
    # the latency terms summed one by one, in their original order
    latency = [
        (s, *(
            propagation_delay_s(p) + s / c + s * cfg.cycles_per_bit / rate
            for p, c, rate in legs
        ))
        for s in cfg.sweep_for("S", 1000.0).grid()
    ]
    assert sweep_latency(cfg, 1000.0).rows == tuple(latency)


@settings(max_examples=40, deadline=None)
@given(
    D=st.floats(2000.0, 2e5),
    H=st.floats(1000.0, 5e4),
    x_points=st.floats(2.0, 300.0),
    s_step=st.floats(2e4, 2e6),
)
@example(D=60000.0, H=20000.0, x_points=120.0, s_step=5e4)  # the defaults
@example(D=60000.0, H=30000.0, x_points=7.0, s_step=5e4)  # H = D/2: one root
def test_sweep_notes_are_the_reference_notes(D, H, x_points, s_step):
    # every note is computed from the oracle's own columns, in the same
    # order of operations, so each must agree exactly
    cfg = ScenarioConfig(geom=ScenarioGeometry(D, H, D / 2.0))
    radio, x_step = cfg.radio, D / x_points
    xs = cfg.sweep_for("x", x_step).grid()
    notes = sweep_capacity(cfg, x_step).notes
    assert notes == {
        "alpha05_max_degradation_pct": max(ref.degradation_pct(D, H, x, radio) for x in xs),
        "alpha05_degradation_at_stop_pct": ref.degradation_pct(D, H, D, radio),
        "ris_roots_m": ref.placement_roots(D, H),
    }
    assert sweep_ee(cfg, x_step).notes == {
        f"ris_N{n}_ee_spread_pct": ref.ee_spread_pct(D, H, xs, radio, RisConfig(N=n))
        for n in cfg.ris_N_list
    }

    # the base station above the gNB, the surface at its first root; the
    # relay's crest is Corridor.best_offset's (a search, not a note)
    offsets = {Mode.SMBS: D, Mode.RIS: ref.placement_roots(D, H)[0],
               Mode.RS: Corridor(D, H, radio).best_offset(Mode.RS)}
    rows = {mode: next(r for r in ref.rows(D, H, x, radio, cfg.configs) if r[0] is mode)
            for mode, x in offsets.items()}
    sizes = cfg.sweep_for("S", s_step).grid()

    def latencies(mode, rate):
        _, capacity, _, path = rows[mode]
        return [path / ref.SPEED_OF_LIGHT + s / capacity + s * cfg.cycles_per_bit / rate
                for s in sizes]

    relayed = list(zip(latencies(Mode.RS, cfg.cloud.F_C), latencies(Mode.RIS, cfg.cloud.F_C)))
    assert sweep_latency(cfg, s_step).notes == {
        f"smbs_FH{fh / 1e9:g}GHz_crossover_S_bits":
            ref.crossover(sizes, latencies(Mode.SMBS, fh), relayed)
        for fh in cfg.smbs_F_H_list
    }


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

def _columns(*rows):
    """SweepResult columns of rows given row by row."""
    return tuple(zip(*rows))


def test_sweep_result_refuses_non_finite_cells():
    SweepResult(("S_bits", "rs_s"), _columns((0.0, 1.0), (1.0, 2.0)))
    with pytest.raises(ValueError, match=r"\[sweep\] rs_s overflows to inf at S_bits = 2"):
        SweepResult(("S_bits", "rs_s"), _columns((0.0, 1.0), (2.0, math.inf)))
    with pytest.raises(ValueError, match="ris_s overflows to nan"):
        SweepResult(("x_m", "ris_s"), _columns((0.0, math.nan)))
    # finite cells whose sum overflows are still finite cells: across a
    # row, and down a column, where each column's sum is taken
    SweepResult(("x_m", "rs_s"), _columns((1e308, 1e308)))
    SweepResult(("x_m", "rs_s"), _columns((1e308, 1e308), (1e308, 1e308)))
    # the first non-finite cell in row order, then column order: (1, 2), not (2, 1)
    with pytest.raises(ValueError, match=r"^\[sweep\] ris_s overflows to inf at x_m = 1$"):
        SweepResult(
            ("x_m", "rs_s", "ris_s"),
            _columns((0.0, 1.0, 1.0), (1.0, 1.0, math.inf), (2.0, math.nan, 1.0)),
        )
    # in the last row, behind rows whose cells are finite
    with pytest.raises(ValueError, match=r"^\[sweep\] rs_s overflows to nan at x_m = 2$"):
        SweepResult(("x_m", "rs_s"), _columns((0.0, 1.0), (1.0, 1.0), (2.0, math.nan)))


def test_sweep_result_refuses_a_table_unlike_its_header():
    # two columns under one name, a column short of the first, a header
    # with no name: none is rendered or read a row short
    with pytest.raises(ValueError, match=r"^\[sweep\] header names: 1, columns: 2$"):
        SweepResult(("x_m",), ((0.0, 1.0), (5.0, 6.0)))
    with pytest.raises(ValueError, match=r"^\[sweep\] header names: 2, columns: 1$"):
        SweepResult(("x_m", "rs_s"), ((0.0, 1.0),))
    with pytest.raises(ValueError, match=r"^\[sweep\] header names: 0, columns: 0$"):
        SweepResult((), ())
    with pytest.raises(ValueError, match=r"^\[sweep\] cells in column ris_s: 1, in x_m: 2$"):
        SweepResult(("x_m", "rs_s", "ris_s"), ((0.0, 1.0), (5.0, 6.0), (5.0,)))
    with pytest.raises(ValueError, match=r"^\[sweep\] cells in column rs_s: 3, in x_m: 2$"):
        SweepResult(("x_m", "rs_s"), ((0.0, 1.0), (5.0, 6.0, 7.0)))
    # a table of no row is still a table
    assert SweepResult(("x_m", "rs_s"), ((), ())).to_csv() == "x_m,rs_s\n"


def test_cli_sweep_overflow_exits_1(tmp_path, capsys):
    # finite task sizes whose computation time overflows
    config = tmp_path / "huge_tasks.toml"
    config.write_text(
        "[sweep]\nvariable = S\nstart = 0\nstop = 1.7e308\nstep = 1e307\n"
    )
    out = tmp_path / "latency.csv"
    for points in (ONE_PROCESS, TWO_HALVES):  # 18 grid points
        with split_at(points):
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
        SweepResult(("x_m", "rs_s", "ris_s", "rs_s"), _columns((0.0, 1.0, 1.0, 1.0)))


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
    for points in (ONE_PROCESS, TWO_HALVES):
        with split_at(points):
            assert main([command, "--config", str(config), "--out", str(out)]) == EXIT_INVALID
        assert capsys.readouterr().err == f"error: [sweep] two columns are named {column}\n"
        assert not out.exists()


# ---------------------------------------------------------------
# two halves: the forked path against one process
# ---------------------------------------------------------------

def _outcome(sweep, cfg, step):
    """What one sweep call gives: the result itself, each of its columns,
    its rows, notes and CSV, or its refusal. The CSV is that of the
    columns alone."""
    try:
        result = sweep(cfg, step)
    except ValueError as err:
        return type(err), str(err)
    csv = result.to_csv()
    assert SweepResult(result.header, result.columns).to_csv() == csv
    columns = [result.column(name) for name in result.header]
    return result, columns, result.rows, result.notes, csv


@settings(max_examples=30, deadline=None)
@given(
    D=st.floats(2000.0, 2e5),
    H=st.floats(1000.0, 5e4),
    points=st.integers(2, 300),
    N_list=st.lists(st.integers(1, 10**7), min_size=1, max_size=4),
    F_H_list=st.lists(st.floats(1e6, 1e11), min_size=1, max_size=4),
)
@example(D=60000.0, H=20000.0, points=121, N_list=[10000, 30000, 50000],
         F_H_list=[1e9, 2e9, 3e9])  # the defaults
def test_two_halves_give_the_one_process_result(D, H, points, N_list, F_H_list):
    # a repeated N or two F_H that print alike are refused; a large
    # corridor and a small surface are refused for their EE spread
    cfg = ScenarioConfig(geom=ScenarioGeometry(D, H, D / 2.0), ris_N_list=tuple(N_list),
                         smbs_F_H_list=tuple(F_H_list))
    for sweep, span in ((sweep_capacity, D), (sweep_ee, D), (sweep_latency, 5e6)):
        step = span / (points - 1)
        with split_at(ONE_PROCESS) as forks:
            one = _outcome(sweep, cfg, step)
        assert forks == []
        with split_at(TWO_HALVES) as forks:
            assert _outcome(sweep, cfg, step) == one
        assert len(forks) == 1


def _refusing(xs):
    """_placement_columns, but refusing a chunk that holds any of the
    offsets xs, by the last such offset, so that a half can refuse in
    words other than the whole grid's."""
    columns = sweeps_module._placement_columns

    def refusing(corridor, cfg, chunk):
        bad = [x for x in chunk if x in xs]
        if bad:
            raise ValueError(f"refused at x = {bad[-1]}")
        return columns(corridor, cfg, chunk)

    return refusing


def _refuse_at(*xs):
    return lambda patch: patch.setattr(sweeps_module, "_placement_columns", _refusing(xs))


# the default placement grid, 0, 500, ..., 60000: 121 offsets, the first
# 60 the parent's half and the last 61 the child's. Each failure, and the
# offset its one-process refusal names, or None for the golden table
FAILURES = {
    "parent_refuses": (_refuse_at(500.0), 500.0),
    "child_refuses": (_refuse_at(59500.0), 59500.0),
    "both_refuse": (_refuse_at(500.0, 59500.0), 59500.0),
    "child_exits_3": (lambda patch: _in_the_child(
        patch, sweeps_module, "_placement_columns", lambda original, *args: os._exit(3)),
        None),
    # all the columns and part of the text sent: only the exit status tells
    "child_sends_part_then_exits_4": (lambda patch: (
        _in_the_child(patch, sweeps_module, "_render",
                      lambda original, *args: original(*args)[:-20]),
        _in_the_child(patch, os, "_exit", lambda original, code: original(4)),
    ), None),
    # half its frame, then the end mark and exit status 0: only the frame's
    # length tells
    "child_sends_half_a_frame_then_exits_0": (sends_half_a_frame_then_exits(0), None),
}


@pytest.mark.parametrize("failure", sorted(FAILURES))
@pytest.mark.parametrize("name", ["capacity", "ee"])
def test_a_failed_half_gives_the_one_process_outcome(monkeypatch, name, failure):
    install, refused_at = FAILURES[failure]
    install(monkeypatch)
    cfg = load_config(None)
    with split_at(ONE_PROCESS):
        one = _outcome(SWEEPS[name], cfg, None)
    fds = sorted(os.listdir("/proc/self/fd"))
    with split_at(TWO_HALVES) as forks:
        assert _outcome(SWEEPS[name], cfg, None) == one
    assert len(forks) == 1
    if refused_at is not None:
        assert one == (ValueError, f"refused at x = {refused_at}")
    else:
        with open(os.path.join(DATA, f"golden_sweep_{name}.csv"), encoding="utf-8") as fh:
            assert one[-1] == fh.read()
    # the child is reaped and the pipe closed
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert sorted(os.listdir("/proc/self/fd")) == fds


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_a_fork_that_fails_is_a_half_that_sent_nothing(monkeypatch, name):
    # the whole grid is then computed here, and the pipe is closed again
    cfg = load_config(None)
    with split_at(ONE_PROCESS):
        one = _outcome(SWEEPS[name], cfg, None)

    def no_fork():
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    fds = sorted(os.listdir("/proc/self/fd"))
    with split_at(TWO_HALVES) as forks:
        assert _outcome(SWEEPS[name], cfg, None) == one
    assert forks == []
    assert sorted(os.listdir("/proc/self/fd")) == fds


@pytest.mark.parametrize("name, step", [("capacity", 10.0), ("ee", 10.0),
                                        ("latency", 1000.0)])
def test_a_split_sweep_computes_only_its_first_half_here(monkeypatch, name, step):
    # a grid above the threshold, beside a healthy child: this process
    # computes no cell of the second half, not even after the child ends
    parent, chunks = os.getpid(), []

    def counted(original, *args):
        if os.getpid() == parent:
            chunks.append(len(args[2]))  # the grid chunk, third in either call
        return original(*args)

    for attr in ("_placement_columns", "task_latencies"):
        monkeypatch.setattr(sweeps_module, attr, partial(counted, getattr(sweeps_module, attr)))
    with split_at(sweeps_module.SPLIT_MIN_POINTS) as forks:
        result = SWEEPS[name](load_config(None), step)
    points = len(result.column(result.header[0]))
    assert points >= sweeps_module.SPLIT_MIN_POINTS and len(forks) == 1
    assert max(chunks) == points // 2
    # each column is one array of every point, the child's half after this one's
    assert {(type(col), col.typecode, len(col)) for col in result.columns} == {
        (array, "d", points)}


def _cli_run(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    code = main([*argv, "--out", str(out)])
    return code, out.read_bytes(), capsys.readouterr().err


@pytest.mark.parametrize("guard", ["thread", "one_cpu"])
def test_no_fork_beside_a_thread_or_on_one_cpu(tmp_path, capsys, guard):
    # each call is above its own threshold: 6,001 grid points, and a trace
    # of more than SPLIT_MIN_BYTES bytes
    trace = tmp_path / "t.trace"
    trace.write_text("".join(f"{i},content_delivery,c{i % 40},1e6,,\n" for i in range(12000)))
    assert trace.stat().st_size >= engine_module.SPLIT_MIN_BYTES
    threshold = sweeps_module.SPLIT_MIN_POINTS
    for argv in (["sweep-capacity", "--grid", "10"], ["replay", str(trace)]):
        with split_at(ONE_PROCESS, math.inf):
            one = _cli_run(tmp_path, capsys, argv)
        with split_at(threshold) as forks:
            assert _cli_run(tmp_path, capsys, argv) == one
        assert len(forks) == 1  # so the guard alone keeps the call below in one process

        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        try:
            with split_at(threshold) as forks, pytest.MonkeyPatch.context() as patch, \
                    warnings.catch_warnings():
                warnings.simplefilter("error")  # Python 3.12+ warns on a fork beside a thread
                if guard == "thread":
                    thread.start()
                else:
                    patch.setattr(os, "sched_getaffinity", lambda pid: {0})
                assert _cli_run(tmp_path, capsys, argv) == one
        finally:
            stop.set()
            if thread.is_alive():
                thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert forks == []
