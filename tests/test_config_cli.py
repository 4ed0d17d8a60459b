import contextlib
import io
import math
import re
import time

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from hapslink import (
    ConfigError,
    DEFAULT_S_SWEEP,
    DEFAULT_X_SWEEP,
    ENV_CONFIG_VAR,
    RequestKind,
    SweepSpec,
    load_config,
    sweep_capacity,
)
from hapslink.cli import EXIT_INFEASIBLE, EXIT_INVALID, EXIT_OK, main
from hapslink.engine import OBJECTIVE_TOKENS


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(ENV_CONFIG_VAR, raising=False)


def write_config(tmp_path, text, name="scenario.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ---------------------------------------------------------------
# config loading
# ---------------------------------------------------------------

def test_defaults_without_file():
    cfg = load_config(None)
    assert cfg.geom.D == 60000.0
    assert cfg.geom.x == 30000.0
    assert cfg.radio.f == 2e9
    assert cfg.ris.N == 50000
    assert cfg.ris_N_list == (10000, 30000, 50000)
    assert cfg.popularity_threshold == 3
    assert cfg.sweep is None


def test_file_overrides(tmp_path):
    path = write_config(tmp_path, """
[geometry]
D = 80000
x = 10000

[radio]
f = 3e9
G_H_rx = 10
pressure_Pa = 0

[ris]
N = 20000
N_list = 10000, 20000

[engine]
popularity_threshold = 2
""")
    cfg = load_config(path)
    assert cfg.geom.D == 80000.0
    assert cfg.geom.x == 10000.0
    assert cfg.radio.f == 3e9
    assert cfg.radio.G_H_rx == 10.0
    assert cfg.radio.pressure_Pa == 0.0  # gaseous attenuation off
    assert cfg.ris.N == 20000
    assert cfg.ris_N_list == (10000, 20000)
    assert cfg.popularity_threshold == 2
    # untouched keys keep their defaults
    assert cfg.radio.B == 2e7
    assert cfg.rs.payload_power_W == 1000.0


def test_unknown_section_rejected(tmp_path):
    path = write_config(tmp_path, "[antenna]\nG = 3\n")
    with pytest.raises(ConfigError, match=r"\[antenna\]"):
        load_config(path)


def test_unknown_key_rejected(tmp_path):
    path = write_config(tmp_path, "[radio]\nbandwidth = 2e7\n")
    with pytest.raises(ConfigError, match="bandwidth"):
        load_config(path)


# (config text, the "[section] key" its error must name)
NON_FINITE_CONFIGS = (
    ("[smbs]\ncache_capacity = inf\n", r"\[smbs\] cache_capacity"),
    ("[ris]\nN_list = 10000, 1e400\n", r"\[ris\] N_list"),
    ("[geometry]\nD = nan\n", r"\[geometry\] D"),
    ("[radio]\nB = -inf\n", r"\[radio\] B"),
)


def test_bad_value_names_key(tmp_path):
    path = write_config(tmp_path, "[radio]\nf = very fast\n")
    with pytest.raises(ConfigError, match=r"\[radio\] f"):
        load_config(path)
    for text, key in NON_FINITE_CONFIGS:
        with pytest.raises(ConfigError, match=key + ": .*finite"):
            load_config(write_config(tmp_path, text))


def test_integer_keys_accept_exponent_notation(tmp_path):
    path = write_config(tmp_path, "[ris]\nN = 5e4\n\n[smbs]\ncache_capacity = 3.0\n")
    cfg = load_config(path)
    assert cfg.ris.N == 50000 and isinstance(cfg.ris.N, int)
    assert cfg.smbs.cache_capacity == 3 and isinstance(cfg.smbs.cache_capacity, int)


def test_geometry_validation_surfaces(tmp_path):
    path = write_config(tmp_path, "[geometry]\nx = 90000\n")
    with pytest.raises(ConfigError, match=r"\[geometry\]"):
        load_config(path)


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "nope.ini"))


def test_env_var_fallback(tmp_path, monkeypatch):
    path = write_config(tmp_path, "[geometry]\nx = 12000\n")
    monkeypatch.setenv(ENV_CONFIG_VAR, path)
    assert load_config(None).geom.x == 12000.0
    # an explicit path still wins over the environment
    other = write_config(tmp_path, "[geometry]\nx = 15000\n", name="other.ini")
    assert load_config(other).geom.x == 15000.0


def test_empty_n_list_rejected(tmp_path):
    path = write_config(tmp_path, "[ris]\nN_list = ,\n")
    with pytest.raises(ConfigError, match="N_list"):
        load_config(path)


# ---------------------------------------------------------------
# sweep specs
# ---------------------------------------------------------------

def test_sweep_section_parses(tmp_path):
    path = write_config(tmp_path, "[sweep]\nvariable = x\nstart = 0\nstop = 10000\nstep = 1000\n")
    cfg = load_config(path)
    assert cfg.sweep == SweepSpec("x", 0.0, 10000.0, 1000.0)
    assert len(cfg.sweep.grid()) == 11


def test_sweep_section_requires_all_keys(tmp_path):
    path = write_config(tmp_path, "[sweep]\nvariable = x\nstart = 0\n")
    with pytest.raises(ConfigError, match="missing key"):
        load_config(path)


def test_sweep_variable_mismatch(tmp_path):
    path = write_config(tmp_path, "[sweep]\nvariable = S\nstart = 0\nstop = 1e6\nstep = 1e5\n")
    cfg = load_config(path)
    with pytest.raises(ConfigError, match="sweeps 'x'"):
        cfg.sweep_for("x")


def test_sweep_defaults_per_variable():
    cfg = load_config(None)
    x_spec = cfg.sweep_for("x")
    assert (x_spec.start, x_spec.stop, x_spec.step) == DEFAULT_X_SWEEP
    s_spec = cfg.sweep_for("S")
    assert (s_spec.start, s_spec.stop, s_spec.step) == DEFAULT_S_SWEEP


def test_sweep_step_override():
    cfg = load_config(None)
    spec = cfg.sweep_for("x", step_override=10000.0)
    assert spec.step == 10000.0
    assert len(spec.grid()) == 7


def test_grid_includes_endpoint_without_drift():
    grid = SweepSpec("S", 0.0, 1.0, 0.1).grid()
    assert len(grid) == 11
    assert grid[0] == 0.0
    assert grid[-1] == 1.0
    assert grid[3] == pytest.approx(0.3, abs=1e-15)


def test_sweep_spec_validation():
    with pytest.raises(ConfigError):
        SweepSpec("y", 0.0, 1.0, 0.1)
    with pytest.raises(ConfigError):
        SweepSpec("x", 0.0, 1.0, 0.0)
    with pytest.raises(ConfigError):
        SweepSpec("x", 2.0, 1.0, 0.1)


# ---------------------------------------------------------------
# CLI: sweeps
# ---------------------------------------------------------------

def test_cli_sweep_capacity(tmp_path, capsys):
    out = str(tmp_path / "cap.csv")
    assert main(["sweep-capacity", "--out", out]) == EXIT_OK
    lines = open(out).read().strip().split("\n")
    assert lines[0].split(",")[:4] == [
        "x_m", "rs_alpha05_bps_hz", "rs_alpha_opt_bps_hz", "alpha_opt"
    ]
    assert "ris_N50000_bps_hz" in lines[0]
    assert len(lines) == 1 + 121
    err = capsys.readouterr().err
    assert "# alpha05_max_degradation_pct" in err
    assert "# ris_roots_m" in err


def test_cli_sweep_matches_library(tmp_path):
    out = str(tmp_path / "cap.csv")
    main(["sweep-capacity", "--out", out, "--grid", "5000"])
    assert open(out).read() == sweep_capacity(load_config(None), step=5000.0).to_csv()


def test_cli_grid_override(tmp_path):
    out = str(tmp_path / "cap.csv")
    assert main(["sweep-capacity", "--out", out, "--grid", "10000"]) == EXIT_OK
    assert len(open(out).read().strip().split("\n")) == 1 + 7


def test_cli_sweep_latency(tmp_path, capsys):
    out = str(tmp_path / "lat.csv")
    assert main(["sweep-latency", "--out", out]) == EXIT_OK
    lines = open(out).read().strip().split("\n")
    assert lines[0] == "S_bits,smbs_FH1GHz_s,smbs_FH2GHz_s,smbs_FH3GHz_s,rs_s,ris_s"
    assert len(lines) == 1 + 101
    err = capsys.readouterr().err
    assert "# smbs_FH2GHz_crossover_S_bits" in err


def test_cli_sweep_ee(tmp_path, capsys):
    out = str(tmp_path / "ee.csv")
    assert main(["sweep-ee", "--out", out, "--grid", "5000"]) == EXIT_OK
    header = open(out).read().split("\n", 1)[0]
    assert header.startswith("x_m,ee_rs_alpha05_bits_per_J,ee_rs_alpha_opt_bits_per_J")
    assert "ee_ris_N10000_bits_per_J" in header
    assert "_ee_spread_pct" in capsys.readouterr().err


def test_cli_sweep_to_stdout(capsys):
    assert main(["sweep-capacity", "--grid", "30000"]) == EXIT_OK
    outerr = capsys.readouterr()
    assert outerr.out.startswith("x_m,")
    assert len(outerr.out.strip().split("\n")) == 1 + 3


def test_cli_respects_env_config(tmp_path, monkeypatch):
    cfg_path = write_config(
        tmp_path, "[sweep]\nvariable = x\nstart = 0\nstop = 5000\nstep = 1000\n"
    )
    monkeypatch.setenv(ENV_CONFIG_VAR, cfg_path)
    out = str(tmp_path / "cap.csv")
    assert main(["sweep-capacity", "--out", out]) == EXIT_OK
    assert len(open(out).read().strip().split("\n")) == 1 + 6


def test_cli_bad_config_exits_1(tmp_path, capsys):
    cfg_path = write_config(tmp_path, "[radio]\nwarp_factor = 9\n")
    assert main(["sweep-capacity", "--config", cfg_path]) == EXIT_INVALID
    assert "error:" in capsys.readouterr().err
    for text, key in NON_FINITE_CONFIGS:
        cfg_path = write_config(tmp_path, text)
        assert main(["sweep-capacity", "--config", cfg_path]) == EXIT_INVALID
        assert re.search("error: " + key, capsys.readouterr().err)


def test_cli_frequency_outside_model_window_exits_1(tmp_path, capsys):
    # the dry-air attenuation model only covers 1-50 GHz
    cfg_path = write_config(tmp_path, "[radio]\nf = 100e9\n")
    assert main(["sweep-capacity", "--config", cfg_path]) == EXIT_INVALID
    assert "error: [radio] f = 1e+11 Hz is outside" in capsys.readouterr().err


def test_cli_sweep_outside_its_range_exits_1(tmp_path, capsys):
    # offsets must stay in the corridor [0, D]; task sizes cannot be negative
    cfg_path = write_config(
        tmp_path, "[sweep]\nvariable = x\nstart = 0\nstop = 70000\nstep = 1000\n"
    )
    assert main(["sweep-capacity", "--config", cfg_path]) == EXIT_INVALID
    assert "error: [sweep] stop = 70000 is outside [0, 60000]" in capsys.readouterr().err
    cfg_path = write_config(
        tmp_path, "[sweep]\nvariable = S\nstart = -1e6\nstop = 1e6\nstep = 1e5\n"
    )
    assert main(["sweep-latency", "--config", cfg_path]) == EXIT_INVALID
    assert "error: [sweep] start = -1e+06 is outside" in capsys.readouterr().err


# values the physics cannot take: each used to end in a traceback
OUT_OF_RANGE_CONFIGS = {
    "pressure_Pa": ("sweep-capacity", "[radio]\npressure_Pa = -1\n", r"\[radio\] pressure_Pa"),
    "temperature_C": (
        "sweep-capacity", "[radio]\ntemperature_C = -273\n", r"\[radio\] temperature_C"
    ),
    "N_list_negative": ("sweep-capacity", "[ris]\nN_list = 100, -5\n", r"\[ris\] N_list"),
    "N_list_fraction": ("sweep-capacity", "[ris]\nN_list = 1.5\n", r"\[ris\] N_list"),
    "F_H_list": ("sweep-latency", "[smbs]\nF_H_list = 1e9, 0\n", r"\[smbs\] F_H_list"),
    # integer keys: a fraction used to be truncated without a word
    "N_fraction": ("sweep-capacity", "[ris]\nN = 1.5\n", r"\[ris\] N must be an integer"),
    "cache_capacity_fraction": (
        "sweep-capacity", "[smbs]\ncache_capacity = 2.7\n", r"\[smbs\] cache_capacity"
    ),
    "popularity_threshold_fraction": (
        "sweep-capacity", "[engine]\npopularity_threshold = 2.9\n",
        r"\[engine\] popularity_threshold",
    ),
    # every surface efficiency divides by it: used to end in a bare
    # "float division by zero"
    "per_element_power_W_zero": (
        "sweep-ee", "[ris]\nper_element_power_W = 0\n", r"\[ris\] per_element_power_W"
    ),
    # a payload config refusal names its section and key
    "rs_payload_power_W_zero": (
        "sweep-capacity", "[rs]\npayload_power_W = 0\n", r"\[rs\] payload_power_W"
    ),
    "smbs_F_H_zero": ("sweep-latency", "[smbs]\nF_H = 0\n", r"\[smbs\] F_H"),
    "cloud_F_C_zero": ("sweep-latency", "[cloud]\nF_C = 0\n", r"\[cloud\] F_C"),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE_CONFIGS))
def test_cli_out_of_range_key_exits_1(tmp_path, capsys, case):
    command, text, key = OUT_OF_RANGE_CONFIGS[case]
    cfg_path = write_config(tmp_path, text)
    assert main([command, "--config", cfg_path]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert re.search("^error: " + key, err)
    assert "Traceback" not in err


def test_cli_rs_alpha_key_rejected(tmp_path, capsys):
    # no split to set: the relay always runs at its optimal split
    cfg_path = write_config(tmp_path, "[rs]\nalpha = 0.5\n")
    assert main(["sweep-capacity", "--config", cfg_path]) == EXIT_INVALID
    assert "'alpha'" in capsys.readouterr().err


def test_cli_gnuplot_needs_out(tmp_path, capsys):
    assert main(["sweep-capacity", "--emit-gnuplot"]) == EXIT_INVALID
    out = str(tmp_path / "cap.csv")
    assert main(
        ["sweep-capacity", "--out", out, "--grid", "30000", "--emit-gnuplot"]
    ) == EXIT_OK
    script = open(out + ".gp").read()
    assert out in script
    assert "plot" in script


# ---------------------------------------------------------------
# CLI: select and replay
# ---------------------------------------------------------------

def test_cli_select_capacity(capsys):
    code = main(["select", "--kind", "communication", "--objective", "max_capacity"])
    assert code == EXIT_OK
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "t,kind,mode,action,objective_value,latency_s,energy_J"
    fields = out[1].split(",")
    assert fields[1] == "communication"
    assert fields[2] == "RIS"
    assert fields[3] == "serve_direct" or fields[3] == "forward_via_gateway"


def test_cli_select_min_energy_needs_qos(capsys):
    code = main(["select", "--kind", "communication", "--objective", "min_energy"])
    assert code == EXIT_INVALID
    assert "qos" in capsys.readouterr().err


def test_cli_select_infeasible_exits_2(capsys):
    code = main([
        "select", "--kind", "communication",
        "--objective", "min_energy", "--qos-bps", "1e15",
    ])
    assert code == EXIT_INFEASIBLE
    row = capsys.readouterr().out.strip().split("\n")[1]
    assert ",infeasible," in row


def test_cli_select_task(capsys):
    code = main(["select", "--kind", "task_offloading", "--size-bits", "1e6"])
    assert code == EXIT_OK
    row = capsys.readouterr().out.strip().split("\n")[1]
    assert "compute_" in row


def test_cli_replay(tmp_path, capsys):
    trace = tmp_path / "t.trace"
    trace.write_text(
        "# demo\n"
        "0,content_delivery,vid1,1e6,,\n"
        "1,content_delivery,vid1,1e6,,\n"
        "2,communication,,,max_capacity,\n"
        "3,task_offloading,,2e6,,\n"
    )
    out = str(tmp_path / "d.csv")
    assert main(["replay", str(trace), "--out", out]) == EXIT_OK
    lines = open(out).read().strip().split("\n")
    assert len(lines) == 1 + 4
    err = capsys.readouterr().err
    assert "# requests = 4" in err
    assert "# total_energy_J" in err
    assert "# cache_hit_rate" in err


def test_cli_replay_force_mode(tmp_path):
    trace = tmp_path / "t.trace"
    trace.write_text("0,content_delivery,a,1e6,,\n1,content_delivery,b,1e6,,\n")
    out = str(tmp_path / "d.csv")
    assert main(["replay", str(trace), "--force-mode", "rs", "--out", out]) == EXIT_OK
    for line in open(out).read().strip().split("\n")[1:]:
        assert line.split(",")[2] == "RS"


def test_cli_replay_bad_trace_exits_1(tmp_path, capsys):
    trace = tmp_path / "t.trace"
    trace.write_text("0,content_delivery,a,1e6,,\nnot,a,valid,row\n")
    assert main(["replay", str(trace)]) == EXIT_INVALID
    assert "error:" in capsys.readouterr().err


def test_cli_replay_non_finite_trace_exits_1(tmp_path, capsys):
    trace = tmp_path / "t.trace"
    trace.write_text("0,content_delivery,a,1e6,,\n1,content_delivery,a,nan,,\n")
    out = tmp_path / "d.csv"
    assert main(["replay", str(trace), "--out", str(out)]) == EXIT_INVALID
    assert "error: line 2: size_bits must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_cli_select_non_finite_exits_1(capsys):
    assert main(["select", "--kind", "communication", "--size-bits", "inf"]) == EXIT_INVALID
    assert "error: size_bits must be finite" in capsys.readouterr().err


def test_cli_replay_missing_trace_exits_1(tmp_path, capsys):
    assert main(["replay", str(tmp_path / "ghost.trace")]) == EXIT_INVALID
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------
# CLI: scenarios the model cannot evaluate
# ---------------------------------------------------------------

# a 20 000 km corridor: the reflected path's capacity underflows to zero,
# and so does the base station's at x = 1000 m
FAR_CORRIDOR = "[geometry]\nD = 2e7\nH = 20000\nx = 1000\n"
# a 100 000 km corridor: even the relay's crest carries nothing
REMOTE_CORRIDOR = "[geometry]\nD = 1e8\n"
# a 1e9 m corridor: the surface's reference-path loss overflows
HUGE_CORRIDOR = "[geometry]\nD = 1e9\nx = 5e8\n"
ONE_TASK = "0.0,task_offloading,,1e6,,\n"

# the message names the quantity that failed
UNREACHABLE = r"mode unreachable: {} capacity is zero"
HUGE_LOSS = r"reference-path loss of .* dB \(gaseous absorption over D = 1e\+09 m\)"

MODEL_ERROR_CASES = {
    "far_replay": (
        FAR_CORRIDOR, ["replay"], "request 0: " + UNREACHABLE.format("SMBS"),
    ),
    "far_sweep_latency": (FAR_CORRIDOR, ["sweep-latency"], UNREACHABLE.format("RIS")),
    "remote_sweep_latency": (
        REMOTE_CORRIDOR, ["sweep-latency"], UNREACHABLE.format("RS"),
    ),
    "far_sweep_ee": (
        FAR_CORRIDOR, ["sweep-ee", "--grid", "1e5"],
        r"ris_N10000_ee_spread_pct: the surface's energy efficiency falls to 0",
    ),
    "huge_replay": (HUGE_CORRIDOR, ["replay"], HUGE_LOSS),
    "huge_select": (HUGE_CORRIDOR, ["select", "--kind", "communication"], HUGE_LOSS),
    "huge_sweep_latency": (HUGE_CORRIDOR, ["sweep-latency"], HUGE_LOSS),
}


@pytest.mark.parametrize("case", sorted(MODEL_ERROR_CASES))
def test_cli_model_error_exits_1(tmp_path, capsys, case):
    text, args, name = MODEL_ERROR_CASES[case]
    args = args + ["--config", write_config(tmp_path, text)]
    if args[0] == "replay":
        trace = tmp_path / "one.trace"
        trace.write_text(ONE_TASK)
        args.append(str(trace))
    start = time.perf_counter()
    assert main(args) == EXIT_INVALID
    # refused without walking the corridor
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert re.match("error: .*" + name, err), err
    assert "Traceback" not in err


# ---------------------------------------------------------------
# CLI: hostile trace bytes
# ---------------------------------------------------------------

# "{i}" stands for the line's index, so time stays in order unless a
# garbage timestamp is drawn
_SIZE = st.sampled_from(["0", "1e4", "2.5e7", "1.7e308"])
_CONTENT_ID = st.sampled_from(["a", "b", "vid 9"])
_GOAL = st.sampled_from([
    ",", "max_capacity,", "max_energy_efficiency,", "min_energy,5e7", "min_energy,1e12",
    ",1e12",
])
_VALID = st.one_of(
    st.tuples(st.sampled_from(["content_delivery", "caching"]), _CONTENT_ID,
              st.one_of(st.just(""), _SIZE)),
    st.tuples(st.just("communication"), st.just(""), st.one_of(st.just(""), _SIZE)),
    st.tuples(st.just("task_offloading"), st.just(""), _SIZE),
).flatmap(lambda f: _GOAL.map(lambda goal: "{i}," + ",".join(f) + "," + goal))
_GARBAGE = st.tuples(
    st.sampled_from(["{i}", "-1", "nan", "-inf", "1e400", "t", ""]),
    st.sampled_from([k.value for k in RequestKind] + ["teleport", ""]),
    st.sampled_from(["", "a", "vid 9"]),
    st.sampled_from(["", "-5", "nan", "inf", "1e400", "bits"]),
    st.sampled_from(["", *OBJECTIVE_TOKENS, "up"]),
    st.sampled_from(["", "0", "-1", "inf", "q"]),
).map(",".join)
_LINE = st.one_of(
    _VALID.map(str.encode),
    _VALID.map(str.encode),
    _GARBAGE.map(str.encode),
    st.sampled_from([b"", b"# comment", b"1,2", b"1,communication,,,,,", b"\xff\xfe"]),
    st.binary(max_size=16),
)


def _finite_or_blank(cell):
    return cell == "" or math.isfinite(float(cell))


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(lines=st.lists(_LINE, max_size=8))
@example(lines=[b"{i},task_offloading,,1.7e308,,"])  # computation time overflowed
def test_cli_replay_survives_hostile_trace_bytes(tmp_path, lines):
    trace = tmp_path / "hostile.trace"
    trace.write_bytes(
        b"\n".join(line.replace(b"{i}", str(i).encode()) for i, line in enumerate(lines))
    )
    out = tmp_path / "decisions.csv"
    out.unlink(missing_ok=True)
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(["replay", str(trace), "--out", str(out)])
    err = stderr.getvalue()
    assert code in (EXIT_OK, EXIT_INVALID)
    if code == EXIT_INVALID:
        assert err.startswith("error:")
        return
    header, *rows = out.read_text().splitlines()
    numeric = [i for i, name in enumerate(header.split(",")) if name not in
               ("kind", "mode", "action")]
    for row in rows:
        cells = row.split(",")
        assert all(_finite_or_blank(cells[i]) for i in numeric), row
    totals = [line.split(" = ")[1] for line in err.splitlines() if " = " in line]
    assert len(totals) == 3  # requests, total_energy_J, cache_hit_rate
    assert all(_finite_or_blank(value) for value in totals), err
