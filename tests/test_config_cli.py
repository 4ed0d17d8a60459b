import configparser
import contextlib
import io
import math
import os
import re
import time

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from hapslink import (
    CloudConfig,
    ConfigError,
    Corridor,
    DEFAULT_S_SWEEP,
    DEFAULT_X_SWEEP,
    ENV_CONFIG_VAR,
    Mode,
    RadioParams,
    Request,
    RequestError,
    RequestKind,
    RisConfig,
    RsConfig,
    ScenarioConfig,
    ScenarioGeometry,
    SmbsConfig,
    SweepSpec,
    build_engine,
    load_config,
    replace,
    replay_trace,
    sweep_capacity,
    sweep_latency,
)
from hapslink import config
from hapslink.cli import EXIT_INFEASIBLE, EXIT_INVALID, EXIT_OK, main
from hapslink.engine import OBJECTIVES
from hapslink.modes import carrier

import reference_model as ref


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(ENV_CONFIG_VAR, raising=False)


def write_config(tmp_path, text, name="scenario.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


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


def test_a_byte_order_mark_at_the_start_of_a_config_is_not_text(tmp_path, capsys):
    text = "[geometry]\nD = 80000\nx = 10000\n"
    plain = write_config(tmp_path, text)
    marked, bad = tmp_path / "marked.ini", tmp_path / "bad.ini"
    marked.write_text("\ufeff" + text, encoding="utf-8")
    bad.write_text("\ufeff[geometry]\nD\n", encoding="utf-8")
    assert load_config(str(marked)) == load_config(plain)
    runs = []
    for path in (plain, str(marked)):
        code = main(["sweep-capacity", "--config", path])
        runs.append((code, *capsys.readouterr()))
    assert runs[0][0] == EXIT_OK and runs[1] == runs[0]
    # a refusal names the same line, and no mark
    with pytest.raises(ConfigError, match=r"bad\.ini: line 2: 'D'$"):
        load_config(str(bad))


def test_unknown_section_rejected(tmp_path):
    path = write_config(tmp_path, "[antenna]\nG = 3\n")
    with pytest.raises(ConfigError, match=r"\[antenna\]"):
        load_config(path)


def test_unknown_key_rejected(tmp_path):
    path = write_config(tmp_path, "[radio]\nbandwidth = 2e7\n")
    with pytest.raises(ConfigError, match="bandwidth"):
        load_config(path)


def test_values_are_read_literally(tmp_path):
    # a % is text, not interpolation: the path is written as given, and a
    # number holding one is refused by its key
    out = tmp_path / "out%.csv"
    path = write_config(tmp_path, f"[output]\npath = {out}\n")
    assert main(["sweep-latency", "--config", path, "--grid", "1e6"]) == EXIT_OK
    assert out.read_text().startswith("S_bits,")
    for raw in ("2e7%", "%(f)s"):
        path = write_config(tmp_path, f"[radio]\nf = 2e9\nB = {raw}\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value) == f"[radio] B: cannot parse {raw!r} as a finite number"


@pytest.mark.parametrize("text", [
    "[DEFAULT]\n",
    "[DEFAULT]\nD = 1000\n",
    "[DEFAULT]\nD = 1000\n\n[radio]\nB = 2e7\n",
], ids=["empty", "alone", "beside_radio"])
def test_default_section_is_refused(tmp_path, text):
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, text))
    assert str(err.value) == "unknown section [DEFAULT]"


# (config text, its error): the record that takes the value refuses it
NON_FINITE_CONFIGS = (
    ("[smbs]\ncache_capacity = inf\n", "[smbs] cache_capacity must be finite, got inf"),
    ("[ris]\nN_list = 10000, 1e400\n", "[ris] N_list must be finite, got inf"),
    ("[geometry]\nD = nan\n", "[geometry] D must be finite, got nan"),
    ("[radio]\nB = -inf\n", "[radio] B must be finite, got -inf"),
)


def test_bad_value_names_key(tmp_path):
    path = write_config(tmp_path, "[radio]\nf = very fast\n")
    with pytest.raises(ConfigError, match=r"\[radio\] f"):
        load_config(path)
    for text, message in NON_FINITE_CONFIGS:
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, text))
        assert str(err.value) == message


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


# files with two faults each -> the one error the loader reports. The
# order is: unknown sections and keys (in file order), then the records
# in geometry, radio, rs, ris, smbs, cloud order, each key in field
# order (its number rule and range) and then the record's own rules,
# then the [ris]/[smbs] lists and [engine] keys as parsed, then [sweep]
# as parsed (its number rules and range, then its own rules), and last
# ScenarioConfig: the [engine] keys' number rules and ranges, then its
# own rules: the lists, the [sweep] bounds.
TWO_FAULT_CONFIGS = {
    "geometry_then_radio": (
        "[radio]\nB = xyz\n[geometry]\nD = abc\n",
        "[geometry] D: cannot parse 'abc' as a finite number",
    ),
    "geometry_range_then_radio": (
        "[radio]\nB = 0\n[geometry]\nH = -1\n",
        "[geometry] H = -1.0 is outside [1, 1e+06]",
    ),
    "one_section_field_order": (
        "[radio]\nB = abc\nf = def\n",
        "[radio] f: cannot parse 'def' as a finite number",
    ),
    "one_section_record": (
        "[smbs]\nF_H = 0\npayload_power_W = 0\n",
        "[smbs] F_H = 0.0 is outside (0, inf)",
    ),
    # a range is a number rule too: the first field in order is reported
    "integer_before_record": (
        "[smbs]\nF_H = 0\ncache_capacity = 2.5\n",
        "[smbs] F_H = 0.0 is outside (0, inf)",
    ),
    "integer_before_list": (
        "[ris]\nN_list = ,\n[engine]\npopularity_threshold = 2.5\n",
        "[engine] popularity_threshold must be an integer, got 2.5",
    ),
    "unknown_key_first": (
        "[radio]\nf = abc\nwarp = 9\n", "unknown key 'warp' in section [radio]",
    ),
    "unknown_section_first": (
        "[geometry]\nD = nan\n[antenna]\nG = 3\n", "unknown section [antenna]",
    ),
    "f_window_before_rs": (
        "[radio]\nf = 100e9\n[rs]\npayload_power_W = 0\n",
        "[radio] f = 100000000000.0 is outside [1e+09, 5e+10]",
    ),
    "f_parse_before_rs": (
        "[rs]\npayload_power_W = abc\n[radio]\nf = abc\n",
        "[radio] f: cannot parse 'abc' as a finite number",
    ),
    "f_window_then_rs_unknown": (
        "[radio]\nf = 100e9\n[rs]\nalpha = 0.5\n", "unknown key 'alpha' in section [rs]",
    ),
    "pressure_then_temperature": (
        "[radio]\ntemperature_C = -300\npressure_Pa = -1\n",
        "[radio] pressure_Pa = -1.0 is outside [0, 110000]",
    ),
    "temperature_before_lists": (
        "[ris]\nN_list = -5\n[radio]\ntemperature_C = -300\n",
        "[radio] temperature_C = -300.0 is outside [-60, 50]",
    ),
    "ris_list_before_smbs_list": (
        "[smbs]\nF_H_list = 0\n[ris]\nN_list = 1.5\n",
        "[ris] N_list must be an integer, got 1.5",
    ),
    "record_before_list": (
        "[ris]\nN_list = ,\nN = 1.5\n", "[ris] N must be an integer, got 1.5",
    ),
    "engine_threshold_first": (
        "[engine]\ncycles_per_bit = 0\npopularity_threshold = 0\n",
        "[engine] popularity_threshold = 0.0 is outside [1, inf)",
    ),
    "engine_before_sweep": (
        "[sweep]\nvariable = x\n[engine]\ncycles_per_bit = abc\n",
        "[engine] cycles_per_bit: cannot parse 'abc' as a finite number",
    ),
    "sweep_missing_before_value": (
        "[sweep]\nvariable = y\nstart = abc\n", "[sweep] missing key 'stop'",
    ),
    "engine_parse_before_lists": (
        "[ris]\nN_list = ,\n[engine]\ncycles_per_bit = abc\n",
        "[engine] cycles_per_bit: cannot parse 'abc' as a finite number",
    ),
    "sweep_parse_before_engine": (
        "[engine]\npopularity_threshold = 0\n"
        "[sweep]\nvariable = x\nstart = 0\nstop = 1e3\nstep = 0\n",
        "[sweep] step = 0.0 is outside (0, inf)",
    ),
    "geometry_before_cloud": (
        "[cloud]\nF_C = 0\n[geometry]\nx = 90000\n",
        "[geometry] platform offset x=90000.0 outside the corridor [0, 60000.0]",
    ),
}


@pytest.mark.parametrize("case", sorted(TWO_FAULT_CONFIGS))
def test_first_of_two_faults_is_reported(tmp_path, case):
    text, message = TWO_FAULT_CONFIGS[case]
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, text))
    assert str(err.value) == message


# each value rule of the records: (the record built in code, a file
# setting the same value, the refusal). Both give the same words, but for
# the [section] prefix a file puts on a section record's refusal.
RULE_PARITY = {
    "f_below_window": (
        lambda: RadioParams(f=5e8), "[radio]\nf = 5e8\n",
        "f = 500000000.0 is outside [1e+09, 5e+10]",
    ),
    "f_above_window": (
        lambda: RadioParams(f=100e9), "[radio]\nf = 100e9\n",
        "f = 100000000000.0 is outside [1e+09, 5e+10]",
    ),
    "pressure_negative": (
        lambda: RadioParams(pressure_Pa=-100.0), "[radio]\npressure_Pa = -100\n",
        "pressure_Pa = -100.0 is outside [0, 110000]",
    ),
    "temperature_absolute_zero": (
        lambda: RadioParams(temperature_C=-273.0), "[radio]\ntemperature_C = -273\n",
        "temperature_C = -273.0 is outside [-60, 50]",
    ),
    "N_list_empty": (
        lambda: ScenarioConfig(ris_N_list=()), "[ris]\nN_list = ,\n",
        "[ris] N_list must not be empty",
    ),
    "F_H_list_empty": (
        lambda: ScenarioConfig(smbs_F_H_list=()), "[smbs]\nF_H_list = ,\n",
        "[smbs] F_H_list must not be empty",
    ),
    "N_list_fraction": (
        lambda: ScenarioConfig(ris_N_list=(100, 1.5)), "[ris]\nN_list = 100, 1.5\n",
        "[ris] N_list must be an integer, got 1.5",
    ),
    "N_list_zero": (
        lambda: ScenarioConfig(ris_N_list=(0.0,)), "[ris]\nN_list = 0\n",
        "[ris] N_list = 0.0 is outside [1, 1e+07]",
    ),
    "F_H_list_zero": (
        lambda: ScenarioConfig(smbs_F_H_list=(1e9, 0.0)), "[smbs]\nF_H_list = 1e9, 0\n",
        "[smbs] F_H_list = 0.0 is outside (0, inf)",
    ),
    "popularity_threshold_zero": (
        lambda: ScenarioConfig(popularity_threshold=0.0),
        "[engine]\npopularity_threshold = 0\n",
        "[engine] popularity_threshold = 0.0 is outside [1, inf)",
    ),
    "cycles_per_bit_negative": (
        lambda: ScenarioConfig(cycles_per_bit=-1.0), "[engine]\ncycles_per_bit = -1\n",
        "[engine] cycles_per_bit = -1.0 is outside (0, inf)",
    ),
    "sweep_x_stop_past_D": (
        lambda: ScenarioConfig(sweep=SweepSpec("x", 0.0, 1e9, 1e8)),
        "[sweep]\nvariable = x\nstart = 0\nstop = 1e9\nstep = 1e8\n",
        "[sweep] stop = 1000000000.0 is outside [0, 60000]",
    ),
    "sweep_x_stop_past_a_set_D": (
        lambda: ScenarioConfig(geom=ScenarioGeometry(D=1000.0, H=2e4, x=0.0),
                               sweep=SweepSpec("x", 0.0, 2000.0, 100.0)),
        "[geometry]\nD = 1000\nx = 0\n"
        "[sweep]\nvariable = x\nstart = 0\nstop = 2000\nstep = 100\n",
        "[sweep] stop = 2000.0 is outside [0, 1000]",
    ),
    # printed with ":g", the stop would read as D itself
    "sweep_x_stop_just_past_D": (
        lambda: ScenarioConfig(sweep=SweepSpec("x", 0.0, 60000.0001, 500.0)),
        "[sweep]\nvariable = x\nstart = 0\nstop = 60000.0001\nstep = 500\n",
        "[sweep] stop = 60000.0001 is outside [0, 60000]",
    ),
    "sweep_S_start_negative": (
        lambda: ScenarioConfig(sweep=SweepSpec("S", -5.0, 10.0, 1.0)),
        "[sweep]\nvariable = S\nstart = -5\nstop = 10\nstep = 1\n",
        "[sweep] start = -5.0 is outside [0, inf)",
    ),
    # the number rule of every float and int field, applied by the record base
    "cache_capacity_fraction": (
        lambda: SmbsConfig(cache_capacity=2.7), "[smbs]\ncache_capacity = 2.7\n",
        "cache_capacity must be an integer, got 2.7",
    ),
    "popularity_threshold_fraction": (
        lambda: ScenarioConfig(popularity_threshold=2.5),
        "[engine]\npopularity_threshold = 2.5\n",
        "[engine] popularity_threshold must be an integer, got 2.5",
    ),
    "cycles_per_bit_infinite": (
        lambda: ScenarioConfig(cycles_per_bit=math.inf), "[engine]\ncycles_per_bit = inf\n",
        "[engine] cycles_per_bit must be finite, got inf",
    ),
    "F_H_list_infinite": (
        lambda: ScenarioConfig(smbs_F_H_list=(math.inf,)), "[smbs]\nF_H_list = inf\n",
        "[smbs] F_H_list must be finite, got inf",
    ),
    "B_infinite": (
        lambda: RadioParams(B=math.inf), "[radio]\nB = inf\n", "B must be finite, got inf",
    ),
    "noise_figure_nan": (
        lambda: RadioParams(noise_figure=math.nan), "[radio]\nnoise_figure = nan\n",
        "noise_figure must be finite, got nan",
    ),
    "rs_power_infinite": (
        lambda: RsConfig(payload_power_W=math.inf), "[rs]\npayload_power_W = inf\n",
        "payload_power_W must be finite, got inf",
    ),
    "F_C_infinite": (
        lambda: CloudConfig(F_C=math.inf), "[cloud]\nF_C = inf\n", "F_C must be finite, got inf",
    ),
    "N_fraction": (
        lambda: RisConfig(N=1.5), "[ris]\nN = 1.5\n", "N must be an integer, got 1.5",
    ),
    # printed with ":g", each of these values would read as its bound
    "N_fraction_at_bound": (
        lambda: RisConfig(N=10000000.5), "[ris]\nN = 10000000.5\n",
        "N must be an integer, got 10000000.5",
    ),
    "B_just_past_bound": (
        lambda: RadioParams(B=1.0000001e10), "[radio]\nB = 1.0000001e10\n",
        "B = 10000001000.0 is outside [1000, 1e+10]",
    ),
    # a file gives a float: 10000001.0
    "N_just_past_bound": (
        lambda: RisConfig(N=10000001), None, "N = 10000001 is outside [1, 1e+07]",
    ),
    "sweep_start_nan": (
        lambda: SweepSpec("x", math.nan, 10.0, 1.0),
        "[sweep]\nvariable = x\nstart = nan\nstop = 10\nstep = 1\n",
        "[sweep] start must be finite, got nan",
    ),
    # no file value parses to a bool: these are refused in code only
    "B_bool": (lambda: RadioParams(B=True), None, "B must be a number, got True"),
    "N_bool": (lambda: RisConfig(N=True), None, "N must be a number, got True"),
}


@pytest.mark.parametrize("case", sorted(RULE_PARITY))
def test_a_record_refuses_in_code_what_a_file_refuses(tmp_path, case):
    build, text, message = RULE_PARITY[case]
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message
    if text is None:
        return
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, text))
    # a file puts its section on a refusal that does not carry one
    prefix = "" if message.startswith("[") else text[:text.index("]") + 1] + " "
    assert str(err.value) == prefix + message


def test_scenario_config_counts_surface_elements_in_integers():
    cfg = ScenarioConfig(ris_N_list=(1e4, 3e4))
    assert cfg.ris_N_list == (10000, 30000)
    assert all(type(n) is int for n in cfg.ris_N_list)


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_config_example_loads_the_defaults(tmp_path):
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    block = re.search(r"## Configuration file\n.*?```ini\n(.*?)```", text, re.DOTALL)[1]
    parser = configparser.ConfigParser()
    parser.optionxform = str
    parser.read_string(block)
    shown = {(section, key) for section in parser.sections() for key in parser[section]}
    known = {(section, key) for section, keys in config._KNOWN_KEYS.items() for key in keys}
    assert shown == known
    cfg = load_config(write_config(tmp_path, block))
    assert replace(cfg, sweep=None, output_path=None) == ScenarioConfig()


# section -> (ScenarioConfig field, record class): the sections a file
# overrides record by record
RECORD_SECTIONS = {
    "geometry": ("geom", ScenarioGeometry),
    "radio": ("radio", RadioParams),
    "rs": ("rs", RsConfig),
    "ris": ("ris", RisConfig),
    "smbs": ("smbs", SmbsConfig),
    "cloud": ("cloud", CloudConfig),
}
RECORD_KEYS = [
    (section, key) for section, (_, cls) in RECORD_SECTIONS.items() for key in cls._fields
]
_NUMBER_TEXT = st.one_of(
    st.floats(-1e12, 1e12).map(repr),
    st.integers(-5, 10 ** 6).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "abc", "", "1.5", "5e4", "0",
                     "2e7%", "%(f)s", "%"]),
)
# where a [DEFAULT] section goes among the file's sections, and its body
_DEFAULT_SECTION = st.one_of(
    st.none(), st.tuples(st.integers(0, 6), st.sampled_from(["", "D = 1000\n"]))
)


def _plausible(section, key):
    """Text for [section] key: often near its default, so that some files
    load, sometimes anything."""
    field, _ = RECORD_SECTIONS[section]
    default = getattr(getattr(ScenarioConfig(), field), key)
    near = st.sampled_from([0.5, 0.9, 1.0, 1.1, 2.0]).map(lambda k: repr(default * k))
    return st.one_of(near, near, _NUMBER_TEXT)


_ENTRIES = st.lists(st.sampled_from(RECORD_KEYS), max_size=5, unique=True).flatmap(
    lambda keys: st.tuples(*[st.tuples(st.just(k), _plausible(*k)) for k in keys])
)


def _direct(entries):
    """What a file of entries ((section, key), text) should give: the
    ScenarioConfig built from the records made directly from the values,
    or ("section", "key") for a refusal naming that key (its number rule
    or its declared range), or ("section", message) for a value the
    record's own rules refuse. In each section every key is parsed before
    any value is checked."""
    cfg = ScenarioConfig()
    texts = dict(entries)
    for section, (field, cls) in RECORD_SECTIONS.items():
        record = getattr(cfg, field)
        values = {}
        for key in cls._fields:
            if (section, key) not in texts:
                continue
            try:
                values[key] = float(texts[section, key])
            except ValueError:
                return section, key
        for key, value in values.items():
            if not math.isfinite(value):
                return section, key
            if isinstance(getattr(record, key), int):
                if value != int(value):
                    return section, key
                values[key] = int(value)
            low, high = cls._bounds.get(key, (-math.inf, math.inf))
            if not low <= value <= high:
                return section, key
        try:
            cfg = replace(cfg, **{field: replace(record, **values)})
        except ValueError as err:
            return section, str(err)
    return cfg


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(entries=_ENTRIES, default=_DEFAULT_SECTION)
@example(entries=((("radio", "B"), "0"),), default=None)
@example(entries=((("geometry", "D"), "1000.0"),), default=None)
@example(entries=((("radio", "B"), "2e7%"),), default=None)
@example(entries=((("radio", "B"), "2e7"),), default=(0, "D = 1000\n"))
# a radio range fault is the radio record's, so it precedes an [rs] one
@example(entries=((("rs", "payload_power_W"), "0"), (("radio", "f"), "1e11")), default=None)
# every key of a section is parsed before any is checked: B, not f
@example(entries=((("radio", "f"), "inf"), (("radio", "B"), "abc")), default=None)
def test_random_config_files_load_as_the_records_or_name_the_key(
    tmp_path, entries, default
):
    sections = {}
    for (section, key), text in entries:
        sections.setdefault(section, []).append(f"{key} = {text}\n")
    blocks = [f"[{s}]\n" + "".join(lines) for s, lines in sections.items()]
    if default is not None:  # refused wherever it stands, whatever it holds
        at, body = default
        blocks.insert(at, "[DEFAULT]\n" + body)
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, "".join(blocks)))
        assert str(err.value) == "unknown section [DEFAULT]"
        return
    path = write_config(tmp_path, "".join(blocks))
    expected = _direct(entries)
    if isinstance(expected, ScenarioConfig):
        assert load_config(path) == expected
        return
    section, named = expected
    with pytest.raises(ConfigError) as err:
        load_config(path)
    message = str(err.value)
    if named in RECORD_SECTIONS[section][1]._fields:
        assert message.startswith(f"[{section}] {named}"), message
    else:  # the record's own refusal, which names one of its fields
        assert message == f"[{section}] {named}"
        field_names = "|".join(RECORD_SECTIONS[section][1]._fields)
        assert re.search(rf"\b({field_names})\b", named), message


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


def _loop_grid(spec):
    """The grid as the per-point while loop it was written as: the
    reference for SweepSpec.grid."""
    values = []
    v = spec.start
    i = 0
    while v <= spec.stop + 1e-9 * max(1.0, abs(spec.stop)):
        values.append(min(v, spec.stop))
        i += 1
        v = spec.start + i * spec.step
    return values


@settings(max_examples=400, deadline=None)
@given(
    start=st.one_of(st.sampled_from([0.0, -0.0, 0.1, 1e9]), st.floats(-1e6, 1e6)),
    step=st.one_of(st.sampled_from([0.1, 0.2, 1 / 3, 10.0, 1000.0]), st.floats(1e-6, 1e4)),
    points=st.integers(0, 300),
    end=st.sampled_from(["product", "sum", "above", "below", "between"]),
    frac=st.floats(0.0, 1.0),
)
@example(start=0.0, step=0.1, points=3, end="product", frac=0.0)
@example(start=-0.0, step=0.25, points=0, end="product", frac=0.0)
def test_grid_matches_the_per_point_loop(start, step, points, end, frac):
    # stops reached by a product, by repeated addition (drift), just past
    # or short of a grid point, or between two
    stop = {
        "product": start + points * step,
        "sum": sum([step] * points, start),
        "above": (start + points * step) * (1 + 1e-12) + 1e-12,
        "below": (start + points * step) * (1 - 1e-12) - 1e-12,
        "between": start + (points + frac) * step,
    }[end]
    assume(stop >= start)
    # a step above the endpoint tolerance: the loop then puts at most one
    # point past stop (see test_grid_stays_within_its_count)
    assume(step > 2e-9 * max(1.0, abs(stop)))
    spec = SweepSpec("S", start, stop, step)
    assert list(map(repr, spec.grid())) == list(map(repr, _loop_grid(spec)))


def test_grid_stays_within_its_count():
    # a step finer than the endpoint tolerance: the per-point loop walked
    # every point up to the tolerance past stop (1001 copies of stop
    # here), and forever once start + step rounds back to start
    assert SweepSpec("S", 1e6, 1e6, 1e-6).grid() == [1e6]
    assert SweepSpec("S", 1e300, 1e300, 1e-300).grid() == [1e300]
    grid = SweepSpec("S", 1e6, 1e6 + 1e-5, 1e-6).grid()
    assert len(grid) == 11 and grid[-1] == 1e6 + 1e-5 and grid == sorted(grid)


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
    lines = read(out).strip().split("\n")
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
    assert read(out) == sweep_capacity(load_config(None), step=5000.0).to_csv()


def test_cli_grid_override(tmp_path):
    out = str(tmp_path / "cap.csv")
    assert main(["sweep-capacity", "--out", out, "--grid", "10000"]) == EXIT_OK
    assert len(read(out).strip().split("\n")) == 1 + 7


def test_cli_grid_is_applied_before_the_grid_cap(tmp_path, capsys):
    # the cap counts the step the user gave, not the default 500 m: a 0.5 m
    # step gives 2e6 + 1 points on this corridor
    path = write_config(tmp_path, "[geometry]\nD = 1e6\n")
    assert main(["sweep-capacity", "--config", path, "--grid", "0.5"]) == EXIT_INVALID
    assert capsys.readouterr().err == (
        "error: [sweep] step = 0.5 gives 2e+06 grid points; at most 1000000 are allowed\n"
    )
    out = str(tmp_path / "cap.csv")
    assert main(["sweep-capacity", "--config", path, "--grid", "1000", "--out", out]) == EXIT_OK
    assert len(read(out).strip().split("\n")) == 1 + 1001


def test_cli_sweep_latency(tmp_path, capsys):
    out = str(tmp_path / "lat.csv")
    assert main(["sweep-latency", "--out", out]) == EXIT_OK
    lines = read(out).strip().split("\n")
    assert lines[0] == "S_bits,smbs_FH1GHz_s,smbs_FH2GHz_s,smbs_FH3GHz_s,rs_s,ris_s"
    assert len(lines) == 1 + 101
    err = capsys.readouterr().err
    assert "# smbs_FH2GHz_crossover_S_bits" in err


def test_cli_sweep_ee(tmp_path, capsys):
    out = str(tmp_path / "ee.csv")
    assert main(["sweep-ee", "--out", out, "--grid", "5000"]) == EXIT_OK
    header = read(out).split("\n", 1)[0]
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
    assert len(read(out).strip().split("\n")) == 1 + 6


def test_cli_bad_config_exits_1(tmp_path, capsys):
    cfg_path = write_config(tmp_path, "[radio]\nwarp_factor = 9\n")
    assert main(["sweep-capacity", "--config", cfg_path]) == EXIT_INVALID
    assert "error:" in capsys.readouterr().err
    for text, message in NON_FINITE_CONFIGS:
        cfg_path = write_config(tmp_path, text)
        assert main(["sweep-capacity", "--config", cfg_path]) == EXIT_INVALID
        assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_frequency_outside_model_window_exits_1(tmp_path, capsys):
    # the dry-air attenuation model only covers 1-50 GHz
    cfg_path = write_config(tmp_path, "[radio]\nf = 100e9\n")
    assert main(["sweep-capacity", "--config", cfg_path]) == EXIT_INVALID
    assert capsys.readouterr().err == (
        "error: [radio] f = 100000000000.0 is outside [1e+09, 5e+10]\n")


def test_cli_sweep_outside_its_range_exits_1(tmp_path, capsys):
    # offsets must stay in the corridor [0, D]; task sizes cannot be negative
    cfg_path = write_config(
        tmp_path, "[sweep]\nvariable = x\nstart = 0\nstop = 70000\nstep = 1000\n"
    )
    assert main(["sweep-capacity", "--config", cfg_path]) == EXIT_INVALID
    assert capsys.readouterr().err == "error: [sweep] stop = 70000.0 is outside [0, 60000]\n"
    cfg_path = write_config(
        tmp_path, "[sweep]\nvariable = S\nstart = -1e6\nstop = 1e6\nstep = 1e5\n"
    )
    assert main(["sweep-latency", "--config", cfg_path]) == EXIT_INVALID
    assert capsys.readouterr().err == "error: [sweep] start = -1000000.0 is outside [0, inf)\n"


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
    "F_H_list_empty": (
        "sweep-latency", "[smbs]\nF_H_list = ,\n", r"\[smbs\] F_H_list must not be empty"
    ),
    "cycles_per_bit_zero": (
        "sweep-latency", "[engine]\ncycles_per_bit = 0\n",
        r"\[engine\] cycles_per_bit = 0\.0 is outside \(0, inf\)$",
    ),
    # an atmosphere whose dry-air attenuation overflowed
    "pressure_Pa_overflow": (
        "sweep-capacity", "[radio]\npressure_Pa = 4e8\n",
        r"\[radio\] pressure_Pa = 400000000\.0 is outside \[0, 110000\]$",
    ),
    "temperature_C_near_absolute_zero": (
        "sweep-ee", "[radio]\ntemperature_C = -272.9\n",
        r"\[radio\] temperature_C = -272.9 is outside \[-60, 50\]$",
    ),
    "temperature_C_overflow": (
        "sweep-latency", "[radio]\ntemperature_C = 1e300\n",
        r"\[radio\] temperature_C = 1e\+300 is outside \[-60, 50\]$",
    ),
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


@pytest.mark.parametrize("text, where", [
    ("D = 5\n", "line 1: 'D = 5'"),
    ("[radio]\n  f\n", "line 2: 'f'"),
    ("[radio]\nB = 1e6\n[radio]\n", "line 3: '[radio]'"),
    ("[radio]\nB = 1e6\nB = 2e6\n", "line 3: 'B = 2e6'"),
], ids=["no_section_header", "continues_no_key", "duplicate_section", "duplicate_key"])
def test_cli_unparsable_config_is_one_error_line(tmp_path, capsys, text, where):
    cfg_path = write_config(tmp_path, text)
    assert main(["sweep-capacity", "--config", cfg_path]) == EXIT_INVALID
    assert capsys.readouterr().err == f"error: cannot parse {cfg_path}: {where}\n"


def test_cli_gnuplot_needs_out(tmp_path, capsys):
    assert main(["sweep-capacity", "--emit-gnuplot"]) == EXIT_INVALID
    out = str(tmp_path / "cap.csv")
    assert main(
        ["sweep-capacity", "--out", out, "--grid", "30000", "--emit-gnuplot"]
    ) == EXIT_OK
    script = read(out + ".gp")
    assert out in script
    assert "plot" in script


def test_cli_gnuplot_failure_leaves_no_csv(tmp_path, capsys):
    out = tmp_path / "cap.csv"
    (tmp_path / "cap.csv.gp").mkdir()  # the script cannot be written
    argv = ["sweep-capacity", "--out", str(out), "--grid", "30000", "--emit-gnuplot"]
    assert main(argv) == EXIT_INVALID
    assert "error: [Errno 21] Is a directory" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cap.csv.gp"]


def test_cli_gnuplot_doubles_quotes_in_the_path(tmp_path):
    # gnuplot reads '' as one ' inside a single-quoted string
    folder = tmp_path / "it's"
    folder.mkdir()
    out = str(folder / "cap.csv")
    argv = ["sweep-capacity", "--out", out, "--grid", "30000", "--emit-gnuplot"]
    assert main(argv) == EXIT_OK
    quoted = out.replace("'", "''")
    assert f"plot '{quoted}' using 1:2 with lines" in read(out + ".gp")


@pytest.mark.parametrize("command", [
    ["select", "--kind", "communication"], ["replay", "requests.trace"],
])
@pytest.mark.parametrize("flag", [["--emit-gnuplot"], ["--grid", "1000"]])
def test_cli_sweep_flags_belong_to_the_sweeps(capsys, command, flag):
    # select and replay walk no grid and write no plot
    with pytest.raises(SystemExit) as exit_:
        main(command + flag)
    assert exit_.value.code == 2
    assert "unrecognized arguments: " + " ".join(flag) in capsys.readouterr().err


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
    assert capsys.readouterr().err == "error: min_energy needs a positive qos_min_bps\n"


# a min_energy floor is refused by the Request's own rules, in their
# order, whether select or a trace line builds it
@pytest.mark.parametrize("content_id, qos, message", [
    ("", "", "min_energy needs a positive qos_min_bps"),
    ("", "-5", "qos_min_bps must be positive when given"),
    ("", "nan", "qos_min_bps must be finite, got nan"),
    ("a", "", "communication request must not carry a content_id"),
])
def test_min_energy_floor_refusals_are_the_request_rules(tmp_path, capsys, content_id,
                                                          qos, message):
    argv = ["select", "--kind", "communication", "--objective", "min_energy"]
    argv += ["--content-id", content_id] if content_id else []
    argv += ["--qos-bps", qos] if qos else []
    assert main(argv) == EXIT_INVALID
    assert capsys.readouterr().err == f"error: {message}\n"
    trace = tmp_path / "one.trace"
    trace.write_text(f"0,communication,{content_id},,min_energy,{qos}\n")
    assert main(["replay", str(trace)]) == EXIT_INVALID
    assert capsys.readouterr().err == f"error: line 1: {message}\n"


def test_cli_select_reports_a_refused_request_before_a_refused_scenario(tmp_path, capsys):
    # as replay reports a malformed trace line before the model's refusal,
    # here that every payload carries nothing
    config = write_config(tmp_path, FAR_CORRIDOR)
    argv = ["select", "--kind", "communication", "--config", config]
    assert main(argv + ["--size-bits", "-1"]) == EXIT_INVALID
    assert capsys.readouterr().err == "error: size_bits cannot be negative, got -1.0\n"
    trace = tmp_path / "one.trace"
    trace.write_text("0,communication,,,,\n1,communication,,-1,,\n")
    assert main(["replay", str(trace), "--config", config]) == EXIT_INVALID
    assert capsys.readouterr().err == "error: line 2: size_bits cannot be negative, got -1.0\n"
    # a good request meets the scenario's refusal
    assert main(argv + ["--size-bits", "1"]) == EXIT_INVALID
    assert capsys.readouterr().err == "error: mode unreachable: RIS capacity is zero\n"


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
    lines = read(out).strip().split("\n")
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
    for line in read(out).strip().split("\n")[1:]:
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

# a 1000 km corridor at 50 GHz: at x = 1000 m every payload's capacity
# rounds to zero; at its crest only the surface's does
FAR_CORRIDOR = "[geometry]\nD = 1e6\nx = 1000\n\n[radio]\nf = 5e10\n"
# the same at the least gateway power: the relay's crest carries nothing too
REMOTE_CORRIDOR = "[geometry]\nD = 1e6\n\n[radio]\nf = 5e10\nP0_max = -30\n"
ONE_TASK = "0.0,task_offloading,,1e6,,\n"
# a pushed content id, then a read of it
PUSH_THEN_READ = "0,caching,a,,,\n1,content_delivery,a,,,\n"

# the message names the payload that failed
UNREACHABLE = r"mode unreachable: {} capacity is zero"
SELECT = ["select", "--kind", "communication"]

# Scenarios with an input outside its declared range, where a link-budget
# figure of modes.Corridor would overflow or fall to 0: each file is
# refused as it is loaded, by its first such key in load order.
HUGE_CORRIDOR = "[geometry]\nD = 1e9\nx = 5e8\n"
TALL_CORRIDOR = "[geometry]\nH = 1e9\n"
FAINT_RADIO = "[radio]\nP0_max = -3300\n"
LOUD_RADIO = "[radio]\nP0_max = 1e6\n"
LOUD_ACCESS_RADIO = "[radio]\nP_gNB = 1e6\n"
NOISY_RADIO = "[radio]\nnoise_figure = 1e308\n"
QUIET_RADIO = "[radio]\nnoise_figure = -1e308\n"
HUGE_SURFACE = "[ris]\nN = 1e200\n"
HUGE_SURFACES = "[ris]\nN_list = 1e200\n"
VACUUM = "\n[radio]\npressure_Pa = 0\n"


def outside(key, value, bounds):
    """The refusal of a file whose first out-of-range key is key = value;
    the value is printed as the float the file gives, bounds as printed."""
    return re.escape(f"{key} = {float(value)!r} is outside [{bounds}]") + "$"


LENGTH = "1, 1e+06"
POWER = GAIN = "-30, 100"
HUGE = outside("[geometry] D", "1e+09", LENGTH)
TALL = outside("[geometry] H", "1e+09", LENGTH)
FAINT = outside("[radio] P0_max", "-3300", POWER)
LOUD = outside("[radio] P0_max", "1e+06", POWER)
LOUD_ACCESS = outside("[radio] P_gNB", "1e+06", POWER)
NOISY = outside("[radio] noise_figure", "1e+308", "0, 30")
QUIET = outside("[radio] noise_figure", "-1e+308", "0, 30")
SURFACE = outside("[ris] N", "1e+200", "1, 1e+07")
SURFACES = outside("[ris] N_list", "1e+200", "1, 1e+07")
FAR_D = outside("[geometry] D", "1e+308", LENGTH)

# (config, the command with its trace text for replay, the refusal)
MODEL_ERROR_CASES = {
    # inside every range: a payload that carries nothing is refused
    "far_replay": (
        FAR_CORRIDOR, ["replay", ONE_TASK], "request 0: " + UNREACHABLE.format("RIS"),
    ),
    "far_sweep_latency": (FAR_CORRIDOR, ["sweep-latency"], UNREACHABLE.format("RIS")),
    "remote_sweep_latency": (
        REMOTE_CORRIDOR, ["sweep-latency"], UNREACHABLE.format("RS"),
    ),
    "far_sweep_ee": (
        FAR_CORRIDOR, ["sweep-ee", "--grid", "1e5"],
        r"ris_N10000_ee_spread_pct: the surface's energy efficiency falls to 0",
    ),
    # also where the request has no size
    "far_select": (FAR_CORRIDOR, SELECT, UNREACHABLE.format("RIS") + "$"),
    "far_select_ee": (
        FAR_CORRIDOR, SELECT + ["--objective", "max_energy_efficiency"],
        UNREACHABLE.format("RIS") + "$",
    ),
    "far_push_then_read_replay": (
        FAR_CORRIDOR, ["replay", PUSH_THEN_READ],
        "request 0: " + UNREACHABLE.format("RIS") + "$",
    ),
    # outside a range: refused as the file is loaded
    "huge_replay": (HUGE_CORRIDOR, ["replay", ONE_TASK], HUGE),
    "huge_select": (HUGE_CORRIDOR, SELECT, HUGE),
    "huge_sweep_latency": (HUGE_CORRIDOR, ["sweep-latency"], HUGE),
    "tall_select": (TALL_CORRIDOR, SELECT, TALL),
    "tall_sweep_latency": (TALL_CORRIDOR, ["sweep-latency"], TALL),
    "faint_sweep_capacity": (FAINT_RADIO, ["sweep-capacity"], FAINT),
    "faint_sweep_ee": (FAINT_RADIO, ["sweep-ee"], FAINT),
    "faint_sweep_latency": (FAINT_RADIO, ["sweep-latency"], FAINT),
    "faint_select": (FAINT_RADIO, SELECT, FAINT),
    "loud_sweep_capacity": (LOUD_RADIO, ["sweep-capacity"], LOUD),
    "loud_sweep_latency": (LOUD_RADIO, ["sweep-latency"], LOUD),
    "loud_select": (LOUD_RADIO, SELECT, LOUD),
    "loud_replay": (LOUD_RADIO, ["replay", ONE_TASK], LOUD),
    "loud_access_select": (LOUD_ACCESS_RADIO, SELECT, LOUD_ACCESS),
    "loud_access_replay": (LOUD_ACCESS_RADIO, ["replay", ONE_TASK], LOUD_ACCESS),
    "noisy_sweep_capacity": (NOISY_RADIO, ["sweep-capacity"], NOISY),
    "noisy_sweep_ee": (NOISY_RADIO, ["sweep-ee"], NOISY),
    "noisy_sweep_latency": (NOISY_RADIO, ["sweep-latency"], NOISY),
    "noisy_select": (NOISY_RADIO, SELECT, NOISY),
    "noisy_replay": (NOISY_RADIO, ["replay", ONE_TASK], NOISY),
    "quiet_sweep_capacity": (QUIET_RADIO, ["sweep-capacity"], QUIET),
    "quiet_select": (QUIET_RADIO, SELECT, QUIET),
    "quiet_replay": (QUIET_RADIO, ["replay", ONE_TASK], QUIET),
    "huge_surface_sweep_latency": (HUGE_SURFACE, ["sweep-latency"], SURFACE),
    "huge_surface_select": (HUGE_SURFACE, SELECT, SURFACE),
    "huge_surface_replay": (HUGE_SURFACE, ["replay", ONE_TASK], SURFACE),
    "huge_surfaces_sweep_capacity": (HUGE_SURFACES, ["sweep-capacity"], SURFACES),
    "huge_surfaces_sweep_ee": (HUGE_SURFACES, ["sweep-ee"], SURFACES),
    "subnormal_noise_select": (
        "[radio]\nnoise_figure = -3050\n", SELECT,
        outside("[radio] noise_figure", "-3050", "0, 30"),
    ),
    "narrow_band_sweep_capacity": (
        "[radio]\nB = 1e-300\n", ["sweep-capacity"],
        outside("[radio] B", "1e-300", "1000, 1e+10"),
    ),
    "quiet_receiver_select": (
        "[radio]\nnoise_figure = -2000\n", SELECT,
        outside("[radio] noise_figure", "-2000", "0, 30"),
    ),
    "quiet_receiver_sweep_capacity": (
        "[radio]\nnoise_figure = -2000\n", ["sweep-capacity"],
        outside("[radio] noise_figure", "-2000", "0, 30"),
    ),
    "gateway_1600_dBm_sweep_capacity": (
        "[radio]\nP0_max = 1600\n", ["sweep-capacity"],
        outside("[radio] P0_max", "1600", POWER),
    ),
    "louder_gateway_sweep_capacity": (
        "[radio]\nP0_max = 3000\n", ["sweep-capacity"],
        outside("[radio] P0_max", "3000", POWER),
    ),
    "relay_gain_select": (
        "[radio]\nG_RS = 4000\n", SELECT, outside("[radio] G_RS", "4000", GAIN),
    ),
    "gateway_gain_select": (
        "[radio]\nG0_max = 4000\n", SELECT, outside("[radio] G0_max", "4000", GAIN),
    ),
    "gnb_gain_sweep_capacity": (
        "[radio]\nG_gNB = 4000\n", ["sweep-capacity"], outside("[radio] G_gNB", "4000", GAIN),
    ),
    "access_gain_replay": (
        "[radio]\nG_H_rx = 4000\n", ["replay", ONE_TASK],
        outside("[radio] G_H_rx", "4000", GAIN),
    ),
    "short_hop_select": (
        "[geometry]\nH = 1e-300\n", SELECT, outside("[geometry] H", "1e-300", LENGTH),
    ),
    "short_hops_sweep_capacity": (
        "[geometry]\nH = 1e-140\n", ["sweep-capacity"],
        outside("[geometry] H", "1e-140", LENGTH),
    ),
    # [geometry] is read before [radio]
    "short_access_hop_replay": (
        "[radio]\nG_RS = -2900\n\n[geometry]\nH = 1e-154\n", ["replay", ONE_TASK],
        outside("[geometry] H", "1e-154", LENGTH),
    ),
    "long_hop_select": ("[geometry]\nD = 1e308\nx = 0\n", SELECT, FAR_D),
    "long_hop_sweep_latency": (
        "[geometry]\nD = 1e155\n", ["sweep-latency"],
        outside("[geometry] D", "1e+155", LENGTH),
    ),
    "long_tall_select": (
        "[geometry]\nD = 3e154\nH = 1.4e154\nx = 0\n", SELECT,
        outside("[geometry] D", "3e+154", LENGTH),
    ),
    "longer_tall_sweep_latency": (
        "[geometry]\nD = 1e308\nH = 1.5e154\n", ["sweep-latency"], FAR_D,
    ),
    "long_hop_vacuum_select": (
        "[geometry]\nD = 1e160\nx = 0\n" + VACUUM, SELECT,
        outside("[geometry] D", "1e+160", LENGTH),
    ),
    "longer_tall_vacuum_sweep_latency": (
        "[geometry]\nD = 1e308\nH = 1.5e154\n" + VACUUM, ["sweep-latency"], FAR_D,
    ),
    "longest_hop_sweep_latency": (
        "[geometry]\nD = 1.7e308\nH = 1e308\n", ["sweep-latency"],
        outside("[geometry] D", "1.7e+308", LENGTH),
    ),
    "longest_hop_vacuum_select": (
        "[geometry]\nD = 1.7e308\nH = 1e308\nx = 0\n" + VACUUM, SELECT,
        outside("[geometry] D", "1.7e+308", LENGTH),
    ),
    "tallest_reference_path_vacuum_select": (
        "[geometry]\nD = 1e308\nH = 9e307\nx = 0\n" + VACUUM, SELECT, FAR_D,
    ),
    "scintillation_select": (
        "[radio]\nscintillation_dB = 1e300\n", SELECT,
        outside("[radio] scintillation_dB", "1e+300", "0, 30"),
    ),
}


@pytest.mark.parametrize("case", sorted(MODEL_ERROR_CASES))
def test_cli_model_error_exits_1(tmp_path, capsys, case):
    text, args, name = MODEL_ERROR_CASES[case]
    if args[0] == "replay":
        args = ["replay", write_config(tmp_path, args[1], "one.trace")]
    args = args + ["--config", write_config(tmp_path, text)]
    start = time.perf_counter()
    assert main(args) == EXIT_INVALID
    # refused without walking the corridor
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert re.match("error: .*" + name, captured.err), captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


# ---------------------------------------------------------------
# one payload row behind the engine, offloading and the latency sweep
# ---------------------------------------------------------------

def _value_or_refusal(fn, *args):
    """fn(*args), or the text of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as err:
        return str(err)


def _oracle_task_latency(cfg, mode, size):
    """The reference model's latency of a task of size bits through mode
    at cfg's geometry, or the refusal of a payload that carries nothing."""
    g = cfg.geom
    row = next(r for r in ref.rows(g.D, g.H, g.x, cfg.radio, cfg.configs) if r[0] is mode)
    if not row[1] > 0:
        return f"mode unreachable: {mode.value} capacity is zero"
    return ref.task_latency(row, size, cfg.cycles_per_bit, cfg.configs, cfg.cloud)


def _forced_task_latency(cfg, mode, size):
    """latency_s of a task of size bits forced through mode on cfg's
    engine, or the text of the engine's refusal."""
    ctx, state = build_engine(cfg)
    req = Request(t=0.0, kind=RequestKind.TASK_OFFLOADING, size_bits=size)
    try:
        return replay_trace([req], state, ctx, force_mode=mode).decisions[0].latency_s
    except RequestError as err:  # "request 0: <the refusal>"
        return str(err.__cause__)


@settings(max_examples=40, deadline=None)
@given(
    D=st.floats(1e3, 1e6), H=st.floats(1e3, 5e4), frac=st.floats(0.0, 1.0),
    f=st.one_of(st.just(2e9), st.floats(1e9, 5e10)), P0_max=st.sampled_from([33.0, -30.0]),
    size=st.one_of(st.just(0.0), st.floats(0.0, 1e9)),
)
# FAR_CORRIDOR: every payload here, the surface at its crest too
@example(D=1e6, H=2e4, frac=1e-3, f=5e10, P0_max=33.0, size=1e6)
# REMOTE_CORRIDOR: the relay at its crest too
@example(D=1e6, H=2e4, frac=0.5, f=5e10, P0_max=-30.0, size=5e6)
def test_forced_task_latency_is_the_offload_and_sweep_figure(D, H, frac, f, P0_max, size):
    base = replace(ScenarioConfig(), radio=RadioParams(f=f, P0_max=P0_max),
                   sweep=SweepSpec("S", size, size, 1.0))
    corridor = Corridor(D, H, base.radio)
    at_crest = {}
    for mode in Mode:
        # at the drawn offset, then at the mode's crest, where the sweep puts it
        for x in (frac * D, corridor.best_offset(mode)):
            cfg = replace(base, geom=ScenarioGeometry(D, H, x))
            forced = _forced_task_latency(cfg, mode, size)
            # the same float, or the same refusal
            assert forced == _oracle_task_latency(cfg, mode, size)
        at_crest[mode] = forced
    swept = replace(base, geom=ScenarioGeometry(D, H, D))
    sweep = _value_or_refusal(sweep_latency, swept)
    if isinstance(sweep, str):  # the first column's payload that carries nothing
        order = (Mode.SMBS, Mode.RS, Mode.RIS)
        assert sweep == next(at_crest[m] for m in order if isinstance(at_crest[m], str))
        return
    assert sweep.column("S_bits") == [size]
    assert sweep.column(f"smbs_FH{base.smbs.F_H / 1e9:g}GHz_s") == [at_crest[Mode.SMBS]]
    assert sweep.column("rs_s") == [at_crest[Mode.RS]]
    assert sweep.column("ris_s") == [at_crest[Mode.RIS]]


def test_unreachable_payload_is_refused_in_the_same_words(tmp_path, capsys):
    # select, replay, sweep-latency and modes.carrier word the refusal
    # of a payload that carries nothing alike
    config = write_config(tmp_path, FAR_CORRIDOR)
    cfg = load_config(config)
    trace = tmp_path / "one.trace"
    trace.write_text(ONE_TASK)
    corridor = Corridor(cfg.geom.D, cfg.geom.H, cfg.radio)

    def refusal(mode, x):
        row = next(r for r in corridor.rows(x, cfg.configs) if r[0] is mode)
        with pytest.raises(ValueError) as err:
            carrier(row)
        return str(err.value)

    def error(*args):
        assert main([*args, "--config", config]) == EXIT_INVALID
        return capsys.readouterr().err

    # here no payload carries anything; a task's candidates are priced
    # most passive first, so the surface is named
    ris = refusal(Mode.RIS, cfg.geom.x)
    assert ris == "mode unreachable: RIS capacity is zero"
    assert refusal(Mode.SMBS, cfg.geom.x) == "mode unreachable: SMBS capacity is zero"
    assert error("select", "--kind", "task_offloading", "--size-bits", "1e6") == (
        f"error: {ris}\n"
    )
    assert error("replay", str(trace)) == f"error: request 0: {ris}\n"
    # the sweep puts each payload at its crest: there only the surface fails
    assert refusal(Mode.RIS, corridor.best_offset(Mode.RIS)) == ris
    assert error("sweep-latency") == f"error: {ris}\n"


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
    st.sampled_from(["", *OBJECTIVES, "up"]),
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
