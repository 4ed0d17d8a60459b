"""The declared model domain: each input of a link budget has one closed
range, and inside those ranges no figure of modes.Corridor leaves the
float range. Every other number field with a range (powers, compute
rates, the cache, the sweep step) declares it the same way, and each
declared range is refused by name, in code as in a file.

Each dB input enters each figure linearly, and a hop is shortest at H and
longest at hypot(D, H), so the extremes of every figure lie at the
corners of the box. The dry-air attenuation is the exception: it is not
obviously monotone in pressure and temperature, so its peak is found by
a dense scan instead.
"""

import contextlib
import io
import itertools
import math
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from hapslink import (
    CacheState,
    CloudConfig,
    ConfigError,
    Corridor,
    EngineContext,
    LinkBudget,
    ModeConfigs,
    RadioParams,
    RisConfig,
    RsConfig,
    ScenarioConfig,
    ScenarioGeometry,
    SmbsConfig,
    SweepSpec,
    db_to_linear,
    dry_air_specific_attenuation,
    load_config,
    ris_placement_roots,
)
from hapslink.cli import EXIT_INVALID, main
from hapslink.propagation import DRY_AIR_F_MAX_HZ, DRY_AIR_F_MIN_HZ

RADIO_BOX = RadioParams._bounds
D_RANGE = ScenarioGeometry._bounds["D"]
H_RANGE = ScenarioGeometry._bounds["H"]
N_RANGE = RisConfig._bounds["N"]


def _positive_normal(value):
    return sys.float_info.min <= value < math.inf


def test_the_box_is_the_documented_one():
    assert RADIO_BOX == {
        "f": (DRY_AIR_F_MIN_HZ, DRY_AIR_F_MAX_HZ),
        "B": (1e3, 1e10),
        "noise_figure": (0.0, 30.0),
        "P_gNB": (-30.0, 100.0),
        "G_gNB": (-30.0, 100.0),
        "P0_max": (-30.0, 100.0),
        "G0_max": (-30.0, 100.0),
        "G_RS": (-30.0, 100.0),
        "G_H_rx": (-30.0, 100.0),
        "scintillation_dB": (0.0, 30.0),
        "pressure_Pa": (0.0, 1.1e5),
        "temperature_C": (-60.0, 50.0),
    }
    assert D_RANGE == H_RANGE == (1.0, 1e6)
    assert N_RANGE == (1, 1e7)
    # and the property below tries every range a record declares
    declared = {(cls, key) for cls in {row[0] for row in BOXED} for key in cls._bounds}
    assert declared <= {(cls, key) for cls, _, key, _ in BOXED}


def test_every_corner_of_the_box_keeps_each_figure_in_the_float_range():
    # 12 radio inputs, D, H and N: 2^15 corners
    names = list(RADIO_BOX)
    surfaces = [ModeConfigs(ris=RisConfig(N=int(n))) for n in N_RANGE]
    corners = 0
    for radio_corner in itertools.product(*RADIO_BOX.values()):
        radio = RadioParams(**dict(zip(names, radio_corner)))
        for D, H, configs in itertools.product(D_RANGE, H_RANGE, surfaces):
            corridor = Corridor(D, H, radio)
            corners += 1
            snrs = corridor.budget.snrs
            assert _positive_normal(corridor._noise_w)
            assert _positive_normal(corridor._ris_gain)
            assert _positive_normal(corridor._ris_loss)
            longest = math.hypot(D, H)
            # each relay hop SNR is least at the longest hop and most at H;
            # the relay's closed form multiplies the two at their most
            (far1,), (near1,) = snrs((longest,), corridor._hop1_dB), snrs((H,), corridor._hop1_dB)
            (far2,), (near2,) = snrs((longest,), corridor._hop2_dB), snrs((H,), corridor._hop2_dB)
            assert _positive_normal(far1) and _positive_normal(far2)
            assert math.isfinite(near1 * near2)
            assert math.isfinite(snrs((H,), corridor._access_dB)[0])
            for x in (0.0, D / 2.0, D):
                for _, capacity, power, path in corridor.rows(x, configs):
                    assert math.isfinite(capacity) and capacity >= 0.0
                    assert math.isfinite(power) and math.isfinite(path)
    assert corners == 2 ** 15


def test_the_dry_air_peak_inside_the_box_keeps_the_link_budget_in_range():
    fs = [DRY_AIR_F_MIN_HZ + i * (DRY_AIR_F_MAX_HZ - DRY_AIR_F_MIN_HZ) / 98 for i in range(99)]
    (p_low, p_high), (t_low, t_high) = RADIO_BOX["pressure_Pa"], RADIO_BOX["temperature_C"]
    pressures = [p_low + i * (p_high - p_low) / 44 for i in range(45)]
    temperatures = [t_low + i * (t_high - t_low) / 44 for i in range(45)]
    peak = max(
        dry_air_specific_attenuation(f, p, t)
        for f, p, t in itertools.product(fs, pressures, temperatures)
    )
    assert 0.7 < peak < 0.8  # dB/km, at 50 GHz, full pressure and the coldest air
    # the weakest relay hop: least gains, most noise, the longest hop, and
    # the peak attenuation
    radio = RadioParams(f=DRY_AIR_F_MAX_HZ, B=1e10, noise_figure=30.0, scintillation_dB=30.0)
    budget = LinkBudget(radio)
    budget.gamma0 = peak
    longest = math.hypot(D_RANGE[1], H_RANGE[1])
    (snr,) = budget.snrs((longest,), 3 * RADIO_BOX["P0_max"][0])
    assert _positive_normal(snr)
    # the surface's reference path is at most twice the longest hop
    assert math.isfinite(db_to_linear(peak * 2.0 * longest / 1000.0 + 2.0 * 30.0))


# (record, section, key, the range as a refusal prints it) of each field
# that declares a range, and of each copy that takes its owner's range:
# N_list entries [ris] N's, F_H_list entries [smbs] F_H's, CacheState's
# capacity [smbs] cache_capacity's. A "(" end is open, as is an infinite
# one; section is None where no file key sets the field by that name.
BOXED = [(RadioParams, "radio", key, f"[{low:g}, {high:g}]")
         for key, (low, high) in RADIO_BOX.items()] + [
    (ScenarioGeometry, "geometry", "D", "[1, 1e+06]"),
    (ScenarioGeometry, "geometry", "H", "[1, 1e+06]"),
    (RsConfig, "rs", "payload_power_W", "(0, inf)"),
    (RisConfig, "ris", "N", "[1, 1e+07]"),
    (RisConfig, "ris", "beta", "(0, 1]"),
    (RisConfig, "ris", "per_element_power_W", "(0, inf)"),
    (ScenarioConfig, "ris", "N_list", "[1, 1e+07]"),
    (SmbsConfig, "smbs", "F_H", "(0, inf)"),
    (SmbsConfig, "smbs", "payload_power_W", "(0, inf)"),
    (SmbsConfig, "smbs", "cache_capacity", "[0, inf)"),
    (ScenarioConfig, "smbs", "F_H_list", "(0, inf)"),
    (CloudConfig, "cloud", "F_C", "(0, inf)"),
    (ScenarioConfig, "engine", "popularity_threshold", "[1, inf)"),
    (ScenarioConfig, "engine", "cycles_per_bit", "(0, inf)"),
    (EngineContext, "engine", "cycles_per_bit", "(0, inf)"),
    (SweepSpec, "sweep", "step", "(0, inf)"),
    (CacheState, None, "capacity", "[0, inf)"),
    (CacheState, None, "popularity_threshold", "[1, inf)"),
]
WHOLE = {"N", "N_list", "cache_capacity", "popularity_threshold", "capacity"}


def _build(cls, key, value):
    """The record of the default scenario with key set to value."""
    if cls is ScenarioGeometry:
        return ScenarioGeometry(**{"D": 60000.0, "H": 20000.0, "x": 0.0, key: value})
    if key == "N_list":
        return ScenarioConfig(ris_N_list=(value,))
    if key == "F_H_list":
        return ScenarioConfig(smbs_F_H_list=(value,))
    if cls is SweepSpec:  # a one-point grid, whatever the step
        return SweepSpec("S", 0.0, 0.0, value)
    if cls is EngineContext:
        return EngineContext(ScenarioGeometry(60000.0, 20000.0, 0.0), RadioParams(),
                             ModeConfigs(), cycles_per_bit=value)
    return cls(**{key: value})


def _file(section, key, value):
    """A scenario file that sets key = value and nothing else wrong."""
    if section == "sweep":
        return f"[sweep]\nvariable = S\nstart = 0\nstop = 0\n{key} = {value!r}\n"
    return f"[{section}]\n{key} = {value!r}\n"


def _refused(tmp_path_factory, cls, section, key, value, refusal):
    """value is refused with refusal(value) in code, and under [section]
    in a file, by load_config and by the CLI; a file gives a float."""
    message = refusal(value)
    with pytest.raises(ValueError) as err:
        _build(cls, key, value)
    assert str(err.value) == message
    if cls is ScenarioGeometry:  # the corridor checks its D and H by the same range
        D, H = (value, 20000.0) if key == "D" else (60000.0, value)
        for build in (lambda: Corridor(D, H, RadioParams()), lambda: ris_placement_roots(D, H)):
            with pytest.raises(ValueError) as err:
                build()
            assert str(err.value) == message
    if section is None:
        return
    path = tmp_path_factory.mktemp("box") / "scenario.ini"
    path.write_text(_file(section, key, value))
    message = refusal(float(value))
    in_file = message if message.startswith("[") else f"[{section}] {message}"
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert str(err.value) == in_file
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        assert main(["sweep-capacity", "--config", str(path)]) == EXIT_INVALID
    assert stderr.getvalue() == f"error: {in_file}\n"


@settings(max_examples=6, deadline=None)
@given(step=st.one_of(st.just(0.0), st.floats(1e-9, 1.0)))
@example(step=0.0)
def test_a_value_just_outside_its_range_is_refused_by_name(tmp_path_factory, step):
    for (cls, section, key, printed), high in itertools.product(BOXED, (False, True)):
        low, top = (float(end) for end in printed[1:-1].split(", "))
        bound = top if high else low
        label = f"[{section}] {key}" if cls in (ScenarioConfig, SweepSpec) else key
        if math.isinf(bound):
            # no finite value reaches it: the largest is taken, inf refused
            _build(cls, key, sys.float_info.max)
            _refused(tmp_path_factory, cls, section, key, math.inf,
                     lambda v: f"{label} must be finite, got {v}")
            continue

        def outside(v):
            return f"{label} = {v!r} is outside {printed}"

        outward = 1 if high else -1
        if key in WHOLE:  # a whole number of elements, entries or requests
            bound = int(bound)
            value = bound + outward * (1 + int(step * 1000))
        else:  # the next float past the bound, or a relative step past it
            value = math.nextafter(bound, outward * math.inf)
            value += outward * step * max(1.0, abs(bound))
        if (printed[-1] if high else printed[0]) in "[]":
            _build(cls, key, bound)  # a closed end is taken
        else:
            _refused(tmp_path_factory, cls, section, key, bound, outside)
        # the value is printed so that it reads back, never as the bound
        assert repr(value) != f"{bound:g}"
        _refused(tmp_path_factory, cls, section, key, value, outside)
