"""The record contract every value class of hapslink keeps, and the
import footprint of a CLI run's set-up."""

import math
import os
import re
import subprocess
import sys
from collections import OrderedDict
from typing import get_type_hints

import pytest
from hypothesis import given, strategies as st

import hapslink
from hapslink import (
    Action,
    CacheState,
    CloudConfig,
    EngineContext,
    Mode,
    ModeConfigs,
    ModeDecision,
    Objective,
    ObjectiveKind,
    RadioParams,
    ReplayResult,
    ReplaySummary,
    Request,
    RequestKind,
    RisConfig,
    RsConfig,
    ScenarioConfig,
    ScenarioGeometry,
    SmbsConfig,
    SweepResult,
    SweepSpec,
    replace,
)
from hapslink._record import Record

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

GEOM = ScenarioGeometry(D=60000.0, H=20000.0, x=30000.0)
SUMMARY = ReplaySummary({"RIS": 1, "RS": 0, "SMBS": 0}, 1.5, 0.0, 1)

# The fields each record needs (the rest keep their defaults).
REQUIRED = {
    CloudConfig: {},
    EngineContext: {"geom": GEOM, "radio": RadioParams(),
                    "configs": ModeConfigs()},
    ModeConfigs: {},
    ModeDecision: {"mode": Mode.RIS, "action": Action.FORWARD_VIA_GATEWAY,
                   "objective_value": 2.0},
    Objective: {},
    RadioParams: {},
    ReplayResult: {"decisions": (), "final_state": CacheState(), "summary": SUMMARY},
    ReplaySummary: {"mode_counts": {"RIS": 1}, "total_energy_J": 1.5,
                    "cache_hit_rate": 0.0, "requests": 1},
    Request: {"t": 0.0, "kind": RequestKind.COMMUNICATION},
    RisConfig: {},
    RsConfig: {},
    ScenarioConfig: {},
    ScenarioGeometry: {"D": 60000.0, "H": 20000.0, "x": 30000.0},
    SmbsConfig: {},
    SweepResult: {"header": ("x_m", "y"), "columns": (((0.0,),), ((1.0,),))},
    SweepSpec: {"variable": "x", "start": 0.0, "stop": 1.0, "step": 0.5},
}


def _fields(record):
    return {name: getattr(record, name) for name in record._fields}


def _hashable(value):
    try:
        hash(value)
    except TypeError:
        return False
    return True


def test_every_exported_record_is_covered():
    exported = {
        value for value in vars(hapslink).values()
        if isinstance(value, type) and issubclass(value, Record)
    }
    assert exported == set(REQUIRED)


@pytest.mark.parametrize("cls", sorted(REQUIRED, key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_record_contract(cls):
    record = cls(**REQUIRED[cls])
    fields = _fields(record)

    copy = replace(record)
    assert copy == record and copy is not record

    twin = cls(**REQUIRED[cls])
    assert twin == record
    if all(map(_hashable, fields.values())):
        assert hash(twin) == hash(record)
    else:  # a dict or a mutable state inside: unhashable, as the field is
        with pytest.raises(TypeError):
            hash(record)

    assert cls(*fields.values()) == cls(**fields) == record

    for name, value in fields.items():
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, value)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
    assert _fields(record) == fields

    lookalike = type(cls.__name__, (cls,), {})(**fields)
    assert _fields(lookalike) == fields
    assert record != lookalike and lookalike != record
    assert record != tuple(fields.values())


# each record's fields annotated exactly float or int, read from the
# annotations; Request's t is Optional[float], checked when handled
NUMBER_FIELDS = [
    (cls, name, kind is int)
    for cls in sorted(REQUIRED, key=lambda c: c.__name__)
    for name, kind in get_type_hints(cls).items() if kind in (float, int)
]
# the section a record's refusal names before the field
TAGS = {SweepSpec: "[sweep] ", ScenarioConfig: "[engine] "}


@pytest.mark.parametrize("cls, name, integer", NUMBER_FIELDS,
                         ids=[f"{c.__name__}.{n}" for c, n, _ in NUMBER_FIELDS])
def test_every_number_field_takes_only_a_finite_number(cls, name, integer):
    def build(value):
        return cls(**{**REQUIRED[cls], name: value})

    field = TAGS.get(cls, "") + name
    refusals = [
        (math.nan, f"{field} must be finite, got nan"),
        (math.inf, f"{field} must be finite, got inf"),
        (True, f"{field} must be a number, got True"),
        ("1", f"{field} must be a number, got '1'"),
    ]
    if integer:
        refusals.append((2.5, f"{field} must be an integer, got 2.5"))
    for value, message in refusals:
        with pytest.raises(ValueError) as err:
            build(value)
        assert str(err.value) == message
    if integer:
        value = getattr(build(5e4), name)
        assert value == 50000 and type(value) is int


def test_replace_runs_the_checks_of_direct_construction():
    with pytest.raises(ValueError) as direct:
        RadioParams(f=-1.0)
    with pytest.raises(ValueError) as replaced:
        replace(RadioParams(), f=-1.0)
    assert str(replaced.value) == str(direct.value)
    assert replace(RadioParams(), f=3e9) == RadioParams(f=3e9)


def test_repr_names_every_field_and_no_derived_attribute():
    assert repr(GEOM) == "ScenarioGeometry(D=60000.0, H=20000.0, x=30000.0)"
    ctx = EngineContext(**REQUIRED[EngineContext])
    assert "rows" not in repr(ctx) and ctx.rows
    assert replace(ctx, cycles_per_bit=8.0).rows == ctx.rows


def test_defaults_are_taken_in_field_order():
    req = Request(1.0, RequestKind.CACHING, "c1")
    assert (req.t, req.kind, req.content_id, req.size_bits, req.objective,
            req.qos_min_bps) == (1.0, RequestKind.CACHING, "c1", None, None, None)
    assert Objective() == Objective(ObjectiveKind.MAX_CAPACITY)
    assert ModeConfigs() == ModeConfigs(RsConfig(), RisConfig(), SmbsConfig())
    assert SweepResult(("x",), ()).notes == {}
    assert SweepResult(("x",), ()).notes is not SweepResult(("x",), ()).notes


@pytest.mark.parametrize("call, message", [
    (lambda: ScenarioGeometry(1.0, 2.0, 0.5, 4.0),
     "ScenarioGeometry() takes 3 fields, got 4 arguments"),
    (lambda: ScenarioGeometry(1.0, 2.0, y=0.5), "ScenarioGeometry() has no field 'y'"),
    (lambda: ScenarioGeometry(1.0, 2.0, 0.5, D=1.0),
     "ScenarioGeometry() got field 'D' twice"),
    (lambda: ScenarioGeometry(1.0, x=0.5), "ScenarioGeometry() needs field 'H'"),
    (lambda: replace(GEOM, y=1.0), "ScenarioGeometry() has no field 'y'"),
])
def test_a_misfit_call_is_a_type_error(call, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        call()


class _Probe(Record):
    a: int
    b: int
    c: int = 3
    d: int = 4


def _probe(a, b, c=3, d=4):
    return {"a": a, "b": b, "c": c, "d": d}


@given(st.integers(0, 5), st.lists(st.sampled_from("abcde"), unique=True, max_size=5))
def test_a_record_binds_arguments_as_a_function_would(positional, names):
    args = tuple(range(positional))
    kwargs = {name: 10 + i for i, name in enumerate(names)}
    try:
        expected = _probe(*args, **kwargs)
    except TypeError:
        with pytest.raises(TypeError):
            _Probe(*args, **kwargs)
        return
    assert _fields(_Probe(*args, **kwargs)) == expected


def test_cache_state_compares_by_value_and_order():
    a = CacheState(entries=OrderedDict.fromkeys("ab"), popularity={"a": 1, "b": 2})
    b = a.copy()
    assert a == b and a.entries is not b.entries
    assert a != CacheState(entries=OrderedDict.fromkeys("ba"), popularity=a.popularity)
    assert CacheState() == CacheState() and CacheState().entries is not CacheState().entries
    with pytest.raises(TypeError):
        hash(a)
    assert repr(CacheState()) == (
        "CacheState(capacity=16, popularity_threshold=3, entries=OrderedDict(), "
        "popularity={})"
    )


def test_cli_setup_imports_no_dataclass_machinery():
    # run as a CLI run starts: a fresh isolated interpreter, then the
    # package and the default config; a module the interpreter had
    # already loaded at start-up is not charged to hapslink
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "import hapslink.cli\n"
        "from hapslink.config import load_config\n"
        "load_config(None)\n"
        "print(' '.join(m for m in ('dataclasses', 'inspect')\n"
        "               if m in sys.modules and m not in before))\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "HAPSLINK_CONFIG"}
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout.split() == []
