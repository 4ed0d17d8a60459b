"""Seeded inputs for the benchmark workloads.

Each workload is a list of CLI invocations of `hapslink` plus the files
they read. Everything is written into a caller-given scratch directory;
the same seed always yields the same bytes.
"""

import itertools
import math
import os
import random
from dataclasses import dataclass
from typing import Optional

WORKLOADS = ("replay_mixed", "replay_catalog", "sweep_grid")

MIXED_REQUESTS = 20_000
MIXED_IDS = 1_000
MIXED_ZIPF_S = 1.0

CATALOG_REQUESTS = 20_000
CATALOG_IDS = 100_000
CATALOG_ZIPF_S = 0.8
CATALOG_CACHE = 1024

CONTENT_SIZES = (1e6, 2e6, 5e6, 6e6, 8e6, 9e6)
TASK_SIZES = (1e4, 1e5, 1e6, 2e6, 5e6, 1e7)
# The best payload at the default geometry carries ~1.36e8 bps, so the
# 1.5e8 floor makes part of the min_energy and task requests infeasible.
QOS_FLOORS = (5e7, 1e8, 1.2e8, 1.5e8)

# sweep_grid: (command, --grid) on each corridor length
SWEEP_CALLS = (
    ("sweep-capacity", 10.0),
    ("sweep-ee", 10.0),
    ("sweep-latency", 1000.0),
)
SWEEP_CORRIDORS_M = (60000.0, 150000.0)
# the program's default task-size sweep, 0..5 Mbit
S_SWEEP_SPAN = (0.0, 5e6)

TRACE_HEADER = "# columns: t,kind,content_id,size_bits,objective,qos_bps"

# ObjectiveKind value -> trace token
_OBJECTIVE_TOKENS = {
    "max_capacity": "max_capacity",
    "max_energy_efficiency": "max_energy_efficiency",
    "min_energy_subject_to_qos": "min_energy",
}


@dataclass(frozen=True)
class Call:
    """One `hapslink` invocation and what its output must look like."""

    argv: tuple
    out: str
    # replay: the request kinds in trace order; sweep: None
    kinds: Optional[tuple] = None
    # sweep: expected data rows; replay: None
    rows: Optional[int] = None

    @property
    def items(self):
        return len(self.kinds) if self.kinds is not None else self.rows


@dataclass(frozen=True)
class Workload:
    name: str
    config: str          # the config whose load set-up time is measured
    calls: tuple
    traces: tuple        # generated trace files, for the round-trip check

    @property
    def items(self):
        return sum(c.items for c in self.calls)


def _num(value):
    return "" if value is None else repr(float(value))


def _format_line(t, kind, content_id=None, size_bits=None, objective=None, qos=None):
    return ",".join(
        (_num(t), kind, content_id or "", _num(size_bits), objective or "", _num(qos))
    )


def format_request(req):
    """Render a parsed hapslink Request back into trace-line form."""
    objective = None
    if req.objective is not None:
        objective = _OBJECTIVE_TOKENS[req.objective.kind.value]
    return _format_line(
        req.t, req.kind.value, req.content_id, req.size_bits, objective,
        req.qos_min_bps,
    )


def _zipf_ids(rng, n_ids, s, k):
    cum = list(itertools.accumulate(1.0 / rank ** s for rank in range(1, n_ids + 1)))
    return [f"c{i}" for i in rng.choices(range(n_ids), cum_weights=cum, k=k)]


def _mixed_trace(seed):
    """The golden trace's kind mix: 55% content, 5% caching, 20% raw
    communication over three objectives and the default, 20% tasks."""
    rng = random.Random(seed)
    ids = iter(_zipf_ids(rng, MIXED_IDS, MIXED_ZIPF_S, MIXED_REQUESTS))
    lines = [TRACE_HEADER]
    for i in range(MIXED_REQUESTS):
        t = i / 100
        u = rng.random()
        if u < 0.55:
            lines.append(_format_line(t, "content_delivery", next(ids),
                                      rng.choice(CONTENT_SIZES)))
        elif u < 0.60:
            lines.append(_format_line(t, "caching", next(ids),
                                      rng.choice(CONTENT_SIZES)))
        elif u < 0.80:
            objective = rng.choice(("max_capacity", "max_energy_efficiency",
                                    "min_energy", None))
            qos = rng.choice(QOS_FLOORS) if objective == "min_energy" else None
            size = rng.choice(CONTENT_SIZES + (None,))
            lines.append(_format_line(t, "communication", None, size, objective, qos))
        else:
            qos = rng.choice(QOS_FLOORS + (None,) * 4)
            lines.append(_format_line(t, "task_offloading", None,
                                      rng.choice(TASK_SIZES), None, qos))
    return lines


def _catalog_trace(seed):
    """90% content reads and 10% cache pushes over a large catalogue."""
    rng = random.Random(seed)
    ids = _zipf_ids(rng, CATALOG_IDS, CATALOG_ZIPF_S, CATALOG_REQUESTS)
    lines = [TRACE_HEADER]
    for i, content_id in enumerate(ids):
        kind = "content_delivery" if rng.random() < 0.9 else "caching"
        lines.append(_format_line(i / 100, kind, content_id, rng.choice(CONTENT_SIZES)))
    return lines


def _trace_kinds(lines):
    return tuple(line.split(",", 2)[1] for line in lines if not line.startswith("#"))


def _grid_rows(start, stop, step):
    return math.floor((stop - start) / step + 1e-9) + 1


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def _replay(name, tmpdir, lines, config_text):
    config = _write(os.path.join(tmpdir, f"{name}.ini"), config_text)
    trace = _write(os.path.join(tmpdir, f"{name}.trace"), "\n".join(lines) + "\n")
    out = os.path.join(tmpdir, f"{name}.csv")
    call = Call(("replay", trace, "--config", config, "--out", out),
                out, kinds=_trace_kinds(lines))
    return Workload(name, config, (call,), (trace,))


def _sweep_grid(tmpdir):
    calls = []
    configs = []
    for D in SWEEP_CORRIDORS_M:
        config = _write(os.path.join(tmpdir, f"sweep_D{D:g}.ini"),
                        f"[geometry]\nD = {D!r}\n")
        configs.append(config)
        for command, step in SWEEP_CALLS:
            out = os.path.join(tmpdir, f"{command}_D{D:g}.csv")
            span = (0.0, D) if command != "sweep-latency" else S_SWEEP_SPAN
            calls.append(Call(
                (command, "--config", config, "--grid", repr(step), "--out", out),
                out, rows=_grid_rows(span[0], span[1], step),
            ))
    return Workload("sweep_grid", configs[0], tuple(calls), ())


def generate(name, seed, tmpdir):
    """Write the inputs of workload `name` for `seed` into tmpdir."""
    if name == "replay_mixed":
        return _replay(name, tmpdir, _mixed_trace(seed),
                       "[smbs]\ncache_capacity = 16\n")
    if name == "replay_catalog":
        return _replay(name, tmpdir, _catalog_trace(seed),
                       f"[smbs]\ncache_capacity = {CATALOG_CACHE}\n")
    if name == "sweep_grid":
        # the sweeps have no random input: the seed changes nothing here
        return _sweep_grid(tmpdir)
    raise ValueError(f"unknown workload {name!r}")
