"""Span tracing of hapslink's public functions, installed from outside.

`install` wraps each function in SPANS with a timer. A wrapped function
is replaced under every name that bound it in any hapslink module, so a
call through `engine.select_mode_for_communication` is seen as well as
one through `optimizer.select_mode_for_communication`. Spans (name,
start, end, parent span, request id) are kept in flat arrays while the
program runs and written out by `Tracer.dump`; `analyse` turns the dump
into per-function call counts, self times and per-kind latencies.

A function that no longer exists is listed in `Tracer.absent` instead of
failing the run.
"""

import functools
import importlib
import json
import math
import sys
from array import array
from time import perf_counter

# (hapslink submodule, attribute path, span name)
SPANS = (
    ("cli", "main", "cli.main"),
    ("config", "load_config", "config.load_config"),
    ("engine", "load_trace", "engine.load_trace"),
    ("engine", "parse_trace_line", "engine.parse_trace_line"),
    ("engine", "replay_trace", "engine.replay_trace"),
    ("engine", "handle_request", "engine.handle_request"),
    ("engine", "CacheState.copy", "engine.cache.copy"),
    ("engine", "decisions_to_csv", "engine.decisions_to_csv"),
    ("optimizer", "select_mode_for_communication",
     "optimizer.select_mode_for_communication"),
    ("optimizer", "optimize_alpha", "optimizer.optimize_alpha"),
    ("optimizer", "golden_section_max", "optimizer.golden_section_max"),
    ("optimizer", "optimize_placement_numeric",
     "optimizer.optimize_placement_numeric"),
    ("modes", "mode_capacity_bps_hz", "modes.mode_capacity_bps_hz"),
    ("modes", "ris_capacity", "modes.ris_capacity"),
    ("modes", "rs_capacity", "modes.rs_capacity"),
    ("modes", "rs_hop_snrs_full_power", "modes.rs_hop_snrs_full_power"),
    ("propagation", "link_snr_linear", "propagation.link_snr_linear"),
    ("propagation", "dry_air_specific_attenuation",
     "propagation.dry_air_specific_attenuation"),
    ("offload", "offload_latency", "offload.offload_latency"),
    ("sweeps", "sweep_capacity", "sweeps.sweep_capacity"),
    ("sweeps", "sweep_ee", "sweeps.sweep_ee"),
    ("sweeps", "sweep_latency", "sweeps.sweep_latency"),
    ("sweeps", "SweepResult.to_csv", "sweeps.SweepResult.to_csv"),
)

# Counted, not timed: each new cache entry and the entries it pushed out.
CACHE_INSERT = ("engine", "CacheState.insert")

REQUEST_KINDS = ("communication", "content_delivery", "caching", "task_offloading")

_ARRAYS = (("name", "i"), ("parent", "i"), ("request", "i"),
           ("start", "d"), ("end", "d"))


class Tracer:
    """In-memory span store. Spans of one request share a request id:
    the n-th parsed trace line and the n-th handle_request call both
    carry id n; spans outside any request carry -1."""

    def __init__(self):
        self.names = []
        self.spans = {key: array(code) for key, code in _ARRAYS}
        self.request_kind = array("i")  # kind index per handle_request id
        self.parsed = 0
        self.current = -1
        self.current_request = -1
        self.counters = {
            "optimizer.golden_section_max.iterations": 0,
            "engine.infeasible": 0,
            "engine.content_requests": 0,
            "engine.cache.serve_direct": 0,
            "engine.cache.inserts": 0,
            "engine.cache.evictions": 0,
        }
        self.absent = []

    def wrap(self, name, fn, before=None, after=None):
        """Timed wrapper for fn. before(args) may return a request id for
        the span's subtree; after(span, args, result) sees each return."""
        name_id = len(self.names)
        self.names.append(name)
        s = self.spans
        names, parents, requests = s["name"], s["parent"], s["request"]
        starts, ends = s["start"], s["end"]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            outer, outer_request = tracer.current, tracer.current_request
            request = outer_request if before is None else before(args)
            names.append(name_id)
            parents.append(outer)
            requests.append(request)
            ends.append(0.0)
            tracer.current, tracer.current_request = index, request
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                tracer.current, tracer.current_request = outer, outer_request
            if after is not None:
                after(index, args, result)
            return result

        return traced

    # -- per-function hooks ---------------------------------------------

    def _parse_before(self, args):
        return self.parsed

    def _parse_after(self, index, args, result):
        if result is None:  # comment or blank line
            self.spans["request"][index] = -1
        else:
            self.parsed += 1

    def _handle_before(self, args):
        kind = getattr(getattr(args[0], "kind", None), "value", None)
        self.request_kind.append(
            REQUEST_KINDS.index(kind) if kind in REQUEST_KINDS else -1
        )
        return len(self.request_kind) - 1

    def _handle_after(self, index, args, result):
        decision = result[0] if isinstance(result, tuple) else result
        action = decision.action.value
        c = self.counters
        if action == "infeasible":
            c["engine.infeasible"] += 1
        if args[0].kind.value == "content_delivery":
            c["engine.content_requests"] += 1
            if action == "serve_direct":
                c["engine.cache.serve_direct"] += 1

    def _golden_after(self, index, args, result):
        self.counters["optimizer.golden_section_max.iterations"] += result[2]

    def _counted_insert(self, fn):
        c = self.counters

        @functools.wraps(fn)
        def insert(state, content_id):
            before = len(state.entries)
            present = content_id in state.entries
            result = fn(state, content_id)
            if not present and content_id in state.entries:
                c["engine.cache.inserts"] += 1
                c["engine.cache.evictions"] += before + 1 - len(state.entries)
            return result

        return insert

    def hooks(self, name):
        """(before, after) for the span `name`."""
        return {
            "engine.parse_trace_line": (self._parse_before, self._parse_after),
            "engine.handle_request": (self._handle_before, self._handle_after),
            "optimizer.golden_section_max": (None, self._golden_after),
        }.get(name, (None, None))

    # -- output ---------------------------------------------------------

    def dump(self, path):
        """Write the spans to path (JSON header line, then raw arrays)."""
        header = {
            "names": self.names,
            "count": len(self.spans["name"]),
            "request_kind": self.request_kind.tolist(),
            "counters": self.counters,
            "absent": self.absent,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for key, _ in _ARRAYS:
                self.spans[key].tofile(fh)


def _resolve(package, module, path):
    """(owner, attribute, value) for module/path, or None if it is gone."""
    try:
        owner = importlib.import_module(f"{package}.{module}")
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, parts[-1], None)
    if value is None:
        return None
    return owner, parts[-1], value


def _rebind(package, owner, attribute, original, replacement):
    if isinstance(owner, type):  # a method: the class is shared by all
        setattr(owner, attribute, replacement)
        return
    for name, module in list(sys.modules.items()):
        if module is None or not (name == package or name.startswith(package + ".")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def install(package="hapslink"):
    """Wrap every function in SPANS that exists; returns the Tracer."""
    tracer = Tracer()
    for module, path, name in SPANS:
        found = _resolve(package, module, path)
        if found is None:
            tracer.absent.append(name)
            continue
        owner, attribute, fn = found
        before, after = tracer.hooks(name)
        wrapper = tracer.wrap(name, fn, before, after)
        _rebind(package, owner, attribute, fn, wrapper)
    found = _resolve(package, *CACHE_INSERT)
    if found is None:
        tracer.absent.append("engine.cache.insert")
    else:
        owner, attribute, fn = found
        _rebind(package, owner, attribute, fn, tracer._counted_insert(fn))
    return tracer


def _percentile(sorted_values, q):
    """Nearest-rank percentile; 0 when there are no values."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(1, math.ceil(len(sorted_values) * q / 100)) - 1]


def load(path):
    """Read a dump back: (header, {array name: array})."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        spans = {}
        for key, code in _ARRAYS:
            arr = array(code)
            arr.fromfile(fh, n)
            spans[key] = arr
    return header, spans


def analyse(path):
    """Per-name calls and self time, per-kind handle_request latency
    percentiles and the recorded counters, from one dump."""
    header, s = load(path)
    names = header["names"]
    name, parent, start, end = s["name"], s["parent"], s["start"], s["end"]
    n = header["count"]
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    calls = [0] * len(names)
    self_s = [0.0] * len(names)
    handle = names.index("engine.handle_request") if "engine.handle_request" in names else -1
    per_kind = {kind: [] for kind in REQUEST_KINDS}
    kinds = header["request_kind"]
    request = s["request"]
    for i in range(n):
        k = name[i]
        duration = end[i] - start[i]
        calls[k] += 1
        self_s[k] += duration - child[i]
        if k == handle:
            kind = kinds[request[i]]
            if kind >= 0:
                per_kind[REQUEST_KINDS[kind]].append(duration)
    out = {
        "calls": dict(zip(names, calls)),
        "self_s": dict(zip(names, self_s)),
        "counters": header["counters"],
        "absent": header["absent"],
        "latency_us": {},
    }
    for kind, durations in per_kind.items():
        durations.sort()
        out["latency_us"][kind] = {
            "p50": 1e6 * _percentile(durations, 50),
            "p99": 1e6 * _percentile(durations, 99),
        }
    return out
