"""The benchmark's metric names, units and better directions.

Each per-layer group names the end-to-end metric and the workloads that
layer's numbers should move, so a change to one layer can state its
expected effect before it is measured.
"""

from spans import REQUEST_KINDS

END_TO_END = (
    ("items_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

# (moves, [(name, unit, better), ...])
PER_LAYER_GROUPS = (
    ("items_per_s and peak_rss_mb on replay_mixed and replay_catalog "
     "(trace parse, replay loop, render)", [
        ("engine.load_trace.self_s", "s", "lower"),
        ("engine.parse_trace_line.calls", "count", "lower"),
        ("engine.replay_trace.self_s", "s", "lower"),
        ("engine.decisions_to_csv.self_s", "s", "lower"),
    ]),
    ("items_per_s on replay_mixed and replay_catalog (decide)", [
        ("engine.handle_request.calls", "count", "lower"),
        ("engine.handle_request.self_s", "s", "lower"),
        *[(f"engine.handle_request.{kind}.{stat}", "us", "lower")
          for kind in REQUEST_KINDS for stat in ("p50_us", "p99_us")],
        ("engine.infeasible", "count", "lower"),
    ]),
    ("items_per_s and peak_rss_mb on replay_catalog; small on replay_mixed "
     "(cache)", [
        ("engine.cache.copy.calls", "count", "lower"),
        ("engine.cache.copy.self_s", "s", "lower"),
        ("engine.cache.inserts", "count", "lower"),
        ("engine.cache.evictions", "count", "lower"),
        ("engine.cache.hit_ratio", "ratio", "higher"),
    ]),
    ("items_per_s on replay_mixed and sweep_grid (selection, relay split)", [
        ("optimizer.select_mode_for_communication.calls", "count", "lower"),
        ("optimizer.select_mode_for_communication.self_s", "s", "lower"),
        ("optimizer.optimize_alpha.calls", "count", "lower"),
        ("optimizer.optimize_alpha.self_s", "s", "lower"),
        ("optimizer.optimize_alpha.per_request", "calls/req", "lower"),
        ("optimizer.golden_section_max.iterations", "count", "lower"),
    ]),
    ("items_per_s on sweep_grid only (placement search)", [
        ("optimizer.optimize_placement_numeric.calls", "count", "lower"),
        ("optimizer.optimize_placement_numeric.self_s", "s", "lower"),
    ]),
    ("items_per_s on replay_mixed and sweep_grid (capacity laws)", [
        ("modes.mode_capacity_bps_hz.calls", "count", "lower"),
        ("modes.mode_capacity_bps_hz.self_s", "s", "lower"),
        ("modes.ris_capacity.calls", "count", "lower"),
        ("modes.ris_capacity.self_s", "s", "lower"),
        ("modes.rs_capacity.calls", "count", "lower"),
        ("modes.rs_hop_snrs_full_power.calls", "count", "lower"),
    ]),
    ("items_per_s on sweep_grid and replay_mixed (link budget)", [
        ("propagation.link_snr_linear.calls", "count", "lower"),
        ("propagation.link_snr_linear.self_s", "s", "lower"),
        ("propagation.dry_air_specific_attenuation.calls", "count", "lower"),
    ]),
    ("items_per_s on sweep_grid (latency sweep) and replay_mixed (tasks)", [
        ("offload.offload_latency.calls", "count", "lower"),
        ("offload.offload_latency.self_s", "s", "lower"),
    ]),
    ("items_per_s on sweep_grid (sweep loops, render)", [
        ("sweeps.sweep_capacity.self_s", "s", "lower"),
        ("sweeps.sweep_ee.self_s", "s", "lower"),
        ("sweeps.sweep_latency.self_s", "s", "lower"),
        ("sweeps.SweepResult.to_csv.self_s", "s", "lower"),
    ]),
    ("setup_s on every workload (config parse)", [
        ("config.load_config.self_s", "s", "lower"),
    ]),
    ("items_per_s on every workload (argument parsing, file writes)", [
        ("cli.main.self_s", "s", "lower"),
    ]),
    ("none: the cost of tracing itself", [
        ("trace.overhead_frac", "frac", "lower"),
    ]),
)

PER_LAYER = tuple(m for _, group in PER_LAYER_GROUPS for m in group)

# Timings vary run to run; every other per-layer value must repeat exactly.
TIMING_UNITS = ("s", "us")


def per_layer_values(analysis):
    """Every per-layer metric from one traced pass's span analysis. A
    function that was not called, or no longer exists, reads as 0."""
    calls, self_s = analysis["calls"], analysis["self_s"]
    counters = analysis["counters"]
    values = {f"{span}.calls": n for span, n in calls.items()}
    values.update({f"{span}.self_s": t for span, t in self_s.items()})
    for kind, p in analysis["latency_us"].items():
        values[f"engine.handle_request.{kind}.p50_us"] = p["p50"]
        values[f"engine.handle_request.{kind}.p99_us"] = p["p99"]
    for key in ("optimizer.golden_section_max.iterations", "engine.infeasible",
                "engine.cache.inserts", "engine.cache.evictions"):
        values[key] = counters[key]
    handled = calls.get("engine.handle_request", 0)
    values["optimizer.optimize_alpha.per_request"] = (
        calls.get("optimizer.optimize_alpha", 0) / handled if handled else 0.0
    )
    content = counters["engine.content_requests"]
    values["engine.cache.hit_ratio"] = (
        counters["engine.cache.serve_direct"] / content if content else 0.0
    )
    return {name: values.get(name, 0) for name, _, _ in PER_LAYER
            if name != "trace.overhead_frac"}
