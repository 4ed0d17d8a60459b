"""
Request-driven payload selection
================================

Feeds a short mixed trace through the selection engine: content
requests ramp a video's popularity until it gets cached onboard, a
push pre-loads another id, tasks pick their compute site by latency,
and raw link requests state their own objectives. The same trace is
then forced through a single payload to show what the selection saves.
"""

from hapslink import (
    CacheState,
    CloudConfig,
    EngineContext,
    Mode,
    ModeConfigs,
    RadioParams,
    Request,
    RequestKind,
    ScenarioGeometry,
    replay_trace,
)

ctx = EngineContext(
    geom=ScenarioGeometry(D=60000.0, H=20000.0, x=30000.0),
    radio=RadioParams(),
    configs=ModeConfigs(),
    cloud=CloudConfig(),
)

# three sightings push "vid" over the default popularity threshold;
# after that the platform serves it straight from the onboard cache
trace = [
    Request(t=0.0, kind=RequestKind.CONTENT_DELIVERY, content_id="vid", size_bits=5e6),
    Request(t=1.0, kind=RequestKind.CONTENT_DELIVERY, content_id="vid", size_bits=5e6),
    Request(t=2.0, kind=RequestKind.CONTENT_DELIVERY, content_id="vid", size_bits=5e6),
    Request(t=3.0, kind=RequestKind.CONTENT_DELIVERY, content_id="vid", size_bits=5e6),
    Request(t=4.0, kind=RequestKind.CACHING, content_id="patch", size_bits=2e6),
    Request(t=5.0, kind=RequestKind.CONTENT_DELIVERY, content_id="patch", size_bits=2e6),
    Request(t=6.0, kind=RequestKind.TASK_OFFLOADING, size_bits=1e4),
    Request(t=7.0, kind=RequestKind.TASK_OFFLOADING, size_bits=5e6),
    Request(t=8.0, kind=RequestKind.COMMUNICATION, size_bits=1e6),
]

result = replay_trace(trace, CacheState(), ctx)
print("decision per request")
for req, dec in zip(trace, result.decisions):
    extra = f", {1e3 * dec.latency_s:7.3f} ms" if dec.latency_s is not None else ""
    print(f"  t={req.t:3.0f} {req.kind.value:16s} -> "
          f"{dec.mode.value:4s} {dec.action.value:19s}{extra}")

s = result.summary
print(f"\ncache hit rate: {s.cache_hit_rate:.2f}, "
      f"payload energy: {s.total_energy_J:.1f} J")

# what would a single fixed payload have cost?
for mode in (Mode.RIS, Mode.RS, Mode.SMBS):
    forced = replay_trace(trace, CacheState(), ctx, force_mode=mode)
    print(f"forced {mode.value:4s}: {forced.summary.total_energy_J:7.1f} J")
print("\nselection beats any always-on active payload; the pure surface")
print("is cheaper still but cannot cache or compute onboard")
