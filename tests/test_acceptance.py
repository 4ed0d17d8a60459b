"""End-to-end checks, one per shipped guarantee.

Each test prints a single PASS line (run with -s to see them) and the
timing harness at the bottom bounds the cumulative runtime of the
default-sweep checks. Frozen constants in this file are regression
values computed once from the model and pinned.
"""

import os
import random
import time
from contextlib import contextmanager

import pytest

from hapslink import (
    CacheState,
    CloudConfig,
    Corridor,
    Mode,
    Objective,
    ObjectiveKind,
    RequestError,
    Request,
    RequestKind,
    build_engine,
    decisions_to_csv,
    handle_request,
    load_config,
    load_trace,
    relay_optimal_splits,
    replace,
    replay_trace,
    ris_placement_roots,
    sweep_capacity,
    sweep_ee,
    sweep_latency,
)
from hapslink.modes import RisConfig
from hapslink.optimizer import best_payload

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
GOLDEN_TRACE = os.path.join(DATA_DIR, "golden_trace.txt")
GOLDEN_DECISIONS = os.path.join(DATA_DIR, "golden_decisions.csv")

# cumulative wall-clock budget for the default-sweep checks (1 through 6)
DURATIONS = {}

# offload crossover sizes in bits at the per-mode optimal placements,
# pinned after first derivation
FROZEN_CROSSOVERS = {
    1e9: 62033.97787598333,
    2e9: 175899.8820141773,
    3e9: 453171.4768792636,
}


@contextmanager
def timed(key):
    start = time.perf_counter()
    yield
    DURATIONS[key] = time.perf_counter() - start


def corridor_of(cfg, radio=None):
    return Corridor(cfg.geom.D, cfg.geom.H, radio or cfg.radio)


# ---------------------------------------------------------------
# 1. reflected-path placement matches the closed-form offsets
# ---------------------------------------------------------------

def test_criterion_01_ris_placement_roots():
    cfg = load_config(None)
    step = 10.0
    with timed("c1"):
        xs = [i * step for i in range(int(cfg.geom.D / step) + 1)]
        (caps,) = corridor_of(cfg).columns(xs, (cfg.ris,))[2]
        best = max(range(len(xs)), key=lambda i: caps[i])
    elapsed = DURATIONS["c1"]
    roots = ris_placement_roots(cfg.geom.D, cfg.geom.H)
    assert len(roots) == 2
    assert min(abs(xs[best] - r) for r in roots) <= step

    # the other peak: same height, also on top of its root
    far = [i for i, x in enumerate(xs) if abs(x - xs[best]) > 10000.0]
    other = max(far, key=lambda i: caps[i])
    assert min(abs(xs[other] - r) for r in roots) <= step
    assert caps[other] == pytest.approx(caps[best], rel=1e-9)
    assert elapsed < 5.0
    print(f"PASS 1: capacity peaks at {roots[0]:.1f}/{roots[1]:.1f} m "
          f"on a {step:g} m grid ({elapsed:.2f}s)")


# ---------------------------------------------------------------
# 2. relay capacity peaks on top of the gNB
# ---------------------------------------------------------------

def test_criterion_02_rs_placement_at_gnb():
    cfg = load_config(None)
    step = 100.0
    with timed("c2"):
        xs = [i * step for i in range(int(cfg.geom.D / step) + 1)]
        _, caps = relay_optimal_splits(*corridor_of(cfg).columns(xs)[:2])
        best = max(range(len(xs)), key=lambda i: caps[i])
    assert abs(xs[best] - cfg.geom.D) <= step
    print(f"PASS 2: relay capacity argmax {xs[best]:.0f} m is within one "
          f"{step:g} m step of D = {cfg.geom.D:.0f} m")


# ---------------------------------------------------------------
# 3. power-split optimizer against a brute-force oracle
# ---------------------------------------------------------------

def test_criterion_03_alpha_optimizer_oracle():
    cfg = load_config(None)
    rng = random.Random(7)
    alphas = [1e-4 + i * 1e-4 for i in range(9999)]  # 1e-4, 2e-4, ... below 1
    with timed("c3"):
        for _ in range(10):
            D = rng.uniform(40000.0, 80000.0)
            H = rng.uniform(18000.0, 22000.0)
            x = rng.uniform(0.05 * D, 0.95 * D)
            (snr1,), (snr2,), _ = Corridor(D, H, cfg.radio).columns((x,))
            # the first split of the largest weaker hop
            best = max(range(len(alphas)),
                       key=lambda i: min(alphas[i] * snr1, (1 - alphas[i]) * snr2))
            oracle = alphas[best]
            (alpha_opt,), _ = relay_optimal_splits((snr1,), (snr2,))
            assert abs(alpha_opt - oracle) <= 2e-4

        result = sweep_capacity(cfg)
        cap05 = result.column("rs_alpha05_bps_hz")
        capopt = result.column("rs_alpha_opt_bps_hz")
        for c5, co in zip(cap05, capopt):
            assert co >= c5 * (1.0 - 1e-12)
    print(f"PASS 3: alpha within 2e-4 of the 1e-4-grid oracle at 10 random "
          f"geometries; fixed alpha=0.5 loses up to "
          f"{result.notes['alpha05_max_degradation_pct']:.2f}% "
          f"({result.notes['alpha05_degradation_at_stop_pct']:.2f}% at x = D)")


# ---------------------------------------------------------------
# 4. reflected-path SNR scales with the square of the element count
# ---------------------------------------------------------------

def test_criterion_04_ris_scaling_law():
    cfg = load_config(None)
    with timed("c4"):
        corridor, x = corridor_of(cfg), cfg.geom.x
        for n in (1, 10, 10000):
            snr_n = corridor.ris_snr(x, RisConfig(N=n))
            snr_2n = corridor.ris_snr(x, RisConfig(N=2 * n))
            assert snr_2n / snr_n == pytest.approx(4.0, rel=1e-12)

        result = sweep_capacity(cfg)
        columns = [result.column(f"ris_N{n}_bps_hz") for n in cfg.ris_N_list]
        for row_vals in zip(*columns):
            for small, big in zip(row_vals, row_vals[1:]):
                assert big > small
    print("PASS 4: doubling N quadruples the reflected SNR; capacity "
          "columns strictly ordered in N on every sweep row")


# ---------------------------------------------------------------
# 5. passive surface beats the relay on bits per joule everywhere
# ---------------------------------------------------------------

def test_criterion_05_ee_ordering():
    cfg = load_config(None)
    with timed("c5"):
        result = sweep_ee(cfg)
        rs05 = result.column("ee_rs_alpha05_bits_per_J")
        rsopt = result.column("ee_rs_alpha_opt_bits_per_J")
        for n in cfg.ris_N_list:
            ris = result.column(f"ee_ris_N{n}_bits_per_J")
            for e_ris, e_05, e_opt in zip(ris, rs05, rsopt):
                assert e_ris > e_05
                assert e_ris > e_opt
    spreads = ", ".join(
        f"N={n}: {result.notes[f'ris_N{n}_ee_spread_pct']:.2f}%"
        for n in cfg.ris_N_list
    )
    print(f"PASS 5: surface EE above relay EE at every offset; EE spread "
          f"across x ({spreads})")


# ---------------------------------------------------------------
# 6. offload latency: affine in S, one crossover per onboard clock
# ---------------------------------------------------------------

def test_criterion_06_latency_affine_and_crossovers():
    cfg = load_config(None)
    with timed("c6"):
        result = sweep_latency(cfg)
        n_fh = len(cfg.smbs_F_H_list)
        names = list(result.header[1:])
        for name in names:
            col = result.column(name)
            scale = max(abs(v) for v in col)
            for i in range(1, len(col) - 1):
                assert abs(col[i + 1] - 2 * col[i] + col[i - 1]) <= 1e-9 * scale

        rs_col = result.column("rs_s")
        ris_col = result.column("ris_s")
        relay_best = [min(a, b) for a, b in zip(rs_col, ris_col)]
        for j, fh in enumerate(cfg.smbs_F_H_list):
            col = result.column(names[j])
            assert col[0] < relay_best[0]  # onboard wins the tiny tasks
            diffs = [c - r for c, r in zip(col, relay_best)]
            flips = sum(
                1 for a, b in zip(diffs, diffs[1:]) if a < 0 <= b
            )
            assert flips == 1
            note = result.notes[f"smbs_FH{fh / 1e9:g}GHz_crossover_S_bits"]
            assert note == pytest.approx(FROZEN_CROSSOVERS[fh], rel=1e-9)
    crossings = ", ".join(
        f"{fh / 1e9:g} GHz: {FROZEN_CROSSOVERS[fh]:.0f} bits"
        for fh in cfg.smbs_F_H_list
    )
    print(f"PASS 6: every latency column affine in S; single onboard/cloud "
          f"crossover per clock ({crossings})")


# ---------------------------------------------------------------
# 7. engine determinism and cache invariants
# ---------------------------------------------------------------

def test_criterion_07_determinism_and_invariants():
    cfg = load_config(None)
    ctx, empty = build_engine(cfg)
    requests = load_trace(GOLDEN_TRACE)

    def run_csv():  # replay_trace replays on a copy of the empty cache
        return decisions_to_csv(requests, replay_trace(requests, empty, ctx).decisions)

    first, second = run_csv(), run_csv()
    assert first == second
    with open(GOLDEN_DECISIONS, "r", encoding="utf-8") as fh:
        assert first == fh.read()

    # randomized traffic: occupancy, phantom hits, state on error
    rng = random.Random(11)
    state = CacheState(capacity=8, popularity_threshold=2)
    ids = [f"c{i}" for i in range(30)]
    for t in range(10000):
        roll = rng.random()
        if roll < 0.05:
            bad = rng.choice(
                (
                    Request(t=float(t), kind=RequestKind.CONTENT_DELIVERY),
                    Request(t=float(t), kind=RequestKind.TASK_OFFLOADING),
                    Request(t=float(t), kind=RequestKind.COMMUNICATION,
                            content_id="stray"),
                    Request(t=float(t), kind=RequestKind.TASK_OFFLOADING,
                            size_bits=-1.0),
                )
            )
            entries = dict(state.entries)
            popularity = dict(state.popularity)
            with pytest.raises(RequestError):
                handle_request(bad, state, ctx)
            assert dict(state.entries) == entries
            assert dict(state.popularity) == popularity
            continue
        if roll < 0.70:
            req = Request(t=float(t), kind=RequestKind.CONTENT_DELIVERY,
                          content_id=rng.choice(ids), size_bits=1e5)
        elif roll < 0.80:
            req = Request(t=float(t), kind=RequestKind.CACHING,
                          content_id=rng.choice(ids), size_bits=1e5)
        elif roll < 0.90:
            req = Request(t=float(t), kind=RequestKind.TASK_OFFLOADING,
                          size_bits=rng.uniform(1e4, 1e6))
        else:
            req = Request(t=float(t), kind=RequestKind.COMMUNICATION,
                          size_bits=1e5)
        cached_before = set(state.entries)
        decision, state = handle_request(req, state, ctx)
        assert len(state.entries) <= 8
        if decision.action.value == "serve_direct" and req.content_id:
            assert req.content_id in cached_before
    print("PASS 7: golden trace replays byte-identically; 10000 randomized "
          "requests hold the cache invariants")


# ---------------------------------------------------------------
# 8. mode selection saves payload energy on the golden trace
# ---------------------------------------------------------------

def test_criterion_08_energy_benefit():
    cfg = load_config(None)
    ctx, state = build_engine(cfg)
    requests = load_trace(GOLDEN_TRACE)

    def total(force=None):
        return replay_trace(
            requests, state, ctx, force_mode=force
        ).summary.total_energy_J

    selected = total()
    rs_only = total(Mode.RS)
    smbs_only = total(Mode.SMBS)
    assert selected < rs_only
    assert selected <= smbs_only
    print(f"PASS 8: selection {selected:.1f} J < relay-only {rs_only:.1f} J "
          f"and <= base-station-only {smbs_only:.1f} J")


# ---------------------------------------------------------------
# 9. decisions are invariant to a common gain pedestal
# ---------------------------------------------------------------

def test_criterion_09_gain_shift_invariance():
    cfg = load_config(None)
    shifted = replace(
        cfg.radio,
        G_gNB=cfg.radio.G_gNB + 7.0,
        G0_max=cfg.radio.G0_max + 7.0,
        G_RS=cfg.radio.G_RS + 7.0,
        G_H_rx=cfg.radio.G_H_rx + 7.0,
    )
    objective = Objective(ObjectiveKind.MAX_CAPACITY)
    xs = cfg.sweep_for("x").grid()
    base, boosted = corridor_of(cfg), corridor_of(cfg, shifted)
    for x in xs:
        before = best_payload(objective, base.rows(x, cfg.configs), None)
        after = best_payload(objective, boosted.rows(x, cfg.configs), None)
        assert before[0] is after[0]
    alphas_before, _ = relay_optimal_splits(*base.columns(xs)[:2])
    alphas_after, _ = relay_optimal_splits(*boosted.columns(xs)[:2])
    for a_before, a_after in zip(alphas_before, alphas_after):
        assert abs(a_before - a_after) <= 2e-4

    for mode in (Mode.RS, Mode.RIS, Mode.SMBS):
        assert abs(base.best_offset(mode) - boosted.best_offset(mode)) <= 100.0
    print("PASS 9: +7 dB on every antenna gain flips no chosen mode, "
          "alpha, or placement")


# ---------------------------------------------------------------
# 10. the default-sweep checks fit the runtime budget
# ---------------------------------------------------------------

def test_criterion_10_runtime_budget():
    keys = {"c1", "c2", "c3", "c4", "c5", "c6"}
    assert keys <= set(DURATIONS), "criteria 1-6 must run before the budget check"
    total = sum(DURATIONS[k] for k in keys)
    assert total < 60.0
    print(f"PASS 10: criteria 1-6 took {total:.2f}s in total (< 60s)")
