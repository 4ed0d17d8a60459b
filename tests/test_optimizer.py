import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from hapslink import (
    Corridor,
    Mode,
    ModeConfigs,
    Objective,
    ObjectiveKind,
    RadioParams,
    Request,
    RequestError,
    RequestKind,
    RisConfig,
    relay_capacities,
    relay_optimal_splits,
    ris_placement_roots,
)
from hapslink.optimizer import best_payload

from conftest import D_DEFAULT, H_DEFAULT, capacities, hop_snrs


# ---------------------------------------------------------------
# power split
# ---------------------------------------------------------------

def test_alpha_symmetric_link_splits_evenly():
    radio = RadioParams(G0_max=20.0, G_gNB=20.0)
    snr1s, snr2s, _ = Corridor(D_DEFAULT, H_DEFAULT, radio).columns((30000.0,))
    (alpha,), _ = relay_optimal_splits(snr1s, snr2s)
    assert alpha == pytest.approx(0.5, abs=1e-5)


def test_alpha_opt_frozen_above_gnb(corridor, configs):
    (alpha,), (cap,) = relay_optimal_splits(*corridor.columns((60000.0,))[:2])
    assert alpha == pytest.approx(0.015916159878747282, abs=1e-9)
    assert cap == pytest.approx(5.614032879239191, rel=1e-12)


def test_alpha_exact_at_extreme_asymmetry(radio, configs):
    # long corridor, platform next to the gateway: the strong first hop
    # needs almost none of the power budget
    snr1, snr2 = hop_snrs(Corridor(150000.0, 16500.0, radio), 500.0)
    (alpha,), (cap,) = relay_optimal_splits((snr1,), (snr2,))
    assert alpha == snr2 / (snr1 + snr2)
    assert alpha == pytest.approx(1.5e-5, rel=0.05)
    assert alpha * snr1 == pytest.approx((1.0 - alpha) * snr2, rel=1e-12)
    for i in range(1, 10000):
        a = i * 1e-4
        assert cap >= 0.5 * math.log2(1.0 + min(a * snr1, (1.0 - a) * snr2))


def test_alpha_opt_beats_even_split(corridor, configs):
    snr1s, snr2s, _ = corridor.columns((0.0, 15000.0, 30000.0, 45000.0, 60000.0))
    _, caps_opt = relay_optimal_splits(snr1s, snr2s)
    for cap_opt, cap05 in zip(caps_opt, relay_capacities(snr1s, snr2s, alpha=0.5)):
        assert cap_opt >= cap05


def test_alpha_matches_brute_force_grid(radio, configs):
    # spot geometries; the full 10-seed oracle run lives in the
    # acceptance suite
    rng = random.Random(7)
    for _ in range(3):
        D = rng.uniform(30000.0, 90000.0)
        H = rng.uniform(10000.0, 25000.0)
        x = rng.uniform(0.0, D)
        snr1, snr2 = hop_snrs(Corridor(D, H, radio), x)

        def cap(a):
            return 0.5 * math.log2(1.0 + min(a * snr1, (1.0 - a) * snr2))

        grid_best = max((i * 1e-4 for i in range(1, 10000)), key=cap)
        (alpha,), _ = relay_optimal_splits((snr1,), (snr2,))
        assert abs(alpha - grid_best) <= 2e-4


def test_alpha_never_worse_than_verification_grid(corridor, configs):
    snr1s, snr2s, _ = corridor.columns((22000.0,))
    _, (cap,) = relay_optimal_splits(snr1s, snr2s)
    for i in range(1, 1000):
        (grid_cap,) = relay_capacities(snr1s, snr2s, alpha=i / 1000)
        assert cap >= grid_cap * (1.0 - 1e-9)


# ---------------------------------------------------------------
# placement
# ---------------------------------------------------------------

def test_optimal_ris_positions_frozen():
    r1, r2 = ris_placement_roots(60000, 20000)
    assert r1 == pytest.approx(7639.320225002102, rel=1e-12)
    assert r2 == pytest.approx(52360.6797749979, rel=1e-12)


def test_optimal_ris_positions_degenerate():
    assert ris_placement_roots(60000, 30000) == (30000.0,)
    assert ris_placement_roots(60000, 45000) == (30000.0,)


def test_ris_roots_minimise_distance_product():
    for root in ris_placement_roots(60000, 20000):
        at_root = _distance_product_sq(root)
        assert at_root <= _distance_product_sq(root - 100.0)
        assert at_root <= _distance_product_sq(root + 100.0)


def _distance_product_sq(x, D=60000.0, H=20000.0):
    d1_sq = x * x + H * H
    d2_sq = (D - x) * (D - x) + H * H
    return d1_sq * d2_sq


def test_placement_rs_lands_next_to_gnb(corridor, configs):
    x = corridor.best_offset(Mode.RS)
    _, (crest,) = relay_optimal_splits(*corridor.columns((x,))[:2])
    # the true peak sits a shade inside the corridor: right above the gNB
    # the short hop stops improving while the long hop keeps paying
    assert x == pytest.approx(59899.98, abs=0.5)
    assert crest == pytest.approx(5.6140509329, rel=1e-9)
    # the exact crest: no point of a 1 cm scan around it does better
    scan = [59900.0 + i * 0.01 for i in range(-500, 501)]
    for cap in relay_optimal_splits(*corridor.columns(scan)[:2])[1]:
        assert crest >= cap * (1.0 - 1e-12)


def _inverse_snr_slope(corridor, x, h=1.0):
    # central difference of 1/snr1 + 1/snr2, the relay's convex cost; a
    # step much below 1 m drowns in the rounding of the two SNRs, one
    # much above it in the difference's own truncation error
    def cost(y):
        snr1, snr2 = hop_snrs(corridor, y)
        return 1.0 / snr1 + 1.0 / snr2

    return (cost(x + h) - cost(x - h)) / (2.0 * h)


@pytest.mark.parametrize("D", [20e3, 60e3, 150e3, 1000e3])
def test_rs_best_offset_brackets_the_crest(radio, D):
    corridor = Corridor(D, H_DEFAULT, radio)
    x = corridor.best_offset(Mode.RS)
    assert 0.0 < x < D
    assert _inverse_snr_slope(corridor, x - 1e-6) < 0.0 < _inverse_snr_slope(corridor, x + 1e-6)


@settings(max_examples=40, deadline=None)
@given(
    D=st.floats(min_value=1e3, max_value=1e6),
    H=st.floats(min_value=1e3, max_value=5e4),
    f=st.floats(min_value=1e9, max_value=50e9),
    gains=st.tuples(*[st.floats(min_value=-20.0, max_value=20.0)] * 4),
)
def test_best_offset_beats_a_scan(D, H, f, gains):
    shift0, shift_gnb, shift_rs, shift_h = gains
    base = RadioParams()
    radio = RadioParams(
        f=f,
        G0_max=base.G0_max + shift0,
        G_gNB=base.G_gNB + shift_gnb,
        G_RS=base.G_RS + shift_rs,
        G_H_rx=base.G_H_rx + shift_h,
    )
    corridor = Corridor(D, H, radio)
    configs = ModeConfigs()
    assert corridor.best_offset(Mode.SMBS) == D
    assert corridor.best_offset(Mode.RIS) == ris_placement_roots(D, H)[0]
    scan = [capacities(corridor, D * (i / 199), configs) for i in range(200)]
    for mode in Mode:
        crest = capacities(corridor, corridor.best_offset(mode), configs)[mode]
        for caps in scan:
            assert crest >= caps[mode] * (1.0 - 1e-12)


def test_placement_smbs_on_top_of_gnb(corridor):
    assert corridor.best_offset(Mode.SMBS) == 60000.0


def test_placement_ris_matches_closed_form(corridor):
    assert corridor.best_offset(Mode.RIS) == ris_placement_roots(60000, 20000)[0]


# a mode's value is not the mode
@pytest.mark.parametrize("mode", [Mode.RS.value, None])
def test_best_offset_refuses_what_is_not_a_mode(corridor, mode):
    with pytest.raises(ValueError, match=f"^{re.escape(f'unknown mode {mode!r}')}$"):
        corridor.best_offset(mode)


def test_placement_never_worse_than_grid(corridor, configs):
    ((crest,),) = corridor.columns((corridor.best_offset(Mode.RIS),), (configs.ris,))[2]
    (caps,) = corridor.columns([float(x) for x in range(0, 60001, 500)], (configs.ris,))[2]
    for cap in caps:
        assert crest >= cap * (1.0 - 1e-9)


# ---------------------------------------------------------------
# mode selection
# ---------------------------------------------------------------

def test_select_max_capacity_midcorridor(corridor, configs):
    mode, value = best_payload(
        Objective(ObjectiveKind.MAX_CAPACITY),
        corridor.rows(30000.0, configs), None,
    )
    assert mode is Mode.RIS
    assert value == pytest.approx(136046417.8623018, rel=1e-9)


def test_select_max_capacity_above_gnb(corridor, configs):
    mode, _ = best_payload(
        Objective(ObjectiveKind.MAX_CAPACITY),
        corridor.rows(60000.0, configs), None,
    )
    assert mode is Mode.SMBS


def test_select_max_ee_prefers_surface(corridor, configs):
    mode, _ = best_payload(
        Objective(ObjectiveKind.MAX_ENERGY_EFFICIENCY),
        corridor.rows(30000.0, configs), None,
    )
    assert mode is Mode.RIS


def test_select_min_energy_feasible(corridor, configs):
    mode, value = best_payload(
        Objective(ObjectiveKind.MIN_ENERGY_SUBJECT_TO_QOS),
        corridor.rows(30000.0, configs), 1e8,
    )
    assert mode is Mode.RIS
    assert value == pytest.approx(390.0, rel=1e-12)


def test_select_min_energy_only_smbs_meets_qos(corridor, configs):
    mode, _ = best_payload(
        Objective(ObjectiveKind.MIN_ENERGY_SUBJECT_TO_QOS),
        corridor.rows(60000.0, configs), 1.38e8,
    )
    assert mode is Mode.SMBS


def test_select_min_energy_infeasible(corridor, configs):
    best = best_payload(
        Objective(ObjectiveKind.MIN_ENERGY_SUBJECT_TO_QOS),
        corridor.rows(30000.0, configs), 1e12,
    )
    assert best is None


def test_select_tie_breaks_toward_passive(corridor, configs):
    # equal payload power for relay and surface: the passive one wins
    tied = ModeConfigs(
        rs=configs.rs,
        ris=RisConfig(N=50000, per_element_power_W=0.02),  # 1000 W
        smbs=configs.smbs,
    )
    mode, _ = best_payload(
        Objective(ObjectiveKind.MIN_ENERGY_SUBJECT_TO_QOS),
        corridor.rows(30000.0, tied), 1e6,
    )
    assert mode is Mode.RIS


def test_select_deterministic(corridor, configs):
    obj = Objective(ObjectiveKind.MAX_CAPACITY)
    a = best_payload(obj, corridor.rows(25000.0, configs), None)
    b = best_payload(obj, corridor.rows(25000.0, configs), None)
    assert a == b


def test_objective_requires_qos_for_min_energy():
    # the floor is the request's own: a min_energy request needs a positive one
    objective = Objective(ObjectiveKind.MIN_ENERGY_SUBJECT_TO_QOS)
    for floor, message in (
        (None, "min_energy needs a positive qos_min_bps"),
        (0.0, "qos_min_bps must be positive when given"),
    ):
        with pytest.raises(RequestError, match=f"^{message}$"):
            Request(t=0.0, kind=RequestKind.COMMUNICATION, objective=objective,
                    qos_min_bps=floor)


@pytest.mark.parametrize("kind", ["max_capacity", None, 0, Mode.RIS])
def test_objective_refuses_a_kind_by_name_where_it_is_built(kind):
    with pytest.raises(ValueError, match=f"^unknown objective kind {re.escape(repr(kind))}$"):
        Objective(kind)


def test_gain_shift_leaves_argmaxes_alone(radio, configs):
    # a common pedestal on every antenna gain rescales all SNRs and
    # cannot move either optimiser
    boosted = RadioParams(
        G_gNB=radio.G_gNB + 7.0,
        G0_max=radio.G0_max + 7.0,
        G_RS=radio.G_RS + 7.0,
        G_H_rx=radio.G_H_rx + 7.0,
    )
    base = Corridor(D_DEFAULT, H_DEFAULT, radio)
    shifted = Corridor(D_DEFAULT, H_DEFAULT, boosted)
    xs = (10000.0, 30000.0, 52000.0)
    alphas0, _ = relay_optimal_splits(*base.columns(xs)[:2])
    alphas1, _ = relay_optimal_splits(*shifted.columns(xs)[:2])
    for a0, a1 in zip(alphas0, alphas1):
        assert abs(a0 - a1) <= 2e-4
    for mode in Mode:
        assert abs(base.best_offset(mode) - shifted.best_offset(mode)) <= 100.0
