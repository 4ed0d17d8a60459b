import math

import pytest
from hypothesis import example, given, settings, strategies as st

from hapslink import (
    Corridor,
    Mode,
    ModeConfigs,
    RadioParams,
    RisConfig,
    SmbsConfig,
    relay_capacities,
    relay_optimal_splits,
    ris_placement_roots,
)
from hapslink.modes import energy_efficiencies
from hapslink.propagation import LinkBudget, noise_power_dBm

import reference_model as ref
from conftest import D_DEFAULT, H_DEFAULT, capacities, hop_snrs


# ---------------------------------------------------------------
# config validation
# ---------------------------------------------------------------

def test_ris_config_rejects_bad_values():
    with pytest.raises(ValueError):
        RisConfig(N=0)
    with pytest.raises(ValueError):
        RisConfig(beta=0.0)
    with pytest.raises(ValueError):
        RisConfig(beta=1.5)
    assert RisConfig(N=1).N == 1


def test_smbs_config_rejects_bad_values():
    with pytest.raises(ValueError):
        SmbsConfig(F_H=0)
    with pytest.raises(ValueError):
        SmbsConfig(payload_power_W=0)


# ---------------------------------------------------------------
# relay
# ---------------------------------------------------------------

def test_rs_symmetric_geometry_balances(radio):
    # equal end gains and the midpoint make the two hops identical, so
    # the even split hits C = 1/2 log2(1 + snr/2)
    sym_radio = RadioParams(G0_max=20.0, G_gNB=20.0)
    snr1, snr2 = hop_snrs(Corridor(D_DEFAULT, H_DEFAULT, sym_radio), 30000.0)
    assert snr1 == pytest.approx(snr2, rel=1e-12)
    (cap,) = relay_capacities((snr1,), (snr2,), alpha=0.5)
    assert cap == pytest.approx(0.5 * math.log2(1 + 0.5 * snr1), rel=1e-12)


def test_rs_capacity_vanishes_as_alpha_vanishes(corridor, configs):
    snr1s, snr2s, _ = corridor.columns((30000.0,))
    caps = [
        relay_capacities(snr1s, snr2s, alpha=a)[0]
        for a in (1e-3, 1e-6, 1e-9, 1e-12)
    ]
    assert all(c2 < c1 for c1, c2 in zip(caps, caps[1:]))
    assert caps[-1] < 1e-6


def test_rs_capacity_alpha05_frozen(corridor, configs):
    snr1s, snr2s, _ = corridor.columns((30000.0,))
    (got,) = relay_capacities(snr1s, snr2s, alpha=0.5)
    assert got == pytest.approx(4.259291804624754, rel=1e-12)


def test_rs_rejects_alpha_out_of_range(corridor, configs):
    snr1s, snr2s, _ = corridor.columns((30000.0,))
    with pytest.raises(ValueError):
        relay_capacities(snr1s, snr2s, alpha=0.0)
    with pytest.raises(ValueError):
        relay_capacities(snr1s, snr2s, alpha=1.2)


@given(alpha=st.floats(min_value=1e-6, max_value=1 - 1e-6))
def test_rs_min_structure(alpha):
    # the half-duplex capacity can never beat either individual hop
    snr1, snr2 = hop_snrs(Corridor(D_DEFAULT, H_DEFAULT, RadioParams()), 25000.0)
    (cap,) = relay_capacities((snr1,), (snr2,), alpha=alpha)
    assert cap <= 0.5 * math.log2(1 + alpha * snr1) + 1e-12
    assert cap <= 0.5 * math.log2(1 + (1 - alpha) * snr2) + 1e-12


def test_rs_unimodal_in_alpha(corridor, configs):
    # discrete slope changes sign exactly once over a fine alpha grid
    snr1s, snr2s, _ = corridor.columns((40000.0,))
    alphas = [i / 2000 for i in range(1, 2000)]
    caps = [relay_capacities(snr1s, snr2s, alpha=a)[0] for a in alphas]
    diffs = [b - a for a, b in zip(caps, caps[1:])]
    sign_changes = sum(
        1 for d1, d2 in zip(diffs, diffs[1:]) if (d1 > 0) != (d2 > 0)
    )
    assert sign_changes == 1


# ---------------------------------------------------------------
# reflecting surface
# ---------------------------------------------------------------

def test_ris_snr_quadruples_with_doubled_elements(corridor):
    for n in (1, 10, 10000):
        lo = corridor.ris_snr(20000.0, RisConfig(N=n))
        hi = corridor.ris_snr(20000.0, RisConfig(N=2 * n))
        assert hi / lo == pytest.approx(4.0, rel=1e-12)


def test_ris_capacity_monotone_in_N(corridor):
    surfaces = [RisConfig(N=n) for n in (10000, 30000, 50000)]
    caps = [col[0] for col in corridor.columns((20000.0,), surfaces)[2]]
    assert caps[0] < caps[1] < caps[2]


def test_ris_snr_vanishes_with_beta(corridor):
    tiny = corridor.ris_snr(20000.0, RisConfig(N=50000, beta=1e-9))
    assert tiny < 1e-12


def test_ris_placement_roots_two_solutions():
    r1, r2 = ris_placement_roots(60000, 20000)
    assert r1 == pytest.approx(7639.320225002102, rel=1e-12)
    assert r2 == pytest.approx(52360.6797749979, rel=1e-12)
    # roots are symmetric about the midpoint
    assert r1 + r2 == pytest.approx(60000, rel=1e-12)


def test_ris_placement_roots_collapse():
    assert ris_placement_roots(60000, 30000) == (30000.0,)
    assert ris_placement_roots(60000, 40000) == (30000.0,)


LOG_SPAN = st.floats(min_value=0.0, max_value=6.0)  # D and H's range, 1 m to 1000 km


@given(log_D=LOG_SPAN, log_H=LOG_SPAN)
@example(log_D=6.0, log_H=0.0)  # two roots a metre's rounding from 0 and D
@example(log_D=0.0, log_H=0.0)
@example(log_D=6.0, log_H=math.log10(5e5))  # H = D/2: one root
def test_ris_placement_roots_stay_in_the_corridor(log_D, log_H):
    # D and H drawn log-uniform: the roots are the textbook ones, in [0, D]
    D, H = 10.0 ** log_D, 10.0 ** log_H
    roots = ris_placement_roots(D, H)
    assert all(0.0 <= r <= D for r in roots), roots
    half = D / 2.0
    disc = half * half - H * H
    off = math.sqrt(disc) if disc > 0 else None
    assert roots == ((half,) if off is None else (half - off, half + off))


def test_ris_capacity_frozen_at_root(corridor, configs):
    root = ris_placement_roots(60000, 20000)[0]
    ((got,),) = corridor.columns((root,), (configs.ris,))[2]
    assert got == pytest.approx(7.031361895295138, rel=1e-12)


def test_ris_snr_symmetric_about_midpoint(corridor, configs):
    for x in (5000.0, 12000.0, 29000.0):
        a = corridor.ris_snr(x, configs.ris)
        b = corridor.ris_snr(60000.0 - x, configs.ris)
        assert a == pytest.approx(b, rel=1e-12)


def test_ris_equal_capacity_at_both_roots(corridor, configs):
    ((c1, c2),) = corridor.columns(ris_placement_roots(60000, 20000), (configs.ris,))[2]
    assert c1 == pytest.approx(c2, rel=1e-12)


def test_ris_capacity_simple_snr_points(corridor, configs):
    # log2(1 + snr) endpoints sanity: tiny snr ~ 0 bps/Hz
    tiny = RisConfig(N=1, beta=1e-6)
    assert corridor.columns((30000.0,), (tiny,))[2][0][0] < 1e-9


# ---------------------------------------------------------------
# base-station payload
# ---------------------------------------------------------------

def test_smbs_capacity_frozen_above_gnb(corridor, configs):
    capacity_bps = capacities(corridor, 60000.0, configs)[Mode.SMBS]
    assert capacity_bps / corridor.budget.radio.B == pytest.approx(
        6.943870592632252, rel=1e-12
    )


def test_smbs_capacity_decays_away_from_gnb(corridor, configs):
    caps = [capacities(corridor, x, configs)[Mode.SMBS] for x in (60000, 45000, 30000, 0)]
    assert all(c2 < c1 for c1, c2 in zip(caps, caps[1:]))


def test_smbs_toy_balanced_link_gives_one_bit():
    radio = RadioParams(pressure_Pa=0.0, scintillation_dB=0.0, G_gNB=0.0, G_H_rx=0.0)
    d = 20000.0
    balanced = LinkBudget(radio).losses_dB([d])[0] + noise_power_dBm(radio.B, radio.noise_figure)
    radio = RadioParams(
        P_gNB=balanced, G_gNB=0.0, G_H_rx=0.0,
        pressure_Pa=0.0, scintillation_dB=0.0,
    )
    corridor = Corridor(D_DEFAULT, H_DEFAULT, radio)
    capacity_bps = capacities(corridor, 60000.0, ModeConfigs())[Mode.SMBS]
    assert capacity_bps / radio.B == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------
# power and efficiency
# ---------------------------------------------------------------

def test_mode_payload_power(corridor, configs):
    def power(mode, configs):
        return {row[0]: row[2] for row in corridor.rows(30000.0, configs)}[mode]

    assert power(Mode.RS, configs) == 1000.0
    thirty_k = ModeConfigs(rs=configs.rs, ris=RisConfig(N=30000), smbs=configs.smbs)
    assert power(Mode.RIS, thirty_k) == pytest.approx(234.0, rel=1e-12)
    single = ModeConfigs(rs=configs.rs, ris=RisConfig(N=1), smbs=configs.smbs)
    assert power(Mode.RIS, single) == pytest.approx(0.0078, rel=1e-12)
    assert power(Mode.SMBS, configs) == 3000.0


def test_energy_efficiency_arithmetic():
    assert energy_efficiencies([1000.0, 0.0], 1.0, 10.0) == [100.0, 0.0]
    with pytest.raises(ValueError):
        energy_efficiencies([1000.0], 1.0, 0.0)


# ---------------------------------------------------------------
# column forms: each element is the law, bit for bit
# ---------------------------------------------------------------

SNR = st.floats(min_value=1e-300, max_value=1e300)
EXTREMES = [(1e-300, 1e-300), (1e-300, 1e300), (1e300, 1e-300), (1e300, 1e300)]


@settings(max_examples=200, deadline=None)
@given(
    pairs=st.lists(st.tuples(SNR, SNR), min_size=1, max_size=30),
    alpha=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    B=st.floats(min_value=1.0, max_value=1e12),
    power=st.floats(min_value=1e-3, max_value=1e6),
)
@example(pairs=EXTREMES, alpha=0.5, B=2e7, power=1000.0)
@example(pairs=EXTREMES, alpha=0.25, B=1.0, power=1e-3)
def test_relay_and_ee_columns_are_the_law_per_element(pairs, alpha, B, power):
    snr1s = [s1 for s1, _ in pairs]
    snr2s = [s2 for _, s2 in pairs]
    alphas, capacities = relay_optimal_splits(snr1s, snr2s)
    assert alphas == [s2 / (s1 + s2) for s1, s2 in pairs]
    assert capacities == [0.5 * math.log2(1.0 + s1 * s2 / (s1 + s2)) for s1, s2 in pairs]
    fixed = [0.5 * math.log2(1.0 + min(alpha * s1, (1.0 - alpha) * s2)) for s1, s2 in pairs]
    assert relay_capacities(snr1s, snr2s, alpha) == fixed
    assert energy_efficiencies(capacities, B, power) == [c * B / power for c in capacities]
    # and each element is the oracle's law
    for (s1, s2), a, c, f in zip(pairs, alphas, capacities, fixed):
        assert ref.relay_best_split(s1, s2) == (a, c)
        assert ref.relay_fixed_split(s1, s2, alpha) == f


def test_column_forms_check_their_input_once():
    with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\), got 1.0"):
        relay_capacities([1.0, 2.0], [1.0, 2.0], 1.0)
    with pytest.raises(ValueError, match="payload power must be positive"):
        energy_efficiencies([1.0, 2.0], 2e7, 0.0)
    assert relay_optimal_splits([], []) == ([], [])


@settings(max_examples=60, deadline=None)
@given(
    D=st.floats(1e3, 3e5),
    H=st.floats(1e3, 5e4),
    fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
    surfaces=st.lists(
        st.builds(RisConfig, N=st.integers(1, 10**6), beta=st.floats(1e-3, 1.0)),
        max_size=3,
    ),
)
def test_surface_capacity_column_is_log2_of_its_snr(D, H, fracs, surfaces):
    radio = RadioParams()
    xs = [frac * D for frac in fracs]
    columns = Corridor(D, H, radio).columns(xs, surfaces)[2]
    assert columns == [
        [math.log2(1.0 + ref.ris_snr(D, H, x, radio, ris)) for x in xs] for ris in surfaces
    ]
