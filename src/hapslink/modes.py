"""Per-payload capacity, power draw and energy efficiency.

Three payload families are modeled on the gateway <-> platform <-> gNB
backhaul:

* SMBS: regenerative base-station payload, serves the gNB over a single
  access hop and carries onboard compute plus a content cache.
* RS: repetition-coded half-duplex decode-and-forward relay. The two hops
  share one power budget: hop 1 transmits with alpha * P0_max from the
  gateway, hop 2 with (1 - alpha) * P0_max from the platform. The relay
  always runs at the split that equalizes the two hops.
* RIS: a passive reflecting surface of N elements; the cascade SNR follows
  the coherent product-distance law (amplitude ~ N / (d1 * d2)).
"""

import math
from dataclasses import dataclass
from enum import Enum

from .propagation import (
    SPEED_OF_LIGHT,
    Link,
    RadioParams,
    ScenarioGeometry,
    db_to_linear,
    dry_air_specific_attenuation,
    link_snr_linear,
    noise_power_dBm,
    slant_distance,
)

LOG2 = math.log(2.0)


class Mode(Enum):
    SMBS = "SMBS"
    RS = "RS"
    RIS = "RIS"


class Action(Enum):
    """What the platform does with a request once a mode is picked."""

    SERVE_DIRECT = "serve_direct"
    FORWARD_VIA_GATEWAY = "forward_via_gateway"
    FORWARD_AND_CACHE = "forward_and_cache"
    COMPUTE_ONBOARD = "compute_onboard"
    COMPUTE_AT_CLOUD = "compute_at_cloud"
    INFEASIBLE = "infeasible"


# =====================================================================
# Per-mode configuration
# =====================================================================

@dataclass(frozen=True)
class RsConfig:
    payload_power_W: float = 1000.0

    def __post_init__(self):
        if self.payload_power_W <= 0:
            raise ValueError("relay payload power must be positive")


@dataclass(frozen=True)
class RisConfig:
    N: int = 50000                # reflecting element count
    beta: float = 1.0             # per-element reflection amplitude
    per_element_power_W: float = 0.0078

    def __post_init__(self):
        if self.N < 1 or int(self.N) != self.N:
            raise ValueError(f"element count must be a positive integer, got {self.N}")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must lie in (0, 1], got {self.beta}")
        if self.per_element_power_W < 0:
            raise ValueError("per-element power cannot be negative")


@dataclass(frozen=True)
class SmbsConfig:
    F_H: float = 2e9              # onboard compute rate, cycles/s
    payload_power_W: float = 3000.0
    cache_capacity: int = 16

    def __post_init__(self):
        if self.F_H <= 0:
            raise ValueError("onboard compute rate must be positive")
        if self.payload_power_W <= 0:
            raise ValueError("payload power must be positive")
        if self.cache_capacity < 0:
            raise ValueError("cache capacity cannot be negative")


@dataclass(frozen=True)
class ModeConfigs:
    """Bundle of the three payload configs, as the selection logic wants them."""

    rs: RsConfig
    ris: RisConfig
    smbs: SmbsConfig

    @classmethod
    def defaults(cls):
        return cls(rs=RsConfig(), ris=RisConfig(), smbs=SmbsConfig())


# =====================================================================
# Relay (RS)
# =====================================================================

def rs_hop_snrs_full_power(geom: ScenarioGeometry, radio: RadioParams):
    """Linear SNR of each relay hop if it got the whole power budget.

    Hop 1 is gateway -> platform (gains G0_max / G_RS), hop 2 is
    platform -> gNB (gains G_RS / G_gNB). Scale by alpha and 1 - alpha
    to apply a power split.
    """
    hop1 = Link(geom.d_gateway, radio.P0_max, radio.G0_max, radio.G_RS)
    hop2 = Link(geom.d_gnb, radio.P0_max, radio.G_RS, radio.G_gNB)
    return link_snr_linear(hop1, radio), link_snr_linear(hop2, radio)


def rs_capacity(geom, radio, alpha):
    """Half-duplex decode-and-forward spectral efficiency in bps/Hz.

    C = 1/2 * min over hops of log2(1 + hop SNR), with the power split
    alpha / (1 - alpha) applied to the hop SNRs.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    snr1, snr2 = rs_hop_snrs_full_power(geom, radio)
    return 0.5 * math.log2(1.0 + min(alpha * snr1, (1.0 - alpha) * snr2))


def rs_optimal_split(geom, radio):
    """Best power split and the relay capacity it buys: (alpha, bps/Hz).

    min(a * snr1, (1 - a) * snr2) peaks where the two terms meet, at
    a* = snr2 / (snr1 + snr2), leaving C = 1/2 log2(1 + snr1 snr2 /
    (snr1 + snr2)): the equal-SNR allocation of two-hop decode-and-forward.
    """
    snr1, snr2 = rs_hop_snrs_full_power(geom, radio)
    total = snr1 + snr2
    return snr2 / total, 0.5 * math.log2(1.0 + snr1 * snr2 / total)


# =====================================================================
# Reflecting surface (RIS)
# =====================================================================

def ris_placement_roots(D, H):
    """Offsets minimising the hop-distance product d1 * d2.

    For H < D/2 the minimisers are D/2 +- sqrt((D/2)^2 - H^2) and the
    product at either root equals H * D. For H >= D/2 the product is
    minimised at the midpoint and only D/2 is returned.
    """
    if D <= 0 or H <= 0:
        raise ValueError("D and H must be positive")
    half = D / 2.0
    disc = half * half - H * H
    if disc <= 0:
        return (half,)
    off = math.sqrt(disc)
    return (half - off, half + off)


def _ris_reference_path_m(D, H):
    # Cascade path length at the best placement, used as the fixed
    # distance over which gaseous absorption is charged.
    root = ris_placement_roots(D, H)[0]
    return slant_distance(root, H) + slant_distance(D - root, H)


def ris_snr_linear(geom: ScenarioGeometry, radio: RadioParams, ris: RisConfig):
    """Cascade SNR of the reflected gateway -> platform -> gNB path.

    Coherent combining over N elements gives amplitude ~ N * beta /
    (d1 * d2), so SNR ~ (N * beta)^2 * (lambda / 4 pi)^4 / (d1^2 * d2^2).
    Scintillation is charged once per hop. Gaseous absorption is charged
    over a fixed reference path (the cascade length at the placement
    roots) instead of the live path: across the corridor the path length
    varies by well under a tenth of a dB here, and a distance-tracking
    term would drag the capacity peaks off the product-distance roots
    that the placement formula pins down.
    """
    lam = SPEED_OF_LIGHT / radio.f
    p_w = db_to_linear(radio.P0_max - 30.0)
    noise_w = db_to_linear(noise_power_dBm(radio.B, radio.noise_figure) - 30.0)
    d1 = geom.d_gateway
    d2 = geom.d_gnb
    snr = (
        p_w
        * db_to_linear(radio.G0_max)
        * db_to_linear(radio.G_gNB)
        * (ris.N * ris.beta) ** 2
        * (lam / (4.0 * math.pi)) ** 4
        / (d1 * d1 * d2 * d2 * noise_w)
    )
    gamma0 = dry_air_specific_attenuation(
        radio.f, radio.pressure_Pa, radio.temperature_C
    )
    atmosphere_db = gamma0 * _ris_reference_path_m(geom.D, geom.H) / 1000.0
    losses_db = atmosphere_db + 2.0 * radio.scintillation_dB
    return snr / db_to_linear(losses_db)


def ris_capacity(geom, radio, ris: RisConfig):
    """Reflected-path spectral efficiency, bps/Hz. No half-duplex penalty:
    the surface is passive and reflection is concurrent with transmission."""
    return math.log2(1.0 + ris_snr_linear(geom, radio, ris))


# =====================================================================
# Base-station payload (SMBS)
# =====================================================================

def smbs_access_capacity(geom: ScenarioGeometry, radio: RadioParams):
    """Single-hop gNB -> platform spectral efficiency, bps/Hz."""
    link = Link(geom.d_gnb, radio.P_gNB, radio.G_gNB, radio.G_H_rx)
    return math.log2(1.0 + link_snr_linear(link, radio))


# =====================================================================
# Power and efficiency
# =====================================================================

def mode_payload_power_W(mode: Mode, configs: ModeConfigs):
    if mode is Mode.RS:
        return configs.rs.payload_power_W
    if mode is Mode.RIS:
        return configs.ris.N * configs.ris.per_element_power_W
    if mode is Mode.SMBS:
        return configs.smbs.payload_power_W
    raise ValueError(f"unknown mode {mode!r}")


def energy_efficiency(capacity_bps, payload_power_W):
    """Delivered bits per joule of payload energy."""
    if payload_power_W <= 0:
        raise ValueError("payload power must be positive for an efficiency ratio")
    return capacity_bps / payload_power_W


def mode_capacity_bps_hz(mode: Mode, geom, radio, configs: ModeConfigs):
    """What each payload delivers at this geometry, bps/Hz; the relay at
    its optimal split. Selection, the engine, offloading and placement
    all read capacity here."""
    if mode is Mode.RS:
        return rs_optimal_split(geom, radio)[1]
    if mode is Mode.RIS:
        return ris_capacity(geom, radio, configs.ris)
    if mode is Mode.SMBS:
        return smbs_access_capacity(geom, radio)
    raise ValueError(f"unknown mode {mode!r}")
