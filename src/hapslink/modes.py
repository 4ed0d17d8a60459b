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
    LinkBudget,
    RadioParams,
    db_to_linear,
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
            raise ValueError(
                f"payload_power_W must be positive, got {self.payload_power_W}"
            )


@dataclass(frozen=True)
class RisConfig:
    N: int = 50000                # reflecting element count
    beta: float = 1.0             # per-element reflection amplitude
    per_element_power_W: float = 0.0078

    def __post_init__(self):
        if self.N < 1 or int(self.N) != self.N:
            raise ValueError(
                f"N (element count) must be a positive integer, got {self.N}"
            )
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must lie in (0, 1], got {self.beta}")
        if not self.per_element_power_W > 0:
            raise ValueError(
                f"per_element_power_W must be positive, got {self.per_element_power_W}"
            )


@dataclass(frozen=True)
class SmbsConfig:
    F_H: float = 2e9              # onboard compute rate, cycles/s
    payload_power_W: float = 3000.0
    cache_capacity: int = 16

    def __post_init__(self):
        if self.F_H <= 0:
            raise ValueError(
                f"F_H (onboard compute rate) must be positive, got {self.F_H}"
            )
        if self.payload_power_W <= 0:
            raise ValueError(
                f"payload_power_W must be positive, got {self.payload_power_W}"
            )
        if self.cache_capacity < 0:
            raise ValueError(
                f"cache_capacity cannot be negative, got {self.cache_capacity}"
            )


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
# Corridor: every payload's link budget at one (D, H, radio)
# =====================================================================

class Corridor:
    """The x-invariant part of every payload's link budget along one
    gateway - gNB corridor, computed once; per-offset methods then do only
    the arithmetic that depends on the platform offset x.

    This is the one place each capacity law lives. Constant prefixes keep
    the left-to-right order of the full per-hop expressions.
    """

    def __init__(self, D, H, radio: RadioParams):
        if D <= 0:
            raise ValueError(f"ground distance D must be positive, got {D}")
        if H <= 0:
            raise ValueError(f"altitude H must be positive, got {H}")
        self.D = D
        self.H = H
        self.budget = budget = LinkBudget(radio)
        # relay hops: gateway -> platform, platform -> gNB; SMBS access hop
        self._hop1_dB = radio.P0_max + radio.G0_max + radio.G_RS
        self._hop2_dB = radio.P0_max + radio.G_RS + radio.G_gNB
        self._access_dB = radio.P_gNB + radio.G_gNB + radio.G_H_rx
        # reflected path: p_w * G0 * G_gNB, then (N beta)^2, then
        # (lambda / 4 pi)^4, over d1^2 d2^2 noise_w and the fixed losses
        self._ris_gain = (
            db_to_linear(radio.P0_max - 30.0)
            * db_to_linear(radio.G0_max)
            * db_to_linear(radio.G_gNB)
        )
        self._ris_lam4 = (SPEED_OF_LIGHT / radio.f / (4.0 * math.pi)) ** 4
        self._noise_w = db_to_linear(budget.noise_dBm - 30.0)
        atmosphere_db = budget.gamma0 * _ris_reference_path_m(D, H) / 1000.0
        try:
            self._ris_loss = db_to_linear(atmosphere_db + 2.0 * radio.scintillation_dB)
        except OverflowError:
            raise ValueError(
                f"the surface's reference-path loss of {atmosphere_db:.4g} dB "
                f"(gaseous absorption over D = {D:g} m) overflows"
            ) from None

    def distances(self, x):
        """Slant ranges (gateway -> platform, gNB -> platform) at offset x."""
        if not 0 <= x <= self.D:
            raise ValueError(
                f"platform offset x={x} outside the corridor [0, {self.D}]"
            )
        return slant_distance(x, self.H), slant_distance(self.D - x, self.H)

    def path_m(self, mode: Mode, x):
        """Distance a task travels from the gNB at offset x: the access
        hop alone for SMBS, both hops for the relay and the surface."""
        d1, d2 = self.distances(x)
        return d2 if mode is Mode.SMBS else d2 + d1

    def rs_hop_snrs(self, x):
        """Linear SNR of each relay hop if it got the whole power budget.

        Hop 1 is gateway -> platform (gains G0_max / G_RS), hop 2 is
        platform -> gNB (gains G_RS / G_gNB). Scale by alpha and 1 - alpha
        to apply a power split.
        """
        d1, d2 = self.distances(x)
        snr = self.budget.snr_linear
        return snr(d1, self._hop1_dB), snr(d2, self._hop2_dB)

    def ris_snr(self, x, ris: RisConfig):
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
        d1, d2 = self.distances(x)
        snr = (
            self._ris_gain
            * (ris.N * ris.beta) ** 2
            * self._ris_lam4
            / (d1 * d1 * d2 * d2 * self._noise_w)
        )
        return snr / self._ris_loss

    def ris_capacity(self, x, ris: RisConfig):
        """Reflected-path spectral efficiency, bps/Hz. No half-duplex penalty:
        the surface is passive and reflection is concurrent with transmission."""
        return math.log2(1.0 + self.ris_snr(x, ris))

    def smbs_capacity(self, x):
        """Single-hop gNB -> platform spectral efficiency, bps/Hz."""
        d2 = self.distances(x)[1]
        return math.log2(1.0 + self.budget.snr_linear(d2, self._access_dB))

    def capacity_bps_hz(self, mode: Mode, x, configs: ModeConfigs):
        """What each payload delivers at offset x, bps/Hz; the relay at its
        optimal split. Selection, the engine, offloading, placement and the
        sweeps all read capacity here."""
        if mode is Mode.RS:
            return relay_optimal_split(*self.rs_hop_snrs(x))[1]
        if mode is Mode.RIS:
            return self.ris_capacity(x, configs.ris)
        if mode is Mode.SMBS:
            return self.smbs_capacity(x)
        raise ValueError(f"unknown mode {mode!r}")

    def best_offset(self, mode: Mode):
        """The offset x in [0, D] at which mode's capacity peaks.

        Each payload's crest has an exact characterisation, and neither N
        nor any other payload setting moves it. SMBS capacity rises with
        x, so its crest is D. The surface's SNR is exactly proportional to
        1/(d1 d2)^2, so its crests are ris_placement_roots; this returns
        the first. The relay at its optimal split delivers 1/2 log2(1 +
        1/(1/snr1 + 1/snr2)). Each 1/snr_i is proportional to d_i^2 *
        10^(gamma0 d_i / 10^4), convex and increasing in d_i, and d_i is
        convex in x, so the sum is convex in x and its slope crosses zero
        once. That slope is negative at 0 and positive at D; bisecting its
        sign until the midpoint meets an endpoint (about 53 halvings)
        brackets the crest to the last bit, and the better endpoint wins.
        """
        if mode is Mode.SMBS:
            return self.D
        if mode is Mode.RIS:
            return ris_placement_roots(self.D, self.H)[0]
        if mode is not Mode.RS:
            raise ValueError(f"unknown mode {mode!r}")
        D = self.D
        snr = self.budget.snr_linear
        # 1/snr ~ d^2 10^(gamma0 d / 10^4), so d ln(1/snr) / dd = 2/d + k
        k = self.budget.gamma0 * math.log(10.0) / 1e4
        lo, hi = 0.0, D
        while True:
            x = (lo + hi) / 2.0
            if x == lo or x == hi:
                break
            d1, d2 = self.distances(x)
            slope = (
                (2.0 / d1 + k) * (x / d1) / snr(d1, self._hop1_dB)
                - (2.0 / d2 + k) * ((D - x) / d2) / snr(d2, self._hop2_dB)
            )
            if slope < 0.0:
                lo = x
            else:
                hi = x
        return max(lo, hi, key=lambda x: relay_optimal_split(*self.rs_hop_snrs(x))[1])


# =====================================================================
# Relay (RS)
# =====================================================================

def relay_capacity(snr1, snr2, alpha):
    """Half-duplex decode-and-forward spectral efficiency in bps/Hz.

    C = 1/2 * min over hops of log2(1 + hop SNR), with the power split
    alpha / (1 - alpha) applied to the full-power hop SNRs.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return 0.5 * math.log2(1.0 + min(alpha * snr1, (1.0 - alpha) * snr2))


def relay_optimal_split(snr1, snr2):
    """Best power split and the relay capacity it buys: (alpha, bps/Hz).

    min(a * snr1, (1 - a) * snr2) peaks where the two terms meet, at
    a* = snr2 / (snr1 + snr2), leaving C = 1/2 log2(1 + snr1 snr2 /
    (snr1 + snr2)): the equal-SNR allocation of two-hop decode-and-forward.
    """
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
