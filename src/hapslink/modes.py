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
from enum import Enum
from typing import Annotated

from ._record import POSITIVE, Above, Record, number
from .propagation import (
    SPEED_OF_LIGHT,
    LinkBudget,
    RadioParams,
    ScenarioGeometry,
    db_to_linear,
)


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

class RsConfig(Record):
    payload_power_W: Annotated[float, POSITIVE] = 1000.0


class RisConfig(Record):
    N: Annotated[int, (1, 1e7)] = 50000  # reflecting element count
    beta: Annotated[float, (Above(0.0), 1.0)] = 1.0  # per-element reflection amplitude
    per_element_power_W: Annotated[float, POSITIVE] = 0.0078

    @property
    def payload_power_W(self):
        """The surface's draw: every element's power. Not a field."""
        return self.N * self.per_element_power_W


class SmbsConfig(Record):
    F_H: Annotated[float, POSITIVE] = 2e9  # onboard compute rate, cycles/s
    payload_power_W: Annotated[float, POSITIVE] = 3000.0
    cache_capacity: Annotated[int, (0, math.inf)] = 16


class ModeConfigs(Record):
    """Bundle of the three payload configs, as the selection logic wants them."""

    rs: RsConfig = RsConfig()
    ris: RisConfig = RisConfig()
    smbs: SmbsConfig = SmbsConfig()


# =====================================================================
# Corridor: every payload's link budget at one (D, H, radio)
# =====================================================================

class Corridor:
    """The x-invariant part of every payload's link budget along one
    gateway - gNB corridor, computed once; the column methods (hop_lengths,
    columns) then do only the arithmetic that depends on the platform
    offset x, over a whole list of offsets. rows builds every payload's
    row at one offset from them, and ris_snr gives the bare surface SNR
    whose capacity columns computes in the same pass.

    D and H are refused outside ScenarioGeometry's ranges. Inside them and
    RadioParams', every figure here is finite, but a capacity still rounds
    to 0 where its SNR is below about 1e-16 (1 + snr rounds to 1): carrier
    refuses such a payload.

    Each capacity law has one form, over a column. Constant prefixes keep
    the left-to-right order of the full per-hop expressions.
    """

    def __init__(self, D, H, radio: RadioParams):
        bounds = ScenarioGeometry._bounds
        self.D = number("D", D, bounds=bounds["D"])
        self.H = number("H", H, bounds=bounds["H"])
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
        # gaseous absorption over the cascade length at the first placement
        # root, the surface's fixed reference path (see ris_snr)
        (d1,), (d2,) = self.hop_lengths(ris_placement_roots(self.D, self.H)[:1])
        atmosphere_db = budget.gamma0 * (d1 + d2) / 1000.0
        self._ris_loss = db_to_linear(atmosphere_db + 2.0 * radio.scintillation_dB)

    def hop_lengths(self, xs):
        """Slant-range columns (gateway -> platform, gNB -> platform) over
        the offsets xs, one hypot pair per offset; the corridor's bounds are
        checked once for the whole column (min, max, and no nan)."""
        D, H = self.D, self.H
        if not (0 <= min(xs) and max(xs) <= D and all(map(math.isfinite, xs))):
            x = next(x for x in xs if not 0 <= x <= D)
            raise ValueError(f"platform offset x={x} outside the corridor [0, {D}]")
        hypot = math.hypot
        return [hypot(x, H) for x in xs], [hypot(D - x, H) for x in xs]

    def columns(self, xs, surfaces=()):
        """The relay's two full-power hop-SNR columns and one capacity
        column (bps/Hz) per surface in surfaces, over the offsets xs.

        Each offset costs one pair of slant ranges and one product
        d1^2 d2^2 noise_w, shared by every surface; each surface's
        numerator is computed once, and its capacity, log2(1 + ris_snr),
        in the same pass as its SNR. Hop 1 is gateway -> platform (gains
        G0_max / G_RS), hop 2 platform -> gNB (gains G_RS / G_gNB); scale
        by alpha and 1 - alpha to apply a power split. The surface pays no
        half-duplex penalty: it is passive and reflects concurrently.
        """
        d1s, d2s = self.hop_lengths(xs)
        snrs, log2, loss = self.budget.snrs, math.log2, self._ris_loss
        noise_w = self._noise_w
        denominators = [d1 * d1 * d2 * d2 * noise_w for d1, d2 in zip(d1s, d2s)]
        return (
            snrs(d1s, self._hop1_dB),
            snrs(d2s, self._hop2_dB),
            [
                [log2(1.0 + numerator / den / loss) for den in denominators]
                for numerator in map(self._ris_numerator, surfaces)
            ],
        )

    def _ris_numerator(self, ris: RisConfig):
        """The part of the reflected path's SNR that does not depend on
        the offset, p_w G0 G_gNB (N beta)^2 (lambda / 4 pi)^4."""
        return self._ris_gain * (ris.N * ris.beta) ** 2 * self._ris_lam4

    def ris_snr(self, x, ris: RisConfig):
        """Cascade SNR of the reflected gateway -> platform -> gNB path at
        offset x; columns computes log2(1 + this) over a whole grid.

        Coherent combining over N elements gives amplitude ~ N * beta /
        (d1 * d2), so SNR ~ (N * beta)^2 * (lambda / 4 pi)^4 / (d1^2 * d2^2).
        Scintillation is charged once per hop. Gaseous absorption is charged
        over a fixed reference path (the cascade length at the placement
        roots) instead of the live path: across the corridor the path length
        varies by well under a tenth of a dB here, and a distance-tracking
        term would drag the capacity peaks off the product-distance roots
        that the placement formula pins down.
        """
        (d1,), (d2,) = self.hop_lengths((x,))
        den = d1 * d1 * d2 * d2 * self._noise_w
        return self._ris_numerator(ris) / den / self._ris_loss

    def rows(self, x, configs: ModeConfigs):
        """What each payload delivers at offset x, most passive first: the
        rows (mode, capacity_bps, payload_W, path_m) of RIS, of RS at its
        optimal split, and of SMBS over the access hop. A task travels
        both hops through the relay and the surface, the access hop alone
        to the base station. This is the one place a row is built; the
        engine and sweep-latency read it."""
        (d1,), (d2,) = self.hop_lengths((x,))
        snr1s, snr2s, ((ris,),) = self.columns((x,), (configs.ris,))
        (relay,) = relay_optimal_splits(snr1s, snr2s)[1]
        (access,) = self.budget.snrs((d2,), self._access_dB)
        B = self.budget.radio.B
        return (
            (Mode.RIS, ris * B, configs.ris.payload_power_W, d1 + d2),
            (Mode.RS, relay * B, configs.rs.payload_power_W, d1 + d2),
            (Mode.SMBS, math.log2(1.0 + access) * B, configs.smbs.payload_power_W, d2),
        )

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
        D, snrs = self.D, self.budget.snrs
        # 1/snr ~ d^2 10^(gamma0 d / 10^4), so d ln(1/snr) / dd = 2/d + k
        k = self.budget.gamma0 * math.log(10.0) / 1e4
        lo, hi = 0.0, D
        while True:
            x = (lo + hi) / 2.0
            if x == lo or x == hi:
                break
            (d1,), (d2,) = self.hop_lengths((x,))
            (snr1,), (snr2,) = snrs((d1,), self._hop1_dB), snrs((d2,), self._hop2_dB)
            slope = (
                (2.0 / d1 + k) * (x / d1) / snr1
                - (2.0 / d2 + k) * ((D - x) / d2) / snr2
            )
            if slope < 0.0:
                lo = x
            else:
                hi = x
        at_lo, at_hi = relay_optimal_splits(*self.columns((lo, hi))[:2])[1]
        return hi if at_hi > at_lo else lo


# =====================================================================
# Relay (RS)
# =====================================================================

def relay_capacities(snr1s, snr2s, alpha):
    """Half-duplex decode-and-forward spectral efficiency (bps/Hz) over two
    full-power hop-SNR columns at one power split alpha, checked once:
    C = 1/2 * min over hops of log2(1 + hop SNR), with alpha / (1 - alpha)
    applied to the two hops."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    rest, log2 = 1.0 - alpha, math.log2
    # min(alpha * s1, rest * s2), without a call per element
    return [
        0.5 * log2(1.0 + (b if (b := rest * s2) < (a := alpha * s1) else a))
        for s1, s2 in zip(snr1s, snr2s)
    ]


def relay_optimal_splits(snr1s, snr2s):
    """The best power split and the relay capacity (bps/Hz) it buys, over
    two full-power hop-SNR columns: (column of alphas, column of capacities).

    min(a * snr1, (1 - a) * snr2) peaks where the two terms meet, at
    a* = snr2 / (snr1 + snr2), leaving C = 1/2 log2(1 + snr1 snr2 /
    (snr1 + snr2)): the equal-SNR allocation of two-hop decode-and-forward.
    """
    log2 = math.log2
    return (
        [s2 / (s1 + s2) for s1, s2 in zip(snr1s, snr2s)],
        [0.5 * log2(1.0 + s1 * s2 / (s1 + s2)) for s1, s2 in zip(snr1s, snr2s)],
    )


# =====================================================================
# Reflecting surface (RIS)
# =====================================================================

def ris_placement_roots(D, H):
    """Offsets minimising the hop-distance product d1 * d2.

    For H < D/2 the minimisers are D/2 +- sqrt((D/2)^2 - H^2) and the
    product at either root equals H * D. For H >= D/2 the product is
    minimised at the midpoint and only D/2 is returned. D and H are
    refused outside ScenarioGeometry's ranges; inside them both roots lie
    in [0, D], since a correctly rounded sqrt((D/2)^2 - H^2) is at most D/2.
    """
    bounds = ScenarioGeometry._bounds
    D, H = number("D", D, bounds=bounds["D"]), number("H", H, bounds=bounds["H"])
    half = D / 2.0
    disc = half * half - H * H
    if disc <= 0:
        return (half,)
    off = math.sqrt(disc)
    return (half - off, half + off)


# =====================================================================
# Power and efficiency
# =====================================================================

def carrier(row):
    """A row of Corridor.rows whose payload is to move bits; one whose capacity
    rounded to zero is refused by name."""
    if not row[1] > 0:
        raise ValueError(f"mode unreachable: {row[0].value} capacity is zero")
    return row


def energy_efficiencies(spectral_efficiencies, B, payload_power_W):
    """Delivered bits per joule of payload energy for each spectral
    efficiency (bps/Hz) carried over a bandwidth of B Hz by one payload,
    its power checked once."""
    if payload_power_W <= 0:
        raise ValueError("payload power must be positive for an efficiency ratio")
    return [c * B / payload_power_W for c in spectral_efficiencies]
