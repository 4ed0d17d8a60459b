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
import sys
from enum import Enum

from ._record import Record, number
from .propagation import (
    SPEED_OF_LIGHT,
    LinkBudget,
    RadioParams,
    db_to_linear,
    fspl_dB,
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

class RsConfig(Record):
    payload_power_W: float = 1000.0

    def __post_init__(self):
        if self.payload_power_W <= 0:
            raise ValueError(
                f"payload_power_W must be positive, got {self.payload_power_W}"
            )


class RisConfig(Record):
    N: int = 50000                # reflecting element count
    beta: float = 1.0             # per-element reflection amplitude
    per_element_power_W: float = 0.0078

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"N (element count) must be a positive integer, got {self.N}")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must lie in (0, 1], got {self.beta}")
        if not self.per_element_power_W > 0:
            raise ValueError(
                f"per_element_power_W must be positive, got {self.per_element_power_W}"
            )

    @property
    def payload_power_W(self):
        """The surface's draw: every element's power. Not a field."""
        return self.N * self.per_element_power_W


class SmbsConfig(Record):
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


class ModeConfigs(Record):
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

# Each link-budget figure Corridor checks, as the coefficient of each
# [radio] input's dB value (10 log10 B for B) in the figure's dB sum
_RX = {"noise_figure": -1.0, "B": -1.0, "scintillation_dB": -1.0}  # per hop
_NOISE = {"noise_figure": 1.0, "B": 1.0}
_SURFACE_GAIN = {"P0_max": 1.0, "G0_max": 1.0, "G_gNB": 1.0}
_HOP1 = {"P0_max": 1.0, "G0_max": 1.0, "G_RS": 1.0, **_RX}
_HOP2 = {"P0_max": 1.0, "G_RS": 1.0, "G_gNB": 1.0, **_RX}
_HOPS = {key: _HOP1.get(key, 0.0) + _HOP2.get(key, 0.0) for key in _HOP1 | _HOP2}
_ACCESS = {"P_gNB": 1.0, "G_gNB": 1.0, "G_H_rx": 1.0, **_RX}
_UNITS = {"P0_max": "dBm", "P_gNB": "dBm", "B": "Hz"}


def _refusal(text, radio: RadioParams, figure, overflow=True, other=None):
    """The ValueError for a figure that left the positive normal float
    range (upward when overflow): text, then the [radio] input with the
    largest dB share in figure and, unless overflow is None, whether it
    is too high or too low. other, a (dB share, message) pair for an
    input outside [radio], is the error instead when its share is larger."""
    def share(key):
        value = getattr(radio, key)
        return figure[key] * (10.0 * math.log10(value) if key == "B" else value)
    key = max(figure, key=lambda k: abs(share(k)))
    if other is not None and abs(other[0]) > abs(share(key)):
        return ValueError(other[1])
    name = f"{text}: [radio] {key} = {getattr(radio, key):g} {_UNITS.get(key, 'dB')}"
    if overflow is None:
        return ValueError(name)
    high = overflow == (figure[key] > 0)
    return ValueError(f"{name} is too {'high' if high else 'low'}")


class Corridor:
    """The x-invariant part of every payload's link budget along one
    gateway - gNB corridor, computed once; the column methods (hop_lengths,
    columns) then do only the arithmetic that depends on the platform
    offset x, over a whole list of offsets. rows builds every payload's
    row at one offset from them, and ris_snr gives the bare surface SNR
    whose capacity columns computes in the same pass.

    Each capacity law has one form, over a column. Constant prefixes keep
    the left-to-right order of the full per-hop expressions.
    """

    def __init__(self, D, H, radio: RadioParams):
        D, H = number("D", D), number("H", H)
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
        # each figure below must stay a positive normal float (_refusal)
        # reflected path: p_w * G0 * G_gNB, then (N beta)^2, then
        # (lambda / 4 pi)^4, over d1^2 d2^2 noise_w and the fixed losses
        try:
            self._ris_gain = (
                db_to_linear(radio.P0_max - 30.0)
                * db_to_linear(radio.G0_max)
                * db_to_linear(radio.G_gNB)
            )
            if self._ris_gain == math.inf:
                raise OverflowError
        except OverflowError:
            raise _refusal("the surface gain overflows", radio, _SURFACE_GAIN) from None
        self._ris_lam4 = (SPEED_OF_LIGHT / radio.f / (4.0 * math.pi)) ** 4
        try:
            self._noise_w = db_to_linear(budget.noise_dBm - 30.0)
            if self._noise_w < sys.float_info.min:
                raise OverflowError
        except OverflowError:
            text = f"the noise floor of {budget.noise_dBm:.4g} dBm leaves the float range"
            raise _refusal(text, radio, _NOISE, overflow=None) from None
        # gaseous absorption over the cascade length at the first placement
        # root, the surface's fixed reference path (see ris_snr)
        roots = ris_placement_roots(D, H)
        path = slant_distance(roots[0], H) + slant_distance(D - roots[0], H)
        atmosphere_db = budget.gamma0 * path / 1000.0
        try:
            self._ris_loss = db_to_linear(atmosphere_db + 2.0 * radio.scintillation_dB)
        except OverflowError:
            # with one root (H >= D/2) the reference path is 2 hypot(D/2, H)
            longer = f"H = {H:g}" if len(roots) == 1 else f"D = {D:g}"
            text = (f"the surface's reference-path loss of {atmosphere_db:.4g} dB "
                    f"(gaseous absorption over {longer} m) overflows")
            scint = {"scintillation_dB": 2.0}
            raise _refusal(text, radio, scint, other=(atmosphere_db, text)) from None
        # a relay hop's SNR peaks at the shortest hop, H, and is lowest at
        # the longest, hypot(D, H); so does the product of the two SNRs,
        # which the relay's closed form takes
        longest = math.hypot(D, H)

        def hop(text, d, name, rule, hops=1):
            """_refusal's other= for hops of length d: their distance term
            (FSPL plus gaseous dB), and text blaming [geometry] name."""
            loss = hops * (fspl_dB(d, radio.f) + budget.gamma0 * d / 1000.0)
            value = D if name == "D" else H
            return loss, f"{text}: [geometry] {name} = {value:g} m is too {rule}"

        peaks = []
        for gains_dB, figure in ((self._hop1_dB, _HOP1), (self._hop2_dB, _HOP2)):
            try:
                far, near = budget.snrs((longest, H), gains_dB)
            except OverflowError:
                text = "the relay hop SNR overflows"
                raise _refusal(text, radio, figure, other=hop(text, H, "H", "low")) from None
            if far < sys.float_info.min:
                text = f"the relay hop SNR underflows to {far:g} at a {longest:g} m hop"
                other = hop(text, longest, "D" if D >= H else "H", "high")
                raise _refusal(text, radio, figure, overflow=False, other=other)
            peaks.append(near)
        if peaks[0] * peaks[1] == math.inf:
            text = f"the product of the relay hop SNRs at {H:g} m overflows"
            raise _refusal(text, radio, _HOPS, other=hop(text, H, "H", "low", hops=2))
        # the access hop's SNR peaks at its shortest, H; a zero SNR far
        # from the gNB is a payload the engine refuses by name
        try:
            budget.snrs((H,), self._access_dB)
        except OverflowError:
            text = "the access hop SNR overflows"
            raise _refusal(text, radio, _ACCESS, other=hop(text, H, "H", "low")) from None

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
        the offset, p_w G0 G_gNB (N beta)^2 (lambda / 4 pi)^4; a surface
        whose gain overflows is refused by name."""
        try:
            numerator = self._ris_gain * (ris.N * ris.beta) ** 2 * self._ris_lam4
            if numerator == math.inf:
                raise OverflowError
        except OverflowError:
            text = "the reflected path's gain overflows"
            surface = f"{text}: a surface of N = {ris.N:g} elements is too large"
            share = 20.0 * math.log10(ris.N * ris.beta)
            raise _refusal(text, self.budget.radio, _SURFACE_GAIN,
                           other=(share, surface)) from None
        return numerator

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
    minimised at the midpoint and only D/2 is returned.
    """
    D, H = number("D", D), number("H", H)
    if D <= 0 or H <= 0:
        raise ValueError("D and H must be positive")
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
    underflowed to zero is refused by name."""
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
