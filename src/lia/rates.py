"""Finite-SNR achievable rates for the same-linear-code modulo MAC and the
K-user integer-interference channel, with baselines and DoF scans.

The achievable symmetric rate maximizes, over admissible primes p,

    min{ -1/2 log2(omega_a),  -log2(omega_b) }

where the omega terms bound the ensemble-average pairwise error probability
for the four codeword-dependency cases:

    omega_a = 1/p^2 + sqrt(2*pi/(3*SNR))
              + (1/p) exp(-(3*SNR/(2 p^2)) delta(p, gamma)^2) + 2 exp(-3*SNR/8)
    omega_b = 1/p + sqrt(2*pi / (3 delta(p, gamma)^2 SNR)) + 2 exp(-3*SNR/8)
            (the case-c term equals omega_b, so it is not kept separately)
    omega_d = max(omega_b,
                  (p-1)/p + (1/p) exp(-(3*SNR/(2 p^2)) g^2) + 2 exp(-3*SNR/8))

with g the reduction of gamma into [-1/4, 1/4).  Exponential error terms use
base e, rates use log2; all rates are bits per real channel use.  Negative
bounds clamp to zero.  SNR arguments here are linear; dB conversion happens
at the CLI boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .diophantine import (
    Gain,
    admissible_mask,
    delta,
    delta_for_primes,
    is_prime,
    mod_quarter_interval,
    primes_up_to,
)

# Hard cap on the prime search; the optimizing prime sits near SNR**(1/4),
# so searching up to sqrt(SNR) already leaves ample slack.
PRIME_SEARCH_CAP = 100_000


def db_to_linear(snr_db: float) -> float:
    if not math.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite, got {snr_db!r}")
    try:
        return 10.0 ** (snr_db / 10.0)
    except OverflowError:
        raise ValueError(f"snr_db = {snr_db!r} overflows the linear scale") from None


def _require_positive_snr(snr: float) -> None:
    if not (snr > 0 and math.isfinite(snr)):
        raise ValueError(f"snr must be positive and finite, got {snr!r}")


def default_p_max(snr: float, cap: int = PRIME_SEARCH_CAP) -> int:
    """Default prime search bound: max(101, ceil(sqrt(snr))), hard-capped."""
    _require_positive_snr(snr)
    if snr >= float(cap) ** 2:
        return cap
    return min(cap, max(101, math.ceil(math.sqrt(snr))))


@dataclass(frozen=True)
class OmegaBreakdown:
    """Per-case error-probability terms at one (p, gamma, SNR) point."""

    p: int
    gamma: Gain
    snr: float
    omega_a: float
    omega_b: float  # also the case-c term
    omega_d: float


@dataclass(frozen=True)
class RatePoint:
    """An evaluated rate with the optimizing prime and its omega terms."""

    gamma: Gain
    snr: float
    p_star: Optional[int]
    rate: float
    breakdown: Optional[OmegaBreakdown]


def _omega_arrays(pf: np.ndarray, dlt: np.ndarray, off: float, snr: float):
    """Vectorized omega terms over a prime array (pf float, dlt = delta)."""
    tail = 2.0 * math.exp(-0.375 * snr)
    sq = math.sqrt(2.0 * math.pi / (3.0 * snr))
    oa = pf**-2 + sq + np.exp(-(1.5 * snr / pf**2) * dlt * dlt) / pf + tail
    with np.errstate(divide="ignore"):
        ob = np.where(dlt > 0.0, 1.0 / pf + sq / np.where(dlt > 0.0, dlt, 1.0) + tail, np.inf)
    od = np.maximum(ob, (pf - 1.0) / pf + np.exp(-(1.5 * snr / pf**2) * off * off) / pf + tail)
    return oa, ob, od


def _rate_from_omegas(oa: np.ndarray, ob: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        ra = -0.5 * np.log2(oa)
        rb = -np.log2(ob)
    return np.minimum(ra, rb)


def omega_breakdown(p: int, gamma: Gain, snr: float) -> OmegaBreakdown:
    """The four omega terms for a single prime (delta by direct enumeration)."""
    _require_positive_snr(snr)
    d = np.asarray([float(delta(p, gamma))])
    off = float(mod_quarter_interval(gamma))
    oa, ob, od = _omega_arrays(np.asarray([float(p)]), d, off, snr)
    return OmegaBreakdown(p, gamma, snr, float(oa[0]), float(ob[0]), float(od[0]))


def rate_for_p(p: int, gamma: Gain, snr: float) -> float:
    """Rate bound at a fixed prime; 0 when p is inadmissible or the bound is negative."""
    _require_positive_snr(snr)
    if not admissible_mask(np.asarray([p]), gamma, snr)[0]:
        return 0.0
    bd = omega_breakdown(p, gamma, snr)
    oa = np.asarray([bd.omega_a])
    ob = np.asarray([bd.omega_b])
    return max(0.0, float(_rate_from_omegas(oa, ob)[0]))


def _scan_primes(gamma: Gain, snr: float, p_max: int):
    """Rates and omega terms over every prime <= p_max (staircase delta)."""
    primes = primes_up_to(p_max)
    if primes.size == 0:
        return None
    pf = primes.astype(float)
    dlt = delta_for_primes(gamma, primes)
    off = float(mod_quarter_interval(gamma))
    oa, ob, od = _omega_arrays(pf, dlt, off, snr)
    rates = _rate_from_omegas(oa, ob)
    mask = admissible_mask(primes, gamma, snr)
    rates = np.where(mask, np.maximum(rates, 0.0), 0.0)
    return primes, rates, oa, ob, od


def _best_prime(gains, snr: float, p_max: Optional[int]) -> RatePoint:
    """Max over primes <= p_max of the smallest rate bound over ``gains``.

    p_max defaults to ``default_p_max(snr)``.  A prime inadmissible for any
    gain scores 0 there.  Ties go to the smallest prime, and the binding gain
    (the first of the gains whose bound is smallest at p*) names the point
    and its breakdown.  Returns rate 0 with no prime when every bound clamps.
    """
    _require_positive_snr(snr)
    if p_max is None:
        p_max = default_p_max(snr)
    scans = [_scan_primes(g, snr, p_max) for g in gains]
    if scans[0] is None:
        return RatePoint(gains[0], snr, None, 0.0, None)
    overall = scans[0][1]
    for scan in scans[1:]:
        overall = np.minimum(overall, scan[1])
    i = int(np.argmax(overall))
    if overall[i] <= 0.0:
        return RatePoint(gains[0], snr, None, 0.0, None)
    j = next(j for j, scan in enumerate(scans) if scan[1][i] == overall[i])
    primes, _, oa, ob, od = scans[j]
    p_star = int(primes[i])
    bd = OmegaBreakdown(p_star, gains[j], snr, float(oa[i]), float(ob[i]), float(od[i]))
    return RatePoint(gains[j], snr, p_star, float(overall[i]), bd)


def theorem1_rate(gamma: Gain, snr: float, p_max: Optional[int] = None) -> RatePoint:
    """Achievable symmetric rate of the two-user same-codebook modulo MAC.

    Maximizes rate_for_p over admissible primes up to p_max (default
    ``default_p_max(snr)``); ties go to the smallest prime.  Returns rate 0
    with no prime when the admissible set is empty or every bound clamps.
    """
    return _best_prime([gamma], snr, p_max)


def random_sym_capacity(gamma: Gain, snr: float) -> float:
    """Symmetric capacity of the unconstrained two-user Gaussian MAC baseline."""
    if snr < 0:
        raise ValueError("snr must be nonnegative")
    g = float(gamma)
    return min(
        0.5 * math.log2(1.0 + snr),
        0.5 * math.log2(1.0 + g * g * snr),
        0.25 * math.log2(1.0 + (1.0 + g * g) * snr),
    )


def normalized_rate(gamma: Gain, snr: float, p_max: Optional[int] = None) -> float:
    """theorem1_rate / random_sym_capacity, with 0/0 defined as 0."""
    denom = random_sym_capacity(gamma, snr)
    if denom == 0.0:
        return 0.0
    return theorem1_rate(gamma, snr, p_max).rate / denom


def theorem2_sym_rate(channel, snr: float, p_max: Optional[int] = None) -> RatePoint:
    """Achievable symmetric rate on a K-user integer-interference channel.

    Maximizes, over primes admissible for every direct gain simultaneously,
    the smallest per-receiver rate bound.  ``channel`` is a ChannelMatrix or
    anything accepted by its constructor (off-diagonal entries must be
    integers).  The returned breakdown belongs to the binding receiver.
    """
    from .network import ChannelMatrix

    if not isinstance(channel, ChannelMatrix):
        channel = ChannelMatrix.from_rows(channel)
    # first-occurrence order, so a tie for the binding receiver goes to the
    # lowest index
    return _best_prime(list(dict.fromkeys(channel.direct)), snr, p_max)


def time_sharing_sum_rate(K: int, snr: float) -> float:
    """Sum rate of plain time sharing: each user active 1/K of the time at
    unit power, so the K shares add back to one interference-free user."""
    if K < 1:
        raise ValueError("K must be at least 1")
    if snr < 0:
        raise ValueError("snr must be nonnegative")
    return 0.5 * math.log2(1.0 + snr)


def dof_benchmark(K: int, h: Gain, snr: float) -> float:
    """Sum-rate benchmark (K/2) * (1/2) log2(1 + (1 + h^2) SNR)."""
    if K < 1:
        raise ValueError("K must be at least 1")
    hf = float(h)
    return (K / 2.0) * 0.5 * math.log2(1.0 + (1.0 + hf * hf) * snr)


def dof_ratio(gamma: Gain, snr: float, p_max: Optional[int] = None) -> tuple[float, float]:
    """(theorem1 rate, rate / ((1/4) log2 SNR)) at one SNR.

    The ratio is zero where the rate clamps to zero.
    """
    rate = theorem1_rate(gamma, snr, p_max).rate
    denom = 0.25 * math.log2(snr) if snr > 1.0 else 0.0
    return rate, rate / denom if rate > 0.0 and denom > 0.0 else 0.0


def dependent_message_prob(p: int, k: int) -> Fraction:
    """Probability that two uniform message vectors in Z_p^k are linearly
    dependent: (p+1) p^-k - p p^-2k.  Exact."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if k < 1:
        raise ValueError("k must be at least 1")
    return Fraction(p + 1, p**k) - Fraction(p, p ** (2 * k))
