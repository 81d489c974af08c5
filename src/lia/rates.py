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

The prime search is exact but evaluates the omega terms only on primes that
can win.  The rate is -log2 W, W = max(sqrt(omega_a), omega_b) (for several
gains, their largest W).  delta is constant on a step of its staircase, so
with sq = sqrt(2*pi/(3*SNR)) and tail = 2 exp(-3*SNR/8), omega_b = 1/p +
sq/delta + tail falls as p grows there, and in omega_a = 1/p^2 + sq + f(p) +
tail, f(p) = exp(-a/p^2)/p with a = 1.5*SNR*delta^2 rises up to p = sqrt(2a)
and falls after it.  So on the primes in [p_s, p_e] of one step, W >= L with

    L = max(sqrt(1/p_e^2 + sq + min(f(p_s), f(p_e)) + tail), 1/p_e + sq/delta + tail)

(for several gains, the max of their L on segments split at every gain's
steps).  With U the smallest W seen at an interval's last prime, intervals
with L > U (1 + 1e-12) are dropped, long ones split and bounded again, and
the primes of short ones evaluated in one batch.  The slack, thousands of
ulps, covers the rounding of L, U (math.exp and np.exp may differ in the
last place) and log2, so every prime whose float rate ties the maximum is
evaluated: ties still go to the smallest prime.  delta = 0 steps score 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .diophantine import (
    PRIME_SEARCH_CAP,
    Gain,
    admissible_mask,
    admissible_prefix,
    delta,
    delta_for_primes,
    delta_step_starts,
    is_prime,
    mod_quarter_interval,
    primes_up_to,
)


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


def default_p_max(snr: float) -> int:
    """Default prime search bound: max(101, ceil(sqrt(snr))), capped at PRIME_SEARCH_CAP."""
    _require_positive_snr(snr)
    return min(PRIME_SEARCH_CAP, max(101, math.ceil(math.sqrt(snr))))


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


def _f_term(pf, dlt, snr: float):
    """(1/p) exp(-(3*SNR/(2 p^2)) delta^2), the delta-dependent part of omega_a;
    NaN at delta = 0 once 1.5 * SNR overflows (callers silence numpy's warning)."""
    return np.exp(-(1.5 * snr / pf**2) * dlt * dlt) / pf


def _omega_arrays(pf, dlt, snr: float):
    """Vectorized (omega_a, omega_b) over a prime array (pf float, dlt = delta)."""
    tail = 2.0 * math.exp(-0.375 * snr)
    sq = math.sqrt(2.0 * math.pi / (3.0 * snr))
    with np.errstate(divide="ignore", invalid="ignore"):  # delta = 0
        oa = pf**-2 + sq + _f_term(pf, dlt, snr) + tail
        ob = np.where(dlt > 0.0, 1.0 / pf + sq / np.where(dlt > 0.0, dlt, 1.0) + tail, np.inf)
    return oa, ob


def _omega_d(pf, ob, off: float, snr: float):
    tail = 2.0 * math.exp(-0.375 * snr)
    return np.maximum(ob, (pf - 1.0) / pf + _f_term(pf, off, snr) + tail)


def _rate_from_omegas(oa: np.ndarray, ob: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        ra = -0.5 * np.log2(oa)
        rb = -np.log2(ob)
    return np.minimum(ra, rb)


def omega_breakdown(p: int, gamma: Gain, snr: float) -> OmegaBreakdown:
    """The four omega terms for a single prime (delta by direct enumeration)."""
    _require_positive_snr(snr)
    pf = np.asarray([float(p)])
    oa, ob = _omega_arrays(pf, np.asarray([float(delta(p, gamma))]), snr)
    with np.errstate(invalid="ignore"):  # a zero offset; _best_prime never passes one
        od = _omega_d(pf, ob, float(mod_quarter_interval(gamma)), snr)
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


# Relative slack on the pruning bound: thousands of ulps (module docstring).
_PRUNE_SLACK = 1e-12
# A surviving interval of fewer than _LEAF primes is evaluated prime by prime;
# a longer one is split into _SPLIT pieces.  On small arrays a numpy call
# costs as much as the omega terms of tens of primes, so both constants
# trade extra evaluations for fewer calls (chosen by timing the sweep and
# power-time grids).
_LEAF = 128
_SPLIT = 32


def _interval_bounds(primes, s, e, dl, snr: float):
    """Per interval primes[s..e], L and W at its last prime; dl is each
    gain's delta on each interval (gains x intervals)."""
    ps = primes[s].astype(float)
    pe = primes[e].astype(float)
    tail = 2.0 * math.exp(-0.375 * snr)
    sq = math.sqrt(2.0 * math.pi / (3.0 * snr))
    fe = _f_term(pe, dl, snr)
    head = pe**-2 + sq
    wb = 1.0 / pe + sq / dl + tail
    bound = np.maximum(np.sqrt(head + np.minimum(_f_term(ps, dl, snr), fe) + tail), wb)
    at_end = np.maximum(np.sqrt(head + fe + tail), wb)
    return bound.max(axis=0), at_end.max(axis=0)


def _candidates(primes, gains, snr: float) -> np.ndarray:
    """The primes (ascending, admissible for every gain) that L keeps."""
    if primes.size <= _LEAF:
        return primes
    # segments on which every gain's delta is constant (steps that hold no
    # prime leave empty ones); delta = 0 scores 0
    s = np.sort(np.concatenate([delta_step_starts(g, primes) for g in gains]))
    s = s[s < primes.size]
    e = np.concatenate((s[1:], [primes.size])) - 1
    dl = np.array([delta_for_primes(g, primes[s]) for g in gains])
    live = (e >= s) & (dl > 0.0).all(axis=0)
    s, e, dl = s[live], e[live], dl[:, live]
    best = math.inf  # the smallest W seen at an interval's last prime
    leaves = [s[:0]]  # empty, so the concatenation below works with no live segment
    while s.size:
        bound, at_end = _interval_bounds(primes, s, e, dl, snr)
        best = min(best, at_end.min())
        keep = bound <= best * (1.0 + _PRUNE_SLACK)
        long = keep & (e - s >= _LEAF)
        short = keep & ~long
        offsets = s[short, None] + np.arange(_LEAF)
        leaves.append(offsets[offsets <= e[short, None]])
        if not long.any():
            break
        s, e, dl = s[long], e[long], dl[:, long]
        cuts = s[:, None] + ((e - s + 1)[:, None] * np.arange(_SPLIT + 1)) // _SPLIT
        s, e, dl = cuts[:, :-1].ravel(), cuts[:, 1:].ravel() - 1, np.repeat(dl, _SPLIT, axis=1)
    return primes[np.sort(np.concatenate(leaves))]


def _best_prime(gains, snr: float, p_max: Optional[int]) -> RatePoint:
    """Max over primes <= p_max of the smallest rate bound over ``gains``.

    p_max defaults to ``default_p_max(snr)``.  A prime inadmissible for any
    gain scores 0 there.  Ties go to the smallest prime, and the binding gain
    (the first of the gains whose bound is smallest at p*) names the point
    and its breakdown.  Returns rate 0 with no prime when every bound clamps.
    The omega terms are evaluated only on the primes ``_candidates`` keeps.
    """
    _require_positive_snr(snr)
    if p_max is None:
        p_max = default_p_max(snr)
    primes = primes_up_to(p_max)
    for g in gains:
        primes = admissible_prefix(primes, g, snr)
    candidates = _candidates(primes, gains, snr)
    pf = candidates.astype(float)
    omegas = [_omega_arrays(pf, delta_for_primes(g, candidates), snr) for g in gains]
    # fmax: a NaN rate (delta = 0 once 1.5 * SNR overflows) clamps to 0
    rates = [np.fmax(_rate_from_omegas(oa, ob), 0.0) for oa, ob in omegas]
    overall = np.min(rates, axis=0)
    if overall.size == 0 or overall.max() <= 0.0:
        return RatePoint(gains[0], snr, None, 0.0, None)
    i = int(np.argmax(overall))
    j = next(j for j, r in enumerate(rates) if r[i] == overall[i])
    oa, ob = omegas[j]
    od = _omega_d(pf[i], ob[i], float(mod_quarter_interval(gains[j])), snr)
    bd = OmegaBreakdown(int(candidates[i]), gains[j], snr, float(oa[i]), float(ob[i]), float(od))
    return RatePoint(gains[j], snr, int(candidates[i]), float(overall[i]), bd)


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
    the smallest per-receiver rate bound.  ``channel`` is a
    ``network.ChannelMatrix``.  The returned breakdown belongs to the
    binding receiver.
    """
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
