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
can win, for a whole SNR grid at once.  The rate is -log2 W, W =
max(sqrt(omega_a), omega_b) (for several gains, their largest W).  delta is
constant on a step of its staircase, so with sq = sqrt(2*pi/(3*SNR)) and tail
= 2 exp(-3*SNR/8), omega_b = 1/p + sq/delta + tail falls as p grows there,
and in omega_a = 1/p^2 + sq + f(p) + tail, f(p) = exp(-a/p^2)/p with a =
1.5*SNR*delta^2 rises up to p = sqrt(2a) and falls after it.  So on the
primes in [p_s, p_e] of one step, W >= L with

    L = max(sqrt(1/p_e^2 + sq + min(f(p_s), f(p_e)) + tail), 1/p_e + sq/delta + tail)

(for several gains, the max of their L on segments split at every gain's
steps).  The sieve and steps are built once per gain list, each SNR keeps its
admissible prefix, and all (SNR, step) pairs are bounded in one array: with U
the smallest W at the last prime of a step wholly admissible at that SNR,
steps with L > U (1 + 1e-12) are dropped.  L bounds every prime of its step,
so the winner's step is always kept.  The kept primes of all SNRs are
evaluated together, in batches of at most _CHUNK primes (memory stays flat in
the grid length).  The slack, thousands of ulps, covers the rounding of L and
U (reassociated; math.exp and np.exp may differ in the last place) and log2,
so every prime whose float rate ties the maximum is evaluated: ties still go
to the smallest prime.  delta = 0 steps score 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
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


def _snr_terms(snr: float) -> tuple[float, float, float]:
    """(c, tail, sq) = (1.5*SNR, 2 exp(-3*SNR/8), sqrt(2*pi/(3*SNR))) by math; c may be inf."""
    return 1.5 * snr, 2.0 * math.exp(-0.375 * snr), math.sqrt(2.0 * math.pi / (3.0 * snr))


def _f_term(pf, dlt, c):
    """(1/p) exp(-(c/p^2) delta^2), c = 1.5 * SNR, the delta-dependent part of
    omega_a; NaN at delta = 0 once c overflows (callers silence numpy's warning)."""
    return np.exp(-(c / pf**2) * dlt * dlt) / pf


def _omega_arrays(pf, dlt, c, tail, sq):
    """Vectorized (omega_a, omega_b) (pf float, dlt = delta, SNR terms of _snr_terms)."""
    # delta = 0, or so small (subnormal) that sq / delta overflows: omega_b = inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        oa = pf**-2 + sq + _f_term(pf, dlt, c) + tail
        ob = np.where(dlt > 0.0, 1.0 / pf + sq / np.where(dlt > 0.0, dlt, 1.0) + tail, np.inf)
    return oa, ob


def _omega_d(pf, ob, off, c, tail):
    return np.maximum(ob, (pf - 1.0) / pf + _f_term(pf, off, c) + tail)


def _rate_from_omegas(oa: np.ndarray, ob: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        ra = -0.5 * np.log2(oa)
        rb = -np.log2(ob)
    return np.minimum(ra, rb)


def omega_breakdown(p: int, gamma: Gain, snr: float) -> OmegaBreakdown:
    """The four omega terms for a single prime (delta by direct enumeration)."""
    _require_positive_snr(snr)
    c, tail, sq = _snr_terms(snr)
    pf = np.asarray([float(p)])
    oa, ob = _omega_arrays(pf, np.asarray([float(delta(p, gamma))]), c, tail, sq)
    with np.errstate(invalid="ignore"):  # a zero offset; _best_primes never passes one
        od = _omega_d(pf, ob, float(mod_quarter_interval(gamma)), c, tail)
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
# Most candidate primes in one batch of omega terms, and most (SNR, segment)
# pairs in one bound array, so memory stays flat in the grid length.  One SNR's
# primes (at most 9,592, every prime <= PRIME_SEARCH_CAP) always fit.
_CHUNK = 1 << 15


def _segments(gains, primes):
    """Segments of an ascending prime array on which every gain's delta is constant and
    positive: first index, length, deltas, the bound's constants; the gains' offsets."""
    s = np.sort(np.concatenate([delta_step_starts(g, primes) for g in gains]))
    s = s[s < primes.size]
    e = np.concatenate((s[1:], [primes.size])) - 1
    dl = np.array([delta_for_primes(g, primes[s]) for g in gains])
    live = (e >= s) & (dl > 0.0).all(axis=0)
    s, e, dl = s[live], e[live], dl[:, None, live]
    ps, pe = primes[s].astype(float), primes[e].astype(float)
    with np.errstate(over="ignore"):  # a subnormal delta: W is bounded by inf
        bound = (1.0 / ps, 1.0 / pe, pe**-2, 1.0 / dl, -((dl / ps) ** 2), -((dl / pe) ** 2))
    return s, e - s + 1, dl, bound, [float(mod_quarter_interval(g)) for g in gains]


@lru_cache(maxsize=64)
def _gain_segments(gains: tuple):
    """``_segments`` of every prime up to PRIME_SEARCH_CAP, once per gain list, read-only."""
    steps = _segments(gains, primes_up_to(PRIME_SEARCH_CAP))
    for a in (*steps[:3], *steps[3]):
        a.setflags(write=False)
    return steps


def _search(gains, rows, primes, steps) -> list[RatePoint]:
    """The RatePoint of each row (snr, n) whose admissible primes are primes[:n]."""
    if not rows:
        return []
    s, w, dl, (ips, ipe, ipe2, idl, xs, xe), offs = steps
    half = len(rows) // 2
    if half and len(rows) * s.size > _CHUNK:
        return _search(gains, rows[:half], primes, steps) + _search(gains, rows[half:], primes, steps)
    snrs, n = zip(*rows)
    terms = np.array([_snr_terms(snr) for snr in snrs]).T
    width = np.minimum(np.maximum(np.array(n)[:, None] - s, 0), w)  # admissible primes
    # L per (row, segment) and U from the wholly admissible segments, in
    # reassociated float terms (the slack covers it)
    c, tail, sq = terms[:, :, None]
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 once delta is subnormal
        fe = np.exp(c * xe) * ipe
        wb = ipe + sq * idl + tail
        head = ipe2 + (sq + tail)
        lower = np.maximum(np.sqrt(head + np.minimum(np.exp(c * xs) * ips, fe)), wb).max(axis=0)
        at_end = np.maximum(np.sqrt(head + fe), wb).max(axis=0)
    u = np.where(width == w, at_end, np.inf).min(axis=1, initial=np.inf, keepdims=True)
    width[lower > u * (1.0 + _PRUNE_SLACK)] = 0
    if half and width.sum() > _CHUNK:
        return _search(gains, rows[:half], primes, steps) + _search(gains, rows[half:], primes, steps)
    # the kept primes of every row, in row order and ascending within a row
    r, k = width.nonzero()
    cnt = width[r, k]
    row = r.repeat(cnt)
    pf = primes[(s[k] - cnt.cumsum() + cnt).repeat(cnt) + np.arange(row.size)].astype(float)
    c, tail, sq = terms[:, row]
    oa, ob = _omega_arrays(pf, dl[:, 0, k].repeat(cnt, axis=1), c, tail, sq)
    # fmax: a NaN rate (delta = 0 once 1.5 * SNR overflows) clamps to 0
    rates = np.fmax(_rate_from_omegas(oa, ob), 0.0)
    overall = rates.min(axis=0)
    edges = np.concatenate(([0], width.sum(axis=1).cumsum())).tolist()
    points = []
    for snr, a, b in zip(snrs, edges, edges[1:]):
        i = a + int(overall[a:b].argmax()) if a < b else a  # ties: the smallest prime
        if a == b or not overall[i] > 0.0:
            points.append(RatePoint(gains[0], snr, None, 0.0, None))
            continue
        # the binding gain: the first whose rate is smallest at p*
        j = next(j for j in range(len(gains)) if rates[j, i] == overall[i])
        p, od = int(pf[i]), _omega_d(pf[i], ob[j, i], offs[j], *_snr_terms(snr)[:2])
        bd = OmegaBreakdown(p, gains[j], snr, float(oa[j, i]), float(ob[j, i]), float(od))
        points.append(RatePoint(gains[j], snr, p, float(overall[i]), bd))
    return points


def _best_primes(gains, snrs, p_max: Optional[int]) -> list[RatePoint]:
    """Per SNR, the max over primes <= p_max (default ``default_p_max(snr)``) of the smallest
    bound over ``gains`` (0 where a gain's prime is inadmissible), ties to the smallest prime;
    the binding gain, the first whose bound is smallest at p*, names the point."""
    primes = primes_up_to(PRIME_SEARCH_CAP)
    steps = _gain_segments(tuple(gains))
    points, rows = [], []
    for snr in snrs:  # checked in order, so the first SNR that fails is the error
        _require_positive_snr(snr)
        adm = primes_up_to(default_p_max(snr) if p_max is None else p_max)
        for g in gains:
            adm = admissible_prefix(adm, g, snr)
        if adm.size and adm[-1] != primes[adm.size - 1]:
            # the full mask left a gap: this SNR searches its own primes
            points += _search(gains, rows, primes, steps)
            points += _search(gains, [(snr, adm.size)], adm, _segments(gains, adm))
            rows = []
        else:
            rows.append((snr, adm.size))
    return points + _search(gains, rows, primes, steps)


def theorem1_rates(gamma: Gain, snrs, p_max: Optional[int] = None) -> list[RatePoint]:
    """Achievable symmetric rate of the two-user same-codebook modulo MAC at each SNR of an
    iterable (drawn and checked in order), in one prime search: the max of rate_for_p over
    admissible primes up to p_max, ties to the smallest prime; rate 0 and no prime if none wins."""
    return _best_primes([gamma], snrs, p_max)


def theorem1_rate(gamma: Gain, snr: float, p_max: Optional[int] = None) -> RatePoint:
    """``theorem1_rates`` at one SNR."""
    return theorem1_rates(gamma, [snr], p_max)[0]


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


def theorem2_sym_rates(channel, snrs, p_max: Optional[int] = None) -> list[RatePoint]:
    """Achievable symmetric rate on a K-user integer-interference channel (a ChannelMatrix)
    at each SNR, as in ``theorem1_rates``: the max, over primes admissible for every direct
    gain, of the smallest per-receiver bound; the breakdown is the binding receiver's."""
    # first-occurrence order, so a tie for the binding receiver goes to the
    # lowest index
    return _best_primes(list(dict.fromkeys(channel.direct)), snrs, p_max)


def theorem2_sym_rate(channel, snr: float, p_max: Optional[int] = None) -> RatePoint:
    """``theorem2_sym_rates`` at one SNR."""
    return theorem2_sym_rates(channel, [snr], p_max)[0]


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
    power = (1.0 + hf * hf) * snr
    if math.isinf(power):  # 1 + power rounds to power long before this overflows
        return (K / 2.0) * 0.5 * (math.log2(snr) + 2.0 * math.log2(math.hypot(1.0, hf)))
    return (K / 2.0) * 0.5 * math.log2(1.0 + power)


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
