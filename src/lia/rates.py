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
can win, for a whole batch of rows at once; a row is a (gain list, SNR) pair.
The rate is -log2 W, W = max(sqrt(omega_a), omega_b) (for several gains,
their largest W).  delta is constant on a step of its staircase, so with sq =
sqrt(2*pi/(3*SNR)) and tail = 2 exp(-3*SNR/8), omega_b = 1/p + sq/delta +
tail falls as p grows there, and in omega_a = 1/p^2 + sq + f(p) + tail, f(p)
= exp(-a/p^2)/p with a = 1.5*SNR*delta^2 rises up to p = sqrt(2a) and falls
after it.  So on the primes in [p_s, p_e] of one step, W >= L with

    L = max(sqrt(1/p_e^2 + sq + min(f(p_s), f(p_e)) + tail), 1/p_e + sq/delta + tail)

(for several gains, the max of their L on segments split at every gain's
steps).  The sieve and steps are built once per gain list (cached), into one
table per batch.  Every (row, gain) pair's admissible prefix
comes from one vectorized search (a row whose admissible primes have a gap is
searched alone).  All (row, segment) pairs are bounded together: with U the
smallest W at the last prime of a segment wholly admissible for that row,
segments with L > U (1 + 1e-12) are dropped.  L bounds every prime of its
segment, so the winner's segment is always kept.  The kept primes of all rows
are then evaluated together.  Both the pairs in one bound array and the kept
primes in one batch of omega terms are capped at _CHUNK, so memory stays flat
in the number of rows.  The slack, thousands of ulps, covers the rounding of L
and U (reassociated; math.exp and np.exp may differ in the last place) and
log2, so every prime whose float rate ties the maximum is evaluated: ties
still go to the smallest prime.  delta = 0 steps score 0.
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


@dataclass(frozen=True, slots=True)
class OmegaBreakdown:
    """Per-case error-probability terms at one (p, gamma, SNR) point."""

    p: int
    gamma: Gain
    snr: float
    omega_a: float
    omega_b: float  # also the case-c term
    omega_d: float


@dataclass(frozen=True, slots=True)
class RatePoint:
    """An evaluated rate with the optimizing prime and its omega terms."""

    gamma: Gain
    snr: float
    p_star: Optional[int]
    rate: float
    breakdown: Optional[OmegaBreakdown]


def _snr_terms(snr):
    """(c, tail, sq) = (1.5*SNR, 2 exp(-3*SNR/8), sqrt(2*pi/(3*SNR))) for an SNR or an array
    of them, the tail by math.exp as in admissible_mask; c may be inf."""
    snr = np.asarray(snr, dtype=float)
    tail = np.array([math.exp(-0.375 * x) for x in snr.ravel().tolist()]).reshape(snr.shape)
    with np.errstate(over="ignore"):
        return 1.5 * snr, 2.0 * tail, np.sqrt(2.0 * math.pi / (3.0 * snr))


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
# Most (row, segment) pairs in one bound array, and most kept primes in one
# batch of omega terms, so memory stays flat in the number of rows: a batch's
# temporaries take about 1 MB (at 32,768 they took about 6 MB and raised the
# peak RSS of a 10,479-row sweep by about 14%).  One row's primes (at most
# 9,592, every prime <= PRIME_SEARCH_CAP) always fit.
_CHUNK = 1 << 12


def _segments(gains, primes):
    """Segments of an ascending prime array on which every gain's delta is constant and
    positive: first index and length; per segment 1/p_s, 1/p_e and p_e**-2; per gain and
    segment delta, 1/delta, -(delta/p_s)**2 and -(delta/p_e)**2; the gains' offsets."""
    s = np.sort(np.concatenate([delta_step_starts(g, primes) for g in gains]))
    s = s[s < primes.size]
    e = np.concatenate((s[1:], [primes.size])) - 1
    dl = np.array([delta_for_primes(g, primes[s]) for g in gains])
    live = (e >= s) & (dl > 0.0).all(axis=0)
    s, e, dl = s[live], e[live], dl[:, live]
    ps, pe = primes[s].astype(float), primes[e].astype(float)
    with np.errstate(over="ignore"):  # a subnormal delta: W is bounded by inf
        ends = np.array([1.0 / ps, 1.0 / pe, pe**-2])
        per_gain = np.stack([dl, 1.0 / dl, -((dl / ps) ** 2), -((dl / pe) ** 2)], axis=1)
    offs = np.array([float(mod_quarter_interval(g)) for g in gains])
    return s, e - s + 1, ends, per_gain, offs


@lru_cache(maxsize=64)
def _gain_segments(gains: tuple):
    """``_segments`` of every prime up to PRIME_SEARCH_CAP, once per gain list, read-only."""
    segments = _segments(gains, primes_up_to(PRIME_SEARCH_CAP))
    for a in segments:
        a.setflags(write=False)
    return segments


def _table(segments):
    """Several gain lists' ``_segments`` as one table, plus each list's first segment.  The
    gain axis is padded to the longest list by repeating a list's first gain, which changes
    no max, no min and no first match."""
    g = max(seg[4].size for seg in segments)

    def pad(a):
        return np.concatenate([a, a[:1].repeat(g - a.shape[0], axis=0)])

    first = np.cumsum([0] + [seg[0].size for seg in segments])
    s, w, ends = (np.concatenate([seg[i] for seg in segments], axis=-1) for i in range(3))
    per_gain = np.concatenate([pad(seg[3]) for seg in segments], axis=2)
    return s, w, ends, per_gain, np.array([pad(seg[4]) for seg in segments]), first


def _ragged(counts: np.ndarray):
    """For owners with counts c_0, c_1, ...: each of the sum(c) items' owner and index in it."""
    owner = np.arange(counts.size).repeat(counts)
    return owner, np.arange(owner.size) - (counts.cumsum() - counts)[owner]


def _chunks(counts: np.ndarray):
    """Consecutive owner ranges [a, b) holding at most _CHUNK items (one owner may exceed it)."""
    ends, a = counts.cumsum(), 0
    while a < counts.size:
        b = int(ends.searchsorted((ends[a - 1] if a else 0) + _CHUNK, side="right"))
        yield a, max(b, a + 1)
        a = max(b, a + 1)


def _prune(table, lid, n, terms, a, b):
    """The (row, segment) pairs of rows [a, b) that can hold their row's winner: each one's
    segment index in the table, row and number of admissible primes.  L per pair and U per
    row, from the wholly admissible segments, in reassociated float terms (the slack covers
    it)."""
    S, W, ends, per_gain, _, first = table
    nseg = (first[1:] - first[:-1])[lid[a:b]]
    row, k = _ragged(nseg)
    t = first[lid[a:b][row]] + k
    ips, ipe, ipe2 = ends[:, t]
    _, idl, xs, xe = per_gain[:, :, t].transpose(1, 0, 2)
    c, tail, sq = terms[:, a:b][:, row]
    width = np.minimum(np.maximum(n[a:b][row] - S[t], 0), W[t])  # admissible primes
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 once delta is subnormal
        fe = np.exp(c * xe) * ipe
        wb = ipe + sq * idl + tail
        head = ipe2 + (sq + tail)
        lower = np.maximum(np.sqrt(head + np.minimum(np.exp(c * xs) * ips, fe)), wb).max(axis=0)
        at_end = np.maximum(np.sqrt(head + fe), wb).max(axis=0)
        u = np.full(b - a, np.inf)
        np.minimum.at(u, row, np.where(width == W[t], at_end, np.inf))
    width[lower > u[row] * (1.0 + _PRUNE_SLACK)] = 0
    keep = width > 0
    return t[keep], row[keep] + a, width[keep]


def _winners(primes, table, lid, terms, t, row, width):
    """Evaluate the kept primes of some rows (each kept pair's segment, row and width, in
    row order) together: per row with a positive best rate, its row, p*, binding gain
    index, rate and (omega_a, omega_b, omega_d) there, as lists."""
    S, _, _, per_gain, offs, _ = table
    own, i = _ragged(width)
    t, row = t[own], row[own]
    pf = primes[S[t] + i].astype(float)
    c, tail, sq = terms[:, row]
    oa, ob = _omega_arrays(pf, per_gain[:, 0, t], c, tail, sq)
    # fmax: a NaN rate (delta = 0 once 1.5 * SNR overflows) clamps to 0
    rates = np.fmax(_rate_from_omegas(oa, ob), 0.0)
    overall = rates.min(axis=0)
    r = row - row[0]
    best = np.zeros(r[-1] + 1)
    np.maximum.at(best, r, overall)
    # ties: the smallest prime, then the first gain whose rate is smallest there
    win = np.flatnonzero((overall == best[r]) & (overall > 0.0))
    win = win[np.unique(r[win], return_index=True)[1]]
    j = (rates[:, win] == overall[win]).argmax(axis=0)
    od = _omega_d(pf[win], ob[j, win], offs[lid[row[win]], j], c[win], tail[win])
    return (row[win].tolist(), pf[win].astype(np.int64).tolist(), j.tolist(), overall[win].tolist(),
            oa[j, win].tolist(), ob[j, win].tolist(), od.tolist())


def _search(primes, table, gains, snrs, lid, n) -> list[RatePoint]:
    """The RatePoint of each row of gains[r] and snrs[r], whose admissible primes are
    primes[:n[r]] and whose segments are the table's list lid[r]."""
    terms = np.array(_snr_terms(snrs))
    first = table[5]
    kept = [_prune(table, lid, n, terms, a, b) for a, b in _chunks((first[1:] - first[:-1])[lid])]
    t, row, width = (np.concatenate(x) for x in zip(*kept))
    points = [None] * len(snrs)
    for a, b in _chunks(np.bincount(row, width, minlength=len(snrs)).astype(np.int64)):
        lo, hi = row.searchsorted([a, b])
        if lo == hi:
            continue
        found = _winners(primes, table, lid, terms, t[lo:hi], row[lo:hi], width[lo:hi])
        for r, p, j, rate, oa, ob, od in zip(*found):
            g = gains[r][j]
            points[r] = RatePoint(g, snrs[r], p, rate, OmegaBreakdown(p, g, snrs[r], oa, ob, od))
    return [
        RatePoint(g[0], snr, None, 0.0, None) if point is None else point
        for g, snr, point in zip(gains, snrs, points)
    ]


def _best_primes(rows, p_max: Optional[int]) -> list[RatePoint]:
    """The rate of each row (gains, snr) of an iterable, drawn and checked in order: the max
    over primes <= p_max (default ``default_p_max(snr)``) of the smallest bound over the
    row's gains (0 where a gain's prime is inadmissible), ties to the smallest prime; the
    binding gain, the first whose bound is smallest at p*, names the point."""
    primes = primes_up_to(PRIME_SEARCH_CAP)
    if p_max is not None:
        primes_up_to(p_max)  # refuses a bound above the search cap
    lists, gains, snrs, lid, limits = {}, [], [], [], []
    for g, snr in rows:  # the first row that fails is the error
        _require_positive_snr(snr)
        limits.append(default_p_max(snr) if p_max is None else p_max)
        gains.append(g)
        snrs.append(snr)
        lid.append(lists.setdefault(tuple(g), len(lists)))
    if not snrs:
        return []
    # every (row, gain) pair's admissible prefix in one search; where the
    # mask disagrees at a boundary, it decides the row's primes
    sizes = primes.searchsorted(limits, side="right")
    count = np.array([len(g) for g in gains])
    row = np.arange(count.size).repeat(count)
    flat = [x for g in gains for x in g]
    n, agree = admissible_prefix(primes, flat, np.array(snrs)[row], sizes[row])
    starts = count.cumsum() - count
    n, agree = np.minimum.reduceat(n, starts), np.logical_and.reduceat(agree, starts)
    alone = {}
    for r in np.flatnonzero(~agree).tolist():
        adm = primes[: sizes[r]]
        for g in gains[r]:
            adm = adm[admissible_mask(adm, g, snrs[r])]
        if adm.size and adm[-1] != primes[adm.size - 1]:
            alone[r] = adm  # the full mask left a gap: this row searches its own primes
        n[r] = 0 if r in alone else adm.size
    table = _table([_gain_segments(key) for key in lists])
    points = _search(primes, table, gains, snrs, np.array(lid), n)
    for r, adm in alone.items():
        table, size = _table([_segments(gains[r], adm)]), np.array([adm.size])
        points[r] = _search(adm, table, [gains[r]], [snrs[r]], np.array([0]), size)[0]
    return points


def theorem1_rows(rows, p_max: Optional[int] = None) -> list[RatePoint]:
    """Achievable symmetric rate of the two-user same-codebook modulo MAC at each (gamma, snr)
    row of an iterable (drawn and checked in order), in one prime search: the max of
    rate_for_p over admissible primes up to p_max, ties to the smallest prime; rate 0 and no
    prime if none wins."""

    def lists():
        gains = ()
        for gamma, snr in rows:
            # a run of rows of one gain shares its list: a 499-gain sweep
            # holds 499 lists, not one per row
            if not gains or gains[0] is not gamma:
                gains = (gamma,)
            yield gains, snr

    return _best_primes(lists(), p_max)


def theorem1_rates(gamma: Gain, snrs, p_max: Optional[int] = None) -> list[RatePoint]:
    """``theorem1_rows`` at one gain and each SNR of an iterable."""
    return theorem1_rows(((gamma, snr) for snr in snrs), p_max)


def theorem1_rate(gamma: Gain, snr: float, p_max: Optional[int] = None) -> RatePoint:
    """``theorem1_rows`` at one gain and one SNR."""
    return theorem1_rows([(gamma, snr)], p_max)[0]


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
    gains = tuple(dict.fromkeys(channel.direct))
    return _best_primes(((gains, snr) for snr in snrs), p_max)


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
