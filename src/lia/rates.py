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

The prime search is the one evaluation of the rate (tests/oracles.py keeps
per-prime references).  Each row's RatePoint holds p*, the rate, the binding gain
and its omega terms at p* (None where no prime wins); stdout prints no omega term.
It is exact but evaluates the omega terms only on
primes that can win, for a whole batch of rows at once; a row is a (gain list,
SNR) pair, all lists of a batch of one length.  A prime scores 0 unless it
passes every gain's admissibility test lhs < rhs (admissible_mask;
diophantine._admission rounds it); otherwise its rate is -log2 W, W =
max(sqrt(omega_a), omega_b) (for several gains, their largest W).  delta is
constant on a step of its staircase, so with sq = sqrt(2*pi/(3*SNR)) and
tail = 2 exp(-3*SNR/8), omega_b = 1/p + sq/delta + tail falls as p grows
there, and in omega_a = 1/p^2 + sq + f(p) + tail, f(p) = exp(-a/p^2)/p with
a = 1.5*SNR*delta^2 rises up to p = sqrt(2a) and falls after it.  So on the
primes in [p_s, p_e] of an interval on which delta is constant, W >= L with

    L = max(sqrt(1/p_e^2 + sq + min(f(p_s), f(p_e)) + tail),
            1/p_e + sq/delta + tail)

(for several gains, the max of their L; segments split at every gain's steps).
One rule (_keep) bounds each such interval.  It drops an interval whose first
prime fails the test beyond a slack, lhs > rhs (1 + 1e-12): in float,
rhs = 1 - p*tail never rises with p and the argument of exp never falls
(every rounded operation in them is monotone), and numpy's exp errs by a few
ulps, four orders of magnitude below the slack, so every later prime fails
too.  It also drops an interval with L > U (1 + 1e-12), U being the row's
smallest W at the last prime of an interval where that prime passes for every
gain: an actual value, so the winner's interval is kept.  So a row with no
admissible prime evaluates none, and the search is exact for any lhs
non-monotone in p by less than the slack.  The test is evaluated only where
the search already looks: at each interval's first and last prime, and at
every prime whose omega terms are evaluated.

The rule runs on two kinds of interval.  First on each row's steps, clipped
to its p_max; the sieve and steps are built once per gain list (cached), into
one table per batch.  Then, when the kept primes fill more than one batch, on
the kept steps cut into pieces of at most _PIECE primes, whose own first and
last primes give a tighter L and U.  The kept primes of all rows are then
evaluated together.  The intervals in one bound array and the kept primes in
one batch of omega terms are capped at _CHUNK, so memory stays flat in the
number of rows.  The slack, thousands of ulps, also covers the rounding of L
and U (math.exp and np.exp may differ in the last place) and of log2, so
every prime whose float rate ties the maximum is evaluated: ties still go to
the smallest prime.  delta = 0 steps score 0.
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
    _admission,
    _exp_tails,
    delta_for_primes,
    delta_step_starts,
    is_prime,
    mod_quarter_interval,
    primes_up_to,
)


def db_to_linear(snr_db: float) -> float:
    """The linear SNR of a dB value, refused unless finite and positive (no under- or overflow)."""
    if not math.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite, got {snr_db!r}")
    try:
        snr = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        raise ValueError(f"snr_db = {snr_db!r} overflows the linear scale") from None
    _require_positive_snr(snr)
    return snr


def _require_positive_snr(snr: float) -> None:
    if not (snr > 0 and math.isfinite(snr)):
        raise ValueError(f"snr must be positive and finite, got {snr!r}")


def default_p_max(snr: float) -> int:
    """Default prime search bound: max(101, ceil(sqrt(snr))), capped at PRIME_SEARCH_CAP."""
    _require_positive_snr(snr)
    return min(PRIME_SEARCH_CAP, max(101, math.ceil(math.sqrt(snr))))


@dataclass(frozen=True, slots=True)
class RatePoint:
    """An evaluated rate with the optimizing prime and its omega terms (None if none wins)."""

    gamma: Gain
    snr: float
    p_star: Optional[int]
    rate: float
    omega_a: Optional[float]
    omega_b: Optional[float]  # also the case-c term
    omega_d: Optional[float]


def _snr_terms(snr):
    """(c, tail, sq) = (1.5*SNR, 2 exp(-3*SNR/8), sqrt(2*pi/(3*SNR))) for an SNR or an array
    of them, the tail by math.exp as in admissible_mask; c may be inf."""
    snr = np.asarray(snr, dtype=float)
    with np.errstate(over="ignore"):
        return 1.5 * snr, 2.0 * _exp_tails(snr), np.sqrt(2.0 * math.pi / (3.0 * snr))


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


# Relative slack on the pruning bound: thousands of ulps (module docstring).
_PRUNE_SLACK = 1e-12
# Most intervals (steps or pieces) in one bound array, and most kept primes in one
# batch of omega terms, so memory stays flat in the number of rows: a batch's
# temporaries take about 1 MB (at 32,768 they took about 6 MB and raised the
# peak RSS of a 10,479-row sweep by about 14%).  One row's primes (at most
# 9,592, every prime <= PRIME_SEARCH_CAP) always fit.
_CHUNK = 1 << 12
# Most primes in one piece of a kept segment, bounded again before its primes are
# evaluated (module docstring); 16 and 32 timed fastest of 4 to 256.
_PIECE = 16


@lru_cache(maxsize=64)
def _gain_segments(gains: tuple):
    """Segments of the primes up to PRIME_SEARCH_CAP on which every gain's delta is constant
    and positive, once per gain list, read-only: first index, length, delta per gain and
    segment, and the gains' offsets."""
    primes = primes_up_to(PRIME_SEARCH_CAP)
    s = np.sort(np.concatenate([delta_step_starts(g, primes) for g in gains]))
    s = s[s < primes.size]
    e = np.concatenate((s[1:], [primes.size])) - 1
    dl = np.array([delta_for_primes(g, primes[s]) for g in gains])
    live = (e >= s) & (dl > 0.0).all(axis=0)
    offs = np.array([float(mod_quarter_interval(g)) for g in gains])
    segments = s[live], (e - s + 1)[live], dl[:, live], offs
    for a in segments:
        a.setflags(write=False)
    return segments


def _table(segments):
    """Gain lists' ``_gain_segments`` (one gain count) as one table, and each list's first."""
    first = np.cumsum([0] + [seg[0].size for seg in segments])
    s, w, dl = (np.concatenate([seg[i] for seg in segments], axis=-1) for i in range(3))
    return s, w, dl, np.array([seg[3] for seg in segments]), first


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


def _row_chunks(row, items, rows):
    """Slices [lo, hi) of row-ordered pairs, whole rows at a time, each holding at most
    _CHUNK items (one row may exceed it), where pair k holds items[k]."""
    for a, b in _chunks(np.bincount(row, items, minlength=rows).astype(np.int64)):
        lo, hi = row.searchsorted([a, b])
        if lo < hi:
            yield lo, hi


def _steps(table, lid, n, a, b):
    """The delta steps of rows [a, b), each clipped to its row's primes <= p_max (n of them),
    as (segment, row, first prime index, width), nonempty and in row order."""
    S, W, _, _, first = table
    row, k = _ragged(np.diff(first)[lid[a:b]])
    row += a
    t = first[lid[row]] + k
    width = np.minimum(n[row] - S[t], W[t])
    on = width > 0
    return t[on], row[on], S[t[on]], width[on]


def _pieces(t, row, start, width):
    """Kept steps cut into pieces of at most _PIECE primes, as (segment, row, first prime
    index, width)."""
    own, j = _ragged(-(-width // _PIECE))
    return t[own], row[own], start[own] + j * _PIECE, np.minimum(width[own] - j * _PIECE, _PIECE)


def _keep(primes, table, lid, terms, t, row, start, width):
    """Of nonempty intervals of primes in row order, each within one segment (so delta is
    constant on it), given as (segment, row, first prime index, width): those that can hold
    their row's winner.  An interval goes when its first prime fails the test beyond the
    slack, or when its L exceeds U (1 + slack), U being its row's smallest W at the last
    prime of an interval where that prime passes for every gain (module docstring)."""
    dl, off = table[2][:, t], table[3][lid[row]].T
    c, tail, sq = terms[:, row]
    ps, pe = primes[start].astype(float), primes[start + width - 1].astype(float)
    lhs, rhs = _admission(ps, off, c, tail)
    dead = (lhs > rhs * (1.0 + _PRUNE_SLACK)).any(axis=0)
    lhs, rhs = _admission(pe, off, c, tail)
    oa, ob = _omega_arrays(pe, dl, c, tail, sq)
    # omega_a at pe with f(pe) replaced by min(f(ps), f(pe))
    lower = np.maximum(np.sqrt(np.minimum(oa, pe**-2 + sq + _f_term(ps, dl, c) + tail)), ob)
    at_end = np.where((lhs < rhs).all(axis=0), np.maximum(np.sqrt(oa), ob).max(axis=0), np.inf)
    r = row - row[:1]  # an empty batch stays empty
    u = np.full(r.max(initial=-1) + 1, np.inf)
    np.minimum.at(u, r, at_end)
    keep = ~dead & ~(lower.max(axis=0) > u[r] * (1.0 + _PRUNE_SLACK))  # a NaN keeps it
    return t[keep], row[keep], start[keep], width[keep]


def _winners(primes, table, lid, terms, t, row, start, width):
    """Evaluate the kept primes of some rows (each kept interval's segment, row, first prime
    index and width, in row order) together: per row with a positive best rate, its row, p*,
    binding gain index, rate and (omega_a, omega_b, omega_d) there, as lists."""
    own, i = _ragged(width)
    t, row = t[own], row[own]
    pf = primes[start[own] + i].astype(float)
    c, tail, sq = terms[:, row]
    off = table[3][lid[row]].T
    oa, ob = _omega_arrays(pf, table[2][:, t], c, tail, sq)
    lhs, rhs = _admission(pf, off, c, tail)
    # a gain whose test fails scores 0, and so does a NaN rate (fmax: delta = 0
    # once 1.5 * SNR overflows)
    rates = np.where(lhs < rhs, np.fmax(_rate_from_omegas(oa, ob), 0.0), 0.0)
    overall = rates.min(axis=0)
    r = row - row[0]
    best = np.zeros(r[-1] + 1)
    np.maximum.at(best, r, overall)
    # ties: the smallest prime, then the first gain whose rate is smallest there
    win = np.flatnonzero((overall == best[r]) & (overall > 0.0))
    win = win[np.unique(r[win], return_index=True)[1]]
    j = (rates[:, win] == overall[win]).argmax(axis=0)
    od = _omega_d(pf[win], ob[j, win], off[j, win], c[win], tail[win])
    return (row[win].tolist(), pf[win].astype(np.int64).tolist(), j.tolist(), overall[win].tolist(),
            oa[j, win].tolist(), ob[j, win].tolist(), od.tolist())


def _best_primes(rows, p_max: Optional[int]) -> list[RatePoint]:
    """The rate of each row (gains, snr) of an iterable, drawn and checked in order: the max
    over primes <= p_max (default ``default_p_max(snr)``) of the smallest bound over the
    row's gains (0 where a gain's prime is inadmissible), ties to the smallest prime; the
    binding gain, the first whose bound is smallest at p*, names the point.  Every row's
    gain list has the same length."""
    primes = primes_up_to(PRIME_SEARCH_CAP)
    if p_max is not None:
        primes_up_to(p_max)  # refuses a bound above the search cap
    # one record per distinct gain list, and per row only its list's index
    lists, snrs, lid = {}, [], []
    for g, snr in rows:  # the first row that fails is the error
        _require_positive_snr(snr)
        snrs.append(snr)
        lid.append(lists.setdefault(tuple(g), len(lists)))
    if not snrs:
        return []
    keys, lid = list(lists), np.array(lid)
    # default_p_max once per distinct SNR; n counts each row's primes <= p_max
    limit = {x: default_p_max(x) if p_max is None else p_max for x in set(snrs)}
    n = primes.searchsorted([limit[x] for x in snrs], side="right")
    table = _table([_gain_segments(key) for key in keys])
    terms = np.array(_snr_terms(snrs))
    kept = [_keep(primes, table, lid, terms, *_steps(table, lid, n, a, b))
            for a, b in _chunks(np.diff(table[4])[lid])]
    kept = [np.concatenate(x) for x in zip(*kept)]  # segment, row, first prime, width
    if kept[3].sum() > _CHUNK:  # below, the cut costs more than the primes it drops
        cut = [_keep(primes, table, lid, terms, *_pieces(*(x[lo:hi] for x in kept)))
               for lo, hi in _row_chunks(kept[1], -(-kept[3] // _PIECE), len(snrs))]
        kept = [np.concatenate(x) for x in zip(*cut)]
        del cut  # held beside its concatenation, it raised a sweep's peak RSS by 1.7%
    points = [None] * len(snrs)
    for lo, hi in _row_chunks(kept[1], kept[3], len(snrs)):
        found = _winners(primes, table, lid, terms, *(x[lo:hi] for x in kept))
        for r, p, j, rate, oa, ob, od in zip(*found):
            points[r] = RatePoint(keys[lid[r]][j], snrs[r], p, rate, oa, ob, od)
    return [
        RatePoint(keys[i][0], snr, None, 0.0, None, None, None) if point is None else point
        for i, snr, point in zip(lid.tolist(), snrs, points)
    ]


def theorem1_rows(rows, p_max: Optional[int] = None) -> list[RatePoint]:
    """Achievable symmetric rate of the two-user same-codebook modulo MAC at each (gamma, snr)
    row of an iterable (drawn and checked in order), in one prime search: the max over
    primes up to p_max of the clamped bound, 0 at an inadmissible prime, ties to the
    smallest prime; rate 0 and no prime if none wins."""
    return _best_primes((((gamma,), snr) for gamma, snr in rows), p_max)


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


def theorem2_sym_rates(channel, snrs, p_max: Optional[int] = None) -> list[RatePoint]:
    """Achievable symmetric rate on a K-user integer-interference channel (a ChannelMatrix) at
    each SNR of an iterable, as in ``theorem1_rows``: the max over primes admissible for every
    direct gain of the smallest per-receiver bound, and the binding receiver's omega terms."""
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
