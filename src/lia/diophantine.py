"""Rational approximation quality delta(p, gamma) and prime admissibility.

delta(p, gamma) = min over l in {1, ..., p-1} of |l*gamma - round(l*gamma)|
measures how well gamma is approximated by fractions with denominator below
p; it vanishes exactly when gamma is rational with denominator < p and it
drives the effective-SNR penalty in the rate bounds.  A continued-fraction
oracle computes the same quantity independently for cross-validation and
for scans over large prime ranges.

Gains are either exact ``Fraction`` values or floats.  Text in the form
"r/q" parses to the exact path, decimal text to the float path.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Union

import numpy as np

Gain = Union[Fraction, float]


def parse_gain(text: str) -> Gain:
    """Parse "r/q" as an exact Fraction and decimal text as a float."""
    s = text.strip()
    if "/" in s:
        num, _, den = s.partition("/")
        try:
            value = Fraction(int(num), int(den))
        except ZeroDivisionError:
            raise ValueError(f"gain {text!r} has a zero denominator") from None
        try:
            float(value)
        except OverflowError:
            raise ValueError(f"gain must be finite, got {text!r}") from None
        return value
    value = float(s)
    if not math.isfinite(value):
        raise ValueError(f"gain must be finite, got {text!r}")
    return value


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


# Hard cap on the prime search; the optimizing prime sits near SNR**(1/4),
# so searching up to sqrt(SNR) already leaves ample slack.
PRIME_SEARCH_CAP = 100_000


@lru_cache(maxsize=1)
def _all_primes() -> np.ndarray:
    """Every prime <= PRIME_SEARCH_CAP, sieved once."""
    sieve = np.ones(PRIME_SEARCH_CAP + 1, dtype=bool)
    sieve[:2] = False
    for q in range(2, math.isqrt(PRIME_SEARCH_CAP) + 1):
        if sieve[q]:
            sieve[q * q :: q] = False
    primes = np.flatnonzero(sieve).astype(np.int64)
    primes.setflags(write=False)
    return primes


def primes_up_to(limit: int) -> np.ndarray:
    """All primes <= limit <= PRIME_SEARCH_CAP, ascending, as a read-only view."""
    if limit > PRIME_SEARCH_CAP:
        raise ValueError(f"prime limit {limit} exceeds the search cap {PRIME_SEARCH_CAP}")
    primes = _all_primes()
    return primes[: primes.searchsorted(limit, side="right")]


def _round_half_away(x: Fraction) -> int:
    """Nearest integer, ties away from zero."""
    ax = abs(x)
    q = (2 * ax.numerator + ax.denominator) // (2 * ax.denominator)
    return q if x >= 0 else -q


def delta(p: int, gamma: Gain):
    """Direct enumeration of min_{1<=l<p} |l*gamma - round(l*gamma)|.

    Exact rational arithmetic when gamma is a Fraction (the result is then a
    Fraction); float enumeration otherwise.  Always in [0, 1/2].
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if isinstance(gamma, Fraction):
        best = None
        for l in range(1, p):
            v = l * gamma
            err = abs(v - _round_half_away(v))
            if best is None or err < best:
                best = err
                if best == 0:
                    break
        return best
    g = float(gamma)
    if not math.isfinite(g):
        raise ValueError("gamma must be finite")
    # delta is 1-periodic in gamma and fmod is exact, so l * g cannot overflow
    g = math.fmod(g, 1.0)
    l = np.arange(1, p, dtype=float)
    v = l * g
    return float(np.abs(v - np.rint(v)).min())


_DENOMINATOR_CAP = 2**62  # keep staircase denominators inside int64


def _convergents(x: Fraction):
    """Continued-fraction convergents (h, q) of x, in order, q nondecreasing."""
    n, d = x.numerator, x.denominator
    h_km1, h_km2 = 1, 0
    q_km1, q_km2 = 0, 1
    out = []
    while d != 0:
        a, r = divmod(n, d)
        h_k = a * h_km1 + h_km2
        q_k = a * q_km1 + q_km2
        if out and out[-1][1] == q_k:
            out[-1] = (h_k, q_k)  # a_1 = 1 repeats q = 1; keep the better one
        else:
            out.append((h_k, q_k))
        n, d = d, r
        h_km2, h_km1 = h_km1, h_k
        q_km2, q_km1 = q_km1, q_k
    return out


def best_rational_oracle(gamma: Gain, p: int):
    """Best approximation a/l with 1 <= l < p via continued fractions.

    Returns (Fraction(a, l), l * |gamma - a/l|).  The error equals
    delta(p, gamma); rounding ties report the fraction rounded away from
    zero.  Independent of the enumeration path in delta().
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    x = gamma if isinstance(gamma, Fraction) else Fraction(float(gamma))
    best_q = 1
    for _, q in _convergents(x):
        if q > p - 1:
            break
        best_q = q
    a = _round_half_away(best_q * x)
    err = abs(best_q * x - a)
    return Fraction(a, best_q), float(err)


@lru_cache(maxsize=512)
def _approx_staircase(gamma: Gain):
    """Best-approximation error as a step function of the denominator bound.

    Returns (denominators, errors): for any bound D >= 1 the minimum of
    |l*gamma - round(l*gamma)| over 1 <= l <= D is errors[i] with i the
    largest index such that denominators[i] <= D.  Exact for Fractions; a
    float gamma is expanded at its exact binary value.
    """
    x = gamma if isinstance(gamma, Fraction) else Fraction(float(gamma))
    dens, errs = [], []
    for h, q in _convergents(x):
        if q > _DENOMINATOR_CAP:
            # beyond any queriable bound; the last recorded step stays the
            # minimizer for every denominator bound up to the cap
            break
        dens.append(q)
        errs.append(float(abs(q * x - h)))
    dens = np.asarray(dens, dtype=np.int64)
    errs = np.asarray(errs, dtype=float)
    dens.setflags(write=False)
    errs.setflags(write=False)
    return dens, errs


def delta_for_primes(gamma: Gain, primes: np.ndarray) -> np.ndarray:
    """delta(p, gamma) for a whole array of primes, via the staircase."""
    dens, errs = _approx_staircase(gamma)
    idx = np.searchsorted(dens, np.asarray(primes) - 1, side="right") - 1
    return errs[idx]


@lru_cache(maxsize=1024, typed=True)
def mod_quarter_interval(gamma: Gain):
    """Reduce gamma into [-1/4, 1/4) by integer multiples of 1/2."""
    if isinstance(gamma, Fraction):
        m = math.floor(2 * gamma + Fraction(1, 2))
        return gamma - Fraction(m, 2)
    # fmod is exact, so every finite float reduces (2 * gamma may overflow)
    r = math.fmod(float(gamma), 0.5)
    if r >= 0.25:
        r -= 0.5
    elif r < -0.25:
        r += 0.5
    return r


def _offsets(gamma):
    """The float reduction of one gain into [-1/4, 1/4), or an array of them for a list."""
    if isinstance(gamma, (list, tuple)):
        return np.array([float(mod_quarter_interval(g)) for g in gamma])
    return float(mod_quarter_interval(gamma))


def _exp_tails(snr: np.ndarray) -> np.ndarray:
    """exp(-3*SNR/8) for each SNR, by math.exp (np.exp may differ in the last place)."""
    return np.array([math.exp(-0.375 * x) for x in snr.ravel().tolist()]).reshape(snr.shape)


def admissible_mask(primes: np.ndarray, gamma, snr) -> np.ndarray:
    """Boolean mask of primes passing the non-degeneracy condition.

    A prime p qualifies when
        exp(-(3*SNR / (2 p^2)) * g^2) < 1 - 2 p exp(-3*SNR/8)
    with g the centered reduction of gamma into [-1/4, 1/4).  ``gamma`` is one
    gain or a list of gains; the primes, the gains and ``snr`` broadcast.
    """
    off = _offsets(gamma)
    pf = np.asarray(primes, dtype=float)
    snr = np.asarray(snr, dtype=float)
    # 1.5 * SNR may overflow; inf * 0 is then NaN, inadmissible
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = np.exp(-(1.5 * snr / pf**2) * off * off)
        return lhs < 1.0 - 2.0 * pf * _exp_tails(snr)


def admissible_prefix(primes: np.ndarray, gamma, snr, size=None):
    """How many leading primes of ``primes[:size]`` (an ascending array; size defaults to
    its length) ``admissible_mask`` admits, for each element of the broadcast gamma (one
    gain or a list), snr and size.  The admissible primes are a prefix (lhs rises with p,
    rhs falls), so one search narrows every element's count at once: each round probes
    every open count's interval at k - 1 points, k as large as keeps a round within 2,048
    probes, between 2 (bisection, which long batches use) and 128 (a few rounds of a few
    numpy calls for a single element).

    Returns (count, agrees): agrees is False where the mask disagrees with the count on
    either side of the boundary, and the full mask must decide there.
    """
    off, snr, size = np.broadcast_arrays(
        _offsets(gamma), np.asarray(snr, dtype=float), len(primes) if size is None else size
    )
    k = min(128, max(2, 2048 // max(1, size.size)))
    parts, last = np.arange(1, k), len(primes) - 1
    # the condition of admissible_mask, rounded the same way
    with np.errstate(over="ignore", invalid="ignore"):
        nc, off, t2 = -(1.5 * snr)[..., None], off[..., None], 2.0 * _exp_tails(snr)[..., None]
        lo, hi = np.zeros(size.shape, dtype=np.int64), size.astype(np.int64)
        while (lo < hi).any():
            i = lo[..., None] + (hi - lo)[..., None] * parts // k
            p = primes[np.minimum(i, last)] * 1.0
            ok = np.exp(nc / p**2 * off * off) < 1.0 - p * t2
            lo = np.maximum(lo, np.where(ok, i + 1, 0).max(-1))
            hi = np.minimum(hi, np.where(ok, hi[..., None], i).min(-1))
            lo = np.minimum(lo, hi)  # a closed count stays put
    window = np.stack([np.maximum(lo - 1, 0), lo])
    got = admissible_mask(primes[np.minimum(window, last)], gamma, snr) if last >= 0 else False
    return lo, ((got == (window < lo)) | (window >= size)).all(axis=0)


def delta_step_starts(gamma: Gain, primes: np.ndarray) -> np.ndarray:
    """Index of each staircase step's first prime in an ascending prime array
    (repeated, or len(primes), for steps that hold no prime)."""
    return np.searchsorted(primes, _approx_staircase(gamma)[0] + 1)

