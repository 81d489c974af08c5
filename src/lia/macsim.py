"""Monte Carlo simulation of the two-user same-codebook modulo MAC.

The channel is y = [x1 + gamma*x2 + z]* with i.i.d. Gaussian noise of
variance 1/SNR.  The decoder is the exhaustive approximate-ML rule: over
ordered pairs (i, j) of messages whose vectors are linearly independent over
Z_p, it minimizes sum_t ([y_t - psi_t(i, j)]*)^2 with psi(i, j) =
[x_i + gamma*x_j]*, and declares an error when the minimum is attained more
than once.  Drawing a linearly dependent message pair counts as an error
without decoding.

Determinism contract: trial t draws its messages and noise from the
substream SeedSequence(seed, spawn_key=(t,)), so aggregate counts depend on
the seed alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codes import Codeword, LinearCode, ENUMERATION_CAP, encode, messages_dependent
from .diophantine import Gain
from .modarith import grid_real, mod_interval

_Z95 = 1.959963984540054  # standard normal 97.5% quantile
DECODER_TABLE_BYTES_CAP = 2**28  # bound on the pairs x n float64 psi table


class _Ambiguous:
    """Sentinel for a decoder tie (declared an error)."""

    __slots__ = ()

    def __repr__(self):
        return "AMBIGUOUS"


AMBIGUOUS = _Ambiguous()


@dataclass(frozen=True)
class MacConfig:
    gamma: Gain
    snr: float  # linear
    trials: int
    seed: int

    def __post_init__(self):
        if not (self.snr > 0 and math.isfinite(self.snr)):
            raise ValueError("snr must be positive and finite (linear scale)")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")


@dataclass(frozen=True)
class SimResult:
    """Error-probability estimate with a Wilson 95% interval.

    ``dependent`` and ``errors_independent`` split the error count into the
    dependent-draw floor and decoding failures on independent draws.
    """

    trials: int
    errors: int
    p_e: float
    ci95: tuple[float, float]
    dependent: int
    errors_independent: int


def wilson_interval(errors: int, trials: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (robust at small counts)."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    phat = errors / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials)) / denom
    # the interval must bracket the point estimate; cancellation at the
    # degenerate counts otherwise leaves lo a few ulp above 0 (or hi below 1)
    lo = 0.0 if errors == 0 else max(0.0, center - half)
    hi = 1.0 if errors == trials else min(1.0, center + half)
    return (min(lo, phat), max(hi, phat))


def mod_mac_channel(x1, x2, gamma: Gain, noise) -> np.ndarray:
    """Component-wise [x1 + gamma*x2 + z]*."""
    r1 = x1.reals if isinstance(x1, Codeword) else np.asarray(x1, dtype=float)
    r2 = x2.reals if isinstance(x2, Codeword) else np.asarray(x2, dtype=float)
    z = np.asarray(noise, dtype=float)
    if not (r1.shape == r2.shape == z.shape):
        raise ValueError("x1, x2 and noise must have equal length")
    return mod_interval(r1 + float(gamma) * r2 + z)


def _codebook(code: LinearCode, cap: int = ENUMERATION_CAP):
    """All p**k messages in lexicographic order and their real-form codewords."""
    count = code.p**code.k
    if count > cap:
        raise ValueError(f"p**k = {count} exceeds decoder cap {cap}")
    msgs = np.asarray(
        [w for w in np.ndindex(*([code.p] * code.k))], dtype=np.int64
    )
    return msgs, grid_real((msgs @ code.generator) % code.p, code.p)


def _nearest_row(y: np.ndarray, table: np.ndarray):
    """Index of the table row closest to y in sum_t ([y_t - row_t]*)^2.

    Returns None when the minimum is attained more than once (exact float
    equality), which the callers declare a decoding error.
    """
    d = mod_interval(y[None, :] - table)
    metrics = np.einsum("ij,ij->i", d, d)
    hits = np.flatnonzero(metrics == metrics.min())
    if hits.size > 1:
        return None
    return int(hits[0])


class PairDecoder:
    """Exhaustive decoder table for one (code, gamma) pair.

    Builds psi(i, j) for every ordered, linearly independent message pair
    once; decode() then scores a received vector against the whole table.
    There are (M - 1)(M - p) such pairs for M = p**k, and the table is
    refused before it is built when it would exceed DECODER_TABLE_BYTES_CAP.
    """

    def __init__(self, code: LinearCode, gamma: Gain, cap: int = ENUMERATION_CAP):
        msgs, reals = _codebook(code, cap)
        count = msgs.shape[0]
        table_bytes = (count - 1) * (count - code.p) * code.n * 8
        if table_bytes > DECODER_TABLE_BYTES_CAP:
            raise ValueError(
                f"decoder table needs {table_bytes} bytes, above the cap of"
                f" {DECODER_TABLE_BYTES_CAP} (reduce p, k or n)"
            )
        self.code = code
        self.gamma = gamma
        g = float(gamma)

        # dependency table: dep[i, j] iff (w_i, w_j) linearly dependent
        dep = np.zeros((count, count), dtype=bool)
        index = {w.tobytes(): i for i, w in enumerate(msgs)}
        zero = ~msgs.any(axis=1)
        dep[zero, :] = True
        dep[:, zero] = True
        for c in range(1, code.p):
            scaled = (c * msgs) % code.p
            for i in range(count):
                dep[i, index[scaled[i].tobytes()]] = True
        i_idx, j_idx = np.nonzero(~dep)
        if i_idx.size == 0:
            raise ValueError("empty search space: no independent message pairs (need k >= 2)")

        self.messages = msgs
        self.pair_index = (i_idx, j_idx)
        self.psi = mod_interval(reals[i_idx] + g * reals[j_idx])

    @property
    def n_pairs(self) -> int:
        return self.pair_index[0].size

    def decode(self, y):
        """Closest pair (w_i, w_j), or AMBIGUOUS when the minimum ties."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.code.n,):
            raise ValueError(f"received vector shape {y.shape} != ({self.code.n},)")
        h = _nearest_row(y, self.psi)
        if h is None:
            return AMBIGUOUS
        i_idx, j_idx = self.pair_index
        return (self.messages[i_idx[h]].copy(), self.messages[j_idx[h]].copy())


def estimate_error_prob(code: LinearCode, cfg: MacConfig) -> SimResult:
    """Monte Carlo estimate of the ordered-pair error probability.

    A trial errs when the drawn messages are linearly dependent, when the
    decoder is ambiguous, or when the decoded ordered pair differs from the
    transmitted one.  Deterministic in cfg.seed.
    """
    decoder = PairDecoder(code, cfg.gamma)
    gamma_f = float(cfg.gamma)
    sigma = math.sqrt(1.0 / cfg.snr)
    dependent = errors_independent = 0
    for t in range(cfg.trials):
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(t,)))
        w1 = rng.integers(0, code.p, size=code.k)
        w2 = rng.integers(0, code.p, size=code.k)
        if messages_dependent(w1, w2, code.p):
            dependent += 1
            continue
        z = rng.normal(0.0, sigma, size=code.n)
        y = mod_mac_channel(encode(code, w1), encode(code, w2), gamma_f, z)
        out = decoder.decode(y)
        errors_independent += int(
            out is AMBIGUOUS
            or not (np.array_equal(out[0], w1) and np.array_equal(out[1], w2))
        )
    errors = dependent + errors_independent
    return SimResult(
        trials=cfg.trials,
        errors=errors,
        p_e=errors / cfg.trials,
        ci95=wilson_interval(errors, cfg.trials),
        dependent=dependent,
        errors_independent=errors_independent,
    )
