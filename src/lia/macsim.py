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
DECODER_TABLE_BYTES_CAP = 2**28  # bound on PairDecoder's arrays plus one decode's temporaries
_RESCORE_ROWS = 4096  # near-tie candidates re-scored per chunk


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
    """All p**k messages in lexicographic order and their codeword residues.

    Row i of the messages holds the base-p digits of i, most significant
    first, so a message's row index is its base-p value.
    """
    count = code.p**code.k
    if count > cap:
        raise ValueError(f"p**k = {count} exceeds decoder cap {cap}")
    msgs = np.asarray(
        [w for w in np.ndindex(*([code.p] * code.k))], dtype=np.int64
    )
    return msgs, (msgs @ code.generator) % code.p


def _nearest_row(y: np.ndarray, tables):
    """Index of the row closest to y in sum_t ([y_t - row_t]*)^2.

    ``tables`` is an iterable of 2-D arrays whose rows, taken in order, are
    the candidates; the index counts across them.  Returns None when the
    minimum is attained more than once (exact float equality), which the
    callers declare a decoding error.
    """
    best, winner, tied, offset = np.inf, None, False, 0
    for table in tables:
        d = mod_interval(y[None, :] - table)
        metrics = np.einsum("ij,ij->i", d, d)
        low = metrics.min()
        if low <= best:
            at = np.flatnonzero(metrics == low)
            tied = at.size > 1 or low == best
            best, winner = low, offset + int(at[0])
        offset += table.shape[0]
    return None if tied else winner


def _decoder_bytes(count: int, n: int, p: int, k: int) -> int:
    """Bytes a PairDecoder holds plus the temporaries of one decode.

    Held: the one-hot codebook (count x n*p float64), the additive mask
    (count x count float64), the residues, their one-hot columns and the
    messages (int64), and psi.  Per decode: the gathered distances (count x
    n*p) beside the metric matrix (count x count float64, which the
    candidate list replaces), the candidate test (count x count bool), the n
    x p x p distance table with the temporaries of mod_interval, and one
    chunk of re-scored psi rows.  The build's boolean dependency table is
    smaller than the per-decode part.
    """
    onehot = count * n * p * 8
    square = count * count * 8
    held = onehot + square + count * (2 * n + k) * 8 + p * p * 8
    chunk = min(count * count, _RESCORE_ROWS) * (8 * n + 4) * 8
    return held + onehot + square + count * count + 8 * n * p * p * 8 + chunk


class PairDecoder:
    """Exhaustive decoder for one (code, gamma) pair, scored per component.

    Component t of the metric of the ordered message pair (i, j) depends only
    on the residue pair (a, b) = (c_i,t, c_j,t), through the p x p
    constellation ``psi[a, b] = [grid(a) + gamma*grid(b)]*``.  decode()
    builds the n x p x p table D[t, a, b] = ([y_t - psi[a, b]]*)^2, gathers
    E[i, (t, b)] = D[t, c_i,t, b] and scores every pair at once as the
    count x count matrix E @ A.T plus an additive mask, where A is the
    one-hot codebook and the mask is +inf on linearly dependent pairs.  No
    per-pair table is stored or formed; there are n_pairs = (M - 1)(M - p)
    independent pairs for M = p**k.

    The matrix product sums each metric in an order of its own, so pairs
    whose metrics tie exactly under one order can differ in the last bits.
    Every pair within a relative 16*n*eps of the minimum, which covers the
    rounding gap between any two summation orders of n nonnegative terms,
    is therefore re-scored on its psi row by ``_nearest_row`` (mod_interval,
    einsum, a minimum attained more than once is ambiguous), in chunks of
    _RESCORE_ROWS: every decision, ties included, is the one the exhaustive
    pairs x n table gives, bit for bit.  The decoder is refused before it is built when its
    arrays plus one decode's temporaries would exceed
    DECODER_TABLE_BYTES_CAP.
    """

    def __init__(self, code: LinearCode, gamma: Gain, cap: int = ENUMERATION_CAP):
        p, n = code.p, code.n
        count = p**code.k
        need = _decoder_bytes(count, n, p, code.k)
        if need > DECODER_TABLE_BYTES_CAP:
            raise ValueError(
                f"decoder needs {need} bytes, above the cap of"
                f" {DECODER_TABLE_BYTES_CAP} (reduce p, k or n)"
            )
        msgs, residues = _codebook(code, cap)
        self.code = code
        self.gamma = gamma
        self.messages = msgs
        self.residues = residues

        # dep[i, j] iff (w_i, w_j) linearly dependent: message 0 is the zero
        # vector, and j = c*w_i (c = 1..p-1) sits at row base-p value of c*w_i
        dep = np.zeros((count, count), dtype=bool)
        dep[0, :] = True
        dep[:, 0] = True
        multiples = (np.arange(1, p)[:, None, None] * msgs) % p
        dep[np.arange(count), multiples @ (p ** np.arange(code.k - 1, -1, -1))] = True
        self.n_pairs = dep.size - int(np.count_nonzero(dep))
        if self.n_pairs == 0:
            raise ValueError("empty search space: no independent message pairs (need k >= 2)")
        self.mask = np.where(dep, np.inf, 0.0)
        del dep

        grid = grid_real(np.arange(p), p)
        self.psi = mod_interval(grid[:, None] + float(gamma) * grid[None, :])
        # column t*p + c_i,t of the one-hot row i; also the row of D[t, c_i,t]
        # in D reshaped to (n*p) x p
        self._cols = residues + p * np.arange(n)
        self._onehot = np.zeros((count, n * p))
        np.put_along_axis(self._onehot, self._cols, 1.0, axis=1)
        self._slack = 16 * n * np.finfo(float).eps
        # rounding of squares below the normal range is absolute, not relative
        self._floor = n * np.finfo(float).smallest_subnormal

    def decode(self, y):
        """Closest pair (w_i, w_j), or AMBIGUOUS when the minimum ties."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.code.n,):
            raise ValueError(f"received vector shape {y.shape} != ({self.code.n},)")
        count = self.messages.shape[0]
        d = mod_interval(y[:, None, None] - self.psi)
        e = np.take((d * d).reshape(-1, self.code.p), self._cols, axis=0)
        s = e.reshape(count, -1) @ self._onehot.T
        del e
        s += self.mask
        near = s <= s.min() * (1.0 + self._slack) + self._floor
        del s  # the candidate list below takes the metric matrix's place
        hits = np.flatnonzero(near)
        if hits.size > 1:
            chunks = (
                self._psi_rows(hits[start : start + _RESCORE_ROWS])
                for start in range(0, hits.size, _RESCORE_ROWS)
            )
            h = _nearest_row(y, chunks)
            if h is None:
                return AMBIGUOUS
            hits = hits[h : h + 1]
        i, j = divmod(int(hits[0]), count)
        return (self.messages[i].copy(), self.messages[j].copy())

    def _psi_rows(self, flat):
        """psi(i, j) rows, n components each, of the pairs at flat = i*M + j."""
        rows, cols = np.divmod(flat, self.messages.shape[0])
        return self.psi[self.residues[rows], self.residues[cols]]


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
