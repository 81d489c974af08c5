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
the seed alone.  trial_blocks, the trial engine of both simulators, cuts the
trials into blocks and gives each trial its own substreams; a block's
codewords come from a codebook lookup, its dependent draws from the
decoder's mask, its received vectors from one channel evaluation, and its
decisions from one PairDecoder.decode_many call, which decides every row
exactly as decoding it alone would.  The substreams' generators are built
from seed words that substream_words hashes for a whole span of trials at
once, the words SeedSequence itself would generate, so every draw is the one
SeedSequence's own generator makes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .codes import Codebook, Codeword, LinearCode
# macsim.encode stays importable: bench/test_bench.py checks the tracer patches it here
from .codes import encode  # noqa: F401
from .diophantine import Gain
from .modarith import grid_real, mod_interval
from .rates import _require_positive_snr

DECODER_TABLE_BYTES_CAP = 2**28  # bound on PairDecoder's arrays plus one block decode's temporaries
_RESCORE_ROWS = 4096  # near-tie candidates re-scored per chunk
_BATCH_BYTES = 2**20  # temporaries of one block decode, when one decode's are smaller
_SPAN_TRIALS = 1024  # trials whose substream words are hashed together, rounded to whole blocks
_MASK32 = 2**32 - 1
# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


class _Ambiguous:
    """Sentinel for a decoder tie (declared an error)."""

    __slots__ = ()

    def __repr__(self):
        return "AMBIGUOUS"


AMBIGUOUS = _Ambiguous()


def check_run(snr: float, trials: int, seed: int, gains, p: int) -> None:
    """The run check of both simulators, made before either builds anything."""
    _require_positive_snr(snr)
    if not math.isfinite(1.0 / snr):
        raise ValueError(f"snr {snr!r} is too small: the noise variance 1/snr overflows")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if trials > 2**32:
        # trial t is one 32-bit word of its substream's spawn key
        raise ValueError(f"trials must be at most 2**32, got {trials}")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    # each gain scales the points of the prime-p grid, whose largest |point|
    # sits at the residues next to p/2; no O(p) array before the size caps
    top = float(np.abs(grid_real(np.array([p // 2, (p + 1) // 2]), p)).max())
    for g in gains:
        if not math.isfinite(float(g) * top):
            raise ValueError(f"gain {g} times the p={p} grid overflows a float")


@dataclass(frozen=True)
class SimResult:
    """Error-probability estimate with a Wilson 95% interval.

    ``dependent`` and ``errors_independent`` split the error count into the
    dependent-draw floor and decoding failures on independent draws;
    ``ambiguous`` counts the decoder ties among the latter, so
    errors_independent - ambiguous are wrong decodes.
    """

    trials: int
    errors: int
    p_e: float
    ci95: tuple[float, float]
    dependent: int
    errors_independent: int
    ambiguous: int


def wilson_interval(errors: int, trials: int) -> tuple[float, float]:
    """Wilson score 95% interval for a binomial proportion (robust at small counts)."""
    z = 1.959963984540054  # standard normal 97.5% quantile
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


def _blocks(total: int, size: int):
    """Consecutive ranges of at most ``size`` indices covering range(total)."""
    return (range(start, min(start + size, total)) for start in range(0, total, size))


def nearest_rows(Y: np.ndarray, tables) -> np.ndarray:
    """Index of the row closest to each row y of Y in sum_t ([y_t - row_t]*)^2.

    ``tables`` is an iterable of 2-D arrays whose rows, taken in order, are
    the candidates; the index counts across them.  It is -1 where the
    minimum is attained more than once (exact float equality), which the
    callers declare a decoding error.  A metric's bits do not depend on how
    many rows Y or a table has: mod_interval is elementwise and einsum sums
    each row's n terms in an order fixed by n.
    """
    best = np.full(Y.shape[0], np.inf)
    winner = np.zeros(Y.shape[0], dtype=np.int64)
    tied = np.zeros(Y.shape[0], dtype=bool)
    offset = 0
    for table in tables:
        d = mod_interval(Y[:, None, :] - table).reshape(-1, table.shape[1])
        metrics = np.einsum("ij,ij->i", d, d).reshape(Y.shape[0], -1)
        low = metrics.min(axis=1)
        at = metrics == low[:, None]
        take = low <= best
        tied = np.where(take, (np.count_nonzero(at, axis=1) > 1) | (low == best), tied)
        winner = np.where(take, offset + at.argmax(axis=1), winner)
        best = np.minimum(best, low)
        offset += table.shape[0]
    return np.where(tied, -1, winner)


def _per_vector_bytes(count: int, n: int, p: int) -> int:
    """Temporaries of decoding one received vector.

    The gathered distances (count x n*p float64) beside the metric matrix
    (count x count float64), the candidate test (count x count bool) and the
    n x p x p distance table with the temporaries of mod_interval.
    """
    return count * n * p * 8 + count * count * 9 + 8 * n * p * p * 8


def _block_rows(count: int, n: int, p: int) -> int:
    """Received vectors decoded together: as many as fit in _BATCH_BYTES, at least one."""
    return max(1, _BATCH_BYTES // _per_vector_bytes(count, n, p))


def _decoder_bytes(count: int, n: int, p: int, k: int) -> int:
    """Bytes a PairDecoder holds plus the temporaries of one block decode.

    Held: the one-hot codebook (count x n*p float64), the additive mask
    (count x count float64), the Codebook (messages, residues and reals)
    with the residues' one-hot columns, and psi.  Per block: the
    temporaries of _block_rows received vectors (_per_vector_bytes each;
    the block's candidate list takes the place of its freed metric
    matrices), and one chunk of re-scored psi rows.  The build's boolean
    dependency table is smaller than the per-block part.
    """
    held = count * n * p * 8 + count * count * 8 + count * (3 * n + k) * 8 + p * p * 8
    chunk = min(count * count, _RESCORE_ROWS) * (8 * n + 4) * 8
    return held + _block_rows(count, n, p) * _per_vector_bytes(count, n, p) + chunk


class PairDecoder:
    """Exhaustive decoder for one (code, gamma) pair, scored per component.

    Component t of the metric of the ordered message pair (i, j) depends only
    on the residue pair (a, b) = (c_i,t, c_j,t), through the p x p
    constellation ``psi[a, b] = [grid(a) + gamma*grid(b)]*``.  decode_many()
    takes a block of received vectors y and builds, per y, the n x p x p
    table D[t, a, b] = ([y_t - psi[a, b]]*)^2, gathers E[i, (t, b)] =
    D[t, c_i,t, b] and scores every pair at once as the count x count matrix
    E @ A.T plus an additive mask, where A is the one-hot codebook and the
    mask is +inf on linearly dependent pairs; the whole block is one
    distance table, one gather and one matrix product.  No per-pair table is
    stored or formed; there are n_pairs = (M - 1)(M - p) independent pairs
    for M = p**k.

    The matrix product sums each metric in an order of its own, so pairs
    whose metrics tie exactly under one order can differ in the last bits.
    Every pair within a relative 16*n*eps of its row's minimum, which covers
    the rounding gap between any two summation orders of n nonnegative
    terms, is therefore re-scored on its psi row by ``nearest_rows``
    (mod_interval, einsum, a minimum attained more than once is ambiguous),
    in chunks of _RESCORE_ROWS: every decision, ties included, is the one
    the exhaustive pairs x n table gives, bit for bit, however many vectors
    are decoded together.  block_rows vectors are decoded at a time (see
    _block_rows).  The decoder is refused before it is built when its
    arrays plus one block decode's temporaries would exceed
    DECODER_TABLE_BYTES_CAP.
    """

    def __init__(self, code: LinearCode, gamma: Gain):
        p, n = code.p, code.n
        count = p**code.k
        need = _decoder_bytes(count, n, p, code.k)
        if need > DECODER_TABLE_BYTES_CAP:
            raise ValueError(
                f"decoder needs {need} bytes, above the cap of"
                f" {DECODER_TABLE_BYTES_CAP} (reduce p, k or n)"
            )
        self.code = code
        self.gamma = gamma
        self.book = book = Codebook(code)
        self.block_rows = _block_rows(count, n, p)

        # dep[i, j] iff (w_i, w_j) linearly dependent: message 0 is the zero
        # vector, and j = c*w_i (c = 1..p-1) sits at row base-p value of c*w_i
        dep = np.zeros((count, count), dtype=bool)
        dep[0, :] = True
        dep[:, 0] = True
        multiples = (np.arange(1, p)[:, None, None] * book.messages) % p
        dep[np.arange(count), book.rows(multiples)] = True
        self.n_pairs = dep.size - int(np.count_nonzero(dep))
        if self.n_pairs == 0:
            raise ValueError("empty search space: no independent message pairs (need k >= 2)")
        self.mask = np.where(dep, np.inf, 0.0)
        del dep

        grid = grid_real(np.arange(p), p)
        self.psi = mod_interval(grid[:, None] + float(gamma) * grid[None, :])
        # column t*p + c_i,t of the one-hot row i; also the row of D[t, c_i,t]
        # in D reshaped to (n*p) x p
        self._cols = book.residues + p * np.arange(n)
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
        h = int(self.decode_many(y[None])[0])
        if h < 0:
            return AMBIGUOUS
        i, j = divmod(h, len(self.book))
        return (self.book.messages[i].copy(), self.book.messages[j].copy())

    def decode_many(self, Y) -> np.ndarray:
        """Decide each row y of Y: the closest pair's flat index i*M + j, -1 on a tie.

        Row by row the decisions are decode()'s; block_rows rows are scored at
        a time.
        """
        Y = np.asarray(Y, dtype=float)
        if Y.ndim != 2 or Y.shape[1] != self.code.n:
            raise ValueError(f"received block shape {Y.shape} != (rows, {self.code.n})")
        out = np.empty(Y.shape[0], dtype=np.int64)
        for block in _blocks(Y.shape[0], self.block_rows):
            out[block.start : block.stop] = self._decode_block(Y[block.start : block.stop])
        return out

    def _decode_block(self, Y):
        rows, (n, p) = Y.shape[0], (self.code.n, self.code.p)
        count = len(self.book)
        d = mod_interval(Y[:, :, None, None] - self.psi)
        e = np.take((d * d).reshape(rows, n * p, p), self._cols, axis=1)
        del d
        s = e.reshape(rows * count, n * p) @ self._onehot.T
        del e
        s = s.reshape(rows, count * count)
        s += self.mask.reshape(-1)
        near = s <= s.min(axis=1, keepdims=True) * (1.0 + self._slack) + self._floor
        del s  # the candidate list below takes the metric matrix's place
        flat = np.flatnonzero(near)  # r*M*M + i*M + j for pair (i, j) of row r, ascending
        del near
        square = count * count
        first = np.searchsorted(flat, np.arange(rows + 1) * square)
        out = flat[first[:-1]] - np.arange(rows) * square
        for r in np.flatnonzero(np.diff(first) > 1):
            hits = flat[first[r] : first[r + 1]]
            chunks = (
                self._psi_rows(hits[c.start : c.stop] - r * square)
                for c in _blocks(hits.size, _RESCORE_ROWS)
            )
            h = nearest_rows(Y[r : r + 1], chunks)[0]
            out[r] = -1 if h < 0 else hits[h] - r * square
        return out

    def _psi_rows(self, flat):
        """psi(i, j) rows, n components each, of the pairs at flat = i*M + j."""
        rows, cols = np.divmod(flat, len(self.book))
        return self.psi[self.book.residues[rows], self.book.residues[cols]]


def _words32(x: int) -> list[int]:
    """x >= 0 as little-endian 32-bit words, as SeedSequence reads an int (0 is one word)."""
    x = int(x)
    if x < 0:
        raise ValueError(f"seed entropy must be non-negative, got {x}")
    words = [x & _MASK32]
    while x > _MASK32:
        x >>= 32
        words.append(x & _MASK32)
    return words


def _hashmix(value, const: int, mult: int = _MULT_A):
    """SeedSequence's hashmix of a word (an int or a uint32 array): (hashed, next constant)."""
    const_next = const * mult & _MASK32
    value = (value ^ const) * const_next & _MASK32
    return value ^ value >> 16, const_next


def _mix(x, y):
    """SeedSequence's mix of two words, each an int or a uint32 array."""
    r = (_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32) & _MASK32
    return r ^ r >> 16


def _mix_in(pool: list, words, const: int):
    """Mix each of ``words`` into every pool word in turn: (pool, next hash constant)."""
    pool = list(pool)
    for w in words:
        for dst in range(_POOL_WORDS):
            h, const = _hashmix(w, const)
            pool[dst] = _mix(pool[dst], h)
    return pool, const


def substream_words(seed: int, ts, keys) -> np.ndarray:
    """SeedSequence(seed, spawn_key=(t, *key)).generate_state(4, np.uint64) for every t
    in ``ts`` and key in ``keys``, as a C-contiguous len(ts) x len(keys) x 4 array.

    SeedSequence's hash of the entropy words: the seed's 32-bit words, zero-padded to
    the 4-word pool, then t's one word, then the key's words.  The pool that the seed
    makes is the same for every t, so it is hashed once on ints; t's word and
    everything after it are hashed on uint32 arrays over all of ``ts`` at once.  A t
    that does not fit one word is refused, not wrapped.
    """
    t = np.asarray(ts)
    if t.size and (t.min() < 0 or t.max() > _MASK32):
        raise ValueError("every trial index must fit one 32-bit word")
    t = t.astype(np.uint32).reshape(-1)
    entropy = _words32(seed)
    entropy += [0] * (_POOL_WORDS - len(entropy))
    const = _INIT_A
    pool = []
    for w in entropy[:_POOL_WORDS]:
        h, const = _hashmix(w, const)
        pool.append(h)
    # mix every pool word into every other, so late words affect early ones
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                h, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], h)
    pool, const = _mix_in(pool, entropy[_POOL_WORDS:] + [t], const)
    state = np.empty((t.size, len(keys), 2 * 4), dtype=np.uint32)
    for j, key in enumerate(keys):
        key_pool, _ = _mix_in(pool, [w for k in key for w in _words32(k)], const)
        gen = _INIT_B
        for i in range(2 * 4):
            state[:, j, i], gen = _hashmix(key_pool[i % _POOL_WORDS], gen, _MULT_B)
    # pairs of 32-bit words, viewed as 64-bit words as SeedSequence views its state
    return state.view(np.uint64)


@functools.cache
def _generator_from_words():
    """The function that makes a substream's Generator from its substream_words entry.

    numpy seeds PCG64 from the words as from SeedSequence(seed, spawn_key=(t, *key)).
    Built on first use, so that importing lia does not import numpy.random.
    """
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class Words(ISeedSequence):
        """A seed sequence whose generate_state(4, np.uint64) is given."""

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("only the 4 uint64 words PCG64 seeds from are held")
            return self.words

    return lambda words: Generator(PCG64(Words(words)))


def trial_blocks(code: LinearCode, trials: int, seed: int, keys):
    """The trial engine: yields range(trials) in the blocks a PairDecoder of ``code``
    decodes together, each with an iterator that makes trial t's generators only when it
    reaches t, one per key, drawing from SeedSequence(seed, spawn_key=(t, *key)).

    The generators' seed words come from one substream_words pass per span of whole
    blocks (about _SPAN_TRIALS trials), so the blocks are those of the trials alone.
    """
    size = _block_rows(code.p**code.k, code.n, code.p)
    span = max(size, _SPAN_TRIALS // size * size)
    generator = _generator_from_words()
    for start in range(0, trials, span):
        words = substream_words(seed, range(start, min(start + span, trials)), keys)
        for block in _blocks(words.shape[0], size):
            yield range(start + block.start, start + block.stop), (
                [generator(w) for w in trial] for trial in words[block.start : block.stop]
            )


def estimate_error_prob(
    code: LinearCode, gamma: Gain, snr: float, trials: int, seed: int
) -> SimResult:
    """Monte Carlo estimate of the ordered-pair error probability at linear SNR.

    A trial errs when the drawn messages are linearly dependent, when the
    decoder is ambiguous, or when the decoded ordered pair differs from the
    transmitted one.  Deterministic in seed.
    """
    check_run(snr, trials, seed, [gamma], code.p)
    decoder = PairDecoder(code, gamma)
    book = decoder.book
    sigma = math.sqrt(1.0 / snr)
    dependent = errors_independent = ambiguous = 0
    for block, generators in trial_blocks(code, trials, seed, [()]):
        rngs = [g for (g,) in generators]  # kept: independent draws draw their noise below
        # w1 then w2 from each trial's substream: one (2, k) call draws what two k calls would
        sent = book.rows([g.integers(0, code.p, size=(2, code.k)) for g in rngs])
        independent = np.flatnonzero(decoder.mask[sent[:, 0], sent[:, 1]] == 0.0)
        dependent += len(block) - independent.size
        sent = sent[independent]
        # only independent draws go on to draw their noise
        z = np.array([rngs[b].normal(0.0, sigma, size=code.n) for b in independent])
        y = mod_interval(
            book.reals[sent[:, 0]] + float(gamma) * book.reals[sent[:, 1]] + z.reshape(-1, code.n)
        )
        decided = decoder.decode_many(y)
        ambiguous += int(np.count_nonzero(decided < 0))
        errors_independent += int(np.count_nonzero(decided != sent[:, 0] * len(book) + sent[:, 1]))
    errors = dependent + errors_independent
    return SimResult(
        trials=trials,
        errors=errors,
        p_e=errors / trials,
        ci95=wilson_interval(errors, trials),
        dependent=dependent,
        errors_independent=errors_independent,
        ambiguous=ambiguous,
    )
