"""Monte Carlo simulation of the two-user same-codebook modulo MAC.

The channel is y = [x1 + gamma*x2 + z]* with i.i.d. Gaussian noise of
variance 1/SNR.  The decoder is the exhaustive approximate-ML rule: over
ordered pairs (i, j) of messages whose vectors are linearly independent over
Z_p, it minimizes sum_t ([y_t - psi_t(i, j)]*)^2 with psi(i, j) =
[x_i + gamma*x_j]*, and declares an error when the minimum is attained more
than once.  Drawing a linearly dependent message pair counts as an error
without decoding.

Determinism contract: trial t draws its messages and noise from the
substream SeedSequence(seed, spawn_key=(t,)), as integers(0, p, size=(2, k))
and then normal(0, 1/sqrt(snr), size=n) would, so aggregate counts depend on
the seed alone.  trial_blocks, the trial engine of both simulators, cuts the
trials into blocks and gives each trial its own substreams.  It takes each
trial's messages as raw PCG64 words and reduces the whole block to [0, p)
by the rule integers follows, and draws each trial's noise in place into a
block array, scaled once; a trial whose reduction rejects a 32-bit draw,
which happens with probability below p / 2**32 per draw, is drawn again the
reference way.  A block's codewords come from the code's enumeration, its
dependent draws from the code's sorted index of dependent pairs, its
received vectors from one channel evaluation, and its decisions from one
PairDecoder.decode_many call, which decides every row exactly as decoding it
alone would, bit for bit as the float64 pairs x n table.  The same kernel
decodes a network receiver that hears no interference: PairDecoder(...,
alone=True), the pair decode with the first user known to be message 0.
The substreams' generators are built from seed words that substream_words
hashes for a whole span of trials at once, the words SeedSequence itself
would generate, so every draw is the one SeedSequence's own generator makes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .codes import Codeword, LinearCode
# macsim.encode stays importable: bench/test_bench.py checks the tracer patches it here
from .codes import encode  # noqa: F401
from .diophantine import Gain
from .modarith import grid_real, mod_interval
from .rates import _require_positive_snr

DECODER_TABLE_BYTES_CAP = 2**28  # bound on a run's PairDecoders plus one block decode's temporaries
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


def check_run(snr: float, trials: int, seed: int, gains, code: LinearCode, paired=None) -> None:
    """The run check of both simulators, made before either builds anything; the run's
    PairDecoders, one per distinct gain of ``paired`` (default ``gains``), fit together."""
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
    top = float(np.abs(grid_real(np.array([code.p // 2, (code.p + 1) // 2]), code.p)).max())
    for g in gains:
        if not math.isfinite(float(g) * top):
            raise ValueError(f"gain {g} times the p={code.p} grid overflows a float")
    _check_decoders(code, len({float(g) for g in (gains if paired is None else paired)}))


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


def _metrics(Y: np.ndarray, table: np.ndarray) -> np.ndarray:
    """sum_t ([y_t - row_t]*)^2 in float64 for each row y of Y (axis 0) and row of ``table``;
    its bits do not depend on how many rows either has (mod_interval is elementwise, and
    einsum sums each row's n terms in an order fixed by n)."""
    d = mod_interval(Y[:, None, :] - table).reshape(-1, table.shape[1])
    return np.einsum("ij,ij->i", d, d).reshape(Y.shape[0], -1)


def _tile_rows(count: int) -> int:
    """Rows i of a vector's count x count pair scores held at once: all while they fit in
    _BATCH_BYTES at 5 bytes a pair (float32 score, bool candidate test), else as many as
    fit, at least two, so that every tile holds an independent pair (a finite minimum)."""
    return min(count, max(2, _BATCH_BYTES // (5 * count)))


def _per_vector_bytes(count: int, n: int, p: int) -> int:
    """Temporaries of decoding one received vector, as the block size charges them: one
    tile (_tile_rows(count) rows i of count float32 scores and their bool candidate test,
    and the tile's own n*p float32 gathered squares a row) and eight float64 n x p x p
    tables, of which the in-place distance stage holds about two; eight stays as the
    block-size setting (charging two grew blocks from 52 to 99 rows at p=5, n=8, k=2 and
    slowed a 3,000-trial network run from 86 to 90 ms).  While a vector is one tile this
    is the charge of gathering its whole count x n*p squares at once."""
    return _tile_rows(count) * (5 * count + 4 * n * p) + 8 * n * p * p * 8


def _block_rows(count: int, n: int, p: int) -> int:
    """Received vectors decoded together: as many as fit in _BATCH_BYTES, at least one
    (exactly one when a vector's scores take more than one tile)."""
    return max(1, _BATCH_BYTES // _per_vector_bytes(count, n, p))


def _decoder_bytes(count: int, n: int, p: int, k: int, decoders: int = 1) -> int:
    """Bytes ``decoders`` PairDecoders of one code hold plus the temporaries of one block decode.

    Once: the code's enumeration and the arrays its decoders read (LinearCode.dependent,
    count + (count - 1)*p int64; .columns, count x n int64; .onehot, count x n*p float32),
    and one chunk of re-scored psi rows, which also covers the fewer than _RESCORE_ROWS
    candidates a row keeps between tiles.  Per decoder its psi.  Per block, _block_rows
    vectors' _per_vector_bytes, whose tile gathers its own squares, and candidates, at
    most every pair of their tiles at 8 bytes a pair (a code whose pairs all tie).
    """
    index = (count + (count - 1) * p) * 8
    shared = count * n * p * 4 + index + count * n * 8 + count * (2 * n + k) * 8
    once = shared + min(count * count, _RESCORE_ROWS) * (8 * n + 4) * 8
    block = _per_vector_bytes(count, n, p) + count * _tile_rows(count) * 8
    return once + p * p * 8 * decoders + _block_rows(count, n, p) * block


def _check_decoders(code: LinearCode, decoders: int) -> None:
    """Refuse ``decoders`` (> 0) PairDecoders of ``code`` when k < 2, where no message pair
    is independent, or when their _decoder_bytes exceed the cap."""
    if decoders and code.k < 2:
        raise ValueError(f"pair decoder needs k >= 2: no message pair is independent at k={code.k}")
    need = _decoder_bytes(code.p**code.k, code.n, code.p, code.k, decoders)
    if decoders and need > DECODER_TABLE_BYTES_CAP:
        raise ValueError(f"decoder needs {need} bytes for {decoders} distinct gain(s), above the"
                         f" cap of {DECODER_TABLE_BYTES_CAP} (reduce p, k or n)")


class PairDecoder:
    """Exhaustive decoder for one (code, gamma) pair, scored per component.

    Component t of the metric of the ordered message pair (i, j) depends only
    on the residue pair (a, b) = (c_i,t, c_j,t), through the p x p
    constellation ``psi[a, b] = [grid(a) + gamma*grid(b)]*``.  Per received
    vector y, decode_many() builds D[t, a, b] = ([y_t - psi[a, b]]*)^2 in
    float64, casts it to float32 and gathers E[i, (t, b)] = D[t, c_i,t, b] at
    the code's one-hot columns; E @ A.T, A the code's one-hot codebook,
    scores the pairs, and +inf goes into the dependent pairs, whose sorted
    flat indices i*M + j (M = p**k) the code also holds.  The code builds
    these arrays once, read-only, for all its decoders (LinearCode.columns,
    .onehot, .dependent); psi alone is a decoder's own.  E is gathered a
    tile of rows i at a time (_tile_rows), and each tile's rows of E are
    scored and dropped before the next tile gathers its own.  While a
    vector's M x M scores fit in about _BATCH_BYTES a vector is one tile
    and a block one gather and one matrix product; past that a block is one
    vector in tiles.  n_pairs = (M - 1)(M - p) pairs are independent.

    With ``alone`` the first user is known to be message 0, whose codeword
    is 0: the decoder of a network receiver that hears no interference on
    the grid.  psi keeps its row a = 0, [gamma*grid(b)]*, the bits of
    [gamma*x]* at each grid point x (grid(0) is 0.0), and row i = 0 is the
    only row scored: message j's score sums its n gathered squares
    D[t, 0, c_j,t], no pair is masked, n_pairs = M, k = 1 is allowed and
    decode_many returns j.  It reads neither A nor the index and is charged
    to no cap, as the M x n single-user table it replaces was not.

    A float32 score, summed in an order of its own, is not the float64
    metric: each cast square is within a relative 2**-24 (eps/2) or, below
    float32's normal range (also where a BLAS flushes it to zero), an
    absolute ``tiny``, and a sum of n adds at most a relative (n - 1)*2**-24.
    So every candidate scored within a relative 16*n*eps plus n*tiny of its
    row's minimum, the near set with room to spare, is re-scored in float64
    on its psi row (mod_interval, einsum; _shortlist, _RESCORE_ROWS at a
    time): the least metric decides, and a minimum attained more than once
    is ambiguous.  Tiles keep the pairs within that bound of the running
    minimum, a superset of the near set, and cut a vector's kept list to its
    two least whenever it fills a chunk, so even an all-tie code stays
    bounded.  Every decision, ties included, is thus the exhaustive table's
    (pairs x n, or alone the M x n table of [gamma*x_j]*), bit for bit,
    however many vectors a block holds (_block_rows) and however many tiles
    it takes.  A pair decoder is refused before it is built when k < 2 or
    when its arrays plus one block decode's temporaries would exceed
    DECODER_TABLE_BYTES_CAP.
    """

    def __init__(self, code: LinearCode, gamma: Gain, alone: bool = False):
        p, n = code.p, code.n
        count = p**code.k
        _check_decoders(code, 0 if alone else 1)
        self.code = code
        self.alone = alone
        # build the code's arrays this decoder reads, unless an earlier decoder of the code has
        _ = code.columns if alone else (code.columns, code.dependent, code.onehot)
        self.block_rows = _block_rows(count, n, p)
        self.tile_rows = count if alone else _tile_rows(count)
        self.n_pairs = count if alone else (count - 1) * (count - p)
        self._square = count if alone else count * count  # candidates a vector is scored on
        grid = grid_real(np.arange(p), p)
        self.psi = mod_interval(grid[: 1 if alone else p, None] + float(gamma) * grid[None, :])
        # alone, a vector's scores are its gathered squares times ones: a float32 matrix-vector
        # product, about twice as fast as a sum over their short last axis
        self._ones = np.ones(n, dtype=np.float32)
        self._slack = 16 * n * np.finfo(np.float32).eps
        # error below the normal range is absolute, up to tiny per square if flushed to zero
        self._floor = n * np.finfo(np.float32).tiny

    def decode(self, y):
        """Closest pair (w_i, w_j) (w_i message 0 with ``alone``), AMBIGUOUS on a tie."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.code.n,):
            raise ValueError(f"received vector shape {y.shape} != ({self.code.n},)")
        h = int(self.decode_many(y[None])[0])
        if h < 0:
            return AMBIGUOUS
        i, j = divmod(h, len(self.code.messages))
        return (self.code.messages[i].copy(), self.code.messages[j].copy())

    def decode_many(self, Y) -> np.ndarray:
        """Decide each row y of Y as decode() does, block_rows rows at a time: the closest
        pair's flat index i*M + j (with ``alone``, j), -1 on a tie."""
        Y = np.asarray(Y, dtype=float)
        if Y.ndim != 2 or Y.shape[1] != self.code.n:
            raise ValueError(f"received block shape {Y.shape} != (rows, {self.code.n})")
        out = np.empty(Y.shape[0], dtype=np.int64)
        for block in _blocks(Y.shape[0], self.block_rows):
            out[block.start : block.stop] = self._decode_block(Y[block.start : block.stop])
        return out

    def _decode_block(self, Y):
        rows, (n, p) = Y.shape[0], (self.code.n, self.code.p)
        count = len(self.code.messages)
        d = mod_interval(Y[:, :, None, None] - self.psi)
        d *= d
        d = d.astype(np.float32).reshape(rows, n * p, -1)
        # each tile's candidates r*square + i*M + j, ascending; a row is cut into tiles
        # only when it is the block's one row, so a tile's pairs start at its first i
        kept = []
        for i in range(0, count, self.tile_rows):
            # E[r, i, t, b] = D[t, c_i,t, b]; with alone, E[r, j, t, 0] = D[t, 0, c_j,t]
            e = np.take(d, self.code.columns[i : i + self.tile_rows], axis=1)
            if i + self.tile_rows >= count:
                del d  # every tile has gathered its squares: the scores take the table's place
            s = self._scores(e, i)
            del e  # the candidate test takes the tile's squares' place
            least = s.min(axis=1, keepdims=True)
            low = np.minimum(low, least) if i else least  # running minimum across tiles
            near = s <= low * (1.0 + self._slack) + self._floor
            del s  # the candidate list below takes the tile's place
            hits = np.flatnonzero(near)
            del near
            if i:
                hits += i * count
            kept.append(hits)
            if self.tile_rows < count and sum(a.size for a in kept) >= _RESCORE_ROWS:
                kept = [self._shortlist(Y[0], kept)]
        flat = kept[0] if len(kept) == 1 else np.concatenate(kept)
        if flat.size == rows:  # every row's minimum is a candidate: one a row decides it
            return flat - np.arange(rows) * self._square
        first = np.searchsorted(flat, np.arange(rows + 1) * self._square)
        out = flat[first[:-1]] - np.arange(rows) * self._square
        for r in np.flatnonzero(np.diff(first) > 1):
            best = self._shortlist(Y[r], [flat[first[r] : first[r + 1]]])
            out[r] = best[0] - r * self._square if best.size == 1 else -1
        return out

    def _scores(self, e, i):
        """Float32 scores of the tile from row i, per vector, from the tile's gathered squares
        ``e`` (rows x tile_rows x n x p, or x 1 with ``alone``)."""
        rows, count, (n, p) = e.shape[0], len(self.code.messages), (self.code.n, self.code.p)
        if self.alone:  # row i = 0 only, nothing masked: each message's n squares, summed
            return e.reshape(rows, count, n) @ self._ones
        dependent = self.code.dependent
        if self.tile_rows < count:  # the tile's own dependent pairs, counted from its first pair
            lo, hi = np.searchsorted(dependent, (i * count, (i + self.tile_rows) * count))
            dependent = dependent[lo:hi] - i * count
        s = (e.reshape(-1, n * p) @ self.code.onehot.T).reshape(rows, -1)
        s[:, dependent] = np.inf
        return s

    def _shortlist(self, y, pieces):
        """At most two of the candidates r*square + i*M + j in ``pieces`` whose float64 metric
        at y is least: one decides, two tie, a third changes nothing.  Scored _RESCORE_ROWS
        at a time; each chunk's least two stand for it, so theirs are the least of all."""
        while True:
            kept = []
            for piece in pieces:
                for c in _blocks(piece.size, _RESCORE_ROWS):
                    part = piece[c.start : c.stop]
                    metrics = _metrics(y[None], self._psi_rows(part))[0]
                    kept.append(part[metrics == metrics.min()][:2])
            if len(kept) == 1:
                return kept[0]
            pieces = [np.concatenate(kept)]

    def _psi_rows(self, flat):
        """psi(i, j) rows, n components each, of the candidates at flat = r*square + i*M + j
        (i = 0 with ``alone``: message 0's residues are all 0, psi's one row)."""
        rows, cols = np.divmod(flat % self._square, len(self.code.messages))
        return self.psi[self.code.residues[rows], self.code.residues[cols]]


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


def _lemire(raw: np.ndarray, p: int, count: int):
    """The first ``count`` values in [0, p) of each row's 32-bit halves of ``raw``, by
    the rule Generator.integers(0, p, size) follows for p < 2**32: (values, rejected).

    Each 64-bit word gives its low half first, then its high half; a half u gives
    (u*p) >> 32 unless the low 32 bits of u*p fall below 2**32 % p.  ``rejected`` marks
    the rows where that happened: integers would have drawn on, so their values
    from that point on are not these.
    """
    halves = np.empty((raw.shape[0], 2 * raw.shape[1]), dtype=np.uint64)
    halves[:, 0::2] = raw & _MASK32
    halves[:, 1::2] = raw >> 32
    m = halves[:, :count] * np.uint64(p)
    return (m >> 32).astype(np.int64), ((m & _MASK32) < 2**32 % p).any(axis=1)


def _draw_block(words: np.ndarray, p: int, shape, n: int, sigma: float, noise_from: int):
    """The messages and noise of the trials whose substream_words rows are ``words``.

    Returns (W, Z): W[b] is what trial b's first generator draws as
    integers(0, p, size=shape), and Z[b, j] what its generator of key
    noise_from + j then draws as normal(0, sigma, size=n).  A trial's generators are
    dropped once it has drawn: its messages are raw PCG64 words, reduced for the
    whole block at once, and its noise goes into its row of Z as standard normals,
    scaled once.  A trial whose reduction rejected a draw is drawn again, the
    reference way, from a generator rebuilt from its words.
    """
    generator = _generator_from_words()
    count = shape[0] * shape[1]
    raw = np.empty((len(words), (count + 1) // 2), dtype=np.uint64)
    Z = np.empty((len(words), words.shape[1] - noise_from, n))
    for b, trial in enumerate(words):
        gens = [generator(w) for w in trial]
        raw[b] = gens[0].bit_generator.random_raw(raw.shape[1])
        for g, row in zip(gens[noise_from:], Z[b]):
            g.standard_normal(out=row)
    W, rejected = _lemire(raw, p, count)
    W = W.reshape(len(words), *shape)
    for b in np.flatnonzero(rejected):
        g = generator(words[b, 0])
        W[b] = g.integers(0, p, size=shape)
        if noise_from == 0:
            g.standard_normal(out=Z[b, 0])
    Z *= sigma
    return W, Z


def trial_blocks(
    code: LinearCode, trials: int, seed: int, keys, users: int, sigma: float, noise_from: int
):
    """The trial engine: yields (block, W, Z), range(trials) in the blocks a PairDecoder
    of ``code`` decodes together, with the block's messages and noise.

    Trial t has one generator per key, drawing from SeedSequence(seed,
    spawn_key=(t, *key)).  The first draws its ``users`` messages, W[b] (users x k),
    as integers(0, p, size=(users, k)) would; then the generator of each key from
    keys[noise_from] on draws an n-vector of noise, Z[b, j], as normal(0, sigma, n)
    would (the first generator after the messages).  The generators' seed words come
    from one substream_words pass per span of whole blocks (about _SPAN_TRIALS
    trials), so the blocks are those of the trials alone.
    """
    size = _block_rows(code.p**code.k, code.n, code.p)
    span = max(size, _SPAN_TRIALS // size * size)
    for start in range(0, trials, span):
        words = substream_words(seed, range(start, min(start + span, trials)), keys)
        for block in _blocks(words.shape[0], size):
            W, Z = _draw_block(
                words[block.start : block.stop], code.p, (users, code.k), code.n, sigma, noise_from
            )
            yield range(start + block.start, start + block.stop), W, Z


def estimate_error_prob(
    code: LinearCode, gamma: Gain, snr: float, trials: int, seed: int
) -> SimResult:
    """Monte Carlo estimate of the ordered-pair error probability at linear SNR.

    A trial errs when the drawn messages are linearly dependent, when the
    decoder is ambiguous, or when the decoded ordered pair differs from the
    transmitted one.  Deterministic in seed.
    """
    check_run(snr, trials, seed, [gamma], code)
    decoder = PairDecoder(code, gamma)
    sigma = math.sqrt(1.0 / snr)
    dependent = errors_independent = ambiguous = 0
    for block, W, Z in trial_blocks(code, trials, seed, [()], 2, sigma, 0):
        sent = code.rows(W)  # w1, w2 of each trial
        pair = sent @ [len(code.messages), 1]
        independent = np.flatnonzero(~code.is_dependent(pair))
        dependent += len(block) - independent.size
        sent = sent[independent]
        # a dependent draw's noise is drawn too, but only independent draws use theirs
        y = mod_interval(
            code.reals[sent[:, 0]] + float(gamma) * code.reals[sent[:, 1]] + Z[independent, 0]
        )
        decided = decoder.decode_many(y)
        ambiguous += int(np.count_nonzero(decided < 0))
        errors_independent += int(np.count_nonzero(decided != pair[independent]))
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
