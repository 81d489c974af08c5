"""Monte Carlo simulation of the two-user same-codebook modulo MAC.

The channel is y = [x1 + gamma*x2 + z]* with i.i.d. Gaussian noise of
variance 1/SNR.  The decoder is the exhaustive approximate-ML rule: over
ordered pairs (i, j) of messages whose vectors are linearly independent over
Z_p, it minimizes sum_t ([y_t - psi_t(i, j)]*)^2 with psi(i, j) =
[x_i + gamma*x_j]*, and declares an error when the minimum is attained more
than once.  Drawing a linearly dependent message pair counts as an error
without decoding.

Determinism contract: trial t draws its messages and noise from the
substream SeedSequence(seed, spawn_key=(t,)), as numpy's integers(0, p,
size=(2, k)) and then normal(0, 1/sqrt(snr), size=n) would, so aggregate
counts depend on the seed alone.  trial_blocks, the trial engine of both simulators, cuts the
trials into blocks and gives each trial its own substreams.  No generator is
built and numpy's random module is not imported: substream_words hashes the
seed words of a whole span of trials at once, the words SeedSequence itself
would generate, and _pcg64 computes each substream's PCG64 words from them,
vectorized over the span's streams in 128-bit arithmetic on uint64 halves.
A trial's messages are its first words, reduced to [0, p) by the rule
integers follows (_lemire); its noise is the next words through numpy's
256-layer ziggurat (_normals, with numpy's tables from data/ziggurat.txt),
scaled once.  The few streams that this vectorized pass cannot decide, a
reduction that rejects a 32-bit draw (probability below p / 2**32 a draw), a
ziggurat tail or noise that runs past its words, are replayed a word at a
time in Python ints (_stream, _stream_integers, _stream_normal), so every
draw is the one SeedSequence's own generator makes.  A block's codewords come from the
code's enumeration, its dependent draws from the code's sorted index of
dependent pairs, its received vectors from one channel evaluation, and its
decisions from one PairDecoder.decode_many call, which decides every row
exactly as decoding it alone would, bit for bit as the float64 pairs x n
table.  The same kernel decodes a network receiver that hears no
interference: PairDecoder(..., alone=True), the pair decode with the first
user known to be message 0.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from importlib import resources

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
_SPAN_TRIALS = 1024  # trials whose substreams are hashed and drawn at once, rounded to whole blocks
_PASS_WORDS = _BATCH_BYTES // 32  # PCG64 words a draw pass holds, each array 1/4 of _BATCH_BYTES
_MASK32 = 2**32 - 1
_MASK64 = 2**64 - 1
_MASK128 = 2**128 - 1
_MANTISSA = 2**52 - 1
# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# numpy's PCG64 multiplier (numpy/random/src/pcg64/pcg64.h)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# the layer-0 tail of numpy's ziggurat, x > _ZIG_R (numpy/random/src/distributions)
_ZIG_R = 3.6541528853610087963519472518
_ZIG_INV_R = 0.27366123732975827203338247596


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


def _pool(seed: int, extra=()):
    """SeedSequence's pool after hashing the seed's 32-bit words, zero-padded to the 4-word
    pool, then ``extra`` (ints or uint32 arrays): (pool, next hash constant).  With no
    spawn key SeedSequence does not pad, but hashes 0 for each missing word: the same."""
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
    return _mix_in(pool, entropy[_POOL_WORDS:] + list(extra), const)


def _generate(pool, out) -> None:
    """SeedSequence's generate_state(4, np.uint64) of ``pool``, as 8 uint32 words along the
    last axis of ``out``."""
    const = _INIT_B
    for i in range(2 * 4):
        out[..., i], const = _hashmix(pool[i % _POOL_WORDS], const, _MULT_B)


def seed_words(seed: int) -> np.ndarray:
    """SeedSequence(seed).generate_state(4, np.uint64): the words default_rng(seed) seeds
    its PCG64 from."""
    state = np.empty(2 * 4, dtype=np.uint32)
    _generate(_pool(seed)[0], state)
    return state.view(np.uint64)


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
    pool, const = _pool(seed, [t])
    state = np.empty((t.size, len(keys), 2 * 4), dtype=np.uint32)
    for j, key in enumerate(keys):
        _generate(_mix_in(pool, [w for k in key for w in _words32(k)], const)[0], state[:, j])
    # pairs of 32-bit words, viewed as 64-bit words as SeedSequence views its state
    return state.view(np.uint64)


def _mul_add(hi, lo, a, c_hi, c_lo, out_hi, out_lo) -> None:
    """out = (hi:lo)*a + (c_hi:c_lo) mod 2**128, on 128-bit numbers held as uint64 halves,
    ``a`` too (its halves (a_hi, a_lo) constants, or arrays that broadcast against lo); the
    high half of lo*a_lo is summed from 32-bit parts.  ``out`` must not overlap the inputs."""
    a_hi, a_lo = a
    b1, b0 = a_lo >> 32, a_lo & _MASK32
    x1, x0 = lo >> 32, lo & _MASK32
    t = x0 * b0
    u = x1 * b0
    u += t >> 32
    v = x0 * b1
    v += u & _MASK32
    x1 = x1 * b1
    u >>= 32
    v >>= 32
    x1 += u
    x1 += v  # the high half of lo*a_lo
    x1 += lo * a_hi
    x1 += hi * a_lo
    x1 += c_hi
    np.multiply(lo, a_lo, out=t)
    np.add(t, c_lo, out=out_lo)
    np.add(x1, out_lo < t, out=out_hi)


def _jump(steps: int):
    """``steps`` PCG64 steps, state -> state*M + inc, as one map state*a + inc*c: (a, c)."""
    a, c, step_a, step_c = 1, 0, _PCG_MULT, 1
    while steps:
        if steps & 1:
            a, c = a * step_a & _MASK128, (c * step_a + step_c) & _MASK128
        step_a, step_c = step_a * step_a & _MASK128, step_c * (step_a + 1) & _MASK128
        steps >>= 1
    return a, c


def _u128(values) -> tuple[np.ndarray, np.ndarray]:
    """Ints below 2**128 as the uint64 arrays of their high and low halves."""
    v = np.array(values, dtype=object)
    return (v >> 64).astype(np.uint64), (v & _MASK64).astype(np.uint64)


def _pcg64(words: np.ndarray, count: int, start: int = 0) -> np.ndarray:
    """Words start to start + count - 1 (count >= 1) of the PCG64 stream that numpy seeds
    from each row of ``words`` (... x 4 uint64, a generate_state(4, np.uint64)), as a
    ... x count uint64 array.  The states are held position-major, each position's words
    contiguous, and the words are transposed once at the end.

    numpy's seeding: inc = (w2:w3 << 1) | 1 and state ((w0:w1 + inc)*M + inc) mod 2**128;
    each word steps the state to state*M + inc and outputs XSL-RR, rotr64(hi ^ lo, hi >> 58).
    The first word's state is one _jump from w0:w1 + inc, the next B - 1 (B = isqrt(count))
    one step each, and every later B words one _jump of B positions from the B before them.
    """
    w = words.reshape(-1, 4)
    inc_hi, inc_lo = w[:, 2] << 1 | w[:, 3] >> 63, w[:, 3] << 1 | 1
    lo = w[:, 1] + inc_lo
    hi, lo = w[:, 0] + inc_hi + (lo < inc_lo), lo
    B = math.isqrt(count)
    (a0, c0), (a, c) = _jump(start + 2), _jump(B)
    a_hi, a_lo = _u128([a0, _PCG_MULT, a])
    c_hi, c_lo = _u128([[c0], [c]])
    C_hi = np.empty((2, w.shape[0]), dtype=np.uint64)
    C_lo = np.empty_like(C_hi)
    _mul_add(inc_hi, inc_lo, (c_hi, c_lo), 0, 0, C_hi, C_lo)  # inc*c0 and inc*c
    H = np.empty((count, w.shape[0]), dtype=np.uint64)
    L = np.empty_like(H)
    _mul_add(hi, lo, (a_hi[0], a_lo[0]), C_hi[0], C_lo[0], H[0], L[0])
    for j in range(1, B):
        _mul_add(H[j - 1], L[j - 1], (a_hi[1], a_lo[1]), inc_hi, inc_lo, H[j], L[j])
    for j in range(B, count, B):
        k = min(j + B, count) - B
        _mul_add(H[j - B : k], L[j - B : k], (a_hi[2], a_lo[2]), C_hi[1], C_lo[1],
                 H[j : k + B], L[j : k + B])
    x = H ^ L
    H >>= 58  # the rotation
    out = x >> H
    np.subtract(64, H, out=H)
    H &= 63
    x <<= H
    out |= x
    return np.ascontiguousarray(out.T).reshape(*words.shape[:-1], count)


def _stream(words, start: int = 0):
    """Words start, start + 1, ... of the PCG64 stream seeded from one row of 4 seed words,
    a word at a time as ints: where the draws the vectorized passes leave are replayed."""
    w0, w1, w2, w3 = (int(w) for w in words)
    inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
    a, c = _jump(start + 1)
    state = (a * ((w0 << 64 | w1) + inc) + c * inc) & _MASK128
    while True:
        state = (state * _PCG_MULT + inc) & _MASK128
        x, r = (state >> 64 ^ state) & _MASK64, state >> 122
        yield (x >> r | x << (64 - r)) & _MASK64


def _resume(raw: np.ndarray, words):
    """A stream's words already drawn, ``raw``, then the words after them, a word at a time."""
    return itertools.chain(raw.tolist(), _stream(words, raw.size))


@functools.cache
def _ziggurat():
    """numpy's ziggurat tables for the standard normal, read from data/ziggurat.txt on the
    first draw (importing lia reads no table): (wi, ki, fi) arrays, wi and ki indexed by a
    word's 9 low bits, its layer and its sign bit 8, since rabs*(-wi) is -(rabs*wi) bit for
    bit; fi by the layer."""
    text = resources.files("lia").joinpath("data", "ziggurat.txt").read_text(encoding="ascii")
    rows = [line.split() for line in text.splitlines() if not line.startswith("#")]
    if [int(row[0]) for row in rows] != list(range(256)):
        raise ValueError("the ziggurat table must hold layers 0 to 255, one a line")
    wi, ki, fi = zip(*((float.fromhex(w), int(k, 16), float.fromhex(f)) for _, w, k, f in rows))
    wi = np.array(wi)
    return np.concatenate((wi, -wi)), np.array(ki * 2, dtype=np.uint64), np.array(fi)


@functools.cache
def _ziggurat_lists():
    """_ziggurat()'s tables as lists of Python numbers, for draws replayed a word at a time."""
    return tuple(table.tolist() for table in _ziggurat())


def _unit(word: int) -> float:
    """numpy's next_double: the top 53 bits of a word, times 2**-53."""
    return (word >> 11) * 2.0**-53


def _stream_normal(stream) -> float:
    """numpy's random_standard_normal on the words of ``stream``, a word at a time."""
    wi, ki, fi = _ziggurat_lists()
    while True:
        r = next(stream)
        layer, rabs = r & 0xFF, r >> 9 & _MANTISSA
        x = rabs * wi[r & 0x1FF]
        if rabs < ki[layer]:
            return x
        if layer == 0:  # the tail beyond _ZIG_R, its sign from bit 8 of rabs
            while True:
                xx = -_ZIG_INV_R * math.log1p(-_unit(next(stream)))
                yy = -math.log1p(-_unit(next(stream)))
                if yy + yy > xx * xx:
                    return -(_ZIG_R + xx) if rabs >> 8 & 1 else _ZIG_R + xx
        elif (fi[layer - 1] - fi[layer]) * _unit(next(stream)) + fi[layer] < math.exp(-0.5 * x * x):
            return x


def _stream_integers(stream, p: int, count: int) -> list[int]:
    """integers(0, p, count) for p < 2**32 on the words of ``stream``: Lemire's rule on
    each word's 32-bit halves, low half first, a rejected half skipped; a half left over
    is lost, as numpy's next 64-bit draw loses it."""
    values, threshold = [], 2**32 % p
    while True:
        word = next(stream)
        for half in (word & _MASK32, word >> 32):
            m = half * p
            if m & _MASK32 >= threshold:
                values.append(m >> 32)
                if len(values) == count:
                    return values


def _halves(raw: np.ndarray) -> np.ndarray:
    """The 32-bit halves of each 64-bit word along the last axis, low half first."""
    return np.stack((raw & _MASK32, raw >> 32), axis=-1).reshape(*raw.shape[:-1], -1)


def _lemire(raw: np.ndarray, p: int, count: int):
    """The first ``count`` values in [0, p) of each row's 32-bit halves of ``raw``, by
    the rule Generator.integers(0, p, size) follows for p < 2**32: (values, rejected).

    Each 64-bit word gives its low half first, then its high half; a half u gives
    (u*p) >> 32 unless the low 32 bits of u*p fall below 2**32 % p.  ``rejected`` marks
    the rows where that happened: integers would have drawn on, so their values
    from that point on are not these.
    """
    m = _halves(raw)[:, :count] * np.uint64(p)
    return (m >> 32).astype(np.int64), ((m & _MASK32) < 2**32 % p).any(axis=1)


def integers(seed: int, p: int, count: int) -> np.ndarray:
    """What numpy's default_rng(seed).integers(0, p, count) draws, for 1 <= p < 2**32:
    Lemire's rule on the 32-bit halves of the PCG64 stream seeded from seed_words(seed),
    each rejected half skipped, drawn at most _PASS_WORDS words a pass."""
    if not 1 <= p < 2**32:
        raise ValueError(f"integers are drawn for 1 <= p < 2**32, got p={p}")
    words, threshold = seed_words(seed), 2**32 % p
    parts, held, start = [], 0, 0
    while held < count:
        raw = _pcg64(words, min(_PASS_WORDS, (count - held + 1) // 2), start)
        start += raw.size
        m = _halves(raw) * np.uint64(p)
        parts.append((m >> 32)[(m & _MASK32) >= threshold])
        held += parts[-1].size
    return np.concatenate(parts)[:count].astype(np.int64)


def _normals(raw: np.ndarray, n: int):
    """numpy's random_standard_normal on each row of PCG64 words ``raw``: (Z, ok), Z[r] the
    first n standard normals row r makes where ok[r], and ok[r] False where the row meets
    the layer-0 tail, or runs out of words, before its n-th normal.

    A word r gives layer r & 0xff, sign bit 8 and magnitude rabs = (r >> 9) & (2**52 - 1),
    and x = rabs*wi[layer], negated by the sign bit, is kept when rabs < ki[layer], as all
    but about 1.5% of words are.
    A row whose first n words all pass is its n normals.  Otherwise the test of a slow
    word, one that fails, takes the next word: a word after a passing one starts a draw,
    so in each run of slow words the draws start at even offsets.  A slow start in layers
    1 to 255 keeps x when (fi[l-1] - fi[l])*U + fi[l] < exp(-x*x/2), U the next word's
    next_double, through math.exp, the libm exp that numpy's C code calls.
    """
    wi, ki, fi = _ziggurat()
    signed = (raw & 0x1FF).view(np.int64)  # the layer, and 256 more with the sign bit set
    rabs = raw >> 9
    rabs &= _MANTISSA
    x = rabs.astype(np.float64)
    x *= wi[signed]
    slow = rabs >= ki[signed]
    Z, ok = np.array(x[:, :n], order="C"), np.ones(raw.shape[0], dtype=bool)
    rows = np.flatnonzero(slow[:, :n].any(axis=1))
    if rows.size == 0:
        return Z, ok
    raw, layer, x, slow = raw[rows], signed[rows] & 0xFF, x[rows], slow[rows]
    at = np.arange(raw.shape[1])
    # 1 + the offset of each slow word in its run of slow words
    run = at - np.maximum.accumulate(np.where(slow, -1, at), axis=1)
    start = slow & (run % 2 == 1)  # a slow word that starts a draw
    emit = ~slow
    emit[:, 1:] &= ~start[:, :-1]  # a passing word is a slow start's U, not a draw
    wedge = start & (layer != 0)
    wedge[:, -1] = False
    r, c = np.nonzero(wedge)
    l, v = layer[r, c], x[r, c]
    u = (raw[r, c + 1] >> 11).astype(np.float64) * 2.0**-53
    bound = np.array([math.exp(e) for e in (-0.5 * v * v).tolist()])
    emit[r, c] = (fi[l - 1] - fi[l]) * u + fi[l] < bound
    made = np.cumsum(emit, axis=1)
    # a tail start, or a slow start whose U is past the row, before the n-th normal
    unknown = (start & ~wedge & (made < n)).any(axis=1) | (made[:, -1] < n)
    ok[rows[unknown]] = False
    keep = emit & (made <= n)
    keep[unknown] = False
    Z[rows[~unknown]] = x[keep].reshape(-1, n)
    return Z, ok


def _draw_block(words: np.ndarray, p: int, shape, n: int, sigma: float, noise_from: int):
    """The messages and noise of the trials whose substream_words rows are ``words``.

    Returns (W, Z): W[b] is what trial b's first generator draws as
    integers(0, p, size=shape), and Z[b, j] what its generator of key
    noise_from + j then draws as normal(0, sigma, size=n).  No generator is built: each
    stream's PCG64 words come from _pcg64, for as many trials a pass as keep a pass's
    words near _PASS_WORDS.  The messages are a trial's first words, reduced by _lemire;
    the noise is each noise stream's next words (a MAC trial's own after its messages,
    from key 0), through the ziggurat of _normals, scaled once.  The few streams the
    vectorized passes cannot decide, a message draw that rejects a half or noise that
    meets the ziggurat's tail or runs past its words, are replayed a word at a time from
    the words the pass drew (_resume).
    """
    trials, keys = words.shape[:2]
    count = shape[0] * shape[1]
    head = (count + 1) // 2  # the words the messages take, two 32-bit draws a word
    spare = n + 3 + n // 12  # a noise stream's words: about 1.5% of words fail the fast test
    first = max(noise_from, 1)  # the first key whose noise starts at its stream's first word
    own = spare if noise_from == 0 else 0  # words of key 0's own noise, after its messages
    W = np.empty((trials, count), dtype=np.int64)
    Z = np.empty((trials, keys - noise_from, n))
    per_trial = head + own + (keys - first) * spare
    for b in _blocks(trials, max(1, _PASS_WORDS // per_trial)):
        rows = slice(b.start, b.stop)
        raw = _pcg64(words[rows, 0], head + own)
        W[rows], redo = _lemire(raw[:, :head], p, count)
        if own:
            Z[rows, 0], ok = _normals(raw[:, head:], n)
            redo |= ~ok
        for i in np.flatnonzero(redo):
            stream = _resume(raw[i], words[b.start + i, 0])
            W[b.start + i] = _stream_integers(stream, p, count)
            if own:  # its noise starts where its messages end
                Z[b.start + i, 0] = [_stream_normal(stream) for _ in range(n)]
        if keys > first:
            noise = words[rows, first:].reshape(-1, 4)
            raw = _pcg64(noise, spare)
            z, ok = _normals(raw, n)
            for i in np.flatnonzero(~ok):
                stream = _resume(raw[i], noise[i])
                z[i] = [_stream_normal(stream) for _ in range(n)]
            Z[rows, first - noise_from :] = z.reshape(len(b), -1, n)
    Z *= sigma
    return W.reshape(trials, *shape), Z


def trial_blocks(
    code: LinearCode, trials: int, seed: int, keys, users: int, sigma: float, noise_from: int
):
    """The trial engine: yields (block, W, Z), range(trials) in the blocks a PairDecoder
    of ``code`` decodes together, with the block's messages and noise.

    Trial t has one stream per key, SeedSequence(seed, spawn_key=(t, *key))'s PCG64.
    The first draws its ``users`` messages, W[b] (users x k), as integers(0, p,
    size=(users, k)) would; then the stream of each key from keys[noise_from] on draws
    an n-vector of noise, Z[b, j], as normal(0, sigma, n) would (the first stream after
    the messages).  The streams' seed words come from one substream_words pass per span
    of whole blocks (about _SPAN_TRIALS trials, fewer when the span's noise would take
    more than _BATCH_BYTES), so the blocks are those of the trials alone; one _draw_block
    call draws the span, and each block is a slice of its arrays.
    """
    size = _block_rows(code.p**code.k, code.n, code.p)
    span = min(_SPAN_TRIALS, _BATCH_BYTES // (8 * code.n * max(1, len(keys) - noise_from)))
    span = max(size, span // size * size)
    for start in range(0, trials, span):
        words = substream_words(seed, range(start, min(start + span, trials)), keys)
        W, Z = _draw_block(words, code.p, (users, code.k), code.n, sigma, noise_from)
        for block in _blocks(len(words), size):
            rows = slice(block.start, block.stop)
            yield range(start + block.start, start + block.stop), W[rows], Z[rows]


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
