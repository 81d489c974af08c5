import itertools
import math
import re
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from lia import codes, macsim
from lia.codes import LinearCode, encode, messages_dependent, sample_code
from lia.macsim import (
    AMBIGUOUS,
    DECODER_TABLE_BYTES_CAP,
    PairDecoder,
    _RESCORE_ROWS,
    _SPAN_TRIALS,
    _block_rows,
    _decoder_bytes,
    _draw_block,
    _generator_from_words,
    _lemire,
    _per_vector_bytes,
    _tile_rows,
    check_run,
    estimate_error_prob,
    mod_mac_channel,
    substream_words,
    trial_blocks,
    wilson_interval,
)
from lia.modarith import L, grid_real, mod_interval
from lia.network import ChannelMatrix, simulate_network
from lia.rates import db_to_linear, dependent_message_prob
from oracles import (
    ENGINE_SHAPES,
    OracleDecoder,
    engine_trial_counts,
    mac_result,
    mac_trial_outcomes,
    network_result,
    nearest_message,
    network_trial_outcomes,
)

SQRT2_OVER_2 = math.sqrt(2) / 2


def _same_decision(a, b) -> bool:
    if a is AMBIGUOUS or b is AMBIGUOUS:
        return a is b
    return np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def _corpus_generators(p, n, k, rng):
    """A random generator, one with a duplicated row (distinct messages share
    codewords) and one with zero columns (components equal for every pair)."""
    g = rng.integers(0, p, size=(k, n))
    duplicated = g.copy()
    duplicated[-1] = duplicated[0]
    zero_columns = g.copy()
    zero_columns[:, ::3] = 0
    return (("random", g), ("duplicated-row", duplicated), ("zero-columns", zero_columns))


def _corpus_received(code, gamma, oracle, rng, draws):
    """y = 0, then noiseless and noisy (sigma 0.3 and 1.5) receptions of
    random independent pairs."""
    yield "zero", np.zeros(code.n)
    for label, sigma in (("noiseless", 0.0), ("sigma0.3", 0.3), ("sigma1.5", 1.5)):
        for h in rng.integers(0, oracle.i_idx.size, size=draws):
            x1 = encode(code, oracle.messages[oracle.i_idx[h]])
            x2 = encode(code, oracle.messages[oracle.j_idx[h]])
            yield label, mod_mac_channel(x1, x2, gamma, rng.normal(0.0, sigma, size=code.n))


def _near_tie_received(oracle, rng, anchors, per_anchor):
    """Received vectors whose two best pairs' float64 metrics nearly tie.

    Each starts at the torus midpoint of a random pair's psi row and the
    nearest row distinct from it, steps along their bisector (which keeps
    both exact metrics equal but changes every component's square) and then a
    relative 1e-10 to 1e-7 of their difference toward the first row.
    """
    for a in rng.integers(0, oracle.psi.shape[0], size=anchors):
        others = oracle.metrics(oracle.psi[a])
        others[others == 0.0] = np.inf  # row a and any row equal to it
        delta = mod_interval(oracle.psi[np.argmin(others)] - oracle.psi[a])
        for eps in 10.0 ** rng.uniform(-10, -7, size=per_anchor):
            w = rng.normal(0.0, 0.05, size=delta.size)
            w -= (w @ delta) / (delta @ delta) * delta
            yield mod_interval(oracle.psi[a] + (0.5 - eps) * delta + w)


class TestWilsonInterval:
    @given(st.integers(1, 5000), st.data())
    def test_orders_and_contains_estimate(self, trials, data):
        errors = data.draw(st.integers(0, trials))
        lo, hi = wilson_interval(errors, trials)
        phat = errors / trials
        assert 0.0 <= lo <= phat <= hi <= 1.0

    def test_degenerate_endpoints(self):
        assert wilson_interval(0, 100)[0] == 0.0
        assert wilson_interval(100, 100)[1] == 1.0


class TestModMacChannel:
    def test_zero_gain_zero_noise_passthrough(self):
        code = sample_code(3, 8, 2, seed=1)
        x1 = encode(code, [1, 2])
        x2 = encode(code, [2, 0])
        y = mod_mac_channel(x1, x2, 0.0, np.zeros(8))
        assert np.array_equal(y, x1.reals)

    def test_zero_inputs_reduce_noise(self):
        z = np.array([0.3, 5.0, -4.0, 0.0])
        y = mod_mac_channel(np.zeros(4), np.zeros(4), 0.7, z)
        assert np.array_equal(y, mod_interval(z))

    def test_unit_gain_residue_cancellation(self):
        code = sample_code(5, 10, 2, seed=2)
        x1 = encode(code, [1, 3])
        x2 = encode(code, [(5 - 1) % 5, (5 - 3) % 5])  # -w1 mod 5
        y = mod_mac_channel(x1, x2, 1.0, np.zeros(10))
        assert np.max(np.abs(y)) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mod_mac_channel(np.zeros(4), np.zeros(5), 1.0, np.zeros(4))


class TestPairDecoder:
    def test_independent_pair_count_p3_k2(self):
        # 81 ordered pairs minus 33 dependent ones
        code = sample_code(3, 4, 2, seed=0)
        assert PairDecoder(code, SQRT2_OVER_2).n_pairs == 48

    def test_noiseless_roundtrip(self):
        code = sample_code(3, 8, 2, seed=5)
        dec = PairDecoder(code, SQRT2_OVER_2)
        w1, w2 = np.array([1, 0]), np.array([0, 2])
        y = mod_mac_channel(encode(code, w1), encode(code, w2), SQRT2_OVER_2, np.zeros(8))
        out = dec.decode(y)
        assert out is not AMBIGUOUS
        assert np.array_equal(out[0], w1) and np.array_equal(out[1], w2)

    def test_all_independent_pairs_decode_noiselessly(self):
        code = sample_code(3, 8, 2, seed=5)
        dec = PairDecoder(code, SQRT2_OVER_2)
        i_idx, j_idx = np.divmod(np.flatnonzero(~code.is_dependent(np.arange(81))), 9)
        assert i_idx.size == dec.n_pairs
        for i, j in zip(i_idx[::5], j_idx[::5]):
            w1, w2 = code.messages[i], code.messages[j]
            y = mod_interval(encode(code, w1).reals + SQRT2_OVER_2 * encode(code, w2).reals)
            out = dec.decode(y)
            assert np.array_equal(out[0], w1) and np.array_equal(out[1], w2)

    def test_adversarial_tie_is_ambiguous(self):
        # y = 0 is equidistant from every pair and its negated twin, because
        # psi(-i, -j) = [-psi(i, j)]* has identical per-component squares
        code = sample_code(3, 4, 2, seed=0)
        dec = PairDecoder(code, SQRT2_OVER_2)
        y = np.zeros(4)
        assert dec.decode(y) is AMBIGUOUS
        # brute-force confirmation over the 48-pair metric table
        metrics = OracleDecoder(code, SQRT2_OVER_2).metrics(y)
        assert metrics.size == 48
        assert np.count_nonzero(metrics == metrics.min()) >= 2

    def test_agrees_with_oracle_on_tie_corpus(self):
        # every decision, ambiguous ones included, must be the pairs x n
        # table's; gamma = 1 (psi(i, j) = psi(j, i)), duplicated generator
        # rows and y = 0 make exact ties, and the corpus must exercise them
        rng = np.random.default_rng(2024)
        shapes = [(3, 4, 2, 4), (3, 6, 3, 4), (5, 8, 2, 4), (5, 5, 3, 4), (7, 10, 2, 4), (7, 16, 3, 1)]
        gammas = [0.707106781, 1.0, 0.5, 2.0, -1.0, 0.3]
        draws = ambiguous = 0
        disagreements = []
        for p, n, k, per_kind in shapes:
            for kind, generator in _corpus_generators(p, n, k, rng):
                code = LinearCode(p=p, n=n, k=k, generator=generator)
                for gamma in gammas:
                    oracle = OracleDecoder(code, gamma)
                    dec = PairDecoder(code, gamma)
                    for label, y in _corpus_received(code, gamma, oracle, rng, per_kind):
                        want = oracle.decode(y)
                        draws += 1
                        ambiguous += want is AMBIGUOUS
                        if not _same_decision(dec.decode(y), want):
                            disagreements.append((p, n, k, kind, gamma, label))
        assert disagreements == []
        assert draws >= 1000
        assert ambiguous >= 500

    def test_agrees_with_oracle_on_near_ties(self):
        # the two best pairs' metrics differ by less than float32 resolves, so
        # the float32 scores order them at random: only re-scoring every pair
        # within the float32 slack in float64 decides each row as the oracle
        rng = np.random.default_rng(11)
        shapes = [
            (5, 8, 2, 0.707106781, 8),
            (7, 10, 2, 0.3, 8),
            (5, 5, 3, 2.0, 8),
            (3, 6, 3, -1.0, 8),
            (7, 16, 3, 0.707106781, 3),
        ]
        draws = in_band = 0
        disagreements = []
        for p, n, k, gamma, anchors in shapes:
            code = sample_code(p, n, k, seed=p * n)
            oracle = OracleDecoder(code, gamma)
            dec = PairDecoder(code, gamma)
            ys = np.array(list(_near_tie_received(oracle, rng, anchors, 8)))
            for y, h in zip(ys, dec.decode_many(ys)):
                best, second = np.partition(oracle.metrics(y), 1)[:2]
                draws += 1
                in_band += 1e-9 <= (second - best) / best <= 1e-6
                want = oracle.decode(y)
                if h != (-1 if want is AMBIGUOUS else code.rows(want) @ [p**k, 1]):
                    disagreements.append((p, n, k, gamma, y))
        assert disagreements == []
        assert draws == 4 * 8 * 8 + 3 * 8
        assert in_band >= 100

    def test_decode_many_matches_oracle_row_by_row(self):
        # a block mixing the adversarial tie y = 0 with noiseless and noisy
        # rows, decoded in several blocks, gives each row's oracle decision
        rng = np.random.default_rng(7)
        code = sample_code(3, 4, 2, seed=0)
        dec = PairDecoder(code, SQRT2_OVER_2)
        oracle = OracleDecoder(code, SQRT2_OVER_2)
        ys = np.array([y for _, y in _corpus_received(code, SQRT2_OVER_2, oracle, rng, 200)])
        assert ys.shape[0] > dec.block_rows
        decided = dec.decode_many(ys)
        assert decided[0] == -1  # y = 0
        for h, y in zip(decided, ys):
            want = oracle.decode(y)
            if want is AMBIGUOUS:
                assert h == -1
            else:
                assert h == code.rows(want) @ [len(code.messages), 1]
        assert dec.decode_many(np.zeros((0, 4))).shape == (0,)
        with pytest.raises(ValueError):
            dec.decode_many(np.zeros(4))

    @pytest.mark.parametrize("p, n, k, rows", [(3, 4, 2, 8), (5, 8, 2, 500), (5, 32, 2, 29), (7, 16, 3, 3)])
    def test_decode_many_memory_within_bound(self, p, n, k, rows):
        # the rows go through in blocks of block_rows (500 rows at p=5, n=8, k=2
        # would take about 10 MB at once), so one call's traced peak is one
        # block's temporaries, bounded by _per_vector_bytes per row: measured at
        # 0.37, 0.33, 0.37 and 0.79 of the bound.  At p=3, n=4, k=2 about 8 KB
        # of each call does not grow with the rows, so 8 rows, not 1; without
        # the distance stage's term the bound fails there
        dec = PairDecoder(sample_code(p, n, k, seed=0), SQRT2_OVER_2)
        ys = np.random.default_rng(3).uniform(-L / 2, L / 2, size=(rows, n))
        tracemalloc.start()
        try:
            dec.decode_many(ys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= min(rows, dec.block_rows) * _per_vector_bytes(p**k, n, p)

    def test_block_rows(self):
        # one block decode's temporaries stay within 1 MiB unless one decode
        # alone is larger (p=7, n=16, k=3: about 0.8 MB, so two do not fit).
        # The benchmark's codes: the first three score a vector in one tile, p=11
        # in 9 tiles of 157 rows i, each with its own 157 x 88 squares
        assert PairDecoder(sample_code(7, 16, 3, seed=0), 0.3).block_rows == 1
        assert PairDecoder(sample_code(5, 8, 2, seed=0), 0.3).block_rows > 1
        shapes = [(5, 8, 2, 52, 25), (5, 32, 2, 14, 25), (7, 16, 3, 1, 343), (11, 8, 3, 1, 157)]
        for p, n, k, rows, tile in shapes:
            assert (_block_rows(p**k, n, p), _tile_rows(p**k)) == (rows, tile)

    def test_one_tile_charge_is_the_whole_vector_gather(self):
        # where a vector is one tile, a tile's gathered squares are the whole vector's,
        # and the charge is that of the gather taken before the tiles
        shapes = 0
        primes = [q for q in range(2, 98) if all(q % r for r in range(2, q))]
        for p, k in itertools.product(primes, range(1, 5)):
            M = p**k
            for n in range(1, 1001):
                if _tile_rows(M) == M:
                    whole = M * n * p * 4 + M * M * 5 + 64 * n * p * p
                    assert _per_vector_bytes(M, n, p) == whole, (p, n, k)
                    shapes += 1
        assert shapes > 10_000

    def test_tiled_decode_gathers_one_tile_of_squares(self):
        # one vector at p=11, n=8, k=3 in 9 tiles: each tile gathers its own 157 x 88
        # squares, so one call peaks within the charge of one tile (scores, candidate
        # test and squares) and the distance tables, plus about 8 KB a call; gathering
        # the vector's 1331 x 88 squares (468 KB) before the tiles peaks at 1.52 MB
        code = sample_code(11, 8, 3, seed=0)
        dec = PairDecoder(code, SQRT2_OVER_2)
        ys = np.random.default_rng(5).uniform(-L / 2, L / 2, size=(2, 8))
        dec.decode_many(ys[:1])
        tracemalloc.start()
        try:
            dec.decode_many(ys[1:])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        M, np_ = 11**3, 8 * 11
        charge = dec.tile_rows * (5 * M + 4 * np_) + 64 * np_ * 11
        assert peak <= charge + 8 * 2**10
        assert charge == _per_vector_bytes(M, 8, 11) and dec.tile_rows < M

    @pytest.mark.parametrize("p, n, k", [(3, 4, 2), (5, 32, 2), (7, 16, 3), (11, 8, 3)])
    def test_held_arrays_are_what_the_cap_counts(self, p, n, k):
        # d decoders of one code read the code's gain-free arrays and its
        # enumeration, built with the first decoder; each holds only its own psi.
        # Every distinct array is counted once; p=11, k=3 scores a row in tiles
        code = sample_code(p, n, k, seed=0)
        gain_free = ("dependent", "columns", "onehot")
        count = p**k
        # _decoder_bytes less one block decode's temporaries with their candidate
        # list, and one re-scored chunk
        tile = _tile_rows(count) * count
        block = _block_rows(count, n, p) * (_per_vector_bytes(count, n, p) + 8 * tile)
        chunk = min(count * count, _RESCORE_ROWS) * (8 * n + 4) * 8
        assert not set(gain_free) & vars(code).keys()
        decoders = []
        for gamma in (0.3, 0.6, 0.9):
            decoders.append(PairDecoder(code, gamma))
            if len(decoders) == 1:
                shared = tuple(vars(code)[name] for name in gain_free)
            arrays = [dec.psi for dec in decoders] + [getattr(code, name) for name in gain_free]
            arrays += [code.messages, code.residues, code.reals]
            held = {id(a): a for a in arrays}
            want = _decoder_bytes(count, n, p, k, len(decoders)) - block - chunk
            assert sum(a.nbytes for a in held.values()) == want
        for dec in decoders:
            assert dec.code is code
            assert all(getattr(code, name) is a for name, a in zip(gain_free, shared))
        assert len({id(dec.psi) for dec in decoders}) == 3
        for a in shared:
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 1

    @pytest.mark.parametrize("p, k", [(2, 3), (3, 2), (5, 2), (3, 3)])
    def test_dependent_index_matches_messages_dependent(self, p, k):
        # the index is the sorted flat i*M + j of exactly the pairs messages_dependent
        # calls dependent, M + (M - 1)*p of them, and is_dependent reads it on every pair
        code = sample_code(p, 4, k, seed=1)
        dec = PairDecoder(code, 0.3)
        want = np.asarray([[messages_dependent(a, b, p) for b in code.messages] for a in code.messages])
        M = p**k
        assert np.array_equal(code.dependent, np.flatnonzero(want))
        assert code.dependent.size == M + (M - 1) * p == M * M - dec.n_pairs
        assert np.array_equal(code.is_dependent(np.arange(M * M)), want.reshape(-1))

    def test_metric_invariant_to_interval_shifts(self):
        code = sample_code(3, 8, 2, seed=5)
        dec = PairDecoder(code, SQRT2_OVER_2)
        rng = np.random.default_rng(4)
        y = rng.uniform(-L / 2, L / 2, size=8)
        base = dec.decode(y)
        for t in range(8):
            for m in (-2, 1, 3):
                shifted = y.copy()
                shifted[t] += m * L
                out = dec.decode(shifted)
                assert np.array_equal(out[0], base[0]) and np.array_equal(out[1], base[1])

    @pytest.mark.parametrize("p, k", [(3, 2), (5, 2), (7, 3), (11, 3)])
    def test_independent_pair_count_formula(self, p, k):
        M = p**k
        assert PairDecoder(sample_code(p, 3, k, seed=0), 0.3).n_pairs == (M - 1) * (M - p)

    def test_table_memory_capped_before_build(self):
        # the 2809 x 13568 one-hot codebook and one decode's gathered squares
        # are about 305 MB
        code = sample_code(53, 256, 2, seed=0)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="cap"):
                PairDecoder(code, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("degenerate", [False, True])
    def test_traced_memory_within_bound(self, degenerate):
        # an all-zero generator makes every independent pair tie at y = 0, so
        # all 114912 of them go through the chunked re-scoring
        code = sample_code(7, 16, 3, seed=0)
        if degenerate:
            code = LinearCode(p=7, n=16, k=3, generator=np.zeros((3, 16), dtype=np.int64))
        tracemalloc.start()
        try:
            dec = PairDecoder(code, 1.0)
            outs = [dec.decode(y) for y in (np.zeros(16), np.full(16, 0.3))]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert outs[0] is AMBIGUOUS
        assert peak <= _decoder_bytes(7**3, 16, 7, 3) <= DECODER_TABLE_BYTES_CAP

    def test_decoder_in_tiles_holds_no_pair_matrix(self):
        # p=11, k=3 has 1331**2 pairs, 7.1 MB of float32 scores a row: the row is
        # scored in tiles of about 1 MiB, so building the decoder and decoding three
        # vectors peaks at 2.2 MiB traced (15.9 MiB with a dense float32 mask and
        # whole-row scores)
        code = sample_code(11, 8, 3, seed=0)
        ys = np.random.default_rng(5).uniform(-L / 2, L / 2, size=(3, 8))
        tracemalloc.start()
        try:
            dec = PairDecoder(code, SQRT2_OVER_2)
            dec.decode_many(ys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20
        assert dec.tile_rows < 11**3

    def test_all_tie_code_in_tiles_within_bound(self):
        # an all-zero generator ties every independent pair at y = 0, in every
        # tile: each row keeps fewer than _RESCORE_ROWS candidates from one tile to
        # the next, so the peak stays within the charge (5.5 MB of 6.4 MB), where
        # keeping all 1.75 million would take 14 MB of indices alone
        code = LinearCode(p=11, n=8, k=3, generator=np.zeros((3, 8), dtype=np.int64))
        tracemalloc.start()
        try:
            dec = PairDecoder(code, SQRT2_OVER_2)
            out = dec.decode(np.zeros(8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out is AMBIGUOUS
        assert peak <= _decoder_bytes(11**3, 8, 11, 3)

    @pytest.mark.parametrize(
        "check",
        ["test_agrees_with_oracle_on_tie_corpus", "test_agrees_with_oracle_on_near_ties",
         "test_decode_many_matches_oracle_row_by_row"],
    )
    def test_small_tiles_agree_with_oracle(self, monkeypatch, check):
        # the oracle checks again with every row scored in tiles of two rows i
        # and cut down whenever five candidates are kept, so that the running
        # threshold, the dependent pairs of later tiles and the cut are all used
        monkeypatch.setattr(macsim, "_BATCH_BYTES", 64)
        monkeypatch.setattr(macsim, "_RESCORE_ROWS", 5)
        assert PairDecoder(sample_code(3, 4, 2, seed=0), 0.3).tile_rows == 2
        getattr(self, check)()

    def test_k1_has_empty_search_space(self):
        code = sample_code(5, 6, 1, seed=0)
        with pytest.raises(ValueError):
            PairDecoder(code, 0.3)

    def test_cap_enforced(self):
        code = sample_code(5, 8, 5, seed=0)
        with pytest.raises(ValueError):
            PairDecoder(code, 0.3)


class _SingleUserTable:
    """The M x n table [gamma*x_j]* with the metrics _near_tie_received reads."""

    def __init__(self, code, gamma):
        self.psi = mod_interval(gamma * code.reals)

    def metrics(self, y):
        d = mod_interval(y[None, :] - self.psi)
        return np.einsum("ij,ij->i", d, d)


def _single_user_received(code, gamma, rng, draws):
    """y = 0, noiseless and noisy (sigma 0.3 and 1.5) receptions [gamma*x_j + z]* of
    random messages j, and points drawn uniformly on the interval."""
    yield np.zeros(code.n)
    for sigma in (0.0, 0.3, 1.5):
        for j in rng.integers(0, len(code.messages), size=draws):
            yield mod_interval(gamma * code.reals[j] + rng.normal(0.0, sigma, size=code.n))
    yield from rng.uniform(-L / 2, L / 2, size=(draws, code.n))


class TestAloneDecoder:
    """PairDecoder(..., alone=True): the pair decode with the first user known to be
    message 0, whose decisions must be nearest_message's, ties included."""

    def _disagreements(self, code, gamma, ys):
        dec = PairDecoder(code, gamma, alone=True)
        want = [nearest_message(code, gamma, y) for y in ys]
        got = dec.decode_many(np.array(ys))
        return [(y, h, w) for y, h, w in zip(ys, got, want) if h != w], want

    def test_agrees_with_nearest_message_on_tie_corpus(self):
        # an all-zero generator ties every message everywhere; duplicated rows and
        # zero columns tie some; gamma = 0 ties every message too
        rng = np.random.default_rng(26)
        draws = ties = 0
        disagreements = []
        for p, n, k in [(3, 4, 2), (5, 8, 2), (5, 5, 3), (7, 10, 2), (7, 16, 3)]:
            kinds = list(_corpus_generators(p, n, k, rng)) + [("zero", np.zeros((k, n), np.int64))]
            for kind, generator in kinds:
                code = LinearCode(p=p, n=n, k=k, generator=generator)
                for gamma in (0.707106781, 1.0, -2.0, 0.0):
                    ys = list(_single_user_received(code, gamma, rng, 3))
                    wrong, want = self._disagreements(code, gamma, ys)
                    disagreements += [(p, n, k, kind, gamma, y) for y, _, _ in wrong]
                    draws += len(ys)
                    ties += want.count(-1)
        assert disagreements == []
        assert draws == 5 * 4 * 4 * 13
        assert ties >= 500

    def test_agrees_with_nearest_message_on_near_ties(self):
        # the two best messages' float64 metrics differ by less than float32
        # resolves: only the float64 re-score of the near set decides them
        rng = np.random.default_rng(27)
        draws = in_band = 0
        disagreements = []
        shapes = [(5, 8, 2, 0.707106781), (7, 10, 2, 0.3), (7, 16, 3, 2.0), (11, 12, 1, 0.9)]
        for p, n, k, gamma in shapes:
            code = sample_code(p, n, k, seed=p * n)
            table = _SingleUserTable(code, gamma)
            ys = list(_near_tie_received(table, rng, 8, 4))
            for y in ys:
                best, second = np.partition(table.metrics(y), 1)[:2]
                in_band += 1e-9 <= (second - best) / best <= 1e-6
            draws += len(ys)
            disagreements += self._disagreements(code, gamma, ys)[0]
        assert disagreements == []
        assert draws == 4 * 8 * 4
        assert in_band >= 100

    def test_k1_decodes_every_message(self):
        # k = 1 has no independent pair, but every message decodes alone; the
        # decode is the pair decode's, with message 0 as the first user
        code = sample_code(7, 6, 1, seed=4)
        rng = np.random.default_rng(5)
        ys = list(_single_user_received(code, 0.3, rng, 40))
        assert self._disagreements(code, 0.3, ys)[0] == []
        dec = PairDecoder(code, 0.3, alone=True)
        assert dec.n_pairs == 7 and dec.psi.shape == (1, 7)
        for j, w in enumerate(code.messages):
            assert dec.decode_many(mod_interval(0.3 * code.reals[j])[None]).tolist() == [j]
            first, second = dec.decode(mod_interval(0.3 * code.reals[j]))
            assert not first.any() and np.array_equal(second, w)
        assert not {"dependent", "onehot"} & vars(code).keys()

    def test_small_batches_agree_with_nearest_message(self, monkeypatch):
        # p=53, k=2: one vector a block, and every near set re-scored five
        # candidates at a time, so the all-zero generator's 2809-way tie goes
        # through many rounds of the chunked re-score
        monkeypatch.setattr(macsim, "_BATCH_BYTES", 64)
        monkeypatch.setattr(macsim, "_RESCORE_ROWS", 5)
        rng = np.random.default_rng(53)
        ties = 0
        for generator in (rng.integers(0, 53, size=(2, 4)), np.zeros((2, 4), np.int64)):
            code = LinearCode(p=53, n=4, k=2, generator=generator)
            assert PairDecoder(code, 0.3, alone=True).block_rows == 1
            ys = list(_single_user_received(code, 0.3, rng, 2))
            wrong, want = self._disagreements(code, 0.3, ys)
            assert wrong == []
            ties += want.count(-1)
        assert ties >= len(ys)

    def test_psi_row_is_the_single_user_table(self):
        # phi(b) = [gamma*grid(b)]*, the bits of [gamma*x]* at every codeword component
        code = sample_code(11, 9, 2, seed=3)
        for gamma in (0.707106781, -3.5, 0.0):
            dec = PairDecoder(code, gamma, alone=True)
            assert np.array_equal(dec.psi[0][code.residues], mod_interval(gamma * code.reals))


class TestEstimateErrorProb:
    def test_deterministic_across_workers(self):
        code = sample_code(3, 8, 2, seed=7)
        r1 = estimate_error_prob(code, SQRT2_OVER_2, db_to_linear(14), 300, 21)
        r2 = estimate_error_prob(code, SQRT2_OVER_2, db_to_linear(14), 300, 21)
        assert r1 == r2

    def test_single_trial_reproducible(self):
        code = sample_code(3, 8, 2, seed=7)
        run = (code, SQRT2_OVER_2, 100.0, 1, 0)
        assert estimate_error_prob(*run) == estimate_error_prob(*run)

    def test_noiseless_errors_are_exactly_dependent_draws(self):
        code = sample_code(3, 8, 2, seed=7)
        trials = 1000
        res = estimate_error_prob(code, SQRT2_OVER_2, db_to_linear(200), trials, 13)
        assert res.errors_independent == 0
        assert res.errors == res.dependent
        floor = float(dependent_message_prob(3, 2))
        assert res.ci95[0] <= floor <= res.ci95[1]
        # oracle: replay the message substreams and count dependent draws
        dep = 0
        for t in range(trials):
            rng = np.random.default_rng(np.random.SeedSequence(13, spawn_key=(t,)))
            w1 = rng.integers(0, 3, size=2)
            w2 = rng.integers(0, 3, size=2)
            dep += messages_dependent(w1, w2, 3)
        assert res.dependent == dep

    def test_fraction_gamma_accepted(self):
        code = sample_code(3, 8, 2, seed=7)
        res = estimate_error_prob(code, Fraction(7, 10), 1e4, 20, 2)
        assert res.trials == 20

    def test_subthreshold_decay_trend(self):
        # At 8 dB (rate bound is zero there) the decoder is near threshold and
        # the conditional error rate visibly decays with block length.
        rates = []
        for n in (32, 64, 128):
            code = sample_code(5, n, 2, seed=3)
            r = estimate_error_prob(code, SQRT2_OVER_2, db_to_linear(8.0), 400, 5)
            rates.append(r.errors_independent / (r.trials - r.dependent))
        assert rates[0] > 0.0
        assert rates[0] >= rates[1] >= rates[2]

    def test_validation(self):
        code = sample_code(3, 8, 2, seed=7)
        with pytest.raises(ValueError):
            estimate_error_prob(code, 0.4, 0.0, 10, 0)
        with pytest.raises(ValueError):
            estimate_error_prob(code, 0.4, 1.0, 0, 0)
        with pytest.raises(ValueError):
            estimate_error_prob(code, 0.4, 1.0, 10, -1)

    @pytest.mark.parametrize("p, n, k", ENGINE_SHAPES)
    @pytest.mark.parametrize("snr_db", [200.0, 10.0, 40.0])
    def test_block_engine_matches_per_trial_loop(self, p, n, k, snr_db):
        code = sample_code(p, n, k, seed=p + n)
        counts = engine_trial_counts(p, n, k)
        outcomes = mac_trial_outcomes(code, SQRT2_OVER_2, db_to_linear(snr_db), 17, counts[-1])
        for trials in counts:
            res = estimate_error_prob(code, SQRT2_OVER_2, db_to_linear(snr_db), trials, 17)
            assert res == mac_result(outcomes[:trials])

    def test_ties_and_wrong_decodes_split_the_decoding_errors(self):
        code = sample_code(5, 8, 2, seed=3)
        trials = 2 * _block_rows(25, 8, 5) + 3
        results = {}
        for gamma in (SQRT2_OVER_2, 1.0):
            res = estimate_error_prob(code, gamma, db_to_linear(10), trials, 4)
            assert res == mac_result(mac_trial_outcomes(code, gamma, db_to_linear(10), 4, trials))
            assert res.errors == res.dependent + res.errors_independent
            assert 0 <= res.ambiguous <= res.errors_independent
            results[gamma] = res
        # gamma = 1 gives psi(i, j) = psi(j, i) bit for bit: every decode ties
        tied = results[1.0]
        assert tied.ambiguous == tied.errors_independent == trials - tied.dependent > 0
        noisy = results[SQRT2_OVER_2]
        assert noisy.ambiguous == 0 < noisy.errors_independent

    def test_traced_peak_of_block_engine_within_bound(self):
        # 3000 trials in blocks of block_rows: one block's temporaries, not
        # 3000 decodes' (about 60 MB), bound the run
        code = sample_code(5, 8, 2, seed=3)
        tracemalloc.start()
        try:
            res = estimate_error_prob(code, SQRT2_OVER_2, db_to_linear(10), 3000, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.trials == 3000
        assert peak <= _decoder_bytes(25, 8, 5, 2)


def _run_mac(code, snr, trials, seed):
    return estimate_error_prob(code, SQRT2_OVER_2, snr, trials, seed)


def _run_network(code, snr, trials, seed):
    H = ChannelMatrix(K=2, direct=(SQRT2_OVER_2,) * 2, cross=[[0, 1], [1, 0]])
    return simulate_network(H, code, snr, trials, seed)


@pytest.mark.parametrize("simulate", [_run_mac, _run_network], ids=["mac", "network"])
@pytest.mark.parametrize(
    "snr, trials, seed, refused",
    [
        (0.0, 5, 0, "snr"),
        (math.nan, 5, 0, "snr"),
        (math.inf, 5, 0, "snr"),
        (10.0, 0, 0, "trials"),
        (10.0, 2**32 + 1, 0, "trials"),
        (10.0, 5, -1, "seed"),
        (db_to_linear(-3083), 5, 0, "snr"),  # positive, but 1/snr is inf
        (10.0, 5, 0, "decoder needs"),  # control: a valid run reaches the decoder cap
        (10.0, 2**32, 0, "decoder needs"),  # control: the most trials t's one key word allows
    ],
)
def test_both_simulators_check_the_run_before_building_a_decoder(
    simulate, snr, trials, seed, refused
):
    # the cap refuses this code's PairDecoder, so the run check must come first
    code = sample_code(53, 256, 2, seed=0)
    with pytest.raises(ValueError, match=f"^{refused}") as raised:
        simulate(code, snr, trials, seed)
    if refused != "decoder needs":
        with pytest.raises(ValueError) as checked:
            check_run(snr, trials, seed, [SQRT2_OVER_2], code)
        assert str(raised.value) == str(checked.value)


def test_distinct_gains_pay_one_copy_of_the_gain_free_arrays(monkeypatch):
    # the run check alone, which builds nothing: three distinct paired gains
    # charge the code's gain-free arrays once and a p x p psi each, so at p=53,
    # k=2 they fit at n=60 (71.4 MB; 71.3 MB for one gain) and n=235 (267.5 MB),
    # as one gain does; one gain at n=236 (268.6 MB) is refused
    def built(*args):
        raise AssertionError("the run check built an array")

    # every array the code holds comes from its enumeration
    monkeypatch.setattr(codes, "_all_messages", built)
    gains = [SQRT2_OVER_2, 0.5, 0.3]
    assert round(_decoder_bytes(53**2, 60, 53, 2) / 1e6, 1) == 71.3
    for n, mb in [(60, 71.4), (235, 267.5)]:
        assert round(_decoder_bytes(53**2, n, 53, 2, 3) / 1e6, 1) == mb
        code = sample_code(53, n, 2, seed=0)
        check_run(100.0, 10, 0, gains, code)
        assert not {"messages", "dependent", "columns", "onehot"} & vars(code).keys()
    with pytest.raises(ValueError, match=r"^decoder needs \d+ bytes for 1 distinct gain"):
        check_run(100.0, 10, 0, gains[:1], sample_code(53, 236, 2, seed=0))


def test_snr_one_db_above_the_noise_overflow_runs_like_the_per_trial_loops():
    # the control of the -3083 dB refusal: one dB up 1/snr is finite
    code, snr = sample_code(5, 8, 2, seed=0), db_to_linear(-3082)
    H = ChannelMatrix(K=2, direct=(SQRT2_OVER_2,) * 2, cross=[[0, 1], [1, 0]])
    mac_outcomes = mac_trial_outcomes(code, SQRT2_OVER_2, snr, 0, 40)
    assert _run_mac(code, snr, 40, 0) == mac_result(mac_outcomes)
    network_outcomes = network_trial_outcomes(H, code, snr, 0, 40)
    assert _run_network(code, snr, 40, 0) == network_result(network_outcomes)


class TestTrialBlocks:
    @pytest.mark.parametrize("p, n, k", ENGINE_SHAPES)
    @pytest.mark.parametrize(
        "keys, users, noise_from", [([()], 2, 0), ([(j,) for j in range(4)], 3, 1)],
        ids=["mac", "network"],
    )
    def test_blocks_cover_the_trials_with_their_substreams(self, p, n, k, keys, users, noise_from):
        code, sigma = sample_code(p, n, k, seed=0), 0.3
        rows = _block_rows(p**k, n, p)
        # the seed words are hashed per span of whole blocks: cross its edges too
        span = max(rows, _SPAN_TRIALS // rows * rows)
        counts = engine_trial_counts(p, n, k) + [span - 1, span + 1, 2 * span + 3]
        for seed, trials in itertools.product([31, 2**64 + 1], counts):
            blocks = list(trial_blocks(code, trials, seed, keys, users, sigma, noise_from))
            assert [len(b) for b, _, _ in blocks] == [
                min(rows, trials - start) for start in range(0, trials, rows)
            ]
            assert [t for b, _, _ in blocks for t in b] == list(range(trials))
            W = np.concatenate([w for _, w, _ in blocks])
            Z = np.concatenate([z for _, _, z in blocks])
            assert W.shape == (trials, users, k) and Z.shape == (trials, len(keys) - noise_from, n)
            # trial t draws its messages, then its noise, from the substreams of (t, *key)
            for t in range(trials):
                fresh = [
                    np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t, *key)))
                    for key in keys
                ]
                assert np.array_equal(W[t], fresh[0].integers(0, p, size=(users, k)))
                for j, g in enumerate(fresh[noise_from:]):
                    assert np.array_equal(Z[t, j], g.normal(0.0, sigma, size=n))


class TestMessageDraws:
    # 2**31 + 11 is prime: 2**32 % p = 2**32 - p rejects about half of all 32-bit draws
    PRIMES = [2, 3, 5, 7, 11, 53, 2999, 2**31 + 11]

    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (5, 2), (3, 3)])
    def test_block_draws_are_integers_then_normal(self, p, shape):
        # 1,000 substreams; the MAC's (2, k) messages and its noise come from one
        # generator, the network's (K, k) from its own (an odd count leaves a half unused)
        trials, n, sigma = 1000, 3, 0.25
        keys, noise_from = ([()], 0) if shape[0] == 2 else ([(0,), (1,)], 1)
        words = substream_words(17, range(trials), keys)
        W, Z = _draw_block(words, p, shape, n, sigma, noise_from)
        assert W.shape == (trials, *shape) and Z.shape == (trials, 1, n)
        for t in range(trials):
            fresh = [
                np.random.default_rng(np.random.SeedSequence(17, spawn_key=(t, *key)))
                for key in keys
            ]
            assert np.array_equal(W[t], fresh[0].integers(0, p, size=shape)), t
            assert np.array_equal(Z[t, 0], fresh[noise_from].normal(0.0, sigma, size=n)), t

    @pytest.mark.parametrize("p", PRIMES)
    def test_rejections_are_what_integers_rejects(self, p):
        # every row the reduction leaves unrejected holds integers' values; at
        # p = 2**31 + 11 the rejection path above runs for most of the 1,000 rows
        words = substream_words(17, range(1000), [()])
        generator = _generator_from_words()
        raw = np.array([generator(w).bit_generator.random_raw(2) for w in words[:, 0]])
        values, rejected = _lemire(raw, p, 4)
        reference = np.array([generator(w).integers(0, p, size=4) for w in words[:, 0]])
        assert np.array_equal(values[~rejected], reference[~rejected])
        # below 2**31 a draw is rejected with probability 2**32 % p / 2**32 < p / 2**32
        assert np.count_nonzero(rejected) > 800 if p > 2**31 else not rejected.any()


class TestSubstreamWords:
    # keys: none (the MAC), one word (a network user) and one of two words
    @example(seed=7, t=2**32 - 1, key=(3,))  # the largest trial index
    @given(
        seed=st.integers(0, 2**256 - 1),
        t=st.integers(0, 2**32 - 1),
        key=st.one_of(
            st.just(()), st.tuples(st.integers(0, 2**32 - 1)), st.tuples(st.integers(2**32, 2**64))
        ),
    )
    def test_words_and_draws_are_seed_sequences(self, seed, t, key):
        sequence = np.random.SeedSequence(seed, spawn_key=(t, *key))
        words = substream_words(seed, [t], [key])
        assert words.shape == (1, 1, 4) and words.dtype == np.uint64
        assert np.array_equal(words[0, 0], sequence.generate_state(4, np.uint64))
        g, fresh = _generator_from_words()(words[0, 0]), np.random.default_rng(sequence)
        assert np.array_equal(g.integers(0, 2**62, size=3), fresh.integers(0, 2**62, size=3))
        assert g.normal() == fresh.normal()

    @pytest.mark.parametrize("ts", [[2**32], [0, 2**32 + 5], [-1]])
    def test_a_trial_index_that_does_not_fit_one_word_is_refused(self, ts):
        with pytest.raises(ValueError, match="^every trial index must fit one 32-bit word$"):
            substream_words(0, ts, [()])


def _largest_gain(p):
    """The largest float gain whose product with every point of the p-grid is finite."""
    grid = grid_real(np.arange(p), p)
    g = sys.float_info.max / float(np.abs(grid).max())
    with np.errstate(over="ignore"):
        while not np.isfinite(g * grid).all():
            g = math.nextafter(g, 0.0)
        while np.isfinite(math.nextafter(g, math.inf) * grid).all():
            g = math.nextafter(g, math.inf)
    return g


def _two_users(h, heard):
    """Receiver 1 (gain h) hears user 2 when ``heard``, else decodes alone."""
    return ChannelMatrix(K=2, direct=(h, 0.5), cross=[[0, int(heard)], [1, 0]])


class TestHugeGains:
    @pytest.mark.parametrize("gain", [1e308, 1.2e308, "largest"])
    def test_gains_that_fit_the_grid_run_like_the_per_trial_loops(self, gain):
        gain = _largest_gain(5) if gain == "largest" else gain
        code, snr = sample_code(5, 8, 2, seed=3), db_to_linear(20)
        res = estimate_error_prob(code, gain, snr, 60, 2)
        assert res == mac_result(mac_trial_outcomes(code, gain, snr, 2, 60))
        for heard in (False, True):
            H = _two_users(gain, heard)
            res = simulate_network(H, code, snr, 60, 2)
            assert res == network_result(network_trial_outcomes(H, code, snr, 2, 60))

    @pytest.mark.parametrize("p", [2, 5, 53])
    @pytest.mark.parametrize("gain", ["next", 1.5e308, -1.5e308])
    def test_overflowing_gain_refused_before_building(self, p, gain):
        # the (53, 256, 2) decoder is above the cap, so the gain must be refused first
        gain = math.nextafter(_largest_gain(p), math.inf) if gain == "next" else gain
        code = sample_code(p, 256 if p == 53 else 8, 2, seed=0)
        message = re.escape(f"gain {gain} times the p={p} grid overflows a float")
        with pytest.raises(ValueError, match=f"^{message}$"):
            estimate_error_prob(code, gain, 100.0, 5, 0)
        for heard in (False, True):
            with pytest.raises(ValueError, match=f"^{message}$"):
                simulate_network(_two_users(gain, heard), code, 100.0, 5, 0)
