import itertools
import math
import re
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from lia.codes import LinearCode, encode, messages_dependent, sample_code
from lia.macsim import (
    AMBIGUOUS,
    DECODER_TABLE_BYTES_CAP,
    PairDecoder,
    _SPAN_TRIALS,
    _block_rows,
    _decoder_bytes,
    _generator_from_words,
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
        i_idx, j_idx = np.nonzero(dec.mask == 0.0)
        for i, j in zip(i_idx[::5], j_idx[::5]):
            w1, w2 = dec.book.messages[i], dec.book.messages[j]
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
        count = len(dec.book)
        for h, y in zip(decided, ys):
            want = oracle.decode(y)
            if want is AMBIGUOUS:
                assert h == -1
            else:
                assert h == dec.book.rows(want) @ [count, 1]
        assert dec.decode_many(np.zeros((0, 4))).shape == (0,)
        with pytest.raises(ValueError):
            dec.decode_many(np.zeros(4))

    def test_decode_many_memory_within_bound(self):
        # 500 rows go through in blocks of block_rows; at once they would
        # take about 13 MB
        code = sample_code(5, 8, 2, seed=0)
        dec = PairDecoder(code, SQRT2_OVER_2)
        ys = np.random.default_rng(3).uniform(-L / 2, L / 2, size=(500, 8))
        tracemalloc.start()
        try:
            dec.decode_many(ys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _decoder_bytes(25, 8, 5, 2)

    def test_block_rows(self):
        # one block decode's temporaries stay within 1 MiB unless one decode
        # alone is larger (p=7, n=16, k=3: about 1.4 MB)
        assert PairDecoder(sample_code(7, 16, 3, seed=0), 0.3).block_rows == 1
        assert PairDecoder(sample_code(5, 8, 2, seed=0), 0.3).block_rows > 1

    @pytest.mark.parametrize("p, k", [(3, 2), (5, 2), (3, 3)])
    def test_mask_matches_messages_dependent(self, p, k):
        dec = PairDecoder(sample_code(p, 4, k, seed=1), 0.3)
        want = np.asarray(
            [[messages_dependent(a, b, p) for b in dec.book.messages] for a in dec.book.messages]
        )
        assert np.array_equal(np.isinf(dec.mask), want)
        assert np.all(dec.mask[~want] == 0.0)

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
        # the 2809 x 13568 one-hot codebook alone is about 305 MB
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

    def test_k1_has_empty_search_space(self):
        code = sample_code(5, 6, 1, seed=0)
        with pytest.raises(ValueError):
            PairDecoder(code, 0.3)

    def test_cap_enforced(self):
        code = sample_code(5, 8, 5, seed=0)
        with pytest.raises(ValueError):
            PairDecoder(code, 0.3)


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
        # 3000 decodes' (about 79 MB), bound the run
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
            check_run(snr, trials, seed, [SQRT2_OVER_2], code.p)
        assert str(raised.value) == str(checked.value)


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
    @pytest.mark.parametrize("keys", [[()], [(j,) for j in range(4)]], ids=["mac", "network"])
    def test_blocks_cover_the_trials_with_their_substreams(self, p, n, k, keys):
        code = sample_code(p, n, k, seed=0)
        rows = _block_rows(p**k, n, p)
        # the seed words are hashed per span of whole blocks: cross its edges too
        span = max(rows, _SPAN_TRIALS // rows * rows)
        counts = engine_trial_counts(p, n, k) + [span - 1, span + 1, 2 * span + 3]
        for seed, trials in itertools.product([31, 2**64 + 1], counts):
            blocks = [
                (block, list(gens)) for block, gens in trial_blocks(code, trials, seed, keys)
            ]
            assert [len(b) for b, _ in blocks] == [
                min(rows, trials - start) for start in range(0, trials, rows)
            ]
            assert [t for b, _ in blocks for t in b] == list(range(trials))
            # trial t of the concatenated blocks holds the generators of (t, *key)
            flat = list(itertools.chain.from_iterable(gens for _, gens in blocks))
            assert len(flat) == trials
            for t, generators in enumerate(flat):
                assert len(generators) == len(keys)
                for key, g in zip(keys, generators):
                    fresh = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t, *key)))
                    draws = [(r.integers(0, 2**62, size=3), r.normal()) for r in (g, fresh)]
                    assert np.array_equal(draws[0][0], draws[1][0])
                    assert draws[0][1] == draws[1][1]


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
