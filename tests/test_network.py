import math
from fractions import Fraction

import numpy as np
import pytest

from lia.codes import LinearCode, encode, messages_dependent, sample_code
from lia.modarith import mod_interval
from lia.network import (
    ChannelFormatError,
    ChannelMatrix,
    align_interference,
    bundled_channel_path,
    load_channel_file,
    parse_channel_text,
    parse_real_matrix_text,
    simulate_network,
    sum_rate_curves,
)
from lia.rates import db_to_linear
from oracles import ENGINE_SHAPES, engine_trial_counts, network_result, network_trial_outcomes

SQRT2_OVER_2 = math.sqrt(2) / 2
# the cross gains of both bundled 5-user channel files
BUNDLED_CROSS = [
    [0, 1, 2, 3, 4],
    [5, 0, 3, 6, 7],
    [2, 11, 0, 1, 3],
    [3, 7, 6, 0, 9],
    [11, 2, 6, 4, 0],
]
# receiver 2 hears nobody and decodes its message alone
ZERO_ROW_CROSS = np.array([[0, 1, 2], [0, 0, 0], [3, 1, 0]], dtype=np.int64)


def bundled_channel(h):
    """The bundled 5-user channel with every direct gain set to h."""
    cross = load_channel_file(bundled_channel_path()).cross
    return ChannelMatrix(K=5, direct=(h,) * 5, cross=cross)


def fold_codewords_on_grid(codewords, gains, p):
    """Oracle: fold gain-scaled codewords in the residue domain."""
    acc = np.zeros(len(codewords[0]), dtype=np.int64)
    for cw, g in zip(codewords, gains):
        acc = (acc + int(g) * cw.residues) % p
    return acc


class TestChannelMatrix:
    def test_rejects_non_integer_cross(self):
        with pytest.raises(ValueError, match="not an int64 integer"):
            ChannelMatrix(K=2, direct=(0.7, 0.7), cross=[[0, 1.5], [2.9, 0]])
        with pytest.raises(ValueError, match="not an int64 integer"):
            ChannelMatrix(K=2, direct=(0.7, 0.7), cross=np.array([[0, 2.5], [3.0, 0]]))

    def test_rejects_non_int64_cross(self):
        for bad in (10**23, 2**63, -(2**63) - 1, math.inf, "1", math.nan):
            with pytest.raises(ValueError, match="not an int64 integer"):
                ChannelMatrix(K=2, direct=(0.7, 0.7), cross=[[0, bad], [1, 0]])

    def test_accepts_integer_valued_floats(self):
        H = ChannelMatrix(K=2, direct=(0.7, 0.7), cross=[[0, 2.0], [3, 0]])
        assert H.cross.dtype == np.int64 and H.cross.tolist() == [[0, 2], [3, 0]]
        edges = [[0, 2**63 - 1], [Fraction(-(2**63)), 0]]
        assert ChannelMatrix(K=2, direct=(0.7, 0.7), cross=edges).cross.tolist() == [
            [0, 2**63 - 1],
            [-(2**63), 0],
        ]

    def test_requires_square(self):
        with pytest.raises(ValueError):
            ChannelMatrix(K=2, direct=(0.7, 0.7), cross=[[0, 1], [2, 0], [1, 2]])

    def test_requires_k_at_least_two(self):
        with pytest.raises(ValueError):
            ChannelMatrix(K=1, direct=(0.7,), cross=np.zeros((1, 1), dtype=np.int64))


class TestChannelParsing:
    def test_bundled_file_loads_exact_fractions(self):
        H = load_channel_file(bundled_channel_path())
        assert H.K == 5
        assert all(g == Fraction(707, 1000) for g in H.direct)
        assert H.cross.tolist() == BUNDLED_CROSS
        other = load_channel_file(bundled_channel_path("channel5_h024.txt"))
        assert other.direct == (Fraction(6, 25),) * 5 and other.cross.tolist() == BUNDLED_CROSS

    def test_decimal_diagonal_is_float(self):
        H = parse_channel_text("2\n0.707 1\n2 0.707\n")
        assert isinstance(H.direct[0], float)

    def test_fraction_off_diagonal_rejected(self):
        with pytest.raises(ChannelFormatError):
            parse_channel_text("2\n0.707 1/2\n2 0.707\n")
        with pytest.raises(ChannelFormatError):
            parse_channel_text("2\n0.707 1.5\n2 0.707\n")

    def test_overflowing_cross_gain_rejected(self):
        with pytest.raises(ChannelFormatError, match=r"h\[0\]\[1\]"):
            parse_channel_text("2\n0.7 100000000000000000000000\n1 0.7\n")
        H = parse_channel_text(f"2\n0.7 {2**63 - 1}\n{-(2**63)} 0.7\n")
        assert H.cross.tolist() == [[0, 2**63 - 1], [-(2**63), 0]]

    def test_structure_errors(self):
        with pytest.raises(ChannelFormatError):
            parse_channel_text("")
        with pytest.raises(ChannelFormatError):
            parse_channel_text("2\n0.707 1\n")
        with pytest.raises(ChannelFormatError):
            parse_channel_text("2\n0.707 1 2\n2 0.707\n")

    def test_real_matrix_parser(self):
        m = parse_real_matrix_text("3\n1/2 1 2\n3 1.5 1\n1 2 1\n", K_expected=3)
        assert m.shape == (3, 3) and m[0, 0] == 0.5 and m[1, 1] == 1.5
        for bad in (
            "2\n1 2\n3 4\n",  # wrong K
            "",
            "x\n1 2\n3 4\n",
            "3\n1 2 3\n4 5 6\n",  # missing row
            "3\n1 2 3\n4 5\n6 7 8\n",  # ragged row
            "3\n1 2 3\n4 5 1/0\n6 7 8\n",
            "3\n1 2 3\n4 5 six\n6 7 8\n",
        ):
            with pytest.raises(ChannelFormatError):
                parse_real_matrix_text(bad, K_expected=3)


class TestAlignInterference:
    def test_zero_messages_zero_codeword(self):
        code = sample_code(5, 8, 2, seed=1)
        w_if, cw = align_interference(code, [2, 3], [np.zeros(2, int), np.zeros(2, int)])
        assert not w_if.any() and not cw.residues.any()

    def test_single_unit_gain_identity(self):
        code = sample_code(5, 8, 2, seed=1)
        w = np.array([3, 1])
        w_if, cw = align_interference(code, [1], [w])
        assert np.array_equal(w_if, w)
        assert cw == encode(code, w)

    def test_hand_example(self):
        code = sample_code(5, 8, 2, seed=1)
        w_if, _ = align_interference(code, [2, 3], [np.array([1, 0]), np.array([0, 1])])
        assert w_if.tolist() == [2, 3]

    def test_rejects_non_integer_gain(self):
        code = sample_code(5, 8, 2, seed=1)
        with pytest.raises(ValueError):
            align_interference(code, [1.5], [np.array([1, 0])])

    def test_matches_grid_fold_exactly(self):
        # codeword-domain route (grid ops) against the message-domain route
        code = sample_code(5, 8, 2, seed=3)
        H = bundled_channel(SQRT2_OVER_2)
        rng = np.random.default_rng(17)
        for _ in range(20):
            W = rng.integers(0, 5, size=(5, 2))
            for j in range(5):
                gains = [int(H.cross[j, k]) for k in range(5) if k != j]
                msgs = [W[k] for k in range(5) if k != j]
                w_if, cw = align_interference(code, gains, msgs)
                folded = fold_codewords_on_grid(
                    [encode(code, m) for m in msgs], gains, code.p
                )
                assert np.array_equal(cw.residues, folded)

    def test_real_domain_agreement(self):
        code = sample_code(5, 8, 2, seed=3)
        rng = np.random.default_rng(2)
        gains = [2, -3, 7]
        msgs = [rng.integers(0, 5, size=2) for _ in gains]
        _, cw = align_interference(code, gains, msgs)
        folded = sum(g * encode(code, m).reals for g, m in zip(gains, msgs))
        assert np.max(np.abs(mod_interval(folded) - cw.reals)) < 1e-12


class TestSimulateNetwork:
    def test_no_interference_noiseless_is_error_free(self):
        H = ChannelMatrix(K=2, direct=(SQRT2_OVER_2,) * 2, cross=np.zeros((2, 2), np.int64))
        code = sample_code(3, 8, 2, seed=0)
        res = simulate_network(H, code, db_to_linear(200), trials=200, seed=42)
        assert res.network_p_e == 0.0

    def test_noiseless_errors_are_dependent_pairs_only(self):
        # at 200 dB every decodable (independent) pair is recovered; the only
        # per-receiver errors come from dependent (w_IF, w_j) draws
        H = bundled_channel(SQRT2_OVER_2)
        code = sample_code(5, 8, 2, seed=1)
        trials, seed = 150, 9
        res = simulate_network(H, code, db_to_linear(200), trials, seed)
        dep = np.zeros(5, dtype=int)
        for t in range(trials):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t, 0)))
            W = rng.integers(0, 5, size=(5, 2))
            for j in range(5):
                w_if = (H.cross[j] @ W) % 5
                dep[j] += messages_dependent(w_if, W[j], 5)
        assert list(res.receiver_errors) == dep.tolist()

    def test_network_pe_bounds_receiver_pe(self):
        H = bundled_channel(SQRT2_OVER_2)
        code = sample_code(5, 8, 2, seed=1)
        res = simulate_network(H, code, db_to_linear(18), trials=60, seed=4)
        assert res.network_p_e >= max(res.receiver_p_e)

    def test_deterministic_across_workers(self):
        H = bundled_channel(SQRT2_OVER_2)
        code = sample_code(5, 8, 2, seed=1)
        a = simulate_network(H, code, db_to_linear(20), trials=40, seed=8)
        b = simulate_network(H, code, db_to_linear(20), trials=40, seed=8)
        assert a == b

    def test_receiver_without_interferers_pinned_counts(self):
        # receiver 2 hears nobody and decodes its message alone while the
        # others decode pairs; the exact counts are regression anchors
        H = ChannelMatrix(K=3, direct=(SQRT2_OVER_2, 0.5, SQRT2_OVER_2), cross=ZERO_ROW_CROSS)
        code = sample_code(5, 8, 2, seed=2)
        res = simulate_network(H, code, db_to_linear(10), trials=200, seed=11)
        assert res.receiver_errors == (125, 41, 121)
        assert res.network_errors == 172

    def test_k1_without_interference_pinned_counts(self):
        # k = 1 leaves no independent message pairs, so only the
        # single-user receivers can run
        H = ChannelMatrix(K=2, direct=(SQRT2_OVER_2, 0.3), cross=np.zeros((2, 2), np.int64))
        code = sample_code(7, 6, 1, seed=4)
        res = simulate_network(H, code, db_to_linear(10), trials=300, seed=5)
        assert res.receiver_errors == (3, 89)
        assert res.network_errors == 91

    @pytest.mark.parametrize("p, n, k", ENGINE_SHAPES)
    @pytest.mark.parametrize("snr_db", [200.0, 10.0, 40.0])
    @pytest.mark.parametrize("matrix", ["bundled", "zero-row"])
    def test_block_engine_matches_per_trial_loop(self, p, n, k, snr_db, matrix):
        if matrix == "bundled":
            H = load_channel_file(bundled_channel_path())
        else:
            H = ChannelMatrix(K=3, direct=(SQRT2_OVER_2, 0.5, 0.3), cross=ZERO_ROW_CROSS)
        code = sample_code(p, n, k, seed=p * n)
        counts = engine_trial_counts(p, n, k)
        outcomes = network_trial_outcomes(H, code, db_to_linear(snr_db), 23, counts[-1])
        for trials in counts:
            res = simulate_network(H, code, db_to_linear(snr_db), trials, 23)
            assert res == network_result(outcomes[:trials])

    def test_ties_counted_per_receiver(self):
        # an all-zero generator makes every codeword zero: every pair and
        # every single-user candidate ties, so every error is a tie
        H = ChannelMatrix(K=3, direct=(SQRT2_OVER_2, 0.5, 0.3), cross=ZERO_ROW_CROSS)
        code = LinearCode(p=3, n=4, k=2, generator=np.zeros((2, 4), dtype=np.int64))
        res = simulate_network(H, code, db_to_linear(40), trials=50, seed=2)
        assert res.receiver_ambiguous == res.receiver_errors == (50, 50, 50)
        noisy = simulate_network(H, sample_code(3, 4, 2, seed=1), db_to_linear(10), 50, 2)
        assert all(0 <= a <= e for a, e in zip(noisy.receiver_ambiguous, noisy.receiver_errors))

    def test_huge_cross_gain_aligns_like_its_residue(self):
        # a cross gain acts on the grid only mod p: 2**60 + 3 = 3 (mod 5), and
        # at 200 dB receiver 1's errors are exactly its dependent draws
        code = sample_code(5, 8, 2, seed=1)
        results = [
            simulate_network(
                ChannelMatrix(K=2, direct=(SQRT2_OVER_2,) * 2, cross=[[0, g], [1, 0]]),
                code, db_to_linear(200), 200, 9,
            )
            for g in (3, 2**60 + 3)
        ]
        assert results[0] == results[1]
        assert results[0].receiver_errors[1] == 38

    def test_negative_seed_rejected_before_decoding(self):
        with pytest.raises(ValueError, match="seed"):
            simulate_network(bundled_channel(0.3), sample_code(5, 8, 2, seed=1), 10.0, 5, -1)


class TestSumRateCurves:
    def test_saturation_below_5_log_q(self):
        H = load_channel_file(bundled_channel_path())  # h = 707/1000
        rows = sum_rate_curves(H, [160.0, 200.0], p_max=2000)
        cap = 5 * math.log2(1000)
        for _, ia, _, _ in rows:
            assert 0.0 < ia < cap
        # saturated: moving 160 -> 200 dB changes the rate only marginally
        assert abs(rows[1][1] - rows[0][1]) < 0.5

    def test_small_denominator_saturates_lower(self):
        h_many = load_channel_file(bundled_channel_path("channel5_h0707.txt"))
        h_few = load_channel_file(bundled_channel_path("channel5_h024.txt"))
        big = sum_rate_curves(h_many, [200.0], p_max=2000)[0][1]
        small = sum_rate_curves(h_few, [200.0], p_max=2000)[0][1]
        assert small < 5 * math.log2(25)
        assert small < big

    def test_alignment_beats_time_sharing_at_high_snr(self):
        H = bundled_channel(SQRT2_OVER_2)
        rows = sum_rate_curves(H, [10.0, 60.0])
        low, high = rows[0], rows[1]
        assert low[1] == 0.0 and low[2] > 0.0  # below threshold: ts wins
        assert high[1] > high[2]  # beyond it: alignment wins

    def test_benchmark_column(self):
        H = bundled_channel(0.3)
        (row,) = sum_rate_curves(H, [30.0])
        assert row[3] == pytest.approx(2.5 * 0.5 * math.log2(1 + 1.09 * 1e3))
