import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from lia import diophantine, rates
from lia.diophantine import admissible_prefix, primes_up_to
from lia.network import ChannelMatrix, bundled_channel_path, load_channel_file, parse_real_matrix_text
from lia.powertime import build_schedule
from lia.rates import (
    PRIME_SEARCH_CAP,
    _best_primes,
    db_to_linear,
    default_p_max,
    dependent_message_prob,
    dof_benchmark,
    dof_ratio,
    normalized_rate,
    omega_breakdown,
    random_sym_capacity,
    rate_for_p,
    theorem1_rate,
    theorem1_rates,
    theorem2_sym_rate,
    time_sharing_sum_rate,
)

SQRT2_OVER_2 = math.sqrt(2) / 2
ROOT = Path(__file__).resolve().parents[1]


def brute_dependent_prob(p, k):
    """Exhaustive count of dependent vector pairs in Z_p^k.

    Dependence is tested by scanning all (a, b) != (0, 0) with
    a*w1 + b*w2 = 0, independently of the library's rank shortcut.
    """
    vectors = [np.array(v) for v in np.ndindex(*([p] * k))]
    coeffs = [(a, b) for a in range(p) for b in range(p) if (a, b) != (0, 0)]
    dependent = 0
    for w1 in vectors:
        for w2 in vectors:
            if any(np.all((a * w1 + b * w2) % p == 0) for a, b in coeffs):
                dependent += 1
    return Fraction(dependent, len(vectors) ** 2)


class TestOmegaBreakdown:
    def test_hand_values(self):
        bd = omega_breakdown(3, 0.4, 100.0)
        # 1/9 + sqrt(2*pi/300) + (1/3) exp(-(300/18)*0.04) + 2 exp(-37.5)
        assert bd.omega_a == pytest.approx(0.426970, abs=1e-6)
        assert bd.omega_b == pytest.approx(1.056935, abs=1e-6)

    def test_high_snr_limits(self):
        bd = omega_breakdown(7, 0.3, 1e18)
        assert bd.omega_a == pytest.approx(1 / 49, rel=1e-6)
        assert bd.omega_b == pytest.approx(1 / 7, rel=1e-6)

    def test_annihilated_delta_gives_infinite_b(self):
        bd = omega_breakdown(5, Fraction(1, 3), 100.0)
        assert math.isinf(bd.omega_b)
        assert bd.omega_d >= bd.omega_b or math.isinf(bd.omega_d)

    @pytest.mark.filterwarnings("error")
    def test_huge_float_gain_is_an_integer(self):
        # 1e308 is an integer: delta = 0, so omega_a = 1/p^2 + sq + 1/p + tail
        bd = omega_breakdown(5, 1e308, 1e4)
        assert bd.omega_a == pytest.approx(1 / 25 + math.sqrt(2 * math.pi / 3e4) + 1 / 5)
        assert math.isinf(bd.omega_b)

    def test_all_terms_positive(self):
        bd = omega_breakdown(11, 0.37, 50.0)
        for v in (bd.omega_a, bd.omega_b, bd.omega_d):
            assert v > 0


class TestRateForP:
    def test_unit_snr_always_zero(self):
        for p in (2, 3, 11, 101):
            for g in (0.1, 0.4, SQRT2_OVER_2):
                assert rate_for_p(p, g, 1.0) == 0.0

    def test_moderate_snr_zero_at_p3(self):
        # omega_b > 1 at SNR = 100, gamma = 0.4
        assert rate_for_p(3, 0.4, 100.0) == 0.0

    def test_high_snr_positive(self):
        assert rate_for_p(3, 0.4, 1e6) > 0.0

    def test_never_negative(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = int(rng.choice([2, 3, 5, 7, 11, 31]))
            g = float(rng.uniform(0, 1))
            snr = float(10 ** rng.uniform(-1, 12))
            assert rate_for_p(p, g, snr) >= 0.0


class TestTheorem1:
    def test_half_gain_empty_set(self):
        rp = theorem1_rate(0.5, 1e4)
        assert rp.rate == 0.0 and rp.p_star is None and rp.breakdown is None

    def test_rational_gain_saturates(self):
        for snr in (1e2, 1e6, 1e12, 1e20):
            rp = theorem1_rate(Fraction(1, 3), snr)
            assert rp.rate < math.log2(3)

    def test_dof_trend_two_points(self):
        lo = theorem1_rate(SQRT2_OVER_2, 1e4)
        hi = theorem1_rate(SQRT2_OVER_2, 1e12)
        assert 0.0 < hi.rate < 0.5 * math.log2(1 + 1e12)
        ratio_lo = lo.rate / (0.25 * math.log2(1e4))
        ratio_hi = hi.rate / (0.25 * math.log2(1e12))
        assert ratio_hi >= ratio_lo

    def test_matches_brute_force_maximization(self):
        gains = [0.4, SQRT2_OVER_2, 0.49, Fraction(1, 3), Fraction(6, 25)]
        for g in gains:
            for snr in (1e2, 1e4, 1e8):
                best_rate, best_p = 0.0, None
                for p in primes_up_to(101).tolist():
                    r = rate_for_p(int(p), g, snr)
                    if r > best_rate:
                        best_rate, best_p = r, int(p)
                rp = theorem1_rate(g, snr, 101)
                assert rp.rate == pytest.approx(best_rate, abs=1e-9)
                assert rp.p_star == best_p

    def test_breakdown_is_at_p_star(self):
        rp = theorem1_rate(SQRT2_OVER_2, 1e4)
        bd = omega_breakdown(rp.p_star, SQRT2_OVER_2, 1e4)
        assert rp.breakdown.omega_a == pytest.approx(bd.omega_a, rel=1e-9)
        assert rp.breakdown.omega_b == pytest.approx(bd.omega_b, rel=1e-9)

    def test_rejects_nonpositive_snr(self):
        with pytest.raises(ValueError):
            theorem1_rate(0.4, 0.0)


class TestRandomSymCapacity:
    def test_zero_gain(self):
        assert random_sym_capacity(0.0, 123.0) == 0.0

    def test_unit_gain_unit_snr(self):
        assert random_sym_capacity(1.0, 1.0) == pytest.approx(0.25 * math.log2(3))

    def test_sum_constraint_binds_at_high_snr(self):
        snr = 1e12
        assert random_sym_capacity(1.0, snr) == pytest.approx(
            0.25 * math.log2(1 + 2 * snr)
        )


class TestNormalizedRate:
    def test_half_gain_zero(self):
        assert normalized_rate(0.5, 1e4) == 0.0

    def test_zero_gain_zero_by_convention(self):
        assert normalized_rate(0.0, 1e4) == 0.0

    def test_sweep_below_one(self):
        for g in np.arange(0.05, 0.5, 0.05):
            assert normalized_rate(round(float(g), 2), 1e4) <= 1.0


class TestTheorem2:
    def test_symmetric_collapse(self):
        g = SQRT2_OVER_2
        cross = np.array([[0, 1, 2], [3, 0, 1], [2, 2, 0]], dtype=np.int64)
        H = ChannelMatrix(K=3, direct=(g, g, g), cross=cross)
        for snr in (1e4, 1e10):
            rp2 = theorem2_sym_rate(H, snr)
            rp1 = theorem1_rate(g, snr)
            assert rp2.rate == rp1.rate
            assert rp2.p_star == rp1.p_star

    def test_any_half_diagonal_kills_rate(self):
        cross = np.array([[0, 1], [1, 0]], dtype=np.int64)
        H = ChannelMatrix(K=2, direct=(SQRT2_OVER_2, 0.5), cross=cross)
        assert theorem2_sym_rate(H, 1e10).rate == 0.0

    def test_rejects_non_integer_cross(self):
        # a channel with a non-integer cross gain never reaches the rate
        with pytest.raises(ValueError):
            theorem2_sym_rate(ChannelMatrix(K=2, direct=(0.7, 0.7), cross=[[0, 1.5], [2, 0]]), 1e4)

    def test_min_over_receivers(self):
        cross = np.array([[0, 1], [1, 0]], dtype=np.int64)
        g_good, g_poor = SQRT2_OVER_2, 0.49
        both = ChannelMatrix(K=2, direct=(g_good, g_poor), cross=cross)
        snr = 1e10
        r_both = theorem2_sym_rate(both, snr).rate
        assert r_both <= theorem1_rate(g_good, snr).rate
        assert r_both <= max(
            theorem1_rate(g_poor, snr).rate, theorem1_rate(g_good, snr).rate
        )


    def test_repeated_gains_match_per_prime_oracle(self):
        # direct gains repeat; the rate is the max over primes of the
        # smallest per-receiver bound, with delta by direct enumeration
        cross = np.array([[0, 1, 2], [3, 0, 1], [2, 2, 0]], dtype=np.int64)
        g_a, g_b = SQRT2_OVER_2, 0.37
        H = ChannelMatrix(K=3, direct=(g_a, g_b, g_a), cross=cross)
        snr, p_max = 1e7, 200
        rp = theorem2_sym_rate(H, snr, p_max)
        oracle = {int(p): min(rate_for_p(int(p), g_a, snr), rate_for_p(int(p), g_b, snr))
                  for p in primes_up_to(p_max)}
        best = max(oracle.values())
        assert best > 0.0
        assert rp.rate == pytest.approx(best, rel=1e-9)
        assert oracle[rp.p_star] == pytest.approx(best, rel=1e-9)
        binding = min((g_a, g_b), key=lambda g: rate_for_p(rp.p_star, g, snr))
        assert rp.gamma == binding and rp.breakdown.gamma == binding

    @pytest.mark.parametrize("gamma", [SQRT2_OVER_2, Fraction(707, 1000)])
    def test_receiver_tie_goes_to_first_gain(self, gamma):
        # gamma and -gamma share delta and the reduced offset's square at
        # every prime, so both receivers bind at p*
        cross = np.array([[0, 1], [1, 0]], dtype=np.int64)
        snr = 1e8
        a, b = theorem1_rate(gamma, snr), theorem1_rate(-gamma, snr)
        assert (a.p_star, a.rate, a.breakdown.omega_b) == (b.p_star, b.rate, b.breakdown.omega_b)
        for first, second in ((gamma, -gamma), (-gamma, gamma)):
            H = ChannelMatrix(K=2, direct=(first, second), cross=cross)
            rp = theorem2_sym_rate(H, snr)
            assert rp.rate > 0.0
            assert rp.gamma == first and rp.breakdown.gamma == first


# the SNRs of the pruned-search checks: -10 to 300 dB, plus points where only
# part of the primes up to PRIME_SEARCH_CAP is admissible
PRUNE_SNRS_DB = [*range(-10, 301, 10), 15, 17.5, 18.5, 19.5]
PRUNE_P_MAX = (2, 3, 101, PRIME_SEARCH_CAP, None)
# the sweep's gamma grid at offsets 0 and 5/16000, every 41st gamma
SWEEP_GAMMAS = [start + i * 0.001 for start in (0.001, 0.0013125) for i in range(0, 499, 41)]
OTHER_GAMMAS = [
    SQRT2_OVER_2, 0.37, 0.0, 0.5, -0.3, -SQRT2_OVER_2, 1.7, 3.25, 1e308,
    # delta is 0 beyond the denominator, so many primes share one delta
    Fraction(707, 1000), Fraction(1, 3), Fraction(17, 16000), Fraction(355, 113),
    Fraction(-5, 7), Fraction(144, 89), Fraction(1, 2),
]


def power_time_steps():
    with open(ROOT / "bench" / "data" / "h3.txt", encoding="ascii") as fh:
        H = parse_real_matrix_text(fh.read(), K_expected=3)
    return build_schedule(H).steps


class TestPrunedSearch:
    """The pruned prime search against the full-array selection it replaced
    (``oracles.best_prime_oracle``): the whole RatePoint must be equal."""

    @pytest.mark.parametrize("gamma", SWEEP_GAMMAS + OTHER_GAMMAS)
    def test_theorem1_matches_full_scan(self, gamma):
        for snr_db in PRUNE_SNRS_DB:
            snr = db_to_linear(snr_db)
            for p_max in PRUNE_P_MAX:
                want = oracles.best_prime_oracle([gamma], snr, p_max)
                assert theorem1_rate(gamma, snr, p_max) == want, (snr_db, p_max)

    def test_power_time_step_gains_match_full_scan(self):
        steps = power_time_steps()
        assert len(steps) == 12
        for step in steps:
            for snr_db in range(20, 201, 15):
                snr = db_to_linear(snr_db) * step.snr_mult
                want = oracles.best_prime_oracle([step.gamma_eff], snr)
                assert theorem1_rate(step.gamma_eff, snr) == want, (step.label, snr_db)

    @pytest.mark.parametrize(
        "direct",
        [
            (SQRT2_OVER_2, SQRT2_OVER_2, 0.37),
            (0.37, SQRT2_OVER_2, 0.37),
            (SQRT2_OVER_2, -SQRT2_OVER_2, 0.41),
            (-SQRT2_OVER_2, SQRT2_OVER_2, SQRT2_OVER_2),
            (Fraction(707, 1000), 0.37, Fraction(-707, 1000)),
        ],
    )
    def test_theorem2_matches_full_scan(self, direct):
        cross = np.array([[0, 1, 2], [3, 0, 1], [2, 2, 0]], dtype=np.int64)
        H = ChannelMatrix(K=3, direct=direct, cross=cross)
        gains = list(dict.fromkeys(direct))
        for snr_db in PRUNE_SNRS_DB:
            snr = db_to_linear(snr_db)
            for p_max in PRUNE_P_MAX:
                want = oracles.best_prime_oracle(gains, snr, p_max)
                assert theorem2_sym_rate(H, snr, p_max) == want, (snr_db, p_max)

    @pytest.mark.parametrize("gamma", [0.37, -SQRT2_OVER_2, Fraction(707, 1000), 1.7])
    def test_admissible_prefix_matches_full_mask(self, gamma):
        # every SNR in one search, each count against the full mask at its SNR;
        # a prefix of the whole sieve gives the counts of a shorter prime array
        snrs = [db_to_linear(x) for x in [*np.arange(0.0, 30.0, 0.5), *PRUNE_SNRS_DB]]
        interior = 0
        for p_max in (1, 2, 3, 101, PRIME_SEARCH_CAP):
            primes = primes_up_to(p_max)
            count, agrees = admissible_prefix(primes, gamma, snrs)
            assert agrees.all()
            whole = admissible_prefix(primes_up_to(PRIME_SEARCH_CAP), gamma, snrs, primes.size)
            assert np.array_equal(whole[0], count) and whole[1].all()
            for snr, n in zip(snrs, count.tolist()):
                mask = diophantine.admissible_mask(primes, gamma, snr)
                assert mask[:n].all() and not mask[n:].any()
                interior += 0 < n < primes.size
        assert interior > 10

    @pytest.mark.parametrize("admitted", ["fewer", "more", "gap"])
    def test_mask_overrides_bisection(self, monkeypatch, admitted):
        # a mask that disagrees with the search at the boundary of one (gain,
        # SNR) decides there; the search, its fallback and the full scan all use it
        real = diophantine.admissible_mask
        primes = primes_up_to(PRIME_SEARCH_CAP)
        gamma = 0.37
        if admitted == "fewer":
            snr = db_to_linear(120)

            def change(ps, admits):
                return admits & (ps < 50)
        elif admitted == "gap":
            # one more prime at the boundary and none at the winner: the
            # admissible primes are no prefix, so that row searches them alone
            snr = db_to_linear(18.5)
            k = int(np.count_nonzero(real(primes, gamma, snr)))
            winner = theorem1_rate(gamma, snr, PRIME_SEARCH_CAP).p_star

            def change(ps, admits):
                return (admits & (ps != winner)) | (ps == primes[k])
        else:
            snr = db_to_linear(18.5)
            k = int(np.count_nonzero(real(primes, gamma, snr)))

            def change(ps, admits):
                return admits | (ps <= primes[k])

        def fake(ps, g, s):
            ps, admits = np.asarray(ps), real(ps, g, s)
            at = np.array([x == gamma for x in g] if isinstance(g, list) else g == gamma)
            return np.where(at & (np.asarray(s) == snr), change(ps, admits), admits)

        for module in (diophantine, rates, oracles):
            monkeypatch.setattr(module, "admissible_mask", fake)
        assert not admissible_prefix(primes, gamma, snr)[1]
        got = theorem1_rate(gamma, snr, PRIME_SEARCH_CAP)
        assert got == oracles.best_prime_oracle([gamma], snr, PRIME_SEARCH_CAP)
        if admitted == "fewer":
            assert 0 < got.p_star < 50
        if admitted == "gap":
            assert got.p_star not in (None, winner)
            # the gap row between rows of other gains and SNRs, in one batch
            rows = [
                ((SQRT2_OVER_2,), db_to_linear(40)),
                ((gamma,), snr),
                ((Fraction(707, 1000), 0.41, Fraction(707, 1000)), snr),
                ((gamma,), db_to_linear(60)),
            ]
            want = [oracles.best_prime_oracle(list(g), x, PRIME_SEARCH_CAP) for g, x in rows]
            assert _best_primes(rows, PRIME_SEARCH_CAP) == want
            assert want[1] == got

    @pytest.mark.parametrize("p_max", [3, 101, None])
    @pytest.mark.filterwarnings("ignore:invalid value encountered in multiply")
    def test_zero_delta_at_overflowing_snr_scores_zero(self, p_max):
        # past 3080 dB, 1.5 * SNR overflows and delta = 0 gives a NaN
        # omega_a; those primes score 0 (omega_b = inf), as in exact arithmetic
        snr = db_to_linear(3081)
        got = theorem1_rate(0.25, snr, p_max)
        assert got.p_star == 3
        assert got.rate == rate_for_p(3, 0.25, snr) > 0.0
        assert got.breakdown == omega_breakdown(3, 0.25, snr)


# plain floats, and gains whose delta steps are long: floats near 0 and 1/2,
# and fractions (delta is 0 past the denominator)
SEARCH_GAINS = st.one_of(
    st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
    st.builds(lambda c, d: c + d, st.sampled_from([0.0, 0.5, -0.5]), st.floats(-1e-6, 1e-6)),
    st.fractions(min_value=-1, max_value=1, max_denominator=10**5),
)
SEARCH_SNRS = st.floats(0.0, 250.0).map(db_to_linear)
SEARCH_P_MAX = st.sampled_from([None, PRIME_SEARCH_CAP])


class TestSinglePassSearch:
    """Random gains, SNRs and bounds: the search against the full scan of
    ``oracles.best_prime_oracle``, whole RatePoints."""

    @given(SEARCH_GAINS, SEARCH_SNRS, SEARCH_P_MAX)
    def test_theorem1_matches_full_scan(self, gamma, snr, p_max):
        assert theorem1_rate(gamma, snr, p_max) == oracles.best_prime_oracle([gamma], snr, p_max)

    @given(st.lists(SEARCH_GAINS, min_size=2, max_size=4), SEARCH_SNRS, SEARCH_P_MAX)
    def test_theorem2_matches_full_scan(self, direct, snr, p_max):
        K = len(direct)
        H = ChannelMatrix(K=K, direct=tuple(direct), cross=1 - np.eye(K, dtype=np.int64))
        want = oracles.best_prime_oracle(list(dict.fromkeys(direct)), snr, p_max)
        assert theorem2_sym_rate(H, snr, p_max) == want


# 0 dB (no admissible prime), 18.5 dB (few), and SNRs past which 1.5 * SNR
# and then 3 * SNR overflow
GRID_SNRS = st.one_of(st.sampled_from([1.0, db_to_linear(18.5), 1.2e308, 1.7e308]), SEARCH_SNRS)


# one gain (a float or a Fraction), a list with a repeated gain, and the
# distinct direct gains of a multi-gain ChannelMatrix
MULTI_GAINS = tuple(dict.fromkeys(ChannelMatrix(
    K=4,
    direct=(SQRT2_OVER_2, 0.37, Fraction(-707, 1000), 0.37),
    cross=1 - np.eye(4, dtype=np.int64),
).direct))
GAIN_LISTS = st.one_of(
    SEARCH_GAINS.map(lambda g: (g,)),
    st.lists(SEARCH_GAINS, min_size=1, max_size=2).map(lambda gs: (*gs, gs[0])),
    st.just(MULTI_GAINS),
)
# 0 dB, 18.5 dB, 3081 dB (1.5 * SNR overflows) and 1.2e308 among random SNRs
BATCH_SNRS = st.one_of(
    st.sampled_from([1.0, db_to_linear(18.5), db_to_linear(3081), 1.2e308]), SEARCH_SNRS
)


class TestGridSearch:
    """One search over a whole batch of rows against the one-row full scan of
    ``oracles.best_prime_oracle`` at each row, whole RatePoints."""

    @given(
        st.lists(SEARCH_GAINS, min_size=1, max_size=3),
        # mirrored: every grid has duplicate and descending SNRs
        st.lists(GRID_SNRS, min_size=1, max_size=4).map(lambda xs: xs + xs[::-1]),
        st.sampled_from([None, 101, PRIME_SEARCH_CAP]),
    )
    def test_matches_full_scan_at_every_snr(self, gains, snrs, p_max):
        want = [oracles.best_prime_oracle(gains, snr, p_max) for snr in snrs]
        assert _best_primes([(gains, snr) for snr in snrs], p_max) == want
        if len(gains) == 1:
            assert theorem1_rates(gains[0], iter(snrs), p_max) == want

    @given(
        # mirrored: every batch has duplicate and descending rows
        st.lists(st.tuples(GAIN_LISTS, BATCH_SNRS), min_size=1, max_size=5).map(
            lambda rows: rows + rows[::-1]
        ),
        st.sampled_from([None, 101, PRIME_SEARCH_CAP]),
    )
    def test_rows_of_several_gain_lists_match_full_scan(self, rows, p_max):
        want = [oracles.best_prime_oracle(list(gains), snr, p_max) for gains, snr in rows]
        assert _best_primes(rows, p_max) == want

    def test_memory_flat_for_a_sweep_shaped_batch(self):
        # 499 gains x 21 SNRs, as `lia sweep` asks, in one search: the kept
        # primes (about 300,000) are evaluated in chunks of a fixed size, so the
        # peak stays within the margin below of one gain's (about 5 MB more);
        # in one batch they took about 37 MB more
        snrs = [db_to_linear(x) for x in range(0, 201, 10)]

        def peak(gains):
            rows = [((g,), snr) for g in gains for snr in snrs]
            tracemalloc.start()
            try:
                points = _best_primes(rows, None)
                return tracemalloc.get_traced_memory()[1], points
            finally:
                tracemalloc.stop()

        small, _ = peak([0.3])
        big, points = peak((np.arange(499) + 1) / 1000)
        assert len(points) == 499 * 21 and points[-1].p_star is not None
        assert big - small < 20e6

    def test_memory_flat_in_grid_length(self):
        # the omega terms run in chunks of a fixed number of primes, so a
        # grid 100 times longer adds only its own points (about 7 MB) and
        # one chunk's arrays; in one batch it would take about 120 MB more
        gains = list(dict.fromkeys(load_channel_file(bundled_channel_path()).direct))

        def peak(count):
            snrs = [db_to_linear(x) for x in np.linspace(0.0, 200.0, count)]
            tracemalloc.start()
            try:
                points = _best_primes([(gains, snr) for snr in snrs], None)
                return tracemalloc.get_traced_memory()[1], points
            finally:
                tracemalloc.stop()

        small, _ = peak(201)
        big, points = peak(20_001)
        assert len(points) == 20_001 and points[-1].p_star is not None
        assert big - small < 20e6


class TestBaselines:
    def test_time_sharing_values(self):
        assert time_sharing_sum_rate(3, 0.0) == 0.0
        assert time_sharing_sum_rate(5, 3.0) == pytest.approx(1.0)
        assert time_sharing_sum_rate(2, 15.0) == pytest.approx(2.0)

    def test_dof_benchmark_values(self):
        assert dof_benchmark(5, 0.0, 3.0) == pytest.approx(2.5)
        assert dof_benchmark(2, 0.0, 0.0) == 0.0
        h = SQRT2_OVER_2
        assert dof_benchmark(5, h, 1e4) == pytest.approx(
            2.5 * 0.5 * math.log2(1 + 1.5 * 1e4)
        )

    @pytest.mark.parametrize("h", [1.3e153, 1.4e153, 1e200, -1e200])
    def test_dof_benchmark_finite_when_the_power_overflows(self, h):
        # (1 + h^2) * 100 overflows from |h| of about 1.34e153 on
        expected = 0.5 * (math.log2(100.0) + 2.0 * math.log2(abs(h)))
        assert dof_benchmark(2, h, 100.0) == pytest.approx(expected, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            time_sharing_sum_rate(0, 1.0)
        with pytest.raises(ValueError):
            dof_benchmark(0, 0.3, 1.0)


class TestDofRatioScan:
    def test_irrational_gain_trend(self):
        grid = [1e4, 1e8, 1e12]
        scan = [dof_ratio(SQRT2_OVER_2, snr) for snr in grid]
        ratios = [r for _, r in scan]
        # the reported rate is theorem1_rate at the default prime bound
        for snr, (rate, ratio) in zip(grid, scan):
            assert rate == theorem1_rate(SQRT2_OVER_2, snr, default_p_max(snr)).rate
            assert ratio == rate / (0.25 * math.log2(snr))
        assert all(b >= a for a, b in zip(ratios, ratios[1:]))
        rate = theorem1_rate(SQRT2_OVER_2, 1e8, 101).rate
        assert dof_ratio(SQRT2_OVER_2, 1e8, 101) == (rate, rate / (0.25 * math.log2(1e8)))

    def test_rational_gain_ratio_vanishes(self):
        assert dof_ratio(Fraction(1, 3), 1e20)[1] < 0.1  # rate capped at log2(3), denominator grows

    def test_below_threshold_zero(self):
        assert dof_ratio(SQRT2_OVER_2, 1.0) == (0.0, 0.0)
        assert dof_ratio(SQRT2_OVER_2, 4.0) == (0.0, 0.0)


class TestDependentMessageProb:
    def test_exact_values(self):
        assert dependent_message_prob(3, 2) == Fraction(11, 27)
        assert dependent_message_prob(2, 1) == 1
        assert dependent_message_prob(5, 6) < Fraction(1, 1000)

    def test_matches_exhaustive_enumeration(self):
        for p in (2, 3, 5):
            for k in (1, 2, 3):
                assert dependent_message_prob(p, k) == brute_dependent_prob(p, k)

    def test_validation(self):
        with pytest.raises(ValueError):
            dependent_message_prob(4, 2)
        with pytest.raises(ValueError):
            dependent_message_prob(3, 0)


class TestSaturationSweep:
    def test_reduced_fractions_stay_below_log_q(self):
        # subset of the q <= 50 family; the acceptance suite runs the
        # spec-pinned gains over the full 0..200 dB sweep
        for q in (3, 7, 12, 20):
            for r in range(1, q):
                g = Fraction(r, q)
                if g.denominator != q:
                    continue
                for snr in (1e2, 1e6, 1e12, 1e20):
                    assert theorem1_rate(g, snr).rate < math.log2(q)


class TestHelpers:
    def test_db_to_linear(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(20.0) == pytest.approx(100.0)

    def test_db_to_linear_rejects_overflow_and_nonfinite(self):
        with pytest.raises(ValueError):
            db_to_linear(4000.0)
        with pytest.raises(ValueError):
            db_to_linear(math.inf)

    def test_nonfinite_snr_rejected(self):
        with pytest.raises(ValueError):
            theorem1_rate(0.4, math.inf)
        with pytest.raises(ValueError):
            default_p_max(math.nan)

    def test_default_p_max_rule(self):
        assert default_p_max(1.0) == 101
        assert default_p_max(1e4) == 101
        assert default_p_max(1e8) == 10_000
        assert default_p_max(1e20) == 100_000
