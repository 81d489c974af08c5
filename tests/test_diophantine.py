import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lia import diophantine
from lia.diophantine import (
    PRIME_SEARCH_CAP,
    admissible_mask,
    best_rational_oracle,
    delta,
    delta_for_primes,
    is_prime,
    mod_quarter_interval,
    parse_gain,
    primes_up_to,
)

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23]


def brute_delta(p, gamma):
    """Independent pure-python enumeration used as the local oracle."""
    best = None
    for l in range(1, p):
        v = l * gamma
        err = abs(v - round(v))
        if best is None or err < best:
            best = err
    return best


class TestParseGain:
    def test_decimal_is_float(self):
        g = parse_gain("0.707")
        assert isinstance(g, float) and g == 0.707

    def test_fraction_is_exact(self):
        g = parse_gain("707/1000")
        assert g == Fraction(707, 1000)

    def test_integer_text_is_float(self):
        assert parse_gain("2") == 2.0 and isinstance(parse_gain("2"), float)

    def test_negative_fraction(self):
        assert parse_gain("-2/5") == Fraction(-2, 5)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_gain("abc")
        with pytest.raises(ValueError):
            parse_gain("inf")

    @pytest.mark.parametrize("text", ["1" + "0" * 400 + "/1", "-1" + "0" * 400 + "/3"])
    def test_rejects_a_fraction_whose_float_overflows(self, text):
        with pytest.raises(ValueError, match="gain must be finite"):
            parse_gain(text)


class TestPrimes:
    def test_edges(self):
        assert primes_up_to(1).tolist() == []
        assert primes_up_to(2).tolist() == [2]

    def test_textbook_lists(self):
        assert primes_up_to(10).tolist() == [2, 3, 5, 7]
        assert primes_up_to(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_is_prime_scan(self):
        marked = set(primes_up_to(500).tolist())
        for n in range(500 + 1):
            assert is_prime(n) == (n in marked)

    def test_every_limit_slices_one_sieve(self):
        full = primes_up_to(PRIME_SEARCH_CAP)
        assert full[-1] == 99991 and full.size == 9592
        for limit in (2, 101, 1000, 99990):
            part = primes_up_to(limit)
            assert np.shares_memory(part, full) and not part.flags.writeable
            assert part.tolist() == full[full <= limit].tolist()

    @pytest.mark.parametrize("limit", [PRIME_SEARCH_CAP + 1, 10**11])
    def test_limit_above_the_cap_refused(self, limit):
        with pytest.raises(ValueError, match="cap"):
            primes_up_to(limit)


class TestDelta:
    def test_integer_gain_is_zero(self):
        assert delta(7, 2.0) == 0.0

    def test_hand_value(self):
        assert delta(3, 0.4) == pytest.approx(0.2, abs=1e-12)

    def test_small_denominator_fraction_annihilates(self):
        assert delta(5, Fraction(1, 3)) == 0

    def test_sqrt2_over_2(self):
        g = math.sqrt(2) / 2
        assert delta(5, g) == pytest.approx(brute_delta(5, g), abs=1e-15)
        assert delta(5, g) == pytest.approx(0.121320344, abs=1e-9)

    def test_rejects_non_prime(self):
        with pytest.raises(ValueError):
            delta(4, 0.3)

    @given(st.floats(-10, 10, allow_nan=False), st.sampled_from(SMALL_PRIMES))
    def test_range(self, g, p):
        d = delta(p, g)
        assert 0.0 <= d <= 0.5

    @given(
        st.floats(-0.5, 0.5, allow_nan=False),
        st.integers(min_value=-5, max_value=5),
        st.sampled_from(SMALL_PRIMES),
    )
    def test_shift_invariance(self, g, m, p):
        assert delta(p, g + m) == pytest.approx(delta(p, g), abs=1e-9)

    @given(st.floats(-3, 3, allow_nan=False), st.sampled_from(SMALL_PRIMES))
    def test_sign_symmetry(self, g, p):
        assert delta(p, -g) == pytest.approx(delta(p, g), abs=1e-12)

    @given(st.floats(0, 0.5, allow_nan=False))
    def test_monotone_in_p(self, g):
        values = [delta(p, g) for p in SMALL_PRIMES]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("g", [1e308, -3.0 * 2.0**1000, 2.0**40 + 0.1, 1.7])
    def test_huge_float_gain_reduces_exactly(self, g):
        # l * g would overflow or drop the fractional part; delta is 1-periodic
        for p in (3, 5, 11):
            assert delta(p, g) == pytest.approx(float(delta(p, Fraction(g))), abs=1e-15)
        # not 1/2-periodic: only the reduction mod 1 is exact
        assert delta(3, 0.1) == pytest.approx(0.1) and delta(3, 0.6) == pytest.approx(0.2)

    def test_rational_annihilation_exact(self):
        # exact-path iff statement: delta(p, r/q) == 0 exactly when p > q
        rng = np.random.default_rng(5)
        primes = primes_up_to(60).tolist()
        for _ in range(50):
            q = int(rng.integers(2, 51))
            r = int(rng.integers(1, q))
            g = Fraction(r, q)
            for p in primes:
                d = delta(p, g)
                assert (d == 0) == (p > g.denominator)


class TestOracle:
    def test_hand_cases(self):
        frac, err = best_rational_oracle(0.4, 3)
        assert frac == Fraction(1, 2)
        assert err == pytest.approx(0.2, abs=1e-12)

        frac, err = best_rational_oracle(2.0, 7)
        assert frac == Fraction(2, 1)
        assert err == 0.0

        frac, err = best_rational_oracle(math.sqrt(2) / 2, 5)
        assert frac == Fraction(2, 3)
        assert err == pytest.approx(0.121320344, abs=1e-9)

    def test_matches_enumeration_on_sample(self):
        rng = np.random.default_rng(11)
        primes = primes_up_to(101).tolist()
        for g in rng.uniform(0.0, 0.5, size=100):
            for p in primes:
                _, err = best_rational_oracle(g, p)
                assert abs(err - delta(p, g)) < 1e-12

    def test_exact_fraction_path(self):
        frac, err = best_rational_oracle(Fraction(707, 1000), 1009)
        assert frac == Fraction(707, 1000) and err == 0.0

    def test_half_tie_reports_away_from_zero(self):
        frac, err = best_rational_oracle(2.5, 2)
        assert err == pytest.approx(0.5)
        assert frac == Fraction(3, 1)


def test_staircase_matches_enumeration():
    primes = primes_up_to(101)
    gammas = [0.4, 0.49, math.sqrt(2) / 2, 0.24, Fraction(6, 25), Fraction(707, 1000)]
    for g in gammas:
        stair = delta_for_primes(g, primes)
        for p, d in zip(primes.tolist(), stair):
            assert abs(d - float(delta(p, g))) < 1e-12


@given(
    st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([5e-324, -5e-324, 1e308, -1e308, 2.0**-1022, 1 - 2.0**-53]),
        st.fractions(),
        st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**40)),
    )
)
def test_staircase_errors_match_fraction_arithmetic(g):
    # the staircase takes each convergent's error in ints; it must keep every
    # bit of float(|q*x - h|) in exact Fraction arithmetic, on both paths
    x = g if isinstance(g, Fraction) else Fraction(g)
    cap = diophantine._DENOMINATOR_CAP  # q is nondecreasing: a filter is the cut
    want = [float(abs(q * x - h)) for h, q in diophantine._convergents(x) if q <= cap]
    assert diophantine._approx_staircase.__wrapped__(g)[1].tolist() == want


@given(st.floats(-2, 2, allow_nan=False))
def test_staircase_matches_enumeration_random(g):
    primes = primes_up_to(53)
    stair = delta_for_primes(g, primes)
    for p, d in zip(primes.tolist(), stair):
        assert abs(d - delta(p, g)) < 1e-12


class TestAdmissibility:
    def test_half_gain_never_admissible(self):
        for gain in (0.5, Fraction(1, 2)):
            for snr in (1.0, 1e2, 1e6, 1e12):
                assert not admissible_mask(primes_up_to(101), gain, snr).any()

    def test_hand_case(self):
        assert admissible_mask(primes_up_to(3), 0.4, 100.0).tolist() == [True, True]

    def test_vanishing_snr_empty(self):
        assert not admissible_mask(primes_up_to(101), 0.4, 1e-9).any()

    def test_mask_matches_scalar_condition(self):
        # at 1.7e308, 1.5 * SNR overflows to inf: every prime passes but at a
        # gain of 1/2, whose offset 0 makes the exponent NaN
        primes = primes_up_to(50)
        for g, snr in ((0.37, 250.0), (0.37, 1.7e308), (0.5, 1.7e308)):
            off = float(mod_quarter_interval(g))
            mask = admissible_mask(primes, g, snr)
            for p, ok in zip(primes.tolist(), mask):
                lhs = math.exp(-(1.5 * snr / p**2) * off * off)  # inf * 0 is NaN
                rhs = 1.0 - 2.0 * p * math.exp(-0.375 * snr)
                assert ok == (lhs < rhs)
            assert mask.any() == (g != 0.5)


class TestQuarterReduction:
    def test_values(self):
        assert mod_quarter_interval(0.5) == 0.0
        assert mod_quarter_interval(0.4) == pytest.approx(-0.1, abs=1e-15)
        assert mod_quarter_interval(Fraction(1, 3)) == Fraction(-1, 6)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_float_path_is_the_exact_reduction(self, g):
        assert mod_quarter_interval(g) == float(mod_quarter_interval(Fraction(g)))

    @pytest.mark.parametrize(
        "g",
        [
            1.7976931348623157e308, -1.7976931348623157e308, 1e308, -1e308,
            2.0**60 + 2.0**8, 2.0**50 + 0.25, -(2.0**50 + 0.75),
            math.nextafter(0.25, 0.0), math.nextafter(-0.25, 0.0), 5e-324,
        ],
    )
    def test_huge_and_boundary_floats(self, g):
        # 2 * g overflows for the largest; just below 1/4, 2 * g + 1/2 rounds
        # up to 1, so a floor-based reduction returned -1/4
        r = mod_quarter_interval(g)
        assert -0.25 <= r < 0.25
        assert r == float(mod_quarter_interval(Fraction(g)))

    @given(st.floats(-4, 4, allow_nan=False))
    def test_range_and_period(self, g):
        r = mod_quarter_interval(g)
        assert -0.25 <= r < 0.25
        assert mod_quarter_interval(g + 0.5) == pytest.approx(r, abs=1e-9)
