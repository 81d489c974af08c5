import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2

from lia import codes
from lia.codes import (
    ENTRIES_CAP,
    Codebook,
    Codeword,
    LinearCode,
    encode,
    messages_dependent,
    sample_code,
)
from lia.modarith import L, mod_interval


class TestSampleCode:
    def test_deterministic_in_seed(self):
        a = sample_code(3, 4, 2, seed=9)
        b = sample_code(3, 4, 2, seed=9)
        assert np.array_equal(a.generator, b.generator)

    def test_shape_and_range(self):
        code = sample_code(3, 4, 2, seed=1)
        assert code.generator.shape == (2, 4)
        assert code.generator.min() >= 0 and code.generator.max() <= 2

    def test_rejects_k_above_n(self):
        with pytest.raises(ValueError):
            sample_code(3, 2, 3, seed=0)

    def test_rejects_composite_p(self):
        with pytest.raises(ValueError):
            sample_code(9, 4, 2, seed=0)

    def test_rate(self):
        code = sample_code(5, 10, 2, seed=0)
        assert code.rate == pytest.approx(2 * math.log2(5) / 10)

    def test_entry_histogram_uniform(self):
        # 1e5 entries across many draws; each symbol count within 3 sigma
        p, total = 3, 100_000
        counts = np.zeros(p, dtype=int)
        for s in range(100):
            g = sample_code(p, 50, 20, seed=s).generator
            counts += np.bincount(g.ravel(), minlength=p)
        expect = total / p
        sigma = math.sqrt(total * (1 / p) * (1 - 1 / p))
        assert np.all(np.abs(counts - expect) < 3 * sigma)


class TestEncode:
    def test_zero_message_zero_codeword(self):
        code = sample_code(5, 6, 2, seed=4)
        cw = encode(code, [0, 0])
        assert np.array_equal(cw.residues, np.zeros(6, dtype=np.int64))
        assert np.all(cw.reals == 0.0)

    def test_hand_example(self):
        code = LinearCode(p=3, n=2, k=1, generator=np.array([[2, 1]]))
        cw = encode(code, [1])
        assert cw.residues.tolist() == [2, 1]
        # 2L/3 wraps to -L/3
        assert cw.reals == pytest.approx([-L / 3, L / 3])
        assert cw.reals[0] == pytest.approx(-1.154701, abs=1e-6)

    def test_linearity_identity_exact(self):
        code = sample_code(7, 12, 3, seed=2)
        rng = np.random.default_rng(0)
        for _ in range(300):
            w1 = rng.integers(0, 7, size=3)
            w2 = rng.integers(0, 7, size=3)
            lhs = (encode(code, w1).residues + encode(code, w2).residues) % 7
            rhs = encode(code, (w1 + w2) % 7).residues
            assert np.array_equal(lhs, rhs)

    def test_dimension_mismatch(self):
        code = sample_code(3, 4, 2, seed=0)
        with pytest.raises(ValueError):
            encode(code, [1, 2, 0])

    def test_rejects_out_of_range_entries(self):
        code = sample_code(3, 4, 2, seed=0)
        with pytest.raises(ValueError):
            encode(code, [3, 0])


class TestAllCodewords:
    """Codebook enumerates every codeword of a code."""

    def test_counts(self):
        assert len(Codebook(sample_code(3, 4, 2, seed=0))) == 9
        assert len(Codebook(sample_code(5, 4, 2, seed=0))) == 25

    def test_first_entry_zero_lexicographic(self):
        book = Codebook(sample_code(3, 4, 2, seed=0))
        assert book.messages[0].tolist() == [0, 0]
        assert book.messages[1].tolist() == [0, 1]
        assert not book.residues[0].any()

    def test_cap_enforced(self):
        code = sample_code(5, 8, 5, seed=0)  # 5**5 = 3125 > 3000
        with pytest.raises(ValueError, match="enumeration cap"):
            Codebook(code)


def _linearity_failures(book, residues, p):
    """Message pairs (a, b) whose residues do not add up to those of a + b."""
    sums = (book.messages[:, None, :] + book.messages[None, :, :]) % p
    lhs = (residues[:, None, :] + residues[None, :, :]) % p
    return int(np.count_nonzero(np.any(lhs != residues[book.rows(sums)], axis=-1)))


def _real_linearity_failures(book, reals, p):
    """Message pairs (a, b) whose real forms in ``reals``, added and reduced
    into the interval, miss the codebook's real form of a + b by 1e-12 or more."""
    sums = (book.messages[:, None, :] + book.messages[None, :, :]) % p
    lhs = mod_interval(reals[:, None, :] + reals[None, :, :])
    return int(np.count_nonzero(np.abs(lhs - book.reals[book.rows(sums)]).max(axis=-1) >= 1e-12))


class TestCodebook:
    @pytest.mark.parametrize("p, k", [(2, 4), (3, 2), (5, 2), (7, 3)])
    def test_rows_invert_the_enumeration(self, p, k):
        book = Codebook(sample_code(p, 5, k, seed=p * k))
        assert np.array_equal(book.rows(book.messages), np.arange(p**k))
        assert len(book) == p**k
        # row i spells i in base p, most significant digit first
        for i in (0, 1, p, p**k - 1):
            assert int("".join(map(str, book.messages[i])), p) == i

    @pytest.mark.parametrize("p, k", [(3, 2), (5, 3)])
    def test_codewords_match_encode(self, p, k):
        code = sample_code(p, 6, k, seed=4)
        book = Codebook(code)
        for w, residues, reals in zip(book.messages, book.residues, book.reals):
            assert encode(code, w) == Codeword(residues, p)
            assert np.array_equal(encode(code, w).reals, reals)

    @pytest.mark.parametrize("p, k", [(2, 4), (3, 2), (5, 2), (7, 3)])
    def test_exhaustive_linearity(self, p, k):
        book = Codebook(sample_code(p, 6, k, seed=11))
        assert _linearity_failures(book, book.residues, p) == 0
        # negative control: one corrupted residue breaks the identity
        corrupted = book.residues.copy()
        corrupted[1, 0] = (corrupted[1, 0] + 1) % p
        assert _linearity_failures(book, corrupted, p) > 0

    def test_entries_capped_before_build(self):
        # 2**11 messages x 2049 components: more than 2**22 entries, although
        # the generator is small and the message count is under the cap
        code = sample_code(2, 2049, 11, seed=0)
        assert 2**11 * 2049 > ENTRIES_CAP
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="entries"):
                Codebook(code)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestCodeSize:
    def test_huge_p_refused_before_the_primality_test(self, monkeypatch):
        def no_primality_test(p):
            raise AssertionError(f"is_prime({p}) called")

        monkeypatch.setattr(codes, "is_prime", no_primality_test)
        p = 1_000_000_000_000_000_003
        with pytest.raises(ValueError, match="int64"):
            sample_code(p, 4, 2, seed=0)
        with pytest.raises(ValueError, match="int64"):
            LinearCode(p=p, n=4, k=2, generator=np.zeros((2, 4), dtype=np.int64))

    def test_long_code_refused_before_drawing(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="entries"):
                sample_code(5, 10**9, 1, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_p_bound_is_exact_int64_encoding(self):
        # k (p-1)**2 < 2**63 keeps w^T G exact in int64: for k = 2 the
        # largest prime allowed is 2**31 - 1, and the next prime is refused
        with pytest.raises(ValueError, match="int64"):
            sample_code(2147483659, 3, 2, seed=0)
        p = 2147483647
        code = sample_code(p, 3, 2, seed=0)
        w = np.array([p - 1, p - 1])
        want = [(int(w[0]) * int(a) + int(w[1]) * int(b)) % p for a, b in code.generator.T]
        assert encode(code, w).residues.tolist() == want


class TestMessagesDependent:
    def test_cases(self):
        assert messages_dependent([0, 0], [1, 2], 3)
        assert messages_dependent([1, 2], [0, 0], 3)
        assert messages_dependent([1, 2], [2, 4 % 3], 3)  # 2*(1,2) mod 3
        assert not messages_dependent([1, 0], [0, 1], 3)
        assert not messages_dependent([1, 2], [1, 3], 5)

    def test_matches_definition_exhaustively(self):
        p, k = 3, 2
        vectors = [np.array(v) for v in np.ndindex(p, p)]
        coeffs = [(a, b) for a in range(p) for b in range(p) if (a, b) != (0, 0)]
        for w1 in vectors:
            for w2 in vectors:
                expected = any(
                    np.all((a * w1 + b * w2) % p == 0) for a, b in coeffs
                )
                assert messages_dependent(w1, w2, p) == expected


class TestCheckLinearity:
    """[f(w1) + f(w2)]* = f((w1 + w2) mod p) over every message pair, exactly
    on residues and to 1e-12 on real forms."""

    def test_passes_by_construction(self):
        book = Codebook(sample_code(5, 10, 2, seed=8))
        assert _linearity_failures(book, book.residues, 5) == 0
        assert _real_linearity_failures(book, book.reals, 5) == 0

    def test_holds_across_the_ensemble(self):
        # every message pair on each of 20 independently sampled codes
        for seed in range(20):
            book = Codebook(sample_code(3, 12, 2, seed=seed))
            assert _linearity_failures(book, book.residues, 3) == 0
            assert _real_linearity_failures(book, book.reals, 3) == 0

    def test_corrupted_table_fails(self):
        # real forms of a different generator on the left-hand side
        book = Codebook(sample_code(3, 6, 2, seed=8))
        corrupted = Codebook(sample_code(3, 6, 2, seed=9))
        assert _real_linearity_failures(book, corrupted.reals, 3) > 0


class TestEnsembleStatistics:
    def test_power_constraint(self):
        # average per-symbol power over 1e4 nonzero codewords near (p^2-1)/p^2
        p, n, k = 3, 16, 2
        rng = np.random.default_rng(12)
        powers = []
        for s in range(10_000):
            code = sample_code(p, n, k, seed=s)
            w = rng.integers(0, p, size=k)
            while not w.any():
                w = rng.integers(0, p, size=k)
            x = encode(code, w).reals
            powers.append(np.dot(x, x) / n)
        target = (L**2 / 12) * (p**2 - 1) / p**2
        assert target <= 1.0
        assert np.mean(powers) == pytest.approx(target, rel=0.02)

    def test_component_uniformity_chi_square(self):
        # fixed nonzero message, 1e4 sampled generators: components uniform
        p, n, k = 3, 8, 2
        w = np.array([1, 2])
        counts = np.zeros(p, dtype=int)
        for s in range(10_000):
            counts += np.bincount(
                encode(sample_code(p, n, k, seed=s), w).residues, minlength=p
            )
        total = counts.sum()
        expected = total / p
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < chi2.ppf(0.99, df=p - 1)


def test_codeword_grid_point_access():
    cw = Codeword([0, 2, 1], 3)
    assert len(cw) == 3
    assert cw.residues[1] == 2
    assert cw.reals[1] == pytest.approx(mod_interval(2 * L / 3))
