"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion (names carry the criterion number); each test also prints an
explicit PASS line with the measured numbers when run with ``-s``.
"""

import math
import shlex
import time
from fractions import Fraction

import numpy as np
import pytest

import lia
from lia.cli import main
from lia.diophantine import primes_up_to
from lia.network import bundled_channel_path
from lia.rates import db_to_linear

SQRT2_OVER_2 = math.sqrt(2) / 2

# regression anchors, recorded after the first computation
DOF_RATIO_ANCHORS = {
    40: 0.581459,
    80: 0.751931,
    120: 0.855602,
    160: 0.862581,
    200: 0.907050,
}
POWER_TIME_FACTOR_200DB = 0.992691

GENERIC_3X3 = np.array(
    [
        [math.sqrt(2), math.sqrt(3) / 2, math.sqrt(5)],
        [math.sqrt(7), math.sqrt(11) / 2, math.sqrt(13) / 3],
        [math.sqrt(17) / 4, math.sqrt(19), math.sqrt(23) / 3],
    ]
)


def test_criterion_01_delta_oracle_equivalence():
    """1000 uniform gains in (0, 1/2) x all primes <= 101: enumeration and
    continued-fraction oracle agree within 1e-12, in under 10 seconds."""
    start = time.monotonic()
    rng = np.random.default_rng(20240901)
    primes = [int(p) for p in primes_up_to(101)]
    worst = 0.0
    for g in rng.uniform(0.0, 0.5, size=1000):
        g = float(g)
        for p in primes:
            d = lia.delta(p, g)
            _, err = lia.best_rational_oracle(g, p)
            worst = max(worst, abs(d - err))
            assert abs(d - err) < 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"criterion 1 PASS: max |delta - oracle| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_rational_saturation():
    """For gamma in {1/3, 6/25, 707/1000} and 0..200 dB in 1 dB steps, the
    achievable rate stays strictly below log2(q) (exact inequality)."""
    start = time.monotonic()
    for g in (Fraction(1, 3), Fraction(6, 25), Fraction(707, 1000)):
        cap = math.log2(g.denominator)
        for db in range(0, 201):
            rate = lia.theorem1_rate(g, db_to_linear(db)).rate
            assert rate < cap
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"criterion 2 PASS: 3 gains x 201 dB points strictly below log2(q), {elapsed:.1f}s")


def test_criterion_03_degradedness_and_dips():
    """Normalized rate <= 1 on the full grid; at 100-120 dB the small
    denominator rationals (0.20, 0.25) dip strictly below their +-0.01 grid
    neighbors and a near-half probe sits below the 0.45 grid value.  The
    dip checks formalize the qualitative figure shape; exact figure values
    are not reproduced."""
    gammas = [round(i / 100, 2) for i in range(1, 50)]
    snr_dbs = [20, 30, 40, 100, 110, 120]
    for g in gammas:
        for db in snr_dbs:
            assert lia.normalized_rate(g, db_to_linear(db)) <= 1.0
    for db in (100, 110, 120):
        snr = db_to_linear(db)
        r = {g: lia.normalized_rate(g, snr) for g in (0.19, 0.20, 0.21, 0.24, 0.25, 0.26, 0.45)}
        assert r[0.25] < r[0.24] and r[0.25] < r[0.26]
        assert r[0.20] < r[0.19] and r[0.20] < r[0.21]
        assert lia.normalized_rate(0.49999, snr) < r[0.45]
    print("criterion 3 PASS: r_norm <= 1 on 49x6 grid; rational and near-1/2 dips present")


def test_criterion_04_dependent_message_probability():
    """Exact closed form against exhaustive pair enumeration in Z_p^k."""
    assert lia.dependent_message_prob(3, 2) == Fraction(11, 27)
    for p in (2, 3, 5):
        for k in (1, 2, 3):
            vectors = [np.array(v) for v in np.ndindex(*([p] * k))]
            coeffs = [(a, b) for a in range(p) for b in range(p) if (a, b) != (0, 0)]
            dependent = sum(
                any(np.all((a * w1 + b * w2) % p == 0) for a, b in coeffs)
                for w1 in vectors
                for w2 in vectors
            )
            exact = Fraction(dependent, len(vectors) ** 2)
            assert lia.dependent_message_prob(p, k) == exact
    print("criterion 4 PASS: closed form matches exhaustive enumeration, p in {2,3,5}, k in {1,2,3}")


def test_criterion_05_noiseless_simulator_floor():
    """At 200 dB the error probability equals the dependent-draw floor:
    the Wilson 95% interval of 5000 trials contains 11/27."""
    start = time.monotonic()
    code = lia.sample_code(3, 8, 2, seed=7)
    res = lia.estimate_error_prob(code, SQRT2_OVER_2, db_to_linear(200), 5000, 11)
    floor = float(lia.dependent_message_prob(3, 2))
    assert res.ci95[0] <= floor <= res.ci95[1]
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(
        f"criterion 5 PASS: p_e = {res.p_e:.4f}, CI = ({res.ci95[0]:.4f}, {res.ci95[1]:.4f})"
        f" contains 11/27 = {floor:.4f}, {elapsed:.1f}s"
    )


def test_criterion_06_error_probability_trend():
    """p = 5, k = 2, gamma = sqrt(2)/2 at 20 dB (rate bound positive there):
    the conditional error rate over independent draws is nonincreasing in
    n over {32, 64, 128} with 2000 trials each.  At every SNR where the
    bound is positive the decoder runs far below threshold at these block
    lengths, so the honest measured values sit at zero."""
    start = time.monotonic()
    snr = db_to_linear(20.0)
    assert lia.theorem1_rate(SQRT2_OVER_2, snr).rate > 0.0
    cond = []
    for n in (32, 64, 128):
        code = lia.sample_code(5, n, 2, seed=3)
        res = lia.estimate_error_prob(code, SQRT2_OVER_2, snr, 2000, 5)
        independent = res.trials - res.dependent
        assert independent > 0
        cond.append(res.errors_independent / independent)
    assert cond[0] >= cond[1] >= cond[2]
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(f"criterion 6 PASS: conditional p_e over n = {cond}, nonincreasing, {elapsed:.0f}s")


def test_criterion_07_alignment_exactness():
    """100 random message draws on the bundled 5-user example: the aligned
    message/codeword agrees residue-exactly with the mod-interval sum of
    gain-scaled codewords (zero tolerance)."""
    H = lia.load_channel_file(lia.bundled_channel_path())
    code = lia.sample_code(5, 8, 2, seed=23)
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(100):
        W = rng.integers(0, 5, size=(5, 2))
        for j in range(5):
            gains = [int(H.cross[j, k]) for k in range(5) if k != j]
            msgs = [W[k] for k in range(5) if k != j]
            w_if, cw = lia.align_interference(code, gains, msgs)
            # codeword-domain fold via the exact grid operations
            folded = np.zeros(code.n, dtype=np.int64)
            for g, m in zip(gains, msgs):
                folded = (folded + g * lia.encode(code, m).residues) % 5
            assert np.array_equal(cw.residues, folded)
            assert np.array_equal(w_if, (H.cross[j] @ W) % 5)
            checked += 1
    print(f"criterion 7 PASS: {checked} receiver draws residue-exact, zero tolerance")


def test_criterion_08_dof_trend():
    """theorem1_rate / ((1/4) log2 SNR) for h = sqrt(2)/2 is nondecreasing
    over {40, 80, 120, 160, 200} dB and strictly larger at 200 than 40 dB;
    values pinned to the recorded regression anchors."""
    ratios = {}
    for db in (40, 80, 120, 160, 200):
        snr = db_to_linear(db)
        rate = lia.theorem1_rate(SQRT2_OVER_2, snr).rate
        ratios[db] = rate / (0.25 * math.log2(snr))
    values = [ratios[db] for db in (40, 80, 120, 160, 200)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert ratios[200] > ratios[40]
    for db, anchor in DOF_RATIO_ANCHORS.items():
        assert ratios[db] == pytest.approx(anchor, abs=1e-4)
    print(f"criterion 8 PASS: ratios = {[round(v, 6) for v in values]}")


def test_criterion_09_power_time_dof():
    """Power-time dof_factor nondecreasing over {80, 120, 160, 200} dB and
    within 0.2 of 9/8 at 200 dB for a generic matrix."""
    grid = [db_to_linear(db) for db in (80, 120, 160, 200)]
    factors = [lia.dof_factor(GENERIC_3X3, snr)[1] for snr in grid]
    assert all(b >= a for a, b in zip(factors, factors[1:]))
    assert abs(factors[-1] - 9 / 8) < 0.2
    assert factors[-1] == pytest.approx(POWER_TIME_FACTOR_200DB, abs=1e-4)
    print(f"criterion 9 PASS: factors = {[round(f, 6) for f in factors]}, 9/8 = 1.125")


def test_criterion_10_cli_determinism(capsys, tmp_path):
    """Every subcommand, run twice with identical flags and seed, emits
    byte-identical output, including under different worker counts."""
    channel3 = tmp_path / "h3.txt"
    channel3.write_text("3\n1.4142 0.9 2.2361\n2.6458 1.6583 1.2019\n1.0308 4.3589 1.5986\n")
    invocations = [
        "rate --gamma 0.4 --snr-db 20 --p-max 101",
        "sweep --gamma 0.05:0.45:0.1 --snr-db 20,40",
        "mac-sim --gamma 0.707106781186547 --snr-db 25 --p 3 --n 8 --k 2"
        " --trials 50 --seed 5",
        f"network --channel {bundled_channel_path()} --snr-db 20,60 --p-max 1009",
        f"network --channel {bundled_channel_path()} --snr-db 200 --simulate"
        " --p 5 --n 8 --k 2 --trials 25 --seed 3",
        f"power-time --channel {channel3} --snr-db 120,200",
        "dof-scan --gamma 0.707106781186547 --snr-db 40,80,120",
    ]
    parallel_variants = {"mac-sim", "network"}
    for line in invocations:
        tokens = shlex.split(line)
        outputs = []
        runs = [tokens, tokens]
        if tokens[0] in parallel_variants:
            runs.append(tokens + ["--workers", "4"])
        for run in runs:
            assert main(list(run)) == 0
            outputs.append(capsys.readouterr().out)
        assert all(o == outputs[0] for o in outputs[1:]), tokens[0]
    print(f"criterion 10 PASS: {len(invocations)} subcommand invocations byte-identical")
