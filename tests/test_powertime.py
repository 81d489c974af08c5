import math

import numpy as np
import pytest

import oracles
from lia import powertime
from lia.powertime import (
    SYMBOL_RATE,
    GainOrderingError,
    build_schedule,
    dof_factors,
    schedule_rate,
    schedule_rates,
)
from lia.rates import db_to_linear, default_p_max, theorem1_rate

# generic surd-valued matrix satisfying the canonical gain ordering
GENERIC_H = np.array(
    [
        [math.sqrt(2), math.sqrt(3) / 2, math.sqrt(5)],
        [math.sqrt(7), math.sqrt(11) / 2, math.sqrt(13) / 3],
        [math.sqrt(17) / 4, math.sqrt(19), math.sqrt(23) / 3],
    ]
)

HAND_H = np.array([[1.0, 1.0, 2.0], [3.0, 1.0, 1.0], [1.0, 2.0, 1.0]])


class TestBuildSchedule:
    def test_hand_example(self):
        sched = build_schedule(HAND_H)
        assert sched.receiver_scalings == (1.0, 1.0, 1.0)
        assert np.array_equal(sched.h_tilde, HAND_H)
        assert sched.alphas[0] == 0.5  # frame-1 back-off of user 3
        assert sched.frame_matrices[0][0].tolist() == [1.0, 1.0, 1.0]

    def test_equal_gains_degenerate_alpha(self):
        H = HAND_H.copy()
        H[0, 2] = H[0, 1]  # h13 == h12: boundary of the assumption
        sched = build_schedule(H)
        assert sched.alphas[0] == 1.0

    def test_rejection_names_first_inequality(self):
        H = HAND_H.copy()
        H[0, 2] = 0.5  # h13 < h12
        with pytest.raises(GainOrderingError, match="h13 >= h12"):
            build_schedule(H)
        H = HAND_H.copy()
        H[1, 2] = 5.0  # h23 > h22
        with pytest.raises(GainOrderingError, match="h22 >= h23"):
            build_schedule(H)
        H = HAND_H.copy()
        H[2, 0] = 9.0  # h31 > h32
        with pytest.raises(GainOrderingError, match="h32 >= h31"):
            build_schedule(H)

    def test_rejects_zero_entries_and_bad_shape(self):
        H = HAND_H.copy()
        H[1, 0] = 0.0
        with pytest.raises(ValueError):
            build_schedule(H)
        with pytest.raises(ValueError):
            build_schedule(np.ones((2, 2)))

    def test_alignment_invariant_random_matrices(self):
        rng = np.random.default_rng(77)
        built = 0
        while built < 25:
            H = rng.uniform(0.2, 4.0, size=(3, 3))
            try:
                sched = build_schedule(H)
            except GainOrderingError:
                continue
            built += 1
            ht1, ht2, ht3, ht4 = sched.frame_matrices
            for m, row, cols in (
                (ht1, 0, (1, 2)),
                (ht2, 1, (0, 2)),
                (ht3, 2, (0, 1)),
            ):
                for c in cols:
                    assert abs(m[row, c] - 1.0) <= 1e-12

    def test_twelve_steps_with_unit_gamma_bound(self):
        sched = build_schedule(GENERIC_H)
        assert len(sched.steps) == 12
        for st in sched.steps:
            assert abs(st.gamma_eff) <= 1.0
            assert st.snr_mult == max(abs(st.gains[0]), abs(st.gains[1])) ** 2


class TestScheduleRate:
    def test_below_threshold_zero(self):
        assert schedule_rate(GENERIC_H, db_to_linear(0.0)) == 0.0

    def test_positive_at_high_snr_and_growing(self):
        r1 = schedule_rate(GENERIC_H, db_to_linear(120))
        r2 = schedule_rate(GENERIC_H, db_to_linear(200))
        assert 0.0 < r1 < r2

    def test_symbol_rate_factor(self):
        sched = build_schedule(GENERIC_H)
        snr = db_to_linear(160)
        step_rates = [
            theorem1_rate(st.gamma_eff, snr * st.snr_mult, default_p_max(snr * st.snr_mult)).rate
            for st in sched.steps
        ]
        assert schedule_rate(sched, snr) == pytest.approx(
            SYMBOL_RATE * min(step_rates), rel=1e-12
        )

    def test_half_ratio_step_kills_rate(self):
        # h11/h12 = 1/2 exactly: the frame-1 decode at rx1 has gamma_eff = 1/2
        H = np.array([[0.5, 1.0, 2.0], [3.0, 1.0, 1.0], [1.0, 2.0, 1.0]])
        assert schedule_rate(H, db_to_linear(160)) == 0.0

    def test_row_scaling_absorbed_by_receiver(self):
        snr = db_to_linear(140)
        base = schedule_rate(GENERIC_H, snr)
        scaled = GENERIC_H.copy()
        scaled[0] *= 2.0
        assert schedule_rate(scaled, snr) == base

    def test_accepts_prebuilt_schedule(self):
        sched = build_schedule(GENERIC_H)
        snr = db_to_linear(100)
        assert schedule_rate(sched, snr) == schedule_rate(GENERIC_H, snr)


class TestDofFactor:
    def test_zero_below_threshold(self):
        assert [f for _, f in dof_factors(GENERIC_H, [2.0, 4.0])] == [0.0, 0.0]

    def test_trend_and_calibration(self):
        grid = [db_to_linear(db) for db in (80, 120, 160, 200)]
        out = dof_factors(GENERIC_H, grid)
        factors = [f for _, f in out]
        # the factor is the sum rate, three times the reported symmetric rate
        for snr, (sym, f) in zip(grid, out):
            assert sym == schedule_rate(GENERIC_H, snr)
            assert f == 3.0 * sym / (0.5 * math.log2(snr))
        assert all(b >= a for a, b in zip(factors, factors[1:]))
        assert abs(factors[-1] - 1.125) < 0.2


class TestScheduleRates:
    """Every step of a whole SNR grid in one prime search, against the loop that
    takes one SNR and one step at a time (``oracles.schedule_rate_loop``)."""

    @pytest.mark.parametrize("block", [None, 3])
    def test_grid_matches_the_loop_at_every_snr(self, monkeypatch, block):
        # unsorted, with a duplicate, from below threshold to 200 dB; in one
        # search, or in searches of three SNRs each
        if block is not None:
            monkeypatch.setattr(powertime, "_SNRS_PER_SEARCH", block)
        grid = [db_to_linear(x) for x in (200, 0, 20, 80, 20, 47.5, 120, 160, 40, 100)]
        rng = np.random.default_rng(5)
        matrices = [GENERIC_H, HAND_H]
        while len(matrices) < 6:
            H = rng.uniform(0.2, 4.0, size=(3, 3))
            try:
                build_schedule(H)
            except GainOrderingError:
                continue
            matrices.append(H)
        for H in matrices:
            for p_max in (None, 101):
                want = [oracles.schedule_rate_loop(H, snr, p_max) for snr in grid]
                assert schedule_rates(H, grid, p_max) == want
                assert [sym for sym, _ in dof_factors(H, grid, p_max)] == want
        assert schedule_rates(GENERIC_H, []) == []

    @pytest.mark.parametrize(
        "H, grid",
        [
            (np.array([[1e150, 1, 1], [1, 1, 1], [1, 1, 1]]), (40, 200, 40)),
            (np.array([[2**0.5, 1.7, 1e153], [2.2, 1.3, 1e-153], [1, 1.7, 1]]), (20, 40)),
            (GENERIC_H, (60, 0.0)),  # 0.0 linear: the first step's SNR is refused
        ],
    )
    @pytest.mark.parametrize("block", [None, 1])
    def test_refused_grid_gives_the_loops_first_error(self, monkeypatch, H, grid, block):
        if block is not None:
            monkeypatch.setattr(powertime, "_SNRS_PER_SEARCH", block)
        grid = [db_to_linear(x) if x else 0.0 for x in grid]
        with pytest.raises(ValueError) as want:
            [oracles.schedule_rate_loop(H, snr) for snr in grid]
        with pytest.raises(ValueError) as got:
            schedule_rates(H, grid)
        assert str(got.value) == str(want.value)
