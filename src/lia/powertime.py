"""The 3-user power-time schedule: power back-off plus one repeat frame.

The channel is used 4n times to move three length-n codewords per user.
Fixed receiver scalings (1/h12, 1/h23, 1/h31) turn the gain matrix into
h_tilde with ones at (1,2), (2,3) and (3,1).  In data frame t one
transmitter backs off so that receiver t sees both interferers with gain
exactly one: the interference folds into a single codeword and receiver t
decodes its own frame-t codeword through the two-user joint decoder.  In
frame 4 each user repeats its already-decoded codeword; every receiver
subtracts its known codeword, decodes the remaining two-user MAC, and then
strips the now-known interference from the two residual frames.  Every one
of the twelve decode steps is a two-user channel evaluated through the
same-codebook rate bound; the schedule's symmetric rate is 3/4 of the
smallest step rate (three data frames out of four channel uses).

SNR bookkeeping: the fixed receiver scalings are pure renaming (noise is
normalized after them, which makes the rate invariant to rescaling a row of
H together with that receiver's noise).  Normalizing one step by its
stronger gain g multiplies the step SNR by g**2, and the per-frame back-off
factors are already folded into the equivalent gain matrices.  Frame-4
subtraction is treated as exact: error propagation across frames is not
modeled in the rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .rates import theorem1_rate, theorem1_rows

SYMBOL_RATE = 0.75  # three data frames per four channel uses

_ORDERING_CHECKS = (
    ("h13 >= h12", 0, 2, 0, 1),
    ("h22 >= h23", 1, 1, 1, 2),
    ("h32 >= h31", 2, 1, 2, 0),
)


class GainOrderingError(ValueError):
    """The canonical schedule's gain ordering assumption fails."""

    def __init__(self, inequality: str, lhs: float, rhs: float):
        self.inequality = inequality
        super().__init__(
            f"gain ordering {inequality} fails ({lhs:.6g} < {rhs:.6g}); "
            "only the canonical ordering is supported"
        )


@dataclass(frozen=True)
class DecodeStep:
    """One two-user decode, mapped to the MAC rate bound.

    ``gains`` is the step's raw two-user gain pair from the equivalent
    frame matrix; the stronger gain takes the unit role, giving the
    effective ratio ``gamma_eff`` and the SNR multiplier ``snr_mult``.
    """

    frame: int
    receiver: int
    label: str
    gains: tuple[float, float]
    gamma_eff: float
    snr_mult: float


def _make_step(frame: int, receiver: int, label: str, g_a: float, g_b: float) -> DecodeStep:
    if abs(g_a) >= abs(g_b):
        strong, weak = g_a, g_b
    else:
        strong, weak = g_b, g_a
    return DecodeStep(
        frame=frame,
        receiver=receiver,
        label=label,
        gains=(g_a, g_b),
        gamma_eff=weak / strong,
        snr_mult=strong * strong,
    )


@dataclass(frozen=True)
class Schedule:
    """The full 4-frame plan for one channel matrix."""

    matrix: np.ndarray
    receiver_scalings: tuple[float, float, float]  # 1/h12, 1/h23, 1/h31
    h_tilde: np.ndarray
    alphas: tuple[float, float, float]  # frame-1 alpha3, frame-2 alpha1, frame-3 alpha2
    frame_matrices: tuple[np.ndarray, ...]  # equivalent gains, frames 1..4
    steps: tuple[DecodeStep, ...]


def build_schedule(H) -> Schedule:
    """Construct the canonical schedule; rejects a violated gain ordering."""
    H = np.asarray(H, dtype=float)
    if H.shape != (3, 3):
        raise ValueError(f"power-time schedule needs a 3x3 matrix, got {H.shape}")
    if np.any(H == 0.0) or not np.all(np.isfinite(H)):
        raise ValueError("all channel gains must be finite and nonzero")
    for name, r1, c1, r2, c2 in _ORDERING_CHECKS:
        if not H[r1, c1] >= H[r2, c2]:
            raise GainOrderingError(name, H[r1, c1], H[r2, c2])

    # scaled gains can overflow (or 0 * inf give NaN); refused below, not warned
    with np.errstate(all="ignore"):
        scalings = (1.0 / H[0, 1], 1.0 / H[1, 2], 1.0 / H[2, 0])
        ht = np.vstack([H[0] / H[0, 1], H[1] / H[1, 2], H[2] / H[2, 0]])

        alpha3 = 1.0 / ht[0, 2]
        alpha1 = 1.0 / ht[1, 0]
        alpha2 = 1.0 / ht[2, 1]

        def scaled(col: int, alpha: float, aligned_row: int) -> np.ndarray:
            m = ht.copy()
            m[:, col] *= alpha
            m[aligned_row, col] = 1.0  # x * (1/x) is one to a few ulps; pin the float
            return m

        ht1 = scaled(2, alpha3, 0)
        ht2 = scaled(0, alpha1, 1)
        ht3 = scaled(1, alpha2, 2)
        ht4 = ht.copy()

        steps = (
            # data frames: receiver t sees its interferers perfectly aligned
            _make_step(1, 1, "frame1 aligned decode at rx1", ht1[0, 0], 1.0),
            _make_step(2, 2, "frame2 aligned decode at rx2", ht2[1, 1], 1.0),
            _make_step(3, 3, "frame3 aligned decode at rx3", ht3[2, 2], 1.0),
            # repeat frame: subtract the own known codeword, decode the other two
            _make_step(4, 1, "frame4 MAC at rx1 (users 2,3)", ht4[0, 1], ht4[0, 2]),
            _make_step(4, 2, "frame4 MAC at rx2 (users 1,3)", ht4[1, 0], ht4[1, 2]),
            _make_step(4, 3, "frame4 MAC at rx3 (users 1,2)", ht4[2, 0], ht4[2, 1]),
            # residual frames: strip the interferer learned in frame 4
            _make_step(2, 1, "frame2 residual at rx1", ht2[0, 0], ht2[0, 2]),
            _make_step(3, 1, "frame3 residual at rx1", ht3[0, 0], ht3[0, 1]),
            _make_step(1, 2, "frame1 residual at rx2", ht1[1, 1], ht1[1, 2]),
            _make_step(3, 2, "frame3 residual at rx2", ht3[1, 0], ht3[1, 1]),
            _make_step(1, 3, "frame1 residual at rx3", ht1[2, 1], ht1[2, 2]),
            _make_step(2, 3, "frame2 residual at rx3", ht2[2, 0], ht2[2, 2]),
        )
    for step in steps:
        if not (math.isfinite(step.gamma_eff) and 0.0 < step.snr_mult < math.inf):
            gains = f"gamma_eff={step.gamma_eff:.6g}, snr_mult={step.snr_mult:.6g}"
            raise ValueError(f"power-time schedule is not finite at '{step.label}' ({gains})")
    for m in (ht, ht1, ht2, ht3, ht4):
        m.setflags(write=False)
    return Schedule(
        matrix=H,
        receiver_scalings=scalings,
        h_tilde=ht,
        alphas=(alpha3, alpha1, alpha2),
        frame_matrices=(ht1, ht2, ht3, ht4),
        steps=steps,
    )


# SNRs per prime search: each adds twelve step rows, whose RatePoints the
# search returns together, so a block caps that list at a few MB however long
# the grid (18,001 SNRs peaked at 163 MB RSS in one search, 48 MB in blocks)
_SNRS_PER_SEARCH = 1024


def schedule_rates(H, snrs, p_max: Optional[int] = None) -> list[float]:
    """Symmetric rate of the power-time code at each SNR of an iterable: 3/4 of the worst
    step rate.  The steps of up to _SNRS_PER_SEARCH SNRs go through one prime search; the
    rates, and the first error, are those of taking the SNRs in order and each SNR's steps
    in order up to the first step rate of 0, so a step never reached is never refused."""
    sched = H if isinstance(H, Schedule) else build_schedule(H)
    snrs = list(snrs)
    out = []
    for a in range(0, len(snrs), _SNRS_PER_SEARCH):
        out += _walk_steps(sched, snrs[a : a + _SNRS_PER_SEARCH], p_max)
    return out


def _walk_steps(sched: Schedule, snrs: list, p_max: Optional[int]) -> list[float]:
    """``schedule_rates`` of a block of SNRs, in one prime search."""
    # Python floats overflow to inf quietly
    step_snrs = [[float(snr) * float(step.snr_mult) for step in sched.steps] for snr in snrs]
    rows = (
        (step.gamma_eff, x)
        for xs in step_snrs
        for step, x in zip(sched.steps, xs)
        if 0.0 < x < math.inf
    )
    found = iter(theorem1_rows(rows, p_max))
    out = []
    for snr, xs in zip(snrs, step_snrs):
        rates = [next(found).rate if 0.0 < x < math.inf else None for x in xs]
        worst = math.inf
        for step, x, rate in zip(sched.steps, xs, rates):
            if math.isinf(x) and math.isfinite(snr):
                raise ValueError(f"power-time step SNR overflows at '{step.label}'")
            if rate is None:  # left out of the search: refused alone, with its own message
                rate = theorem1_rate(step.gamma_eff, x, p_max).rate
            worst = min(worst, rate)
            if worst == 0.0:
                break
        out.append(SYMBOL_RATE * worst)
    return out


def schedule_rate(H, snr: float, p_max: Optional[int] = None) -> float:
    """``schedule_rates`` at one SNR."""
    return schedule_rates(H, [snr], p_max)[0]


def dof_factors(H, snrs, p_max: Optional[int] = None) -> list[tuple[float, float]]:
    """(symmetric rate, sum_rate / ((1/2) log2 snr)) at each SNR of an iterable, in one
    ``schedule_rates`` call; the sum rate is three times the symmetric rate."""
    snrs = list(snrs)
    out = []
    for snr, sym in zip(snrs, schedule_rates(H, snrs, p_max)):
        denom = 0.5 * math.log2(snr) if snr > 1.0 else 0.0
        out.append((sym, 3.0 * sym / denom if sym > 0.0 and denom > 0.0 else 0.0))
    return out


def dof_factor(H, snr: float, p_max: Optional[int] = None) -> tuple[float, float]:
    """``dof_factors`` at one SNR."""
    return dof_factors(H, [snr], p_max)[0]
