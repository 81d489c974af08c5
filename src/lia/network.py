"""K-user integer-interference channel: modulo alignment and joint decoding.

Every user transmits from one shared linear code.  Because the cross gains
are integers, the interference seen by receiver j folds into a single
codeword x_IF = [sum_k a_jk x_k]* of the same code, and the receiver faces
the two-user channel [h_jj x_j + x_IF + z]*: the interference candidate
takes the unit-gain role and the desired candidate the gain-h_jj role in
the joint decoder.  Only the desired message is scored; a wrong
interference-sum estimate alone does not count against the scheme.

The simulation runs on macsim.trial_blocks, the trial engine of both
simulators: every trial draws from its own seed substreams, and each
receiver decodes a whole block with one PairDecoder.decode_many call, after
macsim.check_run has accepted the SNR, trial count, seed and direct gains,
and the pair decoders of the receivers that hear interference together.  A
receiver whose cross gains are all multiples of p hears the zero codeword
as its interference: its decoder is the pair decoder with the first user
known to be message 0 (alone=True), which decides as the exhaustive
single-user table does and which no run check charges.

Channel files: first line K, then K whitespace-separated rows.  Diagonal
entries may be "a/b" fractions or decimals; off-diagonal entries must parse
as integers (rational cross gains are rejected, not rescaled, because the
rescaling would change per-receiver SNR in an unspecified way).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .codes import Codeword, LinearCode, encode
from .diophantine import Gain, parse_gain
from .macsim import PairDecoder, check_run, trial_blocks, wilson_interval
from .modarith import mod_interval
from .rates import db_to_linear, dof_benchmark, theorem2_sym_rates, time_sharing_sum_rate


class ChannelFormatError(ValueError):
    """A channel matrix file is missing structure or has bad entries."""


@dataclass(frozen=True, eq=False)
class ChannelMatrix:
    """K-user gain matrix: real diagonal, int64 integers off the diagonal
    (integer-valued floats accepted, anything else refused)."""

    K: int
    direct: tuple[Gain, ...]  # diagonal gains h_jj
    cross: np.ndarray  # K x K int64, zero diagonal

    def __post_init__(self):
        if self.K < 2:
            raise ValueError("K must be at least 2")
        if len(self.direct) != self.K:
            raise ValueError("need one direct gain per user")
        grid = np.asarray(self.cross, dtype=object)
        if grid.shape != (self.K, self.K):
            raise ValueError(f"cross shape {grid.shape} != ({self.K}, {self.K})")
        for (j, k), v in np.ndenumerate(grid):
            if not (isinstance(v, numbers.Real) and -(2**63) <= v < 2**63 and v == int(v)):
                raise ValueError(f"cross gain h[{j}][{k}]={v!r} is not an int64 integer")
        c = grid.astype(np.int64)
        if np.any(np.diagonal(c) != 0):
            raise ValueError("cross matrix must have a zero diagonal")
        c.setflags(write=False)
        object.__setattr__(self, "cross", c)


def _parse_matrix_rows(text: str, entry) -> list[list]:
    """Check the channel file structure; entry(j, k, token) converts each entry."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ChannelFormatError("empty channel file")
    try:
        K = int(lines[0])
    except ValueError:
        raise ChannelFormatError(f"first line must be K, got {lines[0]!r}") from None
    if len(lines) != 1 + K:
        raise ChannelFormatError(f"expected {K} matrix rows, got {len(lines) - 1}")
    rows = []
    for j, ln in enumerate(lines[1:]):
        toks = ln.split()
        if len(toks) != K:
            raise ChannelFormatError(f"row {j + 1} has {len(toks)} entries, expected {K}")
        rows.append([entry(j, k, tok) for k, tok in enumerate(toks)])
    return rows


def _channel_entry(j: int, k: int, tok: str):
    if j == k:
        try:
            return parse_gain(tok)
        except (ValueError, ZeroDivisionError):
            raise ChannelFormatError(f"bad diagonal gain {tok!r}") from None
    try:
        return int(tok)
    except ValueError:
        raise ChannelFormatError(
            f"off-diagonal gain h[{j}][{k}]={tok!r} must be an integer"
        ) from None


def _real_entry(j: int, k: int, tok: str) -> float:
    try:
        return float(parse_gain(tok))
    except (ValueError, ZeroDivisionError):
        raise ChannelFormatError(f"bad matrix entry h[{j}][{k}]={tok!r}") from None


def parse_channel_text(text: str) -> ChannelMatrix:
    """Parse the channel file format (integer off-diagonals enforced)."""
    rows = _parse_matrix_rows(text, _channel_entry)
    cross = [[0 if j == k else v for k, v in enumerate(row)] for j, row in enumerate(rows)]
    try:
        return ChannelMatrix(len(rows), tuple(row[j] for j, row in enumerate(rows)), cross)
    except ValueError as exc:
        raise ChannelFormatError(str(exc)) from None


def load_channel_file(path) -> ChannelMatrix:
    with open(path, "r", encoding="ascii") as fh:
        return parse_channel_text(fh.read())


def parse_real_matrix_text(text: str) -> np.ndarray:
    """Same file format with arbitrary real entries: the power-time input, so K = 3."""
    m = np.asarray(_parse_matrix_rows(text, _real_entry), dtype=float)
    if len(m) != 3:
        raise ChannelFormatError(f"expected K=3, file has K={len(m)}")
    return m


def bundled_channel_path(name: str = "channel5_h0707.txt"):
    """Filesystem path of a channel file shipped with the package."""
    return resources.files("lia").joinpath("data", name)


def align_interference(code: LinearCode, gains, messages) -> tuple[np.ndarray, Codeword]:
    """Fold gain-scaled codewords into the aligned message and its codeword.

    Returns (w_IF, codeword) with w_IF = (sum_k gains[k] * w_k) mod p.  The
    codeword equals the component-wise mod-interval sum of the gain-scaled
    codewords exactly, because everything is computed on residues.
    """
    if len(gains) != len(messages):
        raise ValueError("gains and messages must have equal length")
    if len(messages) == 0:
        raise ValueError("need at least one interferer")
    total = np.zeros(code.k, dtype=np.int64)
    for g, w in zip(gains, messages):
        gi = int(g)
        if gi != g:
            raise ValueError(f"interference gain {g!r} is not an integer")
        total = total + gi * np.asarray(w, dtype=np.int64)
    w_if = total % code.p
    return w_if, encode(code, w_if)


@dataclass(frozen=True)
class NetworkSimResult:
    """Per-receiver and network error estimates over one seeded run.

    ``receiver_ambiguous`` counts, per receiver, the errors that were
    decoder ties; the rest of ``receiver_errors`` are wrong decodes.
    ``receiver_dependent`` counts, per receiver, the trials whose pair
    (w_IF, w_j) is linearly dependent, which its pair decoder skips; it is 0
    for a receiver that decodes alone.
    """

    trials: int
    receiver_errors: tuple[int, ...]
    receiver_p_e: tuple[float, ...]
    receiver_ci95: tuple[tuple[float, float], ...]
    network_errors: int
    network_p_e: float
    network_ci95: tuple[float, float]
    receiver_ambiguous: tuple[int, ...]
    receiver_dependent: tuple[int, ...]


def simulate_network(
    H: ChannelMatrix,
    code: LinearCode,
    snr: float,
    trials: int,
    seed: int,
) -> NetworkSimResult:
    """Monte Carlo run of the aligned-interference network at linear SNR.

    Trial t draws all K messages from SeedSequence(seed, spawn_key=(t, 0))
    and receiver j's noise from spawn_key=(t, 1 + j); receiver j errs iff
    its decoded desired message differs from w_j (ambiguity included).
    Trials are decoded in blocks, with the decisions of decoding each alone.
    """
    K, p = H.K, code.p
    cross = H.cross % p  # integer gains act on the grid only mod p
    # A receiver whose cross gains are all multiples of p hears no interference
    # on the grid: its aligned codeword is message 0's, which it decodes knowing
    # that, alone, scoring [h x_j]* for every message j.
    heard = cross.any(axis=1)
    check_run(snr, trials, seed, H.direct, code, [g for g, h in zip(H.direct, heard) if h])
    sigma = math.sqrt(1.0 / snr)
    diag, alone = np.asarray([float(g) for g in H.direct]), ~heard
    decoders = {(h, a): PairDecoder(code, h, alone=a) for h, a in set(zip(diag, alone))}

    errors, ambiguous, dependent = [0] * K, [0] * K, np.zeros(K, dtype=np.int64)
    network_errors = 0
    keys = [(j,) for j in range(K + 1)]
    for block, W, z in trial_blocks(code, trials, seed, keys, K, sigma, 1):
        sent = code.rows(W)
        # each receiver's interference folded on residues (a_jj = 0 keeps the
        # desired message out): the codeword of sum_k a_jk w_k mod p
        aligned = code.rows(cross @ W % p)
        y = mod_interval(code.reals[aligned] + diag[:, None] * code.reals[sent] + z)
        if heard.any():  # the dependent pairs (w_IF, w_j) the pair decoders skip
            pairs = aligned[:, heard] * len(code.messages) + sent[:, heard]
            dependent[heard] += np.count_nonzero(code.is_dependent(pairs), axis=0)
        failed = np.zeros(len(block), dtype=bool)
        for j in range(K):
            # the desired message plays the gain-h_jj (second) role
            decided = decoders[diag[j], alone[j]].decode_many(y[:, j])
            decided = np.where(decided < 0, -1, decided % len(code.messages))
            erred = decided != sent[:, j]
            errors[j] += int(np.count_nonzero(erred))
            ambiguous[j] += int(np.count_nonzero(decided < 0))
            failed |= erred
        network_errors += int(np.count_nonzero(failed))

    return NetworkSimResult(
        trials=trials,
        receiver_errors=tuple(errors),
        receiver_p_e=tuple(e / trials for e in errors),
        receiver_ci95=tuple(wilson_interval(e, trials) for e in errors),
        network_errors=network_errors,
        network_p_e=network_errors / trials,
        network_ci95=wilson_interval(network_errors, trials),
        receiver_ambiguous=tuple(ambiguous),
        receiver_dependent=tuple(int(d) for d in dependent),
    )


def sum_rate_curves(H: ChannelMatrix, snr_db_grid, p_max: int | None = None):
    """Rows (snr_db, aligned sum rate, time-sharing sum rate, benchmark).

    The aligned sum rate is K times the symmetric rate; the benchmark uses
    h = max_j h_jj.
    """
    grid = list(snr_db_grid)
    if not grid:
        raise ValueError("snr_db_grid must be nonempty")
    h_bench = max(float(g) for g in H.direct)
    # converted as the search draws them, so the first SNR that fails is the error
    points = theorem2_sym_rates(H, (db_to_linear(float(v)) for v in grid), p_max)
    return [
        (float(v), H.K * p.rate, time_sharing_sum_rate(H.K, p.snr), dof_benchmark(H.K, h_bench, p.snr))
        for v, p in zip(grid, points)
    ]
