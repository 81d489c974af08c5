"""K-user integer-interference channel: modulo alignment and joint decoding.

Every user transmits from one shared linear code.  Because the cross gains
are integers, the interference seen by receiver j folds into a single
codeword x_IF = [sum_k a_jk x_k]* of the same code, and the receiver faces
the two-user channel [h_jj x_j + x_IF + z]*: the interference candidate
takes the unit-gain role and the desired candidate the gain-h_jj role in
the joint decoder.  Only the desired message is scored; a wrong
interference-sum estimate alone does not count against the scheme.

The simulation runs on macsim's block trial engine: every trial draws from
its own seed substreams, and each receiver decodes a whole block of trials
with one PairDecoder.decode_many call (or, when it hears no interferer, one
nearest-codeword pass over the block), after macsim.check_run has accepted
its linear SNR, trial count and seed.

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

from .codes import Codebook, Codeword, LinearCode, encode
from .diophantine import Gain, parse_gain
from .macsim import PairDecoder, _block_rows, _blocks, _nearest_rows, check_run, wilson_interval
from .modarith import mod_interval
from .rates import db_to_linear, dof_benchmark, theorem2_sym_rate, time_sharing_sum_rate


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


def parse_real_matrix_text(text: str, K_expected: int | None = None) -> np.ndarray:
    """Same file format with arbitrary real entries (power-time input)."""
    m = np.asarray(_parse_matrix_rows(text, _real_entry), dtype=float)
    if K_expected is not None and len(m) != K_expected:
        raise ChannelFormatError(f"expected K={K_expected}, file has K={len(m)}")
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
    """

    trials: int
    receiver_errors: tuple[int, ...]
    receiver_p_e: tuple[float, ...]
    receiver_ci95: tuple[tuple[float, float], ...]
    network_errors: int
    network_p_e: float
    network_ci95: tuple[float, float]
    receiver_ambiguous: tuple[int, ...]


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
    check_run(snr, trials, seed)
    K, p, n = H.K, code.p, code.n
    sigma = math.sqrt(1.0 / snr)
    # A receiver with no interferers faces a point-to-point channel: there is
    # no aligned codeword to decode jointly, so it searches messages alone,
    # scoring [h x_i]* for every message i.
    has_interference = H.cross.any(axis=1)
    pair_decoders: dict[float, PairDecoder] = {}
    for j, g in enumerate(H.direct):
        if has_interference[j] and float(g) not in pair_decoders:
            pair_decoders[float(g)] = PairDecoder(code, g)
    book = Codebook(code)
    single_tables = {
        float(g): mod_interval(float(g) * book.reals)
        for j, g in enumerate(H.direct)
        if not has_interference[j]
    }
    diag = np.asarray([float(g) for g in H.direct])
    cross = H.cross % p  # integer gains act on the grid only mod p

    errors, ambiguous = [0] * K, [0] * K
    network_errors = 0
    # the pair decoders' block size; a single-user pass over a block holds
    # block x p**k x n floats, 1/p of a pair decode's gathered distances
    for block in _blocks(trials, _block_rows(len(book), n, p)):
        W = np.empty((len(block), K, code.k), dtype=np.int64)
        z = np.empty((len(block), K, n))
        for b, t in enumerate(block):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t, 0)))
            W[b] = rng.integers(0, p, size=(K, code.k))
            for j in range(K):
                rng_j = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t, 1 + j)))
                z[b, j] = rng_j.normal(0.0, sigma, size=n)
        sent = book.rows(W)
        # each receiver's interference folded on residues (a_jj = 0 keeps the
        # desired message out): the codeword of sum_k a_jk w_k mod p
        aligned = book.rows(cross @ W % p)
        y = mod_interval(book.reals[aligned] + diag[:, None] * book.reals[sent] + z)
        failed = np.zeros(len(block), dtype=bool)
        for j in range(K):
            if has_interference[j]:
                decided = pair_decoders[diag[j]].decode_many(y[:, j])
                # the desired message plays the gain-h_jj (second) role
                decided = np.where(decided < 0, -1, decided % len(book))
            else:
                decided = _nearest_rows(y[:, j], [single_tables[diag[j]]])
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
    rows = []
    for snr_db in grid:
        snr = db_to_linear(float(snr_db))
        sym = theorem2_sym_rate(H, snr, p_max).rate
        rows.append(
            (
                float(snr_db),
                H.K * sym,
                time_sharing_sum_rate(H.K, snr),
                dof_benchmark(H.K, h_bench, snr),
            )
        )
    return rows
