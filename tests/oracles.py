"""Reference implementations that the simulation code and the prime search
are tested against.

``OracleDecoder`` is the exhaustive pairs x n table decoder and
``nearest_message`` the exhaustive single-user decision.  The two
``*_trial_outcomes`` functions are the per-trial Monte Carlo loops: one seed
substream, one encode, one dependency check, one channel evaluation and one
decode per trial, with the substreams of ``lia.macsim`` and ``lia.network``.
The block engine must reproduce their counts field for field.
``best_prime_oracle`` is the rate search that evaluates every prime up to
p_max; the pruned search in ``lia.rates`` must return the same RatePoint.
``omega_breakdown`` and ``rate_for_p`` are the bound at one prime, with delta
by direct enumeration (``lia.diophantine.delta``) rather than the staircase,
and admissibility from ``admissible_mask``; the search must agree with them
prime by prime.
``schedule_rate_loop`` is the power-time rate one SNR and one step at a time;
``lia.powertime.schedule_rates`` must return its rates and first error.
``mod_interval_formula`` is the formula that ``lia.modarith.mod_interval``
evaluates in place, one temporary per step; the kernel must give its bits.
"""

import math

import numpy as np

from lia.codes import encode, messages_dependent
from lia.diophantine import (
    admissible_mask,
    delta,
    delta_for_primes,
    mod_quarter_interval,
    primes_up_to,
)
from lia.macsim import AMBIGUOUS, SimResult, _block_rows, mod_mac_channel, wilson_interval
from lia.modarith import HALF_L, L, grid_real, mod_interval
from lia.network import NetworkSimResult
from lia.powertime import SYMBOL_RATE, Schedule, build_schedule
from lia.rates import (
    RatePoint,
    _omega_arrays,
    _omega_d,
    _rate_from_omegas,
    _require_positive_snr,
    _snr_terms,
    default_p_max,
    theorem1_rate,
)

# per-receiver network outcomes, with DEPENDENT or-ed on when the receiver's
# pair (w_IF, w_j) is linearly dependent
RIGHT, WRONG, TIE = 0, 1, 2
DEPENDENT = 4
# (p, n, k) for the block engine against the per-trial loops; (7, 16, 3)
# decodes one vector at a time
ENGINE_SHAPES = [(3, 4, 2), (5, 8, 2), (5, 32, 2), (7, 16, 3)]


def engine_trial_counts(p, n, k):
    """1, B - 1, B, B + 1 and 2B + 3 trials for block size B, without 0."""
    rows = _block_rows(p**k, n, p)
    return sorted({t for t in (1, rows - 1, rows, rows + 1, 2 * rows + 3) if t >= 1})


class OracleDecoder:
    """The exhaustive pairs x n table decoder, the reference for PairDecoder.

    It stores psi(i, j) for every ordered independent pair (found with a
    dictionary of scaled messages), scores y with mod_interval and einsum
    over the whole table, and declares an exact-equality tie ambiguous.
    """

    def __init__(self, code, gamma):
        msgs = np.asarray(list(np.ndindex(*([code.p] * code.k))), dtype=np.int64)
        reals = grid_real((msgs @ code.generator) % code.p, code.p)
        count = msgs.shape[0]
        dep = np.zeros((count, count), dtype=bool)
        index = {w.tobytes(): i for i, w in enumerate(msgs)}
        zero = ~msgs.any(axis=1)
        dep[zero, :] = True
        dep[:, zero] = True
        for c in range(1, code.p):
            scaled = (c * msgs) % code.p
            for i in range(count):
                dep[i, index[scaled[i].tobytes()]] = True
        self.i_idx, self.j_idx = np.nonzero(~dep)
        self.messages = msgs
        self.psi = mod_interval(reals[self.i_idx] + float(gamma) * reals[self.j_idx])

    def metrics(self, y):
        d = mod_interval(y[None, :] - self.psi)
        return np.einsum("ij,ij->i", d, d)

    def decode(self, y):
        metrics = self.metrics(y)
        hits = np.flatnonzero(metrics == metrics.min())
        if hits.size > 1:
            return AMBIGUOUS
        return (self.messages[self.i_idx[hits[0]]], self.messages[self.j_idx[hits[0]]])


def nearest_message(code, gamma, y):
    """The exhaustive single-user decision at y: the index, in base-p order, of the message
    w whose [gamma*x_w]* is closest to y in sum_t ([y_t - .]*)^2, -1 where that minimum
    is attained more than once (exact float equality); every message encoded on its own
    and scored in float64 over the whole table."""
    messages = np.asarray(list(np.ndindex(*([code.p] * code.k))), dtype=np.int64)
    table = mod_interval(float(gamma) * np.array([encode(code, m).reals for m in messages]))
    d = mod_interval(np.asarray(y, dtype=float)[None, :] - table)
    metrics = np.einsum("ij,ij->i", d, d)
    hits = np.flatnonzero(metrics == metrics.min())
    return int(hits[0]) if hits.size == 1 else -1


def mac_trial_outcomes(code, gamma, snr, seed, trials):
    """Per trial of estimate_error_prob: "dependent", "ambiguous", "wrong" or "right"."""
    decoder = OracleDecoder(code, gamma)
    sigma = math.sqrt(1.0 / snr)
    outcomes = []
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t,)))
        w1 = rng.integers(0, code.p, size=code.k)
        w2 = rng.integers(0, code.p, size=code.k)
        if messages_dependent(w1, w2, code.p):
            outcomes.append("dependent")
            continue
        z = rng.normal(0.0, sigma, size=code.n)
        out = decoder.decode(mod_mac_channel(encode(code, w1), encode(code, w2), float(gamma), z))
        if out is AMBIGUOUS:
            outcomes.append("ambiguous")
        elif np.array_equal(out[0], w1) and np.array_equal(out[1], w2):
            outcomes.append("right")
        else:
            outcomes.append("wrong")
    return outcomes


def mac_result(outcomes) -> SimResult:
    """The SimResult of the trials whose outcomes are given."""
    trials = len(outcomes)
    dependent, ambiguous, wrong = (outcomes.count(k) for k in ("dependent", "ambiguous", "wrong"))
    errors = dependent + ambiguous + wrong
    return SimResult(
        trials=trials,
        errors=errors,
        p_e=errors / trials,
        ci95=wilson_interval(errors, trials),
        dependent=dependent,
        errors_independent=ambiguous + wrong,
        ambiguous=ambiguous,
    )


def network_trial_outcomes(H, code, snr, seed, trials):
    """trials x K array of RIGHT, WRONG or TIE, per trial and receiver of simulate_network,
    each with DEPENDENT or-ed on where a pair decoder receiver drew a dependent pair."""
    K = H.K
    sigma = math.sqrt(1.0 / snr)
    cross = H.cross.astype(float)
    # a receiver whose cross gains are all multiples of p hears no interferer
    heard = (H.cross % code.p).any(axis=1)
    pair = {float(g): OracleDecoder(code, g) for j, g in enumerate(H.direct) if heard[j]}
    messages = np.asarray(list(np.ndindex(*([code.p] * code.k))), dtype=np.int64)
    outcomes = np.zeros((trials, K), dtype=int)
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t, 0)))
        W = rng.integers(0, code.p, size=(K, code.k))
        X = np.vstack([encode(code, W[u]).reals for u in range(K)])
        for j in range(K):
            rng_j = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t, 1 + j)))
            z = rng_j.normal(0.0, sigma, size=code.n)
            h = float(H.direct[j])
            y = mod_interval(h * X[j] + cross[j] @ X + z)
            if heard[j]:
                w_if = (H.cross[j] % code.p) @ W % code.p
                if messages_dependent(w_if, W[j], code.p):
                    outcomes[t, j] = DEPENDENT
                out = pair[h].decode(y)
                decoded = None if out is AMBIGUOUS else out[1]
            else:
                hit = nearest_message(code, h, y)
                decoded = messages[hit] if hit >= 0 else None
            if decoded is None:
                outcomes[t, j] |= TIE
            elif not np.array_equal(decoded, W[j]):
                outcomes[t, j] |= WRONG
    return outcomes


def network_result(outcomes) -> NetworkSimResult:
    """The NetworkSimResult of the trials whose outcome rows are given."""
    trials = outcomes.shape[0]
    kind = outcomes & ~DEPENDENT
    errors = tuple(int(e) for e in np.count_nonzero(kind != RIGHT, axis=0))
    network_errors = int(np.count_nonzero((kind != RIGHT).any(axis=1)))
    return NetworkSimResult(
        trials=trials,
        receiver_errors=errors,
        receiver_p_e=tuple(e / trials for e in errors),
        receiver_ci95=tuple(wilson_interval(e, trials) for e in errors),
        network_errors=network_errors,
        network_p_e=network_errors / trials,
        network_ci95=wilson_interval(network_errors, trials),
        receiver_ambiguous=tuple(int(a) for a in np.count_nonzero(kind == TIE, axis=0)),
        receiver_dependent=tuple(int(d) for d in np.count_nonzero(outcomes & DEPENDENT, axis=0)),
    )


def mod_interval_formula(x):
    """``lia.modarith.mod_interval`` as the formula it computes, one temporary per step."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("mod_interval requires finite values")
    r = arr - L * np.floor(arr / L + 0.5)
    r = np.where(r >= HALF_L, r - L, r)
    r = np.where(r < -HALF_L, r + L, r)
    return r


def omega_breakdown(p, gamma, snr) -> tuple[float, float, float]:
    """(omega_a, omega_b, omega_d) for a single prime (delta by direct enumeration);
    omega_b is also the case-c term."""
    _require_positive_snr(snr)
    c, tail, sq = _snr_terms(snr)
    pf = np.asarray([float(p)])
    oa, ob = _omega_arrays(pf, np.asarray([float(delta(p, gamma))]), c, tail, sq)
    with np.errstate(invalid="ignore"):  # a zero offset; the search never passes one
        od = _omega_d(pf, ob, float(mod_quarter_interval(gamma)), c, tail)
    return float(oa[0]), float(ob[0]), float(od[0])


def rate_for_p(p, gamma, snr) -> float:
    """Rate bound at a fixed prime; 0 when p is inadmissible or the bound is negative."""
    _require_positive_snr(snr)
    if not admissible_mask(np.asarray([p]), gamma, snr)[0]:
        return 0.0
    oa, ob, _ = omega_breakdown(p, gamma, snr)
    return max(0.0, float(_rate_from_omegas(np.asarray([oa]), np.asarray([ob]))[0]))


def _scan_primes(gamma, snr, p_max):
    """Rates and omega terms over every prime <= p_max (staircase delta)."""
    primes = primes_up_to(p_max)
    if primes.size == 0:
        return None
    pf = primes.astype(float)
    dlt = delta_for_primes(gamma, primes)
    off = float(mod_quarter_interval(gamma))
    c, tail, sq = _snr_terms(snr)
    oa, ob = _omega_arrays(pf, dlt, c, tail, sq)
    with np.errstate(invalid="ignore"):  # a zero offset once c overflows; never admissible
        od = _omega_d(pf, ob, off, c, tail)
    rates = _rate_from_omegas(oa, ob)
    mask = admissible_mask(primes, gamma, snr)
    # fmax: a NaN rate (delta = 0 once 1.5 * SNR overflows) scores 0, as omega_b = inf does
    rates = np.where(mask, np.fmax(rates, 0.0), 0.0)
    return primes, rates, oa, ob, od


def best_prime_oracle(gains, snr, p_max=None):
    """``rates._best_primes`` at one row (gains, snr) by evaluating every prime <=
    p_max: the max over primes of the smallest rate over ``gains``, ties to the
    smallest prime and then to the first gain."""
    if p_max is None:
        p_max = default_p_max(snr)
    scans = [_scan_primes(g, snr, p_max) for g in gains]
    if scans[0] is None:
        return RatePoint(gains[0], snr, None, 0.0, None, None, None)
    overall = scans[0][1]
    for scan in scans[1:]:
        overall = np.minimum(overall, scan[1])
    i = int(np.argmax(overall))
    if overall[i] <= 0.0:
        return RatePoint(gains[0], snr, None, 0.0, None, None, None)
    j = next(j for j, scan in enumerate(scans) if scan[1][i] == overall[i])
    primes, _, oa, ob, od = scans[j]
    return RatePoint(
        gains[j], snr, int(primes[i]), float(overall[i]), float(oa[i]), float(ob[i]), float(od[i])
    )


def schedule_rate_loop(H, snr, p_max=None):
    """3/4 of the worst step rate at one SNR, each step through ``theorem1_rate`` in
    order until a step rate is 0; a reached step whose SNR overflows is refused."""
    sched = H if isinstance(H, Schedule) else build_schedule(H)
    worst = math.inf
    for step in sched.steps:
        step_snr = float(snr) * float(step.snr_mult)  # Python floats overflow to inf quietly
        if math.isinf(step_snr) and math.isfinite(snr):
            raise ValueError(f"power-time step SNR overflows at '{step.label}'")
        worst = min(worst, theorem1_rate(step.gamma_eff, step_snr, p_max).rate)
        if worst == 0.0:
            break
    return SYMBOL_RATE * worst
