"""Build one workload's inputs through lia's public calls, then exit.

The benchmark times this script as a fresh interpreter to measure set-up:
importing ``lia`` plus what a workload needs before its first rate point or
trial (prime sieve, channel files, power-time schedule, codes, decoder
tables).

    python3 bench/setup_inputs.py WORKLOAD SEED
"""

from __future__ import annotations

import sys

from workloads import H3, invocations


def _read_real_matrix(path: str) -> list[list[float]]:
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.split() for ln in fh if ln.strip()]
    return [[float(tok) for tok in row] for row in lines[1:]]


def build(workload: str, seed: int) -> list:
    import lia
    from lia.rates import PRIME_SEARCH_CAP

    built = []
    for inv in invocations(workload, seed):
        if inv.argv[0] in ("sweep", "dof-scan"):
            built.append(lia.primes_up_to(PRIME_SEARCH_CAP))
        elif inv.argv[0] == "power-time":
            built.append(lia.build_schedule(_read_real_matrix(H3)))
        elif inv.argv[0] == "network":
            H = lia.load_channel_file(inv.option("--channel"))
            built.append(H)
            if "--simulate" in inv.argv:
                code = lia.sample_code(*(int(inv.option(f)) for f in ("--p", "--n", "--k", "--code-seed")))
                built.extend(lia.PairDecoder(code, g) for g in set(H.direct))
        elif inv.argv[0] == "mac-sim":
            code = lia.sample_code(*(int(inv.option(f)) for f in ("--p", "--n", "--k", "--code-seed")))
            built.append(lia.PairDecoder(code, lia.parse_gain(inv.option("--gamma"))))
        else:
            raise ValueError(f"no set-up rule for {inv.argv[0]!r}")
    return built


if __name__ == "__main__":
    build(sys.argv[1], int(sys.argv[2]))
