"""The benchmark's workloads: README CLI commands, drawn from a workload seed.

Each workload is a list of ``python -m lia`` invocations run one after
another.  The workload seed picks one of ``N_CASES`` documented cases
(``seed % N_CASES``); a case fixes every simulation's ``--seed`` and
``--code-seed`` and the offset of the analytic gamma grid, so the same seed
always gives the same inputs and every case has stored reference outputs.

Paths are relative to the checkout root, because the CLI echoes them in its
``# args:`` line and the reference outputs must not depend on where the
checkout lives.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

N_CASES = 16
CHANNEL5 = "src/lia/data/channel5_h0707.txt"
H3 = "bench/data/h3.txt"
MAC_GAMMA = "0.707106781"

WORKLOADS = ("analytic", "mac-decode", "trial-engine")


@dataclass(frozen=True)
class Invocation:
    """One CLI run.  ``argv`` follows ``python -m lia``.

    ``items`` is the work it completes: trials for a simulation, expected CSV
    data rows for a rate command.  ``reference_argv`` is the serial command
    whose stdout this one must reproduce (it differs only by ``--workers``).
    """

    label: str
    argv: tuple[str, ...]
    items: int

    @property
    def reference_argv(self) -> tuple[str, ...]:
        argv = list(self.argv)
        if "--workers" in argv:
            i = argv.index("--workers")
            del argv[i : i + 2]
        return tuple(argv)

    @property
    def simulates(self) -> bool:
        return self.argv[0] == "mac-sim" or "--simulate" in self.argv

    def option(self, flag: str) -> str:
        return self.argv[self.argv.index(flag) + 1]


def case_of(seed: int) -> int:
    return seed % N_CASES


def _seeds(case: int, count: int) -> list[int]:
    rng = random.Random(case)
    return [rng.randrange(1, 1_000_000) for _ in range(count)]


def _mac_sim(label, snr_db, p, n, k, trials, seed, code_seed) -> Invocation:
    argv = (
        "mac-sim", "--gamma", MAC_GAMMA, "--snr-db", str(snr_db), "--p", str(p),
        "--n", str(n), "--k", str(k), "--trials", str(trials),
        "--seed", str(seed), "--code-seed", str(code_seed),
    )
    return Invocation(label, argv, trials)


def _network_sim(label, trials, seed, code_seed, workers) -> Invocation:
    argv = (
        "network", "--channel", CHANNEL5, "--snr-db", "40", "--simulate",
        "--p", "5", "--n", "8", "--k", "2", "--trials", str(trials),
        "--seed", str(seed), "--code-seed", str(code_seed), "--workers", str(workers),
    )
    return Invocation(label, argv, trials)


def invocations(workload: str, seed: int) -> list[Invocation]:
    """The workload's CLI runs for one workload seed, in the order run."""
    case = case_of(seed)
    s = _seeds(case, 8)
    if workload == "analytic":
        # 499 gammas x 21 SNRs; the offset keeps every gamma inside (0, 1/2)
        offset = case * 0.001 / N_CASES
        gammas = f"{0.001 + offset:.7g}:{0.499 + offset:.7g}:0.001"
        return [
            Invocation("sweep", ("sweep", "--gamma", gammas, "--snr-db", "0:200:10"), 499 * 21),
            Invocation("network-curves", ("network", "--channel", CHANNEL5, "--snr-db", "0:200:1"), 201),
            Invocation("power-time", ("power-time", "--channel", H3, "--snr-db", "20:200:1"), 181),
            Invocation("dof-scan", ("dof-scan", "--gamma", "707/1000", "--snr-db", "10:200:1"), 191),
        ]
    if workload == "mac-decode":
        return [
            _mac_sim("mac-p7-n16", 15, 7, 16, 3, 100, s[0], s[1]),
            _mac_sim("mac-p11-n8", 30, 11, 8, 3, 6, s[2], s[3]),
        ]
    if workload == "trial-engine":
        return [
            _network_sim("network-serial", 3000, s[4], s[5], 1),
            _network_sim("network-workers2", 1000, s[4], s[5], 2),
            _mac_sim("mac-p5-n32", 30, 5, 32, 2, 4000, s[6], s[7]),
        ]
    raise ValueError(f"unknown workload {workload!r}")
