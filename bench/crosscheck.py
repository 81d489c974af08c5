"""Re-measure the reference timings quoted in ROADMAP.md, item 1, with this harness.

Prints a markdown table: each run, the quoted time and the time measured
here (median of three fresh processes, one for the 500-trial run).

    python3 bench/crosscheck.py
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import numpy as np

import run
from tracer import span_stats

CHANNEL = "src/lia/data/channel5_h0707.txt"
ROWS = [
    ("`mac-sim` p=5 n=32 k=2, 2000 trials", "1.27 s", 3,
     "mac-sim --gamma 0.707106781 --snr-db 30 --p 5 --n 32 --k 2 --trials 2000 --seed 1"),
    ("`mac-sim` p=7 n=16 k=3, 500 trials", "18.7 s", 1,
     "mac-sim --gamma 0.707106781 --snr-db 15 --p 7 --n 16 --k 3 --trials 500 --seed 1"),
    ("`network --simulate`, 1000 trials, serial", "1.25 s", 3,
     f"network --channel {CHANNEL} --snr-db 40 --simulate --p 5 --n 8 --k 2 --trials 1000 --seed 1"),
    ("`network --simulate`, 1000 trials, `--workers 2`", "1.86 s", 3,
     f"network --channel {CHANNEL} --snr-db 40 --simulate --p 5 --n 8 --k 2 --trials 1000 --seed 1 --workers 2"),
    ("`sweep` 49×3", "0.27 s", 3, "sweep --gamma 0.01:0.49:0.01 --snr-db 20,30,40"),
]


def _wall(argv: list[str], repeats: int) -> float:
    out, err = run.BUILD / "out" / "crosscheck.stdout", run.BUILD / "out" / "crosscheck.stderr"
    walls = []
    for _ in range(repeats):
        wall, _, _, code = run.spawn(argv, out, err)
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited {code}")
        walls.append(wall)
    return statistics.median(walls)


def _decode_ms() -> str:
    spans_path = run.BUILD / "trace" / "crosscheck.json"
    argv = "mac-sim --gamma 0.707106781 --snr-db 15 --p 7 --n 16 --k 3 --trials 100 --seed 1".split()
    _wall([str(run.BENCH / "tracer.py"), str(spans_path), "--", *argv], 1)
    durations = sorted(span_stats(json.loads(spans_path.read_text())["spans"])["macsim.PairDecoder.decode"]["durations"])
    return f"{1e3 * durations[len(durations) // 10]:.0f}–{1e3 * durations[9 * len(durations) // 10]:.0f} ms (p10–p90)"


def _draws_us(trials: int = 20000) -> float:
    t0 = time.perf_counter()
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(1, spawn_key=(t,)))
        rng.integers(0, 7, size=3)
        rng.integers(0, 7, size=3)
        rng.normal(0.0, 0.1, size=16)
    return 1e6 * (time.perf_counter() - t0) / trials


def main() -> int:
    for sub in ("out", "trace"):
        (run.BUILD / sub).mkdir(parents=True, exist_ok=True)
    print("| run | ROADMAP | this harness |")
    print("| --- | --- | --- |")
    for label, quoted, repeats, cli in ROWS:
        print(f"| {label} | {quoted} | {_wall(['-m', 'lia', *cli.split()], repeats):.2f} s |", flush=True)
    print(f"| decode alone, p=7 n=16 k=3 | 34–43 ms per trial | {_decode_ms()} |")
    print(f"| substream + draws | 35 µs per trial | {_draws_us():.0f} µs |")
    print(f"| `import lia` | 0.22 s | {_wall(['-c', 'import lia'], 5):.2f} s |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
