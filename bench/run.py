"""Benchmark of the ``lia`` command line, end to end and layer by layer.

Each workload (see ``workloads.py``) is a list of README CLI commands run as
fresh ``python -m lia`` processes, import included, one after another from
this single parent process: a closed loop with one client.  Every
invocation's stdout is checked byte for byte (by SHA-256) against the
stored reference for the workload seed's case.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all            # every workload in turn
    python3 bench/run.py --write-reference         # regenerate reference.json

``--trace 0`` measures set-up, then repeats whole workload passes until
``--seconds`` have elapsed and reports the end-to-end metrics.  ``--trace 1``
alternates untraced passes with traced ones (each command run in-process
under ``tracer.py``) and reports per-layer metrics.  The last stdout line
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
A full record with machine information goes to ``.bench_build/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import sys
import threading
import time
from pathlib import Path

from tracer import span_stats
from workloads import N_CASES, WORKLOADS, case_of, invocations

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
BUILD = ROOT / ".bench_build"
REFERENCE = BENCH / "reference.json"
CHILD_TIMEOUT_S = 150.0
SETUP_REPEATS = 5

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}

_LAYER_STATS = {
    "macsim.PairDecoder.decode": (
        "calls", "self_s", "total_s", "p50_s", "tail_s", "pairs_scored", "ambiguous", "bytes_computed"),
    "modarith.mod_interval": ("calls", "self_s", "elems"),
    "macsim.PairDecoder.build": ("calls", "total_s", "pairs", "table_bytes"),
    "macsim.estimate_error_prob": ("self_s", "trials"),
    "network.simulate_network": ("self_s", "trials"),
    "codes.encode": ("calls", "self_s"),
    "codes.messages_dependent": ("calls", "self_s", "dependent"),
    "macsim.mod_mac_channel": ("calls", "self_s"),
    "diophantine.primes_up_to": ("calls", "self_s", "distinct_limits"),
    "diophantine.delta_for_primes": ("calls", "self_s", "primes"),
    "diophantine.admissible_mask": ("calls", "self_s", "primes", "admissible"),
    "rates.theorem1_rate": ("calls", "self_s"),
    "rates.theorem2_sym_rate": ("calls", "self_s"),
    "powertime.schedule_rate": ("calls", "self_s"),
    "network.sum_rate_curves": ("self_s",),
    "cli.main": ("calls", "self_s"),
}
_TIME_STATS = ("self_s", "total_s", "p50_s", "tail_s")
PER_LAYER = {
    f"{layer}.{stat}": ("s" if stat in _TIME_STATS else "bytes" if "bytes" in stat else "count")
    for layer, stats in _LAYER_STATS.items()
    for stat in stats
}
PER_LAYER["cli.import_s"] = "s"
PER_LAYER["trace.overhead_s"] = "s"


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict[str, str]:
    """Environment of every child: this checkout's lia, one BLAS/OpenMP thread.

    Bytecode is always cached, and only inside the build directory, so import
    cost does not depend on the caller's environment or on write access to
    the interpreter's own files.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONPYCACHEPREFIX=str(BUILD / "pycache"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def spawn(argv: list[str], stdout_path: Path, stderr_path: Path) -> tuple[float, float, float, int]:
    """Run a child to completion: (wall_s, cpu_s, maxrss_mb, exit code).

    A child still running after CHILD_TIMEOUT_S is killed.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr_path), flags, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], child_env(), file_actions=actions)
    killer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, os.waitstatus_to_exitcode(status)


def load_reference(path: Path = REFERENCE) -> dict:
    with open(path, "r", encoding="ascii") as fh:
        return json.load(fh)


def expected_outputs(reference: dict, workload: str, seed: int) -> list[dict]:
    """Reference entries for the seed's case, checked against the workload."""
    entries = reference["cases"][str(case_of(seed))][workload]
    invs = invocations(workload, seed)
    if [e["argv"] for e in entries] != [list(inv.reference_argv) for inv in invs]:
        raise BenchError(f"reference.json does not match the {workload} commands; regenerate it")
    return entries


def run_invocation(inv, expected: dict, tag: str, spans_path: Path | None = None) -> dict:
    """Run one CLI command (traced when ``spans_path`` is given) and check it."""
    out_path = BUILD / "out" / f"{tag}.stdout"
    err_path = BUILD / "out" / f"{tag}.stderr"
    if spans_path is None:
        argv = ["-m", "lia", *inv.argv]
    else:
        spans_path.unlink(missing_ok=True)
        argv = [str(BENCH / "tracer.py"), str(spans_path), "--", *inv.argv]
    wall, cpu, rss, code = spawn(argv, out_path, err_path)
    stdout = out_path.read_bytes()
    digest = hashlib.sha256(stdout).hexdigest()
    ok = code == 0 and digest == expected["sha256"] and len(stdout) == expected["bytes"]
    if not ok:
        print(f"# FAILED {inv.label}: exit {code}, stdout sha256 {digest[:12]} "
              f"({len(stdout)} bytes), expected {expected['sha256'][:12]} "
              f"({expected['bytes']} bytes); stderr in {err_path}", file=sys.stderr)
    return {"label": inv.label, "wall_s": wall, "cpu_s": cpu, "rss_mb": rss, "ok": ok, "items": inv.items}


def run_pass(invs, expected, tag: str, traced: bool = False, deadline: float | None = None):
    """One workload pass: (samples, trace records when traced).

    With a ``deadline`` (a ``perf_counter`` value) no command starts after it.
    """
    samples, records = [], []
    for i, (inv, exp) in enumerate(zip(invs, expected)):
        if deadline is not None and time.perf_counter() >= deadline:
            break
        spans_path = BUILD / "trace" / f"{tag}-{i}.json" if traced else None
        samples.append(run_invocation(inv, exp, f"{tag}-{i}", spans_path))
        if traced and spans_path.exists():
            with open(spans_path, "r", encoding="ascii") as fh:
                records.append(json.load(fh))
    return samples, records


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters building the workload's inputs."""
    times = []
    for i in range(SETUP_REPEATS):
        tag = f"setup-{workload}-{i}"
        wall, _, _, code = spawn(
            [str(BENCH / "setup_inputs.py"), workload, str(seed)],
            BUILD / "out" / f"{tag}.stdout", BUILD / "out" / f"{tag}.stderr")
        if code != 0:
            raise BenchError(f"set-up for {workload} exited {code}; see .bench_build/out/{tag}.stderr")
        times.append(wall)
    return statistics.median(times)


def _by_label(passes: list[list[dict]], key: str) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for samples in passes:
        for s in samples:
            out.setdefault(s["label"], []).append(s[key])
    return out


def end_to_end_metrics(passes: list[list[dict]], setup_s: float) -> dict[str, float]:
    """Whole-workload figures from per-command medians over the passes."""
    wall = sum(statistics.median(v) for v in _by_label(passes, "wall_s").values())
    cpu = sum(statistics.median(v) for v in _by_label(passes, "cpu_s").values())
    rss = max(statistics.median(v) for v in _by_label(passes, "rss_mb").values())
    items = sum(s["items"] for s in passes[0])
    return {"wall_s": wall, "cpu_s": cpu, "setup_s": setup_s, "items_per_s": items / wall, "peak_rss_mb": rss}


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _tail_quantile(n: int) -> float:
    """Highest quantile with at least ten samples beyond it, in [0.5, 0.999]."""
    return max(0.5, min(0.999, 1.0 - 10.0 / n))


def layer_metrics(traced: list[list[dict]], untraced_walls: list[float], traced_walls: list[float]) -> dict:
    """Per-layer metrics: times are medians over traced passes, counts repeat."""
    per_pass, durations = [], {}
    for records in traced:
        spans = [s for r in records for s in r["spans"]]
        stats = span_stats(spans)
        counters: dict[str, dict] = {}
        for r in records:
            for name, values in r["counters"].items():
                into = counters.setdefault(name, {})
                for k, v in values.items():
                    into[k] = into.get(k, 0) + v
        per_pass.append((stats, counters, sum(r["import_s"] for r in records)))
        for name, s in stats.items():
            durations.setdefault(name, []).extend(s["durations"])

    metrics = {}
    for layer, stats in _LAYER_STATS.items():
        for stat in stats:
            if stat in ("self_s", "total_s"):
                value = statistics.median(p[0].get(layer, {}).get(stat, 0.0) for p in per_pass)
            elif stat in ("p50_s", "tail_s"):
                d = durations.get(layer, [])
                value = _percentile(d, 0.5 if stat == "p50_s" else _tail_quantile(len(d))) if d else 0.0
            elif stat == "calls":
                value = per_pass[0][0].get(layer, {}).get("calls", 0)
            else:
                value = per_pass[0][1].get(layer, {}).get(stat, 0)
            metrics[f"{layer}.{stat}"] = value
    missing = sorted({name for records in traced for r in records for name in r["missing"]})
    if missing:
        print(f"# not in this lia, reported as 0: {', '.join(missing)}", file=sys.stderr)
    metrics["cli.import_s"] = statistics.median(p[2] for p in per_pass)
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    return metrics


def machine_info() -> dict:
    info = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or "unknown",
        "python": platform.python_version(),
        "numpy": "unknown",
        "commit": "unknown",
    }
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        info["numpy"] = numpy.__version__
    except ImportError:
        pass
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                ref = ref_file.read_text().strip()
            else:
                packed = ROOT / ".git" / "packed-refs"
                lines = packed.read_text().splitlines() if packed.is_file() else []
                ref = next((ln.split()[0] for ln in lines if ln.endswith(" " + ref[5:])), "unknown")
        info["commit"] = ref
    return info


def run_workload(workload: str, seed: int, seconds: float, trace: bool, reference: dict) -> dict:
    invs = invocations(workload, seed)
    expected = expected_outputs(reference, workload, seed)
    # fill the bytecode cache before anything is timed
    spawn(["-c", "import runpy, json, types, lia.cli"], BUILD / "out" / "warmup.stdout", BUILD / "out" / "warmup.stderr")

    passes, traced, untraced_walls, traced_walls = [], [], [], []
    setup_s = None if trace else measure_setup(workload, seed)
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        n = len(passes)
        if not trace:
            # the first pass is whole; later ones stop at the deadline
            samples, _ = run_pass(invs, expected, f"{workload}-{n}", deadline=deadline if passes else None)
            passes.append(samples)
            continue
        # an untraced and a traced pass, both whole
        samples, _ = run_pass(invs, expected, f"{workload}-{n}")
        passes.append(samples)
        untraced_walls.append(sum(s["wall_s"] for s in samples))
        samples, records = run_pass(invs, expected, f"{workload}-{n}-traced", traced=True)
        passes.append(samples)
        traced.append(records)
        traced_walls.append(sum(s["wall_s"] for s in samples))

    attempted = sum(len(p) for p in passes)
    failed = sum(not s["ok"] for p in passes for s in p)
    if trace:
        if not traced or any(len(r) != len(invs) for r in traced):
            raise BenchError("a traced command wrote no spans")
        values = layer_metrics(traced, untraced_walls, traced_walls)
        units = PER_LAYER
    else:
        values = end_to_end_metrics(passes, setup_s)
        units = END_TO_END
    return {
        "workload": workload,
        "seed": seed,
        "case": case_of(seed),
        "trace": int(trace),
        "passes": len(passes),
        "failed_frac": failed / attempted,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        },
        "samples": passes,
    }


def write_reference() -> None:
    """Run every case's commands serially once and store their stdout digests."""
    cases = {}
    for case in range(N_CASES):
        cases[str(case)] = {}
        for workload in WORKLOADS:
            entries = []
            for inv in invocations(workload, case):
                tag = f"reference-{case}-{workload}-{inv.label}"
                out_path = BUILD / "out" / f"{tag}.stdout"
                _, _, _, code = spawn(["-m", "lia", *inv.reference_argv], out_path, BUILD / "out" / f"{tag}.stderr")
                stdout = out_path.read_bytes()
                if code != 0:
                    raise BenchError(f"{tag} exited {code}")
                rows = stdout.count(b"\n") - 2
                if not inv.simulates and rows != inv.items:
                    raise BenchError(f"{tag} printed {rows} rows, expected {inv.items}")
                entries.append({
                    "label": inv.label,
                    "argv": list(inv.reference_argv),
                    "sha256": hashlib.sha256(stdout).hexdigest(),
                    "bytes": len(stdout),
                })
            cases[str(case)][workload] = entries
            print(f"# case {case} {workload}: {len(entries)} references", flush=True)
    with open(REFERENCE, "w", encoding="ascii") as fh:
        json.dump({"machine": machine_info(), "cases": cases}, fh, indent=1)
        fh.write("\n")


def report(run: dict) -> None:
    """Human-readable lines for one workload run."""
    res = run["result"]
    print(f"# {run['workload']} seed {run['seed']} (case {run['case']}) trace {run['trace']}: "
          f"{run['passes']} passes, failed_frac {run['failed_frac']:g} ({res['failed']}/{res['attempted']})")
    for name, m in res["metrics"].items():
        print(f"#   {name} = {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    try:
        if not (ROOT / "src" / "lia" / "__init__.py").is_file():
            raise BenchError(f"no lia package under {ROOT / 'src'}; run from a full checkout")
        for sub in ("out", "trace", "results", "pycache"):
            (BUILD / sub).mkdir(parents=True, exist_ok=True)
        if args.write_reference:
            write_reference()
            return 0
        reference = load_reference()
        info = machine_info()
        print("# machine: " + json.dumps(info, sort_keys=True))
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        runs = []
        for workload in workloads:
            run = run_workload(workload, args.seed, args.seconds, bool(args.trace), reference)
            run["machine"] = info
            path = BUILD / "results" / f"{workload}-seed{args.seed}-trace{args.trace}.json"
            with open(path, "w", encoding="ascii") as fh:
                json.dump(run, fh, indent=1)
            report(run)
            runs.append(run)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    if len(runs) == 1:
        result = runs[0]["result"]
    else:
        result = {
            "correct": all(r["result"]["correct"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "metrics": {f"{r['workload']}.{k}": m for r in runs for k, m in r["result"]["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
