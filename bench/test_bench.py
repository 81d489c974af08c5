"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import run
import tracer
from workloads import N_CASES, WORKLOADS, invocations

sys.path.insert(0, str(run.ROOT / "src"))

import lia.cli  # noqa: E402


@pytest.fixture(scope="module")
def reference():
    return run.load_reference()


@pytest.fixture(autouse=True)
def build_dirs():
    for sub in ("out", "trace"):
        (run.BUILD / sub).mkdir(parents=True, exist_ok=True)


def _dof_scan(reference, seed=0):
    invs = invocations("analytic", seed)
    i = [inv.label for inv in invs].index("dof-scan")
    return invs[i], run.expected_outputs(reference, "analytic", seed)[i]


def test_matching_output_passes(reference):
    inv, expected = _dof_scan(reference)
    assert run.run_invocation(inv, expected, "test-ok")["ok"]


@pytest.mark.parametrize("field", ["sha256", "bytes"])
def test_corrupted_reference_is_reported_as_failure(reference, field):
    """Negative control: a reference that differs from the output must fail."""
    inv, expected = _dof_scan(reference)
    corrupted = dict(expected)
    corrupted[field] = "0" * 64 if field == "sha256" else expected["bytes"] + 1
    assert not run.run_invocation(inv, corrupted, "test-corrupt")["ok"]


def test_traced_run_matches_reference_and_stays_in_its_layers(reference):
    inv, expected = _dof_scan(reference)
    spans_path = run.BUILD / "trace" / "test-dof.json"
    sample = run.run_invocation(inv, expected, "test-traced", spans_path)
    assert sample["ok"]
    record = json.loads(spans_path.read_text())
    assert record["missing"] == []
    stats = tracer.span_stats(record["spans"])
    assert stats["cli.main"]["calls"] == 1
    assert stats["rates.theorem1_rate"]["calls"] > 0
    assert not any(name.startswith(("macsim.", "codes.")) for name in stats)


def test_tracer_patches_every_lookup_site():
    from lia import codes, diophantine, macsim, modarith, network, powertime, rates

    sites = [
        (diophantine, "delta_for_primes"), (rates, "delta_for_primes"),
        (modarith, "mod_interval"), (macsim, "mod_interval"), (codes, "mod_interval"),
        (network, "mod_interval"), (lia, "mod_interval"),
        (codes, "encode"), (network, "encode"), (macsim, "encode"),
        (rates, "theorem1_rate"), (powertime, "theorem1_rate"),
    ]
    originals = [getattr(module, name) for module, name in sites]
    methods = (macsim.PairDecoder.__init__, macsim.PairDecoder.decode)
    t = tracer.Tracer()
    t.install("lia", tracer.lia_targets())
    try:
        assert t.missing == []
        for (module, name), original in zip(sites, originals):
            assert getattr(module, name).__wrapped__ is original, f"{module.__name__}.{name}"
        # the network module reaches the decoder through its own binding of the class
        assert network.PairDecoder.decode.__wrapped__ is methods[1]
        assert network.PairDecoder.__init__.__wrapped__ is methods[0]
    finally:
        t.uninstall()
    assert [getattr(module, name) for module, name in sites] == originals
    assert (macsim.PairDecoder.__init__, macsim.PairDecoder.decode) == methods


def test_worker_thread_spans_nest_under_the_submitting_span():
    t = tracer.Tracer()

    def count(c, args, kwargs, result):
        c["n"] = c.get("n", 0) + 1

    inner = t.wrap("inner", lambda: time.sleep(0.05), count)

    def fan_out():
        with ThreadPoolExecutor(max_workers=2) as pool:
            for f in [pool.submit(inner) for _ in range(4)]:
                f.result()

    outer = t.wrap("outer", fan_out)
    outer()
    spans = t.spans()
    (outer_span,) = [s for s in spans if s[0] == "outer"]
    assert all(s[4] == outer_span[3] for s in spans if s[0] == "inner")
    stats = tracer.span_stats(spans)
    assert stats["inner"]["calls"] == 4
    assert stats["outer"]["total_s"] >= 0.1
    # two overlapping workers cover the whole interval; a per-span sum would
    # subtract twice the time and go negative
    assert 0.0 <= stats["outer"]["self_s"] < 0.03
    assert t.counters()["inner"]["n"] == 4


def test_seed_picks_a_documented_case():
    for workload in WORKLOADS:
        assert invocations(workload, 3) == invocations(workload, 3 + N_CASES)
    assert invocations("mac-decode", 3) != invocations("mac-decode", 4)
    assert invocations("analytic", 3)[0] != invocations("analytic", 4)[0]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "analytic", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
