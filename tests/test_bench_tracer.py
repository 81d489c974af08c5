"""The benchmark's traced run, checked from tier 1 on the simulation commands.

bench/tracer.py hooks ``lia`` from outside the package, by name; a refactor
that renames or reshapes what it hooks breaks only the traced benchmark.
Here its own targets are installed on ``lia.cli.main`` in process: each must
be found, no counter may raise, and stdout must be the untraced run's.
"""

import importlib.util
from pathlib import Path

import pytest

import lia.cli
from lia import macsim

ROOT = Path(__file__).resolve().parents[1]
SIM = ("--snr-db", "10", "--p", "5", "--n", "8", "--trials", "60", "--seed", "3",
       "--code-seed", "1")
# every cross gain a multiple of p = 5: each receiver decodes alone
ALONE_CHANNEL = "3\n0.7 5 0\n0 0.5 -10\n10 0 0.3\n"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "command, k, decoders, pairs",
    [("mac-sim", "2", 1, 24 * 20), ("alone", "2", 3, 3 * 25), ("alone", "1", 3, 3 * 5)],
    ids=["mac-sim", "network-alone", "network-alone-k1"],
)
def test_traced_simulation_prints_the_untraced_bytes(
    tracer, capsys, tmp_path, command, k, decoders, pairs
):
    if command == "mac-sim":
        argv = ["mac-sim", "--gamma", "0.707106781", *SIM, "--k", k]
    else:
        channel = tmp_path / "alone.txt"
        channel.write_text(ALONE_CHANNEL)
        argv = ["network", "--channel", str(channel), "--simulate", *SIM, "--k", k]
    assert lia.cli.main(argv) == 0
    plain = capsys.readouterr()
    build = macsim.PairDecoder.__init__
    traced = tracer.Tracer()
    traced.install("lia", tracer.lia_targets())
    try:
        rc = lia.cli.main(argv)
    finally:
        traced.uninstall()
    assert macsim.PairDecoder.__init__ is build  # unpatched again
    out = capsys.readouterr()
    assert traced.missing == []
    assert rc == 0 and out.out == plain.out and out.err == plain.err == ""
    stats = tracer.span_stats(traced.spans())
    counters = traced.counters()
    assert stats["cli.main"]["calls"] == 1
    assert stats["macsim.PairDecoder.build"]["calls"] == decoders
    assert counters["macsim.PairDecoder.build"]["pairs"] == pairs
    run = "macsim.estimate_error_prob" if command == "mac-sim" else "network.simulate_network"
    assert counters[run] == {"trials": 60}
