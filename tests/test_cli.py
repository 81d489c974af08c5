import hashlib
import json
import math
import os
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from lia.cli import (
    _GRID_POINTS_CAP,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_USAGE,
    _parse_value_grid,
    _UsageError,
    main,
)
import oracles
from lia.network import bundled_channel_path, parse_real_matrix_text
from lia.rates import PRIME_SEARCH_CAP, db_to_linear

ROOT = Path(__file__).resolve().parents[1]
HUGE_FRACTION = "1" + "0" * 400 + "/1"
CHANNEL5 = str(bundled_channel_path())
CHANNEL3 = str(ROOT / "bench" / "data" / "h3.txt")


def child_env(**extra):
    """Environment for a `python -m lia` child that imports this checkout's src."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return env


def run_cli(capsys, *tokens):
    code = main(list(tokens))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rerun_from_header(capsys, output, extra=()):
    """Feed the '# args:' line back through the CLI; outputs must match."""
    header = output.splitlines()[0]
    assert header.startswith("# args: ")
    tokens = shlex.split(header[len("# args: ") :])
    return run_cli(capsys, *tokens, *extra)


@pytest.fixture
def channel3(tmp_path):
    path = tmp_path / "h3.txt"
    path.write_text("3\n1.4142 0.9 2.2361\n2.6458 1.6583 1.2019\n1.0308 4.3589 1.5986\n")
    return str(path)


class TestRate:
    def test_basic_line(self, capsys):
        code, out, _ = run_cli(
            capsys, "rate", "--gamma", "0.4", "--snr-db", "20", "--p-max", "101"
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "# args: rate --gamma 0.4 --snr-db 20 --p-max 101"
        assert lines[1] == "gamma,snr_db,p_star,rate_lin,rate_rand,r_norm"
        fields = lines[2].split(",")
        assert fields[0] == "0.4" and fields[1] == "20"
        assert 0.0 <= float(fields[5]) <= 1.0

    def test_fraction_gain_saturates(self, capsys):
        code, out, _ = run_cli(capsys, "rate", "--gamma", "1/3", "--snr-db", "200")
        assert code == EXIT_OK
        rate = float(out.splitlines()[2].split(",")[2 + 1])
        assert 0.0 < rate < math.log2(3)

    def test_empty_admissible_set_blank_p_star(self, capsys):
        code, out, _ = run_cli(capsys, "rate", "--gamma", "0.5", "--snr-db", "40")
        fields = out.splitlines()[2].split(",")
        assert fields[2] == "" and float(fields[3]) == 0.0

    def test_header_round_trip(self, capsys):
        _, out1, _ = run_cli(capsys, "rate", "--gamma", "0.37", "--snr-db", "33")
        _, out2, _ = rerun_from_header(capsys, out1)
        assert out1 == out2

    def test_bad_gain_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "rate", "--gamma", "x", "--snr-db", "20")
        assert code == EXIT_USAGE

    def test_overflowing_snr_is_precondition_error(self, capsys):
        code, _, err = run_cli(capsys, "rate", "--gamma", "0.4", "--snr-db", "4000")
        assert code == EXIT_PRECONDITION and "overflow" in err

    @pytest.mark.parametrize("gamma", ["1e308", "-1.7976931348623157e308", "1.7976931348623157e308"])
    def test_huge_float_gain(self, capsys, gamma):
        # 2 * gamma overflows; the exact reduction leaves an offset of 0, so
        # no prime is admissible
        code, out, _ = run_cli(capsys, "rate", f"--gamma={gamma}", "--snr-db", "30")
        assert code == EXIT_OK
        assert out.splitlines()[2].split(",")[2:4] == ["", "0"]
        code, out, _ = run_cli(capsys, "sweep", f"--gamma={gamma},0.3", "--snr-db", "30,300")
        assert code == EXIT_OK and len(out.splitlines()) == 6

    @pytest.mark.parametrize(
        "argv, row",
        [
            (["--gamma", "1e308", "--snr-db", "3081"], "1e308,3081,,0,511.743023,0"),
            (
                ["--gamma", "0.25", "--snr-db", "3081", "--p-max", "101"],
                "0.25,3081,3,1.5849625,255.893377,0.00619383947",
            ),
        ],
    )
    def test_no_warning_once_the_snr_overflows(self, argv, row):
        # 1.5 * SNR is inf above about 3080.8 dB, and inf * 0 must stay quiet
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "lia", "rate", *argv],
            env=child_env(), capture_output=True, timeout=120,
        )
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout.decode("ascii").splitlines()[1:] == [
            "gamma,snr_db,p_star,rate_lin,rate_rand,r_norm",
            row,
        ]


class TestSweep:
    def test_grid_and_bound(self, capsys, tmp_path):
        out_file = tmp_path / "fig1.csv"
        code, _, _ = run_cli(
            capsys,
            "sweep",
            "--gamma",
            "0.05:0.45:0.05",
            "--snr-db",
            "20,30,40",
            "--out",
            str(out_file),
        )
        assert code == EXIT_OK
        lines = out_file.read_text().splitlines()
        assert len(lines) == 2 + 9 * 3
        for ln in lines[2:]:
            assert float(ln.split(",")[5]) <= 1.0

    def test_gamma_list_with_fractions(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--gamma", "1/3,0.4", "--snr-db", "20")
        assert code == EXIT_OK
        rows = out.splitlines()[2:]
        assert rows[0].split(",")[0] == "1/3"
        assert rows[1].split(",")[0] == "0.4"

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_out_is_output_file_error(self, capsys, tmp_path, where):
        out = tmp_path / "missing" / "x.csv" if where == "missing-directory" else tmp_path
        code, stdout, err = run_cli(
            capsys, "sweep", "--gamma", "0.3", "--snr-db", "20", "--out", str(out)
        )
        assert code == EXIT_INPUT and not stdout
        assert err.startswith("lia: output file: ") and "Traceback" not in err

    def test_round_trip_to_file(self, capsys, tmp_path):
        _, out1, _ = run_cli(capsys, "sweep", "--gamma", "0.1,0.2", "--snr-db", "20,40")
        path = tmp_path / "redo.csv"
        code, _, _ = rerun_from_header(capsys, out1, extra=("--out", str(path)))
        assert code == EXIT_OK
        assert path.read_text() == out1


class TestMacSim:
    ARGS = (
        "mac-sim",
        "--gamma",
        "0.707106781186547",
        "--snr-db",
        "200",
        "--p",
        "3",
        "--n",
        "8",
        "--k",
        "2",
        "--trials",
        "60",
        "--seed",
        "5",
    )

    def test_csv_row(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[1] == "gamma,snr_db,p,n,k,trials,errors,p_e,ci_lo,ci_hi"
        fields = lines[2].split(",")
        assert int(fields[5]) == 60
        assert float(fields[8]) <= float(fields[7]) <= float(fields[9])

    def test_byte_identical_across_workers(self, capsys):
        _, out1, _ = run_cli(capsys, *self.ARGS, "--workers", "1")
        _, out2, _ = run_cli(capsys, *self.ARGS, "--workers", "3")
        assert out1 == out2

    def test_header_round_trip(self, capsys):
        _, out1, _ = run_cli(capsys, *self.ARGS)
        _, out2, _ = rerun_from_header(capsys, out1)
        assert out1 == out2

    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    def test_workers_below_one_usage_error(self, capsys, value):
        code, out, err = run_cli(capsys, *self.ARGS, "--workers", value)
        assert code == EXIT_USAGE and not out and "--workers" in err

    @pytest.mark.parametrize("flag", ["--seed", "--code-seed"])
    @pytest.mark.parametrize("value", ["-1", "1.5", "x"])
    def test_bad_seed_usage_error(self, capsys, flag, value):
        argv = [*self.ARGS, flag, value]
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE and not out and f"argument {flag}:" in err

    def test_oversized_decoder_table_precondition(self, capsys):
        big = list(self.ARGS)
        for flag, value in (("--p", "53"), ("--n", "256"), ("--k", "2")):
            big[big.index(flag) + 1] = value
        code, out, err = run_cli(capsys, *big)
        assert code == EXIT_PRECONDITION and not out and "cap" in err

    def test_output_independent_of_blas_threads(self):
        # the pair decoder scores with a matrix product, whose summation order
        # depends on the BLAS thread count; the decisions must not
        argv = [
            sys.executable, "-m", "lia", "mac-sim", "--gamma", "0.707106781",
            "--snr-db", "15", "--p", "7", "--n", "16", "--k", "3", "--trials", "40",
            "--seed", "3", "--code-seed", "5",
        ]
        outputs = []
        for threads in ("1", "2"):
            env = child_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            done = subprocess.run(argv, env=env, capture_output=True, timeout=120, check=True)
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].splitlines()[2].split(b",")[5] == b"40"

    @pytest.mark.parametrize("flag", ["--trials", "--n", "--k"])
    def test_count_below_one_usage_error(self, capsys, flag):
        bad = list(self.ARGS)
        bad[bad.index(flag) + 1] = "0"
        code, out, err = run_cli(capsys, *bad)
        assert code == EXIT_USAGE and not out and f"argument {flag}:" in err

    @pytest.mark.parametrize("flag, value", [("--p", "4"), ("--k", "9")])
    def test_composite_p_and_k_above_n_precondition(self, capsys, flag, value):
        bad = list(self.ARGS)
        bad[bad.index(flag) + 1] = value
        code, out, err = run_cli(capsys, *bad)
        assert code == EXIT_PRECONDITION and not out and err

    @pytest.mark.parametrize(
        "p, n, k, reason",
        [("1000000000000000003", "4", "2", "int64"), ("3", "1000000000", "1", "entries")],
    )
    def test_oversized_code_precondition(self, capsys, p, n, k, reason):
        # refused before the primality test and before the generator is drawn
        bad = list(self.ARGS)
        for flag, value in (("--p", p), ("--n", n), ("--k", k), ("--trials", "1")):
            bad[bad.index(flag) + 1] = value
        code, out, err = run_cli(capsys, *bad)
        assert code == EXIT_PRECONDITION and not out and reason in err


class TestNetwork:
    def test_rate_curves(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "network",
            "--channel",
            str(bundled_channel_path()),
            "--snr-db",
            "20,60",
            "--p-max",
            "1009",
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[1] == "snr_db,sum_rate_ia,sum_rate_ts,sum_rate_bench"
        assert len(lines) == 4

    def test_benchmark_finite_for_a_huge_direct_gain(self, capsys, tmp_path):
        path = tmp_path / "huge2.txt"
        path.write_text("2\n1e200 1\n1 0.5\n")
        code, out, _ = run_cli(capsys, "network", "--channel", str(path), "--snr-db", "20")
        assert code == EXIT_OK
        assert out.splitlines()[2].split(",")[3] == "667.707547"

    def test_simulation_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "network",
            "--channel",
            str(bundled_channel_path()),
            "--snr-db",
            "200",
            "--simulate",
            "--p",
            "5",
            "--n",
            "8",
            "--k",
            "2",
            "--trials",
            "30",
            "--seed",
            "3",
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[1] == "receiver,trials,errors,p_e,ci_lo,ci_hi"
        assert len(lines) == 2 + 5 + 1
        assert lines[-1].split(",")[0] == "net"

    @pytest.mark.parametrize("flag", ["--seed", "--code-seed"])
    def test_negative_seed_usage_error(self, capsys, flag):
        code, out, err = run_cli(
            capsys, "network", "--channel", str(bundled_channel_path()), "--snr-db", "20",
            "--simulate", "--p", "5", "--n", "8", "--k", "2", "--trials", "3", flag, "-2",
        )
        assert code == EXIT_USAGE and not out and f"argument {flag}:" in err

    @pytest.mark.parametrize("flag", ["--trials", "--n", "--k"])
    def test_count_below_one_usage_error(self, capsys, flag):
        argv = [
            "network", "--channel", str(bundled_channel_path()), "--snr-db", "20",
            "--simulate", "--p", "5", "--n", "8", "--k", "2", "--trials", "3",
        ]
        argv[argv.index(flag) + 1] = "0"
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE and not out and f"argument {flag}:" in err

    def test_missing_sim_params_usage(self, capsys):
        code, _, err = run_cli(
            capsys,
            "network",
            "--channel",
            str(bundled_channel_path()),
            "--snr-db",
            "200",
            "--simulate",
        )
        assert code == EXIT_USAGE and "--p" in err

    def test_missing_file_exit_3(self, capsys):
        code, _, err = run_cli(
            capsys, "network", "--channel", "/no/such/file", "--snr-db", "20"
        )
        assert code == EXIT_INPUT and err

    def test_malformed_file_exit_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2\n0.7 1.5\n2 0.7\n")  # rational off-diagonal
        code, _, err = run_cli(capsys, "network", "--channel", str(bad), "--snr-db", "20")
        assert code == EXIT_INPUT and "off-diagonal" in err

    @pytest.mark.parametrize(
        "text, reason",
        [("2\n0.7 100000000000000000000000\n1 0.7\n", "int64"), ("1\n0.7\n", "K must be")],
        ids=["overflowing-cross-gain", "one-user"],
    )
    def test_matrix_refused_by_channel_matrix_exit_3(self, capsys, tmp_path, text, reason):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        code, out, err = run_cli(capsys, "network", "--channel", str(bad), "--snr-db", "20")
        assert code == EXIT_INPUT and not out and reason in err

    def test_oversized_single_user_codebook_precondition(self, capsys, tmp_path):
        # nobody hears an interferer, so no pair decoder bounds the codebook:
        # 53**2 messages x 2000 components is above the codebook entry cap
        quiet = tmp_path / "quiet.txt"
        quiet.write_text("2\n0.7 0\n0 0.7\n")
        code, out, err = run_cli(
            capsys, "network", "--channel", str(quiet), "--snr-db", "20", "--simulate",
            "--p", "53", "--n", "2000", "--k", "2", "--trials", "1",
        )
        assert code == EXIT_PRECONDITION and not out and "entries" in err


# snr_mult = 1e300 at the first step, whose SNR overflows from 200 dB on;
# snr_mult of about 1e306 at the second step (overflowing from 40 dB on) and at
# later ones (from 20 dB on), where at 20 dB the first step's rate of 0 ends
# the schedule
BIG3 = "3\n1e150 1 1\n1 1 1\n1 1 1\n"
HIDDEN3 = "3\n1.4142135623730951 1.7 1e153\n2.2 1.3 1e-153\n1 1.7 1\n"


class TestPowerTime:
    def test_rates_and_factor(self, capsys, channel3):
        code, out, _ = run_cli(
            capsys, "power-time", "--channel", channel3, "--snr-db", "120,200"
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[1] == "snr_db,sym_rate,sum_rate,dof_factor"
        last = lines[-1].split(",")
        assert float(last[2]) == pytest.approx(3 * float(last[1]), rel=1e-6)

    def test_unsorted_grid_rows_match_single_points(self, capsys, channel3):
        code, out, _ = run_cli(
            capsys, "power-time", "--channel", channel3, "--snr-db", "200,80,20"
        )
        assert code == EXIT_OK
        rows = out.splitlines()[2:]
        assert [r.split(",")[0] for r in rows] == ["200", "80", "20"]
        for snr_db, row in zip(("200", "80", "20"), rows):
            _, single, _ = run_cli(
                capsys, "power-time", "--channel", channel3, "--snr-db", snr_db
            )
            assert single.splitlines()[2] == row

    def test_gain_ordering_violation_exit_4(self, capsys, tmp_path):
        path = tmp_path / "bad3.txt"
        path.write_text("3\n1.0 2.0 0.5\n3.0 1.0 1.0\n1.0 2.0 1.0\n")  # h13 < h12
        code, _, err = run_cli(capsys, "power-time", "--channel", str(path), "--snr-db", "100")
        assert code == EXIT_PRECONDITION and "h13 >= h12" in err

    def test_overflowing_schedule_exit_4(self, capsys, tmp_path):
        # meets the gain ordering, but 1e200 / 1e-200 overflows the scaled gains
        path = tmp_path / "huge3.txt"
        path.write_text("3\n1 1e-200 1e200\n1 1 1\n1 1 1\n")
        code, out, err = run_cli(capsys, "power-time", "--channel", str(path), "--snr-db", "40")
        assert code == EXIT_PRECONDITION and not out
        assert "schedule is not finite" in err

    def test_overflowing_step_snr_exit_4(self, capsys, tmp_path):
        # snr_mult = 1e300: at 200 dB the first step's SNR overflows; at 40 dB
        # it is finite and a zero step rate ends the schedule early
        path = tmp_path / "big3.txt"
        path.write_text(BIG3)
        code, out, err = run_cli(capsys, "power-time", "--channel", str(path), "--snr-db", "40,200")
        assert code == EXIT_PRECONDITION and not out
        assert err == "lia: power-time step SNR overflows at 'frame1 aligned decode at rx1'\n"
        code, out, _ = run_cli(capsys, "power-time", "--channel", str(path), "--snr-db", "40")
        assert code == EXIT_OK and out.splitlines()[2] == "40,0,0,0"

    @pytest.mark.parametrize(
        "matrix, grid",
        [
            (None, "20,4000"),
            (None, "-4000,20"),  # the step SNRs underflow to 0
            (BIG3, "40,200"),
            # the step refused at 200 dB comes before the point refused after it
            (BIG3, "200,4000"),
            (HIDDEN3, "20,40"),
            (HIDDEN3, "40,20"),
        ],
    )
    def test_refused_grid_gives_the_per_point_loops_first_error(
        self, capsys, tmp_path, matrix, grid
    ):
        path = CHANNEL3 if matrix is None else tmp_path / "m3.txt"
        if matrix is not None:
            path.write_text(matrix)
        H = parse_real_matrix_text(Path(path).read_text(), K_expected=3)
        with pytest.raises(ValueError) as refused:
            for snr_db in grid.split(","):
                oracles.schedule_rate_loop(H, db_to_linear(float(snr_db)))
        code, out, err = run_cli(capsys, "power-time", "--channel", str(path), f"--snr-db={grid}")
        assert (code, out, err) == (EXIT_PRECONDITION, "", f"lia: {refused.value}\n")

    @pytest.mark.parametrize("matrix, grid", [(BIG3, "40"), (HIDDEN3, "20")])
    def test_an_overflowing_step_never_reached_is_not_refused(self, capsys, tmp_path, matrix, grid):
        # a step rate of 0 ends the schedule before the step whose SNR overflows
        path = tmp_path / "m3.txt"
        path.write_text(matrix)
        code, out, _ = run_cli(capsys, "power-time", "--channel", str(path), "--snr-db", grid)
        assert code == EXIT_OK and out.splitlines()[2] == f"{grid},0,0,0"

    def test_wrong_k_exit_3(self, capsys, tmp_path):
        path = tmp_path / "k5.txt"
        path.write_text("2\n1 2\n3 4\n")
        code, _, err = run_cli(capsys, "power-time", "--channel", str(path), "--snr-db", "100")
        assert code == EXIT_INPUT


class TestDofScan:
    def test_scan(self, capsys):
        code, out, _ = run_cli(
            capsys, "dof-scan", "--gamma", "0.707106781186547", "--snr-db", "40,80,120"
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[1] == "snr_db,rate_lin,ratio"
        ratios = [float(ln.split(",")[2]) for ln in lines[2:]]
        assert ratios == sorted(ratios)

    def test_unsorted_grid_rows_match_single_points(self, capsys):
        code, out, _ = run_cli(capsys, "dof-scan", "--gamma", "707/1000", "--snr-db", "200,10,40")
        assert code == EXIT_OK
        rows = out.splitlines()[2:]
        assert [r.split(",")[0] for r in rows] == ["200", "10", "40"]
        for snr_db, row in zip(("200", "10", "40"), rows):
            _, single, _ = run_cli(capsys, "dof-scan", "--gamma", "707/1000", "--snr-db", snr_db)
            assert single.splitlines()[2] == row


class TestValueGrid:
    @pytest.mark.parametrize(
        "text", ["0:inf:1", "-inf:0:1", "0:nan:1", "nan:1:1", "0:10:nan", "0:10:inf"]
    )
    def test_nonfinite_range_usage_error(self, capsys, text):
        code, out, err = run_cli(capsys, "dof-scan", "--gamma", "0.3", f"--snr-db={text}")
        assert code == EXIT_USAGE and not out and "bad range" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("dof-scan", "--gamma", "0.3", "--snr-db", "nan"),
            ("sweep", "--gamma", "0.3", "--snr-db", "400,nan"),
            ("sweep", "--gamma", "0.3,0.4", "--snr-db=-inf,20"),
            ("network", "--channel", CHANNEL5, "--snr-db", "20,inf"),
            ("power-time", "--channel", CHANNEL3, "--snr-db", "1e400"),
            ("rate", "--gamma", "0.3", "--snr-db", "nan"),
            ("rate", "--gamma", "0.3", "--snr-db=-inf"),
            ("mac-sim", "--gamma", "0.3", "--snr-db", "inf", "--p", "3", "--n", "4", "--k", "1",
             "--trials", "2"),
        ],
    )
    def test_nonfinite_value_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE and not out and err

    @pytest.mark.parametrize("command", ["rate", "dof-scan"])
    def test_overflowing_finite_value_precondition(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--gamma", "0.3", "--snr-db", "3100")
        assert code == EXIT_PRECONDITION and not out and "overflows" in err

    def test_point_cap(self):
        assert len(_parse_value_grid(f"1:{_GRID_POINTS_CAP}:1")) == _GRID_POINTS_CAP
        with pytest.raises(_UsageError, match="more than"):
            _parse_value_grid(f"0:{_GRID_POINTS_CAP}:1")
        with pytest.raises(_UsageError, match="more than"):
            _parse_value_grid("-1e308:1e308:1e-300")

    def test_sweep_product_cap(self, capsys):
        # 1000 gammas x 101 SNRs: each range is within the cap, the product is not
        code, out, err = run_cli(capsys, "sweep", "--gamma", "0.001:1:0.001", "--snr-db", "0:100:1")
        assert code == EXIT_USAGE and not out and "sweep has more than" in err


class TestGlobalBehavior:
    @pytest.mark.parametrize(
        "argv",
        [
            ("mac-sim", "--gamma", "0.3"),
            ("network", "--channel", CHANNEL5, "--simulate"),
        ],
        ids=["mac-sim", "network"],
    )
    def test_underflowing_snr_refused_by_the_run_check(self, capsys, argv):
        code, out, err = run_cli(
            capsys, *argv, "--snr-db=-4000", "--p", "3", "--n", "4", "--k", "2", "--trials", "2"
        )
        assert code == EXIT_PRECONDITION and not out
        assert err == "lia: snr must be positive and finite, got 0.0\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("mac-sim", "--gamma", "0.3"),
            ("network", "--channel", CHANNEL5, "--simulate"),
        ],
        ids=["mac-sim", "network"],
    )
    def test_trial_count_past_one_seed_word_refused(self, capsys, argv):
        # trial t is one 32-bit word of its substream's key
        code, out, err = run_cli(
            capsys, *argv, "--snr-db", "20", "--p", "3", "--n", "4", "--k", "2",
            "--trials", "4294967297",
        )
        assert code == EXIT_PRECONDITION and not out
        assert err == "lia: trials must be at most 2**32, got 4294967297\n"

    def test_importing_the_cli_leaves_numpy_random_unloaded(self):
        # the rate commands never simulate, so they must not pay numpy.random's import
        done = subprocess.run(
            [sys.executable, "-c", "import sys, lia.cli; print('numpy.random' in sys.modules)"],
            env=child_env(), capture_output=True, timeout=120, check=True,
        )
        assert done.stdout == b"False\n"

    @pytest.mark.parametrize(
        "argv, channel, status, expected",
        [
            (("mac-sim", "--gamma", "0.7", "--snr-db=-3083"), None, 4,
             "lia: snr 5.011872336272593e-309 is too small: the noise variance 1/snr overflows"),
            (("network", "--channel", CHANNEL5, "--simulate", "--snr-db=-3083"), None, 4,
             "lia: snr 5.011872336272593e-309 is too small: the noise variance 1/snr overflows"),
            (("mac-sim", "--gamma", "1.5e308", "--snr-db", "20"), None, 4,
             "lia: gain 1.5e+308 times the p=5 grid overflows a float"),
            (("network", "--simulate", "--snr-db", "20"), "1.5e308 0", 4,
             "lia: gain 1.5e+308 times the p=5 grid overflows a float"),
            (("network", "--simulate", "--snr-db", "20"), "1.5e308 1", 4,
             "lia: gain 1.5e+308 times the p=5 grid overflows a float"),
            # controls, with the rows they printed before the refusals existed
            (("mac-sim", "--gamma", "0.7", "--snr-db=-3082"), None, 0,
             "0.7,-3082,5,8,2,10,10,1,0.7224672,1"),
            (("network", "--channel", CHANNEL5, "--simulate", "--snr-db=-3082"), None, 0,
             "5,10,9,0.9,0.595849973,0.982123787"),
            (("mac-sim", "--gamma", "1e308", "--snr-db", "20"), None, 0,
             "1e308,20,5,8,2,10,10,1,0.7224672,1"),
            (("network", "--simulate", "--snr-db", "20"), "1.2e308 0", 0,
             "2,10,6,0.6,0.31267377,0.83181967"),
            (("network", "--simulate", "--snr-db", "20"), "1.2e308 1", 0,
             "2,10,6,0.6,0.31267377,0.83181967"),
        ],
        ids=["mac-snr", "network-snr", "mac-gain", "single-user-gain", "pair-gain",
             "mac-snr-control", "network-snr-control", "mac-gain-control",
             "single-user-gain-control", "pair-gain-control"],
    )
    def test_overflowing_noise_or_gain_refused_without_warning(
        self, tmp_path, argv, channel, status, expected
    ):
        # channel: the first row of a 2-user file whose second row is "1 0.5";
        # expected: the whole of stderr on a refusal, else one row of stdout
        if channel is not None:
            (tmp_path / "h2.txt").write_text(f"2\n{channel}\n1 0.5\n")
            argv = (*argv, "--channel", str(tmp_path / "h2.txt"))
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "lia", *argv,
             "--p", "5", "--n", "8", "--k", "2", "--trials", "10"],
            env=child_env(), capture_output=True, timeout=120,
        )
        assert done.returncode == status
        if status == EXIT_PRECONDITION:
            assert (done.stdout, done.stderr) == (b"", f"{expected}\n".encode("ascii"))
        else:
            assert done.stderr == b"" and expected in done.stdout.decode("ascii").splitlines()

    @pytest.mark.parametrize(
        "argv, channel, message",
        [
            (("mac-sim", "--gamma", "0.7"), None, b"lia: decoder needs "),
            (("network", "--channel", CHANNEL5, "--simulate"), None, b"lia: decoder needs "),
            # nobody hears an interferer: the codebook's enumeration cap refuses
            (("network", "--simulate"), "2\n0.7 0\n0 0.7\n", b"enumeration cap"),
        ],
        ids=["mac-sim", "network", "single-user-network"],
    )
    def test_huge_prime_refused_by_the_size_caps(self, tmp_path, argv, channel, message):
        # k = 1 passes the code-size check at p = 2**31 - 1, so the decoder or
        # codebook cap must refuse it before anything of p entries is built;
        # the child's address space is limited so that such an array fails fast
        if channel is not None:
            (tmp_path / "quiet.txt").write_text(channel)
            argv = (*argv, "--channel", str(tmp_path / "quiet.txt"))
        limit = 2**31
        done = subprocess.run(
            [sys.executable, "-m", "lia", *argv, "--snr-db", "20",
             "--p", "2147483647", "--n", "1", "--k", "1", "--trials", "1"],
            env=child_env(OPENBLAS_NUM_THREADS="1"), capture_output=True, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert (done.returncode, done.stdout) == (EXIT_PRECONDITION, b"")
        assert message in done.stderr and b"cap" in done.stderr

    @pytest.mark.parametrize(
        "grid, message",
        [
            ("-4000,20", "snr must be positive and finite, got 0.0"),
            # the points are checked in order: the first one that fails is the error
            ("-4000,4000", "snr must be positive and finite, got 0.0"),
            ("20,4000,-4000", "snr_db = 4000.0 overflows the linear scale"),
        ],
    )
    @pytest.mark.parametrize("argv", [("sweep", "--gamma", "0.3,0.4"), ("network", "--channel", CHANNEL5)])
    def test_refused_point_refuses_the_grid(self, capsys, argv, grid, message):
        code, out, err = run_cli(capsys, *argv, f"--snr-db={grid}")
        assert code == EXIT_PRECONDITION and not out
        assert err == f"lia: {message}\n"

    @pytest.mark.parametrize(
        "argv, channel, status",
        [
            (("rate", "--gamma", HUGE_FRACTION, "--snr-db", "20"), None, EXIT_USAGE),
            (("sweep", "--gamma", f"0.3,{HUGE_FRACTION}", "--snr-db", "20"), None, EXIT_USAGE),
            (("mac-sim", "--gamma", HUGE_FRACTION, "--snr-db", "20", "--p", "3", "--n", "4",
              "--k", "1", "--trials", "2"), None, EXIT_USAGE),
            (("network", "--snr-db", "20"), f"2\n{HUGE_FRACTION} 1\n1 1/2\n", EXIT_INPUT),
            (("network", "--snr-db", "20", "--simulate", "--p", "3", "--n", "4", "--k", "1",
              "--trials", "2"), f"2\n1/2 1\n1 {HUGE_FRACTION}\n", EXIT_INPUT),
            (("power-time", "--snr-db", "20"), f"3\n{HUGE_FRACTION} 1 2\n3 1 1\n1 2 1\n", EXIT_INPUT),
        ],
        ids=["rate", "sweep", "mac-sim", "network-curves", "network-simulate", "power-time"],
    )
    def test_fraction_whose_float_overflows_refused(self, capsys, tmp_path, argv, channel, status):
        # 10**400 / 1 parses exactly, but no float holds it
        if channel is not None:
            (tmp_path / "huge.txt").write_text(channel)
            argv = (*argv, "--channel", str(tmp_path / "huge.txt"))
        code, out, err = run_cli(capsys, *argv)
        assert code == status and not out and err

    def test_unknown_flag_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "rate", "--gamma", "0.4", "--snr-db", "20", "--bogus")
        assert code == EXIT_USAGE

    def test_unknown_subcommand_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv, p_max",
        [
            (("rate", "--gamma", "0.4"), "100000000000"),
            (("rate", "--gamma", "0.4"), str(PRIME_SEARCH_CAP + 1)),
            (("sweep", "--gamma", "0.4"), str(PRIME_SEARCH_CAP + 1)),
            (("network", "--channel", CHANNEL5), str(PRIME_SEARCH_CAP + 1)),
            (("power-time", "--channel", CHANNEL3), str(PRIME_SEARCH_CAP + 1)),
            (("dof-scan", "--gamma", "0.4"), str(PRIME_SEARCH_CAP + 1)),
        ],
        ids=["rate-1e11", "rate", "sweep", "network", "power-time", "dof-scan"],
    )
    def test_p_max_above_the_search_cap_usage_error(self, capsys, argv, p_max):
        code, out, err = run_cli(capsys, *argv, "--snr-db", "20", "--p-max", p_max)
        assert code == EXIT_USAGE and not out and "argument --p-max:" in err
        code, _, _ = run_cli(capsys, *argv, "--snr-db", "20", "--p-max", str(PRIME_SEARCH_CAP))
        assert code == EXIT_OK

    def test_identical_invocations_byte_identical(self, capsys):
        args = ("sweep", "--gamma", "0.05:0.25:0.05", "--snr-db", "30")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestBenchmarkReference:
    @pytest.mark.parametrize("case", ["0", "9"])
    def test_simulations_print_the_reference_bytes(self, case):
        # the benchmark's stored stdout hashes of two cases (two sets of run and
        # code seeds), checked from tier 1: a count that drifts in the trial
        # engine, its seed substreams or the decoder fails here
        reference = json.loads((ROOT / "bench" / "reference.json").read_text())
        case = reference["cases"][case]
        env = child_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        checked = 0
        for workload in ("trial-engine", "mac-decode"):
            for inv in case[workload]:
                done = subprocess.run(
                    [sys.executable, "-m", "lia", *inv["argv"]],
                    cwd=ROOT, env=env, capture_output=True, timeout=120, check=True,
                )
                assert hashlib.sha256(done.stdout).hexdigest() == inv["sha256"], inv["label"]
                checked += 1
        assert checked == 5

    def test_rate_commands_print_the_reference_bytes(self, capsys, monkeypatch):
        # the four analytic commands of case 0 and the sweep of case 1, whose
        # gamma grid is offset by 1/16000: a prime the rate search skips or
        # picks differently changes a row here
        reference = json.loads((ROOT / "bench" / "reference.json").read_text())
        runs = reference["cases"]["0"]["analytic"] + reference["cases"]["1"]["analytic"][:1]
        assert [inv["label"] for inv in runs] == [
            "sweep", "network-curves", "power-time", "dof-scan", "sweep"
        ]
        monkeypatch.chdir(ROOT)  # the commands name files relative to the checkout
        for inv in runs:
            code, out, _ = run_cli(capsys, *inv["argv"])
            assert code == EXIT_OK
            assert hashlib.sha256(out.encode("ascii")).hexdigest() == inv["sha256"], inv["argv"]
