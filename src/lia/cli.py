"""Command-line front end.

Subcommands: rate, sweep, mac-sim, network, power-time, dof-scan.  All SNR
values are taken in dB; gains parse as decimals ("0.707", float path) or as
fractions ("707/1000", exact path).  Every run first echoes its resolved
configuration as a "# args:" comment line that can be fed back verbatim to
reproduce the run, then a CSV header row, then data rows with floats at 9
significant digits.

Exit status: 0 success, 2 usage error, 3 input- or output-file error, 4
precondition violation.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys

from . import codes, macsim, network, powertime, rates
from .diophantine import parse_gain
from .network import ChannelFormatError
from .rates import PRIME_SEARCH_CAP, db_to_linear

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_PRECONDITION = 4


class _UsageError(Exception):
    pass


def _fmt(x) -> str:
    return "%.9g" % float(x)


def _parse_p_max(text: str):
    if text == "auto":
        return None
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or not 2 <= value <= PRIME_SEARCH_CAP:
        raise argparse.ArgumentTypeError(
            f"p-max must be 'auto' or an integer in [2, {PRIME_SEARCH_CAP}]"
        )
    return value


def _int_at_least(low: int, high=math.inf):
    """argparse type: an integer in [low, high] (argparse names the flag in its error)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or not low <= value <= high:
            raise argparse.ArgumentTypeError(f"expected an integer in [{low}, {high}], got {text!r}")
        return value

    return parse


def _finite_float(text: str) -> float:
    """argparse type and grid item parser: a finite number."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


_WORKERS_CAP = 64  # a fixed bound on --workers, whatever the machine
_WORKERS_HELP = (f"1 to {_WORKERS_CAP}; accepted for compatibility, trials run serially and"
                 " output never depends on it")


def _gain_text(text: str) -> str:
    """Validate a single gain argument, keeping the original text."""
    try:
        parse_gain(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"cannot parse gain {text!r}") from None
    return text


def _p_max_text(p_max) -> str:
    return "auto" if p_max is None else str(p_max)


_GRID_POINTS_CAP = 100_000  # points in one range, and rows in one sweep


def _parse_value_grid(text: str, parser=_finite_float):
    """Comma list or colon range "start:stop:step" -> [(item_text, value)]."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise _UsageError(f"bad range {text!r}, expected start:stop:step")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise _UsageError(f"bad range {text!r}") from None
        if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or stop < start:
            raise _UsageError(f"bad range {text!r}")
        span = (stop - start) / step + 1e-9
        if not span < _GRID_POINTS_CAP:
            raise _UsageError(f"range {text!r} has more than {_GRID_POINTS_CAP} points")
        count = math.floor(span) + 1
        values = [start + i * step for i in range(count)]
        return [(_fmt(v), v) for v in values]
    out = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            raise _UsageError(f"empty item in list {text!r}")
        try:
            out.append((item, parser(item)))
        except (ValueError, ZeroDivisionError, argparse.ArgumentTypeError):
            raise _UsageError(f"cannot parse {item!r}") from None
    return out


def _emit(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)


def _document(args_line: str, columns: list[str], rows) -> str:
    lines = [f"# args: {args_line}", ",".join(columns)]
    lines.extend(",".join(r) for r in rows)
    lines.append("")  # the final newline, without a second copy of the text
    return "\n".join(lines)


def _rate_row(gamma_text: str, gamma, snr_db: float, point) -> list[str]:
    rand = rates.random_sym_capacity(gamma, point.snr)
    r_norm = point.rate / rand if rand > 0.0 else 0.0
    p_star = "" if point.p_star is None else str(point.p_star)
    return [gamma_text, _fmt(snr_db), p_star, _fmt(point.rate), _fmt(rand), _fmt(r_norm)]


_RATE_COLUMNS = ["gamma", "snr_db", "p_star", "rate_lin", "rate_rand", "r_norm"]


def _cmd_rate(args) -> str:
    gamma = parse_gain(args.gamma)
    line = f"rate --gamma {args.gamma} --snr-db {_fmt(args.snr_db)} --p-max {_p_max_text(args.p_max)}"
    point = rates.theorem1_rate(gamma, db_to_linear(args.snr_db), args.p_max)
    rows = [_rate_row(args.gamma, gamma, args.snr_db, point)]
    return _document(line, _RATE_COLUMNS, rows)


def _cmd_sweep(args) -> str:
    gammas = _parse_value_grid(args.gamma, parse_gain)
    snrs = _parse_value_grid(args.snr_db)
    if len(gammas) * len(snrs) > _GRID_POINTS_CAP:
        raise _UsageError(f"sweep has more than {_GRID_POINTS_CAP} points")
    line = f"sweep --gamma {args.gamma} --snr-db {args.snr_db} --p-max {_p_max_text(args.p_max)}"

    # each SNR converted once, in order, so the first point that fails is the
    # error; the gamma-major rows stay lazy
    linear = [db_to_linear(v) for _, v in snrs]
    points = rates.theorem1_rows(((g, snr) for _, g in gammas for snr in linear), args.p_max)
    rows = (
        _rate_row(g_text, g, v, point)
        for ((g_text, g), (_, v)), point in zip(itertools.product(gammas, snrs), points)
    )
    return _document(line, _RATE_COLUMNS, rows)


def _cmd_mac_sim(args) -> str:
    gamma = parse_gain(args.gamma)
    code = codes.sample_code(args.p, args.n, args.k, args.code_seed)
    snr = db_to_linear(args.snr_db)
    result = macsim.estimate_error_prob(code, gamma, snr, args.trials, args.seed)
    line = (
        f"mac-sim --gamma {args.gamma} --snr-db {_fmt(args.snr_db)} --p {args.p}"
        f" --n {args.n} --k {args.k} --trials {args.trials} --seed {args.seed}"
        f" --code-seed {args.code_seed}"
    )
    columns = ["gamma", "snr_db", "p", "n", "k", "trials", "errors", "p_e", "ci_lo", "ci_hi"]
    row = [
        args.gamma,
        _fmt(args.snr_db),
        str(args.p),
        str(args.n),
        str(args.k),
        str(result.trials),
        str(result.errors),
        _fmt(result.p_e),
        _fmt(result.ci95[0]),
        _fmt(result.ci95[1]),
    ]
    return _document(line, columns, [row])


def _cmd_network(args) -> str:
    H = network.load_channel_file(args.channel)
    if args.simulate:
        missing = [f for f in ("p", "n", "k", "trials") if getattr(args, f) is None]
        if missing:
            raise _UsageError(
                "--simulate requires " + ", ".join(f"--{f}" for f in missing)
            )
        snrs = _parse_value_grid(args.snr_db)
        if len(snrs) != 1:
            raise _UsageError("--simulate takes a single --snr-db value")
        snr_db = snrs[0][1]
        code = codes.sample_code(args.p, args.n, args.k, args.code_seed)
        result = network.simulate_network(H, code, db_to_linear(snr_db), args.trials, args.seed)
        line = (
            f"network --channel {args.channel} --snr-db {args.snr_db} --simulate"
            f" --p {args.p} --n {args.n} --k {args.k} --trials {args.trials}"
            f" --seed {args.seed} --code-seed {args.code_seed}"
        )
        columns = ["receiver", "trials", "errors", "p_e", "ci_lo", "ci_hi"]
        names = [str(j + 1) for j in range(H.K)] + ["net"]
        errors = [*result.receiver_errors, result.network_errors]
        p_e = [*result.receiver_p_e, result.network_p_e]
        ci = [*result.receiver_ci95, result.network_ci95]
        rows = [
            [name, str(result.trials), str(e), _fmt(pe), _fmt(lo), _fmt(hi)]
            for name, e, pe, (lo, hi) in zip(names, errors, p_e, ci)
        ]
        return _document(line, columns, rows)

    snrs = _parse_value_grid(args.snr_db)
    line = (
        f"network --channel {args.channel} --snr-db {args.snr_db}"
        f" --p-max {_p_max_text(args.p_max)}"
    )
    columns = ["snr_db", "sum_rate_ia", "sum_rate_ts", "sum_rate_bench"]
    curves = network.sum_rate_curves(H, [v for _, v in snrs], args.p_max)
    return _document(line, columns, [[_fmt(x) for x in row] for row in curves])


def _cmd_power_time(args) -> str:
    with open(args.channel, "r", encoding="ascii") as fh:
        H = network.parse_real_matrix_text(fh.read())
    sched = powertime.build_schedule(H)
    snrs = _parse_value_grid(args.snr_db)
    line = (
        f"power-time --channel {args.channel} --snr-db {args.snr_db}"
        f" --p-max {_p_max_text(args.p_max)}"
    )
    columns = ["snr_db", "sym_rate", "sum_rate", "dof_factor"]
    linear, refused = [], None
    for _, snr_db in snrs:
        try:
            linear.append(db_to_linear(snr_db))
        except ValueError as exc:
            refused = exc
            break
    # the points before a refused one are evaluated first, so the error is
    # the one that taking the points one at a time meets first
    factors = powertime.dof_factors(sched, linear, args.p_max)
    if refused is not None:
        raise refused
    rows = [
        [_fmt(snr_db), _fmt(sym), _fmt(3.0 * sym), _fmt(factor)]
        for (_, snr_db), (sym, factor) in zip(snrs, factors)
    ]
    return _document(line, columns, rows)


def _cmd_dof_scan(args) -> str:
    gamma = parse_gain(args.gamma)
    snrs = _parse_value_grid(args.snr_db)
    line = (
        f"dof-scan --gamma {args.gamma} --snr-db {args.snr_db}"
        f" --p-max {_p_max_text(args.p_max)}"
    )
    columns = ["snr_db", "rate_lin", "ratio"]
    rows = []
    for snr_text, snr_db in snrs:
        rate, ratio = rates.dof_ratio(gamma, db_to_linear(snr_db), args.p_max)
        rows.append([snr_text, _fmt(rate), _fmt(ratio)])
    return _document(line, columns, rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lia",
        description="Finite-SNR rates and simulation for lattice interference alignment",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rate = sub.add_parser("rate", help="single rate point")
    p_rate.add_argument("--gamma", type=_gain_text, required=True, help="gain: decimal or r/q fraction")
    p_rate.add_argument("--snr-db", type=_finite_float, required=True)
    p_rate.add_argument("--p-max", type=_parse_p_max, default=None)
    p_rate.set_defaults(func=_cmd_rate)

    p_sweep = sub.add_parser("sweep", help="normalized-rate grid as CSV")
    p_sweep.add_argument("--gamma", required=True, help="comma list or start:stop:step")
    p_sweep.add_argument("--snr-db", required=True, help="comma list or start:stop:step (dB)")
    p_sweep.add_argument("--p-max", type=_parse_p_max, default=None)
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_mac = sub.add_parser("mac-sim", help="two-user MAC Monte Carlo")
    p_mac.add_argument("--gamma", type=_gain_text, required=True)
    p_mac.add_argument("--snr-db", type=_finite_float, required=True)
    p_mac.add_argument("--p", type=int, required=True)
    p_mac.add_argument("--n", type=_int_at_least(1), required=True)
    p_mac.add_argument("--k", type=_int_at_least(1), required=True)
    p_mac.add_argument("--trials", type=_int_at_least(1), required=True)
    p_mac.add_argument("--seed", type=_int_at_least(0), default=0)
    p_mac.add_argument("--code-seed", type=_int_at_least(0), default=0)
    p_mac.add_argument("--workers", type=_int_at_least(1, _WORKERS_CAP), default=1, help=_WORKERS_HELP)
    p_mac.add_argument("--out", default=None)
    p_mac.set_defaults(func=_cmd_mac_sim)

    p_net = sub.add_parser("network", help="interference-network curves or simulation")
    p_net.add_argument("--channel", required=True, help="channel matrix file")
    p_net.add_argument("--snr-db", required=True)
    p_net.add_argument("--p-max", type=_parse_p_max, default=None)
    p_net.add_argument("--simulate", action="store_true")
    p_net.add_argument("--p", type=int, default=None)
    p_net.add_argument("--n", type=_int_at_least(1), default=None)
    p_net.add_argument("--k", type=_int_at_least(1), default=None)
    p_net.add_argument("--trials", type=_int_at_least(1), default=None)
    p_net.add_argument("--seed", type=_int_at_least(0), default=0)
    p_net.add_argument("--code-seed", type=_int_at_least(0), default=0)
    p_net.add_argument("--workers", type=_int_at_least(1, _WORKERS_CAP), default=1, help=_WORKERS_HELP)
    p_net.add_argument("--out", default=None)
    p_net.set_defaults(func=_cmd_network)

    p_pt = sub.add_parser("power-time", help="3-user power-time schedule rates")
    p_pt.add_argument("--channel", required=True, help="3x3 real channel matrix file")
    p_pt.add_argument("--snr-db", required=True)
    p_pt.add_argument("--p-max", type=_parse_p_max, default=None)
    p_pt.add_argument("--out", default=None)
    p_pt.set_defaults(func=_cmd_power_time)

    p_dof = sub.add_parser("dof-scan", help="rate / (1/4 log2 SNR) scan")
    p_dof.add_argument("--gamma", type=_gain_text, required=True)
    p_dof.add_argument("--snr-db", required=True)
    p_dof.add_argument("--p-max", type=_parse_p_max, default=None)
    p_dof.add_argument("--out", default=None)
    p_dof.set_defaults(func=_cmd_dof_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed its diagnostic
        return int(exc.code or 0)
    try:
        text = args.func(args)
    except _UsageError as exc:
        print(f"lia: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FileNotFoundError, IsADirectoryError, PermissionError, ChannelFormatError) as exc:
        print(f"lia: input file: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"lia: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    try:
        _emit(text, getattr(args, "out", None))
    except OSError as exc:
        print(f"lia: output file: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
