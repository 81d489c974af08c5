"""The CLI contract as one property over an argv grammar of all six subcommands.

Whatever the tokens, ``main`` returns 0, 2, 3 or 4, raises nothing and warns
nothing; on 0 stderr is empty and no data field is NaN or infinite; on any
other status stdout is empty.  Half the argvs take every token from a valid
list, so that runs reach the rate search and the simulators; the other half
take a token one time in four from a fixed adversarial list (non-finite and
overflowing numbers, 400-digit fractions, dB values whose linear SNR
overflows or underflows, cross gains outside int64) or a drawn number.
Codes and trial counts stay small, so each run is quick.
"""

import contextlib
import io
import math
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from lia.cli import EXIT_INPUT, EXIT_OK, EXIT_PRECONDITION, EXIT_USAGE, main

HUGE_FRACTION = "1" + "0" * 400 + "/1"
COMMANDS = ["rate", "sweep", "mac-sim", "network", "power-time", "dof-scan"]


def tokens(valid, adversarial, drawn=None):
    """(valid tokens, tokens taken one time in four from ``adversarial`` or, when a
    strategy ``drawn`` is given, half of those times from it)."""
    odd = st.sampled_from(adversarial)
    if drawn is not None:
        odd = st.one_of(odd, drawn)
    valid = st.sampled_from(valid)
    return valid, st.integers(0, 3).flatmap(lambda i: odd if i == 3 else valid)


SNRS = tokens(
    ["0", "10", "20", "40", "60", "100", "-5", "0.5"],
    ["-0", "1e308", "-1e308", "5e-324", "1e-300", "nan", "-nan", "inf", "-inf", "3100",
     "-3083", "-4000", "x", "", "1/2", HUGE_FRACTION],
    st.one_of(st.floats(-400, 400), st.floats(allow_nan=True, allow_infinity=True)).map(repr),
)
GAINS = tokens(
    ["0.707", "707/1000", "0.3", "1/3", "0.41", "6/25", "0.5", "1.7"],
    ["-0.3", "0", "1.5e308", "1e308", "5e-324", "1/0", "-1/3", "nan", "inf", "x", "",
     HUGE_FRACTION, "1/" + "9" * 400],
    st.floats(-2, 2).map(repr),
)
RANGES = tokens(
    ["0:40:10", "20:20:1", "0.1:0.4:0.1", "0.25:0.45:0.1", "100:200:50"],
    ["1:0:1", "0:10:0", "0:10:-1", "0:1e9:1e-3", "nan:1:1", "0:inf:1", "a:b:c", "1:2",
     "3000:3200:100", "-4000:0:1000"],
)
P_MAX = tokens(["auto", "2", "3", "101", "100000"], ["100001", "1", "-5", "x", "1e3"])
PRIMES = tokens(["2", "3", "5"], ["4", "1", "-7", "x", "2147483647", "1000000000000000003"])
SMALL = tokens(["1", "2", "3"], ["4", "0", "-1", "x", "1.5"])
TRIALS = tokens(["1", "3", "5"], ["0", "-2", "4294967297", "x"])
WORKERS = tokens(["1", "2", "64"], ["65", "0", "x", "1" + "0" * 30])
CROSS = tokens(
    ["0", "1", "2", "3", "-3", "5"],
    [str(2**63 - 1), str(2**63), str(-(2**63)), str(-(2**63) - 1), "1.5", "x", "1e3"],
)
REALS = tokens(
    ["1", "0.5", "2", "0.3", "1.4142135623730951", "2.6457513110645907"],
    ["1e200", "1e-200", "0", "-1", "x", "nan"],
)


@pytest.fixture(scope="module")
def directory(tmp_path_factory):
    """A directory for the drawn channel files (module-scoped: Hypothesis refuses a
    function-scoped fixture under @given)."""
    return tmp_path_factory.mktemp("channels")


@st.composite
def argvs(draw, directory):
    """One argv of any subcommand, with its channel file written to ``directory``."""
    clean = draw(st.booleans())

    def token(kind):
        return draw(kind[0] if clean else kind[1])

    def grid(items):
        # a comma list of one to three items, or one time in four a range; an
        # empty last item one time in eight unless clean
        shape = draw(st.integers(0, 7))
        if shape < 2:
            return token(RANGES)
        text = ",".join(token(items) for _ in range(draw(st.integers(1, 3))))
        return text + "," if shape == 2 and not clean else text

    def flags(*names):
        # each optional flag present or not
        return [x for flag, kind in names if draw(st.booleans()) for x in (flag, token(kind))]

    def channel(size, diagonal, off_diagonal):
        rows = (
            " ".join(token(diagonal) if i == j else token(off_diagonal) for j in range(size))
            for i in range(size)
        )
        return f"{size}\n" + "\n".join(rows) + "\n"

    command = draw(st.sampled_from(COMMANDS))
    if command in ("network", "power-time"):
        path = directory / "missing.txt"
        if clean or draw(st.integers(0, 4)):  # a missing file one time in ten
            path = directory / f"{command}.txt"
            if command == "network":
                path.write_text(channel(draw(st.sampled_from([2, 3])), GAINS, CROSS))
            else:
                path.write_text(channel(3, REALS, REALS))
        argv = [command, "--channel", str(path), "--snr-db", grid(SNRS)]
        if command == "network" and draw(st.booleans()):
            argv += ["--simulate", "--p", token(PRIMES), "--n", token(SMALL)]
            argv += ["--k", token(SMALL), "--trials", token(TRIALS)]
            argv += flags(("--seed", SMALL), ("--code-seed", SMALL), ("--workers", WORKERS))
        else:
            argv += flags(("--p-max", P_MAX))
    elif command == "mac-sim":
        argv = [command, "--gamma", token(GAINS), "--snr-db", token(SNRS), "--p", token(PRIMES)]
        argv += ["--n", token(SMALL), "--k", token(SMALL), "--trials", token(TRIALS)]
        argv += flags(("--seed", SMALL), ("--code-seed", SMALL), ("--workers", WORKERS))
    elif command == "sweep":
        argv = [command, "--gamma", grid(GAINS), "--snr-db", grid(SNRS), *flags(("--p-max", P_MAX))]
    else:  # rate and dof-scan: one gain, and one SNR or a grid
        snr = token(SNRS) if command == "rate" else grid(SNRS)
        argv = [command, "--gamma", token(GAINS), "--snr-db", snr, *flags(("--p-max", P_MAX))]
    if not clean and draw(st.integers(0, 9)) == 0:  # an --out that cannot be written
        argv += ["--out", str(directory / draw(st.sampled_from(["", "no-such-dir/out.csv"])))]
    return argv


def run(argv):
    """(status, stdout, stderr, warnings) of main(argv); an exception propagates."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(argv)
    return status, out.getvalue(), err.getvalue(), caught


def finite_or_text(field):
    try:
        return math.isfinite(float(field))
    except ValueError:  # a receiver name, an empty p_star
        return True


@settings(max_examples=600, derandomize=True, deadline=None)
@given(st.data())
def test_every_argv_keeps_the_cli_contract(directory, data):
    argv = data.draw(argvs(directory))
    status, out, err, caught = run(argv)
    assert status in (EXIT_OK, EXIT_USAGE, EXIT_INPUT, EXIT_PRECONDITION), (argv, status, err)
    assert not caught, (argv, [str(w.message) for w in caught])
    if status == EXIT_OK:
        assert err == "", argv
        # the data rows, below the args line and the header
        fields = [f for line in out.splitlines()[2:] for f in line.split(",")]
        assert all(map(finite_or_text, fields)), (argv, out)
    else:
        assert out == "", argv
