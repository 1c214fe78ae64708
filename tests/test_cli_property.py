"""One property over the whole command line: every drawn command exits 0, 2,
3 or 4, never with a traceback, and prints output exactly when it succeeds
and one error line exactly when it does not."""

import math
import os
import tempfile

from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qrevival.cli import main

# Every number option also draws signs, zeros, subnormals, NaN, infinities
# and huge magnitudes.
EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
         math.nan, math.inf, -math.inf)
# fig1b's built-in superrevival scan runs 5000 time units, about 0.4 s.
SCENARIOS = ("fig1a", "fig1c", "fig2", "fig3", "fig4", "fig5", "infinite",
             "no-such-scenario")


def numbers(lo, hi):
    """An edge value or a float in ``[lo, hi]``; the ranges leave out deep
    wells and oscillator betas that cancel ``1 + 3 n beta``, whose windows
    run to millions of samples."""
    return st.sampled_from(EDGES) | st.floats(lo, hi)


def listed(values, most):
    """A comma-separated list of up to ``most`` drawn values."""
    return st.lists(values, max_size=most).map(lambda xs: ",".join(map(repr, xs)))


EPSILON = numbers(0.01, 40.0)
FORMAT = st.sampled_from(["csv", "json", "xml"])
WELL = {"scenario": st.sampled_from(SCENARIOS), "epsilon": EPSILON,
        "x0": numbers(-0.45, 0.45), "sigma": numbers(0.02, 0.3)}
OSCILLATOR = {"beta": numbers(-0.003, 0.05), "alpha": numbers(-8.0, 8.0),
              "squeeze": numbers(1.0, 20.0)}
FLAG = st.just(True)
COMMANDS = {
    "spectrum": {"epsilon": EPSILON, "format": FORMAT},
    "autocorr": {**WELL, **OSCILLATOR, "tau-max": numbers(0.0, 2.0),
                 "tau-step": numbers(1e-3, 0.5), "reference": FLAG,
                 "format": FORMAT},
    "table1": {"x0": WELL["x0"], "sigma": WELL["sigma"],
               "epsilons": listed(EPSILON, 2), "format": FORMAT},
    "revivals": {**WELL, **OSCILLATOR, "horizon": numbers(0.0, 20.0),
                 "superrevival": FLAG},
    "snapshot": {**WELL, "tau": listed(numbers(-3.0, 3.0), 4),
                 "grid": st.sampled_from([-1, 0, 31, 32, 33, 64, 10 ** 9, 2 ** 70]),
                 "format": FORMAT},
    "oscillator": {**OSCILLATOR, "format": FORMAT},
}


@st.composite
def command_lines(draw):
    """A command, any subset of its options, and whether it writes to
    ``--out``: into a fresh file, a missing folder or not at all."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    args = [name]
    for option, values in COMMANDS[name].items():
        if draw(st.booleans()):
            value = draw(values)
            args += [f"--{option}"] if value is True else [f"--{option}", str(value)]
    return args, draw(st.sampled_from([None, "file", "missing"]))


@settings(derandomize=True, database=None, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.too_slow])
@given(command_lines())
# crashes found by earlier random runs, each once an exit 1 with a traceback
@example((["spectrum", "--epsilon", "1e308"], None))
@example((["snapshot", "--epsilon", "1e308", "--tau", "0"], None))
@example((["oscillator", "--beta", "0.002", "--alpha", "1e200"], None))
@example((["revivals", "--beta", "0.002", "--alpha", "1e200"], None))
@example((["revivals", "--beta", "1e308"], None))
@example((["oscillator", "--beta", "0", "--alpha", "1e308", "--squeeze", "2"], None))
@example((["table1", "--sigma", "1e308"], None))
@example((["snapshot", "--scenario", "fig1a", "--tau", "1e308"], None))
def test_every_command_line_exits_cleanly(drawn):
    args, out = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = None
        if out is not None:
            path = os.path.join(tmp, "out.txt" if out == "file" else "missing/out.txt")
            args = args + ["--out", path]
        result = CliRunner().invoke(main, args)
        printed = result.stdout
        if path is not None:
            assert printed == "", args
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    printed = fh.read()
    code = result.exit_code
    assert code in (0, 2, 3, 4), (args, result.exception)
    assert "Traceback" not in result.stderr, args
    assert (printed == "") == (code != 0), (args, code)
    errors = [line for line in result.stderr.splitlines()
              if line.lower().startswith("error: ")]
    assert len(errors) == (code != 0), (args, result.stderr)
