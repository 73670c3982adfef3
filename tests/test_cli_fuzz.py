"""Fuzz of the command line: any argv or config file ends in an exit code.

``main`` must map every input, however extreme, to one of the exit
codes 0, 2, 3 or 4 and print no traceback.  Each argv runs a second time
with ``--out`` naming a file that already holds a sentinel: a run that
printed its output must replace the sentinel with exactly those bytes,
and a failed run must leave it untouched.  Floats are drawn from the
finite extremes (1e+-300, 0, -0) as well as ordinary values; counts and
``t_end`` stay small so that each example runs in milliseconds.
"""

from __future__ import annotations

import json
import os
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from curvedkepler.cli import main

EXIT_CODES = {0, 2, 3, 4}

EXTREMES = [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 1e-8, -1e-8, 1e8, 1.7e308, 5e-324]
floats = st.one_of(
    st.sampled_from(EXTREMES),
    st.floats(-4.0, 4.0, allow_nan=False),
    st.floats(allow_nan=False, allow_infinity=False),
)
flag_values = st.one_of(floats.map(repr), st.sampled_from(["nan", "inf", "-inf", "x", ""]))

FUZZ = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


SENTINEL = b"old content\n"


def assert_exits_cleanly(capsys, argv):
    code = main(argv)
    printed, err = capsys.readouterr()
    assert code in EXIT_CODES, (argv, code, err)
    assert "Traceback" not in err

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out")
        with open(path, "wb") as fh:
            fh.write(SENTINEL)
        assert main([*argv, f"--out={path}"]) == code, argv
        assert capsys.readouterr().out == ""
        with open(path, "rb") as fh:
            written = fh.read()
    assert written == (printed.encode() if code == 0 or printed else SENTINEL), argv


def flags(**values):
    return [f"--{name.replace('_', '-')}={value}" for name, value in values.items()]


@FUZZ
@given(kappa=flag_values, k=flag_values, j=flag_values, e=flag_values)
@example(kappa="0.5", k="2", j="-1e300", e="1e-8")
def test_classify(capsys, kappa, k, j, e):
    assert_exits_cleanly(capsys, ["classify", *flags(kappa=kappa, k=k), f"--J={j}", f"--E={e}"])


@FUZZ
@given(
    kappa=flag_values, k=flag_values, j=flag_values,
    r_min=flag_values, r_max=st.none() | flag_values, steps=st.integers(-1, 9),
)
@example(kappa="-1e300", k="3.14159", j="-1", r_min="1e-300", r_max="1e-8", steps=9)
@example(kappa="2", k="1e-300", j="1e-300", r_min="1", r_max=None, steps=5)
# np.linspace of this span overflows in (steps - 1) * step, and the warning is an error
@example(kappa="0.0", k="1.0", j="0.0", r_min="1e-300", r_max="1.7976931348623157e+308", steps=7)
def test_potential_scan(capsys, kappa, k, j, r_min, r_max, steps):
    argv = ["potential-scan", *flags(kappa=kappa, k=k), f"--J={j}", f"--r-min={r_min}", f"--steps={steps}"]
    if r_max is not None:
        argv.append(f"--r-max={r_max}")
    assert_exits_cleanly(capsys, argv)


@FUZZ
@given(
    kappa=flag_values,
    size=st.one_of(
        st.tuples(st.just("d"), flag_values, flag_values),
        st.tuples(st.just("periastron"), flag_values, st.none() | flag_values),
    ),
    phi_steps=st.integers(7, 12),
    chart=st.sampled_from(["polar", "ambient", "poincare_disk"]),
    output=st.sampled_from(["csv", "json"]),
)
@example(
    kappa="-1e300", size=("periastron", "2", "-1e-8"), phi_steps=360, chart="polar", output="csv"
)
def test_conic(capsys, kappa, size, phi_steps, chart, output):
    form, first, ecc = size
    argv = ["conic", f"--kappa={kappa}", f"--{form}={first}", f"--phi-steps={phi_steps}"]
    if ecc is not None:
        argv.append(f"--ecc={ecc}")
    assert_exits_cleanly(capsys, [*argv, f"--chart={chart}", f"--output={output}"])


@FUZZ
@given(pairs=st.integers(-2, 20), seed=st.integers(-(2**32), 2**32))
@example(pairs=10, seed=-1)
def test_trig_check(capsys, pairs, seed):
    assert_exits_cleanly(capsys, [f"--seed={seed}", "trig-check", f"--pairs={pairs}"])


initial = st.one_of(
    st.tuples(st.just("elements"), st.tuples(floats, floats, floats)),
    st.tuples(st.just("state"), st.tuples(floats, floats, floats, floats)),
)
t_ends = st.sampled_from(["1e-300", "1e-9", "1e-4", "0", "-1", "nan"])
tols = st.sampled_from(["1e-9", "1e-13", "1e-6", "1e-3", "0"])


@FUZZ
@given(kappa=flag_values, k=flag_values, start=initial, t_end=t_ends, tol=tols)
@example(kappa="-1", k="1", start=("elements", (0.0, 1e-300, 0.0)), t_end="0.1", tol="1e-13")
def test_simulate_flags(capsys, kappa, k, start, t_end, tol):
    form, numbers = start
    argv = ["simulate", *flags(kappa=kappa, k=k, t_end=t_end, tol=tol)]
    argv.append(f"--{form}=" + ",".join(repr(x) for x in numbers))
    assert_exits_cleanly(capsys, argv)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | floats | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
CONFIG_KEYS = {
    "schema": st.just(1) | json_values,
    "kappa": floats | json_values,
    "k": floats | json_values,
    "t_end": st.sampled_from([1e-9, 1e-4]) | json_values,
    "tol": st.just(1e-9) | json_values,
    "output": st.sampled_from(["csv", "json"]) | json_values,
    "chart": st.sampled_from(["polar", "ambient", "poincare_disk"]) | json_values,
    "initial": st.fixed_dictionaries(
        {}, optional={"state": st.lists(floats, max_size=5) | json_values,
                      "elements": st.lists(floats, max_size=4) | json_values},
    ) | json_values,
}


@FUZZ
@given(config=st.fixed_dictionaries({}, optional=CONFIG_KEYS) | json_values)
def test_simulate_config_file(capsys, config):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        assert_exits_cleanly(capsys, ["simulate", f"--config={path}"])


def test_simulate_config_integers_beyond_float_range_exit_2(capsys, tmp_path):
    path = tmp_path / "config.json"
    for text in ('{"kappa": 1%s, "k": 1}' % ("0" * 400), '{"kappa": 1%s}' % ("0" * 5000)):
        path.write_text(text, encoding="utf-8")
        assert main(["simulate", f"--config={path}"]) == 2
        assert capsys.readouterr().err.startswith("config error: ")


def test_the_five_reproducers_exit_4(capsys):
    # finite flags whose arithmetic overflows or divides by zero
    for argv in (
        ["potential-scan", "--kappa=-1e300", "--k=3.14159", "--J=-1", "--r-min=1e-300",
         "--r-max=1e-8", "--steps=9"],
        ["conic", "--kappa=-1e300", "--ecc=-1e-8", "--periastron=2"],
        ["classify", "--kappa=0.5", "--k=2", "--J=-1e300", "--E=1e-8"],
        ["potential-scan", "--kappa=2", "--k=1e-300", "--J=1e-300", "--r-min=1"],
        ["simulate", "--kappa=-1", "--k=1", "--elements=0,1e-300,0", "--t-end=0.1", "--tol=1e-13"],
    ):
        assert main(argv) == 4, argv
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and "Traceback" not in err
