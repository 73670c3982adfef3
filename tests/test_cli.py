"""End-to-end tests of the command-line front-end.

Every test drives ``curvedkepler.cli.main`` directly with an argv list
and captures stdout/stderr, so the whole pipeline short of process
spawning is exercised: flag parsing, config merging, the command body
and the serialization layer.
"""

import json
import math

import pytest

from curvedkepler import cli
from curvedkepler.cli import (
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_NUMERICAL,
    EXIT_OK,
    _build_parser,
    classify_record,
    main,
)
from curvedkepler.conics import ConicFamily, conic_from_dynamics
from curvedkepler.dynamics import Trajectory, _fall_time


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    """Split CLI CSV into (comment lines, header fields, data rows)."""
    comments, header, rows = [], None, []
    for line in text.splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, header, rows


def drift_report(comments):
    for line in comments:
        if line.startswith("# drift,"):
            fields = line[len("# drift,") :].split(",")
            return {fields[i]: float(fields[i + 1]) for i in range(0, len(fields), 2)}
    raise AssertionError("no drift comment row in output")


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------


def test_simulate_spherical_bounded_drift_under_1e9(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "simulate",
            "--kappa", "1", "--k", "1",
            "--elements", "1.2,1,0",
            "--t-end", "10", "--tol", "1e-11",
        ],
    )
    assert code == EXIT_OK
    comments, header, rows = parse_csv(out)
    assert header[:9] == ["t", "r", "phi", "v_r", "v_phi", "E", "J", "I3", "I4"]
    assert len(rows) > 50
    drift = drift_report(comments)
    assert set(drift) == {"E", "J", "I3", "I4"}
    assert all(v < 1e-9 for v in drift.values())
    # J column really is 1 all the way down
    j_col = header.index("J")
    assert all(abs(float(row[j_col]) - 1.0) < 1e-9 for row in rows)


def test_simulate_flat_circular_gives_constant_radius_rows(capsys):
    # E equal to the circular energy -k^2/(2 J^2) starts on the circle r = J^2/k
    code, out, _ = run_cli(
        capsys,
        [
            "simulate",
            "--kappa", "0", "--k", "1",
            "--elements=-0.5,1,0",
            "--t-end", "10", "--tol", "1e-11",
        ],
    )
    assert code == EXIT_OK
    _, header, rows = parse_csv(out)
    r_col = header.index("r")
    assert all(abs(float(row[r_col]) - 1.0) < 1e-8 for row in rows)


def test_simulate_radial_drop_truncates_with_collision_row(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "simulate",
            "--kappa", "0", "--k", "1",
            "--elements=-0.7,0,0",
            "--t-end", "50",
        ],
    )
    assert code == EXIT_INFEASIBLE
    comments, header, rows = parse_csv(out)
    event_lines = [c for c in comments if c.startswith("# event,collision,t,")]
    assert len(event_lines) == 1
    t_event = float(event_lines[0].split(",")[-1])
    # truncated well short of the requested 50 time units
    assert float(rows[-1][header.index("t")]) <= t_event < 5.0
    # the radial drop starts at rest at the potential zero 1/0.7
    assert float(rows[0][header.index("r")]) == pytest.approx(1.0 / 0.7, rel=1e-9)
    assert float(rows[0][header.index("v_r")]) == 0.0


@pytest.mark.parametrize(
    "kappa,k,argv",
    [
        # steps underflow at r ~ 1.2e-4 as E's rounding outgrows the spike bound
        (0.0, 1.0, ["--state", "1,0,0,0", "--t-end", "10", "--tol", "1e-13"]),
        (1.0, 1.0, ["--elements=-1,0,0", "--t-end", "10", "--tol", "1e-13"]),
        # at rest next to the centre the first trial step is below the bound
        (-1.0, 20.0, ["--state", "5e-5,0,0,0", "--t-end", "1", "--tol", "1e-9"]),
    ],
    ids=["flat", "sphere", "at rest"],
)
def test_simulate_radial_drop_with_underflowing_steps_collides(capsys, kappa, k, argv):
    code, out, err = run_cli(capsys, ["simulate", f"--kappa={kappa!r}", f"--k={k!r}", *argv, "--output", "json"])
    assert (code, err) == (EXIT_INFEASIBLE, "")
    doc = json.loads(out)
    assert doc["event"]["kind"] == "collision"
    # the event comes one fall law after the last row: (t, r, phi, v_r, v_phi, E, ...)
    t, r, _, v_r, _, e = doc["rows"][-1][:6]
    assert doc["event"]["t"] == t + _fall_time(kappa, k, r, v_r, e) > t


def test_simulate_radial_drop_whose_fall_ends_after_t_end_runs_to_t_end(capsys):
    # the flat k = 1 drop from r = 1 reaches the centre at pi/(2 sqrt 2); a t_end
    # 2e-7 before that lies after the drop crosses r = 1e-4, so the fall law would
    # end the run past t_end: it runs to t_end instead, with no event
    t_end = math.pi / (2.0 * math.sqrt(2.0)) - 2e-7
    argv = ["simulate", "--kappa", "0", "--k", "1", "--state", "1,0,0,0", f"--t-end={t_end!r}", "--output", "json"]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (EXIT_OK, "")
    doc = json.loads(out)
    assert doc["event"] is None
    t, r, _, v_r = doc["rows"][-1][:4]
    assert t == t_end and 0.0 < r < 1e-4 and v_r < 0.0


def test_simulate_a_non_radial_fall_whose_steps_underflow_exits_4(capsys):
    # J = 1e-3 on the flat plane: the orbit turns at its periastron 5e-7, and
    # the steps underflow on the way near r = 1.7e-6; that is no collision
    argv = ["simulate", "--kappa", "0", "--k", "1", "--state", "1,0,0,0.001", "--t-end", "3", "--tol", "1e-11"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (EXIT_NUMERICAL, "")
    assert "step size underflow at t=1.1107215662356118" in err
    assert "falling below r=0.0001" in err and "Traceback" not in err


def test_simulate_a_radial_fall_whose_steps_underflow_before_t_end_exits_4(capsys):
    # the flat k = 1 drop from r = 1 reaches the centre at pi/(2 sqrt 2); a t_end
    # 1e-10 before that lies after the steps underflow near r = 1.8e-6, and
    # the fall law ends the run past t_end: no collision, and no row at t_end
    argv = ["simulate", "--kappa", "0", "--k", "1", "--state", "1,0,0,0", "--t-end", "1.1107207344395915", "--tol", "1e-11"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (EXIT_NUMERICAL, "")
    assert "step size underflow" in err and "falling below r=0.0001" in err and "Traceback" not in err


def test_simulate_a_periastron_whose_w_overflows_ends_by_a_documented_code(capsys):
    # the turning-point check of u_per = 2e+154, where k u and (j u)**2
    # overflow, passes; the start at r = 5e-155 then meets its own checks
    argv = ["simulate", "--kappa", "-1", "--k", "1e154", "--elements", "13691822.331287837,-1,0", "--t-end", "1"]
    code, out, err = run_cli(capsys, argv)
    assert code in (EXIT_OK, EXIT_INFEASIBLE, EXIT_NUMERICAL)
    assert (code == EXIT_OK) == (err == "") and "Traceback" not in err
    assert "turning point verification failed" not in err


def test_simulate_elements_start_at_periastron(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "simulate",
            "--kappa", "-1", "--k", "4",
            "--elements=-6,1,0.25",
            "--t-end", "1",
        ],
    )
    assert code == EXIT_OK
    _, header, rows = parse_csv(out)
    first = {name: float(val) for name, val in zip(header, rows[0])}
    assert first["v_r"] == 0.0
    assert first["phi"] == 0.25
    # periastron: radius grows from the first row
    assert float(rows[1][header.index("r")]) > first["r"]
    assert first["E"] == pytest.approx(-6.0, abs=1e-12)


def test_simulate_csv_fields_reparse_bit_identical(capsys):
    _, out, _ = run_cli(
        capsys,
        [
            "simulate",
            "--kappa", "1", "--k", "1",
            "--elements", "1.2,1,0",
            "--t-end", "2",
        ],
    )
    _, _, rows = parse_csv(out)
    assert rows
    for row in rows:
        for field in row:
            assert format(float(field), ".17g") == field


def test_simulate_json_output_shape(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "simulate",
            "--kappa", "1", "--k", "1",
            "--elements", "1.2,1,0",
            "--t-end", "2",
            "--output", "json",
        ],
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["event"] is None
    assert doc["columns"][:9] == ["t", "r", "phi", "v_r", "v_phi", "E", "J", "I3", "I4"]
    assert all(len(row) == len(doc["columns"]) for row in doc["rows"])
    assert set(doc["drift"]) == {"E", "J", "I3", "I4"}
    assert doc["rows"][0][0] == 0.0
    assert doc["rows"][-1][0] == 2.0


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--kappa=1", "--k=1", "--elements=-0.3,0.8,0", "--t-end=3", "--chart=polar"],
        ["simulate", "--kappa=0", "--k=1", "--elements=-0.3,0.8,1", "--t-end=3", "--chart=ambient"],
        ["simulate", "--kappa=-1", "--k=1", "--elements=-1.05,0.8,0", "--t-end=3", "--chart=poincare_disk"],
        # a radial drop: the collision event is set
        ["simulate", "--kappa=1", "--k=1", "--state=0.8,0,0,0", "--t-end=5", "--chart=ambient"],
        ["conic", "--kappa=-1", "--d=0.8", "--ecc=0.5"],
        ["conic", "--kappa=-1", "--periastron=0.5", "--phi-steps=16"],
    ],
    ids=["polar", "ambient", "poincare_disk", "radial", "conic", "conic-periastron"],
)
def test_json_output_equals_json_dumps_byte_for_byte(capsys, monkeypatch, argv):
    # the row template writes what json.dumps(doc, indent=2) writes
    docs = []
    template = cli._json

    def spy(doc):
        docs.append(doc)
        return template(doc)

    monkeypatch.setattr(cli, "_json", spy)
    code, out, _ = run_cli(capsys, argv + ["--output=json"])
    assert code in (EXIT_OK, EXIT_INFEASIBLE)
    (doc,) = docs
    assert (doc.get("event") is not None) == (argv[3] == "--state=0.8,0,0,0")
    assert out == json.dumps(doc, indent=2) + "\n"


def test_simulate_state_flag_form(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "simulate",
            "--kappa", "0", "--k", "1",
            "--state", "1.0,0.0,0.0,1.0",
            "--t-end", "3", "--tol", "1e-11",
        ],
    )
    assert code == EXIT_OK
    _, header, rows = parse_csv(out)
    r_col = header.index("r")
    assert all(abs(float(row[r_col]) - 1.0) < 1e-8 for row in rows)


def test_simulate_chart_columns(capsys):
    # ambient chart adds three columns; the sphere embeds at unit distance
    code, out, _ = run_cli(
        capsys,
        [
            "simulate",
            "--kappa", "1", "--k", "1",
            "--elements", "1.2,1,0",
            "--t-end", "1",
            "--chart", "ambient",
        ],
    )
    assert code == EXIT_OK
    _, header, rows = parse_csv(out)
    assert header[-3:] == ["chart_x", "chart_y", "chart_z"]
    for row in rows[:10]:
        x, y, z = (float(v) for v in row[-3:])
        assert x * x + y * y + z * z == pytest.approx(1.0, rel=1e-12)


def test_the_shared_parser_carries_no_flag_into_the_next_call(capsys):
    # main builds its parser once per process: each call's outputs equal
    # those of a freshly built parser, whatever the call before it set
    sim = ["simulate", "--kappa", "1", "--k", "1", "--elements", "1.2,1,0", "--t-end", "1"]
    trig = ["trig-check", "--pairs", "20"]
    runs = [sim + ["--chart", "ambient"], sim, ["--seed", "3", *trig], trig]
    shared = [run_cli(capsys, argv) for argv in runs]
    fresh = []
    for argv in runs:
        _build_parser.cache_clear()
        fresh.append(run_cli(capsys, argv))
    assert shared == fresh
    assert "chart_z" in shared[0][1] and "chart_z" not in shared[1][1]
    assert shared[2][1] != shared[3][1]


def _float_flags(command):
    """(option string, dest) of each float flag of a subcommand."""
    sub = next(a for a in _build_parser()._actions if a.dest == "command").choices[command]
    return [(a.option_strings[0], a.dest) for a in sub._actions if a.type is cli._finite_flag]


@pytest.mark.parametrize("command", ["simulate", "classify", "potential-scan", "conic"])
def test_a_negative_number_in_exponent_form_follows_its_flag(command):
    # argparse once read -1e-06 after a flag as an unknown option and
    # exited 2 with "expected one argument"; only --flag=value worked
    flags = _float_flags(command)
    assert flags
    argv = [command]
    for i, (flag, _) in enumerate(flags):
        argv += [flag, f"-{i + 1}e-3"]
    args = _build_parser().parse_args(argv)
    assert [getattr(args, dest) for _, dest in flags] == [-(i + 1) * 1e-3 for i in range(len(flags))]


def test_packed_negative_values_follow_their_flag():
    args = _build_parser().parse_args(["simulate", "--elements", "-0.5,1,0", "--state", "-1e-1,0,0,1"])
    assert (args.elements, args.state) == ("-0.5,1,0", "-1e-1,0,0,1")


def test_a_flag_without_its_value_still_exits_2(capsys):
    code, out, err = run_cli(capsys, ["classify", "--kappa", "--k", "1", "--J", "1", "--E", "-3e-1"])
    assert (code, out) == (EXIT_CONFIG, "")
    assert "argument --kappa: expected one argument" in err


def test_simulate_poincare_chart_stays_in_unit_disk(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "simulate",
            "--kappa", "-1", "--k", "4",
            "--elements=-6,1,0",
            "--t-end", "3",
            "--chart", "poincare_disk",
        ],
    )
    assert code == EXIT_OK
    _, header, rows = parse_csv(out)
    assert header[-2:] == ["chart_x", "chart_y"]
    for row in rows:
        x, y = float(row[-2]), float(row[-1])
        assert math.hypot(x, y) < 1.0


def test_simulate_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(
        json.dumps(
            {
                "schema": 1,
                "kappa": 1.0,
                "k": 1.0,
                "initial": {"elements": [1.2, 1.0, 0.0]},
                "t_end": 9.0,
                "tol": 1e-10,
            }
        )
    )
    code, out, _ = run_cli(
        capsys, ["simulate", "--config", str(cfg), "--t-end", "2"]
    )
    assert code == EXIT_OK
    _, header, rows = parse_csv(out)
    assert float(rows[-1][header.index("t")]) == 2.0  # flag beat the file


def test_simulate_out_file(capsys, tmp_path):
    target = tmp_path / "traj.csv"
    code, out, _ = run_cli(
        capsys,
        [
            "simulate",
            "--kappa", "0", "--k", "1",
            "--state", "1.0,0.0,0.0,1.0",
            "--t-end", "1",
            "--out", str(target),
        ],
    )
    assert code == EXIT_OK
    assert out == ""
    comments, header, rows = parse_csv(target.read_text())
    assert header[0] == "t" and rows


@pytest.mark.parametrize(
    "argv, expected_code, writes",
    [
        # fails midway through the rows
        (["potential-scan", "--kappa=-1e300", "--k=3.14159", "--J=-1", "--r-min=1e-300",
          "--r-max=1e-8", "--steps=9"], EXIT_NUMERICAL, False),
        # a configuration error found after the flags parsed
        (["simulate", "--kappa", "1", "--k", "0", "--elements=-0.3,0.8,0", "--t-end", "2"],
         EXIT_CONFIG, False),
        # a radial drop ends in a collision, and its table is still written
        (["simulate", "--kappa", "1", "--k", "1", "--elements=-0.5,0,0", "--t-end", "5"],
         EXIT_INFEASIBLE, True),
        (["classify", "--kappa", "0", "--k", "1", "--J", "1", "--E", "-0.3"], EXIT_OK, True),
    ],
)
def test_out_file_is_replaced_only_by_output(capsys, tmp_path, argv, expected_code, writes):
    code, printed, _ = run_cli(capsys, argv)
    assert (code, bool(printed)) == (expected_code, writes)
    target = tmp_path / "f"
    target.write_bytes(b"old content\n")
    assert main([*argv, "--out", str(target)]) == code
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == (printed.encode() if writes else b"old content\n")


def test_unwritable_out_file_exits_2(capsys, tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "f"
    argv = ["classify", "--kappa", "0", "--k", "1", "--J", "1", "--E", "-0.3", "--out", str(missing)]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith("config error: ") and str(missing) in err


@pytest.mark.parametrize(
    "argv",
    [
        # missing k
        ["simulate", "--kappa", "1", "--elements", "1.2,1,0", "--t-end", "1"],
        # both initial forms
        [
            "simulate", "--kappa", "1", "--k", "1",
            "--elements", "1.2,1,0", "--state", "1,0,0,1", "--t-end", "1",
        ],
        # no initial form
        ["simulate", "--kappa", "1", "--k", "1", "--t-end", "1"],
        # tol out of range
        [
            "simulate", "--kappa", "1", "--k", "1", "--elements", "1.2,1,0",
            "--t-end", "1", "--tol", "1e-3",
        ],
        # malformed state
        ["simulate", "--kappa", "1", "--k", "1", "--state", "1,0,0", "--t-end", "1"],
        # negative radius
        ["simulate", "--kappa", "1", "--k", "1", "--state=-1,0,0,1", "--t-end", "1"],
        # t_end not positive
        ["simulate", "--kappa", "1", "--k", "1", "--elements", "1.2,1,0", "--t-end", "0"],
        # poincare chart needs kappa < 0
        [
            "simulate", "--kappa", "1", "--k", "1", "--elements", "1.2,1,0",
            "--t-end", "1", "--chart", "poincare_disk",
        ],
        # k must be positive
        ["simulate", "--kappa", "1", "--k", "-2", "--elements", "1.2,1,0", "--t-end", "1"],
        # a state that is not numbers
        ["simulate", "--kappa", "1", "--k", "1", "--state", "a,b,c,d", "--t-end", "1"],
    ],
)
def test_simulate_config_errors_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == EXIT_CONFIG
    assert "config error" in err


def test_simulate_rejects_unknown_config_schema(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"schema": 2, "kappa": 1.0, "k": 1.0, "t_end": 1.0}))
    code, _, err = run_cli(capsys, ["simulate", "--config", str(cfg)])
    assert code == EXIT_CONFIG
    assert "schema" in err


def test_simulate_rejects_an_unreadable_config_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["simulate", "--config", str(tmp_path / "missing.json")])
    assert code == EXIT_CONFIG
    assert "cannot read config file" in err


def test_simulate_rejects_malformed_config_json(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text("{not json")
    code, _, err = run_cli(capsys, ["simulate", "--config", str(cfg)])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize(
    "patch",
    [
        {"kappa": "abc"},
        {"k": "1.0"},
        {"t_end": [1.0]},
        {"tol": True},
        {"t_end": float("nan")},
        {"initial": {"elements": [1.2, "abc", 0.0]}},
        {"initial": {"elements": "1.2,1,0"}},
        {"initial": {"state": [1.0, 0.0, None, 1.0]}},
    ],
)
def test_simulate_config_wrong_json_types_exit_2(capsys, tmp_path, patch):
    doc = {"schema": 1, "kappa": 1.0, "k": 1.0, "t_end": 1.0}
    doc["initial"] = {"elements": [1.2, 1.0, 0.0]}
    doc.update(patch)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, ["simulate", "--config", str(cfg)])
    assert code == EXIT_CONFIG
    assert out == ""
    assert "config error" in err and "Traceback" not in err
    key = next(iter(patch))
    if key == "initial":
        key = "initial." + next(iter(patch["initial"]))
    assert f'config "{key}"' in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
@pytest.mark.parametrize(
    "line, flag",
    [
        ("classify --kappa={} --k 1 --J 1 --E -0.3", "--kappa"),
        ("classify --kappa 1 --k 1 --J 1 --E={}", "--E"),
        ("simulate --kappa 1 --k={} --elements=-0.3,1,0 --t-end 1", "--k"),
        ("simulate --kappa 1 --k 1 --elements=-0.3,1,0 --t-end={}", "--t-end"),
        ("simulate --kappa 1 --k 1 --elements=-0.3,{},0 --t-end 1", "--elements"),
        ("simulate --kappa 1 --k 1 --state=1,0,{},1 --t-end 1", "--state"),
        ("potential-scan --kappa 1 --k 1 --J 1 --r-max={}", "--r-max"),
        ("conic --kappa -1 --d 0.5 --ecc={}", "--ecc"),
        ("conic --kappa -1 --periastron={}", "--periastron"),
    ],
)
def test_non_finite_float_flags_exit_2(capsys, line, flag, value):
    code, out, err = run_cli(capsys, line.format(value).split())
    assert code == EXIT_CONFIG
    assert out == ""
    assert flag in err and "finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize(
    "line",
    [
        "classify --kappa 1 --k={} --J 1 --E -0.3",
        "classify --kappa -1 --k={} --J 0.5 --E -2",
        "simulate --kappa 1 --k={} --elements=-0.3,1,0 --t-end 1",
        "potential-scan --kappa 1 --k={} --J 1",
    ],
)
def test_nonpositive_coupling_exit_2(capsys, line, value):
    code, out, err = run_cli(capsys, line.format(value).split())
    assert code == EXIT_CONFIG
    assert out == ""
    assert "config error" in err and "coupling k must be positive" in err


def test_simulate_infeasible_elements_exit_3(capsys):
    # far below the flat circular energy -0.5: no turning point at all
    code, _, err = run_cli(
        capsys,
        [
            "simulate",
            "--kappa", "0", "--k", "1",
            "--elements=-10,1,0",
            "--t-end", "1",
        ],
    )
    assert code == EXIT_INFEASIBLE
    assert "infeasible" in err


def test_simulate_radial_start_at_a_cotangent_of_1e200_exits_3(capsys):
    # the turning point r = 1e-200 verifies; the right-hand side divides by
    # zero there, and the refusal names the initial state
    argv = ["simulate", "--kappa", "0", "--k", "1", "--elements=-1e200,0,0", "--t-end", "1"]
    code, out, err = run_cli(capsys, argv)
    assert code == EXIT_INFEASIBLE
    assert out == ""
    assert "right-hand side failed at the initial state (1e-200, 0.0, 0.0, 0.0)" in err


def test_simulate_beyond_escape_at_the_plateau_exits_3(capsys):
    # j beyond the escape value and E a hair below the plateau -k: the
    # energy classify calls infeasible, not a failed turning-point check
    argv = [
        "--kappa", "-1", "--k", "4.200741856093109",
        "--elements=-4.2007418681388025,-2.0495711395541045,0",
    ]
    code, out, err = run_cli(capsys, ["simulate", *argv, "--t-end", "1"])
    assert code == EXIT_INFEASIBLE
    assert out == "" and "infeasible" in err
    code, _, err = run_cli(capsys, ["classify", "--kappa", "-1", "--k", "4.200741856093109",
                                    "--J", "-2.0495711395541045", "--E", "-4.2007418681388025"])
    assert code == EXIT_INFEASIBLE


def test_simulate_non_finite_invariants_exit_4_and_write_nothing(capsys):
    # r starts near 2.5e244: sin_k(r)**2 overflows and v_phi underflows
    # to 0, so J = sin_k(r)**2 v_phi is NaN; the drift footer used to
    # read 0 and the run exited 0
    code, out, err = run_cli(
        capsys,
        [
            "simulate",
            "--kappa=0", "--k=4.0166038089235546e-261",
            "--elements=0,1e-8,0", "--t-end=1e-9", "--tol=1e-9",
        ],
    )
    assert code == EXIT_NUMERICAL
    assert out == ""
    assert "not finite" in err


def test_simulate_invariant_overflowing_after_the_start_exits_4(capsys):
    # r ~ 355 on the hyperbolic plane, where sinh(r)**2 nears the largest
    # double: E_P and I3 start within a few ulps of it and overflow at the
    # first step, which the spike guard (watching E and J) lets pass
    code, out, err = run_cli(
        capsys,
        [
            "simulate", "--kappa", "-1", "--k", "1",
            "--state", "354.71857694721126,0,0.46915430281842907,4.214796180251422e-154",
            "--t-end", "0.02", "--tol", "1e-9",
        ],
    )
    assert code == EXIT_NUMERICAL
    assert out == ""
    assert "first integral E_P of accepted state 1" in err and "not finite: inf" in err


def test_simulate_drift_overflowing_exits_4(capsys, monkeypatch):
    # finite invariants of opposite sign near the largest double: their
    # difference, the drift's numerator, overflows
    invariants = [[0.0, 1.0, 0.0, 1e308, 0.0], [0.0, 1.0, 0.0, -1e308, 0.0]]
    traj = Trajectory(-1.0, [0.0, 1.0], [[1.0, 0.0, 0.0, 1.0]] * 2, invariants)
    monkeypatch.setattr(cli, "integrate", lambda *args, **kwargs: traj)
    code, out, err = run_cli(
        capsys, ["simulate", "--kappa", "-1", "--k", "1", "--state", "1,0,0,1", "--t-end", "1"]
    )
    assert code == EXIT_NUMERICAL
    assert out == ""
    assert "invariant drift not finite" in err and "inf" in err


def test_simulate_span_below_the_underflow_bound(capsys):
    code, out, err = run_cli(
        capsys,
        ["simulate", "--kappa", "0", "--k", "1", "--state", "1,0,0,1", "--t-end", "1e-15"],
    )
    assert (code, err) == (EXIT_OK, "")
    _, header, rows = parse_csv(out)
    assert [float(row[0]) for row in rows] == [0.0, 1e-15]


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--kappa", "1", "--k", "1", "--J", "1e-160", "--E", "1e30"],
        ["potential-scan", "--kappa", "0", "--k", "1", "--J", "1e-160", "--steps", "3"],
    ],
)
def test_overflowing_minimum_of_w_exits_4(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (EXIT_NUMERICAL, "")
    assert "w_min = -inf" in err


def test_a_j_whose_square_overflows_exits_4_naming_j(capsys):
    code, out, err = run_cli(
        capsys, ["potential-scan", "--kappa", "1", "--k", "1", "--J", "1e200", "--steps", "3"]
    )
    assert (code, out) == (EXIT_NUMERICAL, "")
    assert "j=1e+200 gives j**2 = inf" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--kappa", "0", "--k", "1", "--elements=-1,0.001,0", "--t-end", "0.001"],
        ["classify", "--kappa", "-1", "--k", "1", "--J", "0.001", "--E", "-0.5"],
        ["potential-scan", "--kappa", "-1", "--k", "1", "--J", "0.001", "--steps", "3"],
    ],
)
def test_a_small_j_turning_point_passes_verification(capsys, argv):
    # one ulp of the periastron radius moves W by 4e-10 here: the root is
    # exact in u and must not be refused by the 1e-11 residual check
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (EXIT_OK, "")
    assert out


# ----------------------------------------------------------------------
# classify
# ----------------------------------------------------------------------


def classify(capsys, kappa, k, j, e):
    code, out, err = run_cli(
        capsys,
        [
            "classify",
            "--kappa", str(kappa), "--k", str(k),
            "--J", str(j), "--E", str(e),
        ],
    )
    return code, out, err


def test_classify_hyperbolic_circle(capsys):
    code, out, _ = classify(capsys, -1, 1, 0.5, -2.125)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["label"] == "hyp_circle"
    assert doc["bounded"] is True
    assert doc["ecc"] == pytest.approx(0.0, abs=1e-7)


def test_classify_hyperbolic_zero_energy_parabola(capsys):
    code, out, _ = classify(capsys, -1, 4, 1, 0)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["label"] == "hyp_open"
    assert doc["bounded"] is False
    assert doc["ecc"] == pytest.approx(math.sqrt(17.0) / 4.0, rel=1e-15)
    assert doc["ecc"] == pytest.approx(1.0307764064044151, rel=1e-15)
    assert doc["conic"]["family"] == "latus"
    assert doc["conic"]["label"] == "parabola"
    assert doc["d"] == 0.25
    assert doc["thresholds"]["ecc_horoellipse"] == pytest.approx(0.75)
    assert doc["thresholds"]["ecc_horohyperbola"] == pytest.approx(1.25)
    assert doc["landmarks"]["e_infinity"] == pytest.approx(-4.0)
    assert doc["landmarks"]["j_infinity"] == pytest.approx(2.0)


def test_classify_flat_circle(capsys):
    code, out, _ = classify(capsys, 0, 1, 1, -0.5)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["label"] == "circle"
    assert doc["bounded"] is True
    assert doc["conic"]["label"] == "circle"
    assert doc["landmarks"]["e_infinity"] is None


def test_classify_json_roundtrip_equals_record(capsys):
    for kappa, k, j, e in [(-1, 4, 1, 0), (1, 1, 1, 1.2), (0, 1, 1, -0.3), (-1, 1, 0, -2)]:
        code, out, _ = classify(capsys, kappa, k, j, e)
        assert code == EXIT_OK
        assert json.loads(out) == classify_record(kappa, k, j, e)


def test_classify_radial_pair_has_no_conic_block(capsys):
    code, out, _ = classify(capsys, 0, 1, 0, -2)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["label"] == "radial_collision"
    assert doc["ecc"] is None and doc["d"] is None
    assert doc["conic"] is None and doc["thresholds"] is None


def test_classify_spherical_orbit_is_always_bounded(capsys):
    code, out, _ = classify(capsys, 1, 1, 1, 5.0)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["bounded"] is True
    assert doc["label"].startswith("spherical_ellipse")


@pytest.mark.parametrize(
    "e,label,bounded,conic",
    [
        # ecc 4.7e-11 under the parabola's 1, the far apsis u = (1 - ecc)/d
        # at 3.5e-9, above the band of 1e-9: the parent called this orbit a
        # bounded flat ellipse and its conic a parabola
        ("-5.223186524585646e-09", "flat_ellipse", True, "ellipse"),
        # u at 6.8e-10, inside the band: a parabola throughout
        ("-1e-09", "flat_parabola", False, "parabola"),
    ],
)
def test_classify_near_the_parabola_is_one_class(capsys, e, label, bounded, conic):
    code, out, _ = run_cli(
        capsys,
        ["classify", "--kappa", "0", "--k", "1.4770787061859296",
         "--J", "0.13977197546947992", f"--E={e}"],
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["label"] == label
    assert doc["bounded"] is bounded
    assert doc["conic"]["label"] == conic


def test_classify_infeasible_pair_exit_3(capsys):
    code, _, err = classify(capsys, 1, 1, 1, -1.0)  # below the spherical minimum
    assert code == EXIT_INFEASIBLE
    assert "infeasible" in err


# ----------------------------------------------------------------------
# potential-scan
# ----------------------------------------------------------------------


def scan(capsys, argv_tail):
    return run_cli(capsys, ["potential-scan", *argv_tail])


def test_scan_spherical_minimum_at_quarter_pi(capsys):
    code, out, _ = scan(capsys, ["--kappa", "1", "--k", "1", "--J", "1", "--steps", "50"])
    assert code == EXIT_OK
    comments, header, rows = parse_csv(out)
    crit = next(c for c in comments if c.startswith("# critical_r,"))
    fields = crit.split(",")
    assert float(fields[1]) == pytest.approx(math.pi / 4.0, rel=1e-12)
    assert float(fields[3]) == pytest.approx(0.0, abs=1e-12)
    assert header == ["r", "w"]
    assert len(rows) == 50


def test_scan_hyperbolic_saturated_profile_has_no_minimum(capsys):
    code, out, _ = scan(capsys, ["--kappa", "-1", "--k", "1", "--J", "2", "--steps", "40"])
    assert code == EXIT_OK
    comments, _, rows = parse_csv(out)
    assert any(c.startswith("# critical,none,") for c in comments)
    w = [float(row[1]) for row in rows]
    assert all(b < a for a, b in zip(w, w[1:]))  # strictly decreasing


def test_scan_hyperbolic_well_at_atanh_quarter(capsys):
    code, out, _ = scan(capsys, ["--kappa", "-1", "--k", "4", "--J", "1", "--steps", "40"])
    assert code == EXIT_OK
    comments, _, _ = parse_csv(out)
    crit = next(c for c in comments if c.startswith("# critical_r,"))
    assert float(crit.split(",")[1]) == pytest.approx(math.atanh(0.25), rel=1e-12)
    escape = next(c for c in comments if c.startswith("# e_infinity,"))
    fields = escape.split(",")
    assert float(fields[1]) == pytest.approx(-4.0)
    assert float(fields[3]) == pytest.approx(2.0)


def test_scan_grid_matches_w_eff(capsys):
    from curvedkepler.effective_potential import w_eff

    code, out, _ = scan(
        capsys,
        ["--kappa", "-1", "--k", "4", "--J", "1", "--r-min", "0.2", "--r-max", "2.0", "--steps", "7"],
    )
    assert code == EXIT_OK
    _, _, rows = parse_csv(out)
    assert len(rows) == 7
    assert float(rows[0][0]) == 0.2 and float(rows[-1][0]) == 2.0
    for r_text, w_text in rows:
        assert float(w_text) == w_eff(-1.0, 4.0, 1.0, float(r_text))


@pytest.mark.parametrize(
    "kappa, r_max, r_min, r_max_used",
    [
        ("1e4", None, 0.1 * (0.9 * (math.pi / 100.0)), 0.9 * (math.pi / 100.0)),
        ("-1", "0.05", 0.1 * 0.05, 0.05),
        ("-1", None, 0.1, 5.0),
    ],
)
def test_scan_default_r_min_lies_below_r_max(capsys, kappa, r_max, r_min, r_max_used):
    # the default r_min was 0.1 whatever r_max was in use: at kappa = 1e4 the
    # default r_max is 0.0283, and a scan with no radius flag exited 2
    argv = ["--kappa", kappa, "--k", "1", "--J", "1", "--steps", "5"]
    code, out, err = scan(capsys, argv + ([] if r_max is None else ["--r-max", r_max]))
    assert (code, err) == (EXIT_OK, "")
    _, _, rows = parse_csv(out)
    assert (float(rows[0][0]), float(rows[-1][0])) == (r_min, r_max_used)


def test_scan_out_of_range_grid_exit_2(capsys):
    code, _, err = scan(
        capsys,
        ["--kappa", "1", "--k", "1", "--J", "1", "--r-min", "0.5", "--r-max", "4.0"],
    )
    assert code == EXIT_CONFIG
    code2, _, _ = scan(capsys, ["--kappa", "0", "--k", "1", "--J", "1", "--r-min", "0"])
    assert code2 == EXIT_CONFIG


@pytest.mark.parametrize(
    "argv",
    [
        ["potential-scan", "--kappa", "-1", "--k", "1", "--J", "0.8", f"--steps={2**62}"],
        ["conic", "--kappa", "-1", "--d", "0.5", "--ecc", "0.3", f"--phi-steps={2**62}"],
        ["conic", "--kappa", "-1", "--periastron", "0.6", f"--phi-steps={2**62}"],
    ],
    ids=["potential-scan", "conic", "conic family"],
)
def test_a_grid_above_max_grid_exits_2(capsys, argv):
    # refused before a row is built: the rows would exhaust the memory
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (EXIT_CONFIG, "")
    assert str(cli.MAX_GRID) in err and "Traceback" not in err


def test_scan_failing_midway_writes_nothing(capsys):
    # the first grid row is W = inf; the second overflows
    code, out, err = scan(
        capsys,
        ["--kappa=-1e300", "--k=3.14159", "--J=-1", "--r-min=1e-300", "--r-max=1e-8", "--steps=9"],
    )
    assert code == EXIT_NUMERICAL
    assert out == ""
    assert "numerical failure" in err


# ----------------------------------------------------------------------
# conic
# ----------------------------------------------------------------------


def test_conic_single_emits_classified_samples(capsys):
    code, out, _ = run_cli(
        capsys,
        ["conic", "--kappa", "-1", "--d", "0.5", "--ecc", "3", "--phi-steps", "64"],
    )
    assert code == EXIT_OK
    comments, header, rows = parse_csv(out)
    assert any(c.startswith("# family,latus,label,hyperbola") for c in comments)
    assert header == ["phi", "r", "chart_x", "chart_y"]
    # asymptotic sector is skipped: fewer rows than angles, all radii finite
    assert 0 < len(rows) < 64
    assert all(math.isfinite(float(row[1])) for row in rows)


def test_conic_single_json_matches_csv_membership(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "conic", "--kappa", "0", "--d", "1.5", "--ecc", "0.5",
            "--phi-steps", "16", "--output", "json",
        ],
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["family"] == "latus" and doc["label"] == "ellipse"
    assert len(doc["rows"]) == 16
    for phi, r, x, y in doc["rows"]:
        # flat latus chart: r(phi) = d/(1 + e cos phi)
        assert r == pytest.approx(1.5 / (1.0 + 0.5 * math.cos(phi)), rel=1e-12)
        assert x == pytest.approx(r * math.cos(phi), abs=1e-12)


def test_conic_on_a_nearly_flat_sphere_keeps_its_radius(capsys):
    # u/sqrt(kappa) overflowed in acot_k, and this circle of radius 1e-300
    # came out as rows at r = 0
    code, out, _ = run_cli(
        capsys, ["conic", "--kappa", "1e-20", "--d", "1e-300", "--ecc", "0", "--phi-steps", "8"]
    )
    assert code == EXIT_OK
    _, _, rows = parse_csv(out)
    assert [float(row[1]) for row in rows] == [1e-300] * 8


def test_conic_infeasible_spec_exit_3(capsys):
    # d/(1+ecc) at or beyond the asymptote radius: no periastron exists
    code, _, err = run_cli(
        capsys, ["conic", "--kappa", "-1", "--d", "3", "--ecc", "1"]
    )
    assert code == EXIT_INFEASIBLE
    assert "infeasible" in err


def test_conic_requires_spec_or_periastron(capsys):
    code, _, err = run_cli(capsys, ["conic", "--kappa", "-1"])
    assert code == EXIT_CONFIG
    code2, _, _ = run_cli(capsys, ["conic", "--kappa", "-1", "--d", "-1", "--ecc", "0"])
    assert code2 == EXIT_CONFIG


@pytest.mark.parametrize("extra", [["--d", "5", "--ecc", "0.3"], ["--d", "5"], ["--ecc", "0.3"]])
def test_conic_refuses_periastron_with_d_or_ecc(capsys, extra):
    # the family form and the single-conic form are two specs: neither is dropped
    code, out, err = run_cli(capsys, ["conic", "--kappa", "-1", "--periastron", "0.6", *extra])
    assert code == EXIT_CONFIG
    assert out == ""
    assert "--periastron" in err and "--d and --ecc" in err


def test_conic_poincare_chart_needs_negative_curvature(capsys):
    code, _, err = run_cli(
        capsys,
        ["conic", "--kappa", "0", "--d", "1", "--ecc", "0", "--chart", "poincare_disk"],
    )
    assert code == EXIT_CONFIG
    code2, out, _ = run_cli(
        capsys,
        ["conic", "--kappa", "-1", "--d", "0.5", "--ecc", "0", "--chart", "poincare_disk"],
    )
    assert code2 == EXIT_OK
    _, _, rows = parse_csv(out)
    assert all(math.hypot(float(r[-2]), float(r[-1])) < 1.0 for r in rows)


def test_conic_family_flat_is_the_classic_ladder(capsys):
    code, out, _ = run_cli(
        capsys,
        ["conic", "--kappa", "0", "--periastron", "1", "--output", "json", "--phi-steps", "32"],
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    labels = [s["label"] for s in doc["specimens"]]
    eccs = [s["ecc"] for s in doc["specimens"]]
    assert labels == ["circle", "ellipse", "parabola", "hyperbola"]
    assert eccs == [0.0, 0.5, 1.0, 2.0]
    assert doc["landmarks"]["d_circle"] == 1.0
    assert doc["landmarks"]["d_horoellipse"] == 2.0
    assert doc["landmarks"]["d_horohyperbola"] == 2.0
    # every specimen has periastron 1: min radius of the samples
    for s in doc["specimens"]:
        r_min = min(row[1] for row in s["rows"])
        assert r_min == pytest.approx(1.0, abs=1e-12)


def test_conic_family_small_periastron_regime(capsys):
    # tanh(r_per) small: the bounded bands are wide (ellipse band non-empty)
    code, out, _ = run_cli(
        capsys,
        [
            "conic", "--kappa", "-1", "--periastron", str(math.atanh(0.2)),
            "--output", "json", "--phi-steps", "64",
        ],
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    lm = doc["landmarks"]
    assert 0.0 < lm["ecc_horoellipse"] < 1.0
    labels = [s["label"] for s in doc["specimens"]]
    assert labels == [
        "circle", "ellipse", "horoellipse", "equiparabola",
        "parabola", "horohyperbola", "hyperbola",
    ]
    eccs = [s["ecc"] for s in doc["specimens"]]
    assert eccs == sorted(eccs)
    assert eccs[1] == pytest.approx(0.5 * lm["ecc_horoellipse"])
    # all bounded members keep their periastron at r_per
    for s in doc["specimens"][:3]:
        assert min(row[1] for row in s["rows"]) == pytest.approx(
            math.atanh(0.2), rel=1e-9
        )


def test_conic_family_large_periastron_pushes_chain_beyond_latus(capsys):
    # tanh(r_per) = 0.8: the horohyperbola landmark size exceeds the
    # asymptote scale, so the open members live on the colatus chart
    r_per = math.atanh(0.8)
    code, out, _ = run_cli(
        capsys,
        ["conic", "--kappa", "-1", "--periastron", str(r_per), "--output", "json"],
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    lm = doc["landmarks"]
    assert lm["d_horohyperbola"] > 1.0  # beyond 1/sqrt(-kappa)
    by_label = {s["label"]: s for s in doc["specimens"]}
    spec_hh = conic_from_dynamics(-1.0, 0.8 * (1.0 + by_label["horohyperbola"]["ecc"]),
                                  by_label["horohyperbola"]["ecc"])
    spec_hy = conic_from_dynamics(-1.0, 0.8 * (1.0 + by_label["hyperbola"]["ecc"]),
                                  by_label["hyperbola"]["ecc"])
    assert spec_hh.family is ConicFamily.COLATUS
    assert spec_hy.family is ConicFamily.COLATUS


def test_conic_family_rejected_on_sphere(capsys):
    code, _, err = run_cli(capsys, ["conic", "--kappa", "1", "--periastron", "0.5"])
    assert code == EXIT_INFEASIBLE
    assert "infeasible" in err


def test_conic_family_beyond_the_saturation_of_tanh_exits_3(capsys):
    # tanh(20) rounds to 1: the family has no landmark in double precision
    code, out, err = run_cli(capsys, ["conic", "--kappa", "-1", "--periastron", "20"])
    assert code == EXIT_INFEASIBLE
    assert out == ""
    assert "saturation" in err


def test_conic_family_csv_rows_are_label_tagged(capsys):
    code, out, _ = run_cli(
        capsys,
        ["conic", "--kappa", "-1", "--periastron", "0.3", "--phi-steps", "16"],
    )
    assert code == EXIT_OK
    _, header, rows = parse_csv(out)
    assert header == ["label", "ecc", "phi", "r", "chart_x", "chart_y"]
    seen = {row[0] for row in rows}
    assert {"circle", "horoellipse", "parabola", "hyperbola"} <= seen


# ----------------------------------------------------------------------
# trig-check
# ----------------------------------------------------------------------


def test_trig_check_passes_and_reports(capsys):
    code, out, _ = run_cli(capsys, ["--seed", "42", "trig-check", "--pairs", "5000"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["pairs"] == 5000 and doc["seed"] == 42
    assert doc["max_identity_deviation"] < 1e-13
    assert doc["max_inverse_deviation"] < 1e-13


def test_trig_check_is_seed_deterministic(capsys):
    _, first, _ = run_cli(capsys, ["--seed", "7", "trig-check", "--pairs", "2000"])
    _, second, _ = run_cli(capsys, ["--seed", "7", "trig-check", "--pairs", "2000"])
    _, third, _ = run_cli(capsys, ["--seed", "8", "trig-check", "--pairs", "2000"])
    assert first == second
    assert first != third


def test_trig_check_rejects_bad_pair_count(capsys):
    code, _, err = run_cli(capsys, ["trig-check", "--pairs", "0"])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("argv", [["--seed=-1"], ["--seed", "-1"], ["--seed", "x"]])
def test_trig_check_refuses_a_negative_or_malformed_seed(capsys, argv):
    code, out, err = run_cli(capsys, [*argv, "trig-check", "--pairs", "10"])
    assert (code, out) == (EXIT_CONFIG, "")
    assert "argument --seed: " in err and "Traceback" not in err
