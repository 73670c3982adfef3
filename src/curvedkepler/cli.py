"""Command-line front-end.

Subcommands: ``simulate`` (integrate an orbit and dump rows plus a
conserved-quantity drift report), ``classify`` (JSON record for a
(kappa, k, J, E) pair), ``potential-scan`` (CSV of the effective
potential with its landmark header), ``conic`` (sampled conic or a whole
fixed-periastron landmark family) and ``trig-check`` (randomized
self-test of the curvature-tagged trig kernel).

Exit codes: 0 ok, 2 configuration error, 3 infeasible physics (includes
a collision ending a simulated orbit), 4 numerical failure (includes an
overflow or a division by zero on finite but extreme inputs).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .conics import (
    classify_conic, conic_from_dynamics, conic_thresholds, periastron_family, sample_conic,
)
from .dop853 import check_tol
from .dynamics import KeplerParams, PhaseState, integrate
from .effective_potential import (
    _inputs, _landmarks, _orbit, _w, check_coupling, potential_profile, turning_points,
)
from .errors import CurvedKeplerError, DomainError, InfeasibleError, NumericalError
from .geometry import _ambient, _poincare
from .ktrig import _chart_limit, _sin, atan_k, cos_k, sin_k, tan_k

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4

SCHEMA_VERSION = 1
OUTPUT_FORMATS = ("csv", "json")
CHARTS = ("polar", "ambient", "poincare_disk")

TRIG_CHECK_TOL = 1e-13

MAX_GRID = 10**6  # rows of a scan or conic grid at most: a table is held as text before it is written

# an argument that starts like a negative number is a value, never a flag: argparse of
# Python 3.10 to 3.13.0 takes only -1 and -.5 as numbers, and reads --E -3e-1 as a flag
# without its value
_NEGATIVE_NUMBER = re.compile(r"^-\.?\d")


class ConfigError(Exception):
    """Anything wrong with flags or the config file (exit code 2)."""


def _template(fields) -> str:
    """Format string of one CSV line: text fields as they are, numbers
    with 17 significant digits, which re-parse to the same floats."""
    return ",".join("{}" if isinstance(f, str) else "{:.17g}" for f in fields)


def _comment(fields) -> str:
    return "# " + _template(fields).format(*fields) + "\n"


def _csv(meta, columns, rows, footer=()) -> str:
    """One CSV table: the schema line, a ``# `` line per metadata tuple,
    the column names, the rows and a ``# `` line per footer tuple.

    The first row's field types set the template of every row.
    """
    lines = [*map(_comment, [("schema", SCHEMA_VERSION), *meta]), ",".join(columns) + "\n"]
    if rows:
        line = _template(rows[0]) + "\n"
        lines += (line.format(*row) for row in rows)
    lines += map(_comment, footer)
    return "".join(lines)


def _json(doc) -> str:
    """``json.dumps(doc, indent=2)`` and a newline; a top-level ``rows`` table
    is written value by value with ``repr``, in that layout.  json writes a
    finite float as ``float.__repr__``, and the rows are finite: the integrator
    rejects non-finite solutions, ``cmd_simulate`` raises NumericalError on
    non-finite drift, conic rows hold finite PolarPoints, and the chart maps
    raise OverflowError."""
    rows = doc.get("rows")
    if not rows:
        return json.dumps(doc, indent=2) + "\n"
    head, tail = json.dumps({**doc, "rows": None}, indent=2).split('\n  "rows": null', 1)
    table = ",\n".join("    [\n      " + ",\n      ".join(map(repr, row)) + "\n    ]" for row in rows)
    return f'{head}\n  "rows": [\n{table}\n  ]{tail}\n'


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _config_checked(check, value):
    """``check(value)``, its DomainError reported as a configuration error."""
    try:
        return check(value)
    except DomainError as exc:
        raise ConfigError(str(exc)) from None


def _finite(value, what: str) -> float:
    """``value`` as a float; ConfigError naming ``what`` unless a finite, non-bool number."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    # unlike math.isfinite, the bound also refuses a JSON integer beyond float range
    _require(number and abs(value) <= sys.float_info.max, f"{what} must be a finite number, got {value!r}")
    return float(value)


def _finite_flag(text: str) -> float:
    """argparse type of every float flag, so NaN and inf exit 2."""
    try:
        return _finite(float(text), "value")
    except (ValueError, ConfigError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# ----------------------------------------------------------------------
# charts
# ----------------------------------------------------------------------


def _chart_names(chart: str) -> tuple[str, ...]:
    if chart == "ambient":
        return ("chart_x", "chart_y", "chart_z")
    return ("chart_x", "chart_y")


def _chart_values(chart: str, kappa: float, r: float, phi: float) -> tuple[float, ...]:
    """Chart columns of a radius inside the chart (kappa and chart checked)."""
    if chart == "polar":
        return (r * math.cos(phi), r * math.sin(phi))
    if chart == "ambient":
        return _ambient(kappa, r, phi)
    return _poincare(kappa, r, phi)


def _check_chart(chart: str, kappa: float) -> None:
    _require(chart in CHARTS, f"chart must be one of {CHARTS}, got {chart!r}")
    if chart == "poincare_disk" and kappa >= 0.0:
        raise ConfigError("the poincare_disk chart needs kappa < 0")


# ----------------------------------------------------------------------
# simulate: config handling
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """Merged simulate configuration (file values overridden by flags)."""

    kappa: float
    k: float
    state: tuple | None
    elements: tuple | None
    t_end: float
    tol: float
    output: str
    chart: str

    def validated(self) -> "RunConfig":
        _config_checked(check_coupling, self.k)
        _require(
            (self.state is None) != (self.elements is None),
            "exactly one initial-condition form is needed: state or elements",
        )
        if self.state is not None:
            _require(len(self.state) == 4, "state needs 4 numbers: r,phi,v_r,v_phi")
        if self.elements is not None:
            _require(len(self.elements) == 3, "elements needs 3 numbers: E,J,phi0")
        _require(
            self.t_end > 0.0,
            f"t_end must be > 0, got {self.t_end!r}",
        )
        _config_checked(check_tol, self.tol)
        _require(
            self.output in OUTPUT_FORMATS,
            f"output must be one of {OUTPUT_FORMATS}, got {self.output!r}",
        )
        _check_chart(self.chart, self.kappa)
        return self


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer of too many digits
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    _require(isinstance(raw, dict), "config file must hold a JSON object")
    schema = raw.get("schema", SCHEMA_VERSION)
    _require(schema == SCHEMA_VERSION, f"unsupported config schema {schema!r}")
    return raw


def _parse_numbers(text: str, n: int, what: str) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    _require(len(parts) == n, f"{what} needs {n} comma-separated numbers, got {text!r}")
    try:
        return tuple(_finite(float(p), what) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _config_numbers(values, what: str) -> tuple | None:
    if values is None:
        return None
    _require(isinstance(values, list), f"{what} must be a list of numbers, got {values!r}")
    return tuple(_finite(v, what) for v in values)


def _merge_run_config(args) -> RunConfig:
    raw = _load_config_file(args.config) if args.config else {}
    initial = raw.get("initial", {})
    _require(isinstance(initial, dict), 'config "initial" must be an object')
    state = _config_numbers(initial.get("state"), 'config "initial.state"')
    elements = _config_numbers(initial.get("elements"), 'config "initial.elements"')
    if args.state is not None or args.elements is not None:
        # flag-provided initial conditions replace the file's entirely
        state = _parse_numbers(args.state, 4, "--state") if args.state else None
        elements = _parse_numbers(args.elements, 3, "--elements") if args.elements else None

    def pick(flag, key, default=None):
        value = raw.get(key, default) if flag is None else flag
        return None if value is None else _finite(value, f'config "{key}"')

    kappa = pick(args.kappa, "kappa")
    k = pick(args.k, "k")
    t_end = pick(args.t_end, "t_end")
    _require(kappa is not None, "kappa is needed (flag --kappa or config)")
    _require(k is not None, "k is needed (flag --k or config)")
    _require(t_end is not None, "t_end is needed (flag --t-end or config)")
    return RunConfig(
        kappa=kappa,
        k=k,
        state=state,
        elements=elements,
        t_end=t_end,
        tol=pick(args.tol, "tol", 1e-9),
        output=str(args.output or raw.get("output", "csv")),
        chart=str(args.chart or raw.get("chart", "polar")),
    ).validated()


def _resolve_initial(config: RunConfig) -> PhaseState:
    """Initial phase state: as given, or at a turning point of (E, J)."""
    if config.state is not None:
        state = PhaseState(*config.state)  # finite: _finite checked each number
        _require(
            0.0 < state.r < _chart_limit(config.kappa),
            f"initial radius {state.r!r} outside the radial chart",
        )
        return state
    e, j, phi0 = config.elements
    roots = turning_points(config.kappa, config.k, j, e)
    if not roots:
        raise InfeasibleError(
            f"no turning point: (E={e!r}, J={j!r}) is not attainable as a "
            "rest-or-periastron start"
        )
    if j == 0.0:
        # radial drop from rest at the outermost zero of the potential
        return PhaseState(roots[-1], phi0, 0.0, 0.0)
    r_per = roots[0]
    s = _sin(config.kappa, r_per)
    return PhaseState(r_per, phi0, 0.0, j / (s * s))


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------


def cmd_simulate(args) -> tuple[int, str]:
    config = _merge_run_config(args)
    params = KeplerParams(config.kappa, config.k)
    traj = integrate(_resolve_initial(config), params, config.t_end, tol=config.tol, dense=False)

    # E, J, I3, I4 as the integrator evaluated them at each accepted state
    reported = traj.invariants[:, [0, 1, 3, 4]]
    ref = reported[0]
    with np.errstate(over="ignore"):
        # integrate returns finite invariants, but the difference of two
        # of opposite sign near the largest double overflows
        drift = (np.abs(reported - ref) / np.maximum(1.0, np.abs(ref))).max(axis=0)
    if not np.isfinite(drift).all():
        raise NumericalError(f"invariant drift not finite: {drift.tolist()!r}")
    drift = dict(zip(("E", "J", "I3", "I4"), drift.tolist()))
    columns = ["t", "r", "phi", "v_r", "v_phi", *drift, *_chart_names(config.chart)]
    rows = [
        [*row, *_chart_values(config.chart, config.kappa, row[1], row[2])]
        for row in np.column_stack((traj.times, traj.states, reported)).tolist()
    ]
    event = None
    if traj.event is not None:
        event = {"kind": traj.event, "t": float(traj.event_time)}

    code = EXIT_INFEASIBLE if event is not None else EXIT_OK
    if config.output == "csv":
        footer = [("drift", *chain.from_iterable(drift.items()))]
        if event is not None:
            footer.append(("event", event["kind"], "t", event["t"]))
        meta = [("kappa", config.kappa, "k", config.k), ("t_end", config.t_end, "tol", config.tol)]
        return code, _csv(meta, columns, rows, footer)
    doc = {
        "schema": SCHEMA_VERSION,
        "kappa": float(config.kappa),
        "k": float(config.k),
        "t_end": float(config.t_end),
        "tol": float(config.tol),
        "chart": config.chart,
        "columns": columns,
        "rows": rows,
        "drift": drift,
        "event": event,
    }
    return code, _json(doc)


# ----------------------------------------------------------------------
# classify
# ----------------------------------------------------------------------


def classify_record(kappa, k: float, j: float, e: float) -> dict:
    """Classification record for one (kappa, k, J, E) pair, JSON-ready."""
    kap, k = _inputs(kappa, k, j, e)
    orbit_class, d, ecc, _, _, crit = _orbit(kap, k, j, e)  # raises InfeasibleError
    record = {
        "schema": SCHEMA_VERSION,
        "kappa": float(kap),
        "k": float(k),
        "j": float(j),
        "e": float(e),
        "label": orbit_class.label.value,
        "bounded": orbit_class.bounded,
    }
    if d is None:
        record.update({"ecc": None, "d": None, "conic": None, "thresholds": None})
    else:
        spec = conic_from_dynamics(kap, d, ecc)
        conic_type = classify_conic(spec)
        record["ecc"] = float(ecc)
        record["d"] = float(d)
        record["conic"] = {
            "family": spec.family.value,
            "label": conic_type.label.value,
            "higgs": conic_type.higgs,
            "p": None if spec.p is None else float(spec.p),
            "p_tilde": None if spec.p_tilde is None else float(spec.p_tilde),
        }
        record["thresholds"] = {
            key: float(val) for key, val in conic_thresholds(spec).items()
        }
    record["landmarks"] = {
        name: None if val is None else float(val)
        for name, val in zip(("e_circular", "e_infinity", "j_infinity"), _landmarks(kap, k, j, crit))
    }
    return record


def cmd_classify(args) -> tuple[int, str]:
    k = _config_checked(check_coupling, args.k)
    return EXIT_OK, _json(classify_record(args.kappa, k, args.j, args.e))


# ----------------------------------------------------------------------
# potential-scan
# ----------------------------------------------------------------------


def cmd_potential_scan(args) -> tuple[int, str]:
    kap, j, r_lo, r_hi, steps = args.kappa, args.j, args.r_min, args.r_max, args.steps
    k = _config_checked(check_coupling, args.k)
    limit = _chart_limit(kap)
    if r_hi is None:
        r_hi = 0.9 * limit if kap > 0.0 else 5.0
    if r_lo is None:
        r_lo = min(0.1, 0.1 * r_hi)
    _require(
        0.0 < r_lo < r_hi < limit,
        f"need 0 < r_min < r_max < {limit!r}, got [{r_lo!r}, {r_hi!r}]",
    )
    _require(2 <= steps <= MAX_GRID, f"need 2 to {MAX_GRID} grid steps, got {steps!r}")
    prof = potential_profile(kap, k, j)
    # np.linspace's points, without its (steps - 1) * step: that overflows near the largest float, and is r_max
    step = (r_hi - r_lo) / (steps - 1)
    rows = [(r, _w(kap, k, j, r)) for r in [r_lo + i * step for i in range(steps - 1)] + [r_hi]]
    meta = [("kappa", kap, "k", k, "J", j)]
    if prof.critical_radius is not None:
        meta.append(("critical_r", prof.critical_radius, "critical_w", prof.critical_value))
    else:
        meta.append(("critical", "none", prof.notes))
    meta += [("zero_crossing", crossing) for crossing in prof.zero_crossings]
    if kap < 0.0:
        meta.append(("e_infinity", prof.e_infinity, "j_infinity", prof.j_infinity))
    return EXIT_OK, _csv(meta, ("r", "w"), rows)


# ----------------------------------------------------------------------
# conic
# ----------------------------------------------------------------------


def _conic_rows(spec, chart: str, steps: int):
    phis = np.linspace(0.0, 2.0 * math.pi, steps, endpoint=False)
    return [
        (pt.phi, pt.r) + _chart_values(chart, spec.kappa, pt.r, pt.phi)
        for pt in sample_conic(spec, phis)
    ]


def _family_specimens(fam) -> list[tuple[str, float]]:
    if fam.kappa == 0.0:
        return [("circle", 0.0), ("ellipse", 0.5), ("parabola", 1.0), ("hyperbola", 2.0)]
    return [
        ("circle", 0.0),
        ("ellipse", 0.5 * fam.ecc_horoellipse),
        ("horoellipse", fam.ecc_horoellipse),
        ("equiparabola", fam.ecc_equiparabola),
        ("parabola", 1.0),
        ("horohyperbola", fam.ecc_horohyperbola),
        ("hyperbola", 1.5 * fam.ecc_horohyperbola),
    ]


def cmd_conic(args) -> tuple[int, str]:
    kap = args.kappa
    _check_chart(args.chart, kap)
    _require(8 <= args.phi_steps <= MAX_GRID, f"need 8 to {MAX_GRID} angles, got {args.phi_steps!r}")
    chart_names = _chart_names(args.chart)

    if args.periastron is not None:
        _require(args.d is None and args.ecc is None, "give --periastron or --d and --ecc, not both")
        _require(
            0.0 < args.periastron < _chart_limit(kap),
            f"periastron must lie in the radial chart, got {args.periastron!r}",
        )
        fam = periastron_family(kap, args.periastron)  # kappa > 0 -> DomainError
        specimens = []
        for label, ecc in _family_specimens(fam):
            spec = conic_from_dynamics(kap, fam.d_circle * (1.0 + ecc), ecc)
            specimens.append((label, ecc, _conic_rows(spec, args.chart, args.phi_steps)))
        if args.output == "csv":
            meta = [
                ("kappa", kap, "r_per", args.periastron),
                ("d_circle", fam.d_circle, "d_horoellipse", fam.d_horoellipse,
                 "d_horohyperbola", fam.d_horohyperbola),
            ]
            rows = [(label, ecc, *row) for label, ecc, sampled in specimens for row in sampled]
            return EXIT_OK, _csv(meta, ("label", "ecc", "phi", "r") + chart_names, rows)
        doc = {
            "schema": SCHEMA_VERSION,
            "kappa": float(kap),
            "r_per": float(args.periastron),
            "landmarks": {
                "d_circle": float(fam.d_circle),
                "d_horoellipse": float(fam.d_horoellipse),
                "d_horohyperbola": float(fam.d_horohyperbola),
                "ecc_horoellipse": float(fam.ecc_horoellipse),
                "ecc_horohyperbola": float(fam.ecc_horohyperbola),
                "ecc_equiparabola": float(fam.ecc_equiparabola),
            },
            "columns": ["phi", "r", *chart_names],
            "specimens": [
                {"label": label, "ecc": float(ecc), "rows": sampled}
                for label, ecc, sampled in specimens
            ],
        }
        return EXIT_OK, _json(doc)

    _require(args.d is not None and args.ecc is not None, "give --d and --ecc (or --periastron)")
    _require(args.d > 0.0, f"size d must be > 0, got {args.d!r}")
    _require(args.ecc >= 0.0, f"eccentricity must be >= 0, got {args.ecc!r}")
    spec = conic_from_dynamics(kap, args.d, args.ecc)  # infeasible -> DomainError
    conic_type = classify_conic(spec)
    rows = _conic_rows(spec, args.chart, args.phi_steps)
    if args.output == "csv":
        higgs = "" if conic_type.higgs is None else conic_type.higgs
        meta = [
            ("kappa", kap, "d", args.d, "ecc", args.ecc),
            ("family", spec.family.value, "label", conic_type.label.value, higgs),
        ]
        return EXIT_OK, _csv(meta, ("phi", "r") + chart_names, rows)
    doc = {
        "schema": SCHEMA_VERSION,
        "kappa": float(kap),
        "d": float(args.d),
        "ecc": float(args.ecc),
        "family": spec.family.value,
        "label": conic_type.label.value,
        "higgs": conic_type.higgs,
        "columns": ["phi", "r", *chart_names],
        "rows": rows,
    }
    return EXIT_OK, _json(doc)


# ----------------------------------------------------------------------
# trig-check
# ----------------------------------------------------------------------


def cmd_trig_check(args) -> tuple[int, str]:
    pairs, seed = args.pairs, args.seed
    _require(pairs > 0, f"need a positive pair count, got {pairs!r}")
    rng = np.random.default_rng(seed)
    max_identity = 0.0
    max_inverse = 0.0
    for _ in range(pairs):
        kap = float(rng.uniform(-4.0, 4.0))
        if kap > 0.0:
            x_hi = 0.9 * math.pi / math.sqrt(kap)
            y_hi = 0.45 * math.pi / math.sqrt(kap)
        else:
            scale = math.sqrt(max(-kap, 1.0))
            x_hi = 5.0 / scale
            y_hi = 2.5 / scale
        x = float(rng.uniform(-x_hi, x_hi))
        c, s = cos_k(kap, x), sin_k(kap, x)
        dev = abs(c * c + kap * s * s - 1.0) / max(1.0, c * c, abs(kap) * s * s)
        max_identity = max(max_identity, dev)
        y = float(rng.uniform(-y_hi, y_hi))
        back = atan_k(kap, tan_k(kap, y))
        max_inverse = max(max_inverse, abs(back - y) / max(1.0, abs(y)))
    ok = max_identity <= TRIG_CHECK_TOL and max_inverse <= TRIG_CHECK_TOL
    doc = {
        "schema": SCHEMA_VERSION,
        "pairs": pairs,
        "seed": seed,
        "max_identity_deviation": max_identity,
        "max_inverse_deviation": max_inverse,
        "tolerance": TRIG_CHECK_TOL,
        "ok": ok,
    }
    return (EXIT_OK if ok else EXIT_NUMERICAL), _json(doc)


# ----------------------------------------------------------------------
# argument parsing and dispatch
# ----------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing reads it and
    never changes it, and no flag has a mutable default."""
    parser = argparse.ArgumentParser(
        prog="curvedkepler",
        description="Kepler orbits and conics on constant-curvature surfaces.",
    )
    parser.add_argument("--seed", type=int, default=42, help="seed for randomized commands")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="integrate an orbit and dump the trajectory")
    sim.add_argument("--config", help="JSON config file (flags override it)")
    sim.add_argument("--kappa", type=_finite_flag)
    sim.add_argument("--k", type=_finite_flag)
    sim.add_argument("--state", help="initial r,phi,v_r,v_phi")
    sim.add_argument("--elements", help="initial E,J,phi0 (starts at a turning point)")
    sim.add_argument("--t-end", dest="t_end", type=_finite_flag)
    sim.add_argument("--tol", type=_finite_flag)
    sim.add_argument("--output", choices=OUTPUT_FORMATS)
    sim.add_argument("--chart", choices=CHARTS)
    sim.add_argument("--out", help="output file (default stdout)")
    sim.set_defaults(run=cmd_simulate)

    cls = sub.add_parser("classify", help="classify one (kappa, k, J, E) pair")
    cls.add_argument("--kappa", type=_finite_flag, required=True)
    cls.add_argument("--k", type=_finite_flag, required=True)
    cls.add_argument("--J", dest="j", type=_finite_flag, required=True)
    cls.add_argument("--E", dest="e", type=_finite_flag, required=True)
    cls.add_argument("--out")
    cls.set_defaults(run=cmd_classify)

    scan = sub.add_parser("potential-scan", help="sample the effective potential")
    scan.add_argument("--kappa", type=_finite_flag, required=True)
    scan.add_argument("--k", type=_finite_flag, required=True)
    scan.add_argument("--J", dest="j", type=_finite_flag, required=True)
    scan.add_argument("--r-min", dest="r_min", type=_finite_flag, help="default 0.1, at most r_max/10")
    scan.add_argument("--r-max", dest="r_max", type=_finite_flag)
    scan.add_argument("--steps", type=int, default=200)
    scan.add_argument("--out")
    scan.set_defaults(run=cmd_potential_scan)

    con = sub.add_parser("conic", help="sample a conic or a periastron family")
    con.add_argument("--kappa", type=_finite_flag, required=True)
    con.add_argument("--d", type=_finite_flag, help="size parameter D")
    con.add_argument("--ecc", type=_finite_flag, help="eccentricity")
    con.add_argument(
        "--periastron",
        type=_finite_flag,
        help="emit the whole landmark family with this periastron instead",
    )
    con.add_argument("--phi-steps", dest="phi_steps", type=int, default=360)
    con.add_argument("--chart", choices=CHARTS, default="polar")
    con.add_argument("--output", choices=OUTPUT_FORMATS, default="csv")
    con.add_argument("--out")
    con.set_defaults(run=cmd_conic)

    trig = sub.add_parser("trig-check", help="randomized trig-kernel self-test")
    trig.add_argument("--pairs", type=int, default=100_000)
    trig.add_argument("--out")
    trig.set_defaults(run=cmd_trig_check)
    for each in (parser, *sub.choices.values()):
        each._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def main(argv=None) -> int:
    """Run one subcommand; write its output only once it has returned, so
    a failed run prints nothing and leaves an existing ``--out`` file as it was."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.seed < 0:  # numpy takes only non-negative seeds
            parser.error(f"argument --seed: seed must be >= 0, got {args.seed}")
    except SystemExit as exc:  # argparse exits on bad flags (and on --help)
        return EXIT_OK if not exc.code else EXIT_CONFIG
    try:
        code, text = args.run(args)
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ConfigError(str(exc)) from None
        else:
            sys.stdout.write(text)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InfeasibleError, DomainError) as exc:
        # DomainError: bad physics inputs that passed flag validation
        # (infeasible periastron, spherical periastron family, chart limits...)
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (CurvedKeplerError, ArithmeticError) as exc:
        # ArithmeticError: finite flags whose arithmetic overflows or divides by zero
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
