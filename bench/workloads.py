"""The benchmark's three workloads: input generation, jobs and checks.

Every workload is a closed loop with one client: job i+1 starts after
job i and its check have finished.  The inputs of job i are a pure
function of (seed, i); the package only ever sees the generated inputs.

Generation rule, shared by all three: jobs come in blocks, and a block
holds one job per *cell*, a fixed combination of the discrete
properties (curvature, orbit kind, chart, output format), in an order
shuffled per block.  The continuous properties of a cell's b-th job
(coupling k, angular momentum J, eccentricity, time span, ...) are the
b-th point of an R_d low-discrepancy sequence that starts at a seeded
random offset.  Any prefix of the stream therefore covers each cell's
parameter box evenly, and two seeds give nearly the same mix, which
keeps the medians steady from seed to seed.

Checks run outside the timed region and raise :class:`CheckFailed`.
Reference values come from :mod:`oracle`, which does not use the
package.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import time
from dataclasses import dataclass

import numpy as np

import curvedkepler as ck
from curvedkepler import cli

import oracle

KAPPAS = (1.0, 1e-6, 0.0, -1e-6, -1.0)

# Conserved-quantity drift allowed in a simulate footer, as a multiple of
# tol: the acceptance gate allows 1e-9 at tol = 1e-11 over ten periods.
DRIFT_PER_TOL = 100.0
# Largest change of an invariant in one accepted integrator step, per tol.
SPIKE_PER_TOL = 10.0
# Closed-form orbit against the integrator, in u (acceptance criterion 5).
U_CLOSED_RTOL = 1e-6
# Residual every turning point must meet (the package's own contract).
TURNING_RTOL = 1e-11
# Quadrature-based times against the closed-form oracle.
TIME_RTOL = 1e-8
# phi_from_time integrates the sweep with a fixed 4097-node Simpson rule,
# which resolves the periastron spike at ecc 0.9 only to ~1e-4 rad.
PHI_ATOL = 1e-3
# Dense output at tol 1e-9 tracks the Binet conic to ~1e-8 relative.
DENSE_U_PER_TOL = 1e3
# Apsis passages found by first_crossing, as a share of the period.
APSIS_RTOL = 1e-6


class CheckFailed(Exception):
    """An output of the package failed its correctness check."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _lerp(lo: float, hi: float, v: float) -> float:
    return lo + (hi - lo) * float(v)


def _rd_step(dim: int) -> np.ndarray:
    """Increments of the R_d sequence: powers of 1/g, g**(dim+1) = g + 1."""
    g = 2.0
    for _ in range(64):
        g = (1.0 + g) ** (1.0 / (dim + 1))
    return np.array([g ** -(i + 1) for i in range(dim)]) % 1.0


class _Stream:
    """Seeded cells and low-discrepancy draws; see the module docstring."""

    def __init__(self, seed: int, tag: int, cells: list, dim: int):
        self.seed, self.tag, self.cells = seed, tag, cells
        self.offsets = np.random.default_rng([seed, tag]).random((len(cells), dim))
        self.step = _rd_step(dim)
        self._order = (None, None)

    def draw(self, i: int):
        block, slot = divmod(i, len(self.cells))
        if self._order[0] != block:
            rng = np.random.default_rng([self.seed, self.tag, block])
            self._order = (block, rng.permutation(len(self.cells)))
        c = int(self._order[1][slot])
        return self.cells[c], (self.offsets[c] + block * self.step) % 1.0


def _angular_momentum(kappa: float, k: float, v: float) -> float:
    """J in [J_max/3, J_max]; on the hyperbolic plane J_max keeps
    sqrt(-kappa) J**2/k <= 0.6, so a potential well always exists."""
    j_max = 1.5 if kappa >= 0.0 else min(1.5, math.sqrt(0.6 * k / math.sqrt(-kappa)))
    return j_max * _lerp(1.0 / 3.0, 1.0, v)


def _bounded_ecc(kappa: float, k: float, j: float, v: float) -> float:
    lo, _ = oracle.escape_landmarks(kappa, k, j)
    return _lerp(0.05, min(0.9, 0.9 * lo), v)


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SimulateJob:
    kind: str  # "orbit" or "radial"
    kappa: float
    k: float
    j: float
    e: float
    phi0: float
    t_end: float
    tol: float
    chart: str
    output: str
    path: str

    @property
    def argv(self) -> list[str]:
        return [
            "simulate",
            f"--kappa={self.kappa!r}",
            f"--k={self.k!r}",
            f"--elements={self.e!r},{self.j!r},{self.phi0!r}",
            f"--t-end={self.t_end!r}",
            f"--tol={self.tol!r}",
            f"--chart={self.chart}",
            f"--output={self.output}",
            f"--out={self.path}",
        ]

    @property
    def expected_exit(self) -> int:
        # a radial drop ends in the collision event, documented as exit 3
        return cli.EXIT_INFEASIBLE if self.kind == "radial" else cli.EXIT_OK


def _parse_simulate(path: str, output: str):
    """Rows, drift footer and event of a simulate output file."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if output == "json":
        doc = json.loads(text)
        event = doc["event"]
        return doc["columns"], doc["rows"], doc["drift"], event and event["kind"]
    meta, rows, columns = {}, [], None
    for line in text.splitlines():
        if line.startswith("# "):
            key, *vals = line[2:].split(",")
            meta[key] = vals
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append([float(x) for x in line.split(",")])
    pairs = meta.get("drift", [])
    drift = {pairs[i]: float(pairs[i + 1]) for i in range(0, len(pairs), 2)}
    event = meta["event"][0] if "event" in meta else None
    return columns, rows, drift, event


class Simulate:
    """``cli.main(["simulate", ...])`` writing a file; see BENCHMARK.json."""

    name = "simulate"

    def __init__(self, seed: int, scratch: str):
        self.path = os.path.join(scratch, "simulate.out")
        cells = []
        for kappa in KAPPAS:
            charts = ("polar", "ambient") + (("poincare_disk",) if kappa < 0.0 else ())
            for chart in charts:
                for output in ("csv", "json"):
                    cells.append(("orbit", kappa, chart, output))
        cells += [("radial", 1.0, "ambient", "json"), ("radial", -1.0, "poincare_disk", "csv")]
        self.stream = _Stream(seed, 1, cells, 5)

    def job(self, i: int) -> SimulateJob:
        (kind, kappa, chart, output), v = self.stream.draw(i)
        k = _lerp(0.7, 1.4, v[0])
        phi0 = _lerp(0.0, 2.0 * math.pi, v[4])
        if kind == "radial":
            # drop from rest at r0; three flat free-fall times reach the centre
            r0 = _lerp(0.5, 1.2, v[1])
            e = -k * oracle.cot_k(kappa, r0)
            t_end = 3.0 * 0.5 * math.pi * r0**1.5 / math.sqrt(2.0 * k)
            j = 0.0
        else:
            j = _angular_momentum(kappa, k, v[1])
            ecc = _bounded_ecc(kappa, k, j, v[2])
            e = oracle.energy(kappa, k, j, ecc)
            t_end = _lerp(0.5, 1.5, v[3]) * oracle.radial_period(kappa, k, j, ecc)
        return SimulateJob(kind, kappa, k, j, e, phi0, t_end, 1e-11, chart, output, self.path)

    def run(self, job: SimulateJob, tr):
        return tr.call("cli.main", cli.main, job.argv)

    def check(self, job: SimulateJob, exit_code, tr) -> dict:
        _require(
            exit_code == job.expected_exit,
            f"exit code {exit_code!r}, expected {job.expected_exit}",
        )
        columns, rows, drift, event = _parse_simulate(job.path, job.output)
        n_chart = 3 if job.chart == "ambient" else 2
        _require(len(columns) == 9 + n_chart, f"columns {columns!r}")
        _require(rows and rows[0][0] == 0.0, "first row is not at t = 0")
        t0, r0, phi0, vr0, vphi0 = rows[0][:5]
        _require(vr0 == 0.0, f"start is not a turning point: v_r = {vr0!r}")
        w0 = oracle.w_eff(job.kappa, job.k, job.j, r0)
        _require(
            abs(w0 - job.e) < TURNING_RTOL * max(1.0, abs(job.e)),
            f"start radius {r0!r} misses W(r) = E by {w0 - job.e!r}",
        )

        params = ck.KeplerParams(job.kappa, job.k)
        state0 = ck.PhaseState(r0, phi0, vr0, vphi0)
        traj = tr.call(
            "dynamics.integrate", ck.integrate, state0, params, job.t_end, tol=job.tol, dense=False
        )
        steps = len(traj) - 1
        _require(len(rows) == steps + 1, f"{len(rows)} rows for {steps} steps")
        last = rows[-1]
        want = [float(traj.times[-1]), *map(float, traj.states[-1])]
        _require(last[:5] == want, f"final row {last[:5]!r} is not the final state {want!r}")
        r_f, phi_f = last[1], last[2]
        ref = oracle.chart(job.chart, job.kappa, r_f, phi_f)
        for got, exp in zip(last[9:], ref):
            _require(
                abs(got - exp) <= 1e-12 * max(1.0, abs(exp)),
                f"{job.chart} chart column {got!r}, expected {exp!r}",
            )

        if job.kind == "radial":
            _require(event == "collision", f"radial drop ended with event {event!r}")
            _require(r_f < 1e-3, f"radial drop stopped at r = {r_f!r}")
            _require(
                all(drift[key] == 0.0 for key in ("J", "I3", "I4")),
                f"radial drop has angular drift {drift!r}",
            )
            # the integrator's spike guard moves E by at most 10 tol per
            # accepted step, and that is all that bounds a fall into r = 0
            bound = SPIKE_PER_TOL * job.tol * steps
            max_drift = None
        else:
            _require(event is None, f"bounded orbit ended with event {event!r}")
            oc = tr.call("orbit.orbit_constants", ck.orbit_constants, state0, params)
            u_f = oracle.cot_k(job.kappa, r_f)
            u_c = float(ck.u_closed(oc, phi_f))
            _require(
                abs(u_f - u_c) <= U_CLOSED_RTOL * max(1.0, abs(u_f)),
                f"final u = {u_f!r} but the closed form gives {u_c!r}",
            )
            bound = DRIFT_PER_TOL * job.tol
            max_drift = max(drift.values())
        _require(
            max(drift.values()) <= bound,
            f"drift {drift!r} above {bound:.3g} at tol {job.tol!r}",
        )
        if tr.enabled:
            self._decompose(job, params, traj, tr)
        return {
            "rows": len(rows),
            "bytes": os.path.getsize(job.path),
            "steps": steps,
            "drift": max_drift,
            "chart_rows": 0 if job.chart == "polar" else len(rows),
        }

    def _decompose(self, job, params, traj, tr) -> None:
        """Repeat, in spans, the layer calls the CLI makes inside one job."""
        tr.call("effective_potential.turning_points", ck.turning_points, job.kappa, job.k, job.j, job.e)
        with tr.span("dynamics.conserved_rows"):
            for row in traj.states:
                ck.ConservedSet.from_state(ck.PhaseState(*row), params)
        if job.chart == "polar":
            return
        project = ck.to_ambient if job.chart == "ambient" else ck.to_poincare_disk
        with tr.span("geometry.chart_points"):
            for r, phi in traj.states[:, :2]:
                project(job.kappa, ck.PolarPoint(float(r), float(phi)))


# ----------------------------------------------------------------------
# survey
# ----------------------------------------------------------------------

SURVEY_KINDS = ("generic", "open", "circular", "lo_below", "lo_above", "hi_below", "hi_above")
# blocks of cases in one survey
SURVEY_BLOCKS = 4


@dataclass(frozen=True)
class SurveyCase:
    index: int
    kind: str
    kappa: float
    k: float
    j: float
    e: float
    phi0: float
    bounded: bool
    leg_fracs: tuple[float, float]
    open_frac: float


@dataclass
class SurveyOut:
    label: object
    roots: list
    oc: object
    conic: object
    period: float | None = None
    legs: tuple = ()
    u_end: float | None = None
    t_open: float | None = None
    family: object = None


class Survey:
    """Library analysis of (kappa, k, J, E) cases, no integration.

    One job is one survey of SURVEY_BLOCKS blocks (140 cases), each
    block holding every cell (curvature and kind) once.  A case takes
    about a millisecond, too short to time steadily on a shared host;
    a survey of every cell several times averages over the host's
    fast and slow spells, and every survey has the same mix, so the
    median job is not decided by which sizes a seed happens to draw.
    Per-case call times are in the traced run.
    """

    name = "survey"

    def __init__(self, seed: int, scratch: str):
        cells = [(kappa, kind) for kappa in KAPPAS for kind in SURVEY_KINDS]
        self.stream = _Stream(seed, 2, cells, 5)

    def job(self, i: int) -> list[SurveyCase]:
        n = len(self.stream.cells)
        blocks = range(i * SURVEY_BLOCKS, (i + 1) * SURVEY_BLOCKS)
        return [self._case(b * n + slot) for b in blocks for slot in range(n)]

    def run(self, job: list[SurveyCase], tr) -> list[SurveyOut]:
        return [self._run_case(case, tr) for case in job]

    def check(self, job: list[SurveyCase], outs: list[SurveyOut], tr) -> dict:
        for case, out in zip(job, outs, strict=True):
            try:
                self._check_case(case, out)
            except CheckFailed as exc:
                raise CheckFailed(f"case {case.index} (kappa={case.kappa}, {case.kind}): {exc}") from None
        return {}

    def _case(self, i: int) -> SurveyCase:
        (kappa, kind), v = self.stream.draw(i)
        k = _lerp(0.7, 1.4, v[0])
        j = _angular_momentum(kappa, k, v[1])
        lo, hi = oracle.escape_landmarks(kappa, k, j)
        # energies stay >= 1e-7 (relative) from the escape landmark, far
        # outside the 1e-9 band inside which classify_orbit reports the
        # boundary class, so bounded or open is never in doubt
        delta = 10.0 ** _lerp(-7.0, -3.0, v[3])
        sign = -1.0 if kind.endswith("below") else 1.0
        if kind == "generic":
            e = oracle.energy(kappa, k, j, _bounded_ecc(kappa, k, j, v[2]))
        elif kind == "open":
            # on the sphere every orbit is closed: these cross the equator
            ecc = _lerp(1.05, 2.5, v[2]) if kappa > 0.0 else _lerp(lo + 0.02, hi + 1.5, v[2])
            e = oracle.energy(kappa, k, j, ecc)
        elif kind == "circular":
            e = 0.5 * (kappa * j * j - k * k / (j * j))
        elif kind.startswith("lo"):
            # just below / above escape (flat: parabola, sphere: equator)
            land = -k * math.sqrt(-kappa) if kappa < 0.0 else 0.5 * kappa * j * j
            e = land + sign * delta * max(1.0, abs(land))
        else:
            # near the horohyperbola (flat: parabola, sphere: equator); on
            # the hyperbolic plane the offset is a share of the parabola
            # band, so the orbit stays clear of the horoellipse
            gap = hi - lo if kappa < 0.0 else 1.0
            e = oracle.energy(kappa, k, j, hi + sign * delta * gap)
        if kappa > 0.0 or kind == "circular":
            bounded = True
        else:
            bounded = e < (-k * math.sqrt(-kappa) if kappa < 0.0 else 0.0)
        return SurveyCase(
            i, kind, kappa, k, j, e, _lerp(0.0, 2.0 * math.pi, v[4]), bounded,
            (_lerp(0.1, 0.45, v[2]), _lerp(0.55, 0.9, v[2])), _lerp(0.2, 0.9, v[2]),
        )

    def _run_case(self, case: SurveyCase, tr) -> SurveyOut:
        kappa = case.kappa
        label = tr.call("effective_potential.classify_orbit", ck.classify_orbit, kappa, case.k, case.j, case.e)
        roots = tr.call("effective_potential.turning_points", ck.turning_points, kappa, case.k, case.j, case.e)
        r_per = roots[0]
        s = tr.call("ktrig.sin_k", ck.sin_k, kappa, r_per)
        state = ck.PhaseState(r_per, case.phi0, 0.0, case.j / (s * s))
        oc = tr.call("orbit.orbit_constants", ck.orbit_constants, state, ck.KeplerParams(kappa, case.k))
        spec = tr.call("conics.conic_from_dynamics", ck.conic_from_dynamics, kappa, oc.d, oc.ecc)
        out = SurveyOut(label, roots, oc, tr.call("conics.classify_conic", ck.classify_conic, spec))
        u_per, u_apo = oc.u_periastron, oc.u_apoastron
        if label.bounded:
            try:
                out.period = tr.call("orbit.radial_period", ck.radial_period, oc, kappa)
            except ck.DomainError:
                pass  # documented for an exactly circular orbit; checked below
            else:
                f1, f2 = case.leg_fracs
                cuts = [u_apo, u_apo + f1 * (u_per - u_apo), u_apo + f2 * (u_per - u_apo), u_per]
                out.legs = tuple(
                    tr.call("orbit.time_from_u", ck.time_from_u, oc, kappa, a, b)
                    for a, b in zip(cuts, cuts[1:])
                )
        else:
            asym = math.sqrt(-kappa) if kappa < 0.0 else 0.0
            out.u_end = asym + case.open_frac * (u_per - asym)
            out.t_open = tr.call("orbit.time_from_u", ck.time_from_u, oc, kappa, u_per, out.u_end)
        if kappa < 0.0:
            out.family = tr.call("conics.periastron_family", ck.periastron_family, kappa, r_per)
        return out

    def _check_case(self, case: SurveyCase, out: SurveyOut) -> None:
        kappa, k, j, e = case.kappa, case.k, case.j, case.e
        label = out.label
        _require(label.bounded == case.bounded, f"{case.kind}: classified {label.label.value}")
        if case.kind == "circular":
            _require(
                label.label in (ck.OrbitLabel.CIRCLE, ck.OrbitLabel.HYP_CIRCLE),
                f"tangency classified {label.label.value}",
            )
        _require(
            len(out.roots) == (2 if case.bounded else 1),
            f"{len(out.roots)} turning points for a {'bounded' if case.bounded else 'open'} orbit",
        )
        for r in out.roots:
            w = oracle.w_eff(kappa, k, j, r)
            _require(
                abs(w - e) < TURNING_RTOL * max(1.0, abs(e)),
                f"turning point {r!r} misses W(r) = E by {w - e!r}",
            )
        oc = out.oc
        _require(
            abs(oc.ecc**2 - (1.0 + oc.z)) <= 1e-10 * max(1.0, abs(oc.z)),
            f"ecc**2 = {oc.ecc**2!r} but 1 + z = {1.0 + oc.z!r}",
        )
        if case.kind != "circular":
            ecc = oracle.eccentricity(kappa, k, j, e)
            _require(abs(oc.ecc - ecc) <= 1e-7 * max(1.0, ecc), f"ecc {oc.ecc!r}, expected {ecc!r}")
        closed = out.conic.label in (ck.ConicLabel.CIRCLE, ck.ConicLabel.ELLIPSE)
        _require(closed == case.bounded, f"conic {out.conic.label.value} for bounded={case.bounded}")

        if case.bounded:
            if out.period is None:
                _require(oc.ecc == 0.0, f"no radial period at ecc {oc.ecc!r}")
            else:
                period = oracle.radial_period(kappa, k, j, oc.ecc)
                _require(
                    abs(out.period - period) <= TIME_RTOL * period,
                    f"radial period {out.period!r}, closed form {period!r}",
                )
                half = 0.5 * out.period
                _require(
                    abs(sum(out.legs) - half) <= 1e-9 * out.period,
                    f"legs {out.legs!r} sum to {sum(out.legs)!r}, not T/2 = {half!r}",
                )
        else:
            t = oracle.time_from_periastron(kappa, k, j, oc.ecc, out.u_end)
            _require(
                abs(out.t_open - t) <= TIME_RTOL * t,
                f"time_from_u {out.t_open!r}, closed form {t!r}",
            )
        if out.family is not None:
            fam = out.family
            d_circle = oc.d / (1.0 + oc.ecc)
            _require(
                abs(fam.d_circle - d_circle) <= 1e-8 * d_circle,
                f"d_circle {fam.d_circle!r}, expected {d_circle!r}",
            )
            _require(
                fam.d_circle < fam.d_horoellipse < fam.d_horohyperbola,
                f"landmarks out of order: {fam!r}",
            )


# ----------------------------------------------------------------------
# ephemeris
# ----------------------------------------------------------------------



@dataclass(frozen=True)
class EphemerisJob:
    kappa: float
    k: float
    j: float
    ecc: float
    state0: tuple
    span: float
    tol: float
    t_grid: np.ndarray


@dataclass
class EphemerisOut:
    period: float
    samples: np.ndarray
    phis: np.ndarray
    apsides: list


def _radial_velocity(t, state):
    return state.v_r


class Ephemeris:
    """Dense-output queries against one integration per request."""

    name = "ephemeris"

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.stream = _Stream(seed, 3, list(KAPPAS), 5)

    def job(self, i: int) -> EphemerisJob:
        kappa, v = self.stream.draw(i)
        k = _lerp(0.7, 1.4, v[0])
        j = _angular_momentum(kappa, k, v[1])
        ecc = _bounded_ecc(kappa, k, j, v[2])
        # start at periastron; the span holds exactly four apsis passages.
        # Query counts cycle through 500 .. 6500, a mean of 3500 queries,
        # so that request sizes vary.
        d = j * j / k
        r_per = oracle.acot_k(kappa, (1.0 + ecc) / d)
        state0 = (r_per, _lerp(0.0, 2.0 * math.pi, v[4]), 0.0, j / oracle.sin_k(kappa, r_per) ** 2)
        span = _lerp(2.1, 2.4, v[3]) * oracle.radial_period(kappa, k, j, ecc)
        rng = np.random.default_rng([self.seed, 3, i])
        t_grid = np.sort(rng.uniform(0.0, span, 500 + 1000 * (i % 7)))
        return EphemerisJob(kappa, k, j, ecc, state0, span, 1e-9, t_grid)

    def run(self, job: EphemerisJob, tr) -> EphemerisOut:
        kappa = job.kappa
        params = ck.KeplerParams(kappa, job.k)
        state = ck.PhaseState(*job.state0)
        oc = tr.call("orbit.orbit_constants", ck.orbit_constants, state, params)
        period = tr.call("orbit.radial_period", ck.radial_period, oc, kappa)
        traj = tr.call("dynamics.integrate", ck.integrate, state, params, job.span, tol=job.tol, dense=True)
        samples = tr.call("dynamics.sample", traj.sample, job.t_grid)
        phis = tr.call("orbit.phi_from_time", ck.phi_from_time, oc, kappa, job.t_grid, traj)
        apsides = []
        lo = 0.05 * period  # skip the periastron the request starts at
        while True:
            t = tr.call("dynamics.first_crossing", traj.first_crossing, _radial_velocity, lo, job.span)
            if t is None:
                break
            apsides.append(t)
            lo = t + 0.05 * period
        return EphemerisOut(period, samples, phis, apsides)

    def check(self, job: EphemerisJob, out: EphemerisOut, tr) -> dict:
        kappa = job.kappa
        period = oracle.radial_period(kappa, job.k, job.j, job.ecc)
        _require(
            abs(out.period - period) <= TIME_RTOL * period,
            f"radial period {out.period!r}, closed form {period!r}",
        )
        _require(out.samples.shape == (len(job.t_grid), 4), f"sample shape {out.samples.shape}")
        r, phi = out.samples[:, 0], out.samples[:, 1]
        u = oracle.cot_k_array(kappa, r)
        u_binet = (1.0 + job.ecc * np.cos(phi - job.state0[1])) * (job.k / (job.j * job.j))
        err = float(np.max(np.abs(u - u_binet) / np.maximum(1.0, np.abs(u))))
        _require(err <= DENSE_U_PER_TOL * job.tol, f"sampled u leaves the Binet conic by {err:.3g}")
        dphi = float(np.max(np.abs(out.phis - phi)))
        _require(dphi <= PHI_ATOL, f"phi_from_time leaves the sampled phi by {dphi:.3g} rad")
        want = [0.5 * period * (n + 1) for n in range(4)]
        _require(len(out.apsides) == 4, f"{len(out.apsides)} apsis passages, expected 4")
        worst = max(abs(a - b) for a, b in zip(out.apsides, want))
        _require(worst <= APSIS_RTOL * period, f"apsis passages {out.apsides!r}, expected {want!r}")
        return {"queries": len(job.t_grid)}


# ----------------------------------------------------------------------
# ktrig, timed directly: its calls are too short for a span each
# ----------------------------------------------------------------------


def ktrig_call_ns(seed: int) -> float:
    """Median wall time per scalar ktrig call over a seeded mix.

    A fifth each of cos_k, sin_k, tan_k, atan_k and acot_k over the five
    workload curvatures; arguments are log-uniform, so at |kappa| <= 1e-6
    many calls take the series branch (|kappa x**2| < 1e-8).
    """
    rng = np.random.default_rng([seed, 4])
    calls = []
    for _ in range(2000):
        kappa = KAPPAS[int(rng.integers(5))]
        z = float(10.0 ** rng.uniform(-3.0, math.log10(0.9)))
        fn = int(rng.integers(5))
        if fn < 3:
            calls.append(((ck.cos_k, ck.sin_k, ck.tan_k)[fn], kappa, 1.5 * z))
        elif fn == 3:
            calls.append((ck.atan_k, kappa, z))
        else:
            calls.append((ck.acot_k, kappa, math.sqrt(max(0.0, -kappa)) + z))
    per_call = []
    for _ in range(5):
        for start in range(0, len(calls), 200):
            chunk = calls[start : start + 200]
            t0 = time.perf_counter()
            for fn, kappa, x in chunk:
                fn(kappa, x)
            per_call.append((time.perf_counter() - t0) / len(chunk))
    return statistics.median(per_call) * 1e9


WORKLOADS = {cls.name: cls for cls in (Simulate, Survey, Ephemeris)}


def make(name: str, seed: int, scratch: str):
    return WORKLOADS[name](seed, scratch)
