"""Curved Kepler dynamics: equations of motion, first integrals, integrator.

States are points (r, phi, v_r, v_phi) of the tangent bundle in geodesic
polar coordinates.  The Kepler potential on curvature kappa is
U(r) = -k cos_k(r)/sin_k(r); its gradient k/sin_k(r)**2 makes the flux
through geodesic circles constant, exactly like the inverse-square law
in the plane.

The integrator is an adaptive embedded Runge-Kutta 5(4) pair
(Dormand-Prince coefficients) with a quartic dense-output interpolant,
step rejection on conserved-quantity spikes, and collision termination
for radial orbits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from .effective_potential import _critical, check_coupling
from .errors import (
    DomainError,
    InfeasibleError,
    NumericalError,
    SingularityError,
    StiffnessError,
)
from .geometry import PolarPoint, check_interior_radius, check_radius
from .ktrig import _chart_limit, _check_finite, _cos, _sin, _sincos, curvature_value

COLLISION_RADIUS = 1e-10
# below this radius a step-size underflow is interpreted as reaching the
# center: double precision cannot track the fall all the way to 1e-10
_COLLISION_SOFT = 1e-4

FOUR_PI = 4.0 * math.pi

#: admissible range of the trajectory accuracy target ``tol``
TOL_RANGE = (1e-13, 1e-6)


def check_tol(tol: float) -> float:
    """The accuracy target ``tol``; DomainError outside ``TOL_RANGE``."""
    lo, hi = TOL_RANGE
    if not (lo <= tol <= hi):
        raise DomainError(f"tol must lie in [{lo:g}, {hi:g}], got {tol!r}")
    return tol


@dataclass(frozen=True)
class PhaseState:
    """Point (r, phi, v_r, v_phi) of the tangent bundle."""

    r: float
    phi: float
    v_r: float
    v_phi: float

    def __post_init__(self):
        vals = (self.r, self.phi, self.v_r, self.v_phi)
        if not all(math.isfinite(v) for v in vals):
            raise DomainError(f"phase state must be finite, got {vals!r}")

    def point(self) -> PolarPoint:
        return PolarPoint(self.r, self.phi)


@dataclass(frozen=True)
class KeplerParams:
    """Curvature and coupling of the attractive Kepler problem."""

    kappa: float
    k: float

    def __post_init__(self):
        object.__setattr__(self, "kappa", curvature_value(self.kappa))
        check_coupling(self.k)


@dataclass(frozen=True)
class Momenta:
    """Noether momenta of the two translation-like flows and the rotation."""

    p1: float
    p2: float
    j: float


@dataclass(frozen=True)
class ConservedSet:
    """Every first integral of a Kepler state in one record."""

    e: float
    j: float
    e_p: float
    i3: float
    i4: float

    @classmethod
    def from_state(cls, state: PhaseState, params: KeplerParams) -> "ConservedSet":
        return cls(*_state_integrals(params.kappa, params.k, state))


# ----------------------------------------------------------------------
# the Kepler kernel: every curvature goes through the (s, c) evaluator
# sc = sincos_k(kappa) and the formulas below
# ----------------------------------------------------------------------


def _potential(k: float, s: float, c: float) -> float:
    """U = -k c/s, in cotangent form so the equator (kappa > 0) is an
    ordinary zero instead of a tangent pole."""
    if abs(c) < 1e-15:
        # r sits within a couple of ulps of the equator radius
        # pi/(2 sqrt(kappa)); the true cotangent there is below double
        # resolution, so report the crossing value itself
        return 0.0
    return -k * c / s


def _momenta(s, c, cphi, sphi, v_r, v_phi):
    """(P1, P2, J) from s, c = sin_k(r), cos_k(r) and cos, sin of phi."""
    cs_vphi = c * s * v_phi
    return (cphi * v_r - sphi * cs_vphi, sphi * v_r + cphi * cs_vphi, s * s * v_phi)


def _kinetic(j, v_r, v_phi):
    """T = (v_r**2 + J v_phi)/2, with J = sin_k(r)**2 v_phi."""
    return 0.5 * (v_r * v_r + j * v_phi)


def _kepler_rhs(sc, k, r, phi, v_r, v_phi):
    """(dr, dphi, dv_r, dv_phi) of the Kepler flow."""
    s, c = sc(r)
    return (v_r, v_phi, s * c * v_phi * v_phi - k / (s * s), -2.0 * (c / s) * v_r * v_phi)


def _first_integrals(sc, kappa, k, r, phi, v_r, v_phi):
    """(E, J, E_P, I3, I4) of a Kepler state."""
    s, c = sc(r)
    cphi, sphi = math.cos(phi), math.sin(phi)
    p1, p2, j = _momenta(s, c, cphi, sphi, v_r, v_phi)
    e = _kinetic(j, v_r, v_phi) + _potential(k, s, c)
    return (e, j, e - 0.5 * kappa * j * j, p2 * j - k * cphi, p1 * j + k * sphi)


def _state_integrals(kappa: float, k: float, state: PhaseState):
    r = check_interior_radius(kappa, state.r)
    return _first_integrals(_sincos(kappa), kappa, k, r, state.phi, state.v_r, state.v_phi)


def kepler_potential(params: KeplerParams, r: float) -> float:
    """Attractive Kepler potential -k cos_k(r)/sin_k(r), zero on the equator."""
    kappa = params.kappa
    r = check_interior_radius(kappa, r)
    return _potential(params.k, *_sincos(kappa)(r))


def kepler_potential_gradient(params: KeplerParams, r: float) -> float:
    """dU/dr = k / sin_k(r)**2 (always positive: the force pulls inward)."""
    s = _sin(params.kappa, check_interior_radius(params.kappa, r))
    return params.k / (s * s)


def gauss_law_flux(params: KeplerParams, r: float) -> float:
    """Flux 4*pi*sin_k(r)**2 * U'(r) through the geodesic circle of radius r.

    Constant and equal to 4*pi*k for every admissible r: this is what
    singles out the cotangent potential as the curved point source.
    """
    s = _sin(params.kappa, check_interior_radius(params.kappa, r))
    return FOUR_PI * (s * s) * (params.k / (s * s))


def eom_rhs(state: PhaseState, params: KeplerParams):
    """Right-hand side (dr, dphi, dv_r, dv_phi) of the Kepler equations."""
    kappa = params.kappa
    r = check_interior_radius(kappa, state.r)
    return _kepler_rhs(_sincos(kappa), params.k, r, state.phi, state.v_r, state.v_phi)


def momenta(kappa, state: PhaseState) -> Momenta:
    """Noether momenta P1, P2 and the angular momentum J = sin_k(r)^2 v_phi."""
    kappa = curvature_value(kappa)
    # check_radius admits r = 0, where the momenta are regular
    s, c = _sincos(kappa)(check_radius(kappa, state.r))
    cphi, sphi = math.cos(state.phi), math.sin(state.phi)
    return Momenta(*_momenta(s, c, cphi, sphi, state.v_r, state.v_phi))


def kinetic_energy(kappa, state: PhaseState) -> float:
    """T = (v_r**2 + sin_k(r)**2 v_phi**2) / 2."""
    return _state_kinetic(curvature_value(kappa), state)


def _state_kinetic(kappa: float, state: PhaseState) -> float:
    s = _sin(kappa, check_radius(kappa, state.r))
    return _kinetic(s * s * state.v_phi, state.v_r, state.v_phi)


def energy(state: PhaseState, params: KeplerParams, potential=None) -> float:
    """Total energy T + U.  ``potential`` overrides the Kepler default."""
    if potential is None:
        return _state_integrals(params.kappa, params.k, state)[0]
    return _state_kinetic(params.kappa, state) + potential(state.r)


def runge_lenz(kappa, state: PhaseState, params: KeplerParams):
    """The two Runge-Lenz-type integrals (i3, i4) of the curved Kepler flow."""
    return _state_integrals(curvature_value(kappa), params.k, state)[3:]


def killing_fields(kappa, p: PolarPoint):
    """Components of the three Killing fields at p in the (d/dr, d/dphi) basis.

    Returns (Y1, Y2, YJ).  The polar chart is singular at r = 0 where the
    angular components blow up.
    """
    k = curvature_value(kappa)
    r = check_interior_radius(k, p.r)
    cot = _cos(k, r) / _sin(k, r)
    cphi, sphi = math.cos(p.phi), math.sin(p.phi)
    y1 = (cphi, -cot * sphi)
    y2 = (sphi, cot * cphi)
    yj = (0.0, 1.0)
    return (y1, y2, yj)


def separable_integrals(kappa, state: PhaseState, f: Callable, g: Callable):
    """Integrals (i1, i2) of a separable potential U = F(r) + G(phi)/sin_k(r)^2.

    i1 = p1^2 + p2^2 + 2F + 2G/tan_k(r)^2 and i2 = j^2 + 2G; together
    they split the energy as 2E = i1 + kappa*i2.
    """
    k = curvature_value(kappa)
    r = check_interior_radius(k, state.r)
    return _separable_integrals(*_sincos(k)(r), f, g, r, state.phi, state.v_r, state.v_phi)


def _separable_integrals(s, c, f, g, r, phi, v_r, v_phi):
    p1, p2, j = _momenta(s, c, math.cos(phi), math.sin(phi), v_r, v_phi)
    cot = c / s
    g_val = g(phi)
    return (p1**2 + p2**2 + 2.0 * f(r) + 2.0 * g_val * cot * cot, j**2 + 2.0 * g_val)


def circular_state(params: KeplerParams, j: float, phi: float = 0.0) -> PhaseState:
    """State of the circular orbit with angular momentum j.

    The circular radius is the minimum of the effective potential, at
    tan_k(r) = j**2/k; on the hyperbolic plane it exists only below the
    escape angular momentum, otherwise :class:`DomainError` is raised.
    """
    if _check_finite(j) == 0.0:
        raise InfeasibleError("circular orbits need nonzero angular momentum")
    crit = _critical(params.kappa, params.k, j)
    if crit is None:
        raise DomainError(f"no circular orbit at j={j!r}: W has no minimum on kappa={params.kappa!r}")
    s = _sin(params.kappa, crit[0])
    return PhaseState(r=crit[0], phi=phi, v_r=0.0, v_phi=j / (s * s))


# ----------------------------------------------------------------------
# Dormand-Prince 5(4) with dense output
# ----------------------------------------------------------------------

_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = (
    19372.0 / 6561.0,
    -25360.0 / 2187.0,
    64448.0 / 6561.0,
    -212.0 / 729.0,
)
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0,
    -355.0 / 33.0,
    46732.0 / 5247.0,
    49.0 / 176.0,
    -5103.0 / 18656.0,
)
_B1, _B3, _B4, _B5, _B6 = (
    35.0 / 384.0,
    500.0 / 1113.0,
    125.0 / 192.0,
    -2187.0 / 6784.0,
    11.0 / 84.0,
)
# difference between the 5th- and 4th-order weights (7 stages, FSAL)
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71.0 / 57600.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)
# quartic dense-output matrix (stage x theta-power)
_P = (
    (
        1.0,
        -8048581381.0 / 2820520608.0,
        8663915743.0 / 2820520608.0,
        -12715105075.0 / 11282082432.0,
    ),
    (0.0, 0.0, 0.0, 0.0),
    (
        0.0,
        131558114200.0 / 32700410799.0,
        -68118460800.0 / 10900136933.0,
        87487479700.0 / 32700410799.0,
    ),
    (
        0.0,
        -1754552775.0 / 470086768.0,
        14199869525.0 / 1410260304.0,
        -10690763975.0 / 1880347072.0,
    ),
    (
        0.0,
        127303824393.0 / 49829197408.0,
        -318862633887.0 / 49829197408.0,
        701980252875.0 / 199316789632.0,
    ),
    (
        0.0,
        -282668133.0 / 205662961.0,
        2019193451.0 / 616988883.0,
        -1453857185.0 / 822651844.0,
    ),
    (0.0, 40617522.0 / 29380423.0, -110615467.0 / 29380423.0, 69997945.0 / 29380423.0),
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_SPIKE_FACTOR = 10.0
_MAX_STEPS = 5_000_000
# local errors are controlled this far below the requested tolerance so
# that global drift over long runs lands near the tolerance itself
_DRIFT_MARGIN = 0.1


class Trajectory:
    """Result of an adaptive integration.

    Stores the accepted step endpoints (``times``, ``states``), the first
    integrals evaluated at each of them (``invariants``, one row per
    state; see :func:`integrate`) and, when
    dense output was requested, a quartic interpolant per step that
    :meth:`state_at`, :meth:`sample` and :meth:`first_crossing` evaluate.
    The interpolants are kept as two private arrays: step i starts at
    ``times[i]``, ``states[i]``, has size ``h[i]`` and coefficients
    ``d[:, i]``, where ``d`` has shape (4, n, 4), indexed (theta power,
    step, component).  Instances are immutable by
    convention: nothing in the package mutates them after construction,
    so they can be shared freely across threads.
    """

    def __init__(self, kappa, times, states, invariants, dense=None, event=None, event_time=None):
        self.kappa = kappa
        self.times = np.asarray(times, dtype=float)
        self.states = np.asarray(states, dtype=float)
        self.invariants = np.asarray(invariants, dtype=float)
        self.event = event
        self.event_time = event_time
        # (h, d) arrays of the per-step interpolants, or None
        self._dense = dense

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def __len__(self) -> int:
        return len(self.times)

    def final_state(self) -> PhaseState:
        r, phi, v_r, v_phi = self.states[-1]
        return PhaseState(r, phi, v_r, v_phi)

    def _dense_steps(self):
        if self._dense is None:
            raise DomainError("trajectory was integrated without dense output")
        return self._dense

    def _span_error(self, t) -> DomainError:
        return DomainError(
            f"t={float(t)!r} is NaN or outside the integrated span "
            f"[{float(self.times[0])!r}, {float(self.times[-1])!r}]"
        )

    def _step(self, i):
        """Step i as plain floats (t0, h, y0, d), for scalar evaluation."""
        h, d = self._dense
        return float(self.times[i]), float(h[i]), self.states[i].tolist(), d[:, i].tolist()

    def state_at(self, t: float) -> PhaseState:
        """Dense-output state at any time inside the integrated span."""
        h, _ = self._dense_steps()
        if not (self.times[0] <= t <= self.times[-1]):
            raise self._span_error(t)
        if not len(h):
            # no accepted step: the span is the single point times[0]
            return PhaseState(*self.states[0].tolist())
        i = int(self.times.searchsorted(t, "right")) - 1
        return _horner(self._step(min(max(i, 0), len(h) - 1)), t)

    def sample(self, t_grid: Sequence[float]) -> np.ndarray:
        """Dense states at each time of t_grid, as an (n, 4) array.

        One Horner evaluation over all times, in the operation order of
        :meth:`state_at`, so each row equals ``state_at`` bit for bit.
        """
        h, d = self._dense_steps()
        ts = np.asarray(t_grid, dtype=float).reshape(-1)
        inside = (ts >= self.times[0]) & (ts <= self.times[-1])
        if not inside.all():
            raise self._span_error(ts[~inside][0])
        if not len(h):
            return self.states[np.zeros(len(ts), dtype=int)]
        i = np.clip(np.searchsorted(self.times, ts, side="right") - 1, 0, len(h) - 1)
        hi = h[i]
        theta = ((ts - self.times[i]) / hi)[:, None]
        di = d[:, i]
        poly = theta * (di[0] + theta * (di[1] + theta * (di[2] + theta * di[3])))
        return self.states[i] + hi[:, None] * poly

    def first_crossing(self, func, t_lo=None, t_hi=None) -> float | None:
        """First time in [t_lo, t_hi] where func(t, state) crosses zero.

        Scans for a sign change over the window's two ends, evaluated on
        the interpolant, and every accepted node between them; then
        bisects on the interpolant of the step holding the sign change.
        The window is clipped to the integrated span.  Returns None if no
        crossing is found.
        """
        h, _ = self._dense_steps()
        t_first, t_last = float(self.times[0]), float(self.times[-1])
        lo = t_first if t_lo is None else float(t_lo)
        hi = t_last if t_hi is None else float(t_hi)
        if math.isnan(lo) or math.isnan(hi):
            raise DomainError(f"first_crossing window [{lo!r}, {hi!r}] contains NaN")
        lo, hi = max(lo, t_first), min(hi, t_last)
        if lo > hi or not len(h):
            return None
        # nodes strictly inside (lo, hi); node i starts step i
        i0 = int(self.times.searchsorted(lo, "right"))
        i1 = int(self.times.searchsorted(hi, "left"))
        nodes = zip(self.times[i0:i1].tolist(), self.states[i0:i1].tolist(), range(i0, i1))
        points = chain(
            [(lo, self.state_at(lo), min(i0, len(h)) - 1)],
            ((t, PhaseState(*row), i) for t, row, i in nodes),
            [(hi, self.state_at(hi), None)],
        )
        prev_t = prev_g = prev_i = None
        for t, state, i in points:
            g = func(t, state)
            if prev_g is not None and (g == 0.0 or (prev_g < 0.0) != (g < 0.0)):
                return _bisect_step(func, self._step(prev_i), prev_t, t, prev_g)
            prev_t, prev_g, prev_i = t, g, i
        return None


def _horner(step, t) -> PhaseState:
    """State at t on one step's quartic interpolant, in plain floats."""
    t0, h, y0, (d0, d1, d2, d3) = step
    theta = (t - t0) / h
    return PhaseState(
        *[
            y0[c] + h * (theta * (d0[c] + theta * (d1[c] + theta * (d2[c] + theta * d3[c]))))
            for c in range(4)
        ]
    )


def _bisect_step(func, step, a, b, ga) -> float:
    """Zero of func on [a, b], a bracket inside one step's interpolant."""
    for _ in range(200):
        mid = 0.5 * (a + b)
        gm = func(mid, _horner(step, mid))
        if gm == 0.0:
            return mid
        if (ga < 0.0) != (gm < 0.0):
            b = mid
        else:
            a, ga = mid, gm
        if b - a <= 1e-14 * max(1.0, abs(a)):
            break
    return 0.5 * (a + b)


def _dense_coefficients(stages) -> np.ndarray:
    """Coefficients d[m, i, c] = sum_s _P[s][m] * stages[i][s][c].

    Summed stage by stage from zero, left to right as a scalar loop over
    the stages adds them, so each coefficient is bit-identical to that
    per-step formula (the tests hold it to this).
    """
    k = np.array(stages, dtype=float).reshape(-1, 7, 4)
    d = np.zeros((4, len(k), 4))
    for s in range(7):
        for m in range(4):
            d[m] += _P[s][m] * k[:, s]
    return d


def _rms(values) -> float:
    """Root mean square of four values, added left to right: the bits do
    not depend on the Python version (from 3.12 on, sum() compensates)."""
    a, b, c, d = values
    return math.sqrt((a**2 + b**2 + c**2 + d**2) / 4.0)


def _initial_step(rhs, y0, f0, t_end, rtol, atol):
    h0 = 1e-6
    try:
        scale = [atol + rtol * abs(v) for v in y0]
        d0 = _rms(y / s for y, s in zip(y0, scale))
        d1 = _rms(f / s for f, s in zip(f0, scale))
        if not (d0 < 1e-5 or d1 < 1e-5):
            h0 = 0.01 * d0 / d1
        y1 = tuple(y + h0 * f for y, f in zip(y0, f0))
        f1 = rhs(*y1)
        d2 = _rms((a - b) / s for a, b, s in zip(f1, f0, scale)) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** 0.2
    except (ValueError, OverflowError, ZeroDivisionError):
        # an extreme state: fall back to a thousandth of the trial step
        return min(h0 * 1e-3, t_end)
    return min(100 * h0, h1, t_end)


def _integrate_adaptive(rhs, state0, t_end, tol, kappa, invariants, watched, dense):
    """Generic DOPRI5(4) driver on 4-component float tuples.

    ``tol`` is a trajectory-accuracy target, not a per-step bound: the
    controller holds each local error an order of magnitude below it so
    that drift accumulated over thousands of steps stays near ``tol``
    instead of ``steps * tol``.

    ``invariants`` maps a state tuple to a tuple of conserved values,
    recorded for every accepted state; a step that moves any of the first
    ``watched`` of them by more than 10x the tolerance (relative), or
    makes one non-finite, is rejected and retried at half the step, which
    keeps isolated spikes near close approaches out of the output.
    """
    rtol = atol = _DRIFT_MARGIN * tol
    t = 0.0
    y = tuple(map(float, (state0.r, state0.phi, state0.v_r, state0.v_phi)))
    r_max = _chart_limit(kappa)  # inf off the sphere: no antipode to reach
    try:
        f = rhs(*y)
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise SingularityError(f"right-hand side failed at the initial state: {exc}")
    inv0 = invariants(*y)
    if not all(map(math.isfinite, inv0)):
        raise NumericalError(f"first integrals {inv0!r} of the initial state {y!r} are not finite")

    times = [0.0]
    states = [y]
    invs = [inv0]
    steps_h = []
    stages = []
    event = None
    event_time = None

    h = _initial_step(rhs, y, f, t_end, rtol, atol)
    steps = 0
    while t < t_end:
        if steps > _MAX_STEPS:
            raise StiffnessError(f"step budget exhausted after {steps} steps")
        if h >= t_end - t:
            # the last step, clipped to the span: it still advances t,
            # so it is no underflow however small the span is
            h = t_end - t
        elif h < 1e-14 * max(1.0, abs(t)):
            if y[0] < _COLLISION_SOFT and y[2] < 0.0:
                event, event_time = "collision", t
                break
            raise StiffnessError(f"step size underflow at t={t!r} (h={h!r})")
        steps += 1

        try:
            k1 = f
            y2 = tuple(y[i] + h * _A21 * k1[i] for i in range(4))
            k2 = rhs(*y2)
            y3 = tuple(y[i] + h * (_A31 * k1[i] + _A32 * k2[i]) for i in range(4))
            k3 = rhs(*y3)
            y4 = tuple(
                y[i] + h * (_A41 * k1[i] + _A42 * k2[i] + _A43 * k3[i])
                for i in range(4)
            )
            k4 = rhs(*y4)
            y5 = tuple(
                y[i]
                + h * (_A51 * k1[i] + _A52 * k2[i] + _A53 * k3[i] + _A54 * k4[i])
                for i in range(4)
            )
            k5 = rhs(*y5)
            y6 = tuple(
                y[i]
                + h
                * (
                    _A61 * k1[i]
                    + _A62 * k2[i]
                    + _A63 * k3[i]
                    + _A64 * k4[i]
                    + _A65 * k5[i]
                )
                for i in range(4)
            )
            k6 = rhs(*y6)
            y_new = tuple(
                y[i]
                + h
                * (_B1 * k1[i] + _B3 * k3[i] + _B4 * k4[i] + _B5 * k5[i] + _B6 * k6[i])
                for i in range(4)
            )
            k7 = rhs(*y_new)
            # the step stands if it is finite and every stage stays inside the chart
            inside = all(map(math.isfinite, y_new)) and all(
                0.0 < stage[0] < r_max for stage in (y2, y3, y4, y5, y6, y_new)
            )
        except (ValueError, OverflowError, ZeroDivisionError):
            inside = False
        if not inside:
            h *= 0.5
            continue

        err_terms = tuple(
            h
            * (
                _E1 * k1[i]
                + _E3 * k3[i]
                + _E4 * k4[i]
                + _E5 * k5[i]
                + _E6 * k6[i]
                + _E7 * k7[i]
            )
            for i in range(4)
        )
        err = _rms(
            err_terms[i] / (atol + rtol * max(abs(y[i]), abs(y_new[i]))) for i in range(4)
        )
        if err > 1.0:
            h *= max(_MIN_FACTOR, _SAFETY * err**-0.2)
            continue

        inv1 = invariants(*y_new)
        # "not <=" so that a NaN counts as a spike
        spike = any(
            not abs(a - b) <= _SPIKE_FACTOR * tol * max(1.0, abs(a))
            for a, b in zip(inv0[:watched], inv1)
        )
        if spike:
            h *= 0.5
            continue
        inv0 = inv1

        t_new = t + h
        times.append(t_new)
        states.append(y_new)
        invs.append(inv1)
        if dense:
            steps_h.append(h)
            stages.append((k1, k2, k3, k4, k5, k6, k7))

        if y_new[0] <= COLLISION_RADIUS:
            event, event_time = "collision", t_new
            break

        y, f, t = y_new, k7, t_new
        if err == 0.0:
            h *= _MAX_FACTOR
        else:
            h *= min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err**-0.2))

    return Trajectory(
        kappa,
        times,
        states,
        invs,
        dense=(np.array(steps_h), _dense_coefficients(stages)) if dense else None,
        event=event,
        event_time=event_time,
    )


def integrate(
    state0: PhaseState,
    params: KeplerParams,
    t_end: float,
    tol: float = 1e-9,
    dense: bool = True,
) -> Trajectory:
    """Integrate the Kepler flow from state0 for a time span t_end.

    Parameters
    ----------
    state0 : PhaseState
        Initial condition; r must be strictly inside the chart.
    params : KeplerParams
        Curvature and coupling.
    t_end : float
        Length of the integration window (must be positive).
    tol : float
        Trajectory accuracy target, within [1e-13, 1e-6].  Local step
        errors are controlled an order of magnitude below it so drift
        over long runs stays near tol; 10x tol is the conserved-quantity
        spike threshold.  tol bounds the drift of the invariants, not
        the phase: the error in phi grows linearly in time and in tol
        (1.6e-6 rad after ten radial periods at tol 1e-12 on kappa = -1,
        k = 1, J = 0.8, E = -1.001).  For an exact phase use
        ``orbit.propagate`` or ``orbit.phi_from_time``.
    dense : bool
        Keep the per-step interpolant so the result supports
        :meth:`Trajectory.state_at` and event queries.  Costs memory on
        long runs; endpoint data is always kept.

    ``Trajectory.invariants`` keeps the (E, J, E_P, I3, I4) the spike guard
    evaluated at each state (:func:`integrate_separable` keeps (E, i1,
    i2)); non-finite ones at the start raise :class:`NumericalError`.
    A radial fall that reaches the collision radius truncates the
    trajectory and records the ``collision`` event instead of raising.
    """
    kappa = params.kappa
    check_interior_radius(kappa, state0.r)
    check_tol(tol)
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise DomainError(f"t_end must be positive and finite, got {t_end!r}")
    sc = _sincos(kappa)
    return _integrate_adaptive(
        partial(_kepler_rhs, sc, params.k),
        state0,
        t_end,
        tol,
        kappa,
        partial(_first_integrals, sc, kappa, params.k),
        2,  # the spike guard watches (E, J)
        dense,
    )


def integrate_separable(
    kappa,
    state0: PhaseState,
    f: Callable,
    df: Callable,
    g: Callable,
    dg: Callable,
    t_end: float,
    tol: float = 1e-9,
    dense: bool = False,
) -> Trajectory:
    """Integrate motion in a separable potential U = F(r) + G(phi)/sin_k(r)^2.

    ``f``/``df`` evaluate F and dF/dr, ``g``/``dg`` evaluate G and
    dG/dphi.  The conserved-spike guard watches the separability
    integrals (i1, i2) and the energy.
    """
    k = curvature_value(kappa)
    check_interior_radius(k, state0.r)
    check_tol(tol)
    sc = _sincos(k)

    def rhs(r, phi, vr, vphi):
        s, c = sc(r)
        inv_s2 = 1.0 / (s * s)
        g_val = g(phi)
        # dU/dr = F' - 2 G cos/sin^3 ; dU/dphi = G'/sin^2
        f_r = s * c * vphi * vphi - (df(r) - 2.0 * g_val * c * inv_s2 / s)
        f_phi = -2.0 * (c / s) * vr * vphi - dg(phi) * inv_s2 * inv_s2
        return (vr, vphi, f_r, f_phi)

    def inv(r, phi, vr, vphi):
        s, c = sc(r)
        i1, i2 = _separable_integrals(s, c, f, g, r, phi, vr, vphi)
        e = _kinetic(s * s * vphi, vr, vphi) + f(r) + g(phi) / (s * s)
        return (e, i1, i2)

    return _integrate_adaptive(rhs, state0, t_end, tol, k, inv, 3, dense)
