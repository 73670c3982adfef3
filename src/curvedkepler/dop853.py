"""The adaptive embedded Runge-Kutta pair DOP853 of Dormand and Prince.

Order 8 with 5th- and 3rd-order error estimates, a dense output of degree
7, step rejection on conserved-quantity spikes and collision termination
at the chart's centre.  It knows no physics: a flow comes in as callables
and a row of data (a :class:`_Flow`: its source texts, how many of its
first integrals the spike guard watches, and the fall law, if any, that
times a fall on a radial line to the centre).  Each attempt is one
straight-line kernel that :func:`_kernels` compiles on the flow's first
integration, with the flow's texts and the spike guard written out.
Steps follow Gustafsson's predictive controller (Hairer & Wanner, Solving
ODEs II, sec. IV.8); a step accepted right after a rejection may not grow
(Hairer, Norsett & Wanner, sec. II.4), nor past the spike guard's margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cache
from itertools import chain
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, NumericalError, SingularityError, StiffnessError
from .geometry import PhaseState, check_interior_radius
from .ktrig import _chart_limit, _source

COLLISION_RADIUS = 1e-10
# below this radius a fall on a radial line that a flow's fall law times ends
# by the law: double precision cannot track the fall all the way to 1e-10
_FALL_RADIUS = 1e-4

#: admissible range of the trajectory accuracy target ``tol``
TOL_RANGE = (1e-13, 1e-6)


def check_tol(tol: float) -> float:
    """The accuracy target ``tol``; DomainError outside ``TOL_RANGE``."""
    lo, hi = TOL_RANGE
    if not (lo <= tol <= hi):
        raise DomainError(f"tol must lie in [{lo:g}, {hi:g}], got {tol!r}")
    return tol


# The tableau of Hairer, Norsett & Wanner, Solving Ordinary Differential
# Equations I, sec. II.10, as the nearest doubles to its published
# 30-digit values.  Row s of _A gives stage s from the stages before it;
# row 12 holds the weights B of the 8th-order solution, whose stage at
# the step's end is reused as the next step's first (FSAL); rows 13-15
# are the three extra stages of the dense output.  The nodes c_s are the
# row sums, which the right-hand side never reads: the flow is autonomous.
_A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (
        0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
        -0.015319437748624402, 0.008273789163814023,
    ),
    (
        0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
        27.59209969944671, 20.154067550477894, -43.48988418106996,
    ),
    (
        0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
        21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627,
    ),
    (
        -0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
        -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
        -3.0467644718982196,
    ),
    (
        2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
        -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
        12.360567175794303, 0.6433927460157636,
    ),
    (
        0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
        -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
        0.04471061572777259,
    ),
    (
        0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
        -0.2462390374708025, -0.12419142326381637, 0.15329179827876568, 0.00820105229563469,
        0.007567897660545699, -0.008298,
    ),
    (
        0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
        -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
        -0.00034046500868740456, 0.1413124436746325,
    ),
    (
        -0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
        4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
        2.9475147891527724, -9.15095847217987,
    ),
)
# the step's stages, ending on the solution, and the dense-output stages
_STEP_ROWS, _DENSE_ROWS = _A[1:13], _A[13:]
# B minus the 5th- and 3rd-order weights, over the first 12 stages
_E5 = (
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
    -0.022355307863886294,
)
_E3 = (
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
    0.02265179219836082,
)
# stage weights of the dense output's rows 3-6, over all 16 stages
_D = (
    (
        -8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
        2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
        0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
        -4.436036387594894,
    ),
    (
        10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
        -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
        -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
        35.81684148639408,
    ),
    (
        19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
        527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
        0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
        11.99229113618279,
    ),
    (
        -25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
        357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
        29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
        -149.72683625798564,
    ),
)
# The dense output's rows F_0..F_6 enter the interpolant in the nested
# form theta (F_0 + (1 - theta) (F_1 + theta (F_2 + (1 - theta) (F_3 + ...)))),
# alternating theta and 1 - theta; row m of this matrix is the
# coefficient of theta**(m + 1) in the term of each F_j.
_THETA_POWERS = (
    (1, 1, 0, 0, 0, 0, 0),
    (0, -1, 1, 1, 0, 0, 0),
    (0, 0, -1, -2, 1, 1, 0),
    (0, 0, 0, 1, -2, -3, 1),
    (0, 0, 0, 0, 1, 3, -3),
    (0, 0, 0, 0, 0, -1, 3),
    (0, 0, 0, 0, 0, 0, -1),
)
# the stage weights of F_0 and F_3..F_6, and the stages they read
_F_ROWS = (_A[12] + (0.0,) * 4, *_D)
_F_STAGES = [s for s in range(16) if any(row[s] for row in _F_ROWS)]
# both as weights shaped (row, column, 1, 1) to broadcast over (step, component)
_F_WEIGHTS, _THETA_WEIGHTS = (np.array(w, dtype=float)[:, :, None, None] for w in (_F_ROWS, _THETA_POWERS))

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
# the error estimate is of 8th order in h: steps scale by err**(-1/8)
_EXPONENT = -0.125
_SPIKE_FACTOR = 10.0
_MAX_STEPS = 5_000_000
# local errors are controlled this far below the requested tolerance so
# that global drift over long runs lands near the tolerance itself
_DRIFT_MARGIN = 0.1
# dense output reduces the 16 stages per step to coefficients this many steps at a time
_DENSE_CHUNK = 1024


def _least(fac, x):
    """min(fac, max(_MIN_FACTOR, x)), compared, not called: the step-size rule runs once a step."""
    return fac if fac <= x else (x if x > _MIN_FACTOR else _MIN_FACTOR)


@dataclass(frozen=True)
class StepStats:
    """What one integration did, counted as plain ints in the step loop.

    ``accepted`` steps; rejected steps by cause: ``rejected_error`` (the
    error estimate exceeded the tolerance), ``rejected_spike`` (a watched
    first integral jumped or became non-finite) and ``rejected_stage``
    (a stage left the chart, the solution was not finite or the
    arithmetic failed); ``rhs_evaluations`` counts every call of the
    right-hand side, the initial-step trial included; ``h_min`` and ``h_max``
    the shortest and longest accepted step, the last one clipped to the span
    included (0.0 if none was taken).
    """

    accepted: int
    rejected_error: int
    rejected_spike: int
    rejected_stage: int
    rhs_evaluations: int
    h_min: float
    h_max: float


class Trajectory:
    """Result of an adaptive integration.

    Stores the accepted step endpoints (``times``, ``states``), the first
    integrals evaluated at each of them (``invariants``, one row per
    state, as the flow's ``invariants`` return them), the step counts (``stats``, a
    :class:`StepStats`), how a run that stopped short ended (``event``,
    ``"collision"`` or None) and when (``event_time``: for a fall on a
    radial line that a flow's fall law ends, the time the fall reaches
    r = 0, later than the last row's; otherwise the last row's time) and,
    when dense output was requested, an interpolant of degree 7 per step
    that :meth:`state_at`, :meth:`sample` and :meth:`first_crossing` evaluate.
    The interpolants are kept as two private arrays: step i starts at
    ``times[i]``, ``states[i]``, has size ``h[i]`` and coefficients
    ``d[:, i]``, where ``d`` has shape (7, n, 4), indexed (theta power, step,
    component) and C-contiguous, so :meth:`sample` gathers each power as one
    contiguous block; the evaluators read the degree from ``d``.  Instances
    are immutable by convention: nothing in the package mutates them after
    construction, so they can be shared freely across threads.
    """

    def __init__(self, kappa, times, states, invariants, dense=None, event=None, event_time=None, stats=None):
        self.kappa = kappa
        self.times = np.asarray(times, dtype=float)
        self.states = np.asarray(states, dtype=float)
        self.invariants = np.asarray(invariants, dtype=float)
        self.event = event
        self.event_time = event_time
        self.stats = stats
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
        """Step i as plain floats (t0, h, y0, d), for scalar evaluation;
        d[c] lists component c's coefficients, lowest theta power first."""
        h, d = self._dense
        return float(self.times[i]), float(h[i]), self.states[i].tolist(), d[:, i].T.tolist()

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
        # power-major: each theta power gathers as one contiguous (n, 4) block, summed in place
        di = d.take(i, axis=1)
        poly = di[-1]
        for dm in di[-2::-1]:
            poly *= theta
            poly += dm
        return self.states.take(i, axis=0) + hi[:, None] * (theta * poly)

    def first_crossing(self, func, t_lo=None, t_hi=None) -> float | None:
        """First time in [t_lo, t_hi] where func(t, state) crosses zero.

        Scans for a sign change over the window's two ends, evaluated on
        the interpolant, and every accepted node between them; then
        polishes the root on the interpolant of the step holding the sign
        change by Illinois false position.
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
            ((t, self.state_at(t), None) for t in (hi,)),  # only if the scan gets that far
        )
        prev_t = prev_g = prev_i = None
        for t, state, i in points:
            g = func(t, state)
            if prev_g is not None and (g == 0.0 or (prev_g < 0.0) != (g < 0.0)):
                return _false_position(func, self._step(prev_i), prev_t, t, prev_g, g)
            prev_t, prev_g, prev_i = t, g, i
        return None


def _horner(step, t) -> PhaseState:
    """State at t on one step's interpolant, in plain floats."""
    t0, h, y0, d = step
    theta = (t - t0) / h
    out = []
    for y, coeffs in zip(y0, d):
        poly = coeffs[-1]
        for dm in coeffs[-2::-1]:
            poly = dm + theta * poly
        out.append(y + h * (theta * poly))
    return PhaseState(*out)


def _false_position(func, step, a, b, ga, gb) -> float:
    """Zero of func on [a, b] in one step's interpolant, ga, gb its values at a, b: Illinois
    false position (an end kept twice in a row has its value halved), bisecting where the secant misses."""
    side = 0
    for _ in range(200):
        eps = 0.5e-14 * max(1.0, abs(a))
        if b - a <= 2.0 * eps:
            break
        x = b - gb * (b - a) / (gb - ga) if gb != ga else 0.5 * (a + b)
        # a secant point within eps of an end moves eps inside, so a root at that end closes the bracket
        x = min(max(x, a + eps), b - eps) if a <= x <= b else 0.5 * (a + b)
        gx = func(x, _horner(step, x))
        if gx == 0.0:
            return x
        if (ga < 0.0) != (gx < 0.0):
            b, gb, ga, side = x, gx, 0.5 * ga if side < 0 else ga, -1
        else:
            a, ga, gb, side = x, gx, 0.5 * gb if side > 0 else gb, 1
    return 0.5 * (a + b)


def _dense_coefficients(stages) -> np.ndarray:
    """Coefficients d[m, i, c] of theta**(m + 1) for every step i at once,
    power-major as :class:`Trajectory` keeps them.

    ``stages[i]`` holds step i's 16 stage derivatives, stage-major, as a flat
    64-tuple.  The rows F_j of the dense output are formed as
    in DOP853, F_0 from the weights B, F_1 = k_0 - F_0, F_2 = 2 F_0 -
    (k_12 + k_0) and F_3..F_6 from _D, then converted to theta powers by
    _THETA_POWERS.  F_0 with F_3..F_6, and the theta rows, are each summed as
    one stack, left to right over the terms any row weighs: a zero weight adds
    +-0.0, which leaves a finite sum as it is, so each sum has the bits of a
    loop over its nonzero weights (the tests hold it to that)."""
    k = np.fromiter(chain.from_iterable(stages), float, 64 * len(stages)).reshape(-1, 16, 4).transpose(1, 0, 2)
    f = np.zeros((len(_F_ROWS),) + k.shape[1:])
    for s in _F_STAGES:
        f += _F_WEIGHTS[:, s] * k[s]
    rows = np.stack((f[0], k[0] - f[0], 2.0 * f[0] - (k[12] + k[0]), *f[1:]))
    d = np.zeros(rows.shape)
    for j, row in enumerate(rows):
        d += _THETA_WEIGHTS[:, j] * row
    return d


def _rms(values) -> float:
    """Root mean square of four values, added left to right: the bits do
    not depend on the Python version (from 3.12 on, sum() compensates)."""
    a, b, c, d = values
    return math.sqrt((a**2 + b**2 + c**2 + d**2) / 4.0)


def _initial_step(rhs, y0, f0, t_end, tol):
    """First trial step at the local tolerance ``tol``, and the right-hand-side calls it made."""
    h0 = 1e-6
    calls = 0
    try:
        scale = [tol + tol * abs(v) for v in y0]
        d0 = _rms(y / s for y, s in zip(y0, scale))
        d1 = _rms(f / s for f, s in zip(f0, scale))
        if not (d0 < 1e-5 or d1 < 1e-5):
            h0 = 0.01 * d0 / d1
        y1 = tuple(y + h0 * f for y, f in zip(y0, f0))
        calls = 1
        f1 = rhs(*y1)
        d2 = _rms((a - b) / s for a, b, s in zip(f1, f0, scale)) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** -_EXPONENT
    except (ValueError, OverflowError, ZeroDivisionError):
        # an extreme state: fall back to a thousandth of the trial step
        return min(h0 * 1e-3, t_end), calls
    return min(100 * h0, h1, t_end), calls


def _dot(row, c) -> str:
    """Source of sum_s row[s] * k{s}_{c}, added left to right over the
    nonzero weights."""
    return " + ".join(f"{w!r}*k{s}_{c}" for s, w in enumerate(row) if w)


# An attempt's outcome, the first value its kernel returns, in StepStats' order
_ACCEPTED, _ERROR, _SPIKE, _STAGE = range(4)


class _Flow(NamedTuple):
    """How an attempt takes a flow, as one row of data."""

    params: tuple  # the kernel's parameters after rhs and invariants
    reads: tuple  # the state read besides r
    setup: str  # run once per integration
    evaluate: str  # statements setting k{s}_0..k{s}_3 at the stage state
    integrals: str  # statements setting inv1, the solution's first integrals
    names: tuple  # the (name, value) pairs the texts read besides isfinite and sqrt
    # (*params, r, v_r, E) -> the time in which a state on a radial line (v_phi == 0.0) at
    # r, not rising (v_r <= 0), of energy E (its first integral 0) reaches the centre;
    # None: no law
    fall: Callable | None
    watched: int  # how many of the first integrals the spike guard watches


# the row that calls rhs and invariants, and watches 3 integrals
_CALL_FLOW = _Flow((), ("phi", "v_r", "v_phi"), "", "k{s}_0, k{s}_1, k{s}_2, k{s}_3 = rhs(r, phi, v_r, v_phi)",
                   "inv1 = invariants(r, phi, v_r, v_phi)", (), None, 3)
_STATE = ("r", "phi", "v_r", "v_phi")


def _rejection(cause, calls="n", err="None") -> str:
    return f"return {cause}, {calls}, {err}, None, None, None, None, None"


def _stages(rows, first, flow) -> list[str]:
    """Source of a try block taking the stages first, first + 1, ... that
    ``rows`` build.  A component of the stage state y + h * (row . k) is
    written out where it is read: by the flow, whose right-hand side is taken
    once r passes the in-chart test 0 < r < r_max, or in stage 12, the step's
    solution.  A stage off the chart or a failed right-hand side rejects."""
    lines = ["        try:"]
    for n, row in enumerate(rows, first - 1):
        read = [c for c in range(4) if c == 0 or n == 11 or _STATE[c] in flow.reads]
        r, *rest = (f"y{c} + h * ({_dot(row, c)})" for c in read)
        lines += [
            f"            r = {r}",
            f"            if not 0.0 < r < r_max: {_rejection(_STAGE, n)}",
            f"            {', '.join(_STATE[c] for c in read[1:])}, n = {', '.join(rest)}, {n + 1}",
            *("            " + line for line in flow.evaluate.format(s=n + 1).split("\n")),
        ]
    lines.append("        except (ValueError, OverflowError, ZeroDivisionError):")
    return lines + [f"            {_rejection(_STAGE)}"]


def _kernel(flow, dense) -> str:
    """Source of ``make(rhs, invariants, <flow parameters>, r_max, tol, spike)``, which
    returns ``attempt(y, f, h, inv0)``: one DOP853 step of size h from y, with
    derivative f and first integrals inv0.  It rejects a stage off the chart
    or a non-finite solution (_STAGE); an error estimate over 1 (_ERROR), the
    RMS of e5 = h E5.k in units of the local tolerance ``tol``, scaled by
    |e5|/sqrt(|e5|**2 + 0.01 |e3|**2), e3 = h E3.k; and a move of one of the
    first ``flow.watched`` integrals by over ``spike`` max(1, |value|), or to NaN
    (_SPIKE).  With ``dense`` it takes the 3 dense stages (_STAGE if one fails).
    Returns (outcome, evaluations, err, q_max, solution, integrals, FSAL stage,
    the 16 stage derivatives as a flat 64-tuple or None), q_max the largest
    watched move over its bound; a rejection sets the first three only.  Each
    max() of two values is a conditional expression that picks as max() does:
    the first value unless the second is greater, so a NaN first stays."""
    lines = [
        f"def make({', '.join(('rhs', 'invariants', *flow.params))}, r_max, tol, spike):",
        f"    {flow.setup}",
        "    def attempt(y, f, h, inv0):",
        "        y0, y1, y2, y3 = y",
        "        k0_0, k0_1, k0_2, k0_3 = f",
        *_stages(_STEP_ROWS, 1, flow),
        f"        if not (isfinite(phi) and isfinite(v_r) and isfinite(v_phi)): {_rejection(_STAGE, 12)}",
    ]
    for c, x in enumerate(_STATE):
        lines += [
            f"        scale = tol + tol * (a1 if (a1 := abs({x})) > (a0 := abs(y{c})) else a0)",
            f"        x5_{c}, x3_{c} = ({_dot(_E5, c)}) / scale, ({_dot(_E3, c)}) / scale",
        ]
    lines += [f"        e{e} = " + " + ".join(f"x{e}_{c} * x{e}_{c}" for c in range(4)) for e in "53"]
    lines += [
        "        err = 0.0 if e5 == 0.0 else h * e5 / sqrt(4.0 * (e5 + 0.01 * e3))",
        f"        if err > 1.0: {_rejection(_ERROR, 12, 'err')}",
        *("        " + line for line in flow.integrals.split("\n")),
        # the largest watched change; "not <=" keeps a NaN
        "        q_max = 0.0",
    ]
    for i in range(flow.watched):
        lines += [
            f"        was = inv0[{i}]",
            f"        q = abs(was - inv1[{i}]) / (spike * (a0 if (a0 := abs(was)) > 1.0 else 1.0))",
            "        if not q <= q_max:",
            "            q_max = q",
            f"            if not q <= 1.0: {_rejection(_SPIKE, 12)}",
        ]
    lines += [
        "        y_new, k12 = (r, phi, v_r, v_phi), (k12_0, k12_1, k12_2, k12_3)",
        *(_stages(_DENSE_ROWS, 13, flow) if dense else ()),
    ]
    ks = "(" + "".join(f"k{s}_0, k{s}_1, k{s}_2, k{s}_3, " for s in range(16)) + ")" if dense else "None"
    lines += [f"        return {_ACCEPTED}, {15 if dense else 12}, err, q_max, y_new, inv1, k12, {ks}"]
    return "\n".join(lines + ["    return attempt"])


@cache
def _kernels(flow, dense):
    """The attempt kernel factory ``make`` of the flow row ``flow`` (a
    :class:`_Flow`), with or without the dense stages (see :func:`_kernel`).
    Compiled on the flow's first integration, not at import (milliseconds)."""
    names = dict(flow.names, isfinite=math.isfinite, sqrt=math.sqrt)
    return _source(_kernel(flow, dense), "<dop853 kernel>", **names)["make"]


def _integrate_adaptive(rhs, state0, t_end, tol, kappa, invariants, names, dense, flow=_CALL_FLOW, lead=()):
    """DOP853 driver on 4-component float tuples over [0, t_end] on curvature
    ``kappa``.  It refuses a state off the open chart, a ``tol`` outside
    ``TOL_RANGE`` and a span that is not positive and finite, in that order.
    Each attempt is one call of the :func:`_kernels` kernel of the row ``flow``,
    its parameters given ``lead``; the driver books it.

    ``tol`` is a trajectory-accuracy target, not a per-step bound: the
    controller holds each local error an order of magnitude below it so
    that drift accumulated over thousands of steps stays near ``tol``
    instead of ``steps * tol``.

    ``invariants`` maps a state tuple to a tuple of conserved values,
    recorded for every accepted state; a step that moves any of the first
    ``flow.watched`` of them by more than 10x the tolerance (relative), or
    makes one non-finite, is rejected and retried at half the step, which
    keeps isolated spikes near close approaches out of the output.  The next step
    scales by the lesser of 0.9 err**(-1/8) and Gustafsson's 0.9 (h/h_acc) (err_acc/err**2)**(1/8),
    h_acc and err_acc = max(1e-2, err) of the last accepted step, by at most 5x, not at all right
    after a rejection, nor past 0.9 q**(-1/9), q the largest watched change over that threshold (h**9).
    An integral that is not finite, at the start or (one the guard does not
    watch) at any accepted state, raises NumericalError; ``names`` name them.

    A run reaches the centre, the ``collision`` event, in one of two ways:
    at an accepted state at or below ``COLLISION_RADIUS``, at its own time;
    or, for a start on a radial line (v_phi == 0.0) of a row with a fall
    law, at its first accepted state below ``_FALL_RADIUS`` that is not
    rising, or at an underflow while not rising, with ``event_time`` that
    state's time plus the law's time to the centre, provided that the sum
    is at most ``t_end``.  Every other step-size underflow raises
    StiffnessError: the steps cannot show whether a fall turns before the
    centre.
    """
    check_interior_radius(kappa, state0.r)
    check_tol(tol)
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise DomainError(f"t_end must be positive and finite, got {t_end!r}")
    rtol = _DRIFT_MARGIN * tol
    t = 0.0
    y = tuple(map(float, (state0.r, state0.phi, state0.v_r, state0.v_phi)))
    r_max = _chart_limit(kappa)  # inf off the sphere: no antipode to reach
    attempt = _kernels(flow, dense)(rhs, invariants, *lead, r_max, rtol, _SPIKE_FACTOR * tol)
    # a start on a radial line of a row with a fall law stops below _FALL_RADIUS
    fall = flow.fall if y[3] == 0.0 else None
    floor = COLLISION_RADIUS if fall is None else _FALL_RADIUS

    def fall_end(t, y, inv):
        # the time in the span at which the law takes y, at t and not rising, to the centre, or None
        t_fall = t + fall(*lead, y[0], y[2], inv[0]) if fall is not None and y[2] <= 0.0 else math.inf
        return t_fall if t_fall <= t_end else None

    try:
        f = rhs(*y)
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise SingularityError(f"right-hand side failed at the initial state {y!r}: {exc}")
    inv0 = invariants(*y)
    if not all(map(math.isfinite, inv0)):
        raise NumericalError(f"first integrals {inv0!r} of the initial state {y!r} are not finite")

    times, states, invs = [0.0], [y], [inv0]
    steps_h, stages, coeffs = [], [], []
    event_time = None

    h, rhs_calls = _initial_step(rhs, y, f, t_end, rtol)
    rhs_calls += 1
    counts = [0, 0, 0, 0]  # by outcome: accepted, rejected_error, rejected_spike, rejected_stage
    steps, rejected, outcome, h_acc = 0, False, None, 0.0
    while t < t_end:
        if steps > _MAX_STEPS:
            raise StiffnessError(f"step budget exhausted after {steps} steps")
        steps += 1
        if h >= t_end - t:
            # the last step, clipped to the span: it still advances t,
            # so it is no underflow however small the span is
            h = t_end - t
        elif h < 1e-14 * (t if t > 1.0 else 1.0):  # t >= 0
            # the center is reached only by a state on a radial line that is not rising,
            # which the row's fall law takes there within the span
            event_time = fall_end(t, y, inv0)
            if event_time is not None:
                break
            # the last attempt's outcome, by its StepStats field name, says why h shrank
            last = "no attempt yet: h is the initial trial step" if outcome is None else (
                f"last attempt: {fields(StepStats)[outcome].name}")
            if y[0] < _FALL_RADIUS and y[2] < 0.0:
                last += f"; falling below r={_FALL_RADIUS:g}, the steps cannot show whether it turns before the centre"
            raise StiffnessError(f"step size underflow at t={t!r} (h={h!r}), r={y[0]!r}; {last}")

        outcome, calls, err, q_max, y_new, inv1, f_new, ks = attempt(y, f, h, inv0)
        rhs_calls += calls
        counts[outcome] += 1
        if outcome != _ACCEPTED:
            # the error estimate sets the retry's size; a spike or a bad stage halves it
            h *= max(_MIN_FACTOR, _SAFETY * err**_EXPONENT) if outcome == _ERROR else 0.5
            rejected = True
            continue
        if dense:
            steps_h.append(h)
            stages.append(ks)
            if len(stages) == _DENSE_CHUNK:
                coeffs.append(_dense_coefficients(stages))
                stages = []

        inv0 = inv1
        t_new = t + h
        times.append(t_new)
        states.append(y_new)
        invs.append(inv1)

        if y_new[0] <= floor:
            # a radial state not rising ends here if the law takes it to the centre within the span
            event_time = t_new if fall is None else fall_end(t_new, y_new, inv1)
            if event_time is not None:
                break

        # the solution's stage is the next step's first (FSAL)
        y, f, t = y_new, f_new, t_new
        fac = 1.0 if rejected else _MAX_FACTOR
        if err != 0.0:
            fac = _least(fac, _SAFETY * err**_EXPONENT)
            if h_acc and err * err > 0.0:  # the prediction divides by err**2, which may underflow
                fac = _least(fac, _SAFETY * (h / h_acc) * (err_acc / (err * err)) ** -_EXPONENT)
        if q_max > 0.0:
            fac = _least(fac, _SAFETY * q_max ** (-1.0 / 9.0))
        h_acc, err_acc, rejected = h, err if err > 1e-2 else 1e-2, False
        h *= fac

    n = len(times)
    states = np.fromiter(chain.from_iterable(states), float, 4 * n).reshape(n, 4)
    invs = np.fromiter(chain.from_iterable(invs), float, n * len(inv0)).reshape(n, -1)
    if not np.isfinite(invs).all():
        # an integral the spike guard does not watch overflowed
        row, col = np.argwhere(~np.isfinite(invs))[0].tolist()
        raise NumericalError(
            f"first integral {names[col]} of accepted state {row} (t={times[row]!r}) "
            f"is not finite: {float(invs[row, col])!r}"
        )
    hs = np.diff(times).tolist() or [0.0]
    interpolants = None
    if dense:
        interpolants = (np.array(steps_h), np.concatenate([*coeffs, _dense_coefficients(stages)], axis=1))
    stats = StepStats(*counts, rhs_calls, min(hs), max(hs))
    event = None if event_time is None else "collision"
    return Trajectory(kappa, times, states, invs, dense=interpolants, event=event, event_time=event_time, stats=stats)
