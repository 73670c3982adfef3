"""Curved Kepler dynamics: equations of motion and first integrals.

States are points (r, phi, v_r, v_phi) of the tangent bundle in geodesic
polar coordinates.  The Kepler potential on curvature kappa is
U(r) = -k cos_k(r)/sin_k(r); its gradient k/sin_k(r)**2 makes the flux
through geodesic circles constant, exactly like the inverse-square law
in the plane.

The flows are integrated by DOP853 (:mod:`curvedkepler.dop853`).  The
Kepler flow goes in as one row of data per ktrig regime: its kernel
writes out the right-hand side, ktrig's sin_k, cos_k text and the first
integrals, and forms phi, which it never reads, only for the solution.
The row also carries the closed-form fall law, which times the rest of
a fall on a radial line to the centre.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import partial
from textwrap import indent
from typing import Callable

from .dop853 import Trajectory, _Flow, _integrate_adaptive
from .effective_potential import _critical, check_coupling
from .errors import DomainError, InfeasibleError
from .geometry import PhaseState, PolarPoint, check_interior_radius, check_radius
from .ktrig import (
    _SCALARS, _SINCOS, _SINCOS_NAMES, _check_finite, _cos, _phi_pair, _sin, _sincos, _source, curvature_value,
)

FOUR_PI = 4.0 * math.pi


@dataclass(frozen=True)
class KeplerParams:
    """Curvature and coupling of the attractive Kepler problem."""

    kappa: float
    k: float

    def __post_init__(self):
        object.__setattr__(self, "kappa", curvature_value(self.kappa))
        object.__setattr__(self, "k", check_coupling(self.k))


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

# The first integrals as source, over s, c = sin_k(r), cos_k(r) and cphi,
# sphi = cos, sin of phi: the momenta (P1, P2, J); U = -k c/s in cotangent form,
# so the equator (kappa > 0) is an ordinary zero instead of a tangent pole, and 0
# where c is below 1e-15 (r within a couple of ulps of the equator, where the
# true cotangent is below double resolution); T = (v_r**2 + J v_phi)/2; and
# (E, J, E_P, I3, I4) as inv1, where E_P is (P1**2 + P2**2)/2 + U, as
# E - kappa J**2/2 cancels where E ~ kappa J**2/2.
_MOMENTA = "cphi * v_r - sphi * (csv := c * s * v_phi), sphi * v_r + cphi * csv, s * s * v_phi"
_POTENTIAL = "0.0 if abs(c) < 1e-15 else -k * c / s"
_KINETIC = "0.5 * (v_r * v_r + j * v_phi)"
_INTEGRALS = (
    f"cphi, sphi = mcos(phi), msin(phi)\np1, p2, j = {_MOMENTA}\npot = {_POTENTIAL}\n"
    f"inv1 = ({_KINETIC} + pot, j, 0.5 * (p1 * p1 + p2 * p2) + pot, p2 * j - k * cphi, p1 * j + k * sphi)"
)
# (dr, dphi, dv_r, dv_phi) of the Kepler flow over s, c = sc(r)
_KEPLER_FLOW = "v_r, v_phi, s * c * v_phi * v_phi - k / (s * s), -2.0 * (c / s) * v_r * v_phi"
# the functions of these texts; the Kepler flow's kernels write them out
_formulas = _source(
    f"""def _momenta(s, c, cphi, sphi, v_r, v_phi):
    return {_MOMENTA}
def _potential(k, s, c):
    return {_POTENTIAL}
def _kinetic(j, v_r, v_phi):
    return {_KINETIC}
def _integrals(k, s, c, phi, v_r, v_phi):
{indent(_INTEGRALS, "    ")}
    return inv1
def _kepler_rhs(sc, k, r, phi, v_r, v_phi):
    s, c = sc(r)
    return {_KEPLER_FLOW}""",
    "<kepler formulas>",
    **_SINCOS_NAMES,
)
_momenta, _potential, _kinetic, _integrals, _kepler_rhs = (
    _formulas[name] for name in ("_momenta", "_potential", "_kinetic", "_integrals", "_kepler_rhs")
)


def _first_integrals(sc, k, r, phi, v_r, v_phi):
    """(E, J, E_P, I3, I4) of a Kepler state."""
    return _integrals(k, *sc(r), phi, v_r, v_phi)


def _fall_time(kappa: float, k: float, r: float, v_r: float, e: float) -> float:
    """Time a state on a radial line (J = 0) at radius r, with v_r <= 0 and
    energy e, takes to reach the centre.

    With w = |v_r| and u = cot_k(r), w**2/2 = e + k u and du/dr = -(u**2 + kappa),
    so dt = 4k dw/((w**2 - 2e)**2 + 4k**2 kappa).  Its partial fractions
    1/(w**2 + c), c = -2e -/+ 2k sqrt(-kappa), integrate from w to infinity to
    phi(y)/w with y = c/w**2 (phi as in ``ktrig._phi_pair``), and

        T = -(4k/w**3) (phi(y_A) - phi(y_B))/(y_A - y_B),

    with 1 + y_A,B = 2k (u -/+ sqrt(-kappa))/w**2 and the gap -4k sqrt(-kappa)/w**2
    exact; at kappa = 0 the two points coincide.  From rest it is
    T = 2 pi k/(a b (a + b)), a, b = sqrt(2k (u -/+ sqrt(-kappa))), complex
    conjugates on the sphere; that form is taken wherever w/|a|, the size of
    the next term, is below rounding.
    """
    s, c = _sincos(kappa)(r)
    u = c / s
    root = cmath.sqrt(-kappa)
    lift_a, lift_b = 2.0 * k * (u - root), 2.0 * k * (u + root)
    w2 = v_r * v_r
    if w2 <= 1e-32 * abs(lift_a):
        a, b = cmath.sqrt(lift_a), cmath.sqrt(lift_b)
        return (2.0 * math.pi * k / (a * b * (a + b))).real
    y_a, y_b = -(2.0 * e + 2.0 * k * root) / w2, -(2.0 * e - 2.0 * k * root) / w2
    _, diff = _phi_pair(_SCALARS, y_a, lift_a / w2, y_b, lift_b / w2, -4.0 * k * root / w2)
    return 4.0 * k / (w2 * v_r) * diff.real


# The Kepler flow's DOP853 rows, by ktrig regime: the kernel writes out the flow
# of coupling k, ktrig's sin_k, cos_k text and the integrals, of which the spike
# guard watches (E, J); a state on a radial line (J = 0) that is not rising falls
# to the centre in the time _fall_time gives it.
_KEPLER_ROWS = {
    regime: _Flow(
        ("kappa", "k"), ("v_r", "v_phi"), setup, text + "\nk{s}_0, k{s}_1, k{s}_2, k{s}_3 = " + _KEPLER_FLOW,
        _INTEGRALS, tuple(_SINCOS_NAMES.items()),
        _fall_time, 2,
    )
    for regime, (setup, text) in _SINCOS.items()
}


def _state_integrals(kappa: float, k: float, state: PhaseState):
    r = check_interior_radius(kappa, state.r)
    return _first_integrals(_sincos(kappa), k, r, state.phi, state.v_r, state.v_phi)


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


def runge_lenz(state: PhaseState, params: KeplerParams):
    """The two Runge-Lenz-type integrals (i3, i4) of the curved Kepler flow."""
    return _state_integrals(params.kappa, params.k, state)[3:]


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
        the phase: the error in phi grows linearly in time and with tol
        (after ten radial periods at k = 1, J = 0.8: 1.9e-7 rad at tol
        1e-12 on kappa = -1, E = -1.001, near the horoellipse; at most
        8.2e-9 rad at tol 1e-11 on kappa = 1, 0 at E = -0.3 and on
        kappa = -1 at E = -1.05).  For an exact phase use
        ``orbit.propagate`` or ``orbit.phi_from_time``.
    dense : bool
        Keep the per-step interpolant so the result supports
        :meth:`Trajectory.state_at` and event queries.  Costs three more
        right-hand-side evaluations per accepted step and memory on long
        runs; endpoint data is always kept.

    ``Trajectory.invariants`` keeps the (E, J, E_P, I3, I4) the spike guard
    evaluated at each state (:func:`integrate_separable` keeps (E, i1,
    i2)); non-finite ones at any accepted state raise :class:`NumericalError`.
    ``Trajectory.stats`` counts the accepted and rejected steps and the
    right-hand-side evaluations.
    A fall that reaches the collision radius truncates the trajectory and
    records the ``collision`` event instead of raising.
    A start on a radial line (v_phi == 0, so J = 0) is not integrated into
    the centre: it stops at its first accepted state below
    ``dop853._COLLISION_SOFT`` that is not rising, or where its steps
    underflow while it is not rising, and ``Trajectory.event_time`` is that
    state's time plus the closed-form fall law's time from it to r = 0,
    later than the last row's.  A fall that the law takes to r = 0 only
    after ``t_end`` integrates on to ``t_end``.  Off the radial line the
    orbit turns at a periastron: an underflow raises :class:`StiffnessError`,
    even if the periastron lies inside the collision radius.
    """
    kappa, k = params.kappa, params.k
    sc = _sincos(kappa)
    row = _KEPLER_ROWS["flat" if kappa == 0.0 else "curved"]
    return _integrate_adaptive(
        partial(_kepler_rhs, sc, k), state0, t_end, tol, kappa, partial(_first_integrals, sc, k),
        ("E", "J", "E_P", "I3", "I4"), dense, row, (kappa, k),
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

    return _integrate_adaptive(rhs, state0, t_end, tol, k, inv, ("E", "i1", "i2"), dense)
