"""Curved Kepler dynamics: equations of motion and first integrals.

States are points (r, phi, v_r, v_phi) of the tangent bundle in geodesic
polar coordinates.  The Kepler potential on curvature kappa is
U(r) = -k cos_k(r)/sin_k(r); its gradient k/sin_k(r)**2 makes the flux
through geodesic circles constant, exactly like the inverse-square law
in the plane.

The flows are integrated by DOP853 (:mod:`curvedkepler.dop853`).  The
Kepler flow goes in as one row of data per ktrig regime: its kernel
writes out the right-hand side and ktrig's sin_k, cos_k text, and forms
phi, which it never reads, only for the solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .dop853 import Trajectory, _integrate_adaptive
from .effective_potential import _critical, check_coupling
from .errors import DomainError, InfeasibleError
from .geometry import PhaseState, PolarPoint, check_interior_radius, check_radius
from .ktrig import _SINCOS, _SINCOS_NAMES, _check_finite, _cos, _sin, _sincos, _source, curvature_value

FOUR_PI = 4.0 * math.pi


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


# (dr, dphi, dv_r, dv_phi) of the Kepler flow over s, c = sc(r): _kepler_rhs and its kernels compile it
_KEPLER_FLOW = "v_r, v_phi, s * c * v_phi * v_phi - k / (s * s), -2.0 * (c / s) * v_r * v_phi"
_kepler_rhs = _source(
    f"def _kepler_rhs(sc, k, r, phi, v_r, v_phi):\n    s, c = sc(r)\n    return {_KEPLER_FLOW}", "<kepler flow>"
)["_kepler_rhs"]


def _integrals(k, s, c, phi, v_r, v_phi):
    """(E, J, E_P, I3, I4) of a Kepler state, from s, c = sin_k(r), cos_k(r); E_P is
    (P1**2 + P2**2)/2 + U, as E - kappa J**2/2 cancels where E ~ kappa J**2/2."""
    cphi, sphi = math.cos(phi), math.sin(phi)
    p1, p2, j = _momenta(s, c, cphi, sphi, v_r, v_phi)
    pot = _potential(k, s, c)
    return (_kinetic(j, v_r, v_phi) + pot, j, 0.5 * (p1 * p1 + p2 * p2) + pot, p2 * j - k * cphi, p1 * j + k * sphi)


def _first_integrals(sc, k, r, phi, v_r, v_phi):
    """(E, J, E_P, I3, I4) of a Kepler state."""
    return _integrals(k, *sc(r), phi, v_r, v_phi)


# The Kepler flow's DOP853 rows (see dop853._CALL_FLOW), by ktrig regime: the
# kernel writes out the flow of coupling k and ktrig's sin_k, cos_k text, and a
# state on a radial line (J = 0) that is not rising can only fall to the centre.
_KEPLER_ROWS = {
    regime: (("kappa", "k"), ("v_r", "v_phi"), setup, text + "\nk{s}_0, k{s}_1, k{s}_2, k{s}_3 = " + _KEPLER_FLOW,
             "_integrals(k, s, c, phi, v_r, v_phi)", tuple(dict(_SINCOS_NAMES, _integrals=_integrals).items()), True)
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
    A fall that reaches the collision radius, or whose steps underflow on
    the way there (a fall below ``dop853._COLLISION_SOFT``, or a radial
    state that is not rising), truncates the trajectory and records the
    ``collision`` event instead of raising.
    """
    kappa, k = params.kappa, params.k
    sc = _sincos(kappa)
    row = _KEPLER_ROWS["flat" if kappa == 0.0 else "curved"]
    return _integrate_adaptive(  # the spike guard watches (E, J)
        partial(_kepler_rhs, sc, k), state0, t_end, tol, kappa, partial(_first_integrals, sc, k), 2, dense, row,
        (kappa, k), names=("E", "J", "E_P", "I3", "I4"),
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

    return _integrate_adaptive(rhs, state0, t_end, tol, k, inv, 3, dense, names=("E", "i1", "i2"))
