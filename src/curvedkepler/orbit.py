"""Closed-form Kepler orbits and time parametrization.

In the cotangent variable u = cos_k(r)/sin_k(r) every non-radial Kepler
orbit is the conic

    u(phi) = (k/j**2) * (1 + ecc * cos(phi - phi0)),

a harmonic oscillation around k/j**2 (the curved Binet equation is the
flat one verbatim).  Time enters through the sweep law
dphi/dt = j * (u**2 + kappa): in the anomaly phi - phi0 its integral is
elementary, which gives the travel time between two u values in closed
form, and ``propagate`` and ``phi_from_time`` invert it for the state
at any time.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .conics import _escape_side, _radius_at
from .dynamics import ConservedSet, KeplerParams, PhaseState, Trajectory
from .errors import CurvedKeplerError, DomainError, RadialOrbitError
from .ktrig import _acot_array, _check_finite, _cot_floor, curvature_value

#: eccentricities below this are treated as exactly circular
CIRCULAR_ECC = 1e-13

#: |y| up to which the closed-form time law sums the series of phi(y)
_PHI_SERIES_Y = 0.03

#: Taylor coefficients (-1)**n / (2n + 1) of phi(y) = atan(sqrt(y))/sqrt(y);
#: at _PHI_SERIES_Y the first term left out is below 1e-18
_PHI_COEFFS = tuple((-1) ** n / (2 * n + 1) for n in range(13))


@dataclass(frozen=True)
class OrbitConstants:
    """Geometric constants of one non-radial Kepler orbit.

    ``d`` = j**2/k sets the size scale (tan_k of the semi-latus radius),
    ``ecc`` the shape, ``phi0`` the periastron direction, and
    ``z`` = 2 j**2 e_p / k**2 the energy in conic units (ecc**2 = 1 + z)
    and ``kappa`` the curvature it was built on.  The orbit functions
    compute with that curvature; the kappa they are passed must equal it
    (DomainError names both otherwise); the time functions read its one
    time law, ``_law``, built with it (``_time_law``).
    """

    conserved: ConservedSet
    d: float
    ecc: float
    phi0: float
    z: float
    kappa: float

    @property
    def u_periastron(self) -> float:
        return (1.0 + self.ecc) / self.d

    @property
    def u_apoastron(self) -> float:
        """Cotangent at the outer turning point (may lie beyond the
        reachable range for open orbits)."""
        return (1.0 - self.ecc) / self.d

    def __post_init__(self):
        object.__setattr__(self, "_law", _time_law(self))


def orbit_constants(state0: PhaseState, params: KeplerParams) -> OrbitConstants:
    """Conic constants of the orbit through state0.

    The periastron angle comes from the two Runge-Lenz components,
    phi0 = atan2(-i4, i3), which keeps the branch unambiguous for every
    orientation; the eccentricity is their norm over k, which stays
    accurate down to exactly circular data.
    """
    c = ConservedSet.from_state(state0, params)
    if c.j == 0.0:
        raise RadialOrbitError(
            "radial orbit: no conic constants; integrate it directly"
        )
    k = params.k
    d = c.j * c.j / k
    z = 2.0 * c.e_p * c.j * c.j / (k * k)
    ecc = math.hypot(c.i3, c.i4) / k
    if _circle(ecc):
        return OrbitConstants(conserved=c, d=d, ecc=0.0, phi0=0.0, z=z, kappa=params.kappa)
    phi0 = math.atan2(-c.i4, c.i3)
    return OrbitConstants(conserved=c, d=d, ecc=ecc, phi0=phi0, z=z, kappa=params.kappa)


def _circle(ecc: float) -> bool:
    """Whether an orbit of this eccentricity is treated as exactly circular."""
    return ecc < CIRCULAR_ECC


def _orbit_kappa(oc: OrbitConstants, kap: float) -> float:
    """The orbit's curvature, once the checked kap is found to be it."""
    if kap != oc.kappa:
        raise DomainError(f"kappa={kap!r} is not the curvature {oc.kappa!r} of the orbit")
    return oc.kappa


def u_closed(oc: OrbitConstants, phi) -> float | np.ndarray:
    """Closed-form cotangent profile u(phi) of the orbit."""
    phi = np.asarray(phi, dtype=float)
    if not np.isfinite(phi).all():
        raise DomainError(f"polar angle must be finite, got {float(phi[~np.isfinite(phi)][0])!r}")
    out = (1.0 + oc.ecc * np.cos(phi - oc.phi0)) / oc.d
    return float(out) if np.ndim(phi) == 0 else out


def orbit_radius(oc: OrbitConstants, kappa, phi: float) -> float | None:
    """Radius of the orbit at polar angle phi, or None past an asymptote.

    Solves tan_k(r) = d / (1 + ecc cos(phi - phi0)).  On the sphere the
    inverse cotangent is continuous through the equator, so orbits that
    dip into the far hemisphere come out with r > pi/(2 sqrt(kappa));
    on the plane and the hyperbolic plane angles where the conic has
    run off to (or past) infinity yield None.
    """
    return _radius_at(_orbit_kappa(oc, curvature_value(kappa)), oc.d, oc.ecc, _check_finite(phi) - oc.phi0)


def binet_residual(oc: OrbitConstants, kappa, phi: float) -> float:
    """d2u/dphi2 + u - k/j**2 for the closed form, by exact differentiation."""
    _orbit_kappa(oc, curvature_value(kappa))
    dphi = _check_finite(phi) - oc.phi0
    d2u = -(oc.ecc / oc.d) * math.cos(dphi)
    u = (1.0 + oc.ecc * math.cos(dphi)) / oc.d
    return d2u + u - 1.0 / oc.d


# The time law is written once and evaluated through one of two math
# namespaces: Python complex scalars for time_from_u and radial_period,
# numpy complex arrays for propagate.  A choice between two formulas is
# an ``if`` on scalars and a mask on arrays.
_SCALARS = SimpleNamespace(sqrt=cmath.sqrt, log=cmath.log, tan=math.tan)
_ARRAYS = SimpleNamespace(sqrt=np.sqrt, log=np.log, tan=np.tan)


def _phi(xp, z, v):
    """phi = atan(z)/z (1 at z = 0) for complex z off the cuts, given v = 1 + z**2.

    Near z**2 = -1 atan(z) is i log(1 - iz) - (i/2) log(v) (or the mirror
    form for Im z < 0): the first logarithm's argument has modulus >= 1,
    so v carries all the cancellation and can be supplied exactly.
    """
    if xp is _SCALARS:
        if abs(v) <= 0.5:
            return _atan_near(xp, z, v) / z
        return cmath.atan(z) / z if z else 1.0
    flat = z == 0.0
    safe = np.where(flat, 1.0, z)
    out = np.where(flat, 1.0, np.arctan(safe) / safe)
    near = np.abs(v) <= 0.5
    if near.any():
        out[near] = _atan_near(xp, z[near], v[near]) / z[near]
    return out


def _atan_near(xp, z, v):
    sign = 2.0 * (z.imag >= 0.0) - 1.0
    return sign * 1j * (xp.log(1.0 - sign * 1j * z) - 0.5 * xp.log(v))


def _phi_pair(xp, y1, v1, y2, v2, gap):
    """Mean and divided difference of phi over the pair (y1, y2).

    phi(y) = atan(sqrt(y))/sqrt(y) = integral_0^1 dw / (1 + y w**2) is
    analytic off the cut (-inf, -1]; v = 1 + y is passed separately
    because y -> -1 is where the orbit meets an asymptote, and so is the
    gap y1 - y2, which the caller has without cancellation.  The pair is
    real or complex conjugate, and both results come back as complex
    numbers whose real parts are wanted.  Three routes keep them free
    of cancellation:

    * both |y| <= ``_PHI_SERIES_Y``: the power series of phi, through the
      power sums of the pair, so y1 - y2 never divides a difference;
    * a close pair away from 0 and -1: atan(z1) - atan(z2) =
      atan((z1 - z2)/(1 + z1 z2)) with z = sqrt(y) taken on a common side;
    * otherwise the plain difference quotient, which loses at most a
      factor of about 1/_PHI_SERIES_Y to rounding.

    On arrays each route runs on its own elements only.
    """
    if xp is _SCALARS and abs(y1) <= _PHI_SERIES_Y and abs(y2) <= _PHI_SERIES_Y:
        return _pair_series(y1, y2)
    mid = 0.5 * (y1 + y2).real
    reach = 2.0 * abs(gap)
    close = (reach <= abs(mid)) & (reach < 1.0 + mid)
    if xp is _SCALARS:
        return (_pair_close if close else _pair_plain)(xp, y1, v1, y2, v2, gap)
    series = (abs(y1) <= _PHI_SERIES_Y) & (abs(y2) <= _PHI_SERIES_Y)
    mean, diff = np.empty_like(y1), np.empty_like(y1)
    if series.any():
        mean[series], diff[series] = _pair_series(y1[series], y2[series])
    for take, route in ((~series & close, _pair_close), (~(series | close), _pair_plain)):
        if take.any():
            mean[take], diff[take] = route(xp, y1[take], v1[take], y2[take], v2[take], gap[take])
    return mean, diff


def _pair_series(y1, y2):
    # (y1**n + y2**n)/2 and (y1**n - y2**n)/(y1 - y2) obey the same
    # three-term recurrence in the pair's sum and product
    total, prod = (y1 + y2).real, (y1 * y2).real
    pow0, pow1, div0, div1 = 1.0, 0.5 * total, 0.0, 1.0
    mean = _PHI_COEFFS[0] + _PHI_COEFFS[1] * pow1
    diff = _PHI_COEFFS[1]
    for c in _PHI_COEFFS[2:]:
        pow0, pow1 = pow1, total * pow1 - prod * pow0
        div0, div1 = div1, total * div1 - prod * div0
        mean += c * pow1
        diff += c * div1
    return mean, diff


def _pair_close(xp, y1, v1, y2, v2, gap):
    # y2/y1 = 1 - gap/y1 is close to 1, so z2 = z1 sqrt(y2/y1) is on z1's side
    z1 = xp.sqrt(y1)
    root = xp.sqrt(1.0 - gap / y1)
    z2 = z1 * root
    # w = 1 + z1 z2 = v1 - gap/(1 + root), with no cancellation as z1 z2 -> -1
    w = v1 - gap / (1.0 + root)
    phi1, phi2 = _phi(xp, z1, v1), _phi(xp, z2, v2)
    total = z1 + z2
    # atan(z1) - atan(z2) = atan(delta) with delta = (z1 - z2)/w
    delta = gap / (total * w)
    ratio = _phi(xp, delta, 1.0 + delta * delta)
    return 0.5 * (phi1 + phi2), (ratio / w - phi2) / (total * z1)


def _pair_plain(xp, y1, v1, y2, v2, gap):
    z1, z2 = xp.sqrt(y1), xp.sqrt(y2)
    phi1, phi2 = _phi(xp, z1, v1), _phi(xp, z2, v2)
    return 0.5 * (phi1 + phi2), (phi1 - phi2) / gap


class _Frame(NamedTuple):
    """Constants of the time law in the frame whose theta = 0 is the apsis
    u = (1 + ecc)/d; a negative ecc counts from the apoastron.

    p, q = 1 +/- ecc, root = sqrt(-kappa), a = d root, below, above =
    p -/+ a, r = below above, c_sq = (q -/+ a)/(p -/+ a) and their
    difference spread = c1_sq - c2_sq = -4 a ecc/r.
    """

    ecc: float
    p: float
    q: float
    root: complex
    a: complex
    below: complex
    above: complex
    r: float
    c1_sq: complex
    c2_sq: complex
    spread: complex


def _frame(ecc: float, d: float, kap: float) -> _Frame:
    p, q, root = 1.0 + ecc, 1.0 - ecc, cmath.sqrt(-kap)
    a = d * root
    below, above = p - a, p + a
    r = (below * above).real
    fields = (ecc, p, q, root, a, below, above, r, (q - a) / below, (q + a) / above, a * (-4.0 * ecc / r))
    # tuple.__new__ skips the Python-level __new__ of the named tuple
    return tuple.__new__(_Frame, fields)


def _g(xp, fr, tau, tau2, v1, v2):
    """G(theta) = integral_0^theta dtheta' / ((1 + ecc cos theta')**2 + kappa d**2)
    from tau = tan(theta/2), its square and the lifts v_A = 1 + y_A.

    With a = d sqrt(-kappa) (imaginary on the sphere) the integrand splits
    into 1/(X - a) and 1/(X + a), X = 1 + ecc cos theta', and

        integral_0^theta dtheta' / (A + ecc cos theta') = 2 tau phi(y_A) / (A + ecc)

    for A = 1 -/+ a, with y_A = tau**2 (A - ecc)/(A + ecc) (phi as in
    ``_phi_pair``).  Grouping the two phi terms by their mean and divided
    difference gives

        G = (2 tau/R) (mean - (2 ecc p tau**2/R) diff),  R = (p - a)(p + a),

    with p = 1 + ecc: neither 1/a (the flat limit) nor 1/(1 - ecc) (the
    parabola) is left to cancel.  1 + y_A = (1 + tau**2)(X -/+ a)/(A + ecc)
    is supplied by the caller, from u or from tau without cancellation.
    """
    r = fr.r
    mean, diff = _phi_pair(xp, tau2 * fr.c1_sq, v1, tau2 * fr.c2_sq, v2, tau2 * fr.spread)
    return 2.0 * tau / r * (mean - 2.0 * fr.ecc * fr.p * tau2 / r * diff).real


def _g_apo(fr) -> float:
    """G(pi), the time from the apsis to the opposite one.

    With c_A**2 = (A - ecc)/(A + ecc),
    G(pi) = pi ((c1 + c2)**2 + 4 ecc p/R) / (2 R c1 c2 (c1 + c2)).
    """
    r = fr.r
    c1, c2 = cmath.sqrt(fr.c1_sq), cmath.sqrt(fr.c2_sq)
    c_sum, c_prod = (c1 + c2).real, (c1 * c2).real
    return math.pi * (c_sum * c_sum + 4.0 * fr.ecc * fr.p / r) / (2.0 * r * c_prod * c_sum)


class _TimeLaw(NamedTuple):
    """An orbit's time law (``OrbitConstants._law``): whether ecc < CIRCULAR_ECC
    makes it a circle, u_apo > _cot_floor(kappa) periodic and the periastron
    frame of G real-valued, the frames of G from the periastron and the
    apoastron, and G(pi) in the latter, the one half period all readers take."""

    circle: bool
    periodic: bool
    real: bool
    per: _Frame
    apo: _Frame | None
    half: float


def _time_law(oc: OrbitConstants) -> _TimeLaw:
    kap, d, ecc = oc.kappa, oc.d, oc.ecc
    per = _frame(ecc, d, kap)
    circle, periodic = _circle(ecc), oc.u_apoastron > _cot_floor(kap)
    # both partial fractions real with y_A >= 0: _anomaly's arrays can stay real
    real = kap <= 0.0 and per.c1_sq.real >= 0.0 and per.c2_sq.real >= 0.0
    # a circle sweeps uniformly and an open orbit never turns: neither needs the apoastron
    apo = None if circle or not periodic else _frame(-ecc, d, kap)
    fields = (circle, periodic, real, per, apo, math.nan if apo is None else _g_apo(apo))
    # tuple.__new__ skips the Python-level __new__ of the named tuple
    return tuple.__new__(_TimeLaw, fields)


def _g_u(fr, half: float, u_per: float, u_apo: float, u: float) -> float:
    """``_g`` at the anomaly theta in [0, pi] of u on u = (1 + ecc cos theta)/d:
    0 at u_per and the orbit's G(pi), ``half``, at u_apo.

    theta is counted from u_per = (1 + ecc)/d towards u_apo = (1 - ecc)/d;
    a negative ecc swaps the two, so theta runs from the apoastron.
    tau**2 = (u_per - u)/(u - u_apo) and
    1 + y_A = 2 ecc (u -/+ sqrt(-kappa)) / ((A + ecc)(u - u_apo)) come
    from u without cancellation.
    """
    if u == u_per:
        return 0.0
    if u == u_apo:
        return half
    tau2 = (u_per - u) / (u - u_apo)
    lift = 2.0 * fr.ecc / (u - u_apo)
    v1, v2 = lift * (u - fr.root) / fr.below, lift * (u + fr.root) / fr.above
    return _g(_SCALARS, fr, math.sqrt(tau2), tau2, v1, v2)


def _g_theta(xp, fr, theta):
    """``_g`` at the anomaly theta, 0 <= theta <= pi, and short of the
    asymptote on an open orbit (every element of an array theta).

    1 + y_A = (2 ecc + (A - ecc)(1 + tau**2))/(A + ecc) needs no cos theta,
    so it stays exact where 1 + ecc cos theta would cancel at theta = pi.
    """
    ecc, q, a = fr.ecc, fr.q, fr.a
    tau = xp.tan(0.5 * theta)
    tau2 = tau * tau
    lift = 1.0 + tau2
    v1, v2 = (2.0 * ecc + (q - a) * lift) / fr.below, (2.0 * ecc + (q + a) * lift) / fr.above
    return _g(xp, fr, tau, tau2, v1, v2)


def _leg(fr, u_per: float, u_apo: float, u_far: float, u_near: float) -> float:
    """G(theta_far) - G(theta_near) in one piece (``_g_u``'s notation).

    With t = tan(theta/2), the arctangent difference of each partial
    fraction is again one arctangent:

        integral_near^far dtheta / (A + ecc cos theta) = 2 dt phi(Y_A) / L_A,
        L_A = (A + ecc) + (A - ecc) t_far t_near,
        Y_A = (A**2 - ecc**2) dt**2 / L_A**2,

    dt = t_far - t_near, and the grouping of ``_g`` becomes

        (2 dt / (L1 L2)) (P mean - diff dt**2 K (L1 + L2) / (2 L1**2 L2**2)),
        K = ecc M (A1 L2 + A2 L1) + ecc**2 P (L1 + L2),

    P, M = 1 +/- t_far t_near, which is ``_g``'s formula at t_near = 0.
    dt comes from u_near - u_far, 1 + Y_A = (A + ecc)**2 (1 + y_far)(1 + y_near)/L_A**2
    from the exact lifts, and L_A, where its two terms cancel (next to an
    asymptote or the equator), from L_A**2 = (A + ecc)**2 (1 + y_far)(1 + y_near)
    - (A**2 - ecc**2) dt**2.
    """
    ecc, p, q, root, a = fr.ecc, fr.p, fr.q, fr.root, fr.a
    t_far = math.sqrt((u_per - u_far) / (u_far - u_apo))
    t_near = math.sqrt((u_per - u_near) / (u_near - u_apo))
    dt = (u_near - u_far) * (u_per - u_apo) / ((u_far - u_apo) * (u_near - u_apo) * (t_far + t_near))
    prod = t_far * t_near
    ls, ys, vs = [], [], []
    for sign in (-1.0, 1.0):
        plus, minus = p + sign * a, q + sign * a  # A + ecc, A - ecc
        v_far = 2.0 * ecc * (u_far + sign * root) / (plus * (u_far - u_apo))
        v_near = 2.0 * ecc * (u_near + sign * root) / (plus * (u_near - u_apo))
        direct = plus + minus * prod
        if abs(direct) >= 0.5 * (abs(plus) + abs(minus) * prod):
            ell = direct
        else:
            ell = cmath.sqrt(plus * plus * v_far * v_near - plus * minus * dt * dt)
            if (ell * direct.conjugate()).real < 0.0:
                ell = -ell
        ls.append(ell)
        ys.append(plus * minus * dt * dt / (ell * ell))
        vs.append(plus * plus * v_far * v_near / (ell * ell))
    l1, l2 = ls
    lsum = l1 + l2
    (y1, y2), (v1, v2) = ys, vs
    # near -1 the gap y1 - y2 is exact only from the v side
    gap = y1 - y2 if (y1 + y2).real > -1.0 else v1 - v2
    mean, diff = _phi_pair(_SCALARS, y1, v1, y2, v2, gap)
    big, small = 1.0 + prod, 1.0 - prod
    k = ecc * small * ((1.0 - a) * l2 + (1.0 + a) * l1) + ecc * ecc * big * lsum
    l12 = l1 * l2
    return (2.0 * dt / l12 * (big * mean - diff * dt * dt * k * lsum / (2.0 * l12 * l12))).real


def time_from_u(oc: OrbitConstants, kappa, u_start: float, u_end: float) -> float:
    """Radial travel time between two cotangent values (one monotone leg).

    With theta = phi - phi0 the orbit is u = (1 + ecc cos theta)/d, and
    the sweep law dphi/dt = j (u**2 + kappa) makes the time from
    periastron (d**2/|j|) G(theta), with G in closed form (``_g``).
    A leg is the difference of G at its ends, counted from the apsis on
    its side, or one closed-form piece (``_leg``) when it is short
    against that.  Returns the positive elapsed time.
    """
    kap = _orbit_kappa(oc, curvature_value(kappa))
    if not (math.isfinite(u_start) and math.isfinite(u_end)):
        raise DomainError(f"need finite u values, got {u_start!r}, {u_end!r}")
    if u_start == u_end:
        return 0.0
    j = abs(oc.conserved.j)
    u_per, u_apo, asym = oc.u_periastron, oc.u_apoastron, _cot_floor(kap)
    law = oc._law
    if law.circle:
        raise DomainError("circular orbit: u does not move")

    a, b = sorted((u_start, u_end))
    pad = 1e-12 * max(1.0, abs(u_per), abs(u_apo))
    if b > u_per + pad or a < u_apo - pad:
        raise DomainError(
            f"[{a!r}, {b!r}] leaves the radial range "
            f"[{u_apo!r}, {u_per!r}] of this orbit"
        )
    a, b = max(a, u_apo), min(b, u_per)
    if a <= asym:
        raise DomainError(
            f"u={a!r} is at or beyond the infinity asymptote {asym!r}"
        )
    # count from the apsis on the leg's side; on a sphere orbit that
    # crosses the equator, from the apoastron only past the equator, so
    # that neither term holds the steep rise of the crossing
    if a == u_apo:
        from_apo = True
    elif kap > 0.0 and oc.ecc > 1.0:
        from_apo = b < 0.0
    else:
        from_apo = law.periodic and a + b < u_per + u_apo
    if from_apo:
        fr, start, stop, far, near = law.apo, u_apo, u_per, b, a
    else:
        fr, start, stop, far, near = law.per, u_per, u_apo, a, b
    g_far = _g_u(fr, law.half, start, stop, far)
    g_near = _g_u(fr, law.half, start, stop, near)
    # a leg short against its distance from the apsis would cancel in
    # the difference (here by at most a factor of 19): take it in one piece
    g = g_far - g_near if g_near <= 0.9 * g_far else _leg(fr, start, stop, far, near)
    return oc.d * oc.d / j * g


def radial_period(oc: OrbitConstants, kappa) -> float:
    """Full radial period of an orbit classify_orbit bounds: 2 G(pi) d**2/|j|, twice
    time_from_u's apo-to-per leg bit for bit and the period propagate reduces by."""
    kap = _orbit_kappa(oc, curvature_value(kappa))
    law = oc._law
    if law.circle:
        raise DomainError("circular orbit: radius does not oscillate")
    # the class's escape test; _anomaly, propagate and time_from_u compute the
    # motion of this ecc, and test u_apo > _cot_floor exactly
    if kap <= 0.0 and _escape_side(kap, oc.d, oc.ecc):
        raise DomainError(f"orbit is not radially bounded (ecc {oc.ecc!r}): no radial period")
    return 2.0 * (oc.d * oc.d / abs(oc.conserved.j) * law.half)


#: nodes of the table that seeds the inverse of G on a bounded orbit, at
#: even steps of theta
_TABLE_NODES = 129

#: an open orbit's table reaches theta_inf (1 - 2**-_OPEN_REACH); closer
#: to the asymptote double precision no longer tells theta from theta_inf
_OPEN_REACH = 45

#: propagate refuses a radius whose cotangent u - sqrt(-kappa) would move
#: by more than this share of itself under one rounding of theta
_U_RTOL = 1e-8

#: Newton or bisection steps after which the inverse of G gives up
_MAX_STEPS = 100

#: half an ulp of 1.0, the relative error the inverse of G stops at
_HALF_ULP = 2.0**-53

#: 4-point Gauss-Legendre rule on [-1, 1], numpy.polynomial.legendre.leggauss(4)
_GAUSS_NODES = np.array((-0.8611363115940526, -0.33998104358485626, 0.33998104358485626, 0.8611363115940526))
_GAUSS_WEIGHTS = np.array((0.34785484513745357, 0.6521451548625464, 0.6521451548625464, 0.34785484513745357))

#: ulps of G at its upper end within which the rule over a whole table
#: interval must reproduce the closed-form difference for the interval to
#: be certified; the closed form's own rounding takes up to about 50
_CERTIFY_ULPS = 64


def _half_angle(theta):
    """tau = tan(theta/2) and w = 1 + cos theta = 2/(1 + tau**2); sin theta = tau w.

    numpy's tan is several times cheaper than its cos and sin.  ecc w =
    X - (1 - ecc) for X = 1 + ecc cos theta: added to 1 - ecc - a, it
    gives X - a with no cancellation at theta = pi.
    """
    tau = np.tan(0.5 * theta)
    return tau, 2.0 / (1.0 + tau * tau)


def _hermite(nodes, table, slopes, target):
    """Cubic Hermite interpolant of theta(G) through the table, at each
    target, and the index of the table interval holding it."""
    i = np.clip(np.searchsorted(table, target, "right") - 1, 0, len(table) - 2)
    lo, hi = nodes[i], nodes[i + 1]
    width = table[i + 1] - table[i]
    x = (target - table[i]) / width
    x2 = x * x
    seed = (
        lo * (1.0 + x2 * (2.0 * x - 3.0))
        + hi * x2 * (3.0 - 2.0 * x)
        + width * x * (1.0 - x) * ((1.0 - x) / slopes[i] - x / slopes[i + 1])
    )
    return np.clip(seed, lo, hi), i


def _gauss(rate, start, stop):
    """integral_start^stop G' dtheta by the 4-point Gauss-Legendre rule,
    elementwise, for G' = rate(1 + cos theta)."""
    half = 0.5 * (stop - start)
    # one row per node, so that every array operation runs along the queries
    return half * (_GAUSS_WEIGHTS @ rate(_half_angle(_GAUSS_NODES[:, None] * half + (start + half))[1]))


def _certify(rate, nodes, table):
    """Table intervals on which ``_gauss`` reproduces the closed-form
    difference of G to ``_CERTIFY_ULPS``; a non-finite one is not."""
    miss = np.abs(_gauss(rate, nodes[:-1], nodes[1:]) - np.diff(table))
    return miss <= _CERTIFY_ULPS * np.spacing(table[1:])


def _anomaly(oc: OrbitConstants, s: np.ndarray):
    """Anomaly theta + 2 pi turns = phi - phi0 where G = s, for an array s.

    s is the time since the periastron passage in units of d**2/j, so it
    carries the sense of rotation and theta follows its sign.  On a
    bounded orbit G grows by 2 G(pi) per turn, so s is first reduced to
    [-G(pi), G(pi)], by the G(pi) that radial_period doubles and that
    ends the table, and theta lies in [-pi, pi]; an open orbit has
    |theta| < theta_inf, where 1 + ecc cos theta_inf = d sqrt(-kappa).
    Beyond the table's last node, theta_inf (1 - 2**-_OPEN_REACH) or
    the last one at which the closed form is finite, theta is held
    there: it is then within rounding of its limit.

    |s| is inverted on one table of exact G, at nodes evenly spaced in
    theta on a bounded orbit and in geometric steps towards theta_inf on
    an open one.  A cubic Hermite interpolant with the exact slopes
    G' = 1/((1 + ecc cos theta)**2 + kappa d**2) gives the seed, and the
    table interval holding |s| the bracket.  Newton steps finish it,
    bisecting whenever a step leaves the bracket or is longer than half
    the step before the last: every two steps either halve the bracket
    or halve the step, and no 2-cycle lasts.  The residual is the
    table's G at the nearer end of the interval plus the 4-point
    Gauss-Legendre integral of the real G' from there, on every interval
    where that rule over the whole width reproduces the closed-form
    difference (``_certify``); on the others it is the closed form
    itself.  A Newton step of size h leaves an error of about
    |G''/(2 G')| h**2, bounded by the larger of its values at both ends
    of the step; a query is done when that is below half an ulp.
    """
    d, ecc, kap, law = oc.d, oc.ecc, oc.kappa, oc._law
    if law.circle:
        # circular: the sweep is uniform
        return s * (1.0 + kap * d * d), np.zeros_like(s)
    fr = law.per._make(c.real for c in law.per) if law.real else law.per
    # G' = 1/((X - a)(X + a)) with X = 1 + ecc cos theta, real also on the
    # sphere, where a = d sqrt(-kappa) is imaginary: there X**2 - a**2
    minus, plus, shift = (fr.q, fr.q, kap * d * d) if kap > 0.0 else (fr.q - fr.a.real, fr.q + fr.a.real, 0.0)

    def rate(w):
        # G' from w = 1 + cos theta
        rise = ecc * w
        return 1.0 / ((minus + rise) * (plus + rise) + shift)

    def newton(theta):
        # G' and |G''/(2 G')| = |ecc X sin(theta) G'|
        tau, w = _half_angle(theta)
        g = rate(w)
        return g, np.abs(ecc * (fr.q + ecc * w) * (tau * w) * g)

    # next to the asymptote of a nearly parabolic orbit the closed form can
    # come out 0/0; such nodes lie where propagate refuses the radius anyway
    with np.errstate(invalid="ignore"):
        if law.periodic:
            turns = np.round(s / (2.0 * law.half))
            s = s - 2.0 * law.half * turns
            # the table ends on the G(pi) the turns are counted by
            nodes = np.linspace(0.0, math.pi, _TABLE_NODES)
            table = np.append(_g_theta(_ARRAYS, fr, nodes[:-1]), law.half)
        else:
            turns = np.zeros_like(s)
            top = math.acos((fr.a.real - 1.0) / ecc)
            nodes = top * (1.0 - np.geomspace(1.0, 2.0**-_OPEN_REACH, 8 * _OPEN_REACH + 1))
            table = _g_theta(_ARRAYS, fr, nodes)
    finite = np.isfinite(table)
    nodes, table = nodes[finite], table[finite]
    target = np.minimum(np.abs(s), table[-1])

    theta, cell = _hermite(nodes, table, rate(_half_angle(nodes)[1]), target)
    lo, hi = nodes[cell], nodes[cell + 1]
    quick = _certify(rate, nodes, table)[cell]
    # the last two step lengths of each query, Newton or bisection
    last, older = hi - lo, hi - lo
    todo = np.arange(target.size)
    for _ in range(_MAX_STEPS):
        if not todo.size:
            break
        th = theta[todo]
        # from the nearer end of each query's table interval
        near = cell[todo] + (nodes[cell[todo] + 1] - th < th - nodes[cell[todo]])
        res = (table[near] - target[todo]) + _gauss(rate, nodes[near], th)
        slow = ~quick[todo]
        if slow.any():
            res[slow] = _g_theta(_ARRAYS, fr, th[slow]) - target[todo[slow]]
        lo_k = np.where(res < 0.0, th, lo[todo])
        hi_k = np.where(res > 0.0, th, hi[todo])
        g1, bend = newton(th)
        step = res / g1
        new = th - step
        # bisect a step that leaves the bracket or is longer than half the
        # step before the last (rtsafe, Numerical Recipes 9.4), so that a
        # 2-cycle across a steep step of G cannot last
        bisect = ~((new >= lo_k) & (new <= hi_k)) | (2.0 * np.abs(step) > older[todo])
        new = np.where(bisect, 0.5 * (lo_k + hi_k), new)
        older[todo], last[todo] = last[todo], np.where(bisect, 0.5 * (hi_k - lo_k), np.abs(step))
        # the error a step of size h leaves, |G''/(2 G')| h**2, bounded by
        # G'' at both of its ends, as G'' = 0 at an apsis
        left = np.maximum(bend, newton(new)[1]) * step * step
        done = (res == 0.0) | (~bisect & (left <= _HALF_ULP * new)) | (hi_k - lo_k <= 4.0 * _HALF_ULP * hi_k)
        theta[todo] = np.where(res == 0.0, th, new)
        lo[todo], hi[todo] = lo_k, hi_k
        todo = todo[~done]
    if todo.size:
        raise CurvedKeplerError(f"anomaly inverse did not converge for G = {float(target[todo[0]])!r}")
    return np.copysign(theta, s), turns


def propagate(oc: OrbitConstants, kappa, t) -> np.ndarray:
    """States (r, phi, v_r, v_phi) at the times t since the periastron
    passage, as an (n, 4) array.

    The time law t = (d**2/j) G(theta) is inverted for the anomaly theta =
    phi - phi0 (``_anomaly``), a bounded orbit's t first reduced by the
    period radial_period returns; then u = (1 + ecc cos theta)/d,
    r = acot_k(u), v_r = j ecc sin(theta)/d and v_phi = j (u**2 + kappa).
    On a circular orbit (ecc < CIRCULAR_ECC) u stays 1/d and t counts from
    phi = phi0.  Radial orbits (j = 0) have no OrbitConstants and stay on
    the integrator.

    Far out on an open orbit u closes in on its asymptote sqrt(-kappa)
    (0 on the plane), and the rounding of theta and of u moves
    u - sqrt(-kappa) by about ulp(theta) |du/dtheta| + ulp(u).  Where that
    exceeds ``_U_RTOL`` of it the radius would carry no trustworthy
    digits, and DomainError is raised: integrate such an orbit instead.
    """
    kap = _orbit_kappa(oc, curvature_value(kappa))
    ts = np.asarray(t, dtype=float).reshape(-1)
    if not np.isfinite(ts).all():
        raise DomainError(f"propagate needs finite times, got {float(ts[~np.isfinite(ts)][0])!r}")
    j, d = oc.conserved.j, oc.d
    theta, turns = _anomaly(oc, (j / (d * d)) * ts)
    # a circle's u does not move, whatever ecc below CIRCULAR_ECC it records
    ecc = 0.0 if oc._law.circle else oc.ecc
    tau, w = _half_angle(theta)
    sin = tau * w
    u = ((1.0 - ecc) + ecc * w) / d
    asym = _cot_floor(kap)
    # rounding of theta and of u itself
    blur = 2.0 * _HALF_ULP * (np.abs(theta) * ecc * np.abs(sin) / d + u)
    if not (u - asym > blur / _U_RTOL).all():
        k = int(np.argmin((u - asym) * _U_RTOL - blur))
        raise DomainError(
            f"t={float(ts[k])!r} takes the open orbit so close to its asymptote that "
            "its radius is not resolved in double precision; integrate it instead"
        )
    return np.column_stack(
        (
            _acot_array(kap, u),
            oc.phi0 + (theta + 2.0 * math.pi * turns),
            (j * ecc / d) * sin,
            j * (u * u + kap),
        )
    )


def phi_from_time(oc: OrbitConstants, kappa, t_grid, trajectory: Trajectory):
    """Polar angles at the requested times, from the inverted time law.

    The trajectory supplies only its start, its span and its curvature:
    every requested time must lie inside the span, and kappa must be the
    trajectory's and then the orbit's (DomainError names both otherwise).
    The start's anomaly theta0 = phi - phi0 gives its time since
    periastron, and phi(t) = phi_start + theta(t) - theta0 with theta(t)
    from ``propagate``'s inverse, exact up to rounding however far t lies
    from the start.  A t_grid of any shape gives one angle per time, in
    C order, as ``propagate`` gives one state.
    Radial orbits (j = 0) have no OrbitConstants: their states come from
    the integrator (``Trajectory.sample``).
    """
    kap = curvature_value(kappa)
    if kap != trajectory.kappa:
        raise DomainError(f"kappa={kap!r} is not the curvature {trajectory.kappa!r} of the trajectory")
    _orbit_kappa(oc, kap)
    ts = np.asarray(t_grid, dtype=float).reshape(-1)
    t0, t1 = float(trajectory.times[0]), float(trajectory.t_end)
    if not ((ts >= t0) & (ts <= t1)).all():
        raise DomainError(
            f"requested times leave the integrated span [{t0!r}, {t1!r}]"
        )
    phi_start = float(trajectory.states[0, 1])
    theta0 = math.remainder(phi_start - oc.phi0, 2.0 * math.pi)
    g0 = math.copysign(_g_theta(_SCALARS, oc._law.per, abs(theta0)), theta0)
    theta, turns = _anomaly(oc, oc.conserved.j / (oc.d * oc.d) * (ts - t0) + g0)
    out = phi_start + ((theta - theta0) + 2.0 * math.pi * turns)
    return out if np.ndim(t_grid) else float(out[0])
