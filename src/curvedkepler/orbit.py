"""Closed-form Kepler orbits and time parametrization.

In the cotangent variable u = cos_k(r)/sin_k(r) every non-radial Kepler
orbit is the conic

    u(phi) = (k/j**2) * (1 + ecc * cos(phi - phi0)),

a harmonic oscillation around k/j**2 (the curved Binet equation is the
flat one verbatim).  Time enters through the sweep law
dphi/dt = j * (u**2 + kappa): in the anomaly phi - phi0 its integral is
elementary, which gives the travel time between two u values in closed
form, while ``phi_from_time`` integrates it along a trajectory.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson

from .dynamics import ConservedSet, KeplerParams, PhaseState, Trajectory
from .errors import CurvedKeplerError, DomainError, RadialOrbitError
from .ktrig import acot_k, curvature_value, sin_k_array

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
    ``z`` = 2 j**2 e_p / k**2 the energy in conic units (ecc**2 = 1 + z).
    """

    conserved: ConservedSet
    d: float
    ecc: float
    phi0: float
    z: float

    @property
    def u_periastron(self) -> float:
        return (1.0 + self.ecc) / self.d

    @property
    def u_apoastron(self) -> float:
        """Cotangent at the outer turning point (may lie beyond the
        reachable range for open orbits)."""
        return (1.0 - self.ecc) / self.d


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
    if 1.0 + z < -1e-10 * max(1.0, abs(z)):
        raise CurvedKeplerError(
            f"impossible orbit constants: 1 + z = {1.0 + z!r} < 0"
        )
    ecc = math.hypot(c.i3, c.i4) / k
    if ecc < CIRCULAR_ECC:
        return OrbitConstants(conserved=c, d=d, ecc=0.0, phi0=0.0, z=z)
    phi0 = math.atan2(-c.i4, c.i3)
    return OrbitConstants(conserved=c, d=d, ecc=ecc, phi0=phi0, z=z)


def u_closed(oc: OrbitConstants, phi) -> float | np.ndarray:
    """Closed-form cotangent profile u(phi) of the orbit."""
    out = (1.0 + oc.ecc * np.cos(np.asarray(phi) - oc.phi0)) / oc.d
    return float(out) if np.ndim(phi) == 0 else out


def orbit_radius(oc: OrbitConstants, kappa, phi: float) -> float | None:
    """Radius of the orbit at polar angle phi, or None past an asymptote.

    Solves tan_k(r) = d / (1 + ecc cos(phi - phi0)).  On the sphere the
    inverse cotangent is continuous through the equator, so orbits that
    dip into the far hemisphere come out with r > pi/(2 sqrt(kappa));
    on the plane and the hyperbolic plane angles where the conic has
    run off to (or past) infinity yield None.
    """
    kap = curvature_value(kappa)
    u = float(u_closed(oc, phi))
    if kap > 0.0:
        return acot_k(kap, u)
    asym = math.sqrt(-kap) if kap < 0.0 else 0.0
    if u <= asym:
        return None
    return acot_k(kap, u)


def binet_residual(oc: OrbitConstants, kappa, phi: float) -> float:
    """d2u/dphi2 + u - k/j**2 for the closed form, by exact differentiation."""
    dphi = phi - oc.phi0
    d2u = -(oc.ecc / oc.d) * math.cos(dphi)
    u = (1.0 + oc.ecc * math.cos(dphi)) / oc.d
    return d2u + u - 1.0 / oc.d


def _u_bounds(oc: OrbitConstants, kap: float):
    """Physical u-interval of radial motion and the turning anchors."""
    u_per = oc.u_periastron
    u_apo = oc.u_apoastron
    asym = math.sqrt(-kap) if kap < 0.0 else 0.0 if kap == 0.0 else -math.inf
    return u_per, u_apo, asym


def _atan(z, v):
    """atan(z) for complex z off the cuts, given v = 1 + z**2.

    Near z**2 = -1 it is i log(1 - iz) - (i/2) log(v) (or the mirror
    form for Im z < 0): the first logarithm's argument has modulus >= 1,
    so v carries all the cancellation and can be supplied exactly.
    """
    if abs(v) > 0.5:
        return cmath.atan(z)
    if z.imag >= 0.0:
        return 1j * cmath.log(1.0 - 1j * z) - 0.5j * cmath.log(v)
    return 0.5j * cmath.log(v) - 1j * cmath.log(1.0 + 1j * z)


def _phi_pair(y1, v1, y2, v2):
    """Mean and divided difference of phi over the pair (y1, y2).

    phi(y) = atan(sqrt(y))/sqrt(y) = integral_0^1 dw / (1 + y w**2) is
    analytic off the cut (-inf, -1]; v = 1 + y is passed separately
    because y -> -1 is where the orbit meets an asymptote.  The pair is
    real or complex conjugate, and both results come back as complex
    numbers whose real parts are wanted.  Three routes keep them free
    of cancellation:

    * both |y| <= ``_PHI_SERIES_Y``: the power series of phi, through the
      power sums of the pair, so y1 - y2 never divides a difference;
    * a close pair away from 0 and -1: atan(z1) - atan(z2) =
      atan((z1 - z2)/(1 + z1 z2)) with z = sqrt(y) taken on a common side;
    * otherwise the plain difference quotient, which loses at most a
      factor of about 1/_PHI_SERIES_Y to rounding.
    """
    if abs(y1) <= _PHI_SERIES_Y and abs(y2) <= _PHI_SERIES_Y:
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
    z1, z2 = cmath.sqrt(y1), cmath.sqrt(y2)
    mid = 0.5 * (y1 + y2).real
    # near -1 the gap y1 - y2 is exact only from the v side
    gap = y1 - y2 if mid > -0.5 else v1 - v2
    if mid > -1.0 and abs(gap) <= 0.5 * min(abs(mid), 1.0 + mid):
        if abs(z1 + z2) < abs(z1 - z2):
            z2 = -z2  # phi is even in z
        at1, at2 = _atan(z1, v1), _atan(z2, v2)
        zz = z1 * z2
        # 1 + z1 z2 = (1 - y1 y2)/(1 - z1 z2), exact from v when zz -> -1
        w = 1.0 + zz if zz.real >= 0.0 else (v1 + v2 - v1 * v2) / (1.0 - zz)
        delta = gap / ((z1 + z2) * w)
        ratio = cmath.atan(delta) / delta if delta else 1.0
        return 0.5 * (at1 / z1 + at2 / z2), (z2 * ratio / w - at2) / ((z1 + z2) * zz)
    phi1, phi2 = _atan(z1, v1) / z1, _atan(z2, v2) / z2
    return 0.5 * (phi1 + phi2), (phi1 - phi2) / gap


def _sweep(ecc: float, d: float, kap: float, u_per: float, u_apo: float, us) -> list[float]:
    """G(theta) = integral_0^theta dtheta' / ((1 + ecc cos theta')**2 + kappa d**2)
    at the anomaly theta in [0, pi] of each u in ``us`` on u = (1 + ecc cos theta)/d.

    theta is counted from u_per = (1 + ecc)/d towards u_apo = (1 - ecc)/d;
    a negative ecc swaps the two, so theta runs from the apoastron.

    With a = d sqrt(-kappa) (imaginary on the sphere) the integrand splits
    into 1/(X - a) and 1/(X + a), X = 1 + ecc cos theta', and

        integral_0^theta dtheta' / (A + ecc cos theta') = 2 tau phi(y_A) / (A + ecc)

    for A = 1 -/+ a, with tau = tan(theta/2) and
    y_A = tau**2 (A - ecc)/(A + ecc) (phi as in ``_phi_pair``).
    Grouping the two phi terms by their mean and divided difference gives

        G = (2 tau/R) (mean - (2 ecc p tau**2/R) diff),  R = (p - a)(p + a),

    with p = 1 + ecc: neither 1/a (the flat limit) nor 1/(1 - ecc) (the
    parabola) is left to cancel.  tau**2 = (u_per - u)/(u - u_apo) and
    1 + y_A = 2 ecc (u -/+ sqrt(-kappa)) / ((A + ecc)(u - u_apo)) come
    from u without cancellation.  At the apoastron, with
    c_A**2 = (A - ecc)/(A + ecc),
    G(pi) = pi ((c1 + c2)**2 + 4 ecc p/R) / (2 R c1 c2 (c1 + c2)).
    """
    p, q, root = 1.0 + ecc, 1.0 - ecc, cmath.sqrt(-kap)
    a = d * root
    below, above = p - a, p + a
    r = (below * above).real
    c1_sq, c2_sq = (q - a) / below, (q + a) / above
    out = []
    for u in us:
        if u == u_per:
            out.append(0.0)
        elif u == u_apo:
            c1, c2 = cmath.sqrt(c1_sq), cmath.sqrt(c2_sq)
            c_sum, c_prod = (c1 + c2).real, (c1 * c2).real
            out.append(math.pi * (c_sum * c_sum + 4.0 * ecc * p / r) / (2.0 * r * c_prod * c_sum))
        else:
            tau2 = (u_per - u) / (u - u_apo)
            lift = 2.0 * ecc / (u - u_apo)
            mean, diff = _phi_pair(
                tau2 * c1_sq, lift * (u - root) / below, tau2 * c2_sq, lift * (u + root) / above
            )
            out.append(2.0 * math.sqrt(tau2) / r * (mean - 2.0 * ecc * p * tau2 / r * diff).real)
    return out


def _leg(ecc: float, d: float, kap: float, u_per: float, u_apo: float, u_far: float, u_near: float) -> float:
    """G(theta_far) - G(theta_near) in one piece (``_sweep``'s notation).

    With t = tan(theta/2), the arctangent difference of each partial
    fraction is again one arctangent:

        integral_near^far dtheta / (A + ecc cos theta) = 2 dt phi(Y_A) / L_A,
        L_A = (A + ecc) + (A - ecc) t_far t_near,
        Y_A = (A**2 - ecc**2) dt**2 / L_A**2,

    dt = t_far - t_near, and the grouping of ``_sweep`` becomes

        (2 dt / (L1 L2)) (P mean - diff dt**2 K (L1 + L2) / (2 L1**2 L2**2)),
        K = ecc M (A1 L2 + A2 L1) + ecc**2 P (L1 + L2),

    P, M = 1 +/- t_far t_near, which is ``_sweep``'s formula at t_near = 0.
    dt comes from u_near - u_far, 1 + Y_A = (A + ecc)**2 (1 + y_far)(1 + y_near)/L_A**2
    from the exact lifts, and L_A, where its two terms cancel (next to an
    asymptote or the equator), from L_A**2 = (A + ecc)**2 (1 + y_far)(1 + y_near)
    - (A**2 - ecc**2) dt**2.
    """
    p, q, root = 1.0 + ecc, 1.0 - ecc, cmath.sqrt(-kap)
    a = d * root
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
    mean, diff = _phi_pair(ys[0], vs[0], ys[1], vs[1])
    big, small = 1.0 + prod, 1.0 - prod
    k = ecc * small * ((1.0 - a) * l2 + (1.0 + a) * l1) + ecc * ecc * big * lsum
    l12 = l1 * l2
    return (2.0 * dt / l12 * (big * mean - diff * dt * dt * k * lsum / (2.0 * l12 * l12))).real


def time_from_u(oc: OrbitConstants, kappa, u_start: float, u_end: float) -> float:
    """Radial travel time between two cotangent values (one monotone leg).

    With theta = phi - phi0 the orbit is u = (1 + ecc cos theta)/d, and
    the sweep law dphi/dt = j (u**2 + kappa) makes the time from
    periastron (d**2/|j|) G(theta), with G in closed form (``_sweep``).
    A leg is the difference of G at its ends, counted from the apsis on
    its side, or one closed-form piece (``_leg``) when it is short
    against that.  Returns the positive elapsed time.
    """
    kap = curvature_value(kappa)
    if not (math.isfinite(u_start) and math.isfinite(u_end)):
        raise DomainError(f"need finite u values, got {u_start!r}, {u_end!r}")
    if u_start == u_end:
        return 0.0
    j = abs(oc.conserved.j)
    u_per, u_apo, asym = _u_bounds(oc, kap)
    if oc.ecc < CIRCULAR_ECC:
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
        from_apo = u_apo > asym and a + b < u_per + u_apo
    if from_apo:
        frame, far, near = (-oc.ecc, oc.d, kap, u_apo, u_per), b, a
    else:
        frame, far, near = (oc.ecc, oc.d, kap, u_per, u_apo), a, b
    g_far, g_near = _sweep(*frame, (far, near))
    # a leg short against its distance from the apsis would cancel in
    # the difference (here by at most a factor of 19): take it in one piece
    g = g_far - g_near if g_near <= 0.9 * g_far else _leg(*frame, far, near)
    return oc.d * oc.d / j * g


def radial_period(oc: OrbitConstants, kappa) -> float:
    """Full radial period of a bounded orbit (twice the apo-to-per leg)."""
    kap = curvature_value(kappa)
    if oc.ecc < CIRCULAR_ECC:
        raise DomainError("circular orbit: radius does not oscillate")
    u_per, u_apo, asym = _u_bounds(oc, kap)
    if u_apo <= asym:
        raise DomainError("orbit is not radially bounded: no radial period")
    # the apo-to-per leg exactly as time_from_u takes it: from the apoastron
    (half,) = _sweep(-oc.ecc, oc.d, kap, u_apo, u_per, (u_per,))
    return 2.0 * (oc.d * oc.d / abs(oc.conserved.j) * half)


def phi_from_time(oc: OrbitConstants, kappa, t_grid, trajectory: Trajectory):
    """Polar angles at the requested times by cumulative sweep quadrature.

    Integrates dphi/dt = j (u**2 + kappa) = j / sin_k(r)**2 along the
    dense output of ``trajectory``; every requested time must lie inside
    the trajectory's span.
    """
    kap = curvature_value(kappa)
    ts = np.atleast_1d(np.asarray(t_grid, dtype=float))
    t0, t1 = trajectory.times[0], trajectory.t_end
    if ts.size and (ts.min() < t0 or ts.max() > t1):
        raise DomainError(
            f"requested times leave the integrated span [{t0!r}, {t1!r}]"
        )
    j = oc.conserved.j
    upper = ts.max() if ts.size else t0
    phi_start = trajectory.state_at(float(t0)).phi
    if upper == t0:
        out = np.full(ts.shape, phi_start)
        return out if np.ndim(t_grid) else float(out[0])
    fine = np.union1d(np.linspace(t0, upper, 4097), ts)
    s2 = sin_k_array(kap, trajectory.sample(fine)[:, 0]) ** 2
    sweep = j / s2
    cum = phi_start + cumulative_simpson(sweep, x=fine, initial=0.0)
    out = np.interp(ts, fine, cum)
    return out if np.ndim(t_grid) else float(out[0])
