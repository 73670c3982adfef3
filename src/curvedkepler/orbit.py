"""Closed-form Kepler orbits and time parametrization.

In the cotangent variable u = cos_k(r)/sin_k(r) every non-radial Kepler
orbit is the conic

    u(phi) = (k/j**2) * (1 + ecc * cos(phi - phi0)),

a harmonic oscillation around k/j**2 (the curved Binet equation is the
flat one verbatim).  Time enters through two quadratures: radial travel
time in u, and the sweep law dphi/dt = j * (u**2 + kappa).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson, quad

from .dynamics import ConservedSet, KeplerParams, PhaseState, Trajectory
from .errors import CurvedKeplerError, DomainError, RadialOrbitError
from .ktrig import acot_k, cos_k, curvature_value, sin_k

#: eccentricities below this are treated as exactly circular
CIRCULAR_ECC = 1e-13

_QUAD_KW = dict(epsabs=1e-10, epsrel=1e-12, limit=200)


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


def time_from_u(oc: OrbitConstants, kappa, u_start: float, u_end: float) -> float:
    """Radial travel time between two cotangent values (one monotone leg).

    dt = du / ((u**2 + kappa) * sqrt(j**2 (u_per - u)(u - u_apo))); the
    inverse-square-root turning-point singularities are removed by the
    substitution u = u_turn -/+ s**2 on each half of the interval.
    Returns the positive elapsed time.
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

    def radicand(u):
        return (j * j) * (u_per - u) * (u - u_apo)

    apo_physical = u_apo > asym
    mid = 0.5 * (u_per + max(u_apo, asym))
    total = 0.0

    lo, hi = a, min(b, mid)
    if lo < hi:
        if apo_physical:
            # substitution u = u_apo + s^2 kills the 1/sqrt at u_apo
            def g_apo(s):
                u = u_apo + s * s
                return 2.0 / ((u * u + kap) * (j * math.sqrt(u_per - u)))

            total += quad(
                g_apo,
                math.sqrt(lo - u_apo),
                math.sqrt(hi - u_apo),
                **_QUAD_KW,
            )[0]
        else:
            # open orbit: the lower end is regular, integrate in u
            def f(u):
                return 1.0 / ((u * u + kap) * math.sqrt(radicand(u)))

            total += quad(f, lo, hi, **_QUAD_KW)[0]

    lo, hi = max(a, mid), b
    if lo < hi:
        # substitution u = u_per - s^2 kills the 1/sqrt at u_per
        def g_per(s):
            u = u_per - s * s
            return 2.0 / ((u * u + kap) * (j * math.sqrt(u - u_apo)))

        total += quad(
            g_per,
            math.sqrt(u_per - hi),
            math.sqrt(u_per - lo),
            **_QUAD_KW,
        )[0]
    return total


def radial_period(oc: OrbitConstants, kappa) -> float:
    """Full radial period of a bounded orbit (twice the apo-to-per leg)."""
    kap = curvature_value(kappa)
    if oc.ecc < CIRCULAR_ECC:
        raise DomainError("circular orbit: radius does not oscillate")
    u_per, u_apo, asym = _u_bounds(oc, kap)
    if u_apo <= asym:
        raise DomainError("orbit is not radially bounded: no radial period")
    return 2.0 * time_from_u(oc, kap, u_apo, u_per)


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
    rs = np.array([trajectory.state_at(float(t)).r for t in fine])
    s2 = np.array([sin_k(kap, r) for r in rs]) ** 2
    sweep = j / s2
    cum = phi_start + cumulative_simpson(sweep, x=fine, initial=0.0)
    out = np.interp(ts, fine, cum)
    return out if np.ndim(t_grid) else float(out[0])
