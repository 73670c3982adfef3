"""Geodesic polar coordinates and chart maps on constant curvature.

Points live in geodesic polar coordinates (r, phi) around a chosen
origin.  The angular metric coefficient is sin_k(r)**2, the geodesic
distance follows the curved law of cosines, and two output charts are
provided: the ambient embedding (sphere of radius 1/sqrt(kappa), upper
hyperboloid, or the z = 0 plane) and the Poincare disk for kappa < 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, SingularityError
from .ktrig import _chart_limit, _cos, _sin, curvature_value

TWO_PI = 2.0 * math.pi


def reduce_angle(phi: float) -> float:
    """Reduce an angle to [0, 2*pi).  Trajectories keep phi unreduced so
    winding survives; call this only at comparison boundaries."""
    if not math.isfinite(phi):
        raise DomainError(f"angle must be finite, got {phi!r}")
    return _reduce(phi)


def _reduce(phi: float) -> float:
    out = math.fmod(phi, TWO_PI)
    if out < 0.0:
        out += TWO_PI
    # a tiny negative angle plus 2*pi rounds to 2*pi: 0 is the same point
    return out if out < TWO_PI else 0.0


@dataclass(frozen=True)
class PolarPoint:
    """Point in geodesic polar coordinates around the origin."""

    r: float
    phi: float

    def __post_init__(self):
        if not (math.isfinite(self.r) and math.isfinite(self.phi)):
            raise DomainError(f"polar point must be finite, got {self!r}")
        if self.r < 0.0:
            raise DomainError(f"geodesic radius must be >= 0, got {self.r!r}")


@dataclass(frozen=True)
class PhaseState:
    """Point (r, phi, v_r, v_phi) of the tangent bundle of the polar chart."""

    r: float
    phi: float
    v_r: float
    v_phi: float

    def __post_init__(self):
        vals = (self.r, self.phi, self.v_r, self.v_phi)
        if not all(map(math.isfinite, vals)):
            raise DomainError(f"phase state must be finite, got {vals!r}")


@dataclass(frozen=True)
class AmbientPoint:
    """Point of the surface in its 3d ambient model."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x, self.y, self.z))):
            raise DomainError(f"ambient point must be finite, got {self!r}")


def check_radius(kappa: float, r: float) -> float:
    """Validate r against the radial chart of the checked curvature kappa."""
    r = float(r)
    if not math.isfinite(r) or r < 0.0:
        raise DomainError(f"radius out of range: {r!r}")
    limit = _chart_limit(kappa)
    if r >= limit:
        raise DomainError(f"radius {r!r} reaches the antipode bound pi/sqrt(kappa) = {limit!r}")
    return r


def check_interior_radius(kappa: float, r: float) -> float:
    """Validate 0 < r < radial limit, the open chart where the polar
    metric and the Kepler potential are regular (kappa already checked)."""
    if not math.isfinite(r) or r <= 0.0:
        raise SingularityError(f"radius must be positive, got {r!r}")
    if r >= _chart_limit(kappa):
        raise DomainError(f"radius {r!r} outside the chart for kappa={kappa!r}")
    return r


def metric_coefficient(kappa, r: float) -> float:
    """Angular metric coefficient g_phiphi = sin_k(r)**2."""
    k = curvature_value(kappa)
    s = _sin(k, check_radius(k, r))
    return s * s


def geodesic_distance(kappa, p1: PolarPoint, p2: PolarPoint) -> float:
    """Geodesic distance between two polar points.

    Satisfies the curved law of cosines
    cos_k(d) = cos_k(r1) cos_k(r2) + kappa sin_k(r1) sin_k(r2) cos(dphi),
    but is evaluated in a half-angle form that stays accurate for nearly
    coincident points, where solving the law of cosines directly would
    lose half the digits.
    """
    return _distance(curvature_value(kappa), p1, p2)


def _distance(k: float, p1: PolarPoint, p2: PolarPoint) -> float:
    r1 = check_radius(k, p1.r)
    r2 = check_radius(k, p2.r)
    dphi = p1.phi - p2.phi
    sin_half_dphi = math.sin(0.5 * dphi)
    if k == 0.0:
        # rewrite of r1^2 + r2^2 - 2 r1 r2 cos(dphi) without cancellation
        cross = 4.0 * r1 * r2 * sin_half_dphi * sin_half_dphi
        return math.sqrt((r1 - r2) ** 2 + cross)
    c = math.sqrt(abs(k))
    a, b = c * r1, c * r2
    if k > 0.0:
        h = math.sin(0.5 * (a - b)) ** 2 + math.sin(a) * math.sin(b) * sin_half_dphi**2
        return 2.0 * math.asin(min(1.0, math.sqrt(h))) / c
    h = math.sinh(0.5 * (a - b)) ** 2 + math.sinh(a) * math.sinh(b) * sin_half_dphi**2
    return 2.0 * math.asinh(math.sqrt(h)) / c


def to_ambient(kappa, p: PolarPoint) -> AmbientPoint:
    """Embed a polar point into the ambient model of the surface."""
    k = curvature_value(kappa)
    return AmbientPoint(*_ambient(k, check_radius(k, p.r), p.phi))


def _ambient(k: float, r: float, phi: float) -> tuple[float, float, float]:
    s = _sin(k, r)
    z = 0.0 if k == 0.0 else _cos(k, r) / math.sqrt(abs(k))
    return (s * math.cos(phi), s * math.sin(phi), z)


def from_ambient(kappa, a: AmbientPoint) -> PolarPoint:
    """Invert :func:`to_ambient`.  The angle of the origin itself is 0."""
    k = curvature_value(kappa)
    rho = math.hypot(a.x, a.y)
    phi = _reduce(math.atan2(a.y, a.x)) if rho > 0.0 else 0.0
    if k == 0.0:
        return PolarPoint(rho, phi)
    c = math.sqrt(abs(k))
    if k > 0.0:
        # atan2 form is stable at both chart ends, unlike acos(z*c)
        r = math.atan2(rho * c, a.z * c) / c
    else:
        if a.z <= 0.0:
            raise DomainError("hyperboloid points must have z > 0")
        r = math.asinh(rho * c) / c
    return PolarPoint(r, phi)


def to_poincare_disk(kappa, p: PolarPoint) -> tuple[float, float]:
    """Map a hyperbolic polar point to the conformal unit disk.

    The disk radius is tanh(sqrt(-kappa) r / 2) regardless of kappa, so
    plots are comparable across curvature values.
    """
    k = curvature_value(kappa)
    if k >= 0.0:
        raise DomainError("the Poincare disk chart needs kappa < 0")
    return _poincare(k, p.r, p.phi)


def _poincare(k: float, r: float, phi: float) -> tuple[float, float]:
    rho = math.tanh(0.5 * math.sqrt(-k) * r)
    return (rho * math.cos(phi), rho * math.sin(phi))
