"""Reduced radial problem: effective potential, turning points, orbit classes.

For angular momentum j the radial motion happens in the effective
potential

    W(r) = -k cot_k(r) + j**2 / (2 sin_k(r)**2)
         = -k u + (j**2/2) (u**2 + kappa),      u = cos_k(r)/sin_k(r),

a quadratic in u, the same for every curvature.  The turning points
are its closed-form roots mapped back to radii by acot_k, and the
landmark energies that split the (j, E) plane into the orbit classes
below are W at two cotangents: the vertex u = k/j**2 (the circle) and
u* = max(_cot_floor(kappa), 0), the equator on the sphere and infinity
elsewhere (bounded orbits lie below it, sub-equatorial ones on S^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import CurvedKeplerError, DomainError, InfeasibleError, NumericalError
from .geometry import check_interior_radius
from .ktrig import _acot, _atan, _check_finite, _cos, _cot_floor, _sin, curvature_value

#: relative half-width of the bands around landmark energies inside
#: which classify_orbit reports the boundary class itself
LANDMARK_RTOL = 1e-9

_TANGENCY_RTOL = 1e-12


def check_coupling(k: float) -> float:
    """The Kepler coupling as a float; DomainError unless finite and positive."""
    if not (math.isfinite(k) and k > 0.0):
        raise DomainError(f"coupling k must be positive, got {k!r}")
    return float(k)


class OrbitLabel(Enum):
    """Qualitative orbit classes of the curved Kepler problem."""

    CIRCLE = "circle"
    SPHERICAL_ELLIPSE_SUB = "spherical_ellipse_sub"
    SPHERICAL_ELLIPSE_EQUATORIAL = "spherical_ellipse_equatorial"
    SPHERICAL_ELLIPSE_SUPER = "spherical_ellipse_super"
    HYP_CIRCLE = "hyp_circle"
    HYP_ELLIPSE = "hyp_ellipse"
    HYP_HOROELLIPSE = "hyp_horoellipse"
    HYP_OPEN = "hyp_open"
    FLAT_ELLIPSE = "flat_ellipse"
    FLAT_PARABOLA = "flat_parabola"
    FLAT_HYPERBOLA = "flat_hyperbola"
    RADIAL_COLLISION = "radial_collision"


#: labels whose orbits stay in a bounded region of the surface
BOUNDED_LABELS = frozenset(
    {
        OrbitLabel.CIRCLE,
        OrbitLabel.SPHERICAL_ELLIPSE_SUB,
        OrbitLabel.SPHERICAL_ELLIPSE_EQUATORIAL,
        OrbitLabel.SPHERICAL_ELLIPSE_SUPER,
        OrbitLabel.HYP_CIRCLE,
        OrbitLabel.HYP_ELLIPSE,
        OrbitLabel.FLAT_ELLIPSE,
    }
)


@dataclass(frozen=True)
class OrbitClass:
    label: OrbitLabel
    bounded: bool


@dataclass(frozen=True)
class PotentialProfile:
    """Landmarks of W for one (kappa, k, j) triple.

    ``zero_crossings`` lists the radii where W itself vanishes.  The
    escape landmarks ``e_infinity``/``j_infinity`` exist only on the
    hyperbolic plane; ``notes`` says why the critical point is absent
    when it is.
    """

    kappa: float
    k: float
    j: float
    critical_radius: float | None
    critical_value: float | None
    zero_crossings: tuple[float, ...]
    e_cir: float | None
    e_infinity: float | None
    j_infinity: float | None
    notes: str | None = None


def _inputs(kappa, k: float, j: float = 0.0, e: float | None = None):
    """Checked (kappa, k) of a public call, after j (and e) are checked finite."""
    kap = curvature_value(kappa)
    k = check_coupling(k)
    if e is None:
        if not math.isfinite(j):
            raise DomainError(f"angular momentum must be finite, got {j!r}")
    elif not (math.isfinite(j) and math.isfinite(e)):
        raise DomainError(f"need finite (j, e), got ({j!r}, {e!r})")
    return kap, k


def _w_u(kap: float, k: float, j: float, u: float) -> float:
    """W at the cotangent u = cot_k(r)."""
    return -k * u + 0.5 * j * j * (u * u + kap)


def _w(kap: float, k: float, j: float, r: float) -> float:
    r = check_interior_radius(kap, r)
    return _w_u(kap, k, j, _cos(kap, r) / _sin(kap, r))


def w_eff(kappa, k: float, j: float, r: float) -> float:
    """Effective radial potential at radius r."""
    return _w(*_inputs(kappa, k, j), j, r)


def _critical(kap: float, k: float, j: float):
    """(r_min, w_min) at the vertex u = k/j**2 of W, or None without one;
    NumericalError unless j**2 and d = j**2/k are positive finite floats."""
    if j == 0.0:
        return None
    j2 = j * j
    d = j2 / k
    if not 0.0 < d < math.inf:
        raise NumericalError(f"j={j!r} gives j**2 = {j2!r} and j**2/k = {d!r}, not positive finite")
    if kap < 0.0 and d * math.sqrt(-kap) >= 1.0:
        # hyperbolic saturation: tan_k never reaches d, the test _atan makes
        return None
    w_min = 0.5 * (kap * j * j - (k * k) / j2)
    if not math.isfinite(w_min):
        # an infinite minimum would pass every band test around it
        raise NumericalError(f"minimum of W overflows at j={j!r}: w_min = {w_min!r}")
    return (_atan(kap, d), w_min)


def critical_point(kappa, k: float, j: float):
    """Location and value (r_min, w_min) of the minimum of W, if any.

    The sphere and the plane always have one for j != 0.  On the
    hyperbolic plane the centrifugal barrier flattens out once
    sqrt(-kappa) j**2 / k >= 1 and the minimum disappears; j = 0 has no
    barrier at all.  Both cases return None.  A j whose square or j**2/k
    leaves the float range raises NumericalError.
    """
    return _critical(*_inputs(kappa, k, j), j)


def _landmark(kap: float, k: float, j: float) -> float:
    """W at u* = max(_cot_floor(kappa), 0): the energy that splits bounded
    from open orbits (sub- from super-equatorial ones on the sphere).  At u*
    the factor u*^2 + kappa is max(kappa, 0) exactly; rounded, sqrt(-kappa)**2
    + kappa times j**2/2 would move the plateau -k sqrt(-kappa) at a large j."""
    return -k * max(_cot_floor(kap), 0.0) + 0.5 * max(kap, 0.0) * j * j


def _escape_angular_momentum(kap: float, k: float) -> float:
    return math.sqrt(k / math.sqrt(-kap))


def escape_energy(kappa, k: float) -> float:
    """Plateau value of W at infinity on the hyperbolic plane, -k*sqrt(-kappa)."""
    kap, k = _inputs(kappa, k)
    if kap >= 0.0:
        raise DomainError("the escape plateau exists only for kappa < 0")
    return _landmark(kap, k, 0.0)


def escape_angular_momentum(kappa, k: float) -> float:
    """j above which W loses its minimum on the hyperbolic plane: j^2 = k/sqrt(-kappa)."""
    kap, k = _inputs(kappa, k)
    if kap >= 0.0:
        raise DomainError("the escape angular momentum exists only for kappa < 0")
    return _escape_angular_momentum(kap, k)


def _radial_roots(kap: float, k: float, j: float, e: float):
    """Conic elements (d, ecc, u_per, u_apo) of the pair (j, e), j != 0.

    W(u) = e is the quadratic (j**2/2) u**2 - k u + (kappa j**2/2 - e) = 0
    with roots u = (1 +- ecc)/d, d = j**2/k.  The larger root comes from
    the sum form and the smaller from the product of the roots,
    kappa - 2e/j**2, so neither cancels as ecc -> 1.  A negative
    discriminant (e below the minimum of the quadratic) is clamped to
    the double root.
    """
    j2 = j * j
    root = math.sqrt(max(0.0, k * k + 2.0 * j2 * (e - 0.5 * kap * j2)))
    u_per = (k + root) / j2
    return j2 / k, root / k, u_per, (kap - 2.0 * e / j2) / u_per


def _near(value: float, landmark: float) -> bool:
    """Whether value lies in the band where classify_orbit reports the
    landmark's boundary class."""
    return abs(value - landmark) <= LANDMARK_RTOL * max(1.0, abs(landmark))


def turning_points(kappa, k: float, j: float, e: float) -> list[float]:
    """All radii with W(r) = e, sorted; a tangency is reported twice.

    In u = cot_k(r) the potential is the quadratic
    W(u) = -k u + (j**2/2)(u**2 + kappa), so the roots are closed-form:
    ``_radial_roots`` for j != 0, the linear root u = -e/k for j = 0.
    A root counts when it lies on the physical branch of acot_k; an
    apoastron within ``_TANGENCY_RTOL`` of the hyperbolic plateau is the
    plateau itself (the horoellipse, open at infinity).  Off the sphere,
    an energy inside ``LANDMARK_RTOL`` of the escape energy has no
    apoastron either, the rule by which classify_orbit labels it a
    parabola or horoellipse.  Beyond the escape j (no minimum on the
    hyperbolic plane) an energy at or below the plateau has no root, as
    classify_orbit calls it infeasible.  Each radius is verified to satisfy
    |W(r) - e| < 1e-11 * max(1, |e|) + 4 |dW/dr| ulp(r), the second term
    what one rounding of r moves W by; CurvedKeplerError reports a miss.
    """
    return _turning_points(*_inputs(kappa, k, j, e), j, e)


def _turning_points(kap: float, k: float, j: float, e: float) -> list[float]:
    crit = _critical(kap, k, j)
    if crit is not None:
        r_m, w_m = crit
        if abs(e - w_m) <= _TANGENCY_RTOL * max(1.0, abs(e), abs(w_m)):
            return [r_m, r_m]
        if e < w_m:
            return []
    elif j != 0.0 and e <= _landmark(kap, k, j):
        # saturated (kappa < 0, j beyond escape): W falls monotonically to
        # the plateau and never reaches it, so no energy up to it has a
        # root; classify_orbit calls these energies infeasible
        return []

    if j == 0.0:
        us = [-e / k]
    else:
        _, _, u_per, u_apo = _radial_roots(kap, k, j, e)
        us = [u_per, u_apo]
        if kap <= 0.0 and _near(e, _landmark(kap, k, j)) and not (crit and _near(e, crit[1])):
            # inside classify_orbit's band around the escape energy the
            # orbit is the boundary class (parabola, horoellipse): open,
            # with no apoastron
            us = [u_per]
    if kap <= 0.0:
        # off the sphere a radius needs u beyond the plateau
        floor = _cot_floor(kap) * (1.0 + _TANGENCY_RTOL)
        us = [u for u in us if u > floor]
    # a root that overflowed reports the check acot_k makes of its argument
    pairs = sorted((_acot(kap, _check_finite(u)), u) for u in us)

    base_tol = 1e-11 * max(1.0, abs(e))
    for r, u in pairs:
        if not math.isfinite(r):  # on the plane r = 1/u is inf for u < 1/max_float
            raise DomainError(f"turning point at u={u!r} has no finite radius, got r={r!r}")
        residual = _w(kap, k, j, r) - e
        # the roots are exact in u, but where W is steep in r (near the
        # antipode of a nearly flat sphere, or close in for a small j) one
        # ulp of r can move W by more than base_tol
        shift = abs((j * j * u - k) * (u * u + kap)) * math.ulp(r)
        tol = base_tol + 4.0 * shift
        if not abs(residual) < tol:
            raise CurvedKeplerError(
                f"turning point verification failed at r={r!r}: W(r) - e = "
                f"{residual!r}, tol {tol!r}; at u={u!r} the residual W(u) - e = "
                f"{_w_u(kap, k, j, u) - e!r}, and one ulp(r) = {math.ulp(r)!r} moves W(r) by {shift!r}"
            )
    return [r for r, _ in pairs]


#: orbit classes below, at and above _landmark, for kappa < 0, = 0 and > 0
_CLASS_ROWS = tuple(
    tuple(OrbitClass(label, label in BOUNDED_LABELS) for label in row)
    for row in (
        (OrbitLabel.HYP_ELLIPSE, OrbitLabel.HYP_HOROELLIPSE, OrbitLabel.HYP_OPEN),
        (OrbitLabel.FLAT_ELLIPSE, OrbitLabel.FLAT_PARABOLA, OrbitLabel.FLAT_HYPERBOLA),
        (OrbitLabel.SPHERICAL_ELLIPSE_SUB, OrbitLabel.SPHERICAL_ELLIPSE_EQUATORIAL,
         OrbitLabel.SPHERICAL_ELLIPSE_SUPER),
    )
)


def classify_orbit(kappa, k: float, j: float, e: float) -> OrbitClass:
    """Qualitative orbit class of an (energy, angular momentum) pair.

    Classification is purely by landmark energies.  Energies within
    ``LANDMARK_RTOL`` (relative) of a landmark get the boundary class;
    energies below the attainable range raise InfeasibleError.
    """
    kap, k = _inputs(kappa, k, j, e)
    if j == 0.0:
        return OrbitClass(OrbitLabel.RADIAL_COLLISION, bounded=False)

    crit = _critical(kap, k, j)
    landmark = _landmark(kap, k, j)
    if crit is None:
        # saturated: W falls monotonically to the plateau, never reaching it
        if e <= landmark:
            raise InfeasibleError(
                f"energy {e!r} not attainable without a potential well "
                f"(plateau {landmark!r})"
            )
        return OrbitClass(OrbitLabel.HYP_OPEN, bounded=False)
    w_m = crit[1]
    if _near(e, w_m):
        label = OrbitLabel.HYP_CIRCLE if kap < 0.0 else OrbitLabel.CIRCLE
        return OrbitClass(label, bounded=True)
    if e < w_m:
        raise InfeasibleError(f"energy {e!r} below the potential minimum {w_m!r}")

    below, at, above = _CLASS_ROWS[(kap >= 0.0) + (kap > 0.0)]
    return at if _near(e, landmark) else below if e < landmark else above


def potential_profile(kappa, k: float, j: float) -> PotentialProfile:
    """All landmarks of W for (kappa, k, j) in one record."""
    kap, k = _inputs(kappa, k, j)
    crit = _critical(kap, k, j)
    r_min, w_min = crit or (None, None)
    notes = None if crit else (
        "no centrifugal barrier: potential is monotone" if j == 0.0 else "centrifugal term saturates: no minimum"
    )
    hyperbolic = kap < 0.0
    return PotentialProfile(
        kappa=kap,
        k=k,
        j=j,
        critical_radius=r_min,
        critical_value=w_min,
        zero_crossings=tuple(_turning_points(kap, k, j, 0.0)),
        e_cir=w_min,
        e_infinity=_landmark(kap, k, j) if hyperbolic else None,
        j_infinity=_escape_angular_momentum(kap, k) if hyperbolic else None,
        notes=notes,
    )
