"""Reduced radial problem: effective potential, turning points, orbit classes.

For angular momentum j the radial motion happens in the effective
potential

    W(r) = -k cot_k(r) + j**2 / (2 sin_k(r)**2)
         = -k u + (j**2/2) (u**2 + kappa),      u = cos_k(r)/sin_k(r),

whose landmark energies (circular minimum, and on the hyperbolic plane
the escape plateau -k*sqrt(-kappa)) split the (j, E) plane into the
orbit classes below.  In u the potential is a quadratic, the same for
every curvature, so the turning points are its closed-form roots mapped
back to radii by acot_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import (
    CurvedKeplerError,
    DomainError,
    InfeasibleError,
    SingularityError,
)
from .ktrig import acot_k, atan_k, cos_k, curvature_value, radial_limit, sin_k

#: relative half-width of the bands around landmark energies inside
#: which classify_orbit reports the boundary class itself
LANDMARK_RTOL = 1e-9

_TANGENCY_RTOL = 1e-12


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


def _validate_coupling(k: float) -> float:
    if not (math.isfinite(k) and k > 0.0):
        raise DomainError(f"coupling k must be positive, got {k!r}")
    return float(k)


def w_eff(kappa, k: float, j: float, r: float) -> float:
    """Effective radial potential at radius r."""
    kap = curvature_value(kappa)
    k = _validate_coupling(k)
    if not math.isfinite(j):
        raise DomainError(f"angular momentum must be finite, got {j!r}")
    if not math.isfinite(r) or r <= 0.0:
        raise SingularityError(f"radius must be positive, got {r!r}")
    if r >= radial_limit(kap):
        raise DomainError(f"radius {r!r} outside the chart for kappa={kap!r}")
    u = cos_k(kap, r) / sin_k(kap, r)
    return -k * u + 0.5 * j * j * (u * u + kap)


def critical_point(kappa, k: float, j: float):
    """Location and value (r_min, w_min) of the minimum of W, if any.

    The sphere and the plane always have one for j != 0.  On the
    hyperbolic plane the centrifugal barrier flattens out once
    sqrt(-kappa) j**2 / k >= 1 and the minimum disappears; j = 0 has no
    barrier at all.  Both cases return None.
    """
    kap = curvature_value(kappa)
    k = _validate_coupling(k)
    if not math.isfinite(j):
        raise DomainError(f"angular momentum must be finite, got {j!r}")
    if j == 0.0:
        return None
    try:
        r_min = atan_k(kap, j * j / k)
    except DomainError:
        # hyperbolic saturation: tan_k never reaches j^2/k
        return None
    w_min = 0.5 * (kap * j * j - (k * k) / (j * j))
    return (r_min, w_min)


def escape_energy(kappa, k: float) -> float:
    """Plateau value of W at infinity on the hyperbolic plane, -k*sqrt(-kappa)."""
    kap = curvature_value(kappa)
    k = _validate_coupling(k)
    if kap >= 0.0:
        raise DomainError("the escape plateau exists only for kappa < 0")
    return -k * math.sqrt(-kap)


def escape_angular_momentum(kappa, k: float) -> float:
    """j above which W loses its minimum on the hyperbolic plane: j^2 = k/sqrt(-kappa)."""
    kap = curvature_value(kappa)
    k = _validate_coupling(k)
    if kap >= 0.0:
        raise DomainError("the escape angular momentum exists only for kappa < 0")
    return math.sqrt(k / math.sqrt(-kap))


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


def turning_points(kappa, k: float, j: float, e: float) -> list[float]:
    """All radii with W(r) = e, sorted; a tangency is reported twice.

    In u = cot_k(r) the potential is the quadratic
    W(u) = -k u + (j**2/2)(u**2 + kappa), so the roots are closed-form:
    ``_radial_roots`` for j != 0, the linear root u = -e/k for j = 0.
    A root counts when it lies on the physical branch of acot_k (any u
    on the sphere, u > 0 on the plane, u > sqrt(-kappa) on the
    hyperbolic plane); an apoastron within ``_TANGENCY_RTOL`` of the
    hyperbolic plateau is the plateau itself (the horoellipse, open at
    infinity).  Each radius is verified to satisfy
    |W(r) - e| < 1e-11 * max(1, |e|); CurvedKeplerError reports a miss.
    """
    kap = curvature_value(kappa)
    k = _validate_coupling(k)
    if not (math.isfinite(j) and math.isfinite(e)):
        raise DomainError(f"need finite (j, e), got ({j!r}, {e!r})")

    crit = critical_point(kap, k, j)
    if crit is not None:
        r_m, w_m = crit
        if abs(e - w_m) <= _TANGENCY_RTOL * max(1.0, abs(e), abs(w_m)):
            return [r_m, r_m]
        if e < w_m:
            return []

    if j == 0.0:
        us = [-e / k]
    else:
        _, _, u_per, u_apo = _radial_roots(kap, k, j, e)
        us = [u_per, u_apo]
    if kap <= 0.0:
        # off the sphere a radius needs u beyond the plateau sqrt(-kappa)
        us = [u for u in us if u > math.sqrt(-kap) * (1.0 + _TANGENCY_RTOL)]
    pairs = sorted((acot_k(kap, u), u) for u in us)

    tol = 1e-11 * max(1.0, abs(e))
    for r, u in pairs:
        residual = w_eff(kap, k, j, r) - e
        if abs(residual) >= tol:
            # the roots are exact in u; near the antipode of a nearly flat
            # sphere one ulp of r can move W by more than tol
            u_residual = -k * u + 0.5 * j * j * (u * u + kap) - e
            shift = abs((j * j * u - k) * (u * u + kap)) * math.ulp(r)
            raise CurvedKeplerError(
                f"turning point verification failed at r={r!r}: W(r) - e = "
                f"{residual!r}, tol {tol!r}; at u={u!r} the residual W(u) - e = "
                f"{u_residual!r}, and one ulp(r) = {math.ulp(r)!r} moves W(r) by {shift!r}"
            )
    return [r for r, _ in pairs]


def classify_orbit(
    kappa, k: float, j: float, e: float, landmark_rtol: float = LANDMARK_RTOL
) -> OrbitClass:
    """Qualitative orbit class of an (energy, angular momentum) pair.

    Classification is purely by landmark energies.  Energies within
    ``landmark_rtol`` (relative) of a landmark get the boundary class;
    energies below the attainable range raise InfeasibleError.
    """
    kap = curvature_value(kappa)
    k = _validate_coupling(k)
    if not (math.isfinite(j) and math.isfinite(e)):
        raise DomainError(f"need finite (j, e), got ({j!r}, {e!r})")

    if j == 0.0:
        return OrbitClass(OrbitLabel.RADIAL_COLLISION, bounded=False)

    crit = critical_point(kap, k, j)

    def near(value, landmark):
        return abs(value - landmark) <= landmark_rtol * max(1.0, abs(landmark))

    if crit is not None:
        w_m = crit[1]
        if near(e, w_m):
            label = OrbitLabel.HYP_CIRCLE if kap < 0.0 else OrbitLabel.CIRCLE
            return OrbitClass(label, bounded=True)
        if e < w_m:
            raise InfeasibleError(
                f"energy {e!r} below the potential minimum {w_m!r}"
            )

    if kap > 0.0:
        # every spherical orbit is a closed curve; the split is by how
        # it sits relative to the equator, i.e. by the sign of the
        # partial energy e_p = e - kappa j^2 / 2
        e_p = e - 0.5 * kap * j * j
        if abs(e_p) <= landmark_rtol * max(1.0, 0.5 * kap * j * j, abs(e)):
            return OrbitClass(OrbitLabel.SPHERICAL_ELLIPSE_EQUATORIAL, True)
        if e_p < 0.0:
            return OrbitClass(OrbitLabel.SPHERICAL_ELLIPSE_SUB, True)
        return OrbitClass(OrbitLabel.SPHERICAL_ELLIPSE_SUPER, True)

    if kap == 0.0:
        if near(e, 0.0) or e == 0.0:
            return OrbitClass(OrbitLabel.FLAT_PARABOLA, bounded=False)
        if e < 0.0:
            return OrbitClass(OrbitLabel.FLAT_ELLIPSE, bounded=True)
        return OrbitClass(OrbitLabel.FLAT_HYPERBOLA, bounded=False)

    e_inf = escape_energy(kap, k)
    if crit is None:
        # no minimum: W decreases monotonically to the plateau, so only
        # energies above it occur
        if e <= e_inf:
            raise InfeasibleError(
                f"energy {e!r} not attainable without a potential well "
                f"(plateau {e_inf!r})"
            )
        return OrbitClass(OrbitLabel.HYP_OPEN, bounded=False)
    if near(e, e_inf):
        return OrbitClass(OrbitLabel.HYP_HOROELLIPSE, bounded=False)
    if e < e_inf:
        return OrbitClass(OrbitLabel.HYP_ELLIPSE, bounded=True)
    return OrbitClass(OrbitLabel.HYP_OPEN, bounded=False)


def potential_profile(kappa, k: float, j: float) -> PotentialProfile:
    """All landmarks of W for (kappa, k, j) in one record."""
    kap = curvature_value(kappa)
    k = _validate_coupling(k)
    crit = critical_point(kap, k, j)
    if crit is None:
        if j == 0.0:
            notes = "no centrifugal barrier: potential is monotone"
        else:
            notes = "centrifugal term saturates: no minimum"
        r_min = w_min = None
    else:
        r_min, w_min = crit
        notes = None
    if kap < 0.0:
        e_inf = escape_energy(kap, k)
        j_inf = escape_angular_momentum(kap, k)
    else:
        e_inf = j_inf = None
    return PotentialProfile(
        kappa=kap,
        k=k,
        j=j,
        critical_radius=r_min,
        critical_value=w_min,
        zero_crossings=tuple(turning_points(kap, k, j, 0.0)),
        e_cir=w_min,
        e_infinity=e_inf,
        j_infinity=j_inf,
        notes=notes,
    )
