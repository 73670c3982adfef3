"""Reduced radial problem: effective potential, turning points, orbit classes.

For angular momentum j the radial motion happens in the effective
potential

    W(r) = -k cot_k(r) + j**2 / (2 sin_k(r)**2)
         = -k u + (j**2/2) (u**2 + kappa),      u = cos_k(r)/sin_k(r),

a quadratic in u, the same for every curvature.  The turning points
are its closed-form roots mapped back to radii by acot_k, and the
landmarks of the (j, E) plane are W at the vertex u = k/j**2 (the
circle) and at u* = max(_cot_floor(kappa), 0), the equator on the sphere
and infinity elsewhere.  One analysis of the pair, ``_orbit``, decides
its class in eccentricity, as for the orbit's conic, and its turning
points; classify_orbit, turning_points and the CLI's classify record all
read it, memoized per pair (see ``_radial_roots``, ``conics._escape_side``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

from .conics import BOUNDARY_RTOL, _escape_side, _side
from .errors import CurvedKeplerError, DomainError, InfeasibleError, NumericalError
from .geometry import check_interior_radius
from .ktrig import _acot, _atan, _check_finite, _cos, _cot_floor, _sin, curvature_value

#: relative distance above the minimum of W that still has the double root
_TANGENCY_RTOL = 1e-12
#: pairs ``_orbit`` remembers; a caller asks its questions of one pair in a row
_ORBIT_MEMO = 32


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
    """W at the cotangent u = cot_k(r); where u**2 overflows, u is factored
    out of -k u + (j u)**2/2, whose terms may both overflow, and j u goes
    first (j**2 may be 0)."""
    uu = u * u
    if uu == math.inf:
        return u * (0.5 * j * (j * u) - k) + 0.5 * j * j * kap
    return -k * u + 0.5 * j * j * (uu + kap)


def _w(kap: float, k: float, j: float, r: float) -> float:
    r = check_interior_radius(kap, r)
    return _w_u(kap, k, j, _cos(kap, r) / _sin(kap, r))


def w_eff(kappa, k: float, j: float, r: float) -> float:
    """Effective radial potential at radius r."""
    return _w(*_inputs(kappa, k, j), j, r)


def _conic_size(k: float, j: float):
    """(j**2, d = j**2/k), the conic size of j != 0; NumericalError unless
    both are positive finite floats."""
    j2 = j * j
    d = j2 / k
    if not 0.0 < d < math.inf:
        raise NumericalError(f"j={j!r} gives j**2 = {j2!r} and j**2/k = {d!r}, not positive finite")
    return j2, d


def _critical(kap: float, k: float, j: float):
    """(r_min, w_min) at the vertex u = k/j**2 of W, or None without one;
    ``_conic_size`` checks j."""
    if j == 0.0:
        return None
    j2, d = _conic_size(k, j)
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
    return _landmarks(kap, k, 0.0, None)[2]


def _radial_roots(kap: float, k: float, j: float, e: float):
    """Conic elements (d, circle, ecc, u_per, u_apo) of the pair (j, e), j != 0.

    W(u) = e is the quadratic (j**2/2) u**2 - k u + (kappa j**2/2 - e) = 0
    with roots u = (1 +- ecc)/d, d = j**2/k.  ``circle`` is the
    ``conics._side`` of ecc**2 k**2 = k**2 + 2 j**2 (e - kappa j**2/2),
    signed, against 0 in a band of ``BOUNDARY_RTOL`` times the terms it
    sums, which scale its rounding and that of an e at the minimum of W:
    0 below the minimum, 1 the circle.  The larger root comes from the
    sum form and the smaller from the product of the roots, kappa -
    2e/j**2, so neither cancels as ecc -> 1.  A negative ecc**2 is
    clamped to the double root, ecc = 0.
    """
    j2, d = _conic_size(k, j)
    disc = k * k + 2.0 * j2 * (e - 0.5 * kap * j2)
    circle = _side(disc, 0.0, BOUNDARY_RTOL * (k * k + j2 * (2.0 * abs(e) + abs(kap) * j2)))
    root = math.sqrt(max(0.0, disc))
    u_per = (k + root) / j2
    return d, circle, root / k, u_per, (kap - 2.0 * e / j2) / u_per


def turning_points(kappa, k: float, j: float, e: float) -> list[float]:
    """All radii with W(r) = e, sorted; a tangency is reported twice.

    In u = cot_k(r) the potential is the quadratic
    W(u) = -k u + (j**2/2)(u**2 + kappa), and the roots are the closed-form
    cotangents of ``_orbit``, the one analysis of the pair that classify_orbit
    reads too, in a bounded memo of pure results that threads share: an open
    orbit has no apoastron, and a pair it calls infeasible no root.  A root
    counts when it lies on the physical branch of acot_k.  An energy with
    ecc**2 in the circle band and within _TANGENCY_RTOL of the minimum of W,
    on a bounded orbit, has the double root r_min.  Each other radius is
    verified to satisfy |W(r) - e| <
    1e-11 max(1, |e|) + 4 |dW/dr| ulp(r) + eps (k |u| + (j**2/2)(u**2 + |kappa|)):
    one rounding of r moves W by |dW/dr| ulp(r), and evaluating W rounds by
    eps times its terms; CurvedKeplerError reports a miss.
    """
    return _turning_points(*_inputs(kappa, k, j, e), j, e)


def _turning_points(kap: float, k: float, j: float, e: float) -> list[float]:
    try:
        orbit_class, _, _, circle, us, crit = _orbit(kap, k, j, e)
    except InfeasibleError:  # below the minimum of W, or up to the plateau without one
        return []
    # the double root is a circle's (below the minimum, the only root left);
    # an open orbit has none, however shallow its well, and a bounded one has a well
    if orbit_class.bounded and circle and e - crit[1] <= _TANGENCY_RTOL * max(1.0, abs(e), abs(crit[1])):
        return [crit[0], crit[0]]
    # a root that overflowed reports the check acot_k makes of its argument;
    # then the radial stop, and a periastron one rounding above the plateau,
    # have a radius only above the chart's far end
    floor = _cot_floor(kap)
    pairs = sorted((_acot(kap, u), u) for u in map(_check_finite, us) if u > floor)

    base_tol = 1e-11 * max(1.0, abs(e))
    for r, u in pairs:
        if not math.isfinite(r):  # on the plane r = 1/u is inf for u < 1/max_float
            raise DomainError(f"turning point at u={u!r} has no finite radius, got r={r!r}")
        residual = _w(kap, k, j, r) - e
        # the roots are exact in u, but where W is steep in r (near the
        # antipode of a nearly flat sphere, or close in for a small j) one
        # ulp of r can move W by more than base_tol, by |j**2 u - k| |u**2 + kappa|
        # ulp(r) at most, here grouped so that it stays finite where u**2 overflows
        shift = abs(j * j * u - k) * (abs(u) * (abs(u) * math.ulp(r)) + abs(kap) * math.ulp(r))
        # and where W's terms cancel (k u >> |e|), W's own rounding does
        ju = j * u
        rounding = math.ulp(1.0) * (k * abs(u) + 0.5 * (ju * ju + j * j * abs(kap)))
        tol = base_tol + 4.0 * shift + rounding
        if not abs(residual) < tol:
            raise CurvedKeplerError(
                f"turning point verification failed at r={r!r}: W(r) - e = "
                f"{residual!r}, tol {tol!r}; at u={u!r} the residual W(u) - e = "
                f"{_w_u(kap, k, j, u) - e!r}, and one ulp(r) = {math.ulp(r)!r} moves W(r) by {shift!r}"
            )
    return [r for r, _ in pairs]


#: orbit classes below, at and above lo of conics._ladder, then the circle,
#: for kappa < 0, = 0, > 0
_CLASS_ROWS = tuple(
    tuple(OrbitClass(label, label in BOUNDED_LABELS) for label in row)
    for row in (
        (OrbitLabel.HYP_ELLIPSE, OrbitLabel.HYP_HOROELLIPSE, OrbitLabel.HYP_OPEN, OrbitLabel.HYP_CIRCLE),
        (OrbitLabel.FLAT_ELLIPSE, OrbitLabel.FLAT_PARABOLA, OrbitLabel.FLAT_HYPERBOLA, OrbitLabel.CIRCLE),
        (OrbitLabel.SPHERICAL_ELLIPSE_SUB, OrbitLabel.SPHERICAL_ELLIPSE_EQUATORIAL,
         OrbitLabel.SPHERICAL_ELLIPSE_SUPER, OrbitLabel.CIRCLE),
    )
)


@functools.lru_cache(maxsize=_ORBIT_MEMO, typed=True)
def _orbit(kap: float, k: float, j: float, e: float):
    """The one analysis of the pair (j, e): (class, d, ecc, circle, us, crit).

    ``crit`` is ``_critical``, (d, ecc) the conic of ``_radial_roots`` (ecc
    0 for a circle, both None for j = 0), ``circle`` whether ecc**2 is in
    its circle band, and ``us`` the cotangents of the turning points: 0 - e/k
    for j = 0 (+0 at e = +-0), else (u_per, u_apo), the apoastron dropped
    when the class is not bounded.  ``conics._escape_side`` of ecc picks the
    class's column; below the escape rung ecc**2 in the circle band is the
    circle.  Without a well (kappa < 0, j beyond escape) every orbit is open.
    InfeasibleError where no orbit has the pair: below the circle band, or
    without a well at or below the plateau.

    Memoized by value and type for ``_ORBIT_MEMO`` pairs: the immutable
    result is the pair's alone, so threads share it; errors are not kept.
    """
    crit = _critical(kap, k, j)
    if j == 0.0:
        return OrbitClass(OrbitLabel.RADIAL_COLLISION, bounded=False), None, None, False, (0.0 - e / k,), crit
    if crit is None:
        # saturated: W falls monotonically to the plateau, never reaching it
        landmark = _landmark(kap, k, j)
        if e <= landmark:
            raise InfeasibleError(f"energy {e!r} not attainable without a potential well (plateau {landmark!r})")
    d, circle, ecc, u_per, u_apo = _radial_roots(kap, k, j, e)
    if crit is not None and not circle:
        raise InfeasibleError(f"energy {e!r} below the potential minimum {crit[1]!r}")
    side = 2 if crit is None else _escape_side(kap, d, ecc)  # without a well, open
    if side == 0 and circle == 1:
        side, ecc = 3, 0.0  # the circle, whose conic has ecc 0
    orbit_class = _CLASS_ROWS[(kap >= 0.0) + (kap > 0.0)][side]
    return orbit_class, d, ecc, circle == 1, (u_per, u_apo) if orbit_class.bounded else (u_per,), crit


def classify_orbit(kappa, k: float, j: float, e: float) -> OrbitClass:
    """Qualitative orbit class of an (energy, angular momentum) pair.

    The class of the one analysis ``_orbit`` of the pair, which
    turning_points and the CLI's classify record read too, memoized: both
    decide a pair once.  InfeasibleError where no orbit has the pair.
    """
    return _orbit(*_inputs(kappa, k, j, e), j, e)[0]


def _landmarks(kap: float, k: float, j: float, crit) -> tuple:
    """(e_circular, e_infinity, j_infinity): W at the vertex ``crit`` (None
    without one), and on the hyperbolic plane only the plateau and the escape
    j, j**2 = k/sqrt(-kappa), beyond which W has no minimum."""
    e_circular = None if crit is None else crit[1]
    if kap < 0.0:
        return e_circular, _landmark(kap, k, j), math.sqrt(k / math.sqrt(-kap))
    return e_circular, None, None


def potential_profile(kappa, k: float, j: float) -> PotentialProfile:
    """All landmarks of W for (kappa, k, j) in one record."""
    kap, k = _inputs(kappa, k, j)
    crit = _critical(kap, k, j)
    e_circular, e_infinity, j_infinity = _landmarks(kap, k, j, crit)
    notes = None if crit else (
        "no centrifugal barrier: potential is monotone" if j == 0.0 else "centrifugal term saturates: no minimum"
    )
    return PotentialProfile(
        kappa=kap,
        k=k,
        j=j,
        critical_radius=None if crit is None else crit[0],
        critical_value=e_circular,
        zero_crossings=tuple(_turning_points(kap, k, j, 0.0)),
        e_infinity=e_infinity,
        j_infinity=j_infinity,
        notes=notes,
    )
