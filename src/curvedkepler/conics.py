"""Conics with a focus at the origin on constant-curvature surfaces.

Every curve Tan_k(r) = D / (1 + ecc cos(phi - axis)) is a conic with one
focus at the pole.  On the sphere D = tan_k(p) for a unique semi-latus
length p.  On the hyperbolic plane tan_k saturates at 1/sqrt(-kappa), so
the size parameter D needs three charts: a latus length p while
D < 1/sqrt(-kappa), a complementary "colatus" length p_tilde beyond it,
and the separatrix exactly at the saturation value.  Classification by
eccentricity then depends on the size chart: hyperbolic geometry splits
the flat parabola point e = 1 into a whole interval of parabolas fenced
by horoellipses below and horohyperbolas above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DegenerateError, DomainError, InfeasibleError
from .geometry import PolarPoint, _distance
from .ktrig import _acot, _atan, _chart_limit, _check_finite, _cos, _cot_floor, _sin, _tan, curvature_value

#: half-width of every boundary class, relative in the far-apsis cotangent
#: (``_ladder``) and, for an orbit's circle, to the terms of its ecc**2
BOUNDARY_RTOL = 1e-9


class ConicFamily(Enum):
    """Size chart of a conic: which length parametrizes D."""

    LATUS = "latus"
    COLATUS = "colatus"
    SEPARATRIX = "separatrix"


class ConicLabel(Enum):
    CIRCLE = "circle"
    ELLIPSE = "ellipse"
    HOROELLIPSE = "horoellipse"
    PARABOLA = "parabola"
    EQUIPARABOLA = "equiparabola"
    HOROHYPERBOLA = "horohyperbola"
    HYPERBOLA = "hyperbola"
    LINE_PAIR = "line_pair"


class FocalKind(Enum):
    TWO_FOCI = "two_foci"
    FOCUS_LINE = "focus_line"


@dataclass(frozen=True)
class ConicSpec:
    """A conic: curvature, eccentricity and a size parameter.

    Exactly one of ``p`` (latus family), ``p_tilde`` (colatus family,
    hyperbolic plane only) or neither (separatrix, hyperbolic plane
    only) is set, matching ``family``.
    """

    kappa: float
    ecc: float
    family: ConicFamily
    p: float | None = None
    p_tilde: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "kappa", curvature_value(self.kappa))
        self._check_lengths()

    @classmethod
    def _checked(cls, kap: float, ecc: float, family: ConicFamily, p=None, p_tilde=None):
        """Spec of an already checked float kappa, built past the kappa check
        of ``__post_init__``; the lengths are checked as usual."""
        spec = object.__new__(cls)
        spec.__dict__.update(kappa=kap, ecc=ecc, family=family, p=p, p_tilde=p_tilde)
        spec._check_lengths()
        return spec

    def _check_lengths(self):
        if not self.ecc >= 0.0:
            raise DomainError(f"eccentricity must be >= 0, got {self.ecc!r}")
        if self.family is ConicFamily.LATUS:
            if self.p is None or not 0.0 < self.p < _chart_limit(self.kappa):
                raise DomainError(f"latus family needs 0 < p in range, got {self.p!r}")
            if self.p_tilde is not None:
                raise DomainError("latus family takes no p_tilde")
        elif self.family is ConicFamily.COLATUS:
            if self.kappa >= 0.0:
                raise DomainError("colatus family exists only for kappa < 0")
            if self.p_tilde is None or not 0.0 < self.p_tilde < math.inf:
                raise DomainError(f"colatus family needs p_tilde > 0, got {self.p_tilde!r}")
            if self.p is not None:
                raise DomainError("colatus family takes no p")
        else:
            if self.kappa >= 0.0:
                raise DomainError("the separatrix exists only for kappa < 0")
            if self.p is not None or self.p_tilde is not None:
                raise DomainError("the separatrix has no length parameter")

    @property
    def d(self) -> float:
        """Size parameter D of Tan_k(r) = D/(1 + ecc cos(phi))."""
        if self.family is ConicFamily.LATUS:
            return _tan(self.kappa, self.p)
        if self.family is ConicFamily.COLATUS:
            return 1.0 / ((-self.kappa) * _tan(self.kappa, self.p_tilde))
        return 1.0 / math.sqrt(-self.kappa)


@dataclass(frozen=True)
class ConicType:
    """Classified conic: table label plus the spherical sub-annotation.

    On the sphere every conic is an ellipse; ``higgs`` records whether it
    stays below the focus' equator ("sub"), touches it ("equatorial") or
    crosses into the far hemisphere ("super").
    """

    label: ConicLabel
    higgs: str | None = None


@dataclass(frozen=True)
class FocalElements:
    """Metric elements of a conic definition.

    Two-foci conics: ``half_separation`` = f (half the focal distance),
    ``half_axis`` = a (half the distance sum for ellipses, half the
    absolute difference for hyperbolas).  Focus-line conics use the
    analogous halves of the point-line data.  ``axis`` is the polar
    angle of the periastron direction; the second focus sits at
    (2f, axis + pi).
    """

    kind: FocalKind
    half_separation: float
    half_axis: float
    axis: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.half_separation) and self.half_separation >= 0.0):
            raise DomainError(
                f"half separation must be finite and >= 0, got {self.half_separation!r}"
            )
        if not (math.isfinite(self.half_axis) and self.half_axis > 0.0):
            raise DomainError(
                f"half axis must be finite and > 0, got {self.half_axis!r}"
            )

    @classmethod
    def two_foci(cls, f: float, a: float, axis: float = 0.0) -> "FocalElements":
        return cls(FocalKind.TWO_FOCI, f, a, axis)

    @classmethod
    def focus_line(cls, varphi: float, alpha: float, axis: float = 0.0) -> "FocalElements":
        return cls(FocalKind.FOCUS_LINE, varphi, alpha, axis)


def conic_from_dynamics(kappa, d: float, ecc: float) -> ConicSpec:
    """Conic of the orbit family with size D = d and eccentricity ecc.

    Solves the size chart: latus length when tan_k(p) = d has a
    solution, otherwise (hyperbolic plane, d beyond saturation) the
    complementary colatus length, or the separatrix at the saturation
    value exactly.
    """
    kap = curvature_value(kappa)
    if not (math.isfinite(d) and d > 0.0):
        raise DomainError(f"conic size must be positive and finite, got {d!r}")
    if not ecc >= 0.0:
        raise DomainError(f"eccentricity must be >= 0, got {ecc!r}")
    if kap < 0.0:
        sat = 1.0 / math.sqrt(-kap)
        if d / (1.0 + ecc) >= sat:
            raise DomainError(
                f"no periastron: d/(1+ecc) = {d / (1.0 + ecc)!r} does not stay "
                f"below the saturation length {sat!r}"
            )
        if d == sat:
            return ConicSpec._checked(kap, ecc, ConicFamily.SEPARATRIX)
        if d > sat:
            return ConicSpec._checked(kap, ecc, ConicFamily.COLATUS, p_tilde=_atan(kap, 1.0 / ((-kap) * d)))
    return ConicSpec._checked(kap, ecc, ConicFamily.LATUS, p=_atan(kap, d))


def _ladder(kap: float, d: float) -> tuple[float, float, float]:
    """(lo, hi, band): the eccentricities where the far apsis u = (1 - ecc)/d
    meets u* = max(_cot_floor(kappa), 0) (the horoellipse) and -u* (the
    horohyperbola), both 1 on the plane and the sphere, and the half-width
    in ecc of a band of ``BOUNDARY_RTOL`` max(1, u*) in u around a rung."""
    ustar = max(_cot_floor(kap), 0.0)
    return 1.0 - d * ustar, 1.0 + d * ustar, BOUNDARY_RTOL * abs(d) * max(1.0, ustar)


def _side(x: float, rung: float, band: float) -> int:
    """0, 1 or 2 as x is below, within band of, or above rung."""
    if abs(x - rung) <= band:
        return 1
    return 0 if x < rung else 2


def conic_thresholds(spec: ConicSpec) -> dict[str, float]:
    """Eccentricity thresholds of the conic's size chart, by name.

    ``ecc_equatorial`` on the sphere, ``ecc_parabola`` on the plane; on
    the hyperbolic plane ``ecc_horohyperbola`` in every chart, plus
    ``ecc_equiparabola`` in the latus and colatus charts and
    ``ecc_horoellipse`` in the latus chart only.
    """
    kap, family = spec.kappa, spec.family
    if kap >= 0.0:  # lo = hi = 1 at every size, so D is not needed
        return {"ecc_equatorial" if kap > 0.0 else "ecc_parabola": 1.0}
    lo, hi, _ = _ladder(kap, spec.d)
    equi = None if family is ConicFamily.SEPARATRIX else equiparabola_ecc(spec)
    named = {"ecc_horoellipse": lo if family is ConicFamily.LATUS else None, "ecc_horohyperbola": hi,
             "ecc_equiparabola": equi}
    return {name: ecc for name, ecc in named.items() if ecc is not None}


# (below lo, at lo, between, at hi, above hi) of the ladder, per regime:
# hyperbolic, flat, spherical (index (kappa >= 0) + (kappa > 0)); on the plane
# and the sphere lo = hi, so "between" and "at hi" are never reached
_CONIC_ROWS = (
    tuple(map(ConicType, (ConicLabel.ELLIPSE, ConicLabel.HOROELLIPSE, ConicLabel.PARABOLA,
                          ConicLabel.HOROHYPERBOLA, ConicLabel.HYPERBOLA))),
    tuple(map(ConicType, (ConicLabel.ELLIPSE, ConicLabel.PARABOLA, ConicLabel.PARABOLA,
                          ConicLabel.PARABOLA, ConicLabel.HYPERBOLA))),
    tuple(ConicType(ConicLabel.ELLIPSE, higgs)
          for higgs in ("sub", "equatorial", "equatorial", "equatorial", "super")),
)


def classify_conic(spec: ConicSpec) -> ConicType:
    """Eccentricity-interval classification of a conic.

    The thresholds are those of :func:`conic_thresholds`; each boundary
    class (horoellipse, horohyperbola, flat parabola, equiparabola,
    spherical equatorial) is the band of ``_ladder`` around its rung, as
    in classify_orbit.  The circle is ecc = 0 (``cli.classify_record``
    gives an orbit in its circle band that conic).  The checks run lo, hi,
    equi: in the colatus chart the equiparabola can lie above the
    horohyperbola, and is then a hyperbola.
    """
    ecc, kap, family = spec.ecc, spec.kappa, spec.family
    if math.isinf(ecc):
        return ConicType(ConicLabel.LINE_PAIR)
    lo, hi, band = _ladder(kap, spec.d)
    row = _CONIC_ROWS[(kap >= 0.0) + (kap > 0.0)]
    if family is ConicFamily.LATUS:
        if ecc == 0.0:
            return ConicType(ConicLabel.CIRCLE)
        side = _side(ecc, lo, band)
        if side < 2:
            return row[side]
    side = _side(ecc, hi, band)
    if side:
        return row[2 + side]
    if kap < 0.0 and family is not ConicFamily.SEPARATRIX and _side(ecc, equiparabola_ecc(spec), band) == 1:
        return ConicType(ConicLabel.EQUIPARABOLA)
    return row[2]


def equiparabola_ecc(spec: ConicSpec) -> float:
    """Eccentricity of the equiparabola sharing the conic's size chart.

    1/cos_k(p) in the latus chart and cos_k(p_tilde) in the colatus
    chart; equals sqrt(1 + kappa tan_k(p)**2) and degenerates to 1 (the
    unique parabola) on the flat plane.
    """
    if spec.family is ConicFamily.LATUS:
        return 1.0 / _cos(spec.kappa, spec.p)
    if spec.family is ConicFamily.COLATUS:
        return _cos(spec.kappa, spec.p_tilde)
    raise DegenerateError("the separatrix chart carries no equiparabola value")


def ecc_from_focal(kappa, fe: FocalElements) -> float:
    """Eccentricity from metric focal elements.

    sin_k(2f)/sin_k(2a) for two-foci conics, cos_k(2 varphi)/cos_k(2 alpha)
    for focus-line conics (identically 1 on the flat plane).
    """
    kap = curvature_value(kappa)
    trig, zero = (_sin, "sin_k(2a) = 0 at a") if fe.kind is FocalKind.TWO_FOCI else (
        _cos, "cos_k(2 alpha) = 0 at alpha")
    # 2a or 2f can overflow: the argument check of sin_k and cos_k stays
    den = trig(kap, _check_finite(2.0 * fe.half_axis))
    # the exact zero (2a at the antipode on the sphere, 2 alpha at the
    # equator) lands on a float residue ~1e-16, so degeneracy needs a snap window
    if abs(den) < 1e-14:
        raise DegenerateError(f"degenerate axis: {zero} = {fe.half_axis!r}")
    return trig(kap, _check_finite(2.0 * fe.half_separation)) / den


def focal_from_vertices(kappa, r_per: float, r_apo: float, axis: float = 0.0) -> FocalElements:
    """Two-foci elements of the conic with vertices at r_per and r_apo.

    Both vertices lie on the symmetry axis on opposite sides of the
    origin focus, so the focal half-separation and half-axis follow
    from plain lengths along one geodesic: f = (r_apo - r_per)/2,
    a = (r_per + r_apo)/2.
    """
    kap = curvature_value(kappa)
    if not math.isfinite(r_apo):
        raise InfeasibleError("unbounded orbit: no outer vertex, no focal elements")
    if not 0.0 < r_per <= r_apo:
        raise DomainError(f"need 0 < r_per <= r_apo, got {r_per!r}, {r_apo!r}")
    limit = _chart_limit(kap)
    if r_apo >= limit:
        raise DomainError(f"outer vertex {r_apo!r} reaches the antipode bound {limit!r}")
    return FocalElements.two_foci(
        0.5 * (r_apo - r_per), 0.5 * (r_per + r_apo), axis=axis
    )


def verify_conic_definition(kappa, samples, fe: FocalElements, sign: str = "sum") -> float:
    """Max deviation of samples from the metric conic definition.

    For each sample point computes the geodesic distances d1, d2 to the
    origin focus and to the second focus, and returns
    max |(d1 + d2) - 2a| (sign="sum", ellipses) or max ||d1 - d2| - 2a|
    (sign="difference", hyperbolas).  The second focus sits on the
    symmetry axis at distance 2f: opposite the periastron (axis + pi)
    for a sum conic, through the periastron vertex (axis) for a
    difference conic, whose near branch bends around the origin focus.
    """
    kap = curvature_value(kappa)
    if len(samples) < 8:
        raise DomainError(f"need at least 8 sample points, got {len(samples)}")
    if sign not in ("sum", "difference"):
        raise DomainError(f"sign must be 'sum' or 'difference', got {sign!r}")
    origin = PolarPoint(0.0, 0.0)
    other_angle = fe.axis + math.pi if sign == "sum" else fe.axis
    other = PolarPoint(2.0 * fe.half_separation, other_angle)
    worst = 0.0
    for pt in samples:
        d1 = _distance(kap, pt, origin)
        d2 = _distance(kap, pt, other)
        combined = d1 + d2 if sign == "sum" else abs(d1 - d2)
        worst = max(worst, abs(combined - 2.0 * fe.half_axis))
    return worst


@dataclass(frozen=True)
class PeriastronFamily:
    """Size landmarks of the conics sharing one periastron radius.

    All entries are D values (tangents of latus lengths).  Growing the
    eccentricity at fixed periastron sweeps D upward from ``d_circle``;
    ``d_horoellipse`` and ``d_horohyperbola`` fence the parabola band
    (they coincide on the flat plane, where the parabola is unique).
    ``colatus_tangent`` is tan_k(p_tilde) at the horohyperbola landmark
    when that landmark lives in the colatus chart, else None.
    """

    kappa: float
    r_per: float
    d_circle: float
    d_horoellipse: float
    d_horohyperbola: float
    colatus_tangent: float | None

    @property
    def ecc_horoellipse(self) -> float:
        return self.d_horoellipse / self.d_circle - 1.0

    @property
    def ecc_horohyperbola(self) -> float:
        return self.d_horohyperbola / self.d_circle - 1.0

    @property
    def ecc_equiparabola(self) -> float:
        """Eccentricity of the family member that is an equiparabola.

        Solving ecc = 1/cos_k(p) with D = d_circle (1 + ecc) gives
        (1 - (cT)^2)/(1 + (cT)^2); on the flat plane this is 1, the
        parabola itself.
        """
        ct2 = -self.kappa * self.d_circle * self.d_circle
        return (1.0 - ct2) / (1.0 + ct2)

    @property
    def parabola_band_width(self) -> float:
        return self.d_horohyperbola - self.d_horoellipse


def periastron_family(kappa, r_per: float) -> PeriastronFamily:
    """Landmark D values of the conic family with periastron r_per.

    With D = Tan_k(r_per) (1 + ecc), the classification thresholds
    become D landmarks: D < 2T/(1 + cT) are ellipses, the parabola band
    runs up to 2T/(1 - cT) (c = sqrt(-kappa)), and everything above is a
    hyperbola.  On the flat plane both landmarks collapse to 2 r_per.
    cT = tanh(c r_per) rounds to 1 once c r_per exceeds about 18.7; from
    there on the chain has no landmark in double precision, and
    :class:`DomainError` is raised.
    """
    kap = curvature_value(kappa)
    if kap > 0.0:
        raise DomainError(
            "no landmark chain on the sphere: every eccentricity gives an ellipse"
        )
    if not (math.isfinite(r_per) and r_per > 0.0):
        raise DomainError(f"periastron radius must be positive and finite, got {r_per!r}")
    t = _tan(kap, r_per)
    # c = sqrt(-kappa), the ladder's u* (0 on the plane, where both landmarks are 2T)
    c = _cot_floor(kap)
    # ct = tanh(c r_per) < 1, but it rounds to 1 (or a hair above) once
    # c r_per > 18.7, where 1 - ct would divide by zero
    ct = c * t
    if ct >= 1.0:
        raise DomainError(f"periastron tangent {t!r} reaches saturation {1.0 / c!r}")
    d_he = 2.0 * t / (1.0 + ct)
    d_hh = 2.0 * t / (1.0 - ct)
    # the horohyperbola landmark crosses into the colatus chart once
    # d_hh exceeds the saturation size 1/c
    colatus_tangent = (1.0 - ct) / (2.0 * c * c * t) if c * d_hh > 1.0 else None
    return PeriastronFamily(kap, r_per, t, d_he, d_hh, colatus_tangent)


def _radius_at(kap: float, d: float, ecc: float, theta: float) -> float | None:
    """Radius of Tan_k(r) = d/(1 + ecc cos(theta)) on the physical branch, or
    None where the ray misses the conic (at or past an asymptote).  On plain
    floats: a u that overflows (a huge ecc or a tiny d) reports the check
    acot_k makes of its argument."""
    u = _check_finite((1.0 + ecc * math.cos(theta)) / d)
    return _acot(kap, u) if u > _cot_floor(kap) else None


def sample_conic(spec: ConicSpec, phi_grid) -> list[PolarPoint]:
    """Physical-branch points of the conic at the grid angles.

    Angles whose ray misses the curve (open conics past their
    asymptotes) are omitted; on the sphere every angle has a point and
    super-equatorial conics cross r = pi/(2 sqrt(kappa)) smoothly.
    """
    kap, d, ecc = spec.kappa, spec.d, spec.ecc
    out = []
    for phi in phi_grid:
        phi = _check_finite(phi)
        r = _radius_at(kap, d, ecc, phi)
        if r is not None:
            out.append(PolarPoint(r, phi))
    return out
