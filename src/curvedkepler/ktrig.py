"""Curvature-tagged trigonometry.

The kernel of the package: cosine / sine / tangent families that
interpolate smoothly between circular (kappa > 0), linear (kappa = 0)
and hyperbolic (kappa < 0) behaviour, plus their principal inverses.
Everything downstream (metric, potentials, orbits, conics) is written
in terms of these functions, so one code path serves the sphere, the
plane and the hyperbolic plane.

Conventions: lengths are geodesic lengths, angles are radians and the
curvature carries dimension 1/length**2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PoleError

# Below this value of |kappa * x**2| the scaled trig functions are
# evaluated by truncated series.  The direct formulas stay finite there
# too, but the series guarantees the flat limit is reached exactly, and
# the first omitted term (~(kappa x^2)^3 / 5040) is far below double
# precision at the threshold.
SERIES_THRESHOLD = 1e-8

# Absolute snap distance (in the rescaled angle sqrt(kappa)*x) within
# which a tangent argument is treated as sitting on a pole.
_POLE_SNAP = 1e-12


@dataclass(frozen=True)
class Curvature:
    """Signed Gaussian curvature of the working surface."""

    kappa: float

    def __post_init__(self):
        k = self.kappa
        if not isinstance(k, (int, float)) or not math.isfinite(k):
            raise DomainError(f"curvature must be a finite real, got {k!r}")

    @property
    def regime(self) -> str:
        """'spherical', 'flat' or 'hyperbolic' according to the sign."""
        if self.kappa > 0:
            return "spherical"
        if self.kappa < 0:
            return "hyperbolic"
        return "flat"

    @property
    def c(self) -> float:
        """sqrt(|kappa|), the inverse length scale of the surface."""
        return math.sqrt(abs(self.kappa))

    def __float__(self) -> float:
        return float(self.kappa)


def curvature_value(kappa) -> float:
    """Accept a ``Curvature`` or a bare number, return the float value."""
    if isinstance(kappa, Curvature):
        return kappa.kappa
    k = float(kappa)
    if not math.isfinite(k):
        raise DomainError(f"curvature must be a finite real, got {kappa!r}")
    return k


def _chart_limit(k: float) -> float:
    return math.pi / math.sqrt(k) if k > 0 else math.inf


def _cot_floor(k: float) -> float:
    """Infimum of cot_k over the radial chart, its value at the far end:
    sqrt(-kappa) on the hyperbolic plane, 0 on the plane, -inf on the
    sphere.  A cotangent u has a radius exactly when u > _cot_floor(k)."""
    return math.sqrt(-k) if k < 0.0 else 0.0 if k == 0.0 else -math.inf


def radial_limit(kappa) -> float:
    """Upper end of the radial chart: pi/sqrt(kappa) on the sphere, inf below."""
    return _chart_limit(curvature_value(kappa))


def _check_finite(x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"argument must be finite, got {x!r}")
    return x


# Each tagged function is written once below, as a private formula on a
# float kappa and a finite float argument; the public name checks both
# and calls it.  Package code calls the formulas directly.


def _atan_series(y, ky2):
    # atan / atanh series share coefficients once written in kappa
    return y * (1.0 - ky2 / 3.0 + 0.2 * ky2 * ky2)


def _cos(k: float, x: float) -> float:
    kx2 = k * x * x
    if abs(kx2) < SERIES_THRESHOLD:
        return 1.0 - kx2 / 2.0 + kx2 * kx2 / 24.0
    if k > 0:
        return math.cos(math.sqrt(k) * x)
    return math.cosh(math.sqrt(-k) * x)


def cos_k(kappa, x: float) -> float:
    """Tagged cosine: cos(sqrt(k)x), 1, or cosh(sqrt(-k)x) by sign of kappa."""
    return _cos(curvature_value(kappa), _check_finite(x))


def _sin(k: float, x: float) -> float:
    kx2 = k * x * x
    if abs(kx2) < SERIES_THRESHOLD:
        return x * (1.0 - kx2 / 6.0 + kx2 * kx2 / 120.0)
    if k > 0:
        rk = math.sqrt(k)
        return math.sin(rk * x) / rk
    rk = math.sqrt(-k)
    return math.sinh(rk * x) / rk


def sin_k(kappa, x: float) -> float:
    """Tagged sine: sin(sqrt(k)x)/sqrt(k), x, or sinh(sqrt(-k)x)/sqrt(-k)."""
    return _sin(curvature_value(kappa), _check_finite(x))


def _sincos(k: float):
    if k == 0.0:
        return lambda x: (x, 1.0)
    rk = math.sqrt(abs(k))
    sin, cos = (math.sin, math.cos) if k > 0.0 else (math.sinh, math.cosh)
    thr = SERIES_THRESHOLD

    def sc(x):
        kx2 = k * x * x
        if -thr < kx2 < thr:
            return (_sin(k, x), _cos(k, x))
        a = rk * x
        return (sin(a) / rk, cos(a))

    return sc


def sincos_k(kappa):
    """Evaluator x -> (sin_k(x), cos_k(x)) for one curvature.

    The sign branch is picked once, here, so each call costs one series
    test and one pair of circular or hyperbolic functions.  The values
    are bit-identical to :func:`sin_k` and :func:`cos_k`; the argument
    is not validated, so callers pass finite floats.
    """
    return _sincos(curvature_value(kappa))


def _tan(k: float, x: float) -> float:
    if k > 0:
        ang = math.sqrt(k) * x
        n = round(ang / math.pi - 0.5)  # nearest pole is at (n + 1/2)*pi
        nearest_pole = (n + 0.5) * math.pi
        if abs(ang - nearest_pole) < _POLE_SNAP:
            # tan blows up to +inf on the lower side of every pole and
            # to -inf on the upper side; report the caller's side.
            sign = 1 if ang <= nearest_pole else -1
            raise PoleError(f"tan_k pole at sqrt(kappa)*x = (n + 1/2)*pi (x = {x!r})", sign)
    return _sin(k, x) / _cos(k, x)


def tan_k(kappa, x: float) -> float:
    """Tagged tangent sin_k/cos_k.

    On the sphere the poles at sqrt(kappa)*x = pi/2 + n*pi raise
    :class:`PoleError` whose ``sign`` is the sign of the one-sided limit
    from below, so callers can branch rather than catch an IEEE inf.
    """
    return _tan(curvature_value(kappa), _check_finite(x))


def _atan(k: float, y: float) -> float:
    ky2 = k * y * y
    if abs(ky2) < SERIES_THRESHOLD:
        return _atan_series(y, ky2)
    if k > 0:
        rk = math.sqrt(k)
        return math.atan(rk * y) / rk
    rk = math.sqrt(-k)
    if abs(y) * rk >= 1.0:
        raise DomainError(
            f"atan_k: |y| = {abs(y)!r} at or beyond hyperbolic saturation 1/sqrt(-kappa) = {1.0 / rk!r}"
        )
    return math.atanh(rk * y) / rk


def atan_k(kappa, y: float) -> float:
    """Principal inverse of tan_k.

    For kappa < 0 the tangent saturates at 1/sqrt(-kappa); values at or
    beyond the saturation bound raise :class:`DomainError`.
    """
    return _atan(curvature_value(kappa), _check_finite(y))


def _acot(k: float, u: float) -> float:
    floor = _cot_floor(k)
    if u <= floor:
        raise DomainError(f"acot_k: no radius has cotangent {u!r} <= {floor!r}, the chart's far end")
    if k > 0:
        rk = math.sqrt(k)
        # atan2(1, u/rk) is the principal arccotangent on (0, pi); it is
        # exact for large |u| where pi/2 - atan would cancel.
        return math.atan2(1.0, u / rk) / rk
    if k == 0:
        return 1.0 / u
    rk = floor
    if u * u * SERIES_THRESHOLD > -k:
        # |kappa|/u^2 < threshold: the atan_k series applied to 1/u
        w = 1.0 / u
        return _atan_series(w, k * w * w)
    # atanh(rk/u) written so that u - rk, exact near the plateau, is
    # what atanh's amplification acts on instead of the rounding of rk/u
    return 0.5 * math.log1p(2.0 * rk / (u - rk)) / rk


def acot_k(kappa, u: float) -> float:
    """Radius r on the physical branch with cos_k(r)/sin_k(r) = u.

    On the sphere the branch is (0, pi/sqrt(kappa)), continuous through
    u = 0 (the equator).  u must exceed the cotangent at the far end of
    the chart, sqrt(-kappa) on the hyperbolic plane and 0 on the plane;
    otherwise no radius exists and :class:`DomainError` is raised.
    """
    return _acot(curvature_value(kappa), _check_finite(u))


def _acot_array(k: float, u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if k > 0.0:
        rk = math.sqrt(k)
        return np.arctan2(1.0, u / rk) / rk
    if k == 0.0:
        return 1.0 / u
    rk = math.sqrt(-k)
    w = 1.0 / u
    direct = 0.5 * np.log1p(2.0 * rk / (u - rk)) / rk
    return np.where(u * u * SERIES_THRESHOLD > -k, _atan_series(w, k * w * w), direct)


def acot_k_array(kappa, u) -> np.ndarray:
    """Radius of every cotangent in u, with the branches of :func:`acot_k`.

    The hyperbolic series branch is taken where kappa/u**2 is below
    ``SERIES_THRESHOLD``, in the same operation order as :func:`acot_k`;
    elsewhere numpy's arctan2 or log1p, whose last bit can differ from
    the ``math`` module's.  The argument is not validated, so callers
    pass values on the physical branch, above ``_cot_floor``.
    """
    return _acot_array(curvature_value(kappa), u)
