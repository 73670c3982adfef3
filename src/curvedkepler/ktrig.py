"""Curvature-tagged trigonometry.

The kernel of the package: cosine / sine / tangent families that
interpolate smoothly between circular (kappa > 0), linear (kappa = 0)
and hyperbolic (kappa < 0) behaviour, plus their principal inverses.
Everything downstream (metric, potentials, orbits, conics) is written
in terms of these functions, so one code path serves the sphere, the
plane and the hyperbolic plane.  The kernel of the closed-form time
laws, phi(y) = atan(sqrt(y))/sqrt(y), and its pairs live here too.

Conventions: lengths are geodesic lengths, angles are radians and the
curvature carries dimension 1/length**2.
"""

from __future__ import annotations

import cmath
import math
from textwrap import indent
from types import SimpleNamespace

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


def curvature_value(kappa) -> float:
    """The curvature as a float; DomainError unless it is finite."""
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


def _source(src: str, filename: str, **namespace) -> dict:
    """The names that the source ``src`` defines, compiled as ``filename``."""
    exec(compile(src, filename, "exec"), namespace)
    return namespace


_SINCOS_NAMES = dict(sqrt=math.sqrt, msin=math.sin, mcos=math.cos, msinh=math.sinh, mcosh=math.cosh)
# sin_k(r), cos_k(r) by their truncated series, as source over r and kr2 =
# kappa r**2: _sin, _cos and the sincos text (_SINCOS) are compiled from it,
# so the integrator's kernels take the series band without a call.
_SERIES = ("r * (1.0 - kr2 / 6.0 + kr2 * kr2 / 120.0)", "1.0 - kr2 / 2.0 + kr2 * kr2 / 24.0")
_trig = _source(
    f"""def _cos(k, r):
    kr2 = k * r * r
    if abs(kr2) < {SERIES_THRESHOLD!r}:
        return {_SERIES[1]}
    if k > 0:
        return mcos(sqrt(k) * r)
    return mcosh(sqrt(-k) * r)
def _sin(k, r):
    kr2 = k * r * r
    if abs(kr2) < {SERIES_THRESHOLD!r}:
        return {_SERIES[0]}
    if k > 0:
        rk = sqrt(k)
        return msin(rk * r) / rk
    rk = sqrt(-k)
    return msinh(rk * r) / rk""",
    "<sin_k, cos_k>",
    **_SINCOS_NAMES,
)
_sin, _cos = _trig["_sin"], _trig["_cos"]


def cos_k(kappa, x: float) -> float:
    """Tagged cosine: cos(sqrt(k)x), 1, or cosh(sqrt(-k)x) by sign of kappa."""
    return _cos(curvature_value(kappa), _check_finite(x))


def sin_k(kappa, x: float) -> float:
    """Tagged sine: sin(sqrt(k)x)/sqrt(k), x, or sinh(sqrt(-k)x)/sqrt(-k)."""
    return _sin(curvature_value(kappa), _check_finite(x))


# s, c = sin_k(r), cos_k(r) as source: per regime, a setup run once per curvature
# and a text run per radius.  _sincos is compiled from them, and the Kepler flow's
# rows (dynamics._KEPLER_ROWS) write them into the DOP853 kernels: one copy.
_SINCOS = {
    "flat": ("", "s, c = r, 1.0"),
    "curved": (
        "rk = sqrt(abs(kappa)); sin, cos = (msin, mcos) if kappa > 0.0 else (msinh, mcosh)",
        "kr2 = kappa * r * r\n"
        f"if {-SERIES_THRESHOLD!r} < kr2 < {SERIES_THRESHOLD!r}: s, c = {_SERIES[0]}, {_SERIES[1]}\n"
        "else: a = rk * r; s, c = sin(a) / rk, cos(a)",
    ),
}
_sincos = _source(
    f"""def _sincos(kappa):
    if kappa == 0.0:
        return flat
    {_SINCOS["curved"][0]}
    def sc(r):
{indent(_SINCOS["curved"][1], " " * 8)}
        return s, c
    return sc
def flat(r):
    {_SINCOS["flat"][1]}
    return s, c""",
    "<sincos_k>",
    **_SINCOS_NAMES,
)["_sincos"]


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
    if k == 0:
        return 1.0 / u
    if u > 0.0 and u * u * SERIES_THRESHOLD > abs(k):
        # |kappa|/u^2 < threshold: the atan_k series applied to 1/u, which
        # also keeps u/sqrt(kappa) from overflowing on a nearly flat sphere
        w = 1.0 / u
        return _atan_series(w, k * w * w)
    if k > 0:
        rk = math.sqrt(k)
        # atan2(1, u/rk) is the principal arccotangent on (0, pi); it is
        # exact for large |u| where pi/2 - atan would cancel.
        return math.atan2(1.0, u / rk) / rk
    rk = floor
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
    """acot_k of an array of cotangents on the physical branch (unchecked):
    bit for bit on the series branch, elsewhere within 2 ulp (numpy)."""
    u = np.asarray(u, dtype=float)
    if k == 0.0:
        return 1.0 / u
    rk = math.sqrt(abs(k))
    # both branches of _acot on every entry: where a branch is not taken it
    # may overflow (u*u, u/rk) or divide by the equator's u = 0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        w = 1.0 / u
        rest = np.arctan2(1.0, u / rk) / rk if k > 0.0 else 0.5 * np.log1p(2.0 * rk / (u - rk)) / rk
        return np.where((u > 0.0) & (u * u * SERIES_THRESHOLD > abs(k)), _atan_series(w, k * w * w), rest)


#: |y| up to which _phi_pair sums the series of phi(y)
_PHI_SERIES_Y = 0.03

#: Taylor coefficients (-1)**n / (2n + 1) of phi(y) = atan(sqrt(y))/sqrt(y);
#: at _PHI_SERIES_Y the first term left out is below 1e-18
_PHI_COEFFS = tuple((-1) ** n / (2 * n + 1) for n in range(13))

# phi(y) = atan(sqrt(y))/sqrt(y), the kernel of the closed-form time laws (the
# orbit's in orbit, the radial fall's in dynamics), is written once and evaluated
# through one of two math namespaces: Python complex scalars, and numpy complex
# arrays for propagate.  A choice between two formulas is an ``if`` on scalars
# and a mask on arrays.
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
