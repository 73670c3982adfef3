"""Tests for the curvature-tagged trigonometry kernel."""

import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from curvedkepler import (
    Curvature,
    DomainError,
    PoleError,
    acot_k,
    atan_k,
    cos_k,
    curvature_value,
    radial_limit,
    sin_k,
    tan_k,
)
import numpy as np

from curvedkepler.ktrig import SERIES_THRESHOLD, _cot_floor, acot_k_array, sincos_k

# Extended-precision oracle values (mpmath, 40 digits, rounded to double).
COSH_1 = 1.5430806348152437
SINH_1 = 1.1752011936438014
TANH_1 = 0.7615941559557649


def test_cos_k_flat_is_one():
    assert cos_k(0.0, 5.0) == 1.0


def test_cos_k_sphere_pi():
    assert cos_k(1.0, math.pi) == pytest.approx(-1.0, abs=1e-15)


def test_cos_k_hyperbolic_zero():
    assert cos_k(-1.0, 0.0) == 1.0


def test_cos_k_hyperbolic_one():
    assert cos_k(-1.0, 1.0) == pytest.approx(COSH_1, rel=1e-15)


def test_sin_k_flat_identity():
    assert sin_k(0.0, 3.7) == 3.7


def test_sin_k_sphere_quarter():
    assert sin_k(1.0, math.pi / 2) == pytest.approx(1.0, abs=1e-15)


def test_sin_k_hyperbolic_one():
    assert sin_k(-1.0, 1.0) == pytest.approx(SINH_1, rel=1e-15)


def test_sin_k_near_flat_continuity():
    # Taylor oracle: x - kappa x^3/6 = 1 - 1.6667e-9 for kappa=1e-8, x=1
    assert abs(sin_k(1e-8, 1.0) - sin_k(0.0, 1.0)) <= 2e-9
    assert sin_k(1e-8, 1.0) == pytest.approx(0.9999999983333333, abs=3e-16)


def test_tan_k_flat_identity():
    assert tan_k(0.0, 1.3) == 1.3


def test_tan_k_hyperbolic_saturation():
    # tanh saturates at 1; at x=20 the gap is ~4e-18
    assert abs(tan_k(-1.0, 20.0) - 1.0) < 1e-15


def test_tan_k_sphere_quarter_turn():
    assert tan_k(1.0, math.pi / 4) == pytest.approx(1.0, rel=1e-15)


def test_tan_k_pole_raises():
    with pytest.raises(PoleError) as exc:
        tan_k(1.0, math.pi / 2)
    assert exc.value.sign in (-1, 1)


def test_tan_k_pole_other_branch():
    with pytest.raises(PoleError):
        tan_k(4.0, 3 * math.pi / 4)  # sqrt(k)*x = 3pi/2


def test_tan_k_near_pole_is_finite():
    # 1e-9 away from the pole is a legitimate (huge) value, not an error
    assert abs(tan_k(1.0, math.pi / 2 * (1 - 1e-9))) > 1e8


def test_atan_k_flat():
    assert atan_k(0.0, 2.0) == 2.0


def test_atan_k_sphere():
    assert atan_k(1.0, 1.0) == pytest.approx(math.pi / 4, rel=1e-15)


def test_atan_k_hyperbolic_saturation_error():
    with pytest.raises(DomainError):
        atan_k(-1.0, 1.0)
    with pytest.raises(DomainError):
        atan_k(-1.0, 1.5)


def test_atan_k_hyperbolic_value():
    # atanh(0.5) frozen from mpmath
    assert atan_k(-1.0, 0.5) == pytest.approx(0.5493061443340549, rel=1e-15)


@pytest.mark.parametrize("kappa", [2.0, 1.0, 1e-3, 0.0, -1e-3, -1.0, -2.0])
@pytest.mark.parametrize("y", [-1.9, -0.3, 0.0, 0.7, 1.4])
def test_atan_k_inverts_tan_k(kappa, y):
    if kappa < 0 and abs(y) * math.sqrt(-kappa) >= 1.0:
        return
    x = atan_k(kappa, y)
    assert tan_k(kappa, x) == pytest.approx(y, rel=2e-14, abs=2e-14)
    if kappa > 0:
        assert abs(x) < math.pi / (2 * math.sqrt(kappa))


@pytest.mark.parametrize("kappa", [3.0, 1.0, 0.0, -1.0, -3.0])
@pytest.mark.parametrize("u", [0.2, 1.0, 2.5, 40.0])
def test_acot_k_round_trip(kappa, u):
    if kappa < 0 and u <= math.sqrt(-kappa):
        with pytest.raises(DomainError):
            acot_k(kappa, u)
        return
    r = acot_k(kappa, u)
    assert 0 < r < radial_limit(kappa)
    assert cos_k(kappa, r) / sin_k(kappa, r) == pytest.approx(u, rel=1e-12)


def test_acot_k_sphere_negative_cotangent():
    # beyond the equator: r in (pi/2, pi) for kappa=1
    r = acot_k(1.0, -0.7)
    assert math.pi / 2 < r < math.pi
    assert cos_k(1.0, r) / sin_k(1.0, r) == pytest.approx(-0.7, rel=1e-12)


def test_acot_k_flat_rejects_nonpositive():
    with pytest.raises(DomainError):
        acot_k(0.0, -0.5)
    with pytest.raises(DomainError):
        acot_k(0.0, 0.0)


def test_curvature_regime_tags():
    assert Curvature(2.5).regime == "spherical"
    assert Curvature(0.0).regime == "flat"
    assert Curvature(-0.3).regime == "hyperbolic"
    assert Curvature(-4.0).c == 2.0


def test_curvature_rejects_nonfinite():
    with pytest.raises(DomainError):
        Curvature(math.nan)
    with pytest.raises(DomainError):
        curvature_value(math.inf)


def test_functions_accept_curvature_objects():
    assert cos_k(Curvature(-1.0), 1.0) == cos_k(-1.0, 1.0)
    assert radial_limit(Curvature(4.0)) == pytest.approx(math.pi / 2)


def test_nonfinite_argument_rejected():
    with pytest.raises(DomainError):
        sin_k(1.0, math.inf)
    with pytest.raises(DomainError):
        cos_k(1.0, math.nan)


def _identity_scale(kappa, x):
    # hyperbolic cosh**2 dwarfs the identity's right-hand side 1;
    # compare against the dominant term
    return max(1.0, cos_k(kappa, x) ** 2)


@given(
    st.floats(min_value=-4.0, max_value=4.0),
    st.floats(min_value=-5.0, max_value=5.0),
)
@settings(max_examples=300, deadline=None)
def test_pythagorean_identity(kappa, x):
    if kappa > 0:
        x = min(abs(x), 0.9 * radial_limit(kappa)) * math.copysign(1.0, x or 1.0)
    lhs = cos_k(kappa, x) ** 2 + kappa * sin_k(kappa, x) ** 2
    assert abs(lhs - 1.0) <= 1e-13 * _identity_scale(kappa, x)


@given(
    st.floats(min_value=-4.0, max_value=4.0),
    st.floats(min_value=-2.5, max_value=2.5),
)
@settings(max_examples=300, deadline=None)
def test_double_angle_identities(kappa, x):
    if kappa > 0:
        x = min(abs(x), 0.45 * radial_limit(kappa)) * math.copysign(1.0, x or 1.0)
    c, s = cos_k(kappa, x), sin_k(kappa, x)
    scale = max(1.0, cos_k(kappa, 2 * x) ** 2)
    assert abs(cos_k(kappa, 2 * x) - (c * c - kappa * s * s)) <= 1e-13 * scale
    assert abs(sin_k(kappa, 2 * x) - 2 * s * c) <= 1e-13 * scale


@pytest.mark.parametrize("kappa", [4.0, 1.0, 1e-5, 0.0, -1e-5, -1.0, -4.0])
@pytest.mark.parametrize("x", [-2.0, -0.37, 0.11, 0.8, 1.4])
def test_derivative_identities_by_central_difference(kappa, x):
    if kappa > 0 and abs(x) > 0.9 * radial_limit(kappa):
        return
    h = 1e-6
    d_sin = (sin_k(kappa, x + h) - sin_k(kappa, x - h)) / (2 * h)
    d_cos = (cos_k(kappa, x + h) - cos_k(kappa, x - h)) / (2 * h)
    assert abs(d_sin - cos_k(kappa, x)) < 1e-7
    assert abs(d_cos - (-kappa * sin_k(kappa, x))) < 1e-7


@pytest.mark.parametrize("kappa", [1e-6, 1e-9, 1e-13, -1e-13, -1e-9, -1e-6])
@pytest.mark.parametrize("x", [0.1, 1.0, 3.0, 10.0])
def test_kappa_continuity_envelope(kappa, x):
    # Envelope |kappa| x^3/6 with a 1e-5 headroom factor: the hyperbolic
    # branch adds the same-sign next term |kappa| x^2/20 (at most 5e-6
    # here), so the tight 1 + 1e-6 factor cannot hold for kappa < 0.
    # The few-ulp floor covers rounding of x*(1 - ...) when the envelope
    # itself sits below the spacing of doubles near x.
    floor = 4 * 2.220446049250313e-16 * max(1.0, abs(x))
    assert abs(sin_k(kappa, x) - x) <= abs(kappa) * x**3 / 6 * (1 + 1e-5) + floor


def test_series_direct_crossover_consistency():
    # values straddling the series threshold must agree to near-ulp
    for kappa in (1.0, -1.0):
        for x in (0.99e-4, 1.01e-4, 0.99e-5):
            direct = (
                math.cos(x) if kappa > 0 else math.cosh(x)
            )  # sqrt|kappa| = 1
            assert cos_k(kappa, x) == pytest.approx(direct, abs=1e-16)


def test_radial_limit():
    assert radial_limit(4.0) == pytest.approx(math.pi / 2)
    assert radial_limit(0.0) == math.inf
    assert radial_limit(-1.0) == math.inf


@pytest.mark.parametrize("kappa", [1.0, -1.0, 1e-6, -1e-6, 1e-9, -1e-9, 0.0])
def test_sincos_evaluator_is_bit_identical_to_sin_k_cos_k(kappa):
    rng = random.Random(7)
    sc = sincos_k(kappa)
    top = 0.99 * radial_limit(kappa) if kappa > 0 else 30.0
    # log-uniform radii reach deep into the series branch as well
    xs = [top * 10.0 ** rng.uniform(-8, 0) for _ in range(2000)]
    if kappa != 0.0:
        edge = math.sqrt(SERIES_THRESHOLD / abs(kappa))
        xs += [edge * (1 + d) for d in (-1e-15, -2e-16, 0.0, 2e-16, 1e-15)]
    for x in xs:
        assert sc(x) == (sin_k(kappa, x), cos_k(kappa, x)), x


@pytest.mark.parametrize("kappa", [1.0, -1.0, 1e-6, -1e-6, 1e-9, -1e-9, 0.0])
def test_acot_k_array_within_two_ulp_of_acot_k(kappa):
    rng = random.Random(17)
    rk = math.sqrt(-kappa) if kappa < 0.0 else 0.0
    if kappa > 0.0:
        us = [rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-8, 8) for _ in range(2000)]
    else:
        # from 1e-8 of its scale above the plateau (the log1p form) to 1e8 of it
        us = [rk + max(rk, 1e-8) * 10.0 ** rng.uniform(-8, 8) for _ in range(2000)]
    if kappa < 0.0:
        edge = math.sqrt(-kappa / SERIES_THRESHOLD)
        us += [edge * (1 + d) for d in (-1e-12, -1e-15, -2e-16, 0.0, 2e-16, 1e-15, 1e-12)]
    got = acot_k_array(kappa, np.array(us))
    assert got.shape == (len(us),)
    for u, g in zip(us, got.tolist()):
        want = acot_k(kappa, u)
        if kappa <= 0.0 and (kappa == 0.0 or u * u * SERIES_THRESHOLD > -kappa):
            # same series (or the flat 1/u), same operation order
            assert g == want, u
        else:
            # numpy's arctan2/log1p may round differently from math's
            assert abs(g - want) <= 2 * math.ulp(want), u


@pytest.mark.parametrize("kappa", [-1.0, -4.0, -0.25])
def test_acot_k_near_hyperbolic_plateau_within_one_ulp(kappa):
    # sqrt(-kappa) is exact for these curvatures, so the 40-digit
    # acoth(u / sqrt(-kappa)) / sqrt(-kappa) is the exact radius of u
    rng = random.Random(11)
    rk = math.sqrt(-kappa)
    with mp.workdps(40):
        for _ in range(500):
            u = rk * (1.0 + 10.0 ** rng.uniform(-12, -1))
            exact = mp.acoth(mpf(u) / rk) / rk
            r = acot_k(kappa, u)
            assert abs(mpf(r) - exact) <= math.ulp(float(exact)), u


@pytest.mark.parametrize("kappa", [1.0, 1e-9, 0.0, -1e-9, -1.0, -4.0])
def test_acot_k_domain_ends_at_the_cotangent_floor(kappa):
    floor = _cot_floor(kappa)
    assert floor == (math.sqrt(-kappa) if kappa <= 0.0 else -math.inf)
    if math.isfinite(floor):
        with pytest.raises(DomainError, match="no radius"):
            acot_k(kappa, floor)
    above = math.nextafter(floor, math.inf)
    r = acot_k(kappa, above)
    if kappa == 0.0:
        # the radius 1/u of the least subnormal u rounds to inf; a u
        # whose reciprocal is finite has a finite radius
        assert r == math.inf
        above = 2.0 / sys.float_info.max
        r = acot_k(kappa, above)
    assert 0.0 < r < math.inf, above
