"""Tests for geodesic polar geometry and chart maps."""

import math

import numpy as np
import pytest

from curvedkepler import DomainError
from curvedkepler.geometry import (
    AmbientPoint,
    PolarPoint,
    from_ambient,
    geodesic_distance,
    metric_coefficient,
    reduce_angle,
    to_ambient,
    to_poincare_disk,
)

SINH_1_SQ = 1.3810978455418157  # mpmath oracle, 40 digits
SINH_1 = 1.1752011936438014
COSH_1 = 1.5430806348152437


def ambient_distance(kappa, p1, p2):
    """Independent oracle: distance through the ambient model."""
    a = to_ambient(kappa, p1)
    b = to_ambient(kappa, p2)
    if kappa > 0:
        dot = (a.x * b.x + a.y * b.y + a.z * b.z) * kappa
        return math.acos(max(-1.0, min(1.0, dot))) / math.sqrt(kappa)
    if kappa == 0:
        return math.hypot(a.x - b.x, a.y - b.y)
    form = (a.z * b.z - a.x * b.x - a.y * b.y) * (-kappa)
    return math.acosh(max(1.0, form)) / math.sqrt(-kappa)


def test_metric_coefficient_flat():
    assert metric_coefficient(0.0, 2.0) == 4.0


def test_metric_coefficient_sphere_equator():
    assert metric_coefficient(1.0, math.pi / 2) == pytest.approx(1.0, abs=1e-15)


def test_metric_coefficient_hyperbolic():
    assert metric_coefficient(-1.0, 1.0) == pytest.approx(SINH_1_SQ, rel=1e-15)


def test_metric_coefficient_range_check():
    with pytest.raises(DomainError):
        metric_coefficient(1.0, math.pi + 0.1)
    with pytest.raises(DomainError):
        metric_coefficient(0.0, -1.0)


def test_distance_coincident_points():
    p = PolarPoint(1.3, 0.4)
    assert geodesic_distance(-1.0, p, p) == 0.0
    assert geodesic_distance(1.0, p, p) == 0.0


def test_distance_flat_pythagoras():
    d = geodesic_distance(0.0, PolarPoint(3.0, 0.0), PolarPoint(4.0, math.pi / 2))
    assert d == pytest.approx(5.0, rel=1e-15)


def test_distance_equator_arc():
    # both points on the equator of the unit sphere, 0.3 radians apart
    d = geodesic_distance(
        1.0, PolarPoint(math.pi / 2, 0.1), PolarPoint(math.pi / 2, 0.4)
    )
    assert d == pytest.approx(0.3, rel=1e-13)


def test_distance_symmetry():
    p1, p2 = PolarPoint(0.7, 0.2), PolarPoint(1.9, 2.5)
    for kappa in (1.0, 0.0, -1.0):
        assert geodesic_distance(kappa, p1, p2) == geodesic_distance(kappa, p2, p1)


@pytest.mark.parametrize("kappa", [2.0, 1.0, 0.0, -1.0, -2.0])
def test_distance_radial_geodesic(kappa, rng):
    hi = 0.9 * (math.pi / math.sqrt(kappa)) if kappa > 0 else 5.0
    for _ in range(200):
        r1, r2 = rng.uniform(0.0, hi, size=2)
        phi = rng.uniform(0.0, 2 * math.pi)
        d = geodesic_distance(kappa, PolarPoint(r1, phi), PolarPoint(r2, phi))
        assert d == pytest.approx(abs(r1 - r2), abs=1e-12)


@pytest.mark.parametrize("kappa", [1.0, 0.0, -1.0])
def test_distance_matches_ambient_oracle(kappa, rng):
    hi = 0.9 * math.pi if kappa > 0 else 5.0
    for _ in range(300):
        p1 = PolarPoint(rng.uniform(0.05, hi), rng.uniform(0, 2 * math.pi))
        p2 = PolarPoint(rng.uniform(0.05, hi), rng.uniform(0, 2 * math.pi))
        d = geodesic_distance(kappa, p1, p2)
        assert d == pytest.approx(ambient_distance(kappa, p1, p2), abs=1e-11)


@pytest.mark.parametrize("kappa", [1.0, 0.0, -1.0])
def test_triangle_inequality(kappa, rng):
    hi = 0.85 * math.pi if kappa > 0 else 4.0
    for _ in range(1000):
        pts = [
            PolarPoint(rng.uniform(0.0, hi), rng.uniform(0, 2 * math.pi))
            for _ in range(3)
        ]
        d01 = geodesic_distance(kappa, pts[0], pts[1])
        d12 = geodesic_distance(kappa, pts[1], pts[2])
        d02 = geodesic_distance(kappa, pts[0], pts[2])
        assert d02 <= d01 + d12 + 1e-12


def test_to_ambient_north_pole():
    a = to_ambient(1.0, PolarPoint(0.0, 1.234))
    assert (a.x, a.y, a.z) == pytest.approx((0.0, 0.0, 1.0), abs=1e-15)


def test_to_ambient_flat():
    a = to_ambient(0.0, PolarPoint(2.0, 0.0))
    assert (a.x, a.y, a.z) == (2.0, 0.0, 0.0)


def test_to_ambient_hyperboloid():
    a = to_ambient(-1.0, PolarPoint(1.0, 0.0))
    assert (a.x, a.y, a.z) == pytest.approx((SINH_1, 0.0, COSH_1), rel=1e-15)


@pytest.mark.parametrize("kappa", [3.0, 1.0, 0.0, -1.0, -3.0])
def test_ambient_model_invariant(kappa, rng):
    hi = 0.9 * (math.pi / math.sqrt(kappa)) if kappa > 0 else 5.0
    for _ in range(100):
        p = PolarPoint(rng.uniform(0, hi), rng.uniform(0, 2 * math.pi))
        a = to_ambient(kappa, p)
        if kappa > 0:
            assert a.x**2 + a.y**2 + a.z**2 == pytest.approx(1 / kappa, abs=1e-12)
        elif kappa < 0:
            assert a.z > 0
            # scale by the dominant square: the Minkowski form subtracts
            # cosh^2-sized terms, so an absolute 1e-12 is unattainable
            # for large sqrt(-kappa)*r
            tol = 1e-12 * max(1.0, a.z**2)
            assert a.z**2 - a.x**2 - a.y**2 == pytest.approx(-1 / kappa, abs=tol)
        else:
            assert a.z == 0.0


@pytest.mark.parametrize("kappa", [2.0, 1.0, 0.0, -1.0, -2.0])
def test_ambient_round_trip(kappa, rng):
    hi = 0.95 * (math.pi / math.sqrt(kappa)) if kappa > 0 else 6.0
    for _ in range(100):
        p = PolarPoint(rng.uniform(1e-6, hi), rng.uniform(0, 2 * math.pi))
        q = from_ambient(kappa, to_ambient(kappa, p))
        assert q.r == pytest.approx(p.r, abs=1e-10)
        assert reduce_angle(q.phi - p.phi) == pytest.approx(0.0, abs=1e-10) or (
            reduce_angle(q.phi - p.phi) == pytest.approx(2 * math.pi, abs=1e-10)
        )


def test_from_ambient_rejects_lower_sheet():
    with pytest.raises(DomainError):
        from_ambient(-1.0, AmbientPoint(0.0, 0.0, -1.0))


def test_poincare_disk_center():
    assert to_poincare_disk(-1.0, PolarPoint(0.0, 0.7)) == (0.0, 0.0)


def test_poincare_disk_tanh_radius():
    x, y = to_poincare_disk(-1.0, PolarPoint(2.0, 0.0))
    assert x == pytest.approx(0.7615941559557649, rel=1e-15)  # tanh(1), mpmath
    assert y == 0.0


def test_poincare_disk_saturation():
    x, y = to_poincare_disk(-1.0, PolarPoint(40.0, 0.0))
    assert 1.0 - math.hypot(x, y) < 1e-17


def test_poincare_disk_requires_negative_curvature():
    with pytest.raises(DomainError):
        to_poincare_disk(0.0, PolarPoint(1.0, 0.0))
    with pytest.raises(DomainError):
        to_poincare_disk(1.0, PolarPoint(1.0, 0.0))


def test_polar_point_validation():
    with pytest.raises(DomainError):
        PolarPoint(-0.1, 0.0)
    with pytest.raises(DomainError):
        PolarPoint(math.nan, 0.0)


def test_reduce_angle():
    assert reduce_angle(2 * math.pi) == 0.0
    assert reduce_angle(-0.1) == pytest.approx(2 * math.pi - 0.1)
    assert reduce_angle(7.0) == pytest.approx(7.0 - 2 * math.pi)


@pytest.mark.parametrize("eps", [1e-20, 1e-300])
def test_a_tiny_negative_angle_reduces_to_zero(eps):
    # -eps + 2*pi rounds to 2*pi, which lies outside [0, 2*pi)
    assert reduce_angle(-eps) == 0.0
    for kappa, z in ((1.0, math.sqrt(0.75)), (0.0, 0.0), (-1.0, math.sqrt(1.25))):
        assert from_ambient(kappa, AmbientPoint(0.5, -eps, z)).phi == 0.0
