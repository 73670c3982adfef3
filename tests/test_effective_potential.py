"""Tests for the reduced radial problem and orbit classification."""

import math

import numpy as np
import pytest
from conftest import bounded_orbit_elements, random_states
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from curvedkepler import DomainError, effective_potential
from curvedkepler.cli import classify_record, main
from curvedkepler.conics import ConicLabel, classify_conic, conic_from_dynamics
from curvedkepler.dynamics import KeplerParams, PhaseState, circular_state, energy
from curvedkepler.effective_potential import (
    BOUNDED_LABELS,
    OrbitClass,
    OrbitLabel,
    classify_orbit,
    critical_point,
    escape_angular_momentum,
    escape_energy,
    potential_profile,
    turning_points,
    w_eff,
)
from curvedkepler.errors import InfeasibleError, NumericalError, SingularityError
from curvedkepler.ktrig import cos_k, sin_k
from curvedkepler.orbit import orbit_constants, radial_period

REGIMES = [1.0, 0.0, -1.0]

ATANH_ONE_SEVENTH = 0.14384103622589045  # 0.5*ln(8/6)


# ----------------------------------------------------------------------
# w_eff
# ----------------------------------------------------------------------


def test_w_eff_sphere_minimum_value():
    assert abs(w_eff(1.0, 1.0, 1.0, math.pi / 4)) < 1e-15


def test_w_eff_flat_value():
    assert w_eff(0.0, 1.0, 1.0, 1.0) == -0.5


def test_w_eff_no_barrier_plateau():
    assert w_eff(-1.0, 1.0, 0.0, 20.0) == pytest.approx(-1.0, abs=1e-15)


def test_w_eff_matches_direct_form(rng):
    # the cotangent form must agree with -k cot + j^2/(2 sin^2)
    for kappa in REGIMES:
        for state in random_states(kappa, 40, rng):
            r = state.r
            j, k = 1.3, 0.9
            s, c = sin_k(kappa, r), cos_k(kappa, r)
            direct = -k * c / s + 0.5 * j * j / (s * s)
            val = w_eff(kappa, k, j, r)
            assert val == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_w_eff_validates_inputs():
    with pytest.raises(SingularityError):
        w_eff(1.0, 1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        w_eff(1.0, 1.0, 1.0, math.pi)
    with pytest.raises(DomainError):
        w_eff(0.0, -1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        w_eff(0.0, 1.0, math.inf, 1.0)


# (kappa, k, j, r) where u = cot_k(r) passes 1.3e154, so u**2 overflows: with
# j = 0, or a j**2 that underflows to 0 or to a subnormal, j**2 (u**2 + kappa)
# was 0 * inf or inf, and W came out NaN or inf
W_PAST_THE_SQUARE = [
    (0.0, 1.0, 0.0, 1e-300),
    (-1.0, 1.0, 0.0, 1e-200),
    (0.0, 1.0, 1e-170, 1e-300),
    (0.0, 1.0, 1e-160, 1e-300),
    (1.0, 1.0, 1e-170, 1e-300),
    (-1.0, 2.0, 1e-100, 1e-200),
    (0.0, 1.0, 1e-100, 1e-200),
]


@pytest.mark.parametrize("kappa,k,j,r", W_PAST_THE_SQUARE)
def test_w_eff_is_finite_past_the_overflow_of_the_squared_cotangent(kappa, k, j, r):
    s, c = (mp.sin, mp.cos) if kappa > 0 else (mp.sinh, mp.cosh) if kappa < 0 else (lambda x: x, lambda x: 1)
    with mp.workdps(60):
        rt = mp.sqrt(abs(kappa)) if kappa else 1
        sin_kr, cos_kr = s(rt * mpf(r)) / rt, c(rt * mpf(r))
        want = -k * cos_kr / sin_kr + mpf(j) ** 2 / (2 * sin_kr**2)
    got = w_eff(kappa, k, j, r)
    assert math.isfinite(got)
    assert abs(got - want) <= 1e-15 * abs(want)


def test_potential_scan_prints_a_finite_w_next_to_the_centre(capsys):
    argv = "potential-scan --kappa 0 --k 1 --J 0 --r-min 1e-200 --r-max 1 --steps 3"
    assert main(argv.split()) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[rows.index("r,w") + 1] == "9.9999999999999998e-201,-9.9999999999999997e+199"


# ----------------------------------------------------------------------
# critical point and landmarks
# ----------------------------------------------------------------------


def test_critical_point_sphere_example():
    r, w = critical_point(1.0, 1.0, 1.0)
    assert r == math.pi / 4
    assert w == 0.0


def test_critical_point_flat_formulas():
    r, w = critical_point(0.0, 2.0, 1.5)
    assert r == 1.5**2 / 2.0
    assert w == -(2.0**2) / (2.0 * 1.5**2)


def test_critical_point_hyperbolic_barrier_absent():
    assert critical_point(-1.0, 1.0, 2.0) is None
    # boundary case j^2/k = 1 saturates the cotangent range
    assert critical_point(-1.0, 1.0, 1.0) is None


def test_critical_point_no_angular_momentum():
    assert critical_point(1.0, 1.0, 0.0) is None


@pytest.mark.parametrize(
    "call",
    [
        lambda: critical_point(0.0, 1.0, 1e-160),
        lambda: classify_orbit(1.0, 1.0, 1e-160, 1e30),
        lambda: turning_points(0.0, 1.0, 1e-160, -5.0),
        lambda: potential_profile(0.0, 1.0, 1e-160),
    ],
)
def test_overflowing_minimum_of_w_raises(call):
    # k**2/j**2 overflows, so w_min = -inf; every band test read inf <= inf
    # as true and labelled any energy a circle or a tangency
    with pytest.raises(NumericalError, match=r"j=1e-160: w_min = -inf"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: critical_point(1.0, 1.0, 1e-170),
        lambda: turning_points(0.0, 1.0, 1e-170, -1.0),
        lambda: classify_orbit(1.0, 1.0, 1e-170, 0.5),
        lambda: potential_profile(0.0, 1.0, 1e-170),
        lambda: circular_state(KeplerParams(1, 1), 1e-170),
        lambda: turning_points(0.0, 1.0, 1e200, 1e300),
        # once None and [] although the sphere always has a minimum and
        # an open orbit always has a periastron
        lambda: critical_point(1.0, 1.0, 1e200),
        lambda: turning_points(-1.0, 1.0, 1e155, 1e300),
    ],
)
def test_a_j_whose_square_leaves_the_float_range_raises(call):
    # j**2 (or j**2/k) underflowed to 0 or overflowed to inf: one check
    # ahead of every division names j instead of a bare ZeroDivisionError
    with pytest.raises(NumericalError, match=r"j=1e[-+]\d+ gives j\*\*2 = (0\.0|inf)"):
        call()


def test_a_root_whose_k_u_and_square_overflow_passes_its_verification():
    # u_per = 2e154 is exact, but k u and (j u)**2 both overflow: W(r) - e was
    # -inf + inf = nan, a refused root; with u factored out W stays finite
    assert turning_points(-1.0, 1e154, -1.0, 13691822.331287837) == [5e-155]
    assert math.isfinite(w_eff(-1.0, 1e154, -1.0, 5e-155))


def test_classify_beyond_the_escape_j_keeps_the_exact_plateau():
    # sqrt(2)**2 - 2 rounds to 4e-16; times j**2/2 = 5e15 that would lift
    # the plateau -sqrt(2) above zero and refuse an attainable energy
    assert classify_orbit(-2.0, 1.0, 1e8, 0.0).label is OrbitLabel.HYP_OPEN
    with pytest.raises(InfeasibleError):
        classify_orbit(-2.0, 1.0, 1e8, -1.5)


def test_critical_point_is_a_minimum(rng):
    # j is kept away from 0 so the minimum sits at an O(1) radius where
    # the finite-difference probe resolves a flat slope
    h = 1e-6
    for kappa in REGIMES:
        for _ in range(25):
            k = rng.uniform(1.0, 2.5)
            j_top = 0.9 * escape_angular_momentum(kappa, k) if kappa < 0 else 1.6
            j = rng.uniform(0.7, j_top)
            r, w = critical_point(kappa, k, j)
            assert w_eff(kappa, k, j, r) == pytest.approx(w, rel=1e-12, abs=1e-12)
            slope = (w_eff(kappa, k, j, r + h) - w_eff(kappa, k, j, r - h)) / (2 * h)
            assert abs(slope) < 1e-8
            assert w_eff(kappa, k, j, r + 0.1) > w
            assert w_eff(kappa, k, j, max(r - 0.1, r / 2)) > w


def test_escape_landmarks():
    assert escape_energy(-1.0, 1.0) == -1.0
    assert escape_energy(-4.0, 3.0) == -6.0
    assert escape_angular_momentum(-1.0, 1.0) == 1.0
    assert escape_angular_momentum(-0.25, 2.0) == 2.0
    with pytest.raises(DomainError):
        escape_energy(1.0, 1.0)
    with pytest.raises(DomainError):
        escape_angular_momentum(0.0, 1.0)


def test_hyperbolic_monotone_when_barrier_absent(rng):
    # j >= j_infinity: W' < 0 everywhere sampled.  (Radii stay below 4
    # curvature lengths: past that the slope decays under the
    # finite-difference noise floor.)
    k = 1.0
    h = 1e-6
    for j in (1.0, 1.5, 2.0):
        for r in rng.uniform(0.05, 4.0, size=40):
            slope = (w_eff(-1.0, k, j, r + h) - w_eff(-1.0, k, j, r - h)) / (2 * h)
            assert slope < 0.0


def test_hyperbolic_well_shape_when_barrier_present(rng):
    k, j = 1.0, 0.6
    r_m, _ = critical_point(-1.0, k, j)
    for r in rng.uniform(0.05, 0.95, size=20) * r_m:
        slope = (w_eff(-1.0, k, j, r + 1e-6) - w_eff(-1.0, k, j, r - 1e-6)) / 2e-6
        assert slope < 0.0
    for r in r_m + rng.uniform(0.05, 3.0, size=20):
        slope = (w_eff(-1.0, k, j, r + 1e-6) - w_eff(-1.0, k, j, r - 1e-6)) / 2e-6
        assert slope > 0.0


# ----------------------------------------------------------------------
# turning points
# ----------------------------------------------------------------------


def test_turning_points_sphere_tangency():
    roots = turning_points(1.0, 1.0, 1.0, 0.0)
    assert roots == [math.pi / 4, math.pi / 4]


def test_turning_points_flat_circular():
    assert turning_points(0.0, 1.0, 1.0, -0.5) == [1.0, 1.0]


def test_turning_points_horoellipse_energy_inner_only():
    roots = turning_points(-1.0, 4.0, 1.0, -4.0)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(ATANH_ONE_SEVENTH, abs=1e-12)


def test_turning_points_flat_parabola_inner_only():
    roots = turning_points(0.0, 1.0, 1.0, 0.0)
    assert roots == [pytest.approx(0.5, abs=1e-12)]


@pytest.mark.parametrize(
    "kappa,k,j,e",
    [
        # the band is BOUNDARY_RTOL max(1, u*) = 1e-9 in the far apsis
        # u_apo = (1 - ecc)/d around u* (0 on the plane, 1 here on H^2)
        (0.0, 1.0, 1.0, -1e-10),  # FLAT_PARABOLA, u_apo 1e-10; the apoastron would sit at 1e10
        (-1.0, 1.0, 0.5, -1.0 - 1e-10),  # HYP_HOROELLIPSE, u_apo 1.3e-10 above u*; it would sit at 11.7
        (-1.0, 1.0, 0.5, -1.0 + 1e-10),
        (0.0, 1.0, 1.0, -2e-9),  # u_apo 2e-9, beyond the band: a bounded ellipse
        (-1.0, 1.0, 0.5, -1.0 - 2e-9),  # u_apo 2.7e-9 above u*: a bounded ellipse
    ],
)
def test_turning_points_agree_with_classify_in_landmark_band(kappa, k, j, e):
    roots = turning_points(kappa, k, j, e)
    bounded = classify_orbit(kappa, k, j, e).bounded
    assert len(roots) == (2 if bounded else 1)


def test_turning_points_verified_and_ordered(rng):
    for kappa in REGIMES:
        k = 1.0
        for _ in range(40):
            j, ecc, e = bounded_orbit_elements(kappa, k, rng)
            roots = turning_points(kappa, k, j, e)
            assert len(roots) == 2
            assert roots[0] < roots[1]
            r_m, w_m = critical_point(kappa, k, j)
            assert roots[0] < r_m < roots[1]
            for r in roots:
                assert abs(w_eff(kappa, k, j, r) - e) < 1e-11 * max(1.0, abs(e))


def test_turning_points_empty_below_minimum():
    r_m, w_m = critical_point(0.0, 1.0, 1.0)
    assert turning_points(0.0, 1.0, 1.0, w_m - 0.1) == []


# (kappa, k, j, e): j beyond the escape value, e at or just below the
# plateau -k sqrt(-kappa), which classify_orbit calls infeasible; the
# clamped double root of the first failed its verification, and the next
# two returned a radius
_SATURATED_AT_PLATEAU = [
    (-1.0, 4.200741856093109, -2.0495711395541045, -4.2007418681388025),
    (-1.4708955471478873, 0.654867319546378, -0.7348203933512087, -0.7942262458538375),
    (-0.14537768623371236, 9.474068609168315, 4.984755087891756, -3.6123132302630467),
    (-1.0, 1.0, 1.0, -1.0),
    (-0.5, 2.0, -1.7, math.nextafter(-2.0 * math.sqrt(0.5), -math.inf)),
]


@pytest.mark.parametrize("kappa,k,j,e", _SATURATED_AT_PLATEAU)
def test_turning_points_beyond_escape_at_or_below_the_plateau_are_empty(kappa, k, j, e):
    assert critical_point(kappa, k, j) is None
    assert e <= escape_energy(kappa, k)
    assert turning_points(kappa, k, j, e) == []
    with pytest.raises(InfeasibleError):
        classify_orbit(kappa, k, j, e)


def test_turning_points_beyond_escape_above_the_plateau_keep_the_periastron():
    # one relative 1e-6 above the plateau the open orbit has its periastron
    kappa, k, j = -1.0, 4.200741856093109, -2.0495711395541045
    e = -k * (1.0 - 1e-6)
    roots = turning_points(kappa, k, j, e)
    assert len(roots) == 1
    assert abs(w_eff(kappa, k, j, roots[0]) - e) < 1e-11 * abs(e)
    assert classify_orbit(kappa, k, j, e).label is OrbitLabel.HYP_OPEN


def test_turning_points_radial_orbit():
    # j=0: single stopping radius where U = E
    roots = turning_points(0.0, 1.0, 0.0, -0.5)
    assert roots == [pytest.approx(2.0, abs=1e-12)]
    # hyperbolic radial orbit with E above the plateau never stops
    assert turning_points(-1.0, 1.0, 0.0, -0.5) == []


@pytest.mark.parametrize("kappa", [0.0, 1.0, -1.0])
def test_turning_points_radial_stop_at_a_cotangent_of_1e200(kappa):
    # u = 1e200: u**2 overflowed in the verification's tolerance, which
    # came out nan and refused the exact root
    assert turning_points(kappa, 1.0, 0.0, -1e200) == [1e-200]


def test_turning_points_sphere_super_orbit_two_roots():
    # E above the equator value: the orbit straddles the equator
    kappa, k, j = 1.0, 1.0, 1.0
    e = 1.0  # e_p = 0.5 > 0
    roots = turning_points(kappa, k, j, e)
    assert len(roots) == 2
    assert roots[0] < math.pi / 2 < roots[1]


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------


def test_classify_hyperbolic_circle_example():
    oc = classify_orbit(-1.0, 1.0, 0.5, -2.125)
    assert oc == OrbitClass(OrbitLabel.HYP_CIRCLE, bounded=True)


def test_classify_spherical_equatorial_example():
    # e_p = 0 at e = kappa j^2 / 2
    oc = classify_orbit(1.0, 1.0, 1.0, 0.5)
    assert oc.label is OrbitLabel.SPHERICAL_ELLIPSE_EQUATORIAL
    assert oc.bounded


def test_classify_flat_parabola_example():
    oc = classify_orbit(0.0, 1.0, 1.0, 0.0)
    assert oc == OrbitClass(OrbitLabel.FLAT_PARABOLA, bounded=False)


def test_classify_flat_ladder():
    k, j = 1.0, 1.0
    assert classify_orbit(0.0, k, j, -0.5).label is OrbitLabel.CIRCLE
    assert classify_orbit(0.0, k, j, -0.2).label is OrbitLabel.FLAT_ELLIPSE
    assert classify_orbit(0.0, k, j, 0.7).label is OrbitLabel.FLAT_HYPERBOLA
    with pytest.raises(InfeasibleError):
        classify_orbit(0.0, k, j, -0.7)


def test_classify_hyperbolic_ladder():
    k, j = 1.0, 0.5
    e_cir = -2.125
    e_inf = -1.0
    assert classify_orbit(-1.0, k, j, e_cir).label is OrbitLabel.HYP_CIRCLE
    assert classify_orbit(-1.0, k, j, -1.5).label is OrbitLabel.HYP_ELLIPSE
    assert classify_orbit(-1.0, k, j, e_inf).label is OrbitLabel.HYP_HOROELLIPSE
    assert classify_orbit(-1.0, k, j, -0.2).label is OrbitLabel.HYP_OPEN
    with pytest.raises(InfeasibleError):
        classify_orbit(-1.0, k, j, -3.0)


def test_classify_hyperbolic_no_well():
    # j at/above the escape value: only open orbits remain
    assert classify_orbit(-1.0, 1.0, 2.0, 0.5).label is OrbitLabel.HYP_OPEN
    with pytest.raises(InfeasibleError):
        classify_orbit(-1.0, 1.0, 2.0, -1.5)


def test_classify_spherical_ladder():
    k, j = 1.0, 1.0
    assert classify_orbit(1.0, k, j, 0.0).label is OrbitLabel.CIRCLE
    assert classify_orbit(1.0, k, j, 0.2).label is OrbitLabel.SPHERICAL_ELLIPSE_SUB
    assert (
        classify_orbit(1.0, k, j, 0.5).label
        is OrbitLabel.SPHERICAL_ELLIPSE_EQUATORIAL
    )
    assert classify_orbit(1.0, k, j, 1.1).label is OrbitLabel.SPHERICAL_ELLIPSE_SUPER
    with pytest.raises(InfeasibleError):
        classify_orbit(1.0, k, j, -0.1)


def test_classify_radial():
    oc = classify_orbit(1.0, 1.0, 0.0, 0.3)
    assert oc == OrbitClass(OrbitLabel.RADIAL_COLLISION, bounded=False)


def test_the_analysis_does_not_see_the_sign_of_a_zero():
    # the memo keys on float equality, so a pair whose zero changes sign
    # must be analysed to the same bits, sign of zero included
    analyse = effective_potential._orbit.__wrapped__

    def outcome(args):
        try:
            return repr(analyse(*args))  # repr keeps the sign of a zero
        except InfeasibleError:
            return "infeasible"

    grid = [
        (kap, k, j, e)
        for kap in (-1.0, 0.0, -0.0, 1.0)
        for k in (1.0, 2.5)
        for j in (0.0, -0.0, 0.5, -1.5)
        for e in (0.0, -0.0, -0.3, 0.7)
    ]
    flips = [
        (args, args[:i] + (-args[i],) + args[i + 1:])
        for args in grid
        for i in range(4)
        if args[i] == 0.0
    ]
    assert len(flips) == 192
    assert [flip for flip in flips if outcome(flip[0]) != outcome(flip[1])] == []


def test_classify_and_turning_points_decide_a_pair_once(monkeypatch):
    calls = []
    real = effective_potential._radial_roots
    monkeypatch.setattr(effective_potential, "_radial_roots", lambda *args: calls.append(args) or real(*args))
    classify_orbit(1.0, 1.0, 1.0, 0.2)
    turning_points(1.0, 1.0, 1.0, 0.2)
    assert len(calls) == 1
    turning_points(0.0, 1.0, 1.0, -0.2)
    turning_points(0.0, 1.0, 1.0, -0.2)
    assert len(calls) == 2
    # an error is not remembered: the infeasible pair is analysed, and refused, each time
    for _ in range(2):
        with pytest.raises(InfeasibleError):
            classify_orbit(0.0, 1.0, 1.0, -0.7)
    assert len(calls) == 4
    # keyed by type too: a circle's double root is _atan's, numpy for a numpy
    # j on its series branch, and a float caller still gets floats
    e = critical_point(1e-12, 1.0, 0.5)[1]
    assert [type(r) for r in turning_points(1e-12, 1.0, np.float64(0.5), e)] == [np.float64, np.float64]
    assert [type(r) for r in turning_points(1e-12, 1.0, 0.5, e)] == [float, float]


def test_classify_bounded_flag_matches_label(rng):
    for kappa in REGIMES:
        k = 1.0
        for _ in range(50):
            j, ecc, e = bounded_orbit_elements(kappa, k, rng)
            oc = classify_orbit(kappa, k, j, e)
            assert oc.bounded == (oc.label in BOUNDED_LABELS)
            assert oc.bounded


def test_classify_circle_matches_dynamics_energy():
    # the critical value of W is exactly the energy of the circular state
    for kappa, k, j in [(1.0, 1.0, 1.0), (0.0, 1.0, 1.3), (-1.0, 4.0, 1.0)]:
        params = KeplerParams(kappa, k)
        e = energy(circular_state(params, j), params)
        label = classify_orbit(kappa, k, j, e).label
        assert label in (OrbitLabel.CIRCLE, OrbitLabel.HYP_CIRCLE)


def test_classification_threshold_flattens_with_curvature():
    # the horoellipse energy -k sqrt(-kappa) merges into the flat
    # parabola boundary 0 as kappa -> 0-
    assert abs(escape_energy(-1e-14, 1.0)) < 1e-6
    assert classify_orbit(-1e-14, 1.0, 1.0, 0.3).label is OrbitLabel.HYP_OPEN
    assert classify_orbit(-1e-14, 1.0, 1.0, -0.3).label is OrbitLabel.HYP_ELLIPSE


# ----------------------------------------------------------------------
# profile
# ----------------------------------------------------------------------


def test_profile_hyperbolic_landmarks():
    prof = potential_profile(-1.0, 1.0, 0.8)
    assert prof.j_infinity**2 == pytest.approx(1.0, rel=1e-15)
    assert prof.e_infinity == -1.0
    assert prof.notes is None
    assert len(prof.zero_crossings) == 1  # W < 0 well, single zero


def test_profile_absent_critical_reasons():
    prof = potential_profile(-1.0, 1.0, 2.0)
    assert prof.critical_radius is None
    assert "saturates" in prof.notes
    prof0 = potential_profile(1.0, 1.0, 0.0)
    assert prof0.critical_radius is None
    assert "monotone" in prof0.notes


def test_profile_sphere_zero_crossings_tangent():
    prof = potential_profile(1.0, 1.0, 1.0)
    assert prof.zero_crossings == (math.pi / 4, math.pi / 4)


def test_profile_critical_derivative_invariant(rng):
    for kappa in REGIMES:
        for _ in range(10):
            k = rng.uniform(1.0, 2.5)
            j_top = 0.9 * escape_angular_momentum(kappa, k) if kappa < 0 else 1.6
            j = rng.uniform(0.7, j_top)
            prof = potential_profile(kappa, k, j)
            assert prof.critical_radius is not None
            h = 1e-6
            slope = (
                w_eff(kappa, k, j, prof.critical_radius + h)
                - w_eff(kappa, k, j, prof.critical_radius - h)
            ) / (2 * h)
            assert abs(slope) < 1e-8


# ----------------------------------------------------------------------
# one boundary rule: orbit class, turning points, conic, radial period
# ----------------------------------------------------------------------

_HIGGS = {
    OrbitLabel.SPHERICAL_ELLIPSE_SUB: "sub",
    OrbitLabel.SPHERICAL_ELLIPSE_EQUATORIAL: "equatorial",
    OrbitLabel.SPHERICAL_ELLIPSE_SUPER: "super",
}


@st.composite
def near_boundary_cases(draw):
    """(kappa, k, j, e) a relative 1e-13 to 1e-2 from the escape (equator,
    parabola) energy or from the circle's, for |j| from 1e-2 to 1e2."""
    kappa = draw(st.sampled_from([1.0, -1.0, 1e-6, -1e-6, 0.0]))
    k = draw(st.floats(0.5, 2.0))
    j = 10.0 ** draw(st.floats(-2.0, 2.0)) * draw(st.sampled_from([-1.0, 1.0]))
    if kappa < 0.0:
        # keep a well, down to one where lo = 1 - sqrt(-kappa) j**2/k is 1e-6
        j = math.copysign(min(abs(j), math.sqrt((1.0 - 1e-6) * k / math.sqrt(-kappa))), j)
    if draw(st.booleans()):
        land = -k * math.sqrt(-kappa) if kappa < 0.0 else 0.5 * kappa * j * j
    else:
        land = 0.5 * (kappa * j * j - k * k / (j * j))
    offset = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-13.0, -2.0))
    return kappa, k, j, land + offset * max(1.0, abs(land))


@given(near_boundary_cases())
# ecc is 5e-11 under the parabola's 1, but u_apo = (1 - ecc)/d is 3.8e-9
@example((0.0, 1.4770787061859296, 0.13977197546947992, -5.223186524585646e-09))
@example((-1.0, 1.0, 0.5, -2.125 * (1.0 + 1e-11)))  # just below the circle
# a well 5e-13 under the plateau, e above it: open, not a tangency
@example((-1.0, 1.0600774599162244, -1.0296001164718098, -1.0600774599161848))
# j = 100 on the sphere: ecc**2 at the rounded minimum of W, and the equator
@example((1.0, 1.0, 100.0, critical_point(1.0, 1.0, 100.0)[1]))
@example((1.0, 1.0, 100.0, 5000.0))
# d = 1e-8: ecc 5e-10 under lo is u_apo 5% above the plateau, an ellipse
@example((-1.0, 1.0, 1e-4, -1.05))
@settings(max_examples=500, deadline=None)
def test_orbit_class_turning_points_conic_and_period_agree(case):
    kappa, k, j, e = case
    try:
        cls = classify_orbit(kappa, k, j, e)
    except InfeasibleError:
        assert turning_points(kappa, k, j, e) == []
        return
    roots = turning_points(kappa, k, j, e)
    assert len(roots) == (2 if cls.bounded else 1)
    circle = cls.label in (OrbitLabel.CIRCLE, OrbitLabel.HYP_CIRCLE)

    s = sin_k(kappa, roots[0])
    oc = orbit_constants(PhaseState(roots[0], 0.0, 0.0, j / (s * s)), KeplerParams(kappa, k))
    conic = classify_conic(conic_from_dynamics(kappa, oc.d, oc.ecc))
    assert (conic.label in (ConicLabel.CIRCLE, ConicLabel.ELLIPSE)) == cls.bounded
    assert circle or conic.label is not ConicLabel.CIRCLE
    if kappa > 0.0 and not circle:
        assert conic.higgs == _HIGGS[cls.label]
    # the circle's band is one of ecc**2 scaled by the energy, so a conic
    # spec has no band of its own: the record gives a circle ecc 0
    record = classify_record(kappa, k, j, e)
    assert record["bounded"] == (record["conic"]["label"] in ("circle", "ellipse"))
    assert (record["conic"]["label"] == "circle") == circle

    if cls.bounded:
        try:
            assert 0.0 < radial_period(oc, kappa) < math.inf
        except DomainError as exc:
            assert oc.ecc == 0.0 and "circular" in str(exc)
    else:
        with pytest.raises(DomainError, match="not radially bounded"):
            radial_period(oc, kappa)
