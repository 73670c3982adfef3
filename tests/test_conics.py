"""Conic taxonomy tests: size charts, classification, focal metric checks."""

import math

import numpy as np
import pytest

from curvedkepler.conics import (
    BOUNDARY_RTOL,
    ConicFamily,
    ConicLabel,
    ConicSpec,
    FocalElements,
    FocalKind,
    classify_conic,
    conic_from_dynamics,
    ecc_from_focal,
    equiparabola_ecc,
    focal_from_vertices,
    periastron_family,
    sample_conic,
    verify_conic_definition,
)
from curvedkepler.dynamics import KeplerParams, PhaseState
from curvedkepler.effective_potential import turning_points
from curvedkepler.errors import DegenerateError, DomainError, InfeasibleError
from curvedkepler.geometry import PolarPoint
from curvedkepler.ktrig import cos_k, tan_k
from curvedkepler.orbit import orbit_constants

from conftest import bounded_orbit_elements


# ----------------------------------------------------------------------
# ConicSpec and conic_from_dynamics
# ----------------------------------------------------------------------


def test_flat_size_is_the_latus_length():
    spec = conic_from_dynamics(0.0, 2.0, 0.5)
    assert spec.family is ConicFamily.LATUS
    assert spec.p == 2.0
    assert spec.d == 2.0


def test_hyperbolic_large_size_lands_in_the_colatus_chart():
    spec = conic_from_dynamics(-1.0, 2.0, 2.0)
    assert spec.family is ConicFamily.COLATUS
    assert spec.p_tilde == pytest.approx(math.atanh(0.5), rel=1e-15)
    assert spec.d == pytest.approx(2.0, rel=1e-14)


def test_hyperbolic_saturation_size_is_the_separatrix():
    spec = conic_from_dynamics(-1.0, 1.0, 1.5)
    assert spec.family is ConicFamily.SEPARATRIX
    assert spec.p is None and spec.p_tilde is None
    assert spec.d == 1.0


def test_infeasible_periastron_is_rejected():
    # d/(1+ecc) must stay below the saturation length 1/sqrt(-kappa)
    with pytest.raises(DomainError):
        conic_from_dynamics(-1.0, 3.0, 1.0)
    with pytest.raises(DomainError):
        conic_from_dynamics(-1.0, 2.0, 1.0)  # exactly at saturation
    conic_from_dynamics(-1.0, 2.0, 1.5)  # just feasible


@pytest.mark.parametrize("kappa", [1.0, 0.25, 0.0, -0.5, -1.0])
def test_size_round_trips_through_the_chart(kappa, rng):
    for ecc in rng.uniform(0.0, 3.0, size=20):
        d_hi = 0.9 * (1.0 + ecc) / math.sqrt(-kappa) if kappa < 0 else 4.0
        d = rng.uniform(0.05, d_hi)
        spec = conic_from_dynamics(kappa, float(d), float(ecc))
        assert spec.d == pytest.approx(d, rel=1e-13)


def test_spec_validation():
    with pytest.raises(DomainError):
        ConicSpec(0.0, -0.5, ConicFamily.LATUS, p=1.0)
    with pytest.raises(DomainError):
        ConicSpec(0.0, 1.0, ConicFamily.COLATUS, p_tilde=1.0)  # flat colatus
    with pytest.raises(DomainError):
        ConicSpec(1.0, 1.0, ConicFamily.SEPARATRIX)  # spherical separatrix
    with pytest.raises(DomainError):
        ConicSpec(1.0, 1.0, ConicFamily.LATUS, p=4.0)  # beyond the chart
    with pytest.raises(DomainError):
        ConicSpec(-1.0, 1.0, ConicFamily.LATUS, p=1.0, p_tilde=1.0)
    with pytest.raises(DomainError):
        conic_from_dynamics(0.0, -1.0, 0.5)


def test_colatus_spec_refuses_an_infinite_p_tilde_when_built():
    # the size formulas take the checked p_tilde as it is, so the
    # constructor is where an infinite one has to stop
    with pytest.raises(DomainError, match="p_tilde > 0, got inf"):
        ConicSpec(-1.0, 0.5, ConicFamily.COLATUS, p_tilde=math.inf)


# ----------------------------------------------------------------------
# classify_conic
# ----------------------------------------------------------------------


def latus_spec(kappa, tanh_p, ecc):
    return ConicSpec(kappa, ecc, ConicFamily.LATUS, p=math.atanh(tanh_p))


def test_hyperbolic_latus_ladder():
    # thresholds at 1 -/+ tanh(p) = 0.75 and 1.25
    assert classify_conic(latus_spec(-1.0, 0.25, 0.0)).label is ConicLabel.CIRCLE
    assert classify_conic(latus_spec(-1.0, 0.25, 0.5)).label is ConicLabel.ELLIPSE
    assert classify_conic(latus_spec(-1.0, 0.25, 0.75)).label is ConicLabel.HOROELLIPSE
    assert classify_conic(latus_spec(-1.0, 0.25, 1.0)).label is ConicLabel.PARABOLA
    assert classify_conic(latus_spec(-1.0, 0.25, 1.25)).label is ConicLabel.HOROHYPERBOLA
    assert classify_conic(latus_spec(-1.0, 0.25, 1.5)).label is ConicLabel.HYPERBOLA
    assert classify_conic(latus_spec(-1.0, 0.25, math.inf)).label is ConicLabel.LINE_PAIR


def test_hyperbolic_equiparabola_is_detected():
    spec = latus_spec(-1.0, 0.25, 1.0 / cos_k(-1.0, math.atanh(0.25)))
    assert classify_conic(spec).label is ConicLabel.EQUIPARABOLA


def test_colatus_ladder():
    p_tilde = math.atanh(0.5)
    mk = lambda ecc: ConicSpec(-1.0, ecc, ConicFamily.COLATUS, p_tilde=p_tilde)
    # threshold 1 + 1/tanh(p_tilde) = 3
    assert classify_conic(mk(0.5)).label is ConicLabel.PARABOLA
    assert classify_conic(mk(2.0)).label is ConicLabel.PARABOLA
    assert classify_conic(mk(3.0)).label is ConicLabel.HOROHYPERBOLA
    assert classify_conic(mk(4.0)).label is ConicLabel.HYPERBOLA
    assert classify_conic(mk(math.cosh(p_tilde))).label is ConicLabel.EQUIPARABOLA


def test_separatrix_ladder():
    mk = lambda ecc: ConicSpec(-1.0, ecc, ConicFamily.SEPARATRIX)
    assert classify_conic(mk(1.9)).label is ConicLabel.PARABOLA
    assert classify_conic(mk(2.0)).label is ConicLabel.HOROHYPERBOLA
    assert classify_conic(mk(2.4)).label is ConicLabel.HYPERBOLA


def test_flat_ladder():
    mk = lambda ecc: ConicSpec(0.0, ecc, ConicFamily.LATUS, p=1.0)
    assert classify_conic(mk(0.0)).label is ConicLabel.CIRCLE
    assert classify_conic(mk(0.5)).label is ConicLabel.ELLIPSE
    assert classify_conic(mk(1.0)).label is ConicLabel.PARABOLA
    assert classify_conic(mk(1.0 + 1e-11)).label is ConicLabel.PARABOLA  # band
    assert classify_conic(mk(2.0)).label is ConicLabel.HYPERBOLA
    assert classify_conic(mk(math.inf)).label is ConicLabel.LINE_PAIR


def test_spherical_conics_are_ellipses_with_equator_annotation():
    mk = lambda ecc: ConicSpec(1.0, ecc, ConicFamily.LATUS, p=1.0)
    assert classify_conic(mk(0.0)).label is ConicLabel.CIRCLE
    sub = classify_conic(mk(0.5))
    assert sub.label is ConicLabel.ELLIPSE and sub.higgs == "sub"
    eq = classify_conic(mk(1.0))
    assert eq.label is ConicLabel.ELLIPSE and eq.higgs == "equatorial"
    sup = classify_conic(mk(3.0))
    assert sup.label is ConicLabel.ELLIPSE and sup.higgs == "super"


def test_latus_intervals_partition_the_ecc_axis():
    # growing ecc at fixed p must walk the ladder monotonically, with
    # every open class showing up and no label out of order
    rank = {
        ConicLabel.CIRCLE: 0,
        ConicLabel.ELLIPSE: 1,
        ConicLabel.HOROELLIPSE: 2,
        ConicLabel.PARABOLA: 3,
        ConicLabel.EQUIPARABOLA: 3,
        ConicLabel.HOROHYPERBOLA: 4,
        ConicLabel.HYPERBOLA: 5,
    }
    for tanh_p in (0.1, 0.45, 0.85):
        lo, hi = 1.0 - tanh_p, 1.0 + tanh_p
        eccs = sorted(set(np.linspace(0.0, 2.0 * hi, 400)) | {0.0, lo, hi})
        seen = []
        prev = -1
        for ecc in eccs:
            label = classify_conic(latus_spec(-1.0, tanh_p, float(ecc))).label
            assert rank[label] >= prev
            prev = rank[label]
            seen.append(label)
        for needed in (
            ConicLabel.CIRCLE,
            ConicLabel.ELLIPSE,
            ConicLabel.HOROELLIPSE,
            ConicLabel.PARABOLA,
            ConicLabel.HOROHYPERBOLA,
            ConicLabel.HYPERBOLA,
        ):
            assert needed in seen


def test_equiparabola_and_unity_sit_inside_the_parabola_band():
    for tanh_p in np.linspace(0.05, 0.95, 19):
        p = math.atanh(float(tanh_p))
        lo, hi = 1.0 - tanh_p, 1.0 + tanh_p
        e_eq = equiparabola_ecc(ConicSpec(-1.0, 1.0, ConicFamily.LATUS, p=p))
        assert lo < e_eq < hi
        assert lo < 1.0 < hi


# ----------------------------------------------------------------------
# equiparabola_ecc
# ----------------------------------------------------------------------


def test_flat_equiparabola_is_the_parabola():
    spec = ConicSpec(0.0, 1.0, ConicFamily.LATUS, p=2.3)
    assert equiparabola_ecc(spec) == 1.0


def test_hyperbolic_equiparabola_value():
    spec = ConicSpec(-1.0, 1.0, ConicFamily.LATUS, p=1.0)
    assert equiparabola_ecc(spec) == pytest.approx(1.0 / math.cosh(1.0), rel=1e-15)
    assert equiparabola_ecc(spec) == pytest.approx(0.648054, abs=1e-6)


def test_colatus_equiparabola_value():
    spec = ConicSpec(-1.0, 1.0, ConicFamily.COLATUS, p_tilde=0.8)
    assert equiparabola_ecc(spec) == pytest.approx(math.cosh(0.8), rel=1e-15)


def test_separatrix_has_no_equiparabola():
    with pytest.raises(DegenerateError):
        equiparabola_ecc(ConicSpec(-1.0, 1.0, ConicFamily.SEPARATRIX))


@pytest.mark.parametrize("kappa", [1.0, 0.0, -0.5, -1.0])
def test_equiparabola_tangent_identity(kappa, rng):
    # sqrt(1 + kappa tan_k(p)^2) is the same number as 1/cos_k(p)
    p_hi = 0.45 * math.pi / math.sqrt(kappa) if kappa > 0 else 3.0
    for p in rng.uniform(0.05, p_hi, size=40):
        lhs = math.sqrt(1.0 + kappa * tan_k(kappa, float(p)) ** 2)
        rhs = 1.0 / cos_k(kappa, float(p))
        assert lhs == pytest.approx(rhs, rel=1e-13)


# ----------------------------------------------------------------------
# ecc_from_focal / focal_from_vertices
# ----------------------------------------------------------------------


def test_flat_two_foci_eccentricity_is_the_ratio():
    assert ecc_from_focal(0.0, FocalElements.two_foci(3.0, 5.0)) == pytest.approx(
        0.6, rel=1e-15
    )


def test_flat_focus_line_eccentricity_is_one(rng):
    for _ in range(10):
        fe = FocalElements.focus_line(rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0))
        assert ecc_from_focal(0.0, fe) == 1.0


def test_hyperbolic_two_foci_eccentricity():
    fe = FocalElements.two_foci(0.5, 1.0)
    expected = math.sinh(1.0) / math.sinh(2.0)
    assert ecc_from_focal(-1.0, fe) == pytest.approx(expected, rel=1e-15)
    assert ecc_from_focal(-1.0, fe) == pytest.approx(0.324027, abs=1e-6)


def test_degenerate_axes_raise():
    with pytest.raises(DegenerateError):
        # 2a = pi: the axis spans a full meridian of the unit sphere
        ecc_from_focal(1.0, FocalElements.two_foci(0.5, math.pi / 2.0))
    with pytest.raises(DegenerateError):
        ecc_from_focal(1.0, FocalElements.focus_line(0.3, math.pi / 4.0))


def test_vertices_to_focal_elements():
    fe = focal_from_vertices(0.0, 1.0, 3.0)
    assert fe.kind is FocalKind.TWO_FOCI
    assert fe.half_separation == 1.0
    assert fe.half_axis == 2.0
    # flat cross-check: e = f/a and D = a(1 - e^2)
    ecc = ecc_from_focal(0.0, fe)
    assert ecc == pytest.approx(0.5, rel=1e-15)
    assert 2.0 * (1.0 - ecc**2) == pytest.approx(1.5, rel=1e-15)


def test_equal_vertices_make_a_circle():
    fe = focal_from_vertices(-1.0, 0.7, 0.7)
    assert fe.half_separation == 0.0
    assert ecc_from_focal(-1.0, fe) == 0.0


def test_vertices_validation():
    with pytest.raises(InfeasibleError):
        focal_from_vertices(0.0, 1.0, math.inf)
    with pytest.raises(DomainError):
        focal_from_vertices(0.0, 3.0, 1.0)
    with pytest.raises(DomainError):
        focal_from_vertices(0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        focal_from_vertices(1.0, 0.5, 3.5)  # past the antipode


# ----------------------------------------------------------------------
# verify_conic_definition
# ----------------------------------------------------------------------


def test_circle_fits_its_own_definition():
    samples = [PolarPoint(0.8, phi) for phi in np.linspace(0.0, 6.0, 12)]
    fe = FocalElements.two_foci(0.0, 0.8)
    assert verify_conic_definition(1.0, samples, fe) < 1e-12
    assert verify_conic_definition(-1.0, samples, fe) < 1e-12


def test_flat_ellipse_fits_the_sum_definition():
    d, ecc = 1.5, 0.5
    phis = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    samples = [PolarPoint(d / (1.0 + ecc * math.cos(p)), p) for p in phis]
    fe = focal_from_vertices(0.0, 1.0, 3.0)
    assert verify_conic_definition(0.0, samples, fe, sign="sum") < 1e-10


def test_flat_hyperbola_fits_the_difference_definition():
    # e=2, D=1: near branch with vertex r_per = 1/3, second focus at
    # distance 2f = 4/3 beyond the vertex
    spec = conic_from_dynamics(0.0, 1.0, 2.0)
    phis = np.linspace(-1.8, 1.8, 25)  # asymptotes at +/- 2pi/3
    samples = sample_conic(spec, phis)
    assert len(samples) == len(phis)
    fe = FocalElements.two_foci(2.0 / 3.0, 1.0 / 3.0)
    assert verify_conic_definition(0.0, samples, fe, sign="difference") < 1e-10


def test_hyperbolic_kepler_orbit_is_a_metric_ellipse(rng):
    kappa, k = -1.0, 1.0
    for _ in range(6):
        j, ecc, energy = bounded_orbit_elements(kappa, k, rng)
        r_per, r_apo = turning_points(kappa, k, j, energy)
        fe = focal_from_vertices(kappa, r_per, r_apo)
        spec = conic_from_dynamics(kappa, j * j / k, ecc)
        samples = sample_conic(spec, np.linspace(0.0, 2.0 * math.pi, 48, endpoint=False))
        assert verify_conic_definition(kappa, samples, fe, sign="sum") < 1e-8
        # the focal elements reproduce the dynamical eccentricity
        assert ecc_from_focal(kappa, fe) == pytest.approx(ecc, abs=1e-9)


def test_verification_needs_enough_samples_and_a_valid_sign():
    samples = [PolarPoint(1.0, 0.1 * i) for i in range(5)]
    fe = FocalElements.two_foci(0.0, 1.0)
    with pytest.raises(DomainError):
        verify_conic_definition(0.0, samples, fe)
    samples = [PolarPoint(1.0, 0.1 * i) for i in range(9)]
    with pytest.raises(DomainError):
        verify_conic_definition(0.0, samples, fe, sign="perimeter")


# ----------------------------------------------------------------------
# periastron_family
# ----------------------------------------------------------------------


def test_flat_family_has_a_zero_width_parabola_point():
    fam = periastron_family(0.0, 1.0)
    assert fam.d_circle == 1.0
    assert fam.d_horoellipse == 2.0
    assert fam.d_horohyperbola == 2.0
    assert fam.parabola_band_width == 0.0
    assert fam.colatus_tangent is None
    assert fam.ecc_horoellipse == 1.0 == fam.ecc_horohyperbola


def test_family_beyond_the_saturation_of_tanh_is_rejected():
    # tanh(c r_per) rounds to 1 from c r_per = 18.7 on: the landmarks would
    # divide by 1 - tanh(c r_per) = 0
    periastron_family(-1.0, 18.7)
    with pytest.raises(DomainError, match="saturation"):
        periastron_family(-1.0, 20.0)
    with pytest.raises(DomainError, match="saturation"):
        periastron_family(-4.0, 10.0)


def test_hyperbolic_family_landmarks():
    r_per = math.atanh(0.5)
    fam = periastron_family(-1.0, r_per)
    assert fam.d_circle == pytest.approx(0.5, rel=1e-15)
    assert fam.d_horoellipse == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert fam.d_horohyperbola == pytest.approx(2.0, rel=1e-14)
    assert fam.colatus_tangent == pytest.approx(0.5, rel=1e-14)
    assert fam.ecc_horoellipse == pytest.approx(1.0 / 3.0, rel=1e-13)
    assert fam.ecc_horohyperbola == pytest.approx(3.0, rel=1e-13)


def test_family_chain_is_ordered(rng):
    for _ in range(30):
        kappa = -float(rng.uniform(0.1, 4.0))
        r_per = float(rng.uniform(0.05, 2.0))
        fam = periastron_family(kappa, r_per)
        c, t = math.sqrt(-kappa), fam.d_circle
        assert 0.0 < t < fam.d_horoellipse < fam.d_horohyperbola
        # eccentricity landmarks close against the threshold formulas
        ct = c * t
        assert fam.ecc_horoellipse == pytest.approx((1.0 - ct) / (1.0 + ct), rel=1e-12)
        assert fam.ecc_horohyperbola == pytest.approx((1.0 + ct) / (1.0 - ct), rel=1e-12)


def test_family_landmarks_classify_as_their_boundaries():
    for kappa, r_per in ((-1.0, 0.6), (-0.25, 1.4), (-2.0, 0.3)):
        fam = periastron_family(kappa, r_per)
        spec = conic_from_dynamics(kappa, fam.d_horoellipse, fam.ecc_horoellipse)
        assert classify_conic(spec).label is ConicLabel.HOROELLIPSE
        spec = conic_from_dynamics(kappa, fam.d_horohyperbola, fam.ecc_horohyperbola)
        assert classify_conic(spec).label is ConicLabel.HOROHYPERBOLA


def test_colatus_landmark_appears_only_when_needed():
    # cT < 1/3 keeps the horohyperbola landmark inside the latus chart
    assert periastron_family(-1.0, math.atanh(0.2)).colatus_tangent is None
    fam = periastron_family(-1.0, math.atanh(0.5))
    assert fam.colatus_tangent is not None
    assert fam.d_horohyperbola == pytest.approx(
        1.0 / (1.0 * fam.colatus_tangent), rel=1e-13
    )


def test_band_width_vanishes_with_curvature():
    r_per = 1.3
    w1 = periastron_family(-1e-6, r_per).parabola_band_width
    w2 = periastron_family(-4e-6, r_per).parabola_band_width
    assert w2 == pytest.approx(2.0 * w1, rel=1e-5)
    assert w1 == pytest.approx(4.0 * math.sqrt(1e-6) * r_per**2, rel=1e-5)


def test_family_rejects_bad_inputs():
    with pytest.raises(DomainError):
        periastron_family(1.0, 0.5)
    with pytest.raises(DomainError):
        periastron_family(-1.0, 0.0)
    with pytest.raises(DomainError):
        periastron_family(-1.0, math.inf)


# ----------------------------------------------------------------------
# sample_conic
# ----------------------------------------------------------------------


def test_circle_samples_at_constant_radius():
    spec = ConicSpec(1.0, 0.0, ConicFamily.LATUS, p=0.7)
    pts = sample_conic(spec, np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False))
    assert len(pts) == 24
    assert all(pt.r == pytest.approx(0.7, rel=1e-14) for pt in pts)


def test_spherical_super_conic_covers_all_angles_and_crosses_equator():
    spec = ConicSpec(1.0, 2.0, ConicFamily.LATUS, p=math.atan(1.0))
    phis = np.linspace(0.0, 2.0 * math.pi, 73, endpoint=False)
    pts = sample_conic(spec, phis)
    assert len(pts) == len(phis)
    rs = [pt.r for pt in pts]
    assert min(rs) < math.pi / 2.0 < max(rs)


def test_hyperbola_samples_skip_the_asymptotic_sector():
    # d = 0.5, ecc = 3: physical angles satisfy (1 + 3 cos phi)/0.5 > 1,
    # i.e. cos phi > -1/6
    spec = ConicSpec(-1.0, 3.0, ConicFamily.LATUS, p=math.atanh(0.5))
    phi_star = math.acos(-1.0 / 6.0)
    phis = np.linspace(-math.pi, math.pi, 721)
    pts = sample_conic(spec, phis)
    assert 0 < len(pts) < len(phis)
    kept = {pt.phi for pt in pts}
    for phi in phis:
        if abs(float(phi)) < phi_star - 1e-9:
            assert float(phi) in kept
        elif abs(float(phi)) > phi_star + 1e-9:
            assert float(phi) not in kept


def test_flat_parabola_omits_the_open_direction():
    spec = conic_from_dynamics(0.0, 1.0, 1.0)
    pts = sample_conic(spec, [0.0, 1.0, math.pi, 5.0])
    assert len(pts) == 3
    assert all(not math.isclose(pt.phi, math.pi) for pt in pts)


def test_orbit_and_conic_sampling_agree():
    # the conic through conic_from_dynamics(d, ecc) is the orbit's path
    kappa, k = -1.0, 1.0
    state = PhaseState(*_bounded_state(kappa, k))
    oc = orbit_constants(state, KeplerParams(kappa, k))
    spec = conic_from_dynamics(kappa, oc.d, oc.ecc)
    phis = np.linspace(0.0, 2.0 * math.pi, 17, endpoint=False)
    pts = sample_conic(spec, phis)
    from curvedkepler.orbit import orbit_radius

    for pt in pts:
        assert orbit_radius(oc, kappa, pt.phi + oc.phi0) == pytest.approx(
            pt.r, rel=1e-12
        )


def _bounded_state(kappa, k):
    # a periastron state of a comfortably bounded hyperbolic orbit
    from curvedkepler.ktrig import acot_k

    j, ecc = 0.7, 0.3
    d = j * j / k
    u_per = (1.0 + ecc) / d
    return acot_k(kappa, u_per), 0.0, 0.0, j * (u_per * u_per + kappa)
