"""Tests for the dynamics module: forces, first integrals, integrator."""

import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest
from conftest import SEED, random_states
from mpmath import mp, mpf

from curvedkepler import DomainError, dop853, dynamics
from curvedkepler.dynamics import (
    ConservedSet,
    KeplerParams,
    Momenta,
    PhaseState,
    circular_state,
    energy,
    eom_rhs,
    gauss_law_flux,
    integrate,
    integrate_separable,
    kepler_potential,
    kepler_potential_gradient,
    killing_fields,
    kinetic_energy,
    momenta,
    runge_lenz,
    separable_integrals,
)
from curvedkepler.effective_potential import OrbitLabel, classify_orbit, turning_points
from curvedkepler.errors import (
    CurvedKeplerError,
    InfeasibleError,
    NumericalError,
    SingularityError,
    StiffnessError,
)
from curvedkepler.geometry import PolarPoint
from curvedkepler.ktrig import acot_k, cos_k, sin_k
from curvedkepler.orbit import orbit_constants, radial_period

FOUR_PI = 12.566370614359172  # 4*pi
EIGHT_PI = 25.132741228718345

REGIMES = [1.0, 0.0, -1.0]


# ----------------------------------------------------------------------
# potential and flux
# ----------------------------------------------------------------------


def test_potential_flat_value():
    assert kepler_potential(KeplerParams(0.0, 1.0), 2.0) == -0.5


def test_potential_equator_is_exact_zero():
    assert kepler_potential(KeplerParams(1.0, 1.0), math.pi / 2) == 0.0
    # same with a rescaled curvature
    assert kepler_potential(KeplerParams(4.0, 2.0), math.pi / 4) == 0.0


def test_potential_hyperbolic_plateau():
    # -coth(20) differs from -1 by about 4e-18
    u = kepler_potential(KeplerParams(-1.0, 1.0), 20.0)
    assert abs(u - (-1.0)) < 1e-15


def test_potential_center_raises():
    with pytest.raises(SingularityError):
        kepler_potential(KeplerParams(1.0, 1.0), 0.0)
    with pytest.raises(SingularityError):
        kepler_potential(KeplerParams(-1.0, 1.0), -0.3)


def test_potential_outside_chart_raises():
    with pytest.raises(DomainError):
        kepler_potential(KeplerParams(1.0, 1.0), math.pi)


def test_gradient_matches_finite_differences(rng):
    h = 1e-6
    for kappa in REGIMES:
        params = KeplerParams(kappa, 1.7)
        for state in random_states(kappa, 25, rng, r_lo=0.3, r_hi=3.0):
            r = state.r
            fd = (
                kepler_potential(params, r + h) - kepler_potential(params, r - h)
            ) / (2 * h)
            grad = kepler_potential_gradient(params, r)
            assert abs(grad - fd) < 1e-7 * max(1.0, abs(grad))


def test_flux_examples():
    sphere = KeplerParams(1.0, 1.0)
    assert gauss_law_flux(sphere, 0.3) == pytest.approx(FOUR_PI, abs=1e-12)
    assert gauss_law_flux(sphere, 1.2) == pytest.approx(FOUR_PI, abs=1e-12)
    assert gauss_law_flux(KeplerParams(0.0, 2.0), 5.0) == pytest.approx(
        EIGHT_PI, abs=1e-12
    )
    assert gauss_law_flux(KeplerParams(-1.0, 1.0), 3.0) == pytest.approx(
        FOUR_PI, abs=1e-12
    )


def test_flux_is_radius_independent(rng):
    for kappa in REGIMES:
        params = KeplerParams(kappa, 0.37)
        target = FOUR_PI * 0.37
        for state in random_states(kappa, 50, rng):
            assert gauss_law_flux(params, state.r) == pytest.approx(
                target, rel=1e-12
            )


# ----------------------------------------------------------------------
# equations of motion
# ----------------------------------------------------------------------


def test_eom_circular_orbit_has_no_radial_force():
    for kappa, k, j in [(1.0, 1.0, 1.0), (0.0, 1.0, 1.0), (-1.0, 4.0, 1.0)]:
        params = KeplerParams(kappa, k)
        state = circular_state(params, j)
        rhs = eom_rhs(state, params)
        scale = max(1.0, kepler_potential_gradient(params, state.r))
        assert abs(rhs[2]) < 1e-11 * scale
        assert rhs[3] == 0.0


def test_eom_pure_radial_motion():
    params = KeplerParams(-1.0, 2.0)
    state = PhaseState(r=0.7, phi=1.1, v_r=-0.9, v_phi=0.0)
    rhs = eom_rhs(state, params)
    assert rhs[0] == state.v_r
    assert rhs[2] == -kepler_potential_gradient(params, state.r)
    assert rhs[3] == 0.0


def test_eom_flat_reduction():
    params = KeplerParams(0.0, 1.3)
    state = PhaseState(r=1.7, phi=0.4, v_r=0.5, v_phi=-0.8)
    rhs = eom_rhs(state, params)
    assert rhs[0] == state.v_r
    assert rhs[1] == state.v_phi
    assert rhs[2] == pytest.approx(
        state.r * state.v_phi**2 - params.k / state.r**2, rel=1e-15
    )
    assert rhs[3] == pytest.approx(
        -2.0 * state.v_r * state.v_phi / state.r, rel=1e-15
    )


def test_eom_center_raises():
    params = KeplerParams(1.0, 1.0)
    with pytest.raises(SingularityError):
        eom_rhs(PhaseState(0.0, 0.0, 1.0, 0.0), params)


def test_eom_radial_force_is_effective_gradient(rng):
    # f_r must equal -d/dr [ j^2 / (2 sin_k(r)^2) + U(r) ] at frozen j
    h = 1e-6
    for kappa in REGIMES:
        params = KeplerParams(kappa, 1.9)
        for state in random_states(kappa, 30, rng, r_lo=0.3, v_max=2.0, r_hi=3.0):
            j = sin_k(kappa, state.r) ** 2 * state.v_phi

            def w(r):
                s = sin_k(kappa, r)
                return 0.5 * j * j / (s * s) + kepler_potential(params, r)

            fd = -(w(state.r + h) - w(state.r - h)) / (2 * h)
            assert abs(eom_rhs(state, params)[2] - fd) < 1e-7


def _kernel_oracle(kappa, k, r, state):
    """The paper's flow and first integrals at 30 digits, with scales.

    Each entry is (value, scale); the scale sums the magnitudes of the
    terms, so a cancelling sum is judged against what it cancels.
    """
    kap, k = mpf(kappa), mpf(k)
    phi, v_r, v_phi = (mpf(x) for x in (state.phi, state.v_r, state.v_phi))
    if kappa > 0:
        s, c = mp.sin(mp.sqrt(kap) * r) / mp.sqrt(kap), mp.cos(mp.sqrt(kap) * r)
    elif kappa < 0:
        s, c = mp.sinh(mp.sqrt(-kap) * r) / mp.sqrt(-kap), mp.cosh(mp.sqrt(-kap) * r)
    else:
        s, c = r, mpf(1)
    cphi, sphi = mp.cos(phi), mp.sin(phi)
    j = s * s * v_phi
    t = (v_r**2 + s * s * v_phi**2) / 2
    e = t - k * c / s
    e_scale = t + abs(k * c / s)
    p1 = cphi * v_r - c * s * sphi * v_phi
    p2 = sphi * v_r + c * s * cphi * v_phi
    p_scale = (abs(v_r) + abs(c * s * v_phi)) * abs(j)
    rhs = [
        (v_r, abs(v_r)),
        (v_phi, abs(v_phi)),
        (s * c * v_phi**2 - k / s**2, abs(s * c * v_phi**2) + k / s**2),
        (-2 * (c / s) * v_r * v_phi, abs(2 * (c / s) * v_r * v_phi)),
    ]
    integrals = [
        (e, e_scale),
        (j, abs(j)),
        (e - kap * j * j / 2, e_scale + abs(kap) * j * j / 2),
        (p2 * j - k * cphi, p_scale + k),
        (p1 * j + k * sphi, p_scale + k),
    ]
    return rhs, integrals


@pytest.mark.parametrize("kappa", [1.0, 0.0, -1.0, 1e-9, -1e-9, 4.0, -0.25])
def test_rhs_and_first_integrals_match_30_digit_formulas(kappa, rng):
    # Rounding sqrt(|kappa|) and sqrt(|kappa|)*r moves the trig argument
    # by a few ulps, which near the equator is a large relative change
    # of cos_k; the bound adds what a 4-ulp move of r does to the oracle.
    params = KeplerParams(kappa, 1.7)
    with mp.workdps(30):
        for state in random_states(kappa, 200, rng):
            r = mpf(state.r)
            ref = sum(_kernel_oracle(kappa, params.k, r, state), [])
            moved = sum(_kernel_oracle(kappa, params.k, r * (1 + mpf(2) ** -50), state), [])
            c = ConservedSet.from_state(state, params)
            got = eom_rhs(state, params) + (c.e, c.j, c.e_p, c.i3, c.i4)
            for value, (exact, scale), (shifted, _) in zip(got, ref, moved):
                bound = mpf("1e-13") * scale + abs(shifted - exact)
                assert abs(mpf(value) - exact) <= bound, (state, value, exact)


# ----------------------------------------------------------------------
# momenta, energy, Runge-Lenz
# ----------------------------------------------------------------------


def test_momenta_at_rest():
    assert momenta(1.0, PhaseState(0.5, 2.0, 0.0, 0.0)) == Momenta(0.0, 0.0, 0.0)


def test_momenta_flat_example():
    mom = momenta(0.0, PhaseState(r=1.0, phi=0.0, v_r=1.0, v_phi=0.0))
    assert (mom.p1, mom.p2, mom.j) == (1.0, 0.0, 0.0)


def test_momenta_kinetic_identity(rng):
    # 2T = p1^2 + p2^2 + kappa j^2; tolerance scales with the dominant
    # term because the hyperbolic factors cancel almost exactly
    for kappa in REGIMES:
        for state in random_states(kappa, 10_000, rng):
            mom = momenta(kappa, state)
            lhs = mom.p1**2 + mom.p2**2 + kappa * mom.j**2
            rhs = 2.0 * kinetic_energy(kappa, state)
            scale = max(1.0, mom.p1**2 + mom.p2**2, abs(kappa) * mom.j**2)
            assert abs(lhs - rhs) <= 1e-12 * scale


def test_energy_rest_at_equator_is_zero():
    params = KeplerParams(1.0, 1.0)
    state = PhaseState(r=math.pi / 2, phi=0.0, v_r=0.0, v_phi=0.0)
    assert energy(state, params) == 0.0


def test_energy_flat_circular():
    params = KeplerParams(0.0, 1.0)
    state = circular_state(params, 1.0)
    assert state.r == 1.0
    assert energy(state, params) == -0.5


def test_energy_hyperbolic_circular():
    # E_cir = -(k^2/j^2 - kappa j^2)/2 = -(16 + 1)/2
    params = KeplerParams(-1.0, 4.0)
    state = circular_state(params, 1.0)
    assert energy(state, params) == pytest.approx(-8.5, abs=1e-12)


def test_energy_circular_formula_all_regimes(rng):
    for kappa in REGIMES:
        for _ in range(20):
            k = rng.uniform(0.5, 4.0)
            j_top = (k / math.sqrt(-kappa)) ** 0.5 if kappa < 0 else 2.5
            j = rng.uniform(0.2, 0.95 * j_top)
            params = KeplerParams(kappa, k)
            state = circular_state(params, j)
            expected = -0.5 * (k * k / (j * j) - kappa * j * j)
            assert energy(state, params) == pytest.approx(expected, rel=1e-12)


def test_energy_custom_potential():
    state = PhaseState(r=2.0, phi=0.0, v_r=1.0, v_phi=0.0)
    params = KeplerParams(0.0, 1.0)
    assert energy(state, params, potential=lambda r: 0.0) == 0.5


def test_runge_lenz_radial_state():
    params = KeplerParams(-1.0, 2.5)
    state = PhaseState(r=0.8, phi=0.0, v_r=1.2, v_phi=0.0)
    assert runge_lenz(state, params) == (-2.5, 0.0)


def test_runge_lenz_takes_kappa_from_the_params():
    # a second, bare kappa = 0 beside the params' kappa = 1 would give
    # (-0.19, 0.0); the orbit's ecc k is 0.7392410184178717
    state = PhaseState(r=1.0, phi=0.0, v_r=0.0, v_phi=0.9)
    params = KeplerParams(1.0, 1.0)
    assert runge_lenz(state, params) == (-0.7392410184178717, 0.0)
    assert -runge_lenz(state, params)[0] == orbit_constants(state, params).ecc * params.k


def test_runge_lenz_vanishes_on_circular_orbits():
    for kappa, k, j in [(1.0, 1.0, 1.0), (0.0, 1.0, 1.2), (-1.0, 4.0, 1.0)]:
        params = KeplerParams(kappa, k)
        state = circular_state(params, j, phi=0.7)
        i3, i4 = runge_lenz(state, params)
        assert i3 * i3 + i4 * i4 < 1e-11 * k * k


def test_runge_lenz_norm_identity(rng):
    # i3^2 + i4^2 = 2 e_p j^2 + k^2
    for kappa in REGIMES:
        params = KeplerParams(kappa, 1.4)
        for state in random_states(kappa, 300, rng):
            c = ConservedSet.from_state(state, params)
            lhs = c.i3**2 + c.i4**2
            rhs = 2.0 * c.e_p * c.j**2 + params.k**2
            scale = max(1.0, abs(lhs), abs(2.0 * c.e_p * c.j**2))
            assert abs(lhs - rhs) <= 1e-11 * scale


def test_conserved_set_partial_energy_relation(rng):
    for kappa in REGIMES:
        params = KeplerParams(kappa, 2.0)
        for state in random_states(kappa, 50, rng):
            c = ConservedSet.from_state(state, params)
            assert c.e_p == pytest.approx(
                c.e - 0.5 * kappa * c.j**2, rel=1e-14, abs=1e-14
            )


# ----------------------------------------------------------------------
# Killing fields
# ----------------------------------------------------------------------


def test_killing_rotation_field_is_constant(rng):
    for kappa in REGIMES:
        for state in random_states(kappa, 10, rng):
            _, _, yj = killing_fields(kappa, PolarPoint(state.r, state.phi))
            assert yj == (0.0, 1.0)


def test_killing_flat_translation_on_axis():
    y1, _, _ = killing_fields(0.0, PolarPoint(2.0, 0.0))
    assert y1 == (1.0, 0.0)


def test_killing_center_raises():
    with pytest.raises(SingularityError):
        killing_fields(1.0, PolarPoint(0.0, 0.3))


def _field(kappa, idx):
    def f(r, phi):
        return np.asarray(killing_fields(kappa, PolarPoint(r, phi))[idx])

    return f


def _fd_bracket(fx, fy, r, phi, h=1e-6):
    def jac(f):
        return np.column_stack(
            [
                (f(r + h, phi) - f(r - h, phi)) / (2 * h),
                (f(r, phi + h) - f(r, phi - h)) / (2 * h),
            ]
        )

    x, y = fx(r, phi), fy(r, phi)
    return jac(fy) @ x - jac(fx) @ y


def test_killing_field_brackets(rng):
    # the algebra of isometries: [y1,y2] = -kappa yj, and the rotation
    # turns one translation-like field into the other, [yj,y1] = -y2,
    # [yj,y2] = y1.  (This argument order is the one under which all
    # three relations close with the standard commutator; check the
    # flat case y1=d/dx, y2=d/dy, yj=x d/dy - y d/dx by hand.)
    for kappa in REGIMES:
        y1, y2, yj = (_field(kappa, i) for i in range(3))
        for state in random_states(kappa, 15, rng, r_lo=0.3, r_hi=3.0):
            r, phi = state.r, state.phi
            np.testing.assert_allclose(
                _fd_bracket(y1, y2, r, phi),
                -kappa * yj(r, phi),
                atol=1e-6,
            )
            np.testing.assert_allclose(
                _fd_bracket(yj, y1, r, phi), -y2(r, phi), atol=1e-6
            )
            np.testing.assert_allclose(
                _fd_bracket(yj, y2, r, phi), y1(r, phi), atol=1e-6
            )


# ----------------------------------------------------------------------
# separable integrals
# ----------------------------------------------------------------------


def test_separable_no_angular_part_reduces_to_j_squared(rng):
    for kappa in REGIMES:
        for state in random_states(kappa, 30, rng):
            _, i2 = separable_integrals(
                kappa, state, f=lambda r: 0.0, g=lambda p: 0.0
            )
            assert i2 == momenta(kappa, state).j ** 2


def test_separable_kepler_gives_partial_energy(rng):
    for kappa in REGIMES:
        params = KeplerParams(kappa, 1.8)

        def f(r):
            return -params.k * cos_k(kappa, r) / sin_k(kappa, r)

        for state in random_states(kappa, 100, rng):
            i1, i2 = separable_integrals(kappa, state, f, lambda p: 0.0)
            c = ConservedSet.from_state(state, params)
            scale = max(1.0, abs(i1), abs(kappa) * i2)
            assert abs(i1 - 2.0 * c.e_p) <= 1e-11 * scale
            # energy split 2E = i1 + kappa i2
            assert abs(i1 + kappa * i2 - 2.0 * c.e) <= 1e-11 * scale


def test_separable_center_raises():
    with pytest.raises(SingularityError):
        separable_integrals(
            1.0,
            PhaseState(0.0, 0.0, 1.0, 1.0),
            f=lambda r: 0.0,
            g=lambda p: 0.0,
        )


# ----------------------------------------------------------------------
# integrator
# ----------------------------------------------------------------------


def test_integrate_circular_orbit_radius_fixed():
    for kappa, k, j in [(1.0, 1.0, 1.0), (0.0, 1.0, 1.0), (-1.0, 4.0, 1.0)]:
        params = KeplerParams(kappa, k)
        state = circular_state(params, j)
        period = 2.0 * math.pi / state.v_phi
        traj = integrate(state, params, period, tol=1e-11)
        rs = traj.states[:, 0]
        assert np.abs(rs - state.r).max() < 1e-9 * state.r


def test_integrate_radial_drop_collides():
    params = KeplerParams(-1.0, 4.0)
    state = PhaseState(r=1.0, phi=0.0, v_r=0.0, v_phi=0.0)
    traj = integrate(state, params, 10.0, tol=1e-9)
    assert traj.event == "collision"
    assert traj.event_time is not None and 0.0 < traj.event_time < 10.0
    rs = traj.states[:, 0]
    assert np.all(np.diff(rs) < 0.0)
    assert np.all(np.diff(traj.times) > 0.0)


def test_integrate_flat_radial_drop_collides():
    params = KeplerParams(0.0, 1.0)
    state = PhaseState(r=0.5, phi=1.0, v_r=0.0, v_phi=0.0)
    traj = integrate(state, params, 5.0, tol=1e-9)
    assert traj.event == "collision"
    assert np.all(np.diff(traj.states[:, 0]) < 0.0)


def test_a_fall_with_a_small_coupling_reaches_the_collision_radius():
    # the flat Kepler fall of k = 1e-6 as a separable potential F = -k/r, whose
    # row has no fall law: it falls slowly enough that the steps never
    # underflow, and the last accepted state lies inside COLLISION_RADIUS itself
    k = 1e-6

    def zero(x):
        return 0.0

    state = PhaseState(1e-3, 0.0, 0.0, 0.0)
    traj = integrate_separable(0.0, state, lambda r: -k / r, lambda r: k / (r * r), zero, zero, 1e6)
    assert traj.event == "collision"
    assert traj.event_time == traj.t_end < 1e6
    assert 0.0 < traj.states[-1, 0] <= dop853.COLLISION_RADIUS


def _fall_law(params, traj):
    """The fall law's time from the last state of a radial trajectory to the centre."""
    r, _, v_r, _ = traj.states[-1].tolist()
    return dynamics._fall_time(params.kappa, params.k, r, v_r, float(traj.invariants[-1, 0]))


# radial falls whose steps underflow above _COLLISION_SOFT: at a tight tol
# the rounding of E's terms, about k eps/r, outgrows the spike bound
# 10 tol max(1, |E|) near r ~ k eps/(10 tol); from rest next to the centre
# the first trial step is already below the underflow bound
UNDERFLOWING_FALLS = [
    (PhaseState(1.0, 0.0, 0.0, 0.0), KeplerParams(0.0, 1.0), 10.0, 1e-13),
    (PhaseState(5e-5, 0.0, 0.0, 0.0), KeplerParams(-1.0, 20.0), 1.0, 1e-9),
]


@pytest.mark.parametrize("state,params,t_end,tol", UNDERFLOWING_FALLS, ids=["tight tol", "at rest"])
def test_a_radial_fall_whose_steps_underflow_collides(state, params, t_end, tol):
    # the rest of the fall, from the last row to the centre, is the fall law's
    traj = integrate(state, params, t_end, tol=tol, dense=False)
    assert traj.event == "collision"
    assert traj.t_end < t_end
    assert traj.event_time == traj.t_end + _fall_law(params, traj) > traj.t_end
    assert np.all(traj.states[:, 3] == 0.0) and np.all(traj.states[1:, 2] < 0.0)


@pytest.mark.parametrize("kappa", [1.0, 1e-6, 0.0, -1e-6, -1.0])
def test_a_fall_from_rest_collides_at_the_time_of_the_fall_law(kappa):
    # the integrator stops below _COLLISION_SOFT and adds the fall law's time
    # from there: the collision lands on the rest form's time from the start
    params = KeplerParams(kappa, 1.3)
    state = PhaseState(0.8, 0.0, 0.0, 0.0)
    traj = integrate(state, params, 10.0, tol=1e-11, dense=False)
    assert traj.event == "collision"
    assert traj.states[-1, 0] <= dop853._COLLISION_SOFT < traj.states[-2, 0]
    exact = dynamics._fall_time(kappa, 1.3, 0.8, 0.0, float(traj.invariants[0, 0]))
    assert abs(traj.event_time - exact) <= 1e-11 * exact


@pytest.mark.parametrize("kappa", [1.0, 0.0, -1.0])
def test_the_fall_law_meets_its_rest_form_at_the_switch(kappa):
    # below w/|a| = 1e-16 the rest form is exact to rounding, and the moving
    # form's w**3 would underflow at the smallest speeds; above, the moving
    # form starts at the rest form, about 0.6 w/|a| below it
    u = cos_k(kappa, 0.5) / sin_k(kappa, 0.5)
    rest = dynamics._fall_time(kappa, 1.0, 0.5, 0.0, -u)
    for v_r in (-1e-200, -1e-17):
        assert dynamics._fall_time(kappa, 1.0, 0.5, v_r, 0.5 * v_r * v_r - u) == rest
    assert dynamics._fall_time(kappa, 1.0, 0.5, -1e-15, 5e-31 - u) == pytest.approx(rest, rel=2e-15, abs=0.0)


# a flat k = 1 drop from rest at r = 1 reaches the centre at pi/(2 sqrt 2)
FLAT_DROP_COLLISION = math.pi / (2.0 * math.sqrt(2.0))


@pytest.mark.parametrize("early", [4e-7, 2e-7, 1e-8])
def test_a_radial_fall_the_law_ends_after_the_span_runs_to_t_end(early):
    # t_end lies after the fall crosses _COLLISION_SOFT but before the fall law's
    # collision: the run reaches t_end with no event, and the fall law from its
    # last state still lands on the collision time
    params = KeplerParams(0.0, 1.0)
    t_end = FLAT_DROP_COLLISION - early
    traj = integrate(PhaseState(1.0, 0.0, 0.0, 0.0), params, t_end, tol=1e-11, dense=False)
    assert traj.event is None and traj.event_time is None
    assert traj.t_end == t_end
    assert 0.0 < traj.states[-1, 0] < dop853._COLLISION_SOFT and traj.states[-1, 2] < 0.0
    assert abs(traj.t_end + _fall_law(params, traj) - FLAT_DROP_COLLISION) <= 1e-11 * FLAT_DROP_COLLISION


def test_a_radial_fall_whose_steps_underflow_before_a_span_the_law_outlasts_ends_in_the_span():
    # t_end lies after the step size underflows (near r = 1.8e-6) but before the
    # fall law's collision: the underflow below _COLLISION_SOFT while falling
    # ends the run at its last row, as for any fall, not at a time past t_end
    params = KeplerParams(0.0, 1.0)
    t_end = FLAT_DROP_COLLISION - 1e-10
    traj = integrate(PhaseState(1.0, 0.0, 0.0, 0.0), params, t_end, tol=1e-11, dense=False)
    assert traj.event == "collision"
    assert traj.event_time == traj.t_end < t_end < traj.t_end + _fall_law(params, traj)
    assert traj.states[-1, 0] < dop853._COLLISION_SOFT and traj.states[-1, 2] < 0.0


def test_a_radial_state_rising_below_the_soft_radius_integrates_until_it_falls():
    # from r0 = 5e-5 up to the apex at 8e-5 and back: no state on the way up
    # ends the run, the first falling one does.  The collision comes after the
    # rise (the fall from the apex less the fall from r0 at the start's speed)
    # and one more fall from the apex
    params = KeplerParams(-1.0, 1.0)
    e = -1.0 / math.tanh(8e-5)
    v_r0 = math.sqrt(2.0 * (e + 1.0 / math.tanh(5e-5)))
    traj = integrate(PhaseState(5e-5, 0.0, v_r0, 0.0), params, 1.0, tol=1e-11, dense=False)
    assert traj.event == "collision"
    assert np.all(traj.states[:, 0] < dop853._COLLISION_SOFT)
    assert np.all(traj.states[:-1, 2] > 0.0) and traj.states[-1, 2] < 0.0
    apex = acot_k(-1.0, -e)
    rise = dynamics._fall_time(-1.0, 1.0, apex, 0.0, e) - dynamics._fall_time(-1.0, 1.0, 5e-5, -v_r0, e)
    exact = rise + dynamics._fall_time(-1.0, 1.0, apex, 0.0, e)
    assert abs(traj.event_time - exact) <= 1e-11 * exact


def test_a_separable_fall_keeps_the_soft_collision_rule():
    # the same fall from rest as a separable potential F = -k coth(r): the
    # radial-line rule is the Kepler flow's, so the underflow still raises
    k = 20.0

    def zero(x):
        return 0.0

    state = PhaseState(5e-5, 0.0, 0.0, 0.0)
    f, df = (lambda r: -k / math.tanh(r)), (lambda r: k / math.sinh(r) ** 2)
    with pytest.raises(StiffnessError, match="underflow at t=0.0") as err:
        integrate_separable(-1.0, state, f, df, zero, zero, 1.0, tol=1e-9)
    assert "r=5e-05; no attempt yet: h is the initial trial step" in str(err.value)


def test_a_kepler_fall_off_the_radial_line_is_no_collision():
    # J = 1e-3 on the flat plane: a flat ellipse that turns at its periastron
    # 5e-7, above COLLISION_RADIUS.  Its steps underflow near r = 1.7e-6 while
    # it falls; below _COLLISION_SOFT that is no collision off the radial line
    params, state = KeplerParams(0.0, 1.0), PhaseState(1.0, 0.0, 0.0, 1e-3)
    e = energy(state, params)
    assert classify_orbit(0.0, 1.0, 1e-3, e).label is OrbitLabel.FLAT_ELLIPSE
    assert turning_points(0.0, 1.0, 1e-3, e)[0] > dop853.COLLISION_RADIUS
    with pytest.raises(StiffnessError, match=r"underflow at t=1\.11072156623564 ") as err:
        integrate(state, params, 3.0, tol=1e-11)
    assert "r=1.655148112978938e-06; last attempt: rejected_spike; off a radial line" in str(err.value)


def test_an_underflow_names_the_outcome_of_the_last_attempt():
    # an escape on the hyperbolic plane reaches r ~ 355, where sinh(r)**2
    # overflows: the steps shrink through a run of bad-stage rejections
    with pytest.raises(StiffnessError, match=r"step size underflow at t=0\.518") as err:
        integrate(PhaseState(60.0, 0.0, 0.5, 1e-23), KeplerParams(-1.0, 1.0), 5.0, tol=1e-9)
    assert "r=355.5" in str(err.value)
    assert str(err.value).endswith("; last attempt: rejected_stage")


def test_the_step_budget_raises_stiffness_error(monkeypatch):
    monkeypatch.setattr(dop853, "_MAX_STEPS", 3)
    with pytest.raises(StiffnessError, match="budget exhausted after 4 steps"):
        integrate(PhaseState(0.8, 0.3, 0.1, 1.2), KeplerParams(1.0, 1.0), 10.0)


def test_a_state_at_rest_in_no_field_takes_the_smallest_trial_step():
    # F = G = 0 at rest: the derivative is zero at the start and at the
    # trial point, so the first step is 1e-6 and each next one 5 times longer
    def zero(x):
        return 0.0

    state = PhaseState(1.0, 0.0, 0.0, 0.0)
    traj = integrate_separable(1.0, state, zero, zero, zero, zero, 1.0)
    steps = [1e-6 * 5**n for n in range(9)]
    assert np.diff(traj.times).tolist() == pytest.approx([*steps, 1.0 - sum(steps)], rel=1e-9)
    stats = traj.stats
    assert dataclasses.astuple(stats)[:6] == (10, 0, 0, 0, 2 + 12 * 10, 1e-6)
    assert stats.h_max == pytest.approx(0.511719, rel=1e-9)
    assert np.all(traj.states == [1.0, 0.0, 0.0, 0.0])


# radial falls from rest (params, r0, tol) and the right-hand-side
# evaluations they cost while every accepted step could grow 5x toward a
# centre where the admissible step shrinks like r**1.5
RADIAL_FALLS = [
    (KeplerParams(-1.0, 4.0), 1.0, 1e-9, 13_322),
    (KeplerParams(0.0, 1.0), 0.5, 1e-11, 9_338),
    (KeplerParams(1.0, 1.0), 1.0, 1e-11, 7_826),
]


@pytest.mark.parametrize("params,r0,tol,rhs_evaluations_before", RADIAL_FALLS)
def test_radial_fall_rejects_fewer_steps_than_it_accepts(params, r0, tol, rhs_evaluations_before):
    state = PhaseState(r0, 0.0, 0.0, 0.0)
    plain = integrate(state, params, 10.0, tol=tol, dense=False)
    stats = plain.stats
    assert plain.event == "collision"
    assert stats.rejected_error + stats.rejected_spike + stats.rejected_stage < stats.accepted
    # 0.41, 0.53 and 0.62 of it with growth barred after a rejection
    assert stats.rhs_evaluations <= 0.65 * rhs_evaluations_before
    # the step range spans the fall down to the collision radius
    steps = np.diff(plain.times)
    assert (stats.h_min, stats.h_max) == (steps.min(), steps.max())
    assert stats.h_min < 1e-3
    dense = integrate(state, params, 10.0, tol=tol, dense=True)
    assert (dense.stats.h_min, dense.stats.h_max) == (stats.h_min, stats.h_max)


def test_integrate_spherical_orbit_closes():
    # kappa=1, k=1, j=1, bound eccentricity: one angular turn must land
    # back on the initial state
    params = KeplerParams(1.0, 1.0)
    state = PhaseState(r=math.pi / 4, phi=0.0, v_r=0.3, v_phi=2.0)
    traj = integrate(state, params, 10.0, tol=1e-11)
    t_star = traj.first_crossing(lambda t, s: s.phi - (state.phi + 2.0 * math.pi))
    assert t_star is not None
    back = traj.state_at(t_star)
    assert abs(back.r - state.r) < 1e-7
    assert abs(back.v_r - state.v_r) < 1e-7
    assert abs(back.v_phi - state.v_phi) < 1e-7
    assert abs(back.phi - (state.phi + 2.0 * math.pi)) < 1e-7


def _radial_period(state, params):
    traj = integrate(state, params, 50.0, tol=1e-9)
    crossings = []
    t_lo = 1e-3
    while len(crossings) < 3:
        t = traj.first_crossing(lambda tt, s: s.v_r, t_lo=t_lo)
        assert t is not None, "no radial turning point found in 50 time units"
        crossings.append(t)
        t_lo = t + 1e-3
    return crossings[2] - crossings[0]


DRIFT_CASES = [
    (1.0, 1.0, PhaseState(0.9, 0.0, 0.1, 1.2)),
    (0.0, 1.0, PhaseState(1.0, 0.0, 0.2, 1.05)),
    (-1.0, 4.0, PhaseState(0.8, 0.3, 0.4, 1.9)),
]


@pytest.mark.parametrize("kappa,k,state", DRIFT_CASES)
def test_integrate_conserved_drift_ten_radial_periods(kappa, k, state):
    params = KeplerParams(kappa, k)
    t_span = 10.0 * _radial_period(state, params)
    traj = integrate(state, params, t_span, tol=1e-11, dense=False)
    assert traj.event is None
    before = ConservedSet.from_state(state, params)
    after = ConservedSet.from_state(traj.final_state(), params)
    for name in ("e", "j", "i3", "i4"):
        a, b = getattr(before, name), getattr(after, name)
        assert abs(b - a) < 1e-9 * max(1.0, abs(a)), name


@pytest.mark.parametrize(
    "kappa,k,state", DRIFT_CASES + [(1.0, 1.0, PhaseState(1.0, 0.0, 0.0, 0.0))]
)
def test_invariants_record_equals_conserved_set_bit_for_bit(kappa, k, state):
    params = KeplerParams(kappa, k)
    traj = integrate(state, params, 5.0, tol=1e-11, dense=False)
    assert traj.invariants.shape == (len(traj), 5)
    for row, inv in zip(traj.states.tolist(), traj.invariants.tolist()):
        cs = ConservedSet.from_state(PhaseState(*row), params)
        assert inv == [cs.e, cs.j, cs.e_p, cs.i3, cs.i4]


def test_integrate_refuses_non_finite_initial_invariants():
    # sin_k(r)**2 overflows and v_phi is 0, so J = sin_k(r)**2 v_phi is NaN
    state = PhaseState(2.489665517366521e244, 0.0, 0.0, 0.0)
    with pytest.raises(NumericalError):
        integrate(state, KeplerParams(0.0, 4.0166038089235546e-261), 1e-9)


def test_integrate_refuses_an_unwatched_integral_overflowing_later():
    # r ~ 355 on the hyperbolic plane: E_P and I3 start within a few ulps
    # of the largest double and overflow at the first step, which the
    # spike guard (watching E and J) lets pass
    state = PhaseState(354.71857694721126, 0.0, 0.46915430281842907, 4.214796180251422e-154)
    with pytest.raises(NumericalError) as info:
        integrate(state, KeplerParams(-1.0, 1.0), 0.02, tol=1e-9)
    assert str(info.value) == "first integral E_P of accepted state 1 (t=0.02) is not finite: inf"


def test_integrate_extreme_first_step_raises_a_package_error():
    # the step-size estimate divides by a trial step that rounds to 0
    with pytest.raises(CurvedKeplerError):
        integrate(PhaseState(1e-150, 0.0, 0.0, 1e300), KeplerParams(-1.0, 1.0), 0.05)


def test_spike_guard_rejects_a_nan_invariant():
    # F is NaN inside r = 0.5 while dF/dr stays finite, so only the
    # watched energy can stop the fall from stepping below r = 0.5
    def f(r):
        return -1.0 / r if r >= 0.5 else math.nan

    def zero(phi):
        return 0.0

    state = PhaseState(1.0, 0.0, 0.0, 0.0)
    with pytest.raises(StiffnessError):
        integrate_separable(0.0, state, f, lambda r: 1.0 / (r * r), zero, zero, 2.0)


def _attempts(stats):
    return stats.accepted + stats.rejected_error + stats.rejected_spike + stats.rejected_stage


@pytest.mark.parametrize("kappa,k,state", DRIFT_CASES)
def test_stats_count_steps_and_rhs_evaluations(kappa, k, state):
    params = KeplerParams(kappa, k)
    plain = integrate(state, params, 20.0, tol=1e-11, dense=False)
    stats = plain.stats
    assert stats.accepted == len(plain) - 1
    assert stats.rejected_spike == stats.rejected_stage == 0
    # the initial state and the trial step, then twelve stages per attempt
    assert stats.rhs_evaluations == 2 + 12 * _attempts(stats)
    # dense output adds three stages per accepted step and changes nothing else
    dense = integrate(state, params, 20.0, tol=1e-11, dense=True)
    assert dense.states.tolist() == plain.states.tolist()
    assert dense.stats == dataclasses.replace(
        stats, rhs_evaluations=stats.rhs_evaluations + 3 * stats.accepted
    )


def _zero_integrals(*y):
    # the three integrals the call flow watches, constant
    return (0.0, 0.0, 0.0)


# the names of the integrals that the call flow watches, as integrate_separable gives them
CALL_NAMES = ("E", "i1", "i2")


def _spike_once_traj(spiked=(math.nan,)):
    # the watched invariants of the third state offered are ``spiked`` once:
    # that step is rejected by the spike guard, retried at half the size
    # and accepted
    offered = itertools.count()

    def invariants(r, phi, v_r, v_phi):
        return spiked if next(offered) == 3 else (0.0,) * len(spiked)

    state = PhaseState(0.9, 0.0, 0.1, 1.2)
    rhs = functools.partial(dynamics._kepler_rhs, dynamics._sincos(1.0), 1.0)
    flow = dop853._CALL_FLOW._replace(watched=len(spiked))
    return dop853._integrate_adaptive(rhs, state, 2.0, 1e-9, 1.0, invariants, CALL_NAMES, False, flow)


# a NaN in the first or a later watched integral
@pytest.mark.parametrize("spiked", [(math.nan,), (0.0, math.nan)], ids=["first", "later"])
def test_stats_count_a_spike_rejection(spiked):
    traj = _spike_once_traj(spiked)
    assert traj.stats.rejected_spike == 1
    assert traj.stats.accepted == len(traj) - 1
    assert traj.stats.rhs_evaluations == 2 + 12 * _attempts(traj.stats)


def test_no_growth_right_after_a_rejection():
    traj = _spike_once_traj()
    steps = np.diff(traj.times)
    # steps[2] is the retry at half size; the step after it may not grow
    # (beyond the rounding of t + h in the recorded times)
    assert steps[3] <= steps[2] + 2.0 * math.ulp(traj.times[4])


@pytest.mark.parametrize("failure", ["raises", "leaves the chart"])
def test_stats_count_a_stage_rejection(failure):
    # call 7 of the right-hand side is stage 5 of the first attempt (call 1
    # is the initial state, call 2 the trial step); it raises, or returns a
    # rate that takes stage 6 out of the chart before its call is made
    calls = itertools.count(1)
    kepler = functools.partial(dynamics._kepler_rhs, dynamics._sincos(1.0), 1.0)

    def rhs(*y):
        if next(calls) != 7:
            return kepler(*y)
        if failure == "raises":
            raise ZeroDivisionError("float division by zero")
        return (-1e9, 0.0, 0.0, 0.0)

    state = PhaseState(0.9, 0.0, 0.1, 1.2)
    traj = dop853._integrate_adaptive(rhs, state, 2.0, 1e-9, 1.0, _zero_integrals, CALL_NAMES, False)
    stats = traj.stats
    assert stats.rejected_stage == 1
    assert stats.rhs_evaluations == 2 + 5 + 12 * (_attempts(stats) - 1)


def _kepler_calls_with(replace):
    """The Kepler right-hand side at kappa = k = 1, except that call n
    returns replace(n, state) where that is not None."""
    calls = itertools.count(1)
    kepler = functools.partial(dynamics._kepler_rhs, dynamics._sincos(1.0), 1.0)

    def rhs(*y):
        out = replace(next(calls), y)
        return kepler(*y) if out is None else out

    return rhs


def _raise_at(n):
    def replace(call, y):
        if call == n:
            raise ZeroDivisionError("float division by zero")

    return replace


def test_stats_count_a_dense_stage_rejection_after_the_step_passed():
    # call 16 is stage 14 of the first attempt (call 1 is the initial state,
    # call 2 the trial step, calls 3-14 stages 1-12): a dense stage, taken
    # after the step passed its error and spike tests; it raises
    rhs = _kepler_calls_with(_raise_at(16))
    state = PhaseState(0.9, 0.0, 0.1, 1.2)
    traj = dop853._integrate_adaptive(rhs, state, 2.0, 1e-9, 1.0, _zero_integrals, CALL_NAMES, True)
    hs = np.diff(traj.times)
    assert traj.stats == dop853.StepStats(
        accepted=35,
        rejected_error=11,
        rejected_spike=0,
        rejected_stage=1,
        # 14 calls in the first attempt, 15 in each accepted one and 12 in
        # each error rejection
        rhs_evaluations=2 + 14 + 15 * 35 + 12 * 11,
        h_min=hs.min(),
        h_max=hs.max(),
    )
    assert len(traj) == 36
    # without the failure that attempt stands, and its retry takes half the step
    clean = dop853._integrate_adaptive(
        _kepler_calls_with(lambda call, y: None), state, 2.0, 1e-9, 1.0, _zero_integrals, CALL_NAMES, True
    )
    assert traj.times[1] == 0.5 * clean.times[1]


def test_stats_count_a_non_finite_solution():
    # call 7, stage 5 of the first attempt, returns an infinite dphi/dt:
    # every stage stays in the chart, but the solution's phi is not finite
    def replace(call, y):
        if call == 7:
            return (y[2], math.inf, 0.0, 0.0)

    state = PhaseState(0.9, 0.0, 0.1, 1.2)
    traj = dop853._integrate_adaptive(
        _kepler_calls_with(replace), state, 2.0, 1e-9, 1.0, _zero_integrals, CALL_NAMES, False
    )
    stats = traj.stats
    assert (stats.rejected_stage, stats.rejected_spike) == (1, 0)
    assert stats.accepted == len(traj) - 1
    assert stats.rhs_evaluations == 2 + 12 * _attempts(stats)
    assert np.isfinite(traj.states).all()


def test_a_right_hand_side_failing_at_the_initial_state_raises_singularity_error():
    # dF/dr = 1/(r - 1) divides by zero at the initial radius
    def zero(phi):
        return 0.0

    def df(r):
        return 1.0 / (r - 1.0)

    state = PhaseState(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(SingularityError, match="initial state"):
        integrate_separable(0.0, state, lambda r: 0.0, df, zero, zero, 1.0)


@pytest.mark.parametrize("t_end", [1e-16, 1e-300])
def test_integrate_a_span_below_the_underflow_bound(t_end):
    # the first step is clipped to the span; that is no step-size underflow
    state = PhaseState(0.8, 0.3, 0.1, 1.2)
    traj = integrate(state, KeplerParams(1.0, 1.0), t_end)
    assert traj.times.tolist() == [0.0, t_end]
    assert traj.states[1].tolist() == pytest.approx(traj.states[0].tolist(), rel=1e-15)
    assert traj.state_at(0.5 * t_end).r == pytest.approx(0.8, rel=1e-15)


def test_integrate_dense_matches_nodes():
    params = KeplerParams(1.0, 1.0)
    state = PhaseState(0.9, 0.0, 0.1, 1.2)
    traj = integrate(state, params, 5.0, tol=1e-9)
    mid = len(traj) // 2
    node = traj.state_at(float(traj.times[mid]))
    np.testing.assert_allclose(
        [node.r, node.phi, node.v_r, node.v_phi],
        traj.states[mid],
        rtol=0.0,
        atol=1e-13,
    )
    samples = traj.sample(np.linspace(0.5, 4.5, 7))
    assert samples.shape == (7, 4)
    assert np.all(np.isfinite(samples))


def test_integrate_dense_interpolant_accuracy():
    # interpolated mid-step states must satisfy energy conservation far
    # below the interpolant's formal order
    params = KeplerParams(-1.0, 4.0)
    state = PhaseState(0.8, 0.3, 0.4, 1.9)
    traj = integrate(state, params, 3.0, tol=1e-11)
    e0 = energy(state, params)
    for t in np.linspace(0.01, 2.99, 40):
        e = energy(traj.state_at(float(t)), params)
        assert abs(e - e0) < 1e-8 * max(1.0, abs(e0))


def test_integrate_validates_tolerance_and_span():
    params = KeplerParams(0.0, 1.0)
    state = PhaseState(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        integrate(state, params, 1.0, tol=1e-5)
    with pytest.raises(DomainError):
        integrate(state, params, 1.0, tol=1e-14)
    with pytest.raises(DomainError):
        integrate(state, params, 0.0)
    with pytest.raises(DomainError):
        integrate(state, params, -2.0)


def test_integrate_without_dense_blocks_queries():
    params = KeplerParams(0.0, 1.0)
    state = PhaseState(1.0, 0.0, 0.0, 1.0)
    traj = integrate(state, params, 1.0, dense=False)
    with pytest.raises(DomainError):
        traj.state_at(0.5)
    with pytest.raises(DomainError):
        traj.sample([0.5])
    with pytest.raises(DomainError):
        traj.first_crossing(lambda t, s: s.v_r)


# ----------------------------------------------------------------------
# dense output: array evaluation against the scalar reference
# ----------------------------------------------------------------------


def _scalar_state_at(traj, t):
    """Reference: the per-time lookup and plain-float Horner evaluation
    that ``Trajectory.state_at`` performed before ``sample`` was
    vectorised, over as many theta powers as ``d`` holds."""
    h_all, d_all = traj._dense
    idx = int(np.searchsorted(traj.times, t, side="right")) - 1
    idx = min(max(idx, 0), len(h_all) - 1)
    t0, h = float(traj.times[idx]), float(h_all[idx])
    y0, d = traj.states[idx].tolist(), d_all[:, idx].tolist()
    theta = (t - t0) / h
    out = []
    for i in range(4):
        poly = d[-1][i]
        for m in range(len(d) - 2, -1, -1):
            poly = d[m][i] + theta * poly
        out.append(y0[i] + h * (theta * poly))
    return out


def test_dense_coefficients_match_the_scalar_stage_sum():
    # the array build must reproduce, bit for bit, one step's DOP853 rows
    # F_j and their theta powers, each sum added left to right over the
    # nonzero weights
    from curvedkepler.dop853 import _A, _D, _THETA_POWERS, _dense_coefficients

    rng = np.random.default_rng(SEED)
    columns = [
        [list(rng.standard_normal(16) * 10.0 ** rng.uniform(-8, 8)) for _ in range(4)]
        for _ in range(300)
    ]
    # stage-major, as the integrator keeps them: stages[n] is a flat 64-tuple
    stages = [tuple(itertools.chain.from_iterable(zip(*step))) for step in columns]

    def weighted(weights, values):
        # an explicit loop: from Python 3.12 on, sum() of floats compensates
        total = 0.0
        for w, v in zip(weights, values):
            if w:
                total += w * v
        return total

    def coefficients(ks):
        f0 = weighted(_A[12], ks)
        rows = [f0, ks[0] - f0, 2.0 * f0 - (ks[12] + ks[0])] + [weighted(w, ks) for w in _D]
        return [weighted(m, rows) for m in _THETA_POWERS]

    per_step = [[coefficients(ks) for ks in step] for step in columns]
    want = [[[per_step[n][i][m] for i in range(4)] for n in range(300)] for m in range(7)]
    got = _dense_coefficients(stages)
    assert got.shape == (7, 300, 4)
    assert got.tolist() == want


def test_dop853_weights_integrate_polynomials_to_degree_7():
    from curvedkepler.dop853 import _A, _D, _E3, _E5, _THETA_POWERS

    nodes = [math.fsum(row) for row in _A]
    assert [nodes[i] for i in (5, 6, 12, 13, 14, 15)] == pytest.approx(
        [1.0 / 3.0, 0.25, 1.0, 0.1, 0.2, 7.0 / 9.0], abs=1e-15
    )
    for q in range(8):
        got = math.fsum(w * c**q for w, c in zip(_A[12], nodes))
        assert got == pytest.approx(1.0 / (q + 1), abs=1e-14)
    # each error row is a difference of two weight sets that sum to 1
    assert abs(math.fsum(_E5)) < 1e-15 and abs(math.fsum(_E3)) < 1e-15
    # at theta = 1 only F_0 is left: the interpolant ends on the solution
    assert [sum(column) for column in zip(*_THETA_POWERS)] == [1, 0, 0, 0, 0, 0, 0]
    # the interpolant's weights b_s(theta) integrate c**q to theta**(q+1)/(q+1)
    # up to degree 6; F_0..F_2 are B, e_0 - B and 2 B - e_0 - e_12 in stages
    b = list(_A[12]) + [0.0] * 4
    unit = [[float(s == i) for s in range(16)] for i in (0, 12)]
    f_rows = [b, [u - w for u, w in zip(unit[0], b)]]
    f_rows += [[2.0 * w - u - v for w, u, v in zip(b, *unit)], *_D]
    for theta in (0.3, 0.5, 0.8):
        # the weight of F_j in the interpolant at theta, then of each stage
        f_weights = [
            math.fsum(theta ** (m + 1) * row[j] for m, row in enumerate(_THETA_POWERS))
            for j in range(7)
        ]
        weights = [math.fsum(w * f[s] for w, f in zip(f_weights, f_rows)) for s in range(16)]
        for q in range(7):
            got = math.fsum(w * c**q for w, c in zip(weights, nodes))
            assert got == pytest.approx(theta ** (q + 1) / (q + 1), abs=1e-12)


def test_dop853_tableau_equals_scipys_copy_bit_for_bit():
    # scipy is no dependency of the package; where it is installed, its
    # table of the same published coefficients pins every last digit
    theirs = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    from curvedkepler.dop853 import _A, _D, _E3, _E5

    assert [list(row) for row in _A] == [theirs.A[i, :i].tolist() for i in range(16)]
    assert list(_E5) + [0.0] == theirs.E5.tolist()
    assert list(_E3) + [0.0] == theirs.E3.tolist()
    assert [list(row) for row in _D] == theirs.D.tolist()


def test_dop853_step_is_of_order_8_and_its_interpolant_of_order_7():
    # one step's error falls like h**9 and the interpolant's at theta = 1/2
    # like h**8, against 64 steps of the same method
    rhs = functools.partial(dynamics._kepler_rhs, dynamics._sincos(1.0), 1.0)
    y0 = (0.9, 0.0, 0.1, 1.2)
    # a local tolerance of 1 and no watched integral: every attempt is accepted
    unwatched = dop853._CALL_FLOW._replace(watched=0)
    attempt = dop853._kernels(unwatched, True)(rhs, lambda *y: (), math.inf, 1.0, math.inf)

    def step(y, h):
        outcome, _, _, _, y1, _, _, ks = attempt(y, rhs(*y), h, ())
        assert outcome == dop853._ACCEPTED
        return y1, ks

    def fine(h):
        y = y0
        for _ in range(64):
            y, _ = step(y, h / 64)
        return np.array(y)

    errors = []
    for h in (0.4, 0.2, 0.1):
        y1, ks = step(y0, h)
        d = dop853._dense_coefficients([ks])[:, 0]
        poly = d[-1]
        for dm in d[-2::-1]:
            poly = dm + 0.5 * poly
        mid = np.array(y0) + h * (0.5 * poly)
        errors.append((np.abs(y1 - fine(h)).max(), np.abs(mid - fine(h / 2)).max()))
    for (step_a, mid_a), (step_b, mid_b) in zip(errors, errors[1:]):
        assert 2**8 < step_a / step_b < 2**10
        assert 2**7 < mid_a / mid_b < 2**9


def _left_to_right(row, values):
    """sum_s row[s] * values[s] over the nonzero weights, added left to right."""
    terms = [w * v for w, v in zip(row, values) if w]
    total = terms[0]
    for term in terms[1:]:
        total += term
    return total


def _reference_stages(rhs, y, h, rows, k, r_max=math.inf):
    """The stage states that ``rows`` build, one component at a time in a
    plain loop, up to the first that leaves the chart 0 < r < r_max;
    extends ``k`` by their right-hand sides."""
    states = []
    for row in rows:
        state = tuple(y[c] + h * _left_to_right(row, [ks[c] for ks in k]) for c in range(4))
        if not 0.0 < state[0] < r_max:
            break
        states.append(state)
        k.append(rhs(*state))
    return states


def _reference_norm(h, y, y_new, k, rtol, atol):
    e5 = e3 = 0.0
    for c in range(4):
        scale = atol + rtol * max(abs(y[c]), abs(y_new[c]))
        x5 = _left_to_right(dop853._E5, [ks[c] for ks in k]) / scale
        x3 = _left_to_right(dop853._E3, [ks[c] for ks in k]) / scale
        e5 += x5 * x5
        e3 += x3 * x3
    return 0.0 if e5 == 0.0 else h * e5 / math.sqrt(4.0 * (e5 + 0.01 * e3))


def _reference_attempt(rhs, integrals, watched, y, h, tol, spike, inv0, r_max=math.inf, seen=None):
    """What an attempt kernel returns, by a plain loop over the stages, the
    error norm, the integrals ``integrals`` and the spike rule on the first
    ``watched`` of them; the stage states it evaluates ``rhs`` at go to ``seen``."""
    seen = [] if seen is None else seen

    def counted(*x):
        seen.append(x)
        return rhs(*x)

    def stages(rows):
        # the stages up to the first that leaves the chart or whose
        # right-hand side fails, or None after a failure
        try:
            return _reference_stages(counted, y, h, rows, k, r_max)
        except (ValueError, OverflowError, ZeroDivisionError):
            return None

    k = [rhs(*y)]
    rejected = (None, None, None, None, None, None)
    states = stages(dop853._A[1:13])
    if states is None or len(states) < 12 or not all(map(math.isfinite, states[-1])):
        return (dop853._STAGE, len(seen), *rejected)
    y_new = states[-1]
    err = _reference_norm(h, y, y_new, k[:12], tol, tol)
    if err > 1.0:
        return (dop853._ERROR, 12, err, *rejected[1:])
    inv1 = integrals(*y_new)
    q_max = 0.0
    for was, now in zip(inv0[:watched], inv1):
        q = abs(was - now) / (spike * max(1.0, abs(was)))
        if not q <= q_max:
            q_max = q
            if not q <= 1.0:
                return (dop853._SPIKE, 12, *rejected)
    dense = stages(dop853._A[13:])
    if dense is None or len(dense) < 3:
        return (dop853._STAGE, len(seen), *rejected)
    flat = tuple(itertools.chain.from_iterable(k))
    return (dop853._ACCEPTED, 15, err, q_max, y_new, inv1, k[12], flat)


def _kernel_cases(kappa, rng, series=5):
    """(state, step size) pairs: 20 random states, and ``series`` more in
    the series branch |kappa r**2| < 1e-8 of sincos_k with steps short
    enough to stay there."""
    cases = [(s, 10.0 ** rng.uniform(-4, -1)) for s in random_states(kappa, 20, rng, r_lo=0.5, v_max=1.0)]
    r_series = 0.5 * math.sqrt(1e-8 / abs(kappa)) if kappa else 1e-3
    cases += [(s, 1e-3 * s.r) for s in random_states(kappa, series, rng, r_lo=0.2 * r_series, v_max=1.0, r_hi=r_series)]
    assert all(abs(kappa) * s.r**2 < 1e-8 for s, _ in cases[20:])
    return [((s.r, s.phi, s.v_r, s.v_phi), h) for s, h in cases]


def _attempts_of_cases(cases, inv):
    """(state, step, local tolerance, inv0), five per case: the state's
    integrals inv(state) at three tolerances; with an energy off by 1, which
    the spike guard rejects wherever the error estimate passes; and a step of
    0.3 at 1e-13, which the error estimate rejects unless a stage leaves the
    chart."""
    out = []
    for y, h in cases:
        inv0 = inv(*y)
        out += [(y, h, tol, inv0) for tol in (1e-6, 1e-9, 1e-13)]
        out += [(y, h, 1e-6, (inv0[0] + 1.0, *inv0[1:])), (y, 0.3, 1e-13, inv0)]
    return out


@pytest.mark.parametrize("kappa", [1.0, 1e-6, 0.0, -1e-6, -1.0])
def test_compiled_kernels_equal_a_left_to_right_loop_bit_for_bit(kappa, rng):
    # the Kepler attempt writes the right-hand side and sin_k, cos_k out and
    # forms phi only for the solution: its outcome, evaluation count, err,
    # q_max, solution, first integrals and all 16 stage derivatives, against
    # a plain loop over the rows of _A, _E5 and _E3 calling _kepler_rhs and
    # _first_integrals
    sc = dynamics._sincos(kappa)
    kepler = functools.partial(dynamics._kepler_rhs, sc, 1.3)
    integrals = functools.partial(dynamics._first_integrals, sc, 1.3)
    row = dynamics._KEPLER_ROWS["flat" if kappa == 0.0 else "curved"]
    make, make_plain = (dop853._kernels(row, dense) for dense in (True, False))
    outcomes = []
    for y, h, tol, inv0 in _attempts_of_cases(_kernel_cases(kappa, rng), integrals):
        # the spike bound of integrate: 10 x its tol, 10 x the local tolerance;
        # the guard watches (E, J)
        attempt = make(kepler, integrals, kappa, 1.3, math.inf, tol, 100.0 * tol)
        want = _reference_attempt(kepler, integrals, 2, y, h, tol, 100.0 * tol, inv0)
        assert attempt(y, kepler(*y), h, inv0) == want
        # without dense output: the 12 step stages only
        plain = make_plain(kepler, integrals, kappa, 1.3, math.inf, tol, 100.0 * tol)
        accepted = want[0] == dop853._ACCEPTED
        assert plain(y, kepler(*y), h, inv0) == ((want[0], 12, *want[2:7], None) if accepted else want)
        outcomes.append(want[0])
    assert {dop853._ACCEPTED, dop853._ERROR, dop853._SPIKE} <= set(outcomes)
    # steps that stay in the series branch of sincos_k are among the accepted
    assert dop853._ACCEPTED in outcomes[-25:]
    # a fall toward the centre whose stages leave the chart: a stage
    # rejection, and one right-hand-side evaluation per stage inside it
    y, r_max = (0.3, 0.0, -2.0, 0.3), dop853._chart_limit(kappa)
    inside = len(_reference_stages(kepler, y, 0.2, dop853._A[1:13], [kepler(*y)], r_max))
    assert 0 < inside < 12
    attempt = make(kepler, integrals, kappa, 1.3, r_max, 1e-9, 1e-8)
    want = _reference_attempt(kepler, integrals, 2, y, 0.2, 1e-9, 1e-8, integrals(*y), r_max)
    assert want[:2] == (dop853._STAGE, inside)
    assert attempt(y, kepler(*y), 0.2, integrals(*y)) == want


def _separable_rhs(kappa):
    """A right-hand side that reads phi: the Kepler flow plus the force of
    G(phi)/sin_k(r)**2 with G = 0.1 cos(phi)**2."""
    sc = dynamics._sincos(kappa)

    def rhs(r, phi, v_r, v_phi):
        s, c = sc(r)
        g = 0.1 * math.cos(phi) ** 2
        f_r = s * c * v_phi * v_phi - 1.3 / (s * s) + 2.0 * g * c / (s * s * s)
        return (v_r, v_phi, f_r, -2.0 * (c / s) * v_r * v_phi + 0.1 * math.sin(2.0 * phi) / s**4)

    return rhs


@pytest.mark.parametrize("kappa", [1.0, 0.0, -1.0])
def test_call_kernels_equal_a_left_to_right_loop_bit_for_bit(kappa, rng):
    # every stage state, and the outcome, evaluation count, err, q_max,
    # solution, integrals and stage derivatives, of the attempt that calls
    # a separable right-hand side and its integrals, of which it watches three
    separable = _separable_rhs(kappa)
    integrals = functools.partial(dynamics._first_integrals, dynamics._sincos(kappa), 1.3)
    make = dop853._kernels(dop853._CALL_FLOW, True)
    attempts = _attempts_of_cases(_kernel_cases(kappa, rng, series=0), integrals)
    # and each case at tol 1e-6 with a NaN third integral, which only a guard watching three sees
    nan_third = [(y, h, tol, (*inv0[:2], math.nan, *inv0[3:])) for y, h, tol, inv0 in attempts[::5]]
    outcomes = []
    for y, h, tol, inv0 in attempts + nan_third:
        seen, want_seen = [], []

        def rhs(*x):
            seen.append(x)
            return separable(*x)

        attempt = make(rhs, integrals, math.inf, tol, 100.0 * tol)
        want = _reference_attempt(separable, integrals, 3, y, h, tol, 100.0 * tol, inv0, seen=want_seen)
        assert attempt(y, separable(*y), h, inv0) == want
        assert seen == want_seen
        outcomes.append(want[0])
    assert {dop853._ACCEPTED, dop853._ERROR, dop853._SPIKE} <= set(outcomes)
    # the NaN is rejected wherever the error estimate passes
    assert set(outcomes[len(attempts):]) <= {dop853._ERROR, dop853._SPIKE} and dop853._SPIKE in outcomes[len(attempts):]


def _neumaier_sum(values, start=0):
    """The compensated sum() of Python 3.12 and later."""
    total, comp = float(start), 0.0
    for x in values:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp


@pytest.mark.parametrize("kappa", [1.0, 0.0, -1.0])
def test_integrate_bits_do_not_depend_on_the_sum_builtin(kappa, monkeypatch):
    # the step-size norms add their terms left to right themselves, so a
    # compensated sum() (Python 3.12) leaves every state bit-identical
    params = KeplerParams(kappa, 1.0)
    state = PhaseState(0.8, 0.0, 0.1, 1.1)
    plain = integrate(state, params, 5.0, tol=1e-10)
    monkeypatch.setattr(dop853, "sum", _neumaier_sum, raising=False)
    compensated = integrate(state, params, 5.0, tol=1e-10)
    assert compensated.times.tolist() == plain.times.tolist()
    assert compensated.states.tolist() == plain.states.tolist()


@pytest.mark.parametrize("kappa", [1.0, -1.0, 1e-6, -1e-6, 0.0])
def test_sample_equals_scalar_state_at_bit_for_bit(kappa):
    params = KeplerParams(kappa, 1.0)
    state = PhaseState(0.9, 0.4, 0.2, 1.3)
    traj = integrate(state, params, 12.0, tol=1e-9)
    rng = np.random.default_rng(SEED)
    t0, t1 = traj.times[0], traj.times[-1]
    ts = np.concatenate([rng.uniform(t0, t1, 2000), traj.times, [t0, t1]])
    rng.shuffle(ts)
    want = np.array([_scalar_state_at(traj, float(t)) for t in ts])
    got = traj.sample(ts)
    assert got.shape == (len(ts), 4)
    assert got.tobytes() == want.tobytes()
    for t, row in zip(ts[::50], want[::50]):
        s = traj.state_at(float(t))
        assert [s.r, s.phi, s.v_r, s.v_phi] == row.tolist()


def test_sample_and_state_at_input_contract():
    params = KeplerParams(1.0, 1.0)
    traj = integrate(PhaseState(0.9, 0.0, 0.1, 1.2), params, 2.0, tol=1e-9)
    assert traj.sample([]).shape == (0, 4)
    for bad in (math.nan, -0.25, 2.5):
        with pytest.raises(DomainError, match=f"t={bad!r}"):
            traj.sample([0.5, bad, 1.0])
        with pytest.raises(DomainError, match=f"t={bad!r}"):
            traj.state_at(bad)
    with pytest.raises(DomainError, match="NaN"):
        traj.first_crossing(lambda t, s: s.v_r, t_lo=math.nan)


def test_dense_output_reduced_in_chunks_samples_as_one_block(monkeypatch):
    # more than two chunks of steps, reduced to coefficients as the loop
    # goes, against one reduction of all stages after the loop
    params, state = KeplerParams(-1.0, 4.0), PhaseState(0.8, 0.3, 0.4, 1.9)
    chunked = integrate(state, params, 100.0, tol=1e-11)
    assert chunked.stats.accepted > 2 * dop853._DENSE_CHUNK
    monkeypatch.setattr(dop853, "_DENSE_CHUNK", len(chunked))
    whole = integrate(state, params, 100.0, tol=1e-11)
    grid = np.linspace(0.0, 100.0, 4001)
    assert chunked.sample(grid).tolist() == whole.sample(grid).tolist()


def test_dense_queries_on_a_trajectory_without_steps():
    # collision at t = 0: one row, no accepted step, the span is [0, 0]
    state = PhaseState(2e-10, 0.0, -1.0, 0.0)
    params = KeplerParams(0.0, 1.0)
    traj = integrate(state, params, 1.0)
    # the fall law times the rest of the fall: about pi (2e-10)**1.5/sqrt(8)
    assert len(traj) == 1 and traj.event_time == _fall_law(params, traj) == pytest.approx(3.14e-15, rel=1e-3)
    assert (traj.stats.h_min, traj.stats.h_max) == (0.0, 0.0)
    assert traj.state_at(0.0) == state
    assert traj.sample([0.0, 0.0]).tolist() == [[state.r, state.phi, state.v_r, state.v_phi]] * 2
    assert traj.sample([]).shape == (0, 4)
    assert traj.first_crossing(lambda t, s: s.v_r) is None
    assert traj.first_crossing(lambda t, s: s.r, t_lo=-1.0, t_hi=1.0) is None
    for bad in (1e-9, -1e-9, math.nan):
        with pytest.raises(DomainError, match="outside the integrated span"):
            traj.state_at(bad)
        with pytest.raises(DomainError, match="outside the integrated span"):
            traj.sample([0.0, bad])


# the v_r = 0 passage at t = 0.99739 of this orbit falls inside one step
# (0.95893, 1.01845) of the tol=1e-9 integration; _WINDOW_T1 is where its
# interpolant crosses, 2.6e-11 before the apsis of the closed form.  It
# pins one step layout: a change to the step-size rule moves it
_WINDOW_CASE = (KeplerParams(1.0, 1.0), PhaseState(0.6, 0.0, 0.0, 2.3))
_WINDOW_T1 = 0.9973872677863921


def test_window_crossing_sits_on_the_closed_form_apsis():
    # the start is an apsis, so the next one comes half a radial period on
    params, state = _WINDOW_CASE
    apsis = 0.5 * radial_period(orbit_constants(state, params), params.kappa)
    assert abs(_WINDOW_T1 - apsis) < 3e-11


def _window_traj():
    params, state = _WINDOW_CASE
    traj = integrate(state, params, 5.0, tol=1e-9)
    i = int(np.searchsorted(traj.times, _WINDOW_T1))
    assert traj.times[i - 1] < 0.9957 < _WINDOW_T1 < 1.0010 < traj.times[i]
    return traj


def test_first_crossing_sees_a_crossing_after_t_lo_inside_its_step():
    traj = _window_traj()
    t = traj.first_crossing(lambda tt, s: s.v_r, t_lo=0.9957)
    assert t is not None and abs(t - _WINDOW_T1) < 1e-12


def test_first_crossing_sees_a_crossing_before_t_hi_inside_its_step():
    traj = _window_traj()
    t = traj.first_crossing(lambda tt, s: s.v_r, t_lo=0.5, t_hi=1.0010)
    assert t is not None and abs(t - _WINDOW_T1) < 1e-12


def test_first_crossing_without_a_sign_change_over_many_steps_is_none():
    traj = _window_traj()
    assert len(traj) > 10
    assert traj.first_crossing(lambda tt, s: s.r + 1.0) is None


def test_false_position_matches_bisection_in_few_evaluations():
    # the v_r = 0 passage of _WINDOW_CASE is a simple root of one step's
    # interpolant; 60 bisections pin it to the last bits
    traj = _window_traj()
    i = int(np.searchsorted(traj.times, _WINDOW_T1)) - 1
    step = traj._step(i)

    def v_r(t):
        return dop853._horner(step, t).v_r

    a, b = float(traj.times[i]), float(traj.times[i + 1])
    lo, hi = a, b
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if (v_r(lo) < 0.0) != (v_r(mid) < 0.0):
            hi = mid
        else:
            lo = mid
    calls = []

    def func(t, state):
        calls.append(t)
        return state.v_r

    t = dop853._false_position(func, step, a, b, v_r(a), v_r(b))
    assert abs(t - 0.5 * (lo + hi)) <= 1e-14 * abs(t)
    assert len(calls) <= 20
    # zero at both ends: no secant, the bisection's midpoint is a root
    assert dop853._false_position(lambda tt, s: 0.0, step, a, b, 0.0, 0.0) == 0.5 * (a + b)


SEPARABLE_CASES = [
    (1.0, 1.0, PhaseState(0.9, 0.0, 0.1, 1.2)),
    (0.0, 1.0, PhaseState(1.0, 0.0, 0.2, 1.05)),
    (-1.0, 4.0, PhaseState(0.8, 0.3, 0.4, 1.9)),
]


@pytest.mark.parametrize("kappa,k,state", SEPARABLE_CASES)
def test_integrate_separable_conserves_split_integrals(kappa, k, state):
    g_amp = 0.1

    def f(r):
        return -k * cos_k(kappa, r) / sin_k(kappa, r)

    def df(r):
        return k / sin_k(kappa, r) ** 2

    def g(phi):
        return g_amp * math.cos(phi) ** 2

    def dg(phi):
        return -g_amp * math.sin(2.0 * phi)

    traj = integrate_separable(kappa, state, f, df, g, dg, 20.0, tol=1e-11)
    assert traj.event is None
    assert traj.invariants.shape == (len(traj), 3)
    for row, (_, i1, i2) in zip(traj.states.tolist(), traj.invariants.tolist()):
        assert (i1, i2) == separable_integrals(kappa, PhaseState(*row), f, g)
    i1_0, i2_0 = separable_integrals(kappa, state, f, g)
    i1_1, i2_1 = separable_integrals(kappa, traj.final_state(), f, g)
    assert abs(i1_1 - i1_0) < 1e-9 * max(1.0, abs(i1_0))
    assert abs(i2_1 - i2_0) < 1e-9 * max(1.0, abs(i2_0))


# ----------------------------------------------------------------------
# types and helpers
# ----------------------------------------------------------------------


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", range(4))
def test_phase_state_requires_finite_fields(field, bad):
    vals = [1.0, 0.0, 0.0, 0.0]
    vals[field] = bad
    with pytest.raises(DomainError) as info:
        PhaseState(*vals)
    assert str(info.value) == f"phase state must be finite, got {tuple(vals)!r}"


def test_params_require_attractive_coupling():
    with pytest.raises(DomainError):
        KeplerParams(0.0, 0.0)
    with pytest.raises(DomainError):
        KeplerParams(0.0, -1.0)
    assert KeplerParams(1, 2).kappa == 1.0


def test_params_keep_the_checked_floats():
    # a numpy scalar k reached every kernel stage and made integrate
    # about 2.5 times slower, with identical states
    params = KeplerParams(np.float64(1.0), np.float64(1.0))
    assert type(params.kappa) is float and type(params.k) is float


def test_circular_state_needs_angular_momentum():
    with pytest.raises(InfeasibleError):
        circular_state(KeplerParams(0.0, 1.0), 0.0)


def test_circular_state_hyperbolic_escape_threshold():
    # at kappa=-1, k=1 the circular family ends at j^2 = 1
    with pytest.raises(DomainError):
        circular_state(KeplerParams(-1.0, 1.0), 1.0)
    state = circular_state(KeplerParams(-1.0, 1.0), 0.95)
    assert state.r > 0.0
