"""Closed-form orbit tests: conic constants, radii, Binet, time laws."""

import itertools
import math

import numpy as np
import pytest

from curvedkepler import orbit
from curvedkepler.dynamics import KeplerParams, PhaseState, circular_state, integrate
from curvedkepler.effective_potential import turning_points
from curvedkepler.errors import CurvedKeplerError, DomainError, RadialOrbitError
from curvedkepler.ktrig import acot_k, cos_k, sin_k
from curvedkepler.orbit import (
    binet_residual,
    orbit_constants,
    orbit_radius,
    phi_from_time,
    propagate,
    radial_period,
    time_from_u,
    u_closed,
)

from conftest import SEED, bounded_orbit_elements, random_states

REGIMES = [1.0, 0.0, -1.0]


def periastron_state(kappa, k, j, ecc, phi_per=0.0):
    """State sitting at periastron of the (j, ecc) orbit."""
    d = j * j / k
    u_per = (1.0 + ecc) / d
    r_per = acot_k(kappa, u_per)
    return PhaseState(r_per, phi_per, 0.0, j * (u_per * u_per + kappa))


def u_of_state(kappa, state):
    return cos_k(kappa, state.r) / sin_k(kappa, state.r)


# ----------------------------------------------------------------------
# orbit_constants
# ----------------------------------------------------------------------


def test_radial_orbit_has_no_conic_constants():
    with pytest.raises(RadialOrbitError):
        orbit_constants(PhaseState(1.0, 0.0, 0.5, 0.0), KeplerParams(0.0, 1.0))


def test_circular_orbit_is_eccentricity_zero():
    params = KeplerParams(1.0, 1.0)
    oc = orbit_constants(circular_state(params, 1.0), params)
    assert oc.ecc == 0.0
    assert oc.phi0 == 0.0
    assert oc.d == pytest.approx(1.0, rel=1e-12)
    assert oc.z == pytest.approx(-1.0, abs=1e-12)


def test_flat_zero_energy_orbit_is_parabolic():
    # r_per = 1/2, v_phi = 4 gives j = 1 and E = 2 - 2 = 0
    state = PhaseState(0.5, 0.7, 0.0, 4.0)
    oc = orbit_constants(state, KeplerParams(0.0, 1.0))
    assert oc.conserved.e == pytest.approx(0.0, abs=1e-14)
    assert oc.ecc == pytest.approx(1.0, rel=1e-12)
    assert oc.phi0 == pytest.approx(0.7, abs=1e-12)


def test_hyperbolic_zero_energy_eccentricity_sqrt2():
    # kappa=-1, k=1, j=1: E = 0 means e_p = 1/2 and ecc**2 = 2
    r_per = acot_k(-1.0, 1.0 + math.sqrt(2.0))
    state = PhaseState(r_per, 0.0, 0.0, 2.0 + 2.0 * math.sqrt(2.0))
    params = KeplerParams(-1.0, 1.0)
    oc = orbit_constants(state, params)
    assert oc.conserved.e == pytest.approx(0.0, abs=1e-13)
    assert oc.ecc == pytest.approx(math.sqrt(2.0), rel=1e-12)


@pytest.mark.parametrize("kappa", REGIMES)
def test_ecc_squared_is_one_plus_z(kappa, rng):
    k = 1.3
    for _ in range(200):
        j, ecc, energy = bounded_orbit_elements(kappa, k, rng)
        state = periastron_state(kappa, k, j, ecc, rng.uniform(-3.0, 3.0))
        oc = orbit_constants(state, KeplerParams(kappa, k))
        assert abs(oc.ecc**2 - (1.0 + oc.z)) <= 1e-11 * max(1.0, abs(oc.z))
        assert oc.d == pytest.approx(j * j / k, rel=1e-13)
        assert oc.ecc == pytest.approx(ecc, rel=1e-10)
        # the reconstruction rounds at the e_p scale, not the energy scale
        scale = max(1.0, abs(oc.conserved.e_p))
        assert oc.conserved.e == pytest.approx(energy, abs=1e-10 * scale)


@pytest.mark.parametrize("kappa", [1.0, 4.0])
def test_near_equatorial_circular_orbits_on_the_sphere_have_conic_constants(kappa):
    # there E ~ kappa J**2/2, and E_P = E - kappa J**2/2 cancelled to a
    # 1 + z < 0 that no state has: on kappa = k = 1 the circular orbit of
    # j = 100 raised "impossible orbit constants"
    params = KeplerParams(kappa, 1.0)
    for j in (10.0, 30.0, 100.0, 300.0, 1000.0, 3000.0):
        circ = circular_state(params, j)
        for dr, v_r in itertools.product((-1e-9, 0.0, 1e-9), repeat=2):
            oc = orbit_constants(PhaseState(circ.r * (1.0 + dr), 0.3, v_r, circ.v_phi), params)
            assert abs(oc.ecc**2 - (1.0 + oc.z)) <= 2e-15 * max(1.0, abs(oc.z))


@pytest.mark.parametrize("kappa", REGIMES)
def test_eccentricity_times_k_is_runge_lenz_norm(kappa, rng):
    k = 2.0
    params = KeplerParams(kappa, k)
    states = [s for s in random_states(kappa, 60, rng) if abs(s.v_phi) > 0.2]
    for state in states:
        oc = orbit_constants(state, params)
        rl = math.hypot(oc.conserved.i3, oc.conserved.i4)
        assert abs(oc.ecc * k - rl) <= 1e-11 * max(1.0, rl)


@pytest.mark.parametrize("kappa", REGIMES)
@pytest.mark.parametrize("phi_per", [-2.5, -0.3, 0.0, 1.2, 3.0])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_periastron_angle_every_orientation(kappa, phi_per, sign):
    k, j, ecc = 1.5, sign * 0.9, 0.35
    state = periastron_state(kappa, k, j, ecc, phi_per)
    oc = orbit_constants(state, KeplerParams(kappa, k))
    # the conic is even around phi0, so phi0 must equal the construction
    # angle regardless of orbit orientation
    assert oc.phi0 == pytest.approx(phi_per, abs=1e-11)


@pytest.mark.parametrize("kappa", REGIMES)
def test_closed_form_passes_through_state(kappa, rng):
    params = KeplerParams(kappa, 1.0)
    count = 0
    for state in random_states(kappa, 120, rng):
        if abs(state.v_phi) < 0.1:
            continue
        count += 1
        oc = orbit_constants(state, params)
        u_state = u_of_state(kappa, state)
        assert u_closed(oc, state.phi) == pytest.approx(
            u_state, abs=1e-10 * max(1.0, abs(u_state))
        )
        # matching du/dphi sign: closed form vs chain rule on the state
        du_closed = -(oc.ecc / oc.d) * math.sin(state.phi - oc.phi0)
        du_state = -(u_state * u_state + kappa) * state.v_r / state.v_phi
        if abs(du_state) > 1e-6:
            assert du_closed * du_state > 0.0
    assert count >= 50


# ----------------------------------------------------------------------
# orbit_radius
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kappa", REGIMES)
def test_radius_at_periastron_angle(kappa):
    k, j, ecc = 1.0, 1.1, 0.4
    state = periastron_state(kappa, k, j, ecc, phi_per=0.9)
    oc = orbit_constants(state, KeplerParams(kappa, k))
    r = orbit_radius(oc, kappa, 0.9)
    assert r == pytest.approx(state.r, rel=1e-12)


def test_flat_circle_radius_is_constant():
    params = KeplerParams(0.0, 1.0)
    oc = orbit_constants(circular_state(params, 1.0), params)
    for phi in np.linspace(-7.0, 7.0, 29):
        assert orbit_radius(oc, 0.0, float(phi)) == 1.0


def test_spherical_equatorial_orbit_touches_equator():
    # kappa=1, k=1, j=1, ecc=1: the orbit reaches r = pi/2 opposite periastron
    state = periastron_state(1.0, 1.0, 1.0, 1.0)
    oc = orbit_constants(state, KeplerParams(1.0, 1.0))
    r = orbit_radius(oc, 1.0, math.pi)
    assert r == pytest.approx(math.pi / 2.0, abs=1e-12)


def test_flat_parabola_open_end_has_no_radius():
    state = periastron_state(0.0, 1.0, 1.0, 1.0)
    oc = orbit_constants(state, KeplerParams(0.0, 1.0))
    assert orbit_radius(oc, 0.0, math.pi) is None
    assert orbit_radius(oc, 0.0, 2.0) is not None


def test_hyperbolic_radius_absent_past_asymptote():
    # open orbit u(phi) = 1 + 2 cos(phi): escaped once u <= sqrt(-kappa) = 1
    state = periastron_state(-1.0, 1.0, 1.0, 2.0)
    oc = orbit_constants(state, KeplerParams(-1.0, 1.0))
    assert orbit_radius(oc, -1.0, 1.0) is not None
    assert orbit_radius(oc, -1.0, 2.0) is None
    assert orbit_radius(oc, -1.0, math.pi) is None


def test_spherical_super_orbit_continues_into_far_hemisphere():
    # ecc > 1 on the sphere crosses the equator smoothly: r grows through
    # pi/2 with no branch jump
    state = periastron_state(1.0, 1.0, 1.0, 1.5)
    oc = orbit_constants(state, KeplerParams(1.0, 1.0))
    phi_eq = math.acos(-1.0 / 1.5)  # angle where u = 0
    r_before = orbit_radius(oc, 1.0, phi_eq - 0.01)
    r_at = orbit_radius(oc, 1.0, phi_eq)
    r_after = orbit_radius(oc, 1.0, phi_eq + 0.01)
    assert r_before < r_at < r_after
    assert r_at == pytest.approx(math.pi / 2.0, abs=1e-9)
    assert r_after > math.pi / 2.0


# ----------------------------------------------------------------------
# binet_residual
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kappa", REGIMES)
def test_binet_residual_vanishes_exactly(kappa, rng):
    k = 1.7
    for _ in range(40):
        j, ecc, _ = bounded_orbit_elements(kappa, k, rng)
        state = periastron_state(kappa, k, j, ecc, rng.uniform(-3.0, 3.0))
        oc = orbit_constants(state, KeplerParams(kappa, k))
        for phi in rng.uniform(-7.0, 7.0, size=8):
            assert abs(binet_residual(oc, kappa, float(phi))) < 1e-12


def test_binet_holds_on_an_integrated_trajectory():
    # independent check: second difference of u(phi) sampled from the
    # integrator, not from the closed form
    params = KeplerParams(-1.0, 2.0)
    base = circular_state(params, 1.0)
    state = PhaseState(base.r, base.phi, 0.05, base.v_phi)
    oc = orbit_constants(state, params)
    traj = integrate(state, params, t_end=4.0, tol=1e-13)

    def u_at_angle(target):
        t = traj.first_crossing(lambda _, s: s.phi - target)
        assert t is not None
        return u_of_state(-1.0, traj.state_at(t))

    h = 4e-3
    for target in (2.0, 5.0, 8.0):
        um, u0, up = (u_at_angle(target + i * h) for i in (-1, 0, 1))
        residual = (um - 2.0 * u0 + up) / (h * h) + u0 - 1.0 / oc.d
        assert abs(residual) < 1e-6


# ----------------------------------------------------------------------
# time_from_u
# ----------------------------------------------------------------------


def test_time_between_equal_endpoints_is_zero():
    state = periastron_state(0.0, 1.0, 1.0, 0.3)
    oc = orbit_constants(state, KeplerParams(0.0, 1.0))
    assert time_from_u(oc, 0.0, 1.1, 1.1) == 0.0


def test_flat_period_obeys_kepler_third_law():
    state = periastron_state(0.0, 1.0, 1.0, 0.01)
    oc = orbit_constants(state, KeplerParams(0.0, 1.0))
    period = radial_period(oc, 0.0)
    a = -1.0 / (2.0 * oc.conserved.e)
    assert period == pytest.approx(2.0 * math.pi * a**1.5, rel=1e-9)


def test_spherical_period_matches_integrator():
    kappa, k = 1.0, 1.0
    state = periastron_state(kappa, k, 1.0, 0.5)
    params = KeplerParams(kappa, k)
    oc = orbit_constants(state, params)
    period = radial_period(oc, kappa)
    traj = integrate(state, params, t_end=1.2 * period, tol=1e-11)
    # starting at periastron, the second v_r zero is one full period out
    t_apo = traj.first_crossing(lambda _, s: s.v_r, t_lo=0.05 * period)
    t_per = traj.first_crossing(lambda _, s: s.v_r, t_lo=t_apo + 0.05 * period)
    assert t_per == pytest.approx(period, rel=1e-6)
    assert t_apo == pytest.approx(0.5 * period, rel=1e-6)


@pytest.mark.parametrize("kappa", REGIMES)
def test_time_is_additive_along_a_leg(kappa):
    # j = 0.7 keeps the kappa=-1 case below the escape angular momentum
    k, j, ecc = 1.0, 0.7, 0.45
    state = periastron_state(kappa, k, j, ecc)
    oc = orbit_constants(state, KeplerParams(kappa, k))
    u_apo, u_per = oc.u_apoastron, oc.u_periastron
    u_mid = 0.37 * u_apo + 0.63 * u_per
    whole = time_from_u(oc, kappa, u_apo, u_per)
    split = time_from_u(oc, kappa, u_apo, u_mid) + time_from_u(oc, kappa, u_mid, u_per)
    assert whole == pytest.approx(split, rel=1e-9)
    # direction-free: elapsed time is positive both ways
    assert time_from_u(oc, kappa, u_per, u_apo) == pytest.approx(whole, rel=1e-12)


def test_open_orbit_leg_matches_integrator():
    kappa, k = -1.0, 1.0
    state = periastron_state(kappa, k, 1.0, 2.0)
    params = KeplerParams(kappa, k)
    oc = orbit_constants(state, params)
    traj = integrate(state, params, t_end=0.8, tol=1e-12)
    for t_mark in (0.3, 0.5, 0.75):
        u_mark = u_of_state(kappa, traj.state_at(t_mark))
        assert time_from_u(oc, kappa, u_mark, oc.u_periastron) == pytest.approx(
            t_mark, rel=1e-8
        )


def test_time_rejects_forbidden_intervals():
    state = periastron_state(0.0, 1.0, 1.0, 0.4)
    oc = orbit_constants(state, KeplerParams(0.0, 1.0))
    with pytest.raises(DomainError):
        time_from_u(oc, 0.0, 1.0, 1.5)  # beyond periastron u
    with pytest.raises(DomainError):
        time_from_u(oc, 0.0, 0.3, 1.0)  # below apoastron u


def test_time_rejects_asymptote_and_circular():
    # open hyperbolic orbit: u_apo is unreachable, times below the
    # asymptote value are meaningless
    state = periastron_state(-1.0, 1.0, 1.0, 2.0)
    oc = orbit_constants(state, KeplerParams(-1.0, 1.0))
    with pytest.raises(DomainError):
        time_from_u(oc, -1.0, 0.9, 1.5)
    params = KeplerParams(0.0, 1.0)
    circ = orbit_constants(circular_state(params, 1.0), params)
    with pytest.raises(DomainError):
        time_from_u(circ, 0.0, 0.9, 1.1)
    with pytest.raises(DomainError):
        radial_period(circ, 0.0)


def test_radial_period_needs_a_bounded_orbit():
    state = periastron_state(0.0, 1.0, 1.0, 1.0)  # flat parabola
    oc = orbit_constants(state, KeplerParams(0.0, 1.0))
    with pytest.raises(DomainError):
        radial_period(oc, 0.0)


# ----------------------------------------------------------------------
# phi_from_time
# ----------------------------------------------------------------------


@pytest.mark.parametrize("j", [1.0, -1.0])
def test_circular_sweep_is_linear(j):
    kappa, k = 1.0, 1.0
    params = KeplerParams(kappa, k)
    state = circular_state(params, j)
    oc = orbit_constants(state, params)
    traj = integrate(state, params, t_end=5.0, tol=1e-11)
    slope = j / sin_k(kappa, state.r) ** 2
    ts = np.linspace(0.0, 5.0, 21)
    phis = phi_from_time(oc, kappa, ts, traj)
    assert np.max(np.abs(phis - (state.phi + slope * ts))) < 1e-9


def test_sweep_matches_integrator_angles(rng):
    kappa, k = -1.0, 4.0
    state = periastron_state(kappa, k, 1.2, 0.4)
    params = KeplerParams(kappa, k)
    oc = orbit_constants(state, params)
    traj = integrate(state, params, t_end=6.0, tol=1e-11)
    ts = np.sort(rng.uniform(0.0, 6.0, size=25))
    phis = phi_from_time(oc, kappa, ts, traj)
    direct = np.array([traj.state_at(float(t)).phi for t in ts])
    assert np.max(np.abs(phis - direct)) < 1e-7


@pytest.mark.parametrize(
    "kappa,k", [(1.0, 1.0), (-1.0, 4.0), (0.0, 1.0), (1e-6, 1.0), (-1e-6, 1.0)]
)
def test_sweep_matches_tight_integration(kappa, k, rng):
    # up to 7.5 radial periods; the integrator's own phase error at
    # tol 1e-12 stays below 7e-10 rad over this span
    state = periastron_state(kappa, k, 1.1, 0.5, phi_per=0.7)
    params = KeplerParams(kappa, k)
    oc = orbit_constants(state, params)
    traj = integrate(state, params, t_end=8.0, tol=1e-12)
    ts = np.sort(rng.uniform(0.0, 8.0, size=300))
    want = traj.sample(ts)[:, 1]
    assert np.max(np.abs(phi_from_time(oc, kappa, ts, traj) - want)) <= 1e-9


def test_sweep_starts_anywhere_on_the_orbit():
    # a trajectory that starts away from periastron, before it in time
    kappa, k = -1.0, 4.0
    params = KeplerParams(kappa, k)
    start = integrate(periastron_state(kappa, k, -1.2, 0.4, phi_per=2.0), params, 0.37, tol=1e-12).final_state()
    oc = orbit_constants(start, params)
    traj = integrate(start, params, t_end=3.0, tol=1e-12)
    ts = np.linspace(0.0, 3.0, 31)
    assert np.max(np.abs(phi_from_time(oc, kappa, ts, traj) - traj.sample(ts)[:, 1])) <= 1e-10


def test_sweep_start_and_scalar_form():
    params = KeplerParams(0.0, 1.0)
    state = periastron_state(0.0, 1.0, 1.0, 0.3, phi_per=1.1)
    oc = orbit_constants(state, params)
    traj = integrate(state, params, t_end=2.0, tol=1e-10)
    assert phi_from_time(oc, 0.0, 0.0, traj) == pytest.approx(1.1, abs=1e-12)
    out = phi_from_time(oc, 0.0, [0.0, 1.0], traj)
    assert out.shape == (2,)


def test_sweep_rejects_times_outside_trajectory():
    params = KeplerParams(0.0, 1.0)
    state = periastron_state(0.0, 1.0, 1.0, 0.3)
    oc = orbit_constants(state, params)
    traj = integrate(state, params, t_end=2.0, tol=1e-10)
    with pytest.raises(DomainError):
        phi_from_time(oc, 0.0, [0.5, 2.5], traj)
    with pytest.raises(DomainError):
        phi_from_time(oc, 0.0, [-0.1, 0.5], traj)


def test_sweep_refuses_a_curvature_that_is_not_the_trajectorys():
    # read on kappa = 0, this sphere orbit gave phi = 0.774 where the
    # trajectory says 5.818
    params = KeplerParams(1.0, 1.0)
    state = PhaseState(1.0, 0.0, 0.0, 0.9)
    oc = orbit_constants(state, params)
    traj = integrate(state, params, t_end=2.0, tol=1e-10, dense=True)
    assert phi_from_time(oc, 1.0, 2.0, traj) == pytest.approx(traj.sample(2.0)[0, 1], abs=1e-8)
    with pytest.raises(DomainError, match=r"kappa=0\.0 is not the curvature 1\.0 of the trajectory"):
        phi_from_time(oc, 0.0, 2.0, traj)


def test_phi_from_time_gives_one_angle_per_time_of_a_grid():
    params = KeplerParams(1.0, 1.0)
    state = PhaseState(1.0, 0.0, 0.0, 0.9)
    oc = orbit_constants(state, params)
    traj = integrate(state, params, t_end=2.0, tol=1e-10)
    grid = [[0.1, 0.2], [0.3, 0.4]]
    got = phi_from_time(oc, 1.0, grid, traj)
    assert np.array_equal(got, phi_from_time(oc, 1.0, np.ravel(grid), traj))
    assert phi_from_time(oc, 1.0, [[0.1, 0.2]], traj).shape == (2,)


#: each orbit function on an orbit and, for phi_from_time, a trajectory
#: read on the curvature kappa = 0
WRONG_KAPPA = {
    "orbit_radius": lambda oc, traj: orbit_radius(oc, 0.0, 0.4),
    "binet_residual": lambda oc, traj: binet_residual(oc, 0.0, 0.4),
    "time_from_u": lambda oc, traj: time_from_u(oc, 0.0, oc.u_periastron, 0.5 * oc.u_periastron),
    "radial_period": lambda oc, traj: radial_period(oc, 0.0),
    "propagate": lambda oc, traj: propagate(oc, 0.0, [0.5]),
    "phi_from_time": lambda oc, traj: phi_from_time(oc, 0.0, 2.0, traj),
}


@pytest.mark.parametrize("name", sorted(WRONG_KAPPA))
def test_orbit_functions_refuse_a_curvature_that_is_not_the_orbits(name):
    # read on kappa = 0, this sphere orbit gave the period 5.324 where it
    # is 2.487, and with a flat trajectory phi_from_time gave 0.774 where
    # that trajectory says 2.352
    state = PhaseState(1.0, 0.0, 0.0, 0.9)
    oc = orbit_constants(state, KeplerParams(1.0, 1.0))
    flat = integrate(state, KeplerParams(0.0, 1.0), t_end=2.0, tol=1e-10)
    with pytest.raises(DomainError, match=r"kappa=0\.0 is not the curvature 1\.0 of the orbit"):
        WRONG_KAPPA[name](oc, flat)


# ----------------------------------------------------------------------
# propagate
# ----------------------------------------------------------------------

# (kappa, k, j, ecc, t_end): a generic orbit both ways round (j < 0) on
# every curvature, then a flat hyperbola, an orbit past the
# horohyperbola and a super-equatorial sphere orbit; t_end None means two
# radial periods
DIFFERENTIAL_CASES = [
    *[(kappa, 1.0, j, 0.4, None) for kappa in (1.0, -1.0, 1e-6, -1e-6, 0.0) for j in (0.6, -0.6)],
    (0.0, 1.0, 1.0, 2.5, 6.0),
    (-1.0, 1.0, 0.6, 1.6, 2.0),
    (1.0, 1.0, 1.0, 1.8, None),
]


@pytest.mark.parametrize("kappa,k,j,ecc,t_end", DIFFERENTIAL_CASES)
def test_propagate_matches_integrator(kappa, k, j, ecc, t_end):
    # the integrator at tol 1e-12 agrees to about 2e-11 on these spans
    state = periastron_state(kappa, k, j, ecc, phi_per=1.3)
    params = KeplerParams(kappa, k)
    oc = orbit_constants(state, params)
    if t_end is None:
        t_end = 2.0 * radial_period(oc, kappa)
    traj = integrate(state, params, t_end, tol=1e-12)
    got = propagate(oc, kappa, traj.times)
    assert got.shape == traj.states.shape
    scale = np.maximum(1.0, np.abs(traj.states))
    assert np.max(np.abs(got - traj.states) / scale) <= 1e-9
    # and each radius is the closed-form conic's at its own angle
    for r, phi, _, _ in got[:: max(1, len(got) // 25)]:
        assert orbit_radius(oc, kappa, phi) == pytest.approx(r, rel=1e-11)


@pytest.mark.parametrize("kappa,e", [(1.0, -0.3), (0.0, -0.3), (-1.0, -1.05)])
def test_integrated_phase_stays_on_propagate_for_ten_periods(kappa, e):
    # the baseline cases (k = 1, J = 0.8, from periastron): tol bounds the
    # drift of the invariants, not the phase, whose error grows with time;
    # at tol 1e-11 it reaches 8.2e-9 rad after ten radial periods on the plane
    k, j = 1.0, 0.8
    r_per = turning_points(kappa, k, j, e)[0]
    state = PhaseState(r_per, 0.0, 0.0, j / sin_k(kappa, r_per) ** 2)
    params = KeplerParams(kappa, k)
    oc = orbit_constants(state, params)
    traj = integrate(state, params, 10.0 * radial_period(oc, kappa), tol=1e-11, dense=False)
    exact = propagate(oc, kappa, traj.times)
    assert np.max(np.abs(traj.states[:, 1] - exact[:, 1])) < 5e-8


def test_propagate_starts_at_periastron_and_takes_scalars():
    kappa, k = 1.0, 1.0
    state = periastron_state(kappa, k, 0.8, 0.3, phi_per=2.5)
    oc = orbit_constants(state, KeplerParams(kappa, k))
    got = propagate(oc, kappa, 0.0)
    assert got.shape == (1, 4)
    assert got[0] == pytest.approx([state.r, state.phi, 0.0, state.v_phi], abs=1e-14)
    assert propagate(oc, kappa, []).shape == (0, 4)


@pytest.mark.parametrize("j", [1.0, -1.0])
def test_propagate_circular_orbit_is_uniform(j):
    kappa, k = -1.0, 2.0
    params = KeplerParams(kappa, k)
    state = circular_state(params, j)
    oc = orbit_constants(state, params)
    ts = np.linspace(0.0, 5.0, 11)
    got = propagate(oc, kappa, ts)
    assert got[:, 0] == pytest.approx(acot_k(kappa, 1.0 / oc.d), rel=1e-15)
    assert got[:, 1] == pytest.approx(oc.phi0 + j / sin_k(kappa, state.r) ** 2 * ts, abs=1e-12)
    assert np.all(got[:, 2] == 0.0)


def test_propagate_rejects_bad_times_and_unresolved_radii():
    kappa, k = -1.0, 1.0
    oc = orbit_constants(periastron_state(kappa, k, 0.6, 1.6), KeplerParams(kappa, k))
    with pytest.raises(DomainError):
        propagate(oc, kappa, [0.5, math.nan])
    with pytest.raises(DomainError):
        propagate(oc, kappa, math.inf)
    # far out u = coth(r) comes within rounding of its asymptote 1: the
    # radius is lost from about r = 7.5 (t = 3) on, also where the anomaly
    # itself has come within rounding of its limit (t = 40 and later)
    assert propagate(oc, kappa, 3.0)[0, 0] > 7.0
    for t in (5.0, 40.0, 1e6):
        with pytest.raises(DomainError, match="radius is not resolved"):
            propagate(oc, kappa, [1.0, t])


def test_the_anomaly_inverse_gives_up_after_its_step_budget(monkeypatch):
    # on this open orbit some of the times need a second Newton step
    kappa, k = -1.0, 1.0
    oc = orbit_constants(periastron_state(kappa, k, 0.6, 1.6), KeplerParams(kappa, k))
    ts = np.linspace(-3.0, 3.0, 61)
    propagate(oc, kappa, ts)
    monkeypatch.setattr(orbit, "_MAX_STEPS", 1)
    with pytest.raises(CurvedKeplerError, match="did not converge for G = "):
        propagate(oc, kappa, ts)


def test_propagate_just_past_the_parabola():
    # ecc = 1 + 7.5e-8 on the plane: the closed form of G is 0/0 at the two
    # table nodes next to theta_inf, which once made every time fail
    kappa, k = 0.0, 1.0
    oc = orbit_constants(periastron_state(kappa, k, 1.0, 1.0 + 7.5e-8), KeplerParams(kappa, k))
    u = 0.5 * oc.u_periastron
    t = time_from_u(oc, kappa, u, oc.u_periastron)
    assert t == pytest.approx(0.667, abs=1e-3)
    got = propagate(oc, kappa, [-t, t])
    assert got[:, 0] == pytest.approx([acot_k(kappa, u)] * 2, rel=1e-13)
    assert got[0, 1] == -got[1, 1]


#: the curvatures of the ephemeris benchmark
BENCH_CURVATURES = (1.0, 1e-6, 0.0, -1e-6, -1.0)


def _spy_on_the_inverse(monkeypatch):
    """Record each ``_certify`` verdict and count the closed-form calls."""
    verdicts, closed = [], []
    certify, g_theta = orbit._certify, orbit._g_theta
    monkeypatch.setattr(orbit, "_certify", lambda *args: verdicts.append(certify(*args)) or verdicts[-1])
    monkeypatch.setattr(orbit, "_g_theta", lambda *args: closed.append(args) or g_theta(*args))
    return verdicts, closed


@pytest.mark.parametrize("kappa", BENCH_CURVATURES)
def test_bounded_orbits_invert_the_time_law_by_quadrature_alone(kappa, monkeypatch):
    # ecc up to 0.9 of the bounded range, as the ephemeris benchmark draws
    # them: every table interval is certified, so the closed form of G
    # runs only on the table
    verdicts, closed = _spy_on_the_inverse(monkeypatch)
    k = 1.0
    runs = 0
    for j in (0.5, 0.75):
        top = 1.0 - math.sqrt(max(-kappa, 0.0)) * j * j / k
        for ecc in (0.05 * top, 0.5 * top, 0.9 * top):
            oc = orbit_constants(periastron_state(kappa, k, j, ecc), KeplerParams(kappa, k))
            propagate(oc, kappa, np.linspace(-2.0, 2.0, 401) * radial_period(oc, kappa))
            runs += 1
    assert len(verdicts) == runs and all(v.all() for v in verdicts)
    assert len(closed) == runs


def test_uncertified_intervals_keep_the_closed_form_residual(monkeypatch):
    # 1e-6 short of the parabola G' peaks at 1e12 by the apoastron, where
    # the 4-point rule over a table interval is far off
    kappa, k = 0.0, 1.0
    oc = orbit_constants(periastron_state(kappa, k, 1.0, 1.0 - 1e-6), KeplerParams(kappa, k))
    ts = np.linspace(-1.0, 1.0, 401) * radial_period(oc, kappa)
    verdicts, closed = _spy_on_the_inverse(monkeypatch)
    got = propagate(oc, kappa, ts)[:, 1]
    assert not verdicts[0].all()
    assert len(closed) > 2
    # nothing certified: every query on the closed form
    monkeypatch.setattr(orbit, "_CERTIFY_ULPS", -1)
    want = propagate(oc, kappa, ts)[:, 1]
    assert np.max(np.abs(got - want)) <= 1e-14
    # everything certified: the rule alone misses by 2.5e-4 rad
    monkeypatch.setattr(orbit, "_CERTIFY_ULPS", math.inf)
    assert np.max(np.abs(propagate(oc, kappa, ts)[:, 1] - want)) > 1e-4


def test_gauss_rule_is_numpys_four_point_legendre_rule():
    nodes, weights = np.polynomial.legendre.leggauss(4)
    assert np.array_equal(orbit._GAUSS_NODES, nodes)
    assert np.array_equal(orbit._GAUSS_WEIGHTS, weights)


def test_phi_from_time_follows_open_orbit_to_its_asymptote():
    # on the hyperbolic plane G grows only like log(1/(theta_inf - theta)):
    # by t = 40 the anomaly is within rounding of theta_inf, and phi still
    # follows the integrator there and beyond
    kappa, k = -1.0, 1.0
    params = KeplerParams(kappa, k)
    state = periastron_state(kappa, k, 0.6, 1.6)
    oc = orbit_constants(state, params)
    traj = integrate(state, params, t_end=60.0, tol=1e-12)
    ts = np.linspace(0.0, 60.0, 241)
    got = phi_from_time(oc, kappa, ts, traj)
    assert np.max(np.abs(got - traj.sample(ts)[:, 1])) < 1e-11


# ----------------------------------------------------------------------
# closed form against the integrator (core invariant)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kappa", REGIMES)
def test_closed_form_tracks_integrated_orbits(kappa):
    rng = np.random.default_rng(SEED + 7)
    params = KeplerParams(kappa, 1.0)
    checked = 0
    while checked < 50:
        # moderate radii and speeds: wild hyperbolic draws escape so fast
        # that sinh(r) leaves double range within the integration window
        (state,) = random_states(kappa, 1, rng, r_hi=2.0, v_max=2.0)
        if abs(state.v_phi) * sin_k(kappa, state.r) ** 2 < 0.1:
            continue  # skip near-radial draws: conic constants degenerate
        checked += 1
        traj = integrate(state, params, t_end=5.0, tol=1e-11, dense=False)
        oc = orbit_constants(state, params)
        u_num = np.array([u_of_state(kappa, PhaseState(*row)) for row in traj.states])
        u_form = u_closed(oc, traj.states[:, 1])
        assert np.max(np.abs(u_form - u_num)) < 1e-6


@pytest.mark.parametrize("kappa", REGIMES)
def test_cotangent_squared_identity(kappa, rng):
    # u^2 + kappa = 1/sin_k(r)^2 on every chart point
    for r in rng.uniform(0.05, 2.9 if kappa > 0 else 5.0, size=300):
        u = cos_k(kappa, r) / sin_k(kappa, r)
        lhs = u * u + kappa
        rhs = 1.0 / sin_k(kappa, r) ** 2
        # scale by the dominant term: for kappa < 0 the difference
        # u^2 - 1 cancels, so noise lives at the u^2 scale
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, u * u, abs(rhs))


@pytest.mark.parametrize("kappa", REGIMES)
def test_radius_cotangent_chain_rule(kappa):
    # dr = -du/(u^2 + kappa): finite differences on acot_k
    if kappa > 0:
        us = np.linspace(-4.0, 4.0, 17)
    elif kappa == 0:
        us = np.linspace(0.2, 6.0, 17)
    else:
        us = np.linspace(1.2, 6.0, 17)
    for u in us:
        h = 1e-5 * max(1.0, abs(u))
        fd = (acot_k(kappa, u + h) - acot_k(kappa, u - h)) / (2.0 * h)
        exact = -1.0 / (u * u + kappa)
        assert fd == pytest.approx(exact, rel=1e-8)
