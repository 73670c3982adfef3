"""Closed-form time of flight and its inverse against an independent
40-digit route.

``time_from_u`` and ``radial_period`` evaluate the time law in closed
form, and ``propagate`` inverts it.  The oracle here never uses the package's own variables (the
half-angle tangent, the pair of partial-fraction arguments): it maps
each u endpoint to the true anomaly theta = acos((d u - 1)/ecc) at 40
digits and integrates

    dt = d**2 dtheta / (|j| ((1 + ecc cos theta)**2 + kappa d**2))

with ``mp.quad``.  The bound is 1e-12 relative plus the oracle's own
change when ecc, d or either u endpoint moves by 4 ulps: near a turning
point, the asymptote or a landmark eccentricity no double-precision
input pins the time down further, whatever route computes it.  The
inverse is held to the same 40-digit time law evaluated forward at the
anomaly it returns, |t(theta) - t| over dt/dtheta, with the same kind of
bound in the anomaly.
"""

import math
import warnings

from conftest import untraced
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

import numpy as np
import pytest

from curvedkepler.conics import ConicLabel, classify_conic, conic_from_dynamics
from curvedkepler.dynamics import KeplerParams, PhaseState, integrate
from curvedkepler.effective_potential import turning_points
from curvedkepler.errors import DomainError
from curvedkepler.ktrig import acot_k, sin_k
from curvedkepler.orbit import orbit_constants, phi_from_time, propagate, radial_period, time_from_u

CURVATURES = [1.0, -1.0, 1e-6, -1e-6, 1e-10, -1e-10, 0.0]
TIME_RTOL = 1e-12
ULPS = 4
KINDS = ("generic", "beyond", "parabola", "horoellipse", "horohyperbola")
#: open legs stop this share of the way from the asymptote to periastron
OPEN_REACH = 1e-7


def _moved(x, n):
    return x + n * math.ulp(x)


def _time_law(kappa, j, d, ecc):
    """dt/dtheta of the orbit (j, d, ecc) and its slopes in ecc and d.

    ``rate_slopes`` returns d rate/d ecc + i d rate/d d.  Both evaluate
    at the working precision of the caller.
    """
    ecc_mp, d_mp = mpf(ecc), mpf(d)
    shift, scale = mpf(kappa) * d_mp**2, d_mp**2 / abs(mpf(j))

    def rate(th):
        x = 1 + ecc_mp * mp.cos(th)
        return scale / (x * x + shift)

    def rate_slopes(th):
        c = mp.cos(th)
        x = 1 + ecc_mp * c
        den = x * x + shift
        f = scale / den
        return mpc(-2 * f * x * c / den, 2 * f / d_mp - 2 * shift * f / (d_mp * den))

    return rate, rate_slopes


def _breaks(ecc, a, b):
    """a, b and the points between them where the time law's integrand
    changes shape: the apsides (multiples of pi) and, for ecc > 1, the
    equator crossings 1 + ecc cos theta = 0, where it peaks on the sphere."""
    marks = [a, b]
    for n in range(int(mp.floor(a / mp.pi)), int(mp.ceil(b / mp.pi)) + 1):
        marks.append(n * mp.pi)
        if ecc > 1 and n % 2 == 0:
            crossing = mp.acos(-1 / mpf(ecc))
            marks += [n * mp.pi - crossing, n * mp.pi + crossing]
    return sorted(m for m in marks if a <= m <= b)


@untraced()
def _oracle_bound(kappa, j, d, ecc, u_a, u_b):
    """Oracle time between two u values of the orbit (j, d, ecc), and its tolerance.

    The time is the 40-digit quadrature in theta.  The tolerance is
    TIME_RTOL relative plus, for each of ecc, d, u_a and u_b, the larger
    change of that time when the input moves ULPS ulps either way, to
    first order: the integrand's derivative over the leg plus the rate
    times the (exact) shift of each end's anomaly, which keeps the
    square-root behaviour at an apsis.
    """
    with mp.workdps(40):
        rate, rate_slopes = _time_law(kappa, j, d, ecc)

        def anomaly(u, ecc=ecc, d=d):
            c = (mpf(d) * mpf(u) - 1) / mpf(ecc)
            return mp.acos(min(mpf(1), max(mpf(-1), c)))

        th_a, th_b = anomaly(u_a), anomaly(u_b)
        sign = 1 if th_a >= th_b else -1
        points = _breaks(ecc, *sorted((th_a, th_b)))
        t = mp.quad(rate, points)
        with mp.workdps(15):
            slopes = sign * mp.quad(rate_slopes, points)

        def end_shift(u_a=u_a, u_b=u_b, ecc=ecc, d=d):
            return sign * (
                rate(th_a) * (anomaly(u_a, ecc, d) - th_a) - rate(th_b) * (anomaly(u_b, ecc, d) - th_b)
            )

        spread = (
            max(abs(n * math.ulp(ecc) * slopes.real + end_shift(ecc=_moved(ecc, n))) for n in (-ULPS, ULPS))
            + max(abs(n * math.ulp(d) * slopes.imag + end_shift(d=_moved(d, n))) for n in (-ULPS, ULPS))
            + max(abs(end_shift(u_a=_moved(u_a, n))) for n in (-ULPS, ULPS))
            + max(abs(end_shift(u_b=_moved(u_b, n))) for n in (-ULPS, ULPS))
        )
        return float(t), TIME_RTOL * float(t) + float(spread)


def _orbit(kappa, k, j, ecc):
    """OrbitConstants of the (j, ecc) orbit, built from its periastron state."""
    d = j * j / k
    u_per = (1.0 + ecc) / d
    state = PhaseState(acot_k(kappa, u_per), 0.0, 0.0, j * (u_per * u_per + kappa))
    return orbit_constants(state, KeplerParams(kappa, k))


def _endpoint(oc, kappa, frac):
    """u at share ``frac`` of the way from the far end of the leg to periastron.

    frac = 1 is the periastron and, for a bounded orbit, frac = 0 the
    apoastron, both exactly as ``OrbitConstants`` reports them.  An open
    orbit's far end is OPEN_REACH of the way out from the asymptote.
    """
    u_per, u_apo = oc.u_periastron, oc.u_apoastron
    asym = math.sqrt(-kappa) if kappa < 0.0 else 0.0
    if frac == 1.0:
        return u_per
    if kappa > 0.0 or u_apo > asym:
        return u_apo if frac == 0.0 else u_apo + frac * (u_per - u_apo)
    far = asym + OPEN_REACH * (u_per - asym)
    return far + frac * (u_per - far)


fractions = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.floats(0.0, 1.0),
    st.floats(-12.0, -2.0).map(lambda x: 10.0**x),  # next to the far end
    st.floats(-12.0, -2.0).map(lambda x: 1.0 - 10.0**x),  # next to periastron
)


@st.composite
def flight_cases(draw, kinds=KINDS):
    """(kappa, k, j, ecc, frac_a, frac_b) near a landmark eccentricity."""
    kappa = draw(st.sampled_from(CURVATURES))
    kind = draw(st.sampled_from(kinds))
    k = draw(st.floats(0.5, 2.0))
    j = draw(st.floats(0.3, 2.0))
    c = math.sqrt(-kappa) if kappa < 0.0 else 0.0
    if kappa < 0.0:
        # keep the well: a = sqrt(-kappa) j^2/k <= 0.8
        j = min(j, math.sqrt(0.8 * k / c))
    a = c * j * j / k
    offset = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-9.0, -3.0))
    if kind == "generic":
        # bounded: below the horoellipse, or sub-equatorial on the sphere
        ecc = draw(st.floats(0.05, 0.95)) * (1.0 - a)
    elif kind == "beyond":
        # open past the horohyperbola, or super-equatorial on the sphere
        ecc = 1.0 + a + draw(st.floats(0.05, 2.0))
    elif kind == "parabola":
        ecc = 1.0 + offset
    elif kind == "horoellipse":
        ecc = (1.0 - a) * (1.0 + offset)
    else:
        ecc = (1.0 + a) * (1.0 + offset)
    frac_a = draw(fractions)
    if draw(st.booleans()):
        # a short leg: the second end a small share away from the first
        step = 10.0 ** draw(st.floats(-13.0, -1.0)) * draw(st.sampled_from([-1.0, 1.0]))
        frac_b = min(1.0, max(0.0, frac_a + step))
    else:
        frac_b = draw(fractions)
    return kappa, k, j, ecc, frac_a, frac_b


@given(flight_cases())
@example((0.0, 1.0, 1.0, 1.0 - 1e-9, 0.0, 1.0))  # flat ellipse next to the parabola
@example((0.0, 1.0, 1.0, 1.0 + 1e-9, 0.0, 1.0))  # flat hyperbola, out to the asymptote
@example((-1.0, 1.0, 0.5, 0.75 * (1.0 - 1e-9), 0.0, 1.0))  # just inside the horoellipse
@example((-1.0, 1.0, 0.5, 0.75 * (1.0 + 1e-9), 0.0, 1.0))  # just outside it
@example((-1.0, 1.0, 0.5, 1.25 * (1.0 + 1e-9), 0.3, 1.0))  # next to the horohyperbola
@example((1e-10, 1.0, 1.0, 1.5, 0.0, 1.0))  # super-equatorial, nearly flat sphere
@example((1.0, 1.0, 1.0, 1.0 + 1e-9, 0.0, 1.0))  # equatorial orbit on the sphere
@example((-1e-10, 1.3, 0.8, 0.4, 0.25, 0.75))  # interior leg at the flat limit
@example((1e-6, 1.0, 1.2, 0.6, 1e-12, 1.0 - 1e-12))  # legs ending next to both apsides
@example((1e-6, 1.0, 0.5, 3.0, 0.25, 0.01))  # both ends past the equator
@example((1.0, 1.25, 2.0, 0.9999999, 0.01, 0.009955128609158502))  # short leg by the equator
@example((-1e-12, 0.4086, 0.1089, 5.934, 1e-7, 0.5862))  # one end next to the asymptote
# a short leg past the equator of a nearly flat sphere: _leg's L_A comes
# from its square, and the root on the wrong side of the direct sum is flipped
@example((1e-06, 1.9374507555918936, 1.691487399634507, 2.1496442537939418, 0.15677544918609887, 0.1567760330473608))
@settings(max_examples=400, deadline=None)
def test_time_of_flight_matches_mpmath_oracle(case):
    kappa, k, j, ecc, frac_a, frac_b = case
    oc = _orbit(kappa, k, j, ecc)
    u_a, u_b = _endpoint(oc, kappa, frac_a), _endpoint(oc, kappa, frac_b)
    got = time_from_u(oc, kappa, u_a, u_b)
    want, tol = _oracle_bound(kappa, oc.conserved.j, oc.d, oc.ecc, u_a, u_b)
    assert abs(got - want) <= tol, (got, want, tol)

    # radial_period is defined exactly where the orbit's conic is closed
    conic = classify_conic(conic_from_dynamics(kappa, oc.d, oc.ecc))
    if conic.label in (ConicLabel.CIRCLE, ConicLabel.ELLIPSE):
        half = time_from_u(oc, kappa, oc.u_apoastron, oc.u_periastron)
        assert radial_period(oc, kappa) == 2.0 * half
    else:
        with pytest.raises(DomainError, match="not radially bounded"):
            radial_period(oc, kappa)


def test_near_escape_leg_matches_oracle_without_warnings():
    # survey case just below the plateau (E is 1.1e-7 under -k): the
    # quadrature this replaced emitted IntegrationWarning on this leg
    kappa, k, j, e = -1.0, 1.306245733590143, 0.8363508017361087, -1.306245872849284
    r_per = turning_points(kappa, k, j, e)[0]
    s = sin_k(kappa, r_per)
    oc = orbit_constants(PhaseState(r_per, 0.0, 0.0, j / (s * s)), KeplerParams(kappa, k))
    u_a, u_b = 1.0000002295115942, 1.7216789466252267
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = time_from_u(oc, kappa, u_a, u_b)
    want, tol = _oracle_bound(kappa, oc.conserved.j, oc.d, oc.ecc, u_a, u_b)
    assert abs(got - want) <= tol, (got, want, tol)


@untraced()
def _forward_miss(kappa, j, d, ecc, t, theta):
    """|t(theta) - t| over dt/dtheta at the anomaly theta = phi - phi0 that
    came back for the time t since periastron, and its tolerance.

    t(theta) is the 40-digit time law: whole turns of a bounded orbit by
    the period integral, the rest of theta by one quadrature (the period
    integral of a whole turn taken as that quadrature plus the rest of
    the half turn, so that no stretch is integrated twice).  The
    tolerance is TIME_RTOL relative plus, for each of ecc, d and t, the
    larger change of theta when the input moves ULPS ulps either way, to
    first order: the time's slope in that input over the rate dt/dtheta.
    The slopes in ecc and d only add to it, so they are integrated only
    where the miss exceeds the rest.
    """
    with mp.workdps(40):
        rate, rate_slopes = _time_law(kappa, j, d, ecc)
        bounded = kappa > 0 or 1 - ecc > d * mp.sqrt(max(-kappa, 0))
        turns, rest = 0, abs(mpf(theta))
        if bounded:
            turns = int(mp.nint(rest / (2 * mp.pi)))
            rest -= 2 * mp.pi * turns
        part = mp.quad(rate, _breaks(ecc, 0, abs(rest)))
        t_at = math.copysign(1, rest) * part
        if turns:
            t_at += 2 * turns * (part + mp.quad(rate, _breaks(ecc, abs(rest), mp.pi)))
        miss = float(abs(math.copysign(1, theta) * t_at - mpf(t)) / rate(rest))
        floor = TIME_RTOL * abs(theta) + float(ULPS * math.ulp(t) / rate(rest)) + 1e-30
        if miss <= floor:
            return miss, floor
        with mp.workdps(15):
            part = mp.quad(rate_slopes, _breaks(ecc, 0, abs(rest)))
            slopes = math.copysign(1, rest) * part
            if turns:
                slopes += 2 * turns * (part + mp.quad(rate_slopes, _breaks(ecc, abs(rest), mp.pi)))
        spread = (
            ULPS * math.ulp(ecc) * abs(slopes.real)
            + ULPS * math.ulp(d) * abs(slopes.imag)
            + ULPS * math.ulp(t)
        ) / rate(rest)
        return miss, TIME_RTOL * abs(theta) + float(spread) + 1e-30


@given(flight_cases(), st.sampled_from([0, 1, 7]), st.sampled_from([-1.0, 1.0]))
@example((-1.0, 1.0, 0.8, 0.35821781083580917, 0.0, 0.0), 9, 1.0)  # the E = -1.001 orbit, apoastron
@example((1e-10, 1.0, 1.0, 1.5, 1e-3, 0.0), 0, 1.0)  # just short of the equator, nearly flat sphere
@example((0.0, 1.0, 1.0, 2.5, 1e-12, 0.0), 0, -1.0)  # flat hyperbola next to its asymptote
@example((1.0, 1.0, 1.2, 0.6, 1.0, 0.0), 1, -1.0)  # a whole turn back to periastron
# Newton steps from a seed clipped to the apoastron, where G'' = 0, must
# not be taken as final: 9% of the time off on a nearly flat sphere, and
# next to the horoellipse
@example((1e-10, 1.0, 0.5, 0.99999, 1e-6, 0.0), 0, -1.0)
@example((-1.0, 1.0, 0.8944271909999159, 0.19999998000000008, 1e-7, 0.0), 0, -1.0)
# a flat hyperbola 7.5e-8 past the parabola: the closed form is 0/0 at the
# table nodes next to the asymptote
@example((0.0, 1.0, 1.0, 1.0 + 7.5e-8, 0.5, 0.0), 0, -1.0)
# a flat ellipse 1e-6 short of the parabola: the quadrature of G' over the
# table intervals next to the apoastron is not certified
@example((0.0, 1.0, 1.0, 1.0 - 1e-6, 0.02, 0.0), 0, 1.0)
@settings(max_examples=400, deadline=None)
def test_propagate_anomaly_matches_mpmath_inverse(case, turns, sign):
    kappa, k, j, ecc, frac, _ = case
    oc = _orbit(kappa, k, j, ecc)
    u = _endpoint(oc, kappa, frac)
    asym = math.sqrt(-kappa) if kappa < 0.0 else 0.0
    bounded = kappa > 0.0 or oc.u_apoastron > asym
    t = time_from_u(oc, kappa, u, oc.u_periastron)
    if bounded:
        # radial_period refuses an orbit inside the boundary band of its class
        conic = classify_conic(conic_from_dynamics(kappa, oc.d, oc.ecc))
        assume(conic.label in (ConicLabel.CIRCLE, ConicLabel.ELLIPSE))
        t += turns * radial_period(oc, kappa)
    t *= sign
    # the periastron state sits at phi = 0, so phi0 = -0.0 and phi is theta
    assert oc.phi0 == 0.0
    try:
        got = float(propagate(oc, kappa, t)[0, 1])
    except DomainError as exc:
        # propagate's documented refusal of a radius next to the asymptote
        assume("not resolved in double precision" not in str(exc))
        raise
    # the time law evaluated forward at the returned anomaly: mp.findroot,
    # Newton's method on the same law, took 2.5 times as long
    miss, tol = _forward_miss(kappa, oc.conserved.j, oc.d, oc.ecc, t, got)
    assert miss <= tol, (got, miss, tol)


#: (kappa, J, ecc) of nearly parabolic orbits that cross the equator of a
#: nearly flat sphere, where G all but jumps: Newton steps alone swing
#: across that step without end, between theta = 3.13893 and 3.14159 on
#: the first
CYCLING_ORBITS = [
    (1e-10, 0.3013852227175854, 1.0000020925945643),
    (1e-10, 0.7894545617471981, 1.000010688151606),
    (1e-6, 0.13371534793700932, 1.0000519930214704),
]


@pytest.mark.parametrize("kappa, j, ecc", CYCLING_ORBITS)
def test_propagate_inverts_the_time_law_across_the_equator(kappa, j, ecc):
    # held to the 40-digit time law evaluated forward at each anomaly, as
    # mp.findroot is Newton's method too: |t(theta) - t| over dt/dtheta
    oc = _orbit(kappa, 1.0, j, ecc)
    ts = np.linspace(-1.3, 1.3, 777) * radial_period(oc, kappa)
    phi = propagate(oc, kappa, ts)[:, 1]
    assert oc.phi0 == 0.0
    worst = 0.0
    with untraced(), mp.workdps(40):
        rate, _ = _time_law(kappa, oc.conserved.j, oc.d, oc.ecc)
        # t(theta) is odd: sum it up over the sorted |theta|, one short leg each
        t_at, reached = mpf(0), mpf(0)
        for i in np.argsort(np.abs(phi)):
            theta = mpf(abs(float(phi[i])))
            if theta > reached:
                t_at += mp.quad(rate, _breaks(oc.ecc, reached, theta))
                reached = theta
            miss = abs(math.copysign(1, phi[i]) * t_at - mpf(float(ts[i]))) / rate(theta)
            worst = max(worst, float(miss))
    assert worst <= 1e-13, worst


def test_phi_from_time_over_ten_periods_by_the_horoellipse():
    # kappa = -1, k = 1, J = 0.8, E = -1.001: the apoastron lies 0.3% inside
    # the horoellipse, so the orbit crawls there; the quadrature sweep this
    # replaced was 3.6e-3 rad off after ten radial periods
    kappa, k, j, e = -1.0, 1.0, 0.8, -1.001
    r_per = turning_points(kappa, k, j, e)[0]
    s = sin_k(kappa, r_per)
    params = KeplerParams(kappa, k)
    state = PhaseState(r_per, 0.3, 0.0, j / (s * s))
    oc = orbit_constants(state, params)
    span = 10.0 * radial_period(oc, kappa)
    # phi_from_time reads only the start and the span of the trajectory
    traj = integrate(state, params, span, tol=1e-9)
    ts = np.linspace(0.0, span, 11)
    for t, phi in zip(ts, phi_from_time(oc, kappa, ts, traj)):
        miss, _ = _forward_miss(kappa, oc.conserved.j, oc.d, oc.ecc, t, phi - 0.3)
        assert miss <= 1e-9, (t, phi, miss)


def test_exact_horoellipse_leg_matches_oracle():
    # kappa = -1, k = 1, J = 0.5, ecc = 0.75: 1 - ecc = sqrt(-kappa) d holds
    # exactly in binary, so one partial fraction's y is identically 0,
    # and the arctangent route must not divide atan(0) by 0
    kappa = -1.0
    oc = _orbit(kappa, 1.0, 0.5, 0.75)
    assert oc.u_apoastron == 1.0
    got = time_from_u(oc, kappa, 2.0, 5.0)
    want, tol = _oracle_bound(kappa, oc.conserved.j, oc.d, oc.ecc, 2.0, 5.0)
    assert abs(got - want) <= tol, (got, want, tol)
    # and propagate inverts it there, both ways from periastron
    leg = time_from_u(oc, kappa, 2.0, oc.u_periastron)
    radii = propagate(oc, kappa, [-leg, leg])[:, 0]
    assert np.all(np.abs(radii - acot_k(kappa, 2.0)) <= 1e-12 * radii)
